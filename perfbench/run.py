"""Run one beamfix benchmark workload; the last line of stdout is the JSON result.

    python3 perfbench/run.py --workload pipeline-default --seed 1 --seconds 15 --trace 0

Run it from the root of a source tree (it imports ``src/beamfix``, no
install needed). Each workload is a closed loop: one client in this
process runs the next operation only after the previous one completes.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics. The full
record of a run (environment, per-operation times, output digests,
checks) goes to ``perfbench/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"
BASELINE = HERE / "baseline.json"
SETUPS = 3
HARD_STOP_S = 150.0
QUALITY = (
    "lut_err_m", "mlp_err_m", "txid_acc", "fit_adj_r2",
    "evaluate.worse_than_noisy", "evaluate.anchor_fallbacks",
)
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import beamfix.cli; print(time.perf_counter() - t)"
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the timed loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def digest_tree(root: Path) -> dict[str, str]:
    """SHA-256 of every file under root, keyed by its path relative to root."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def combined(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def code_identity() -> str:
    """Digest of the program and benchmark sources, standing in for a commit."""
    files = sorted((SRC / "beamfix").rglob("*.py")) + sorted(HERE.glob("*.py"))
    h = hashlib.sha256()
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(nproc: int, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas_threads": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "commit": git_commit(),
        "code_sha256": code_identity(),
    }


def import_seconds() -> float:
    """Time of `import beamfix.cli` in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout.split()[-1])


def tail(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it (the maximum below 11 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return "max", ordered[-1]
    return f"p{100 * (n - 10) // n}", ordered[n - 11]


class Runner:
    def __init__(self, args, cli, modules, workload, tracer):
        self.args = args
        self.cli = cli
        self.modules = modules
        self.workload = workload
        self.tracer = tracer
        self.work = WORK / f"{workload.name}-seed{args.seed}"
        self.log = None
        self.reference: dict[str, str] | None = None
        self.problems: list[str] = []

    @contextlib.contextmanager
    def quiet(self):
        """Send the program's console output to the run log."""
        with contextlib.redirect_stdout(self.log), contextlib.redirect_stderr(self.log):
            yield

    def setup(self, i: int) -> tuple[float, str]:
        """One input generation; returns its time (with a fresh import) and its output digest."""
        imported = import_seconds()
        where = self.work / f"setup{i}"
        where.mkdir(parents=True)
        start = time.perf_counter()
        with self.quiet():
            self.workload.prepare(self.cli, where, self.args.seed)
        return imported + time.perf_counter() - start, combined(digest_tree(where))

    def operate(self, traced: bool) -> dict:
        """One timed operation, then its output checks (outside the timing)."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        problems, codes = [], []
        gc.collect()  # start every operation from the same heap state
        if traced:
            self.tracer.install(self.modules)
        try:
            with self.quiet(), (self.tracer.op() if traced else contextlib.nullcontext()):
                start = time.perf_counter()
                try:
                    codes = self.workload.operate(self.cli, out)
                except Exception:
                    traceback.print_exc()
                    problems.append("operation raised: " + traceback.format_exc(limit=1).strip())
                wall = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        if any(code != 0 for code in codes):
            problems.append(f"exit codes {codes}")
        digests = digest_tree(out)
        inspection = None
        if not problems:
            try:
                inspection = self.workload.inspect(out)
                problems += inspection.problems
            except (OSError, LookupError, TypeError, ValueError) as exc:
                problems.append(f"output check could not read the outputs: {exc!r}")
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(k for k in digests.keys() | self.reference.keys()
                             if digests.get(k) != self.reference.get(k))
            problems.append(f"outputs differ from this run's first operation: {changed[:5]}")
        shutil.rmtree(out, ignore_errors=True)
        return {"wall_s": wall, "traced": traced, "problems": problems, "inspection": inspection}

    def run(self, repeats: int) -> tuple[list[float], list[dict]]:
        """Set-up repeats interleaved with the timed loop, so both sample the whole run.

        After set-up i, operations (or untraced/traced pairs) run until
        (i + 1) / repeats of --seconds is spent on them; the next one starts
        only if it would end at most half an operation late. At least one
        operation runs. Every set-up must write the same bytes.
        """
        setup_times, digests, ops, units = [], [], [], []
        for i in range(repeats):
            seconds, digest = self.setup(i)
            setup_times.append(seconds)
            digests.append(digest)
            target = min(self.args.seconds * (i + 1) / repeats, HARD_STOP_S)
            while not units or sum(units) + statistics.mean(units) / 2 < target:
                start = time.perf_counter()
                if self.tracer is not None:
                    ops.append(self.operate(traced=False))
                ops.append(self.operate(traced=self.tracer is not None))
                units.append(time.perf_counter() - start)
        if len(set(digests)) > 1:
            self.problems.append(f"set-up outputs differ between repeats: {digests}")
        return setup_times, ops

    def check_history(self, env: dict) -> dict:
        """Compare outputs with earlier runs of the same code and seed, and with the baseline."""
        digest = combined(self.reference or {})
        store = RESULTS / "digests" / f"{self.workload.name}-seed{self.args.seed}.json"
        earlier = json.loads(store.read_text()) if store.exists() else {}
        if earlier.get("code_sha256") == env["code_sha256"]:
            if earlier["outputs"] != self.reference:
                self.problems.append("outputs differ from an earlier run of the same code and seed")
        else:
            store.parent.mkdir(parents=True, exist_ok=True)
            store.write_text(json.dumps(
                {"code_sha256": env["code_sha256"], "outputs": self.reference}, indent=1))
        versus = "no baseline for this seed"
        if BASELINE.exists():
            entry = json.loads(BASELINE.read_text()).get(self.workload.name, {})
            expected = entry.get("outputs_sha256_by_seed", {}).get(str(self.args.seed))
            if expected is not None:
                versus = "same as baseline" if expected == digest else "differs from baseline"
        return {"outputs_sha256": digest, "baseline_outputs": versus, "files": self.reference}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "beamfix" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'beamfix'}; run from a beamfix checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    os.environ.pop("BEAMFIX_SEED", None)
    sys.path.insert(0, str(SRC))

    import beamfix.cli as cli
    from spans import TRACED, Tracer, unit_of
    from workloads import WORKLOADS

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported beamfix from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    modules = {name: sys.modules[f"beamfix.{name}"] for name in TRACED}
    tracer = Tracer() if args.trace else None
    runner = Runner(args, cli, modules, WORKLOADS[args.workload], tracer)
    shutil.rmtree(runner.work, ignore_errors=True)
    runner.work.mkdir(parents=True)
    env = environment(nproc, args.seed)

    with open(runner.work / "program.log", "w", encoding="utf-8") as log:
        runner.log = log
        try:
            setup_times, ops = runner.run(1 if args.trace else SETUPS)
        except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs = runner.check_history(env)

    attempted = len(ops)
    # A set-up or cross-run mismatch concerns every operation of the run.
    failed = attempted if runner.problems else sum(1 for op in ops if op["problems"])
    first = next((op["inspection"] for op in ops if op["inspection"] is not None), None)
    quality = {k: float((first.quality if first else {}).get(k, 0.0)) for k in QUALITY}
    walls = [op["wall_s"] for op in ops if not op["traced"]]
    rows = first.rows if first else 0
    tail_label, tail_s = tail(walls)

    if args.trace:
        traced_walls = [op["wall_s"] for op in ops if op["traced"]]
        metrics = tracer.per_layer()
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        metrics.update(quality)
        units = {k: unit_of(k) for k in metrics}
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.save(RESULTS / f"{args.workload}-seed{args.seed}-spans.npz")
    else:
        wall_s = statistics.median(walls)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "samples_per_s": rows / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "wall_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "quality": quality,
        "rows_per_operation": rows,
        "setup_s_samples": setup_times,
        "wall_s_samples": walls,
        "wall_s_tail": {"percentile": tail_label, "value": tail_s, "samples": len(walls)},
        "problems": runner.problems + [p for op in ops for p in op["problems"]],
        "outputs": outputs,
    }
    if args.trace:
        record["traced_wall_s_samples"] = [op["wall_s"] for op in ops if op["traced"]]
        record["blind_bindings"] = tracer.blind_bindings(sys.modules["beamfix"], modules)
    RESULTS.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    result_path = RESULTS / f"{args.workload}-seed{args.seed}{suffix}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(runner.work, ignore_errors=True)

    for problem in record["problems"]:
        print(f"check failed: {problem}")
    print(
        f"{args.workload} seed {args.seed}: wall_s median {statistics.median(walls):.4f} s, "
        f"{tail_label} {tail_s:.4f} s over {len(walls)} operations; "
        f"outputs {outputs['outputs_sha256'][:16]} ({outputs['baseline_outputs']}); "
        f"record in {result_path.relative_to(ROOT)}"
    )
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
