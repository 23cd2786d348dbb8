"""The benchmark's workloads: input generation, the timed operation, and output checks.

Every workload drives the program only through ``beamfix.cli.main`` with
the arguments a user would type; the workload seed reaches the program
through ``--seed`` alone.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

NOISE_TAGS = ("rms0.1", "rms0.5", "rms1", "rms2", "rms3")


@dataclass
class Inspection:
    """What the benchmark reads back from one operation's outputs."""

    rows: int = 0
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _data_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _check_comparisons(eval_dirs: list[Path], out: Inspection) -> None:
    """Finite errors, LUT below noisy GPS everywhere; MLP losses are counted, not gated."""
    lut, mlp, worse, fallbacks = [], [], 0, 0
    for eval_dir in eval_dirs:
        rows = _read_json(eval_dir / "comparison.json")
        if len(rows) != len(NOISE_TAGS):
            out.problems.append(f"{eval_dir}: {len(rows)} comparison rows, expected {len(NOISE_TAGS)}")
        for row in rows:
            where = f"{eval_dir.name} rms {row.get('noise_rms_m')}"
            if not all(_finite(row.get(k)) for k in ("noisy", "lut", "mlp")):
                out.problems.append(f"{where}: non-finite error in {row}")
                continue
            if not row["lut"] < row["noisy"]:
                out.problems.append(f"{where}: LUT {row['lut']} m not below noisy {row['noisy']} m")
            worse += (row["lut"] >= row["noisy"]) + (row["mlp"] >= row["noisy"])
            lut.append(row["lut"])
            mlp.append(row["mlp"])
        for report in sorted(eval_dir.glob("report_*.json")):
            doc = _read_json(report)
            if not all(_finite(v) for v in doc["overall_m"].values()):
                out.problems.append(f"{report}: non-finite overall error")
            fallbacks += doc["fallback_samples"]
    out.quality["lut_err_m"] = sum(lut) / len(lut) if lut else 0.0
    out.quality["mlp_err_m"] = sum(mlp) / len(mlp) if mlp else 0.0
    out.quality["evaluate.worse_than_noisy"] = worse
    out.quality["evaluate.anchor_fallbacks"] = fallbacks


def _txid_accuracy(pairs: list[tuple[Path, Path]], out: Inspection) -> None:
    """Share of test samples whose selected detection is the labeled transmitter."""
    hits = total = 0
    for test_csv, predictions_csv in pairs:
        classes = {}
        with open(test_csv, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                n = int(row["num_detections"])
                classes[row["id"]] = [row[f"det{k}_class"] for k in range(n)]
        with open(predictions_csv, newline="", encoding="utf-8") as fh:
            predictions = list(csv.DictReader(fh))
        if sorted(p["sample_id"] for p in predictions) != sorted(classes):
            out.problems.append(f"{predictions_csv}: sample ids differ from {test_csv}")
            continue
        for p in predictions:
            hits += classes[p["sample_id"]][int(p["selected_index"])] == "TX"
        total += len(predictions)
    out.quality["txid_acc"] = hits / total if total else 0.0


def _check_fits(char_dirs: list[Path], out: Inspection) -> None:
    """Finite characterization numbers; mean adjusted R^2 over the fits that ran."""
    r2 = []
    for char_dir in char_dirs:
        doc = _read_json(char_dir / "fit.json")
        if not _finite(doc["mean_displacement_m"]):
            out.problems.append(f"{char_dir}: non-finite mean displacement")
        fit = doc["fit"]
        if fit is None:
            continue
        if not all(_finite(v) for v in fit.values()):
            out.problems.append(f"{char_dir}: non-finite Gaussian fit {fit}")
            continue
        r2.append(fit["adjusted_r_squared"])
    out.quality["fit_adj_r2"] = sum(r2) / len(r2) if r2 else 0.0


def _check_datasets(dataset_dir: Path, expected: dict[str, int], out: Inspection) -> None:
    """Every direction has a clean set plus one per level, all with the same rows."""
    for dtag, configured in expected.items():
        counts = {
            tag: _data_rows(dataset_dir / f"{dtag}_{tag}.csv") for tag in ("clean", *NOISE_TAGS)
        }
        if len(set(counts.values())) != 1:
            out.problems.append(f"{dtag}: row counts differ across noise levels: {counts}")
        if not 0.9 * configured <= counts["clean"] <= configured:
            out.problems.append(f"{dtag}: {counts['clean']} rows for {configured} simulated")
        out.rows += sum(counts.values())


class PipelineDefault:
    """`beamfix pipeline` with the default config."""

    name = "pipeline-default"

    def prepare(self, cli, work: Path, seed: int) -> None:
        self.seed = seed

    def operate(self, cli, out: Path) -> list[int]:
        return [cli.main(["pipeline", "--out", str(out), "--seed", str(self.seed)])]

    def inspect(self, out: Path) -> Inspection:
        result = Inspection()
        directions = ("l2r", "r2l")
        defaults = {"l2r": 1353, "r2l": 1086}
        _check_datasets(out / "datasets", defaults, result)
        _check_comparisons([out / "eval" / d for d in directions], result)
        _txid_accuracy(
            [
                (out / "artifacts" / d / tag / "test.csv",
                 out / "eval" / d / f"txid_predictions_{tag}.csv")
                for d in directions
                for tag in NOISE_TAGS
            ],
            result,
        )
        _check_fits(sorted((out / "characterize").iterdir()), result)
        return result


class SimulateCharacterize:
    """A large `beamfix simulate`, then `beamfix characterize` on every dataset it wrote."""

    name = "simulate-characterize"
    config = {
        "samples_left_to_right": 4000,
        "samples_right_to_left": 3200,
        "num_distractors": 4,
        "grid_count": 400,
    }

    def prepare(self, cli, work: Path, seed: int) -> None:
        self.seed = seed
        self.config_path = work / "simulate-characterize.json"
        _write_json(self.config_path, self.config)

    def operate(self, cli, out: Path) -> list[int]:
        codes = [
            cli.main(
                ["simulate", "--config", str(self.config_path), "--out", str(out),
                 "--seed", str(self.seed)]
            )
        ]
        for dataset in sorted((out / "datasets").glob("*.csv")):
            codes.append(
                cli.main(
                    ["characterize", "--dataset", str(dataset),
                     "--out", str(out / "characterize" / dataset.stem)]
                )
            )
        return codes

    def inspect(self, out: Path) -> Inspection:
        result = Inspection()
        expected = {
            "l2r": self.config["samples_left_to_right"],
            "r2l": self.config["samples_right_to_left"],
        }
        _check_datasets(out / "datasets", expected, result)
        char_dirs = sorted((out / "characterize").iterdir())
        if len(char_dirs) != 2 * (1 + len(NOISE_TAGS)):
            result.problems.append(f"{len(char_dirs)} characterizations, expected 12")
        _check_fits(char_dirs, result)
        return result


class EvaluateLarge:
    """`beamfix evaluate` over one direction's five trained noise levels."""

    name = "evaluate-large"
    config = {
        "samples_left_to_right": 6000,
        "samples_right_to_left": 100,
        "num_distractors": 4,
        "grid_count": 400,
    }
    # A small training split leaves most samples to evaluate, so the timed
    # operation outweighs set-up; a few epochs suffice to identify the TX.
    train_fraction = 0.2
    epochs = 6

    def prepare(self, cli, work: Path, seed: int) -> None:
        """Simulate, then train every L2R level for a few epochs; every step must exit 0."""
        config_path = work / "evaluate-large.json"
        _write_json(config_path, self.config)
        argv = [["simulate", "--config", str(config_path), "--out", str(work), "--seed", str(seed)]]
        self.artifacts = [work / "artifacts" / tag for tag in NOISE_TAGS]
        for tag, artifact_dir in zip(NOISE_TAGS, self.artifacts):
            argv.append(
                ["train", "--dataset", str(work / "datasets" / f"l2r_{tag}.csv"),
                 "--out", str(artifact_dir), "--seed", str(seed),
                 "--train-fraction", str(self.train_fraction), "--epochs", str(self.epochs)]
            )
        for args in argv:
            code = cli.main(args)
            if code != 0:
                raise RuntimeError(f"set-up command {args[0]} exited {code}")

    def operate(self, cli, out: Path) -> list[int]:
        return [cli.main(["evaluate", "--artifacts", *map(str, self.artifacts), "--out", str(out)])]

    def inspect(self, out: Path) -> Inspection:
        result = Inspection()
        result.rows = sum(_read_json(a / "manifest.json")["test_samples"] for a in self.artifacts)
        _check_comparisons([out], result)
        _txid_accuracy(
            [(a / "test.csv", out / f"txid_predictions_{tag}.csv")
             for tag, a in zip(NOISE_TAGS, self.artifacts)],
            result,
        )
        return result


WORKLOADS = {w.name: w for w in (PipelineDefault(), SimulateCharacterize(), EvaluateLarge())}
