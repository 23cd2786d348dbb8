"""Command-line pipeline: simulate, characterize, train, evaluate, pipeline.

Exit codes are a stable contract: 0 success, 1 runtime failure, 2
validation or configuration failure. All randomness flows from explicit
seeds, so identical invocations produce byte-identical outputs. The
BEAMFIX_SEED environment variable overrides the config seed; a --seed
flag overrides both.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import shutil
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import dataset, denoise, evaluate, geo, grid, nn, simulate, txid
from .dataset import DatasetBundle, DatasetFormatError, Direction
from .geo import NoiseSpec
from .grid import FitConvergenceError
from .nn import TrainConfig, TrainingDivergedError

DEFAULT_NOISE_LEVELS = (0.1, 0.5, 1.0, 2.0, 3.0)

# Evaluate exports plot data for the level whose report tag is this one.
PLOT_LEVEL_TAG = "rms0.5"

# Largest simulated capture: samples per direction and distractors per sample.
MAX_SAMPLES = 1_000_000
MAX_DISTRACTORS = 100

# Largest noise level. It keeps noisy fixes inside the local-plane model:
# an offset of geo.MAX_OFFSET_M (10 km) is then a 14-sigma draw per axis.
MAX_NOISE_RMS_M = geo.MAX_OFFSET_M / 10


class ConfigError(ValueError):
    """Invalid configuration or command arguments."""


@dataclass(frozen=True)
class RunConfig:
    scene_path: str | None = None
    grid_count: int = 100
    codebook_beams: int = 64
    codebook_antennas: int = 16
    noise_levels_m: tuple[float, ...] = DEFAULT_NOISE_LEVELS
    train_fraction: float = 0.7
    seed: int = 7
    samples_left_to_right: int = 1353
    samples_right_to_left: int = 1086
    num_distractors: int = 2
    output_dir: str = "runs/latest"
    learning_rate: float = TrainConfig.learning_rate
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    bin_width_m: float = 0.05

    def validate(self) -> None:
        if not 1 <= self.grid_count <= dataset.MAX_GRID_COUNT:
            raise ConfigError(
                f"grid_count must be in [1, {dataset.MAX_GRID_COUNT}], got {self.grid_count}"
            )
        if not self.noise_levels_m:
            raise ConfigError("noise_levels_m must be non-empty, got []")
        if not all(0 <= level <= MAX_NOISE_RMS_M for level in self.noise_levels_m):
            raise ConfigError(
                f"noise levels must be in [0, {MAX_NOISE_RMS_M:g}] m, got {self.noise_levels_m}"
            )
        tags = [_level_tag(level) for level in self.noise_levels_m]
        if len(set(tags)) != len(tags):
            raise ConfigError(
                "noise levels name output files, so they must differ within 6 "
                f"significant digits; got {list(self.noise_levels_m)}"
            )
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.codebook_beams > dataset.MAX_CODEBOOK_SIZE:
            raise ConfigError(
                f"codebook_beams must be <= {dataset.MAX_CODEBOOK_SIZE}, got {self.codebook_beams}"
            )
        if self.codebook_beams < self.codebook_antennas:
            raise ConfigError(
                f"codebook_beams ({self.codebook_beams}) must be >= "
                f"codebook_antennas ({self.codebook_antennas})"
            )
        if min(self.samples_left_to_right, self.samples_right_to_left) < 1:
            raise ConfigError("sample counts must be >= 1")
        for key in ("seed", "num_distractors", "epochs"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        for key, most in (
            ("samples_left_to_right", MAX_SAMPLES),
            ("samples_right_to_left", MAX_SAMPLES),
            ("num_distractors", MAX_DISTRACTORS),
        ):
            if getattr(self, key) > most:
                raise ConfigError(f"{key} must be <= {most}, got {getattr(self, key)}")
        for key in ("batch_size", "codebook_antennas"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("learning_rate", "bin_width_m"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
        if self.scene_path is not None and not Path(self.scene_path).is_file():
            raise ConfigError(f"scene_path {self.scene_path!r} is not a file")


def _float_list(raw) -> tuple[float, ...]:
    if not isinstance(raw, list):
        raise ValueError(f"expected a list of numbers, got {raw!r}")
    return tuple(dataset.json_float(v) for v in raw)


def _config_parser(default):
    """Parser for a run config value, from the type of its RunConfig default."""
    if default is None:
        return lambda raw: None if raw is None else dataset.json_str(raw)
    if isinstance(default, tuple):
        return _float_list
    return {int: dataset.json_int, float: dataset.json_float, str: dataset.json_str}[type(default)]


_CONFIG_PARSERS = {f.name: _config_parser(f.default) for f in dataclasses.fields(RunConfig)}


def load_run_config(path: str | Path | None) -> RunConfig:
    if path is None:
        config = RunConfig()
        config.validate()
        return config
    path = Path(path)
    if not path.is_file():
        why = "is not a file" if path.exists() else "does not exist"
        raise ConfigError(f"config file {why}: {path}")
    raw = dataset.read_json(path)
    unknown = set(raw) - set(_CONFIG_PARSERS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    fields = {key: dataset.json_field(raw, path, key, _CONFIG_PARSERS[key]) for key in raw}
    config = RunConfig(**fields)
    try:
        config.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config


def derived_seed(master: int, *tags: str) -> int:
    """Stable per-purpose seed derived from the master seed and string tags."""
    entropy = (master,) + tuple(zlib.crc32(t.encode("utf-8")) for t in tags)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def resolve_seed(flag_seed: int | None, config_seed: int) -> int:
    """The --seed flag, else BEAMFIX_SEED, else the config seed; seeds are >= 0."""
    env = os.environ.get("BEAMFIX_SEED")
    name, raw = ("--seed", flag_seed) if flag_seed is not None else ("BEAMFIX_SEED", env)
    if raw is None:
        return config_seed
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {raw!r}")
    return seed


def _level_tag(level: float) -> str:
    return f"rms{level:g}"


def _direction_tag(direction: Direction) -> str:
    return direction.value.lower()


def _output_dir(path: str | Path, flag: str) -> Path:
    """``path`` as a command's output directory, refused before any work
    unless it, or else its nearest existing ancestor, is a directory."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{flag}: cannot write to {path}: {existing} is not a directory")
    return path


def _load_scene(config: RunConfig) -> simulate.SceneGeometry:
    if config.scene_path is None:
        return simulate.default_scene()
    try:
        return simulate.load_scene(config.scene_path)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"cannot load scene: {exc}") from None


def _simulate_datasets(config: RunConfig, seed: int, out_dir: Path) -> Iterator[tuple]:
    """Save one clean bundle plus one per noise level, per direction, each
    direction's in one pass; once a direction is saved, yield it with its
    (tag, path, bundle) triples, clean first. The next direction is simulated
    only when asked for, so one direction's bundles are alive at a time."""
    scene = _load_scene(config)
    codebook = simulate.build_dft_codebook(config.codebook_antennas, config.codebook_beams)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = {
        Direction.LEFT_TO_RIGHT: config.samples_left_to_right,
        Direction.RIGHT_TO_LEFT: config.samples_right_to_left,
    }
    for direction, count in counts.items():
        dtag = _direction_tag(direction)
        traj = simulate.TrajectoryConfig(
            num_samples=count,
            direction=direction,
            num_distractors=config.num_distractors,
            seed=derived_seed(seed, "trajectory", dtag),
        )
        clean = simulate.generate_scenario(
            scene,
            codebook,
            traj,
            NoiseSpec(0.0, derived_seed(seed, "noise", dtag, "clean")),
            grid_count=config.grid_count,
            source=f"synthetic:{dtag}:clean",
        )
        clean = dataset.remove_outliers(clean)
        saved = [("clean", out_dir / f"{dtag}_clean.csv", clean)]
        for level in config.noise_levels_m:
            tag = _level_tag(level)
            spec = NoiseSpec(level, derived_seed(seed, "noise", dtag, tag))
            noisy = dataset.inject_noise(clean, spec)
            metadata = dataclasses.replace(noisy.metadata, source=f"synthetic:{dtag}:{tag}")
            noisy = dataclasses.replace(noisy, metadata=metadata)
            saved.append((tag, out_dir / f"{dtag}_{tag}.csv", noisy))
        dataset.save_csvs([(bundle, path) for _, path, bundle in saved])
        yield direction, saved


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    seed = resolve_seed(args.seed, config.seed)
    datasets = Path(args.out or config.output_dir) / "datasets"
    out_dir = _output_dir(datasets, "--out" if args.out else "output_dir")
    for _, saved in _simulate_datasets(config, seed, out_dir):
        for _, path, bundle in saved:
            print(f"wrote {path} ({len(bundle)} samples, rms {bundle.metadata.noise_rms_m:g} m)")
    return 0


def _characterize(
    bundle: DatasetBundle, grid_count: int, bin_width_m: float, positions: str, out_dir: Path
) -> None:
    if positions == "auto":
        selector = "ground_truth" if np.isnan(bundle.noisy_lat).any() else "noisy"
    else:
        selector = {"ground-truth": "ground_truth", "noisy": "noisy"}[positions]
    table, disp = grid.build_grid_table(bundle, selector, grid_count)
    pergrid_hist = grid.displacement_histogram(table, bin_width_m)
    sample_hist = grid.histogram_from_values(disp, bin_width_m)

    summary: dict = {
        "positions": selector,
        "grid_count": grid_count,
        "bin_width_m": bin_width_m,
        "populated_grids": len(table.keys),
        "mean_displacement_m": float(np.mean(table.avg_displacement_m)),
    }
    try:
        fit = grid.fit_gaussian(sample_hist)
        summary["fit"] = {
            "amplitude": fit.amplitude,
            "mean_m": fit.mean_m,
            "sigma_m": fit.sigma_m,
            "r_squared": fit.r_squared,
            "adjusted_r_squared": fit.adjusted_r_squared,
        }
        print(
            f"gaussian fit: mean {fit.mean_m:.3f} m, sigma {fit.sigma_m:.3f} m, "
            f"adjusted R^2 {fit.adjusted_r_squared:.4f}"
        )
    except (ValueError, FitConvergenceError) as exc:
        summary["fit"] = None
        summary["fit_skipped_reason"] = str(exc)
        print(f"gaussian fit skipped: {exc}")
    out_dir.mkdir(parents=True, exist_ok=True)
    grid.save_grid_table_csv(table, out_dir / "pergrid.csv")
    grid.save_histogram_csv(pergrid_hist, out_dir / "histogram.csv")
    grid.save_histogram_csv(sample_hist, out_dir / "sample_histogram.csv")
    dataset.write_json(out_dir / "fit.json", summary)


def cmd_characterize(args: argparse.Namespace) -> int:
    out_dir = _output_dir(args.out or Path(args.dataset).parent / "characterize", "--out")
    bundle = dataset.load_csv(args.dataset)
    grid_count = bundle.metadata.grid_count if args.grid_count is None else args.grid_count
    if not 1 <= grid_count <= dataset.MAX_GRID_COUNT:
        raise ConfigError(
            f"--grid-count must be in [1, {dataset.MAX_GRID_COUNT}], got {grid_count}"
        )
    if not (math.isfinite(args.bin_width) and args.bin_width > 0):
        raise ConfigError(f"--bin-width must be finite and > 0, got {args.bin_width}")
    try:
        _characterize(bundle, grid_count, args.bin_width, args.positions, out_dir)
    except ValueError as exc:
        raise DatasetFormatError(f"{args.dataset}: {exc}") from None
    print(f"wrote characterization to {out_dir}")
    return 0


class _Level(NamedTuple):
    """What evaluate scores for one noise level, as train writes it."""

    level: float
    test: DatasetBundle
    anchor: grid.KeyedTable
    txid_table: grid.KeyedTable
    denoiser_model: nn.MlpModel
    lut: grid.KeyedTable


def _train_artifacts(
    levels: list[tuple[DatasetBundle, Path]],
    train_fraction: float,
    seed: int,
    train_config: TrainConfig,
) -> list[_Level]:
    """Both stages on the seed's train split, one artifact directory per level.

    ``levels`` pairs each noise level's bundle with its artifact directory.
    The bundles are one direction's capture at several noise levels, so
    they share ids, ground truth, beams and detections: the anchor, the
    stage-1 table and the identified centers are computed once (stage 1
    never reads GPS), and the denoisers train as one stacked fit.
    """
    splits = [
        dataset.split_train_test(bundle, train_fraction, derived_seed(seed, "split"))
        for bundle, _ in levels
    ]
    first = levels[0][0]
    z = first.metadata.grid_count
    anchor = grid.build_grid_table(first, "ground_truth", z)[0]
    train_bundles = [train for train, _ in splits]
    if train_config.batch_size > len(train_bundles[0]):
        train_config = dataclasses.replace(train_config, batch_size=len(train_bundles[0]))
    txid_table = txid.train_txid(train_bundles[0])
    centers = txid.identify_all(txid_table, train_bundles[0]).selected_centers
    denoiser_config = dataclasses.replace(train_config, seed=derived_seed(seed, "denoiser"))
    try:
        denoisers = denoise.train_denoiser(train_bundles, centers, denoiser_config)
    except TrainingDivergedError as exc:
        meta = levels[exc.model_index][0].metadata
        where = f"{_direction_tag(meta.direction)} {_level_tag(meta.noise_rms_m)}"
        raise TrainingDivergedError(f"{where}: {exc}", exc.model_index) from None

    for _, out_dir in levels:
        out_dir.mkdir(parents=True, exist_ok=True)
    dataset.save_csvs([  # the levels share one split, so their splits share all but noisy GPS
        (part, out_dir / name)
        for (_, out_dir), split in zip(levels, splits)
        for part, name in zip(split, ("train.csv", "test.csv"))
    ])
    trained = []
    for (bundle, out_dir), (train_bundle, test_bundle), denoiser in zip(levels, splits, denoisers):
        denoiser_model, denoiser_history = denoiser
        lut = denoise.build_lut(train_bundle, z, centers)
        grid.save_grid_table_csv(anchor, out_dir / "anchor.csv")
        txid.save_table_csv(txid_table, out_dir / "txid.csv")
        nn.save_weights(denoiser_model, out_dir / "denoiser.json")
        denoise.save_lut_csv(lut, out_dir / "lut.csv")
        loss_rows = enumerate(denoiser_history)
        dataset.write_table_csv(out_dir / "denoiser_loss.csv", ["epoch", "loss"], loss_rows)

        manifest = {
            "grid_count": z,
            "codebook_size": bundle.metadata.codebook_size,
            "noise_rms_m": bundle.metadata.noise_rms_m,
            "direction": bundle.metadata.direction.value,
            "source": bundle.metadata.source,
            "seed": seed,
            "train_fraction": train_fraction,
            "train_samples": len(train_bundle),
            "test_samples": len(test_bundle),
            "hyperparameters": {
                "learning_rate": train_config.learning_rate,
                "epochs": train_config.epochs,
                "batch_size": train_config.batch_size,
                "weight_init_scale": nn.WEIGHT_INIT_SCALE,
            },
            "files": {
                "train": "train.csv",
                "test": "test.csv",
                "anchor": "anchor.csv",
                "txid_table": "txid.csv",
                "denoiser_model": "denoiser.json",
                "lut": "lut.csv",
            },
        }
        dataset.write_json(out_dir / "manifest.json", manifest)
        trained.append(
            _Level(bundle.metadata.noise_rms_m, test_bundle, anchor, txid_table, denoiser_model, lut)
        )
    return trained


def cmd_train(args: argparse.Namespace) -> int:
    out_dir = _output_dir(args.out, "--out")
    bundle = dataset.load_csv(args.dataset)
    seed = resolve_seed(args.seed, RunConfig().seed)
    train_config = TrainConfig(args.learning_rate, args.epochs, args.batch_size)
    levels = [(bundle, out_dir)]
    test = _train_artifacts(levels, args.train_fraction, seed, train_config)[0].test
    print(f"trained artifacts in {args.out} (train {len(bundle) - len(test)}, test {len(test)})")
    return 0


# Artifact files evaluate reads, by their key under the manifest's "files".
_MANIFEST_FILES = ("test", "anchor", "txid_table", "denoiser_model", "lut")


def _read_manifest(artifact_dir: Path) -> tuple[int, float, dict[str, Path]]:
    """Grid count, noise level and artifact file paths from a train manifest."""
    path = artifact_dir / "manifest.json"
    if not path.exists():
        raise ConfigError(f"{artifact_dir}: no manifest.json; not a train output directory")
    manifest = dataset.read_json(path)
    z = dataset.json_field(manifest, path, "grid_count", dataset.count_in(dataset.MAX_GRID_COUNT))
    level = dataset.json_field(manifest, path, "noise_rms_m", dataset.json_float)
    files = {
        name: artifact_dir / dataset.json_field(manifest, path, f"files.{name}", dataset.json_str)
        for name in _MANIFEST_FILES
    }
    return z, level, files


def _load_level(z: int, level: float, files: dict[str, Path]) -> _Level:
    """One train output directory's evaluation inputs, read from its manifest's files."""
    test_bundle = dataset.load_csv(files["test"])
    anchor = grid.load_grid_table_csv(files["anchor"], z)
    txid_table = txid.load_table_csv(files["txid_table"], test_bundle.metadata.codebook_size)
    denoiser_model = nn.load_weights(files["denoiser_model"])
    lut = denoise.load_lut_csv(files["lut"], z)
    return _Level(level, test_bundle, anchor, txid_table, denoiser_model, lut)


def _evaluate_artifacts(levels: Iterable[_Level], out_dir: Path, bin_width_m: float) -> None:
    """Score every level, then write the reports; a refusal leaves out_dir untouched."""
    scored = []
    for level, test_bundle, anchor, txid_table, denoiser_model, lut in levels:
        predictions, identified = evaluate.predict_methods(
            test_bundle, txid_table, lut, denoiser_model
        )
        report = evaluate.per_grid_error(test_bundle, predictions, anchor)
        histogram = None
        if _level_tag(level) == PLOT_LEVEL_TAG:
            gt_table = grid.build_grid_table(test_bundle, "ground_truth", report.grid_count)[0]
            histogram = grid.displacement_histogram(gt_table, bin_width_m)
        scored.append((level, test_bundle, predictions, identified, report, histogram))

    out_dir.mkdir(parents=True, exist_ok=True)
    reports: dict[float, evaluate.EvalReport] = {}
    for level, test_bundle, predictions, identified, report, histogram in scored:
        reports[level] = report
        tag = _level_tag(level)
        evaluate.save_report_json(report, out_dir / f"report_{tag}.json")
        evaluate.save_pergrid_csv(report, out_dir / f"pergrid_{tag}.csv")
        txid.save_predictions_csv(
            test_bundle.ids.tolist(), identified, out_dir / f"txid_predictions_{tag}.csv"
        )
        if histogram is not None:
            evaluate.export_plot_data(
                report, test_bundle, predictions, out_dir / f"plots_{tag}", histogram
            )

    evaluate.save_comparison_csv(reports, out_dir / "comparison.csv")
    dataset.write_json(out_dir / "comparison.json", evaluate.comparison_rows(reports))
    table = evaluate.comparison_text_table(reports)
    with open(out_dir / "comparison.txt", "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    print(table)
    if any(histogram is not None for *_, histogram in scored):
        print(f"plot data for the 0.5 m level in {out_dir / f'plots_{PLOT_LEVEL_TAG}'}")


def cmd_evaluate(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.bin_width) and args.bin_width > 0):
        raise ConfigError(f"--bin-width must be finite and > 0, got {args.bin_width}")
    out_dir = _output_dir(args.out, "--out")
    dirs = [Path(d) for d in args.artifacts]
    for d in dirs:
        if not d.exists():
            raise ConfigError(f"artifact directory does not exist: {d}")
    manifests = [_read_manifest(d) for d in dirs]
    owners: dict[str, Path] = {}
    for artifact_dir, (_, level, _) in zip(dirs, manifests):
        tag = _level_tag(level)
        if tag in owners:
            raise ConfigError(
                f"{owners[tag]} and {artifact_dir} both have noise level {level:g} m; "
                f"their {tag} reports would overwrite each other"
            )
        owners[tag] = artifact_dir
    levels = (_load_level(*manifest) for manifest in manifests)
    _evaluate_artifacts(levels, out_dir, args.bin_width)
    return 0


@contextlib.contextmanager
def _removed_on_failure(root: Path) -> Iterator[None]:
    """If the body fails, remove root and whichever of its parents did not exist
    before, or else the directories the body added to root (a pipeline writes
    only directories there); files overwritten in older ones stay changed."""
    created = [p for p in (root, *root.parents) if not p.exists()]
    before = set(root.iterdir()) if root.is_dir() else set()
    try:
        yield
    except BaseException:
        added = set(root.iterdir()) - before if root.is_dir() else set()
        for path in created[-1:] or added:
            shutil.rmtree(path, ignore_errors=True)
        raise


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    seed = resolve_seed(args.seed, config.seed)
    root = _output_dir(args.out or config.output_dir, "--out" if args.out else "output_dir")
    fraction = config.train_fraction
    train_config = TrainConfig(config.learning_rate, config.epochs, config.batch_size)
    with _removed_on_failure(root):
        for direction, saved in _simulate_datasets(config, seed, root / "datasets"):
            dtag = _direction_tag(direction)
            levels = []
            for tag, _, bundle in saved:
                char_dir = root / "characterize" / f"{dtag}_{tag}"
                try:
                    _characterize(bundle, config.grid_count, config.bin_width_m, "auto", char_dir)
                except ValueError as exc:
                    raise DatasetFormatError(f"{dtag} {tag}: {exc}") from None
                if tag != "clean":
                    levels.append((bundle, root / "artifacts" / dtag / tag))
            dseed = derived_seed(seed, "train", dtag)
            try:
                trained = _train_artifacts(levels, fraction, dseed, train_config)
            except ValueError as exc:
                raise ConfigError(f"{dtag}: {exc}") from None
            for _, art_dir in levels:
                print(f"trained {dtag} {art_dir.name}")
            _evaluate_artifacts(trained, root / "eval" / dtag, config.bin_width_m)
    print(f"pipeline outputs in {root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamfix",
        description=(
            "Characterize site-specific GPS error and denoise positions to "
            "sub-meter accuracy from camera detections and beam indices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic datasets per direction and noise level")
    p.add_argument("--config", help="run config JSON (defaults used when omitted)")
    p.add_argument("--out", help="output root (default: config output_dir)")
    p.add_argument("--seed", type=int, help="master seed override (beats BEAMFIX_SEED)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("characterize", help="per-grid error table, histograms, and Gaussian fit")
    p.add_argument("--dataset", required=True, help="dataset CSV to characterize")
    p.add_argument("--grid-count", type=int, default=None, help="grids Z (default: dataset metadata, typically 100)")
    p.add_argument("--bin-width", type=float, default=RunConfig.bin_width_m, help="histogram bin width in meters (default %(default)s)")
    p.add_argument(
        "--positions",
        choices=["auto", "ground-truth", "noisy"],
        default="auto",
        help="which positions to characterize (auto: noisy when present)",
    )
    p.add_argument("--out", help="output directory (default: <dataset dir>/characterize)")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser(
        "train", help="split, build the stage-1 beam table and the lookup table, train the denoiser"
    )
    p.add_argument("--dataset", required=True, help="dataset CSV with noisy positions")
    p.add_argument("--out", required=True, help="artifact output directory")
    p.add_argument("--train-fraction", type=float, default=RunConfig.train_fraction, help="train split fraction (default %(default)s)")
    p.add_argument("--seed", type=int, help="master seed override (beats BEAMFIX_SEED)")
    p.add_argument("--epochs", type=int, default=RunConfig.epochs, help="denoiser training epochs (default %(default)s)")
    p.add_argument("--learning-rate", type=float, default=RunConfig.learning_rate, help="denoiser Adam learning rate (default %(default)s)")
    p.add_argument("--batch-size", type=int, default=RunConfig.batch_size, help="denoiser mini-batch size (default %(default)s)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score trained artifacts on their test splits")
    p.add_argument("--artifacts", nargs="+", required=True, help="train output directories, one per noise level")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--bin-width", type=float, default=RunConfig.bin_width_m, help="histogram bin width in meters (default %(default)s)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="simulate, characterize, train, and evaluate end to end")
    p.add_argument("--config", help="run config JSON (defaults used when omitted)")
    p.add_argument("--out", help="output root (default: config output_dir)")
    p.add_argument("--seed", type=int, help="master seed override (beats BEAMFIX_SEED)")
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDivergedError, FitConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
