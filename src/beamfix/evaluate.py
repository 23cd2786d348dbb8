"""Per-grid haversine evaluation, cross-noise-level comparison, plot exports.

Errors are measured against per-grid ground-truth anchor means: test
samples are grouped with ``grid.group_by_grid``, each grid looks up its
anchor mean once (``grid.lookup``), and the haversine distances from that
mean to the predictions are averaged per grid, then equally across grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import dataset, denoise, geo, grid, txid
from .dataset import DatasetBundle
from .grid import KeyedTable
from .nn import MlpModel

METHOD_ORDER = ("noisy", "lut", "mlp")


@dataclass(frozen=True)
class GridErrorRow:
    grid: int
    count: int
    mean_error_m: dict[str, float]
    anchor_fallback: bool


@dataclass(frozen=True)
class EvalReport:
    per_grid: tuple[GridErrorRow, ...]
    overall: dict[str, float]
    noise_rms_m: float
    grid_count: int
    dataset_tag: str
    fallback_samples: int


def per_grid_error(
    test_bundle: DatasetBundle,
    predictions: Mapping[str, np.ndarray],
    gt_anchor: KeyedTable,
) -> EvalReport:
    """Score methods' (n, 2) lat/lon predictions against ground-truth anchor means.

    Samples are grouped by the grid of their transmitter-labeled
    detection. A grid absent from the anchor table is scored against the
    nearest populated anchor grid (ties to the lower) and flagged. Rows are
    scored one by one on plain floats by the scalar haversine, whose every
    bit the reports print; ``geo.haversine_m`` rounds some rows differently.
    """
    if not predictions:
        raise ValueError("no prediction methods to evaluate")
    if not len(test_bundle):
        raise ValueError("no test samples to evaluate")
    for method, preds in predictions.items():
        if len(preds) != len(test_bundle):
            raise ValueError(
                f"method {method!r}: {len(preds)} predictions for {len(test_bundle)} samples"
            )
    methods = [m for m in METHOD_ORDER if m in predictions]
    methods += [m for m in predictions if m not in METHOD_ORDER]

    positions = {m: predictions[m].tolist() for m in methods}
    groups = grid.group_by_grid(dataset.tx_centers(test_bundle)[:, 0], gt_anchor.key_count)
    means, own = grid.lookup(gt_anchor, list(groups))
    rows = []
    fallback_samples = 0
    for (g, idx), (lat, lon), anchored in zip(groups.items(), means.tolist(), own.tolist()):
        if not anchored:
            fallback_samples += len(idx)
        mean_error = {
            m: float(np.mean([geo.haversine_distance(lat, lon, *positions[m][i]) for i in idx]))
            for m in methods
        }
        rows.append(GridErrorRow(g, len(idx), mean_error, not anchored))
    overall = {m: float(np.mean([r.mean_error_m[m] for r in rows])) for m in methods}
    return EvalReport(
        per_grid=tuple(rows),
        overall=overall,
        noise_rms_m=test_bundle.metadata.noise_rms_m,
        grid_count=gt_anchor.key_count,
        dataset_tag=test_bundle.metadata.source,
        fallback_samples=fallback_samples,
    )


def predict_methods(
    bundle: DatasetBundle,
    txid_table: KeyedTable,
    lut: KeyedTable,
    mlp_model: MlpModel,
) -> tuple[dict[str, np.ndarray], txid.Identification]:
    """Run identification then both denoisers over a bundle.

    Returns (n, 2) lat/lon predictions for the noisy baseline, the lookup
    table and the MLP, plus the stage-1 identification that drove them.
    """
    lats, lons = dataset.positions(bundle, "noisy")
    identified = txid.identify_all(txid_table, bundle)
    return {
        "noisy": np.column_stack([lats, lons]),
        "lut": denoise.lut_predict_all(lut, identified.selected_centers[:, 0]),
        "mlp": denoise.mlp_predict(mlp_model, identified.selected_centers),
    }, identified


def comparison_rows(reports: Mapping[float, EvalReport]) -> list[dict]:
    rows = []
    for level in sorted(reports):
        row = {"noise_rms_m": level}
        row.update(reports[level].overall)
        rows.append(row)
    return rows


def save_comparison_csv(reports: Mapping[float, EvalReport], path: str | Path) -> None:
    methods = [m for m in METHOD_ORDER if all(m in r.overall for r in reports.values())]
    rows = (
        [float(level)] + [reports[level].overall[m] for m in methods] for level in sorted(reports)
    )
    dataset.write_table_csv(path, ["noise_rms_m"] + [f"{m}_m" for m in methods], rows)


def comparison_text_table(reports: Mapping[float, EvalReport]) -> str:
    methods = [m for m in METHOD_ORDER if all(m in r.overall for r in reports.values())]
    header = f"{'noise_rms_m':>12}" + "".join(f"{m + '_m':>12}" for m in methods)
    lines = [header]
    for level in sorted(reports):
        cells = "".join(f"{reports[level].overall[m]:>12.4f}" for m in methods)
        lines.append(f"{level:>12.4f}" + cells)
    return "\n".join(lines)


def report_to_json(report: EvalReport) -> dict:
    return {
        "noise_rms_m": report.noise_rms_m,
        "grid_count": report.grid_count,
        "dataset_tag": report.dataset_tag,
        "fallback_samples": report.fallback_samples,
        "overall_m": report.overall,
        "per_grid": [
            {
                "grid": r.grid,
                "count": r.count,
                "mean_error_m": r.mean_error_m,
                "anchor_fallback": r.anchor_fallback,
            }
            for r in report.per_grid
        ],
    }


def save_report_json(report: EvalReport, path: str | Path) -> None:
    dataset.write_json(path, report_to_json(report))


def save_pergrid_csv(report: EvalReport, path: str | Path) -> None:
    methods = [m for m in METHOD_ORDER if m in report.overall]
    header = ["grid", "count"] + [f"mean_error_{m}_m" for m in methods] + ["anchor_fallback"]
    rows = (
        [r.grid, r.count] + [r.mean_error_m[m] for m in methods] + [int(r.anchor_fallback)]
        for r in report.per_grid
    )
    dataset.write_table_csv(path, header, rows)


def export_plot_data(
    report: EvalReport,
    bundle: DatasetBundle,
    predictions: Mapping[str, np.ndarray],
    path_prefix: str | Path,
    histogram: grid.Histogram,
) -> list[Path]:
    """Write positions.csv, pergrid.csv, and histogram.csv under a prefix.

    positions.csv holds one row per (sample, kind) with kind in
    gt/noisy/denoised_lut/denoised_mlp, from (n, 2) lat/lon predictions;
    histogram.csv is the given histogram, which the CLI computes from the
    per-grid average displacement of the bundle's ground truth.
    """
    prefix = Path(path_prefix)
    prefix.mkdir(parents=True, exist_ok=True)
    kind_map = {"noisy": "noisy", "lut": "denoised_lut", "mlp": "denoised_mlp"}

    positions_path = prefix / "positions.csv"
    methods = [m for m in kind_map if m in predictions]
    kinds = ["gt"] + [kind_map[m] for m in methods]
    lat = np.column_stack([bundle.gt_lat] + [predictions[m][:, 0] for m in methods])
    lon = np.column_stack([bundle.gt_lon] + [predictions[m][:, 1] for m in methods])
    ids = np.repeat(bundle.ids, len(kinds)).tolist()
    rows = zip(ids, kinds * len(bundle), lat.ravel().tolist(), lon.ravel().tolist())
    dataset.write_table_csv(positions_path, ["sample_id", "kind", "lat", "lon"], rows)

    pergrid_path = prefix / "pergrid.csv"
    save_pergrid_csv(report, pergrid_path)

    histogram_path = prefix / "histogram.csv"
    grid.save_histogram_csv(histogram, histogram_path)
    return [positions_path, pergrid_path, histogram_path]
