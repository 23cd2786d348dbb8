"""Per-grid haversine evaluation, cross-noise-level comparison, plot exports.

Errors are measured against per-grid ground-truth anchor means: test
samples are grouped with ``grid.group_by_grid``, and each one's haversine
distance from its grid's anchor mean to the predicted position is averaged
within each grid, then equally weighted across populated grids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import dataset, denoise, geo, grid, txid
from .dataset import DatasetBundle
from .denoise import LookupTable
from .geo import GeoPosition
from .grid import GridTable
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
    predictions: Mapping[str, Sequence[GeoPosition]],
    gt_anchor: GridTable,
) -> EvalReport:
    """Score prediction methods against ground-truth anchor means.

    Samples are grouped by the grid of their transmitter-labeled
    detection. A sample whose grid is absent from the anchor table is
    scored against the nearest populated anchor grid and flagged.
    """
    if not predictions:
        raise ValueError("no prediction methods to evaluate")
    if not test_bundle.samples:
        raise ValueError("no test samples to evaluate")
    for method, preds in predictions.items():
        if len(preds) != len(test_bundle.samples):
            raise ValueError(
                f"method {method!r}: {len(preds)} predictions for "
                f"{len(test_bundle.samples)} samples"
            )
    methods = [m for m in METHOD_ORDER if m in predictions]
    methods += [m for m in predictions if m not in METHOD_ORDER]

    x = dataset.tx_centers(test_bundle.samples)[:, 0]
    rows = []
    fallback_samples = 0
    for g, idx in grid.group_by_grid(x, gt_anchor.grid_count).items():
        anchor_grid = gt_anchor.nearest_populated(g)
        if anchor_grid != g:
            fallback_samples += len(idx)
        anchor = gt_anchor.cells[anchor_grid].mean_position
        mean_error = {
            m: float(np.mean([geo.haversine_distance(anchor, predictions[m][i]) for i in idx]))
            for m in methods
        }
        rows.append(GridErrorRow(g, len(idx), mean_error, anchor_grid != g))
    overall = {m: float(np.mean([r.mean_error_m[m] for r in rows])) for m in methods}
    return EvalReport(
        per_grid=tuple(rows),
        overall=overall,
        noise_rms_m=test_bundle.metadata.noise_rms_m,
        grid_count=gt_anchor.grid_count,
        dataset_tag=test_bundle.metadata.source,
        fallback_samples=fallback_samples,
    )


def predict_methods(
    bundle: DatasetBundle,
    txid_model: MlpModel,
    lut: LookupTable,
    mlp_model: MlpModel,
) -> tuple[dict[str, list[GeoPosition]], list[txid.TxPrediction]]:
    """Run identification then both denoisers over a bundle.

    Returns predictions for the noisy baseline, the lookup table, and the
    MLP, plus the stage-1 predictions used to drive them.
    """
    tx_preds = txid.identify_all(txid_model, bundle)
    noisy, lut_out, mlp_out = [], [], []
    for s, p in zip(bundle.samples, tx_preds):
        if s.noisy_position is None:
            raise ValueError(f"sample {s.id}: no noisy position to use as baseline")
        noisy.append(s.noisy_position)
        lut_out.append(denoise.lut_predict(lut, p.selected_center[0]))
        mlp_out.append(denoise.mlp_predict(mlp_model, p.selected_center))
    return {"noisy": noisy, "lut": lut_out, "mlp": mlp_out}, tx_preds


def compare_methods(
    test_bundles: Mapping[float, DatasetBundle],
    txid_model: MlpModel,
    denoisers: Mapping[float, tuple[LookupTable, MlpModel]],
    gt_anchor: GridTable,
) -> dict[float, EvalReport]:
    """Evaluate every noise level with its own trained artifacts."""
    missing = set(test_bundles) - set(denoisers)
    if missing:
        raise ValueError(f"no trained artifacts for noise levels {sorted(missing)}")
    reports = {}
    for level in sorted(test_bundles):
        lut, mlp_model = denoisers[level]
        predictions, _ = predict_methods(test_bundles[level], txid_model, lut, mlp_model)
        reports[level] = per_grid_error(test_bundles[level], predictions, gt_anchor)
    return reports


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_json(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    predictions: Mapping[str, Sequence[GeoPosition]],
    path_prefix: str | Path,
    histogram_bin_width_m: float = 0.05,
) -> list[Path]:
    """Write positions.csv, pergrid.csv, and histogram.csv under a prefix.

    positions.csv holds one row per (sample, kind) with kind in
    gt/noisy/denoised_lut/denoised_mlp; histogram.csv bins the per-grid
    average displacement of the bundle's ground truth.
    """
    prefix = Path(path_prefix)
    prefix.mkdir(parents=True, exist_ok=True)
    kind_map = {"noisy": "noisy", "lut": "denoised_lut", "mlp": "denoised_mlp"}

    positions_path = prefix / "positions.csv"
    rows = []
    for i, s in enumerate(bundle.samples):
        rows.append([s.id, "gt", s.gt_position.lat_deg, s.gt_position.lon_deg])
        for method, kind in kind_map.items():
            if method in predictions:
                p = predictions[method][i]
                rows.append([s.id, kind, p.lat_deg, p.lon_deg])
    dataset.write_table_csv(positions_path, ["sample_id", "kind", "lat", "lon"], rows)

    pergrid_path = prefix / "pergrid.csv"
    save_pergrid_csv(report, pergrid_path)

    histogram_path = prefix / "histogram.csv"
    table = grid.build_grid_table(bundle.samples, "ground_truth", report.grid_count)
    grid.save_histogram_csv(
        grid.displacement_histogram(table, histogram_bin_width_m), histogram_path
    )
    return [positions_path, pergrid_path, histogram_path]
