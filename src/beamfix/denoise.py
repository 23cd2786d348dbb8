"""Stage 2: position de-noising.

Two interchangeable predictors built from the training split's noisy
positions: a grid-indexed lookup table of mean positions, and an MLP
regressing the selected bounding-box center to a position. The lookup
table is ``grid.grid_means`` of noisy positions by identified center.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import dataset, grid, nn
from .dataset import DatasetBundle
from .geo import GeoPosition
from .nn import MlpModel, TrainConfig

DEFAULT_HIDDEN_DIMS = (64, 64)

_LUT_COLUMNS = (
    ("grid", int), ("count", int), ("mean_lat", grid.LATITUDE), ("mean_lon", grid.LONGITUDE)
)


@dataclass(frozen=True)
class LookupTable:
    """Per-grid mean of training-set noisy positions."""

    grid_count: int
    means: dict[int, GeoPosition]
    counts: dict[int, int]

    def __post_init__(self) -> None:
        if set(self.means) != set(self.counts):
            raise ValueError("means and counts must cover the same grids")


def build_lut(
    bundle: DatasetBundle,
    grid_count: int,
    tx_centers: Sequence[tuple[float, float]] | None = None,
) -> LookupTable:
    """Group training samples by grid and store mean noisy lat/lon per grid.

    ``tx_centers`` overrides the labeled transmitter centers with
    identified ones (same order as the samples); by default the labels
    are used. Samples are aggregated in id order.
    """
    if not len(bundle):
        raise ValueError("cannot build a lookup table from an empty training set")
    if tx_centers is None:
        tx_centers = dataset.tx_centers(bundle)
    if len(tx_centers) != len(bundle):
        raise ValueError(f"{len(tx_centers)} centers for {len(bundle)} samples")
    order = np.argsort(bundle.ids, kind="stable")
    x = np.asarray(tx_centers, dtype=float)[order, 0]
    lats, lons = (column[order] for column in dataset.positions(bundle, "noisy"))
    cells = grid.grid_means(x, lats, lons, grid_count)
    means = {g: mean for g, (_, mean) in cells.items()}
    counts = {g: len(idx) for g, (idx, _) in cells.items()}
    return LookupTable(grid_count, means, counts)


def lut_predict(lut: LookupTable, x_center: float) -> GeoPosition:
    """De-noised position for a bounding-box x-center.

    Empty grids fall back to the nearest populated grid; equidistant
    neighbors resolve to the lower index.
    """
    g = int(grid.assign_grids(x_center, lut.grid_count))
    return lut.means[grid.nearest_grid(lut.means, g)]


def train_denoiser(
    bundle: DatasetBundle,
    tx_centers: Sequence[tuple[float, float]],
    config: TrainConfig,
    hidden_dims: Sequence[int] = DEFAULT_HIDDEN_DIMS,
) -> tuple[MlpModel, list[float]]:
    """Regress (x, y) bounding-box center to the noisy position.

    ``tx_centers`` are the identified transmitter centers aligned with the
    bundle's samples; labels are the noisy lat/lon pairs.
    """
    if len(tx_centers) != len(bundle):
        raise ValueError(f"{len(tx_centers)} centers for {len(bundle)} samples")
    targets = np.column_stack(dataset.positions(bundle, "noisy"))
    return nn.fit(np.array(tx_centers, dtype=float), targets, hidden_dims, config)


def mlp_predict(model: MlpModel, center: tuple[float, float]) -> GeoPosition:
    """Forward the center through the trained denoiser; result in degrees."""
    out = nn.predict(model, np.array(center, dtype=float))
    return GeoPosition(float(out[0]), float(out[1]))


def save_lut_csv(lut: LookupTable, path: str | Path) -> None:
    rows = ((g, lut.counts[g], p.lat_deg, p.lon_deg) for g, p in sorted(lut.means.items()))
    dataset.write_table_csv(path, [name for name, _ in _LUT_COLUMNS], rows)


def load_lut_csv(path: str | Path, grid_count: int) -> LookupTable:
    rows = grid.read_grid_rows(path, _LUT_COLUMNS, grid_count)
    means = {g: GeoPosition(lat, lon) for g, (_, lat, lon) in rows.items()}
    counts = {g: count for g, (count, _, _) in rows.items()}
    return LookupTable(grid_count, means, counts)
