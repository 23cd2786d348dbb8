"""Stage 2: position de-noising.

Two interchangeable predictors built from the training split's noisy
positions: a grid-indexed lookup table of mean positions, and an MLP
regressing the selected bounding-box center to a position. The lookup
table is the first four columns of ``grid.grid_table`` of noisy positions
by identified center.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import dataset, grid, nn
from .dataset import COUNTS, INTEGERS, DatasetBundle
from .geo import GeoPosition
from .nn import MlpModel, TrainConfig

HIDDEN_DIMS = (64, 64)

_LUT_COLUMNS = (
    ("grid", INTEGERS), ("count", COUNTS), ("mean_lat", grid.LATITUDE), ("mean_lon", grid.LONGITUDE)
)


class LookupTable(NamedTuple):
    """Per-grid mean of training-set noisy positions, as columns; empty grids are absent."""

    grid_count: int
    grids: np.ndarray  # (k,) populated grids, ascending
    counts: np.ndarray  # (k,) training samples per grid
    means: np.ndarray  # (k, 2) mean noisy lat/lon per grid


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
    return LookupTable(*grid.grid_table(x, lats, lons, grid_count)[0][:4])


def lut_predict_all(lut: LookupTable, x_centers) -> np.ndarray:
    """De-noised (lat, lon) rows, one per bounding-box x-center.

    Empty grids fall back to the nearest populated grid; equidistant
    neighbors resolve to the lower index.
    """
    return lut.means[grid.nearest_row(lut.grids, grid.assign_grids(x_centers, lut.grid_count))]


def lut_predict(lut: LookupTable, x_center: float) -> GeoPosition:
    """lut_predict_all for one x-center."""
    return GeoPosition(*lut_predict_all(lut, [x_center])[0].tolist())


def train_denoiser(
    bundles: Sequence[DatasetBundle],
    tx_centers: Sequence[tuple[float, float]],
    config: TrainConfig,
) -> list[tuple[MlpModel, list[float]]]:
    """Regress (x, y) bounding-box center to the noisy position, one model per bundle.

    The bundles are one split at several noise levels, so they must hold
    the same sample ids in the same order: the models train as one
    stacked fit on shared inputs, and only their targets (each bundle's
    noisy lat/lon pairs) differ. ``tx_centers`` are the identified
    transmitter centers aligned with those samples.
    """
    bundles = list(bundles)
    if not bundles:
        raise ValueError("no bundles to train a denoiser on")
    if any(not np.array_equal(b.ids, bundles[0].ids) for b in bundles[1:]):
        raise ValueError("denoiser bundles must hold the same sample ids in the same order")
    if len(tx_centers) != len(bundles[0]):
        raise ValueError(f"{len(tx_centers)} centers for {len(bundles[0])} samples")
    targets = [np.column_stack(dataset.positions(b, "noisy")) for b in bundles]
    return nn.fit(np.array(tx_centers, dtype=float), targets, HIDDEN_DIMS, config)


def mlp_predict(model: MlpModel, centers) -> np.ndarray:
    """(n, 2) lat/lon rows in degrees for (n, 2) centers, through the trained denoiser;
    the first row out of range or NaN raises the ValueError of its GeoPosition."""
    out = nn.predict(model, np.reshape(centers, (-1, 2)))
    lat, lon = out.T
    bad = ~((lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0))
    if bad.any():
        GeoPosition(*out[bad.argmax()].tolist())
    return out


def save_lut_csv(lut: LookupTable, path: str | Path) -> None:
    rows = zip(lut.grids.tolist(), lut.counts.tolist(), *lut.means.T.tolist())
    dataset.write_table_csv(path, [name for name, _ in _LUT_COLUMNS], rows)


def load_lut_csv(path: str | Path, grid_count: int) -> LookupTable:
    grids, counts, lats, lons = grid.read_grid_rows(path, _LUT_COLUMNS, grid_count)
    return LookupTable(grid_count, grids, counts, np.column_stack([lats, lons]))
