"""Stage 2: position de-noising.

Two interchangeable predictors built from the training split's noisy
positions: a grid-indexed lookup table of mean positions, and an MLP
regressing the selected bounding-box center to a position. The lookup
table is the ``grid.KeyedTable`` of ``grid.grid_table`` of noisy positions
by identified center, without the displacement column, and is read with
``grid.lookup``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from . import dataset, grid, nn
from .dataset import DatasetBundle
from .geo import GeoPosition
from .grid import KeyedTable
from .nn import MlpModel, TrainConfig

HIDDEN_DIMS = (64, 64)


def build_lut(
    bundle: DatasetBundle,
    grid_count: int,
    tx_centers: Sequence[tuple[float, float]] | None = None,
) -> KeyedTable:
    """Group training samples by grid and store count and mean noisy lat/lon per grid.

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
    return KeyedTable(*grid.grid_table(x, lats, lons, grid_count)[0][:4])


def lut_predict_all(lut: KeyedTable, x_centers) -> np.ndarray:
    """De-noised (lat, lon) rows, one per bounding-box x-center.

    Empty grids fall back to the nearest populated grid; equidistant
    neighbors resolve to the lower index.
    """
    return grid.lookup(lut, grid.assign_grids(x_centers, lut.key_count))[0]


def lut_predict(lut: KeyedTable, x_center: float) -> GeoPosition:
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


def save_lut_csv(lut: KeyedTable, path: str | Path) -> None:
    grid.save_table_csv(lut, path, grid.GRID_TABLE_COLUMNS[:4])


def load_lut_csv(path: str | Path, grid_count: int) -> KeyedTable:
    return grid.load_table_csv(path, grid.GRID_TABLE_COLUMNS[:4], grid_count)
