"""Stage 1: transmitter identification.

The paper regresses a one-hot beam index to the transmitter's box center
with an MLP. Under MSE the exact minimizer for one-hot inputs is each
beam's mean training center, so stage 1 is that closed form: a per-beam
``grid.KeyedTable`` of centers, read with ``grid.lookup``. A beam absent
from training takes the nearest trained beam's center, ties to the lower
index (codebook beams are ordered by steering angle). The detected object
nearest that center is the transmitter.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import dataset, grid
from .dataset import COUNTS, INTEGERS, DatasetBundle
from .grid import KeyedTable

_UNIT = dataset.floats(0.0, 1.0)
_TABLE_COLUMNS = (("beam", INTEGERS), ("count", COUNTS), ("x_center", _UNIT), ("y_center", _UNIT))


class Identification(NamedTuple):
    """Stage 1 for every row of a split, as columns."""

    estimates: np.ndarray  # (n, 2) each row's beam center from the table
    selected_index: np.ndarray  # (n,) detection slot nearest each estimate
    selected_centers: np.ndarray  # (n, 2) that detection's x/y center


def train_txid(bundle: DatasetBundle) -> KeyedTable:
    """Training row count and mean labeled transmitter center per beam, summed in row order.

    Every training sample must carry a transmitter-labeled detection; the
    first sample without one is named in the error.
    """
    targets = dataset.tx_centers(bundle)
    beams, slot, counts = np.unique(bundle.beams, return_inverse=True, return_counts=True)
    sums = np.column_stack([np.bincount(slot, weights=column) for column in targets.T])
    return KeyedTable(bundle.metadata.codebook_size, beams, counts, sums / counts[:, None])


def identify(table: KeyedTable, beams, det_x, det_y, det_count) -> Identification:
    """Beam -> table center -> nearest detection, for every row at once.

    Rows are a bundle's ``beams`` and its padded ``det_x``/``det_y``
    columns with ``det_count`` real slots each. Each row's estimate is its
    beam's center, or the nearest trained beam's. Each row selects the
    real slot at the smallest ``np.hypot`` distance from its estimate;
    ties resolve to the lowest detection index.
    """
    q = table.key_count
    beams = np.asarray(beams)
    outside = (beams < 0) | (beams >= q)
    if outside.any():
        raise ValueError(f"beam index {beams[outside][0]} outside [0, {q - 1}]")
    if (det_count < 1).any():
        raise ValueError("cannot select from an empty detection list")
    estimates = grid.lookup(table, beams)[0]
    dist = np.hypot(det_x - estimates[:, :1], det_y - estimates[:, 1:])
    dist[np.arange(dist.shape[1]) >= det_count[:, None]] = np.inf
    index = dist.argmin(axis=1) if len(dist) else np.zeros(0, dtype=np.int64)
    rows = np.arange(len(beams))
    centers = np.column_stack([det_x[rows, index], det_y[rows, index]])
    return Identification(estimates, index, centers)


def identify_all(table: KeyedTable, bundle: DatasetBundle) -> Identification:
    """identify() over a bundle's beam and detection columns."""
    return identify(table, bundle.beams, bundle.det_x, bundle.det_y, bundle.det_count)


def save_table_csv(table: KeyedTable, path: str | Path) -> None:
    grid.save_table_csv(table, path, _TABLE_COLUMNS)


def load_table_csv(path: str | Path, codebook_size: int) -> KeyedTable:
    return grid.load_table_csv(path, _TABLE_COLUMNS, codebook_size)


def save_predictions_csv(
    sample_ids: Sequence[int], identified: Identification, path: str | Path
) -> None:
    header = ["sample_id", "pred_x", "pred_y", "selected_index", "selected_x", "selected_y"]
    est_x, est_y = identified.estimates.T.tolist()
    sel_x, sel_y = identified.selected_centers.T.tolist()
    rows = zip(sample_ids, est_x, est_y, identified.selected_index.tolist(), sel_x, sel_y)
    dataset.write_table_csv(path, header, rows)
