"""Stage 1: transmitter identification.

A small MLP learns beam index (one-hot) to bounding-box center; the
detected object nearest that estimate is declared the transmitter.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import dataset, nn
from .dataset import DatasetBundle
from .nn import MlpModel, TrainConfig

DEFAULT_HIDDEN_DIMS = (64, 64)


class Identification(NamedTuple):
    """Stage 1 for every row of a split, as columns."""

    estimates: np.ndarray  # (n, 2) regressed centers, clipped into the unit square
    selected_index: np.ndarray  # (n,) detection slot nearest each estimate
    selected_centers: np.ndarray  # (n, 2) that detection's x/y center


def train_txid(
    bundle: DatasetBundle,
    config: TrainConfig,
    hidden_dims: Sequence[int] = DEFAULT_HIDDEN_DIMS,
) -> tuple[MlpModel, list[float]]:
    """Fit beam one-hot -> transmitter center on labeled samples.

    Every training sample must carry a transmitter-labeled detection; the
    first sample without one is named in the error.
    """
    targets = dataset.tx_centers(bundle)
    inputs = np.eye(bundle.metadata.codebook_size)[bundle.beams]
    return nn.fit(inputs, [targets], hidden_dims, config)[0]


def identify(model: MlpModel, beams, det_x, det_y, det_count) -> Identification:
    """Beam -> estimated center -> nearest detection, for every row at once.

    Rows are a bundle's ``beams`` and its padded ``det_x``/``det_y``
    columns with ``det_count`` real slots each. One forward pass over the
    one-hot beams gives each row's estimate, clipped into the unit square;
    a NaN estimate is refused. Each row selects the real slot at the
    smallest ``np.hypot`` distance from its estimate; ties resolve to the
    lowest detection index.
    """
    q = model.layer_dims[0]
    beams = np.asarray(beams)
    outside = (beams < 0) | (beams >= q)
    if outside.any():
        raise ValueError(f"beam index {beams[outside][0]} outside [0, {q - 1}]")
    if (det_count < 1).any():
        raise ValueError("cannot select from an empty detection list")
    raw = nn.predict(model, np.eye(q)[beams])
    nan = np.isnan(raw).any(axis=1)
    if nan.any():
        raise ValueError(f"stage-1 model estimate for beam {beams[nan][0]} is NaN")
    estimates = np.clip(raw, 0.0, 1.0)
    dist = np.hypot(det_x - estimates[:, :1], det_y - estimates[:, 1:])
    dist[np.arange(dist.shape[1]) >= det_count[:, None]] = np.inf
    index = dist.argmin(axis=1) if len(dist) else np.zeros(0, dtype=np.int64)
    rows = np.arange(len(beams))
    centers = np.column_stack([det_x[rows, index], det_y[rows, index]])
    return Identification(estimates, index, centers)


def identify_all(model: MlpModel, bundle: DatasetBundle) -> Identification:
    """identify() over a bundle's beam and detection columns."""
    return identify(model, bundle.beams, bundle.det_x, bundle.det_y, bundle.det_count)


def save_predictions_csv(
    sample_ids: Sequence[int], identified: Identification, path: str | Path
) -> None:
    header = ["sample_id", "pred_x", "pred_y", "selected_index", "selected_x", "selected_y"]
    est_x, est_y = identified.estimates.T.tolist()
    sel_x, sel_y = identified.selected_centers.T.tolist()
    rows = zip(sample_ids, est_x, est_y, identified.selected_index.tolist(), sel_x, sel_y)
    dataset.write_table_csv(path, header, rows)
