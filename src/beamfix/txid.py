"""Stage 1: transmitter identification.

A small MLP learns beam index (one-hot) to bounding-box center; the
detected object nearest that estimate is declared the transmitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import dataset, nn
from .dataset import DatasetBundle
from .nn import MlpModel, TrainConfig

DEFAULT_HIDDEN_DIMS = (64, 64)


@dataclass(frozen=True)
class TxPrediction:
    """Estimated center, plus the detection actually selected."""

    estimated_center: tuple[float, float]
    selected_index: int
    selected_center: tuple[float, float]


def encode_beam(beam_index: int, num_beams: int) -> np.ndarray:
    """One-hot encoding of a beam index."""
    if not 0 <= beam_index < num_beams:
        raise ValueError(f"beam index {beam_index} outside [0, {num_beams - 1}]")
    v = np.zeros(num_beams)
    v[beam_index] = 1.0
    return v


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
    return nn.fit(inputs, targets, hidden_dims, config)


def select_bounding_box(
    centers: Sequence[tuple[float, float]], estimated_center: tuple[float, float]
) -> TxPrediction:
    """Pick the detection center with the smallest Euclidean distance to the estimate.

    Ties resolve to the lowest detection index.
    """
    if not centers:
        raise ValueError("cannot select from an empty detection list")
    ex, ey = estimated_center
    best_index = 0
    best_dist = math.inf
    for i, (x, y) in enumerate(centers):
        dist = math.hypot(x - ex, y - ey)
        if dist < best_dist:
            best_index, best_dist = i, dist
    return TxPrediction(
        estimated_center=(ex, ey),
        selected_index=best_index,
        selected_center=tuple(centers[best_index]),
    )


def identify(
    model: MlpModel, beam_index: int, centers: Sequence[tuple[float, float]]
) -> TxPrediction:
    """Beam -> estimated center -> nearest detection, for one sample.

    The regressed estimate is clipped into the unit square before the
    distance comparison.
    """
    q = model.layer_dims[0]
    raw = nn.predict(model, encode_beam(beam_index, q))
    estimate = (float(np.clip(raw[0], 0.0, 1.0)), float(np.clip(raw[1], 0.0, 1.0)))
    return select_bounding_box(centers, estimate)


def identify_all(model: MlpModel, bundle: DatasetBundle) -> list[TxPrediction]:
    """identify() on each row, one single-row forward pass at a time."""
    centers = np.stack([bundle.det_x, bundle.det_y], axis=-1).tolist()
    rows = zip(bundle.beams.tolist(), centers, bundle.det_count.tolist())
    return [identify(model, beam, row[:k]) for beam, row, k in rows]


def save_predictions_csv(
    sample_ids: Sequence[int], predictions: Sequence[TxPrediction], path: str | Path
) -> None:
    header = ["sample_id", "pred_x", "pred_y", "selected_index", "selected_x", "selected_y"]
    rows = (
        (sid, *p.estimated_center, p.selected_index, *p.selected_center)
        for sid, p in zip(sample_ids, predictions)
    )
    dataset.write_table_csv(path, header, rows)
