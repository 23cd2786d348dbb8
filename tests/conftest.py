import dataclasses
from typing import NamedTuple

import numpy as np
import pytest

from beamfix import geo, simulate
from beamfix.dataset import DatasetBundle, DatasetMeta, DetectionClass, Direction
from beamfix.geo import GeoPosition, NoiseSpec

COLUMNS = [f.name for f in dataclasses.fields(DatasetBundle) if f.name != "metadata"]


@pytest.fixture(scope="session")
def codebook():
    return simulate.build_dft_codebook(16, 64)


@pytest.fixture(scope="session")
def scene():
    return simulate.default_scene()


class Row(NamedTuple):
    """One hand-built capture; make_bundle stacks rows into a bundle's columns."""

    sid: int
    beam_index: int
    position: GeoPosition
    noisy: GeoPosition | None
    detections: tuple[tuple[DetectionClass, float, float], ...]


def make_sample(
    sid: int,
    x_center: float,
    position: GeoPosition,
    beam_index: int = 0,
    noisy: GeoPosition | None = None,
    extra_detections: tuple[tuple[DetectionClass, float, float], ...] = (),
    detections: tuple[tuple[DetectionClass, float, float], ...] | None = None,
) -> Row:
    """Hand-built row with one transmitter detection at the given x, unless
    ``detections`` (class, x, y) replaces the whole list."""
    if detections is None:
        detections = ((DetectionClass.TRANSMITTER, x_center, 0.5),) + tuple(extra_detections)
    return Row(sid, beam_index, position, noisy, tuple(detections))


def make_bundle(rows, grid_count=100, codebook_size=64, direction=Direction.LEFT_TO_RIGHT):
    rows = list(rows)
    n, k = len(rows), max((len(r.detections) for r in rows), default=0)
    det_tx = np.zeros((n, k), dtype=bool)
    det_x, det_y = np.full((n, k), np.nan), np.full((n, k), np.nan)
    for i, r in enumerate(rows):
        for j, (cls, x, y) in enumerate(r.detections):
            det_tx[i, j] = cls is DetectionClass.TRANSMITTER
            det_x[i, j], det_y[i, j] = x, y
    noisy = [(r.noisy.lat_deg, r.noisy.lon_deg) if r.noisy else (np.nan, np.nan) for r in rows]
    noisy = np.array(noisy, dtype=float).reshape(n, 2)
    meta = DatasetMeta(
        grid_count=grid_count,
        codebook_size=codebook_size,
        direction=direction,
        source="test",
    )
    return DatasetBundle(
        [r.sid for r in rows],
        [r.beam_index for r in rows],
        [r.position.lat_deg for r in rows],
        [r.position.lon_deg for r in rows],
        noisy[:, 0],
        noisy[:, 1],
        det_tx,
        det_x,
        det_y,
        [len(r.detections) for r in rows],
        meta,
    )


def rows_of(bundle) -> list[Row]:
    """The bundle's rows as hand-built rows, for tests that edit single captures."""
    rows = []
    for i in range(len(bundle)):
        k = bundle.det_count[i]
        detections = tuple(
            (DetectionClass.TRANSMITTER if tx else DetectionClass.DISTRACTOR, x, y)
            for tx, x, y in zip(
                bundle.det_tx[i, :k].tolist(), bundle.det_x[i, :k].tolist(),
                bundle.det_y[i, :k].tolist(),
            )
        )
        noisy = None
        if not np.isnan(bundle.noisy_lat[i]):
            noisy = GeoPosition(float(bundle.noisy_lat[i]), float(bundle.noisy_lon[i]))
        position = GeoPosition(float(bundle.gt_lat[i]), float(bundle.gt_lon[i]))
        rows.append(Row(int(bundle.ids[i]), int(bundle.beams[i]), position, noisy, detections))
    return rows


def noisy_positions(bundle) -> np.ndarray:
    """(n, 2) noisy lat/lon rows, the form predictions take."""
    return np.column_stack([bundle.noisy_lat, bundle.noisy_lon])


def gt_positions(bundle) -> list[GeoPosition]:
    return list(map(GeoPosition, bundle.gt_lat.tolist(), bundle.gt_lon.tolist()))


def concat(first, *rest):
    """One bundle of several bundles' rows; later bundles' ids move past the earlier ones'."""
    parts = [first]
    for part in rest:
        shift = int(max(b.ids.max(initial=-1) for b in parts)) + 1
        parts.append(dataclasses.replace(part, ids=part.ids + shift))
    width = max(b.det_x.shape[1] for b in parts)

    def column(name):
        values = [getattr(b, name) for b in parts]
        if values[0].ndim == 2:
            fill = False if values[0].dtype == bool else np.nan
            values = [
                np.pad(v, ((0, 0), (0, width - v.shape[1])), constant_values=fill) for v in values
            ]
        return np.concatenate(values)

    return DatasetBundle(**{name: column(name) for name in COLUMNS}, metadata=first.metadata)


def same_bundle(a, b) -> bool:
    """Every column equal bit for bit (dtype, shape and bytes), and equal metadata."""
    return a.metadata == b.metadata and all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and getattr(a, name).shape == getattr(b, name).shape
        and getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for name in COLUMNS
    )


def distance(a: GeoPosition, b: GeoPosition) -> float:
    """geo.haversine_distance between two positions."""
    return geo.haversine_distance(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg)


def grid_cell(table, g) -> tuple[int, GeoPosition, float]:
    """Count, mean position and average displacement of populated grid g of a GridTable."""
    [row] = np.flatnonzero(table.grids == g)
    mean = GeoPosition(*table.means[row].tolist())
    return int(table.counts[row]), mean, float(table.avg_displacement_m[row])


def same_table(a, b) -> bool:
    """Equal grid counts, and every column of two GridTables equal bit for bit."""
    return a.grid_count == b.grid_count and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a[1:], b[1:])
    )


@pytest.fixture
def small_synthetic_bundle(scene, codebook):
    traj = simulate.TrajectoryConfig(
        num_samples=60, direction=Direction.LEFT_TO_RIGHT, num_distractors=2, seed=11
    )
    return simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.5, 12))
