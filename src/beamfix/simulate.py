"""Synthetic V2I scenario generation with known ground truth.

A roadside basestation carries a camera and a uniform linear array. A
transmitter drives along a straight lane inside the camera frustum; each
capture yields the projected detection, the strongest codebook beam under
a single-path line-of-sight channel, and the true position. Optional
distractor detections and calibrated GPS noise complete the sample.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import dataset, geo
from .dataset import DatasetBundle, DatasetFormatError, DatasetMeta, Direction
from .geo import GeoPosition, LocalOffset, NoiseSpec


@dataclass(frozen=True, eq=False)
class BeamCodebook:
    """Steering-based codebook: row q is the unit-norm weight vector of beam q."""

    num_antennas: int
    num_beams: int
    weights: np.ndarray
    steering_angles_deg: np.ndarray


def steering_vector(num_antennas: int, angle_deg: float) -> np.ndarray:
    """Half-wavelength ULA array response toward an azimuth off broadside."""
    m = np.arange(num_antennas)
    return np.exp(-1j * math.pi * m * math.sin(math.radians(angle_deg)))


def build_dft_codebook(num_antennas: int, num_beams: int) -> BeamCodebook:
    """Oversampled codebook with beams uniform in angle over [-90, 90).

    Beam q has elements exp(-j pi m sin(theta_q)) / sqrt(M) for
    m = 0..M-1, ordered by steering angle.
    """
    if num_antennas < 1:
        raise ValueError(f"num_antennas must be >= 1, got {num_antennas}")
    if num_beams < num_antennas:
        raise ValueError(
            f"num_beams ({num_beams}) must be >= num_antennas ({num_antennas})"
        )
    angles = -90.0 + 180.0 * np.arange(num_beams) / num_beams
    weights = np.stack(
        [steering_vector(num_antennas, a) / math.sqrt(num_antennas) for a in angles]
    )
    return BeamCodebook(num_antennas, num_beams, weights, angles)


def select_best_beam(codebook: BeamCodebook, azimuth_deg: float) -> int:
    """Index of the beam with the highest single-path LOS received power.

    Computes argmax_q |f_q^H a(azimuth)| over the whole codebook; ties
    break toward the lower index.
    """
    if not abs(azimuth_deg) < 90.0:
        raise ValueError(f"azimuth {azimuth_deg} is behind the array (|az| must be < 90)")
    response = steering_vector(codebook.num_antennas, azimuth_deg)
    powers = np.abs(codebook.weights.conj() @ response)
    return int(np.argmax(powers))


@dataclass(frozen=True)
class SceneGeometry:
    """Basestation placement, camera model, and the lane in view."""

    bs_position: GeoPosition
    bs_heading_deg: float
    camera_hfov_deg: float
    road: tuple[GeoPosition, GeoPosition]
    array_normal_deg: float

    def __post_init__(self) -> None:
        if not 0.0 < self.camera_hfov_deg < 180.0:
            raise ValueError(f"camera_hfov_deg must be in (0, 180), got {self.camera_hfov_deg}")
        if self.road[0] == self.road[1]:
            raise ValueError("road endpoints must be distinct")
        for i, end in enumerate(self.road):
            try:
                project_to_image(self, end)  # raises if outside the frustum
                azimuth = _array_azimuth_deg(self, end)
            except ValueError as exc:
                raise ValueError(f"road.{i}: {exc}") from None
            if not abs(azimuth) < 90.0:
                raise ValueError(f"road.{i}: {azimuth:.2f} deg off array_normal_deg is behind the array")
            if abs(end.lat_deg) > geo.MAX_OFFSET_LATITUDE_DEG:  # GPS noise is a local offset
                raise ValueError(f"road.{i}: |lat_deg| must be <= {geo.MAX_OFFSET_LATITUDE_DEG}")


@dataclass(frozen=True)
class TrajectoryConfig:
    num_samples: int
    direction: Direction = Direction.LEFT_TO_RIGHT
    num_distractors: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")
        if self.num_distractors < 0:
            raise ValueError(f"num_distractors must be >= 0, got {self.num_distractors}")


def _wrap_angle_deg(angle: float) -> float:
    """Wrap into (-180, 180]."""
    wrapped = (angle + 180.0) % 360.0 - 180.0
    return 180.0 if wrapped == -180.0 else wrapped


def bearing_deg(origin: GeoPosition, target: GeoPosition) -> float:
    """Compass azimuth (0 north, 90 east) from origin to a nearby target."""
    off = geo.offset_between(origin, target)
    return math.degrees(math.atan2(off.east_m, off.north_m))


def _array_azimuth_deg(scene: SceneGeometry, target: GeoPosition) -> float:
    """Azimuth of a target off the array normal, in (-180, 180]."""
    return _wrap_angle_deg(bearing_deg(scene.bs_position, target) - scene.array_normal_deg)


def project_to_image(scene: SceneGeometry, target: GeoPosition) -> float:
    """Pinhole-projected normalized x-center of a target in the camera frame.

    x = 0.5 + tan(bearing - boresight) / (2 tan(hfov/2)); the frustum edge
    at +-hfov/2 maps to exactly 1 and 0.
    """
    rel = _wrap_angle_deg(bearing_deg(scene.bs_position, target) - scene.bs_heading_deg)
    half = scene.camera_hfov_deg / 2.0
    if abs(rel) > half:
        raise ValueError(
            f"target at {rel:.2f} deg off boresight is outside the "
            f"+-{half:.2f} deg camera frustum"
        )
    return 0.5 + math.tan(math.radians(rel)) / (2.0 * math.tan(math.radians(half)))


def default_scene() -> SceneGeometry:
    """North-facing camera, 90 deg view, lane 13 m out spanning ~26 m.

    At 100 grids this gives a grid width of roughly 0.26 m of lane.
    """
    bs = GeoPosition(33.4, -111.9)
    return SceneGeometry(
        bs_position=bs,
        bs_heading_deg=0.0,
        camera_hfov_deg=90.0,
        road=(
            geo.apply_offset(bs, LocalOffset(-12.9, 13.0)),
            geo.apply_offset(bs, LocalOffset(12.9, 13.0)),
        ),
        array_normal_deg=0.0,
    )


def load_scene(path: str | Path) -> SceneGeometry:
    """The scene a save_scene file holds; every error names the file and the key
    (the road's two positions are keys ``road.0`` and ``road.1``)."""
    doc = dataset.read_json(path)

    def number(key: str) -> float:
        return dataset.json_field(doc, path, key, dataset.json_float)

    def position(key: str) -> GeoPosition:
        lat, lon = number(f"{key}.lat_deg"), number(f"{key}.lon_deg")
        return dataset.json_field(doc, path, key, lambda _: GeoPosition(lat, lon))

    fields = (
        position("bs_position"), number("bs_heading_deg"), number("camera_hfov_deg"),
        (position("road.0"), position("road.1")), number("array_normal_deg"),
    )
    try:
        return SceneGeometry(*fields)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


def save_scene(scene: SceneGeometry, path: str | Path) -> None:
    dataset.write_json(path, asdict(scene))


def generate_scenario(
    scene: SceneGeometry,
    codebook: BeamCodebook,
    traj: TrajectoryConfig,
    noise: NoiseSpec,
    grid_count: int = 100,
    source: str = "synthetic",
) -> DatasetBundle:
    """Generate one directional traversal as a fully labeled bundle.

    The transmitter visits num_samples jittered but strictly ordered points
    along the lane (increasing image x for left-to-right travel). Each
    sample gets the projected transmitter detection (y near 0.5), seeded
    distractor detections anywhere in the frame, the strongest LOS beam,
    and a noisy position from the noise spec (equal to ground truth when
    the target RMS is zero). Identical configs reproduce identical bundles.
    """
    rng = np.random.default_rng(traj.seed)
    x_first = project_to_image(scene, scene.road[0])
    x_second = project_to_image(scene, scene.road[1])
    if traj.direction is Direction.LEFT_TO_RIGHT:
        start, end = (scene.road[0], scene.road[1]) if x_first < x_second else (scene.road[1], scene.road[0])
    else:
        start, end = (scene.road[0], scene.road[1]) if x_first > x_second else (scene.road[1], scene.road[0])

    n = traj.num_samples
    jitter = rng.uniform(-0.45, 0.45, size=n)
    ts = (np.arange(n) + 0.5 + jitter) / n
    gt_lat = start.lat_deg + (end.lat_deg - start.lat_deg) * ts
    gt_lon = start.lon_deg + (end.lon_deg - start.lon_deg) * ts

    # One capture per pass: the geometry stays scalar math, and the draws
    # keep their per-capture order (TX y, distractor x/y pairs, shuffle).
    width = 1 + traj.num_distractors
    beams = np.empty(n, dtype=np.int64)
    det_x, det_y, det_tx = np.empty((n, width)), np.empty((n, width)), np.empty((n, width), bool)
    for i, position in enumerate(map(GeoPosition, gt_lat.tolist(), gt_lon.tolist())):
        tx = [project_to_image(scene, position), 0.5 + float(rng.uniform(-0.02, 0.02))]
        distractors = rng.uniform(0.0, 1.0, size=(traj.num_distractors, 2))
        order = rng.permutation(width)
        det_x[i], det_y[i] = np.vstack([tx, distractors])[order].T
        det_tx[i] = order == 0
        beams[i] = select_best_beam(codebook, _array_azimuth_deg(scene, position))

    metadata = DatasetMeta(
        grid_count=grid_count,
        codebook_size=codebook.num_beams,
        noise_rms_m=0.0,
        seed=traj.seed,
        direction=traj.direction,
        source=source,
    )
    no_fix = np.full(n, np.nan)
    bundle = DatasetBundle(
        np.arange(n), beams, gt_lat, gt_lon, no_fix, no_fix, det_tx, det_x, det_y,
        np.full(n, width), metadata,
    )
    return dataset.inject_noise(bundle, noise)
