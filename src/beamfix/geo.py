"""Spherical geometry, local tangent-plane offsets, and calibrated GPS noise.

Positions are latitude/longitude pairs in decimal degrees on a sphere of
radius 6,371,000 m. The displacements this package cares about are tens of
meters at most, so east/north offsets use an equirectangular local
projection whose error is far below a millimeter at that scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

# Meters of arc per degree of latitude (and of longitude at the equator).
METERS_PER_DEGREE = EARTH_RADIUS_M * math.pi / 180.0

# Local tangent-plane validity guard for offsets.
MAX_OFFSET_M = 10_000.0

# East offsets degenerate as cos(lat) -> 0 near the poles.
MAX_OFFSET_LATITUDE_DEG = 89.0


@dataclass(frozen=True, slots=True)
class GeoPosition:
    """A latitude/longitude pair in decimal degrees."""

    lat_deg: float
    lon_deg: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat_deg <= 90.0:
            raise ValueError(f"latitude {self.lat_deg} outside [-90, 90]")
        if not -180.0 <= self.lon_deg <= 180.0:
            raise ValueError(f"longitude {self.lon_deg} outside [-180, 180]")


@dataclass(frozen=True, slots=True)
class LocalOffset:
    """East/north displacement in meters on the local tangent plane."""

    east_m: float
    north_m: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.east_m) and math.isfinite(self.north_m)):
            raise ValueError("offset components must be finite")
        if math.hypot(self.east_m, self.north_m) >= MAX_OFFSET_M:
            raise ValueError(
                f"offset magnitude {math.hypot(self.east_m, self.north_m):.1f} m "
                f"exceeds the {MAX_OFFSET_M:.0f} m local-plane limit"
            )


@dataclass(frozen=True, slots=True)
class NoiseSpec:
    """Seedable GPS noise with a target RMS radial displacement.

    ``target_rms_m`` is the root-mean-square magnitude of the 2-D
    displacement between the true and the noisy position, in meters.
    """

    target_rms_m: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.target_rms_m) and self.target_rms_m >= 0.0):
            raise ValueError(f"target_rms_m must be >= 0, got {self.target_rms_m}")


def haversine_distance(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters; degrees in, as ``haversine_m`` but scalar.

    Scoring uses it: numpy's sin and arcsin round some distances differently
    in the last bit, and the reports print every bit. Symmetric, nonnegative,
    zero for identical inputs; asin's argument is clamped to 1 near antipodes.
    """
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    half_dphi = math.radians(lat2 - lat1) / 2.0
    half_dlam = math.radians(lon2 - lon1) / 2.0
    h = math.sin(half_dphi) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(half_dlam) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def haversine_m(lat1, lon1, lat2, lon2):
    """Vectorized haversine distance; degrees in, meters out."""
    phi1 = np.radians(np.asarray(lat1, dtype=float))
    phi2 = np.radians(np.asarray(lat2, dtype=float))
    half_dphi = np.radians(np.asarray(lat2, dtype=float) - np.asarray(lat1, dtype=float)) / 2.0
    half_dlam = np.radians(np.asarray(lon2, dtype=float) - np.asarray(lon1, dtype=float)) / 2.0
    h = np.sin(half_dphi) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(half_dlam) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def _wrap_lon_deg(lon_deg: float) -> float:
    """Wrap a longitude into [-180, 180)."""
    return (lon_deg + 180.0) % 360.0 - 180.0


def apply_offset(origin: GeoPosition, offset: LocalOffset) -> GeoPosition:
    """Displace ``origin`` by east/north meters (equirectangular update).

    Rejects origins within 1 degree of the poles, where the east update
    degenerates.
    """
    if abs(origin.lat_deg) > MAX_OFFSET_LATITUDE_DEG:
        raise ValueError(
            f"cannot apply a local offset at latitude {origin.lat_deg}; "
            f"|lat| must be <= {MAX_OFFSET_LATITUDE_DEG}"
        )
    lat = origin.lat_deg + offset.north_m / METERS_PER_DEGREE
    lon = origin.lon_deg + offset.east_m / (
        METERS_PER_DEGREE * math.cos(math.radians(origin.lat_deg))
    )
    return GeoPosition(lat, _wrap_lon_deg(lon))


def offset_between(origin: GeoPosition, target: GeoPosition) -> LocalOffset:
    """East/north meters from ``origin`` to ``target``; inverse of apply_offset."""
    dlat = target.lat_deg - origin.lat_deg
    dlon = _wrap_lon_deg(target.lon_deg - origin.lon_deg)
    return LocalOffset(
        east_m=dlon * METERS_PER_DEGREE * math.cos(math.radians(origin.lat_deg)),
        north_m=dlat * METERS_PER_DEGREE,
    )


def apply_offsets_arrays(lat_deg, lon_deg, east_m, north_m):
    """Vectorized apply_offset over parallel arrays; returns (lat, lon) arrays."""
    lat = np.asarray(lat_deg, dtype=float)
    lon = np.asarray(lon_deg, dtype=float)
    if np.any(np.abs(lat) > MAX_OFFSET_LATITUDE_DEG):
        raise ValueError(f"|latitude| must be <= {MAX_OFFSET_LATITUDE_DEG} to apply offsets")
    new_lat = lat + np.asarray(north_m, dtype=float) / METERS_PER_DEGREE
    new_lon = lon + np.asarray(east_m, dtype=float) / (METERS_PER_DEGREE * np.cos(np.radians(lat)))
    new_lon = (new_lon + 180.0) % 360.0 - 180.0
    return new_lat, new_lon


def mean_position(lats_deg, lons_deg) -> GeoPosition:
    """Arithmetic mean of coordinates, anchored at the first point.

    Averaging (p - p0) instead of p keeps the mean exact for coincident
    points and avoids cancellation when coordinates differ only in the
    sixth decimal and beyond.
    """
    lats = np.asarray(lats_deg, dtype=float)
    lons = np.asarray(lons_deg, dtype=float)
    if lats.size == 0:
        raise ValueError("cannot average zero positions")
    lat0, lon0 = float(lats[0]), float(lons[0])
    return GeoPosition(
        lat0 + float(np.mean(lats - lat0)),
        lon0 + float(np.mean(lons - lon0)),
    )


def calibrate_axis_sigma(spec: NoiseSpec) -> float:
    """Per-axis Gaussian sigma achieving the target radial RMS.

    Isotropic zero-mean noise with per-axis sigma s has
    E[east^2 + north^2] = 2 s^2, so s = target_rms_m / sqrt(2).
    """
    return spec.target_rms_m / math.sqrt(2.0)


def gaussian_offsets(spec: NoiseSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a (count, 2) array of (east, north) noise offsets in meters.

    Row i matches the draw add_gps_noise would make for the i-th call on
    the same generator state.
    """
    sigma = calibrate_axis_sigma(spec)
    return rng.normal(0.0, sigma, size=(count, 2))


def add_gps_noise(pos: GeoPosition, spec: NoiseSpec, rng: np.random.Generator) -> GeoPosition:
    """Apply one seeded draw of isotropic Gaussian position noise.

    Consumes exactly one ``rng.normal(size=2)`` draw in (east, north)
    order, so a fixed generator state yields a reproducible sequence.
    At target_rms_m == 0 the output equals the input exactly.
    """
    sigma = calibrate_axis_sigma(spec)
    east, north = rng.normal(0.0, sigma, size=2)
    return apply_offset(pos, LocalOffset(float(east), float(north)))
