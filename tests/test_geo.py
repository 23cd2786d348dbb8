import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beamfix import geo
from beamfix.geo import (
    EARTH_RADIUS_M,
    GeoPosition,
    LocalOffset,
    NoiseSpec,
    add_gps_noise,
    apply_offset,
    calibrate_axis_sigma,
    haversine_distance,
    offset_between,
)

latitudes = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
positions = st.tuples(latitudes, longitudes)


class TestGeoPosition:
    def test_valid_ranges(self):
        GeoPosition(90.0, 180.0)
        GeoPosition(-90.0, -180.0)

    @pytest.mark.parametrize("lat,lon", [(90.5, 0.0), (-91.0, 0.0), (0.0, 180.5), (0.0, -181.0)])
    def test_out_of_range_rejected(self, lat, lon):
        with pytest.raises(ValueError):
            GeoPosition(lat, lon)


class TestHaversine:
    def test_identical_points_zero(self):
        assert haversine_distance(33.42, -111.93, 33.42, -111.93) == 0.0

    def test_meridian_arc_one_degree(self):
        # Analytic oracle: one degree of meridian arc is R * pi / 180.
        expected = EARTH_RADIUS_M * math.radians(1.0)
        got = haversine_distance(0, 0, 1, 0)
        assert abs(got - expected) / expected < 1e-12

    def test_antipodal_half_circumference(self):
        expected = math.pi * EARTH_RADIUS_M
        got = haversine_distance(0, 0, 0, 180)
        assert abs(got - expected) / expected < 1e-12

    @given(a=positions, b=positions)
    def test_symmetry(self, a, b):
        assert haversine_distance(*a, *b) == haversine_distance(*b, *a)

    @given(p=positions)
    def test_self_distance_zero(self, p):
        assert haversine_distance(*p, *p) == 0.0

    @given(a=positions, b=positions)
    def test_nonnegative(self, a, b):
        assert haversine_distance(*a, *b) >= 0.0

    def test_triangle_inequality_in_patch(self):
        rng = np.random.default_rng(5)
        base = GeoPosition(40.0, -75.0)
        for _ in range(300):
            pts = [
                apply_offset(base, LocalOffset(*rng.uniform(-5000, 5000, size=2)))
                for _ in range(3)
            ]
            ab, bc, ac = (
                haversine_distance(p.lat_deg, p.lon_deg, q.lat_deg, q.lon_deg)
                for p, q in ((pts[0], pts[1]), (pts[1], pts[2]), (pts[0], pts[2]))
            )
            assert ac <= (ab + bc) * (1 + 1e-6) + 1e-9

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(6)
        lat1 = rng.uniform(-90, 90, 500)
        lon1 = rng.uniform(-180, 180, 500)
        lat2 = rng.uniform(-90, 90, 500)
        lon2 = rng.uniform(-180, 180, 500)
        bulk = geo.haversine_m(lat1, lon1, lat2, lon2)
        for i in range(0, 500, 25):
            scalar = haversine_distance(lat1[i], lon1[i], lat2[i], lon2[i])
            assert abs(scalar - bulk[i]) <= 1e-6


class TestOffsets:
    def test_zero_offset_identity(self):
        origin = GeoPosition(33.0, -111.0)
        assert apply_offset(origin, LocalOffset(0.0, 0.0)) == origin

    def test_meridian_offset_inverse_of_arc(self):
        # Pure-north displacement is exactly linear in latitude: R*radians(d)
        # meters north moves d degrees. Run at 0.01 deg (1,111.9 m) to stay
        # inside the 10 km offset guard.
        north = EARTH_RADIUS_M * math.radians(0.01)
        moved = apply_offset(GeoPosition(0, 0), LocalOffset(0.0, north))
        assert abs(moved.lat_deg - 0.01) < 1e-14
        assert moved.lon_deg == 0.0

    def test_east_offset_scales_with_cos_latitude(self):
        at_equator = apply_offset(GeoPosition(0, 0), LocalOffset(100.0, 0.0))
        at_sixty = apply_offset(GeoPosition(60, 0), LocalOffset(100.0, 0.0))
        ratio = at_sixty.lon_deg / at_equator.lon_deg
        assert abs(ratio - 2.0) < 1e-12  # 1 / cos(60 deg) = 2

    def test_rejects_near_poles(self):
        with pytest.raises(ValueError):
            apply_offset(GeoPosition(89.5, 0.0), LocalOffset(1.0, 0.0))

    def test_offset_magnitude_guard(self):
        with pytest.raises(ValueError):
            LocalOffset(9000.0, 9000.0)

    @given(
        lat=st.floats(min_value=-80, max_value=80),
        lon=longitudes,
        east=st.floats(min_value=-100, max_value=100),
        north=st.floats(min_value=-100, max_value=100),
    )
    def test_round_trip_submillimeter(self, lat, lon, east, north):
        origin = GeoPosition(lat, lon)
        target = apply_offset(origin, LocalOffset(east, north))
        back = offset_between(origin, target)
        assert abs(back.east_m - east) < 1e-3
        assert abs(back.north_m - north) < 1e-3

    def test_offset_length_matches_haversine(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            origin = GeoPosition(rng.uniform(-80, 80), rng.uniform(-179, 179))
            off = LocalOffset(*rng.uniform(-1000, 1000, size=2))
            moved = apply_offset(origin, off)
            direct = haversine_distance(
                origin.lat_deg, origin.lon_deg, moved.lat_deg, moved.lon_deg
            )
            length = math.hypot(off.east_m, off.north_m)
            assert abs(direct - length) / length < 1e-3


class TestNoise:
    def test_sigma_for_unit_rms(self):
        assert calibrate_axis_sigma(NoiseSpec(1.0)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_sigma_zero(self):
        assert calibrate_axis_sigma(NoiseSpec(0.0)) == 0.0

    def test_sigma_monte_carlo(self):
        # Monte-Carlo oracle: RMS of a 2-D isotropic Gaussian with per-axis
        # sigma s is s * sqrt(2).
        sigma = calibrate_axis_sigma(NoiseSpec(0.5))
        rng = np.random.default_rng(8)
        draws = rng.normal(0, sigma, size=(100_000, 2))
        rms = math.sqrt(float(np.mean(np.sum(draws**2, axis=1))))
        assert abs(rms - 0.5) / 0.5 < 0.02

    def test_zero_noise_identity(self):
        pos = GeoPosition(33.42, -111.93)
        out = add_gps_noise(pos, NoiseSpec(0.0, 3), np.random.default_rng(3))
        assert out == pos

    def test_radial_rms_within_two_percent(self):
        pos = GeoPosition(33.42, -111.93)
        spec = NoiseSpec(2.0, 4)
        rng = np.random.default_rng(spec.seed)
        offsets = geo.gaussian_offsets(spec, 100_000, rng)
        lat, lon = geo.apply_offsets_arrays(
            np.full(100_000, pos.lat_deg), np.full(100_000, pos.lon_deg),
            offsets[:, 0], offsets[:, 1],
        )
        d = geo.haversine_m(pos.lat_deg, pos.lon_deg, lat, lon)
        rms = math.sqrt(float(np.mean(d**2)))
        assert 1.96 <= rms <= 2.04

    def test_noisy_mean_stays_put(self):
        pos = GeoPosition(10.0, 20.0)
        spec = NoiseSpec(2.0, 9)
        rng = np.random.default_rng(spec.seed)
        offsets = geo.gaussian_offsets(spec, 100_000, rng)
        lat, lon = geo.apply_offsets_arrays(
            np.full(100_000, pos.lat_deg), np.full(100_000, pos.lon_deg),
            offsets[:, 0], offsets[:, 1],
        )
        assert haversine_distance(pos.lat_deg, pos.lon_deg, lat.mean(), lon.mean()) < 0.02

    def test_scalar_path_matches_block_draws(self):
        # One (n, 2) block equals n successive size-2 draws on equal seeds.
        pos = GeoPosition(33.0, -111.0)
        spec = NoiseSpec(1.5, 77)
        rng = np.random.default_rng(spec.seed)
        scalar = [add_gps_noise(pos, spec, rng) for _ in range(50)]
        rng2 = np.random.default_rng(spec.seed)
        offsets = geo.gaussian_offsets(spec, 50, rng2)
        lat, lon = geo.apply_offsets_arrays(
            np.full(50, pos.lat_deg), np.full(50, pos.lon_deg),
            offsets[:, 0], offsets[:, 1],
        )
        for i, p in enumerate(scalar):
            assert abs(p.lat_deg - lat[i]) < 1e-12
            assert abs(p.lon_deg - lon[i]) < 1e-12

    def test_deterministic_given_state(self):
        pos = GeoPosition(33.0, -111.0)
        spec = NoiseSpec(1.0, 42)
        a = add_gps_noise(pos, spec, np.random.default_rng(42))
        b = add_gps_noise(pos, spec, np.random.default_rng(42))
        assert a == b

    def test_negative_rms_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1)
