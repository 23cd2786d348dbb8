import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfix import geo
from beamfix.geo import GeoPosition, LocalOffset
from beamfix.grid import (
    Histogram,
    assign_grid,
    assign_grids,
    build_grid_table,
    displacement_histogram,
    fit_gaussian,
    group_by_grid,
    histogram_from_values,
    load_grid_table_csv,
    per_sample_displacements,
    save_grid_table_csv,
)

from conftest import make_sample

BASE = GeoPosition(33.42, -111.93)


def brute_force_grid(x: float, z: int) -> int:
    """Linear scan for the g with g/Z <= x < (g+1)/Z; x == 1 clamps to Z-1."""
    if x == 1.0:
        return z - 1
    for g in range(z):
        if g / z <= x < (g + 1) / z:
            return g
    raise AssertionError(f"no grid found for x={x}, z={z}")


class TestAssignGrid:
    @pytest.mark.parametrize(
        "x,z,expected",
        [(0.005, 100, 0), (0.305, 100, 30), (1.0, 100, 99), (0.0, 1, 0), (0.999, 10, 9)],
    )
    def test_known_cases(self, x, z, expected):
        assert assign_grid(x, z) == expected

    @given(
        x=st.floats(min_value=0.0, max_value=1.0),
        z=st.integers(min_value=1, max_value=300),
        xs=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=30),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, x, z, xs):
        assert assign_grid(x, z) == brute_force_grid(x, z)
        assert assign_grids(xs, z).tolist() == [brute_force_grid(v, z) for v in xs]

    def test_boundary_values_match_brute_force(self):
        # Every k/Z and its one-ulp neighbours: a bare floor(Z*x) misses
        # some of these at Z = 100 and Z = 400.
        for z in (1, 3, 7, 10, 64, 100, 400):
            ks = np.arange(z + 1) / z
            xs = np.clip(np.concatenate([ks, np.nextafter(ks, -1), np.nextafter(ks, 2)]), 0, 1)
            expected = [brute_force_grid(float(x), z) for x in xs]
            assert [assign_grid(float(x), z) for x in xs] == expected
            assert assign_grids(xs, z).tolist() == expected

    @pytest.mark.parametrize("x", [-0.01, 1.01])
    def test_out_of_range_rejected(self, x):
        with pytest.raises(ValueError):
            assign_grid(x, 100)
        with pytest.raises(ValueError):
            assign_grids([0.5, x], 100)

    def test_bad_grid_count_rejected(self):
        with pytest.raises(ValueError):
            assign_grid(0.5, 0)
        with pytest.raises(ValueError):
            assign_grids([0.5], 0)


class TestGroupByGrid:
    @given(
        xs=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=60),
        z=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=200, deadline=None)
    def test_partitions_indices_in_input_order(self, xs, z):
        groups = group_by_grid(xs, z)
        assert list(groups) == sorted(groups)
        members = [i for idx in groups.values() for i in idx.tolist()]
        assert sorted(members) == list(range(len(xs)))
        for g, idx in groups.items():
            assert idx.tolist() == sorted(idx.tolist())
            assert all(assign_grid(xs[i], z) == g for i in idx)


class TestGridTable:
    def test_identical_points_zero_displacement(self):
        samples = [make_sample(i, 0.105, BASE) for i in range(6)]
        table = build_grid_table(samples, "ground_truth", 100)
        assert table.cells[10].avg_displacement_m == 0.0

    def test_two_points_two_meters_apart(self):
        # Analytic oracle: mean at the midpoint, each point 1 m away.
        a = geo.apply_offset(BASE, LocalOffset(0.0, 1.0))
        b = geo.apply_offset(BASE, LocalOffset(0.0, -1.0))
        samples = [make_sample(0, 0.105, a), make_sample(1, 0.105, b)]
        table = build_grid_table(samples, "ground_truth", 100)
        cell = table.cells[10]
        assert cell.count == 2
        assert abs(cell.avg_displacement_m - 1.0) < 1e-6
        assert geo.haversine_distance(cell.mean_position, BASE) < 1e-6

    def test_gaussian_cloud_matches_rayleigh_mean(self):
        # Monte-Carlo oracle: mean distance of an isotropic 2-D Gaussian
        # cloud to its sample mean is sigma*sqrt(pi/2)*sqrt((N-1)/N).
        sigma = 0.8
        n = 10_000
        rng = np.random.default_rng(21)
        offsets = rng.normal(0, sigma, size=(n, 2))
        samples = [
            make_sample(i, 0.5, geo.apply_offset(BASE, LocalOffset(float(e), float(no))))
            for i, (e, no) in enumerate(offsets)
        ]
        table = build_grid_table(samples, "ground_truth", 100)
        expected = sigma * math.sqrt(math.pi / 2) * math.sqrt((n - 1) / n)
        assert abs(table.cells[50].avg_displacement_m - expected) / expected < 0.03

    def test_permutation_invariant(self, small_synthetic_bundle):
        samples = list(small_synthetic_bundle.samples)
        table_a = build_grid_table(samples, "ground_truth", 100)
        table_b = build_grid_table(list(reversed(samples)), "ground_truth", 100)
        assert table_a == table_b

    def test_counts_sum_to_samples(self, small_synthetic_bundle):
        table = build_grid_table(small_synthetic_bundle.samples, "ground_truth", 100)
        assert table.total_count() == len(small_synthetic_bundle)

    @pytest.mark.parametrize(
        "base,shift",
        [
            (BASE, LocalOffset(4.0, 0.0)),  # pure east: metric unchanged at any latitude
            (GeoPosition(0.001, 20.0), LocalOffset(4.0, -7.0)),  # near equator
        ],
    )
    def test_translation_consistency(self, base, shift):
        # A rigid translation is the same (dlat, dlon) applied to every
        # point; within the local-planar regime it moves the mean and
        # leaves the average displacement untouched.
        rng = np.random.default_rng(3)
        offsets = rng.normal(0, 1.5, size=(40, 2))
        samples = [
            make_sample(i, 0.33, geo.apply_offset(base, LocalOffset(float(e), float(n))))
            for i, (e, n) in enumerate(offsets)
        ]
        moved_base = geo.apply_offset(base, shift)
        dlat = moved_base.lat_deg - base.lat_deg
        dlon = moved_base.lon_deg - base.lon_deg
        shifted = [
            make_sample(
                i,
                0.33,
                GeoPosition(s.gt_position.lat_deg + dlat, s.gt_position.lon_deg + dlon),
            )
            for i, s in enumerate(samples)
        ]
        before = build_grid_table(samples, "ground_truth", 100).cells[33]
        after = build_grid_table(shifted, "ground_truth", 100).cells[33]
        assert abs(after.avg_displacement_m - before.avg_displacement_m) < 1e-9
        moved = geo.offset_between(before.mean_position, after.mean_position)
        assert abs(moved.east_m - shift.east_m) < 1e-6
        assert abs(moved.north_m - shift.north_m) < 1e-6

    def test_noisy_selector_requires_positions(self):
        samples = [make_sample(0, 0.5, BASE)]
        with pytest.raises(ValueError, match="noisy"):
            build_grid_table(samples, "noisy", 100)

    def test_csv_round_trip(self, tmp_path, small_synthetic_bundle):
        table = build_grid_table(small_synthetic_bundle.samples, "ground_truth", 100)
        path = tmp_path / "table.csv"
        save_grid_table_csv(table, path)
        assert load_grid_table_csv(path, 100) == table


class TestHistogram:
    def test_single_grid_single_bin(self):
        samples = [make_sample(0, 0.5, BASE)]
        table = build_grid_table(samples, "ground_truth", 100)
        hist = displacement_histogram(table, 0.05)
        assert hist.counts.sum() == 1

    def test_equal_values_single_bin(self):
        hist = histogram_from_values([0.12, 0.12, 0.12], 0.05)
        assert np.count_nonzero(hist.counts) == 1
        assert hist.counts[2] == 3

    def test_counts_cover_populated_grids(self, small_synthetic_bundle):
        table = build_grid_table(small_synthetic_bundle.samples, "ground_truth", 100)
        hist = displacement_histogram(table, 0.05)
        assert hist.counts.sum() == len(table.cells)

    def test_mode_near_noise_level(self, scene, codebook):
        # Generation oracle: per-grid average displacement of a 0.3 m RMS
        # dataset should peak near 0.3 m.
        from beamfix import simulate
        from beamfix.dataset import Direction
        from beamfix.geo import NoiseSpec

        traj = simulate.TrajectoryConfig(2000, Direction.LEFT_TO_RIGHT, 0, seed=5)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.3, 6))
        table = build_grid_table(bundle.samples, "noisy", 100)
        hist = displacement_histogram(table, 0.05)
        mode_center = float(hist.bin_centers()[int(np.argmax(hist.counts))])
        assert 0.2 <= mode_center <= 0.4


def exact_gaussian_histogram(amplitude, mean, sigma, bin_width, n_bins):
    centers = (np.arange(n_bins) + 0.5) * bin_width
    counts = amplitude * np.exp(-((centers - mean) ** 2) / (2 * sigma**2))
    return Histogram(bin_width, counts)


class TestFitGaussian:
    def test_exact_curve_recovered(self):
        hist = exact_gaussian_histogram(120.0, 1.0, 0.3, 0.05, 50)
        fit = fit_gaussian(hist)
        assert abs(fit.amplitude - 120.0) / 120.0 < 1e-6
        assert abs(fit.mean_m - 1.0) < 1e-6
        assert abs(fit.sigma_m - 0.3) / 0.3 < 1e-6
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.adjusted_r_squared == pytest.approx(1.0, abs=1e-9)

    def test_rayleigh_draws_fit_well(self):
        # Monte-Carlo oracle at desk scale: a large sample of Rayleigh-like
        # radial values is close enough to bell-shaped for a strong fit.
        rng = np.random.default_rng(31)
        values = np.hypot(rng.normal(0, 0.3, 10_000), rng.normal(0, 0.3, 10_000))
        fit = fit_gaussian(histogram_from_values(values, 0.05))
        assert fit.adjusted_r_squared >= 0.95

    def test_flat_noise_fits_poorly(self):
        rng = np.random.default_rng(32)
        counts = rng.uniform(80, 120, size=30)
        fit = fit_gaussian(Histogram(0.05, counts))
        assert fit.adjusted_r_squared < 0.9

    def test_too_few_bins_rejected(self):
        with pytest.raises(ValueError, match="nonzero bins"):
            fit_gaussian(Histogram(0.05, np.array([0.0, 5.0, 9.0, 4.0])))

    def test_single_bin_mass_rejected(self):
        with pytest.raises(ValueError):
            fit_gaussian(Histogram(0.05, np.array([0.0, 12.0, 0.0, 0.0, 0.0])))

    def test_adjusted_below_r_squared(self):
        rng = np.random.default_rng(33)
        values = np.hypot(rng.normal(0, 0.3, 2000), rng.normal(0, 0.3, 2000))
        fit = fit_gaussian(histogram_from_values(values, 0.05))
        assert fit.adjusted_r_squared <= fit.r_squared <= 1.0
        assert fit.sigma_m > 0


class TestPerSampleDisplacements:
    def test_matches_direct_computation(self, small_synthetic_bundle):
        table = build_grid_table(small_synthetic_bundle.samples, "ground_truth", 100)
        disp = per_sample_displacements(small_synthetic_bundle.samples, table, "ground_truth")
        ordered = sorted(small_synthetic_bundle.samples, key=lambda s: s.id)
        for s, d in zip(ordered, disp):
            g = assign_grid(s.transmitter().x_center, 100)
            direct = geo.haversine_distance(table.cells[g].mean_position, s.gt_position)
            assert abs(d - direct) < 1e-12
