import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfix import dataset, geo, grid, simulate
from beamfix.dataset import Direction, inject_noise
from beamfix.denoise import (
    LookupTable,
    build_lut,
    load_lut_csv,
    lut_predict,
    lut_predict_all,
    mlp_predict,
    save_lut_csv,
    train_denoiser,
)
from beamfix.geo import GeoPosition, LocalOffset, NoiseSpec
from beamfix.nn import MlpModel, Normalizer, TrainConfig

from conftest import distance, grid_cell, gt_positions, make_bundle, make_sample, same_table

BASE = GeoPosition(33.42, -111.93)


def _noisy_sample(sid, x_center, noisy, gt=BASE):
    return make_sample(sid, x_center, gt, noisy=noisy)


def _centers(bundle):
    return [tuple(c) for c in dataset.tx_centers(bundle).tolist()]


def _cell(lut, g):
    """Count and mean position of populated grid g of a LookupTable."""
    [row] = np.flatnonzero(lut.grids == g)
    return int(lut.counts[row]), GeoPosition(*lut.means[row].tolist())


def _meters_from(predictions, position):
    """Haversine distance of each (lat, lon) prediction row from one position."""
    return geo.haversine_m(position.lat_deg, position.lon_deg, predictions[:, 0], predictions[:, 1])


class TestBuildLut:
    def test_identical_points_reproduced(self):
        samples = [_noisy_sample(i, 0.205, BASE) for i in range(5)]
        lut = build_lut(make_bundle(samples), 100)
        assert lut.grids.tolist() == [20]
        assert _cell(lut, 20) == (5, BASE)

    def test_symmetric_offsets_average_to_center(self):
        # Analytic mean: +-1 m north of the center averages back to it.
        up = geo.apply_offset(BASE, LocalOffset(0.0, 1.0))
        down = geo.apply_offset(BASE, LocalOffset(0.0, -1.0))
        samples = [_noisy_sample(0, 0.205, up), _noisy_sample(1, 0.205, down)]
        lut = build_lut(make_bundle(samples), 100)
        _, mean = _cell(lut, 20)
        assert abs(mean.lat_deg - BASE.lat_deg) < 1e-9
        assert abs(mean.lon_deg - BASE.lon_deg) < 1e-9

    def test_matches_grid_table_means(self, scene, codebook):
        traj = simulate.TrajectoryConfig(120, Direction.LEFT_TO_RIGHT, 0, seed=1)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.5, 2))
        lut = build_lut(bundle, 100)
        table = grid.build_grid_table(bundle, "noisy", 100)
        assert lut.grids.tolist() == table.grids.tolist()
        for g in lut.grids.tolist():
            assert _cell(lut, g)[1] == grid_cell(table, g)[1]

    def test_is_the_grid_table_of_noisy_positions(self, scene, codebook):
        # One per-grid builder: the LUT from labeled centers is the noisy
        # GridTable's first four columns bit for bit, whatever the row order.
        traj = simulate.TrajectoryConfig(150, Direction.LEFT_TO_RIGHT, 0, seed=3)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(1.0, 4))
        shuffled = bundle.take(np.random.default_rng(5).permutation(len(bundle)))
        assert not np.array_equal(shuffled.ids, np.sort(shuffled.ids))
        lut = build_lut(shuffled, 50)
        table = grid.build_grid_table(shuffled, "noisy", 50)
        assert same_table(lut, LookupTable(*table[:4]))

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_lut(make_bundle([]), 100)

    def test_missing_noisy_position_named(self):
        samples = [make_sample(3, 0.5, BASE)]
        with pytest.raises(ValueError, match="sample 3"):
            build_lut(make_bundle(samples), 100)

    def test_csv_round_trip(self, tmp_path):
        samples = [_noisy_sample(i, (i + 0.5) / 10, BASE) for i in range(10)]
        lut = build_lut(make_bundle(samples), 10)
        path = tmp_path / "lut.csv"
        save_lut_csv(lut, path)
        assert same_table(load_lut_csv(path, 10), lut)


class TestLutPredict:
    def _lut(self, grids):
        means = [geo.apply_offset(BASE, LocalOffset(float(g), 0.0)) for g in grids]
        return LookupTable(
            100, np.array(grids, dtype=np.int64), np.ones(len(grids), dtype=np.int64),
            np.array([(m.lat_deg, m.lon_deg) for m in means]).reshape(-1, 2),
        )

    def test_populated_grid_returns_its_mean(self):
        lut = self._lut([20, 30])
        assert lut_predict(lut, 0.205) == _cell(lut, 20)[1]

    def test_empty_grid_falls_back_to_nearest(self):
        lut = self._lut([49, 52])
        assert lut_predict(lut, 0.505) == _cell(lut, 49)[1]  # grid 50: distance 1 vs 2

    def test_equidistant_falls_back_to_lower_index(self):
        lut = self._lut([10, 14])
        assert lut_predict(lut, 0.125) == _cell(lut, 10)[1]  # grid 12: tie at distance 2

    def test_fully_empty_rejected(self):
        with pytest.raises(ValueError, match="no populated"):
            lut_predict(self._lut([]), 0.5)

    @given(
        grids=st.sets(st.integers(min_value=0, max_value=99), min_size=1, max_size=12),
        xs=st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_batched_equals_scalar(self, grids, xs):
        # Oracles: the one-row lut_predict, and the per-row lookup it replaced.
        lut = self._lut(sorted(grids))
        rows = lut_predict_all(lut, xs)
        assert rows.shape == (len(xs), 2)
        for x, row in zip(xs, rows.tolist()):
            g = grid.assign_grid(x, 100)
            want = _cell(lut, min(grids, key=lambda k: (abs(k - g), k)))[1]
            assert lut_predict(lut, x) == want
            assert row == [want.lat_deg, want.lon_deg]

    def test_residual_shrinks_like_inverse_sqrt_n(self):
        # Standard-error law: mean residual of an N-sample mean scales as
        # 1/sqrt(N); check the 16x count ratio lands within a factor of 2
        # of the predicted 4x residual ratio.
        rng = np.random.default_rng(3)
        sigma = 1.0

        def mean_residual(n, trials=60):
            residuals = []
            for t in range(trials):
                offsets = rng.normal(0, sigma, size=(n, 2))
                samples = [
                    _noisy_sample(
                        i, 0.505, geo.apply_offset(BASE, LocalOffset(float(e), float(no)))
                    )
                    for i, (e, no) in enumerate(offsets)
                ]
                lut = build_lut(make_bundle(samples), 100)
                residuals.append(distance(_cell(lut, 50)[1], BASE))
            return float(np.mean(residuals))

        small, large = mean_residual(10), mean_residual(160)
        ratio = small / large
        assert 2.0 <= ratio <= 8.0  # ideal 4.0, within a factor of 2


class TestTrainDenoiser:
    def test_constant_position_memorized(self):
        target = geo.apply_offset(BASE, LocalOffset(3.0, -2.0))
        samples = [_noisy_sample(i, 0.4 + 0.01 * i, target) for i in range(8)]
        bundle = make_bundle(samples)
        centers = _centers(bundle)
        [(model, _)] = train_denoiser(
            [bundle], centers, TrainConfig(learning_rate=1e-2, epochs=300, batch_size=4, seed=4)
        )
        assert np.all(_meters_from(mlp_predict(model, centers), target) < 0.05)

    def test_memorizes_single_pair_to_millimeter(self):
        target = geo.apply_offset(BASE, LocalOffset(1.0, 1.0))
        samples = [_noisy_sample(0, 0.61, target)]
        bundle = make_bundle(samples)
        [(model, _)] = train_denoiser(
            [bundle],
            [(0.61, 0.5)],
            TrainConfig(learning_rate=1e-2, epochs=800, batch_size=1, seed=5),
        )
        assert _meters_from(mlp_predict(model, [(0.61, 0.5)]), target)[0] < 1e-3

    def test_deterministic(self, scene, codebook):
        traj = simulate.TrajectoryConfig(40, Direction.LEFT_TO_RIGHT, 0, seed=6)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.5, 7))
        centers = _centers(bundle)
        cfg = TrainConfig(epochs=10, seed=8)
        [(a, _)] = train_denoiser([bundle], centers, cfg)
        [(b, _)] = train_denoiser([bundle], centers, cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_identical_queries_identical_outputs(self, scene, codebook):
        traj = simulate.TrajectoryConfig(40, Direction.LEFT_TO_RIGHT, 0, seed=9)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.5, 10))
        centers = _centers(bundle)
        [(model, _)] = train_denoiser([bundle], centers, TrainConfig(epochs=20, seed=11))
        queries = [(0.4, 0.5)] * 3
        assert np.array_equal(mlp_predict(model, queries), mlp_predict(model, queries[:1])[[0] * 3])

    def test_predictions_stay_near_scene(self, scene, codebook):
        # Range oracle: queries across the frame must land within the
        # training scene's bounding box grown by 10 m.
        traj = simulate.TrajectoryConfig(300, Direction.LEFT_TO_RIGHT, 0, seed=12)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.5, 13))
        centers = _centers(bundle)
        [(model, _)] = train_denoiser([bundle], centers, TrainConfig(epochs=100, seed=14))
        lats = bundle.noisy_lat.tolist()
        lons = bundle.noisy_lon.tolist()
        margin_lat = 10.0 / geo.METERS_PER_DEGREE
        margin_lon = 10.0 / (geo.METERS_PER_DEGREE * math.cos(math.radians(BASE.lat_deg)))
        queries = np.column_stack([np.linspace(0, 1, 21), np.full(21, 0.5)])
        p = mlp_predict(model, queries)
        assert np.all((min(lats) - margin_lat <= p[:, 0]) & (p[:, 0] <= max(lats) + margin_lat))
        assert np.all((min(lons) - margin_lon <= p[:, 1]) & (p[:, 1] <= max(lons) + margin_lon))

    def test_methods_agree_on_low_noise_fixture(self):
        # With coincident per-grid ground truth at 0.1 m noise, both
        # methods estimate the same conditional mean; their predictions
        # should disagree by no more than twice the lookup table's own
        # residual to the truth.
        from beamfix.dataset import inject_noise

        samples = []
        sid = 0
        for g in range(30):
            x = (3 * g + 1.5) / 100
            pos = geo.apply_offset(BASE, LocalOffset(g * 0.5 - 7.0, 11.0))
            for _ in range(12):
                samples.append(make_sample(sid, x, pos))
                sid += 1
        bundle = inject_noise(make_bundle(samples), NoiseSpec(0.1, 30))
        centers = _centers(bundle)
        lut = build_lut(bundle, 100, centers)
        [(model, _)] = train_denoiser(
            [bundle], centers, TrainConfig(epochs=600, batch_size=64, seed=31)
        )
        lut_residual = float(
            np.mean(
                [
                    distance(_cell(lut, grid.assign_grid(x, 100))[1], gt)
                    for gt, (x, _) in zip(gt_positions(bundle), centers)
                ]
            )
        )
        lut_rows = lut_predict_all(lut, [x for x, _ in centers])
        mlp_rows = mlp_predict(model, centers)
        disagreement = float(
            np.mean(geo.haversine_m(lut_rows[:, 0], lut_rows[:, 1], mlp_rows[:, 0], mlp_rows[:, 1]))
        )
        assert disagreement <= 2.0 * lut_residual

    def test_stack_returns_one_model_per_level(self, scene, codebook):
        traj = simulate.TrajectoryConfig(40, Direction.LEFT_TO_RIGHT, 0, seed=17)
        clean = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 18))
        levels = [inject_noise(clean, NoiseSpec(rms, 19)) for rms in (0.5, 2.0)]
        centers = _centers(clean)
        cfg = TrainConfig(epochs=5, seed=20)
        stacked = train_denoiser(levels, centers, cfg)
        assert len(stacked) == 2
        for (model, history), bundle in zip(stacked, levels):
            [(alone, alone_history)] = train_denoiser([bundle], centers, cfg)
            assert history == alone_history
            assert all(np.array_equal(a, b) for a, b in zip(model.weights, alone.weights))

    def test_stack_with_different_ids_rejected(self, scene, codebook):
        traj = simulate.TrajectoryConfig(20, Direction.LEFT_TO_RIGHT, 0, seed=21)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.5, 22))
        reordered = bundle.take(np.arange(len(bundle))[::-1])
        with pytest.raises(ValueError, match="same sample ids in the same order"):
            train_denoiser([bundle, reordered], _centers(bundle), TrainConfig(epochs=1))

    def test_center_count_mismatch_rejected(self, scene, codebook):
        traj = simulate.TrajectoryConfig(10, Direction.LEFT_TO_RIGHT, 0, seed=15)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.5, 16))
        with pytest.raises(ValueError, match="centers"):
            train_denoiser([bundle], [(0.5, 0.5)], TrainConfig(epochs=1))


def _affine_denoiser(lat, lon):
    """One-layer denoiser whose output is the constant (lat, lon)."""
    return MlpModel((2, 2), [np.zeros((2, 2))], [np.array([lat, lon], dtype=float)],
                    Normalizer.identity(2), Normalizer.identity(2))


class TestMlpPredictRange:
    """mlp_predict refuses what a GeoPosition refuses, naming the first bad row."""

    def test_in_range_rows_pass(self):
        model = _affine_denoiser(BASE.lat_deg, BASE.lon_deg)
        out = mlp_predict(model, [(0.1, 0.5), (0.9, 0.5)])
        assert out.tolist() == [[BASE.lat_deg, BASE.lon_deg]] * 2

    @pytest.mark.parametrize(
        "lat, lon, message",
        [
            (91.0, 0.0, "latitude 91.0 outside"),
            (0.0, -180.5, "longitude -180.5 outside"),
            (math.nan, 0.0, "latitude nan outside"),
            (95.0, 200.0, "latitude 95.0 outside"),
        ],
    )
    def test_out_of_range_rejected_like_geoposition(self, lat, lon, message):
        with pytest.raises(ValueError, match=message):
            mlp_predict(_affine_denoiser(lat, lon), [(0.5, 0.5)])

    def test_first_bad_row_named(self):
        # Output lat = 80 + 20 * x: rows at x = 0.6 and 0.9 overflow, 0.6 first.
        model = MlpModel((2, 2), [np.array([[20.0, 0.0], [0.0, 0.0]])], [np.array([80.0, 0.0])],
                         Normalizer.identity(2), Normalizer.identity(2))
        with pytest.raises(ValueError, match="latitude 92.0 outside"):
            mlp_predict(model, [(0.1, 0.5), (0.6, 0.5), (0.9, 0.5)])

    def test_overflowing_weights_rejected_without_warning(self):
        # Finite weights whose products overflow: the hidden unit reads inf,
        # and inf * 0 makes the latitude NaN.
        weights = [np.full((2, 1), 1e308), np.array([[0.0, 1.0]])]
        model = MlpModel((2, 1, 2), weights, [np.zeros(1), np.zeros(2)],
                         Normalizer(np.zeros(2), np.full(2, 1e-10)), Normalizer.identity(2))
        with pytest.raises(ValueError, match="latitude nan outside"):
            mlp_predict(model, [(0.5, 0.5)])
