import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfix import dataset, denoise, geo, grid, simulate, txid
from beamfix.dataset import Direction
from beamfix.evaluate import (
    comparison_text_table,
    export_plot_data,
    per_grid_error,
    predict_methods,
)
from beamfix.geo import GeoPosition, LocalOffset, NoiseSpec
from beamfix.nn import TrainConfig

from conftest import concat, distance, grid_cell, make_bundle, make_sample, noisy_positions

BASE = GeoPosition(33.42, -111.93)


def _noisy(sid, x, noisy_pos, gt=BASE):
    return make_sample(sid, x, gt, noisy=noisy_pos)


def per_row_scores(bundle, predictions, anchor):
    """per_grid_error one row at a time: grid.assign_grid, the min-rule fallback
    and the scalar haversine. Returns (grid, count, errors, fallback) rows and
    the fallback sample count."""
    keys = anchor.grids.tolist()
    members: dict[int, list[int]] = {}
    for i, x in enumerate(dataset.tx_centers(bundle)[:, 0].tolist()):
        members.setdefault(grid.assign_grid(x, anchor.grid_count), []).append(i)
    rows, fallback_samples = [], 0
    for g in sorted(members):
        nearest = min(keys, key=lambda k: (abs(k - g), k))
        lat, lon = anchor.means[keys.index(nearest)].tolist()
        errors = {
            m: float(np.mean([
                geo.haversine_distance(lat, lon, *preds[i].tolist()) for i in members[g]
            ]))
            for m, preds in predictions.items()
        }
        rows.append((g, len(members[g]), errors, nearest != g))
        fallback_samples += len(members[g]) if nearest != g else 0
    return rows, fallback_samples


def assert_matches_per_row(bundle, predictions, anchor):
    report = per_grid_error(bundle, predictions, anchor)
    rows, fallback_samples = per_row_scores(bundle, predictions, anchor)
    got = [(r.grid, r.count, r.mean_error_m, r.anchor_fallback) for r in report.per_grid]
    assert got == rows
    assert report.fallback_samples == fallback_samples
    for m in predictions:
        assert report.overall[m] == float(np.mean([errors[m] for _, _, errors, _ in rows]))
    return report


@st.composite
def scoring_cases(draw):
    """An anchor table over a few of Z grids, and test rows on any grid, with predictions."""
    z = draw(st.integers(min_value=1, max_value=40))
    keys = sorted(draw(st.sets(st.integers(min_value=0, max_value=z - 1), min_size=1)))
    on_grid = st.integers(min_value=0, max_value=z - 1).map(lambda g: (g + 0.5) / z)
    xs = draw(st.lists(st.one_of(on_grid, st.floats(0.0, 1.0)), min_size=1, max_size=30))
    degrees = st.floats(min_value=-1e-3, max_value=1e-3)
    means = np.array(draw(st.lists(st.tuples(degrees, degrees), min_size=len(keys),
                                   max_size=len(keys)))) + (BASE.lat_deg, BASE.lon_deg)
    anchor = grid.GridTable(
        z, np.array(keys), np.ones(len(keys), dtype=np.int64), means, np.zeros(len(keys))
    )
    bundle = make_bundle([make_sample(i, x, BASE) for i, x in enumerate(xs)], grid_count=z)
    predictions = {
        m: np.array(draw(st.lists(st.tuples(degrees, degrees), min_size=len(xs),
                                  max_size=len(xs)))) + (BASE.lat_deg, BASE.lon_deg)
        for m in ("noisy", "lut")
    }
    return bundle, predictions, anchor


class TestPerGridError:
    @given(case=scoring_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_reference(self, case):
        # Bit for bit: the columnar scoring equals the per-row reference,
        # fallback grids and ties included.
        assert_matches_per_row(*case)

    def test_tie_scores_against_the_lower_anchor(self):
        a, b = (geo.apply_offset(BASE, LocalOffset(0.0, north)) for north in (3.0, -5.0))
        anchor = grid.build_grid_table(
            make_bundle([_noisy(0, 0.105, a, gt=a), _noisy(1, 0.145, b, gt=b)]),
            "ground_truth", 100,
        )
        stray = make_bundle([_noisy(5, 0.125, BASE)])  # grid 12: grids 10 and 14 both 2 away
        report = assert_matches_per_row(stray, {"noisy": noisy_positions(stray)}, anchor)
        assert report.per_grid[0].anchor_fallback
        assert report.per_grid[0].mean_error_m["noisy"] == distance(a, BASE)

    def test_anchor_means_score_zero(self):
        samples = [_noisy(i, (i % 10) / 10 + 0.05, BASE) for i in range(30)]
        bundle = make_bundle(samples)
        anchor = grid.build_grid_table(bundle, "ground_truth", 100)
        means = [
            grid_cell(anchor, grid.assign_grid(x, 100))[1]
            for x in dataset.tx_centers(bundle)[:, 0].tolist()
        ]
        predictions = {"noisy": np.array([(p.lat_deg, p.lon_deg) for p in means])}
        report = per_grid_error(bundle, predictions, anchor)
        assert report.overall["noisy"] == 0.0

    @pytest.mark.parametrize("level", [0.5, 1.0, 2.0])
    def test_noisy_baseline_matches_rayleigh_mean(self, scene, codebook, level):
        # Monte-Carlo oracle: mean radial error of isotropic noise with RMS
        # r is (sqrt(pi)/2) * r = 0.886 r; check within 10% of that mean.
        traj = simulate.TrajectoryConfig(1500, Direction.LEFT_TO_RIGHT, 0, seed=1)
        bundle = simulate.generate_scenario(
            scene, codebook, traj, NoiseSpec(level, 2 + int(level * 10))
        )
        anchor = grid.build_grid_table(bundle, "ground_truth", 100)
        report = per_grid_error(
            bundle, {"noisy": noisy_positions(bundle)}, anchor
        )
        expected = math.sqrt(math.pi) / 2 * level
        assert abs(report.overall["noisy"] - expected) <= 0.1 * level

    def test_lut_beats_standard_error_bound(self, scene, codebook):
        # Standard-error oracle: a per-grid mean of >= 10 noisy samples at
        # 0.5 m RMS stays well under 0.35 m from the anchor mean.
        train_traj = simulate.TrajectoryConfig(2000, Direction.LEFT_TO_RIGHT, 0, seed=3)
        test_traj = simulate.TrajectoryConfig(700, Direction.LEFT_TO_RIGHT, 0, seed=4)
        train_bundle = simulate.generate_scenario(scene, codebook, train_traj, NoiseSpec(0.5, 5))
        test_bundle = simulate.generate_scenario(scene, codebook, test_traj, NoiseSpec(0.5, 6))
        counts = grid.build_grid_table(train_bundle, "ground_truth", 100)
        assert counts.counts.min() >= 10
        anchor = grid.build_grid_table(concat(train_bundle, test_bundle), "ground_truth", 100)
        lut = denoise.build_lut(train_bundle, 100)
        predictions = {"lut": denoise.lut_predict_all(lut, dataset.tx_centers(test_bundle)[:, 0])}
        report = per_grid_error(test_bundle, predictions, anchor)
        assert report.overall["lut"] <= 0.35

    def test_overall_is_mean_of_per_grid(self, scene, codebook):
        traj = simulate.TrajectoryConfig(300, Direction.LEFT_TO_RIGHT, 0, seed=7)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.5, 8))
        anchor = grid.build_grid_table(bundle, "ground_truth", 100)
        report = per_grid_error(
            bundle, {"noisy": noisy_positions(bundle)}, anchor
        )
        recomputed = float(np.mean([r.mean_error_m["noisy"] for r in report.per_grid]))
        assert report.overall["noisy"] == pytest.approx(recomputed, abs=1e-15)

    def test_missing_anchor_grid_falls_back_and_flags(self):
        anchored = [_noisy(0, 0.105, BASE), _noisy(1, 0.305, BASE)]
        anchor = grid.build_grid_table(make_bundle(anchored), "ground_truth", 100)
        stray = make_bundle([_noisy(5, 0.505, BASE)])  # grid 50 has no anchor
        report = per_grid_error(
            stray, {"noisy": noisy_positions(stray)}, anchor
        )
        assert report.fallback_samples == 1
        assert report.per_grid[0].anchor_fallback
        # nearest populated anchor is grid 30
        assert report.per_grid[0].mean_error_m["noisy"] == pytest.approx(
            distance(grid_cell(anchor, 30)[1], BASE), abs=1e-12
        )

    def test_prediction_length_mismatch_rejected(self):
        bundle = make_bundle([_noisy(0, 0.5, BASE)])
        anchor = grid.build_grid_table(bundle, "ground_truth", 100)
        with pytest.raises(ValueError, match="predictions"):
            per_grid_error(bundle, {"noisy": []}, anchor)
        with pytest.raises(ValueError, match="no prediction"):
            per_grid_error(bundle, {}, anchor)

    def test_overall_recomputable_from_pergrid_csv(self, tmp_path, scene, codebook):
        from beamfix.evaluate import save_pergrid_csv

        traj = simulate.TrajectoryConfig(200, Direction.LEFT_TO_RIGHT, 0, seed=19)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.5, 20))
        anchor = grid.build_grid_table(bundle, "ground_truth", 100)
        report = per_grid_error(
            bundle, {"noisy": noisy_positions(bundle)}, anchor
        )
        path = tmp_path / "pergrid.csv"
        save_pergrid_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("mean_error_noisy_m")
        parsed = [float(r[col]) for r in rows[1:]]
        assert float(np.mean(parsed)) == report.overall["noisy"]


def _coincident_fixture():
    """Each of 25 grids holds 3 coincident points; noise level zero."""
    samples = []
    sid = 0
    for g in range(25):
        x = (4 * g + 2) / 100
        pos = geo.apply_offset(BASE, LocalOffset(float(g) * 0.9 - 11.0, 12.0))
        for _ in range(3):
            samples.append(_noisy(sid, x, pos, gt=pos))
            sid += 1
    return make_bundle(samples)


class TestCompareMethods:
    def test_zero_noise_all_methods_near_lut_residual(self, codebook):
        # With coincident per-grid points and zero noise, the noisy and
        # lookup-table errors are exactly zero; the trained net should sit
        # within a centimeter of the same residual.
        bundle = _coincident_fixture()
        anchor = grid.build_grid_table(bundle, "ground_truth", 100)
        centers = dataset.tx_centers(bundle)
        lut = denoise.build_lut(bundle, 100)
        [(model, _)] = denoise.train_denoiser(
            [bundle], centers, TrainConfig(learning_rate=3e-3, epochs=600, seed=9, batch_size=15)
        )
        predictions = {
            "noisy": noisy_positions(bundle),
            "lut": denoise.lut_predict_all(lut, centers[:, 0]),
            "mlp": denoise.mlp_predict(model, centers),
        }
        report = per_grid_error(bundle, predictions, anchor)
        assert report.overall["noisy"] == 0.0
        assert report.overall["lut"] == 0.0
        assert report.overall["mlp"] <= 0.01

    def test_noisy_error_non_decreasing_in_level(self, scene, codebook):
        traj = simulate.TrajectoryConfig(800, Direction.LEFT_TO_RIGHT, 0, seed=10)
        clean = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 11))
        anchor = grid.build_grid_table(clean, "ground_truth", 100)
        overall = []
        for i, level in enumerate((0.0, 0.1, 0.5, 1.0, 2.0, 3.0)):
            from beamfix.dataset import inject_noise

            noisy = inject_noise(clean, NoiseSpec(level, 20 + i))
            report = per_grid_error(
                noisy, {"noisy": noisy_positions(noisy)}, anchor
            )
            overall.append(report.overall["noisy"])
        assert all(b >= a for a, b in zip(overall, overall[1:]))

class TestExports:
    def _report_fixture(self):
        samples = [
            _noisy(0, 0.105, BASE),
            _noisy(1, 0.305, BASE),
            _noisy(2, 0.505, BASE),
        ]
        bundle = make_bundle(samples)
        anchor = grid.build_grid_table(bundle, "ground_truth", 100)
        base = np.array([[BASE.lat_deg, BASE.lon_deg]] * 3)
        predictions = {"noisy": noisy_positions(bundle), "lut": base, "mlp": base}
        histogram = grid.displacement_histogram(anchor, 0.05)
        return per_grid_error(bundle, predictions, anchor), bundle, predictions, histogram

    def test_pergrid_rows_match_grids(self, tmp_path):
        report, bundle, predictions, histogram = self._report_fixture()
        paths = export_plot_data(report, bundle, predictions, tmp_path / "plots", histogram)
        with open(paths[1], newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 3

    def test_positions_row_count(self, tmp_path):
        report, bundle, predictions, histogram = self._report_fixture()
        paths = export_plot_data(report, bundle, predictions, tmp_path / "plots", histogram)
        with open(paths[0], newline="") as fh:
            rows = list(csv.reader(fh))
        kinds = 4  # gt + noisy + denoised_lut + denoised_mlp
        assert len(rows) - 1 == len(bundle) * kinds

    def test_emitted_files_parse(self, tmp_path):
        report, bundle, predictions, histogram = self._report_fixture()
        paths = export_plot_data(report, bundle, predictions, tmp_path / "plots", histogram)
        for path in paths:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) >= 2
            assert all(len(r) == len(rows[0]) for r in rows)

    def test_comparison_table_shape(self, scene, codebook):
        traj = simulate.TrajectoryConfig(60, Direction.LEFT_TO_RIGHT, 1, seed=15)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.5, 16))
        anchor = grid.build_grid_table(bundle, "ground_truth", 100)
        txid_table = txid.train_txid(bundle)
        centers = [tuple(c) for c in dataset.tx_centers(bundle).tolist()]
        lut = denoise.build_lut(bundle, 100)
        [(den, _)] = denoise.train_denoiser([bundle], centers, TrainConfig(epochs=5, seed=18))
        predictions, _ = predict_methods(bundle, txid_table, lut, den)
        reports = {0.5: per_grid_error(bundle, predictions, anchor)}
        table = comparison_text_table(reports)
        lines = table.splitlines()
        assert len(lines) == 2
        assert "noisy_m" in lines[0] and "lut_m" in lines[0] and "mlp_m" in lines[0]
