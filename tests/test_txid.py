import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfix import dataset, simulate
from beamfix.dataset import DetectionClass, Direction
from beamfix.geo import GeoPosition, NoiseSpec
from beamfix.txid import (
    identify, identify_all, load_table_csv, save_table_csv, train_txid,
)
from beamfix.grid import KeyedTable

from conftest import make_bundle, make_sample, rows_of

BASE = GeoPosition(33.42, -111.93)


def beam_table(centers, beams=None, codebook_size=None) -> KeyedTable:
    """A stage-1 table whose trained beam b (default: every beam in order) has the
    given center; each count is 1."""
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    beams = np.arange(len(centers)) if beams is None else np.asarray(beams, dtype=np.int64)
    size = len(centers) if codebook_size is None else codebook_size
    return KeyedTable(size, beams, np.ones(len(beams), dtype=np.int64), centers)


def constant_center_table(q: int, center=(0.5, 0.5)) -> KeyedTable:
    """One trained beam, so every beam of a q-beam codebook falls back to its center."""
    return beam_table([center], [0], q)


def padded(rows):
    """det_x, det_y and det_count columns of per-row lists of (x, y) centers."""
    k = max((len(r) for r in rows), default=0)
    det_x, det_y = np.full((len(rows), k), np.nan), np.full((len(rows), k), np.nan)
    for i, r in enumerate(rows):
        for j, (x, y) in enumerate(r):
            det_x[i, j], det_y[i, j] = x, y
    return det_x, det_y, np.array([len(r) for r in rows], dtype=np.int64)


def select(centers, estimate):
    """identify() on one row whose estimate is pinned by a one-beam table."""
    result = identify(constant_center_table(4, estimate), [0], *padded([centers]))
    return int(result.selected_index[0]), tuple(result.selected_centers[0].tolist())


def per_row_identify(table, beam_index, centers):
    """Stage 1 for one row, kept as the oracle of the batched identify(): the
    nearest trained beam by a scalar scan (ties to the lower index), its
    center, then a scan with math.hypot keeping the first strict minimum."""
    trained = table.keys.tolist()
    nearest = min(trained, key=lambda b: (abs(b - beam_index), b))
    ex, ey = table.means[trained.index(nearest)].tolist()
    best_index, best_dist = 0, math.inf
    for i, (x, y) in enumerate(centers):
        dist = math.hypot(x - ex, y - ey)
        if dist < best_dist:
            best_index, best_dist = i, dist
    return (ex, ey), best_index, tuple(centers[best_index])


def assert_matches_per_row(table, beams, rows):
    result = identify(table, beams, *padded(rows))
    for i, (beam, centers) in enumerate(zip(beams, rows)):
        estimate, index, center = per_row_identify(table, beam, centers)
        assert tuple(result.estimates[i].tolist()) == estimate
        assert int(result.selected_index[i]) == index
        assert tuple(result.selected_centers[i].tolist()) == center


class TestEncodeBeam:
    """identify() looks each beam up in the stage-1 table."""

    def test_first_and_last(self):
        table = np.column_stack([np.linspace(0, 1, 64), np.linspace(1, 0, 64)])
        result = identify(beam_table(table), [0, 63], *padded([[(0.5, 0.5)]] * 2))
        assert np.array_equal(result.estimates, table[[0, 63]])

    @given(q=st.integers(min_value=1, max_value=128))
    @settings(max_examples=30, deadline=None)
    def test_full_table_lookup(self, q):
        table = np.random.default_rng(q).uniform(0, 1, (q, 2))
        beams = [0, q - 1, q // 2]
        result = identify(beam_table(table), beams, *padded([[(0.5, 0.5)]] * 3))
        assert np.array_equal(result.estimates, table[beams])

    @pytest.mark.parametrize("idx", [-1, 64, 100])
    def test_out_of_range_rejected(self, idx):
        with pytest.raises(ValueError, match="beam index"):
            identify(constant_center_table(64), [3, idx], *padded([[(0.5, 0.5)]] * 2))


class TestSelectBoundingBox:
    def test_single_detection_always_selected(self):
        assert select([(0.9, 0.9)], (0.1, 0.1)) == (0, (0.9, 0.9))

    def test_strictly_nearest_wins(self):
        dets = [(0.51, 0.50), (0.90, 0.50)]
        assert select(dets, (0.50, 0.50))[0] == 0

    def test_tie_breaks_to_lower_index(self):
        dets = [(0.4, 0.5), (0.6, 0.5)]
        assert select(dets, (0.5, 0.5))[0] == 0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            select([], (0.5, 0.5))

    @given(
        xs=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1)
            ),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_changes_index_not_center(self, xs, seed):
        dets = list(xs)
        _, base_center = select(dets, (0.5, 0.5))
        perm = np.random.default_rng(seed).permutation(len(dets))
        _, perm_center = select([dets[i] for i in perm], (0.5, 0.5))
        base_dist = np.hypot(base_center[0] - 0.5, base_center[1] - 0.5)
        perm_dist = np.hypot(perm_center[0] - 0.5, perm_center[1] - 0.5)
        assert abs(base_dist - perm_dist) < 1e-12


# Coordinates on a 1/16 lattice make exact distance ties common. On that
# lattice np.hypot and math.hypot order every distance alike; on finer
# lattices a few real-valued ties round apart differently in the two.
LATTICE = st.integers(min_value=-4, max_value=20).map(lambda k: k / 16)
COORD = st.one_of(LATTICE, st.floats(min_value=0, max_value=1))
UNIT = COORD.map(lambda v: min(max(v, 0.0), 1.0))
CENTER = st.tuples(UNIT, UNIT)


@st.composite
def stage1_rows(draw):
    """A stage-1 table, some of whose beams may be untrained, and rows of
    (beam, detections): one-detection rows, duplicated detections and rows
    shorter than the widest (padded)."""
    q = draw(st.integers(min_value=1, max_value=8))
    trained = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=q, unique=True))
    centers = draw(st.lists(CENTER, min_size=len(trained), max_size=len(trained)))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        dets = draw(st.lists(CENTER, min_size=1, max_size=5))
        if draw(st.booleans()):
            dets.append(draw(st.sampled_from(dets)))  # an exact tie, later slot
        rows.append((draw(st.integers(min_value=0, max_value=q - 1)), dets))
    return beam_table(centers, sorted(trained), q), rows


class TestRowExactIdentify:
    """identify() over a whole split selects exactly what the per-row scan did."""

    @given(case=stage1_rows())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_scan(self, case):
        table, rows = case
        assert_matches_per_row(table, [b for b, _ in rows], [c for _, c in rows])

    @pytest.mark.parametrize("gaps", [True, False])
    def test_stage1_shape_matches_per_row_scan(self, gaps):
        # A 64-beam codebook, with half its beams untrained when gaps is set.
        rng = np.random.default_rng(40)
        trained = np.sort(rng.choice(64, 32, replace=False)) if gaps else np.arange(64)
        table = beam_table(rng.uniform(0, 1, (len(trained), 2)), trained, 64)
        beams = rng.integers(0, 64, 1200).tolist()
        rows = []
        for _ in beams:
            centers = [tuple(c) for c in rng.uniform(0, 1, (rng.integers(1, 5), 2)).tolist()]
            if rng.random() < 0.2:
                centers.insert(0, centers[-1])  # exact tie, lower slot first
            rows.append(centers)
        assert_matches_per_row(table, beams, rows)

    def test_bundle_columns(self, small_synthetic_bundle):
        bundle = small_synthetic_bundle
        table = train_txid(bundle.take(np.arange(0, len(bundle), 2)))
        result = identify_all(table, bundle)
        centers = np.stack([bundle.det_x, bundle.det_y], axis=-1).tolist()
        rows = [row[:k] for row, k in zip(centers, bundle.det_count.tolist())]
        assert_matches_per_row(table, bundle.beams.tolist(), [list(map(tuple, r)) for r in rows])
        assert result.estimates.shape == result.selected_centers.shape == (len(bundle), 2)


# Training rows of a table: (beam, transmitter center, distractors before it).
TRAIN_ROWS = st.lists(
    st.tuples(st.integers(0, 7), CENTER, st.lists(CENTER, max_size=2)), min_size=1, max_size=40
)


def bundle_of(rows):
    """A bundle of (beam, transmitter center, distractor centers) rows; the
    distractors come first, so the transmitter is not always slot 0."""
    samples = []
    for sid, (beam, (x, y), distractors) in enumerate(rows):
        dets = [(DetectionClass.DISTRACTOR, dx, dy) for dx, dy in distractors]
        samples.append(make_sample(sid, x, BASE, beam_index=beam,
                                   detections=(*dets, (DetectionClass.TRANSMITTER, x, y))))
    return make_bundle(samples, codebook_size=8)


class TestBeamTable:
    @given(rows=TRAIN_ROWS)
    @settings(max_examples=100, deadline=None)
    def test_mean_equals_brute_force(self, rows):
        """Each trained beam's center is its rows' centers summed one by one in
        row order, over their count."""
        table = train_txid(bundle_of(rows))
        expected = {}
        for beam, center, _ in rows:
            expected.setdefault(beam, []).append(center)
        assert table.key_count == 8
        assert table.keys.tolist() == sorted(expected)
        assert table.counts.tolist() == [len(expected[b]) for b in sorted(expected)]
        for b, center in zip(table.keys.tolist(), table.means.tolist()):
            sums = [0.0, 0.0]
            for x, y in expected[b]:
                sums[0] += x
                sums[1] += y
            assert center == [sums[0] / len(expected[b]), sums[1] / len(expected[b])]

    def test_absent_beam_falls_back_to_nearest(self):
        table = beam_table([(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)], [2, 5, 20], 64)
        dets = padded([[(0.5, 0.5)]] * 6)
        result = identify(table, [0, 3, 4, 6, 19, 63], *dets)
        assert result.estimates.tolist() == [
            [0.1, 0.1], [0.1, 0.1], [0.5, 0.5], [0.5, 0.5], [0.9, 0.9], [0.9, 0.9]
        ]

    def test_equidistant_absent_beam_takes_lower(self):
        # Beam 10 is 4 away from both 6 and 14; beam 12 is nearer 14.
        table = beam_table([(0.2, 0.3), (0.7, 0.8)], [6, 14], 64)
        result = identify(table, [10, 12, 14], *padded([[(0.5, 0.5)]] * 3))
        assert result.estimates.tolist() == [[0.2, 0.3], [0.7, 0.8], [0.7, 0.8]]

    @given(rows=TRAIN_ROWS)
    @settings(max_examples=40, deadline=None)
    def test_csv_round_trip_exact(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("table") / "txid.csv"
        table = train_txid(bundle_of(rows))
        save_table_csv(table, path)
        loaded = load_table_csv(path, 8)
        assert loaded.key_count == 8
        for name in ("keys", "counts", "means"):
            a, b = getattr(table, name), getattr(loaded, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        save_table_csv(loaded, path.with_name("again.csv"))
        assert path.with_name("again.csv").read_bytes() == path.read_bytes()

    def test_csv_header(self, tmp_path):
        path = tmp_path / "txid.csv"
        save_table_csv(beam_table([(0.25, 0.5)], [3], 64), path)
        assert path.read_bytes() == b"beam,count,x_center,y_center\r\n3,1,0.25,0.5\r\n"


class TestTrainAndIdentify:
    def test_memorizes_single_sample(self):
        sample = make_sample(0, 0.37, BASE, beam_index=20)
        table = train_txid(make_bundle([sample]))
        assert table.keys.tolist() == [20] and table.counts.tolist() == [1]
        assert table.means.tolist() == [[0.37, 0.5]]

    def test_missing_label_names_sample(self):
        bad = make_sample(7, 0.5, BASE, detections=((DetectionClass.DISTRACTOR, 0.5, 0.5),))
        with pytest.raises(ValueError, match="sample 7"):
            train_txid(make_bundle([bad]))

    def test_predicts_x_within_tolerance_on_heldout(self, scene, codebook):
        # The beam-to-x map is a monotone step function; the per-beam means
        # should land within 0.02 of the true x on at least 95% of new
        # samples.
        train_traj = simulate.TrajectoryConfig(800, Direction.LEFT_TO_RIGHT, 0, seed=5)
        test_traj = simulate.TrajectoryConfig(300, Direction.LEFT_TO_RIGHT, 0, seed=6)
        train_bundle = simulate.generate_scenario(scene, codebook, train_traj, NoiseSpec(0.0, 7))
        test_bundle = simulate.generate_scenario(scene, codebook, test_traj, NoiseSpec(0.0, 8))
        table = train_txid(train_bundle)
        pred = identify_all(table, test_bundle).estimates[:, 0]
        hits = np.abs(pred - dataset.tx_centers(test_bundle)[:, 0]) <= 0.02
        assert hits.mean() >= 0.95

    def test_identify_correct_with_separated_distractors(self, scene, codebook):
        # End-to-end oracle with distractors placed at least 0.1 away in x.
        traj = simulate.TrajectoryConfig(500, Direction.LEFT_TO_RIGHT, 0, seed=10)
        clean = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 11))
        rng = np.random.default_rng(12)
        samples = []
        for s in rows_of(clean):
            tx = s.detections[0]
            away = []
            for _ in range(2):
                x = float(rng.uniform(0, 1))
                while abs(x - tx[1]) < 0.1:
                    x = float(rng.uniform(0, 1))
                away.append((DetectionClass.DISTRACTOR, x, float(rng.uniform(0, 1))))
            samples.append(s._replace(noisy=None, detections=(tx, *away)))
        train_bundle = make_bundle(samples[::2])
        test_bundle = make_bundle(samples[1::2])
        table = train_txid(train_bundle)
        selected = identify_all(table, test_bundle).selected_index
        correct = test_bundle.det_tx[np.arange(len(test_bundle)), selected]
        assert correct.mean() >= 0.95

    def test_single_detection_always_correct(self, scene, codebook):
        traj = simulate.TrajectoryConfig(50, Direction.LEFT_TO_RIGHT, 0, seed=14)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 15))
        selected = identify_all(train_txid(bundle), bundle).selected_index
        assert bundle.det_tx[np.arange(len(bundle)), selected].all()

    def test_constant_model_selects_nearest_to_center(self):
        table = constant_center_table(64)
        result = identify(table, [5], *padded([[(0.52, 0.5), (0.1, 0.5)]]))
        assert result.selected_index.tolist() == [0]
        assert result.estimates.tolist() == [[0.5, 0.5]]

    def test_identified_center_always_a_detection(self, scene, codebook):
        traj = simulate.TrajectoryConfig(60, Direction.LEFT_TO_RIGHT, 3, seed=17)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 18))
        table = train_txid(bundle.take(np.arange(0, len(bundle), 3)))
        selected = identify_all(table, bundle).selected_centers.tolist()
        for s, center in zip(rows_of(bundle), selected):
            assert tuple(center) in {(x, y) for _, x, y in s.detections}
