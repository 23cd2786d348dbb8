import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfix import dataset, nn, simulate
from beamfix.dataset import DetectionClass, Direction
from beamfix.geo import GeoPosition, NoiseSpec
from beamfix.nn import MlpModel, Normalizer, TrainConfig
from beamfix.txid import identify, identify_all, train_txid

from conftest import make_bundle, make_sample, rows_of

BASE = GeoPosition(33.42, -111.93)


def beam_table_model(table) -> MlpModel:
    """One affine layer whose output for beam b is exactly row b of table:
    a one-hot input times the weights picks that row and adds zeros."""
    table = np.asarray(table, dtype=float)
    return MlpModel((len(table), 2), [table], [np.zeros(2)])


def constant_center_model(q: int, center=(0.5, 0.5)) -> MlpModel:
    """Zero-weight model whose output is pinned to a constant center."""
    weights = [np.zeros((q, 4)), np.zeros((4, 2))]
    biases = [np.zeros(4), np.array(center, dtype=float)]
    return MlpModel((q, 4, 2), weights, biases)


def padded(rows):
    """det_x, det_y and det_count columns of per-row lists of (x, y) centers."""
    k = max((len(r) for r in rows), default=0)
    det_x, det_y = np.full((len(rows), k), np.nan), np.full((len(rows), k), np.nan)
    for i, r in enumerate(rows):
        for j, (x, y) in enumerate(r):
            det_x[i, j], det_y[i, j] = x, y
    return det_x, det_y, np.array([len(r) for r in rows], dtype=np.int64)


def select(centers, estimate):
    """identify() on one row whose estimate is pinned by a constant model."""
    model = constant_center_model(4, estimate)
    result = identify(model, [0], *padded([centers]))
    return int(result.selected_index[0]), tuple(result.selected_centers[0].tolist())


def per_row_identify(model, beam_index, centers):
    """The per-row stage 1 the batched one replaced, kept as its oracle: a
    one-hot vector through a single-row 2-D forward pass, a clipped
    estimate, then a scan with math.hypot keeping the first strict minimum."""
    q = model.layer_dims[0]
    v = np.zeros(q)
    v[beam_index] = 1.0
    a = v if model.input_norm is None else model.input_norm.normalize(v)
    a = a.reshape(1, -1)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w + b
        if i < len(model.weights) - 1:
            a = np.maximum(a, 0.0)
    raw = a[0] if model.target_norm is None else model.target_norm.denormalize(a[0])
    ex, ey = float(np.clip(raw[0], 0.0, 1.0)), float(np.clip(raw[1], 0.0, 1.0))
    best_index, best_dist = 0, math.inf
    for i, (x, y) in enumerate(centers):
        dist = math.hypot(x - ex, y - ey)
        if dist < best_dist:
            best_index, best_dist = i, dist
    return (ex, ey), best_index, tuple(centers[best_index])


def assert_matches_per_row(model, beams, rows):
    result = identify(model, beams, *padded(rows))
    for i, (beam, centers) in enumerate(zip(beams, rows)):
        estimate, index, center = per_row_identify(model, beam, centers)
        assert tuple(result.estimates[i].tolist()) == estimate
        assert int(result.selected_index[i]) == index
        assert tuple(result.selected_centers[i].tolist()) == center


class TestEncodeBeam:
    """identify() feeds each beam to stage 1 as the one-hot row np.eye(q)[beam]."""

    def test_first_and_last(self):
        table = np.column_stack([np.linspace(0, 1, 64), np.linspace(1, 0, 64)])
        result = identify(beam_table_model(table), [0, 63], *padded([[(0.5, 0.5)]] * 2))
        assert np.array_equal(result.estimates, table[[0, 63]])

    @given(q=st.integers(min_value=1, max_value=128))
    @settings(max_examples=30, deadline=None)
    def test_one_hot_sum(self, q):
        table = np.random.default_rng(q).uniform(0, 1, (q, 2))
        beams = [0, q - 1, q // 2]
        result = identify(beam_table_model(table), beams, *padded([[(0.5, 0.5)]] * 3))
        assert np.array_equal(result.estimates, table[beams])

    @pytest.mark.parametrize("idx", [-1, 64, 100])
    def test_out_of_range_rejected(self, idx):
        with pytest.raises(ValueError, match="beam index"):
            identify(constant_center_model(64), [3, idx], *padded([[(0.5, 0.5)]] * 2))


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
    """A beam-table model and rows of (beam, detections): one-detection rows,
    duplicated detections and rows shorter than the widest (padded)."""
    q = draw(st.integers(min_value=1, max_value=8))
    table = draw(st.lists(st.tuples(COORD, COORD), min_size=q, max_size=q))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        centers = draw(st.lists(CENTER, min_size=1, max_size=5))
        if draw(st.booleans()):
            centers.append(draw(st.sampled_from(centers)))  # an exact tie, later slot
        rows.append((draw(st.integers(min_value=0, max_value=q - 1)), centers))
    return beam_table_model(table), rows


class TestRowExactIdentify:
    """identify() over a whole split selects exactly what the per-row scan did."""

    @given(case=stage1_rows())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_scan(self, case):
        model, rows = case
        assert_matches_per_row(model, [b for b, _ in rows], [c for _, c in rows])

    @pytest.mark.parametrize("normalize", [True, False])
    def test_stage1_shape_matches_per_row_scan(self, normalize):
        rng = np.random.default_rng(40)
        model = nn.init_mlp((64, 64, 64, 2), rng)
        if normalize:
            model.input_norm = Normalizer.from_data(np.eye(64)[rng.integers(0, 64, 500)])
            model.target_norm = Normalizer(np.array([0.5, 0.5]), np.array([0.3, 0.2]))
        beams = rng.integers(0, 64, 1200).tolist()
        rows = []
        for _ in beams:
            centers = [tuple(c) for c in rng.uniform(0, 1, (rng.integers(1, 5), 2)).tolist()]
            if rng.random() < 0.2:
                centers.insert(0, centers[-1])  # exact tie, lower slot first
            rows.append(centers)
        assert_matches_per_row(model, beams, rows)

    def test_bundle_columns(self, small_synthetic_bundle):
        bundle = small_synthetic_bundle
        model = nn.init_mlp((64, 8, 2), np.random.default_rng(41))
        result = identify_all(model, bundle)
        centers = np.stack([bundle.det_x, bundle.det_y], axis=-1).tolist()
        rows = [row[:k] for row, k in zip(centers, bundle.det_count.tolist())]
        assert_matches_per_row(model, bundle.beams.tolist(), [list(map(tuple, r)) for r in rows])
        assert result.estimates.shape == result.selected_centers.shape == (len(bundle), 2)


class TestTrainAndIdentify:
    def test_memorizes_single_sample(self):
        sample = make_sample(0, 0.37, BASE, beam_index=20)
        bundle = make_bundle([sample])
        model, _ = train_txid(
            bundle, TrainConfig(learning_rate=1e-2, epochs=400, batch_size=1, seed=1)
        )
        pred = nn.predict(model, np.eye(64)[20])
        mse = float(np.mean((pred - np.array([0.37, 0.5])) ** 2))
        assert mse < 1e-4

    def test_missing_label_names_sample(self):
        bad = make_sample(7, 0.5, BASE, detections=((DetectionClass.DISTRACTOR, 0.5, 0.5),))
        with pytest.raises(ValueError, match="sample 7"):
            train_txid(make_bundle([bad]), TrainConfig(epochs=1, batch_size=1))

    def test_same_seed_same_model(self, scene, codebook):
        traj = simulate.TrajectoryConfig(40, Direction.LEFT_TO_RIGHT, 1, seed=2)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 3))
        cfg = TrainConfig(epochs=10, seed=4)
        model_a, _ = train_txid(bundle, cfg)
        model_b, _ = train_txid(bundle, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(model_a.weights, model_b.weights))

    def test_predicts_x_within_tolerance_on_heldout(self, scene, codebook):
        # The beam-to-x map is a monotone step function; a trained net
        # should land within 0.02 of the true x on at least 95% of new
        # samples.
        train_traj = simulate.TrajectoryConfig(800, Direction.LEFT_TO_RIGHT, 0, seed=5)
        test_traj = simulate.TrajectoryConfig(300, Direction.LEFT_TO_RIGHT, 0, seed=6)
        train_bundle = simulate.generate_scenario(scene, codebook, train_traj, NoiseSpec(0.0, 7))
        test_bundle = simulate.generate_scenario(scene, codebook, test_traj, NoiseSpec(0.0, 8))
        model, _ = train_txid(train_bundle, TrainConfig(epochs=150, seed=9))
        pred = identify_all(model, test_bundle).estimates[:, 0]
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
        bundle = make_bundle(samples)
        train_bundle = make_bundle(samples[::2])
        test_bundle = make_bundle(samples[1::2])
        model, _ = train_txid(train_bundle, TrainConfig(epochs=150, seed=13))
        selected = identify_all(model, test_bundle).selected_index
        correct = test_bundle.det_tx[np.arange(len(test_bundle)), selected]
        assert correct.mean() >= 0.95

    def test_single_detection_always_correct(self, scene, codebook):
        traj = simulate.TrajectoryConfig(50, Direction.LEFT_TO_RIGHT, 0, seed=14)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 15))
        model, _ = train_txid(bundle, TrainConfig(epochs=5, seed=16))
        selected = identify_all(model, bundle).selected_index
        assert bundle.det_tx[np.arange(len(bundle)), selected].all()

    def test_constant_model_selects_nearest_to_center(self):
        model = constant_center_model(64)
        result = identify(model, [5], *padded([[(0.52, 0.5), (0.1, 0.5)]]))
        assert result.selected_index.tolist() == [0]
        assert result.estimates.tolist() == [[0.5, 0.5]]

    def test_identified_center_always_a_detection(self, scene, codebook):
        traj = simulate.TrajectoryConfig(60, Direction.LEFT_TO_RIGHT, 3, seed=17)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 18))
        model, _ = train_txid(bundle, TrainConfig(epochs=5, seed=19))
        selected = identify_all(model, bundle).selected_centers.tolist()
        for s, center in zip(rows_of(bundle), selected):
            assert tuple(center) in {(x, y) for _, x, y in s.detections}
