import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfix import dataset, nn, simulate
from beamfix.dataset import DetectionClass, Direction
from beamfix.geo import GeoPosition, NoiseSpec
from beamfix.nn import MlpModel, TrainConfig
from beamfix.txid import encode_beam, identify, identify_all, select_bounding_box, train_txid

from conftest import make_bundle, make_sample, rows_of

BASE = GeoPosition(33.42, -111.93)


class TestEncodeBeam:
    def test_first_and_last(self):
        v0 = encode_beam(0, 64)
        v63 = encode_beam(63, 64)
        assert v0[0] == 1.0 and v0.sum() == 1.0
        assert v63[63] == 1.0 and v63.sum() == 1.0

    @given(q=st.integers(min_value=1, max_value=128))
    @settings(max_examples=30, deadline=None)
    def test_one_hot_sum(self, q):
        for idx in (0, q - 1, q // 2):
            assert encode_beam(idx, q).sum() == 1.0

    @pytest.mark.parametrize("idx", [-1, 64, 100])
    def test_out_of_range_rejected(self, idx):
        with pytest.raises(ValueError, match="beam index"):
            encode_beam(idx, 64)


class TestSelectBoundingBox:
    def test_single_detection_always_selected(self):
        pred = select_bounding_box([(0.9, 0.9)], (0.1, 0.1))
        assert pred.selected_index == 0
        assert pred.selected_center == (0.9, 0.9)

    def test_strictly_nearest_wins(self):
        dets = [(0.51, 0.50), (0.90, 0.50)]
        assert select_bounding_box(dets, (0.50, 0.50)).selected_index == 0

    def test_tie_breaks_to_lower_index(self):
        dets = [(0.4, 0.5), (0.6, 0.5)]
        assert select_bounding_box(dets, (0.5, 0.5)).selected_index == 0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            select_bounding_box([], (0.5, 0.5))

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
        estimate = (0.5, 0.5)
        baseline = select_bounding_box(dets, estimate)
        perm = np.random.default_rng(seed).permutation(len(dets))
        shuffled = [dets[i] for i in perm]
        permuted = select_bounding_box(shuffled, estimate)
        base_dist = np.hypot(
            baseline.selected_center[0] - 0.5, baseline.selected_center[1] - 0.5
        )
        perm_dist = np.hypot(
            permuted.selected_center[0] - 0.5, permuted.selected_center[1] - 0.5
        )
        assert abs(base_dist - perm_dist) < 1e-12


def constant_center_model(q: int, center=(0.5, 0.5)) -> MlpModel:
    """Zero-weight model whose output is pinned to a constant center."""
    weights = [np.zeros((q, 4)), np.zeros((4, 2))]
    biases = [np.zeros(4), np.array(center, dtype=float)]
    return MlpModel((q, 4, 2), weights, biases)


class TestTrainAndIdentify:
    def test_memorizes_single_sample(self):
        sample = make_sample(0, 0.37, BASE, beam_index=20)
        bundle = make_bundle([sample])
        model, _ = train_txid(
            bundle, TrainConfig(learning_rate=1e-2, epochs=400, batch_size=1, seed=1)
        )
        pred = nn.predict(model, encode_beam(20, 64))
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
        hits = 0
        for beam, x in zip(test_bundle.beams.tolist(), dataset.tx_centers(test_bundle)[:, 0]):
            pred = nn.predict(model, encode_beam(beam, 64))
            if abs(float(pred[0]) - x) <= 0.02:
                hits += 1
        assert hits / len(test_bundle) >= 0.95

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
        correct = 0
        for i, pred in enumerate(identify_all(model, test_bundle)):
            if test_bundle.det_tx[i, pred.selected_index]:
                correct += 1
        assert correct / len(test_bundle) >= 0.95

    def test_single_detection_always_correct(self, scene, codebook):
        traj = simulate.TrajectoryConfig(50, Direction.LEFT_TO_RIGHT, 0, seed=14)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 15))
        model, _ = train_txid(bundle, TrainConfig(epochs=5, seed=16))
        for i, pred in enumerate(identify_all(model, bundle)):
            assert bundle.det_tx[i, pred.selected_index]

    def test_constant_model_selects_nearest_to_center(self):
        model = constant_center_model(64)
        dets = [(0.52, 0.5), (0.1, 0.5)]
        pred = identify(model, 5, dets)
        assert pred.selected_index == 0
        assert pred.estimated_center == (0.5, 0.5)

    def test_identified_center_always_a_detection(self, scene, codebook):
        traj = simulate.TrajectoryConfig(60, Direction.LEFT_TO_RIGHT, 3, seed=17)
        bundle = simulate.generate_scenario(scene, codebook, traj, NoiseSpec(0.0, 18))
        model, _ = train_txid(bundle, TrainConfig(epochs=5, seed=19))
        for s, pred in zip(rows_of(bundle), identify_all(model, bundle)):
            centers = {(x, y) for _, x, y in s.detections}
            assert pred.selected_center in centers
