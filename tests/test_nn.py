import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beamfix import nn
from beamfix.nn import (
    MlpModel,
    Normalizer,
    TrainConfig,
    TrainingDivergedError,
    fit,
    forward,
    gradient_check,
    init_mlp,
    load_weights,
    mse_loss,
    predict,
    save_weights,
    train,
)


def reference_forward(model, x):
    """Hand-rolled dense-algebra oracle with explicit loops."""
    a = np.array(x, dtype=float)
    for layer in range(len(model.weights)):
        w, b = model.weights[layer], model.biases[layer]
        out = np.zeros(w.shape[1])
        for j in range(w.shape[1]):
            acc = b[j]
            for i in range(w.shape[0]):
                acc += a[i] * w[i, j]
            out[j] = acc
        if layer < len(model.weights) - 1:
            out = np.maximum(out, 0.0)
        a = out
    return a


class TestForward:
    def test_zero_weights_zero_output(self):
        model = MlpModel((3, 4, 2), [np.zeros((3, 4)), np.zeros((4, 2))], [np.zeros(4), np.zeros(2)],
                         Normalizer.identity(3), Normalizer.identity(2))
        assert np.all(forward(model, np.array([1.0, -2.0, 3.0])) == 0.0)

    def test_identity_single_layer(self):
        model = MlpModel((3, 3), [np.eye(3)], [np.zeros(3)],
                         Normalizer.identity(3), Normalizer.identity(3))
        x = np.array([0.3, -1.2, 7.0])
        assert np.array_equal(forward(model, x), x)

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(1)
        model = init_mlp((5, 8, 8, 2), rng)
        x = rng.normal(size=5)
        got = forward(model, x)
        want = reference_forward(model, x)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        model = init_mlp((5, 4, 2), np.random.default_rng(0))
        with pytest.raises(ValueError, match="features"):
            forward(model, np.zeros(4))

    def test_batch_equals_per_row(self):
        rng = np.random.default_rng(2)
        model = init_mlp((4, 6, 3), rng)
        batch = rng.normal(size=(10, 4))
        out = forward(model, batch)
        for i in range(10):
            assert np.array_equal(out[i], forward(model, batch[i]))
        # A bare model's normalizers are the identity.
        assert np.array_equal(predict(model, batch), out)

    def test_empty_batch(self):
        model = init_mlp((4, 6, 3), np.random.default_rng(3))
        assert forward(model, np.zeros((0, 4))).shape == (0, 3)


def single_row_2d_predict(model, x):
    """predict() of one row as a (1, d) 2-D product: the per-row path that
    batched inference replaced."""
    a = model.input_norm.normalize(x).reshape(1, -1)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w + b
        if i < len(model.weights) - 1:
            a = np.maximum(a, 0.0)
    return model.target_norm.denormalize(a[0])


class TestRowExactPredict:
    """A batched predict() is bit for bit the per-row predict() of each row.

    This pins the BLAS build CI runs on as well: a stacked matmul whose
    items round unlike single-row products fails here.
    """

    @pytest.mark.parametrize("n", [1, 1000])
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("dims", [(64, 64, 64, 2), (2, 64, 64, 2)])
    def test_matches_per_row(self, dims, normalize, n):
        rng = np.random.default_rng(30)
        model = init_mlp(dims, rng)
        if dims[0] == 64:
            x = np.eye(64)[rng.integers(0, 64, size=n)]  # stage 1: one-hot beams
        else:
            x = rng.uniform(0, 1, size=(n, 2))  # stage 2: box centers
        if normalize:
            model.input_norm = Normalizer.from_data(rng.uniform(0, 1, size=(50, dims[0])))
            targets = np.array([33.42, -111.93]) + 1e-4 * rng.normal(size=(50, 2))
            model.target_norm = Normalizer.from_data(targets, constant_feature_scale="negligible")
        out = predict(model, x)
        assert out.shape == (n, 2)
        per_row = np.array([predict(model, row) for row in x])
        assert np.array_equal(out, per_row)
        assert np.array_equal(out, np.array([single_row_2d_predict(model, row) for row in x]))


class TestMseLoss:
    def test_equal_is_zero(self):
        x = np.arange(6.0).reshape(3, 2)
        assert mse_loss(x, x) == 0.0

    def test_scalar_pairs(self):
        assert mse_loss(np.array([[0.0], [0.0]]), np.array([[1.0], [-1.0]])) == 1.0

    def test_matches_two_loop_oracle(self):
        rng = np.random.default_rng(3)
        p = rng.normal(size=(7, 3))
        t = rng.normal(size=(7, 3))
        acc = 0.0
        for i in range(7):
            for j in range(3):
                acc += (p[i, j] - t[i, j]) ** 2
        assert abs(mse_loss(p, t) - acc / 21.0) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestNormalizer:
    @given(
        data=hnp.arrays(
            dtype=float,
            shape=st.tuples(st.integers(2, 30), st.integers(1, 5)),
            elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, data):
        norm = Normalizer.from_data(data)
        back = norm.denormalize(norm.normalize(data))
        # Error is bounded by ulps of the feature's magnitude scale.
        feature_scale = np.abs(data) + np.abs(norm.shift) + norm.scale
        assert np.max(np.abs(back - data) / feature_scale) < 1e-12

    def test_constant_feature_scale_guard(self):
        data = np.array([[1.0, 5.0], [1.0, 6.0], [1.0, 7.0]])
        norm = Normalizer.from_data(data)
        assert norm.scale[0] == 1.0
        assert np.all(norm.normalize(data)[:, 0] == 0.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            Normalizer(np.zeros(2), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="scale"):
            Normalizer(np.zeros(2), np.array([1.0, bad]))
        with pytest.raises(ValueError, match="shift"):
            Normalizer(np.array([bad, 0.0]), np.ones(2))


class TestGradientCheck:
    def test_small_random_model(self):
        rng = np.random.default_rng(4)
        model = init_mlp((4, 8, 8, 2), rng)  # 146 parameters
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=(6, 2))
        assert gradient_check(model, x, y) < 1e-4

    def test_linear_model_nearly_exact(self):
        rng = np.random.default_rng(5)
        model = init_mlp((3, 2), rng)  # single affine layer, quadratic loss
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 2))
        assert gradient_check(model, x, y) < 1e-7

    def test_zero_model_zero_targets(self):
        model = MlpModel((2, 3, 1), [np.zeros((2, 3)), np.zeros((3, 1))], [np.zeros(3), np.zeros(1)],
                         Normalizer.identity(2), Normalizer.identity(1))
        x = np.zeros((4, 2))
        y = np.zeros((4, 1))
        grad_w, grad_b = nn._gradients(model, x, y)
        assert all(np.all(g == 0) for g in grad_w + grad_b)
        assert gradient_check(model, x, y) == 0.0


class TestTrain:
    def _linear_fixture(self, n=200, seed=6):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=(n, 1))
        return x, 2.0 * x

    def test_learns_linear_relation(self):
        # Closed-form oracle: least squares on y = 2x fits exactly, so a
        # trained net should reach near-zero test error too.
        x, y = self._linear_fixture()
        coef = np.linalg.lstsq(np.hstack([x, np.ones_like(x)]), y, rcond=None)[0]
        assert abs(coef[0, 0] - 2.0) < 1e-9

        [(model, history)] = fit(x, [y], (32, 32), TrainConfig(epochs=500, seed=7))
        x_test = np.linspace(-0.9, 0.9, 50).reshape(-1, 1)
        mse = mse_loss(predict(model, x_test), 2.0 * x_test)
        assert mse < 1e-4

    def test_zero_epochs_is_identity(self):
        rng = np.random.default_rng(8)
        model = init_mlp((2, 4, 1), rng)
        snapshot = [w.copy() for w in model.weights]
        [(trained, history)] = train([model], rng.normal(size=(5, 2)), [rng.normal(size=(5, 1))],
                                     TrainConfig(epochs=0, batch_size=5))
        assert history == []
        assert all(np.array_equal(a, b) for a, b in zip(trained.weights, snapshot))

    def test_bit_identical_reruns(self):
        x, y = self._linear_fixture(60)
        cfg = TrainConfig(epochs=20, seed=11)
        [(model_a, hist_a)] = fit(x, [y], (16,), cfg)
        [(model_b, hist_b)] = fit(x, [y], (16,), cfg)
        assert hist_a == hist_b
        assert all(np.array_equal(a, b) for a, b in zip(model_a.weights, model_b.weights))
        assert all(np.array_equal(a, b) for a, b in zip(model_a.biases, model_b.biases))

    def test_loss_nearly_monotone_at_small_lr(self):
        x, y = self._linear_fixture(120)
        [(_, history)] = fit(x, [y], (16, 16), TrainConfig(learning_rate=1e-3, epochs=80, seed=12))
        for prev, cur in zip(history, history[1:]):
            assert cur <= prev * 1.05

    def test_divergence_aborts_with_diagnostic(self):
        # Targets near 1e200, left as they are by a bare model's identity
        # normalizers, overflow the squared error to inf on the first batch.
        x, y = self._linear_fixture(50)
        model = init_mlp((1, 8, 1), np.random.default_rng(13))
        with pytest.raises(TrainingDivergedError, match="learning rate"):
            train([model], x, [1e200 * y], TrainConfig(learning_rate=1e3, epochs=50, seed=13))

    def test_batch_size_bounds(self):
        x, y = self._linear_fixture(10)
        with pytest.raises(ValueError, match="batch_size"):
            fit(x, [y], (4,), TrainConfig(epochs=1, batch_size=11))


def reference_gradients(model, x, y):
    """Backprop into freshly allocated arrays, as the per-array trainer did;
    also returns the 2-D forward pass's output."""
    pre, acts = [], [x]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w + b
        pre.append(z)
        acts.append(np.maximum(z, 0.0) if i < len(model.weights) - 1 else z)
    grad_w, grad_b = [None] * len(model.weights), [None] * len(model.biases)
    delta = 2.0 * (acts[-1] - y) / y.size
    for i in range(len(model.weights) - 1, -1, -1):
        grad_w[i] = acts[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (pre[i - 1] > 0)
    return grad_w, grad_b, acts[-1]


def reference_train(model, inputs, targets, config):
    """The per-array Adam trainer the fused one replaced, kept as its oracle.

    A 2-D forward pass per batch, a gather per batch and four moment
    arrays per layer, updated array by array.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.atleast_2d(np.asarray(targets, dtype=float))
    x = model.input_norm.normalize(x)
    y = model.target_norm.normalize(y)
    rng = np.random.default_rng(config.seed)
    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    b1, b2, eps = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPSILON
    step = 0
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(x))
        losses, weights_seen = [], []
        for start in range(0, len(x), config.batch_size):
            batch = order[start : start + config.batch_size]
            xb, yb = x[batch], y[batch]
            grad_w, grad_b, out = reference_gradients(model, xb, yb)
            losses.append(mse_loss(out, yb))
            weights_seen.append(len(batch))
            step += 1
            corr1 = 1.0 - b1**step
            corr2 = 1.0 - b2**step
            for i in range(len(model.weights)):
                m_w[i] = b1 * m_w[i] + (1 - b1) * grad_w[i]
                v_w[i] = b2 * v_w[i] + (1 - b2) * grad_w[i] ** 2
                model.weights[i] -= config.learning_rate * (m_w[i] / corr1) / (
                    np.sqrt(v_w[i] / corr2) + eps
                )
                m_b[i] = b1 * m_b[i] + (1 - b1) * grad_b[i]
                v_b[i] = b2 * v_b[i] + (1 - b2) * grad_b[i] ** 2
                model.biases[i] -= config.learning_rate * (m_b[i] / corr1) / (
                    np.sqrt(v_b[i] / corr2) + eps
                )
        history.append(float(np.average(losses, weights=weights_seen)))
    return model, history


def _stacked_targets(rng, n, width, case):
    """Three target arrays for one stack, each with its own normalizer."""
    base = rng.normal(size=(n, width))
    targets = [base, 1e3 * rng.normal(size=(n, width)) + 50.0, rng.uniform(-1e-4, 1e-4, (n, width))]
    if case == "constant-column":
        targets[1][:, 0] = 33.42  # zero spread: the "negligible" normalizer scale
    return targets


def _check_stack_against_reference(dims, n, batch_size, normalize, case, epochs):
    """A stack of three trained by train() matches three reference_train runs bit for bit."""
    rng = np.random.default_rng(31)
    if case == "one-hot":
        x = np.eye(dims[0])[rng.integers(0, dims[0], size=n)]
    else:
        x = rng.normal(size=(n, dims[0]))
    targets = _stacked_targets(rng, n, dims[-1], case)
    init = init_mlp(dims, np.random.default_rng(32))
    models = []
    for y in targets:
        model = init.copy()
        if normalize:
            model.input_norm = Normalizer.from_data(x)
            model.target_norm = Normalizer.from_data(y, constant_feature_scale="negligible")
        models.append(model)
    config = TrainConfig(epochs=epochs, batch_size=batch_size, seed=33, learning_rate=3e-3)

    want = [reference_train(m.copy(), x, y, config) for m, y in zip(models, targets)]
    got = train([m.copy() for m in models], x, targets, config)

    assert len(got) == len(want) == 3
    for (g, g_hist), (w, w_hist) in zip(got, want):
        assert g_hist == w_hist
        assert all(np.array_equal(a, b) for a, b in zip(g.weights, w.weights))
        assert all(np.array_equal(a, b) for a, b in zip(g.biases, w.biases))


class TestFusedTrainerOracle:
    """train() must round every element exactly as the per-array trainer does; in a
    stack of K models, each one exactly as K separate trainings do."""

    @pytest.mark.parametrize(
        "dims, n, batch_size, normalize, one_hot",
        [
            ((2, 16, 16, 2), 45, 8, True, False),  # partial last batch (45 = 5*8 + 5)
            ((3, 2), 40, 7, False, False),  # single affine layer, partial batch
            ((64, 64, 64, 2), 90, 32, True, True),  # stage-1 shape: deep, one-hot input
            ((64, 64, 64, 2), 90, 32, False, True),
            ((2, 16, 16, 2), 64, 16, False, False),
        ],
    )
    def test_matches_per_array_reference(self, dims, n, batch_size, normalize, one_hot):
        rng = np.random.default_rng(21)
        if one_hot:
            x = np.eye(dims[0])[rng.integers(0, dims[0], size=n)]
        else:
            x = rng.normal(size=(n, dims[0]))
        y = rng.normal(size=(n, dims[-1]))
        model = init_mlp(dims, np.random.default_rng(22))
        if normalize:
            model.input_norm = Normalizer.from_data(x)
            model.target_norm = Normalizer.from_data(y, constant_feature_scale="negligible")
        config = TrainConfig(epochs=12, batch_size=batch_size, seed=23, learning_rate=3e-3)

        want, want_hist = reference_train(model.copy(), x, y, config)
        [(got, got_hist)] = train([model.copy()], x, [y], config)

        assert got_hist == want_hist
        assert all(np.array_equal(a, b) for a, b in zip(got.weights, want.weights))
        assert all(np.array_equal(a, b) for a, b in zip(got.biases, want.biases))

    def test_copy_does_not_alias_trained_buffer(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=(20, 2))
        [(model, _)] = fit(x, [y], (4,), TrainConfig(epochs=3, batch_size=5, seed=25))
        snapshot = model.copy()
        arrays = model.weights + model.biases
        assert all(
            not np.shares_memory(c, a)
            for c in snapshot.weights + snapshot.biases
            for a in arrays
        )
        frozen = [a.copy() for a in snapshot.weights + snapshot.biases]
        train([model], x, [y], TrainConfig(epochs=2, batch_size=5, seed=26))
        assert all(
            np.array_equal(a, b) for a, b in zip(snapshot.weights + snapshot.biases, frozen)
        )


    @pytest.mark.parametrize(
        "dims, n, batch_size, normalize, case",
        [
            ((2, 16, 16, 2), 45, 8, True, "own-normalizers"),  # partial last batch
            ((2, 16, 16, 2), 45, 8, True, "constant-column"),
            ((2, 16, 16, 2), 150, 70, True, "own-normalizers"),  # 140 elements per batch
            ((3, 2), 40, 7, False, "own-normalizers"),  # single affine layer, identity normalizers
            ((64, 64, 64, 2), 90, 32, True, "one-hot"),  # stage-1 shape
        ],
    )
    def test_matches_sequential_reference(self, dims, n, batch_size, normalize, case):
        _check_stack_against_reference(dims, n, batch_size, normalize, case, epochs=12)

    @pytest.mark.parametrize(
        "n, batch_size, epochs",
        [
            (45, 8, 70),  # 420 steps over two batch widths (8 and the last 5)
            (40, 40, 360),  # 360 steps over one batch width: one batch per epoch
        ],
    )
    def test_stack_matches_reference_past_beta1_skip(self, n, batch_size, epochs):
        # From step 356 on, 1 - beta1**step rounds to 1.0 and train() skips
        # dividing by it; the per-array reference always divides.
        assert 1.0 - nn.ADAM_BETA1 ** (epochs * -(-n // batch_size) - 1) == 1.0
        _check_stack_against_reference((2, 16, 16, 2), n, batch_size, True, "own-normalizers",
                                       epochs)

    @pytest.mark.parametrize("case", ["own-normalizers", "constant-column"])
    def test_fit_matches_separate_fits(self, case):
        rng = np.random.default_rng(34)
        x = rng.normal(size=(45, 2))
        targets = _stacked_targets(rng, 45, 2, case)
        config = TrainConfig(epochs=10, batch_size=8, seed=35)
        stacked = fit(x, targets, (8, 8), config)
        for (got, got_hist), y in zip(stacked, targets):
            [(want, want_hist)] = fit(x, [y], (8, 8), config)
            assert got_hist == want_hist
            assert np.array_equal(got.target_norm.scale, want.target_norm.scale)
            assert all(np.array_equal(a, b) for a, b in zip(got.weights, want.weights))
            assert all(np.array_equal(a, b) for a, b in zip(got.biases, want.biases))

    def test_models_share_no_memory(self):
        rng = np.random.default_rng(36)
        x = rng.normal(size=(20, 3))
        stacked = fit(x, _stacked_targets(rng, 20, 2, "own-normalizers"), (4,),
                      TrainConfig(epochs=3, batch_size=5, seed=37))
        arrays = [m.weights + m.biases for m, _ in stacked]
        for i, own in enumerate(arrays):
            for other in arrays[i + 1 :]:
                assert not any(np.shares_memory(a, b) for a in own for b in other)
        others = [a for own in arrays[1:] for a in own]
        frozen = [a.copy() for a in others]
        for a in arrays[0]:
            a[...] = 0.0
        assert all(np.array_equal(a, b) for a, b in zip(others, frozen))

    def test_divergence_names_the_model(self):
        rng = np.random.default_rng(38)
        x = rng.normal(size=(30, 2))
        y = rng.normal(size=(30, 2))
        models = [init_mlp((2, 8, 2), np.random.default_rng(39)) for _ in range(3)]
        with pytest.raises(TrainingDivergedError, match=r"^model 1: non-finite loss") as exc:
            train(models, x, [y, 1e200 * y, y], TrainConfig(epochs=5, batch_size=10, seed=39))
        assert exc.value.model_index == 1

    def test_non_finite_last_update_names_the_model(self):
        # One full batch, one step: every loss the step sees is finite, but
        # lr * m / corr1 overflows for model 1's large gradients, so only the
        # check after the last step can catch it.
        rng = np.random.default_rng(44)
        x = rng.normal(size=(20, 2))
        models = [init_mlp((2, 8, 2), np.random.default_rng(45)) for _ in range(2)]
        targets = [1e-3 * rng.normal(size=(20, 2)), 1e3 * rng.normal(size=(20, 2))]
        config = TrainConfig(learning_rate=1e308, epochs=1, batch_size=20, seed=46)
        with pytest.raises(TrainingDivergedError,
                           match=r"^model 1: non-finite weights after 1 steps") as exc:
            train(models, x, targets, config)
        assert exc.value.model_index == 1

    def test_mismatched_stacks_rejected(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(10, 2))
        models = [init_mlp((2, 4, 2), rng), init_mlp((2, 5, 2), rng)]
        with pytest.raises(ValueError, match="layer_dims"):
            train(models, x, [x, x], TrainConfig(epochs=1, batch_size=5))
        with pytest.raises(ValueError, match="2 target arrays for 1 models"):
            train(models[:1], x, [x, x], TrainConfig(epochs=1, batch_size=5))
        with pytest.raises(ValueError, match="target features"):
            train(models[:1], x, [x[:, :1]], TrainConfig(epochs=1, batch_size=5))


class TestPersistence:
    def test_round_trip_outputs_identical(self, tmp_path):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=(40, 2))
        [(model, _)] = fit(x, [y], (8, 8), TrainConfig(epochs=5, seed=15))
        path = tmp_path / "model.json"
        save_weights(model, path)
        loaded = load_weights(path)
        probes = rng.normal(size=(100, 3))
        assert np.array_equal(predict(model, probes), predict(loaded, probes))

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(16)
        model = init_mlp((3, 4, 2), rng)
        path = tmp_path / "model.json"
        save_weights(model, path)
        path.write_text(path.read_text()[:50])
        with pytest.raises(ValueError, match="not a valid model file"):
            load_weights(path)

    @pytest.mark.parametrize(
        "field, match",
        [
            ("weights", "layer 1 weights"),
            ("biases", "layer 1 biases"),
            ("input_norm.shift", "input_norm"),
            ("target_norm.scale", "target_norm"),
        ],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, tmp_path, field, match, bad):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(10, 3))
        y = rng.normal(size=(10, 2))
        [(model, _)] = fit(x, [y], (4,), TrainConfig(epochs=1, batch_size=5, seed=19))
        path = tmp_path / "model.json"
        save_weights(model, path)
        doc = json.loads(path.read_text())
        if field == "weights":
            doc["weights"][1][0][0] = bad
        elif field == "biases":
            doc["biases"][1][0] = bad
        else:
            norm, key = field.split(".")
            doc[norm][key][0] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match) as exc:
            load_weights(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("field", ["input_norm", "target_norm"])
    @pytest.mark.parametrize("cut", ["null", "missing"])
    def test_normalizers_required(self, tmp_path, field, cut):
        path = tmp_path / "model.json"
        save_weights(init_mlp((3, 4, 2), np.random.default_rng(20)), path)
        doc = json.loads(path.read_text())
        if cut == "null":
            doc[field] = None
        else:
            del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"'{field}'") as exc:
            load_weights(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_inconsistent_dims_name_the_layer(self, tmp_path):
        rng = np.random.default_rng(17)
        model = init_mlp((3, 4, 2), rng)
        path = tmp_path / "model.json"
        save_weights(model, path)
        doc = json.loads(path.read_text())
        doc["layer_dims"] = [3, 5, 2]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="layer 0"):
            load_weights(path)
