"""Minimal feed-forward network: ReLU hidden layers, identity output, MSE.

Everything is plain numpy with explicit weights so gradients can be
checked against finite differences. Training is mini-batch gradient
descent with Adam-style adaptive moments (beta1 0.9, beta2 0.999,
epsilon 1e-8) and a seeded shuffle, so runs are bit-reproducible.

Every model carries an input and a target normalizer. ``init_mlp`` gives
identity ones, so ``predict`` of a bare model is its ``forward``; ``fit``
fits both to its data. One layer loop, ``_forward_cached``, runs training
and inference alike.

The trainer fits a stack of K models of one shape at once. The K models
share the training inputs, the learning rate, the epochs and the batch
order (one seeded shuffle per epoch); each has its own weights, target
array, normalizers, loss and loss history. Their weights and biases live
in one (K, P) float64 buffer, P being one model's parameter count, and
each step writes the gradients into a matching buffer, so the forward
and backward passes are ``np.matmul`` on (K, ...) stacks and the Adam
update is whole-buffer in-place operations. Each step runs one forward
pass: its output error gives both each model's loss and the backprop
delta. A stack of one is a single fit; every model in a stack rounds
exactly as it would if trained alone.

A training step allocates no array data. Before the first epoch the
trainer allocates one scratch set at the full batch width (a shorter
last batch uses views of its leading rows), and the forward and backward
passes write every intermediate into it with ``out=`` and in-place ufuncs:
pre-activations, ReLU outputs, the output error and its square, the
backprop deltas, and each ReLU mask as float 0.0/1.0 over its layer's
spent pre-activations. Each element goes through the same operations in
the same order as in the allocating form that inference and
``_gradients`` use, so it rounds the same. From step 356 on,
``1 - beta1**step`` is exactly 1.0, and the update skips its divide by
it: m / 1.0 is m, so that is exact too.

Inference is row-exact: ``forward`` runs an (n, d) batch as an (n, 1, d)
stack, so each row's output is bit for bit its single-row call's. (BLAS
may round a 2-D many-row product differently.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import dataset

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
WEIGHT_INIT_SCALE = 1.0


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss or weight.

    model_index is the model's place in its stack.
    """

    def __init__(self, message: str, model_index: int = 0) -> None:
        super().__init__(message)
        self.model_index = model_index


@dataclass(frozen=True)
class Normalizer:
    """Per-feature affine transform: normalized = (x - shift) / scale."""

    shift: np.ndarray
    scale: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.shift)):
            raise ValueError("normalizer shift must be finite for every feature")
        if not np.all(np.isfinite(self.scale) & (self.scale > 0)):
            raise ValueError("normalizer scale must be finite and positive for every feature")

    @classmethod
    def from_data(cls, data: np.ndarray, constant_feature_scale: str = "unit") -> "Normalizer":
        """Zero-mean/unit-scale transform from data statistics.

        Features with zero spread need a fallback scale. "unit" keeps them
        at 1.0, so an input feature that never varied in training (say,
        every selected box at one height) stays within its own range at
        inference time instead of being blown up by a tiny scale.
        "negligible" uses 1e-9 * max(1, |mean|), so a constant target
        denormalizes back to the constant no matter how loosely the model
        output converges.
        """
        data = np.asarray(data, dtype=float)
        shift = data.mean(axis=0)
        std = data.std(axis=0)
        if constant_feature_scale == "unit":
            fallback = np.ones_like(std)
        elif constant_feature_scale == "negligible":
            fallback = 1e-9 * np.maximum(np.abs(shift), 1.0)
        else:
            raise ValueError(f"unknown constant_feature_scale {constant_feature_scale!r}")
        return cls(shift, np.where(std > 0, std, fallback))

    @classmethod
    def identity(cls, width: int) -> "Normalizer":
        """Shift 0, scale 1: normalizing and denormalizing leave values as they are."""
        return cls(np.zeros(width), np.ones(width))

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.shift) / self.scale

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) * self.scale + self.shift


@dataclass
class MlpModel:
    """Explicit-weight MLP; weights[i] has shape (dims[i], dims[i+1])."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    input_norm: Normalizer
    target_norm: Normalizer

    def copy(self) -> "MlpModel":
        return MlpModel(
            self.layer_dims,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.input_norm,
            self.target_norm,
        )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 250
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def init_mlp(layer_dims: Sequence[int], rng: np.random.Generator) -> MlpModel:
    """Seeded uniform init in +-WEIGHT_INIT_SCALE/sqrt(fan_in); biases start at zero
    and both normalizers are the identity."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"layer_dims must be >= 2 positive sizes, got {dims}")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = WEIGHT_INIT_SCALE / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        dims, weights, biases, Normalizer.identity(dims[0]), Normalizer.identity(dims[-1])
    )


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Raw network output (no normalizers) of a vector or, row-exact, of an (n, d) batch."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.layer_dims[0]:
        raise ValueError(
            f"input has {x.shape[-1]} features, model expects {model.layer_dims[0]}"
        )
    out = _forward_cached(model.weights, model.biases, x.reshape(-1, 1, x.shape[-1]))[1][-1]
    return out[0, 0] if x.ndim == 1 else out[:, 0]


def predict(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Forward pass through the model's input/target normalizers.

    Overflow passes silently: finite but extreme weights give inf or NaN
    outputs, and the callers check the outputs they use.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return model.target_norm.denormalize(forward(model, model.input_norm.normalize(x)))


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean over samples of the mean squared per-dimension error."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: predictions {p.shape} vs targets {t.shape}")
    return float(np.mean((p - t) ** 2))


@dataclass
class _Scratch:
    """Buffers for one training step's passes over a (K, width, ...) batch.

    Per layer: its pre-activations and backprop delta; per hidden layer:
    its ReLU output; the output error and its square. The backward pass
    overwrites a hidden layer's pre-activations with its ReLU mask (float
    0.0/1.0) once it has read them. A buffer that is None makes its
    operation allocate.
    """

    pre: list
    acts: list
    delta: list
    err: np.ndarray | None = None
    sq: np.ndarray | None = None

    @classmethod
    def allocate(cls, k: int, width: int, outs: Sequence[int]) -> "_Scratch":
        def bufs(widths):
            return [np.empty((k, width, d)) for d in widths]

        err, sq = bufs(outs[-1:] * 2)
        return cls(bufs(outs), bufs(outs[:-1]), bufs(outs), err, sq)

    def head(self, width: int) -> "_Scratch":
        """Views of every buffer's first width rows, for a narrower batch."""

        def cut(bufs):
            return [b[:, :width] for b in bufs]

        return _Scratch(cut(self.pre), cut(self.acts), cut(self.delta), *cut([self.err, self.sq]))

    @classmethod
    def none(cls, layers: int) -> "_Scratch":
        """Every buffer None: each pass allocates its results."""
        return cls([None] * layers, [None] * (layers - 1), [None] * layers)


def _forward_cached(weights, biases, x, scratch: _Scratch | None = None):
    """Pre-activations and activations of one model, or of a (K, ...) stack."""
    out = scratch or _Scratch.none(len(weights))
    pre, acts = [], [x]
    a = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(a, w, out=out.pre[i])
        z += b
        pre.append(z)
        a = np.maximum(z, 0.0, out=out.acts[i]) if i < last else z
        acts.append(a)
    return pre, acts


def _backward(
    weights_t, pre, acts, diff: np.ndarray, grad_w, grad_b, scratch: _Scratch | None = None
) -> None:
    """Write the backprop gradients of the MSE into grad_w/grad_b.

    pre/acts come from _forward_cached, diff is its output minus the
    targets and weights_t holds each layer's transposed weights. On a
    stack, each model's MSE is the mean over its own (batch, d) slice.
    With a scratch set, the hidden layers' pre-activations are spent.
    """
    out = scratch or _Scratch.none(len(grad_w))
    delta = np.multiply(diff, 2.0, out=out.delta[-1])
    delta /= diff.shape[-2] * diff.shape[-1]
    for i in range(len(grad_w) - 1, -1, -1):
        np.matmul(acts[i].swapaxes(-1, -2), delta, out=grad_w[i])
        np.sum(delta, axis=-2, out=grad_b[i])
        if i > 0:
            delta = np.matmul(delta, weights_t[i], out=out.delta[i - 1])
            delta *= np.greater(pre[i - 1], 0, out=out.pre[i - 1])


def _gradients(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """Backprop gradients of mse_loss(forward(model, x), y)."""
    pre, acts = _forward_cached(model.weights, model.biases, x)
    grad_w = [np.empty_like(w) for w in model.weights]
    grad_b = [np.empty_like(b) for b in model.biases]
    _backward([w.T for w in model.weights], pre, acts, acts[-1] - y, grad_w, grad_b)
    return grad_w, grad_b


def _views(buf: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views along the last axis of a (..., P) buffer, one per shape."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[..., offset : offset + size].reshape(buf.shape[:-1] + tuple(shape)))
        offset += size
    return views


def train(
    models: Sequence[MlpModel],
    inputs: np.ndarray,
    targets: Sequence[np.ndarray],
    config: TrainConfig,
    rng: np.random.Generator | None = None,
) -> list[tuple[MlpModel, list[float]]]:
    """Train K models of one shape as one stack with Adam, one target array each.

    Returns each model with its per-epoch mean loss. Inputs and targets
    are passed through each model's normalizers, so a loss is
    in normalized units. Zero epochs is a no-op. Each model's weights and
    biases are rebound to fresh arrays holding its trained values, so no
    two models share memory. A non-finite loss, or a non-finite weight
    or bias after the last step, raises TrainingDivergedError naming the
    first model it hits; numpy's overflow warnings stay silent on the way.
    """
    models = list(models)
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = [np.atleast_2d(np.asarray(t, dtype=float)) for t in targets]
    if not models or len(targets) != len(models):
        raise ValueError(f"{len(targets)} target arrays for {len(models)} models")
    dims = models[0].layer_dims
    if any(m.layer_dims != dims for m in models):
        raise ValueError(f"stacked models differ in layer_dims: {[m.layer_dims for m in models]}")
    for y in targets:
        if len(x) != len(y):
            raise ValueError(f"{len(x)} inputs but {len(y)} targets")
        if (x.shape[1], y.shape[1]) != (dims[0], dims[-1]):
            raise ValueError(
                f"{x.shape[1]} input and {y.shape[1]} target features for layer_dims {dims}"
            )
    if len(x) == 0:
        raise ValueError("training set is empty")
    if config.batch_size > len(x):
        raise ValueError(f"batch_size {config.batch_size} exceeds dataset size {len(x)}")
    xk = np.stack([m.input_norm.normalize(x) for m in models])
    yk = np.stack([m.target_norm.normalize(y) for m, y in zip(models, targets)])
    if rng is None:
        rng = np.random.default_rng(config.seed)

    layers = len(dims) - 1
    outs = dims[1:]
    model_shapes = list(zip(dims[:-1], outs)) + [(d,) for d in outs]
    params = np.stack(
        [np.concatenate([np.asarray(a, dtype=float).ravel() for a in m.weights + m.biases])
         for m in models]
    )
    views = _views(params, model_shapes[:layers] + [(1, d) for d in outs])
    weights, biases = views[:layers], views[layers:]
    weights_t = [w.swapaxes(-1, -2) for w in weights]
    grad = np.empty_like(params)
    views = _views(grad, model_shapes)
    grad_w, grad_b = views[:layers], views[layers:]
    # Adam moments and two buffers for the update. The in-place update below
    # must keep this operation order, element by element:
    #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
    #   p -= lr*(m/corr1) / (sqrt(v/corr2) + eps)
    # Reordering it (say, folding lr/corr1 into one constant) changes the
    # rounding, and with it every trained model; tests/test_nn.py pins the
    # result bit for bit to a per-array reference trainer. The one shortcut
    # is exact: from step 356 on, corr1 = 1 - 0.9**step rounds to 1.0, and
    # m/1.0 is m, so the update writes m*lr. corr2 first rounds to 1.0 at
    # step 37,412, past any default fit, so its divide stays.
    m, v, step_buf, denom = (np.zeros_like(params) for _ in range(4))
    lr = config.learning_rate
    n = len(x)
    starts = range(0, n, config.batch_size)
    widths = [min(config.batch_size, n - start) for start in starts]
    batch_sizes = np.array(widths)
    # One step's forward and backward buffers, allocated at the full batch
    # width; a shorter last batch uses views of their leading rows.
    full = _Scratch.allocate(len(models), config.batch_size, outs)
    scratches = {width: full.head(width) for width in set(widths)}
    # Per step, each model's sum of squared errors; a loss is that sum over
    # the batch's element count, taken once per epoch.
    sq_sums = np.empty((len(starts), len(models)))
    step = 0
    histories: list[list[float]] = [[] for _ in models]
    # A diverging fit overflows in its matmuls before its loss turns
    # non-finite. The loss check and the weight check after the loop report
    # it, so numpy's warnings are off for the whole loop, set once.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            xs, ys = xk[:, order], yk[:, order]
            for j, (start, width) in enumerate(zip(starts, widths)):
                scratch = scratches[width]
                xb = xs[:, start : start + width]
                yb = ys[:, start : start + width]
                pre, acts = _forward_cached(weights, biases, xb, scratch)
                diff = np.subtract(acts[-1], yb, out=scratch.err)
                np.add.reduce(np.square(diff, out=scratch.sq), axis=(1, 2), out=sq_sums[j])
                if not all(map(math.isfinite, sq_sums[j].tolist())):
                    k = int(np.argmin(np.isfinite(sq_sums[j])))
                    loss = sq_sums[j, k] / diff[k].size
                    raise TrainingDivergedError(
                        f"model {k}: non-finite loss {loss} at epoch {epoch}, step {step}; "
                        f"lower the learning rate ({lr})",
                        k,
                    )
                _backward(weights_t, pre, acts, diff, grad_w, grad_b, scratch)
                step += 1
                corr1 = 1.0 - ADAM_BETA1**step
                corr2 = 1.0 - ADAM_BETA2**step
                m *= ADAM_BETA1
                m += np.multiply(grad, 1 - ADAM_BETA1, out=step_buf)
                v *= ADAM_BETA2
                np.square(grad, out=step_buf)
                step_buf *= 1 - ADAM_BETA2
                v += step_buf
                if corr1 == 1.0:
                    np.multiply(m, lr, out=step_buf)
                else:
                    np.divide(m, corr1, out=step_buf)
                    step_buf *= lr
                np.divide(v, corr2, out=denom)
                np.sqrt(denom, out=denom)
                denom += ADAM_EPSILON
                step_buf /= denom
                params -= step_buf
            losses = sq_sums / (batch_sizes * dims[-1])[:, None]
            for k, history in enumerate(histories):
                history.append(float(np.average(losses[:, k], weights=batch_sizes)))
    # The loss check sees each update but the last through the next forward pass.
    finite = np.isfinite(params).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise TrainingDivergedError(
            f"model {k}: non-finite weights after {step} steps; lower the learning rate ({lr})", k
        )
    for model, own in zip(models, params):
        views = _views(own.copy(), model_shapes)
        model.weights, model.biases = views[:layers], views[layers:]
    return list(zip(models, histories))


def fit(
    inputs: np.ndarray,
    targets: Sequence[np.ndarray],
    hidden_dims: Sequence[int],
    config: TrainConfig,
) -> list[tuple[MlpModel, list[float]]]:
    """One model per target array, trained as one stack on shared inputs.

    The seeded initial weights are drawn once and every model starts from
    them. The models share an input normalizer fitted to the inputs, and
    each gets its own target normalizer fitted to its targets.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    ys = [np.atleast_2d(np.asarray(t, dtype=float)) for t in targets]
    if not ys:
        raise ValueError("fit needs at least one target array")
    rng = np.random.default_rng(config.seed)
    init = init_mlp((x.shape[1], *hidden_dims, ys[0].shape[1]), rng)
    init.input_norm = Normalizer.from_data(x)
    models = [init.copy() for _ in ys]
    for model, y in zip(models, ys):
        model.target_norm = Normalizer.from_data(y, constant_feature_scale="negligible")
    return train(models, x, ys, config, rng=rng)


def gradient_check(
    model: MlpModel,
    inputs: np.ndarray,
    targets: np.ndarray,
    step: float = 1e-5,
) -> float:
    """Max relative error between backprop and central finite differences.

    Relative error per parameter is |ga - gn| / max(|ga|, |gn|, 1e-8).
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.atleast_2d(np.asarray(targets, dtype=float))
    grad_w, grad_b = _gradients(model, x, y)
    worst = 0.0
    for arrays, grads in ((model.weights, grad_w), (model.biases, grad_b)):
        for arr, grad in zip(arrays, grads):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for j in range(flat.size):
                original = flat[j]
                flat[j] = original + step
                up = mse_loss(forward(model, x), y)
                flat[j] = original - step
                down = mse_loss(forward(model, x), y)
                flat[j] = original
                numeric = (up - down) / (2.0 * step)
                denom = max(abs(gflat[j]), abs(numeric), 1e-8)
                worst = max(worst, abs(gflat[j] - numeric) / denom)
    return worst


def _norm_to_json(norm: Normalizer) -> dict:
    return {"shift": norm.shift.tolist(), "scale": norm.scale.tolist()}


def _finite_array(what: str, shape: tuple[int, ...]):
    """Parser for a model file's array of finite numbers of one shape; errors start with what."""

    def parse(raw) -> np.ndarray:
        try:
            arr = np.array(raw, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{what}: {exc}") from None
        if arr.shape != shape:
            raise ValueError(f"{what}: shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{what}: not all finite")
        return arr

    return parse


def _normalizer(width: int):
    """Parser for a model file's normalizer of ``width`` features: {"shift": .., "scale": ..}."""

    def parse(raw) -> Normalizer:
        if not (isinstance(raw, dict) and {"shift", "scale"} <= set(raw)):
            raise ValueError("expected an object with a shift and a scale")
        return Normalizer(*(_finite_array(k, (width,))(raw[k]) for k in ("shift", "scale")))

    return parse


def save_weights(model: MlpModel, path: str | Path) -> None:
    """Persist the model as compact JSON with row-major weight arrays."""
    doc = {
        "layer_dims": list(model.layer_dims),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "hidden_activation": "relu",
        "output_activation": "identity",
        "input_norm": _norm_to_json(model.input_norm),
        "target_norm": _norm_to_json(model.target_norm),
    }
    dataset.write_json(path, doc, indent=None)


def load_weights(path: str | Path) -> MlpModel:
    """Load a model saved by save_weights; outputs reproduce bit for bit.

    Every key is required, the normalizers too. Errors name the file and
    the key, with list entries as ``weights.0``.
    """
    try:
        doc = dataset.read_json(path)
    except dataset.DatasetFormatError as exc:
        raise dataset.DatasetFormatError(f"not a valid model file: {exc}") from None
    dims = dataset.json_field(
        doc, path, "layer_dims", lambda raw: tuple(dataset.json_int(d) for d in raw)
    )
    if len(dims) < 2:
        raise ValueError(f"{path}: layer_dims {list(dims)} needs an input and an output width")
    activations = [
        dataset.json_field(doc, path, key, dataset.json_str)
        for key in ("hidden_activation", "output_activation")
    ]
    if activations != ["relu", "identity"]:
        raise ValueError(f"{path}: unsupported activations {'/'.join(activations)}")
    shapes = {"weights": list(zip(dims[:-1], dims[1:])), "biases": [(d,) for d in dims[1:]]}
    for key, want in shapes.items():
        found = dataset.json_field(doc, path, key)
        if not (isinstance(found, list) and len(found) == len(want)):
            raise ValueError(f"{path}: key '{key}': expected a list of {len(want)} arrays")
    weights, biases = (
        [dataset.json_field(doc, path, f"{key}.{i}", _finite_array(f"layer {i} {key}", shape))
         for i, shape in enumerate(want)]
        for key, want in shapes.items()
    )
    input_norm, target_norm = (
        dataset.json_field(doc, path, field, _normalizer(width))
        for field, width in (("input_norm", dims[0]), ("target_norm", dims[-1]))
    )
    return MlpModel(dims, weights, biases, input_norm, target_norm)
