"""Deterministic toy-training harness with hand-coded gradients.

Small frozen-base models (linear or conv2d layers, tanh between them, last
layer linear: _forward applies this by position) are trained on fixed data
with only the adapter factors as trainable parameters. Everything is
written out explicitly: forward pass, backprop to each layer's delta and
on, through the adapter family's own vector-Jacobian product, to every
factor tensor (Tucker cores included), and the optimizer step. SGD, Adam
(fixed betas) and AdaGrad share that one step, _Optimizer.step: AdaGrad's
accumulator is Adam's second moment without decay or bias correction, and
both divide through one guarded num / (sqrt(den) + eps). Its three checks
back the CLI's `verify merge-ratio`, `verify homogeneity` and `verify
gradients`, which loop over the forms in HARNESS_ALGORITHMS.

There is one forward, one loss and one gradient path, all private:
_forward, _member_mse and _loss_and_grads, on data the public entry points
have checked. They carry float64 or complex128 alike: a factor given an
imaginary perturbation yields a complex loss whose imaginary part holds
the derivative, which is how gradient_check takes its reference. The
public functions take real input only.

Conv layers run on tensor_core's im2col kernel and its two adjoints. A
training step builds each delta once and reuses it in the next forward.

Training runs on a leading member axis. The factors, deltas, merge ratios
and learning rates of several members (the two twins of a merge-ratio
check, or the one model of train()) stack on it, and the same forward,
backward and family code runs once for all of them: numpy's matmul runs
one GEMM per member, so each member's trace is bit for bit its own. The
factors of every member, layer and role live in one flat buffer that the
stacked adapters view, so an optimizer step is one set of array operations
on that buffer, followed by one finite scan. gradient_check stacks the
complex-step probes of a factor on the same axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import adapters, tensor_core
from .adapters import LayerShape, MergeScale
from .tensor_core import NumericalError, _checked_seed, as_tensor

__all__ = [
    "OPTIMIZERS",
    "HARNESS_ALGORITHMS",
    "HarnessAlgo",
    "OptimizerConfig",
    "ToyLayer",
    "ToyModel",
    "TrainTrace",
    "train",
    "homogeneity_check",
    "verify_merge_ratio",
    "gradient_check",
    "build_toy_model",
    "toy_geometry",
    "toy_dataset",
]

OPTIMIZERS = ("sgd", "adam", "adagrad")

# learning-rate exponent in the equivalence: ratio s demands lr * r^c, r = s^(1/k)
C_EXPONENT = {"sgd": 2, "adam": 1, "adagrad": 1}

BASE_LR = {"sgd": 0.01, "adam": 0.02, "adagrad": 0.02}

ADAM_BETAS = (0.9, 0.999)

# initial reconstructed-delta RMS in toy models; keeps large merge ratios in
# the stable regime without freezing the factors
INIT_DELTA_RMS = 0.02

# complex-step probes per forward in gradient_check: bounds the stacked
# forward's memory (the 81 probes of a Tucker core take 6 MB at once)
PROBES_PER_FORWARD = 16

# gradient_check's imaginary step h
COMPLEX_STEP = 1e-30

LINEAR_DIMS = (16, 12, 8)
LINEAR_SAMPLES = 64
CONV_CHANNELS = (4, 8, 4)
CONV_KERNEL = 3
CONV_IMAGE = 8
CONV_SAMPLES = 16


@dataclass(frozen=True)
class HarnessAlgo:
    """One named adapter configuration the harness knows how to train."""

    algorithm: str
    tucker: bool
    dim: int
    factor: int

    @property
    def conv(self) -> bool:
        # a Tucker core carries kernel axes: the Tucker forms, and only they, train conv layers
        return self.tucker


HARNESS_ALGORITHMS = {
    "lora": HarnessAlgo("lora", tucker=False, dim=4, factor=-1),
    "loha": HarnessAlgo("loha", tucker=False, dim=4, factor=-1),
    "lokr": HarnessAlgo("lokr", tucker=False, dim=4, factor=4),
    "lokr-factored": HarnessAlgo("lokr", tucker=False, dim=2, factor=4),
    "lora-tucker": HarnessAlgo("lora", tucker=True, dim=3, factor=-1),
    "loha-tucker": HarnessAlgo("loha", tucker=True, dim=2, factor=-1),
    "lokr-tucker": HarnessAlgo("lokr", tucker=True, dim=2, factor=4),
}


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimizer kind, learning rate, Adam/AdaGrad epsilon and decoupled weight decay."""

    kind: str
    learning_rate: float
    eps: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.kind not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.kind!r}, expected one of {OPTIMIZERS}")
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if not all(math.isfinite(v) and v >= 0 for v in (self.eps, self.weight_decay)):
            raise ValueError(f"eps and weight_decay must be finite and non-negative, "
                             f"got {self.eps} and {self.weight_decay}")


@dataclass
class ToyLayer:
    base_weight: np.ndarray
    base_bias: np.ndarray
    adapter: adapters.Adapter


@dataclass
class ToyModel:
    layers: list[ToyLayer]


@dataclass
class TrainTrace:
    """Per-step loss and post-update reconstructed deltas per layer."""

    losses: list[float] = field(default_factory=list)
    deltas: list[list[np.ndarray]] = field(default_factory=list)


def _spec(name: str) -> HarnessAlgo:
    """The harness form of that name; an unknown name raises ValueError listing the known ones."""
    try:
        return HARNESS_ALGORITHMS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown harness form {name!r}, expected one of "
                         f"{tuple(HARNESS_ALGORITHMS)}") from None


# ---------------------------------------------------------------------------
# forward / backward over a batch and any leading member axes


def _forward(model: ToyModel, x: np.ndarray, deltas: list, gammas: list,
             x_cols: np.ndarray | None = None, scratch: list | None = None) -> list[tuple]:
    """Per layer (input, w0 + gamma * delta, im2col columns or None, output).

    Every layer's output but the last's is tanh-activated. deltas[i] and
    gammas[i] may carry leading member axes; x and the base layers are
    shared by every member. x_cols, the first layer's im2col columns of x,
    are built here unless the caller passes them. A training run passes
    scratch, one dict per layer that it keeps for all its steps, for the
    conv buffers (tensor_core._buffer).
    """
    saved = []
    h, cols, last = x, x_cols, len(model.layers) - 1
    for i, (layer, delta, gamma) in enumerate(zip(model.layers, deltas, gammas)):
        w_eff = layer.base_weight + gamma * delta
        if layer.adapter.layer.kind == "linear":
            z, cols = h @ w_eff.swapaxes(-1, -2) + layer.base_bias, None
        else:
            if cols is None:
                cols = tensor_core._im2col(h, layer.adapter.layer.kernel,
                                           scratch[i] if scratch else None)
            z = tensor_core._conv_cols(w_eff, cols) + layer.base_bias[:, None, None]
        a = np.tanh(z) if i < last else z
        saved.append((h, w_eff, cols, a))
        h, cols = a, None
    return saved


def _input_cols(model: ToyModel, x: np.ndarray) -> np.ndarray | None:
    """The first layer's im2col columns of x, for callers that run many forwards on one x."""
    head = model.layers[0].adapter.layer
    return tensor_core._im2col(x, head.kernel) if head.kind == "conv2d" else None


def _member_mse(pred: np.ndarray, target: np.ndarray):
    """(pred - target, the MSE of each member): the mean over the axes pred shares with target.

    The square is diff * diff, not |diff|^2: a complex pred gives a loss
    that stays analytic, as the complex-step check needs.
    """
    if pred.shape[pred.ndim - target.ndim:] != target.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    # np.mean's own sum and division, without its dispatch
    shared = tuple(range(pred.ndim - target.ndim, pred.ndim))
    return diff, np.add.reduce(diff * diff, axis=shared) / target.size


def _loss_and_grads(model: ToyModel, x: np.ndarray, x_cols: np.ndarray | None,
                    target: np.ndarray, deltas: list, gammas: list, scratch: list | None = None):
    """MSE loss and the gradients of every factor, grads[i] by role, with deltas[i] layer i's delta.

    With leading member axes on deltas and gammas, the losses and every
    gradient carry them too; x_cols and scratch are as in _forward. The
    input gradient of the first layer is never used, so it is not taken.
    """
    saved = _forward(model, x, deltas, gammas, x_cols, scratch)
    diff, losses = _member_mse(saved[-1][-1], target)
    d = (2.0 / target.size) * diff
    grads: list[dict[str, np.ndarray]] = [None] * len(model.layers)
    last = len(model.layers) - 1
    for i in range(last, -1, -1):
        layer = model.layers[i]
        h_in, w_eff, cols, a = saved[i]
        if i < last:
            d = d * (1.0 - a * a)
        if cols is None:
            g_w = d.swapaxes(-1, -2) @ h_in
            if i:
                d = d @ w_eff
        else:
            g_w = tensor_core._conv2d_weight_grad(d, cols, layer.adapter.layer.kernel)
            if i:
                d = tensor_core._conv2d_input_grad(w_eff, d, scratch[i] if scratch else None)
        grads[i] = layer.adapter._vjp(gammas[i] * g_w)
    return losses, grads


# ---------------------------------------------------------------------------
# optimizers


class _Optimizer:
    """SGD, Adam or AdaGrad as one update rule, applied in place to a flat parameter buffer.

    lr holds a learning rate per buffer entry, or one for all; the kind, eps
    and the weight decay come from cfg. Adam keeps the moments m and v and
    corrects their bias at step t; AdaGrad's accumulator is v with no decay
    and no bias correction. Both take the direction num / (sqrt(den) + eps),
    where a zero denominator (the moments of all-zero gradients) means a
    zero direction; a NaN one, from a non-finite gradient, divides through,
    so the step leaves a NaN that _train's scan of the buffer reports.
    """

    def __init__(self, cfg: OptimizerConfig, lr):
        self.cfg = cfg
        self.lr = lr
        self.t = 0
        self.m = self.v = 0.0

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        """p -= lr * direction(g) + lr * weight_decay * p_old, in place."""
        self.t += 1
        kind, eps, wd = self.cfg.kind, self.cfg.eps, self.cfg.weight_decay
        decay = self.lr * wd * p if wd else None
        if kind == "sgd":
            direction = g
        else:
            if kind == "adam":
                b1, b2 = ADAM_BETAS
                self.m = b1 * self.m + (1 - b1) * g
                self.v = b2 * self.v + (1 - b2) * g * g
                num, den = self.m / (1 - b1 ** self.t), self.v / (1 - b2 ** self.t)
            else:
                self.v = self.v + g * g
                num, den = g, self.v
            den = np.sqrt(den) + eps
            direction = np.zeros(num.shape, num.dtype)
            np.divide(num, den, out=direction, where=den != 0)
        p -= self.lr * direction
        if decay is not None:
            p -= decay


# ---------------------------------------------------------------------------
# model building and training


def toy_geometry(conv: bool) -> list[LayerShape]:
    """The toy model's layers, first to last: linear, or conv2d for the Tucker forms."""
    if conv:
        dims = CONV_CHANNELS
        return [LayerShape("conv2d", dims[i + 1], dims[i], CONV_KERNEL)
                for i in range(len(dims) - 1)]
    dims = LINEAR_DIMS
    return [LayerShape("linear", dims[i + 1], dims[i]) for i in range(len(dims) - 1)]


def toy_dataset(conv: bool, seed=0, samples: int | None = None):
    """Fixed standard-normal (x, target) pairs matching the toy geometry."""
    if samples is not None and not tensor_core._is_count(samples):
        raise ValueError(f"samples must be positive, got {samples!r}")
    rng = np.random.default_rng(_checked_seed(seed))
    if conv:
        n = CONV_SAMPLES if samples is None else samples
        spatial = CONV_IMAGE
        out_spatial = spatial - 2 * (CONV_KERNEL - 1)
        x = rng.standard_normal((n, CONV_CHANNELS[0], spatial, spatial))
        y = rng.standard_normal((n, CONV_CHANNELS[-1], out_spatial, out_spatial))
    else:
        n = LINEAR_SAMPLES if samples is None else samples
        x = rng.standard_normal((n, LINEAR_DIMS[0]))
        y = rng.standard_normal((n, LINEAR_DIMS[-1]))
    return x, y


def build_toy_model(name: str, seed=0, ratio: float = 1.0) -> ToyModel:
    """Toy model for a named harness algorithm, every factor random (nonzero).

    The adapter merge ratio is set to `ratio` via alpha = ratio * dim; base
    weights and biases are frozen draws from the same seed.
    """
    spec = _spec(name)
    geometry = toy_geometry(spec.conv)
    ss = _checked_seed(seed).spawn(len(geometry) + 1)
    base_rng = np.random.default_rng(ss[0])
    layers = []
    for shape, child in zip(geometry, ss[1:]):
        fan_in = shape.unrolled_in
        w0 = base_rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=shape.delta_shape)
        b0 = base_rng.normal(0.0, 0.05, size=(shape.out_dim,))
        ad = adapters.random_adapter(spec.algorithm, shape, spec.dim,
                                     alpha=ratio * spec.dim, factor=spec.factor,
                                     tucker=spec.tucker, seed=child)
        # normalize the starting delta to a fixed small RMS; the k-th root
        # spreads the correction evenly over the factor tensors
        rms = float(np.sqrt(np.mean(adapters.reconstruct(ad) ** 2)))
        k = len(ad.tensors())
        ad = adapters.scale_factors(ad, (INIT_DELTA_RMS / max(rms, 1e-300)) ** (1.0 / k))
        layers.append(ToyLayer(w0, b0, ad))
    return ToyModel(layers)


def train(model: ToyModel, optimizer: OptimizerConfig, dataset, steps: int) -> TrainTrace:
    """Full-batch training of the adapter factors; the base stays frozen.

    The input model is not mutated. Raises NumericalError if the loss, a
    factor or a delta goes non-finite, naming the step (and, for a factor
    or a delta, the layer and the role).
    """
    return _train([model], optimizer, [optimizer.learning_rate], dataset, steps, [None])[0]


def _stack(models: list[ToyModel]) -> tuple[ToyModel, np.ndarray, list[tuple]]:
    """The members' factors in one flat buffer, and a model of stacked views into it.

    Checks once that the members share their layers, base weights and
    factor shapes. Returns (model, buffer, blocks): the model's adapters
    hold (members, *shape) views of the buffer, and blocks lists, layer by
    layer and role by role, (layer, role, start, size) for the contiguous
    block buffer[start:start + members * size] that holds that role.
    """
    first = models[0]
    factors = [[layer.adapter.tensors() for layer in m.layers] for m in models]
    for model, tensors in zip(models[1:], factors[1:]):
        if len(model.layers) != len(first.layers) or not all(
                type(a.adapter) is type(b.adapter) and a.adapter.layer == b.adapter.layer
                and np.array_equal(a.base_weight, b.base_weight)
                and np.array_equal(a.base_bias, b.base_bias)
                and {r: t.shape for r, t in ta.items()} == {r: t.shape for r, t in tb.items()}
                for a, b, ta, tb in zip(first.layers, model.layers, factors[0], tensors)):
            raise ValueError("stacked members must share their layers, base weights and factor shapes")
    n = len(models)
    roles = [(li, role) for li, tensors in enumerate(factors[0]) for role in tensors]
    buf = np.concatenate([np.stack([m[li][role] for m in factors]) for li, role in roles],
                         axis=None)
    blocks, views, start = [], [{} for _ in first.layers], 0
    for li, role in roles:
        shape = factors[0][li][role].shape
        size = math.prod(shape)
        views[li][role] = buf[start:start + n * size].reshape(n, *shape)
        blocks.append((li, role, start, size))
        start += n * size
    stacked = ToyModel([replace(layer, adapter=adapters._stacked(layer.adapter, v))
                        for layer, v in zip(first.layers, views)])
    return stacked, buf, blocks


def _train(models: list[ToyModel], cfg: OptimizerConfig, rates: list[float], dataset,
           steps: int, names: list[str | None]) -> list[TrainTrace]:
    """train() for several members at once, stacked on a leading member axis.

    The members share the base layers, the data and cfg's optimizer kind,
    eps and weight decay; they differ in their factors, merge ratio and
    learning rate, rates[i] for member i (cfg.learning_rate is not read).
    Their factors live in one buffer (_stack), so one optimizer step
    updates every member, layer and role in place. Structure is checked
    once, when the stack is built; after each step one scan of the buffer
    and one of each delta replace the per-factor checks of a rebuild. A
    non-finite loss, factor or delta raises NumericalError naming the step,
    the member (names[i], when given), the layer and the role. Every
    member's trace equals, bit for bit, what it gives alone.
    """
    if not tensor_core._is_count(steps):
        raise ValueError(f"steps must be positive, got {steps!r}")
    work, buf, blocks = _stack(models)
    n = len(models)
    gammas = [np.reshape([m.layers[li].adapter.scale.gamma for m in models],
                         (n,) + (1,) * len(layer.adapter.layer.delta_shape))
              for li, layer in enumerate(work.layers)]
    opt = _Optimizer(cfg, np.concatenate([np.repeat(rates, size) for *_, size in blocks]))
    x_data, y_data = dataset
    x, y = as_tensor(x_data, "dataset x"), as_tensor(y_data, "dataset y")
    x_cols = _input_cols(work, x)
    scratch = [{} for _ in work.layers]
    traces = [TrainTrace() for _ in models]

    def failure(what: str, step: int, member: int, where: str = "") -> NumericalError:
        who = f" in {names[member]}" if names[member] else ""
        return NumericalError(f"non-finite {what} at step {step}{who}{where}")

    # the deltas recorded after each update are the next step's forward deltas;
    # a diverging run is reported by the scans below, not by numpy's warnings
    deltas = [layer.adapter._delta() for layer in work.layers]
    with np.errstate(over="ignore", invalid="ignore"):
        for step_index in range(1, steps + 1):
            losses, grads = _loss_and_grads(work, x, x_cols, y, deltas, gammas, scratch)
            if not np.isfinite(losses).all():
                raise failure("loss", step_index, int(np.argmin(np.isfinite(losses))))
            opt.step(buf, np.concatenate([grads[li][role] for li, role, *_ in blocks], axis=None))
            if not np.isfinite(buf).all():
                bad = int(np.argmin(np.isfinite(buf)))
                li, role, start, size = next(b for b in reversed(blocks) if b[2] <= bad)
                raise failure("factor", step_index, (bad - start) // size,
                              f": layer {li}, role {role!r}")
            deltas = [layer.adapter._delta() for layer in work.layers]
            for li, d in enumerate(deltas):
                if not np.isfinite(d).all():
                    # finite factors whose product overflows: name the largest
                    m = int(np.argmin(np.isfinite(d).reshape(n, -1).all(axis=1)))
                    peaks = {role: float(np.max(np.abs(t[m])))
                             for role, t in work.layers[li].adapter.tensors().items()}
                    role = max(peaks, key=peaks.get)
                    raise failure("delta", step_index, m, f": layer {li}, role {role!r} (finite "
                                  f"factors up to {peaks[role]:.3g} whose product overflows)")
            for i, trace in enumerate(traces):
                trace.losses.append(float(losses[i]))
                trace.deltas.append([d[i] for d in deltas])
    return traces


def homogeneity_check(algorithm: str, c: float = 2.0, trials: int = 100, seed=0) -> float:
    """Max relative deviation of reconstruct(c * factors) from c^k * reconstruct.

    k is the number of factor tensors (2 for lora and unfactored lokr, 3 for
    factored lokr and Tucker lora, 4 for loha). Exact in real arithmetic, so
    the deviation is rounding noise. Raises ValueError for trials < 1; for
    c of 0, 1 or -1, whose c^k is the same for every k of one parity; and,
    naming c and k, when c^k or the largest entry of the scaled delta leaves
    the normal float range, where c^k overflows or underflows and the check
    would measure nothing. A non-finite c is refused before any adapter is
    drawn, in scale_factors' words. A deviation that is not a number raises too.
    """
    if not tensor_core._is_count(trials):
        raise ValueError(f"trials must be positive, got {trials!r}")
    if not math.isfinite(c):
        raise ValueError(f"scale must be finite, got {c}")
    if c == 0.0 or abs(c) == 1.0:
        raise ValueError(f"scale must not be 0 or 1 in magnitude, got {c}: "
                         "c^k is then the same for every k of one parity")
    spec = _spec(algorithm)
    shapes = toy_geometry(spec.conv)
    tiny, huge = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    worst = 0.0
    children = _checked_seed(seed).spawn(trials)
    for i, child in enumerate(children):
        shape = shapes[i % len(shapes)]
        ad = adapters.random_adapter(spec.algorithm, shape, spec.dim, alpha=spec.dim,
                                     factor=spec.factor, tucker=spec.tucker, seed=child)
        k = len(ad.tensors())
        try:
            ck = c ** k
        except OverflowError:
            ck = math.inf
        delta = adapters.reconstruct(ad)
        peak = abs(ck) * float(np.max(np.abs(delta)))
        if not (tiny <= abs(ck) <= huge and tiny <= peak <= huge):
            raise ValueError(
                f"scale c = {c!r} with k = {k} factors leaves the normal float range: "
                f"c^k = {ck!r}, largest scaled delta entry {peak!r}")
        expected = ck * delta
        got = adapters.reconstruct(adapters.scale_factors(ad, c))
        deviation = float(np.max(np.abs(got - expected))) / peak
        if math.isnan(deviation):
            raise ValueError(f"scale c = {c!r} with k = {k} factors: the deviation is not a number")
        worst = max(worst, deviation)
    return worst


def verify_merge_ratio(algorithm: str, s: float, optimizer: str = "sgd",
                       steps: int = 100, seed=0, eps: float = 0.0,
                       weight_decay: float = 0.0) -> float:
    """Max deviation between ratio-s training and its rescaled-ratio-1 twin.

    Run A trains with merge ratio s. Run B starts from the same factors
    scaled by r = s^(1/k) (k factor tensors) with ratio 1 and learning rate
    scaled by r^c, where c is 2 for SGD and 1 for Adam/AdaGrad (with eps =
    0); at s = 2^(+-k), r is a power of two and the deviation is exactly 0.0.
    Returns the max over steps and layers of |s * delta_A - delta_B|, elementwise.
    Nonzero eps or weight_decay breaks the law; they serve as controls.
    The twins train as one stacked run, so a diverging one raises
    NumericalError naming it ("twin A" or "twin B").
    """
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"merge ratio must be finite and positive, got {s}")
    # the config refuses an unknown optimizer; _train takes the twins' rates
    # apart and reads no learning_rate of it
    cfg = OptimizerConfig(optimizer, 0.0, eps=eps, weight_decay=weight_decay)
    lr, c_exp = BASE_LR[optimizer], C_EXPONENT[optimizer]
    spec = _spec(algorithm)
    ss = _checked_seed(seed).spawn(2)
    model_a = build_toy_model(algorithm, seed=ss[0], ratio=s)
    r = s ** (1.0 / len(model_a.layers[0].adapter.tensors()))
    model_b = ToyModel([
        replace(l, adapter=adapters.scale_factors(
            replace(l.adapter, scale=MergeScale(alpha=float(l.adapter.scale.dim),
                                                dim=l.adapter.scale.dim)), r))
        for l in model_a.layers
    ])
    data = toy_dataset(spec.conv, seed=ss[1])
    trace_a, trace_b = _train([model_a, model_b], cfg, [lr, lr * r ** c_exp], data, steps,
                              ["twin A", "twin B"])
    # each layer's deltas over all steps at once; np.max, unlike max(),
    # carries a NaN deviation through
    return float(np.max([np.max(np.abs(s * np.stack(da) - np.stack(db)))
                         for da, db in zip(zip(*trace_a.deltas), zip(*trace_b.deltas))]))


def gradient_check(algorithm: str, seed=0) -> dict[str, float]:
    """Complex-step check of every factor gradient.

    Each factor element is shifted by i * h (h = COMPLEX_STEP) and the
    loss is taken once in complex128; Im L(x + i * h) / h is its derivative
    (Squire & Trapp 1998). No two losses are subtracted, so nothing cancels
    and the reference is exact to rounding for any small step. The probes
    of a factor run as members of stacked forwards, PROBES_PER_FORWARD at a
    time, and the layers before the factor's run once per forward, for all
    of its members; the analytic gradients come from one _loss_and_grads
    call on the same deltas and columns. Returns the worst relative error
    |analytic - reference| / max(|reference|, |analytic|, 1e-8) per
    'layer<i>.<role>' key. gamma is set away from 1 so the ratio chain rule
    is exercised too.
    """
    spec = _spec(algorithm)
    model = build_toy_model(algorithm, seed=seed, ratio=1.3)
    x, y = toy_dataset(spec.conv, seed=seed, samples=2 if spec.conv else 4)
    deltas = [adapters.reconstruct(layer.adapter) for layer in model.layers]
    gammas = [layer.adapter.scale.gamma for layer in model.layers]
    x_cols = _input_cols(model, x)
    _, grads = _loss_and_grads(model, x, x_cols, y, deltas, gammas)
    worst: dict[str, float] = {}
    for li, layer in enumerate(model.layers):
        tensors = layer.adapter.tensors()
        for role, param in tensors.items():
            # a stacked forward holds up to PROBES_PER_FORWARD probes of this
            # factor: member p shifts its entry alone, the other factors are shared
            shifts = (1j * COMPLEX_STEP) * np.eye(param.size).reshape(param.size, *param.shape)
            ref = np.empty(param.size)
            for lo in range(0, param.size, PROBES_PER_FORWARD):
                probes = param + shifts[lo:lo + PROBES_PER_FORWARD]
                stacked = {r: probes if r == role else np.broadcast_to(t, (len(probes), *t.shape))
                           for r, t in tensors.items()}
                probe_deltas = list(deltas)
                probe_deltas[li] = adapters._stacked(layer.adapter, stacked)._delta()
                out = _forward(model, x, probe_deltas, gammas, x_cols)[-1][-1]
                ref[lo:lo + len(probes)] = _member_mse(out, y)[1].imag / COMPLEX_STEP
            analytic = grads[li][role].reshape(-1)
            denom = np.maximum(np.maximum(np.abs(ref), np.abs(analytic)), 1e-8)
            worst[f"layer{li}.{role}"] = float(np.max(np.abs(analytic - ref) / denom))
    return worst
