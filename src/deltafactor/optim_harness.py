"""Deterministic toy-training harness with hand-coded gradients.

Small frozen-base models (linear or conv2d layers, tanh between them, last
layer linear) are trained on fixed data with only the adapter factors as
trainable parameters. Everything is written out explicitly: forward pass,
backprop to each layer's delta and on, through the adapter family's own
vector-Jacobian product, to every factor tensor (Tucker cores included),
and the three optimizers (Adam with fixed betas). Its three checks back
the CLI's `verify merge-ratio`, `verify homogeneity` and `verify
gradients`, which loop over the forms in HARNESS_ALGORITHMS. The forward
path and the loss carry float64 or complex128 alike: a factor given an
imaginary perturbation yields a complex loss whose imaginary part holds
the derivative.

Conv layers run on tensor_core's im2col kernel and its two adjoints. A
training step builds each delta once and reuses it in the next forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import adapters, tensor_core
from .adapters import LayerShape, MergeScale
from .tensor_core import NumericalError, as_tensor

__all__ = [
    "OPTIMIZERS",
    "HARNESS_ALGORITHMS",
    "HarnessAlgo",
    "OptimizerConfig",
    "ToyLayer",
    "ToyModel",
    "TrainTrace",
    "mse_loss",
    "model_forward",
    "model_loss",
    "loss_and_grads",
    "homogeneity_degree",
    "train",
    "homogeneity_check",
    "verify_merge_ratio",
    "gradient_check",
    "build_toy_model",
    "toy_geometry",
    "toy_dataset",
]

OPTIMIZERS = ("sgd", "adam", "adagrad")

# learning-rate exponent in the equivalence: ratio s demands lr * s^(c/k)
C_EXPONENT = {"sgd": 2, "adam": 1, "adagrad": 1}

BASE_LR = {"sgd": 0.01, "adam": 0.02, "adagrad": 0.02}

ADAM_BETAS = (0.9, 0.999)

# initial reconstructed-delta RMS in toy models; keeps large merge ratios in
# the stable regime without freezing the factors
INIT_DELTA_RMS = 0.02

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
    conv: bool
    dim: int
    factor: int


HARNESS_ALGORITHMS = {
    "lora": HarnessAlgo("lora", tucker=False, conv=False, dim=4, factor=-1),
    "loha": HarnessAlgo("loha", tucker=False, conv=False, dim=4, factor=-1),
    "lokr": HarnessAlgo("lokr", tucker=False, conv=False, dim=4, factor=4),
    "lokr-factored": HarnessAlgo("lokr", tucker=False, conv=False, dim=2, factor=4),
    "lora-tucker": HarnessAlgo("lora", tucker=True, conv=True, dim=3, factor=-1),
    "loha-tucker": HarnessAlgo("loha", tucker=True, conv=True, dim=2, factor=-1),
    "lokr-tucker": HarnessAlgo("lokr", tucker=True, conv=True, dim=2, factor=4),
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
        if self.eps < 0 or self.weight_decay < 0:
            raise ValueError("eps and weight_decay must be non-negative")


@dataclass
class ToyLayer:
    base_weight: np.ndarray
    base_bias: np.ndarray
    adapter: adapters.Adapter
    activation: bool


@dataclass
class ToyModel:
    layers: list[ToyLayer]


@dataclass
class TrainTrace:
    """Per-step loss and post-update reconstructed deltas per layer."""

    losses: list[float] = field(default_factory=list)
    deltas: list[list[np.ndarray]] = field(default_factory=list)


def mse_loss(pred, target) -> float | complex:
    """Mean of squared elementwise error over every array element.

    A float for real input. Complex input gives a complex value, since the
    square is diff * diff and not |diff|^2: the loss stays analytic, as the
    complex-step gradient check needs.
    """
    pm, tm = as_tensor(pred), as_tensor(target)
    if pm.shape != tm.shape:
        raise ValueError(f"prediction shape {pm.shape} != target shape {tm.shape}")
    diff = pm - tm
    return np.mean(diff * diff).item()


def homogeneity_degree(adapter) -> int:
    """Number of factor tensors: scaling all by c scales the delta by c^k."""
    return len(adapter.tensors())


# ---------------------------------------------------------------------------
# batched forward / backward


def _forward(model: ToyModel, h: np.ndarray, deltas: list[np.ndarray]) -> list[tuple]:
    """Per layer (input, w0 + gamma * deltas[i], im2col columns or None, output)."""
    saved = []
    for layer, delta in zip(model.layers, deltas):
        w_eff = layer.base_weight + layer.adapter.scale.gamma * delta
        if layer.adapter.layer.kind == "linear":
            z, cols = h @ w_eff.T + layer.base_bias, None
        else:
            z, cols = tensor_core._conv2d(w_eff, h)
            z = z + layer.base_bias[:, None, None]
        a = np.tanh(z) if layer.activation else z
        saved.append((h, w_eff, cols, a))
        h = a
    return saved


def model_forward(model: ToyModel, x) -> np.ndarray:
    """Batched forward pass; x is (n, in) or (n, in, H, W)."""
    deltas = [adapters.reconstruct(layer.adapter) for layer in model.layers]
    return _forward(model, as_tensor(x), deltas)[-1][-1]


def model_loss(model: ToyModel, x, target) -> float | complex:
    return mse_loss(model_forward(model, x), target)


def loss_and_grads(model: ToyModel, x, target):
    """MSE loss and hand-derived gradients of every adapter factor.

    Returns (loss, grads) where grads[i] maps the i-th layer's factor roles
    to arrays shaped like the factors themselves.
    """
    deltas = [adapters.reconstruct(layer.adapter) for layer in model.layers]
    return _loss_and_grads(model, as_tensor(x), as_tensor(target), deltas)


def _loss_and_grads(model: ToyModel, x: np.ndarray, target: np.ndarray,
                    deltas: list[np.ndarray]):
    """loss_and_grads on checked data, with deltas[i] = reconstruct(layer i's adapter).

    The input gradient of the first layer is never used, so it is not taken.
    """
    saved = _forward(model, x, deltas)
    h = saved[-1][-1]
    if h.shape != target.shape:
        raise ValueError(f"prediction shape {h.shape} != target shape {target.shape}")
    diff = h - target
    loss = float(np.mean(diff * diff))
    d = (2.0 / diff.size) * diff
    grads: list[dict[str, np.ndarray]] = [None] * len(model.layers)
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        h_in, w_eff, cols, a = saved[i]
        if layer.activation:
            d = d * (1.0 - a * a)
        if cols is None:
            g_w = d.T @ h_in
            if i:
                d = d @ w_eff
        else:
            g_w = tensor_core._conv2d_weight_grad(d, cols, layer.adapter.layer.kernel)
            if i:
                d = tensor_core._conv2d_input_grad(w_eff, d)
        grads[i] = layer.adapter._vjp(layer.adapter.scale.gamma * g_w)
    return loss, grads


# ---------------------------------------------------------------------------
# optimizers


class _Optimizer:
    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg
        self.t = 0

    def begin_step(self):
        self.t += 1

    def _direction(self, key, g):
        raise NotImplementedError

    def update(self, layer_index: int, role: str, p: np.ndarray, g: np.ndarray) -> np.ndarray:
        lr = self.cfg.learning_rate
        step = self._direction((layer_index, role), g)
        new = p - lr * step
        if self.cfg.weight_decay:
            new = new - lr * self.cfg.weight_decay * p
        return new


class _Sgd(_Optimizer):
    def _direction(self, key, g):
        return g


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # den == 0 implies num == 0 (moments of all-zero gradients); treat as no-op
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


class _Adam(_Optimizer):
    def __init__(self, cfg):
        super().__init__(cfg)
        self.m: dict = {}
        self.v: dict = {}

    def _direction(self, key, g):
        b1, b2 = ADAM_BETAS
        m = self.m.get(key)
        if m is None:
            m = np.zeros_like(g)
            v = np.zeros_like(g)
        else:
            v = self.v[key]
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        self.m[key], self.v[key] = m, v
        m_hat = m / (1 - b1 ** self.t)
        v_hat = v / (1 - b2 ** self.t)
        return _safe_ratio(m_hat, np.sqrt(v_hat) + self.cfg.eps)


class _Adagrad(_Optimizer):
    def __init__(self, cfg):
        super().__init__(cfg)
        self.acc: dict = {}

    def _direction(self, key, g):
        acc = self.acc.get(key)
        acc = g * g if acc is None else acc + g * g
        self.acc[key] = acc
        return _safe_ratio(g, np.sqrt(acc) + self.cfg.eps)


_OPTIMIZER_TYPES = {"sgd": _Sgd, "adam": _Adam, "adagrad": _Adagrad}


# ---------------------------------------------------------------------------
# model building and training


def _seed_seq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def toy_geometry(conv: bool) -> list[tuple[LayerShape, bool]]:
    """Default layer stack: every layer tanh-activated except the last."""
    if conv:
        dims = CONV_CHANNELS
        shapes = [LayerShape("conv2d", dims[i + 1], dims[i], CONV_KERNEL)
                  for i in range(len(dims) - 1)]
    else:
        dims = LINEAR_DIMS
        shapes = [LayerShape("linear", dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
    return [(shape, i < len(shapes) - 1) for i, shape in enumerate(shapes)]


def toy_dataset(conv: bool, seed=0, samples: int | None = None):
    """Fixed standard-normal (x, target) pairs matching the toy geometry."""
    rng = np.random.default_rng(seed)
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
    spec = HARNESS_ALGORITHMS[name]
    geometry = toy_geometry(spec.conv)
    ss = _seed_seq(seed).spawn(len(geometry) + 1)
    base_rng = np.random.default_rng(ss[0])
    layers = []
    for (shape, act), child in zip(geometry, ss[1:]):
        fan_in = shape.unrolled_in
        w0 = base_rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=shape.delta_shape)
        b0 = base_rng.normal(0.0, 0.05, size=(shape.out_dim,))
        ad = adapters.random_adapter(spec.algorithm, shape, spec.dim,
                                     alpha=ratio * spec.dim, factor=spec.factor,
                                     tucker=spec.tucker, seed=child)
        # normalize the starting delta to a fixed small RMS; the k-th root
        # spreads the correction evenly over the factor tensors
        rms = float(np.sqrt(np.mean(adapters.reconstruct(ad) ** 2)))
        k = homogeneity_degree(ad)
        ad = adapters.scale_factors(ad, (INIT_DELTA_RMS / max(rms, 1e-300)) ** (1.0 / k))
        layers.append(ToyLayer(w0, b0, ad, act))
    return ToyModel(layers)


def train(model: ToyModel, optimizer: OptimizerConfig, dataset, steps: int) -> TrainTrace:
    """Full-batch training of the adapter factors; the base stays frozen.

    The input model is not mutated. Raises NumericalError if the loss goes
    non-finite, reporting the step index.
    """
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    x, y = dataset
    work = ToyModel([replace(layer) for layer in model.layers])
    opt = _OPTIMIZER_TYPES[optimizer.kind](optimizer)
    trace = TrainTrace()
    xm, ym = as_tensor(x), as_tensor(y)
    # the deltas recorded after each update are the next step's forward deltas
    deltas = [adapters.reconstruct(layer.adapter) for layer in work.layers]
    for step_index in range(1, steps + 1):
        loss, grads = _loss_and_grads(work, xm, ym, deltas)
        if not math.isfinite(loss):
            raise NumericalError(f"non-finite loss at step {step_index}")
        opt.begin_step()
        for li, layer in enumerate(work.layers):
            new = {role: opt.update(li, role, p, grads[li][role])
                   for role, p in layer.adapter.tensors().items()}
            layer.adapter = replace(layer.adapter, **new)
        deltas = [adapters.reconstruct(layer.adapter) for layer in work.layers]
        trace.losses.append(loss)
        trace.deltas.append(deltas)
    return trace


def homogeneity_check(algorithm: str, c: float = 2.0, trials: int = 100, seed=0) -> float:
    """Max relative deviation of reconstruct(c * factors) from c^k * reconstruct.

    k is the number of factor tensors (2 for lora and unfactored lokr, 3 for
    factored lokr and Tucker lora, 4 for loha). Exact in real arithmetic, so
    the deviation is rounding noise. Raises ValueError for trials < 1, which
    would check nothing.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    spec = HARNESS_ALGORITHMS[algorithm]
    shapes = [shape for shape, _ in toy_geometry(spec.conv)]
    worst = 0.0
    children = _seed_seq(seed).spawn(trials)
    for i, child in enumerate(children):
        shape = shapes[i % len(shapes)]
        ad = adapters.random_adapter(spec.algorithm, shape, spec.dim, alpha=spec.dim,
                                     factor=spec.factor, tucker=spec.tucker, seed=child)
        k = homogeneity_degree(ad)
        expected = (c ** k) * adapters.reconstruct(ad)
        got = adapters.reconstruct(adapters.scale_factors(ad, c))
        denom = max(float(np.max(np.abs(expected))), 1e-300)
        worst = max(worst, float(np.max(np.abs(got - expected))) / denom)
    return worst


def verify_merge_ratio(algorithm: str, s: float, optimizer: str = "sgd",
                       steps: int = 100, seed=0, eps: float = 0.0,
                       weight_decay: float = 0.0) -> float:
    """Max deviation between ratio-s training and its rescaled-ratio-1 twin.

    Run A trains with merge ratio s. Run B starts from the same factors
    scaled by s^(1/k) with ratio 1 and learning rate scaled by s^(c/k),
    where c is 2 for SGD and 1 for Adam/AdaGrad (with eps = 0). Returns the
    max over steps and layers of |s * delta_A - delta_B|, elementwise.
    Nonzero eps or weight_decay breaks the law; they serve as controls.
    """
    if s <= 0:
        raise ValueError(f"merge ratio must be positive, got {s}")
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    spec = HARNESS_ALGORITHMS[algorithm]
    ss = _seed_seq(seed).spawn(2)
    model_a = build_toy_model(algorithm, seed=ss[0], ratio=s)
    k = homogeneity_degree(model_a.layers[0].adapter)
    model_b = ToyModel([
        replace(l, adapter=adapters.scale_factors(
            replace(l.adapter, scale=MergeScale(alpha=float(l.adapter.scale.dim),
                                                dim=l.adapter.scale.dim)),
            s ** (1.0 / k)))
        for l in model_a.layers
    ])
    lr = BASE_LR[optimizer]
    c_exp = C_EXPONENT[optimizer]
    cfg_a = OptimizerConfig(optimizer, lr, eps=eps, weight_decay=weight_decay)
    cfg_b = OptimizerConfig(optimizer, lr * s ** (c_exp / k), eps=eps,
                            weight_decay=weight_decay)
    data = toy_dataset(spec.conv, seed=ss[1])
    trace_a = train(model_a, cfg_a, data, steps)
    trace_b = train(model_b, cfg_b, data, steps)
    worst = 0.0
    for das, dbs in zip(trace_a.deltas, trace_b.deltas):
        for da, db in zip(das, dbs):
            worst = max(worst, float(np.max(np.abs(s * da - db))))
    return worst


def gradient_check(algorithm: str, seed=0, step: float = 1e-30) -> dict[str, float]:
    """Complex-step check of every factor gradient.

    Each factor element in turn is shifted by i * step and the loss is taken
    once in complex128; Im L(x + i * step) / step is its derivative (Squire
    & Trapp 1998). No two losses are subtracted, so nothing cancels and the
    reference is exact to rounding for any small step. Returns the worst
    relative error |analytic - reference| / max(|reference|, |analytic|, 1e-8)
    per 'layer<i>.<role>' key. gamma is set away from 1 so the ratio chain
    rule is exercised too.
    """
    spec = HARNESS_ALGORITHMS[algorithm]
    model = build_toy_model(algorithm, seed=seed, ratio=1.3)
    x, y = toy_dataset(spec.conv, seed=seed, samples=4 if not spec.conv else 2)
    _, grads = loss_and_grads(model, x, y)
    worst: dict[str, float] = {}
    for li, layer in enumerate(model.layers):
        for role, param in layer.adapter.tensors().items():
            analytic = grads[li][role].reshape(-1)
            base = param.astype(np.complex128)
            err = 0.0
            for idx in range(param.size):
                probe = base.copy()
                probe.flat[idx] += 1j * step
                layer.adapter = replace(layer.adapter, **{role: probe})
                ref = model_loss(model, x, y).imag / step
                an = float(analytic[idx])
                denom = max(abs(ref), abs(an), 1e-8)
                err = max(err, abs(an - ref) / denom)
            layer.adapter = replace(layer.adapter, **{role: param})
            worst[f"layer{li}.{role}"] = err
    return worst
