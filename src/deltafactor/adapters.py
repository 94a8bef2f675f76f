"""Factored weight-update adapters for linear and conv2d layers.

All three families compose one factor block B. A block is stored whole, or
at rank r as up @ down; on conv layers the product takes down unrolled to
(r, in*k*k), or, in the Tucker form, a small (r, r, k, k) core carries the
kernel axes between channel factors on both sides. The families are:

* lora = B: delta = up @ down, rank bounded by the inner extent r.
* loha = B1 * B2: delta = (up1 @ down1) * (up2 @ down2), an elementwise
  product of two rank-r branches whose result can reach rank r^2.
* lokr = C (x) B: delta = kron(c, right), with the right block either
  stored whole (w2) or itself a rank-r block.

Each family states its composition once, in its class: the shape check,
the dense delta, the delta applied to a batch of inputs, the gradients of
its factors, its rank bound and its seeded draw. The dense delta and the
gradients also run on factors with a leading member axis (_stacked), which
the training harness uses to advance several runs at once.

forward_linear runs every family in one column form: an input (or a batch
of n) is the columns of x.T, and y = w0 @ cols + bias + gamma * delta @ cols
with delta @ cols taken from the factors, never from the dense delta (lora:
up @ (down @ cols); loha: the rank-r^2 face-splitting form; lokr: the
grouped Kronecker product of kron_linear). forward_conv convolves an image
(or a batch) with the base kernel and with each family's delta: lora as a
chain of convolutions through its factors, loha and lokr as one convolution
with the delta kernel, since elementwise and Kronecker structure do not
commute with convolution.

Adapters are immutable; every operation returns new arrays. The merge
ratio gamma = alpha / dim scales the delta wherever it is applied, but
never inside reconstruct().
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import kron_linear, tensor_core
from .tensor_core import ShapeError, as_tensor

__all__ = [
    "ALGORITHMS",
    "InvariantError",
    "MergeScale",
    "LayerShape",
    "LoraAdapter",
    "LohaAdapter",
    "LokrAdapter",
    "ModelMeta",
    "AdapterModel",
    "lokr_factor_dims",
    "lokr_is_full",
    "init_adapter",
    "random_adapter",
    "scale_factors",
    "reconstruct",
    "forward_linear",
    "forward_conv",
    "merge",
    "param_count",
    "max_rank_bound",
    "svd_fit_lora",
    "nkp_fit_lokr",
    "init_model",
]

ALGORITHMS = ("lora", "loha", "lokr")


class InvariantError(ValueError):
    """An adapter's stored tensors are inconsistent with its layer shape."""


@dataclass(frozen=True)
class MergeScale:
    """Merge ratio bookkeeping: gamma = alpha / dim."""

    alpha: float
    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError(f"alpha must be finite and non-negative, got {self.alpha}")

    @property
    def gamma(self) -> float:
        return self.alpha / self.dim


@dataclass(frozen=True)
class LayerShape:
    """Target layer geometry: linear (out, in) or conv2d (out, in, k)."""

    kind: str
    out_dim: int
    in_dim: int
    kernel: int = 1

    def __post_init__(self):
        if self.kind not in ("linear", "conv2d"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if any(isinstance(d, bool) or d < 1 for d in (self.out_dim, self.in_dim, self.kernel)):
            raise ValueError(f"layer extents must be positive integers: {self}")
        if self.kind == "linear" and self.kernel != 1:
            raise ValueError("linear layers have no kernel extent")

    @property
    def unrolled_in(self) -> int:
        """Input extent after unrolling kernel axes (in * k^2 for conv)."""
        if self.kind == "conv2d":
            return self.in_dim * self.kernel * self.kernel
        return self.in_dim

    @property
    def delta_shape(self) -> tuple[int, ...]:
        if self.kind == "conv2d":
            return (self.out_dim, self.in_dim, self.kernel, self.kernel)
        return (self.out_dim, self.in_dim)


def _store(obj, **arrays) -> None:
    # frozen dataclasses: coerce tensor fields once, at construction
    for name, value in arrays.items():
        object.__setattr__(obj, name, as_tensor(value, name) if value is not None else None)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise InvariantError(message)


@dataclass(frozen=True)
class _Block:
    """One factor block B on `geometry`, stored whole or at rank r.

    Whole: w2, shaped geometry.delta_shape. Rank r: up (out, r) times down,
    with down (r, in) on linear layers and (r, in, k, k) on conv ones, taken
    unrolled; the Tucker form keeps down at (r, in) and moves the kernel
    axes to a core (r, r, k, k). The field names are the role names.

    dense and vjp also take factors with leading member axes, all with the
    same ones (the training harness's stacked runs): each member then runs
    its own matmuls, bit for bit as alone.
    """

    geometry: LayerShape
    up: np.ndarray | None = None
    down: np.ndarray | None = None
    core: np.ndarray | None = None
    w2: np.ndarray | None = None

    def check(self, r: int) -> None:
        shp, k = self.geometry, self.geometry.kernel
        if self.w2 is not None:
            _expect(self.up is None and self.down is None and self.core is None,
                    "a whole block excludes factored fields")
            _expect(self.w2.shape == shp.delta_shape,
                    f"w2 shape {self.w2.shape} != {shp.delta_shape}")
            return
        _expect(self.up is not None and self.down is not None,
                "a factored block requires up and down")
        _expect(self.up.shape == (shp.out_dim, r), f"up shape {self.up.shape} != ({shp.out_dim}, {r})")
        if self.core is None:
            want = (r, *shp.delta_shape[1:])
        else:
            _expect(shp.kind == "conv2d", "Tucker core requires a conv2d layer")
            _expect(self.core.shape == (r, r, k, k),
                    f"core shape {self.core.shape} != ({r}, {r}, {k}, {k})")
            want = (r, shp.in_dim)
        _expect(self.down.shape == want, f"down shape {self.down.shape} != {want}")

    def tensors(self) -> dict[str, np.ndarray]:
        roles = {"up": self.up, "down": self.down, "core": self.core, "w2": self.w2}
        return {role: value for role, value in roles.items() if value is not None}

    def dense(self) -> np.ndarray:
        if self.w2 is not None:
            return self.w2
        lead, r = self.up.shape[:-2], self.up.shape[-1]
        if self.core is not None:
            # B[o, i, ab] = sum_t down[t, i] (up @ core)[o, t, ab]: one matmul per mode
            down_t = self.down.swapaxes(-1, -2)[..., None, :, :]
            return np.matmul(down_t, self._up_core()).reshape(*lead, *self.geometry.delta_shape)
        if self.geometry.kind == "linear":
            # the product itself, not a reshaped view of it: numpy reuses the
            # buffer of a temporary operand (loha's B1 * B2, merge's scaling)
            # only when that operand owns its data
            return self.up @ self.down
        flat = self.up @ self.down.reshape(*lead, r, -1)
        return flat.reshape(*lead, *self.geometry.delta_shape)

    def vjp(self, g: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of the stored tensors given g = dL/dB."""
        if self.w2 is not None:
            return {"w2": g}
        lead, r = self.up.shape[:-2], self.up.shape[-1]
        out_c, up_t = self.geometry.out_dim, self.up.swapaxes(-1, -2)
        if self.core is not None:
            # B[o,i,ab] = sum_{s,t} core[s,t,ab] * up[o,s] * down[t,i]; with
            # gd[o,t,ab] = sum_i down[t,i] g[o,i,ab] and uc = up @ core as in dense
            g3 = g.reshape(*lead, out_c, self.geometry.in_dim, -1)
            gd = np.matmul(self.down[..., None, :, :], g3).reshape(*lead, out_c, -1)
            uc = self._up_core().swapaxes(-3, -2).reshape(*lead, r, -1)
            return {
                "up": gd @ self.core.reshape(*lead, r, -1).swapaxes(-1, -2),
                "down": uc @ g3.swapaxes(-1, -2).reshape(*lead, -1, g3.shape[-2]),
                "core": (up_t @ gd).reshape(self.core.shape),
            }
        g2 = g.reshape(*lead, out_c, -1)
        d2 = self.down.reshape(*lead, r, -1)
        return {"up": g2 @ d2.swapaxes(-1, -2), "down": (up_t @ g2).reshape(self.down.shape)}

    def _up_core(self) -> np.ndarray:
        # (up @ core)[o, t, ab] = sum_s up[o, s] * core[s, t, ab], shaped (out, r, k*k)
        lead, r = self.up.shape[:-2], self.up.shape[-1]
        uc = self.up @ self.core.reshape(*lead, r, -1)
        return uc.reshape(*lead, self.geometry.out_dim, r, -1)

    def rank_bound(self) -> int:
        bound = min(self.geometry.out_dim, self.geometry.unrolled_in)
        return bound if self.w2 is not None else min(self.up.shape[1], bound)

    @classmethod
    def draw(cls, geometry: LayerShape, r: int, normal, tucker: bool = False,
             whole: bool = False, core_last: bool = False) -> _Block:
        """B drawn by normal(shape) as up, then core and down (down, core if core_last)."""
        shp, k = geometry, geometry.kernel
        if whole:
            return cls(shp, w2=normal(shp.delta_shape))
        if not tucker:
            return cls(shp, normal((shp.out_dim, r)), normal((r, *shp.delta_shape[1:])))
        if core_last:
            return cls(shp, normal((shp.out_dim, r)), normal((r, shp.in_dim)),
                       normal((r, r, k, k)))
        up, core = normal((shp.out_dim, r)), normal((r, r, k, k))
        return cls(shp, up, normal((r, shp.in_dim)), core)


def _check_blocks(adapter) -> None:
    # check the factor blocks once, at construction
    for block in adapter._blocks:
        block.check(adapter.scale.dim)


def _stacked(adapter, tensors: dict[str, np.ndarray]):
    """The adapter's family holding `tensors`, role -> factors with leading member axes.

    No check runs: the constructors refuse stacked factors, so the training
    harness builds its view of a stack here from adapters that passed them.
    Only _delta and _vjp take leading axes.
    """
    out = object.__new__(type(adapter))
    out.__dict__.update({f.name: getattr(adapter, f.name) for f in fields(adapter)}, **tensors)
    return out


@dataclass(frozen=True)
class LoraAdapter:
    """lora = B: delta = up @ down (conv: unrolled, or Tucker with a (r, r, k, k) core).

    Shapes: up (out, r); down (r, in) for linear and Tucker forms,
    (r, in, k, k) for the plain conv form; core (r, r, k, k) or None.
    """

    layer: LayerShape
    scale: MergeScale
    up: np.ndarray
    down: np.ndarray
    core: np.ndarray | None = None

    def __post_init__(self):
        _store(self, up=self.up, down=self.down, core=self.core)
        _check_blocks(self)

    @cached_property
    def _blocks(self) -> tuple[_Block, ...]:
        return (_Block(self.layer, self.up, self.down, self.core),)

    def tensors(self) -> dict[str, np.ndarray]:
        return self._blocks[0].tensors()

    def _delta(self) -> np.ndarray:
        return self._blocks[0].dense()

    def _apply(self, cols: np.ndarray) -> np.ndarray:
        return self.up @ (self.down @ cols)

    def _convolve(self, image: np.ndarray) -> np.ndarray:
        # k x k with down, then 1 x 1 with up; Tucker: 1 x 1, core k x k, 1 x 1
        r = self.up.shape[1]
        if self.core is None:
            mid = tensor_core.conv2d(self.down, image)
        else:
            mid = tensor_core.conv2d(self.down.reshape(r, -1, 1, 1), image)
            mid = tensor_core.conv2d(self.core, mid)
        return tensor_core.conv2d(self.up.reshape(-1, r, 1, 1), mid)

    def _vjp(self, g: np.ndarray) -> dict[str, np.ndarray]:
        return self._blocks[0].vjp(g)

    def _rank_bound(self) -> int:
        return self._blocks[0].rank_bound()

    @classmethod
    def _draw(cls, layer, scale, factor, tucker, normal, zero_init) -> LoraAdapter:
        # zero_init zeroes up after drawing it, so the later draws do not move
        b = _Block.draw(layer, scale.dim, normal, tucker)
        return cls(layer, scale, np.zeros_like(b.up) if zero_init else b.up, b.down, b.core)


@dataclass(frozen=True)
class LohaAdapter:
    """loha = B1 * B2: delta = (up1 @ down1) * (up2 @ down2), branches as in LoraAdapter."""

    layer: LayerShape
    scale: MergeScale
    up1: np.ndarray
    down1: np.ndarray
    up2: np.ndarray
    down2: np.ndarray
    core1: np.ndarray | None = None
    core2: np.ndarray | None = None

    def __post_init__(self):
        _store(
            self, up1=self.up1, down1=self.down1, up2=self.up2, down2=self.down2,
            core1=self.core1, core2=self.core2,
        )
        _expect(
            (self.core1 is None) == (self.core2 is None),
            "Tucker cores must be present on both branches or neither",
        )
        _check_blocks(self)

    @cached_property
    def _blocks(self) -> tuple[_Block, ...]:
        return (_Block(self.layer, self.up1, self.down1, self.core1),
                _Block(self.layer, self.up2, self.down2, self.core2))

    def tensors(self) -> dict[str, np.ndarray]:
        out = {"up1": self.up1, "down1": self.down1, "up2": self.up2, "down2": self.down2}
        if self.core1 is not None:
            out["core1"] = self.core1
            out["core2"] = self.core2
        return out

    def _delta(self) -> np.ndarray:
        b1, b2 = self._blocks
        return b1.dense() * b2.dense()

    def _apply(self, cols: np.ndarray) -> np.ndarray:
        # face-splitting: (U1 V1 * U2 V2) x = (U1 (.)r U2)((V1 (.)r V2) x), where
        # the row-wise Khatri-Rao products pair each rank index s of branch 1
        # with each t of branch 2: columns of up, rows of down
        up = (self.up1[:, :, None] * self.up2[:, None, :]).reshape(self.layer.out_dim, -1)
        down = (self.down1[:, None, :] * self.down2[None, :, :]).reshape(up.shape[1], -1)
        return up @ (down @ cols)

    def _convolve(self, image: np.ndarray) -> np.ndarray:
        # the Hadamard product does not commute with convolution; the delta
        # is built through reconstruct, the public step a trace reports
        return tensor_core.conv2d(reconstruct(self), image)

    def _vjp(self, g: np.ndarray) -> dict[str, np.ndarray]:
        # d(B1 * B2) = dB1 * B2 + B1 * dB2
        b1, b2 = self._blocks
        d1, d2 = b1.dense(), b2.dense()
        return {f"{role}{i}": grad for i, grads in ((1, b1.vjp(g * d2)), (2, b2.vjp(g * d1)))
                for role, grad in grads.items()}

    def _rank_bound(self) -> int:
        b1, b2 = self._blocks
        return min(b1.rank_bound() * b2.rank_bound(), self.layer.out_dim, self.layer.unrolled_in)

    @classmethod
    def _draw(cls, layer, scale, factor, tucker, normal, zero_init) -> LohaAdapter:
        # each branch draws its Tucker core last
        b1 = _Block.draw(layer, scale.dim, normal, tucker, core_last=True)
        b2 = _Block.draw(layer, scale.dim, normal, tucker, core_last=True)
        down2 = np.zeros_like(b2.down) if zero_init else b2.down
        return cls(layer, scale, b1.up, b1.down, b2.up, down2, b1.core, b2.core)


@dataclass(frozen=True)
class LokrAdapter:
    """lokr = C (x) B: delta = kron(c, right block), channel extents split by lokr_factor_dims.

    c is (u_p, u_q) where out = u_p * v_p and in = u_q * v_q. The right block
    is either stored whole (w2: (v_p, v_q) or (v_p, v_q, k, k)) or factored
    as up (v_p, r) @ down ((r, v_q) or (r, v_q, k, k)); the Tucker form adds
    a (r, r, k, k) core with down (r, v_q). Kernel axes always ride on the
    right block.
    """

    layer: LayerShape
    scale: MergeScale
    factor: int
    c: np.ndarray
    w2: np.ndarray | None = None
    up: np.ndarray | None = None
    down: np.ndarray | None = None
    core: np.ndarray | None = None

    def __post_init__(self):
        _store(self, c=self.c, w2=self.w2, up=self.up, down=self.down, core=self.core)
        shp = self.layer
        _expect(self.c is not None and self.c.ndim == 2 and self.c.size > 0,
                f"c must be a non-empty matrix, got shape {getattr(self.c, 'shape', None)}")
        u_p, u_q = self.c.shape
        _expect(shp.out_dim % u_p == 0, f"out extent {shp.out_dim} not divisible by {u_p}")
        _expect(shp.in_dim % u_q == 0, f"in extent {shp.in_dim} not divisible by {u_q}")
        want = (lokr_factor_dims(shp.out_dim, self.factor)[0],
                lokr_factor_dims(shp.in_dim, self.factor)[0])
        _expect(self.c.shape == want, f"c shape {self.c.shape} != {want}, the split at factor {self.factor}")
        _check_blocks(self)

    @cached_property
    def _blocks(self) -> tuple[_Block, ...]:
        _, v_p, _, v_q = self.block_dims
        right = LayerShape(self.layer.kind, v_p, v_q, self.layer.kernel)
        return (_Block(right, self.up, self.down, self.core, self.w2),)

    @property
    def block_dims(self) -> tuple[int, int, int, int]:
        u_p, u_q = self.c.shape[-2:]
        return u_p, self.layer.out_dim // u_p, u_q, self.layer.in_dim // u_q

    def tensors(self) -> dict[str, np.ndarray]:
        return {"c": self.c, **self._blocks[0].tensors()}

    def _delta(self) -> np.ndarray:
        # kron(c, right) as np.kron forms it, one product per entry, over any
        # leading member axes
        u_p, v_p, u_q, _ = self.block_dims
        lead = self.c.shape[:-2]
        right = self._blocks[0].dense().reshape(*lead, 1, v_p, 1, -1)
        flat = (self.c[..., :, None, :, None] * right).reshape(*lead, u_p * v_p, -1)
        return flat if self.layer.kind == "linear" else flat.reshape(*lead, *self.layer.delta_shape)

    def _apply(self, cols: np.ndarray) -> np.ndarray:
        # kron_linear takes a batch as rows: the columns go in as cols.T
        if self.w2 is not None:
            return kron_linear.grouped_forward_full(self.c, self.w2, cols.T).T
        return kron_linear.grouped_forward(self.c, self.up, self.down, cols.T).T

    def _convolve(self, image: np.ndarray) -> np.ndarray:
        # the Kronecker product does not commute with convolution; the delta
        # is built through reconstruct, the public step a trace reports
        return tensor_core.conv2d(reconstruct(self), image)

    def _vjp(self, g: np.ndarray) -> dict[str, np.ndarray]:
        # delta[(i,p), (j,q), ...] = c[i,j] * B[p,q,...]: rearranged, g is
        # G[(i,j), (p,q,...)], so dc = G @ vec(B) and dB = vec(c) @ G
        right, lead = self._blocks[0], self.c.shape[:-2]
        grid = _nkp_rearrange(g, *self.block_dims, lead=lead)
        c_row = self.c.reshape(*lead, 1, -1)
        out = right.vjp((c_row @ grid).reshape(*lead, *right.geometry.delta_shape))
        b_col = right.dense().reshape(*lead, -1, 1)
        out["c"] = (grid @ b_col).reshape(self.c.shape)
        return out

    def _rank_bound(self) -> int:
        u_p, _, u_q, _ = self.block_dims
        return min(min(u_p, u_q) * self._blocks[0].rank_bound(),
                   self.layer.out_dim, self.layer.unrolled_in)

    @classmethod
    def _draw(cls, layer, scale, factor, tucker, normal, zero_init) -> LokrAdapter:
        u_p, v_p = lokr_factor_dims(layer.out_dim, factor)
        u_q, v_q = lokr_factor_dims(layer.in_dim, factor)
        c = normal((u_p, u_q))
        b = _Block.draw(LayerShape(layer.kind, v_p, v_q, layer.kernel), scale.dim, normal,
                        tucker, whole=not tucker and lokr_is_full(layer, scale.dim, factor))
        if zero_init:
            role = "w2" if b.w2 is not None else "down"
            b = replace(b, **{role: np.zeros_like(getattr(b, role))})
        return cls(layer, scale, factor, c, b.w2, b.up, b.down, b.core)


Adapter = LoraAdapter | LohaAdapter | LokrAdapter
_FAMILIES = dict(zip(ALGORITHMS, (LoraAdapter, LohaAdapter, LokrAdapter)))


def _from_tensors(algorithm: str, layer: LayerShape, scale: MergeScale, factor: int,
                  tensors: dict[str, np.ndarray]) -> Adapter:
    """Adapter of a family from the role -> tensor map that tensors() gives."""
    cls = _FAMILIES[algorithm]
    roles = {f.name for f in fields(cls)} - {"layer", "scale", "factor"}
    _expect(set(tensors) <= roles, f"roles {sorted(tensors)} do not form a {algorithm} adapter")
    args = {role: tensors.get(role) for role in roles}
    if cls is LokrAdapter:
        args["factor"] = factor
    return cls(layer, scale, **args)


@dataclass(frozen=True)
class ModelMeta:
    """Shared hyperparameters for a whole adapter model."""

    algorithm: str
    dim: int
    alpha: float
    factor: int = -1
    seed: int = 0
    format_version: int = 1


@dataclass
class AdapterModel:
    """Named layer -> adapter map with shared metadata."""

    meta: ModelMeta
    entries: dict[str, Adapter]


def lokr_factor_dims(v: int, factor: int = -1) -> tuple[int, int]:
    """Split extent v into (u, v // u) with u its largest divisor <= min(factor, sqrt(v)).

    factor == -1 lifts the user bound, leaving only the sqrt(v) cap, so the
    split is as close to square as the divisors of v allow. The second
    element is always the larger one.
    """
    if v < 1:
        raise ValueError(f"extent must be positive, got {v}")
    if factor == 0 or factor < -1:
        raise ValueError(f"factor must be -1 or a positive integer, got {factor}")
    bound = math.isqrt(v) if factor == -1 else min(factor, math.isqrt(v))
    for u in range(max(bound, 1), 0, -1):
        if v % u == 0:
            return u, v // u
    raise AssertionError("unreachable: 1 divides every extent")


def lokr_is_full(layer: LayerShape, dim: int, factor: int = -1) -> bool:
    """Whether a lokr adapter stores its right block whole at this dim.

    The right block is left unfactored when dim reaches the block's own
    maximal rank min(v_p, v_q * k^2); smaller dims factor it as up @ down.
    """
    _, v_p = lokr_factor_dims(layer.out_dim, factor)
    _, v_q = lokr_factor_dims(layer.in_dim, factor)
    return dim >= min(v_p, v_q * layer.kernel * layer.kernel)


def reconstruct(adapter: Adapter) -> np.ndarray:
    """Materialize the dense weight delta (gamma is NOT applied)."""
    return adapter._delta()


def _check_base(layer: LayerShape, w0, bias) -> tuple[np.ndarray, np.ndarray]:
    w0m, bv = as_tensor(w0, "base weight"), as_tensor(bias, "bias")
    if w0m.shape != layer.delta_shape:
        what = "weight" if layer.kind == "linear" else "kernel"
        raise ShapeError(f"base {what} shape {w0m.shape} != {layer.delta_shape}")
    if bv.shape != (layer.out_dim,):
        raise ShapeError(f"bias shape {bv.shape} != ({layer.out_dim},)")
    return w0m, bv


def forward_linear(adapter: Adapter, w0, bias, x) -> np.ndarray:
    """y = w0 @ x + bias + gamma * delta @ x, the delta applied in factored form.

    x is one input (in,), giving (out,), or a batch (n, in), giving (n, out);
    the batch runs as the n columns of x.T. lora applies up @ (down @ x),
    loha the face-splitting form (U1 (.)r U2)((V1 (.)r V2) x) of rank r^2,
    lokr the grouped Kronecker product of kron_linear; none builds the dense
    delta. w0, bias and x are checked here, once.
    """
    shp = adapter.layer
    if shp.kind != "linear":
        raise ShapeError(f"forward_linear needs a linear layer, got {shp.kind}")
    w0m, bv = _check_base(shp, w0, bias)
    xm = as_tensor(x, "input")
    if xm.ndim not in (1, 2) or xm.shape[-1] != shp.in_dim:
        raise ShapeError(f"input shape {xm.shape} != ({shp.in_dim},) or (n, {shp.in_dim})")
    cols = xm.T
    b = bv if xm.ndim == 1 else bv[:, None]
    return (w0m @ cols + b + adapter.scale.gamma * adapter._apply(cols)).T


def forward_conv(adapter: Adapter, k0, bias, x) -> np.ndarray:
    """Conv layer forward with the adapter applied in factored form.

    x is one image (in, H, W), giving (out, H-k+1, W-k+1), or a batch
    (n, in, H, W), giving (n, out, H-k+1, W-k+1): valid cross-correlation,
    stride 1, each convolution one GEMM in tensor_core.conv2d. LoRA runs as
    a chain of convolutions (k x k with `down`, then 1 x 1 with `up`; the
    Tucker form as 1 x 1, core k x k, 1 x 1). LoHa and LoKr build the delta
    kernel from their factors and apply it in one pass, since elementwise
    and Kronecker structure do not commute with convolution.
    """
    shp = adapter.layer
    if shp.kind != "conv2d":
        raise ShapeError(f"forward_conv needs a conv2d layer, got {shp.kind}")
    k0m, bv = _check_base(shp, k0, bias)
    xm = as_tensor(x, "input")
    base = tensor_core.conv2d(k0m, xm)
    return base + bv[:, None, None] + adapter.scale.gamma * adapter._convolve(xm)


def merge(adapter: Adapter, w0_new, lam: float = 1.0) -> np.ndarray:
    """w0_new + lam * gamma * delta; shapes must agree with the layer."""
    wm = as_tensor(w0_new, "weight")
    if not math.isfinite(lam):
        raise ValueError(f"merge weight must be finite, got {lam}")
    if wm.shape != adapter.layer.delta_shape:
        raise ShapeError(f"weight shape {wm.shape} != layer shape {adapter.layer.delta_shape}")
    return wm + (lam * adapter.scale.gamma) * reconstruct(adapter)


def param_count(adapter: Adapter) -> int:
    """Number of stored scalars across all factor tensors."""
    return int(sum(t.size for t in adapter.tensors().values()))


def max_rank_bound(adapter: Adapter) -> int:
    """Upper bound on the rank of the (unrolled) reconstructed delta."""
    return adapter._rank_bound()


def _build_adapter(algorithm, layer, dim, alpha, factor, tucker, seed, zero_init):
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    if tucker and layer.kind != "conv2d":
        raise ValueError("Tucker form is only defined for conv2d layers")
    scale = MergeScale(alpha=alpha, dim=dim)
    rng = np.random.default_rng(seed)
    std = 1.0 / math.sqrt(dim)

    def normal(shape):
        return rng.normal(0.0, std, size=shape)

    return _FAMILIES[algorithm]._draw(layer, scale, factor, tucker, normal, zero_init)


def init_adapter(algorithm: str, layer: LayerShape, dim: int, alpha: float,
                 factor: int = -1, tucker: bool = False, seed=0) -> Adapter:
    """Fresh adapter with reconstruct() == 0.

    Exactly one factor starts at zero (lora: up; loha: down2; lokr: down, or
    w2 when the right block is unfactored); every other factor is drawn
    i.i.d. Gaussian with mean 0 and std 1/sqrt(dim) from the given seed.
    """
    return _build_adapter(algorithm, layer, dim, alpha, factor, tucker, seed, zero_init=True)


def random_adapter(algorithm: str, layer: LayerShape, dim: int, alpha: float,
                   factor: int = -1, tucker: bool = False, seed=0) -> Adapter:
    """Adapter with every factor drawn Gaussian (no zeroed factor).

    Not the production init: reconstruct() is generically nonzero. Used by
    the optimizer harness and tests, which need all factors live.
    """
    return _build_adapter(algorithm, layer, dim, alpha, factor, tucker, seed, zero_init=False)


def scale_factors(adapter: Adapter, c: float) -> Adapter:
    """Copy of the adapter with every stored factor tensor multiplied by c."""
    if not math.isfinite(c):
        raise ValueError(f"scale must be finite, got {c}")
    return replace(adapter, **{name: c * value for name, value in adapter.tensors().items()})


def _fit_geometry(dm: np.ndarray) -> LayerShape:
    """The layer of a dense delta: a (p, q) matrix or an (out, in, k, k) kernel stack."""
    if dm.ndim == 2:
        return LayerShape("linear", dm.shape[0], dm.shape[1])
    if dm.ndim == 4:
        if dm.shape[2] != dm.shape[3]:
            raise ShapeError(f"kernel must be square, got shape {dm.shape}")
        return LayerShape("conv2d", dm.shape[0], dm.shape[1], dm.shape[2])
    raise ShapeError(f"delta must have rank 2 or 4, got shape {dm.shape}")


def _svd_block(geometry: LayerShape, dense: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Best rank-dim (up, down) of a block on `geometry`, by truncated SVD.

    The block is fitted unrolled, (out, in*k*k) as _Block.dense lays it out;
    up = U_r diag(S_r) and down = V_r^T, shaped as _Block stores it.
    """
    u, s, v = tensor_core.svd(dense.reshape(geometry.out_dim, -1))
    up = u[:, :dim] * s[:dim]
    down = np.ascontiguousarray(v[:, :dim].T).reshape(dim, *geometry.delta_shape[1:])
    return up, down


def svd_fit_lora(delta, dim: int) -> LoraAdapter:
    """Best rank-dim fit of a dense delta, by truncated SVD.

    Accepts a (p, q) matrix or an (out, in, k, k) kernel stack (fitted on its
    unrolled form). Factors are up = U_r diag(S_r), down = V_r^T; alpha is
    set to dim so gamma == 1 and merge() reproduces the fit directly.
    """
    dm = as_tensor(delta, "delta")
    layer = _fit_geometry(dm)
    full = min(layer.out_dim, layer.unrolled_in)
    if not 1 <= dim <= full:
        raise ValueError(f"dim {dim} out of range [1, {full}] for shape {dm.shape}")
    up, down = _svd_block(layer, dm, dim)
    return LoraAdapter(layer, MergeScale(alpha=float(dim), dim=dim), up, down)


def _nkp_rearrange(dm: np.ndarray, u_p: int, v_p: int, u_q: int, v_q: int,
                   lead: tuple[int, ...] = ()) -> np.ndarray:
    # permute delta entries so kron(c, right) becomes the rank-1 outer
    # product vec(c) @ vec(right).T; kernel axes, if any, ride on the right
    blocks = dm.reshape(*lead, u_p, v_p, u_q, v_q, -1).swapaxes(-4, -3)
    return blocks.reshape(*lead, u_p * u_q, -1)


def nkp_fit_lokr(delta, factor: int = -1, dim: int | None = None) -> LokrAdapter:
    """Nearest Kronecker-product fit of a dense delta.

    Rearranges the delta so the best kron(c, right) pair is the leading
    rank-1 term of an SVD. c comes out with unit Frobenius norm and its
    first nonzero entry positive; the right block absorbs the magnitude.
    With dim below the right block's maximal rank, the block is further
    truncated to up @ down by an inner SVD.
    """
    dm = as_tensor(delta, "delta")
    layer = _fit_geometry(dm)
    u_p, v_p = lokr_factor_dims(layer.out_dim, factor)
    u_q, v_q = lokr_factor_dims(layer.in_dim, factor)
    right = LayerShape(layer.kind, v_p, v_q, layer.kernel)
    u, s, v = tensor_core.svd(_nkp_rearrange(dm, u_p, v_p, u_q, v_q))
    c_vec = u[:, 0].copy()
    right_vec = s[0] * v[:, 0]
    nonzero = np.flatnonzero(c_vec)
    if nonzero.size and c_vec[nonzero[0]] < 0:
        c_vec, right_vec = -c_vec, -right_vec
    c = c_vec.reshape(u_p, u_q)
    block_rank = min(right.out_dim, right.unrolled_in)
    if dim is None:
        dim = block_rank
    scale = MergeScale(alpha=float(dim), dim=dim)
    if dim >= block_rank:
        return LokrAdapter(layer, scale, factor, c, w2=right_vec.reshape(right.delta_shape))
    up, down = _svd_block(right, right_vec, dim)
    return LokrAdapter(layer, scale, factor, c, up=up, down=down)


def init_model(entries, algorithm: str, dim: int, alpha: float, factor: int = -1,
               tucker: bool = False, seed: int = 0) -> AdapterModel:
    """Zero-initialized adapters for a list of (name, LayerShape) entries.

    Per-layer seeds are spawned deterministically from the model seed. The
    tucker flag applies to conv2d layers; linear layers always use the plain
    form.
    """
    named = list(entries)
    names = [name for name, _ in named]
    if len(set(names)) != len(names):
        raise ValueError("layer names must be unique")
    children = np.random.SeedSequence(seed).spawn(len(named))
    built: dict[str, Adapter] = {}
    for (name, layer), child in zip(named, children):
        use_tucker = tucker and layer.kind == "conv2d"
        built[name] = init_adapter(algorithm, layer, dim, alpha, factor, use_tucker, seed=child)
    meta = ModelMeta(algorithm=algorithm, dim=dim, alpha=alpha, factor=factor, seed=seed)
    return AdapterModel(meta=meta, entries=built)
