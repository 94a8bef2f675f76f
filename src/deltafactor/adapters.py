"""Factored weight-update adapters for linear and conv2d layers.

All three families compose one factor block B. A block is stored whole, or
at rank r as up @ down, down unrolled to (r, in*k*k) on conv layers. The
Tucker form stores down as an (r, r, k, k) core and an (r, in) factor,
folded into the unrolled down (_Block) everywhere but lora's conv chain.
The families are:

* lora = B: delta = up @ down, rank bounded by the inner extent r.
* loha = B1 * B2: delta = (up1 @ down1) * (up2 @ down2), an elementwise
  product of two rank-r branches whose result can reach rank r^2.
* lokr = C (x) B: delta = kron(c, right), with the right block either
  stored whole (w2) or itself a rank-r block.

Each family states its layout once, in a role table (_Family): its
roles, in .lwu payload order; the order a seeded draw takes them in; the
role init_adapter zeroes; and the shape of each role in each form. The
shape check, tensors(), the seeded draw and the file reader all follow
from it. lora and loha share one product of blocks (_BlockProduct) for the
dense delta, the gradients, the rank bound and the factored linear
forward; lokr keeps its Kronecker math. The dense delta and the gradients
also run on factors with a leading member axis (_stacked), which the
training harness uses to advance several runs at once; a stack's deltas
are formed whole, and row blocks take single layers only.

forward_linear applies every delta from its factors, never from the dense
delta; forward_conv runs lora as a chain of convolutions through its
factors and loha and lokr as one convolution with the delta kernel.

Adapters are immutable; every operation returns new arrays. The merge
ratio gamma = alpha / dim scales the delta wherever it is applied, but
never inside reconstruct().

A dense layer is formed one row block at a time, by _layer_rows, the one
statement of w0 + lam * gamma * delta: each family states rows lo:hi of
its unrolled delta (_rows; lora and loha multiply the rows of their
blocks, lokr takes the Kronecker rows of c and its right block), and each
block is scaled and added to while it is small enough to stay in cache.
reconstruct and merge gather the blocks into the array they return; the
adapter commands hand them to the weight-file writer, so no command holds
a float64 layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import kron_linear, tensor_core
from .tensor_core import (NumericalError, ShapeError, _as_real, _checked_int_seed, _checked_seed,
                          _is_count, _require_finite, as_tensor)

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
        if not _is_count(self.dim):
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError(f"alpha must be finite and non-negative, got {self.alpha}")

    @property
    def gamma(self) -> float:
        # in float64 whatever alpha's type, as the .lwu reader forms it
        return float(self.alpha) / self.dim


@dataclass(frozen=True)
class LayerShape:
    """Target layer geometry: linear (out, in) or conv2d (out, in, k), and its one maximal rank, max_rank."""

    kind: str
    out_dim: int
    in_dim: int
    kernel: int = 1

    def __post_init__(self):
        if self.kind not in ("linear", "conv2d"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if not all(_is_count(d) for d in (self.out_dim, self.in_dim, self.kernel)):
            raise ValueError(f"layer extents must be positive integers: {self}")
        if self.kind == "linear" and self.kernel != 1:
            raise ValueError("linear layers have no kernel extent")

    @classmethod
    def from_json(cls, kind, shape, where: str) -> LayerShape:
        """The layer of a JSON entry {"kind": kind, "shape": [out, in] or [out, in, k]}.

        This is the one reader of that form (manifests, .lwu headers). A
        shape that is not a list of positive integers, or one whose length
        does not fit kind, raises ValueError starting with `where`.
        """
        if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
            raise ValueError(f"{where} has invalid shape {shape!r}")
        if (kind, len(shape)) not in (("linear", 2), ("conv2d", 3)):
            raise ValueError(f"{where}: kind {kind!r} does not fit shape {shape!r}")
        return cls(kind, *shape)

    @property
    def json_shape(self) -> list[int]:
        """The "shape" of the JSON form that from_json reads."""
        extents = [self.out_dim, self.in_dim, self.kernel]
        return extents if self.kind == "conv2d" else extents[:2]

    @property
    def unrolled_in(self) -> int:
        """Input extent after unrolling kernel axes (in * k^2 for conv)."""
        if self.kind == "conv2d":
            return self.in_dim * self.kernel * self.kernel
        return self.in_dim

    @property
    def max_rank(self) -> int:
        """min(out, in*k*k): rank bounds, fits and the CLI read a delta's rank unrolled, from here."""
        return min(self.out_dim, self.unrolled_in)

    @property
    def delta_shape(self) -> tuple[int, ...]:
        if self.kind == "conv2d":
            return (self.out_dim, self.in_dim, self.kernel, self.kernel)
        return (self.out_dim, self.in_dim)


def _expect(cond: bool, message: str, *args) -> None:
    # the message is formatted only on failure: the checks run on every construction
    if not cond:
        raise InvariantError(message.format(*args))


@dataclass(frozen=True)
class _Block:
    """One factor block B on `geometry`, stored whole or at rank r.

    Whole: w2. Rank r: up @ D, D = unrolled_down() of shape (r, in*k*k),
    stored as down (kernel axes split off on conv layers) or, in the Tucker
    form, folded: down (r, in) and a core (r, r, k, k) that carries the
    kernel axes, D[s, (i, ab)] = sum_t core[s, t, ab] * down[t, i]. dense,
    rows and vjp run on D alone, vjp taking core's and down's gradients
    through the fold's adjoint; only LoraAdapter._convolve applies a core
    itself. shapes() states the stored layout; the field names are the roles.

    dense, rows (without out) and vjp also take factors with leading
    member axes, all with the same ones (the training harness's stacked
    runs): each member then runs its own matmuls, bit for bit as alone.
    """

    geometry: LayerShape
    up: np.ndarray | None = None
    down: np.ndarray | None = None
    core: np.ndarray | None = None
    w2: np.ndarray | None = None

    @staticmethod
    def shapes(geometry: LayerShape, r: int, tucker: bool, whole: bool) -> dict[str, tuple]:
        """Role -> shape of a block on geometry: whole, or at rank r, with a core if tucker."""
        if whole:
            return {"w2": geometry.delta_shape}
        k = geometry.kernel
        if tucker:
            return {"up": (geometry.out_dim, r), "down": (r, geometry.in_dim), "core": (r, r, k, k)}
        return {"up": (geometry.out_dim, r), "down": (r, *geometry.delta_shape[1:])}

    def unrolled_down(self) -> np.ndarray:
        """D, the (..., r, in*k*k) factor that up multiplies: down's view, or the Tucker fold."""
        if self.core is None:
            # a linear layer's down is unrolled already, a conv layer's unrolls to a view
            return self.down if self.geometry.kind == "linear" else self.down.reshape(*self.down.shape[:-3], -1)
        lead, r = self.up.shape[:-2], self.up.shape[-1]
        # one batched matmul: for each s, D[s] as (in, k*k) is down^T @ core[s]
        d3 = self.down.swapaxes(-1, -2)[..., None, :, :] @ self.core.reshape(*lead, r, r, -1)
        return d3.reshape(*lead, r, -1)

    def dense(self) -> np.ndarray:
        if self.w2 is not None:
            return self.w2
        delta = self.up @ self.unrolled_down()
        if self.geometry.kind == "linear":
            return delta
        return delta.reshape(*self.up.shape[:-2], *self.geometry.delta_shape)

    def rows(self, lo: int, hi: int, out=None, down=None) -> np.ndarray:
        """Rows lo:hi of dense() as (..., hi - lo, in*k*k), from down = unrolled_down() (made here if None).

        With out, a single layer's (out, in*k*k), they are formed in out's
        rows lo:hi and are a view of them.
        """
        down = self.unrolled_down() if down is None else down
        return np.matmul(self.up[..., lo:hi, :], down, out=_slot(out, lo, hi, hi - lo, -1))

    def vjp(self, g: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of the stored tensors given g = dL/dB."""
        if self.w2 is not None:
            return {"w2": g}
        lead, r = self.up.shape[:-2], self.up.shape[-1]
        g2 = g.reshape(*lead, self.geometry.out_dim, -1)
        g_up, g_down = g2 @ self.unrolled_down().swapaxes(-1, -2), self.up.swapaxes(-1, -2) @ g2
        if self.core is None:
            return {"up": g_up, "down": g_down.reshape(self.down.shape)}
        # the fold's adjoint, gD[s, i, ab] being D's gradient: dcore[s, t, ab] =
        # sum_i down[t, i] gD[s, i, ab], ddown[t, i] = sum_{s, ab} core[s, t, ab] gD[s, i, ab]
        g3 = g_down.reshape(*lead, r, self.geometry.in_dim, -1)
        core_t = self.core.reshape(*lead, r, r, -1).swapaxes(-3, -2).reshape(*lead, r, -1)
        g_in = g3.swapaxes(-3, -2).reshape(*lead, self.geometry.in_dim, -1)
        return {"up": g_up, "down": core_t @ g_in.swapaxes(-1, -2),
                "core": (self.down[..., None, :, :] @ g3).reshape(self.core.shape)}

    def rank_bound(self) -> int:
        bound = self.geometry.max_rank
        return bound if self.w2 is not None else min(self.up.shape[1], bound)


# values in one row block of a dense layer (_layer_rows): a float64 block
# of 512 KiB stays in a 2 MiB L2 cache while it is formed, scaled, added to
# and cast. Of 2^13 to 2^18, 2^16 gave the fastest adapter reconstruct and
# merge commands on 768- and 3072-wide layers (Xeon, 48 KiB L1d, 2 MiB L2)
_ROW_BLOCK = 2**16


def _slot(out, lo: int, hi: int, *shape: int):
    """Rows lo:hi of out, a single layer's (out, in*k*k), shaped shape; None without out.

    Splitting axes of a slice of rows is always a view, so what is written
    into the slot lands in out.
    """
    return None if out is None else out[lo:hi].reshape(shape)


def _row_blocks(n: int, step: int) -> list[tuple[int, int]]:
    """[lo, hi) bounds of step rows each over n rows, step >= 2.

    A lone last row joins the block before it: numpy computes a one-row
    product as a matrix-vector product, whose sums may round otherwise
    than the whole product's rows.
    """
    if step >= n:
        return [(0, n)]
    bounds = [*range(0, n, step), n]
    if n - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _layer_rows(adapter, lam: float | None = None, w0=None, out=None):
    """Consecutive row blocks of w0 + lam * gamma * delta, rows of the unrolled layer.

    This is the one statement of that sum: reconstruct, merge and the
    adapter commands take their values from it. lam None leaves the delta
    unscaled and w0 None adds nothing. The adapter is a single layer's,
    never a _stacked one. Each block holds about _ROW_BLOCK values,
    (rows, in*k*k), and comes from the family's _rows; a layer of at most
    _ROW_BLOCK values is one block. A block is a new array, or, given out
    (out, in*k*k), a view of out's rows that it was formed in. Nothing here
    holds a block once it is handed on.
    """
    layer = adapter.layer
    bounds = adapter._bounds(max(2, _ROW_BLOCK // layer.unrolled_in))
    rows_of, shared = adapter._rows, adapter._shared()
    scale = None if lam is None else lam * adapter.scale.gamma
    base = None if w0 is None else w0.reshape(layer.out_dim, -1)

    def block(bound):
        rows = rows_of(*bound, out, shared)
        if scale is not None:
            rows *= scale
        if base is not None:
            rows += base[bound[0]:bound[1]]
        return rows
    return map(block, bounds)


def _stacked(adapter, tensors: dict[str, np.ndarray]):
    """The adapter's family holding `tensors`, role -> factors with leading member axes.

    No check runs: the constructors refuse stacked factors, so the training
    harness builds its view of a stack here from adapters that passed them.
    Only _delta and _vjp take leading axes.
    """
    out = object.__new__(type(adapter))
    out.__dict__.update({f.name: getattr(adapter, f.name) for f in fields(adapter)}, **tensors)
    return out


class _Family:
    """The role table of a family, and what follows from it.

    A family states its layout once, as class attributes: ROLES, its array
    fields in declaration order (the order of tensors() and of .lwu
    payloads); DRAW_ORDER, the order a seeded draw takes them in; ZEROED,
    the roles init_adapter zeroes, the first that a form holds; and
    _shapes(layer, dim, factor, tucker, whole), role -> shape of a form
    (whole=None: the form a draw takes). The constructor coerces the arrays
    and _check_layout tests their shapes against _shapes of the form they
    hold (a core makes it Tucker, w2 whole); save_weights runs the same
    check on shapes alone. _build_adapter draws the roles of _shapes in
    DRAW_ORDER and hands them to the constructor.

    A family also states rows lo:hi of its unrolled delta once, in
    _rows(lo, hi, out, shared), where shared is what every row block of a
    layer reads (_shared, made once per layer) and _bounds picks the
    blocks; _layer_rows and _delta form the layer from them.
    """

    ROLES: tuple[str, ...]
    DRAW_ORDER: tuple[str, ...]
    ZEROED: tuple[str, ...]

    def __post_init__(self):
        # frozen dataclasses: coerce the arrays once, at construction
        tensors = self.tensors()
        for role, value in tensors.items():
            object.__setattr__(self, role, as_tensor(value, role))
        self._check_layout(self.layer, self.scale.dim, getattr(self, "factor", -1),
                           {role: getattr(self, role).shape for role in tensors})

    @classmethod
    def _check_layout(cls, layer, dim, factor, shapes: dict[str, tuple]) -> None:
        """Refuse a role -> shape map that is not a form of the family on layer.

        The constructor's check, on shapes alone: a core makes the form
        Tucker, w2 whole.
        """
        tucker = any(role.startswith("core") for role in shapes)
        _expect(not tucker or layer.kind == "conv2d", "Tucker core requires a conv2d layer")
        cls._check(layer, factor, shapes, cls._shapes(layer, dim, factor, tucker, "w2" in shapes))

    @staticmethod
    def _check(layer, factor, shapes: dict[str, tuple], want: dict[str, tuple]) -> None:
        # only a whole block leaves roles out of its form
        _expect(want.keys() >= shapes.keys(), "a whole block excludes factored fields")
        missing = [role for role in want if role not in shapes]
        _expect(not missing, "roles {} are missing alongside {}", missing, list(shapes))
        for role, shape in want.items():
            _expect(shapes[role] == shape, "{} shape {} != {}", role, shapes[role], shape)

    def tensors(self) -> dict[str, np.ndarray]:
        return {role: value for role in self.ROLES if (value := getattr(self, role)) is not None}

    @property
    def _lead(self) -> tuple[int, ...]:
        # the leading member axes of _stacked factors; ROLES[0] is a matrix
        return getattr(self, self.ROLES[0]).shape[:-2]

    def _bounds(self, step: int) -> list[tuple[int, int]]:
        # the [lo, hi) row blocks of _rows, step rows each
        return _row_blocks(self.layer.out_dim, step)

    def _delta(self, lam: float | None = None, w0=None) -> np.ndarray:
        """_layer_rows(self, lam, w0) formed in one new array of the layer's shape.

        Stacked factors (_stacked: tiny layers, no lam or w0) form one block.
        """
        lead, shape = self._lead, self.layer.delta_shape
        if lead or (lam is None and w0 is None and math.prod(shape) <= _ROW_BLOCK):
            # one block, a new array: the training harness's tiny deltas, same
            # bytes as the row-block loop below at half the time of a small reconstruct
            rows = self._rows(0, shape[0])
            return rows if self.layer.kind == "linear" else rows.reshape(*lead, *shape)
        delta = np.empty(shape, np.result_type(*self.tensors().values()))
        for _ in _layer_rows(self, lam, w0, out=delta.reshape(shape[0], -1)):
            pass  # each block is formed in delta's rows
        return delta

    def _convolve(self, image: np.ndarray) -> np.ndarray:
        # elementwise and Kronecker products do not commute with convolution;
        # the delta is built through reconstruct, the public step a trace reports
        return tensor_core.conv2d(reconstruct(self), image)


class _BlockProduct(_Family):
    """delta = B1 * ... * Bn, the elementwise product of rank-r blocks on the layer.

    Block i holds the roles up, down and core with SUFFIXES[i] appended.
    lora is the one-block case, loha the two-block one.
    """

    SUFFIXES: tuple[str, ...]

    @classmethod
    def _shapes(cls, layer, dim, factor, tucker, whole) -> dict[str, tuple]:
        block = _Block.shapes(layer, dim, tucker, whole=False)
        return {role + s: shape for s in cls.SUFFIXES for role, shape in block.items()}

    @cached_property
    def _blocks(self) -> tuple[_Block, ...]:
        return tuple(_Block(self.layer, getattr(self, "up" + s), getattr(self, "down" + s),
                            getattr(self, "core" + s)) for s in self.SUFFIXES)

    def _shared(self) -> tuple:
        # each block's unrolled_down() (a Tucker block's fold, see _Block), which all row blocks read
        return tuple(block.unrolled_down() for block in self._blocks)

    def _rows(self, lo: int, hi: int, out=None, shared=None) -> np.ndarray:
        # the other blocks' rows multiply into the last one's; shared: _shared()
        blocks = self._blocks
        rows = blocks[-1].rows(lo, hi, out, shared and shared[-1])
        for i in range(len(blocks) - 2, -1, -1):
            block_rows = blocks[i].rows(lo, hi, None, shared and shared[i])
            # in place, unless complex stacked factors promote a real product
            promote = block_rows.dtype.kind == "c" and rows.dtype.kind != "c"
            rows = np.multiply(block_rows, rows, out=None if promote else rows)
        return rows

    def _apply(self, cols: np.ndarray) -> np.ndarray:
        # face-splitting: (U1 V1 * U2 V2) x = (U1 (.)r U2)((V1 (.)r V2) x), where
        # the row-wise Khatri-Rao products pair each rank index s of one block
        # with each t of the next: columns of up, rows of down
        up, down = self._blocks[0].up, self._blocks[0].down
        for block in self._blocks[1:]:
            up = (up[:, :, None] * block.up[:, None, :]).reshape(self.layer.out_dim, -1)
            down = (down[:, None, :] * block.down[None, :, :]).reshape(up.shape[1], -1)
        return up @ (down @ cols)

    def _vjp(self, g: np.ndarray) -> dict[str, np.ndarray]:
        # d(B1 * ... * Bn) = sum_i dBi * (the product of the other blocks)
        out = {}
        for i, (block, suffix) in enumerate(zip(self._blocks, self.SUFFIXES)):
            g_i = g
            for other in self._blocks[:i] + self._blocks[i + 1:]:
                g_i = g_i * other.dense()
            out.update({role + suffix: grad for role, grad in block.vjp(g_i).items()})
        return out

    def _rank_bound(self) -> int:
        return min(math.prod(block.rank_bound() for block in self._blocks), self.layer.max_rank)


@dataclass(frozen=True)
class LoraAdapter(_BlockProduct):
    """lora = B: delta = up @ down (conv: unrolled, or Tucker with a (r, r, k, k) core)."""

    layer: LayerShape
    scale: MergeScale
    up: np.ndarray
    down: np.ndarray
    core: np.ndarray | None = None

    ROLES = ("up", "down", "core")
    DRAW_ORDER = ("up", "core", "down")
    ZEROED = ("up",)
    SUFFIXES = ("",)

    def _convolve(self, image: np.ndarray) -> np.ndarray:
        # k x k with down, then 1 x 1 with up; Tucker: 1 x 1, core k x k, 1 x 1
        r = self.up.shape[1]
        if self.core is None:
            mid = tensor_core.conv2d(self.down, image)
        else:
            mid = tensor_core.conv2d(self.down.reshape(r, -1, 1, 1), image)
            mid = tensor_core.conv2d(self.core, mid)
        return tensor_core.conv2d(self.up.reshape(-1, r, 1, 1), mid)


@dataclass(frozen=True)
class LohaAdapter(_BlockProduct):
    """loha = B1 * B2: delta = (up1 @ down1) * (up2 @ down2), branches as in LoraAdapter."""

    layer: LayerShape
    scale: MergeScale
    up1: np.ndarray
    down1: np.ndarray
    up2: np.ndarray
    down2: np.ndarray
    core1: np.ndarray | None = None
    core2: np.ndarray | None = None

    ROLES = ("up1", "down1", "up2", "down2", "core1", "core2")
    DRAW_ORDER = ("up1", "down1", "core1", "up2", "down2", "core2")
    ZEROED = ("down2",)
    SUFFIXES = ("1", "2")


@dataclass(frozen=True)
class LokrAdapter(_Family):
    """lokr = C (x) B: delta = kron(c, right block), channel extents split by lokr_factor_dims.

    c is (u_p, u_q) where out = u_p * v_p and in = u_q * v_q. The right block
    is a _Block on the (v_p, v_q) layer, kernel axes included, stored whole
    (w2) or at rank dim.
    """

    layer: LayerShape
    scale: MergeScale
    factor: int
    c: np.ndarray
    w2: np.ndarray | None = None
    up: np.ndarray | None = None
    down: np.ndarray | None = None
    core: np.ndarray | None = None

    ROLES = ("c", "w2", "up", "down", "core")
    DRAW_ORDER = ("c", "w2", "up", "core", "down")
    ZEROED = ("w2", "down")

    @staticmethod
    def _shapes(layer, dim, factor, tucker, whole) -> dict[str, tuple]:
        c_shape, right = _lokr_split(layer, factor)
        if whole is None:
            # a draw's form: whole from the right block's maximal rank on
            whole = not tucker and dim >= right.max_rank
        return {"c": c_shape, **_Block.shapes(right, dim, tucker, whole)}

    @staticmethod
    def _check(layer, factor, shapes: dict[str, tuple], want: dict[str, tuple]) -> None:
        # c first, so that a bad split is named as one
        c = shapes.get("c")
        _expect(c is not None and len(c) == 2 and math.prod(c) > 0,
                "c must be a non-empty matrix, got shape {}", c)
        u_p, u_q = c
        _expect(layer.out_dim % u_p == 0, "out extent {} not divisible by {}", layer.out_dim, u_p)
        _expect(layer.in_dim % u_q == 0, "in extent {} not divisible by {}", layer.in_dim, u_q)
        _expect(c == want["c"], "c shape {} != {}, the split at factor {}", c, want["c"], factor)
        _Family._check(layer, factor, shapes, want)

    @cached_property
    def _blocks(self) -> tuple[_Block, ...]:
        _, v_p, _, v_q = self.block_dims
        right = LayerShape(self.layer.kind, v_p, v_q, self.layer.kernel)
        return (_Block(right, self.up, self.down, self.core, self.w2),)

    @property
    def block_dims(self) -> tuple[int, int, int, int]:
        u_p, u_q = self.c.shape[-2:]
        return u_p, self.layer.out_dim // u_p, u_q, self.layer.in_dim // u_q

    def _bounds(self, step: int) -> list[tuple[int, int]]:
        # row (i, p) of the delta is c[i] (x) right[p]: each block is whole
        # groups of v_p rows (one row of c each), or a piece of one group
        u_p, v_p, _, _ = self.block_dims
        if step >= v_p:
            return _row_blocks(self.layer.out_dim, step - step % v_p)
        return [(i * v_p + lo, i * v_p + hi) for i in range(u_p) for lo, hi in _row_blocks(v_p, step)]

    def _shared(self) -> np.ndarray:
        # the right block's dense array, one row per p: (..., v_p, v_q*k*k)
        right = self._blocks[0]
        return right.dense().reshape(*self.c.shape[:-2], right.geometry.out_dim, -1)

    def _rows(self, lo: int, hi: int, out=None, shared=None) -> np.ndarray:
        # kron(c, right) as np.kron forms it, one product per entry: row
        # (i, p) of the delta is c[i] (x) right[p], and rows lo:hi, a block
        # of _bounds, are the rectangle i0 <= i <= i1, p0 <= p <= p1
        right = self._shared() if shared is None else shared
        v_p = right.shape[-2]
        (i0, p0), (i1, p1) = divmod(lo, v_p), divmod(hi - 1, v_p)
        rows = np.multiply(self.c[..., i0:i1 + 1, None, :, None], right[..., None, p0:p1 + 1, None, :],
                           out=_slot(out, lo, hi, i1 - i0 + 1, p1 - p0 + 1, self.c.shape[-1], -1))
        return rows.reshape(*self.c.shape[:-2], hi - lo, -1)

    def _apply(self, cols: np.ndarray) -> np.ndarray:
        # kron_linear takes a batch as rows: the columns go in as cols.T
        if self.w2 is not None:
            return kron_linear.grouped_forward_full(self.c, self.w2, cols.T).T
        return kron_linear.grouped_forward(self.c, self.up, self.down, cols.T).T

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
        return min(min(u_p, u_q) * self._blocks[0].rank_bound(), self.layer.max_rank)


Adapter = LoraAdapter | LohaAdapter | LokrAdapter
_FAMILIES = dict(zip(ALGORITHMS, (LoraAdapter, LohaAdapter, LokrAdapter)))


def _family(algorithm: str, roles) -> type:
    cls = _FAMILIES[algorithm]
    _expect(set(roles) <= set(cls.ROLES), "roles {} do not form a {} adapter", sorted(roles), algorithm)
    return cls


def _from_tensors(algorithm: str, layer: LayerShape, scale: MergeScale, factor: int,
                  tensors: dict[str, np.ndarray]) -> Adapter:
    """Adapter of a family, built by its constructor, from the role -> tensor map that tensors() gives."""
    cls = _family(algorithm, tensors)
    return cls(layer=layer, scale=scale, **({"factor": factor} if cls is LokrAdapter else {}),
               **{role: tensors.get(role) for role in cls.ROLES})


def _check_layout(algorithm: str, layer: LayerShape, dim: int, factor: int,
                  shapes: dict[str, tuple]) -> None:
    """Refuse, as _from_tensors would, a role -> shape map that forms no adapter; builds nothing."""
    _family(algorithm, shapes)._check_layout(layer, dim, factor, shapes)


@dataclass(frozen=True)
class ModelMeta:
    """Shared hyperparameters for a whole adapter model."""

    algorithm: str
    dim: int
    alpha: float
    factor: int = -1
    seed: int = 0


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
    if not _is_count(v):
        raise ValueError(f"extent must be a positive integer, got {v!r}")
    if factor != -1 and not _is_count(factor):
        raise ValueError(f"factor must be -1 or a positive integer, got {factor!r}")
    bound = math.isqrt(v) if factor == -1 else min(factor, math.isqrt(v))
    # bound >= 1, and 1 divides every extent
    return next((u, v // u) for u in range(bound, 0, -1) if v % u == 0)


def _lokr_split(layer: LayerShape, factor: int) -> tuple[tuple[int, int], LayerShape]:
    """(c shape (u_p, u_q), right block layer (v_p, v_q, k)) of lokr on layer, by lokr_factor_dims."""
    u_p, v_p = lokr_factor_dims(layer.out_dim, factor)
    u_q, v_q = lokr_factor_dims(layer.in_dim, factor)
    return (u_p, u_q), LayerShape(layer.kind, v_p, v_q, layer.kernel)


def reconstruct(adapter: Adapter) -> np.ndarray:
    """Materialize the dense weight delta (gamma is NOT applied).

    The result is a new array that the caller owns and may scale in place.
    It is formed one row block at a time (_layer_rows), so besides the
    result it takes one block of about _ROW_BLOCK values.
    """
    return adapter._delta()


def _check_base(layer: LayerShape, w0, bias) -> tuple[np.ndarray, np.ndarray]:
    """w0 as real float64 and bias checked by as_tensor, once both have the layer's shapes.

    The product that reads w0 checks its values.
    """
    w0m, bv = _as_real(w0, "base weight"), as_tensor(bias, "bias")
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
    delta. bias and x are checked here, once, and every shape before any
    product. w0 is checked block by block as the product reads it: each
    block of about _ROW_BLOCK values is checked while it is still in cache
    and then multiplied into its rows of y, so w0 is read from memory once.
    """
    shp = adapter.layer
    if shp.kind != "linear":
        raise ShapeError(f"forward_linear needs a linear layer, got {shp.kind}")
    w0m, bv = _check_base(shp, w0, bias)
    xm = as_tensor(x, "input")
    if xm.ndim not in (1, 2) or xm.shape[-1] != shp.in_dim:
        raise ShapeError(f"input shape {xm.shape} != ({shp.in_dim},) or (n, {shp.in_dim})")
    cols = xm.T
    y = np.empty((shp.out_dim, *cols.shape[1:]))
    # a multiple of 16 rows per block keeps the BLAS matrix-vector kernel's
    # row groups (4 rows in OpenBLAS) where they fall in the whole product,
    # so one input's sums round as they would over the whole of w0
    step = max(16, _ROW_BLOCK // shp.in_dim // 16 * 16)
    for lo, hi in _row_blocks(shp.out_dim, step):
        block = w0m[lo:hi]
        if not np.isfinite(block).all():
            # the whole-array check names the first bad flat index
            _require_finite(w0m, "base weight")
        np.matmul(block, cols, out=y[lo:hi])
    y += bv if xm.ndim == 1 else bv[:, None]
    y += adapter.scale.gamma * adapter._apply(cols)
    return y.T


def forward_conv(adapter: Adapter, k0, bias, x) -> np.ndarray:
    """Conv layer forward with the adapter applied in factored form.

    x is one image (in, H, W), giving (out, H-k+1, W-k+1), or a batch
    (n, in, H, W), giving (n, out, H-k+1, W-k+1): valid cross-correlation,
    stride 1, each convolution one GEMM in tensor_core.conv2d. LoRA runs as
    a chain of convolutions (k x k with `down`, then 1 x 1 with `up`; the
    Tucker form as 1 x 1, core k x k, 1 x 1). LoHa and LoKr build the delta
    kernel from their factors and apply it in one pass, since elementwise
    and Kronecker structure do not commute with convolution. bias and every
    shape are checked before any product, k0's and x's values once each, by conv2d.
    """
    shp = adapter.layer
    if shp.kind != "conv2d":
        raise ShapeError(f"forward_conv needs a conv2d layer, got {shp.kind}")
    k0m, bv = _check_base(shp, k0, bias)
    xm = _as_real(x, "input")
    return tensor_core.conv2d(k0m, xm) + bv[:, None, None] + adapter.scale.gamma * adapter._convolve(xm)


def merge(adapter: Adapter, w0_new, lam: float = 1.0) -> np.ndarray:
    """w0_new + lam * gamma * delta; shapes must agree with the layer.

    Each row block of the delta is scaled and added to as it is formed
    (_layer_rows), so a merge holds the result and one row block besides
    w0_new, which it leaves as it was.
    """
    wm = as_tensor(w0_new, "weight")
    if not math.isfinite(lam):
        raise ValueError(f"merge weight must be finite, got {lam}")
    if wm.shape != adapter.layer.delta_shape:
        raise ShapeError(f"weight shape {wm.shape} != layer shape {adapter.layer.delta_shape}")
    return adapter._delta(lam, wm)


def param_count(adapter: Adapter) -> int:
    """Number of stored scalars across all factor tensors."""
    return int(sum(t.size for t in adapter.tensors().values()))


def max_rank_bound(adapter: Adapter) -> int:
    """Upper bound on the rank of the (unrolled) reconstructed delta."""
    return adapter._rank_bound()


def _build_adapter(algorithm, layer, dim, alpha, factor, tucker, seed, zero_init):
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    scale = MergeScale(alpha=alpha, dim=dim)
    rng = np.random.default_rng(_checked_seed(seed))
    std = 1.0 / math.sqrt(dim)
    cls = _FAMILIES[algorithm]
    shapes = cls._shapes(layer, dim, factor, tucker, whole=None)
    tensors = {role: rng.normal(0.0, std, size=shapes[role])
               for role in cls.DRAW_ORDER if role in shapes}
    if zero_init:
        # zeroed after it is drawn, so the later draws do not move
        zeroed = next(role for role in cls.ZEROED if role in tensors)
        tensors[zeroed] = np.zeros_like(tensors[zeroed])
    return _from_tensors(algorithm, layer, scale, factor, tensors)


def init_adapter(algorithm: str, layer: LayerShape, dim: int, alpha: float,
                 factor: int = -1, tucker: bool = False, seed=0) -> Adapter:
    """Fresh adapter with reconstruct() == 0.

    Exactly one factor, the family's ZEROED (lora: up; loha: down2; lokr: w2,
    else down), starts at zero; every other is drawn i.i.d. Gaussian with
    mean 0 and std 1/sqrt(dim) from the given seed, in DRAW_ORDER.
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


# The sketch holds r + _OVERSAMPLE columns and runs on a Gram side of at
# least 8 times that. Below it the whole eigh takes under 1 ms (one BLAS
# thread), which leaves the sketch little to save, while the fixed cost of
# a refused sketch, about 50 us, is 5-20 % of it.
_OVERSAMPLE = 8


def _sketch_top(thin: np.ndarray, r: int) -> np.ndarray | None:
    """Top-r eigenvectors of G = thin.T @ thin if G's rank is below k = r + _OVERSAMPLE, else None.

    A randomized range finder (Halko, Martinsson & Tropp 2011) with an
    a-posteriori test in rounding units, n being G's side:
    - The sketch Y = thin @ omega, omega an (n, k) Gaussian from a constant
      seed, costs one pass over thin. If Y's k columns are independent,
      lambda_min(Y^T Y) > n * eps * trace(Y^T Y), G has rank k or more:
      None, with nothing more spent.
    - Else Q, Y's orthonormal basis, and C = Q^T thin split G exactly as
      C^T C + E^T E with E = thin - Q C, and trace(E^T E) is
      trace(G) - |C|_F^2. If that exceeds n * eps * trace(G): None.
    - Else G is within n * eps * trace(G) of C^T C, no more than the
      rounding of forming G, and C's top-r right singular vectors are
      returned.
    How far below rank k rounded deltas pass the second test is measured
    in _fit_block's docstring.
    """
    n = thin.shape[1]
    eps = np.finfo(np.float64).eps
    sketch = thin @ np.random.default_rng(0).standard_normal((n, r + _OVERSAMPLE))
    cross = sketch.T @ sketch
    if np.linalg.eigvalsh(cross)[0] > n * eps * np.trace(cross):
        return None
    small = np.linalg.qr(sketch)[0].T @ thin
    # trace(G) - |C|_F^2 cancels down to trace(E^T E), so both are summed
    # pairwise, to about log2(count) * eps * trace(G); a dot product's
    # rounding can reach n * eps * trace(G)
    flat = thin.ravel("K")
    total = math.fsum(np.square(flat[lo:lo + _ROW_BLOCK]).sum() for lo in range(0, flat.size, _ROW_BLOCK))
    if total - np.square(small).sum() > n * eps * total:
        return None
    return np.linalg.svd(small, full_matrices=False)[2][:r].T


def _fit_block(geometry: LayerShape, dense: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Best rank-dim (up, down) of a block on `geometry`: the one rank-r solve of the fits.

    The block is fitted unrolled, A = (out, in*k*k) as _Block.dense lays it
    out. down has orthonormal rows V_r^T, shaped as _Block stores it, and
    up = A @ V_r (U_r diag(S_r) of the truncated SVD). No step divides by a
    singular value, so dim at or above the rank of A fits exactly.

    The solve runs on A / m, m the power of two with m <= max |a_ij| < 2m
    (1 for a zero A): the scaling is exact, and the Gram matrix G on A's
    shorter side n stays inside the float range for any finite A. The top
    dim eigenvectors of G, descending, are V_r when A is tall or square
    (G = A^T A / m^2); when A is wide they are U_r (G = A A^T / m^2), and
    V_r is the orthonormal basis of A^T U_r. A zero A takes the first dim
    unit vectors.
    - On n >= 8 (dim + _OVERSAMPLE), _sketch_top comes first and solves A
      of rank below dim + 8, such as an adapter's own delta, without
      forming G. Rounding noise can still refuse rank dim + 7. Measured on
      float32-rounded products of Gaussian factors (768x768, 3072x768,
      320x2880; dim 1, 2, 4, 8; 5 seeds each): all 60 deltas of rank
      dim + 6 took the sketch (its trace test at most 0.72 of its
      threshold); of rank dim + 7, 4 of 60 were refused (at worst 1.46
      times the threshold, 3072x768 at dim 8) and fell back to eigh.
    - Otherwise, and for every A the sketch refuses, G is formed and
      np.linalg.eigh solves it whole. A failed solve raises NumericalError.
    Either way the vectors are exact for a Gram matrix within the rounding
    of forming G, about max(p, q) * eps * trace(G): singular values below
    sqrt(eps) * sigma_1 are not resolved, and the top-dim subspace is found
    to an angle of about eps * sigma_1^2 / (sigma_r^2 - sigma_{r+1}^2).
    """
    a = dense.reshape(geometry.out_dim, -1)
    peak = float(np.max(np.abs(a)))
    m = math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak else 1.0
    scaled = a / m
    # G = thin.T @ thin, however A is laid out
    thin = scaled if a.shape[0] >= a.shape[1] else scaled.T
    vectors = None if peak else np.eye(thin.shape[1], dim)
    try:
        if vectors is None and thin.shape[1] >= 8 * (dim + _OVERSAMPLE):
            vectors = _sketch_top(thin, dim)
        if vectors is None:
            vectors = np.linalg.eigh(thin.T @ thin)[1][:, ::-1][:, :dim]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from None
    if thin is not scaled:
        vectors = np.linalg.qr(scaled.T @ vectors)[0]
    up = m * (scaled @ vectors)
    down = np.ascontiguousarray(vectors.T).reshape(dim, *geometry.delta_shape[1:])
    return up, down


def svd_fit_lora(delta, dim: int) -> LoraAdapter:
    """Best rank-dim fit of a dense delta: the truncated SVD's, without a full SVD.

    Accepts a (p, q) matrix or an (out, in, k, k) kernel stack (fitted on its
    unrolled form). Factors are up = U_r diag(S_r), down = V_r^T, from
    _fit_block, whose docstring states the solver and its accuracy; alpha
    is set to dim so gamma == 1 and merge() reproduces the fit directly.
    """
    dm = as_tensor(delta, "delta")
    layer = _fit_geometry(dm)
    if not (_is_count(dim) and dim <= layer.max_rank):
        raise ValueError(f"dim {dim!r} out of range [1, {layer.max_rank}] for shape {dm.shape}")
    up, down = _fit_block(layer, dm, dim)
    return LoraAdapter(layer, MergeScale(alpha=float(dim), dim=dim), up, down)


def _nkp_rearrange(dm: np.ndarray, u_p: int, v_p: int, u_q: int, v_q: int,
                   lead: tuple[int, ...] = ()) -> np.ndarray:
    # permute delta entries so kron(c, right) becomes the rank-1 outer
    # product vec(c) @ vec(right).T; kernel axes, if any, ride on the right
    blocks = dm.reshape(*lead, u_p, v_p, u_q, v_q, -1).swapaxes(-4, -3)
    return blocks.reshape(*lead, u_p * u_q, -1)


def nkp_fit_lokr(delta, factor: int = -1, dim: int | None = None) -> LokrAdapter:
    """Nearest Kronecker-product fit of a dense delta.

    Rearranges the delta to R = _nkp_rearrange(delta), so the best
    kron(c, right) pair is R's leading rank-1 term, the rank-1 fit of R^T
    by _fit_block (whose docstring states the solver and its accuracy):
    c is its down, the top left singular vector of R, and the right block
    its up, R^T c. R^T is tall or square, so the sketch solves a delta that
    is a sum of fewer than 9 Kronecker products with u_p*u_q >= 72. c comes
    out with unit Frobenius norm and its first nonzero entry positive (e_0
    for a zero delta); the right block absorbs the magnitude. With dim
    below the right block's maximal rank, the block is further truncated to
    up @ down as svd_fit_lora truncates. A dim that is neither None nor a
    positive integer is refused before any solve.
    """
    if dim is not None and not _is_count(dim):
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    dm = as_tensor(delta, "delta")
    layer = _fit_geometry(dm)
    (u_p, u_q), right = _lokr_split(layer, factor)
    grid = _nkp_rearrange(dm, u_p, right.out_dim, u_q, right.in_dim)
    right_vec, c = _fit_block(LayerShape("linear", *grid.T.shape), grid.T, 1)
    nonzero = np.flatnonzero(c)
    if nonzero.size and c[0, nonzero[0]] < 0:
        # negation is exact, so the pair keeps its product
        right_vec, c = -right_vec, -c
    c = c.reshape(u_p, u_q)
    if dim is None:
        dim = right.max_rank
    scale = MergeScale(alpha=float(dim), dim=dim)
    if dim >= right.max_rank:
        return LokrAdapter(layer, scale, factor, c, w2=right_vec.reshape(right.delta_shape))
    up, down = _fit_block(right, right_vec, dim)
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
    # the model seed goes into the .lwu header, which stores an integer
    children = np.random.SeedSequence(_checked_int_seed(seed)).spawn(len(named))
    built: dict[str, Adapter] = {}
    for (name, layer), child in zip(named, children):
        use_tucker = tucker and layer.kind == "conv2d"
        built[name] = init_adapter(algorithm, layer, dim, alpha, factor, use_tucker, seed=child)
    meta = ModelMeta(algorithm=algorithm, dim=dim, alpha=alpha, factor=factor, seed=seed)
    return AdapterModel(meta=meta, entries=built)
