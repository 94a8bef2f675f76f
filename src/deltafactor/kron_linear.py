"""Grouped evaluation of Kronecker-factored linear maps.

Applies (C kron B A) to a vector without materializing the Kronecker
product: the input is regrouped into a (u_q, v_q) matrix, pushed through the
small factors, transposed across groups, pushed through C, and regrouped
back. Leading axes of the input are treated as batch axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import ShapeError, as_tensor

__all__ = ["MacCounter", "grouped_forward", "grouped_forward_full", "dense_forward"]


@dataclass
class MacCounter:
    """Accumulates multiply-add counts for instrumented forward passes."""

    mults: int = 0

    def add_matmul(self, batch: int, m: int, k: int, n: int) -> None:
        self.mults += batch * m * k * n

    def add_elementwise(self, count: int) -> None:
        self.mults += count


def _batched_matmul(x: np.ndarray, w: np.ndarray, counter: MacCounter | None) -> np.ndarray:
    # x: (..., m, k), w: (k, n)
    if counter is not None:
        batch = int(np.prod(x.shape[:-2], dtype=np.int64)) if x.ndim > 2 else 1
        counter.add_matmul(batch, x.shape[-2], x.shape[-1], w.shape[1])
    return x @ w


def _split_groups(h: np.ndarray, uq: int, vq: int) -> np.ndarray:
    if h.ndim < 1:
        raise ShapeError("input must have at least one axis")
    if h.shape[-1] != uq * vq:
        raise ShapeError(
            f"input extent {h.shape[-1]} does not factor as {uq} * {vq}"
        )
    return h.reshape(h.shape[:-1] + (uq, vq))


def _merge_groups(hc: np.ndarray, up: int, vp: int) -> np.ndarray:
    # hc: (..., vp, up) -> (..., up*vp), interleaved as (up, vp)
    out = np.swapaxes(hc, -1, -2)
    return np.ascontiguousarray(out).reshape(out.shape[:-2] + (up * vp,))


def grouped_forward(c, b, a, h, counter: MacCounter | None = None) -> np.ndarray:
    """Apply (C kron (B @ A)) to h via grouped small products.

    c: (u_p, u_q), b: (v_p, r), a: (r, v_q); h has last extent u_q * v_q and
    arbitrary leading batch axes. Returns an array with last extent
    u_p * v_p.
    """
    cm, bm, am = as_tensor(c, "c"), as_tensor(b, "b"), as_tensor(a, "a")
    hm = as_tensor(h, "input")
    for name, mat in (("c", cm), ("b", bm), ("a", am)):
        if mat.ndim != 2:
            raise ShapeError(f"factor {name} must be a matrix, got shape {mat.shape}")
    if bm.shape[1] != am.shape[0]:
        raise ShapeError(f"inner extents differ: b {bm.shape} vs a {am.shape}")
    up, uq = cm.shape
    vp = bm.shape[0]
    vq = am.shape[1]
    hg = _split_groups(hm, uq, vq)            # (..., uq, vq)
    ha = _batched_matmul(hg, am.T, counter)   # (..., uq, r)
    hb = _batched_matmul(ha, bm.T, counter)   # (..., uq, vp)
    hx = np.swapaxes(hb, -1, -2)              # (..., vp, uq)
    hc = _batched_matmul(hx, cm.T, counter)   # (..., vp, up)
    return _merge_groups(hc, up, vp)


def grouped_forward_full(c, w2, h, counter: MacCounter | None = None) -> np.ndarray:
    """grouped_forward with an unfactored right block w2: (v_p, v_q)."""
    cm, wm = as_tensor(c, "c"), as_tensor(w2, "w2")
    hm = as_tensor(h, "input")
    if cm.ndim != 2 or wm.ndim != 2:
        raise ShapeError(
            f"factors must be matrices, got shapes {cm.shape} and {wm.shape}"
        )
    up, uq = cm.shape
    vp, vq = wm.shape
    hg = _split_groups(hm, uq, vq)
    hw = _batched_matmul(hg, wm.T, counter)   # (..., uq, vp)
    hx = np.swapaxes(hw, -1, -2)
    hc = _batched_matmul(hx, cm.T, counter)
    return _merge_groups(hc, up, vp)


def dense_forward(c, b, a, h, counter: MacCounter | None = None) -> np.ndarray:
    """Reference path: materializes kron(C, B @ A) and applies it directly."""
    cm, bm, am = as_tensor(c, "c"), as_tensor(b, "b"), as_tensor(a, "a")
    hm = as_tensor(h, "input")
    m = _batched_matmul(bm, am, counter)
    full = np.kron(cm, m)
    if counter is not None:
        counter.add_elementwise(full.size)    # one multiply per Kronecker entry
    batch = hm.reshape((-1, hm.shape[-1])) if hm.ndim > 1 else hm.reshape(1, -1)
    if batch.shape[-1] != full.shape[1]:
        raise ShapeError(
            f"input extent {hm.shape[-1]} does not match operator {full.shape}"
        )
    out = _batched_matmul(batch, full.T, counter)
    return out.reshape(hm.shape[:-1] + (full.shape[0],))
