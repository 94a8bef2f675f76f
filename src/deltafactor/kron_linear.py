"""Grouped evaluation of Kronecker-factored linear maps.

Applies (C kron W) to a vector without materializing the Kronecker
product, with the right block W either factored as B @ A
(grouped_forward) or whole (grouped_forward_full): the input is regrouped
into a (u_q, v_q) matrix, pushed through the right block's factors,
transposed across groups, pushed through C, and regrouped back. Leading
axes of the input are treated as batch axes. An optional MacCounter
tallies the multiply-adds of every product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import ShapeError, as_tensor

__all__ = ["MacCounter", "grouped_forward", "grouped_forward_full"]


@dataclass
class MacCounter:
    """Accumulates multiply-add counts for instrumented forward passes."""

    mults: int = 0

    def add_matmul(self, batch: int, m: int, k: int, n: int) -> None:
        self.mults += batch * m * k * n


def _batched_matmul(x: np.ndarray, w: np.ndarray, counter: MacCounter | None) -> np.ndarray:
    # x: (..., m, k), w: (k, n)
    if counter is not None:
        batch = int(np.prod(x.shape[:-2], dtype=np.int64)) if x.ndim > 2 else 1
        counter.add_matmul(batch, x.shape[-2], x.shape[-1], w.shape[1])
    return x @ w


def _grouped(cm: np.ndarray, rights: tuple, hm: np.ndarray,
             counter: MacCounter | None) -> np.ndarray:
    """(C kron W) applied to hm, with W.T the product of `rights` in order.

    rights is (a.T, b.T) for W = b @ a, or (w2.T,) for a whole W.
    """
    up, uq = cm.shape
    vq, vp = rights[0].shape[0], rights[-1].shape[1]
    if hm.ndim == 0:
        raise ShapeError("input must have at least one axis")
    if hm.shape[-1] != uq * vq:
        raise ShapeError(f"input extent {hm.shape[-1]} does not factor as {uq} * {vq}")
    h = hm.reshape(hm.shape[:-1] + (uq, vq))
    for w in rights:
        h = _batched_matmul(h, w, counter)  # ends at (..., uq, vp)
    hc = _batched_matmul(np.swapaxes(h, -1, -2), cm.T, counter)  # (..., vp, up)
    # (..., vp, up) -> (..., up*vp), interleaved as (up, vp)
    out = np.ascontiguousarray(np.swapaxes(hc, -1, -2))
    return out.reshape(out.shape[:-2] + (up * vp,))


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
    return _grouped(cm, (am.T, bm.T), hm, counter)


def grouped_forward_full(c, w2, h, counter: MacCounter | None = None) -> np.ndarray:
    """grouped_forward with an unfactored right block w2: (v_p, v_q)."""
    cm, wm = as_tensor(c, "c"), as_tensor(w2, "w2")
    hm = as_tensor(h, "input")
    if cm.ndim != 2 or wm.ndim != 2:
        raise ShapeError(
            f"factors must be matrices, got shapes {cm.shape} and {wm.shape}"
        )
    return _grouped(cm, (wm.T,), hm, counter)
