"""Dense tensor primitives: convolution and its adjoints, decompositions.

Row-major (C) memory order is the convention for every vectorization,
unrolling, and regrouping operation in this package. The public functions
take real input only: they accept array-likes, validate them to contiguous
float64 (as_tensor; complex input raises ComplexInputError), and return
numpy arrays; inputs are never mutated.

There is one convolution kernel, _conv_cols of the _im2col columns, on
arrays its caller has checked; its two adjoints reuse the columns, and
conv2d is its checked entry. The private kernel and its adjoints take
arrays as they are, complex ones included (the training harness's
complex-step gradient check runs on them), and a leading member axis on
the kernel (and the image), for the harness's stacked runs.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "ShapeError",
    "NumericalError",
    "ComplexInputError",
    "SYM_EIG_MAX_SIZE",
    "as_tensor",
    "conv2d",
    "svd",
    "numerical_rank",
    "sym_eig",
]

# eigensolver guard; desk-scale inputs only
SYM_EIG_MAX_SIZE = 4096


class ShapeError(ValueError):
    """Input extents do not satisfy an operation's preconditions."""


class NumericalError(ValueError):
    """A decomposition failed to converge or produced invalid output."""


class ComplexInputError(ValueError):
    """Complex input reached an operation defined for real input only."""


def as_tensor(data, name: str = "tensor") -> np.ndarray:
    """Coerce to a C-contiguous float64 array, rejecting NaN/Inf elements.

    Complex input raises ComplexInputError naming the argument: the public
    operations are defined on real input, and casting would drop the
    imaginary part.
    """
    arr = np.asarray(data)
    if arr.dtype.kind == "c":
        raise ComplexInputError(f"{name} is complex; this operation takes real input only")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite elements")
    return arr


def _require_rank(arr: np.ndarray, rank: int, name: str) -> None:
    if arr.ndim != rank:
        raise ShapeError(f"{name} must have rank {rank}, got shape {arr.shape}")


def _im2col(image: np.ndarray, k: int, scratch: dict | None = None,
            name: str = "cols") -> np.ndarray:
    """Columns (*lead, in*k*k, n, h, w) of every k x k window of (*lead, n, in, H, W).

    Rows run row-major over (in, k, k), as kernel.reshape(out, -1) lays out
    a kernel. The columns are written to _buffer(scratch, name, ...).
    """
    *lead, n, c, height, width = image.shape
    *lead_s, s_n, s_c, s_h, s_w = image.strides
    h, w = height - k + 1, width - k + 1
    # the windows as a read-only view, axes already in column order
    windows = as_strided(image, (*lead, c, k, k, n, h, w),
                         (*lead_s, s_c, s_h, s_w, s_n, s_h, s_w), writeable=False)
    cols = _buffer(scratch, name, (*lead, c * k * k, n, h, w), image.dtype)
    cols.reshape(windows.shape)[...] = windows
    return cols


def _buffer(scratch: dict | None, name: str, shape: tuple, dtype, new=np.empty) -> np.ndarray:
    """scratch[name] when it has this shape and dtype, else new(shape, dtype), kept there.

    A caller that repeats a call on arrays of one shape (the steps of a
    training run) passes the same scratch dict each time, so the call
    writes to memory it already holds: a freshly allocated buffer of a few
    hundred kilobytes page-faults on every call. With scratch None every
    call allocates.
    """
    buf = None if scratch is None else scratch.get(name)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = new(shape, dtype)
        if scratch is not None:
            scratch[name] = buf
    return buf


def _conv_cols(kernel: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The convolution (*lead, n, out, h, w) of a kernel with _im2col columns: one GEMM per member."""
    y = kernel.reshape(*kernel.shape[:-3], -1) @ cols.reshape(*cols.shape[:-3], -1)
    return y.reshape(*y.shape[:-1], *cols.shape[-3:]).swapaxes(-4, -3)


def _conv2d_weight_grad(dy: np.ndarray, cols: np.ndarray, k: int) -> np.ndarray:
    """dL/dkernel of the convolution from dy = dL/dy and the forward's columns: one GEMM per member."""
    if dy.ndim == 3:
        dy = dy[None]
    dy_rows = dy.swapaxes(-4, -3).reshape(*dy.shape[:-4], dy.shape[-3], -1)
    grad = dy_rows @ cols.reshape(*cols.shape[:-3], -1).swapaxes(-1, -2)
    return grad.reshape(*grad.shape[:-1], -1, k, k)


def _conv2d_input_grad(kernel: np.ndarray, dy: np.ndarray, scratch: dict | None = None) -> np.ndarray:
    """dL/dimage of the convolution: the flipped, channel-swapped kernel over dy padded by k-1.

    The padded dy and its columns are built in _buffer(scratch, ...); only
    the interior of the padded buffer is ever written, so its border stays 0.
    """
    if dy.ndim == 3:
        return _conv2d_input_grad(kernel, dy[None], scratch)[0]
    p = kernel.shape[-1] - 1
    h, w = dy.shape[-2:]
    padded = _buffer(scratch, "padded", (*dy.shape[:-2], h + 2 * p, w + 2 * p),
                     np.result_type(kernel, dy), np.zeros)
    padded[..., p:p + h, p:p + w] = dy
    cols = _im2col(padded, p + 1, scratch, "padded_cols")
    return _conv_cols(kernel[..., ::-1, ::-1].swapaxes(-4, -3), cols)


def conv2d(kernel, image) -> np.ndarray:
    """Valid 2-D cross-correlation, stride 1, no padding.

    kernel: (out, in, k, k); image: (in, H, W) -> (out, H-k+1, W-k+1), or a
    batch (n, in, H, W) -> (n, out, H-k+1, W-k+1). Runs as one GEMM of the
    unrolled kernel (out, in*k*k) with the image's im2col columns
    (in*k*k, n*h*w).
    """
    km, xm = as_tensor(kernel, "kernel"), as_tensor(image, "image")
    _require_rank(km, 4, "kernel stack")
    if xm.ndim not in (3, 4):
        raise ShapeError(f"image must be (in, H, W) or (n, in, H, W), got shape {xm.shape}")
    if km.shape[2] != km.shape[3]:
        raise ShapeError(f"kernel must be square, got shape {km.shape}")
    k = km.shape[2]
    if km.shape[1] != xm.shape[-3]:
        raise ShapeError(
            f"kernel input channels {km.shape} do not match image channels {xm.shape}"
        )
    if xm.shape[-2] < k or xm.shape[-1] < k:
        raise ShapeError(f"image {xm.shape} smaller than kernel window {k}x{k}")
    y = _conv_cols(km, _im2col(xm.reshape(-1, *xm.shape[-3:]), k))
    return y if xm.ndim == 4 else y[0]


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition.

    Returns (U, S, V) with A == U @ diag(S) @ V.T, singular values sorted
    descending, and orthonormal columns in U and V. Convergence failures of
    the underlying iteration are reported as NumericalError.
    """
    am = as_tensor(a, "matrix")
    _require_rank(am, 2, "matrix")
    try:
        u, s, vh = np.linalg.svd(am, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from None
    return u, s, np.ascontiguousarray(vh.T)


def numerical_rank(a) -> int:
    """Count singular values above 1e-10 times the largest one."""
    _, s, _ = svd(a)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > 1e-10 * s[0]))


def sym_eig(k) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending.

    The input must be square, no larger than SYM_EIG_MAX_SIZE, and symmetric
    within 1e-10 (relative to its largest magnitude entry). Complex input
    raises ComplexInputError: the symmetry test and the solver are real.
    """
    km = as_tensor(k, "matrix")
    _require_rank(km, 2, "matrix")
    if km.shape[0] != km.shape[1]:
        raise ShapeError(f"matrix must be square, got shape {km.shape}")
    n = km.shape[0]
    if n > SYM_EIG_MAX_SIZE:
        raise ShapeError(f"matrix size {n} exceeds eigensolver cap {SYM_EIG_MAX_SIZE}")
    scale = max(1.0, float(np.max(np.abs(km)))) if km.size else 1.0
    if float(np.max(np.abs(km - km.T))) > 1e-10 * scale:
        raise ShapeError("matrix is not symmetric within tolerance 1e-10")
    try:
        values = np.linalg.eigvalsh(km)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from None
    return values[::-1].copy()
