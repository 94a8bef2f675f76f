"""Dense tensor primitives: convolution and its adjoints, decompositions.

Row-major (C) memory order is the convention for every vectorization,
unrolling, and regrouping operation in this package. The public functions
accept array-likes, validate them to contiguous float64 (complex128 when
the input is complex), and return numpy arrays; inputs are never mutated.
Complex input exists for complex-step differentiation of real-analytic
paths (products, Tucker contractions, convolutions); operations that are
defined for real input only refuse it with ComplexInputError.

There is one convolution kernel, _conv2d, on arrays its caller has checked;
its two adjoints reuse its im2col columns, and conv2d is its checked entry.
The private kernel and its adjoints also take a leading member axis on the
kernel (and the image), for the training harness's stacked runs.
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
    "as_real_tensor",
    "unroll_conv",
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


def as_tensor(data) -> np.ndarray:
    """Coerce to a C-contiguous array, rejecting NaN/Inf elements.

    Complex input becomes complex128; every other input becomes float64.
    """
    arr = np.asarray(data)
    arr = np.ascontiguousarray(arr, dtype=np.complex128 if arr.dtype.kind == "c" else np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite elements")
    return arr


def as_real_tensor(data, name: str = "tensor") -> np.ndarray:
    """as_tensor for real-only operations: complex input raises ComplexInputError."""
    arr = as_tensor(data)
    if arr.dtype.kind == "c":
        raise ComplexInputError(f"{name} is complex; this operation takes real input only")
    return arr


def _require_rank(arr: np.ndarray, rank: int, name: str) -> None:
    if arr.ndim != rank:
        raise ShapeError(f"{name} must have rank {rank}, got shape {arr.shape}")


def unroll_conv(kernel) -> np.ndarray:
    """Flatten a conv kernel stack (out, in, k, k) to a matrix (out, in*k*k).

    Column index runs row-major over (in, k, k), so channel blocks stay
    contiguous and each block holds one k x k kernel flattened row by row.
    """
    km = as_tensor(kernel)
    _require_rank(km, 4, "kernel stack")
    if km.shape[2] != km.shape[3]:
        raise ShapeError(f"kernel must be square, got shape {km.shape}")
    out_c = km.shape[0]
    return km.reshape(out_c, -1)


def _conv2d(kernel: np.ndarray, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """conv2d on arrays the caller has checked; returns (y, cols).

    kernel is (*lead, out, in, k, k); image is one (in, H, W), a batch
    (n, in, H, W), or a batch with the kernel's leading member axes
    (*lead, n, in, H, W). Each member runs its own GEMM, so a stack of
    members gives bit for bit what one call per member gives. cols are the
    image's _im2col columns.
    """
    if image.ndim == 3:
        y, cols = _conv2d(kernel, image[None])
        return y[..., 0, :, :, :], cols
    cols = _im2col(image, kernel.shape[-1])
    return _conv_cols(kernel, cols), cols


def _im2col(image: np.ndarray, k: int, scratch: dict | None = None,
            name: str = "cols") -> np.ndarray:
    """Columns (*lead, in*k*k, n, h, w) of every k x k window of (*lead, n, in, H, W).

    Rows run row-major over (in, k, k), as unroll_conv lays out a kernel.
    The columns are written to _buffer(scratch, name, ...).
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
    """dL/dkernel of _conv2d from dy = dL/dy and the forward's columns: one GEMM per member."""
    if dy.ndim == 3:
        dy = dy[None]
    dy_rows = dy.swapaxes(-4, -3).reshape(*dy.shape[:-4], dy.shape[-3], -1)
    grad = dy_rows @ cols.reshape(*cols.shape[:-3], -1).swapaxes(-1, -2)
    return grad.reshape(*grad.shape[:-1], -1, k, k)


def _conv2d_input_grad(kernel: np.ndarray, dy: np.ndarray, scratch: dict | None = None) -> np.ndarray:
    """dL/dimage of _conv2d: the flipped, channel-swapped kernel over dy padded by k-1.

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
    km, xm = as_tensor(kernel), as_tensor(image)
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
    return _conv2d(km, xm)[0]


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition.

    Returns (U, S, V) with A == U @ diag(S) @ V.T, singular values sorted
    descending, and orthonormal columns in U and V. Convergence failures of
    the underlying iteration are reported as NumericalError.
    """
    am = as_tensor(a)
    _require_rank(am, 2, "matrix")
    try:
        u, s, vh = np.linalg.svd(am, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from None
    return u, s, np.ascontiguousarray(vh.T)


def numerical_rank(a, rel_tol: float = 1e-10) -> int:
    """Count singular values above rel_tol times the largest one."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    _, s, _ = svd(a)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def sym_eig(k) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending.

    The input must be square, no larger than SYM_EIG_MAX_SIZE, and symmetric
    within 1e-10 (relative to its largest magnitude entry). Complex input
    raises ComplexInputError: the symmetry test and the solver are real.
    """
    km = as_real_tensor(k, "matrix")
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
