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
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    cols (in*k*k, n*h*w) are the im2col columns of every k x k window (n = 1
    for one (in, H, W) image): rows run row-major over (in, k, k), as
    unroll_conv lays out a kernel, and columns over (n, h, w).
    """
    out_c, k = kernel.shape[0], kernel.shape[2]
    windows = sliding_window_view(image, (k, k), axis=(-2, -1))
    axes = (0, 3, 4, 1, 2) if image.ndim == 3 else (1, 4, 5, 0, 2, 3)
    cols = windows.transpose(axes).reshape(kernel[0].size, -1)
    y = kernel.reshape(out_c, -1) @ cols
    h, w = windows.shape[-4:-2]
    if image.ndim == 3:
        return y.reshape(out_c, h, w), cols
    return y.reshape(out_c, image.shape[0], h, w).swapaxes(0, 1), cols


def _conv2d_weight_grad(dy: np.ndarray, cols: np.ndarray, k: int) -> np.ndarray:
    """dL/dkernel of _conv2d from dy = dL/dy and the forward's columns: one GEMM."""
    out_c = dy.shape[-3]
    dy_rows = dy.reshape(out_c, -1) if dy.ndim == 3 else dy.swapaxes(0, 1).reshape(out_c, -1)
    return (dy_rows @ cols.T).reshape(out_c, -1, k, k)


def _conv2d_input_grad(kernel: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dL/dimage of _conv2d: the flipped, channel-swapped kernel over dy padded by k-1."""
    p = kernel.shape[2] - 1
    h, w = dy.shape[-2:]
    padded = np.zeros((*dy.shape[:-2], h + 2 * p, w + 2 * p), dtype=np.result_type(kernel, dy))
    padded[..., p:p + h, p:p + w] = dy
    return _conv2d(kernel[:, :, ::-1, ::-1].swapaxes(0, 1), padded)[0]


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
