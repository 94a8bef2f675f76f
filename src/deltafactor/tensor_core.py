"""Dense tensor primitives: input validation, convolution and its adjoints.

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
the kernel (and the image), for the harness's stacked runs. The adjoints
take a batch of images, (n, ...) after any member axes, as the harness
always passes one.
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
]

# the largest Gram matrix metrics._vendi solves; desk-scale inputs only
SYM_EIG_MAX_SIZE = 4096


class ShapeError(ValueError):
    """Input extents do not satisfy an operation's preconditions."""


class NumericalError(ValueError):
    """A decomposition failed to converge or produced invalid output."""


class ComplexInputError(ValueError):
    """Complex input reached an operation defined for real input only."""


def as_tensor(data, name: str = "tensor") -> np.ndarray:
    """Coerce to a C-contiguous float64 array of the same shape, rejecting NaN/Inf elements.

    A non-finite element raises ValueError naming the argument, the first
    bad flat index and its value. Complex input raises ComplexInputError
    naming the argument: the public operations are defined on real input,
    and casting would drop the imaginary part.
    """
    arr = _as_real(data, name)
    _require_finite(arr, name)
    return arr


def _as_real(data, name: str) -> np.ndarray:
    """as_tensor without the finite check, for a caller that checks the values as it reads them."""
    arr = np.asarray(data)
    if arr.dtype.kind == "c":
        raise ComplexInputError(f"{name} is complex; this operation takes real input only")
    # asarray, unlike ascontiguousarray, keeps a 0-d scalar 0-d
    return np.asarray(arr, dtype=np.float64, order="C")


def _is_count(value) -> bool:
    """Whether value is a positive integer: an int or numpy integer >= 1, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


def _checked_seed(seed) -> np.random.SeedSequence:
    """A SeedSequence as is, an integer n >= 0 as SeedSequence(n) (it draws as n does), else ValueError."""
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(_checked_int_seed(seed))


def _checked_int_seed(seed):
    """seed, refused with ValueError naming it unless it is a non-negative integer.

    An integer is an int or numpy integer, never a bool; numpy's own
    refusal of a negative one does not name the seed.
    """
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and seed >= 0:
        return seed
    raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _require_finite(arr: np.ndarray, what: str) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argmin(finite, axis=None))
        raise ValueError(f"{what} holds a non-finite value at flat index {i}: {arr.flat[i]}")


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
    """dL/dkernel of the convolution from dy = dL/dy (*lead, n, out, h, w) and the forward's columns.

    One GEMM per member; the batch axis n is summed over.
    """
    dy_rows = dy.swapaxes(-4, -3).reshape(*dy.shape[:-4], dy.shape[-3], -1)
    grad = dy_rows @ cols.reshape(*cols.shape[:-3], -1).swapaxes(-1, -2)
    return grad.reshape(*grad.shape[:-1], -1, k, k)


def _conv2d_input_grad(kernel: np.ndarray, dy: np.ndarray, scratch: dict | None = None) -> np.ndarray:
    """dL/dimage (*lead, n, in, H, W) of the convolution, from dy (*lead, n, out, h, w).

    It is the flipped, channel-swapped kernel over dy padded by k-1. The
    padded dy and its columns are built in _buffer(scratch, ...); only the
    interior of the padded buffer is ever written, so its border stays 0.
    """
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
    (in*k*k, n*h*w). A kernel stack with a zero extent raises ShapeError.
    """
    km, xm = as_tensor(kernel, "kernel"), as_tensor(image, "image")
    if km.ndim != 4:
        raise ShapeError(f"kernel stack must have rank 4, got shape {km.shape}")
    if xm.ndim not in (3, 4):
        raise ShapeError(f"image must be (in, H, W) or (n, in, H, W), got shape {xm.shape}")
    if km.shape[2] != km.shape[3]:
        raise ShapeError(f"kernel must be square, got shape {km.shape}")
    if km.size == 0:
        raise ShapeError(f"kernel stack has a zero extent: {km.shape}")
    k = km.shape[2]
    if km.shape[1] != xm.shape[-3]:
        raise ShapeError(
            f"kernel input channels {km.shape} do not match image channels {xm.shape}"
        )
    if xm.shape[-2] < k or xm.shape[-1] < k:
        raise ShapeError(f"image {xm.shape} smaller than kernel window {k}x{k}")
    y = _conv_cols(km, _im2col(xm.reshape(-1, *xm.shape[-3:]), k))
    return y if xm.ndim == 4 else y[0]
