"""Binary container for adapter models and dense layer tensors.

Layout: 4-byte magic "LWU1", a little-endian u32 header length, a UTF-8
JSON header, then a packed little-endian float32 payload. The header holds
format_version (FORMAT_VERSION, the one version read), the model
metadata (algorithm, dim, alpha, factor, seed) and a layer list; each
layer entry names its tensors with role, shape, dtype ("f4"), byte_offset,
and byte_length, offsets relative to the payload start. Tensors are
stored at 32-bit precision and re-promoted to float64 on load; loading
therefore reproduces exactly the float32 quantization of what was saved.
Complex tensors cannot be stored: saving one raises
ComplexInputError rather than dropping its imaginary part. A value that is
not finite once cast to float32 (NaN, inf, or of magnitude 2^128 - 2^103 or
more) raises WeightFileError, as loading would refuse it.

Both writers write only what loading accepts. Each builds the header from
the tensors' shapes alone, after the metadata gets the reader's own check:
save_weights takes the shapes from its own arrays and checks every layer as
load_weights will assemble it (its roles and shapes under the model's
metadata, and its gamma against alpha / dim), and save_dense refuses an
array of the wrong shape. These refusals, and that of an existing target
that is not a regular file, come before any file is made. One writer then
writes into a new temporary file beside the target, created with the mode
a plain open(path, "wb") would give (an existing target's mode is kept),
preallocates its whole size, header and payload, and writes each tensor
one row block at a time, a whole array being one block: each block is
cast to float32, refused there if it is not finite, and written before the
next is made. Only a complete file replaces the target, atomically for any
reader (os.replace); a refusal removes the temporary file, so the target
keeps its bytes. A full disk is such a refusal, and it comes from the
preallocation, before any payload byte is made; where the platform or the
file system cannot preallocate, the write goes on without it. The writer
does not fsync: durability across a power loss is left to the file
system, and a target written just before a crash may lack part of its
payload (run sync where a file must survive one). save_dense also takes a
tensor as a function that returns its row blocks, so a command that
streams its layers holds one row block at a time and no layer.

Loading reads the 8-byte prefix and the header, and checks the whole
declared layout before it reads a payload byte: distinct layer names, and
tensor spans that tile the payload with no overlap, gap or trailing byte.
It then reads each tensor's span, on demand, into one float32 buffer sized
to the largest tensor and checks it for finiteness there; load_weights and
load_dense cast each once to a new float64 array, in header order, and
open_dense hands out one reader per layer. The file is never held whole
and must be seekable: a pipe raises OSError (ESPIPE) naming it. One that
shrinks while it is read ends a read short and raises
TruncatedPayloadError. Every failure raises a WeightFileError subclass
carrying the byte position, and no read ever leaves the declared bounds.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import json
import math
import os
import stat
import struct
from dataclasses import asdict, replace

import numpy as np

from . import adapters
from .adapters import ALGORITHMS, AdapterModel, LayerShape, MergeScale, ModelMeta
from .tensor_core import ComplexInputError, _is_count

__all__ = [
    "MAGIC",
    "WeightFileError",
    "BadMagicError",
    "MalformedHeaderError",
    "TruncatedPayloadError",
    "OffsetOverlapError",
    "save_weights",
    "load_weights",
    "save_dense",
    "load_dense",
    "open_dense",
]

MAGIC = b"LWU1"
FORMAT_VERSION = 1
_DENSE_ALGORITHMS = {"delta": "delta", "dense": "weight"}


class WeightFileError(ValueError):
    """Malformed weight file; `position` is the relevant byte offset."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (byte {position})")
        self.position = position


class BadMagicError(WeightFileError):
    pass


class MalformedHeaderError(WeightFileError):
    pass


class TruncatedPayloadError(WeightFileError):
    pass


class OffsetOverlapError(WeightFileError):
    pass


def _json_number(value) -> int | float:
    # numpy integers and floats, which LayerShape, MergeScale and ModelMeta accept, are JSON numbers
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise MalformedHeaderError(f"metadata value {value!r} is not a JSON number or string", 8)


def _header(meta: ModelMeta, layout) -> bytes:
    """The JSON header of layout; the payload packs the tensors in its order.

    The metadata gets the reader's own check, on the JSON it will read.
    """
    meta_fields = dict(asdict(meta), format_version=FORMAT_VERSION)
    _parse_meta(json.loads(json.dumps(meta_fields, default=_json_number)))
    offset = 0
    layer_entries = []
    for name, shape, roles in layout:
        if not isinstance(name, str):
            raise MalformedHeaderError(f"layer name {name!r} is not a string", 8)
        tensor_entries = []
        for role, tshape in roles.items():
            length = 4 * math.prod(tshape)
            tensor_entries.append({
                "role": role,
                "shape": list(tshape),
                "dtype": "f4",
                "byte_offset": offset,
                "byte_length": length,
            })
            offset += length
        layer_entries.append({
            "name": name,
            "kind": shape.kind,
            "shape": shape.json_shape,
            "tensors": tensor_entries,
        })
    header = dict(meta_fields, layers=layer_entries)
    return json.dumps(header, sort_keys=True, default=_json_number).encode("utf-8")


def _create_beside(target: str) -> tuple[str, int]:
    """A new file in target's directory, made as open(target, "wb") makes one: 0o666 less the umask."""
    directory, base = os.path.split(target)
    while True:
        tmp = os.path.join(directory, f".{base}.{os.urandom(4).hex()}.tmp")
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue


def _preallocate(fd: int, size: int) -> None:
    """Reserve size bytes of fd's blocks before any is written.

    A file with no delayed-allocation blocks is renamed over an existing one
    without the flush some file systems force then (ext4's auto_da_alloc).
    Where the platform or the file system cannot preallocate, the write goes
    on without it; any other failure (no space, over quota, too large) is a
    refusal that comes before the first payload byte is made.
    """
    fallocate = getattr(os, "posix_fallocate", None)
    if fallocate is None:
        return
    try:
        fallocate(fd, 0, size)
    except OSError as exc:
        if exc.errno not in (errno.EINVAL, errno.EOPNOTSUPP):
            raise


def _all_finite(f4: np.ndarray) -> bool:
    # max and min carry any NaN or inf through without a mask the size of
    # the tensor, which would be an eighth of a float64 layer
    return bool(np.isfinite(f4.max()) and np.isfinite(f4.min()))


def _write_f32(fh, name, role: str, shape: tuple, value) -> None:
    """Write one tensor to fh as little-endian float32, one row block at a time.

    value is an array of shape, its one block, or a function that returns
    the tensor's consecutive row blocks, each (rows, prod(shape[1:])). Each
    block must be real and fit the next rows; it is cast, checked finite and
    written before the next is made.
    """
    rows, width = shape[0], math.prod(shape[1:])
    blocks = value() if callable(value) else (np.reshape(value, (rows, width)),)
    lo = 0
    for block in blocks:
        block = np.asarray(block)
        if block.dtype.kind == "c":
            raise ComplexInputError(
                f"layer {name!r} tensor {role!r} is complex; .lwu files store real values only")
        if block.shape[1:] != (width,) or not lo < lo + len(block) <= rows:
            raise ValueError(f"layer {name!r} tensor {role!r}: row block shape {block.shape} "
                             f"does not fit rows {lo}: of {shape}")
        lo += len(block)
        # the cast rounds a value of magnitude 2^128 - 2^103 or more to inf and
        # keeps anything below it finite, so this is the reader's own test
        with np.errstate(over="ignore"):
            f4 = block.astype("<f4", order="C", copy=False)
        if not _all_finite(f4):
            raise WeightFileError(
                f"layer {name!r} tensor {role!r} holds values that are not finite as float32")
        fh.write(f4)
        # dropped before the next block is made
        del block, f4
    if lo < rows:
        raise ValueError(f"layer {name!r} tensor {role!r}: row blocks end at row {lo} of {shape}")


def _write(path, header: bytes, layout, values: list) -> None:
    """Write the container of header and layout, [(name, LayerShape, {role: shape})], and values.

    header is _header(meta, layout); values holds one value per tensor of
    layout, in its order: an array of its shape, or a function that returns
    the tensor's row blocks, called when the writer reaches it (_write_f32).
    The bytes go to a temporary file that replaces the target once
    complete; a refusal removes it instead.
    """
    # a symlinked target is written through, as open(path, "wb") writes it
    target = os.path.realpath(os.fsdecode(path))
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        raise OSError(errno.EISDIR if stat.S_ISDIR(mode) else errno.EINVAL,
                      "target exists and is not a regular file", os.fsdecode(path))
    slots = [(name, role, tuple(tshape)) for name, _, roles in layout
             for role, tshape in roles.items()]
    tmp, fd = _create_beside(target)
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            _preallocate(fd, 8 + len(header) + 4 * sum(math.prod(tshape) for *_, tshape in slots))
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            for (name, role, tshape), value in zip(slots, values, strict=True):
                _write_f32(fh, name, role, tshape, value)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_weights(model: AdapterModel, path) -> None:
    """Serialize an adapter model; tensors are stored as little-endian f32.

    Each layer must load back under the model's meta with its own gamma.
    Every layer is checked, from its shapes and gamma alone, as load_weights
    will assemble it, before anything is written: nothing is built.
    """
    meta = model.meta
    if meta.algorithm in _DENSE_ALGORITHMS:
        raise ValueError("use save_dense for dense tensor files")
    layout = [(name, ad.layer, {role: t.shape for role, t in ad.tensors().items()})
              for name, ad in model.entries.items()]
    header = _header(meta, layout)
    gamma = MergeScale(meta.alpha, meta.dim).gamma
    for (name, shape, shapes), ad in zip(layout, model.entries.values()):
        try:
            adapters._check_layout(meta.algorithm, shape, meta.dim, meta.factor, shapes)
        except ValueError as exc:
            raise MalformedHeaderError(f"inconsistent adapter tensors: {exc}", 8)
        if ad.scale.gamma != gamma:
            raise MalformedHeaderError(f"layer {name!r} has gamma {ad.scale.gamma!r} but would "
                                       f"load with the model's alpha / dim = {gamma!r}", 8)
    _write(path, header, layout, [t for ad in model.entries.values() for t in ad.tensors().values()])


def save_dense(entries, path, algorithm: str = "delta",
               meta: ModelMeta | None = None) -> None:
    """Serialize named dense tensors ({name: (LayerShape, value)}).

    algorithm 'delta' marks weight deltas, 'dense' full weights; the single
    tensor per layer takes the matching role name. A value is an array of
    the layer's delta_shape, or a function of no arguments that the writer
    calls when it reaches the layer and that returns the layer's
    consecutive row blocks, each (rows, in*k*k) as adapters._layer_rows
    makes them, so a caller need hold no float64 layer.
    """
    if algorithm not in _DENSE_ALGORITHMS:
        raise ValueError(f"dense algorithm must be one of {sorted(_DENSE_ALGORITHMS)}")
    role = _DENSE_ALGORITHMS[algorithm]
    meta = replace(meta or ModelMeta(algorithm, dim=1, alpha=1.0), algorithm=algorithm)
    layout = [(name, shape, {role: shape.delta_shape}) for name, (shape, _) in entries.items()]
    header = _header(meta, layout)
    for name, (shape, value) in entries.items():
        if not callable(value) and np.shape(value) != shape.delta_shape:
            raise ValueError(f"layer {name!r} tensor {role!r}: array shape {np.shape(value)} "
                             f"!= {shape.delta_shape}")
    _write(path, header, layout, [value for _, value in entries.values()])


def _require_key(entry: dict, key: str, kinds, where: str):
    if key not in entry:
        raise MalformedHeaderError(f"{where} missing key {key!r}", 8)
    # JSON true/false load as bool, which Python counts as an int
    if not isinstance(entry[key], kinds) or isinstance(entry[key], bool):
        raise MalformedHeaderError(f"{where} key {key!r} has wrong type", 8)
    return entry[key]


def _parse_layer_shape(entry: dict, where: str) -> LayerShape:
    kind = _require_key(entry, "kind", str, where)
    dims = _require_key(entry, "shape", list, where)
    try:
        return LayerShape.from_json(kind, dims, where)
    except ValueError as exc:
        raise MalformedHeaderError(str(exc), 8)


def _parse_meta(header: dict) -> ModelMeta:
    """The model metadata of a parsed header; the writers check theirs here too."""
    version = _require_key(header, "format_version", int, "header")
    if version != FORMAT_VERSION:
        raise MalformedHeaderError(f"unsupported format_version {version}", 8)
    algorithm = _require_key(header, "algorithm", str, "header")
    dim = _require_key(header, "dim", int, "header")
    alpha = _require_key(header, "alpha", (int, float), "header")
    factor = _require_key(header, "factor", int, "header")
    seed = _require_key(header, "seed", int, "header")
    if algorithm not in ALGORITHMS and algorithm not in _DENSE_ALGORITHMS:
        raise MalformedHeaderError(f"unknown algorithm {algorithm!r}", 8)
    try:
        # float() overflows on an integer alpha beyond float range
        meta = ModelMeta(algorithm, dim, float(alpha), factor, seed)
        MergeScale(meta.alpha, dim)
    except (ValueError, OverflowError) as exc:
        raise MalformedHeaderError(f"invalid metadata: {exc}", 8)
    return meta


def _read_layout(fh):
    """(meta, layers, payload start) of an open file whose whole declared layout holds.

    layers is [(name, LayerShape, {role: (shape, offset, where)})]. Every
    check of the header and of the spans runs here, before a payload byte
    is read.
    """
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    prefix = fh.read(8)
    if prefix[:4] != MAGIC:
        raise BadMagicError(f"bad magic {prefix[:4]!r}, expected {MAGIC!r}", 0)
    if len(prefix) < 8:
        raise TruncatedPayloadError("file ends before header length field", 4)
    (header_len,) = struct.unpack_from("<I", prefix, 4)
    # never ask for more than the file holds: the length field is untrusted
    header_bytes = fh.read(min(header_len, size - 8))
    if len(header_bytes) < header_len:
        raise TruncatedPayloadError(
            f"header declares {header_len} bytes but {len(header_bytes)} remain", 8)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeaderError(f"header is not valid JSON: {exc}", 8)
    if not isinstance(header, dict):
        raise MalformedHeaderError("header must be a JSON object", 8)
    meta = _parse_meta(header)

    payload_base = 8 + header_len
    payload_len = size - payload_base
    layer_list = _require_key(header, "layers", list, "header")
    layers = []
    spans = []
    for li, entry in enumerate(layer_list):
        where = f"layer {li}"
        if not isinstance(entry, dict):
            raise MalformedHeaderError(f"{where} must be an object", 8)
        name = _require_key(entry, "name", str, where)
        shape = _parse_layer_shape(entry, where)
        tensor_list = _require_key(entry, "tensors", list, where)
        tensors = {}
        for ti, tentry in enumerate(tensor_list):
            twhere = f"{where} tensor {ti}"
            if not isinstance(tentry, dict):
                raise MalformedHeaderError(f"{twhere} must be an object", 8)
            role = _require_key(tentry, "role", str, twhere)
            if role in tensors:
                raise MalformedHeaderError(f"{twhere} repeats role {role!r}", 8)
            tshape = _require_key(tentry, "shape", list, twhere)
            if not all(_is_count(d) for d in tshape):
                raise MalformedHeaderError(f"{twhere} has invalid shape {tshape}", 8)
            dtype = _require_key(tentry, "dtype", str, twhere)
            if dtype != "f4":
                raise MalformedHeaderError(f"{twhere} has unsupported dtype {dtype!r}", 8)
            offset = _require_key(tentry, "byte_offset", int, twhere)
            length = _require_key(tentry, "byte_length", int, twhere)
            if offset < 0 or length != 4 * math.prod(tshape):
                raise MalformedHeaderError(
                    f"{twhere} length {length} does not match shape {tshape}", 8)
            if offset + length > payload_len:
                raise TruncatedPayloadError(
                    f"{twhere} spans [{offset}, {offset + length}) past payload "
                    f"end {payload_len}", payload_base + payload_len)
            tensors[role] = (tuple(tshape), offset, twhere)
            spans.append((offset, offset + length, twhere))
        layers.append((name, shape, tensors))
    if len({name for name, _, _ in layers}) != len(layers):
        raise MalformedHeaderError("duplicate layer names", 8)
    # the spans must tile the payload: no overlap, no gap, nothing after them
    end, before = 0, None
    for start, stop, where in sorted(spans):
        if start < end:
            raise OffsetOverlapError(f"{where} overlaps {before}", payload_base + start)
        if start > end:
            raise WeightFileError(f"{start - end} undeclared payload bytes before {where}",
                                  payload_base + end)
        end, before = stop, where
    if end < payload_len:
        raise WeightFileError(f"{payload_len - end} trailing payload bytes", payload_base + end)
    return meta, layers, payload_base


def _read_tensor(fh, buf: np.ndarray, payload_base: int, span) -> np.ndarray:
    """One tensor's float32 values, read at its offset into buf and checked finite there.

    The result is a view of buf, valid until the next read into it.
    """
    tshape, offset, where = span
    f4 = buf[:math.prod(tshape)]
    fh.seek(payload_base + offset)
    got = fh.readinto(f4)
    if got < f4.nbytes:
        raise TruncatedPayloadError(
            f"{where} ends {f4.nbytes - got} bytes short: the file shrank while "
            f"it was read", payload_base + offset + got)
    if not _all_finite(f4):
        raise WeightFileError(f"{where} holds non-finite values", payload_base + offset)
    return f4.reshape(tshape)


@contextlib.contextmanager
def _open(path):
    """(meta, layers, read) of a file whose layout holds; read(span) reads one tensor.

    Every read goes into one float32 buffer sized to the largest tensor.
    """
    with open(path, "rb") as fh:
        # the tensors are read at their offsets
        if not fh.seekable():
            raise OSError(errno.ESPIPE, os.strerror(errno.ESPIPE), str(path))
        meta, layers, payload_base = _read_layout(fh)
        buf = np.empty(max((math.prod(tshape) for _, _, spans in layers
                            for tshape, _, _ in spans.values()), default=0), "<f4")
        yield meta, layers, functools.partial(_read_tensor, fh, buf, payload_base)


def _assemble_adapter(meta: ModelMeta, shape: LayerShape, tensors: dict):
    scale = MergeScale(meta.alpha, meta.dim)
    try:
        return adapters._from_tensors(meta.algorithm, shape, scale, meta.factor, tensors)
    except ValueError as exc:
        raise MalformedHeaderError(f"inconsistent adapter tensors: {exc}", 8)


def load_weights(path) -> AdapterModel:
    """Parse an adapter model file; see the module docstring for the format."""
    with _open(path) as (meta, layers, read):
        if meta.algorithm in _DENSE_ALGORITHMS:
            raise WeightFileError(
                f"file holds dense {meta.algorithm!r} tensors; use load_dense", 8)
        entries = {name: _assemble_adapter(meta, shape, {role: read(span).astype(np.float64)
                                                         for role, span in spans.items()})
                   for name, shape, spans in layers}
    return AdapterModel(meta=meta, entries=entries)


@contextlib.contextmanager
def open_dense(path):
    """Open a dense tensor file -> (meta, {name: (LayerShape, read)}), no payload read yet.

    The file gets every check load_dense makes of its layout before this
    returns. read() reads that layer's float32 tensor and checks it is
    finite; its values live in a buffer that the next read() reuses, so a
    caller holds one layer at a time.
    """
    with _open(path) as (meta, layers, read):
        if meta.algorithm not in _DENSE_ALGORITHMS:
            raise WeightFileError(
                f"file holds a {meta.algorithm!r} adapter model; use load_weights", 8)
        role = _DENSE_ALGORITHMS[meta.algorithm]
        entries = {}
        for name, shape, spans in layers:
            if set(spans) != {role}:
                raise MalformedHeaderError(
                    f"dense layer {name!r} must hold exactly one {role!r} tensor", 8)
            tshape = spans[role][0]
            if tshape != shape.delta_shape:
                raise MalformedHeaderError(
                    f"dense layer {name!r} tensor shape {tshape} != {shape.delta_shape}", 8)
            entries[name] = (shape, functools.partial(read, spans[role]))
        yield meta, entries


def load_dense(path):
    """Parse a dense tensor file -> (meta, {name: (LayerShape, array)})."""
    with open_dense(path) as (meta, entries):
        return meta, {name: (shape, read().astype(np.float64))
                      for name, (shape, read) in entries.items()}
