"""Binary container for adapter models and dense layer tensors.

Layout: 4-byte magic "LWU1", a little-endian u32 header length, a UTF-8
JSON header, then a packed little-endian float32 payload. The header holds
model metadata (format_version, algorithm, dim, alpha, factor, seed) and a
layer list; each layer entry names its tensors with role, shape, dtype
("f4"), byte_offset, and byte_length, offsets relative to the payload
start. Tensors are stored at 32-bit precision and re-promoted to float64 on
load; loading therefore reproduces exactly the float32 quantization of what
was saved. Complex tensors cannot be stored: saving one raises
ComplexInputError rather than dropping its imaginary part. A value that is
not finite once cast to float32 (NaN, inf, or of magnitude 2^128 - 2^103 or
more) raises WeightFileError, as loading would refuse it.

Saving writes only what loading accepts and checks it all before the file
is opened, so every refusal leaves the target as it was: the metadata gets
the reader's own check, and save_weights assembles each layer as
load_weights will, keeping its gamma. It then writes the header and casts
each tensor, one after another, into one reused float32 buffer that it
writes from: a save holds the model plus one tensor in memory.

Loading reads the 8-byte prefix and the header, and checks the whole
declared layout before it reads a payload byte: distinct layer names, and
tensor spans that tile the payload with no overlap, gap or trailing byte.
It then reads each tensor's span, in header order, into one float32 buffer
sized to the largest tensor, checks it for finiteness there and casts it
once to a new float64 array. The file is never held whole and must be
seekable: a pipe raises OSError (ESPIPE) naming it. One that shrinks while
it is read ends a read short and raises TruncatedPayloadError. Every
failure raises a WeightFileError subclass carrying the byte position, and
no read ever leaves the declared bounds.
"""

from __future__ import annotations

import errno
import json
import math
import os
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


# the float32 rounding midpoint above the largest float32: a value of this
# magnitude or more casts to inf, anything below it stays finite
_F32_LIMIT = 2.0 ** 128 - 2.0 ** 103


def _json_int(value) -> int:
    # numpy integers, which LayerShape and MergeScale accept, are JSON integers
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _header(meta: ModelMeta, layers: list[tuple[str, LayerShape, dict]]) -> bytes:
    """The JSON header; the payload packs the tensors in this order.

    Every refusal of the container happens here, before a file is opened:
    the metadata gets the reader's own check, on the JSON it will read.
    """
    meta_fields = asdict(meta)
    _parse_meta(json.loads(json.dumps(meta_fields, default=_json_int)))
    offset = 0
    layer_entries = []
    for name, shape, tensors in layers:
        if not isinstance(name, str):
            raise MalformedHeaderError(f"layer name {name!r} is not a string", 8)
        tensor_entries = []
        for role, value in tensors.items():
            if value.dtype.kind == "c":
                raise ComplexInputError(
                    f"layer {name!r} tensor {role!r} is complex; .lwu files store real values only")
            # NaN fails both comparisons
            if not (value.min() > -_F32_LIMIT and value.max() < _F32_LIMIT):
                raise WeightFileError(
                    f"layer {name!r} tensor {role!r} holds values that are not finite as float32")
            tensor_entries.append({
                "role": role,
                "shape": list(value.shape),
                "dtype": "f4",
                "byte_offset": offset,
                "byte_length": 4 * value.size,
            })
            offset += 4 * value.size
        layer_entries.append({
            "name": name,
            "kind": shape.kind,
            "shape": shape.json_shape,
            "tensors": tensor_entries,
        })
    header = dict(meta_fields, layers=layer_entries)
    return json.dumps(header, sort_keys=True, default=_json_int).encode("utf-8")


def _write(path, header: bytes, layers: list[tuple[str, LayerShape, dict]]) -> None:
    # each tensor is cast into one float32 buffer and written from it
    buf = np.empty(max((v.size for _, _, t in layers for v in t.values()), default=0), "<f4")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for _, _, tensors in layers:
            for value in tensors.values():
                f4 = buf[:value.size]
                np.copyto(f4.reshape(value.shape), value, casting="unsafe")
                fh.write(f4)


def save_weights(model: AdapterModel, path) -> None:
    """Serialize an adapter model; tensors are stored as little-endian f32.

    Each layer must load back under the model's meta with its own gamma.
    """
    meta = model.meta
    if meta.algorithm in _DENSE_ALGORITHMS:
        raise ValueError("use save_dense for dense tensor files")
    layers = [(name, ad.layer, ad.tensors()) for name, ad in model.entries.items()]
    header = _header(meta, layers)
    for (name, shape, tensors), ad in zip(layers, model.entries.values()):
        gamma = _assemble_adapter(meta, shape, tensors).scale.gamma
        if gamma != ad.scale.gamma:
            raise MalformedHeaderError(f"layer {name!r} has gamma {ad.scale.gamma!r} but would "
                                       f"load with the model's alpha / dim = {gamma!r}", 8)
    _write(path, header, layers)


def save_dense(entries, path, algorithm: str = "delta",
               meta: ModelMeta | None = None) -> None:
    """Serialize named dense tensors ({name: (LayerShape, array)}).

    algorithm 'delta' marks weight deltas, 'dense' full weights; the single
    tensor per layer takes the matching role name.
    """
    if algorithm not in _DENSE_ALGORITHMS:
        raise ValueError(f"dense algorithm must be one of {sorted(_DENSE_ALGORITHMS)}")
    role = _DENSE_ALGORITHMS[algorithm]
    meta = replace(meta or ModelMeta(algorithm, dim=1, alpha=1.0), algorithm=algorithm)
    layers = []
    for name, (shape, value) in entries.items():
        arr = np.asarray(value)
        if arr.shape != shape.delta_shape:
            raise ValueError(f"layer {name!r}: array shape {arr.shape} != {shape.delta_shape}")
        layers.append((name, shape, {role: arr}))
    _write(path, _header(meta, layers), layers)


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
        meta = ModelMeta(algorithm, dim, float(alpha), factor, seed, version)
        MergeScale(meta.alpha, dim)
    except (ValueError, OverflowError) as exc:
        raise MalformedHeaderError(f"invalid metadata: {exc}", 8)
    return meta


def _parse_container(fh):
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
            tensors[role] = (tshape, offset, twhere)
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
    # the layout holds, so each entry is replaced by its tensor: read at its
    # offset into one buffer sized to the largest, checked there, cast from it
    buf = np.empty(max((stop - start for start, stop, _ in spans), default=0) // 4, "<f4")
    for _, _, tensors in layers:
        for role, (tshape, offset, twhere) in tensors.items():
            f4 = buf[:math.prod(tshape)]
            fh.seek(payload_base + offset)
            got = fh.readinto(f4)
            if got < f4.nbytes:
                raise TruncatedPayloadError(
                    f"{twhere} ends {f4.nbytes - got} bytes short: the file shrank while "
                    f"it was read", payload_base + offset + got)
            if not np.all(np.isfinite(f4)):
                raise WeightFileError(f"{twhere} holds non-finite values",
                                      payload_base + offset)
            tensors[role] = f4.astype(np.float64).reshape(tshape)
    return meta, layers


def _read(path):
    with open(path, "rb") as fh:
        # the tensors are read at their offsets
        if not fh.seekable():
            raise OSError(errno.ESPIPE, os.strerror(errno.ESPIPE), str(path))
        return _parse_container(fh)


def _assemble_adapter(meta: ModelMeta, shape: LayerShape, tensors: dict):
    scale = MergeScale(meta.alpha, meta.dim)
    try:
        return adapters._from_tensors(meta.algorithm, shape, scale, meta.factor, tensors)
    except ValueError as exc:
        raise MalformedHeaderError(f"inconsistent adapter tensors: {exc}", 8)


def load_weights(path) -> AdapterModel:
    """Parse an adapter model file; see the module docstring for the format."""
    meta, layers = _read(path)
    if meta.algorithm in _DENSE_ALGORITHMS:
        raise WeightFileError(
            f"file holds dense {meta.algorithm!r} tensors; use load_dense", 8)
    entries = {name: _assemble_adapter(meta, shape, tensors)
               for name, shape, tensors in layers}
    return AdapterModel(meta=meta, entries=entries)


def load_dense(path):
    """Parse a dense tensor file -> (meta, {name: (LayerShape, array)})."""
    meta, layers = _read(path)
    if meta.algorithm not in _DENSE_ALGORITHMS:
        raise WeightFileError(
            f"file holds a {meta.algorithm!r} adapter model; use load_weights", 8)
    role = _DENSE_ALGORITHMS[meta.algorithm]
    entries = {}
    for name, shape, tensors in layers:
        if set(tensors) != {role}:
            raise MalformedHeaderError(
                f"dense layer {name!r} must hold exactly one {role!r} tensor", 8)
        value = tensors[role]
        if value.shape != shape.delta_shape:
            raise MalformedHeaderError(
                f"dense layer {name!r} tensor shape {value.shape} != {shape.delta_shape}", 8)
        entries[name] = (shape, value)
    return meta, entries
