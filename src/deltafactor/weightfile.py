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
not finite once cast to float32 (NaN, inf, or beyond the float32 range)
raises WeightFileError before the file is opened, as loading would refuse it.

Parsing is strict: every failure raises a WeightFileError subclass carrying
the byte position, and no read ever leaves the declared bounds.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict

import numpy as np

from . import adapters
from .adapters import ALGORITHMS, AdapterModel, LayerShape, MergeScale, ModelMeta
from .tensor_core import ComplexInputError

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


def _layer_shape_fields(shape: LayerShape) -> list[int]:
    if shape.kind == "conv2d":
        return [shape.out_dim, shape.in_dim, shape.kernel]
    return [shape.out_dim, shape.in_dim]


def _encode(meta: ModelMeta, layers: list[tuple[str, LayerShape, dict]]
            ) -> tuple[bytes, list[np.ndarray]]:
    """The header bytes and the payload's float32 tensors, in file order.

    Every refusal happens here, before a file is opened.
    """
    payload = []
    offset = 0
    layer_entries = []
    for name, shape, tensors in layers:
        tensor_entries = []
        for role, value in tensors.items():
            if value.dtype.kind == "c":
                raise ComplexInputError(
                    f"layer {name!r} tensor {role!r} is complex; .lwu files store real values only")
            with np.errstate(over="ignore"):
                f4 = np.ascontiguousarray(value, dtype="<f4")
            if not np.all(np.isfinite(f4)):
                raise WeightFileError(
                    f"layer {name!r} tensor {role!r} holds values that are not finite as float32")
            tensor_entries.append({
                "role": role,
                "shape": list(value.shape),
                "dtype": "f4",
                "byte_offset": offset,
                "byte_length": f4.nbytes,
            })
            payload.append(f4)
            offset += f4.nbytes
        layer_entries.append({
            "name": name,
            "kind": shape.kind,
            "shape": _layer_shape_fields(shape),
            "tensors": tensor_entries,
        })
    header = dict(asdict(meta), layers=layer_entries)
    return json.dumps(header, sort_keys=True).encode("utf-8"), payload


def _write(path, meta: ModelMeta, layers: list[tuple[str, LayerShape, dict]]) -> None:
    # one part after another; a C-contiguous array writes its own buffer, uncopied
    header, payload = _encode(meta, layers)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for f4 in payload:
            fh.write(f4)


def save_weights(model: AdapterModel, path) -> None:
    """Serialize an adapter model; tensors are stored as little-endian f32."""
    if model.meta.algorithm in _DENSE_ALGORITHMS:
        raise ValueError("use save_dense for dense tensor files")
    layers = [(name, ad.layer, ad.tensors()) for name, ad in model.entries.items()]
    _write(path, model.meta, layers)


def save_dense(entries, path, algorithm: str = "delta",
               meta: ModelMeta | None = None) -> None:
    """Serialize named dense tensors ({name: (LayerShape, array)}).

    algorithm 'delta' marks weight deltas, 'dense' full weights; the single
    tensor per layer takes the matching role name.
    """
    if algorithm not in _DENSE_ALGORITHMS:
        raise ValueError(f"dense algorithm must be one of {sorted(_DENSE_ALGORITHMS)}")
    role = _DENSE_ALGORITHMS[algorithm]
    if meta is None:
        meta = ModelMeta(algorithm=algorithm, dim=1, alpha=1.0)
    else:
        meta = ModelMeta(algorithm=algorithm, dim=meta.dim, alpha=meta.alpha,
                         factor=meta.factor, seed=meta.seed,
                         format_version=meta.format_version)
    layers = []
    for name, (shape, value) in entries.items():
        arr = np.asarray(value)
        if arr.shape != shape.delta_shape:
            raise ValueError(f"layer {name!r}: array shape {arr.shape} != {shape.delta_shape}")
        layers.append((name, shape, {role: arr}))
    _write(path, meta, layers)


def _fail(cls, message, position):
    raise cls(message, position)


def _require_key(entry: dict, key: str, kinds, where: str):
    if key not in entry:
        _fail(MalformedHeaderError, f"{where} missing key {key!r}", 8)
    if not isinstance(entry[key], kinds):
        _fail(MalformedHeaderError, f"{where} key {key!r} has wrong type", 8)
    return entry[key]


def _parse_layer_shape(entry: dict, where: str) -> LayerShape:
    kind = _require_key(entry, "kind", str, where)
    dims = _require_key(entry, "shape", list, where)
    if not all(isinstance(d, int) and d > 0 for d in dims):
        _fail(MalformedHeaderError, f"{where} has non-positive shape {dims}", 8)
    try:
        if kind == "linear" and len(dims) == 2:
            return LayerShape("linear", dims[0], dims[1])
        if kind == "conv2d" and len(dims) == 3:
            return LayerShape("conv2d", dims[0], dims[1], dims[2])
    except ValueError as exc:
        _fail(MalformedHeaderError, f"{where}: {exc}", 8)
    _fail(MalformedHeaderError, f"{where} has invalid kind/shape {kind!r}/{dims}", 8)


def _parse_container(blob: bytes):
    if blob[:4] != MAGIC:
        _fail(BadMagicError, f"bad magic {blob[:4]!r}, expected {MAGIC!r}", 0)
    if len(blob) < 8:
        _fail(TruncatedPayloadError, "file ends before header length field", 4)
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header_bytes = blob[8:8 + header_len]
    if len(header_bytes) < header_len:
        _fail(TruncatedPayloadError,
              f"header declares {header_len} bytes but {len(header_bytes)} remain", 8)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        _fail(MalformedHeaderError, f"header is not valid JSON: {exc}", 8)
    if not isinstance(header, dict):
        _fail(MalformedHeaderError, "header must be a JSON object", 8)
    version = _require_key(header, "format_version", int, "header")
    if version != FORMAT_VERSION:
        _fail(MalformedHeaderError, f"unsupported format_version {version}", 8)
    algorithm = _require_key(header, "algorithm", str, "header")
    dim = _require_key(header, "dim", int, "header")
    alpha = _require_key(header, "alpha", (int, float), "header")
    factor = _require_key(header, "factor", int, "header")
    seed = _require_key(header, "seed", int, "header")
    known = set(ALGORITHMS) | set(_DENSE_ALGORITHMS)
    if algorithm not in known:
        _fail(MalformedHeaderError, f"unknown algorithm {algorithm!r}", 8)
    try:
        meta = ModelMeta(algorithm=algorithm, dim=dim, alpha=float(alpha),
                         factor=factor, seed=seed, format_version=version)
        scale_probe = MergeScale(float(alpha), dim)
        del scale_probe
    except ValueError as exc:
        _fail(MalformedHeaderError, f"invalid metadata: {exc}", 8)

    payload = blob[8 + header_len:]
    payload_base = 8 + header_len
    layer_list = _require_key(header, "layers", list, "header")
    names = []
    layers = []
    spans = []
    for li, entry in enumerate(layer_list):
        where = f"layer {li}"
        if not isinstance(entry, dict):
            _fail(MalformedHeaderError, f"{where} must be an object", 8)
        name = _require_key(entry, "name", str, where)
        names.append(name)
        shape = _parse_layer_shape(entry, where)
        tensor_list = _require_key(entry, "tensors", list, where)
        tensors = {}
        for ti, tentry in enumerate(tensor_list):
            twhere = f"{where} tensor {ti}"
            if not isinstance(tentry, dict):
                _fail(MalformedHeaderError, f"{twhere} must be an object", 8)
            role = _require_key(tentry, "role", str, twhere)
            if role in tensors:
                _fail(MalformedHeaderError, f"{twhere} repeats role {role!r}", 8)
            tshape = _require_key(tentry, "shape", list, twhere)
            if not all(isinstance(d, int) and d > 0 for d in tshape):
                _fail(MalformedHeaderError, f"{twhere} has invalid shape {tshape}", 8)
            dtype = _require_key(tentry, "dtype", str, twhere)
            if dtype != "f4":
                _fail(MalformedHeaderError, f"{twhere} has unsupported dtype {dtype!r}", 8)
            offset = _require_key(tentry, "byte_offset", int, twhere)
            length = _require_key(tentry, "byte_length", int, twhere)
            count = math.prod(tshape)
            if offset < 0 or length != 4 * count:
                _fail(MalformedHeaderError,
                      f"{twhere} length {length} does not match shape {tshape}", 8)
            if offset + length > len(payload):
                _fail(TruncatedPayloadError,
                      f"{twhere} spans [{offset}, {offset + length}) past payload "
                      f"end {len(payload)}", payload_base + len(payload))
            raw = payload[offset:offset + length]
            values = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(tshape)
            if not np.all(np.isfinite(values)):
                _fail(WeightFileError, f"{twhere} holds non-finite values",
                      payload_base + offset)
            tensors[role] = values
            spans.append((offset, offset + length, twhere))
        layers.append((name, shape, tensors))
    if len(set(names)) != len(names):
        _fail(MalformedHeaderError, "duplicate layer names", 8)
    spans.sort()
    for (s0, e0, w0), (s1, e1, w1) in zip(spans, spans[1:]):
        if s1 < e0:
            _fail(OffsetOverlapError, f"{w1} overlaps {w0}", payload_base + s1)
    declared_end = max((end for _, end, _ in spans), default=0)
    if declared_end < len(payload):
        _fail(WeightFileError,
              f"{len(payload) - declared_end} trailing payload bytes",
              payload_base + declared_end)
    return meta, layers


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _assemble_adapter(meta: ModelMeta, shape: LayerShape, tensors: dict):
    scale = MergeScale(meta.alpha, meta.dim)
    try:
        return adapters._from_tensors(meta.algorithm, shape, scale, meta.factor, tensors)
    except ValueError as exc:
        _fail(MalformedHeaderError, f"inconsistent adapter tensors: {exc}", 8)


def load_weights(path) -> AdapterModel:
    """Parse an adapter model file; see the module docstring for the format."""
    meta, layers = _parse_container(_read(path))
    if meta.algorithm in _DENSE_ALGORITHMS:
        raise WeightFileError(
            f"file holds dense {meta.algorithm!r} tensors; use load_dense", 8)
    entries = {name: _assemble_adapter(meta, shape, tensors)
               for name, shape, tensors in layers}
    return AdapterModel(meta=meta, entries=entries)


def load_dense(path):
    """Parse a dense tensor file -> (meta, {name: (LayerShape, array)})."""
    meta, layers = _parse_container(_read(path))
    if meta.algorithm not in _DENSE_ALGORITHMS:
        raise WeightFileError(
            f"file holds a {meta.algorithm!r} adapter model; use load_weights", 8)
    role = _DENSE_ALGORITHMS[meta.algorithm]
    entries = {}
    for name, shape, tensors in layers:
        if set(tensors) != {role}:
            _fail(MalformedHeaderError,
                  f"dense layer {name!r} must hold exactly one {role!r} tensor", 8)
        value = tensors[role]
        if value.shape != shape.delta_shape:
            _fail(MalformedHeaderError,
                  f"dense layer {name!r} tensor shape {value.shape} != {shape.delta_shape}", 8)
        entries[name] = (shape, value)
    return meta, entries
