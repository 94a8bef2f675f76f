"""File I/O for feature records and score tables.

Feature records travel as JSON lines: one object per line with the labels
of LABEL_FIELDS (JSON key -> FeatureRecord field; the keys of
_REQUIRED_LABELS, `id` and `class`, are required) and exactly one of `vector` (flat list of floats) or `maps` (a
list of {layer, c, h, w, data} objects holding row-major feature maps).
Score tables are plain CSV with the fixed header SCORE_COLUMNS (or
CATEGORY_COLUMNS), each column a record field through LABEL_FIELDS. All
parse failures raise FeatureFileError naming the file and line.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .metrics import CategoryScore, ScoreRecord, _check_label
from .tensor_core import _is_count, _require_finite

__all__ = [
    "FeatureFileError",
    "FeatureRecord",
    "LABEL_FIELDS",
    "load_features",
    "write_features",
    "feature_matrix",
    "feature_labels",
    "SCORE_COLUMNS",
    "CATEGORY_COLUMNS",
    "load_scores",
    "write_scores",
    "write_category_scores",
]

LABEL_FIELDS = {
    "id": "id",
    "class": "class_name",
    "checkpoint": "checkpoint",
    "category": "category",
    "subclass": "subclass",
    "prompt_type": "prompt_type",
}
_REQUIRED_LABELS = ("id", "class")
_RECORD_KEYS = {*LABEL_FIELDS, "vector", "maps"}
_MAP_KEYS = {"layer", "c", "h", "w", "data"}

SCORE_COLUMNS = ("checkpoint", "category", "class", "subclass",
                 "prompt_type", "metric", "value", "higher_is_better")
CATEGORY_COLUMNS = ("checkpoint", "category", "prompt_type", "metric", "value")


class FeatureFileError(ValueError):
    """Malformed feature or score file."""


@dataclass(frozen=True, eq=False)
class FeatureRecord:
    """One embedded sample: labels plus a vector or a stack of feature maps.

    `maps` holds (layer_name, array) pairs with (C, H, W) arrays; `vector`
    holds a single 1-D embedding. Exactly one of the two is present.
    """

    id: str
    class_name: str
    checkpoint: str | None = None
    category: str | None = None
    subclass: str | None = None
    prompt_type: str | None = None
    vector: np.ndarray | None = None
    maps: tuple[tuple[str, np.ndarray], ...] | None = None

    def __post_init__(self):
        for key, field in LABEL_FIELDS.items():
            _check_label(getattr(self, field), field, optional=key not in _REQUIRED_LABELS)
        if (self.vector is None) == (self.maps is None):
            raise ValueError(f"record {self.id!r} needs exactly one of vector/maps")
        if self.vector is not None:
            vec = np.asarray(self.vector, dtype=np.float64)
            if vec.ndim != 1 or vec.size == 0:
                raise ValueError(f"record {self.id!r}: vector must be 1-D and non-empty")
            _require_finite(vec, f"record {self.id!r}: vector")
            object.__setattr__(self, "vector", vec)
        else:
            pairs = []
            seen = set()
            for layer, arr in self.maps:
                if not isinstance(layer, str) or not layer:
                    raise ValueError(f"record {self.id!r}: empty feature map layer name")
                if layer in seen:
                    raise ValueError(f"record {self.id!r}: duplicate layer {layer!r}")
                seen.add(layer)
                arr = np.asarray(arr, dtype=np.float64)
                if arr.ndim != 3 or arr.size == 0:
                    raise ValueError(
                        f"record {self.id!r}: map {layer!r} must be (C, H, W)")
                _require_finite(arr, f"record {self.id!r}: map {layer!r}")
                pairs.append((layer, arr))
            if not pairs:
                raise ValueError(f"record {self.id!r}: maps may not be empty")
            object.__setattr__(self, "maps", tuple(pairs))


_NUMBER_TYPES = {int, float}


def _check_numbers(values, where: str) -> np.ndarray:
    """A non-empty list of JSON numbers as a float64 array.

    Each entry must be exactly an int or a float (bool, str, None and lists
    are refused) that fits a float64. Finiteness is FeatureRecord's check,
    so each value is checked once on the load path. The common case is one
    type scan and one conversion; only a failing list is walked, to name a
    bad entry.
    """
    if not isinstance(values, list) or not values:
        raise ValueError(f"{where} must be a non-empty list of numbers")
    if set(map(type, values)) <= _NUMBER_TYPES:
        try:
            return np.array(values, dtype=np.float64)
        except OverflowError:
            # the largest integer is one that does not fit
            i, v = max(((i, v) for i, v in enumerate(values) if type(v) is int),
                       key=lambda entry: abs(entry[1]))
            raise ValueError(f"{where} entry {i} is an integer of {len(str(abs(v)))} "
                             f"digits, beyond float range") from None
    i, v = next((i, v) for i, v in enumerate(values) if type(v) not in _NUMBER_TYPES)
    raise ValueError(f"{where} entry {i} is not a number: {v!r}")


def _parse_maps(raw):
    if not isinstance(raw, list) or not raw:
        raise ValueError("maps must be a non-empty list")
    pairs = []
    for mi, entry in enumerate(raw):
        where = f"map {mi}"
        if not isinstance(entry, dict) or set(entry) != _MAP_KEYS:
            raise ValueError(f"{where} must be an object with keys {sorted(_MAP_KEYS)}")
        dims = [entry[k] for k in ("c", "h", "w")]
        if not all(_is_count(d) for d in dims):
            raise ValueError(f"{where} has non-positive dimensions {dims}")
        data = _check_numbers(entry["data"], f"{where} data")
        c, h, w = dims
        if data.size != c * h * w:
            raise ValueError(f"{where} data has {data.size} values, expected {c * h * w}")
        pairs.append((entry["layer"], data.reshape(c, h, w)))
    return tuple(pairs)


def _parse_record(obj) -> FeatureRecord:
    if not isinstance(obj, dict):
        raise ValueError("each line must hold a JSON object")
    unknown = set(obj) - _RECORD_KEYS
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    # FeatureRecord checks the labels and that exactly one payload is present
    return FeatureRecord(
        **{field: obj.get(key) for key, field in LABEL_FIELDS.items()},
        vector=_check_numbers(obj["vector"], "vector") if "vector" in obj else None,
        maps=_parse_maps(obj["maps"]) if "maps" in obj else None,
    )


def _text_lines(path, fh):
    """(line number, text) per line; a line with invalid UTF-8 raises FeatureFileError."""
    # fh decodes with errors="surrogateescape", so a bad byte reads as a lone surrogate
    for line_no, line in enumerate(fh, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                bad = line[exc.start].encode("utf-8", "surrogateescape")
                raise FeatureFileError(f"{path}: line {line_no}: invalid UTF-8 {bad!r}") from None
        yield line_no, line


def load_features(path) -> list[FeatureRecord]:
    """Read a JSONL feature file; all records must share one payload mode."""
    records = []
    mode = None
    dim = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, text in _text_lines(path, fh):
            line = text.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # JSONDecodeError, an integer literal past Python's digit
                # limit for int(), or nesting deeper than the recursion limit
                raise FeatureFileError(f"{path}: line {line_no}: invalid JSON: {exc}") from None
            try:
                rec = _parse_record(obj)
            except (ValueError, TypeError) as exc:
                raise FeatureFileError(f"{path}: line {line_no}: {exc}")
            kind = "vector" if rec.vector is not None else "maps"
            if mode is None:
                mode = kind
            elif kind != mode:
                raise FeatureFileError(
                    f"{path}: line {line_no}: {kind} record in a {mode} file")
            if rec.vector is not None:
                if dim is None:
                    dim = rec.vector.size
                elif rec.vector.size != dim:
                    raise FeatureFileError(
                        f"{path}: line {line_no}: vector has {rec.vector.size} "
                        f"entries, expected {dim}")
            records.append(rec)
    if not records:
        raise FeatureFileError(f"{path}: no records")
    return records


def _record_json(rec: FeatureRecord) -> dict:
    obj = {key: value for key, field in LABEL_FIELDS.items()
           if (value := getattr(rec, field)) is not None}
    if rec.vector is not None:
        obj["vector"] = rec.vector.tolist()
    else:
        obj["maps"] = [{"layer": layer, "c": arr.shape[0], "h": arr.shape[1],
                        "w": arr.shape[2], "data": arr.ravel().tolist()}
                       for layer, arr in rec.maps]
    return obj


def write_features(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(_record_json(rec)) + "\n")


def feature_matrix(records) -> np.ndarray:
    """Stack vector records into an (n, d) array, in file order."""
    recs = list(records)
    if not recs:
        raise ValueError("no records to stack")
    if any(rec.vector is None for rec in recs):
        raise ValueError("feature_matrix requires vector records")
    return np.stack([rec.vector for rec in recs])


def feature_labels(records, field: str) -> list[str]:
    """Pull one label per record; every record must carry the field."""
    if field not in LABEL_FIELDS:
        raise ValueError(f"unknown field {field!r}, expected one of "
                         f"{sorted(LABEL_FIELDS)}")
    attr = LABEL_FIELDS[field]
    labels = []
    for rec in records:
        value = getattr(rec, attr)
        if value is None:
            raise ValueError(f"record {rec.id!r} has no {field} label")
        labels.append(value)
    return labels


# ---------------------------------------------------------------------------
# score tables


def _parse_cell(column: str, cell: str):
    """One score CSV cell as its ScoreRecord field value; the record checks it."""
    if column == "value":
        try:
            return float(cell)
        except ValueError:
            raise ValueError(f"bad value {cell!r}") from None
    if column == "higher_is_better":
        flag = cell.strip().lower()
        if flag not in ("true", "false"):
            raise ValueError(f"higher_is_better must be true or false, got {cell!r}")
        return flag == "true"
    # an empty subclass cell means no subclass
    return (cell or None) if column == "subclass" else cell


def _format_cell(record, column: str):
    value = getattr(record, LABEL_FIELDS.get(column, column))
    if column == "value":
        return repr(float(value))
    # the flag is written lower-case; csv writes a None subclass as an empty cell
    return str(value).lower() if column == "higher_is_better" else value


def load_scores(path) -> list[ScoreRecord]:
    """Read a score CSV with the fixed SCORE_COLUMNS header."""
    records = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(text for _, text in _text_lines(path, fh))
        if tuple(next(reader, ())) != SCORE_COLUMNS:
            raise FeatureFileError(
                f"{path}: header must be {','.join(SCORE_COLUMNS)}")
        # a quoted newline spreads a row over several lines: each error names
        # the line its row starts on
        line_no = reader.line_num + 1
        for row in reader:
            if len(row) != len(SCORE_COLUMNS):
                raise FeatureFileError(
                    f"{path}: line {line_no}: expected {len(SCORE_COLUMNS)} columns, "
                    f"got {len(row)}")
            try:
                records.append(ScoreRecord(**{LABEL_FIELDS.get(column, column): _parse_cell(column, cell)
                                              for column, cell in zip(SCORE_COLUMNS, row)}))
            except ValueError as exc:
                raise FeatureFileError(f"{path}: line {line_no}: {exc}") from None
            line_no = reader.line_num + 1
    if not records:
        raise FeatureFileError(f"{path}: no score rows")
    return records


def _write_table(records, columns, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_format_cell(rec, column) for column in columns] for rec in records)


def write_scores(records, path) -> None:
    _write_table(records, SCORE_COLUMNS, path)


def write_category_scores(records: list[CategoryScore], path) -> None:
    _write_table(records, CATEGORY_COLUMNS, path)
