"""Feature-space evaluation metrics and score-table utilities.

Vector metrics operate on (n, d) arrays of embeddings; rows are normalized
to unit length first, and zero-norm rows are rejected. The style loss
compares the Gram matrices of raw (C, H, W) feature maps. Both take real
input only; complex arrays raise ComplexInputError, and an empty set, a
zero width or a zero map extent raises ShapeError. Score tables are flat
records that can be rank-normalized per group and aggregated bottom-up.
"""

from __future__ import annotations

import math
import numbers
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from .tensor_core import SYM_EIG_MAX_SIZE, NumericalError, ShapeError, _checked_seed, _is_count, as_tensor

__all__ = [
    "MEASURES",
    "ScoreRecord",
    "CategoryScore",
    "avg_cosine_similarity",
    "squared_centroid_distance",
    "intra_dissimilarity",
    "variance_normalized",
    "text_image_alignment",
    "vendi_score",
    "grouped_vendi",
    "style_loss",
    "diversity_ratio",
    "subsample",
    "rank_normalize",
    "aggregate_scores",
    "balance_repeats",
]

def _vectors(a, name: str = "vectors") -> np.ndarray:
    arr = as_tensor(a, name)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be a (n, d) array, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ShapeError(f"{name} must contain at least one vector")
    if arr.shape[1] < 1:
        raise ShapeError(f"{name} must have a nonzero width, got shape {arr.shape}")
    return arr


def _normalized(a, name: str = "vectors") -> np.ndarray:
    arr = _vectors(a, name)
    # a row whose sum of squares left the float64 range (norm inf, or below
    # sqrt(tiny), 0 included) is normalized after dividing it by its largest
    # |entry|; every other row is as computed
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(arr, axis=1)
    redo = np.flatnonzero((norms < np.sqrt(np.finfo(float).tiny)) | np.isinf(norms))
    if redo.size:
        peaks = np.max(np.abs(arr[redo]), axis=1)
        if not peaks.all():
            raise ValueError(f"zero-norm vector at row {int(redo[np.argmin(peaks)])} of {name}")
        arr = arr.copy()
        arr[redo] /= peaks[:, None]
        norms[redo] = np.linalg.norm(arr[redo], axis=1)
    return arr / norms[:, None]


def _normalized_pair(a, b, names=("first set", "second set"), paired: bool = False):
    """Both sets normalized; their widths must match, and their shapes if paired."""
    na, nb = _normalized(a, names[0]), _normalized(b, names[1])
    if paired and na.shape != nb.shape:
        raise ShapeError(f"paired sets must match in shape: {na.shape} vs {nb.shape}")
    if na.shape[1] != nb.shape[1]:
        raise ShapeError(f"vector widths differ: {na.shape} vs {nb.shape}")
    return na, nb


def avg_cosine_similarity(a, b) -> float:
    """Mean cosine similarity over all cross pairs of the two sets.

    The mean of all n * m dot products is the dot product of the two
    centroids, so no (n, m) matrix is built.
    """
    na, nb = _normalized_pair(a, b)
    return float(na.mean(axis=0) @ nb.mean(axis=0))


def squared_centroid_distance(a, b) -> float:
    """Squared distance between the centroids of the normalized sets."""
    na, nb = _normalized_pair(a, b)
    gap = na.mean(axis=0) - nb.mean(axis=0)
    return float(gap @ gap)


def intra_dissimilarity(a) -> float:
    """1 - mean pairwise cosine of a set with itself (self pairs included).

    The mean pairwise cosine is the squared norm of the centroid.
    """
    return _intra_dissimilarity(_normalized(a))


def _intra_dissimilarity(na: np.ndarray) -> float:
    centroid = na.mean(axis=0)
    return 1.0 - float(centroid @ centroid)


def variance_normalized(a) -> float:
    """Mean squared distance of normalized vectors from their centroid.

    Computed directly from deviations, not from the centroid norm, so that
    it checks intra_dissimilarity by the identity
    1 - cossim(S, S) = Var(S-normalized).
    """
    return _variance_normalized(_normalized(a))


def _variance_normalized(na: np.ndarray) -> float:
    centered = na - na.mean(axis=0)
    return float(np.mean(np.sum(centered * centered, axis=1)))


def text_image_alignment(images, texts) -> float:
    """Mean cosine similarity of index-paired image/text embeddings."""
    ni, nt = _normalized_pair(images, texts, ("image set", "text set"), paired=True)
    return float(np.mean(np.sum(ni * nt, axis=1)))


def vendi_score(a) -> float:
    """Effective diversity: exp of the entropy of the similarity spectrum.

    With K the cosine Gram matrix of the normalized set, the score is
    exp(-sum lambda_i log lambda_i) over eigenvalues of K/n. Eigenvalues
    at or below min(n, d) * eps * lambda_max are the solver's rounding
    noise (or 0) and are dropped; the rest are divided by their sum, so that
    they form a distribution although K/n has trace 1 only up to rounding.
    Ranges from 1 (all identical: exactly 1, as for a single vector) to
    min(n, d) (orthogonal).

    The nonzero eigenvalues of X X^T / n (n x n) and X^T X / n (d x d) are
    the same, so the solver runs on the smaller side: the n x n Gram when
    n <= d, the d x d second-moment matrix when n > d, in O(n d min(n, d))
    time. The eigensolver's size cap (SYM_EIG_MAX_SIZE) therefore applies
    to min(n, d): groups of any size score while d is within it.
    """
    return _vendi(_normalized(a))


def _vendi(na: np.ndarray) -> float:
    # vendi_score of the finite, non-empty rows that _normalized gave; their
    # Gram matrix is symmetric by construction, so eigvalsh takes it unchecked
    n, d = na.shape
    side = min(n, d)
    if side > SYM_EIG_MAX_SIZE:
        raise ShapeError(f"matrix size {side} exceeds eigensolver cap {SYM_EIG_MAX_SIZE}")
    kernel = na @ na.T if n <= d else na.T @ na
    try:
        # largest first: the sums below add the eigenvalues in this order
        values = np.linalg.eigvalsh(kernel / n)[::-1]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from None
    values = values[values > side * np.finfo(np.float64).eps * values[0]]
    values /= values.sum()
    entropy = -float(np.sum(values * np.log(values)))
    return float(np.exp(entropy))


def grouped_vendi(vectors, labels, singletons: str) -> tuple[dict[str, float], float]:
    """Per-group vendi scores plus their mean, grouping rows by label.

    singletons must be 'skip' (drop groups of one) or 'include' (a single
    vector scores exactly 1). There is no default; callers choose. Rows are
    normalized once, row by row, so a group scores as vendi_score scores it.
    """
    na = _normalized(vectors)
    tags = list(labels)
    if len(tags) != na.shape[0]:
        raise ValueError(f"{len(tags)} labels for {na.shape[0]} vectors")
    if singletons not in ("skip", "include"):
        raise ValueError(f"singletons must be 'skip' or 'include', got {singletons!r}")
    rows = defaultdict(list)
    for i, tag in enumerate(tags):
        rows[str(tag)].append(i)
    scores: dict[str, float] = {}
    for tag in sorted(rows):
        idx = rows[tag]
        if len(idx) == 1 and singletons == "skip":
            continue
        scores[tag] = _vendi(na[idx])
    if not scores:
        raise ValueError("no groups left to score (all singletons skipped)")
    return scores, float(np.mean(list(scores.values())))


def _feature_map(data) -> np.ndarray:
    fm = as_tensor(data, "feature map")
    if fm.ndim != 3:
        raise ShapeError(f"feature map must be (C, H, W), got shape {fm.shape}")
    if fm.size == 0:
        raise ShapeError(f"feature map has a zero extent: {fm.shape}")
    return fm


def _gram(fm: np.ndarray) -> np.ndarray:
    c, h, w = fm.shape
    flat = fm.reshape(c, h * w)
    return (flat @ flat.T) / (c * h * w)


def _gram_overflow(fm: np.ndarray) -> str:
    return (f"the Gram matrix of a {fm.shape} feature map with max |value| "
            f"{float(np.max(np.abs(fm)))!r} overflows float64")


def style_loss(maps_a, maps_b) -> float:
    """Sum over layers of squared Frobenius distance between Gram matrices.

    A Gram matrix or a loss that leaves the float64 range raises
    NumericalError naming the layer.
    """
    la, lb = list(maps_a), list(maps_b)
    if len(la) != len(lb):
        raise ValueError(f"layer count mismatch: {len(la)} vs {len(lb)}")
    if not la:
        raise ValueError("style loss requires at least one layer")
    total = 0.0
    # one error state for the whole loss, not one per Gram matrix (each
    # entry costs about a microsecond): an overflowing Gram matrix holds inf
    # or NaN, which the running total carries to its finite test
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (fa, fb) in enumerate(zip(la, lb)):
            fa, fb = _feature_map(fa), _feature_map(fb)
            ga, gb = _gram(fa), _gram(fb)
            if ga.shape != gb.shape:
                raise ShapeError(f"channel mismatch at layer {i}: {ga.shape} vs {gb.shape}")
            diff = ga - gb
            total += float(np.sum(diff * diff))
            if not math.isfinite(total):
                for fm, g in ((fa, ga), (fb, gb)):
                    if not np.isfinite(g).all():
                        raise NumericalError(f"layer {i}: {_gram_overflow(fm)}")
                raise NumericalError(f"layer {i}: the style loss overflows float64")
    return total


def subsample(vectors, limit: int, seed=0) -> np.ndarray:
    """Seeded without-replacement subsample to at most `limit` rows.

    Row order is preserved. Sets already within the limit come back whole.
    """
    arr = _vectors(vectors)
    if not _is_count(limit):
        raise ValueError(f"limit must be positive, got {limit!r}")
    _checked_seed(seed)
    if arr.shape[0] <= limit:
        return arr.copy()
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(arr.shape[0], size=limit, replace=False))
    return arr[keep].copy()


# each measure on rows that _normalized already gave
_MEASURE_FNS = {
    "vendi": _vendi,
    "intra_dissimilarity": _intra_dissimilarity,
    "variance": _variance_normalized,
}
MEASURES = tuple(_MEASURE_FNS)


def diversity_ratio(class_vectors, dataset_vectors, measure: str) -> float:
    """Class diversity relative to whole-dataset diversity, same measure and width."""
    if measure not in _MEASURE_FNS:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    fn = _MEASURE_FNS[measure]
    ncls, nall = _normalized_pair(class_vectors, dataset_vectors, ("class set", "dataset"))
    denom = fn(nall)
    if denom == 0.0:
        raise ValueError("dataset diversity is zero; ratio undefined")
    return fn(ncls) / denom


# ---------------------------------------------------------------------------
# score tables


def _check_label(label, field: str, optional: bool) -> None:
    """The label rule of every record: a non-empty string, or None if optional."""
    if (label is not None or not optional) and not (isinstance(label, str) and label):
        raise ValueError(f"{field} must be {'None or ' if optional else ''}"
                         f"a non-empty string, got {label!r}")


@dataclass(frozen=True)
class ScoreRecord:
    """One scalar result of evaluating a checkpoint on a labeled slice; checked when built."""

    checkpoint: str
    category: str
    class_name: str
    subclass: str | None
    prompt_type: str
    metric: str
    value: float
    higher_is_better: bool = True

    def __post_init__(self):
        _check_score(self, ("checkpoint", "category", "class_name", "subclass", "prompt_type",
                            "metric"))
        if not isinstance(self.higher_is_better, bool):
            raise ValueError(f"higher_is_better must be a bool, got {self.higher_is_better!r}")


def _check_score(record, labels) -> None:
    """The rule of every score row: each label a non-empty string (subclass may be None), a finite value."""
    for field in labels:
        _check_label(getattr(record, field), field, optional=field == "subclass")
    value = record.value
    try:  # math.isfinite overflows on an int beyond float64 range
        finite = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                  and math.isfinite(value))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"value must be a finite number, got {value!r}")


@dataclass(frozen=True)
class CategoryScore:
    """Aggregated per-category value for one checkpoint and metric; checked when built."""

    checkpoint: str
    category: str
    prompt_type: str
    metric: str
    value: float

    def __post_init__(self):
        _check_score(self, ("checkpoint", "category", "prompt_type", "metric"))


def rank_normalize(records) -> list[ScoreRecord]:
    """Rank-based normalization to [0, 1] within comparison groups.

    A group is one (metric, category, class, subclass, prompt_type) slice
    across checkpoints. The best value maps to 1, the worst to 0, with
    equally spaced scores in between (respecting higher_is_better); tied
    values share the mean of the positional scores they span.
    """
    recs = list(records)
    groups: dict[tuple, list[int]] = defaultdict(list)
    for i, rec in enumerate(recs):
        key = (rec.metric, rec.category, rec.class_name, rec.subclass, rec.prompt_type)
        groups[key].append(i)
    out: list[ScoreRecord | None] = [None] * len(recs)
    for key, idx in groups.items():
        if len(idx) < 2:
            raise ValueError(f"normalization group {key} has a single member")
        flags = {recs[i].higher_is_better for i in idx}
        if len(flags) != 1:
            raise ValueError(f"mixed higher_is_better flags in group {key}")
        seen = [recs[i].checkpoint for i in idx]
        if len(set(seen)) != len(seen):
            raise ValueError(f"duplicate checkpoint in group {key}")
        better_high = flags.pop()
        goodness = np.array([recs[i].value if better_high else -recs[i].value
                             for i in idx])
        order = np.argsort(goodness, kind="stable")
        n = len(idx)
        positional = np.arange(n, dtype=np.float64) / (n - 1)
        scores = np.empty(n)
        # each run of tied values in sorted order is one unique value
        _, starts, counts = np.unique(goodness[order], return_index=True, return_counts=True)
        for start, stop in zip(starts, starts + counts):
            scores[start:stop] = positional[start:stop].mean()
        for pos, which in enumerate(order):
            out[idx[which]] = replace(recs[idx[which]],
                                      value=float(scores[pos]),
                                      higher_is_better=True)
    return out


def aggregate_scores(records) -> list[CategoryScore]:
    """Two-stage unweighted mean: subclasses -> class, then classes -> category.

    Classes without subclasses pass through stage one unchanged; mixing
    labeled and unlabeled subclasses within one class is rejected.
    """
    by_class: dict[tuple, list[ScoreRecord]] = defaultdict(list)
    for rec in records:
        by_class[(rec.checkpoint, rec.category, rec.class_name,
                  rec.prompt_type, rec.metric)].append(rec)
    class_means: dict[tuple, list[float]] = defaultdict(list)
    for key, members in by_class.items():
        tagged = [m for m in members if m.subclass is not None]
        if tagged and len(tagged) != len(members):
            raise ValueError(f"class {key[2]!r} mixes subclass and plain records")
        if not tagged and len(members) > 1:
            raise ValueError(f"class {key[2]!r} has duplicate records without subclasses")
        if tagged:
            names = [m.subclass for m in tagged]
            if len(set(names)) != len(names):
                raise ValueError(f"class {key[2]!r} has duplicate subclass records")
        value = float(np.mean([m.value for m in members]))
        checkpoint, category, _, prompt_type, metric = key
        class_means[(checkpoint, category, prompt_type, metric)].append(value)
    return [CategoryScore(checkpoint, category, prompt_type, metric,
                          float(np.mean(values)))
            for (checkpoint, category, prompt_type, metric), values
            in class_means.items()]


def balance_repeats(sizes, target: int = 200) -> list[int]:
    """Per-class repeat counts that even out effective dataset sizes.

    Each class of `size` images is repeated round(target / size) times, at
    least once, with halves rounded away from zero (no half ever arises for
    integer targets and sizes that do not divide 2 * target, but the
    convention is fixed here). The rounding is exact integer arithmetic, so
    a target of any size works.
    """
    if not _is_count(target):
        raise ValueError(f"target must be positive, got {target!r}")
    counts = list(sizes)
    if not counts:
        raise ValueError("at least one class size is required")
    out = []
    for size in counts:
        if not _is_count(size):
            raise ValueError(f"class sizes must be positive integers, got {size!r}")
        out.append(max(1, (2 * target + size) // (2 * size)))
    return out
