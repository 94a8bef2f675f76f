"""Feature-space evaluation metrics and score-table utilities.

Vector metrics operate on (n, d) arrays of embeddings; rows are normalized
to unit length first, and zero-norm rows are rejected. Gram/style metrics
operate on raw (C, H, W) feature maps. Both take real input only; complex
arrays raise ComplexInputError. Score tables are flat records that
can be rank-normalized per group and aggregated bottom-up.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from .tensor_core import ShapeError, as_tensor, sym_eig

__all__ = [
    "MEASURES",
    "ScoreRecord",
    "CategoryScore",
    "avg_cosine_similarity",
    "squared_centroid_distance",
    "intra_dissimilarity",
    "variance_normalized",
    "dissim_variance_identity_residual",
    "text_image_alignment",
    "vendi_score",
    "grouped_vendi",
    "gram_matrix",
    "style_loss",
    "diversity_ratio",
    "subsample",
    "rank_normalize",
    "aggregate_scores",
    "balance_repeats",
]

MEASURES = ("vendi", "intra_dissimilarity", "variance")


def _vectors(a, name: str = "vectors") -> np.ndarray:
    arr = as_tensor(a, name)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be a (n, d) array, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError(f"{name} must contain at least one vector")
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


def avg_cosine_similarity(a, b) -> float:
    """Mean cosine similarity over all cross pairs of the two sets.

    The mean of all n * m dot products is the dot product of the two
    centroids, so no (n, m) matrix is built.
    """
    na, nb = _normalized(a, "first set"), _normalized(b, "second set")
    if na.shape[1] != nb.shape[1]:
        raise ShapeError(f"vector widths differ: {na.shape} vs {nb.shape}")
    return float(na.mean(axis=0) @ nb.mean(axis=0))


def squared_centroid_distance(a, b) -> float:
    """Squared distance between the centroids of the normalized sets."""
    na, nb = _normalized(a, "first set"), _normalized(b, "second set")
    if na.shape[1] != nb.shape[1]:
        raise ShapeError(f"vector widths differ: {na.shape} vs {nb.shape}")
    gap = na.mean(axis=0) - nb.mean(axis=0)
    return float(gap @ gap)


def intra_dissimilarity(a) -> float:
    """1 - mean pairwise cosine of a set with itself (self pairs included).

    The mean pairwise cosine is the squared norm of the centroid.
    """
    centroid = _normalized(a).mean(axis=0)
    return 1.0 - float(centroid @ centroid)


def variance_normalized(a) -> float:
    """Mean squared distance of normalized vectors from their centroid.

    Computed directly from deviations, not from the centroid norm, so that
    it checks intra_dissimilarity by the identity
    1 - cossim(S, S) = Var(S-normalized).
    """
    na = _normalized(a)
    centered = na - na.mean(axis=0)
    return float(np.mean(np.sum(centered * centered, axis=1)))


def dissim_variance_identity_residual(a, b) -> float:
    """Residual of 1 - cossim(A, B) == 0.5 (||mean gap||^2 + Var A + Var B)."""
    lhs = 1.0 - avg_cosine_similarity(a, b)
    rhs = 0.5 * (squared_centroid_distance(a, b)
                 + variance_normalized(a) + variance_normalized(b))
    return abs(lhs - rhs)


def text_image_alignment(images, texts) -> float:
    """Mean cosine similarity of index-paired image/text embeddings."""
    ni, nt = _normalized(images, "image set"), _normalized(texts, "text set")
    if ni.shape != nt.shape:
        raise ShapeError(f"paired sets must match in shape: {ni.shape} vs {nt.shape}")
    return float(np.mean(np.sum(ni * nt, axis=1)))


def vendi_score(a) -> float:
    """Effective diversity: exp of the entropy of the similarity spectrum.

    With K the cosine Gram matrix of the normalized set, the score is
    exp(-sum lambda_i log lambda_i) over eigenvalues of K/n, using
    0 log 0 = 0. Ranges from 1 (all identical) to min(n, d) (orthogonal).

    The nonzero eigenvalues of X X^T / n (n x n) and X^T X / n (d x d) are
    the same, so the solver runs on the smaller side: the n x n Gram when
    n <= d, the d x d second-moment matrix when n > d, in O(n d min(n, d))
    time. The eigensolver's size cap (SYM_EIG_MAX_SIZE) therefore applies
    to min(n, d): groups of any size score while d is within it.
    """
    na = _normalized(a)
    n, d = na.shape
    kernel = na @ na.T if n <= d else na.T @ na
    values = sym_eig(kernel / n)
    values = np.clip(values, 0.0, None)
    positive = values[values > 0.0]
    entropy = -float(np.sum(positive * np.log(positive)))
    return float(np.exp(entropy))


def grouped_vendi(vectors, labels, singletons: str) -> tuple[dict[str, float], float]:
    """Per-group vendi scores plus their mean, grouping rows by label.

    singletons must be 'skip' (drop groups of one) or 'include' (a single
    vector scores exactly 1). There is no default; callers choose.
    """
    arr = _vectors(vectors)
    tags = list(labels)
    if len(tags) != arr.shape[0]:
        raise ValueError(f"{len(tags)} labels for {arr.shape[0]} vectors")
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
        scores[tag] = vendi_score(arr[idx])
    if not scores:
        raise ValueError("no groups left to score (all singletons skipped)")
    return scores, float(np.mean(list(scores.values())))


def gram_matrix(feature_map) -> np.ndarray:
    """Channel covariance G = F F^T / (C H W) of a (C, H, W) feature map."""
    fm = as_tensor(feature_map, "feature map")
    if fm.ndim != 3:
        raise ShapeError(f"feature map must be (C, H, W), got shape {fm.shape}")
    c, h, w = fm.shape
    flat = fm.reshape(c, h * w)
    return (flat @ flat.T) / (c * h * w)


def style_loss(maps_a, maps_b) -> float:
    """Sum over layers of squared Frobenius distance between Gram matrices."""
    la, lb = list(maps_a), list(maps_b)
    if len(la) != len(lb):
        raise ValueError(f"layer count mismatch: {len(la)} vs {len(lb)}")
    if not la:
        raise ValueError("style loss requires at least one layer")
    total = 0.0
    for i, (fa, fb) in enumerate(zip(la, lb)):
        ga, gb = gram_matrix(fa), gram_matrix(fb)
        if ga.shape != gb.shape:
            raise ShapeError(f"channel mismatch at layer {i}: {ga.shape} vs {gb.shape}")
        diff = ga - gb
        total += float(np.sum(diff * diff))
    return total


def subsample(vectors, limit: int, seed=0) -> np.ndarray:
    """Seeded without-replacement subsample to at most `limit` rows.

    Row order is preserved. Sets already within the limit come back whole.
    """
    arr = _vectors(vectors)
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if arr.shape[0] <= limit:
        return arr.copy()
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(arr.shape[0], size=limit, replace=False))
    return arr[keep].copy()


def diversity_ratio(class_vectors, dataset_vectors, measure: str) -> float:
    """Class diversity relative to whole-dataset diversity, same measure."""
    fns = {
        "vendi": vendi_score,
        "intra_dissimilarity": intra_dissimilarity,
        "variance": variance_normalized,
    }
    if measure not in fns:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    fn = fns[measure]
    denom = fn(dataset_vectors)
    if denom == 0.0:
        raise ValueError("dataset diversity is zero; ratio undefined")
    return fn(class_vectors) / denom


# ---------------------------------------------------------------------------
# score tables


@dataclass(frozen=True)
class ScoreRecord:
    """One scalar result of evaluating a checkpoint on a labeled slice."""

    checkpoint: str
    category: str
    class_name: str
    subclass: str | None
    prompt_type: str
    metric: str
    value: float
    higher_is_better: bool = True


@dataclass(frozen=True)
class CategoryScore:
    """Aggregated per-category value for one checkpoint and metric."""

    checkpoint: str
    category: str
    prompt_type: str
    metric: str
    value: float


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
        if not math.isfinite(rec.value):
            raise ValueError(f"non-finite score for checkpoint {rec.checkpoint!r}")
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
        sorted_vals = goodness[order]
        start = 0
        while start < n:
            stop = start
            while stop < n and sorted_vals[stop] == sorted_vals[start]:
                stop += 1
            scores[start:stop] = positional[start:stop].mean()
            start = stop
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
    recs = list(records)
    for rec in recs:
        for label in ("checkpoint", "category", "class_name", "prompt_type", "metric"):
            if not getattr(rec, label):
                raise ValueError(f"record missing {label}: {rec}")
    by_class: dict[tuple, list[ScoreRecord]] = defaultdict(list)
    for rec in recs:
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
    convention is fixed here).
    """
    if target < 1:
        raise ValueError(f"target must be positive, got {target}")
    counts = list(sizes)
    if not counts:
        raise ValueError("at least one class size is required")
    out = []
    for size in counts:
        if not isinstance(size, (int, np.integer)) or size < 1:
            raise ValueError(f"class sizes must be positive integers, got {size!r}")
        out.append(max(1, math.floor(target / size + 0.5)))
    return out
