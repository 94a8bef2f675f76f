import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltafactor import metrics as mt
from deltafactor.features import write_category_scores
from deltafactor.tensor_core import SYM_EIG_MAX_SIZE, ComplexInputError, NumericalError, ShapeError

E1 = [1.0, 0.0]
E2 = [0.0, 1.0]
DIAG = [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)]


class TestAvgCosineSimilarity:
    def test_orthogonal(self):
        assert mt.avg_cosine_similarity([E1], [E2]) == 0.0

    def test_scale_invariance(self):
        assert mt.avg_cosine_similarity([[2.0, 0.0]], [[1.0, 0.0]]) == pytest.approx(1.0)

    def test_mixed_pair_mean(self):
        got = mt.avg_cosine_similarity([E1, E2], [DIAG])
        assert got == pytest.approx(0.70710678, abs=1e-8)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero-norm"):
            mt.avg_cosine_similarity([[0.0, 0.0]], [E1])

    def test_rejects_complex_vectors(self):
        # a real cosine of complex rows would drop the conjugate silently
        with pytest.raises(ComplexInputError, match="first set"):
            mt.avg_cosine_similarity([[1.0, 1j]], [E1])
        with pytest.raises(ComplexInputError):
            mt.vendi_score([[1.0, 0.0], [1j, 1.0]])

    def test_rejects_width_mismatch(self):
        with pytest.raises(ShapeError, match="widths"):
            mt.avg_cosine_similarity([E1], [[1.0, 0.0, 0.0]])


class TestExtremeMagnitudes:
    """Rows whose sum of squares leaves the float64 range normalize as their rescaled selves."""

    HUGE = [[1e308, 1e308], [1e308, -1e308]]
    UNIT = [[1.0, 1.0], [1.0, -1.0]]

    @pytest.mark.filterwarnings("error")
    def test_huge_rows(self):
        huge, unit = self.HUGE, self.UNIT
        assert mt.avg_cosine_similarity(huge, huge) == mt.avg_cosine_similarity(unit, unit)
        assert mt.avg_cosine_similarity(huge, huge) == pytest.approx(0.5)
        assert mt.vendi_score(huge) == mt.vendi_score(unit) == pytest.approx(2.0)
        assert mt.text_image_alignment(huge, huge) == mt.text_image_alignment(unit, unit)
        assert mt.text_image_alignment(huge, huge) == pytest.approx(1.0)

    def test_tiny_row_is_not_zero(self):
        got = mt.avg_cosine_similarity([[1e-200, 1e-200]], [E1])
        assert got == mt.avg_cosine_similarity([[1.0, 1.0]], [E1]) == pytest.approx(DIAG[0])
        with pytest.raises(ValueError, match="zero-norm vector at row 2 "):
            mt.avg_cosine_similarity([[1e-200, 0.0], E1, [0.0, 0.0], [0.0, 0.0]], [E1])

    def test_ordinary_rows_unchanged(self):
        rows = np.random.default_rng(2).standard_normal((5, 3))
        mixed = np.vstack([rows[:2], [[1e308, -1e308, 1e308], [0.0, 1e-300, 0.0]], rows[2:]])
        got = mt._normalized(mixed)
        want = rows / np.linalg.norm(rows, axis=1)[:, None]
        assert np.array_equal(np.delete(got, [2, 3], axis=0), want)
        np.testing.assert_allclose(got[2], np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0), rtol=1e-15)
        assert np.array_equal(got[3], [0.0, 1.0, 0.0])


class TestSquaredCentroidDistance:
    def test_identical_sets(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((5, 3))
        assert mt.squared_centroid_distance(s, s) == 0.0

    def test_orthogonal_singletons(self):
        assert mt.squared_centroid_distance([E1], [E2]) == pytest.approx(2.0)

    def test_rejects_width_mismatch(self):
        with pytest.raises(ShapeError, match="vector widths differ"):
            mt.squared_centroid_distance([E1], [[1.0, 0.0, 0.0]])

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal((6, 4))
        t = rng.standard_normal((4, 4))
        scales = rng.uniform(0.1, 10.0, size=(6, 1))
        base = mt.squared_centroid_distance(s, t)
        assert mt.squared_centroid_distance(s * scales, t) == pytest.approx(
            base, rel=1e-12)


class TestIntraDissimilarityAndVariance:
    def test_identical_set_is_zero(self):
        s = [[1.0, 2.0]] * 4
        assert mt.intra_dissimilarity(s) == pytest.approx(0.0, abs=1e-15)
        assert mt.variance_normalized(s) == pytest.approx(0.0, abs=1e-15)

    def test_orthonormal_pair(self):
        assert mt.intra_dissimilarity([E1, E2]) == pytest.approx(0.5)

    @given(st.integers(2, 30), st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_identity_between_measures(self, n, d, seed):
        s = np.random.default_rng(seed).standard_normal((n, d))
        assert abs(mt.intra_dissimilarity(s) - mt.variance_normalized(s)) < 1e-12


class TestDissimVarianceIdentity:
    @staticmethod
    def residual(a, b):
        # 1 - cossim(A, B) == 0.5 (||centroid gap||^2 + Var A + Var B)
        lhs = 1.0 - mt.avg_cosine_similarity(a, b)
        rhs = 0.5 * (mt.squared_centroid_distance(a, b)
                     + mt.variance_normalized(a) + mt.variance_normalized(b))
        return abs(lhs - rhs)

    def test_unit_singletons_polarization(self):
        # 1 - <u, v> == ||u - v||^2 / 2 for unit vectors
        assert self.residual([E1], [E2]) < 1e-15

    def test_same_set_reduces_to_variance(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal((10, 5))
        assert self.residual(s, s) < 1e-12

    def test_random_fifty_vector_sets(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((50, 8))
            b = rng.standard_normal((50, 8))
            assert self.residual(a, b) < 1e-10


class TestTextImageAlignment:
    def test_identical_pairs(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal((7, 6))
        assert mt.text_image_alignment(s, s) == pytest.approx(1.0)

    def test_orthogonal_pairs(self):
        assert mt.text_image_alignment([E1, E2], [E2, E1]) == pytest.approx(0.0)

    def test_mixed_pairs(self):
        assert mt.text_image_alignment([E1, E1], [E1, E2]) == pytest.approx(0.5)

    def test_rejects_count_mismatch(self):
        with pytest.raises(ShapeError, match="match"):
            mt.text_image_alignment([E1, E2], [E1])


class TestVendiScore:
    def test_identical_copies(self):
        assert mt.vendi_score([[3.0, 4.0]] * 5) == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_triple(self):
        assert mt.vendi_score(np.eye(3)) == pytest.approx(3.0, abs=1e-12)

    def test_mixed_triple_closed_form(self):
        got = mt.vendi_score([E1, E2, DIAG])
        # eigenvalues of K/3 are {2/3, 1/3, 0}: score = 3 / 2^(2/3)
        assert got == pytest.approx(1.88988, abs=1e-4)
        assert got == pytest.approx(3.0 / 2.0 ** (2.0 / 3.0), rel=1e-12)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal((6, 4))
        doubled = np.vstack([s, s])
        assert abs(mt.vendi_score(doubled) - mt.vendi_score(s)) < 1e-8

    def test_bounded_by_count(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal((9, 5))
        score = mt.vendi_score(s)
        assert 1.0 <= score <= 9.0 + 1e-12

    def test_single_vectors_score_exactly_one(self):
        # the promise of grouped_vendi's "include": a group of one scores 1
        x = np.random.default_rng(13).standard_normal((2000, 16))
        scores, _ = mt.grouped_vendi(x, range(2000), singletons="include")
        assert set(scores.values()) == {1.0}

    def test_eigvalsh_failure_is_a_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericalError,
                           match="^eigendecomposition did not converge: Eigenvalues did not converge$"):
            mt.vendi_score([E1, E2, DIAG])

    def test_identical_rows_score_at_least_one(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            row = rng.standard_normal(int(rng.integers(1, 64)))
            assert mt.vendi_score(np.tile(row, (int(rng.integers(2, 40)), 1))) >= 1.0


def vendi_from_gram(x) -> float:
    """Reference Vendi score from eigvalsh of the n x n cosine kernel."""
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    values = np.clip(np.linalg.eigvalsh(unit @ unit.T / len(x)), 0.0, None)
    values = values[values > 0.0]
    return math.exp(-float(np.sum(values * np.log(values))))


@st.composite
def vector_sets(draw):
    """(n, d) sets with n below, at or above d: generic, duplicated or rank-deficient."""
    d = draw(st.integers(1, 24))
    n = {"below": max(1, d - draw(st.integers(1, 24))), "equal": d,
         "above": d + draw(st.integers(1, 40))}[draw(st.sampled_from(["below", "equal", "above"]))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["generic", "duplicated", "rank-deficient"]))
    if kind == "generic":
        return rng.standard_normal((n, d))
    if kind == "duplicated":
        base = rng.standard_normal((draw(st.integers(1, 4)), d))
        return base[rng.integers(0, len(base), n)] * rng.uniform(0.5, 2.0, (n, 1))
    rank = draw(st.integers(1, max(1, min(n, d) - 1)))
    return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))


class TestVendiSides:
    """The d x d form used for n > d agrees with the n x n kernel."""

    @given(vector_sets())
    @settings(max_examples=200, deadline=None)
    def test_matches_gram_eigenvalues(self, x):
        assert mt.vendi_score(x) == pytest.approx(vendi_from_gram(x), rel=1e-12)

    def test_group_above_the_eigensolver_cap(self):
        n = SYM_EIG_MAX_SIZE + 4
        x = np.random.default_rng(12).standard_normal((n, 8))
        assert 1.0 <= mt.vendi_score(x) <= 8.0

    def test_the_cap_applies_to_the_short_side(self, monkeypatch):
        monkeypatch.setattr(mt, "SYM_EIG_MAX_SIZE", 3)
        x = np.random.default_rng(13).standard_normal((4, 4))
        with pytest.raises(ShapeError, match="^matrix size 4 exceeds eigensolver cap 3$"):
            mt.vendi_score(x)
        assert 1.0 <= mt.vendi_score(x[:, :3]) <= 3.0
        assert 1.0 <= mt.vendi_score(x[:3]) <= 3.0


class TestGroupedVendi:
    def test_per_group_scores(self):
        vectors = np.vstack([np.eye(3), [[1.0, 0.0, 0.0]] * 2])
        labels = ["a", "a", "a", "b", "b"]
        scores, mean = mt.grouped_vendi(vectors, labels, singletons="skip")
        assert scores["a"] == pytest.approx(3.0, abs=1e-12)
        assert scores["b"] == pytest.approx(1.0, abs=1e-12)
        assert mean == pytest.approx(2.0, abs=1e-12)

    def test_singleton_skip_vs_include(self):
        vectors = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        labels = ["pair", "pair", "solo"]
        skipped, _ = mt.grouped_vendi(vectors, labels, singletons="skip")
        assert "solo" not in skipped
        included, _ = mt.grouped_vendi(vectors, labels, singletons="include")
        assert included["solo"] == pytest.approx(1.0, abs=1e-12)

    def test_all_singletons_skipped_is_error(self):
        with pytest.raises(ValueError, match="singletons"):
            mt.grouped_vendi([[1.0, 0.0], [0.0, 1.0]], ["a", "b"],
                             singletons="skip")

    def test_mode_is_mandatory(self):
        with pytest.raises(ValueError, match="skip|include"):
            mt.grouped_vendi([[1.0, 0.0]], ["a"], singletons="drop")

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            mt.grouped_vendi([[1.0, 0.0]], ["a", "b"], singletons="skip")

    def test_zero_row_of_a_skipped_singleton_is_refused(self):
        # the rows are checked as one set, before any group is skipped
        with pytest.raises(ValueError, match="zero-norm vector at row 2 of vectors"):
            mt.grouped_vendi([E1, E2, [0.0, 0.0]], ["a", "a", "b"], singletons="skip")

    def test_each_group_scores_as_alone(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((9, 4)) * 10.0 ** rng.integers(-200, 200, (9, 1))
        tags = ["a", "b", "c"] * 3
        scores, _ = mt.grouped_vendi(x, tags, singletons="skip")
        for tag in "abc":
            assert scores[tag] == mt.vendi_score(x[[t == tag for t in tags]])


class TestGramAndStyle:
    def test_gram_rejects_complex_map(self):
        with pytest.raises(ComplexInputError):
            mt.style_loss([[[[1.0 + 1j]]]], [[[[0.0]]]])

    @pytest.mark.filterwarnings("error")
    def test_style_overflow_names_the_layer(self):
        small, zero = np.ones((1, 2, 2)), np.zeros((1, 2, 2))
        with pytest.raises(NumericalError, match=r"^layer 1: the Gram matrix of a \(1, 2, 2\) "):
            mt.style_loss([small, small], [small, np.full((1, 2, 2), -1e200)])
        # Gram matrices of 1e200 are finite; their squared distance is not
        with pytest.raises(NumericalError, match=r"^layer 1: the style loss overflows float64$"):
            mt.style_loss([small, np.full((1, 2, 2), 1e100)], [small, zero])
        # nor is the sum of two finite layer losses near the float64 maximum
        near_max = np.full((1, 1, 1), 1e77)
        with pytest.raises(NumericalError, match=r"^layer 1: the style loss overflows float64$"):
            mt.style_loss([near_max, near_max], [np.zeros((1, 1, 1))] * 2)

    @pytest.mark.filterwarnings("error")
    def test_style_checks_each_layer_in_turn(self):
        # a long double map beyond the float64 range casts to inf and is
        # refused as a non-finite map, with no numpy warning; an earlier
        # layer's overflow is reported first
        ok, big = np.ones((1, 2, 2)), np.full((1, 2, 2), np.longdouble("1e400"))
        with pytest.raises(ValueError, match=r"^feature map holds a non-finite value at flat index 0"):
            mt.style_loss([ok, big], [ok, ok])
        with pytest.raises(NumericalError, match=r"^layer 0: the Gram matrix of a \(1, 2, 2\) "):
            mt.style_loss([np.full((1, 2, 2), 1e200), big], [ok, ok])

    def test_identical_maps_zero_loss(self):
        rng = np.random.default_rng(8)
        maps = [rng.standard_normal((4, 3, 3)), rng.standard_normal((8, 2, 2))]
        assert mt.style_loss(maps, maps) == 0.0

    def test_unit_map_example(self):
        assert mt.style_loss([[[[2.0]]]], [[[[0.0]]]]) == pytest.approx(16.0)

    def test_pixel_permutation_invariance(self):
        rng = np.random.default_rng(9)
        fm = rng.standard_normal((4, 3, 5))
        ref = rng.standard_normal((4, 2, 2))
        flat = fm.reshape(4, 15)
        shuffled = flat[:, rng.permutation(15)].reshape(4, 3, 5)
        assert mt.style_loss([fm], [ref]) == pytest.approx(
            mt.style_loss([shuffled], [ref]), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        a = [rng.standard_normal((3, 4, 4))]
        b = [rng.standard_normal((3, 5, 2))]
        assert mt.style_loss(a, b) == pytest.approx(mt.style_loss(b, a), rel=1e-15)

    def test_spatial_sizes_may_differ(self):
        a = [np.ones((2, 3, 3))]
        b = [np.ones((2, 5, 5))]
        assert mt.style_loss(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channel"):
            mt.style_loss([np.ones((2, 2, 2))], [np.ones((3, 2, 2))])

    def test_layer_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="layer count"):
            mt.style_loss([np.ones((2, 2, 2))], [])

    def test_no_layers_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            mt.style_loss([], [])


class TestSubsample:
    def test_within_limit_returned_whole(self):
        s = np.arange(12, dtype=float).reshape(4, 3)
        np.testing.assert_array_equal(mt.subsample(s, 4), s)
        np.testing.assert_array_equal(mt.subsample(s, 10), s)

    def test_seeded_and_order_preserving(self):
        rng = np.random.default_rng(11)
        s = rng.standard_normal((30, 2))
        a = mt.subsample(s, 10, seed=3)
        b = mt.subsample(s, 10, seed=3)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (10, 2)
        rows = [np.flatnonzero((s == row).all(axis=1))[0] for row in a]
        assert rows == sorted(rows)

    def test_different_seeds_differ(self):
        s = np.arange(100, dtype=float).reshape(50, 2)
        a = mt.subsample(s, 5, seed=0)
        b = mt.subsample(s, 5, seed=1)
        assert not np.array_equal(a, b)

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError, match="limit"):
            mt.subsample(np.ones((3, 2)), 0)

    @pytest.mark.parametrize("limit", [True, 2.5], ids=["bool", "float"])
    def test_rejects_non_integer_limit(self, limit):
        with pytest.raises(ValueError, match="limit"):
            mt.subsample(np.ones((3, 2)), limit)

    @pytest.mark.parametrize("seed", [-1, True], ids=["negative", "bool"])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        # refused whether or not the set needs a draw
        for limit in (2, 3):
            with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed!r}$"):
                mt.subsample(np.ones((3, 2)), limit, seed=seed)


class TestDiversityRatio:
    def test_same_set_is_one(self):
        rng = np.random.default_rng(12)
        s = rng.standard_normal((8, 4))
        for measure in mt.MEASURES:
            assert mt.diversity_ratio(s, s, measure) == pytest.approx(1.0)

    def test_orthonormal_subset_vendi(self):
        dataset = np.eye(4)
        assert mt.diversity_ratio(dataset[:2], dataset, "vendi") == pytest.approx(0.5)

    def test_singleton_class(self):
        dataset = np.eye(3)
        got = mt.diversity_ratio(dataset[:1], dataset, "vendi")
        assert got == pytest.approx(1.0 / 3.0)

    def test_zero_denominator_rejected(self):
        identical = [[1.0, 0.0]] * 3
        with pytest.raises(ValueError, match="zero"):
            mt.diversity_ratio(identical, identical, "variance")

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="measure"):
            mt.diversity_ratio(np.eye(2), np.eye(2), "entropy")

    @pytest.mark.parametrize("measure", mt.MEASURES)
    def test_widths_must_match(self, measure):
        rng = np.random.default_rng(14)
        cls, dataset = rng.standard_normal((5, 3)), rng.standard_normal((9, 8))
        with pytest.raises(ShapeError, match=re.escape("vector widths differ: (5, 3) vs (9, 8)")):
            mt.diversity_ratio(cls, dataset, measure)

    @pytest.mark.parametrize("measure", mt.MEASURES)
    def test_equals_the_measures_quotient(self, measure):
        rng = np.random.default_rng(15)
        cls, dataset = rng.standard_normal((5, 6)), rng.standard_normal((9, 6))
        fn = {"vendi": mt.vendi_score, "intra_dissimilarity": mt.intra_dissimilarity,
              "variance": mt.variance_normalized}[measure]
        assert mt.diversity_ratio(cls, dataset, measure) == fn(cls) / fn(dataset)


def make_record(checkpoint, value, higher=True, **overrides):
    fields = dict(checkpoint=checkpoint, category="cat", class_name="cls",
                  subclass=None, prompt_type="plain", metric="m",
                  value=value, higher_is_better=higher)
    fields.update(overrides)
    return mt.ScoreRecord(**fields)


class TestScoreRecord:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True,
                                       np.float64("nan"), np.float32("inf"), "0.5", None,
                                       1j, np.array(1.0), 10 ** 400],
                             ids=["nan", "inf", "-inf", "bool", "np-nan", "f32-inf", "str", "none",
                                  "complex", "0d-array", "huge-int"])
    def test_refuses_a_value_that_is_not_a_finite_number(self, value):
        with pytest.raises(ValueError, match=re.escape(f"value must be a finite number, got {value!r}")):
            make_record("a", value)

    @pytest.mark.parametrize("value", [0, -0.0, 5e-324, np.float32(0.5), np.int64(3),
                                       float(np.finfo(np.float64).max)])
    def test_accepts_finite_numbers(self, value):
        assert make_record("a", value).value == value

    @pytest.mark.parametrize("flag", ["false", "true", 1, None, np.bool_(True)],
                             ids=["str-false", "str-true", "int", "none", "np-bool"])
    def test_refuses_a_flag_that_is_not_a_bool(self, flag):
        with pytest.raises(ValueError, match=re.escape(f"higher_is_better must be a bool, got {flag!r}")):
            make_record("a", 1.0, higher=flag)

    @pytest.mark.parametrize("label", ["", None, 3], ids=["empty", "none", "int"])
    @pytest.mark.parametrize("field", ["checkpoint", "category", "class_name", "prompt_type", "metric"])
    def test_refuses_each_bad_label(self, field, label):
        fields = dict(checkpoint="a", category="cat", class_name="cls", subclass=None,
                      prompt_type="plain", metric="m", value=1.0)
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a non-empty string, got {label!r}")):
            mt.ScoreRecord(**{**fields, field: label})

    @pytest.mark.parametrize("label", ["", 3], ids=["empty", "int"])
    def test_subclass_is_none_or_a_non_empty_string(self, label):
        message = f"subclass must be None or a non-empty string, got {label!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            make_record("a", 1.0, subclass=label)

    def test_replace_checks_again(self):
        with pytest.raises(ValueError, match="value must be a finite number, got nan"):
            dataclasses.replace(make_record("a", 1.0), value=float("nan"))

    # each input once gave a silent wrong answer: a nan category mean, a
    # ranking reversed by a true "false" string, and "" grouped as a label
    @pytest.mark.parametrize("consume, overrides, message", [
        (mt.aggregate_scores, {"value": float("nan")}, "value must be a finite number, got nan"),
        (mt.aggregate_scores, {"value": float("inf")}, "value must be a finite number, got inf"),
        (mt.rank_normalize, {"higher": "false"}, "higher_is_better must be a bool, got 'false'"),
        (mt.aggregate_scores, {"category": ""}, "category must be a non-empty string, got ''"),
        (mt.rank_normalize, {"subclass": ""}, "subclass must be None or a non-empty string, got ''"),
    ], ids=["nan-mean", "inf-mean", "string-flag", "empty-category", "empty-subclass"])
    def test_consumers_never_see_a_refused_record(self, consume, overrides, message):
        def records():
            yield make_record("a", 1.0)
            yield make_record("b", **{"value": 2.0, **overrides})
        with pytest.raises(ValueError, match=re.escape(message)):
            consume(records())


class TestCategoryScore:
    """A category row is checked by the rule of the score rows it rolls up."""

    FIELDS = dict(checkpoint="a", category="cat", prompt_type="plain", metric="m", value=1.0)

    def test_refused_row_is_never_written(self, tmp_path):
        # once written as the row ",a,,m,nan"
        path = tmp_path / "c.csv"
        with pytest.raises(ValueError, match="checkpoint must be a non-empty string, got ''"):
            write_category_scores([mt.CategoryScore("", "a", None, "m", float("nan"))], path)
        assert not path.exists()

    @pytest.mark.parametrize("label", ["", None, 3], ids=["empty", "none", "int"])
    @pytest.mark.parametrize("field", ["checkpoint", "category", "prompt_type", "metric"])
    def test_refuses_each_bad_label(self, field, label):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a non-empty string, got {label!r}")):
            mt.CategoryScore(**{**self.FIELDS, field: label})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "0.5", 10 ** 400],
                             ids=["nan", "inf", "bool", "str", "huge-int"])
    def test_refuses_a_value_that_is_not_a_finite_number(self, value):
        with pytest.raises(ValueError, match=re.escape(f"value must be a finite number, got {value!r}")):
            mt.CategoryScore(**{**self.FIELDS, "value": value})

    def test_a_mean_beyond_float_range_is_refused(self):
        # both values are finite, their mean overflows to inf
        big = float(np.finfo(np.float64).max)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="value must be a finite number, got inf"):
            mt.aggregate_scores([make_record("a", big), make_record("a", big, class_name="other")])


class TestRankNormalize:
    def test_definitional_example(self):
        records = [make_record("a", 3.2), make_record("b", 1.1),
                   make_record("c", 2.7)]
        out = mt.rank_normalize(records)
        assert [r.value for r in out] == [1.0, 0.0, 0.5]
        assert all(r.higher_is_better for r in out)

    def test_lower_is_better(self):
        records = [make_record("a", 3.2, higher=False),
                   make_record("b", 1.1, higher=False),
                   make_record("c", 2.7, higher=False)]
        out = mt.rank_normalize(records)
        assert [r.value for r in out] == [0.0, 1.0, 0.5]

    def test_ties_share_mean_position(self):
        records = [make_record("a", 5.0), make_record("b", 5.0),
                   make_record("c", 1.0)]
        out = mt.rank_normalize(records)
        assert [r.value for r in out] == [0.75, 0.75, 0.0]

    def test_groups_normalized_independently(self):
        records = [make_record("a", 10.0), make_record("b", 20.0),
                   make_record("a", 5.0, metric="m2"),
                   make_record("b", 1.0, metric="m2")]
        out = mt.rank_normalize(records)
        assert [r.value for r in out] == [0.0, 1.0, 1.0, 0.0]

    def test_no_tie_groups_have_exact_extremes(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            values = rng.permutation(n).astype(float)
            records = [make_record(f"c{i}", v) for i, v in enumerate(values)]
            out = [r.value for r in mt.rank_normalize(records)]
            assert out.count(1.0) == 1
            assert out.count(0.0) == 1
            assert all(0.0 <= v <= 1.0 for v in out)

    def test_singleton_group_rejected(self):
        with pytest.raises(ValueError, match="single"):
            mt.rank_normalize([make_record("a", 1.0)])

    def test_mixed_flags_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            mt.rank_normalize([make_record("a", 1.0),
                               make_record("b", 2.0, higher=False)])

    def test_duplicate_checkpoints_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            mt.rank_normalize([make_record("a", 1.0), make_record("a", 2.0)])

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError, match="value must be a finite number, got nan"):
            mt.rank_normalize([make_record("a", float("nan")),
                               make_record("b", 1.0)])


class TestAggregateScores:
    def test_two_stage_mean(self):
        records = [
            make_record("ck", 0.2, class_name="c1", subclass="s1"),
            make_record("ck", 0.4, class_name="c1", subclass="s2"),
            make_record("ck", 0.9, class_name="c2"),
        ]
        out = mt.aggregate_scores(records)
        assert len(out) == 1
        assert out[0].value == pytest.approx(0.6)
        assert out[0].checkpoint == "ck"

    def test_single_class_passthrough(self):
        out = mt.aggregate_scores([make_record("ck", 0.7)])
        assert len(out) == 1
        assert out[0].value == pytest.approx(0.7)

    def test_all_equal_scores(self):
        records = [
            make_record("ck", 0.3, class_name="c1", subclass="s1"),
            make_record("ck", 0.3, class_name="c1", subclass="s2"),
            make_record("ck", 0.3, class_name="c2"),
        ]
        assert mt.aggregate_scores(records)[0].value == pytest.approx(0.3)

    def test_checkpoints_kept_separate(self):
        records = [make_record("a", 0.1), make_record("b", 0.9)]
        out = {c.checkpoint: c.value for c in mt.aggregate_scores(records)}
        assert out == {"a": pytest.approx(0.1), "b": pytest.approx(0.9)}

    def test_missing_label_rejected(self):
        with pytest.raises(ValueError, match="category must be a non-empty string, got ''"):
            mt.aggregate_scores([make_record("ck", 0.5, category="")])

    def test_mixed_subclass_and_plain_rejected(self):
        records = [
            make_record("ck", 0.2, class_name="c1", subclass="s1"),
            make_record("ck", 0.4, class_name="c1"),
        ]
        with pytest.raises(ValueError, match="mixes"):
            mt.aggregate_scores(records)

    def test_duplicate_plain_records_rejected(self):
        records = [make_record("ck", 0.2), make_record("ck", 0.4)]
        with pytest.raises(ValueError, match="duplicate"):
            mt.aggregate_scores(records)

    def test_duplicate_subclasses_rejected(self):
        records = [
            make_record("ck", 0.2, class_name="c1", subclass="s1"),
            make_record("ck", 0.4, class_name="c1", subclass="s1"),
        ]
        with pytest.raises(ValueError, match="duplicate subclass"):
            mt.aggregate_scores(records)


ZERO_WIDTH = np.zeros((3, 0))


class TestEmptyInputs:
    @pytest.mark.parametrize("fn", [
        mt.vendi_score, mt.intra_dissimilarity, mt.variance_normalized,
        lambda a: mt.avg_cosine_similarity(a, a),
        lambda a: mt.squared_centroid_distance(a, a),
        lambda a: mt.text_image_alignment(a, a),
        lambda a: mt.grouped_vendi(a, ["x"] * len(a), singletons="include"),
        lambda a: mt.diversity_ratio(a, a, "vendi"),
        lambda a: mt.subsample(a, 2),
    ], ids=["vendi", "intra", "variance", "cossim", "centroid", "alignment", "grouped",
            "ratio", "subsample"])
    @pytest.mark.parametrize("vectors", [ZERO_WIDTH, np.zeros((0, 3))], ids=["width0", "rows0"])
    def test_vector_metrics(self, fn, vectors):
        with pytest.raises(ShapeError, match="width|at least one vector"):
            fn(vectors)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    def test_feature_maps(self, shape):
        with pytest.raises(ShapeError, match="zero extent"):
            mt.style_loss([np.zeros(shape)], [np.zeros(shape)])


class TestBalanceRepeats:
    def test_toy_sizes(self):
        assert mt.balance_repeats([12, 10, 7]) == [17, 20, 29]

    def test_scene_sizes(self):
        assert mt.balance_repeats([5, 4, 9]) == [40, 50, 22]

    def test_full_size_class(self):
        assert mt.balance_repeats([200]) == [1]

    def test_minimum_is_one(self):
        assert mt.balance_repeats([500]) == [1]

    def test_half_rounds_up(self):
        # 200 / 80 = 2.5: away from zero means 3
        assert mt.balance_repeats([80]) == [3]

    def test_custom_target(self):
        assert mt.balance_repeats([10], target=35) == [4]

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="positive integers"):
            mt.balance_repeats([0])
        with pytest.raises(ValueError, match="positive integers"):
            mt.balance_repeats([2.5])
        with pytest.raises(ValueError, match="positive integers"):
            mt.balance_repeats([True, 2])

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError, match="target"):
            mt.balance_repeats([5], target=0)

    def test_targets_beyond_float_range_round_exactly(self):
        target = 10 ** 400 + 7
        assert mt.balance_repeats([1, 2, 3, 10 ** 399], target) == [
            target, target // 2 + 1, (target + 1) // 3, 10]

    def test_exact_rounding_matches_half_away(self):
        # the float rounding it replaced, where floats hold every value exactly
        sizes = list(range(1, 40))
        for target in range(1, 120):
            want = [max(1, math.floor(target / size + 0.5)) for size in sizes]
            assert mt.balance_repeats(sizes, target) == want

    @pytest.mark.parametrize("target", [True, 2.5], ids=["bool", "float"])
    def test_rejects_non_integer_target(self, target):
        # both gave [1]
        with pytest.raises(ValueError, match="target"):
            mt.balance_repeats([5], target=target)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            mt.balance_repeats([])
