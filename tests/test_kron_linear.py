import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltafactor import tensor_core as tc
from deltafactor.kron_linear import (
    MacCounter,
    dense_forward,
    grouped_forward,
    grouped_forward_full,
)


def dense_oracle(c, b, a, h):
    # explicit materialization, batch handled one row at a time
    full = np.kron(np.asarray(c, float), np.asarray(b, float) @ np.asarray(a, float))
    hm = np.asarray(h, float)
    flat = hm.reshape(-1, hm.shape[-1])
    out = np.stack([full @ row for row in flat])
    return out.reshape(hm.shape[:-1] + (full.shape[0],))


class TestGroupedForward:
    def test_matches_dense_small(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 2))
        a = rng.standard_normal((2, 3))
        h = rng.standard_normal((4, 6))
        np.testing.assert_allclose(grouped_forward(c, b, a, h),
                                   dense_oracle(c, b, a, h), atol=1e-12)

    def test_degenerate_scalar_c(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((4, 2))
        a = rng.standard_normal((2, 5))
        h = rng.standard_normal(5)
        got = grouped_forward([[1.0]], b, a, h)
        np.testing.assert_allclose(got, b @ (a @ h), atol=1e-13)

    def test_zero_a_gives_zeros(self):
        out = grouped_forward(np.ones((2, 2)), np.ones((3, 2)),
                              np.zeros((2, 3)), np.ones(6))
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_non_square_sweep(self):
        rng = np.random.default_rng(2)
        for up, uq, vp, vq, r in ((1, 3, 4, 2, 1), (3, 1, 2, 5, 2),
                                  (2, 4, 5, 3, 3), (4, 4, 1, 1, 1)):
            c = rng.standard_normal((up, uq))
            b = rng.standard_normal((vp, r))
            a = rng.standard_normal((r, vq))
            h = rng.standard_normal((2, uq * vq))
            got = grouped_forward(c, b, a, h)
            assert got.shape == (2, up * vp)
            np.testing.assert_allclose(got, dense_oracle(c, b, a, h), atol=1e-11)

    def test_batch_axes_preserved(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 2))
        a = rng.standard_normal((2, 2))
        h = rng.standard_normal((5, 4, 6))
        got = grouped_forward(c, b, a, h)
        assert got.shape == (5, 4, 4)
        np.testing.assert_allclose(got, dense_oracle(c, b, a, h), atol=1e-12)

    def test_empty_batch(self):
        c, b, a = np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 2))
        assert grouped_forward(c, b, a, np.ones((0, 6))).shape == (0, 4)
        assert grouped_forward_full(c, b @ a, np.ones((4, 0, 6))).shape == (4, 0, 4)

    def test_rejects_unfactorable_input(self):
        with pytest.raises(tc.ShapeError, match="does not factor"):
            grouped_forward(np.ones((2, 2)), np.ones((2, 1)), np.ones((1, 3)),
                            np.ones(5))

    def test_rejects_inner_mismatch(self):
        with pytest.raises(tc.ShapeError, match="inner extents"):
            grouped_forward(np.ones((2, 2)), np.ones((2, 2)), np.ones((3, 2)),
                            np.ones(4))

    def test_rejects_complex(self):
        with pytest.raises(tc.ComplexInputError, match="^b is complex"):
            grouped_forward(np.ones((2, 2)), np.ones((2, 1)) * 1j, np.ones((1, 2)), np.ones(4))
        with pytest.raises(tc.ComplexInputError, match="^input is complex"):
            grouped_forward(np.ones((2, 2)), np.ones((2, 1)), np.ones((1, 2)), np.ones(4) + 0j)

    def test_rejects_vector_factor(self):
        with pytest.raises(tc.ShapeError, match="matrix"):
            grouped_forward(np.ones(2), np.ones((2, 1)), np.ones((1, 2)),
                            np.ones(4))

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_dense_property(self, up, uq, vp, vq, r, seed):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((up, uq))
        b = rng.standard_normal((vp, r))
        a = rng.standard_normal((r, vq))
        h = rng.standard_normal(uq * vq)
        got = grouped_forward(c, b, a, h)
        want = dense_oracle(c, b, a, h)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) < 1e-12 * scale


class TestGroupedForwardFull:
    def test_matches_dense(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((3, 2))
        w2 = rng.standard_normal((2, 4))
        h = rng.standard_normal((3, 8))
        want = np.stack([np.kron(c, w2) @ row for row in h])
        np.testing.assert_allclose(grouped_forward_full(c, w2, h), want, atol=1e-12)

    def test_identity_blocks(self):
        h = np.arange(6, dtype=float)
        np.testing.assert_allclose(grouped_forward_full(np.eye(2), np.eye(3), h), h,
                                   atol=1e-15)


class TestDenseForward:
    def test_agrees_with_grouped(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((2, 2))
        b = rng.standard_normal((4, 2))
        a = rng.standard_normal((2, 4))
        h = rng.standard_normal((3, 8))
        np.testing.assert_allclose(dense_forward(c, b, a, h),
                                   grouped_forward(c, b, a, h), atol=1e-11)

    def test_rejects_bad_input_extent(self):
        with pytest.raises(tc.ShapeError, match="does not match"):
            dense_forward(np.ones((2, 2)), np.ones((2, 1)), np.ones((1, 2)),
                          np.ones(5))


class TestMacCounter:
    def test_grouped_needs_fewer_mults(self):
        rng = np.random.default_rng(6)
        up = uq = 8
        vp = vq = 16
        r = 4
        c = rng.standard_normal((up, uq))
        b = rng.standard_normal((vp, r))
        a = rng.standard_normal((r, vq))
        h = rng.standard_normal(uq * vq)
        grouped = MacCounter()
        dense = MacCounter()
        grouped_forward(c, b, a, h, counter=grouped)
        dense_forward(c, b, a, h, counter=dense)
        assert grouped.mults > 0
        assert grouped.mults < dense.mults

    def test_exact_grouped_count(self):
        # (uq, vq) @ a.T: uq*vq*r, then uq*r*vp, then vp*uq*up
        up, uq, vp, vq, r = 3, 2, 5, 4, 2
        rng = np.random.default_rng(7)
        counter = MacCounter()
        grouped_forward(rng.standard_normal((up, uq)),
                        rng.standard_normal((vp, r)),
                        rng.standard_normal((r, vq)),
                        rng.standard_normal(uq * vq), counter=counter)
        assert counter.mults == uq * vq * r + uq * r * vp + vp * uq * up

    def test_batch_scales_count(self):
        rng = np.random.default_rng(8)
        c = rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 1))
        a = rng.standard_normal((1, 3))
        single = MacCounter()
        batched = MacCounter()
        grouped_forward(c, b, a, rng.standard_normal(6), counter=single)
        grouped_forward(c, b, a, rng.standard_normal((10, 6)), counter=batched)
        assert batched.mults == 10 * single.mults
