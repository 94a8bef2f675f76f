import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltafactor import adapters as ad
from deltafactor import kron_linear as kl
from deltafactor import metrics as mt
from deltafactor import tensor_core as tc


def conv_oracle(kernel, image):
    out_c, in_c, k, _ = kernel.shape
    _, h, w = image.shape
    out = np.zeros((out_c, h - k + 1, w - k + 1))
    for o in range(out_c):
        for i in range(h - k + 1):
            for j in range(w - k + 1):
                acc = 0.0
                for c in range(in_c):
                    for a in range(k):
                        for b in range(k):
                            acc += kernel[o, c, a, b] * image[c, i + a, j + b]
                out[o, i, j] = acc
    return out


def conv_weight_grad_oracle(dy, image, k):
    # dK[o, c, a, b] = sum_{i, j} dy[o, i, j] * image[c, i + a, j + b]
    out_c, h, w = dy.shape
    in_c = image.shape[0]
    out = np.zeros((out_c, in_c, k, k), dtype=np.result_type(dy, image))
    for o in range(out_c):
        for c in range(in_c):
            for a in range(k):
                for b in range(k):
                    acc = 0.0
                    for i in range(h):
                        for j in range(w):
                            acc += dy[o, i, j] * image[c, i + a, j + b]
                    out[o, c, a, b] = acc
    return out


def conv_input_grad_oracle(kernel, dy):
    # image[c, i + a, j + b] meets kernel[o, c, a, b] in output [o, i, j]
    out_c, in_c, k, _ = kernel.shape
    _, h, w = dy.shape
    out = np.zeros((in_c, h + k - 1, w + k - 1), dtype=np.result_type(kernel, dy))
    for o in range(out_c):
        for i in range(h):
            for j in range(w):
                for c in range(in_c):
                    for a in range(k):
                        for b in range(k):
                            out[c, i + a, j + b] += kernel[o, c, a, b] * dy[o, i, j]
    return out


# every public call that takes an array argument, with a Python float in
# its place; where the geometry allows, a one-element vector there would be
# accepted, so only a scalar that stays 0-d is refused
_LORA_31 = ad.random_adapter("lora", ad.LayerShape("linear", 3, 1), 1, alpha=1.0)
_LORA_CONV = ad.random_adapter("lora", ad.LayerShape("conv2d", 2, 1, 1), 1, alpha=1.0)
_ONE = np.ones((1, 1))
_VECTORS = np.eye(2)
SCALAR_CALLS = {
    "forward_linear-x": lambda v: ad.forward_linear(_LORA_31, np.ones((3, 1)), np.zeros(3), v),
    "forward_conv-image": lambda v: ad.forward_conv(_LORA_CONV, np.ones((2, 1, 1, 1)),
                                                    np.zeros(2), v),
    "merge-weight": lambda v: ad.merge(_LORA_31, v),
    "svd_fit_lora-delta": lambda v: ad.svd_fit_lora(v, 1),
    "nkp_fit_lokr-delta": lambda v: ad.nkp_fit_lokr(v),
    "grouped_forward-h": lambda v: kl.grouped_forward(_ONE, _ONE, _ONE, v),
    "grouped_forward_full-h": lambda v: kl.grouped_forward_full(_ONE, _ONE, v),
    "conv2d-image": lambda v: tc.conv2d(np.ones((1, 1, 1, 1)), v),
    "avg_cosine_similarity-vectors": lambda v: mt.avg_cosine_similarity(v, _VECTORS),
    "squared_centroid_distance-vectors": lambda v: mt.squared_centroid_distance(_VECTORS, v),
    "intra_dissimilarity-vectors": lambda v: mt.intra_dissimilarity(v),
    "variance_normalized-vectors": lambda v: mt.variance_normalized(v),
    "text_image_alignment-vectors": lambda v: mt.text_image_alignment(v, _VECTORS),
    "vendi_score-vectors": lambda v: mt.vendi_score(v),
    "grouped_vendi-vectors": lambda v: mt.grouped_vendi(v, ["a"], "include"),
    "subsample-vectors": lambda v: mt.subsample(v, 1),
    "diversity_ratio-vectors": lambda v: mt.diversity_ratio(v, _VECTORS, "vendi"),
    "style_loss-feature_map": lambda v: mt.style_loss([v], [np.ones((1, 1, 1))]),
}


class TestAsTensor:
    def test_coerces_lists(self):
        arr = tc.as_tensor([[1, 2], [3, 4]])
        assert arr.dtype == np.float64
        assert arr.flags["C_CONTIGUOUS"]

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            tc.as_tensor([1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            tc.as_tensor([1.0, np.inf])

    def test_non_finite_error_names_argument_index_and_value(self):
        bad = np.zeros((2, 3))
        bad[1, 0] = -np.inf
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"^kernel holds a non-finite value at flat index 3: -inf$"):
            tc.as_tensor(bad, "kernel")

    def test_real_tensor_refuses_complex(self):
        with pytest.raises(tc.ComplexInputError, match="^tensor is complex; .*real input only"):
            tc.as_tensor([1.0, 1j])
        # a complex dtype with zero imaginary parts too, named by its caller
        with pytest.raises(tc.ComplexInputError, match="^kernel is complex"):
            tc.as_tensor(np.ones(2, dtype=np.complex64), "kernel")

    def test_int_input_converted_without_mutation(self):
        src = np.ones((2, 2), dtype=np.int64)
        out = tc.as_tensor(src)
        out[0, 0] = 7.0
        assert out.dtype == np.float64
        assert src[0, 0] == 1

    @pytest.mark.parametrize("call", SCALAR_CALLS.values(), ids=SCALAR_CALLS.keys())
    def test_every_public_function_refuses_a_scalar(self, call):
        # as_tensor keeps a scalar 0-d, so no boundary mistakes it for a vector
        with pytest.raises(tc.ShapeError):
            call(2.0)


class TestKronecker:
    """np.kron's block layout and rank, which lokr's delta and gradients rely on."""

    def test_entry_formula(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((4, 2))
        out = np.kron(a, b)
        assert out.shape == (8, 6)
        for i in range(2):
            for j in range(3):
                for p in range(4):
                    for q in range(2):
                        assert out[i * 4 + p, j * 2 + q] == a[i, j] * b[p, q]

    def test_rank_multiplies(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        b = rng.standard_normal((3, 3))
        ra = np.linalg.matrix_rank(a, rtol=1e-10)
        rb = np.linalg.matrix_rank(b, rtol=1e-10)
        assert np.linalg.matrix_rank(np.kron(a, b), rtol=1e-10) == ra * rb


class TestUnrollConv:
    """The unrolled kernel layout: kernel.reshape(out, -1), (out, in*k*k)."""

    def test_column_layout(self):
        # row c*k*k + a*k + b of the im2col columns holds the window entries
        # image[c, i + a, j + b], which column c*k*k + a*k + b of the unrolled
        # kernel, kernel[o, c, a, b], multiplies
        image = np.arange(3 * 4 * 5, dtype=float).reshape(1, 3, 4, 5)
        cols = tc._im2col(image, 2)
        assert cols.shape == (12, 1, 3, 4)
        for c in range(3):
            for a in range(2):
                for b in range(2):
                    assert np.array_equal(cols[c * 4 + a * 2 + b, 0], image[0, c, a:a + 3, b:b + 4])
        kernel = np.random.default_rng(4).standard_normal((2, 3, 2, 2))
        flat = kernel.reshape(2, -1) @ cols.reshape(12, -1)
        assert np.array_equal(tc.conv2d(kernel, image[0]), flat.reshape(2, 3, 4))

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_reroll_roundtrip(self, out_c, in_c, k, seed):
        # a full-rank fit unrolls the kernel stack, fits it, and rolls it back
        kernel = np.random.default_rng(seed).standard_normal((out_c, in_c, k, k))
        fit = ad.svd_fit_lora(kernel, min(out_c, in_c * k * k))
        assert fit.down.shape == (fit.up.shape[1], in_c, k, k)
        np.testing.assert_allclose(ad.reconstruct(fit), kernel, atol=1e-10)

    def test_rejects_rectangular_kernel(self):
        with pytest.raises(tc.ShapeError, match="square"):
            tc.conv2d(np.zeros((2, 2, 2, 3)), np.zeros((2, 4, 4)))
        with pytest.raises(tc.ShapeError, match="square"):
            ad.svd_fit_lora(np.zeros((2, 2, 2, 3)), 1)


class TestConv2d:
    def test_scalar_kernel(self):
        out = tc.conv2d([[[[2.0]]]], [[[3.0]]])
        np.testing.assert_array_equal(out, [[[6.0]]])

    def test_window_sum(self):
        out = tc.conv2d(np.ones((1, 1, 2, 2)), [[[1.0, 2.0], [3.0, 4.0]]])
        np.testing.assert_array_equal(out, [[[10.0]]])

    def test_identity_kernel(self):
        x = np.random.default_rng(5).standard_normal((3, 4, 4))
        kernel = np.zeros((3, 3, 1, 1))
        for c in range(3):
            kernel[c, c, 0, 0] = 1.0
        np.testing.assert_array_equal(tc.conv2d(kernel, x), x)

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(6)
        for out_c, in_c, k, h, w in ((2, 3, 3, 5, 6), (1, 1, 1, 2, 2), (4, 2, 2, 4, 4)):
            kernel = rng.standard_normal((out_c, in_c, k, k))
            image = rng.standard_normal((in_c, h, w))
            np.testing.assert_allclose(tc.conv2d(kernel, image),
                                       conv_oracle(kernel, image),
                                       rtol=1e-12, atol=1e-12)

    def test_batch_against_naive_oracle(self):
        rng = np.random.default_rng(7)
        kernel = rng.standard_normal((3, 2, 2, 2))
        images = rng.standard_normal((4, 2, 5, 6))
        got = tc.conv2d(kernel, images)
        assert got.shape == (4, 3, 4, 5)
        for n in range(4):
            np.testing.assert_allclose(got[n], conv_oracle(kernel, images[n]),
                                       rtol=1e-12, atol=1e-12)

    def test_rejects_image_rank(self):
        for shape in ((2, 3), (1, 1, 2, 3, 3)):
            with pytest.raises(tc.ShapeError, match="image"):
                tc.conv2d(np.ones((1, 2, 1, 1)), np.ones(shape))

    def test_rejects_kernel_rank(self):
        with pytest.raises(tc.ShapeError,
                           match=r"^kernel stack must have rank 4, got shape \(1, 2, 1\)$"):
            tc.conv2d(np.ones((1, 2, 1)), np.ones((2, 3, 3)))

    def test_channel_mismatch(self):
        with pytest.raises(tc.ShapeError, match="channels"):
            tc.conv2d(np.ones((1, 2, 1, 1)), np.ones((3, 2, 2)))

    def test_image_smaller_than_window(self):
        with pytest.raises(tc.ShapeError, match="smaller"):
            tc.conv2d(np.ones((1, 1, 3, 3)), np.ones((1, 2, 2)))

    @pytest.mark.parametrize("kernel,image", [
        ((0, 2, 3, 3), (2, 5, 5)), ((2, 0, 3, 3), (0, 5, 5)), ((2, 2, 0, 0), (2, 5, 5)),
    ], ids=["out0", "in0", "k0"])
    def test_rejects_zero_extent(self, kernel, image):
        with pytest.raises(tc.ShapeError, match="zero extent"):
            tc.conv2d(np.zeros(kernel), np.zeros(image))

    def test_empty_batch(self):
        assert tc.conv2d(np.ones((2, 3, 3, 3)), np.ones((0, 3, 5, 5))).shape == (0, 2, 3, 3)

    def test_rejects_complex(self):
        with pytest.raises(tc.ComplexInputError, match="^kernel"):
            tc.conv2d(np.ones((1, 1, 1, 1)) + 0j, np.ones((1, 2, 2)))
        with pytest.raises(tc.ComplexInputError, match="^image"):
            tc.conv2d(np.ones((1, 1, 1, 1)), np.ones((1, 2, 2)) * 1j)


class TestConvAdjoints:
    """The kernel and image gradients of the im2col conv kernel."""

    # float64 unit roundoff; the three inner products below are one triple
    # sum sum K x dy taken in three association orders, so each differs from
    # the exact value by at most a few rounding units of the same sum taken
    # over magnitudes, S = <conv(|K|, |x|), |dy|> (measured worst 1.14 over
    # 200 random shapes, real and complex, single and batched)
    UNIT = 2.0 ** -53
    ROUNDING_UNITS = 8

    @staticmethod
    def draw(rng, shape, complex_):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if complex_ else a

    @staticmethod
    def forward(kernel, image):
        """(y, cols): the convolution of one image or a batch, and its _im2col columns."""
        cols = tc._im2col(image[None] if image.ndim == 3 else image, kernel.shape[-1])
        y = tc._conv_cols(kernel, cols)
        return (y[..., 0, :, :, :] if image.ndim == 3 else y), cols

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("batch", [None, 3], ids=["single", "batch"])
    @pytest.mark.parametrize("out_c,in_c,k,h,w", [(2, 3, 3, 5, 6), (1, 1, 1, 2, 2), (4, 2, 2, 4, 4),
                                                  (3, 5, 3, 3, 3)])
    def test_inner_products_agree(self, complex_, batch, out_c, in_c, k, h, w):
        rng = np.random.default_rng([out_c, in_c, k, h, w, int(complex_), batch or 0])
        kernel = self.draw(rng, (out_c, in_c, k, k), complex_)
        image = self.draw(rng, (in_c, h, w) if batch is None else (batch, in_c, h, w), complex_)
        y, cols = self.forward(kernel, image)
        dy = self.draw(rng, y.shape, complex_)
        # the adjoints take a batch: a single image is a batch of one
        dy_b, image_b = (dy, image) if batch else (dy[None], image[None])
        grad_k = tc._conv2d_weight_grad(dy_b, cols, k)
        grad_x = tc._conv2d_input_grad(kernel, dy_b)
        assert grad_k.shape == kernel.shape and grad_x.shape == image_b.shape
        forward = np.sum(y * dy)
        magnitude = float(np.sum(tc.conv2d(np.abs(kernel), np.abs(image)) * np.abs(dy)))
        bound = self.ROUNDING_UNITS * self.UNIT * magnitude
        assert abs(np.sum(kernel * grad_k) - forward) <= bound
        assert abs(np.sum(image_b * grad_x) - forward) <= bound

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_against_naive_oracles(self, complex_):
        rng = np.random.default_rng(9)
        for out_c, in_c, k, h, w in ((2, 3, 3, 5, 6), (1, 1, 1, 2, 2), (4, 2, 2, 4, 4)):
            kernel = self.draw(rng, (out_c, in_c, k, k), complex_)
            image = self.draw(rng, (in_c, h, w), complex_)
            y, cols = self.forward(kernel, image)
            dy = self.draw(rng, y.shape, complex_)
            np.testing.assert_allclose(tc._conv2d_weight_grad(dy[None], cols, k),
                                       conv_weight_grad_oracle(dy, image, k),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(tc._conv2d_input_grad(kernel, dy[None])[0],
                                       conv_input_grad_oracle(kernel, dy),
                                       rtol=1e-12, atol=1e-12)

    def test_batch_against_naive_oracles(self):
        rng = np.random.default_rng(10)
        kernel = rng.standard_normal((3, 2, 2, 2))
        images = rng.standard_normal((4, 2, 5, 6))
        y, cols = self.forward(kernel, images)
        dy = rng.standard_normal(y.shape)
        grad_k = tc._conv2d_weight_grad(dy, cols, 2)
        grad_x = tc._conv2d_input_grad(kernel, dy)
        np.testing.assert_allclose(grad_k, sum(conv_weight_grad_oracle(dy[n], images[n], 2)
                                               for n in range(4)), rtol=1e-12, atol=1e-12)
        for n in range(4):
            np.testing.assert_allclose(grad_x[n], conv_input_grad_oracle(kernel, dy[n]),
                                       rtol=1e-12, atol=1e-12)


class TestConvMemberAxis:
    """A leading member axis on the kernel (and the image) runs one GEMM per member."""

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("shared_image", [False, True], ids=["stacked", "shared"])
    @pytest.mark.parametrize("out_c,in_c,k,h,w", [(2, 3, 3, 5, 6), (4, 2, 2, 4, 4), (3, 1, 1, 2, 3)])
    def test_stack_of_three_equals_each_member(self, complex_, shared_image, out_c, in_c, k, h, w):
        rng = np.random.default_rng([out_c, in_c, k, h, w, int(complex_), int(shared_image)])
        draw = TestConvAdjoints.draw
        kernels = draw(rng, (3, out_c, in_c, k, k), complex_)
        images = draw(rng, (4, in_c, h, w) if shared_image else (3, 4, in_c, h, w), complex_)
        y, cols = TestConvAdjoints.forward(kernels, images)
        dy = draw(rng, y.shape, complex_)
        grad_k = tc._conv2d_weight_grad(dy, cols, k)
        scratch = {}
        grad_x = tc._conv2d_input_grad(kernels, dy, scratch)
        # a second call on the scratch it filled writes the same values
        assert np.array_equal(tc._conv2d_input_grad(kernels, dy, scratch), grad_x)
        for m in range(3):
            image = images if shared_image else images[m]
            y_m, cols_m = TestConvAdjoints.forward(kernels[m], image)
            assert np.array_equal(y[m], y_m)
            assert np.array_equal(grad_k[m], tc._conv2d_weight_grad(dy[m], cols_m, k))
            assert np.array_equal(grad_x[m], tc._conv2d_input_grad(kernels[m], dy[m]))


class TestHadamardRankBound:
    def test_rank_product_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 8))
            y = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 8))
            bound = np.linalg.matrix_rank(x, rtol=1e-10) * np.linalg.matrix_rank(y, rtol=1e-10)
            assert np.linalg.matrix_rank(x * y, rtol=1e-10) <= bound


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_kronecker_matvec_identity(p, m, q, n, seed):
    # (C (x) D) vec(X) == vec(C X D^T) under row-major vec
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((p, m))
    d = rng.standard_normal((q, n))
    x = rng.standard_normal((m, n))
    lhs = np.kron(c, d) @ x.reshape(-1)
    rhs = (c @ x @ d.T).reshape(-1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-11)
