import dataclasses
import functools
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import strategies as st

from deltafactor import adapters as ad
from deltafactor import optim_harness as oh
from deltafactor import tensor_core as tc

LINEAR_64 = ad.LayerShape("linear", 64, 64)
LINEAR_RECT = ad.LayerShape("linear", 48, 80)
CONV_SMALL = ad.LayerShape("conv2d", 8, 6, 3)


def all_forms():
    # (algorithm, layer, dim, factor, tucker) covering every stored-tensor layout
    return [
        ("lora", LINEAR_RECT, 4, -1, False),
        ("lora", CONV_SMALL, 3, -1, False),
        ("lora", CONV_SMALL, 3, -1, True),
        ("loha", LINEAR_RECT, 4, -1, False),
        ("loha", CONV_SMALL, 3, -1, False),
        ("loha", CONV_SMALL, 3, -1, True),
        ("lokr", LINEAR_64, 8, 8, False),      # full right block
        ("lokr", LINEAR_RECT, 2, 4, False),    # factored right block
        ("lokr", CONV_SMALL, 2, 2, False),
        ("lokr", CONV_SMALL, 2, 2, True),
    ]


# forms whose delta spans several row blocks, and a whole lokr right block
# (the (32, 32) block of a 512x1024 layer) on a layer of the same size
LARGE_FORMS = [
    pytest.param(("loha", ad.LayerShape("linear", 700, 1024), 4, -1, False), id="loha-linear700"),
    pytest.param(("loha", ad.LayerShape("conv2d", 2000, 32, 3), 4, -1, True), id="loha-conv2000-tucker"),
    pytest.param(("lokr", ad.LayerShape("linear", 512, 1024), 32, -1, False), id="lokr-linear512-whole"),
]


def form_id(form):
    return f"{form[0]}-{form[1].kind}-{form[2]}-{form[3]}-{form[4]}"


class TestMergeScale:
    def test_gamma(self):
        assert ad.MergeScale(alpha=8.0, dim=4).gamma == 2.0

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="dim"):
            ad.MergeScale(alpha=1.0, dim=0)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            ad.MergeScale(alpha=-1.0, dim=2)

    def test_accepts_numpy_integer_dim(self):
        # as LayerShape accepts numpy integer extents
        assert ad.MergeScale(alpha=1.0, dim=np.int64(4)).gamma == 0.25


class TestLayerShape:
    def test_unrolled_in(self):
        assert ad.LayerShape("linear", 4, 7).unrolled_in == 7
        assert ad.LayerShape("conv2d", 4, 3, 3).unrolled_in == 27

    def test_delta_shape(self):
        assert ad.LayerShape("linear", 4, 7).delta_shape == (4, 7)
        assert ad.LayerShape("conv2d", 4, 3, 2).delta_shape == (4, 3, 2, 2)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ad.LayerShape("dense", 4, 4)

    @pytest.mark.parametrize("extents", [(True, 4), (4, True), (4, 4, True)])
    def test_rejects_boolean_extent(self, extents):
        kind = "linear" if len(extents) == 2 else "conv2d"
        with pytest.raises(ValueError, match="positive integers"):
            ad.LayerShape(kind, *extents)

    @pytest.mark.parametrize("kind,extents", [
        ("linear", (4.0, 3)), ("linear", ("4", 3)), ("linear", (4, None)),
        ("linear", (np.float64(4), 3)), ("conv2d", (4, 3, 2.0)), ("linear", (4, 3, 1.0)),
    ], ids=["float", "str", "none", "numpy-float", "float-kernel", "float-linear-kernel"])
    def test_rejects_non_integer_extent(self, kind, extents):
        with pytest.raises(ValueError, match="positive integers"):
            ad.LayerShape(kind, *extents)

    def test_accepts_numpy_integer_extents(self):
        layer = ad.LayerShape("conv2d", np.int64(4), np.int32(3), np.uint8(3))
        assert layer.delta_shape == (4, 3, 3, 3)
        assert ad.reconstruct(ad.random_adapter("lora", layer, 2, alpha=2.0)).shape == (4, 3, 3, 3)

    def test_merge_scale_rejects_boolean_dim(self):
        with pytest.raises(ValueError, match="dim"):
            ad.MergeScale(alpha=1.0, dim=True)

    def test_rejects_linear_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            ad.LayerShape("linear", 4, 4, kernel=3)


class TestZeroInit:
    @pytest.mark.parametrize("algorithm,layer,dim,factor,tucker", all_forms())
    def test_reconstructs_to_exact_zero(self, algorithm, layer, dim, factor, tucker):
        for seed in (0, 1, 17):
            adapter = ad.init_adapter(algorithm, layer, dim, alpha=float(dim),
                                      factor=factor, tucker=tucker, seed=seed)
            delta = ad.reconstruct(adapter)
            assert delta.shape == layer.delta_shape
            assert np.all(delta == 0.0)

    def test_non_zeroed_factors_are_random(self):
        adapter = ad.init_adapter("lora", LINEAR_64, 4, alpha=4.0, seed=0)
        assert np.all(adapter.up == 0.0)
        assert np.any(adapter.down != 0.0)

    def test_deterministic_in_seed(self):
        a = ad.init_adapter("loha", LINEAR_RECT, 4, alpha=4.0, seed=5)
        b = ad.init_adapter("loha", LINEAR_RECT, 4, alpha=4.0, seed=5)
        for name, t in a.tensors().items():
            np.testing.assert_array_equal(t, b.tensors()[name])

    def test_tucker_on_linear_rejected(self):
        with pytest.raises(ValueError, match="Tucker|conv"):
            ad.init_adapter("lora", LINEAR_64, 4, alpha=4.0, tucker=True)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            ad.init_adapter("vera", LINEAR_64, 4, alpha=4.0)


# The seed contract: the order in which each family draws its factors from
# default_rng(seed), each N(0, 1/dim). Merge-ratio checks sit near their
# tolerance, so a reordered draw moves their values; see test_draw_order.
DRAW_ORDER = {
    "lora": ("up", "core", "down"),
    "loha": ("up1", "down1", "core1", "up2", "down2", "core2"),
    "lokr": ("c", "w2", "up", "core", "down"),
}
ZEROED = {"lora": "up", "loha": "down2", "lokr": "down"}


def harness_forms():
    # every harness form on the toy linear and conv geometries
    return [
        pytest.param(name, shape, id=f"{name}-{shape.kind}{i}")
        for name, spec in sorted(oh.HARNESS_ALGORITHMS.items())
        for conv in (False, True) if conv or not spec.tucker
        for i, shape in enumerate(oh.toy_geometry(conv))
    ]


class TestSeedContract:
    @pytest.mark.parametrize("name,layer", harness_forms())
    def test_draw_order(self, name, layer):
        spec = oh.HARNESS_ALGORITHMS[name]
        for seed in (0, 5):
            kwargs = dict(factor=spec.factor, tucker=spec.tucker, seed=seed)
            drawn = ad.random_adapter(spec.algorithm, layer, spec.dim, alpha=1.0, **kwargs)
            rng = np.random.default_rng(seed)
            std = 1.0 / np.sqrt(spec.dim)
            tensors = drawn.tensors()
            want = {role: rng.normal(0.0, std, size=tensors[role].shape)
                    for role in DRAW_ORDER[spec.algorithm] if role in tensors}
            assert set(want) == set(tensors)
            for role, value in tensors.items():
                np.testing.assert_array_equal(value, want[role], err_msg=role)
            init = ad.init_adapter(spec.algorithm, layer, spec.dim, alpha=1.0, **kwargs)
            zeroed = ZEROED[spec.algorithm] if "w2" not in tensors else "w2"
            for role, value in init.tensors().items():
                expected = np.zeros_like(want[role]) if role == zeroed else want[role]
                np.testing.assert_array_equal(value, expected, err_msg=role)

    @pytest.mark.parametrize("seed", [-1, np.int64(-2), True, 1.0])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        layer = ad.LayerShape("linear", 4, 4)
        for draw in (lambda: ad.random_adapter("lora", layer, 2, 1.0, seed=seed),
                     lambda: ad.init_model([("a", layer)], "lora", 2, 1.0, seed=seed)):
            with pytest.raises(ValueError) as exc:
                draw()
            assert str(exc.value) == f"seed must be a non-negative integer, got {seed!r}"

    def test_model_seed_must_be_an_integer(self):
        # the .lwu header stores the model seed, so a SeedSequence is refused
        # by init_model, while a single adapter's draw takes one
        layer = ad.LayerShape("linear", 4, 4)
        seed = np.random.SeedSequence(3)
        ad.random_adapter("lora", layer, 2, 1.0, seed=seed)
        with pytest.raises(ValueError) as exc:
            ad.init_model([("a", layer)], "lora", 2, 1.0, seed=seed)
        assert str(exc.value) == f"seed must be a non-negative integer, got {seed!r}"

    @pytest.mark.parametrize("algorithm", ad.ALGORITHMS)
    def test_role_table(self, algorithm):
        # the class tables state the pinned contract; ROLES are the array
        # fields in declaration order, the order of tensors()
        cls = ad._FAMILIES[algorithm]
        assert cls.DRAW_ORDER == DRAW_ORDER[algorithm]
        assert cls.ZEROED[-1] == ZEROED[algorithm]
        arrays = [f.name for f in dataclasses.fields(cls) if f.name not in ("layer", "scale", "factor")]
        assert cls.ROLES == tuple(arrays)
        assert sorted(cls.ROLES) == sorted(DRAW_ORDER[algorithm])


class TestReconstruct:
    def test_lora_is_up_down(self):
        adapter = ad.random_adapter("lora", LINEAR_RECT, 6, alpha=6.0, seed=2)
        np.testing.assert_array_equal(ad.reconstruct(adapter),
                                      adapter.up @ adapter.down)

    @pytest.mark.parametrize("form", all_forms() + LARGE_FORMS, ids=form_id)
    def test_delta_is_a_new_array(self, form):
        # callers may scale it in place, as the adapter commands do
        algorithm, layer, dim, factor, tucker = form
        adapter = ad.random_adapter(algorithm, layer, dim, 1.0, factor=factor, tucker=tucker, seed=1)
        delta = ad.reconstruct(adapter)
        assert not any(np.shares_memory(delta, t) for t in adapter.tensors().values())
        assert not np.shares_memory(delta, ad.reconstruct(adapter))

    def test_loha_is_hadamard_of_branches(self):
        adapter = ad.random_adapter("loha", LINEAR_RECT, 3, alpha=3.0, seed=3)
        want = (adapter.up1 @ adapter.down1) * (adapter.up2 @ adapter.down2)
        np.testing.assert_array_equal(ad.reconstruct(adapter), want)

    def test_loha_ones_branch_is_identity(self):
        rng = np.random.default_rng(4)
        up1 = rng.standard_normal((5, 1))
        down1 = rng.standard_normal((1, 7))
        adapter = ad.LohaAdapter(ad.LayerShape("linear", 5, 7),
                                 ad.MergeScale(alpha=1.0, dim=1),
                                 up1, down1, np.ones((5, 1)), np.ones((1, 7)))
        np.testing.assert_array_equal(ad.reconstruct(adapter), up1 @ down1)

    def test_lokr_matches_kronecker_bitwise(self):
        adapter = ad.random_adapter("lokr", LINEAR_RECT, 2, alpha=2.0,
                                    factor=4, seed=5)
        assert adapter.up is not None
        want = np.kron(adapter.c, adapter.up @ adapter.down)
        np.testing.assert_array_equal(ad.reconstruct(adapter), want)

    def test_lokr_scalar_c_is_right_block(self):
        # 7 and 13 are prime, so both channel splits collapse to u = 1
        layer = ad.LayerShape("linear", 7, 13)
        rng = np.random.default_rng(6)
        up = rng.standard_normal((7, 2))
        down = rng.standard_normal((2, 13))
        adapter = ad.LokrAdapter(layer, ad.MergeScale(alpha=2.0, dim=2), -1,
                                 c=[[1.0]], up=up, down=down)
        np.testing.assert_array_equal(ad.reconstruct(adapter), up @ down)

    def test_lokr_full_block(self):
        adapter = ad.random_adapter("lokr", LINEAR_64, 8, alpha=8.0,
                                    factor=8, seed=7)
        assert adapter.w2 is not None
        np.testing.assert_array_equal(ad.reconstruct(adapter),
                                      np.kron(adapter.c, adapter.w2))

    def test_conv_lora_unroll_path(self):
        adapter = ad.random_adapter("lora", CONV_SMALL, 3, alpha=3.0, seed=8)
        flat = adapter.up @ adapter.down.reshape(3, -1)
        np.testing.assert_array_equal(ad.reconstruct(adapter),
                                      flat.reshape(CONV_SMALL.delta_shape))

    def test_conv_tucker_path(self):
        adapter = ad.random_adapter("lora", CONV_SMALL, 3, alpha=3.0,
                                    tucker=True, seed=9)
        factors = (adapter.core, adapter.up, adapter.down)
        want = np.einsum("stab,os,ti->oiab", *factors)
        # 16 float64 unit roundoffs of the same sum over magnitudes
        magnitude = np.einsum("stab,os,ti->oiab", *map(np.abs, factors))
        assert np.all(np.abs(ad.reconstruct(adapter) - want) <= 16 * 2.0 ** -53 * magnitude)

    # B[o, i, a, b] = sum_{s,t} core[s, t, a, b] up[o, s] down[t, i] as core's
    # mode 0 taken against up, then mode 1 against down (the n-mode products
    # the Tucker delta was built from). Equal bit for bit while the matmul
    # runs as a GEMM, that is with in >= 2 and k >= 2.
    @pytest.mark.parametrize("algorithm,layer,dim,factor", [
        ("lora", CONV_SMALL, 3, -1),
        ("lora", ad.LayerShape("conv2d", 320, 320, 3), 8, -1),
        ("lora", ad.LayerShape("conv2d", 8, 4, 5), 2, -1),
        ("loha", CONV_SMALL, 3, -1),
        ("lokr", CONV_SMALL, 2, 2),
    ])
    def test_tucker_dense_equals_nested_nmode(self, algorithm, layer, dim, factor):
        def nmode(t, m, mode):
            contracted = np.tensordot(t, m, axes=([mode], [0]))
            return np.ascontiguousarray(np.moveaxis(contracted, -1, mode))

        adapter = ad.random_adapter(algorithm, layer, dim, alpha=1.0, factor=factor,
                                    tucker=True, seed=10)
        for block in adapter._blocks:
            want = nmode(nmode(block.core, block.up.T, 0), block.down, 1)
            assert np.array_equal(block.dense(), want)


def block_formula(geometry, up=None, down=None, core=None, w2=None):
    """A block's dense array from whole-matrix products of its factors."""
    if w2 is not None:
        return w2
    r = up.shape[1]
    if core is not None:
        uc = (up @ core.reshape(r, -1)).reshape(geometry.out_dim, r, -1)
        return np.matmul(down.T, uc).reshape(geometry.delta_shape)
    return (up @ down.reshape(r, -1)).reshape(geometry.delta_shape)


def whole_formula(adapter, tensors=None):
    """The adapter's delta from whole-matrix products of tensors (default: its own)."""
    t = adapter.tensors() if tensors is None else tensors
    if isinstance(adapter, ad.LokrAdapter):
        right = block_formula(adapter._blocks[0].geometry,
                              *(t.get(role) for role in ("up", "down", "core", "w2")))
        return np.kron(t["c"].reshape(*t["c"].shape, *[1] * (right.ndim - 2)), right)
    first, *rest = [block_formula(adapter.layer, *(t.get(role + s) for role in ("up", "down", "core")))
                    for s in adapter.SUFFIXES]
    return first * rest[0] if rest else first


# Layers at and around a row-block boundary of adapters._layer_rows:
# LINEAR_STEP rows of 1024 make one row block, as do CONV_STEP rows of a
# 32-channel 3x3 kernel (288 values). The fixed counts (255-700 rows of
# 1024, 910-2000 of the kernel) span several blocks at any step up to 2^18
# values, with whole, short and lone last rows. The row lengths are
# multiples of 8: at other lengths OpenBLAS rounds the last (length mod 8)
# columns of a product by how many rows the call holds, so a row block can
# differ from the same rows of the whole product in the last bit (at such
# lengths the whole product's own bytes also change with the BLAS thread
# count).
LINEAR_STEP = ad._ROW_BLOCK // 1024
CONV_STEP = ad._ROW_BLOCK // (32 * 9)
BOUNDARY_LAYERS = (
    [ad.LayerShape("linear", n, 1024) for n in sorted(
        {LINEAR_STEP - 1, LINEAR_STEP, LINEAR_STEP + 1, 2 * LINEAR_STEP + 1, 255, 256, 257, 513, 700})]
    + [ad.LayerShape("conv2d", n, 32, 3) for n in sorted(
        {CONV_STEP, CONV_STEP + 1, 2 * CONV_STEP + 1, 910, 911, 1821, 2000})])


def boundary_forms():
    return [pytest.param(algorithm, layer, tucker, id=f"{algorithm}-{layer.kind}{layer.out_dim}"
                         + ("-tucker" if tucker else ""))
            for layer in BOUNDARY_LAYERS for algorithm in ("lora", "loha", "lokr")
            for tucker in ((False, True) if layer.kind == "conv2d" else (False,))]


class TestWholeMatrixFormula:
    """reconstruct equals whole-matrix products of the factors bit for bit."""

    @pytest.mark.parametrize("name,layer", harness_forms())
    def test_harness_forms(self, name, layer):
        spec = oh.HARNESS_ALGORITHMS[name]
        adapter = ad.random_adapter(spec.algorithm, layer, spec.dim, 1.0, factor=spec.factor,
                                    tucker=spec.tucker, seed=3)
        assert np.array_equal(ad.reconstruct(adapter), whole_formula(adapter))

    @pytest.mark.parametrize("algorithm,layer,tucker", boundary_forms())
    def test_at_row_block_boundaries(self, algorithm, layer, tucker):
        adapter = ad.random_adapter(algorithm, layer, 4, 1.0, tucker=tucker, seed=layer.out_dim)
        assert np.array_equal(ad.reconstruct(adapter), whole_formula(adapter))

    @pytest.mark.parametrize("algorithm,layer,tucker", boundary_forms())
    def test_merge_at_row_block_boundaries(self, algorithm, layer, tucker):
        # every row block is scaled and gets its own rows of w0
        adapter = ad.random_adapter(algorithm, layer, 4, 2.0, tucker=tucker, seed=layer.out_dim)
        w0 = np.random.default_rng(layer.out_dim).standard_normal(layer.delta_shape)
        want = whole_formula(adapter)
        want *= 0.7 * adapter.scale.gamma
        want += w0
        assert np.array_equal(ad.merge(adapter, w0, 0.7), want)

    @pytest.mark.parametrize("layer,tucker", [
        (ad.LayerShape("linear", LINEAR_STEP + 1, 1024), False),
        (ad.LayerShape("conv2d", CONV_STEP + 1, 32, 3), False),
        (ad.LayerShape("conv2d", CONV_STEP + 1, 32, 3), True),
    ], ids=["linear", "conv", "conv-tucker"])
    def test_stacked_complex_probes(self, layer, tucker):
        # gradient_check's stack: one factor plus i * h at one entry per
        # member, every other factor broadcast along the member axis
        adapter = ad.random_adapter("loha", layer, 4, 1.0, tucker=tucker, seed=4)
        tensors = adapter.tensors()
        for role, value in tensors.items():
            shifts = np.zeros((3, value.size), complex)
            shifts[range(3), [0, value.size // 2, value.size - 1]] = 1j * oh.COMPLEX_STEP
            stacked = {r: np.broadcast_to(t, (3, *t.shape)) for r, t in tensors.items()}
            stacked[role] = value + shifts.reshape(3, *value.shape)
            delta = ad._stacked(adapter, stacked)._delta()
            assert delta.dtype == np.complex128
            for m in range(3):
                want = whole_formula(adapter, {r: t[m] for r, t in stacked.items()})
                assert np.array_equal(delta[m], want), (role, m)

    @pytest.mark.parametrize("layer", [ad.LayerShape("linear", 1024, 1024),
                                       ad.LayerShape("conv2d", 512, 64, 3)], ids=["linear", "conv"])
    def test_lokr_row_blocks_within_one_row_of_c(self, layer):
        # factor 2 leaves v_p = out / 2 rows per row of c, more than a row
        # block holds, so the blocks split each group of v_p rows
        adapter = ad.random_adapter("lokr", layer, 4, 1.0, factor=2, seed=8)
        assert ad._ROW_BLOCK // layer.unrolled_in < adapter.block_dims[1]
        assert np.array_equal(ad.reconstruct(adapter), whole_formula(adapter))

    def test_odd_row_length_within_rounding(self):
        # 300 is not a multiple of 8: each block's rows are rounded anew
        # (lokr's Kronecker rows are exact products of the whole right block)
        layer = ad.LayerShape("linear", 1000, 300)
        for algorithm in ad.ALGORITHMS:
            adapter = ad.random_adapter(algorithm, layer, 8, 1.0, seed=5)
            magnitude = whole_formula(adapter, {role: np.abs(t) for role, t in adapter.tensors().items()})
            error = np.abs(ad.reconstruct(adapter) - whole_formula(adapter))
            assert np.all(error <= 2 * (8 + 1) * 2.0 ** -53 * magnitude), algorithm


LINEAR_MLP = ad.LayerShape("linear", 3072, 768)
CONV_320 = ad.LayerShape("conv2d", 320, 320, 3)


class TestPeakMemory:
    """reconstruct and merge hold the layer and at most one row block of float64 values."""

    # factor-sized arrays, such as the Tucker form's whole up @ core, and
    # small objects
    SLACK = 2**19

    @pytest.mark.parametrize("algorithm,layer,dim,tucker", [
        ("loha", LINEAR_MLP, 8, False),
        ("lokr", LINEAR_MLP, 8, False),
        ("lokr", LINEAR_MLP, 32, False),  # the whole (64, 32) right block
        ("lora", CONV_320, 8, False),
        ("loha", CONV_320, 8, False),
        ("loha", CONV_320, 8, True),
        ("lokr", CONV_320, 8, False),
        ("lokr", CONV_320, 8, True),
    ], ids=lambda v: getattr(v, "kind", v))
    def test_one_layer_and_one_row_block(self, traced_peak, algorithm, layer, dim, tucker):
        adapter = ad.random_adapter(algorithm, layer, dim, 1.0, tucker=tucker, seed=6)
        w0 = np.ones(layer.delta_shape)
        bound = w0.nbytes + 8 * ad._ROW_BLOCK + self.SLACK
        assert traced_peak(lambda: ad.reconstruct(adapter)) <= bound
        assert traced_peak(lambda: ad.merge(adapter, w0, 0.5)) <= bound


# the einsum forms the Tucker block and lokr gradients were written in
TUCKER_VJP = {"up": ("oiab,stab,ti->os", "core", "down"),
              "down": ("oiab,stab,os->ti", "core", "up"),
              "core": ("oiab,os,ti->stab", "up", "down")}


def block_vjp_oracle(block, g, f):
    """Gradients of a factor block's tensors, every operand passed through f."""
    if block.w2 is not None:
        return {"w2": f(g)}
    if block.core is not None:
        return {role: np.einsum(spec, f(g), f(getattr(block, a)), f(getattr(block, b)))
                for role, (spec, a, b) in TUCKER_VJP.items()}
    g2 = f(g).reshape(g.shape[0], -1)
    d2 = f(block.down).reshape(block.down.shape[0], -1)
    return {"up": g2 @ d2.T, "down": (f(block.up).T @ g2).reshape(block.down.shape)}


def lokr_vjp_oracle(adapter, g, f):
    # delta[(i,p), (j,q), ...] = c[i,j] * B[p,q,...]
    u_p, v_p, u_q, v_q = adapter.block_dims
    ab = "ab" if adapter.layer.kind == "conv2d" else ""
    g_blocks = f(g).reshape(u_p, v_p, u_q, v_q, *g.shape[2:])
    right = adapter._blocks[0]
    out = block_vjp_oracle(right, np.einsum(f"ipjq{ab},ij->pq{ab}", g_blocks, f(adapter.c)), f)
    out["c"] = np.einsum(f"ipjq{ab},pq{ab}->ij", g_blocks, f(right.dense()))
    return out


class TestGradientOracles:
    """Tucker block and lokr gradients against their einsum forms.

    Each gradient entry is a sum of products; it may differ from the oracle
    by ROUNDING_UNITS float64 unit roundoffs of the same sum taken over
    magnitudes (the oracle with |.| on every operand). Measured worst: 5.9
    (Tucker, 32 x 16 channels, r = 8), 2.6 (lokr), over 20 seeds, real and
    complex g.
    """

    UNIT = 2.0 ** -53
    ROUNDING_UNITS = 16

    def check(self, got, want, magnitude):
        assert set(got) == set(want)
        for role in want:
            assert got[role].shape == want[role].shape, role
            assert np.all(np.abs(got[role] - want[role])
                          <= self.ROUNDING_UNITS * self.UNIT * magnitude[role]), role

    @staticmethod
    def draw_g(layer, seed, complex_):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(layer.delta_shape)
        return g + 1j * rng.standard_normal(layer.delta_shape) if complex_ else g

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("algorithm,layer,dim,factor", [
        ("lora", CONV_SMALL, 3, -1),
        ("lora", ad.LayerShape("conv2d", 32, 16, 3), 8, -1),
        ("loha", CONV_SMALL, 3, -1),
        ("lokr", CONV_SMALL, 2, 2),
    ])
    def test_tucker_block(self, algorithm, layer, dim, factor, complex_):
        adapter = ad.random_adapter(algorithm, layer, dim, alpha=1.0, factor=factor,
                                    tucker=True, seed=12)
        for i, block in enumerate(adapter._blocks):
            g = self.draw_g(block.geometry, 13 + i, complex_)
            self.check(block.vjp(g), block_vjp_oracle(block, g, lambda a: a),
                       block_vjp_oracle(block, g, np.abs))

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("layer,dim,factor,tucker,whole", [
        (LINEAR_64, 8, 8, False, True),
        (LINEAR_RECT, 2, 4, False, False),
        (CONV_SMALL, 12, 2, False, True),
        (CONV_SMALL, 2, 2, False, False),
        (CONV_SMALL, 2, 2, True, False),
        (ad.LayerShape("conv2d", 16, 16, 3), 2, 4, True, False),
    ])
    def test_lokr(self, layer, dim, factor, tucker, whole, complex_):
        adapter = ad.random_adapter("lokr", layer, dim, alpha=1.0, factor=factor,
                                    tucker=tucker, seed=14)
        assert (adapter.w2 is not None) == whole
        g = self.draw_g(layer, 15, complex_)
        self.check(adapter._vjp(g), lokr_vjp_oracle(adapter, g, lambda a: a),
                   lokr_vjp_oracle(adapter, g, np.abs))


class TestScaleEquivalence:
    @pytest.mark.parametrize("algorithm,layer,dim,factor,tucker", all_forms())
    def test_alpha_scales_contribution_linearly(self, algorithm, layer, dim,
                                                factor, tucker):
        base = ad.random_adapter(algorithm, layer, dim, alpha=float(dim),
                                 factor=factor, tucker=tucker, seed=11)
        scaled = dataclasses.replace(
            base, scale=ad.MergeScale(alpha=3.0 * float(dim), dim=dim))
        zero = np.zeros(layer.delta_shape)
        np.testing.assert_allclose(ad.merge(scaled, zero),
                                   3.0 * ad.merge(base, zero), rtol=1e-15)


class TestForwardLinear:
    def test_pinned_example(self):
        layer = ad.LayerShape("linear", 2, 2)
        adapter = ad.LoraAdapter(layer, ad.MergeScale(alpha=1.0, dim=1),
                                 up=[[1.0], [0.0]], down=[[0.0, 1.0]])
        y = ad.forward_linear(adapter, np.zeros((2, 2)), np.zeros(2), [1.0, 2.0])
        np.testing.assert_array_equal(y, [2.0, 0.0])

    def test_initialized_adapter_is_identity_on_base(self):
        rng = np.random.default_rng(12)
        w0 = rng.standard_normal((48, 80))
        b = rng.standard_normal(48)
        x = rng.standard_normal(80)
        adapter = ad.init_adapter("loha", LINEAR_RECT, 4, alpha=4.0, seed=1)
        np.testing.assert_array_equal(ad.forward_linear(adapter, w0, b, x),
                                      w0 @ x + b)

    @pytest.mark.parametrize("algorithm,factor", [("lora", -1), ("loha", -1),
                                                  ("lokr", 4), ("lokr", 8)])
    def test_factored_path_matches_dense(self, algorithm, factor):
        rng = np.random.default_rng(13)
        adapter = ad.random_adapter(algorithm, LINEAR_64, 4, alpha=2.0,
                                    factor=factor, seed=14)
        w0 = rng.standard_normal((64, 64))
        b = rng.standard_normal(64)
        x = rng.standard_normal(64)
        want = w0 @ x + b + adapter.scale.gamma * (ad.reconstruct(adapter) @ x)
        np.testing.assert_allclose(ad.forward_linear(adapter, w0, b, x), want,
                                   rtol=1e-11, atol=1e-11)

    def test_doubling_alpha_doubles_delta_term(self):
        rng = np.random.default_rng(15)
        w0 = rng.standard_normal((64, 64))
        b = rng.standard_normal(64)
        x = rng.standard_normal(64)
        one = ad.random_adapter("lora", LINEAR_64, 4, alpha=4.0, seed=16)
        two = dataclasses.replace(one, scale=ad.MergeScale(alpha=8.0, dim=4))
        base = w0 @ x + b
        np.testing.assert_allclose(ad.forward_linear(two, w0, b, x) - base,
                                   2.0 * (ad.forward_linear(one, w0, b, x) - base),
                                   rtol=1e-12, atol=1e-12)

    def test_shape_errors(self):
        adapter = ad.random_adapter("lora", LINEAR_64, 4, alpha=4.0, seed=0)
        with pytest.raises(tc.ShapeError, match="base weight"):
            ad.forward_linear(adapter, np.zeros((64, 63)), np.zeros(64), np.zeros(64))
        with pytest.raises(tc.ShapeError, match="bias"):
            ad.forward_linear(adapter, np.zeros((64, 64)), np.zeros(63), np.zeros(64))
        with pytest.raises(tc.ShapeError, match="input"):
            ad.forward_linear(adapter, np.zeros((64, 64)), np.zeros(64), np.zeros(63))

    # 1024 inputs: LINEAR_STEP rows of w0 a block (64, a multiple of 16), so
    # 3 * LINEAR_STEP + 1 rows are two whole blocks and a last one that the
    # lone last row joins
    @pytest.mark.parametrize("row", [0, LINEAR_STEP + 36, 2 * LINEAR_STEP + 22, 3 * LINEAR_STEP],
                             ids=["first", "middle", "last", "lone-last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_base_names_the_first_bad_entry(self, row, bad):
        layer = ad.LayerShape("linear", 3 * LINEAR_STEP + 1, 1024)
        adapter = ad.random_adapter("lora", layer, 4, alpha=4.0, seed=0)
        w0 = np.ones(layer.delta_shape)
        w0[row, 5] = bad
        w0[-1, -1] = np.nan
        index = row * 1024 + 5
        with pytest.raises(ValueError) as caught:
            ad.forward_linear(adapter, w0, np.zeros(layer.out_dim), np.ones(1024))
        assert str(caught.value) == f"base weight holds a non-finite value at flat index {index}: {bad}"

    def test_one_input_is_the_whole_product_bit_for_bit(self):
        # at one BLAS thread; a pool splits the whole product's rows between
        # threads where the row blocks need not split them
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", ONE_INPUT_CHECK], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    @pytest.mark.parametrize("algorithm", ["lora", "lokr"])
    def test_one_input_holds_no_mask_of_the_base(self, traced_peak, algorithm):
        # w0 is read a row block at a time, so the finite check holds one
        # block's mask (loha's face-splitting factors, (out, r^2) and
        # (r^2, in), are its own and are left out)
        layer = ad.LayerShape("linear", 2048, 2048)
        adapter = ad.random_adapter(algorithm, layer, 8, alpha=4.0, seed=1)
        w0, bias, x = np.ones(layer.delta_shape), np.zeros(2048), np.ones(2048)
        ad.forward_linear(adapter, w0, bias, x)
        assert traced_peak(lambda: ad.forward_linear(adapter, w0, bias, x)) < 2**20


# Runs at one BLAS thread and prints each (algorithm, out, in) whose
# single-input forward differs from w0 @ x + bias + gamma * delta @ x: a
# layer of one block, layers of several, and lone last rows (193 = 3 * 64 + 1
# rows of 1024; 97 = 6 * 16 + 1 rows of 5000, 16 rows a block)
ONE_INPUT_CHECK = """
import numpy as np
from deltafactor import adapters as ad
for out, inn in [(48, 80), (768, 768), (3072, 768), (193, 1024), (97, 5000)]:
    rng = np.random.default_rng(out)
    w0, bias, x = rng.standard_normal((out, inn)), rng.standard_normal(out), rng.standard_normal(inn)
    for algorithm in ad.ALGORITHMS:
        adapter = ad.random_adapter(algorithm, ad.LayerShape("linear", out, inn), 4, 2.0, seed=inn)
        want = w0 @ x + bias + adapter.scale.gamma * adapter._apply(x)
        if not np.array_equal(ad.forward_linear(adapter, w0, bias, x), want):
            print(f"{algorithm}-{out}x{inn}")
"""


# (algorithm, tucker) of every conv form
CONV_FORMS = [("lora", False), ("lora", True), ("loha", False), ("loha", True),
              ("lokr", False), ("lokr", True)]


class TestForwardConv:
    @pytest.mark.parametrize("algorithm,tucker", CONV_FORMS)
    def test_factored_chain_matches_dense_kernel(self, algorithm, tucker):
        rng = np.random.default_rng(17)
        adapter = ad.random_adapter(algorithm, CONV_SMALL, 2, alpha=1.0,
                                    factor=2, tucker=tucker, seed=18)
        k0 = rng.standard_normal(CONV_SMALL.delta_shape)
        b = rng.standard_normal(8)
        x = rng.standard_normal((6, 7, 7))
        got = ad.forward_conv(adapter, k0, b, x)
        merged = k0 + adapter.scale.gamma * ad.reconstruct(adapter)
        want = tc.conv2d(merged, x) + b[:, None, None]
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) < 1e-10 * scale

    def test_initialized_adapter_is_plain_conv(self):
        rng = np.random.default_rng(19)
        adapter = ad.init_adapter("lora", CONV_SMALL, 3, alpha=3.0, seed=2)
        k0 = rng.standard_normal(CONV_SMALL.delta_shape)
        x = rng.standard_normal((6, 5, 5))
        np.testing.assert_array_equal(
            ad.forward_conv(adapter, k0, np.zeros(8), x), tc.conv2d(k0, x))

    def test_unit_kernel_matches_linear_on_pixels(self):
        layer = ad.LayerShape("conv2d", 5, 4, 1)
        adapter = ad.random_adapter("lora", layer, 2, alpha=2.0, seed=20)
        rng = np.random.default_rng(21)
        k0 = rng.standard_normal((5, 4, 1, 1))
        x = rng.standard_normal((4, 3, 3))
        got = ad.forward_conv(adapter, k0, np.zeros(5), x)
        lin_layer = ad.LayerShape("linear", 5, 4)
        lin = ad.LoraAdapter(lin_layer, adapter.scale, adapter.up,
                             adapter.down.reshape(2, 4))
        for i in range(3):
            for j in range(3):
                want = ad.forward_linear(lin, k0[:, :, 0, 0], np.zeros(5), x[:, i, j])
                np.testing.assert_allclose(got[:, i, j], want, atol=1e-12)


# float64 rounding unit; forward deviations are stated as multiples of it
EPS = np.finfo(np.float64).eps

# (algorithm, layer, dim, factor, tucker): every stored layout, with inner
# ranks (lora r, loha r^2) below and at or above min(out, in*k*k)
FORWARD_FORMS = [
    ("lora", LINEAR_RECT, 4, -1, False),
    ("lora", ad.LayerShape("linear", 6, 10), 6, -1, False),
    ("lora", CONV_SMALL, 3, -1, False),
    ("lora", CONV_SMALL, 3, -1, True),
    ("lora", CONV_SMALL, 8, -1, True),
    ("loha", LINEAR_RECT, 4, -1, False),
    ("loha", ad.LayerShape("linear", 6, 10), 3, -1, False),
    ("loha", CONV_SMALL, 2, -1, False),
    ("loha", CONV_SMALL, 2, -1, True),
    ("loha", CONV_SMALL, 3, -1, True),
    ("loha", ad.LayerShape("conv2d", 6, 4, 1), 2, -1, False),
    ("lokr", LINEAR_64, 8, 8, False),     # whole right block
    ("lokr", LINEAR_RECT, 2, 4, False),   # factored right block
    ("lokr", CONV_SMALL, 4, 2, False),    # whole conv right block
    ("lokr", CONV_SMALL, 2, 2, False),
    ("lokr", CONV_SMALL, 2, 2, True),
]


def forward_form_id(form):
    algorithm, layer, dim, factor, tucker = form
    dims = "x".join(map(str, layer.delta_shape[:3]))
    return f"{algorithm}{'-tucker' if tucker else ''}-{dims}-r{dim}-f{factor}"


def dense_forward(merged, bias, x):
    """(w0 + gamma * delta) applied densely: a matrix product, or an explicit window sum."""
    if merged.ndim == 2:
        return x @ merged.T + bias
    k = merged.shape[2]
    windows = sliding_window_view(x, (k, k), axis=(-2, -1))
    spec = "oiab,ihwab->ohw" if x.ndim == 3 else "oiab,nihwab->nohw"
    return np.einsum(spec, merged, windows) + bias[:, None, None]


class TestForwardColumns:
    @pytest.mark.parametrize("batch", [(), (3,), (0,)], ids=["single", "batched", "empty"])
    @pytest.mark.parametrize("algorithm,layer,dim,factor,tucker", FORWARD_FORMS,
                             ids=map(forward_form_id, FORWARD_FORMS))
    def test_matches_dense_merged_layer(self, algorithm, layer, dim, factor, tucker, batch):
        rng = np.random.default_rng(40)
        adapter = ad.random_adapter(algorithm, layer, dim, alpha=1.5 * dim,
                                    factor=factor, tucker=tucker, seed=41)
        w0 = rng.standard_normal(layer.delta_shape)
        bias = rng.standard_normal(layer.out_dim)
        if layer.kind == "linear":
            x = rng.standard_normal((*batch, layer.in_dim))
            got = ad.forward_linear(adapter, w0, bias, x)
        else:
            x = rng.standard_normal((*batch, layer.in_dim, 7, 6))
            got = ad.forward_conv(adapter, w0, bias, x)
        want = dense_forward(w0 + adapter.scale.gamma * ad.reconstruct(adapter), bias, x)
        assert got.shape == want.shape
        # both sides round sums of at most in*k*k = 54 products in another
        # order; these forms measure at most 2.3 rounding units of the scale
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        assert np.max(np.abs(got - want), initial=0.0) <= 32 * EPS * scale


class TestForwardBoundary:
    LINEAR = ad.LayerShape("linear", 6, 4)
    CONV = ad.LayerShape("conv2d", 5, 3, 3)

    def args(self, kind):
        layer = self.LINEAR if kind == "linear" else self.CONV
        adapter = ad.random_adapter("loha", layer, 2, alpha=2.0, seed=44)
        x = np.ones(4) if kind == "linear" else np.ones((3, 5, 5))
        forward = ad.forward_linear if kind == "linear" else ad.forward_conv
        return forward, adapter, [np.ones(layer.delta_shape), np.ones(layer.out_dim), x]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1, 2], ids=["w0", "bias", "x"])
    @pytest.mark.parametrize("kind", ["linear", "conv2d"])
    def test_non_finite_raises_value_error(self, kind, which, bad):
        forward, adapter, args = self.args(kind)
        args[which].flat[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            forward(adapter, *args)

    @pytest.mark.parametrize("kind,which,shape,match", [
        ("linear", 0, (4, 6), "base weight"),
        ("linear", 1, (5,), "bias"),
        ("linear", 2, (3,), "input"),
        ("linear", 2, (2, 3), "input"),
        ("linear", 2, (2, 2, 4), "input"),
        ("linear", 2, (), "input"),
        ("conv2d", 0, (5, 3, 1, 1), "base kernel"),
        ("conv2d", 1, (3,), "bias"),
        ("conv2d", 2, (3, 5), "image"),
        ("conv2d", 2, (1, 1, 3, 5, 5), "image"),
        ("conv2d", 2, (4, 5, 5), "channels"),
        ("conv2d", 2, (2, 4, 5, 5), "channels"),
        ("conv2d", 2, (3, 2, 5), "smaller"),
    ])
    def test_wrong_shape_raises_shape_error(self, kind, which, shape, match):
        forward, adapter, args = self.args(kind)
        args[which] = np.ones(shape)
        with pytest.raises(tc.ShapeError, match=match):
            forward(adapter, *args)

    @pytest.mark.parametrize("which,name", [(0, "base weight"), (1, "bias"), (2, "input")],
                             ids=["w0", "bias", "x"])
    @pytest.mark.parametrize("kind", ["linear", "conv2d"])
    def test_complex_raises_complex_input_error(self, kind, which, name):
        forward, adapter, args = self.args(kind)
        args[which] = args[which] + 0j
        with pytest.raises(tc.ComplexInputError, match=f"^{name} is complex"):
            forward(adapter, *args)

    def test_wrong_layer_kind_raises_shape_error(self):
        _, linear, linear_args = self.args("linear")
        _, conv, conv_args = self.args("conv2d")
        with pytest.raises(tc.ShapeError, match="forward_linear needs a linear layer"):
            ad.forward_linear(conv, *conv_args)
        with pytest.raises(tc.ShapeError, match="forward_conv needs a conv2d layer"):
            ad.forward_conv(linear, *linear_args)


class TestForwardConvScans:
    """Each value of k0 and x is scanned for NaN/inf by the conv2d calls that read it, no more."""

    @pytest.fixture
    def scanned(self, monkeypatch):
        seen = []
        check = tc._require_finite

        def counting(arr, what):
            seen.append(arr)
            check(arr, what)

        monkeypatch.setattr(tc, "_require_finite", counting)
        return seen

    @pytest.mark.parametrize("algorithm,tucker", CONV_FORMS)
    @pytest.mark.parametrize("batch", [None, 3], ids=["image", "batch"])
    def test_k0_once_and_x_twice(self, scanned, algorithm, tucker, batch):
        # x's second scan is the adapter term's own conv2d, the first that reads x
        rng = np.random.default_rng(61)
        adapter = ad.random_adapter(algorithm, CONV_SMALL, 2, alpha=1.0, factor=2,
                                    tucker=tucker, seed=62)
        k0 = rng.standard_normal(CONV_SMALL.delta_shape)
        x = rng.standard_normal((6, 7, 7) if batch is None else (batch, 6, 7, 7))
        ad.forward_conv(adapter, k0, rng.standard_normal(8), x)
        assert sum(arr is k0 for arr in scanned) == 1
        assert sum(arr is x for arr in scanned) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which,name", [(0, "kernel"), (2, "image")], ids=["k0", "x"])
    def test_non_finite_named_by_conv2d(self, which, name, bad):
        adapter = ad.random_adapter("lora", CONV_SMALL, 2, alpha=1.0, seed=63)
        args = [np.ones(CONV_SMALL.delta_shape), np.ones(8), np.ones((6, 7, 7))]
        args[which].flat[[17, 40]] = bad
        want = f"{name} holds a non-finite value at flat index 17: {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            ad.forward_conv(adapter, *args)


class TestMergeCombine:
    def test_merge_lambda_zero(self):
        adapter = ad.random_adapter("lora", LINEAR_RECT, 4, alpha=4.0, seed=22)
        w0 = np.random.default_rng(23).standard_normal((48, 80))
        np.testing.assert_array_equal(ad.merge(adapter, w0, 0.0), w0)

    def test_merge_lambda_one_zero_base(self):
        adapter = ad.random_adapter("lora", LINEAR_RECT, 4, alpha=2.0, seed=24)
        want = adapter.scale.gamma * ad.reconstruct(adapter)
        np.testing.assert_allclose(ad.merge(adapter, np.zeros((48, 80)), 1.0),
                                   want, rtol=1e-15)

    def test_merge_then_zero_adapter_equals_adapted_forward(self):
        rng = np.random.default_rng(25)
        adapter = ad.random_adapter("loha", LINEAR_64, 4, alpha=4.0, seed=26)
        w0 = rng.standard_normal((64, 64))
        b = rng.standard_normal(64)
        merged = ad.merge(adapter, w0, 1.0)
        zero = ad.init_adapter("loha", LINEAR_64, 4, alpha=4.0, seed=27)
        for _ in range(5):
            x = rng.standard_normal(64)
            want = ad.forward_linear(adapter, w0, b, x)
            got = ad.forward_linear(zero, merged, b, x)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_merge_rejects_complex(self):
        adapter = ad.random_adapter("lora", LINEAR_RECT, 2, alpha=2.0, seed=28)
        with pytest.raises(tc.ComplexInputError, match="^weight is complex"):
            ad.merge(adapter, np.ones((48, 80)) * 1j)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_merge_rejects_non_finite_weight(self, lam):
        adapter = ad.random_adapter("lora", LINEAR_RECT, 2, alpha=2.0, seed=28)
        with pytest.raises(ValueError, match="merge weight must be finite"):
            ad.merge(adapter, np.ones((48, 80)), lam)

    def test_merge_rejects_wrong_base_shape(self):
        adapter = ad.random_adapter("lora", LINEAR_RECT, 2, alpha=2.0, seed=28)
        with pytest.raises(tc.ShapeError, match=r"weight shape \(80, 48\) != layer shape \(48, 80\)"):
            ad.merge(adapter, np.ones((80, 48)))

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    def test_scale_factors_rejects_non_finite(self, c):
        adapter = ad.random_adapter("lora", LINEAR_RECT, 2, alpha=2.0, seed=28)
        with pytest.raises(ValueError, match="scale must be finite"):
            ad.scale_factors(adapter, c)

    def test_merge_is_pure(self):
        # merge scales and adds in place: into its own array, never into w0
        # or a stored factor (a whole lokr w2 is the right block's dense())
        for algorithm, layer, dim, factor, tucker in all_forms() + [p.values[0] for p in LARGE_FORMS]:
            adapter = ad.random_adapter(algorithm, layer, dim, 2.0, factor=factor, tucker=tucker, seed=28)
            stored = {role: t.copy() for role, t in adapter.tensors().items()}
            w0 = np.ones(layer.delta_shape)
            merged = ad.merge(adapter, w0, 2.0)
            np.testing.assert_array_equal(w0, np.ones(layer.delta_shape))
            for role, t in adapter.tensors().items():
                np.testing.assert_array_equal(t, stored[role], err_msg=role)
            assert not any(np.shares_memory(merged, t) for t in [w0, *adapter.tensors().values()])


class TestParamCount:
    def test_lora_closed_form(self):
        adapter = ad.random_adapter("lora", LINEAR_64, 16, alpha=16.0, seed=0)
        assert ad.param_count(adapter) == 2048

    def test_loha_matches_double_rank_lora(self):
        adapter = ad.random_adapter("loha", LINEAR_64, 8, alpha=8.0, seed=0)
        assert ad.param_count(adapter) == 2048

    def test_lokr_full(self):
        adapter = ad.random_adapter("lokr", LINEAR_64, 8, alpha=8.0,
                                    factor=8, seed=0)
        assert adapter.w2 is not None
        assert ad.param_count(adapter) == 128

    def test_conv_closed_forms(self):
        r, out_c, in_c, k = 3, 8, 6, 3
        plain = ad.random_adapter("lora", CONV_SMALL, r, alpha=1.0, seed=0)
        assert ad.param_count(plain) == r * (in_c * k * k + out_c)
        tucker = ad.random_adapter("lora", CONV_SMALL, r, alpha=1.0,
                                   tucker=True, seed=0)
        assert ad.param_count(tucker) == r * (r * k * k + in_c + out_c)

    @pytest.mark.parametrize("algorithm,layer,dim,factor,tucker", all_forms())
    def test_equals_stored_scalars(self, algorithm, layer, dim, factor, tucker):
        adapter = ad.init_adapter(algorithm, layer, dim, alpha=float(dim),
                                  factor=factor, tucker=tucker, seed=1)
        total = sum(t.size for t in adapter.tensors().values())
        assert ad.param_count(adapter) == total


class TestMaxRankBound:
    def test_pinned_values(self):
        lora = ad.random_adapter("lora", LINEAR_64, 8, alpha=8.0, seed=0)
        assert ad.max_rank_bound(lora) == 8
        loha = ad.random_adapter("loha", LINEAR_64, 4, alpha=4.0, seed=0)
        assert ad.max_rank_bound(loha) == 16
        lokr = ad.random_adapter("lokr", LINEAR_64, 8, alpha=8.0, factor=8, seed=0)
        assert ad.max_rank_bound(lokr) == 64

    @pytest.mark.parametrize("algorithm,layer,dim,factor,tucker", all_forms())
    def test_numerical_rank_within_bound(self, algorithm, layer, dim, factor,
                                         tucker):
        adapter = ad.random_adapter(algorithm, layer, dim, alpha=float(dim),
                                    factor=factor, tucker=tucker, seed=33)
        delta = ad.reconstruct(adapter)
        rank = np.linalg.matrix_rank(delta.reshape(layer.out_dim, -1), rtol=1e-10)
        assert rank <= ad.max_rank_bound(adapter)


class TestLokrFactorDims:
    def test_pinned_examples(self):
        assert ad.lokr_factor_dims(320, 8) == (8, 40)
        assert ad.lokr_factor_dims(7, 4) == (1, 7)
        assert ad.lokr_factor_dims(64, 100) == (8, 8)
        assert ad.lokr_factor_dims(64, -1) == (8, 8)

    def test_brute_force_oracle(self):
        import math
        for v in range(1, 200):
            for f in (-1, 3, 8):
                bound = math.isqrt(v) if f == -1 else min(f, math.isqrt(v))
                candidates = [u for u in range(1, max(bound, 1) + 1) if v % u == 0]
                want = max(candidates) if candidates else 1
                assert ad.lokr_factor_dims(v, f) == (want, v // want)

    def test_second_element_never_smaller(self):
        for v in range(1, 300):
            u, w = ad.lokr_factor_dims(v)
            assert u * w == v
            assert w >= u

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="positive"):
            ad.lokr_factor_dims(0)
        with pytest.raises(ValueError, match="factor"):
            ad.lokr_factor_dims(8, 0)

    @pytest.mark.parametrize("v,factor,match", [
        (2.5, -1, "extent"), (True, -1, "extent"), (np.float64(4), -1, "extent"),
        (8, 2.5, "factor"), (8, True, "factor"),
    ], ids=["float", "bool", "numpy-float", "float-factor", "bool-factor"])
    def test_rejects_non_integer_args(self, v, factor, match):
        with pytest.raises(ValueError, match=match):
            ad.lokr_factor_dims(v, factor)

    def test_is_full_boundary(self):
        # the right block is 8 x 8 at factor 8: whole from dim 8 on, factored below
        layer = ad.LayerShape("linear", 64, 64)
        roles = {dim: set(ad.init_adapter("lokr", layer, dim, float(dim), factor=8).tensors())
                 for dim in (8, 7)}
        assert roles == {8: {"c", "w2"}, 7: {"c", "up", "down"}}


class TestSvdFitLora:
    def test_exact_rank_r_recovery(self):
        rng = np.random.default_rng(34)
        delta = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 5))
        fit = ad.svd_fit_lora(delta, 3)
        residual = np.linalg.norm(ad.reconstruct(fit) - delta)
        assert residual < 1e-10
        assert fit.scale.gamma == 1.0

    def test_full_rank_is_exact(self):
        rng = np.random.default_rng(35)
        delta = rng.standard_normal((8, 5))
        fit = ad.svd_fit_lora(delta, 5)
        np.testing.assert_allclose(ad.reconstruct(fit), delta, atol=1e-10)

    def test_beats_random_factorizations(self):
        rng = np.random.default_rng(36)
        delta = rng.standard_normal((12, 10))
        r = 3
        fit_residual = np.linalg.norm(ad.reconstruct(ad.svd_fit_lora(delta, r))
                                      - delta)
        for _ in range(100):
            b = rng.standard_normal((12, r))
            a = rng.standard_normal((r, 10))
            assert fit_residual <= np.linalg.norm(b @ a - delta) + 1e-12

    def test_conv_kernel_fit(self):
        rng = np.random.default_rng(37)
        up = rng.standard_normal((8, 2))
        down = rng.standard_normal((2, 54))
        delta = (up @ down).reshape(8, 6, 3, 3)
        fit = ad.svd_fit_lora(delta, 2)
        assert fit.layer == ad.LayerShape("conv2d", 8, 6, 3)
        np.testing.assert_allclose(ad.reconstruct(fit), delta, atol=1e-10)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ad.svd_fit_lora(np.zeros((4, 6)), 5)

    @pytest.mark.parametrize("dim", [True, 2.5], ids=["bool", "float"])
    def test_rejects_non_integer_rank(self, dim):
        with pytest.raises(ValueError, match=f"dim {dim!r} out of range"):
            ad.svd_fit_lora(np.ones((4, 6)), dim)

    def test_rejects_rank_three_delta(self):
        with pytest.raises(tc.ShapeError, match=r"rank 2 or 4, got shape \(4, 3, 3\)"):
            ad.svd_fit_lora(np.ones((4, 3, 3)), 1)


class TestNkpFitLokr:
    def test_exact_kronecker_recovery(self):
        rng = np.random.default_rng(38)
        c = rng.standard_normal((4, 4))
        w2 = rng.standard_normal((8, 8))
        delta = np.kron(c, w2)
        fit = ad.nkp_fit_lokr(delta, factor=4)
        assert np.linalg.norm(ad.reconstruct(fit) - delta) < 1e-10
        np.testing.assert_allclose(np.linalg.norm(fit.c), 1.0, rtol=1e-12)
        flat = fit.c.ravel()
        assert flat[np.flatnonzero(flat)[0]] > 0

    def test_prime_extents_collapse_c(self):
        rng = np.random.default_rng(39)
        delta = rng.standard_normal((7, 13))
        fit = ad.nkp_fit_lokr(delta)
        assert fit.c.shape == (1, 1)
        np.testing.assert_allclose(fit.c, [[1.0]], rtol=1e-12)
        np.testing.assert_allclose(ad.reconstruct(fit), delta, atol=1e-10)

    def test_residual_improves_as_factor_shrinks(self):
        rng = np.random.default_rng(40)
        delta = rng.standard_normal((144, 144))
        residuals = []
        for f in (12, 8, 4):
            fit = ad.nkp_fit_lokr(delta, factor=f)
            residuals.append(np.linalg.norm(ad.reconstruct(fit) - delta))
        assert residuals[0] >= residuals[1] >= residuals[2]

    def test_inner_truncation(self):
        rng = np.random.default_rng(41)
        c = rng.standard_normal((4, 4))
        w2 = rng.standard_normal((16, 2)) @ rng.standard_normal((2, 16))
        fit = ad.nkp_fit_lokr(np.kron(c, w2), factor=4, dim=2)
        assert fit.up is not None and fit.up.shape == (16, 2)
        assert np.linalg.norm(ad.reconstruct(fit) - np.kron(c, w2)) < 1e-9

    @pytest.mark.parametrize("dim", [0, -3, True, 2.5], ids=["zero", "negative", "bool", "float"])
    def test_rejects_bad_dim_before_any_solve(self, monkeypatch, dim):
        def solve(*args):
            raise AssertionError("the split was solved before dim was checked")
        monkeypatch.setattr(np.linalg, "eigh", solve)
        monkeypatch.setattr(ad, "_sketch_top", solve)
        delta = np.random.default_rng(42).standard_normal((16, 12))
        with pytest.raises(ValueError, match=f"^dim must be a positive integer, got {re.escape(repr(dim))}$"):
            ad.nkp_fit_lokr(delta, factor=4, dim=dim)


EPS = np.finfo(np.float64).eps
FIT_SHAPES = {"tall": (24, 12), "wide": (12, 30), "square": (16, 16),
              "conv-wide": (6, 4, 3, 3), "conv-tall": (40, 2, 3, 3)}


def spectrum_values(n, spectrum):
    """The n singular values of a named spectrum."""
    return {
        "rank3": lambda: np.r_[3.0, 2.0, 1.0, np.zeros(n - 3)],
        "rank8": lambda: np.r_[np.arange(8.0, 0.0, -1.0), np.zeros(n - 8)],
        # a floor that the sketch's independence test misses and its trace test sees
        "rank3+1e-7": lambda: np.r_[3.0, 2.0, 1.0, np.full(n - 3, 1e-7)],
        "flat": lambda: np.ones(n),  # wholly degenerate: every cut is a tie
        "decay1e-3": lambda: np.logspace(0, -3, n),
        "decay1e-12": lambda: np.logspace(0, -12, n),
    }[spectrum]()


def spectrum_matrix(rng, p, q, spectrum):
    """A (p, q) matrix with the named singular values; "gaussian" draws i.i.d. entries."""
    n = min(p, q)
    if spectrum == "gaussian":
        return rng.standard_normal((p, q))
    u = np.linalg.qr(rng.standard_normal((p, n)))[0]
    v = np.linalg.qr(rng.standard_normal((q, n)))[0]
    return (u * spectrum_values(n, spectrum)) @ v.T


# TestSketchFit's lora cases at r = 1 and r = 8 take the same input one
# after the other, and its largest is 18 MiB: one is kept
@functools.lru_cache(maxsize=1)
def sketch_input(seed, p, q, spectrum):
    """spectrum_matrix(default_rng(seed), p, q, spectrum), read-only, as the fits must leave it."""
    a = spectrum_matrix(np.random.default_rng(seed), p, q, spectrum)
    a.flags.writeable = False
    return a


def gram_excess(a, s, r):
    """Bound on |fit residual|^2 - |SVD residual|^2 from the rounded Gram matrix.

    Forming and solving the Gram matrix perturbs it by at most
    eta = max(p, q) * eps * |a|_F^2 (Frobenius). The top-r subspace then
    loses at most 2 r eta of captured energy, and to second order at most
    eta^2 / (sigma_r^2 - sigma_{r+1}^2).
    """
    eta = max(a.shape) * EPS * np.sum(a * a)
    gap = s[r - 1] ** 2 - (s[r] ** 2 if r < s.size else 0.0)
    return min(2 * r * eta, eta ** 2 / gap if gap > 0 else np.inf), eta, gap


class TestGramFit:
    """The Gram-matrix fits against np.linalg.svd as the oracle."""

    @staticmethod
    def fit_and_oracle(shape, spectrum, seed):
        p, q = shape[0], int(np.prod(shape[1:]))
        a = spectrum_matrix(np.random.default_rng(seed), p, q, spectrum)
        u, s, vh = np.linalg.svd(a)
        return a, u, s, vh

    @pytest.mark.parametrize("spectrum", ["rank3", "flat", "decay1e-3", "decay1e-12", "gaussian"])
    @pytest.mark.parametrize("shape", FIT_SHAPES.values(), ids=FIT_SHAPES.keys())
    def test_residual_matches_svd(self, shape, spectrum):
        a, u, s, vh = self.fit_and_oracle(shape, spectrum, seed=60)
        # the oracle's own rounding, read off its full-rank residual, and 8
        # ulps of |delta|_F for the rounding of the fit's rank-r product
        slack = np.linalg.norm(a - (u[:, :s.size] * s) @ vh[:s.size]) + 8 * EPS * np.linalg.norm(a)
        for r in range(1, s.size + 1):
            fit = ad.svd_fit_lora(a.reshape(shape), r)
            got = np.linalg.norm(a - fit.up @ fit.down.reshape(r, -1))
            want = np.linalg.norm(a - (u[:, :r] * s[:r]) @ vh[:r])
            excess, _, _ = gram_excess(a, s, r)
            assert want - slack <= got <= want + slack + excess / (got + want), (r, got, want)
            if spectrum != "decay1e-12":
                # every kept singular value is resolved: equal to rounding
                assert abs(got - want) <= slack, (r, got, want)

    @pytest.mark.parametrize("spectrum", ["rank3", "decay1e-3", "decay1e-12", "gaussian"])
    @pytest.mark.parametrize("shape", FIT_SHAPES.values(), ids=FIT_SHAPES.keys())
    def test_reconstruct_agrees_with_svd_truncation(self, shape, spectrum):
        a, u, s, vh = self.fit_and_oracle(shape, spectrum, seed=61)
        checked = 0
        for r in range(1, s.size + 1):
            excess, eta, gap = gram_excess(a, s, r)
            if gap < 0.5 * s[r - 1] ** 2:
                continue  # sigma_r does not clearly exceed sigma_{r+1}
            fit = ad.reconstruct(ad.svd_fit_lora(a.reshape(shape), r)).reshape(a.shape)
            truncated = (u[:, :r] * s[:r]) @ vh[:r]
            # subspace angle eta / gap, seen through sigma_1, for both projectors
            bound = 2 * s[0] * eta / gap + max(a.shape) * EPS * np.linalg.norm(a)
            assert np.linalg.norm(fit - truncated) <= bound, r
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("shape", FIT_SHAPES.values(), ids=FIT_SHAPES.keys())
    def test_factor_conventions(self, shape):
        a, _, s, _ = self.fit_and_oracle(shape, "gaussian", seed=62)
        n = s.size
        for r in sorted({1, n // 2, n}):
            fit = ad.svd_fit_lora(a.reshape(shape), r)
            down = fit.down.reshape(r, -1)
            # eigh and thin QR both return orthonormal columns to a few ulps per entry
            np.testing.assert_allclose(down @ down.T, np.eye(r), rtol=0, atol=4 * n * EPS)
            # up is delta @ down.T: the one GEMM, to its rounding bound
            bound = 2 * a.shape[1] * EPS * (np.abs(a) @ np.abs(down.T))
            assert np.all(np.abs(fit.up - a @ down.T) <= bound)

    @pytest.mark.parametrize("magnitude", [1e200, 1e-200, 1e-310])
    @pytest.mark.parametrize("shape", FIT_SHAPES.values(), ids=FIT_SHAPES.keys())
    def test_extreme_magnitudes(self, shape, magnitude):
        a, _, _, _ = self.fit_and_oracle(shape, "rank3", seed=63)
        b = a * magnitude
        fit = ad.svd_fit_lora(b.reshape(shape), 3)
        down = fit.down.reshape(3, -1)
        np.testing.assert_allclose(down @ down.T, np.eye(3), rtol=0, atol=64 * EPS)
        # compare in unit scale; a subnormal input is itself rounded to
        # 2^-1074, which is 5e-14 of an entry of 1e-310
        got = (fit.up / magnitude) @ down
        resolution = max(EPS, np.finfo(np.float64).smallest_subnormal / (magnitude * np.abs(a).max()))
        assert np.linalg.norm(got - a) <= 64 * resolution * np.linalg.norm(a)

    def test_zero_delta(self):
        fit = ad.svd_fit_lora(np.zeros((5, 7)), 3)
        np.testing.assert_array_equal(fit.up, 0.0)
        np.testing.assert_array_equal(fit.down, np.eye(3, 7))


class TestGramFitLokr:
    SHAPES = [((16, 12), 4), ((12, 16), 4), ((16, 16), 2), ((8, 6, 3, 3), 2)]

    @staticmethod
    def rearranged(delta, factor):
        u_p, v_p = ad.lokr_factor_dims(delta.shape[0], factor)
        u_q, v_q = ad.lokr_factor_dims(delta.shape[1], factor)
        return ad._nkp_rearrange(delta, u_p, v_p, u_q, v_q)

    @pytest.mark.parametrize("shape,factor", SHAPES)
    def test_c_unit_sign_and_right(self, shape, factor):
        delta = np.random.default_rng(64).standard_normal(shape)
        fit = ad.nkp_fit_lokr(delta, factor=factor)
        c = fit.c.ravel()
        rows = c.size
        assert abs(np.linalg.norm(c) - 1.0) <= rows * EPS
        assert c[np.flatnonzero(c)[0]] > 0
        r = self.rearranged(delta, factor)
        bound = 2 * rows * EPS * (np.abs(r.T) @ np.abs(c))
        assert np.all(np.abs(fit.w2.ravel() - r.T @ c) <= bound)

    @pytest.mark.parametrize("shape,factor", SHAPES)
    def test_c_is_the_top_left_singular_vector(self, shape, factor):
        delta = np.random.default_rng(65).standard_normal(shape)
        r = self.rearranged(delta, factor)
        u, s, vh = np.linalg.svd(r)
        _, eta, gap = gram_excess(r, s, 1)
        want = u[:, 0] * np.sign(u[np.flatnonzero(u[:, 0])[0], 0])
        got = ad.nkp_fit_lokr(delta, factor=factor).c.ravel()
        assert np.linalg.norm(got - want) <= 2 * eta / gap + max(r.shape) * EPS

    @pytest.mark.parametrize("magnitude", [1e200, 1e-200, 1e-310])
    def test_extreme_magnitudes(self, magnitude):
        rng = np.random.default_rng(66)
        c, w2 = rng.standard_normal((4, 4)), rng.standard_normal((8, 8))
        delta = np.kron(c, w2)
        fit = ad.nkp_fit_lokr(delta * magnitude, factor=4)
        got = np.kron(fit.c, fit.w2 / magnitude)
        resolution = max(EPS, np.finfo(np.float64).smallest_subnormal / (magnitude * np.abs(delta).max()))
        assert np.linalg.norm(got - delta) <= 64 * resolution * np.linalg.norm(delta)

    def test_zero_delta_keeps_first_unit_vector(self):
        fit = ad.nkp_fit_lokr(np.zeros((8, 8)), factor=2)
        np.testing.assert_array_equal(fit.c, [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(fit.w2, 0.0)


class TestSketchFit:
    """The top-r solver on deltas large enough for its sketch, against the full eigh.

    Exact-rank deltas (rank below r + _OVERSAMPLE) are solved by the sketch
    with no eigh on the delta's Gram matrix. Every other spectrum falls
    back to the eigh path and returns its bytes; a full-rank one is refused
    after the sketch's first pass, before its basis is formed.
    """

    SHAPES = {"768x768": (768, 768), "3072x768": (3072, 768), "conv320": (320, 320, 3, 3)}
    EXACT = ("rank3", "rank8")
    FULL = ("flat", "decay1e-3", "decay1e-12", "gaussian")
    SPECTRA = [*EXACT, "rank3+1e-7", *FULL]

    @staticmethod
    def spy(monkeypatch):
        """Record the shapes eigh and qr take and whether each sketch solved its matrix."""
        seen = {"eigh": [], "qr": [], "sketch": []}
        eigh, qr, sketch = np.linalg.eigh, np.linalg.qr, ad._sketch_top

        def counted_eigh(g):
            seen["eigh"].append(g.shape)
            return eigh(g)

        def counted_qr(a):
            seen["qr"].append(a.shape)
            return qr(a)

        def counted_sketch(thin, r):
            out = sketch(thin, r)
            seen["sketch"].append(out is not None)
            return out
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        monkeypatch.setattr(ad, "_sketch_top", counted_sketch)
        return seen

    @staticmethod
    def eigh_path(monkeypatch, fit):
        with monkeypatch.context() as patch:
            patch.setattr(ad, "_sketch_top", lambda thin, r: None)
            return fit()

    def check(self, monkeypatch, spectrum, fit, grid, r, residual):
        """fit() against the eigh path: solver taken, bytes, and residual within gram_excess."""
        seen = self.spy(monkeypatch)
        got = fit()
        side = min(grid.shape)
        big = [shape for shape in seen["eigh"] if shape[0] == side]
        basis = (max(grid.shape), r + ad._OVERSAMPLE)
        if spectrum in self.EXACT:
            assert seen["sketch"][0] and not big
            again = fit()
            for name, value in got.tensors().items():
                assert again.tensors()[name].tobytes() == value.tobytes(), name
        else:
            assert not seen["sketch"][0] and len(big) == 1
            assert (basis in seen["qr"]) == (spectrum not in self.FULL)
        want = self.eigh_path(monkeypatch, fit)
        if spectrum not in self.EXACT:
            for name, value in got.tensors().items():
                assert want.tensors()[name].tobytes() == value.tobytes(), name
            return
        excess, _, _ = gram_excess(grid, spectrum_values(side, spectrum), r)
        a, b = residual(got), residual(want)
        # the rounding of each fit's rank-r product, as in TestGramFit
        slack = 8 * EPS * np.linalg.norm(grid)
        assert abs(a - b) <= slack + excess / (a + b), (a, b)

    @pytest.mark.parametrize("r", [1, 8])
    @pytest.mark.parametrize("spectrum", SPECTRA)
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_lora(self, monkeypatch, shape, spectrum, r):
        p, q = shape[0], int(np.prod(shape[1:]))
        a = sketch_input(67, p, q, spectrum)

        def residual(fit):
            return np.linalg.norm(a - fit.up @ fit.down.reshape(r, -1))
        self.check(monkeypatch, spectrum, lambda: ad.svd_fit_lora(a.reshape(shape), r), a, r, residual)

    @pytest.mark.parametrize("spectrum", SPECTRA)
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_lokr_split(self, monkeypatch, shape, spectrum):
        # the spectrum is the rearranged delta's, so that of the split itself
        u_p, v_p = ad.lokr_factor_dims(shape[0], -1)
        u_q, v_q = ad.lokr_factor_dims(shape[1], -1)
        kk = int(np.prod(shape[2:]))
        grid = sketch_input(68, u_p * u_q, v_p * v_q * kk, spectrum)
        blocks = grid.reshape(u_p, u_q, v_p, v_q, kk).swapaxes(1, 2)
        delta = blocks.reshape(shape)
        np.testing.assert_array_equal(ad._nkp_rearrange(delta, u_p, v_p, u_q, v_q), grid)

        def residual(fit):
            return np.linalg.norm(delta - ad.reconstruct(fit))
        self.check(monkeypatch, spectrum, lambda: ad.nkp_fit_lokr(delta, dim=8), grid, 1, residual)


class TestFitSolverFailure:
    @pytest.mark.parametrize("fit", [lambda d: ad.svd_fit_lora(d, 2), ad.nkp_fit_lokr],
                             ids=["svd_fit_lora", "nkp_fit_lokr"])
    def test_eigh_failure_is_a_numerical_error(self, monkeypatch, fit):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        delta = np.random.default_rng(64).standard_normal((6, 4))
        with pytest.raises(tc.NumericalError,
                           match="^eigendecomposition did not converge: Eigenvalues did not converge$"):
            fit(delta)


class TestInvariantErrors:
    def test_lora_bad_up_shape(self):
        with pytest.raises(ad.InvariantError, match="up shape"):
            ad.LoraAdapter(LINEAR_64, ad.MergeScale(alpha=4.0, dim=4),
                           np.zeros((64, 5)), np.zeros((4, 64)))

    def test_loha_branch_mismatch(self):
        scale = ad.MergeScale(alpha=2.0, dim=2)
        with pytest.raises(ad.InvariantError):
            ad.LohaAdapter(LINEAR_64, scale, np.zeros((64, 2)), np.zeros((2, 64)),
                           np.zeros((64, 2)), np.zeros((2, 63)))

    def test_lokr_indivisible_extent(self):
        layer = ad.LayerShape("linear", 64, 64)
        with pytest.raises(ad.InvariantError, match="divisible"):
            ad.LokrAdapter(layer, ad.MergeScale(alpha=2.0, dim=2), -1,
                           c=np.zeros((3, 8)), w2=np.zeros((22, 8)))

    @pytest.mark.parametrize("c", [np.zeros((0, 8)), None], ids=["empty", "missing"])
    def test_lokr_empty_c(self, c):
        layer = ad.LayerShape("linear", 64, 64)
        with pytest.raises(ad.InvariantError, match="non-empty"):
            ad.LokrAdapter(layer, ad.MergeScale(alpha=2.0, dim=2), -1,
                           c=c, w2=np.zeros((8, 8)))

    def test_lokr_c_must_match_factor(self):
        # lokr_factor_dims(64, 4) is (4, 16), so factor 4 needs c of (4, 4)
        layer = ad.LayerShape("linear", 64, 64)
        with pytest.raises(ad.InvariantError, match=r"c shape \(8, 8\) != \(4, 4\)"):
            ad.LokrAdapter(layer, ad.MergeScale(alpha=2.0, dim=2), 4,
                           c=np.ones((8, 8)), w2=np.ones((8, 8)))

    @pytest.mark.parametrize("algorithm", ad.ALGORITHMS)
    def test_tucker_core_on_a_linear_layer(self, algorithm):
        # each family's plain linear form plus a (r, r, 1, 1) core on every branch
        adapter = ad.random_adapter(algorithm, LINEAR_RECT, 2, alpha=2.0, factor=4, seed=0)
        cores = {role: np.ones((2, 2, 1, 1)) for role in adapter.ROLES if role.startswith("core")}
        with pytest.raises(ad.InvariantError, match="^Tucker core requires a conv2d layer$"):
            dataclasses.replace(adapter, **cores)

    @pytest.mark.parametrize("role", ["core1", "core2"])
    def test_loha_core_on_one_branch(self, role):
        plain = ad.random_adapter("loha", CONV_SMALL, 3, alpha=3.0, seed=0)
        tucker = ad.random_adapter("loha", CONV_SMALL, 3, alpha=3.0, tucker=True, seed=0)
        other = {"core1": "core2", "core2": "core1"}[role]
        with pytest.raises(ad.InvariantError, match=rf"^roles \['{role}'\] are missing"):
            dataclasses.replace(tucker, **{role: None})
        with pytest.raises(ad.InvariantError, match=rf"^roles \['{other}'\] are missing"):
            dataclasses.replace(plain, **{role: getattr(tucker, role)})

    def test_lokr_full_excludes_factored(self):
        layer = ad.LayerShape("linear", 64, 64)
        with pytest.raises(ad.InvariantError, match="excludes"):
            ad.LokrAdapter(layer, ad.MergeScale(alpha=2.0, dim=2), -1,
                           c=np.zeros((8, 8)), w2=np.zeros((8, 8)),
                           up=np.zeros((8, 2)), down=np.zeros((2, 8)))

    @pytest.mark.parametrize("algorithm,layer,dim,factor,tucker", all_forms())
    def test_complex_factor_refused(self, algorithm, layer, dim, factor, tucker):
        # the constructors check every factor; only the harness's stacked
        # views, which skip them, hold complex probes
        adapter = ad.random_adapter(algorithm, layer, dim, alpha=float(dim),
                                    factor=factor, tucker=tucker, seed=35)
        for role, value in adapter.tensors().items():
            with pytest.raises(tc.ComplexInputError, match=f"^{role} is complex"):
                dataclasses.replace(adapter, **{role: value + 1e-30j})


class TestMemberAxis:
    """Factors with a leading member axis, as the training harness stacks them."""

    @staticmethod
    def members(name):
        # three members of one harness form: same shapes, different factors
        return [oh.build_toy_model(name, seed=seed).layers for seed in (1, 2, 3)]

    @pytest.mark.parametrize("name", sorted(oh.HARNESS_ALGORITHMS))
    def test_stack_of_three_equals_each_member(self, name):
        rng = np.random.default_rng(sorted(oh.HARNESS_ALGORITHMS).index(name))
        for layers in zip(*self.members(name)):
            each = [layer.adapter for layer in layers]
            stacked = ad._stacked(each[0], {role: np.stack([a.tensors()[role] for a in each])
                                            for role in each[0].tensors()})
            g = rng.standard_normal((3, *each[0].layer.delta_shape))
            delta, grads = stacked._delta(), stacked._vjp(g)
            blocks = []
            for block in stacked._blocks:
                g_b = rng.standard_normal((3, *block.geometry.delta_shape))
                blocks.append((g_b, block.dense(), block.vjp(g_b)))
            for m, adapter in enumerate(each):
                assert np.array_equal(delta[m], adapter._delta())
                want = adapter._vjp(g[m])
                assert set(grads) == set(want)
                assert all(np.array_equal(grads[role][m], want[role]) for role in want)
                for (g_b, dense, vjp), block in zip(blocks, adapter._blocks):
                    assert np.array_equal(dense[m], block.dense())
                    assert all(np.array_equal(vjp[role][m], value)
                               for role, value in block.vjp(g_b[m]).items())

    @pytest.mark.parametrize("name", sorted(oh.HARNESS_ALGORITHMS))
    def test_constructors_refuse_a_stacked_factor(self, name):
        adapter = self.members(name)[0][0].adapter
        for role, value in adapter.tensors().items():
            with pytest.raises(ad.InvariantError):
                dataclasses.replace(adapter, **{role: np.stack([value, value])})


class TestModelInit:
    def test_layers_get_distinct_streams(self):
        entries = [("a", LINEAR_64), ("b", LINEAR_64)]
        model = ad.init_model(entries, "lora", 4, alpha=4.0, seed=0)
        assert not np.array_equal(model.entries["a"].down,
                                  model.entries["b"].down)

    def test_model_deterministic(self):
        entries = [("a", LINEAR_64), ("b", CONV_SMALL)]
        m1 = ad.init_model(entries, "loha", 3, alpha=3.0, tucker=True, seed=9)
        m2 = ad.init_model(entries, "loha", 3, alpha=3.0, tucker=True, seed=9)
        for name in ("a", "b"):
            for role, t in m1.entries[name].tensors().items():
                np.testing.assert_array_equal(t, m2.entries[name].tensors()[role])

    def test_tucker_skips_linear_layers(self):
        entries = [("lin", LINEAR_64), ("conv", CONV_SMALL)]
        model = ad.init_model(entries, "lora", 3, alpha=3.0, tucker=True, seed=0)
        assert model.entries["lin"].core is None
        assert model.entries["conv"].core is not None

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ad.init_model([("a", LINEAR_64), ("a", LINEAR_64)], "lora", 2,
                          alpha=2.0)


class TestLohaRankDistribution:
    def test_rank_exceeds_double_dim_with_high_probability(self):
        layer = ad.LayerShape("linear", 64, 64)
        exceed = 0
        children = np.random.SeedSequence(42).spawn(200)
        for child in children:
            adapter = ad.random_adapter("loha", layer, 4, alpha=4.0, seed=child)
            rank = np.linalg.matrix_rank(ad.reconstruct(adapter), rtol=1e-10)
            assert rank <= 16
            if rank > 8:
                exceed += 1
        assert exceed >= 198


@given(st.sampled_from(["lora", "loha", "lokr"]), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_scale_factors_homogeneity(algorithm, seed):
    # multiplying every factor by 2 scales the delta by 2^(factor count)
    layer = ad.LayerShape("linear", 12, 18)
    adapter = ad.random_adapter(algorithm, layer, 2, alpha=2.0, factor=3,
                                seed=seed)
    k = len(adapter.tensors())
    doubled = ad.scale_factors(adapter, 2.0)
    np.testing.assert_allclose(ad.reconstruct(doubled),
                               (2.0 ** k) * ad.reconstruct(adapter),
                               rtol=1e-12, atol=1e-12)
