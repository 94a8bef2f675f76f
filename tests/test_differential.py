"""A differential sweep: each adapter path against a dense oracle, on drawn geometries.

Each example draws a family, a linear or conv2d layer (extents 1-39,
kernels 1-3), the Tucker form, a rank, a lokr factor and a seed, and sets
adapters._ROW_BLOCK to 2-63 values, so that layers this small still span
several row blocks with whole, short and lone last rows. It then checks
reconstruct, merge, both forwards, max_rank_bound, the .lwu round trip, the
exact-rank fits and the gradients (_vjp) against whole-matrix oracles that
share none of the row-block code (whole_formula, dense_forward, np.kron,
np.linalg.svd, and whole_formula's complex-step derivative).

Each entry may differ from its oracle by ROUNDING_UNITS units of eps times
its own sum of magnitudes: the oracle taken with |.| on every operand. The
fits are held to TestGramFit's bound instead.

The sweep's extents never give a Gram side large enough for _sketch_top, so
a second test draws exact-rank fits on sides of 72-100, where a spy asserts
that the sketch accepted each, and holds them to the same bounds.
"""

import functools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltafactor import adapters as ad
from deltafactor import optim_harness as oh
from deltafactor import weightfile as wf
from test_adapters import dense_forward, gram_excess, whole_formula

EPS = np.finfo(np.float64).eps
# the longest sum of products here has 39 * 9 terms (the conv forward's
# window sums) or 64 (through a Tucker core); over 3000 drawn examples the
# forwards read at most 2.0 units and reconstruct 0.8. A relative shift of
# 1e-13, about 450 units, fails.
ROUNDING_UNITS = 32


def within(got, want, magnitude, what, extra=0.0):
    """got equals want to ROUNDING_UNITS units of eps times each entry's magnitude sum, plus extra."""
    assert got.shape == want.shape, what
    assert np.all(np.abs(got - want) <= ROUNDING_UNITS * EPS * magnitude + extra), what


def gram_fit_slack(a, r, got):
    """TestGramFit's bound on a rank-r fit residual `got` of a: want + slack + excess / (got + want)."""
    u, s, vh = np.linalg.svd(a)
    want = np.linalg.norm(a - (u[:, :r] * s[:r]) @ vh[:r])
    slack = np.linalg.norm(a - (u[:, :s.size] * s) @ vh[:s.size]) + 8 * EPS * np.linalg.norm(a)
    excess, _, _ = gram_excess(a, s, r)
    return want + slack + (excess / (got + want) if got + want else 0.0)


@st.composite
def sweep_cases(draw):
    algorithm = draw(st.sampled_from(ad.ALGORITHMS))
    kind = draw(st.sampled_from(["linear", "conv2d"]))
    kernel = draw(st.integers(1, 3)) if kind == "conv2d" else 1
    layer = ad.LayerShape(kind, draw(st.integers(1, 39)), draw(st.integers(1, 39)), kernel)
    return {
        "algorithm": algorithm,
        "layer": layer,
        "dim": draw(st.integers(1, 8)),
        "factor": draw(st.sampled_from([-1, 1, 2, 3, 4, 8])),
        "tucker": kind == "conv2d" and draw(st.booleans()),
        "alpha": draw(st.sampled_from([0.5, 1.0, 3.0])),
        "lam": draw(st.sampled_from([1.0, -0.7, 2.5])),
        "batch": draw(st.sampled_from([(), (1,), (3,)])),
        "fit_extra": draw(st.integers(0, 2)),
        "row_block": draw(st.integers(2, 63)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def check_reconstruct_and_merge(adapter, rng, lam):
    delta = ad.reconstruct(adapter)
    want = whole_formula(adapter)
    magnitude = whole_formula(adapter, {role: np.abs(t) for role, t in adapter.tensors().items()})
    within(delta, want, magnitude, "reconstruct")
    w0 = rng.standard_normal(adapter.layer.delta_shape)
    scale = lam * adapter.scale.gamma
    within(ad.merge(adapter, w0, lam), w0 + scale * want, np.abs(w0) + abs(scale) * magnitude, "merge")
    return want, magnitude


def check_forward(adapter, rng, batch, want, magnitude):
    layer, gamma = adapter.layer, adapter.scale.gamma
    w0 = rng.standard_normal(layer.delta_shape)
    bias = rng.standard_normal(layer.out_dim)
    zero = np.zeros(layer.out_dim)
    if layer.kind == "linear":
        x = rng.standard_normal((*batch, layer.in_dim))
        got = ad.forward_linear(adapter, w0, bias, x)
    else:
        size = layer.kernel + int(rng.integers(0, 3))
        x = rng.standard_normal((*batch, layer.in_dim, size, size))
        got = ad.forward_conv(adapter, w0, bias, x)
    oracle = dense_forward(w0, bias, x) + gamma * dense_forward(want, zero, x)
    x_abs = np.abs(x)
    bound = dense_forward(np.abs(w0), np.abs(bias), x_abs)
    bound += abs(gamma) * dense_forward(magnitude, zero, x_abs)
    within(got, oracle, bound, f"forward_{layer.kind}")


def check_rank_bound(adapter, want):
    layer = adapter.layer
    if isinstance(adapter, ad.LokrAdapter):
        u_p, _, u_q, _ = adapter.block_dims
        right = adapter._blocks[0].geometry
        inner = right.max_rank if adapter.w2 is not None else min(adapter.up.shape[1], right.max_rank)
        formula = min(u_p, u_q) * inner
    else:
        formula = adapter.up1.shape[1] ** 2 if isinstance(adapter, ad.LohaAdapter) else adapter.up.shape[1]
    bound = ad.max_rank_bound(adapter)
    assert bound == min(formula, layer.max_rank)
    assert np.linalg.matrix_rank(want.reshape(layer.out_dim, -1)) <= bound


def check_round_trip(algorithm, adapter, lam, want, magnitude, folder):
    meta = ad.ModelMeta(algorithm, adapter.scale.dim, adapter.scale.alpha, getattr(adapter, "factor", -1))
    path = os.path.join(folder, "adapter.lwu")
    wf.save_weights(ad.AdapterModel(meta, {"layer": adapter}), path)
    loaded = wf.load_weights(path)
    assert loaded.meta == meta
    got = loaded.entries["layer"]
    assert got.layer == adapter.layer and got.scale == adapter.scale
    for role, value in adapter.tensors().items():
        assert np.array_equal(got.tensors()[role], value.astype(np.float32)), role
    # the adapter reconstruct command's stream of scaled row blocks
    wf.save_dense({"layer": (adapter.layer, functools.partial(ad._layer_rows, adapter, lam))},
                  path, meta=meta)
    _, entries = wf.load_dense(path)
    scale = lam * adapter.scale.gamma
    # each value is rounded once more, to float32
    f32 = 2.0 ** -24 * (np.abs(scale * want) + abs(scale) * magnitude)
    within(entries["layer"][1], scale * want, abs(scale) * magnitude, "save_dense", extra=f32)


def check_lora_fit(adapter, fit_extra):
    a = ad.reconstruct(adapter)
    layer = adapter.layer
    r = min(ad.max_rank_bound(adapter) + fit_extra, layer.max_rank)
    fit = ad.svd_fit_lora(a, r)
    flat = a.reshape(layer.out_dim, -1)
    got = np.linalg.norm(flat - fit.up @ fit.down.reshape(r, -1))
    assert got <= gram_fit_slack(flat, r, got), ("svd_fit_lora", r, got)


def check_lokr_fit(layer, factor, fit_extra, rng):
    (u_p, u_q), right = ad._lokr_split(layer, factor)
    rank = int(rng.integers(1, right.max_rank + 1))
    w = (rng.standard_normal((right.out_dim, rank)) @ rng.standard_normal((rank, right.unrolled_in)))
    c = rng.standard_normal((u_p, u_q))
    delta = np.kron(c.reshape(u_p, u_q, *[1] * (len(right.delta_shape) - 2)), w.reshape(right.delta_shape))
    dim = None if fit_extra == 2 or rank == right.max_rank else rank + fit_extra
    fit = ad.nkp_fit_lokr(delta, factor=factor, dim=dim)
    flat_c = fit.c.ravel()
    assert abs(np.linalg.norm(flat_c) - 1.0) <= c.size * EPS
    assert flat_c[np.flatnonzero(flat_c)[0]] > 0
    # the split's residual, and the right block against R^T c, the one c leaves
    grid = ad._nkp_rearrange(delta, u_p, right.out_dim, u_q, right.in_dim)
    inner = grid.T @ flat_c
    split = np.linalg.norm(grid - np.outer(flat_c, inner))
    assert split <= gram_fit_slack(grid, 1, split), ("nkp_fit_lokr split", split)
    if fit.w2 is not None:
        # TestGramFitLokr's bound on each entry of R^T c
        got = fit.w2.ravel()
        assert np.all(np.abs(got - inner) <= 2 * c.size * EPS * (np.abs(grid.T) @ np.abs(flat_c)))
    else:
        got = (fit.up @ fit.down.reshape(fit.scale.dim, -1)).ravel()
        inner_fit = np.linalg.norm(inner - got)
        assert inner_fit <= gram_fit_slack(inner.reshape(right.out_dim, -1), dim, inner_fit), \
            ("nkp_fit_lokr inner", dim, inner_fit)
    residual = np.linalg.norm(delta - ad.reconstruct(fit))
    assert residual <= split + np.linalg.norm(inner - got) + 8 * EPS * np.linalg.norm(delta)


def check_vjp(adapter, rng):
    """_vjp against the complex-step derivative of whole_formula, by the adjoint identity.

    For a random g and a direction d over every role, sum g * dDelta[d] (the
    imaginary part of whole_formula at theta + i h d, over h) must equal
    sum over roles of <_vjp(g)[role], d[role]>. Both sum the same products;
    the magnitude sum takes each with |.| on every operand.
    """
    tensors = adapter.tensors()
    g = rng.standard_normal(adapter.layer.delta_shape)
    direction = {role: rng.standard_normal(t.shape) for role, t in tensors.items()}

    def derivative(theta, d):
        shifted = {role: theta[role] + (1j * oh.COMPLEX_STEP) * d[role] for role in theta}
        return whole_formula(adapter, shifted).imag / oh.COMPLEX_STEP

    want = np.sum(g * derivative(tensors, direction))
    magnitude = np.sum(np.abs(g) * derivative({role: np.abs(t) for role, t in tensors.items()},
                                              {role: np.abs(d) for role, d in direction.items()}))
    grads = adapter._vjp(g)
    assert grads.keys() == tensors.keys()
    got = sum(np.sum(grads[role] * direction[role]) for role in tensors)
    within(got, want, magnitude, "_vjp")


@settings(max_examples=120, deadline=None)
@given(sweep_cases())
def test_every_path_against_its_dense_oracle(case):
    """One drawn form: reconstruct, merge, forwards, rank bound, .lwu round trip and fits."""
    layer = case["layer"]
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as folder:
        patch.setattr(ad, "_ROW_BLOCK", case["row_block"])
        adapter = ad.random_adapter(case["algorithm"], layer, case["dim"], case["alpha"],
                                    factor=case["factor"], tucker=case["tucker"], seed=case["seed"])
        rng = np.random.default_rng(case["seed"])
        want, magnitude = check_reconstruct_and_merge(adapter, rng, case["lam"])
        check_forward(adapter, rng, case["batch"], want, magnitude)
        check_rank_bound(adapter, want)
        check_round_trip(case["algorithm"], adapter, case["lam"], want, magnitude, folder)
        check_lora_fit(adapter, case["fit_extra"])
        check_lokr_fit(layer, case["factor"], case["fit_extra"], rng)
        check_vjp(adapter, rng)


@st.composite
def sketch_cases(draw):
    # lora: a layer whose Gram side n, its max_rank, is 72-100, and a fit
    # dim with 8 * (dim + 8) <= n, the largest _fit_block tries the sketch at;
    # lokr: channel extents whose split has u_p * u_q >= 72 (9 * 8 at least)
    if draw(st.booleans()):
        layer = ad.LayerShape("linear", draw(st.integers(72, 100)), draw(st.integers(72, 100)))
    else:
        layer = ad.LayerShape("conv2d", draw(st.integers(72, 100)), draw(st.integers(8, 11)), 3)
    top = layer.max_rank // 8 - ad._OVERSAMPLE
    rank = draw(st.integers(1, top))
    kind = draw(st.sampled_from(["linear", "conv2d"]))
    lokr_layer = ad.LayerShape(kind, draw(st.sampled_from([81, 90, 99, 100])),
                               draw(st.sampled_from([72, 80, 81, 90, 96, 99, 100])),
                               draw(st.integers(1, 3)) if kind == "conv2d" else 1)
    return {"layer": layer, "rank": rank, "fit_extra": draw(st.integers(0, top - rank)),
            "lokr_layer": lokr_layer, "lokr_extra": draw(st.integers(0, 2)),
            "seed": draw(st.integers(0, 2**32 - 1))}


@settings(max_examples=60, deadline=None)
@given(sketch_cases())
def test_exact_rank_fits_take_the_sketch(case):
    """Exact-rank fits on Gram sides of 72-100: _sketch_top accepts each, and the fit holds."""
    accepted = []
    sketch_top = ad._sketch_top

    def spy(thin, r):
        vectors = sketch_top(thin, r)
        accepted.append(vectors is not None)
        return vectors

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "_sketch_top", spy)
        adapter = ad.random_adapter("lora", case["layer"], case["rank"], 1.0, seed=case["seed"])
        check_lora_fit(adapter, case["fit_extra"])
        assert accepted == [True], "svd_fit_lora"
        accepted.clear()
        rng = np.random.default_rng(case["seed"])
        check_lokr_fit(case["lokr_layer"], -1, case["lokr_extra"], rng)
        # the split only: the right block's side is below 72
        assert accepted == [True], "nkp_fit_lokr"
