"""Acceptance suite: end-to-end checks of the package's core guarantees.

Each test covers one acceptance criterion and prints a single PASS or FAIL
line on the real stdout (bypassing capture) so the verdicts are visible in
any pytest invocation. A failing criterion prints its line and then fails
the assert with the same text.
"""

import dataclasses
import json
import math
import struct

import numpy as np
import pytest

from deltafactor import adapters as ad
from deltafactor import kron_linear as kl
from deltafactor import metrics as mt
from deltafactor import optim_harness as oh
from deltafactor import tensor_core as tc
from deltafactor import weightfile as wf

EPS = np.finfo(np.float64).eps
# forward against reference, in units of EPS times each entry's own sum of
# magnitudes: the longest sum on either side has at most 36 terms, about
# 18 units each to first order, and the drawn cases read at most 2.2. A02's
# deltas at c = 3 read at most 3.7 (loha-tucker: 6 rounded factors and two
# sums per side). A09's means run over at most 29 rows and read at most 0.5
# units; its Vendi scores, against their own size, read at most 0.67
# (identical rows score exactly 1: their rounding eigenvalues are dropped)
ROUNDING_UNITS = 32


@pytest.fixture
def report(capfd):
    def _report(label: str, ok: bool, detail: str) -> None:
        line = f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def test_a01_merge_ratio_equivalence(report):
    worst = 0.0
    for algo in oh.HARNESS_ALGORITHMS:
        for opt in ("sgd", "adam", "adagrad"):
            for s in (0.25, 4.0, 16.0):
                dev = oh.verify_merge_ratio(algo, s, opt, steps=100, seed=0)
                worst = max(worst, dev)
    # nonzero Adam epsilon breaks the exponent-1 rescaling
    control = oh.verify_merge_ratio("lora", 100.0, "adam", steps=100,
                                    seed=0, eps=1e-8)
    ok = worst < 1e-8 and control > 1e-4
    report("A01 merge-ratio equivalence", ok,
           f"grid max deviation {worst:.2e}, eps control {control:.2e}")


def test_a02_scale_homogeneity(report):
    for algo, k in {"lora": 2, "lokr-factored": 3, "loha": 4}.items():
        model = oh.build_toy_model(algo, seed=1)
        assert len(model.layers[0].adapter.tensors()) == k
    # scaling by 2 is exact in binary floating point, so every form reads 0
    exact = max(oh.homogeneity_check(algo, c=2.0, trials=100, seed=2) for algo in oh.HARNESS_ALGORITHMS)
    # at c = 3 each scaled factor rounds: the same draws, each entry in units
    # of EPS times its own sum of magnitudes
    worst = 0.0
    for algo, spec in oh.HARNESS_ALGORITHMS.items():
        shapes = oh.toy_geometry(spec.conv)
        for i, seed in enumerate(np.random.SeedSequence(2).spawn(100)):
            adapter = ad.random_adapter(spec.algorithm, shapes[i % len(shapes)], spec.dim,
                                        alpha=spec.dim, factor=spec.factor, tucker=spec.tucker, seed=seed)
            ck = 3.0 ** len(adapter.tensors())
            got = ad.reconstruct(ad.scale_factors(adapter, 3.0))
            want = ck * ad.reconstruct(adapter)
            magnitudes = ck * ad.reconstruct(
                dataclasses.replace(adapter, **{role: np.abs(t) for role, t in adapter.tensors().items()}))
            worst = max(worst, float(np.max(np.abs(got - want) / magnitudes)) / EPS)
    ok = exact == 0.0 and worst <= ROUNDING_UNITS
    report("A02 scale homogeneity", ok,
           f"7 forms, degrees 2-6: c = 2 max relative deviation {exact!r} (0 required), "
           f"c = 3 max {worst:.2f} units of each entry's magnitudes")


def test_a03_hadamard_rank_advantage(report):
    layer = ad.LayerShape("linear", 64, 64)
    loha_params = ad.param_count(ad.init_adapter("loha", layer, 4, alpha=4.0))
    lora_params = ad.param_count(ad.init_adapter("lora", layer, 8, alpha=8.0))
    draws = 1000
    over8 = within16 = lora_at8 = 0
    for i, seed in enumerate(np.random.SeedSequence(2024).spawn(draws)):
        loha = ad.random_adapter("loha", layer, 4, alpha=4.0, seed=seed)
        rank = np.linalg.matrix_rank(ad.reconstruct(loha), rtol=1e-10)
        over8 += rank > 8
        within16 += rank <= 16
        lora = ad.random_adapter("lora", layer, 8, alpha=8.0, seed=seed)
        lora_at8 += np.linalg.matrix_rank(ad.reconstruct(lora), rtol=1e-10) == 8
    ok = (loha_params == lora_params and over8 >= int(0.99 * draws)
          and within16 == draws and lora_at8 == draws)
    report("A03 hadamard rank advantage", ok,
           f"params {loha_params}=={lora_params}, rank>8 in {over8}/{draws}, "
           f"<=16 in {within16}/{draws}, lora==8 in {lora_at8}/{draws}")


def test_a04_grouped_kronecker_forward(report):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(60):
        up, uq, vp, vq = (int(rng.integers(1, 7)) for _ in range(4))
        r = int(rng.integers(1, 5))
        c = rng.standard_normal((up, uq))
        b = rng.standard_normal((vp, r))
        a = rng.standard_normal((r, vq))
        h = rng.standard_normal((int(rng.integers(1, 5)), uq * vq))
        got = kl.grouped_forward(c, b, a, h)
        want = h @ np.kron(c, b @ a).T
        magnitudes = np.abs(h) @ np.kron(np.abs(c), np.abs(b) @ np.abs(a)).T
        worst = max(worst, float(np.max(np.abs(got - want) / magnitudes)) / EPS)
    ranks_ok = True
    for _ in range(100):
        ra, rb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a1 = rng.standard_normal((5, ra)) @ rng.standard_normal((ra, 6))
        b1 = rng.standard_normal((4, rb)) @ rng.standard_normal((rb, 7))
        if np.linalg.matrix_rank(np.kron(a1, b1), rtol=1e-10) != ra * rb:
            ranks_ok = False
    ok = worst <= ROUNDING_UNITS and ranks_ok
    report("A04 grouped kronecker forward", ok,
           f"60 configs, max deviation {worst:.2f} units of each entry's magnitudes, "
           f"rank multiplicativity {'held' if ranks_ok else 'broke'}")


def test_a05_kronecker_factor_search(report):
    pins = {(320, 8): (8, 40), (7, 4): (1, 7), (9, 4): (3, 3),
            (64, 100): (8, 8)}
    pins_ok = all(ad.lokr_factor_dims(v, f) == want
                  for (v, f), want in pins.items())
    sweep_ok = True
    for v in range(1, 513):
        for f in (-1, 4, 8, 12):
            u1, u2 = ad.lokr_factor_dims(v, f)
            bound = math.isqrt(v) if f <= 0 else min(f, math.isqrt(v))
            best = 1
            for d in range(1, bound + 1):
                if v % d == 0:
                    best = d
            if (u1, u2) != (best, v // best):
                sweep_ok = False
    ok = pins_ok and sweep_ok
    report("A05 kronecker factor search", ok,
           "4 pinned pairs plus exhaustive sweep v<=512, f in {-1,4,8,12}")


def test_a06_conv_adapter_equivalence(report):
    rng = np.random.default_rng(5)
    worst = 0.0
    for algo in ("lora", "loha", "lokr"):
        for tucker in (False, True):
            for k in (1, 3):
                layer = ad.LayerShape("conv2d", 6, 4, k)
                adapter = ad.random_adapter(algo, layer, 2, alpha=1.0,
                                            tucker=tucker, seed=9)
                k0 = 0.3 * rng.standard_normal((6, 4, k, k))
                bias = 0.1 * rng.standard_normal(6)
                merged = ad.merge(adapter, k0)
                for _ in range(3):
                    x = rng.standard_normal((4, 7, 7))
                    got = ad.forward_conv(adapter, k0, bias, x)
                    want = tc.conv2d(merged, x) + bias[:, None, None]
                    magnitudes = tc.conv2d(np.abs(merged), np.abs(x)) + np.abs(bias)[:, None, None]
                    worst = max(worst, float(np.max(np.abs(got - want) / magnitudes)) / EPS)
    ok = worst <= ROUNDING_UNITS
    report("A06 conv adapter equivalence", ok,
           f"12 configs, max deviation {worst:.2f} units of each entry's magnitudes")


def test_a07_conv_parameter_counts(report):
    ok = True
    for out_c in (4, 8):
        for in_c in (3, 6):
            for k in (1, 3):
                for r in (2, 4):
                    layer = ad.LayerShape("conv2d", out_c, in_c, k)
                    plain = ad.init_adapter("lora", layer, r, alpha=float(r))
                    tuck = ad.init_adapter("lora", layer, r, alpha=float(r),
                                           tucker=True)
                    if ad.param_count(plain) != r * (in_c * k * k + out_c):
                        ok = False
                    if ad.param_count(tuck) != r * (r * k * k + in_c + out_c):
                        ok = False
    report("A07 conv parameter counts", ok, "16 shape/rank combinations")


def test_a08_gradient_exactness(report):
    worst = 0.0
    coverage_ok = True
    for algo in oh.HARNESS_ALGORITHMS:
        model = oh.build_toy_model(algo, seed=3, ratio=1.3)
        expected = {f"layer{i}.{role}"
                    for i, layer in enumerate(model.layers)
                    for role in layer.adapter.tensors()}
        errs = oh.gradient_check(algo, seed=3)
        if set(errs) != expected:
            coverage_ok = False
        worst = max(worst, max(errs.values()))
    ok = worst < 1e-9 and coverage_ok
    report("A08 gradient exactness", ok,
           f"all factors of 7 adapter forms, max relative error {worst:.2e}")


def test_a09_diversity_metrics(report):
    mixed = np.array([[1.0, 0.0], [0.0, 1.0],
                      [1.0 / math.sqrt(2), 1.0 / math.sqrt(2)]])
    # (score, closed form); the mixed kernel / 3 has eigenvalues {2/3, 1/3, 0}
    scores = [(mt.vendi_score(np.tile([1.0, 2.0, 3.0], (4, 1))), 1.0),
              (mt.vendi_score(np.eye(3)), 3.0),
              (mt.vendi_score(mixed), 3.0 / 2.0 ** (2.0 / 3.0))]
    vendi = max(abs(got - want) / (EPS * want) for got, want in scores)
    rng = np.random.default_rng(17)
    residual = 0.0
    for _ in range(100):
        a = rng.standard_normal((int(rng.integers(3, 30)),
                                 int(rng.integers(2, 10)))) + 0.1
        b = rng.standard_normal((int(rng.integers(3, 30)), a.shape[1])) + 0.1
        # 1 - cossim(A, B) == 0.5 (||centroid gap||^2 + Var A + Var B),
        # in units of EPS times the sum of the terms' magnitudes
        cos = mt.avg_cosine_similarity(a, b)
        rhs = 0.5 * (mt.squared_centroid_distance(a, b)
                     + mt.variance_normalized(a) + mt.variance_normalized(b))
        residual = max(residual, abs(1.0 - cos - rhs) / (EPS * (1.0 + abs(cos) + rhs)))
    maps_a = [rng.standard_normal((3, 4, 4)), rng.standard_normal((5, 2, 2))]
    maps_b = [rng.standard_normal((3, 4, 4)), rng.standard_normal((5, 2, 2))]
    style_ok = (mt.style_loss(maps_a, maps_a) == 0.0
                and mt.style_loss(maps_a, maps_b) == mt.style_loss(maps_b,
                                                                   maps_a))
    ok = vendi <= ROUNDING_UNITS and residual <= ROUNDING_UNITS and style_ok
    report("A09 diversity metrics", ok,
           f"vendi {'/'.join(f'{got:.7f}' for got, _ in scores)}, max {vendi:.2f} units "
           f"of each closed form; identity residual {residual:.2f} units of its terms' "
           f"magnitudes, style zero/symmetric {style_ok}")


BALANCE_TABLES = {
    "anime": [(90, 2), (51, 4), (128, 2), (172, 1), (130, 2)],
    "movie": [(63, 3), (49, 4), (59, 3), (45, 4), (60, 3)],
    "styles": [(200, 1), (100, 2), (100, 2), (87, 2), (101, 2), (100, 2),
               (88, 2)],
    "toys": [(12, 17), (10, 20), (10, 20), (7, 29), (7, 29), (7, 29)],
    "scenes": [(9, 22), (7, 29), (5, 40), (5, 40), (4, 50)],
}


def test_a10_score_pipeline(report):
    def group(values, higher=True):
        return [mt.ScoreRecord(f"ck{i}", "cat", "cls", None, "plain", "m",
                               v, higher) for i, v in enumerate(values)]

    norm_ok = (
        [r.value for r in mt.rank_normalize(group([3.2, 1.1, 2.7]))]
        == [1.0, 0.0, 0.5]
        and [r.value for r in mt.rank_normalize(group([3.2, 1.1, 2.7],
                                                      higher=False))]
        == [0.0, 1.0, 0.5]
        and [r.value for r in mt.rank_normalize(group([5.0, 5.0, 1.0]))]
        == [0.75, 0.75, 0.0]
    )
    rows = 0
    balance_ok = True
    for table in BALANCE_TABLES.values():
        sizes = [size for size, _ in table]
        want = [count for _, count in table]
        if mt.balance_repeats(sizes, target=200) != want:
            balance_ok = False
        rows += len(table)
    ok = norm_ok and balance_ok and rows == 28
    report("A10 score pipeline", ok,
           f"rank normalization examples, {rows} repeat-balance rows")


def _rewrite_header(blob: bytes, mutate) -> bytes:
    length = struct.unpack_from("<I", blob, 4)[0]
    header = json.loads(blob[8:8 + length].decode("utf-8"))
    mutate(header)
    raw = json.dumps(header).encode("utf-8")
    return blob[:4] + struct.pack("<I", len(raw)) + raw + blob[8 + length:]


def test_a11_weight_file_robustness(tmp_path, report):
    rng = np.random.default_rng(31)
    path = tmp_path / "model.lwu"
    roundtrips_ok = True
    for case in range(50):
        algorithm = ad.ALGORITHMS[case % 3]
        factor = int(rng.choice([-1, 2, 4])) if algorithm == "lokr" else -1
        dim = int(rng.integers(1, 5))
        entries = {}
        for i in range(int(rng.integers(1, 4))):
            if rng.integers(2) == 0:
                layer = ad.LayerShape("linear", int(rng.integers(2, 13)),
                                      int(rng.integers(2, 13)))
            else:
                layer = ad.LayerShape("conv2d", int(rng.integers(2, 7)),
                                      int(rng.integers(2, 7)),
                                      int(rng.choice([1, 3])))
            tucker = layer.kind == "conv2d" and bool(rng.integers(2))
            entries[f"layer{i}"] = ad.random_adapter(
                algorithm, layer, dim, alpha=float(dim), factor=factor,
                tucker=tucker, seed=1000 + case * 10 + i)
        model = ad.AdapterModel(
            meta=ad.ModelMeta(algorithm=algorithm, dim=dim, alpha=float(dim),
                              factor=factor, seed=case),
            entries=entries)
        wf.save_weights(model, path)
        loaded = wf.load_weights(path)
        if loaded.meta != model.meta:
            roundtrips_ok = False
        for name, adapter in model.entries.items():
            twin = loaded.entries[name]
            if twin.layer != adapter.layer:
                roundtrips_ok = False
            for role, tensor in adapter.tensors().items():
                want = tensor.astype("<f4").astype(np.float64)
                if not np.array_equal(twin.tensors()[role], want):
                    roundtrips_ok = False

    layer = ad.LayerShape("linear", 4, 6)
    model = ad.AdapterModel(
        meta=ad.ModelMeta(algorithm="lora", dim=2, alpha=2.0),
        entries={"only": ad.random_adapter("lora", layer, 2, alpha=2.0)})
    wf.save_weights(model, path)
    blob = path.read_bytes()
    payload_base = 8 + struct.unpack_from("<I", blob, 4)[0]

    def drop_alpha(header):
        del header["alpha"]

    def bad_dtype(header):
        header["layers"][0]["tensors"][0]["dtype"] = "f8"

    corrupt = [
        b"",
        b"XXXX" + blob[4:],
        wf.MAGIC + b"\x01\x00",
        blob[:4] + struct.pack("<I", 9) + b"{not json" + blob[payload_base:],
        _rewrite_header(blob, drop_alpha),
        _rewrite_header(blob, bad_dtype),
        blob[:-3],
        blob[:payload_base] + struct.pack("<f", math.nan)
        + blob[payload_base + 4:],
    ]
    rejected = 0
    crashes = 0
    for i, bad in enumerate(corrupt):
        target = tmp_path / f"bad{i}.lwu"
        target.write_bytes(bad)
        try:
            wf.load_weights(target)
        except wf.WeightFileError:
            rejected += 1
        except Exception:
            crashes += 1
    ok = roundtrips_ok and rejected == len(corrupt) and crashes == 0
    report("A11 weight file robustness", ok,
           f"50 float32 roundtrips exact, {rejected}/{len(corrupt)} "
           "corruptions rejected cleanly")
