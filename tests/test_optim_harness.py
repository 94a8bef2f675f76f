import dataclasses
import re
import warnings

import numpy as np
import pytest

from deltafactor import adapters
from deltafactor import optim_harness as oh
from deltafactor.tensor_core import NumericalError


def loss_and_grads(model, x, target):
    """The harness's loss and factor gradients at the model's own deltas and ratios."""
    deltas = [adapters.reconstruct(layer.adapter) for layer in model.layers]
    gammas = [layer.adapter.scale.gamma for layer in model.layers]
    return oh._loss_and_grads(model, x, None, target, deltas, gammas)


class TestMseLoss:
    """_member_mse, the harness's one loss."""

    def test_zero_on_equal(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        assert oh._member_mse(x, x)[1] == 0.0

    def test_mean_of_squares(self):
        diff, loss = oh._member_mse(np.array([1.0, 3.0]), np.array([0.0, 1.0]))
        assert loss == 2.5
        np.testing.assert_array_equal(diff, [1.0, 2.0])
        # one loss per member of a leading axis
        stacked = oh._member_mse(np.array([[1.0, 3.0], [0.0, 1.0]]), np.array([0.0, 1.0]))[1]
        np.testing.assert_array_equal(stacked, [2.5, 0.0])

    @pytest.mark.parametrize("complex_step", [False, True], ids=["real", "complex"])
    def test_is_np_mean_bit_for_bit(self, complex_step):
        rng = np.random.default_rng(1)
        pred = rng.standard_normal((3, 37, 5))
        if complex_step:
            pred = pred + 1j * oh.COMPLEX_STEP * rng.standard_normal(pred.shape)
        target = rng.standard_normal((37, 5))
        diff = pred - target
        assert np.array_equal(oh._member_mse(pred, target)[1], np.mean(diff * diff, axis=(1, 2)))
        assert oh._member_mse(pred[0], target)[1] == np.mean(diff[0] * diff[0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            oh._member_mse(np.zeros(3), np.zeros(4))

    def test_complex_input_stays_analytic(self):
        # d/dx mean((x - t)^2) = 2 (x - t) / n, read from the imaginary part
        h = oh.COMPLEX_STEP
        loss = oh._member_mse(np.array([1.0 + 1j * h, 3.0]), np.array([0.0, 1.0]))[1]
        assert isinstance(loss, complex)
        assert loss.real == pytest.approx(2.5)
        assert loss.imag / h == pytest.approx(1.0)


class TestHomogeneityDegree:
    @pytest.mark.parametrize("name,k", [
        ("lora", 2), ("loha", 4), ("lokr", 2), ("lokr-factored", 3),
        ("lora-tucker", 3), ("loha-tucker", 6), ("lokr-tucker", 4),
    ])
    def test_factor_counts(self, name, k):
        spec = oh.HARNESS_ALGORITHMS[name]
        shape = oh.toy_geometry(spec.conv)[0]
        adapter = adapters.random_adapter(spec.algorithm, shape, spec.dim,
                                          alpha=float(spec.dim),
                                          factor=spec.factor,
                                          tucker=spec.tucker, seed=0)
        assert len(adapter.tensors()) == k


class TestOptimizerConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="optimizer"):
            oh.OptimizerConfig("rmsprop", 0.1)

    def test_rejects_negative_lr(self):
        with pytest.raises(ValueError, match="learning rate"):
            oh.OptimizerConfig("sgd", -0.1)

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError, match="non-negative"):
            oh.OptimizerConfig("adam", 0.1, eps=-1e-8)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["eps", "weight_decay"])
    def test_rejects_non_finite_eps_and_weight_decay(self, field, value):
        with pytest.raises(ValueError, match="finite and non-negative"):
            oh.OptimizerConfig("adam", 0.1, **{field: value})


class TestToyDataset:
    @pytest.mark.parametrize("conv", [False, True], ids=["linear", "conv"])
    @pytest.mark.parametrize("seed", [True, -1, 1.5, "1"])
    def test_refuses_a_bad_seed(self, conv, seed):
        with pytest.raises(ValueError, match=rf"^seed must be a non-negative integer, got {seed!r}$"):
            oh.toy_dataset(conv, seed=seed)

    @pytest.mark.parametrize("conv", [False, True], ids=["linear", "conv"])
    @pytest.mark.parametrize("samples", [0, -1, 2.5, True])
    def test_refuses_a_bad_sample_count(self, conv, samples):
        with pytest.raises(ValueError, match=rf"^samples must be positive, got {samples!r}$"):
            oh.toy_dataset(conv, seed=0, samples=samples)

    def test_takes_numpy_integers(self):
        x, y = oh.toy_dataset(False, seed=np.int64(3), samples=np.int64(2))
        np.testing.assert_array_equal(x, oh.toy_dataset(False, seed=3, samples=2)[0])
        assert len(x) == len(y) == 2


class TestForwardAndGrads:
    def test_perfect_prediction_zeroes_gradients(self):
        model = oh.build_toy_model("lora", seed=3)
        x, _ = oh.toy_dataset(conv=False, seed=3, samples=8)
        deltas = [adapters.reconstruct(layer.adapter) for layer in model.layers]
        gammas = [layer.adapter.scale.gamma for layer in model.layers]
        target = oh._forward(model, x, deltas, gammas)[-1][-1]
        loss, grads = oh._loss_and_grads(model, x, None, target, deltas, gammas)
        assert loss == 0.0
        for layer_grads in grads:
            for g in layer_grads.values():
                assert np.all(g == 0.0)

    def test_lora_gradients_closed_form(self):
        layer_shape = adapters.LayerShape("linear", 2, 2)
        adapter = adapters.LoraAdapter(layer_shape,
                                       adapters.MergeScale(alpha=1.0, dim=1),
                                       up=[[1.0], [0.0]], down=[[0.0, 1.0]])
        layer = oh.ToyLayer(np.zeros((2, 2)), np.zeros(2), adapter)
        model = oh.ToyModel([layer])
        x = np.array([[1.0, 2.0]])
        target = np.zeros((1, 2))
        loss, grads = loss_and_grads(model, x, target)
        # pred = up @ down @ x = [2, 0]; loss = mean([4, 0]) = 2
        assert loss == pytest.approx(2.0)
        # d = [2, 0]; g_w = d^T x = [[2, 4], [0, 0]]
        np.testing.assert_allclose(grads[0]["up"], [[4.0], [0.0]])
        np.testing.assert_allclose(grads[0]["down"], [[2.0, 4.0]])

    # seeds 1 and 3 give loha-tucker components, and seed 7 a loha component
    # of 9e-9, small enough that round-off in a difference quotient would show
    @pytest.mark.parametrize("name,seed", [
        pytest.param(name, seed, id=name if seed == 0 else f"{name}-seed{seed}")
        for seed in (0, 1, 3, 7) for name in sorted(oh.HARNESS_ALGORITHMS)
    ])
    def test_gradient_check_every_factor(self, name, seed):
        worst = oh.gradient_check(name, seed=seed)
        spec = oh.HARNESS_ALGORITHMS[name]
        expected_layers = len(oh.toy_geometry(spec.conv))
        assert len({key.split(".")[0] for key in worst}) == expected_layers
        for key, err in worst.items():
            assert err < 1e-9, f"{name} seed {seed} {key}: {err}"

    @pytest.mark.parametrize("name", sorted(oh.HARNESS_ALGORITHMS))
    def test_adapter_grads_keep_complex_g(self, name):
        # the factor gradients are linear in g, so a complex g splits into
        # its real and imaginary parts; dropping either would show here
        rng = np.random.default_rng(9)
        for layer in oh.build_toy_model(name, seed=9).layers:
            shape = layer.adapter.layer.delta_shape
            gr, gi = rng.standard_normal(shape), rng.standard_normal(shape)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = layer.adapter._vjp(gr + 1j * gi)
            real = layer.adapter._vjp(gr)
            imag = layer.adapter._vjp(gi)
            assert set(got) == set(layer.adapter.tensors())
            for role, value in got.items():
                want = real[role] + 1j * imag[role]
                assert value.dtype == np.complex128
                scale = max(1.0, float(np.max(np.abs(want))))
                assert float(np.max(np.abs(value - want))) <= 64 * np.finfo(float).eps * scale


class TestTrain:
    def test_zero_lr_freezes_deltas(self):
        model = oh.build_toy_model("lokr", seed=5)
        data = oh.toy_dataset(conv=False, seed=5)
        trace = oh.train(model, oh.OptimizerConfig("sgd", 0.0), data, steps=3)
        starts = [adapters.reconstruct(l.adapter) for l in model.layers]
        for step_deltas in trace.deltas:
            for got, want in zip(step_deltas, starts):
                np.testing.assert_array_equal(got, want)

    def test_non_finite_dataset_is_named(self):
        model = oh.build_toy_model("lora", seed=6)
        x, y = oh.toy_dataset(conv=False, seed=6)
        y = y.copy()
        y.flat[5] = np.nan
        with pytest.raises(ValueError, match=r"^dataset y holds a non-finite value at flat index 5"):
            oh.train(model, oh.OptimizerConfig("sgd", 0.1), (x, y), steps=1)

    def test_single_sgd_step_closed_form(self):
        model = oh.build_toy_model("lora", seed=6)
        data = oh.toy_dataset(conv=False, seed=6)
        lr = 0.05
        trace = oh.train(model, oh.OptimizerConfig("sgd", lr), data, steps=1)
        _, grads = loss_and_grads(model, *data)
        for li, layer in enumerate(model.layers):
            stepped = {role: p - lr * grads[li][role]
                       for role, p in layer.adapter.tensors().items()}
            want = adapters.reconstruct(dataclasses.replace(layer.adapter, **stepped))
            np.testing.assert_array_equal(trace.deltas[0][li], want)

    def test_single_sgd_step_with_weight_decay(self):
        # decoupled decay: p - lr * g - lr * wd * p, bit for bit
        model = oh.build_toy_model("lora", seed=6)
        data = oh.toy_dataset(conv=False, seed=6)
        lr, wd = 0.05, 0.01
        trace = oh.train(model, oh.OptimizerConfig("sgd", lr, weight_decay=wd), data, steps=1)
        _, grads = loss_and_grads(model, *data)
        for li, layer in enumerate(model.layers):
            stepped = {role: p - lr * grads[li][role] - lr * wd * p
                       for role, p in layer.adapter.tensors().items()}
            want = adapters.reconstruct(dataclasses.replace(layer.adapter, **stepped))
            assert np.array_equal(trace.deltas[0][li], want)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    @pytest.mark.parametrize("optimizer", ["adam", "adagrad"])
    def test_two_adaptive_steps_closed_form(self, optimizer, eps, weight_decay):
        # the moments written out per factor: Adam's m and v with bias
        # correction at step t, AdaGrad's running sum v of g^2; the direction
        # is num / (sqrt(den) + eps), and 0 where that denominator is 0. The
        # first input feature is 0, so down[:, 0] of layer 0 gets a zero
        # gradient at every step: with eps 0 its denominator is 0
        model = oh.build_toy_model("lora", seed=6)
        x, y = oh.toy_dataset(conv=False, seed=6)
        x = x.copy()
        x[:, 0] = 0.0
        lr, (b1, b2) = 0.05, oh.ADAM_BETAS
        cfg = oh.OptimizerConfig(optimizer, lr, eps=eps, weight_decay=weight_decay)
        trace = oh.train(model, cfg, (x, y), steps=2)
        params = [layer.adapter.tensors() for layer in model.layers]
        m = [{role: np.zeros_like(p) for role, p in ps.items()} for ps in params]
        v = [{role: np.zeros_like(p) for role, p in ps.items()} for ps in params]
        current = model
        for t in (1, 2):
            loss, grads = loss_and_grads(current, x, y)
            assert trace.losses[t - 1] == loss
            assert not np.any(grads[0]["down"][:, 0])
            for li, ps in enumerate(params):
                for role, p in ps.items():
                    g = grads[li][role]
                    if optimizer == "adam":
                        m[li][role] = b1 * m[li][role] + (1 - b1) * g
                        v[li][role] = b2 * v[li][role] + (1 - b2) * g * g
                        num = m[li][role] / (1 - b1 ** t)
                        den = np.sqrt(v[li][role] / (1 - b2 ** t)) + eps
                    else:
                        v[li][role] = v[li][role] + g * g
                        num, den = g, np.sqrt(v[li][role]) + eps
                    direction = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
                    ps[role] = p - lr * direction - lr * weight_decay * p
            current = oh.ToyModel([dataclasses.replace(layer, adapter=dataclasses.replace(
                layer.adapter, **ps)) for layer, ps in zip(model.layers, params)])
            for got, layer in zip(trace.deltas[t - 1], current.layers):
                assert np.array_equal(got, adapters.reconstruct(layer.adapter))
        if not weight_decay:
            # the zero-gradient entries took zero steps
            assert np.array_equal(params[0]["down"][:, 0], model.layers[0].adapter.down[:, 0])

    def test_training_reduces_loss(self):
        model = oh.build_toy_model("lora", seed=7)
        data = oh.toy_dataset(conv=False, seed=7)
        trace = oh.train(model, oh.OptimizerConfig("adam", 0.02), data, steps=50)
        assert trace.losses[-1] < trace.losses[0]

    def test_same_seed_identical_traces(self):
        data = oh.toy_dataset(conv=False, seed=8)
        cfg = oh.OptimizerConfig("adagrad", 0.02)
        t1 = oh.train(oh.build_toy_model("loha", seed=11), cfg, data, steps=5)
        t2 = oh.train(oh.build_toy_model("loha", seed=11), cfg, data, steps=5)
        assert t1.losses == t2.losses
        for d1, d2 in zip(t1.deltas, t2.deltas):
            for a, b in zip(d1, d2):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("optimizer", oh.OPTIMIZERS)
    @pytest.mark.parametrize("name", sorted(oh.HARNESS_ALGORITHMS))
    def test_matches_public_step_loop(self, name, optimizer):
        # train carries each step's recorded deltas into the next forward;
        # a loop that rebuilds every adapter and delta on every step must
        # give the same trace bit for bit
        spec = oh.HARNESS_ALGORITHMS[name]
        model = oh.build_toy_model(name, seed=13, ratio=4.0)
        data = oh.toy_dataset(spec.conv, seed=13)
        cfg = oh.OptimizerConfig(optimizer, oh.BASE_LR[optimizer])
        steps = 4
        trace = oh.train(model, cfg, data, steps)
        # one optimizer per factor, where train steps them all as one buffer
        work = [layer.adapter for layer in model.layers]
        opts = {(li, role): oh._Optimizer(cfg, cfg.learning_rate)
                for li, a in enumerate(work) for role in a.tensors()}

        def stepped(li, role, p, g):
            p = p.copy()
            opts[li, role].step(p, g)
            return p

        for step in range(steps):
            current = oh.ToyModel([oh.ToyLayer(l.base_weight, l.base_bias, a)
                                   for l, a in zip(model.layers, work)])
            loss, grads = loss_and_grads(current, *data)
            work = [dataclasses.replace(a, **{role: stepped(li, role, p, grads[li][role])
                                              for role, p in a.tensors().items()})
                    for li, a in enumerate(work)]
            assert trace.losses[step] == loss
            for got, adapter in zip(trace.deltas[step], work):
                assert np.array_equal(got, adapters.reconstruct(adapter))

    def test_input_model_not_mutated(self):
        model = oh.build_toy_model("lora", seed=9)
        before = [l.adapter.tensors() for l in model.layers]
        data = oh.toy_dataset(conv=False, seed=9)
        oh.train(model, oh.OptimizerConfig("sgd", 0.05), data, steps=3)
        for layer, tensors in zip(model.layers, before):
            for role, t in layer.adapter.tensors().items():
                np.testing.assert_array_equal(t, tensors[role])

    # a diverging run reports itself by its NumericalError alone: any numpy
    # warning fails these tests
    @pytest.mark.filterwarnings("error")
    def test_divergence_reports_step(self):
        model = oh.build_toy_model("lora", seed=10)
        data = oh.toy_dataset(conv=False, seed=10)
        with pytest.raises(NumericalError, match="step"):
            oh.train(model, oh.OptimizerConfig("sgd", 1e6), data, steps=50)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_delta_is_an_error(self):
        # lr 1e300 keeps every factor finite, but up @ down overflows
        model = oh.build_toy_model("lora", seed=1)
        with pytest.raises(NumericalError, match=r"non-finite delta at step 1: layer 0, role"):
            oh.train(model, oh.OptimizerConfig("sgd", 1e300), oh.toy_dataset(False, seed=1), 1)

    @pytest.mark.parametrize("optimizer", oh.OPTIMIZERS)
    def test_non_finite_gradient_is_not_a_zero_step(self, optimizer):
        # the step carries a NaN or inf gradient into the factors, where the
        # buffer scan raises; a zero step would hide it
        p = np.ones(3)
        with np.errstate(invalid="ignore"):
            oh._Optimizer(oh.OptimizerConfig(optimizer, 0.1), 0.1).step(p, np.array([np.nan, np.inf, 0.0]))
        assert not np.isfinite(p[:2]).any()
        assert p[2] == 1.0

    def test_rejects_non_positive_steps(self):
        model = oh.build_toy_model("lora", seed=0)
        data = oh.toy_dataset(conv=False, seed=0)
        with pytest.raises(ValueError, match="steps"):
            oh.train(model, oh.OptimizerConfig("sgd", 0.01), data, steps=0)


class TestStackedRun:
    """_train advances several members as one stacked run."""

    @staticmethod
    def pair(name, optimizer):
        # two members on one base: different factors, ratios and rates
        model = oh.build_toy_model(name, seed=13, ratio=4.0)
        other = oh.ToyModel([
            dataclasses.replace(l, adapter=adapters.scale_factors(dataclasses.replace(
                l.adapter, scale=adapters.MergeScale(alpha=float(l.adapter.scale.dim),
                                                     dim=l.adapter.scale.dim)), 1.25))
            for l in model.layers])
        lr = oh.BASE_LR[optimizer]
        return [model, other], [oh.OptimizerConfig(optimizer, lr), oh.OptimizerConfig(optimizer, 0.5 * lr)]

    @pytest.mark.parametrize("optimizer", oh.OPTIMIZERS)
    @pytest.mark.parametrize("name", sorted(oh.HARNESS_ALGORITHMS))
    def test_two_members_equal_two_single_runs(self, name, optimizer):
        models, cfgs = self.pair(name, optimizer)
        data = oh.toy_dataset(oh.HARNESS_ALGORITHMS[name].conv, seed=13)
        stacked = oh._train(models, cfgs[0], [c.learning_rate for c in cfgs], data, 4, ["a", "b"])
        for model, cfg, trace in zip(models, cfgs, stacked):
            alone = oh.train(model, cfg, data, 4)
            assert trace.losses == alone.losses
            for got, want in zip(trace.deltas, alone.deltas):
                assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_members_must_share_the_base(self):
        models, cfgs = self.pair("lora", "sgd")
        models[1] = oh.build_toy_model("lora", seed=14)
        with pytest.raises(ValueError, match="share"):
            oh._train(models, cfgs[0], [0.1, 0.1], oh.toy_dataset(False, seed=13), 1, ["a", "b"])


class TestHomogeneityCheck:
    @pytest.mark.parametrize("name", ["lora", "loha", "lokr-factored",
                                      "lokr-tucker"])
    def test_rounding_noise_only(self, name):
        assert oh.homogeneity_check(name, c=2.0, trials=20, seed=0) < 1e-12

    def test_non_integer_scale(self):
        assert oh.homogeneity_check("lora", c=1.7, trials=10, seed=1) < 1e-12

    @pytest.mark.parametrize("trials", [0, -3, True, 2.5])
    def test_rejects_empty_check(self, trials):
        with pytest.raises(ValueError, match="trials"):
            oh.homogeneity_check("lora", trials=trials)

    @pytest.mark.parametrize("c", [0, 0.0, 1, 1.0, -1, -1.0])
    def test_rejects_vacuous_scale(self, c):
        # c^k is the same for every k of one parity, so a deviation for the
        # wrong k goes unseen; scaling by 0 or 1 is exact besides
        with pytest.raises(ValueError, match="scale must not be 0 or 1"):
            oh.homogeneity_check("lora", c=c, trials=2)


    @pytest.mark.parametrize("name,c,k", [("lora", 1e200, 2), ("lora", 1e-170, 2),
                                          ("loha", 1e-120, 4), ("lora", 1e-154, 2)])
    def test_rejects_scale_outside_the_normal_range(self, name, c, k):
        # c^k or the scaled delta overflows, underflows to 0 or turns subnormal
        message = re.escape(f"c = {c!r} with k = {k} factors leaves the normal float range")
        with pytest.raises(ValueError, match=message):
            oh.homogeneity_check(name, c=c, trials=2)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_scale(self, c):
        # named as scale_factors names it, not as a scale outside the float range
        with pytest.raises(ValueError, match=f"^scale must be finite, got {c}$"):
            oh.homogeneity_check("lora", c=c, trials=2)

    def test_scale_near_the_normal_range_is_checked(self):
        # c^2 = 9e-308 is normal: the check runs and measures rounding
        assert 0.0 < oh.homogeneity_check("lora", c=3e-154, trials=4, seed=0) < 1e-12

    def test_nan_deviation_is_an_error(self, monkeypatch):
        calls = []
        real = oh.adapters.reconstruct

        def reconstruct(adapter):
            # the second call reconstructs the scaled factors
            calls.append(adapter)
            out = real(adapter)
            return out if len(calls) % 2 else np.full_like(out, np.nan)

        monkeypatch.setattr(oh.adapters, "reconstruct", reconstruct)
        with pytest.raises(ValueError, match="not a number"):
            oh.homogeneity_check("lora", c=2.0, trials=2)


class TestVerifyMergeRatio:
    def test_unit_ratio_is_exact(self):
        assert oh.verify_merge_ratio("lora", 1.0, "sgd", steps=5) <= 1e-15

    @pytest.mark.parametrize("s", [np.inf, np.nan])
    def test_non_finite_ratio_is_refused(self, s):
        with pytest.raises(ValueError, match=f"^merge ratio must be finite and positive, got {s}$"):
            oh.verify_merge_ratio("lora", s, "sgd", steps=1)

    @pytest.mark.parametrize("seed", [-1, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed!r}$"):
            oh.verify_merge_ratio("lora", 2.0, "sgd", steps=1, seed=seed)

    def test_loha_tucker_sgd(self):
        dev = oh.verify_merge_ratio("loha-tucker", 4.0, "sgd", steps=25)
        assert dev < 1e-8

    # the deviations of Adam at ratio 4 over 25 steps, bit for bit: the
    # loss, the finite scans and the optimizer step may be restated only
    # in ways that round every value as before
    @pytest.mark.parametrize("name,deviation", [
        ("lora", "0x0.0p+0"),
        ("loha", "0x1.c000000000000p-49"),
        ("lokr", "0x0.0p+0"),
        ("lokr-factored", "0x1.8000000000000p-50"),
        ("lora-tucker", "0x1.1000000000000p-49"),
        ("loha-tucker", "0x1.0000000000000p-50"),
        ("lokr-tucker", "0x1.2000000000000p-51"),
    ])
    def test_deviation_is_pinned(self, name, deviation):
        assert oh.verify_merge_ratio(name, 4.0, "adam", steps=25).hex() == deviation

    # at s = 2^(+-k) the twin's factors scale by r = 2^(+-1) and its learning
    # rate by r^c, both exactly: every value of the twin is a power of two
    # times its partner's, so the law holds to the last bit
    @pytest.mark.parametrize("sign", [1, -1], ids=["2^k", "2^-k"])
    @pytest.mark.parametrize("optimizer", oh.OPTIMIZERS)
    @pytest.mark.parametrize("name", oh.HARNESS_ALGORITHMS)
    def test_dyadic_ratio_is_exact(self, name, optimizer, sign):
        k = len(oh.build_toy_model(name, seed=0).layers[0].adapter.tensors())
        assert oh.verify_merge_ratio(name, 2.0 ** (sign * k), optimizer, steps=25) == 0.0

    def test_lokr_tucker_adam(self):
        dev = oh.verify_merge_ratio("lokr-tucker", 0.25, "adam", steps=25)
        assert dev < 1e-8

    def test_equivalence_is_non_vacuous(self):
        model = oh.build_toy_model("lora", seed=0, ratio=4.0)
        data = oh.toy_dataset(conv=False, seed=0)
        trace = oh.train(model, oh.OptimizerConfig("sgd", oh.BASE_LR["sgd"]),
                         data, steps=25)
        moved = max(float(np.max(np.abs(d - s)))
                    for step in trace.deltas
                    for d, s in zip(step, trace.deltas[0]))
        assert moved > 1e-3

    def test_nonzero_eps_breaks_adam_equivalence(self):
        clean = oh.verify_merge_ratio("lora", 100.0, "adam", steps=100, seed=0)
        dirty = oh.verify_merge_ratio("lora", 100.0, "adam", steps=100, seed=0,
                                      eps=1e-8)
        assert clean < 1e-8
        assert dirty > 1e-4

    @pytest.mark.filterwarnings("error")
    def test_diverging_twin_is_named(self):
        # twin B's learning rate is 1e148: its first step leaves the float range
        with pytest.raises(NumericalError,
                           match=r"non-finite factor at step 1 in twin B: layer \d, role '\w+'"):
            oh.verify_merge_ratio("lora", 1e150, "sgd", steps=1)

    def test_diverging_loss_is_named(self):
        # twin A's outputs carry the ratio 1e300, and their squares overflow its first loss
        with pytest.raises(NumericalError, match=r"^non-finite loss at step 1 in twin A$"):
            oh.verify_merge_ratio("lora", 1e300, "sgd", steps=1)

    def test_nan_deviation_is_not_dropped(self, monkeypatch):
        # max(0.0, nan) is 0.0; the deviation must report the NaN instead
        def fake_train(models, cfg, rates, dataset, steps, names):
            first = [np.zeros((2, 2)), np.zeros((2, 2))]
            return [oh.TrainTrace([0.0, 0.0], [first, [np.zeros((2, 2)), np.full((2, 2), np.nan)]]),
                    oh.TrainTrace([0.0, 0.0], [first, first])]
        monkeypatch.setattr(oh, "_train", fake_train)
        assert np.isnan(oh.verify_merge_ratio("lora", 2.0, "sgd", steps=2))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="positive"):
            oh.verify_merge_ratio("lora", 0.0)
        with pytest.raises(ValueError, match="optimizer"):
            oh.verify_merge_ratio("lora", 2.0, "lion")
        with pytest.raises(ValueError, match="unknown harness form 'dora'"):
            oh.verify_merge_ratio("dora", 2.0)

    @pytest.mark.parametrize("steps", [True, 2.5], ids=["bool", "float"])
    def test_rejects_non_integer_steps(self, steps):
        with pytest.raises(ValueError, match="steps"):
            oh.verify_merge_ratio("lora", 2.0, steps=steps)

    def test_nonzero_weight_decay_breaks_equivalence(self):
        # decay shrinks each factor by lr * wd, and the twin's learning rate
        # is scaled: the two runs decay at different rates
        clean = oh.verify_merge_ratio("lora", 4.0, "sgd", steps=100, seed=0)
        decayed = oh.verify_merge_ratio("lora", 4.0, "sgd", steps=100, seed=0,
                                        weight_decay=0.01)
        assert clean < 1e-8
        assert decayed > 1e-4


class TestToyPieces:
    def test_toy_dataset_deterministic(self):
        x1, y1 = oh.toy_dataset(conv=False, seed=2)
        x2, y2 = oh.toy_dataset(conv=False, seed=2)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_conv_dataset_shapes(self):
        x, y = oh.toy_dataset(conv=True, seed=0)
        assert x.shape == (16, 4, 8, 8)
        assert y.shape == (16, 4, 4, 4)

    def test_build_normalizes_initial_delta(self):
        for name in ("lora", "loha", "lokr-factored"):
            model = oh.build_toy_model(name, seed=12)
            for layer in model.layers:
                rms = float(np.sqrt(np.mean(
                    adapters.reconstruct(layer.adapter) ** 2)))
                assert rms == pytest.approx(oh.INIT_DELTA_RMS, rel=1e-9)

    def test_ratio_sets_alpha(self):
        model = oh.build_toy_model("lora", seed=0, ratio=4.0)
        spec = oh.HARNESS_ALGORITHMS["lora"]
        for layer in model.layers:
            assert layer.adapter.scale.alpha == 4.0 * spec.dim


class TestUnknownForm:
    """Every entry point that takes a harness form name refuses an unknown one the same way."""

    @pytest.mark.parametrize("call", [
        lambda name: oh.build_toy_model(name),
        lambda name: oh.homogeneity_check(name, trials=1),
        lambda name: oh.verify_merge_ratio(name, 2.0, steps=1),
        lambda name: oh.gradient_check(name),
    ], ids=["build_toy_model", "homogeneity_check", "verify_merge_ratio", "gradient_check"])
    @pytest.mark.parametrize("name", ["dora", ["lora"]], ids=["unknown", "unhashable"])
    def test_raises_value_error_listing_the_forms(self, call, name):
        with pytest.raises(ValueError, match=f"unknown harness form {re.escape(repr(name))}") as info:
            call(name)
        assert all(repr(form) in str(info.value) for form in oh.HARNESS_ALGORITHMS)
