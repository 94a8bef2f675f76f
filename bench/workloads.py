"""The benchmark's four workloads.

Each workload turns a seed into inputs (`setup`), runs once untimed to
finish lazy set-up (`warm_up`), and yields one pass of operations at a
time (`ops`). An operation is a single call into the package, made by one
caller that waits for each reply (a closed loop). Its output is checked
against a reference after the clock stops; a check answers "ok", "failed"
(the program reported a failure: a FAIL verdict or a typed error) or
"wrong" (the program returned an output that disagrees with the
reference).

Every pass runs the same operations on the same inputs, so counts taken
per pass repeat exactly for a fixed seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from deltafactor import adapters, cli, features, metrics, optim_harness, tensor_core, weightfile

OK = ("ok", "")


@dataclass
class Op:
    """One call into the package; `work` counts toward the workload's rate.

    Calls of one `kind` run the same code on inputs of the same size, so
    they share one median time; the kind defaults to the label.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str]]
    work: int = 1
    in_rate: bool = True
    kind: str = ""


@dataclass
class Workload:
    seed: int
    workdir: str
    tiny: bool = False

    name = ""
    unit_of_work = ""

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def ops(self, pass_index: int) -> list[Op]:
        raise NotImplementedError

    def gradient_entries(self) -> int:
        """Factor entries that gradient_check perturbs in one pass."""
        return 0


def _scaled_dev(got, want) -> float:
    """Max abs deviation over max(1, max |want|), the measure A06 uses."""
    want = np.asarray(want)
    return float(np.max(np.abs(np.asarray(got) - want))) / max(1.0, float(np.max(np.abs(want))))


# ---------------------------------------------------------------------------
# verify_suite


class VerifySuite(Workload):
    """The three `verify` checks over every harness form, as the CLI runs them."""

    name = "verify_suite"
    unit_of_work = "optimizer steps of both merge-ratio twins"
    # the eps=1e-8 Adam control must break the law by more than this (A01)
    CONTROL_MIN = 1e-4
    # gradient seeds are the CLI's own 0..5, which include the two seeds
    # where the central-difference oracle reports FAIL for loha-tucker
    GRADIENT_SEEDS = range(6)
    # The merge-ratio, control and homogeneity seeds are fixed as well, so
    # every run attempts and fails the same checks and its error rate does
    # not depend on --seed or on how many passes fit in the run. They are
    # drawn from SeedSequence(7), whose draw shows the two seed-dependent
    # defects: AdaGrad at ratio 4 breaks the law for loha and lokr-tucker,
    # and the eps control stays below CONTROL_MIN. --seed sets the order.
    CASE_SEED_SOURCE = 7

    def setup(self) -> None:
        if self.tiny:
            self.algos, self.opts, self.ratios = ("lora", "loha-tucker"), ("adam",), (4.0,)
            self.steps, self.trials, self.grad_seeds = 3, 3, (0,)
        else:
            self.algos = tuple(optim_harness.HARNESS_ALGORITHMS)
            self.opts, self.ratios = optim_harness.OPTIMIZERS, (0.25, 4.0, 16.0)
            self.steps, self.trials, self.grad_seeds = 100, 100, self.GRADIENT_SEEDS
        grid = [(a, o, s) for a in self.algos for o in self.opts for s in self.ratios]
        seeds = np.random.SeedSequence(self.CASE_SEED_SOURCE).generate_state(len(grid) + 1 + len(self.algos))
        self.grid = [(a, o, s, int(k)) for (a, o, s), k in zip(grid, seeds)]
        self.control_seed = int(seeds[len(grid)])
        self.homog_seeds = [int(k) for k in seeds[len(grid) + 1:]]

    def warm_up(self) -> None:
        for algo in self.algos:
            optim_harness.verify_merge_ratio(algo, 4.0, "sgd", steps=1, seed=self.seed)

    def _merge_op(self, algo, opt, s, seed, eps=0.0) -> Op:
        def run():
            return optim_harness.verify_merge_ratio(algo, s, optimizer=opt, steps=self.steps,
                                                    seed=seed, eps=eps)

        case = f"{algo}/{opt}/s={s:g}/seed={seed}: deviation"
        if eps:
            def check(dev):
                if dev > self.CONTROL_MIN:
                    return OK
                return "failed", f"eps control {case} {dev:.3e} <= {self.CONTROL_MIN:g}"
        else:
            def check(dev):
                if dev < cli.MERGE_RATIO_TOL:
                    return OK
                return "failed", f"merge-ratio {case} {dev:.3e} >= {cli.MERGE_RATIO_TOL:g}"
        label = f"merge_ratio.{algo}.{opt}.{s:g}" + (".eps" if eps else "")
        return Op(label, run, check, work=2 * self.steps, kind=f"merge_ratio.{algo}.{opt}")

    def _homogeneity_op(self, algo, seed) -> Op:
        def check(dev):
            if dev < cli.HOMOGENEITY_TOL:
                return OK
            return "failed", f"homogeneity {algo}/seed={seed}: deviation {dev:.3e} >= {cli.HOMOGENEITY_TOL:g}"
        return Op(f"homogeneity.{algo}",
                  lambda: optim_harness.homogeneity_check(algo, c=2.0, trials=self.trials, seed=seed),
                  check, work=0, in_rate=False)

    def _gradient_op(self, algo, seed) -> Op:
        def check(errors):
            key = max(errors, key=errors.get)
            if errors[key] < cli.GRADIENT_TOL:
                return OK
            return "failed", (f"gradients {algo}/seed={seed}: {key} relative error "
                              f"{errors[key]:.3e} >= {cli.GRADIENT_TOL:g}")
        return Op(f"gradients.{algo}.seed{seed}", lambda: optim_harness.gradient_check(algo, seed=seed),
                  check, work=0, in_rate=False, kind=f"gradients.{algo}")

    def gradient_entries(self) -> int:
        sizes = {algo: sum(t.size for layer in optim_harness.build_toy_model(algo).layers
                           for t in layer.adapter.tensors().values()) for algo in self.algos}
        return sum(sizes[algo] for algo in self.algos for _ in self.grad_seeds)

    def ops(self, pass_index: int) -> list[Op]:
        out = [self._merge_op(*case) for case in self.grid]
        out.append(self._merge_op("lora", "adam", 100.0, self.control_seed, eps=1e-8))
        out += [self._homogeneity_op(a, k) for a, k in zip(self.algos, self.homog_seeds)]
        out += [self._gradient_op(a, k) for a in self.algos for k in self.grad_seeds]
        # a seeded order spreads checks of similar cost over the pass, so a
        # few seconds of machine noise do not all land on one kind of check
        order = np.random.default_rng([self.seed, pass_index]).permutation(len(out))
        return [out[i] for i in order]


# ---------------------------------------------------------------------------
# adapter_forward


class AdapterForward(Workload):
    """Un-merged inference, one input per call, over a seeded mix of layers."""

    name = "adapter_forward"
    unit_of_work = "forward calls"
    INPUTS_PER_LAYER = 2

    def setup(self) -> None:
        if self.tiny:
            linear, conv, dim = ((24, 16),), ((4, 7),), 2
        else:
            linear, conv, dim = ((768, 768), (3072, 768), (2048, 2048)), ((64, 32), (320, 16)), 8
        rng = np.random.default_rng(self.seed)
        self.configs = []
        for out_dim, in_dim in linear:
            layer = adapters.LayerShape("linear", out_dim, in_dim)
            # lokr-full: dim at the right block's rank stores it whole, so the
            # forward takes kron_linear.grouped_forward_full
            block = min(adapters.lokr_factor_dims(out_dim)[1], adapters.lokr_factor_dims(in_dim)[1])
            forms = (("lora", "lora", dim, False), ("loha", "loha", dim, False),
                     ("lokr", "lokr", dim, False), ("lokr-full", "lokr", block, False))
            self._add_layer(rng, layer, (in_dim,), forms)
        for channels, pixels in conv:
            layer = adapters.LayerShape("conv2d", channels, channels, 3)
            forms = [(algo + ("-tucker" if tucker else ""), algo, dim, tucker)
                     for algo in adapters.ALGORITHMS for tucker in (False, True)]
            self._add_layer(rng, layer, (channels, pixels, pixels), forms)
        self._refs = {}

    def _add_layer(self, rng, layer, x_shape, forms) -> None:
        """One base layer and its inputs, shared by an adapter of each form."""
        w0 = rng.standard_normal(layer.delta_shape) / math.sqrt(layer.unrolled_in)
        bias = 0.1 * rng.standard_normal(layer.out_dim)
        xs = [rng.standard_normal(x_shape) for _ in range(self.INPUTS_PER_LAYER)]
        geom = "x".join(map(str, x_shape))
        for form, algo, dim, tucker in forms:
            ad = adapters.random_adapter(algo, layer, dim, alpha=dim / 2, tucker=tucker,
                                         seed=int(rng.integers(2**63)))
            self.configs.append({"label": f"{layer.kind}.{form}.{layer.out_dim}x{geom}",
                                 "adapter": ad, "w0": w0, "bias": bias, "xs": xs})

    def _call(self, cfg, x):
        fn = adapters.forward_linear if cfg["adapter"].layer.kind == "linear" else adapters.forward_conv
        return fn(cfg["adapter"], cfg["w0"], cfg["bias"], x)

    def warm_up(self) -> None:
        for cfg in self.configs:
            self._call(cfg, cfg["xs"][0])

    def _reference(self, index, which):
        key = (index, which)
        if key not in self._refs:
            cfg = self.configs[index]
            merged = adapters.merge(cfg["adapter"], cfg["w0"])
            x = cfg["xs"][which]
            if merged.ndim == 2:
                self._refs[key] = merged @ x + cfg["bias"]
            else:
                self._refs[key] = tensor_core.conv2d(merged, x) + cfg["bias"][:, None, None]
        return self._refs[key]

    def ops(self, pass_index: int) -> list[Op]:
        order = np.random.default_rng([self.seed, pass_index]).permutation(len(self.configs))
        which = pass_index % self.INPUTS_PER_LAYER
        out = []
        for i in order:
            cfg = self.configs[i]

            def check(y, i=int(i), label=cfg["label"]):
                dev = _scaled_dev(y, self._reference(i, which))
                if dev <= 1e-10:
                    return OK
                return "wrong", f"{label}: forward deviates from w0 + gamma*reconstruct by {dev:.3e} (scaled)"
            out.append(Op(cfg["label"], lambda cfg=cfg: self._call(cfg, cfg["xs"][which]), check))
        return out


# ---------------------------------------------------------------------------
# adapter_pipeline


def _f32_close(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal up to one float32 rounding of the stored value."""
    return bool(np.all(np.abs(got - want) <= 2.0 ** -23 * np.abs(want)))


class AdapterPipeline(Workload):
    """The `adapter` CLI chain on weight files, run in-process."""

    name = "adapter_pipeline"
    unit_of_work = "CLI commands"
    FAMILIES = adapters.ALGORITHMS

    def setup(self) -> None:
        if self.tiny:
            blocks, width, mlp, conv, self.dim = 1, 8, 12, 6, 2
        else:
            blocks, width, mlp, conv, self.dim = 2, 768, 3072, 320, 8
        manifest = [{"name": f"block{b}.attn.{p}", "kind": "linear", "shape": [width, width]}
                    for b in range(blocks) for p in "qkvo"]
        manifest += [{"name": "mlp.fc1", "kind": "linear", "shape": [mlp, width]},
                     {"name": "mlp.fc2", "kind": "linear", "shape": [width, mlp]},
                     {"name": "unet.conv1", "kind": "conv2d", "shape": [conv, conv, 3]},
                     {"name": "unet.conv2", "kind": "conv2d", "shape": [conv, conv, 3]}]
        with open(self.path("manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        layers = [(m["name"], adapters.LayerShape(m["kind"], *m["shape"])) for m in manifest]
        rng = np.random.default_rng(self.seed)
        base = {name: (shape, rng.standard_normal(shape.delta_shape) / math.sqrt(shape.unrolled_in))
                for name, shape in layers}
        weightfile.save_dense(base, self.path("base.lwu"), algorithm="dense")
        self.alpha = self.dim / 2
        self.params = {}
        for fam in self.FAMILIES:
            children = np.random.SeedSequence(int(rng.integers(2**63))).spawn(len(layers))
            entries = {name: adapters.random_adapter(fam, shape, self.dim, self.alpha, seed=child)
                       for (name, shape), child in zip(layers, children)}
            meta = adapters.ModelMeta(algorithm=fam, dim=self.dim, alpha=self.alpha)
            weightfile.save_weights(adapters.AdapterModel(meta, entries), self.path(f"trained_{fam}.lwu"))
            self.params[fam] = sum(t.size for ad in entries.values() for t in ad.tensors().values())
        # the fits read the dense delta of one attention block and the conv
        # layers, drawn from their own family so that the fit is exact
        fitted = [(name, shape) for name, shape in layers
                  if name.startswith("block0.") or shape.kind == "conv2d"]
        for fam in ("lora", "lokr"):
            children = np.random.SeedSequence(int(rng.integers(2**63))).spawn(len(fitted))
            deltas = {}
            for (name, shape), child in zip(fitted, children):
                ad = adapters.random_adapter(fam, shape, self.dim, self.alpha, seed=child)
                deltas[name] = (shape, ad.scale.gamma * adapters.reconstruct(ad))
            weightfile.save_dense(deltas, self.path(f"fit_input_{fam}.lwu"), algorithm="delta")
        self.names = [name for name, _ in layers]
        self.lam = round(float(rng.uniform(0.5, 1.0)), 3)
        self.init_seed = int(rng.integers(2**31))
        self._verified = {}

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cli_dispatch(["adapter", "info", "--weights", self.path("trained_lora.lwu")])

    def _commands(self):
        d, a = str(self.dim), repr(self.alpha)
        for fam in self.FAMILIES:
            trained = self.path(f"trained_{fam}.lwu")
            yield (f"init.{fam}", ["adapter", "init", "--algo", fam, "--manifest", self.path("manifest.json"),
                                   "--dim", d, "--alpha", a, "--seed", str(self.init_seed),
                                   "--out", self.path(f"init_{fam}.lwu")], self._check_init, fam)
            yield (f"info.{fam}", ["adapter", "info", "--weights", trained], self._check_info, fam)
            yield (f"reconstruct.{fam}", ["adapter", "reconstruct", "--weights", trained,
                                          "--out", self.path(f"delta_{fam}.lwu")], self._check_delta, fam)
            yield (f"merge.{fam}", ["adapter", "merge", "--weights", trained, "--base", self.path("base.lwu"),
                                    "--weight", repr(self.lam), "--out", self.path(f"merged_{fam}.lwu")],
                   self._check_merged, fam)
        for fam in ("lora", "lokr"):
            yield (f"fit.{fam}", ["adapter", "fit", "--algo", fam, "--delta", self.path(f"fit_input_{fam}.lwu"),
                                  "--dim", d, "--out", self.path(f"fit_{fam}.lwu")], self._check_fit, fam)

    def ops(self, pass_index: int) -> list[Op]:
        out = []
        for label, argv, checker, fam in self._commands():
            def run(argv=argv):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.cli_dispatch(argv)
                return code, buf.getvalue()

            def check(result, label=label, checker=checker, fam=fam):
                code, text = result
                if code != 0:
                    return "failed", f"{label}: exit code {code}"
                return checker(fam, text)
            out.append(Op(label, run, check))
        return out

    def _verified_file(self, key: str, path: str, verify: Callable[[], str]) -> tuple[str, str]:
        """Run `verify` once per distinct file content; '' means verified."""
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self._verified.get(key) == digest:
            return OK
        problem = verify()
        if problem:
            return "wrong", f"{key}: {problem}"
        self._verified[key] = digest
        return OK

    def _trained(self, fam):
        return weightfile.load_weights(self.path(f"trained_{fam}.lwu"))

    def _check_init(self, fam, text):
        def verify():
            model = weightfile.load_weights(self.path(f"init_{fam}.lwu"))
            if model.meta.algorithm != fam or list(model.entries) != self.names:
                return "wrong algorithm or layer names"
            if any(np.any(adapters.reconstruct(ad)) for ad in model.entries.values()):
                return "zero-initialized adapter reconstructs to a nonzero delta"
            return ""
        return self._verified_file(f"init.{fam}", self.path(f"init_{fam}.lwu"), verify)

    def _check_info(self, fam, text):
        want = (f"algorithm: {fam}", f"layers: {len(self.names)}", f"total_params: {self.params[fam]}")
        missing = [line for line in want if line not in text.splitlines()]
        return ("wrong", f"info.{fam}: output lacks {missing}") if missing else OK

    def _check_delta(self, fam, text):
        def verify():
            model = self._trained(fam)
            _, dense = weightfile.load_dense(self.path(f"delta_{fam}.lwu"))
            for name, ad in model.entries.items():
                if not _f32_close(dense[name][1], ad.scale.gamma * adapters.reconstruct(ad)):
                    return f"layer {name} differs from gamma * reconstruct"
            return ""
        return self._verified_file(f"delta.{fam}", self.path(f"delta_{fam}.lwu"), verify)

    def _check_merged(self, fam, text):
        def verify():
            model = self._trained(fam)
            _, base = weightfile.load_dense(self.path("base.lwu"))
            _, merged = weightfile.load_dense(self.path(f"merged_{fam}.lwu"))
            if list(merged) != list(base):
                return "merged layer names differ from the base"
            for name, ad in model.entries.items():
                want = base[name][1] + (self.lam * ad.scale.gamma) * adapters.reconstruct(ad)
                if not _f32_close(merged[name][1], want):
                    return f"layer {name} differs from base + lambda * gamma * delta"
            return ""
        return self._verified_file(f"merged.{fam}", self.path(f"merged_{fam}.lwu"), verify)

    def _check_fit(self, fam, text):
        def verify():
            _, dense = weightfile.load_dense(self.path(f"fit_input_{fam}.lwu"))
            fit = weightfile.load_weights(self.path(f"fit_{fam}.lwu"))
            for name, (_, delta) in dense.items():
                ad = fit.entries[name]
                err = np.linalg.norm(ad.scale.gamma * adapters.reconstruct(ad) - delta)
                if err > 1e-5 * np.linalg.norm(delta):
                    return f"layer {name}: relative fit error {err / np.linalg.norm(delta):.2e} > 1e-5"
            return ""
        return self._verified_file(f"fit.{fam}", self.path(f"fit_{fam}.lwu"), verify)


# ---------------------------------------------------------------------------
# metrics_eval


def _dual_vendi(x: np.ndarray) -> float:
    """Vendi score from the d x d kernel, whose nonzero spectrum equals the n x n one."""
    xn = x / np.linalg.norm(x, axis=1, keepdims=True)
    values = np.clip(np.linalg.eigvalsh(xn.T @ xn / x.shape[0]), 0.0, None)
    positive = values[values > 0.0]
    return float(np.exp(-np.sum(positive * np.log(positive))))


def _style_reference(maps_a, maps_b) -> float:
    total = 0.0
    for fa, fb in zip(maps_a, maps_b):
        scale = fa.size
        diff = (np.einsum("chw,dhw->cd", fa, fa) - np.einsum("chw,dhw->cd", fb, fb)) / scale
        total += float(np.sum(diff * diff))
    return total


class MetricsEval(Workload):
    """A checkpoint evaluator: Vendi per prompt type, style loss per pair."""

    name = "metrics_eval"
    unit_of_work = "samples in scored groups and pairs"

    def setup(self) -> None:
        if self.tiny:
            self.width, sizes, self.map_shapes, pairs = 16, (4, 24), ((3, 5, 5),), 2
        else:
            # both sides of the width, and one group above the eigensolver cap
            cap = tensor_core.SYM_EIG_MAX_SIZE
            self.width, sizes, self.map_shapes, pairs = 512, (48, 320, 720, 1536, cap + 4), \
                ((64, 16, 16), (128, 8, 8)), 16
        rng = np.random.default_rng(self.seed)
        self.groups = {}
        with open(self.path("vectors.jsonl"), "w", encoding="utf-8") as fh:
            for g, n in enumerate(sizes):
                tag = f"prompt{g}"
                centers = rng.standard_normal((12, self.width))
                x = np.round(centers[rng.integers(0, 12, n)]
                             + 0.6 * rng.standard_normal((n, self.width)), 6)
                self.groups[tag] = x
                for i, row in enumerate(x.tolist()):
                    fh.write(json.dumps({"id": f"{tag}-{i}", "class": f"class{i % 7}",
                                         "prompt_type": tag, "vector": row}) + "\n")
        self.maps = {}
        for side in ("a", "b"):
            recs = []
            for i in range(pairs):
                maps = tuple((f"conv{j}", np.round(np.abs(rng.standard_normal(s)), 5))
                             for j, s in enumerate(self.map_shapes))
                recs.append(features.FeatureRecord(id=f"{side}{i}", class_name="style", maps=maps))
            features.write_features(recs, self.path(f"maps_{side}.jsonl"))
            self.maps[side] = recs
        self._refs = {}

    def warm_up(self) -> None:
        recs = features.load_features(self.path("maps_a.jsonl"))
        metrics.style_loss([m for _, m in recs[0].maps], [m for _, m in recs[0].maps])
        metrics.vendi_score(self.groups["prompt0"])

    def _reference(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def ops(self, pass_index: int) -> list[Op]:
        state = {}
        total = sum(len(x) for x in self.groups.values())

        def load_vectors():
            records = features.load_features(self.path("vectors.jsonl"))
            vectors = features.feature_matrix(records)
            rows = {}
            for i, tag in enumerate(features.feature_labels(records, "prompt_type")):
                rows.setdefault(tag, []).append(i)
            state["groups"] = {tag: vectors[idx] for tag, idx in rows.items()}
            return state["groups"]

        def check_vectors(groups):
            if sorted(groups) != sorted(self.groups) or any(
                    not np.array_equal(groups[t], x) for t, x in self.groups.items()):
                return "wrong", f"vectors.jsonl: parsed groups differ from the {total} records written"
            return OK

        out = [Op("load_features.vectors", load_vectors, check_vectors, work=0)]
        for tag, x in self.groups.items():
            def check(score, tag=tag, n=len(x)):
                want = self._reference(tag, lambda: _dual_vendi(self.groups[tag]))
                if not 1.0 - 1e-9 <= score <= n * (1.0 + 1e-9):
                    return "wrong", f"vendi {tag}: {score!r} outside [1, {n}]"
                if abs(score - want) > 1e-8 * want:
                    return "wrong", f"vendi {tag}: {score!r} vs dual-form {want!r}"
                return OK
            out.append(Op(f"vendi.{tag}.n{len(x)}",
                          lambda tag=tag: metrics.vendi_score(state["groups"][tag]), check, work=len(x)))

        def load_maps():
            state["a"] = features.load_features(self.path("maps_a.jsonl"))
            state["b"] = features.load_features(self.path("maps_b.jsonl"))
            return state["a"], state["b"]

        def check_maps(loaded):
            for side, recs in zip("ab", loaded):
                want = self.maps[side]
                if len(recs) != len(want) or any(
                        not np.array_equal(m, w) for r, q in zip(recs, want)
                        for (_, m), (_, w) in zip(r.maps, q.maps)):
                    return "wrong", f"maps_{side}.jsonl: parsed maps differ from the records written"
            return OK

        out.append(Op("load_features.maps", load_maps, check_maps, work=0))
        for i in range(len(self.maps["a"])):
            def run(i=i):
                ra, rb = state["a"][i], state["b"][i]
                return metrics.style_loss([m for _, m in ra.maps], [m for _, m in rb.maps])

            def check(loss, i=i):
                want = self._reference(("style", i), lambda: _style_reference(
                    [m for _, m in self.maps["a"][i].maps], [m for _, m in self.maps["b"][i].maps]))
                if abs(loss - want) > 1e-9 * max(want, 1e-300):
                    return "wrong", f"style pair {i}: {loss!r} vs reference {want!r}"
                return OK
            out.append(Op(f"style_loss.pair{i}", run, check))
        return out


WORKLOADS = {cls.name: cls for cls in (VerifySuite, AdapterForward, AdapterPipeline, MetricsEval)}
