import csv
import dataclasses
import hashlib
import importlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from deltafactor import adapters as ad
from deltafactor import features as ft
from deltafactor import optim_harness as oh
from deltafactor.cli import cli_dispatch, main
from deltafactor.tensor_core import SYM_EIG_MAX_SIZE, NumericalError
from deltafactor.weightfile import load_dense, load_weights, save_dense, save_weights


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_manifest(tmp_path, entries=None):
    if entries is None:
        entries = [
            {"name": "blk0.attn", "kind": "linear", "shape": [8, 6]},
            {"name": "blk0.conv", "kind": "conv2d", "shape": [4, 3, 3]},
        ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


def write_vectors(tmp_path, name, rows, **labels):
    records = [
        ft.FeatureRecord(id=f"{name}{i}", class_name=labels.get("class_name", "c"),
                         prompt_type=labels.get("prompt_type"),
                         vector=np.asarray(row, dtype=float))
        for i, row in enumerate(rows)
    ]
    path = tmp_path / f"{name}.jsonl"
    ft.write_features(records, path)
    return path


def parse_csv(out):
    return list(csv.reader(io.StringIO(out)))


class TestAdapterFlow:
    def test_init_writes_zero_model(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        out = tmp_path / "model.lwu"
        code, stdout, _ = run(capsys, "adapter", "init", "--algo", "loha",
                              "--manifest", str(manifest), "--dim", "2",
                              "--alpha", "2.0", "--out", str(out))
        assert code == 0
        assert "2 zero-initialized loha layers" in stdout
        model = load_weights(out)
        assert set(model.entries) == {"blk0.attn", "blk0.conv"}
        for adapter in model.entries.values():
            assert np.all(ad.reconstruct(adapter) == 0.0)

    def test_init_negative_seed_is_named(self, tmp_path, capsys):
        out = tmp_path / "model.lwu"
        code, stdout, stderr = run(capsys, "adapter", "init", "--algo", "lora",
                                   "--manifest", str(write_manifest(tmp_path)), "--dim", "2",
                                   "--alpha", "2.0", "--seed", "-3", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert stderr == "error: seed must be a non-negative integer, got -3\n"
        assert not out.exists()

    def test_info_reports_layers(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        out = tmp_path / "model.lwu"
        run(capsys, "adapter", "init", "--algo", "lora", "--manifest",
            str(manifest), "--dim", "2", "--alpha", "1.0", "--out", str(out))
        code, stdout, _ = run(capsys, "adapter", "info", "--weights", str(out))
        assert code == 0
        assert "algorithm: lora" in stdout
        assert "gamma: 0.5" in stdout
        assert "layers: 2" in stdout
        assert "layer blk0.attn: linear 8x6" in stdout
        assert "layer blk0.conv: conv2d 4x3 k=3" in stdout
        assert "over-parameterized" not in stdout

    def test_info_flags_excess_dim(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, [
            {"name": "tiny", "kind": "linear", "shape": [4, 5]}])
        out = tmp_path / "model.lwu"
        run(capsys, "adapter", "init", "--algo", "lora", "--manifest",
            str(manifest), "--dim", "9", "--alpha", "9.0", "--out", str(out))
        code, stdout, _ = run(capsys, "adapter", "info", "--weights", str(out))
        assert code == 0
        assert "over-parameterized (dim 9 exceeds min(4, 5))" in stdout

    def test_reconstruct_applies_gamma(self, tmp_path, capsys):
        layer = ad.LayerShape("linear", 6, 4)
        adapter = ad.random_adapter("lora", layer, 2, alpha=4.0, seed=1)
        model = ad.AdapterModel(
            meta=ad.ModelMeta(algorithm="lora", dim=2, alpha=4.0),
            entries={"only": adapter})
        weights = tmp_path / "w.lwu"
        save_weights(model, weights)
        out = tmp_path / "delta.lwu"
        code, stdout, _ = run(capsys, "adapter", "reconstruct", "--weights",
                              str(weights), "--out", str(out))
        assert code == 0
        assert "1 dense deltas" in stdout
        meta, entries = load_dense(out)
        assert meta.algorithm == "delta"
        loaded = load_weights(weights).entries["only"]
        want = (2.0 * ad.reconstruct(loaded)).astype("<f4").astype(np.float64)
        np.testing.assert_array_equal(entries["only"][1], want)

    def test_merge_matches_library(self, tmp_path, capsys):
        layer = ad.LayerShape("linear", 6, 4)
        adapter = ad.random_adapter("loha", layer, 2, alpha=2.0, seed=3)
        model = ad.AdapterModel(
            meta=ad.ModelMeta(algorithm="loha", dim=2, alpha=2.0),
            entries={"a": adapter})
        weights = tmp_path / "w.lwu"
        save_weights(model, weights)
        rng = np.random.default_rng(4)
        base_entries = {
            "a": (layer, rng.standard_normal(layer.delta_shape)),
            "frozen": (ad.LayerShape("linear", 3, 3), np.eye(3)),
        }
        base = tmp_path / "base.lwu"
        save_dense(base_entries, base, algorithm="dense")
        out = tmp_path / "merged.lwu"
        code, stdout, _ = run(capsys, "adapter", "merge", "--weights",
                              str(weights), "--base", str(base), "--weight",
                              "0.5", "--out", str(out))
        assert code == 0
        assert "merged 1 layers at weight 0.5" in stdout
        _, merged = load_dense(out)
        loaded_adapter = load_weights(weights).entries["a"]
        _, loaded_base = load_dense(base)
        want = ad.merge(loaded_adapter, loaded_base["a"][1], 0.5)
        want = want.astype("<f4").astype(np.float64)
        np.testing.assert_array_equal(merged["a"][1], want)
        np.testing.assert_array_equal(merged["frozen"][1], np.eye(3))

    # sha256 of each output of a seeded pipeline, from the commands as they
    # were when each loaded its input whole and saved its output whole
    PINNED = {
        "delta_lora": "ef6064e7b84ced58d5fc9689ebadb28c494b35633fd0a86bf3ad0d202c4f223d",
        "merged_lora": "76e333920a7b7398778dcd90a882e67304a0065bb1843fd4cfef3b68bf9bccbe",
        "delta_loha": "c023bac3f71b5d4e51c43db58f5031588226fc7d9d41124df5a6db6710101fce",
        "merged_loha": "4bb17c0cafb13752d83f1cc4f53767effcd07e6395b70af6976fb5d04d8356ef",
        "delta_lokr": "9bb315a7fa8dda7df0ab88474e6b4db5da76ad8dd592ec839fc918093aee2d59",
        "merged_lokr": "1d3c07aef50f4a81293513e7e5ede0ddb6e0bbbe5b605cbece23b8312fe2e847",
        "fit_lora": "8e81ccbd97489411347f6b58bee57ae834ee06ccd8fd4340de03eef4bc1b9a0d",
        "fit_lokr": "e256a8a902d2ece6e553346224e04a330a3e2d63f23818f82bc7d14405266397",
    }

    @staticmethod
    def pipeline_digests(tmp_path, capsys, runs=1):
        """sha256 of each seeded pipeline output after its command ran runs times onto it."""
        layers = [("attn.q", ad.LayerShape("linear", 12, 8)),
                  ("attn.o", ad.LayerShape("linear", 8, 12)),
                  ("conv", ad.LayerShape("conv2d", 6, 4, 3))]
        rng = np.random.default_rng(2024)
        base = {name: (shape, rng.standard_normal(shape.delta_shape)) for name, shape in layers}
        base["frozen"] = (ad.LayerShape("linear", 5, 3), rng.standard_normal((5, 3)))
        save_dense(base, tmp_path / "base.lwu", algorithm="dense")
        argvs = {}
        for i, fam in enumerate(ad.ALGORITHMS):
            entries = {name: ad.random_adapter(fam, shape, 2, 3.0, tucker=shape.kind == "conv2d",
                                               seed=10 * i + j)
                       for j, (name, shape) in enumerate(layers)}
            weights = tmp_path / f"{fam}.lwu"
            save_weights(ad.AdapterModel(ad.ModelMeta(fam, 2, 3.0), entries), weights)
            argvs[f"delta_{fam}"] = ["adapter", "reconstruct", "--weights", str(weights)]
            argvs[f"merged_{fam}"] = ["adapter", "merge", "--weights", str(weights),
                                      "--base", str(tmp_path / "base.lwu"), "--weight", "0.7"]
        for fam in ("lora", "lokr"):
            argvs[f"fit_{fam}"] = ["adapter", "fit", "--algo", fam, "--dim", "2",
                                   "--delta", str(tmp_path / f"delta_{fam}.lwu")]
        for _ in range(runs):
            for out, argv in argvs.items():
                assert run(capsys, *argv, "--out", str(tmp_path / f"{out}.lwu"))[0] == 0
        return {out: hashlib.sha256((tmp_path / f"{out}.lwu").read_bytes()).hexdigest()
                for out in argvs}

    def test_streamed_outputs_match_pinned_digests(self, tmp_path, capsys):
        assert self.pipeline_digests(tmp_path, capsys) == self.PINNED

    def test_overwritten_outputs_match_pinned_digests(self, tmp_path, capsys):
        # the second run replaces each output it wrote first, and every fit
        # reads a delta that was replaced before it
        assert self.pipeline_digests(tmp_path, capsys, runs=2) == self.PINNED
        assert list(tmp_path.glob(".*.tmp")) == []

    @pytest.mark.parametrize("algorithm", ad.ALGORITHMS)
    def test_commands_hold_no_float64_layer(self, tmp_path, capsys, algorithm):
        # at their peak, reconstruct and merge hold the float32 buffers the
        # writer and the base reader cast each layer through, and one row
        # block per factor block (loha multiplies two blocks' rows), besides
        # the loaded factors and small objects: never a float64 layer
        layer = ad.LayerShape("linear", 3072, 768)
        adapter = ad.random_adapter(algorithm, layer, 8, 4.0, seed=7)
        save_weights(ad.AdapterModel(ad.ModelMeta(algorithm, 8, 4.0), {"mlp": adapter}),
                     tmp_path / "w.lwu")
        base = np.random.default_rng(8).standard_normal(layer.delta_shape)
        save_dense({"mlp": (layer, base)}, tmp_path / "base.lwu", algorithm="dense")
        f32 = base.nbytes // 2
        del base
        factors = sum(t.nbytes for t in adapter.tensors().values())
        bound = 8 * ad._ROW_BLOCK * len(adapter._blocks) + factors + 2**19
        argvs = {"reconstruct": (["adapter", "reconstruct"], f32),
                 "merge": (["adapter", "merge", "--base", str(tmp_path / "base.lwu")], 2 * f32)}
        for name, (argv, buffers) in argvs.items():
            tracemalloc.start()
            try:
                code = run(capsys, *argv, "--weights", str(tmp_path / "w.lwu"),
                           "--out", str(tmp_path / f"{name}.lwu"))[0]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak <= buffers + bound, name
        # the outputs, row block by row block, are the whole layer's, from
        # the factors as the file holds them
        stored = load_weights(tmp_path / "w.lwu").entries["mlp"]
        delta = stored.scale.gamma * ad.reconstruct(stored)
        base32 = load_dense(tmp_path / "base.lwu")[1]["mlp"][1]
        for name, want in (("reconstruct", delta), ("merge", base32 + delta)):
            got = load_dense(tmp_path / f"{name}.lwu")[1]["mlp"][1]
            np.testing.assert_array_equal(got, want.astype(np.float32), err_msg=name)

    def test_merge_rejects_missing_layer(self, tmp_path, capsys):
        layer = ad.LayerShape("linear", 6, 4)
        model = ad.AdapterModel(
            meta=ad.ModelMeta(algorithm="lora", dim=2, alpha=2.0),
            entries={"a": ad.random_adapter("lora", layer, 2, alpha=2.0)})
        weights = tmp_path / "w.lwu"
        save_weights(model, weights)
        base = tmp_path / "base.lwu"
        save_dense({"other": (layer, np.zeros(layer.delta_shape))}, base,
                   algorithm="dense")
        code, _, stderr = run(capsys, "adapter", "merge", "--weights",
                              str(weights), "--base", str(base), "--out",
                              str(tmp_path / "x.lwu"))
        assert code == 1
        assert "missing from the base" in stderr

    def test_merge_rejects_other_geometry(self, tmp_path, capsys):
        layer = ad.LayerShape("linear", 6, 4)
        model = ad.AdapterModel(
            meta=ad.ModelMeta(algorithm="lora", dim=2, alpha=2.0),
            entries={"a": ad.random_adapter("lora", layer, 2, alpha=2.0)})
        weights = tmp_path / "w.lwu"
        save_weights(model, weights)
        base = tmp_path / "base.lwu"
        other = ad.LayerShape("linear", 4, 6)
        save_dense({"a": (other, np.zeros(other.delta_shape))}, base, algorithm="dense")
        code, _, stderr = run(capsys, "adapter", "merge", "--weights",
                              str(weights), "--base", str(base), "--out",
                              str(tmp_path / "x.lwu"))
        assert code == 1
        assert "layer 'a': adapter geometry" in stderr
        assert "does not match base geometry" in stderr
        assert not (tmp_path / "x.lwu").exists()

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_merge_rejects_a_weight_that_is_not_finite(self, tmp_path, capsys, weight):
        layer = ad.LayerShape("linear", 6, 4)
        model = ad.AdapterModel(
            meta=ad.ModelMeta(algorithm="lora", dim=2, alpha=2.0),
            entries={"a": ad.random_adapter("lora", layer, 2, alpha=2.0)})
        weights, base, out = tmp_path / "w.lwu", tmp_path / "base.lwu", tmp_path / "x.lwu"
        save_weights(model, weights)
        save_dense({"a": (layer, np.zeros(layer.delta_shape))}, base, algorithm="dense")
        code, _, stderr = run(capsys, "adapter", "merge", "--weights", str(weights), "--base",
                              str(base), f"--weight={weight}", "--out", str(out))
        assert code == 1
        assert stderr == f"error: merge weight must be finite, got {float(weight)}\n"
        assert not out.exists()

    def test_merge_rejects_delta_base(self, tmp_path, capsys):
        layer = ad.LayerShape("linear", 6, 4)
        model = ad.AdapterModel(
            meta=ad.ModelMeta(algorithm="lora", dim=2, alpha=2.0),
            entries={"a": ad.random_adapter("lora", layer, 2, alpha=2.0)})
        weights = tmp_path / "w.lwu"
        save_weights(model, weights)
        base = tmp_path / "base.lwu"
        save_dense({"a": (layer, np.zeros(layer.delta_shape))}, base,
                   algorithm="delta")
        code, _, stderr = run(capsys, "adapter", "merge", "--weights",
                              str(weights), "--base", str(base), "--out",
                              str(tmp_path / "x.lwu"))
        assert code == 1
        assert "dense weights" in stderr

    def test_fit_lora_recovers_low_rank_delta(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        layer = ad.LayerShape("linear", 8, 6)
        delta = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 6))
        source = tmp_path / "delta.lwu"
        save_dense({"lay": (layer, delta)}, source, algorithm="delta")
        out = tmp_path / "fit.lwu"
        code, stdout, _ = run(capsys, "adapter", "fit", "--algo", "lora",
                              "--delta", str(source), "--dim", "2", "--out",
                              str(out))
        assert code == 0
        assert "fitted 1 lora layers (dim 2)" in stdout
        fit = load_weights(out)
        assert fit.meta.alpha == 2.0
        got = ad.reconstruct(fit.entries["lay"])
        np.testing.assert_allclose(got, delta, atol=1e-5, rtol=1e-4)

    @pytest.mark.parametrize("algorithm", ["lora", "lokr"])
    def test_fit_of_adapter_deltas_skips_the_full_eigh(self, tmp_path, capsys, monkeypatch, algorithm):
        # an adapter's own delta, stored as float32 like every .lwu delta, is
        # solved by the sketch: no eigh on a side the sketch could take (the
        # least is 8 * (1 + 8)); lokr's right blocks are fitted by eigh
        layers = {"attn": ad.LayerShape("linear", 768, 768), "conv": ad.LayerShape("conv2d", 320, 320, 3)}
        deltas = {}
        for seed, (name, layer) in enumerate(layers.items()):
            adapter = ad.random_adapter(algorithm, layer, 8, 4.0, seed=seed)
            deltas[name] = (layer, adapter.scale.gamma * ad.reconstruct(adapter))
        save_dense(deltas, tmp_path / "delta.lwu", algorithm="delta")
        sides = []
        eigh = np.linalg.eigh

        def counted(g):
            sides.append(g.shape[0])
            return eigh(g)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        assert run(capsys, "adapter", "fit", "--algo", algorithm, "--delta", str(tmp_path / "delta.lwu"),
                   "--dim", "8", "--out", str(tmp_path / "fit.lwu"))[0] == 0
        assert max(sides, default=0) < 72, sides
        stored = load_dense(tmp_path / "delta.lwu")[1]
        for name, fit in load_weights(tmp_path / "fit.lwu").entries.items():
            delta = stored[name][1]
            err = np.linalg.norm(fit.scale.gamma * ad.reconstruct(fit) - delta)
            assert err <= 1e-5 * np.linalg.norm(delta), name

    def test_fit_lora_requires_dim(self, tmp_path, capsys):
        layer = ad.LayerShape("linear", 4, 4)
        source = tmp_path / "delta.lwu"
        save_dense({"lay": (layer, np.eye(4))}, source, algorithm="delta")
        code, _, stderr = run(capsys, "adapter", "fit", "--algo", "lora",
                              "--delta", str(source), "--out",
                              str(tmp_path / "x.lwu"))
        assert code == 1
        assert "--dim" in stderr

    def test_fit_lokr_full(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        layer = ad.LayerShape("linear", 8, 8)
        delta = np.kron(rng.standard_normal((2, 2)),
                        rng.standard_normal((4, 4)))
        source = tmp_path / "delta.lwu"
        save_dense({"lay": (layer, delta)}, source, algorithm="delta")
        out = tmp_path / "fit.lwu"
        code, _, _ = run(capsys, "adapter", "fit", "--algo", "lokr",
                         "--delta", str(source), "--factor", "2", "--out",
                         str(out))
        assert code == 0
        fit = load_weights(out)
        assert fit.meta.factor == 2
        got = ad.reconstruct(fit.entries["lay"])
        np.testing.assert_allclose(got, delta, atol=1e-5, rtol=1e-4)

    def test_fit_error_names_file_and_layer(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        source = tmp_path / "delta.lwu"
        save_dense({"wide": (ad.LayerShape("linear", 8, 6), rng.standard_normal((8, 6))),
                    "narrow": (ad.LayerShape("linear", 4, 6), rng.standard_normal((4, 6)))},
                   source, algorithm="delta")
        code, _, stderr = run(capsys, "adapter", "fit", "--algo", "lora",
                              "--delta", str(source), "--dim", "5", "--out",
                              str(tmp_path / "x.lwu"))
        assert code == 1
        assert stderr == (f"error: {source}: layer 'narrow': dim 5 out of range "
                          "[1, 4] for shape (4, 6)\n")

    def test_fit_rejects_dense_weight_file(self, tmp_path, capsys):
        layer = ad.LayerShape("linear", 4, 4)
        source = tmp_path / "w.lwu"
        save_dense({"lay": (layer, np.eye(4))}, source, algorithm="dense")
        code, _, stderr = run(capsys, "adapter", "fit", "--algo", "lora",
                              "--delta", str(source), "--dim", "2", "--out",
                              str(tmp_path / "x.lwu"))
        assert code == 1
        assert "weight deltas" in stderr


class TestVerifyCommands:
    def test_merge_ratio_pass(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "verify", "merge-ratio", "--algo",
                              "lora", "--scale", "4.0", "--opt", "sgd",
                              "--steps", "30")
        assert code == 0
        assert "max deviation:" in stdout
        assert "PASS (tolerance 1e-08)" in stdout

    def test_merge_ratio_eps_fails(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "verify", "merge-ratio", "--algo",
                              "lora", "--scale", "100.0", "--opt", "adam",
                              "--steps", "100", "--eps", "1e-8")
        assert code == 1
        assert "FAIL" in stdout

    @pytest.mark.parametrize("flag", ["--eps", "--weight-decay"])
    def test_merge_ratio_non_finite_control_fails(self, capsys, flag):
        # infinite eps would zero every step, and both runs would agree vacuously
        code, stdout, stderr = run(capsys, "verify", "merge-ratio", "--algo", "lora",
                                   "--opt", "adam", "--steps", "5", flag, "inf")
        assert code == 1
        assert "finite and non-negative" in stderr
        assert stdout.splitlines()[-1] == "FAIL (tolerance 1e-08)"
        assert "PASS" not in stdout

    @pytest.mark.parametrize("scale", ["inf", "nan"])
    def test_merge_ratio_non_finite_scale_is_an_error(self, capsys, scale):
        code, stdout, stderr = run(capsys, "verify", "merge-ratio", "--algo", "lora",
                                   "--scale", scale, "--steps", "2")
        message = f"merge ratio must be finite and positive, got {scale}"
        assert code == 1
        assert stdout.splitlines() == [f"lora sgd ratio {scale}: error: {message} FAIL",
                                       "FAIL (tolerance 1e-08)"]
        assert stderr == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "gradients", "--algo", "lora", "--seed", "-1"],
        ["verify", "homogeneity", "--algo", "lora", "--trials", "2", "--seed", "-1"],
        ["verify", "merge-ratio", "--algo", "lora", "--steps", "2", "--seed", "-1"],
    ], ids=["gradients", "homogeneity", "merge-ratio"])
    def test_negative_seed_is_named(self, capsys, argv):
        code, stdout, stderr = run(capsys, *argv)
        assert code == 1
        assert stdout.splitlines()[0].endswith(
            ": error: seed must be a non-negative integer, got -1 FAIL")
        assert stderr == "error: seed must be a non-negative integer, got -1\n"

    def test_merge_ratio_one_line_per_case(self, capsys):
        code, stdout, _ = run(capsys, "verify", "merge-ratio", "--algo", "lokr",
                              "--opt", "sgd", "adagrad", "--scale", "0.25", "16",
                              "--steps", "5")
        assert code == 0
        lines = stdout.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            "lokr sgd ratio 0.25", "lokr sgd ratio 16.0",
            "lokr adagrad ratio 0.25", "lokr adagrad ratio 16.0"]
        assert all("max deviation: " in line and line.endswith(" PASS")
                   for line in lines[:-1])
        assert lines[-1] == "PASS (tolerance 1e-08)"

    def test_merge_ratio_every_form_by_default(self, capsys):
        code, stdout, _ = run(capsys, "verify", "merge-ratio", "--steps", "2")
        assert code == 0
        lines = stdout.splitlines()
        assert [line.split(" ")[0] for line in lines[:-1]] == [
            "lora", "loha", "lokr", "lokr-factored", "lora-tucker",
            "loha-tucker", "lokr-tucker"]
        assert lines[-1] == "PASS (tolerance 1e-08)"

    def test_merge_ratio_one_failing_case_fails_the_sweep(self, capsys):
        # at ratio 1 the twin is the run itself, so eps cannot break it
        code, stdout, _ = run(capsys, "verify", "merge-ratio", "--algo", "lora",
                              "--opt", "adam", "--scale", "100", "1",
                              "--eps", "1e-8")
        assert code == 1
        lines = stdout.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("lora adam ratio 100.0: max deviation: ")
        assert lines[0].endswith(" FAIL")
        assert lines[1] == "lora adam ratio 1.0: max deviation: 0.0 PASS"
        assert lines[2] == "FAIL (tolerance 1e-08)"

    @pytest.mark.filterwarnings("error")
    def test_merge_ratio_diverging_case_fails_and_the_sweep_goes_on(self, capsys):
        # SGD at ratio 100 overflows within 10 steps; the later cases still
        # run, and the case's error line alone reports it (no numpy warning)
        code, stdout, _ = run(capsys, "verify", "merge-ratio", "--algo", "lora",
                              "--opt", "adam", "sgd", "adagrad", "--scale", "100",
                              "--eps", "1e-8")
        assert code == 1
        lines = stdout.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            "lora adam ratio 100.0", "lora sgd ratio 100.0", "lora adagrad ratio 100.0"]
        assert lines[1].startswith("lora sgd ratio 100.0: error: non-finite ")
        assert " in twin A" in lines[1] and lines[1].endswith(" FAIL")
        assert "max deviation: " in lines[2]
        assert lines[-1] == "FAIL (tolerance 1e-08)"

    def test_homogeneity_single_algo(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "verify", "homogeneity", "--algo",
                              "loha", "--trials", "5")
        assert code == 0
        assert stdout.startswith("loha: max relative deviation")
        assert "PASS" in stdout
        assert "tolerance 1e-12" in stdout

    def test_homogeneity_all_algorithms(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "verify", "homogeneity", "--trials", "3")
        assert code == 0
        for name in ("lora", "loha", "lokr", "lokr-factored", "lora-tucker",
                     "loha-tucker", "lokr-tucker"):
            assert f"{name}: " in stdout

    def test_homogeneity_without_trials_is_an_error(self, capsys):
        code, stdout, stderr = run(capsys, "verify", "homogeneity", "--trials", "0")
        assert code == 1
        assert "PASS" not in stdout
        assert "error: trials must be positive" in stderr

    @pytest.mark.parametrize("scale", ["0", "1", "-1", "-1.0"])
    def test_homogeneity_vacuous_scale_is_an_error(self, capsys, scale):
        code, stdout, stderr = run(capsys, "verify", "homogeneity", "--algo", "lora",
                                   "--factor-scale", scale, "--trials", "2")
        assert code == 1
        assert "PASS" not in stdout
        assert "error: scale must not be 0 or 1" in stderr

    @pytest.mark.parametrize("algo,scale,k", [("lora", "1e200", 2), ("lora", "1e-170", 2),
                                              ("loha", "1e-120", 4)])
    def test_homogeneity_out_of_range_scale_is_an_error(self, capsys, algo, scale, k):
        # c^k overflows (a traceback before) or underflows to 0 (a vacuous PASS before)
        code, stdout, stderr = run(capsys, "verify", "homogeneity", "--algo", algo,
                                   "--factor-scale", scale, "--trials", "2")
        assert code == 1
        assert "PASS" not in stdout
        assert stderr.startswith(f"error: scale c = {float(scale)!r} with k = {k} factors "
                                 "leaves the normal float range")

    def test_homogeneity_sweep_goes_on_past_a_refused_case(self, capsys):
        # loha-tucker has k = 6 factors, and 1e75^6 leaves the float range;
        # the forms after it still get their verdicts
        code, stdout, stderr = run(capsys, "verify", "homogeneity", "--factor-scale", "1e75",
                                   "--trials", "2")
        assert code == 1
        lines = stdout.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == list(oh.HARNESS_ALGORITHMS)
        assert lines[5].startswith("loha-tucker: error: scale c = 1e+75 with k = 6 factors ")
        assert lines[5].endswith(" FAIL")
        assert all(line.endswith(" PASS") for line in lines[:5] + lines[6:7])
        assert lines[-1] == "tolerance 1e-12"
        assert stderr.startswith("error: scale c = 1e+75 with k = 6 factors ")

    def test_gradients_sweep_goes_on_past_a_raising_case(self, capsys, monkeypatch):
        def gradient_check(name, seed):
            if name == "loha":
                raise NumericalError("no convergence")
            return {"layer0.up": 1e-12}
        monkeypatch.setattr(oh, "gradient_check", gradient_check)
        code, stdout, stderr = run(capsys, "verify", "gradients")
        assert code == 1
        lines = stdout.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == list(oh.HARNESS_ALGORITHMS)
        assert lines[1] == "loha: error: no convergence FAIL"
        assert lines[2] == "lokr: max relative error 1e-12 over 1 factors PASS"
        assert stderr == "error: no convergence\n"

    def test_gradients_single_algo(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "verify", "gradients", "--algo", "lora")
        assert code == 0
        assert "lora: max relative error" in stdout
        assert "PASS" in stdout


class TestMetricsCommands:
    def test_cossim(self, tmp_path, capsys):
        a = write_vectors(tmp_path, "a", [[1.0, 0.0]])
        b = write_vectors(tmp_path, "b", [[0.0, 1.0]])
        code, stdout, _ = run(capsys, "metrics", "cossim", "--a", str(a),
                              "--b", str(b))
        assert code == 0
        assert float(stdout) == pytest.approx(0.0)

    def test_scd(self, tmp_path, capsys):
        a = write_vectors(tmp_path, "a", [[1.0, 0.0]])
        b = write_vectors(tmp_path, "b", [[0.0, 1.0]])
        code, stdout, _ = run(capsys, "metrics", "scd", "--a", str(a),
                              "--b", str(b))
        assert code == 0
        assert float(stdout) == pytest.approx(2.0)

    def test_align(self, tmp_path, capsys):
        images = write_vectors(tmp_path, "img", [[1.0, 0.0], [1.0, 0.0]])
        texts = write_vectors(tmp_path, "txt", [[1.0, 0.0], [0.0, 1.0]])
        code, stdout, _ = run(capsys, "metrics", "align", "--images",
                              str(images), "--texts", str(texts))
        assert code == 0
        assert float(stdout) == pytest.approx(0.5)

    def test_vendi_scalar(self, tmp_path, capsys):
        feats = write_vectors(tmp_path, "f", np.eye(3).tolist())
        code, stdout, _ = run(capsys, "metrics", "vendi", "--features",
                              str(feats))
        assert code == 0
        assert float(stdout) == pytest.approx(3.0, abs=1e-12)

    def test_vendi_subsample(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        feats = write_vectors(tmp_path, "f", rng.standard_normal((20, 3)).tolist())
        code, stdout, _ = run(capsys, "metrics", "vendi", "--features",
                              str(feats), "--subsample", "5")
        assert code == 0
        assert 1.0 <= float(stdout) <= 5.0 + 1e-9

    def test_vendi_subsample_negative_seed(self, tmp_path, capsys):
        feats = write_vectors(tmp_path, "f", np.eye(6).tolist())
        code, stdout, stderr = run(capsys, "metrics", "vendi", "--features", str(feats),
                                   "--subsample", "5", "--subsample-seed", "-2")
        assert (code, stdout) == (1, "")
        assert stderr == "error: seed must be a non-negative integer, got -2\n"

    def test_vendi_grouped(self, tmp_path, capsys):
        records = [
            ft.FeatureRecord(id=f"r{i}", class_name="c", prompt_type=tag,
                             vector=np.asarray(vec, dtype=float))
            for i, (tag, vec) in enumerate([
                ("p1", [1.0, 0.0, 0.0]), ("p1", [0.0, 1.0, 0.0]),
                ("p1", [0.0, 0.0, 1.0]), ("solo", [1.0, 1.0, 0.0]),
            ])
        ]
        path = tmp_path / "g.jsonl"
        ft.write_features(records, path)
        code, stdout, _ = run(capsys, "metrics", "vendi", "--features",
                              str(path), "--group-by", "prompt_type",
                              "--singletons", "skip")
        assert code == 0
        rows = parse_csv(stdout)
        assert rows[0] == ["group", "vendi"]
        assert rows[1][0] == "p1"
        assert float(rows[1][1]) == pytest.approx(3.0, abs=1e-12)
        assert rows[-1][0] == "mean"
        code, stdout, _ = run(capsys, "metrics", "vendi", "--features",
                              str(path), "--group-by", "prompt_type",
                              "--singletons", "include")
        rows = parse_csv(stdout)
        tags = {row[0] for row in rows[1:]}
        assert "solo" in tags

    def test_vendi_group_above_the_eigensolver_cap(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        big = SYM_EIG_MAX_SIZE + 4
        records = [ft.FeatureRecord(id=f"r{i}", class_name="c",
                                    prompt_type="big" if i < big else "small", vector=row)
                   for i, row in enumerate(rng.standard_normal((big + 3, 4)))]
        path = tmp_path / "big.jsonl"
        ft.write_features(records, path)
        code, stdout, _ = run(capsys, "metrics", "vendi", "--features",
                              str(path), "--group-by", "prompt_type",
                              "--singletons", "skip")
        assert code == 0
        scores = dict(parse_csv(stdout)[1:])
        assert 1.0 <= float(scores["big"]) <= 4.0
        assert 1.0 <= float(scores["small"]) <= 3.0

    def test_vendi_grouping_flag_rules(self, tmp_path, capsys):
        feats = write_vectors(tmp_path, "f", [[1.0, 0.0], [0.0, 1.0]])
        code, _, stderr = run(capsys, "metrics", "vendi", "--features",
                              str(feats), "--group-by", "class")
        assert code == 1
        assert "--singletons" in stderr
        code, _, stderr = run(capsys, "metrics", "vendi", "--features",
                              str(feats), "--singletons", "skip")
        assert code == 1
        assert "--group-by" in stderr
        code, _, stderr = run(capsys, "metrics", "vendi", "--features",
                              str(feats), "--group-by", "class",
                              "--singletons", "skip", "--subsample", "5")
        assert code == 1
        assert "ungrouped" in stderr

    def test_vendi_invalid_utf8_exits_with_line(self, tmp_path, capsys):
        feats = write_vectors(tmp_path, "f", [[1.0, 0.0], [0.0, 1.0]])
        feats.write_bytes(feats.read_bytes().replace(b'"f1"', b'"f\xff"'))
        code, _, stderr = run(capsys, "metrics", "vendi", "--features", str(feats))
        assert code == 1
        assert "f.jsonl: line 2: invalid UTF-8" in stderr

    def test_style(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        fm = rng.standard_normal((2, 3, 3))
        rec_a = ft.FeatureRecord(id="a0", class_name="c",
                                 maps=(("conv1", fm),))
        rec_b = ft.FeatureRecord(id="b0", class_name="c",
                                 maps=(("conv1", fm.copy()),))
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ft.write_features([rec_a], pa)
        ft.write_features([rec_b], pb)
        code, stdout, _ = run(capsys, "metrics", "style", "--a", str(pa),
                              "--b", str(pb))
        assert code == 0
        rows = parse_csv(stdout)
        assert rows[0] == ["id_a", "id_b", "style_loss"]
        assert rows[1][:2] == ["a0", "b0"]
        assert float(rows[1][2]) == pytest.approx(0.0, abs=1e-12)
        assert rows[2][:2] == ["mean", "mean"]

    def test_style_mean_row(self, tmp_path, capsys):
        # style losses 16 and 0 average to 8
        two, zero = np.full((1, 1, 1), 2.0), np.zeros((1, 1, 1))
        recs_a = [ft.FeatureRecord(id=f"a{i}", class_name="c", maps=(("conv1", two),))
                  for i in range(2)]
        recs_b = [ft.FeatureRecord(id=f"b{i}", class_name="c", maps=(("conv1", m),))
                  for i, m in enumerate((zero, two))]
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ft.write_features(recs_a, pa)
        ft.write_features(recs_b, pb)
        code, stdout, _ = run(capsys, "metrics", "style", "--a", str(pa), "--b", str(pb))
        assert code == 0
        rows = parse_csv(stdout)
        assert [float(row[2]) for row in rows[1:]] == [16.0, 0.0, 8.0]

    def test_style_layer_mismatch(self, tmp_path, capsys):
        rec_a = ft.FeatureRecord(id="a0", class_name="c",
                                 maps=(("conv1", np.ones((1, 1, 1))),))
        rec_b = ft.FeatureRecord(id="b0", class_name="c",
                                 maps=(("conv9", np.ones((1, 1, 1))),))
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ft.write_features([rec_a], pa)
        ft.write_features([rec_b], pb)
        code, _, stderr = run(capsys, "metrics", "style", "--a", str(pa),
                              "--b", str(pb))
        assert code == 1
        assert "differ in layers" in stderr

    def test_style_record_count_mismatch(self, tmp_path, capsys):
        rec = ft.FeatureRecord(id="a0", class_name="c", maps=(("conv1", np.ones((1, 1, 1))),))
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ft.write_features([rec], pa)
        ft.write_features([rec, rec], pb)
        code, _, stderr = run(capsys, "metrics", "style", "--a", str(pa), "--b", str(pb))
        assert code == 1
        assert "record count mismatch: 1 vs 2" in stderr

    @pytest.mark.filterwarnings("error")
    def test_style_overflow_names_the_records_and_layer(self, tmp_path, capsys):
        maps = (("conv1", np.ones((1, 2, 2))), ("conv2", np.full((1, 2, 2), 1e200)))
        rec = ft.FeatureRecord(id="a0", class_name="c", maps=maps)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ft.write_features([rec], pa)
        ft.write_features([dataclasses.replace(rec, id="b0")], pb)
        code, stdout, stderr = run(capsys, "metrics", "style", "--a", str(pa), "--b", str(pb))
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: records 'a0'/'b0': layer 1: the Gram matrix of a (1, 2, 2) ")

    def test_style_requires_map_records(self, tmp_path, capsys):
        pa = write_vectors(tmp_path, "a", [[1.0, 0.0]])
        pb = write_vectors(tmp_path, "b", [[0.0, 1.0]])
        code, _, stderr = run(capsys, "metrics", "style", "--a", str(pa), "--b", str(pb))
        assert code == 1
        assert "style comparison requires feature map records" in stderr

    def test_diversity_ratio(self, tmp_path, capsys):
        cls = write_vectors(tmp_path, "cls", np.eye(4)[:2].tolist())
        whole = write_vectors(tmp_path, "whole", np.eye(4).tolist())
        code, stdout, _ = run(capsys, "metrics", "diversity-ratio",
                              "--class-features", str(cls),
                              "--dataset-features", str(whole),
                              "--measure", "vendi")
        assert code == 0
        assert float(stdout) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("measure", ["vendi", "intra_dissimilarity", "variance"])
    def test_diversity_ratio_refuses_other_widths(self, tmp_path, capsys, measure):
        rng = np.random.default_rng(16)
        cls = write_vectors(tmp_path, "cls", rng.standard_normal((5, 3)).tolist())
        whole = write_vectors(tmp_path, "whole", rng.standard_normal((9, 8)).tolist())
        code, stdout, stderr = run(capsys, "metrics", "diversity-ratio",
                                   "--class-features", str(cls),
                                   "--dataset-features", str(whole),
                                   "--measure", measure)
        assert code == 1
        assert stdout == ""
        assert "vector widths differ: (5, 3) vs (9, 8)" in stderr

    def test_normalize(self, tmp_path, capsys):
        from deltafactor.metrics import ScoreRecord
        rows = [
            ScoreRecord("ck_a", "anime", "cls", None, "plain", "m", 3.2, True),
            ScoreRecord("ck_b", "anime", "cls", None, "plain", "m", 1.1, True),
            ScoreRecord("ck_c", "anime", "cls", None, "plain", "m", 2.7, True),
        ]
        scores = tmp_path / "scores.csv"
        ft.write_scores(rows, scores)
        out = tmp_path / "norm.csv"
        code, stdout, _ = run(capsys, "metrics", "normalize", "--scores",
                              str(scores), "--out", str(out))
        assert code == 0
        assert "wrote 3 normalized rows" in stdout
        normalized = ft.load_scores(out)
        assert [r.value for r in normalized] == [1.0, 0.0, 0.5]

    def test_aggregate(self, tmp_path, capsys):
        from deltafactor.metrics import ScoreRecord
        rows = [
            ScoreRecord("ck", "anime", "c1", "s1", "plain", "m", 0.2, True),
            ScoreRecord("ck", "anime", "c1", "s2", "plain", "m", 0.4, True),
            ScoreRecord("ck", "anime", "c2", None, "plain", "m", 0.9, True),
        ]
        scores = tmp_path / "scores.csv"
        ft.write_scores(rows, scores)
        out = tmp_path / "agg.csv"
        code, stdout, _ = run(capsys, "metrics", "aggregate", "--scores",
                              str(scores), "--out", str(out))
        assert code == 0
        assert "wrote 1 category rows" in stdout
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(ft.CATEGORY_COLUMNS)
        assert lines[1].startswith("ck,anime,plain,m,0.6")


class TestBalanceCommand:
    def test_table_sizes(self, capsys):
        code, stdout, _ = run(capsys, "balance", "--sizes", "12,10,7")
        assert code == 0
        assert stdout.strip() == "17,20,29"

    def test_custom_target(self, capsys):
        code, stdout, _ = run(capsys, "balance", "--sizes", "10", "--target",
                              "35")
        assert code == 0
        assert stdout.strip() == "4"

    def test_bad_sizes(self, capsys):
        code, _, stderr = run(capsys, "balance", "--sizes", "12,x")
        assert code == 1
        assert "comma-separated" in stderr


class TestExitCodes:
    def test_missing_file_is_two(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "adapter", "info", "--weights",
                              str(tmp_path / "nope.lwu"))
        assert code == 2
        assert "error:" in stderr

    def test_unknown_flag_is_one(self, capsys):
        code, _, _ = run(capsys, "balance", "--sizes", "5", "--bogus")
        assert code == 1

    def test_help_is_zero(self, capsys):
        code, stdout, _ = run(capsys, "--help")
        assert code == 0
        assert "adapter" in stdout

    def test_fit_help_explains_dim_and_factor(self, capsys):
        code, stdout, _ = run(capsys, "adapter", "fit", "--help")
        assert code == 0
        text = " ".join(stdout.split())
        assert "--dim DIM lora: the fit's rank (required); lokr: the right block's rank" in text
        assert "--factor FACTOR lokr split: c's extents are at most this" in text

    def test_no_arguments_is_one(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_malformed_weight_file_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.lwu"
        bad.write_bytes(b"XXXX1234")
        code, _, stderr = run(capsys, "adapter", "info", "--weights", str(bad))
        assert code == 1
        assert "magic" in stderr

    def test_bad_manifest_is_one(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text("{}", encoding="utf-8")
        code, _, stderr = run(capsys, "adapter", "init", "--algo", "lora",
                              "--manifest", str(manifest), "--dim", "2",
                              "--alpha", "2.0", "--out",
                              str(tmp_path / "x.lwu"))
        assert code == 1
        assert "manifest" in stderr

    @pytest.mark.parametrize("text,message", [
        ("[{", "invalid JSON"),
        ('[{"name": "a", "kind": "linear", "shape": [2, 2], "bias": true}]',
         "entry 0 must have exactly the keys name, kind, shape"),
        ('[{"name": "", "kind": "linear", "shape": [2, 2]}]', "entry 0 has an empty name"),
    ], ids=["json", "keys", "name"])
    def test_manifest_refusals_name_the_file(self, tmp_path, capsys, text, message):
        manifest = tmp_path / "m.json"
        manifest.write_text(text, encoding="utf-8")
        code, _, stderr = run(capsys, "adapter", "init", "--algo", "lora",
                              "--manifest", str(manifest), "--dim", "1",
                              "--alpha", "1.0", "--out", str(tmp_path / "x.lwu"))
        assert code == 1
        assert stderr.startswith(f"error: {manifest}: {message}")
        assert not (tmp_path / "x.lwu").exists()

    def test_boolean_manifest_extent_is_one(self, tmp_path, capsys):
        # JSON true is a Python int; it must not pass as an extent of 1
        manifest = write_manifest(tmp_path, [{"name": "a", "kind": "linear",
                                              "shape": [True, 4]}])
        code, _, stderr = run(capsys, "adapter", "init", "--algo", "lora",
                              "--manifest", str(manifest), "--dim", "1",
                              "--alpha", "1.0", "--out", str(tmp_path / "x.lwu"))
        assert code == 1
        assert stderr == f"error: {manifest}: entry 0 has invalid shape [True, 4]\n"
        assert not (tmp_path / "x.lwu").exists()

    def test_module_entry_point_is_the_cli_main(self):
        # python -m deltafactor runs deltafactor.__main__, which only forwards
        assert importlib.import_module("deltafactor.__main__").main is main

    def test_main_exits_with_the_dispatch_code(self, tmp_path, monkeypatch, capsys):
        path = write_vectors(tmp_path, "v", [[1.0, 2.0]])
        monkeypatch.setattr("sys.argv", ["deltafactor", "metrics", "vendi", "--features", str(path)])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        assert capsys.readouterr().out == "1.0\n"
        missing = str(tmp_path / "none")
        monkeypatch.setattr("sys.argv", ["deltafactor", "metrics", "vendi", "--features", missing])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
