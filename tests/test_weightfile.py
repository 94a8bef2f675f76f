import dataclasses
import errno
import json
import os
import struct
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from deltafactor import adapters as ad
from deltafactor import weightfile as wf
from deltafactor.cli import cli_dispatch
from deltafactor.tensor_core import ComplexInputError

LINEAR = ad.LayerShape("linear", 4, 6)
CONV = ad.LayerShape("conv2d", 4, 3, 3)


def build_model(algorithm="lora", dim=2, factor=-1, tucker=False, seed=0):
    entries = [("blk0.attn", LINEAR), ("blk1.conv", CONV)]
    model = ad.init_model(entries, algorithm, dim, alpha=float(dim),
                          factor=factor, tucker=tucker, seed=seed)
    return model


def save_blob(model, tmp_path) -> bytes:
    path = tmp_path / "m.lwu"
    wf.save_weights(model, path)
    return path.read_bytes()


def rewrite_header(blob: bytes, mutate) -> bytes:
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8:8 + header_len])
    payload = blob[8 + header_len:]
    mutate(header)
    hb = json.dumps(header).encode("utf-8")
    return wf.MAGIC + struct.pack("<I", len(hb)) + hb + payload


def load_blob(blob: bytes, tmp_path):
    path = tmp_path / "mut.lwu"
    path.write_bytes(blob)
    return wf.load_weights(path)


def quantized(t: np.ndarray) -> np.ndarray:
    return t.astype("<f4").astype(np.float64)


class TestRoundtrip:
    @pytest.mark.parametrize("algorithm,dim,factor,tucker", [
        ("lora", 2, -1, False),
        ("lora", 2, -1, True),
        ("loha", 2, -1, False),
        ("loha", 2, -1, True),
        ("lokr", 2, 2, False),
        ("lokr", 3, -1, False),
        ("lokr", 2, 2, True),
    ])
    def test_exact_at_f32(self, tmp_path, algorithm, dim, factor, tucker):
        model = build_model(algorithm, dim, factor, tucker, seed=3)
        path = tmp_path / "m.lwu"
        wf.save_weights(model, path)
        loaded = wf.load_weights(path)
        assert loaded.meta == model.meta
        assert set(loaded.entries) == set(model.entries)
        for name, adapter in model.entries.items():
            twin = loaded.entries[name]
            assert twin.layer == adapter.layer
            assert twin.scale == adapter.scale
            got = twin.tensors()
            want = adapter.tensors()
            assert set(got) == set(want)
            for role in want:
                np.testing.assert_array_equal(got[role], quantized(want[role]))

    def test_numpy_integer_extents_and_dim(self, tmp_path):
        # they save as the same bytes as Python integers
        layer = ad.LayerShape("conv2d", np.int64(4), np.int32(3), np.uint8(3))
        model = ad.init_model([("a", layer)], "lora", np.int64(2), alpha=2.0, seed=np.int64(5))
        plain = ad.init_model([("a", CONV)], "lora", 2, alpha=2.0, seed=5)
        assert save_blob(model, tmp_path) == save_blob(plain, tmp_path)

    def test_save_is_byte_stable(self, tmp_path):
        model = build_model("loha", seed=7)
        a = save_blob(model, tmp_path)
        b = save_blob(model, tmp_path)
        assert a == b

    def test_file_is_magic_length_header_payload(self, tmp_path):
        # the layout spelled out: magic, u32 header length, sorted-key JSON
        # header, then every tensor's float32 bytes in header order
        model = build_model("lokr", factor=2, tucker=True, seed=5)
        layers, payload = [], b""
        for name, adapter in model.entries.items():
            shp = adapter.layer
            tensors = []
            for role, t in adapter.tensors().items():
                raw = t.astype("<f4").tobytes()
                tensors.append({"role": role, "shape": list(t.shape), "dtype": "f4",
                                "byte_offset": len(payload), "byte_length": len(raw)})
                payload += raw
            dims = [shp.out_dim, shp.in_dim] + ([shp.kernel] if shp.kind == "conv2d" else [])
            layers.append({"name": name, "kind": shp.kind, "shape": dims, "tensors": tensors})
        header = json.dumps(dict(dataclasses.asdict(model.meta), format_version=1, layers=layers),
                            sort_keys=True).encode("utf-8")
        want = wf.MAGIC + struct.pack("<I", len(header)) + header + payload
        assert save_blob(model, tmp_path) == want

    def test_rejects_complex_factor(self):
        # an adapter cannot hold a complex factor, so none reaches a .lwu file
        adapter = build_model().entries["blk0.attn"]
        with pytest.raises(ComplexInputError, match="^down is complex"):
            dataclasses.replace(adapter, down=adapter.down + 1e-30j)

    def test_quantization_roundtrip_is_idempotent(self, tmp_path):
        model = build_model("lora", seed=9)
        path = tmp_path / "m.lwu"
        wf.save_weights(model, path)
        once = wf.load_weights(path)
        wf.save_weights(once, path)
        twice = wf.load_weights(path)
        for name in once.entries:
            for role, t in once.entries[name].tensors().items():
                np.testing.assert_array_equal(t, twice.entries[name].tensors()[role])


class TestDenseFiles:
    def test_delta_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = {
            "a": (LINEAR, rng.standard_normal(LINEAR.delta_shape)),
            "b": (CONV, rng.standard_normal(CONV.delta_shape)),
        }
        path = tmp_path / "d.lwu"
        wf.save_dense(entries, path, algorithm="delta")
        meta, loaded = wf.load_dense(path)
        assert meta.algorithm == "delta"
        assert set(loaded) == {"a", "b"}
        for name, (shape, value) in entries.items():
            got_shape, got = loaded[name]
            assert got_shape == shape
            np.testing.assert_array_equal(got, quantized(value))

    def test_dense_weight_flavor(self, tmp_path):
        entries = {"w": (LINEAR, np.ones(LINEAR.delta_shape))}
        path = tmp_path / "w.lwu"
        wf.save_dense(entries, path, algorithm="dense")
        meta, loaded = wf.load_dense(path)
        assert meta.algorithm == "dense"
        np.testing.assert_array_equal(loaded["w"][1], np.ones(LINEAR.delta_shape))

    def test_rejects_unknown_algorithm(self, tmp_path):
        with pytest.raises(ValueError, match="dense algorithm"):
            wf.save_dense({}, tmp_path / "x.lwu", algorithm="lora")

    def test_rejects_shape_mismatch(self, tmp_path):
        entries = {"a": (LINEAR, np.zeros((3, 3)))}
        with pytest.raises(ValueError, match="shape"):
            wf.save_dense(entries, tmp_path / "x.lwu")

    def test_cross_loading_rejected(self, tmp_path):
        adapter_path = tmp_path / "a.lwu"
        wf.save_weights(build_model(), adapter_path)
        with pytest.raises(wf.WeightFileError, match="load_weights"):
            wf.load_dense(adapter_path)
        dense_path = tmp_path / "d.lwu"
        wf.save_dense({"a": (LINEAR, np.zeros(LINEAR.delta_shape))}, dense_path)
        with pytest.raises(wf.WeightFileError, match="load_dense"):
            wf.load_weights(dense_path)

    @pytest.mark.parametrize("layer,rows", [(LINEAR, (1, 3)), (CONV, (2, 2)), (CONV, (4,))],
                             ids=["linear", "conv", "conv-whole"])
    def test_row_blocks_write_the_array_bytes(self, tmp_path, layer, rows):
        value = np.random.default_rng(1).standard_normal(layer.delta_shape)
        unrolled = value.reshape(layer.out_dim, -1)
        bounds = np.cumsum((0, *rows))
        blocks = (unrolled[lo:hi].copy() for lo, hi in zip(bounds[:-1], bounds[1:]))
        wf.save_dense({"a": (layer, lambda: blocks)}, tmp_path / "blocks.lwu")
        wf.save_dense({"a": (layer, value)}, tmp_path / "array.lwu")
        assert (tmp_path / "blocks.lwu").read_bytes() == (tmp_path / "array.lwu").read_bytes()

    @pytest.mark.parametrize("blocks,message", [
        ([np.zeros((4, 5))], r"row block shape \(4, 5\) does not fit rows 0: of \(4, 6\)"),
        ([np.zeros((4, 2, 3))], r"row block shape \(4, 2, 3\) does not fit rows 0: of \(4, 6\)"),
        ([np.zeros((3, 6)), np.zeros((2, 6))], r"row block shape \(2, 6\) does not fit rows 3: of"),
        ([np.zeros((2, 6)), np.zeros((0, 6))], r"row block shape \(0, 6\) does not fit rows 2: of"),
        ([np.zeros((3, 6))], r"row blocks end at row 3 of \(4, 6\)"),
        ([], r"row blocks end at row 0 of \(4, 6\)"),
    ], ids=["row-length", "unrolled", "past-the-end", "empty", "short", "none"])
    def test_row_blocks_must_tile_the_tensor(self, tmp_path, blocks, message):
        path = tmp_path / "x.lwu"
        path.write_bytes(b"kept")
        with pytest.raises(ValueError, match=f"^layer 'a' tensor 'delta': {message}"):
            wf.save_dense({"a": (LINEAR, lambda: iter(blocks))}, path)
        assert path.read_bytes() == b"kept"
        assert os.listdir(tmp_path) == ["x.lwu"]

    def test_a_non_finite_block_stops_the_blocks(self, tmp_path):
        # the block is refused as it is cast; no later block is made
        made = []

        def blocks():
            for row in range(LINEAR.out_dim):
                made.append(row)
                yield np.full((1, 6), np.inf if row == 1 else 1.0)
        path = tmp_path / "x.lwu"
        with pytest.raises(wf.WeightFileError, match="'a' tensor 'delta' holds values"):
            wf.save_dense({"a": (LINEAR, blocks)}, path)
        assert made == [0, 1]
        assert not path.exists()

    def test_rejects_complex_delta(self, tmp_path):
        path = tmp_path / "x.lwu"
        entries = {"a": (LINEAR, np.full(LINEAR.delta_shape, 1.0 + 1e-30j))}
        with pytest.raises(ComplexInputError, match="'a' tensor 'delta' is complex"):
            wf.save_dense(entries, path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [1e39, np.inf, np.nan])
    def test_rejects_values_not_finite_as_f32(self, tmp_path, bad):
        path = tmp_path / "x.lwu"
        path.write_bytes(b"kept")
        value = np.zeros(LINEAR.delta_shape)
        value[1, 2] = bad
        with pytest.raises(wf.WeightFileError, match="'a' tensor 'delta' holds values"):
            wf.save_dense({"a": (LINEAR, value)}, path)
        assert path.read_bytes() == b"kept"

    @pytest.mark.parametrize("mutate,message", [
        (lambda t: t.update(role="weight"), "dense layer 'a' must hold exactly one 'delta' tensor"),
        (lambda t: t.update(shape=[24]), r"dense layer 'a' tensor shape \(24,\) != \(4, 6\)"),
    ], ids=["role", "shape"])
    def test_load_rejects_inconsistent_layer(self, tmp_path, mutate, message):
        path = tmp_path / "d.lwu"
        wf.save_dense({"a": (LINEAR, np.ones(LINEAR.delta_shape))}, path)
        blob = rewrite_header(path.read_bytes(), lambda h: mutate(h["layers"][0]["tensors"][0]))
        path.write_bytes(blob)
        with pytest.raises(wf.MalformedHeaderError, match=rf"^{message} \(byte 8\)$"):
            wf.load_dense(path)

    def test_save_weights_rejects_dense_meta(self, tmp_path):
        model = build_model()
        bad = ad.AdapterModel(
            meta=ad.ModelMeta(algorithm="delta", dim=2, alpha=2.0),
            entries=model.entries)
        with pytest.raises(ValueError, match="save_dense"):
            wf.save_weights(bad, tmp_path / "x.lwu")


class TestWritersWriteOnlyWhatLoads:
    """A save the writers refuse leaves no file; every file they write loads."""

    @pytest.mark.parametrize("meta,message", [
        (ad.ModelMeta("lora", 0, 1.0), "invalid metadata: dim"),
        (ad.ModelMeta("foo", 2, 2.0), "unknown algorithm 'foo'"),
        (ad.ModelMeta("lora", True, 2.0), "'dim' has wrong type"),
        (ad.ModelMeta("lora", 2, 10 ** 400), "invalid metadata"),
        (ad.ModelMeta("loha", 2, 2.0), "inconsistent adapter tensors"),
        (ad.ModelMeta("lora", 3, 3.0), "inconsistent adapter tensors"),
    ], ids=["dim-0", "algorithm", "bool-dim", "alpha-beyond-float", "loha-over-lora",
            "dim-over-rank"])
    def test_save_weights_refuses_meta_the_reader_refuses(self, tmp_path, meta, message):
        model = ad.AdapterModel(meta=meta, entries=build_model("lora", dim=2).entries)
        path = tmp_path / "m.lwu"
        with pytest.raises(wf.MalformedHeaderError, match=message):
            wf.save_weights(model, path)
        assert not path.exists()

    def test_save_weights_refuses_a_gamma_that_would_change(self, tmp_path):
        # alpha 4 at dim 2 is gamma 2; the model's alpha 1 at dim 2 would load it as 0.5
        adapter = ad.init_adapter("lora", LINEAR, 2, alpha=4.0)
        model = ad.AdapterModel(meta=ad.ModelMeta("lora", 2, 1.0), entries={"a": adapter})
        path = tmp_path / "m.lwu"
        with pytest.raises(wf.MalformedHeaderError, match="layer 'a' has gamma 2.0 but would load with the model's alpha / dim = 0.5"):
            wf.save_weights(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("second,message", [
        (ad.init_adapter("lora", LINEAR, 3, alpha=3.0), "inconsistent adapter tensors"),
        (ad.init_adapter("lora", LINEAR, 2, alpha=4.0), "layer 'b' has gamma 2.0 but would load"),
    ], ids=["layout", "gamma"])
    def test_layer_refusals_make_no_file(self, tmp_path, monkeypatch, second, message):
        # the second layer is refused before the first is written: no
        # temporary file is made, and the target keeps its bytes
        first = ad.init_adapter("lora", LINEAR, 2, alpha=2.0)
        model = ad.AdapterModel(meta=ad.ModelMeta("lora", 2, 2.0), entries={"a": first, "b": second})
        path = tmp_path / "m.lwu"
        path.write_bytes(b"kept")
        monkeypatch.setattr(wf, "_create_beside", lambda target: pytest.fail("a file was made"))
        with pytest.raises(wf.MalformedHeaderError, match=message):
            wf.save_weights(model, path)
        assert path.read_bytes() == b"kept"
        assert os.listdir(tmp_path) == ["m.lwu"]

    @pytest.mark.parametrize("shape", [(3, 3), (24,), (6, 4), (4, 3, 2)],
                             ids=["size", "flat", "transposed", "unrolled"])
    def test_save_dense_refuses_a_wrong_shaped_array_before_any_file(self, tmp_path, monkeypatch,
                                                                     shape):
        # the second layer is refused before the first is written, even when
        # its array holds as many values as the layer: no temporary file is
        # made, and the target keeps its bytes
        entries = {"a": (LINEAR, np.ones(LINEAR.delta_shape)), "b": (LINEAR, np.ones(shape))}
        path = tmp_path / "d.lwu"
        path.write_bytes(b"kept")
        monkeypatch.setattr(wf, "_create_beside", lambda target: pytest.fail("a file was made"))
        with pytest.raises(ValueError, match=rf"^layer 'b' tensor 'delta': array shape "
                                             rf"\({', '.join(map(str, shape))},?\) != \(4, 6\)$"):
            wf.save_dense(entries, path)
        assert path.read_bytes() == b"kept"
        assert os.listdir(tmp_path) == ["d.lwu"]

    def test_layers_of_other_dims_at_one_gamma_save(self, tmp_path):
        # lokr fits of whole right blocks differ in dim but share gamma 1
        fits = {"a": ad.nkp_fit_lokr(np.ones((8, 8))), "b": ad.nkp_fit_lokr(np.ones((4, 6)))}
        assert fits["a"].scale.dim != fits["b"].scale.dim
        model = ad.AdapterModel(meta=ad.ModelMeta("lokr", 4, 4.0), entries=fits)
        wf.save_weights(model, tmp_path / "m.lwu")
        loaded = wf.load_weights(tmp_path / "m.lwu")
        assert all(adapter.scale.gamma == 1.0 for adapter in loaded.entries.values())

    def test_save_checks_layers_without_building_them(self, tmp_path, monkeypatch):
        model = build_model("lokr", factor=2, tucker=True, seed=5)
        monkeypatch.setattr(ad, "_from_tensors", lambda *args: pytest.fail("an adapter was built"))
        wf.save_weights(model, tmp_path / "m.lwu")
        monkeypatch.undo()
        assert wf.load_weights(tmp_path / "m.lwu").meta == model.meta

    def test_layer_names_must_be_strings(self, tmp_path):
        path = tmp_path / "m.lwu"
        model = ad.AdapterModel(meta=ad.ModelMeta("lora", 2, 2.0),
                                entries={0: build_model().entries["blk0.attn"]})
        with pytest.raises(wf.MalformedHeaderError, match="layer name 0 is not a string"):
            wf.save_weights(model, path)
        with pytest.raises(wf.MalformedHeaderError, match="layer name 0 is not a string"):
            wf.save_dense({0: (LINEAR, np.ones(LINEAR.delta_shape))}, path)
        assert not path.exists()

    def test_save_dense_refuses_meta_the_reader_refuses(self, tmp_path):
        path = tmp_path / "d.lwu"
        meta = ad.ModelMeta("lora", 0, 1.0)
        with pytest.raises(wf.MalformedHeaderError, match="invalid metadata: dim"):
            wf.save_dense({"a": (LINEAR, np.ones(LINEAR.delta_shape))}, path, meta=meta)
        assert not path.exists()

    @pytest.mark.parametrize("alpha", [np.float32(2.0), np.float32(0.1), np.float16(3.0)],
                             ids=["float32-2", "float32-0.1", "float16-3"])
    def test_numpy_float_alpha_is_a_json_float(self, tmp_path, alpha):
        # at dim 3 a float32 gamma would differ from the float64 one a reload forms
        model = ad.init_model([("a", LINEAR), ("b", CONV)], "lora", 3, alpha)
        wf.save_weights(model, tmp_path / "m.lwu")
        loaded = wf.load_weights(tmp_path / "m.lwu")
        assert loaded.meta.alpha == float(alpha)
        for name, adapter in loaded.entries.items():
            assert adapter.scale.gamma == model.entries[name].scale.gamma
        wf.save_dense({"a": (LINEAR, np.ones(LINEAR.delta_shape))}, tmp_path / "d.lwu",
                      meta=ad.ModelMeta("delta", 1, alpha))
        assert wf.load_dense(tmp_path / "d.lwu")[0].alpha == float(alpha)

    @pytest.mark.parametrize("meta", [ad.ModelMeta("lora", 2, 2.0, seed=np.random.SeedSequence(3)),
                                      ad.ModelMeta("lora", 2, Fraction(2))],
                             ids=["seed-sequence", "fraction-alpha"])
    def test_metadata_json_cannot_hold_makes_no_file(self, tmp_path, monkeypatch, meta):
        monkeypatch.setattr(wf, "_create_beside", lambda target: pytest.fail("a file was made"))
        model = ad.AdapterModel(meta=meta, entries=build_model("lora", dim=2).entries)
        with pytest.raises(wf.MalformedHeaderError, match="is not a JSON number or string"):
            wf.save_weights(model, tmp_path / "m.lwu")
        with pytest.raises(wf.MalformedHeaderError, match="is not a JSON number or string"):
            wf.save_dense({"a": (LINEAR, np.ones(LINEAR.delta_shape))}, tmp_path / "d.lwu", meta=meta)
        assert os.listdir(tmp_path) == []

    def test_reader_refuses_an_integer_alpha_beyond_float_range(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        with pytest.raises(wf.MalformedHeaderError, match="invalid metadata"):
            load_blob(rewrite_header(blob, lambda h: h.update(alpha=10 ** 400)), tmp_path)


def reference_decode(blob: bytes) -> list[tuple[str, str, np.ndarray]]:
    """(layer, role, values) per header entry: frombuffer of its span, cast to float64."""
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8:8 + header_len])
    base = 8 + header_len
    out = []
    for layer in header["layers"]:
        for t in layer["tensors"]:
            raw = blob[base + t["byte_offset"]:base + t["byte_offset"] + t["byte_length"]]
            out.append((layer["name"], t["role"],
                        np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(t["shape"])))
    return out


def repack_reversed(blob: bytes) -> bytes:
    """The same file with its tensors packed in the reverse of header order."""
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8:8 + header_len])
    payload = blob[8 + header_len:]
    entries = [t for layer in header["layers"] for t in layer["tensors"]]
    parts = [payload[t["byte_offset"]:t["byte_offset"] + t["byte_length"]] for t in entries]
    offset = 0
    for t, part in zip(reversed(entries), reversed(parts)):
        t["byte_offset"] = offset
        offset += len(part)
    hb = json.dumps(header).encode("utf-8")
    return wf.MAGIC + struct.pack("<I", len(hb)) + hb + b"".join(reversed(parts))


def repack(blob: bytes, mutate) -> bytes:
    """rewrite_header, then a payload of just the tensors the header still lists, in its order."""
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8:8 + header_len])
    payload = blob[8 + header_len:]
    mutate(header)
    parts, offset = [], 0
    for t in (t for layer in header["layers"] for t in layer["tensors"]):
        parts.append(payload[t["byte_offset"]:t["byte_offset"] + t["byte_length"]])
        t["byte_offset"] = offset
        offset += t["byte_length"]
    hb = json.dumps(header).encode("utf-8")
    return wf.MAGIC + struct.pack("<I", len(hb)) + hb + b"".join(parts)


class TestLoadReadsAtOffsets:
    """Loads read each tensor at its offset through one reused buffer.

    In the reference tests the payload order is the reverse of the header
    order, and a small tensor is read after a large one, so a buffer read
    or sliced wrongly shows.
    """

    def test_load_dense(self, tmp_path):
        rng = np.random.default_rng(11)
        small = ad.LayerShape("linear", 2, 3)
        entries = {"big": (CONV, rng.standard_normal(CONV.delta_shape)),
                   "small": (small, rng.standard_normal(small.delta_shape)),
                   "mid": (LINEAR, rng.standard_normal(LINEAR.delta_shape))}
        path = tmp_path / "d.lwu"
        wf.save_dense(entries, path)
        blob = repack_reversed(path.read_bytes())
        path.write_bytes(blob)
        _, loaded = wf.load_dense(path)
        want = reference_decode(blob)
        assert [(name, role) for name, role, _ in want] == [
            ("big", "delta"), ("small", "delta"), ("mid", "delta")]
        for name, _, values in want:
            got = loaded[name][1]
            assert got.dtype == np.float64 and got.shape == values.shape
            assert got.tobytes() == values.tobytes()

    def test_load_weights(self, tmp_path):
        layers = [("blk0.conv", CONV), ("blk1.attn", LINEAR)]
        model = ad.AdapterModel(
            meta=ad.ModelMeta(algorithm="loha", dim=2, alpha=2.0),
            entries={name: ad.random_adapter("loha", shape, 2, 2.0,
                                             tucker=shape.kind == "conv2d", seed=i)
                     for i, (name, shape) in enumerate(layers)})
        blob = repack_reversed(save_blob(model, tmp_path))
        loaded = load_blob(blob, tmp_path)
        want = reference_decode(blob)
        sizes = [values.size for *_, values in want]
        assert any(a > b for a, b in zip(sizes, sizes[1:]))
        for name, role, values in want:
            got = loaded.entries[name].tensors()[role]
            assert got.dtype == np.float64 and got.shape == values.shape
            assert got.tobytes() == values.tobytes()

    def test_file_that_shrinks_while_read(self, tmp_path, monkeypatch):
        # the size is taken once, before the header is parsed; a file cut
        # after that ends a read short, and the load refuses it. The file
        # is larger than the reader's buffer, so the cut bytes are not
        # already buffered.
        path = tmp_path / "d.lwu"
        big = ad.LayerShape("linear", 128, 128)
        wf.save_dense({"a": (big, np.ones(big.delta_shape))}, path)
        blob = path.read_bytes()

        def cut_then_parse(text):
            with open(path, "r+b") as fh:
                fh.truncate(len(blob) - 4)
            return json.loads(text)
        monkeypatch.setattr(wf, "json", SimpleNamespace(loads=cut_then_parse,
                                                         JSONDecodeError=json.JSONDecodeError))
        with pytest.raises(wf.TruncatedPayloadError, match="4 bytes short") as info:
            wf.load_dense(path)
        assert info.value.position == len(blob) - 4


    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_refused_naming_it(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        r, w = os.pipe()
        try:
            os.write(w, blob)
            os.close(w)
            path = f"/dev/fd/{r}"
            with pytest.raises(OSError, match="Illegal seek") as info:
                wf.load_weights(path)
            assert info.value.filename == path
        finally:
            os.close(r)


class TestMalformedCorpus:
    def test_bad_magic(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        with pytest.raises(wf.BadMagicError) as info:
            load_blob(b"XXXX" + blob[4:], tmp_path)
        assert info.value.position == 0

    def test_empty_file(self, tmp_path):
        with pytest.raises(wf.BadMagicError):
            load_blob(b"", tmp_path)

    def test_file_ends_inside_length_field(self, tmp_path):
        with pytest.raises(wf.TruncatedPayloadError) as info:
            load_blob(wf.MAGIC + b"\x01\x02", tmp_path)
        assert info.value.position == 4

    def test_truncated_header(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        with pytest.raises(wf.TruncatedPayloadError) as info:
            load_blob(blob[:12], tmp_path)
        assert info.value.position == 8

    def test_header_not_json(self, tmp_path):
        garbage = b"{not json"
        blob = wf.MAGIC + struct.pack("<I", len(garbage)) + garbage
        with pytest.raises(wf.MalformedHeaderError, match="JSON"):
            load_blob(blob, tmp_path)

    def test_header_not_object(self, tmp_path):
        body = json.dumps([1, 2]).encode()
        blob = wf.MAGIC + struct.pack("<I", len(body)) + body
        with pytest.raises(wf.MalformedHeaderError, match="object"):
            load_blob(blob, tmp_path)

    def test_missing_key(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def drop(h):
            del h["alpha"]
        with pytest.raises(wf.MalformedHeaderError, match="alpha"):
            load_blob(rewrite_header(blob, drop), tmp_path)

    def test_wrong_key_type(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def retype(h):
            h["dim"] = "two"
        with pytest.raises(wf.MalformedHeaderError, match="dim"):
            load_blob(rewrite_header(blob, retype), tmp_path)

    def test_unsupported_version(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def bump(h):
            h["format_version"] = 2
        with pytest.raises(wf.MalformedHeaderError, match="format_version"):
            load_blob(rewrite_header(blob, bump), tmp_path)

    def test_unknown_algorithm(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def rename(h):
            h["algorithm"] = "vera"
        with pytest.raises(wf.MalformedHeaderError, match="algorithm"):
            load_blob(rewrite_header(blob, rename), tmp_path)

    def test_invalid_metadata_values(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def corrupt(h):
            h["dim"] = 0
        with pytest.raises(wf.MalformedHeaderError, match="metadata"):
            load_blob(rewrite_header(blob, corrupt), tmp_path)

    @pytest.mark.parametrize("mutate", [
        lambda h: h["layers"][0].update(shape=[True, 4]),
        lambda h: h.update(dim=True),
        lambda h: h["layers"][0]["tensors"][0].update(shape=[True, True]),
        lambda h: h.update(format_version=True),
        lambda h: h.update(seed=False),
        lambda h: h["layers"][0]["tensors"][0].update(byte_offset=False),
    ], ids=["layer-shape", "dim", "tensor-shape", "format-version", "seed", "byte-offset"])
    def test_boolean_is_not_an_integer(self, tmp_path, mutate):
        # JSON true == 1 and false == 0: on a (1, 4) lora of dim 1 whose up
        # tensor starts the payload, each value would otherwise load
        model = ad.init_model([("a", ad.LayerShape("linear", 1, 4))], "lora", 1, alpha=1.0)
        blob = save_blob(model, tmp_path)
        with pytest.raises(wf.MalformedHeaderError, match=r"\(byte 8\)"):
            load_blob(rewrite_header(blob, mutate), tmp_path)

    def test_zero_layer_extent(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def zero(h):
            h["layers"][0]["shape"] = [0, 4]
        with pytest.raises(wf.MalformedHeaderError,
                           match=r"^layer 0 has invalid shape \[0, 4\] \(byte 8\)$"):
            load_blob(rewrite_header(blob, zero), tmp_path)

    @pytest.mark.parametrize("mutate,where", [
        (lambda h: h["layers"].__setitem__(0, ["blk0.attn"]), "layer 0"),
        (lambda h: h["layers"][1]["tensors"].__setitem__(0, "up"), "layer 1 tensor 0"),
    ], ids=["layer", "tensor"])
    def test_entry_not_an_object(self, tmp_path, mutate, where):
        blob = save_blob(build_model(), tmp_path)
        with pytest.raises(wf.MalformedHeaderError,
                           match=rf"^{where} must be an object \(byte 8\)$"):
            load_blob(rewrite_header(blob, mutate), tmp_path)

    def test_unsupported_dtype(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def retype(h):
            h["layers"][0]["tensors"][0]["dtype"] = "f8"
        with pytest.raises(wf.MalformedHeaderError, match="dtype"):
            load_blob(rewrite_header(blob, retype), tmp_path)

    def test_length_shape_mismatch(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def stretch(h):
            h["layers"][0]["tensors"][0]["shape"] = [100, 100]
        with pytest.raises(wf.MalformedHeaderError, match="length"):
            load_blob(rewrite_header(blob, stretch), tmp_path)

    def test_negative_offset(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def shift(h):
            h["layers"][0]["tensors"][0]["byte_offset"] = -4
        with pytest.raises(wf.MalformedHeaderError):
            load_blob(rewrite_header(blob, shift), tmp_path)

    def test_truncated_payload(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        with pytest.raises(wf.TruncatedPayloadError, match="past payload"):
            load_blob(blob[:-5], tmp_path)

    def test_overlapping_offsets(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def overlap(h):
            tensors = h["layers"][0]["tensors"]
            tensors[1]["byte_offset"] = tensors[0]["byte_offset"] + 4
        with pytest.raises(wf.OffsetOverlapError, match="overlaps"):
            load_blob(rewrite_header(blob, overlap), tmp_path)

    def test_payload_gap_between_tensors(self, tmp_path):
        # two 16-byte tensors at offsets 0 and 24: bytes 16 to 24 are declared by neither
        model = ad.AdapterModel(meta=ad.ModelMeta("lokr", 2, 2.0), entries={
            "a": ad.random_adapter("lokr", ad.LayerShape("linear", 4, 4), 2, 2.0)})
        blob = save_blob(model, tmp_path)
        (header_len,) = struct.unpack_from("<I", blob, 4)
        tensors = json.loads(blob[8:8 + header_len])["layers"][0]["tensors"]
        assert [(t["byte_offset"], t["byte_length"]) for t in tensors] == [(0, 16), (16, 16)]
        def shift(h):
            h["layers"][0]["tensors"][1]["byte_offset"] = 24
        mutated = rewrite_header(blob, shift)
        (header_len,) = struct.unpack_from("<I", mutated, 4)
        base = 8 + header_len
        mutated = mutated[:base + 16] + b"garbage!" + mutated[base + 16:]
        with pytest.raises(wf.WeightFileError, match="8 undeclared payload bytes before layer 0 tensor 1") as info:
            load_blob(mutated, tmp_path)
        assert info.value.position == base + 16

    def test_payload_gap_before_the_first_tensor(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def shift(h):
            for layer in h["layers"]:
                for t in layer["tensors"]:
                    t["byte_offset"] += 4
        mutated = rewrite_header(blob, shift)
        (header_len,) = struct.unpack_from("<I", mutated, 4)
        base = 8 + header_len
        mutated = mutated[:base] + b"\x00" * 4 + mutated[base:]
        with pytest.raises(wf.WeightFileError, match="4 undeclared payload bytes before layer 0 tensor 0") as info:
            load_blob(mutated, tmp_path)
        assert info.value.position == base

    def test_trailing_payload_bytes(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        with pytest.raises(wf.WeightFileError, match="trailing"):
            load_blob(blob + b"\x00\x00\x00\x00", tmp_path)

    def test_layout_is_checked_before_any_payload_is_read(self, tmp_path):
        path = tmp_path / "d.lwu"
        wf.save_dense({name: (LINEAR, np.ones(LINEAR.delta_shape)) for name in ("a", "b")}, path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 4)
        base = 8 + header_len
        # the first tensor holds a NaN, which reading it would refuse
        nan = struct.pack("<f", float("nan"))
        path.write_bytes(blob[:base] + nan + blob[base + 4:] + b"\x00\x00\x00\x00")
        with pytest.raises(wf.WeightFileError,
                           match=r"^4 trailing payload bytes \(byte 607\)$") as info:
            wf.load_dense(path)
        assert type(info.value) is wf.WeightFileError
        assert (base, info.value.position) == (415, 607)

    def test_non_finite_payload(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        (header_len,) = struct.unpack_from("<I", blob, 4)
        payload_base = 8 + header_len
        nan = struct.pack("<f", float("nan"))
        mutated = blob[:payload_base] + nan + blob[payload_base + 4:]
        with pytest.raises(wf.WeightFileError, match="non-finite") as info:
            load_blob(mutated, tmp_path)
        assert info.value.position >= payload_base

    def test_duplicate_layer_names(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def rename(h):
            h["layers"][1]["name"] = h["layers"][0]["name"]
        with pytest.raises(wf.MalformedHeaderError, match="duplicate layer"):
            load_blob(rewrite_header(blob, rename), tmp_path)

    def test_duplicate_roles(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def rerole(h):
            tensors = h["layers"][0]["tensors"]
            tensors[1]["role"] = tensors[0]["role"]
        with pytest.raises(wf.MalformedHeaderError, match="repeats role"):
            load_blob(rewrite_header(blob, rerole), tmp_path)

    def test_wrong_role_set(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def rerole(h):
            h["layers"][0]["tensors"][0]["role"] = "w2"
        with pytest.raises(wf.MalformedHeaderError, match="adapter"):
            load_blob(rewrite_header(blob, rerole), tmp_path)

    @pytest.mark.parametrize("algorithm,dim,tucker", [
        ("lora", 2, False), ("lora", 2, True), ("loha", 2, False), ("loha", 2, True),
        ("lokr", 2, False), ("lokr", 1, False), ("lokr", 2, True),
    ])
    @pytest.mark.parametrize("layer", [LINEAR, CONV], ids=["linear", "conv"])
    def test_each_missing_role(self, tmp_path, algorithm, dim, tucker, layer):
        # the dropped tensor's bytes go with it and the later offsets shift,
        # so the payload holds no undeclared gap
        model = ad.init_model([("first", layer), ("last", LINEAR)], algorithm, dim,
                              alpha=2.0, tucker=tucker)
        blob = save_blob(model, tmp_path)
        (header_len,) = struct.unpack_from("<I", blob, 4)
        count = len(json.loads(blob[8:8 + header_len])["layers"][0]["tensors"])
        for drop in [*range(count), None]:
            def remove(h):
                tensors = h["layers"][0]["tensors"]
                h["layers"][0]["tensors"] = [] if drop is None else tensors[:drop] + tensors[drop + 1:]
            with pytest.raises(wf.MalformedHeaderError, match="inconsistent"):
                load_blob(repack(blob, remove), tmp_path)

    def test_lokr_factor_disagrees_with_c(self, tmp_path):
        # c (8, 8) is the factor -1 split of 64 x 64; factor 4 splits it as (4, 16)
        layer = ad.LayerShape("linear", 64, 64)
        model = ad.init_model([("blk", layer)], "lokr", 8, alpha=8.0, factor=-1)
        assert model.entries["blk"].c.shape == (8, 8)
        blob = save_blob(model, tmp_path)
        def refactor(h):
            h["factor"] = 4
        with pytest.raises(wf.MalformedHeaderError, match="factor 4"):
            load_blob(rewrite_header(blob, refactor), tmp_path)

    def test_inconsistent_tensor_shapes(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def swap(h):
            # transposing the up tensor's shape keeps byte length valid but
            # breaks the adapter's shape invariants
            t = h["layers"][0]["tensors"][0]
            t["shape"] = list(reversed(t["shape"]))
        with pytest.raises(wf.MalformedHeaderError, match="inconsistent"):
            load_blob(rewrite_header(blob, swap), tmp_path)

    def test_bad_layer_kind(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        def rekind(h):
            h["layers"][0]["kind"] = "norm"
        with pytest.raises(wf.MalformedHeaderError):
            load_blob(rewrite_header(blob, rekind), tmp_path)

    def test_errors_are_value_errors(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        with pytest.raises(ValueError):
            load_blob(b"XXXX" + blob[4:], tmp_path)
        assert issubclass(wf.BadMagicError, wf.WeightFileError)
        assert issubclass(wf.WeightFileError, ValueError)

    def test_position_in_message(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        with pytest.raises(wf.BadMagicError, match=r"\(byte 0\)"):
            load_blob(b"XXXX" + blob[4:], tmp_path)


class TestFuzz:
    def test_mutations_never_escape_weightfile_error(self, tmp_path):
        blob = save_blob(build_model("lokr", dim=2, factor=2, seed=1), tmp_path)
        rng = np.random.default_rng(0)
        survived = 0
        for _ in range(300):
            kind = rng.integers(0, 3)
            mutated = bytearray(blob)
            if kind == 0:
                pos = int(rng.integers(0, len(blob)))
                mutated[pos] = int(rng.integers(0, 256))
            elif kind == 1:
                mutated = mutated[:int(rng.integers(0, len(blob)))]
            else:
                extra = rng.integers(0, 256, size=int(rng.integers(1, 16)))
                mutated.extend(extra.tolist())
            try:
                load_blob(bytes(mutated), tmp_path)
                survived += 1
            except wf.WeightFileError:
                pass
        # mutations in unread payload slack cannot exist (no slack allowed),
        # but a byte flip may land on a value byte and still parse
        assert survived < 300


class TestWriterRefusesNonFinite:
    """save_weights refuses what load_weights would refuse, before opening the file."""

    def test_beyond_f32_range(self, tmp_path):
        model = build_model(seed=4)
        layer = model.entries["blk0.attn"]
        big = layer.down.copy()
        big[0, 0] = 1e39  # finite in float64, inf in float32
        model.entries["blk0.attn"] = dataclasses.replace(layer, down=big)
        path = tmp_path / "m.lwu"
        path.write_bytes(b"kept")
        with pytest.raises(wf.WeightFileError, match="'blk0.attn' tensor 'down' holds values"):
            wf.save_weights(model, path)
        assert path.read_bytes() == b"kept"

    @pytest.mark.parametrize("writer", ["save_dense", "save_weights"])
    def test_float32_range_boundary(self, tmp_path, writer):
        # values round to float32 max below the midpoint 2^128 - 2^104/2, to inf at it
        limit = 2.0 ** 128 - 2.0 ** 103
        f32_max = float(np.finfo(np.float32).max)

        def save(value):
            if writer == "save_dense":
                wf.save_dense({"a": (LINEAR, value)}, path)
                return wf.load_dense(path)[1]["a"][1]
            layer = build_model(seed=4).entries["blk0.attn"]
            model = ad.AdapterModel(meta=ad.ModelMeta(algorithm="lora", dim=2, alpha=2.0),
                                    entries={"a": dataclasses.replace(layer, down=value)})
            wf.save_weights(model, path)
            return wf.load_weights(path).entries["a"].down

        path = tmp_path / "x.lwu"
        shape = LINEAR.delta_shape if writer == "save_dense" else (2, 6)
        for sign in (1.0, -1.0):
            value = np.zeros(shape)
            value[1, 2] = sign * np.nextafter(limit, 0)
            assert save(value)[1, 2] == sign * f32_max
            kept = path.read_bytes()
            value[1, 2] = sign * limit
            with pytest.raises(wf.WeightFileError, match="'a' tensor '(delta|down)' holds values"):
                save(value)
            assert path.read_bytes() == kept

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_inf_and_nan(self, tmp_path, bad):
        # adapters refuse non-finite factors themselves, so a stand-in entry
        # hands the writer such a tensor directly
        down = np.zeros((2, 6))
        down[1, 3] = bad
        entry = SimpleNamespace(layer=LINEAR, scale=ad.MergeScale(2.0, 2),
                                tensors=lambda: {"up": np.zeros((4, 2)), "down": down})
        model = ad.AdapterModel(meta=ad.ModelMeta(algorithm="lora", dim=2, alpha=2.0),
                                entries={"blk0.attn": entry})
        path = tmp_path / "m.lwu"
        path.write_bytes(b"kept")
        with pytest.raises(wf.WeightFileError, match="'blk0.attn' tensor 'down' holds values"):
            wf.save_weights(model, path)
        assert path.read_bytes() == b"kept"


class TestWritesReplaceTheTargetWhole:
    """A write goes to a temporary file beside the target and replaces it only when complete."""

    @staticmethod
    def merge_files(tmp_path, base_b):
        # base layer "a" only in the base, then "b" with an adapter whose delta
        # is 2 everywhere. "a" is larger than the reader's buffer, so the
        # bytes of "b" are read from the file when "b" is reached.
        weights, base, out = tmp_path / "w.lwu", tmp_path / "base.lwu", tmp_path / "out.lwu"
        adapter = ad.LoraAdapter(LINEAR, ad.MergeScale(2.0, 2), up=np.ones((4, 2)), down=np.ones((2, 6)))
        wf.save_weights(ad.AdapterModel(ad.ModelMeta("lora", 2, 2.0), {"b": adapter}), weights)
        big = ad.LayerShape("linear", 64, 64)
        wf.save_dense({"a": (big, np.ones(big.delta_shape)),
                       "b": (LINEAR, np.full(LINEAR.delta_shape, base_b))}, base, algorithm="dense")
        out.write_bytes(b"kept")
        return weights, base, out

    def test_merged_value_past_float32_in_the_last_layer(self, tmp_path, capsys):
        weights, base, out = self.merge_files(tmp_path, 3e38)
        argv = ["adapter", "merge", "--weights", str(weights), "--base", str(base), "--out", str(out)]
        assert cli_dispatch(argv + ["--weight", "1e38"]) == 1
        assert ("error: layer 'b' tensor 'weight' holds values that are not finite as float32 (byte 0)"
                in capsys.readouterr().err)
        assert out.read_bytes() == b"kept"
        assert sorted(os.listdir(tmp_path)) == ["base.lwu", "out.lwu", "w.lwu"]
        # the same merge at a weight that stays in range replaces the target
        assert cli_dispatch(argv + ["--weight", "1e37"]) == 0
        np.testing.assert_array_equal(wf.load_dense(out)[1]["b"][1], quantized(np.full((4, 6), 3.2e38)))

    def test_base_payload_truncated_in_a_late_layer(self, tmp_path, monkeypatch, capsys):
        weights, base, out = self.merge_files(tmp_path, 1.0)
        size = base.stat().st_size
        read_layout = wf._read_layout

        def cut_base_after_its_layout(fh):
            # the layout of the whole file holds; then its last layer loses 8 bytes
            layout = read_layout(fh)
            if fh.name == str(base):
                os.truncate(base, size - 8)
            return layout
        monkeypatch.setattr(wf, "_read_layout", cut_base_after_its_layout)
        code = cli_dispatch(["adapter", "merge", "--weights", str(weights), "--base", str(base),
                             "--out", str(out)])
        assert code == 1
        assert (f"error: layer 1 tensor 0 ends 8 bytes short: the file shrank while it was read "
                f"(byte {size - 8})") in capsys.readouterr().err
        assert out.read_bytes() == b"kept"
        assert sorted(os.listdir(tmp_path)) == ["base.lwu", "out.lwu", "w.lwu"]

    def test_complex_tensor_in_save_dense(self, tmp_path):
        path = tmp_path / "d.lwu"
        path.write_bytes(b"kept")
        made = []

        def complex_delta():
            made.append("b")
            return [np.full(LINEAR.delta_shape, 1j)]
        entries = {"a": (CONV, np.ones(CONV.delta_shape)), "b": (LINEAR, complex_delta)}
        with pytest.raises(ComplexInputError, match="layer 'b' tensor 'delta' is complex"):
            wf.save_dense(entries, path)
        assert made == ["b"]
        assert path.read_bytes() == b"kept"
        assert os.listdir(tmp_path) == ["d.lwu"]

    ENTRIES = {"a": (CONV, np.ones(CONV.delta_shape)), "b": (LINEAR, np.full(LINEAR.delta_shape, 2.0))}

    @pytest.mark.parametrize("code", [errno.EOPNOTSUPP, errno.EINVAL, None],
                             ids=["EOPNOTSUPP", "EINVAL", "missing"])
    def test_write_goes_on_without_preallocation(self, tmp_path, monkeypatch, code):
        plain, path = tmp_path / "plain.lwu", tmp_path / "d.lwu"
        wf.save_dense(self.ENTRIES, plain)
        path.write_bytes(b"kept")
        asked = []

        def refuse(fd, offset, length):
            asked.append((offset, length))
            raise OSError(code, os.strerror(code))
        if code is None:
            monkeypatch.delattr(os, "posix_fallocate", raising=False)
        else:
            monkeypatch.setattr(os, "posix_fallocate", refuse)
        wf.save_dense(self.ENTRIES, path)
        # the whole file, header and payload, is asked for before it is written
        assert asked == ([] if code is None else [(0, plain.stat().st_size)])
        assert path.read_bytes() == plain.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["d.lwu", "plain.lwu"]

    def test_full_disk_is_refused_before_a_payload_byte(self, tmp_path, monkeypatch, capsys):
        weights, base, out = self.merge_files(tmp_path, 1.0)

        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(os, "posix_fallocate", full)
        made = []
        with pytest.raises(OSError) as refused:
            wf.save_dense({"a": (LINEAR, lambda: made.append(1))}, out)
        assert refused.value.errno == errno.ENOSPC
        assert made == []
        assert out.read_bytes() == b"kept"
        assert sorted(os.listdir(tmp_path)) == ["base.lwu", "out.lwu", "w.lwu"]
        code = cli_dispatch(["adapter", "merge", "--weights", str(weights), "--base", str(base),
                             "--out", str(out)])
        assert code == 2
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_bytes() == b"kept"
        assert sorted(os.listdir(tmp_path)) == ["base.lwu", "out.lwu", "w.lwu"]

    def test_a_taken_temporary_name_is_passed_over(self, tmp_path, monkeypatch):
        path, taken = tmp_path / "d.lwu", tmp_path / ".d.lwu.00000000.tmp"
        taken.write_bytes(b"other")
        draws = iter([b"\0" * 4, b"\1" * 4])
        monkeypatch.setattr(os, "urandom", lambda n: next(draws))
        wf.save_dense(self.ENTRIES, path)
        assert next(draws, None) is None
        monkeypatch.undo()
        assert taken.read_bytes() == b"other"
        assert sorted(os.listdir(tmp_path)) == [taken.name, path.name]
        np.testing.assert_array_equal(wf.load_dense(path)[1]["b"][1], self.ENTRIES["b"][1])

    def test_new_file_has_the_mode_open_gives(self, tmp_path):
        (tmp_path / "plain").open("wb").close()
        wf.save_dense({"a": (LINEAR, np.ones(LINEAR.delta_shape))}, tmp_path / "d.lwu")
        assert (tmp_path / "d.lwu").stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_existing_target_keeps_its_mode(self, tmp_path):
        path = tmp_path / "d.lwu"
        path.write_bytes(b"kept")
        path.chmod(0o640)
        wf.save_dense({"a": (LINEAR, np.ones(LINEAR.delta_shape))}, path)
        assert path.stat().st_mode & 0o7777 == 0o640
        assert wf.load_dense(path)[1]["a"][1].shape == LINEAR.delta_shape

    def test_symlinked_target_is_written_through(self, tmp_path):
        real, link = tmp_path / "real.lwu", tmp_path / "link.lwu"
        real.write_bytes(b"kept")
        link.symlink_to(real)
        wf.save_weights(build_model(), link)
        assert link.is_symlink()
        assert wf.load_weights(real).meta == build_model().meta

    def test_target_that_is_not_a_regular_file_is_refused_first(self, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        made = []
        with pytest.raises(IsADirectoryError, match="target exists and is not a regular file"):
            wf.save_dense({"a": (LINEAR, lambda: made.append(1))}, target)
        assert made == []
        assert os.listdir(tmp_path) == ["dir"]
