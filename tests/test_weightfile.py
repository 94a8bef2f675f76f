import dataclasses
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from deltafactor import adapters as ad
from deltafactor import weightfile as wf
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
        header = json.dumps(dict(dataclasses.asdict(model.meta), layers=layers),
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

    def test_save_weights_rejects_dense_meta(self, tmp_path):
        model = build_model()
        bad = ad.AdapterModel(
            meta=ad.ModelMeta(algorithm="delta", dim=2, alpha=2.0),
            entries=model.entries)
        with pytest.raises(ValueError, match="save_dense"):
            wf.save_weights(bad, tmp_path / "x.lwu")


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

    def test_trailing_payload_bytes(self, tmp_path):
        blob = save_blob(build_model(), tmp_path)
        with pytest.raises(wf.WeightFileError, match="trailing"):
            load_blob(blob + b"\x00\x00\x00\x00", tmp_path)

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
        # the layer goes first, so the payload of the one after it keeps the
        # dropped tensor's bytes from reading as trailing
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
                load_blob(rewrite_header(blob, remove), tmp_path)

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

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_inf_and_nan(self, tmp_path, bad):
        # adapters refuse non-finite factors themselves, so a stand-in entry
        # hands the writer such a tensor directly
        down = np.zeros((2, 6))
        down[1, 3] = bad
        entry = SimpleNamespace(layer=LINEAR,
                                tensors=lambda: {"up": np.zeros((4, 2)), "down": down})
        model = ad.AdapterModel(meta=ad.ModelMeta(algorithm="lora", dim=2, alpha=2.0),
                                entries={"blk0.attn": entry})
        path = tmp_path / "m.lwu"
        path.write_bytes(b"kept")
        with pytest.raises(wf.WeightFileError, match="'blk0.attn' tensor 'down' holds values"):
            wf.save_weights(model, path)
        assert path.read_bytes() == b"kept"
