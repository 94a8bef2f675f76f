import json

import numpy as np
import pytest

from deltafactor import features as ft
from deltafactor.cli import cli_dispatch
from deltafactor.metrics import CategoryScore, ScoreRecord
from deltafactor.tensor_core import ComplexInputError


def vector_record(rec_id="r0", **overrides):
    fields = dict(id=rec_id, class_name="cat", vector=np.array([1.0, 2.0, 3.0]))
    fields.update(overrides)
    return ft.FeatureRecord(**fields)


class TestFeatureRecord:
    def test_requires_id_and_class(self):
        with pytest.raises(ValueError, match="id"):
            ft.FeatureRecord(id="", class_name="c", vector=np.ones(2))
        with pytest.raises(ValueError, match="class_name"):
            ft.FeatureRecord(id="r", class_name="", vector=np.ones(2))

    def test_exactly_one_payload(self):
        with pytest.raises(ValueError, match="exactly one"):
            ft.FeatureRecord(id="r", class_name="c")
        with pytest.raises(ValueError, match="exactly one"):
            ft.FeatureRecord(id="r", class_name="c", vector=np.ones(2),
                             maps=(("l", np.ones((1, 1, 1))),))

    def test_vector_must_be_finite_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            ft.FeatureRecord(id="r", class_name="c", vector=np.ones((2, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            ft.FeatureRecord(id="r", class_name="c",
                             vector=np.array([1.0, np.nan]))

    def test_maps_must_be_3d_unique(self):
        with pytest.raises(ValueError, match="C, H, W"):
            ft.FeatureRecord(id="r", class_name="c",
                             maps=(("l", np.ones((2, 2))),))
        with pytest.raises(ValueError, match="duplicate layer"):
            ft.FeatureRecord(id="r", class_name="c",
                             maps=(("l", np.ones((1, 1, 1))),
                                   ("l", np.ones((1, 1, 1)))))

    def test_complex_vector_is_refused(self):
        with pytest.raises(ComplexInputError, match=r"^record 'a': vector is complex"):
            ft.FeatureRecord(id="a", class_name="b", vector=np.array([1 + 2j, 3]))

    def test_complex_map_is_refused(self):
        maps = (("l1", np.ones((1, 1, 1))), ("l2", np.full((1, 2, 2), 1j)))
        with pytest.raises(ComplexInputError, match=r"^record 'a': map 'l2' is complex"):
            ft.FeatureRecord(id="a", class_name="b", maps=maps)

    def test_optional_labels_reject_empty_strings(self):
        with pytest.raises(ValueError, match="subclass"):
            vector_record(subclass="")

    def test_map_layer_names_must_be_non_empty(self):
        with pytest.raises(ValueError, match="empty feature map layer name"):
            ft.FeatureRecord(id="r", class_name="c", maps=(("", np.ones((1, 1, 1))),))

    def test_maps_may_not_be_empty(self):
        with pytest.raises(ValueError, match="maps may not be empty"):
            ft.FeatureRecord(id="r", class_name="c", maps=())


class TestFeatureRoundtrip:
    def test_vector_records(self, tmp_path):
        records = [
            vector_record("a", checkpoint="ck1", category="anime",
                          subclass="sub", prompt_type="alter"),
            vector_record("b", vector=np.array([4.0, 5.0, 6.0])),
        ]
        path = tmp_path / "f.jsonl"
        ft.write_features(records, path)
        loaded = ft.load_features(path)
        assert [r.id for r in loaded] == ["a", "b"]
        assert loaded[0].checkpoint == "ck1"
        assert loaded[0].subclass == "sub"
        assert loaded[1].checkpoint is None
        np.testing.assert_array_equal(loaded[1].vector, [4.0, 5.0, 6.0])

    def test_map_records(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = ft.FeatureRecord(
            id="m", class_name="style",
            maps=(("conv1", rng.standard_normal((2, 3, 4))),
                  ("conv2", rng.standard_normal((5, 1, 2)))))
        path = tmp_path / "m.jsonl"
        ft.write_features([rec], path)
        loaded = ft.load_features(path)
        assert len(loaded) == 1
        got = dict(loaded[0].maps)
        np.testing.assert_array_equal(got["conv1"], dict(rec.maps)["conv1"])
        np.testing.assert_array_equal(got["conv2"], dict(rec.maps)["conv2"])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "f.jsonl"
        body = json.dumps({"id": "a", "class": "c", "vector": [1.0]})
        path.write_text("\n" + body + "\n\n", encoding="utf-8")
        assert len(ft.load_features(path)) == 1


class TestLoadFeatureErrors:
    def write_lines(self, tmp_path, *lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(json.dumps({"id": "a", "class": "c", "vector": [1.0]}).encode()
                         + b'\n{"id": "b\xff", "class": "c", "vector": [1.0]}\n')
        with pytest.raises(ft.FeatureFileError, match="bad.jsonl: line 2: invalid UTF-8"):
            ft.load_features(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            json.dumps({"id": "a", "class": "c", "vector": [1.0]}),
            "{oops")
        with pytest.raises(ft.FeatureFileError, match="line 2: invalid JSON"):
            ft.load_features(path)

    def test_unknown_keys(self, tmp_path):
        path = self.write_lines(
            tmp_path, json.dumps({"id": "a", "class": "c", "vector": [1.0],
                                  "embedding": []}))
        with pytest.raises(ft.FeatureFileError, match="unknown keys.*embedding"):
            ft.load_features(path)

    def test_non_numeric_vector(self, tmp_path):
        path = self.write_lines(
            tmp_path, json.dumps({"id": "a", "class": "c",
                                  "vector": [1.0, "x"]}))
        with pytest.raises(ft.FeatureFileError, match="line 1"):
            ft.load_features(path)

    def test_mode_mixing_rejected(self, tmp_path):
        vec = json.dumps({"id": "a", "class": "c", "vector": [1.0]})
        maps = json.dumps({"id": "b", "class": "c",
                           "maps": [{"layer": "l", "c": 1, "h": 1, "w": 1,
                                     "data": [0.5]}]})
        path = self.write_lines(tmp_path, vec, maps)
        with pytest.raises(ft.FeatureFileError, match="maps record in a vector"):
            ft.load_features(path)

    def test_dim_uniformity(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            json.dumps({"id": "a", "class": "c", "vector": [1.0, 2.0]}),
            json.dumps({"id": "b", "class": "c", "vector": [1.0]}))
        with pytest.raises(ft.FeatureFileError, match="expected 2"):
            ft.load_features(path)

    def test_map_data_length(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            json.dumps({"id": "a", "class": "c",
                        "maps": [{"layer": "l", "c": 2, "h": 2, "w": 2,
                                  "data": [1.0, 2.0]}]}))
        with pytest.raises(ft.FeatureFileError, match="expected 8"):
            ft.load_features(path)

    def test_map_keys_exact(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            json.dumps({"id": "a", "class": "c",
                        "maps": [{"layer": "l", "c": 1, "h": 1, "w": 1,
                                  "data": [1.0], "stride": 2}]}))
        with pytest.raises(ft.FeatureFileError, match="keys"):
            ft.load_features(path)

    def test_empty_file(self, tmp_path):
        path = self.write_lines(tmp_path, "")
        with pytest.raises(ft.FeatureFileError, match="no records"):
            ft.load_features(path)

    def test_missing_id(self, tmp_path):
        path = self.write_lines(
            tmp_path, json.dumps({"class": "c", "vector": [1.0]}))
        with pytest.raises(ft.FeatureFileError, match="line 1"):
            ft.load_features(path)

    def test_line_must_hold_an_object(self, tmp_path):
        path = self.write_lines(tmp_path, "[1.0, 2.0]")
        with pytest.raises(ft.FeatureFileError, match="line 1: each line must hold a JSON object"):
            ft.load_features(path)

    @pytest.mark.parametrize("vector", [[], 1.0, "1.0"])
    def test_vector_must_be_a_non_empty_list(self, tmp_path, vector):
        path = self.write_lines(tmp_path, json.dumps({"id": "a", "class": "c", "vector": vector}))
        with pytest.raises(ft.FeatureFileError,
                           match="line 1: vector must be a non-empty list of numbers"):
            ft.load_features(path)

    @pytest.mark.parametrize("maps", [[], {}, None])
    def test_maps_must_be_a_non_empty_list(self, tmp_path, maps):
        path = self.write_lines(tmp_path, json.dumps({"id": "a", "class": "c", "maps": maps}))
        with pytest.raises(ft.FeatureFileError, match="line 1: maps must be a non-empty list"):
            ft.load_features(path)

    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, -1, 1), (1, 1, True), (1.0, 1, 1)])
    def test_map_dimensions_must_be_positive_integers(self, tmp_path, dims):
        c, h, w = dims
        path = self.write_lines(tmp_path, json.dumps(
            {"id": "a", "class": "c",
             "maps": [{"layer": "l", "c": c, "h": h, "w": w, "data": [1.0]}]}))
        with pytest.raises(ft.FeatureFileError, match="line 1: map 0 has non-positive dimensions"):
            ft.load_features(path)

    def test_vector_and_maps_together(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            json.dumps({"id": "a", "class": "c", "vector": [1.0]}),
            json.dumps({"id": "b", "class": "c", "vector": [1.0],
                        "maps": [{"layer": "l", "c": 1, "h": 1, "w": 1, "data": [1.0]}]}))
        with pytest.raises(ft.FeatureFileError, match="line 2: "):
            ft.load_features(path)

    def test_neither_vector_nor_maps(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            json.dumps({"id": "a", "class": "c", "vector": [1.0]}),
            json.dumps({"id": "b", "class": "c"}))
        with pytest.raises(ft.FeatureFileError, match="line 2: "):
            ft.load_features(path)


def vector_line(entry: str) -> str:
    return '{"id": "a", "class": "c", "vector": [1.0, %s]}' % entry


def maps_line(entry: str) -> str:
    return ('{"id": "a", "class": "c", "maps": [{"layer": "l", "c": 1, "h": 1, '
            '"w": 2, "data": [1.0, %s]}]}' % entry)


class TestLoaderValueRules:
    """Each value must be exactly a JSON int or float, finite, within float range."""

    def load_second_line(self, tmp_path, entry, payload="vector"):
        """Load a file whose line 2 carries `entry` after a well-formed line 1."""
        line = vector_line if payload == "vector" else maps_line
        path = tmp_path / "bad.jsonl"
        path.write_text(line("2.0") + "\n" + line(entry) + "\n", encoding="utf-8")
        return ft.load_features(path)

    @pytest.mark.parametrize("entry", ["true", "false", "null", '"x"', '"1.5"', "[1.0]",
                                       "{}", "NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("payload", ["vector", "maps"])
    def test_refused_entry_names_line(self, tmp_path, payload, entry):
        with pytest.raises(ft.FeatureFileError, match=r"bad\.jsonl: line 2: "):
            self.load_second_line(tmp_path, entry, payload)

    @pytest.mark.parametrize("payload", ["vector", "maps"])
    def test_integer_beyond_float_range(self, tmp_path, payload):
        with pytest.raises(ft.FeatureFileError,
                           match="line 2: .*entry 1 is an integer of 401 digits"):
            self.load_second_line(tmp_path, "1" + "0" * 400, payload)

    def test_integer_past_the_digit_limit(self, tmp_path):
        with pytest.raises(ft.FeatureFileError, match="bad\\.jsonl: line 2: invalid JSON"):
            self.load_second_line(tmp_path, "1" * 5000)

    def test_nesting_past_the_recursion_limit(self, tmp_path):
        with pytest.raises(ft.FeatureFileError, match="line 2: invalid JSON"):
            self.load_second_line(tmp_path, "[" * 100_000)

    def test_refusal_names_the_entry(self, tmp_path):
        # bool is an int subclass: an isinstance-based check would let it through
        with pytest.raises(ft.FeatureFileError, match="entry 1 is not a number: True"):
            self.load_second_line(tmp_path, "true")

    def test_direct_record_refuses_non_finite(self):
        with pytest.raises(ValueError, match="non-finite value at flat index 2: inf"):
            ft.FeatureRecord(id="r", class_name="c", vector=np.array([1.0, 2.0, np.inf]))
        with pytest.raises(ValueError, match="map 'l' holds a non-finite value"):
            ft.FeatureRecord(id="r", class_name="c",
                             maps=(("l", np.full((1, 2, 2), np.nan)),))

    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                   0.1, 1.0 / 3.0, 2.0**53 + 2.0]
        vectors = [np.array(special), rng.standard_normal(8) * 10.0 ** rng.integers(-300, 300, 8)]
        maps = (("conv", rng.standard_normal((2, 3, 4)) * 1e-200),)
        for recs, name in (([ft.FeatureRecord(id=f"v{i}", class_name="c", vector=v)
                             for i, v in enumerate(vectors)], "v.jsonl"),
                           ([ft.FeatureRecord(id="m", class_name="c", maps=maps)], "m.jsonl")):
            ft.write_features(recs, tmp_path / name)
            loaded = ft.load_features(tmp_path / name)
            for got, want in zip(loaded, recs):
                pairs = ([(got.vector, want.vector)] if want.vector is not None
                         else [(g, w) for (_, g), (_, w) in zip(got.maps, want.maps)])
                for g, w in pairs:
                    assert g.dtype == np.float64 and g.shape == w.shape
                    assert g.tobytes() == w.tobytes()

    def test_integer_literals_load_as_float64(self, tmp_path):
        # 2**1024 - 2**971 is the largest finite double
        ints = [0, -7, 2**53, 2**53 + 1, -(2**63), 10**300, 2**1024 - 2**971]
        path = tmp_path / "ints.jsonl"
        path.write_text(json.dumps({"id": "a", "class": "c", "vector": ints}) + "\n",
                        encoding="utf-8")
        got = ft.load_features(path)[0].vector
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([float(v) for v in ints]).tobytes()


class TestFeatureAccessors:
    def test_matrix_stacks_in_order(self):
        records = [vector_record("a"),
                   vector_record("b", vector=np.array([7.0, 8.0, 9.0]))]
        np.testing.assert_array_equal(ft.feature_matrix(records),
                                      [[1.0, 2.0, 3.0], [7.0, 8.0, 9.0]])

    def test_matrix_rejects_map_records(self):
        rec = ft.FeatureRecord(id="m", class_name="c",
                               maps=(("l", np.ones((1, 1, 1))),))
        with pytest.raises(ValueError, match="vector records"):
            ft.feature_matrix([rec])

    def test_matrix_rejects_empty(self):
        with pytest.raises(ValueError, match="no records"):
            ft.feature_matrix([])

    def test_labels(self):
        records = [vector_record("a", prompt_type="alter"),
                   vector_record("b", prompt_type="plain")]
        assert ft.feature_labels(records, "prompt_type") == ["alter", "plain"]
        assert ft.feature_labels(records, "class") == ["cat", "cat"]
        assert ft.feature_labels(records, "id") == ["a", "b"]

    def test_labels_missing_field_value(self):
        with pytest.raises(ValueError, match="no subclass"):
            ft.feature_labels([vector_record("a")], "subclass")

    def test_labels_unknown_field(self):
        with pytest.raises(ValueError, match="unknown field"):
            ft.feature_labels([vector_record("a")], "style")


def score(checkpoint="ck", subclass=None, value=0.5, higher=True):
    return ScoreRecord(checkpoint=checkpoint, category="anime",
                       class_name="cls", subclass=subclass,
                       prompt_type="plain", metric="vendi", value=value,
                       higher_is_better=higher)


class TestScoreTables:
    def test_roundtrip(self, tmp_path):
        records = [score("a", value=1.25), score("b", subclass="s", value=-0.5,
                                                 higher=False)]
        path = tmp_path / "s.csv"
        ft.write_scores(records, path)
        loaded = ft.load_scores(path)
        assert loaded == records

    def test_header_written(self, tmp_path):
        path = tmp_path / "s.csv"
        ft.write_scores([score()], path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == ",".join(ft.SCORE_COLUMNS)

    def test_value_precision_survives(self, tmp_path):
        value = 0.1 + 0.2
        path = tmp_path / "s.csv"
        ft.write_scores([score(value=value)], path)
        assert ft.load_scores(path)[0].value == value

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ft.FeatureFileError, match="header"):
            ft.load_scores(path)

    def test_column_count(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(",".join(ft.SCORE_COLUMNS) + "\nck,anime,cls\n",
                        encoding="utf-8")
        with pytest.raises(ft.FeatureFileError, match="line 2: expected 8"):
            ft.load_scores(path)

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(",".join(ft.SCORE_COLUMNS).encode()
                         + b"\nck,anime,cls\xff,,plain,vendi,0.5,true\n")
        with pytest.raises(ft.FeatureFileError, match="s.csv: line 2: invalid UTF-8"):
            ft.load_scores(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            ",".join(ft.SCORE_COLUMNS)
            + "\nck,anime,cls,,plain,vendi,abc,true\n", encoding="utf-8")
        with pytest.raises(ft.FeatureFileError, match="bad value"):
            ft.load_scores(path)

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            ",".join(ft.SCORE_COLUMNS)
            + "\nck,anime,cls,,plain,vendi,inf,true\n", encoding="utf-8")
        with pytest.raises(ft.FeatureFileError,
                           match="s.csv: line 2: value must be a finite number, got inf"):
            ft.load_scores(path)

    def test_bad_flag(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            ",".join(ft.SCORE_COLUMNS)
            + "\nck,anime,cls,,plain,vendi,0.5,yes\n", encoding="utf-8")
        with pytest.raises(ft.FeatureFileError, match="higher_is_better"):
            ft.load_scores(path)

    def test_flag_case_insensitive(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            ",".join(ft.SCORE_COLUMNS)
            + "\nck,anime,cls,,plain,vendi,0.5,TRUE\n", encoding="utf-8")
        assert ft.load_scores(path)[0].higher_is_better is True

    def test_empty_required_cell(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            ",".join(ft.SCORE_COLUMNS)
            + "\n,anime,cls,,plain,vendi,0.5,true\n", encoding="utf-8")
        with pytest.raises(ft.FeatureFileError,
                           match="s.csv: line 2: checkpoint must be a non-empty string, got ''"):
            ft.load_scores(path)

    @pytest.mark.parametrize("column", ["category", "class", "prompt_type", "metric"])
    def test_empty_label_cell_names_its_field_file_and_line(self, tmp_path, column):
        cells = dict(zip(ft.SCORE_COLUMNS, ["ck", "anime", "cls", "", "plain", "vendi", "0.5", "true"]))
        good = ",".join(cells.values())
        cells[column] = ""
        path = tmp_path / "s.csv"
        path.write_text("\n".join([",".join(ft.SCORE_COLUMNS), good, ",".join(cells.values())]),
                        encoding="utf-8")
        field = ft.LABEL_FIELDS.get(column, column)
        with pytest.raises(ft.FeatureFileError,
                           match=f"s.csv: line 3: {field} must be a non-empty string, got ''"):
            ft.load_scores(path)

    @pytest.mark.parametrize("rows, line", [
        (['"ck\n1",a,c,,p,m,0.5,true', "ck,a,c,,p,m,inf,true"], 4),
        (['"ck\n1",a,c,,p,m,inf,true'], 2),
    ], ids=["after-a-two-line-row", "on-a-two-line-row"])
    def test_error_names_the_line_its_row_starts_on(self, tmp_path, rows, line):
        # a quoted newline spreads a row over two lines, so rows and lines part
        path = tmp_path / "s.csv"
        path.write_text("\n".join([",".join(ft.SCORE_COLUMNS), *rows]) + "\n", encoding="utf-8")
        with pytest.raises(ft.FeatureFileError,
                           match=f"s.csv: line {line}: value must be a finite number, got inf"):
            ft.load_scores(path)

    def test_empty_subclass_is_none(self, tmp_path):
        path = tmp_path / "s.csv"
        ft.write_scores([score(subclass=None)], path)
        assert ft.load_scores(path)[0].subclass is None

    def test_no_rows(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(",".join(ft.SCORE_COLUMNS) + "\n", encoding="utf-8")
        with pytest.raises(ft.FeatureFileError, match="no score rows"):
            ft.load_scores(path)

    def test_category_scores_written(self, tmp_path):
        rows = [CategoryScore("ck", "anime", "plain", "vendi", 0.75)]
        path = tmp_path / "c.csv"
        ft.write_category_scores(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(ft.CATEGORY_COLUMNS)
        assert lines[1] == "ck,anime,plain,vendi,0.75"


# labels that csv must quote (a comma, a quote, a newline) in every label
# column; a signed zero, a tiny exponent and a 17-digit repr; both flags
CAT, CLS, PROMPT = 'an,"ime"', 'cls "a",\nb', "plain\ntext"
STYLE = 'loss "style"'
GOLDEN_ROWS = [
    ScoreRecord("ck,1", CAT, CLS, None, PROMPT, "vendi", -0.0, True),
    ScoreRecord('ck"2', CAT, CLS, None, PROMPT, "vendi", 1e-300, True),
    ScoreRecord("ck\n3", CAT, CLS, None, PROMPT, "vendi", 0.1 + 0.2, True),
    ScoreRecord("ck,1", CAT, CLS, "s,1", PROMPT, STYLE, 0.1 + 0.2, False),
    ScoreRecord('ck"2', CAT, CLS, "s,1", PROMPT, STYLE, -0.0, False),
    ScoreRecord("ck,1", CAT, CLS, 's"2', PROMPT, STYLE, 1e-300, False),
    ScoreRecord('ck"2', CAT, CLS, 's"2', PROMPT, STYLE, 1e-300, False),
]
# the cells csv writes for CAT, CLS, PROMPT and STYLE
_C, _L, _P, _S = '"an,""ime"""', '"cls ""a"",\nb"', '"plain\ntext"', '"loss ""style"""'
GOLDEN_SCORES = (
    "checkpoint,category,class,subclass,prompt_type,metric,value,higher_is_better\n"
    f'"ck,1",{_C},{_L},,{_P},vendi,-0.0,true\n'
    f'"ck""2",{_C},{_L},,{_P},vendi,1e-300,true\n'
    f'"ck\n3",{_C},{_L},,{_P},vendi,0.30000000000000004,true\n'
    f'"ck,1",{_C},{_L},"s,1",{_P},{_S},0.30000000000000004,false\n'
    f'"ck""2",{_C},{_L},"s,1",{_P},{_S},-0.0,false\n'
    f'"ck,1",{_C},{_L},"s""2",{_P},{_S},1e-300,false\n'
    f'"ck""2",{_C},{_L},"s""2",{_P},{_S},1e-300,false\n'
)
GOLDEN_NORMALIZED = (
    "checkpoint,category,class,subclass,prompt_type,metric,value,higher_is_better\n"
    f'"ck,1",{_C},{_L},,{_P},vendi,0.0,true\n'
    f'"ck""2",{_C},{_L},,{_P},vendi,0.5,true\n'
    f'"ck\n3",{_C},{_L},,{_P},vendi,1.0,true\n'
    f'"ck,1",{_C},{_L},"s,1",{_P},{_S},0.0,true\n'
    f'"ck""2",{_C},{_L},"s,1",{_P},{_S},1.0,true\n'
    f'"ck,1",{_C},{_L},"s""2",{_P},{_S},0.5,true\n'
    f'"ck""2",{_C},{_L},"s""2",{_P},{_S},0.5,true\n'
)
GOLDEN_CATEGORIES = (
    "checkpoint,category,prompt_type,metric,value\n"
    f'"ck,1",{_C},{_P},vendi,0.0\n'
    f'"ck""2",{_C},{_P},vendi,0.5\n'
    f'"ck\n3",{_C},{_P},vendi,1.0\n'
    f'"ck,1",{_C},{_P},{_S},0.25\n'
    f'"ck""2",{_C},{_P},{_S},0.75\n'
)


class TestScoreTableBytes:
    def test_write_load_write(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        ft.write_scores(GOLDEN_ROWS, first)
        assert first.read_bytes() == GOLDEN_SCORES.encode("utf-8")
        loaded = ft.load_scores(first)
        assert loaded == GOLDEN_ROWS
        ft.write_scores(loaded, second)
        assert second.read_bytes() == GOLDEN_SCORES.encode("utf-8")

    def test_normalize_then_aggregate(self, tmp_path, capsys):
        scores, normalized, categories = (tmp_path / name for name in ("s.csv", "n.csv", "c.csv"))
        scores.write_bytes(GOLDEN_SCORES.encode("utf-8"))
        assert cli_dispatch(["metrics", "normalize", "--scores", str(scores),
                             "--out", str(normalized)]) == 0
        assert normalized.read_bytes() == GOLDEN_NORMALIZED.encode("utf-8")
        assert cli_dispatch(["metrics", "aggregate", "--scores", str(normalized),
                             "--out", str(categories)]) == 0
        assert categories.read_bytes() == GOLDEN_CATEGORIES.encode("utf-8")
        assert capsys.readouterr().out == (f"wrote 7 normalized rows to {normalized}\n"
                                           f"wrote 5 category rows to {categories}\n")
