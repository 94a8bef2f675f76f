"""Tests of the benchmark itself, at tiny sizes: python3 -m pytest bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from deltafactor import adapters  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
COUNT_UNITS = ("count", "MAC", "bytes")


def tiny_run(name, tmp_path, trace, seed=3, **kw):
    return harness.run(name, seed, 0.001, trace, str(tmp_path / f"{name}-{trace}"), tiny=True, **kw)


def test_workload_names_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(harness.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_emits_every_end_to_end_metric(name, tmp_path):
    result = tiny_run(name, tmp_path, trace=False)
    assert result["tally"].wrong == 0, result["tally"].messages
    assert result["tally"].attempted > 0
    assert {k: unit for k, (_, unit) in result["metrics"].items()} == END_TO_END
    assert all(value > 0 for value, _ in result["metrics"].values())
    assert not (tmp_path / f"{name}-False").exists()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_for_a_fixed_seed(name, tmp_path):
    first = tiny_run(name, tmp_path / "a", trace=True)
    second = tiny_run(name, tmp_path / "b", trace=True)
    assert {k: unit for k, (_, unit) in first["metrics"].items()} == PER_LAYER
    counts = {k for k, unit in PER_LAYER.items() if unit in COUNT_UNITS}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_counts_match_closed_forms(tmp_path):
    result = tiny_run("adapter_forward", tmp_path, trace=True)
    m = {k: v for k, (v, _) in result["metrics"].items()}
    # tiny conv layer: 4 -> 4 channels, 3x3 kernel, 7x7 image, rank 2.
    # Every form runs the base conv (4*4*9*25 MACs); lora adds down + up
    # (2*4*9*25 + 4*2*25), lora-tucker adds 1x1 + core + 1x1
    # (2*4*49 + 2*2*9*25 + 4*2*25), the other four convolve a merged delta.
    base = 4 * 4 * 9 * 25
    assert m["tensor_core.conv2d.calls"] == 6 + 2 + 3 + 4
    assert m["tensor_core.conv2d.macs"] == (6 * base + (1800 + 200) + (392 + 900 + 200) + 4 * base)
    # tiny linear layer 24x16 splits as (4, 6) x (4, 4): factored right
    # block (6, 2) @ (2, 4) costs 4*4*2 + 4*2*6 + 6*4*4; whole (6, 4) costs 4*4*6 + 6*4*4
    assert m["kron_linear.grouped_forward.macs"] == 32 + 48 + 96
    assert m["kron_linear.grouped_forward_full.macs"] == 96 + 96
    assert sum(m[f"adapters.forward_conv.{f}.calls"] for f in harness.FORWARD_CONV) == 6


def test_span_tree_is_well_formed(tmp_path):
    tr = tracer.Tracer(keep_spans=True)
    tiny_run("adapter_pipeline", tmp_path, trace=True, tracer=tr)
    spans = {s.span_id: s for s in tr.spans}
    assert spans and len(spans) == sum(st.calls for st in tr.stats.values())
    for s in spans.values():
        assert s.start <= s.end
        if s.parent_id is not None:
            parent = spans[s.parent_id]
            assert parent.start <= s.start and s.end <= parent.end
            assert parent.request == s.request
    roots = sum(s.end - s.start for s in spans.values() if s.parent_id is None)
    self_total = sum(st.self_s for st in tr.stats.values())
    assert self_total == pytest.approx(roots, rel=1e-9, abs=1e-9)
    assert all(st.self_s >= -1e-6 for st in tr.stats.values())


def test_tracer_restores_the_package(tmp_path):
    original = adapters.reconstruct
    tiny_run("verify_suite", tmp_path, trace=True)
    assert adapters.reconstruct is original


def test_known_failures_are_counted(tmp_path):
    """A FAIL verdict and a typed error count as failed, not as wrong output."""
    result = tiny_run("verify_suite", tmp_path, trace=False)
    # three Adam steps are too few for the eps control to reach 1e-4
    assert result["tally"].failed >= 1 and result["tally"].wrong == 0
    assert any("eps control" in m for m in result["tally"].messages)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_failures_do_not_depend_on_the_seed(name, tmp_path):
    """Every seed fails the same operations, so runs of any seeds agree on the error rate."""
    first, second = (tiny_run(name, tmp_path, trace=False, seed=seed)["tally"] for seed in (1, 2))
    assert (first.attempted, first.failed, first.messages) == \
        (second.attempted, second.failed, second.messages)


def test_fails_without_the_package(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit nonzero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "metrics_eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
