"""Measurement loop, metric assembly and the environment record.

A run sets a workload up several times (reporting the median as part of
`setup_s`), then runs whole passes of its operations until the requested
seconds are used up. Only the operation calls are timed; output checks run
after each call with the clock stopped.

With tracing on, half of the time runs untraced and half traced, so the
tracing overhead is the difference of the two typical pass times; per-layer
numbers are per traced pass.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from tracer import MODULES, Tracer
from workloads import WORKLOADS, Workload

SETUP_REPEATS = 3
# failures the program reports itself; anything else raised is a crash
REPORTED_ERRORS = (ValueError, OSError)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    messages: dict = field(default_factory=dict)

    def add(self, status: str, message: str) -> None:
        self.attempted += 1
        if status != "ok":
            self.failed += 1
            self.wrong += status == "wrong"
            key = f"{status}: {message}"
            self.messages[key] = self.messages.get(key, 0) + 1


@dataclass
class Pass:
    latencies: dict  # operation label -> seconds
    kinds: dict  # operation label -> kind
    rate_labels: list  # operations whose time counts toward work_per_s
    work: int


def run_pass(workload: Workload, index: int, tally: Tally, tracer: Tracer | None = None) -> Pass:
    """Run one pass; the clock covers only the calls into the package."""
    done = Pass({}, {}, [], 0)
    for op in workload.ops(index):
        done.kinds[op.label] = op.kind or op.label
        if tracer is not None:
            tracer.request += 1
            tracer.enabled = True
        raised = None
        start = time.perf_counter()
        try:
            out = op.run()
        except REPORTED_ERRORS as exc:
            raised = ("failed", f"{op.label}: {type(exc).__name__}: {exc}")
        except Exception as exc:  # a crash; recorded and counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            raised = ("wrong", f"{op.label}: crashed with {type(exc).__name__}: {exc}")
        done.latencies[op.label] = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        if op.in_rate:
            done.rate_labels.append(op.label)
        if raised is None:
            done.work += op.work
            tally.add(*op.check(out))
        else:
            tally.add(*raised)
    return done


def run_for(workload: Workload, seconds: float, first_index: int, tally: Tally,
            tracer: Tracer | None = None) -> list[Pass]:
    """Whole passes until `seconds` of wall time have gone by (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, first_index + len(passes), tally, tracer))
    return passes


def typical_latencies(passes: list[Pass]) -> dict:
    """Each operation's median time over all calls of its kind in the run.

    Every pass runs the same operations, so their sum is the time of a pass
    in which no call took longer than is typical of its kind: machine noise
    comes in bursts that a median over calls spread across the run leaves out.
    """
    samples = {}
    for p in passes:
        for label, seconds in p.latencies.items():
            samples.setdefault(p.kinds[label], []).append(seconds)
    medians = {kind: statistics.median(values) for kind, values in samples.items()}
    return {label: medians[kind] for label, kind in passes[0].kinds.items()}


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def set_up(workload: Workload) -> float:
    """Median wall time of SETUP_REPEATS set-ups, each with its warm-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        workload.warm_up()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    typical = typical_latencies(passes)
    rate_s = sum(typical[label] for label in passes[0].rate_labels)
    # percentiles over every call of the run: near the median of the mix many
    # calls of similar cost share the rank, not one kind's few samples
    calls_ms = [1e3 * s for p in passes for s in p.latencies.values()]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "pass_s": (sum(typical.values()), "s"),
        "work_per_s": (statistics.median(p.work for p in passes) / rate_s, "1/s"),
        "op_ms_p50": (nearest_rank(calls_ms, 0.50), "ms"),
        "op_ms_p90": (nearest_rank(calls_ms, 0.90), "ms"),
    }


# per-layer metrics --------------------------------------------------------

FORWARD_LINEAR = ("lora", "loha", "lokr")
FORWARD_CONV = ("lora", "lora-tucker", "loha", "loha-tucker", "lokr", "lokr-tucker")

# (span name, fields, the end-to-end metric the fields should move)
VERIFY_RATE = "work_per_s on verify_suite"
VERIFY_PASS = "pass_s on verify_suite"
FORWARD_RATE = "work_per_s on adapter_forward"
PIPELINE_PASS = "pass_s on adapter_pipeline"
EVAL_RATE = "work_per_s on metrics_eval"
LAYER_FIELDS = [
    ("tensor_core.as_tensor", ("calls", "self_s"),
     VERIFY_RATE + " (boundary validation); op_ms_p50 on adapter_forward (w0 revalidated per call)"),
    ("tensor_core.conv2d", ("calls", "self_s", "macs"), FORWARD_RATE),
    ("tensor_core.nmode_product", ("calls", "self_s"), VERIFY_RATE),
    ("tensor_core.svd", ("calls", "self_s"), PIPELINE_PASS),
    ("tensor_core.sym_eig", ("calls", "self_s", "errors"), EVAL_RATE),
    ("kron_linear.grouped_forward", ("calls", "self_s", "macs"), FORWARD_RATE),
    ("kron_linear.grouped_forward_full", ("calls", "self_s", "macs"), FORWARD_RATE),
    *((f"adapters.forward_linear.{f}", ("calls", "self_s"),
       "op_ms_p90 (loha) and op_ms_p50 on adapter_forward") for f in FORWARD_LINEAR),
    *((f"adapters.forward_conv.{f}", ("calls", "self_s"), FORWARD_RATE) for f in FORWARD_CONV),
    ("adapters.reconstruct", ("calls", "self_s"), VERIFY_RATE + "; " + PIPELINE_PASS),
    *((f"adapters.{fn}", ("self_s",), PIPELINE_PASS)
      for fn in ("merge", "svd_fit_lora", "nkp_fit_lokr", "init_model")),
    ("adapters.with_tensors", ("calls", "self_s"), VERIFY_RATE),
    ("optim_harness.loss_and_grads", ("calls", "self_s"), VERIFY_PASS),
    ("optim_harness.adapter_grads", ("calls", "self_s"), VERIFY_PASS),
    ("optim_harness.train", ("self_s",), VERIFY_PASS),
    ("optim_harness.gradient_check", ("self_s",), VERIFY_PASS),
    ("optim_harness.homogeneity_check", ("self_s",), VERIFY_PASS),
    ("optim_harness.model_loss", ("calls",), VERIFY_PASS),
    *((f"weightfile.{fn}", ("calls", "self_s", "bytes"), PIPELINE_PASS)
      for fn in ("save_weights", "load_weights", "save_dense", "load_dense")),
    ("features.load_features", ("self_s", "bytes", "records"), EVAL_RATE),
    *((f"metrics.{fn}", ("calls", "self_s"), EVAL_RATE)
      for fn in ("vendi_score", "style_loss", "gram_matrix")),
    ("metrics.vendi_score", ("errors",), EVAL_RATE),
    ("cli.cli_dispatch", ("calls", "self_s"), PIPELINE_PASS),
]
UNITS = {"calls": "count", "self_s": "s", "macs": "MAC", "errors": "count",
         "bytes": "bytes", "records": "count"}


def per_layer(tracer: Tracer, traced: list[Pass], untraced: list[Pass], gradient_entries: int) -> dict:
    n = len(traced)

    def per_pass(value, unit):
        if unit == "s":
            return value / n
        if value % n:
            print(f"warning: count {value} differs between the {n} traced passes", file=sys.stderr)
            return value / n
        return value // n

    out = {}
    for name, fields, _ in LAYER_FIELDS:
        st = tracer.stats.get(name)
        for f in fields:
            out[f"{name}.{f}"] = (per_pass(getattr(st, f) if st else 0, UNITS[f]), UNITS[f])
    loss_calls = out["optim_harness.model_loss.calls"][0]
    out["optim_harness.model_loss.calls_per_entry"] = (
        loss_calls / gradient_entries if gradient_entries else 0.0, "ratio")
    wall = sum(sum(p.latencies.values()) for p in traced) / n
    modules = tracer.module_self_s()
    for mod in MODULES:
        out[f"{mod}.self_s"] = (modules[mod] / n, "s")
        out[f"{mod}.self_share"] = (100.0 * modules[mod] / n / wall if wall else 0.0, "%")
    out["bench.self_s"] = (wall - sum(modules.values()) / n, "s")
    out["trace.pass_s"] = (wall, "s")
    out["trace.overhead_s"] = (sum(typical_latencies(traced).values())
                               - sum(typical_latencies(untraced).values()), "s")
    return out


# environment ----------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it can be found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


# one run --------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: str,
        import_s: float = 0.0, tiny: bool = False, tracer: Tracer | None = None) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[workload_name](seed=seed, workdir=workdir, tiny=tiny)
        setup_s = import_s + set_up(workload)
        tally = Tally()
        if not trace:
            passes = run_for(workload, seconds, 0, tally)
            metrics = end_to_end(passes, setup_s)
        else:
            untraced = run_for(workload, seconds / 2, 0, tally)
            tracer = tracer or Tracer()
            tracer.install()
            try:
                traced = run_for(workload, seconds / 2, len(untraced), tally, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, traced, untraced, workload.gradient_entries())
            passes = traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload_name,
        "unit_of_work": workload.unit_of_work,
        "passes": len(passes),
        "ops": sum(len(p.latencies) for p in passes),
        "tally": tally,
        "metrics": metrics,
        "tracer": tracer,
    }


def report(result: dict, env: dict) -> list[str]:
    """Human-readable lines printed before the JSON record."""
    tally = result["tally"]
    lines = [f"workload {result['workload']}: {result['passes']} passes, {result['ops']} operations; "
             f"work = {result['unit_of_work']}"]
    lines.append(f"error_rate: {tally.failed / max(tally.attempted, 1):.6g} "
                 f"({tally.failed} failed / {tally.attempted} attempted, {tally.wrong} wrong outputs)")
    lines += [f"  {count}x {message}" for message, count in tally.messages.items()]
    tracer = result["tracer"]
    moves = {f"{name}.{f}": target for name, fields, target in LAYER_FIELDS for f in fields}
    width = max(len(k) for k in result["metrics"])
    for name, (value, unit) in result["metrics"].items():
        target = f"  (moves {moves[name]})" if tracer is not None and name in moves else ""
        lines.append(f"{name:<{width}}  {value!r} {unit}{target}")
    if tracer is not None:
        lines.append("self time is span time minus traced child spans; counts are per traced pass, "
                     "MACs and bytes are computed from shapes and file sizes; time waited: not "
                     "applicable (one thread, no queue)")
    lines.append("env " + json.dumps(env))
    return lines
