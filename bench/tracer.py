"""Span tracing of calls into the deltafactor modules, from outside them.

`Tracer.install()` replaces every public function of the eight package
modules with a wrapper, in each module that holds it by name (so
`adapters.as_tensor` and `metrics.sym_eig` are wrapped as well as
`tensor_core.as_tensor` and `tensor_core.sym_eig`). A wrapper opens a span
named `<module>.<function>` around the call; `forward_linear` and
`forward_conv` spans carry the adapter form in the name. Nothing under the
package changes and `uninstall()` restores the original functions.

Per span name the tracer keeps calls, self time (duration minus the
duration of its traced children), errors raised, and counts computed from
arguments and files:

* MACs of `tensor_core.conv2d`, from the kernel and image shapes;
* MACs of the grouped Kronecker forward, from a `kron_linear.MacCounter`
  passed through the public `counter=` argument;
* bytes of weight and feature files, from their sizes on disk.

The program runs on one thread with no queue, so no span waits; the tracer
records no wait time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import types
from dataclasses import dataclass

import numpy as np

import deltafactor
from deltafactor.kron_linear import MacCounter

MODULES = ("tensor_core", "kron_linear", "adapters", "optim_harness",
           "weightfile", "features", "metrics", "cli")


@dataclass
class LayerStats:
    """Totals for one span name."""

    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    macs: int = 0
    bytes: int = 0
    records: int = 0


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    request: int
    name: str
    start: float
    end: float


class Tracer:
    """Collects spans while `enabled`; install() wraps the package functions."""

    def __init__(self, keep_spans: bool = False):
        self.enabled = False
        self.request = 0
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[Span] | None = [] if keep_spans else None
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, name, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, failed: bool) -> LayerStats:
        end = time.perf_counter()
        span_id, parent, name, child_s, start = frame
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStats()
        st.calls += 1
        st.self_s += duration - child_s
        st.errors += failed
        if self.spans is not None:
            self.spans.append(Span(span_id, parent, self.request, name, start, end))
        return st

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, module_name: str, fn):
        base = f"{module_name}.{fn.__name__}"
        label = _LABELS.get(base)
        probe = _PROBES.get(base)
        signature = inspect.signature(fn) if probe is not None else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            name = label(base, args) if label is not None else base
            after = None
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                after = probe(bound)
                args, kwargs = bound.args, bound.kwargs
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, failed=True)
                raise
            st = tracer._exit(frame, failed=False)
            if after is not None:
                for key, value in after(out).items():
                    setattr(st, key, getattr(st, key) + value)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap each public function of the eight modules wherever it is bound."""
        if self._patched:
            return
        mods = {name: importlib.import_module(f"deltafactor.{name}") for name in MODULES}
        wrappers = {}
        for name, mod in mods.items():
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    wrappers[value] = self._wrap(name, value)
        for mod in (deltafactor, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    # -- reporting ----------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(MODULES, 0.0)
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_s
        return out


# span names carrying the adapter form --------------------------------------


def _family(adapter) -> str:
    return type(adapter).__name__.removesuffix("Adapter").lower()


def _conv_form(adapter) -> str:
    tucker = any(getattr(adapter, role, None) is not None
                 for role in ("core", "core1"))
    return _family(adapter) + ("-tucker" if tucker else "")


_LABELS = {
    "adapters.forward_linear": lambda base, args: f"{base}.{_family(args[0])}",
    "adapters.forward_conv": lambda base, args: f"{base}.{_conv_form(args[0])}",
}


# counts computed from arguments, results and file sizes --------------------


def _conv_macs(bound):
    o, i, k, _ = np.shape(bound.arguments["kernel"])
    _, h, w = np.shape(bound.arguments["image"])
    macs = o * i * k * k * max(h - k + 1, 0) * max(w - k + 1, 0)
    return lambda out: {"macs": macs}


def _kron_macs(bound):
    counter = bound.arguments.get("counter")
    if counter is None:
        counter = bound.arguments["counter"] = MacCounter()
    before = counter.mults
    return lambda out: {"macs": counter.mults - before}


def _bytes_written(bound):
    path = bound.arguments["path"]
    return lambda out: {"bytes": os.path.getsize(path)}


def _bytes_read(bound):
    size = os.path.getsize(bound.arguments["path"])
    return lambda out: {"bytes": size}


def _feature_file(bound):
    size = os.path.getsize(bound.arguments["path"])
    return lambda out: {"bytes": size, "records": len(out)}


_PROBES = {
    "tensor_core.conv2d": _conv_macs,
    "kron_linear.grouped_forward": _kron_macs,
    "kron_linear.grouped_forward_full": _kron_macs,
    "weightfile.save_weights": _bytes_written,
    "weightfile.save_dense": _bytes_written,
    "weightfile.load_weights": _bytes_read,
    "weightfile.load_dense": _bytes_read,
    "features.load_features": _feature_file,
}
