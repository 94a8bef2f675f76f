"""Benchmark entry point for deltafactor.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
`src/` next to this directory. OpenBLAS is pinned to one thread before
numpy is imported. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. The lines before
it print every metric with its unit, the error rate with both counts, and
the numpy/BLAS versions, BLAS thread count, CPU count and Python version.
Scratch files go under `.bench_work/` in the checkout and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("verify_suite", "adapter_forward", "adapter_pipeline", "metrics_eval")


def pin_blas() -> None:
    """One BLAS thread: on two cores the default pool stalls small eigvalsh calls."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv) -> int:
    args = parse(argv)
    src = ROOT / "src"
    if not (src / "deltafactor" / "__init__.py").is_file():
        print(f"error: no deltafactor sources under {src}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import harness  # imports numpy and the package

    import_s = time.perf_counter() - start
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         str(workdir), import_s=import_s)
    env = harness.environment()
    for line in harness.report(result, env):
        print(line)
    tally = result["tally"]
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    pin_blas()
    sys.exit(main(sys.argv[1:]))
