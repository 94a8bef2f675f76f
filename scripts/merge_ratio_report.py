#!/usr/bin/env python3
"""Sweep the merge-ratio equivalence check and emit one CSV row per setting.

Each row records the max elementwise deviation between a ratio-s training
run and its rescaled ratio-1 twin, plus a PASS/FAIL verdict at the chosen
tolerance. Setting --eps nonzero shows how a finite Adam epsilon breaks the
exponent-1 rescaling.
"""

import argparse
import csv
import sys

from deltafactor.optim_harness import (
    HARNESS_ALGORITHMS,
    OPTIMIZERS,
    verify_merge_ratio,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algos", default=",".join(HARNESS_ALGORITHMS),
                        help="comma-separated adapter forms to sweep (default: all)")
    parser.add_argument("--opts", default="sgd,adam,adagrad",
                        help="comma-separated optimizers")
    parser.add_argument("--ratios", default="0.25,4,16",
                        help="comma-separated merge ratios")
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--eps", type=float, default=0.0,
                        help="adam/adagrad epsilon (0 keeps the equivalence exact)")
    parser.add_argument("--tolerance", type=float, default=1e-8)
    parser.add_argument("--out", default="-",
                        help="output CSV path, - for stdout")
    args = parser.parse_args(argv)

    args.algo_list = [a.strip() for a in args.algos.split(",") if a.strip()]
    for algo in args.algo_list:
        if algo not in HARNESS_ALGORITHMS:
            parser.error(f"unknown algorithm {algo!r}")
    args.opt_list = [o.strip() for o in args.opts.split(",") if o.strip()]
    for opt in args.opt_list:
        if opt not in OPTIMIZERS:
            parser.error(f"unknown optimizer {opt!r}")
    try:
        args.ratio_list = [float(r) for r in args.ratios.split(",") if r.strip()]
    except ValueError:
        parser.error("--ratios must be comma-separated numbers")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    handle = sys.stdout if args.out == "-" else open(
        args.out, "w", newline="", encoding="utf-8")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["algorithm", "optimizer", "ratio", "steps", "eps",
                     "max_deviation", "verdict"])
    worst = 0.0
    for algo in args.algo_list:
        for opt in args.opt_list:
            for ratio in args.ratio_list:
                dev = verify_merge_ratio(algo, ratio, opt, steps=args.steps,
                                         seed=args.seed, eps=args.eps)
                worst = max(worst, dev)
                verdict = "PASS" if dev < args.tolerance else "FAIL"
                writer.writerow([algo, opt, ratio, args.steps, args.eps,
                                 repr(dev), verdict])
    if handle is not sys.stdout:
        handle.close()
    print(f"max deviation {worst!r} (tolerance {args.tolerance!r})",
          file=sys.stderr)
    return 0 if worst < args.tolerance else 1


if __name__ == "__main__":
    sys.exit(main())
