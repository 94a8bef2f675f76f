"""Command line interface.

Subcommands fall into four groups:

  adapter   init / info / reconstruct / merge / fit on weight files
  verify    merge-ratio, homogeneity, and gradient self-checks
  metrics   similarity, diversity, style, and score-table tools
  balance   per-class repeat counts for dataset balancing

Exit codes: 0 success (and PASS verdicts), 1 validation or computation
failures (and FAIL verdicts), 2 missing or unreadable files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys

from . import metrics, optim_harness
from .adapters import (
    ALGORITHMS,
    AdapterModel,
    LayerShape,
    MergeScale,
    ModelMeta,
    _layer_rows,
    init_model,
    max_rank_bound,
    nkp_fit_lokr,
    param_count,
    svd_fit_lora,
)
from .features import (
    LABEL_FIELDS,
    feature_labels,
    feature_matrix,
    load_features,
    load_scores,
    write_category_scores,
    write_scores,
)
from .tensor_core import NumericalError
from .weightfile import load_weights, open_dense, save_dense, save_weights

__all__ = ["build_parser", "cli_dispatch", "main"]

MERGE_RATIO_TOL = 1e-8
HOMOGENEITY_TOL = 1e-12
GRADIENT_TOL = 1e-9


def _load_manifest(path) -> list[tuple[str, LayerShape]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}")
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: manifest must be a non-empty JSON list")
    entries = []
    for i, item in enumerate(data):
        if not isinstance(item, dict) or set(item) != {"name", "kind", "shape"}:
            raise ValueError(
                f"{path}: entry {i} must have exactly the keys name, kind, shape")
        name = item["name"]
        if not isinstance(name, str) or not name:
            raise ValueError(f"{path}: entry {i} has an empty name")
        entries.append((name, LayerShape.from_json(item["kind"], item["shape"],
                                                   f"{path}: entry {i}")))
    return entries


def _csv_out(rows, header) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


# ---------------------------------------------------------------------------
# adapter commands


def _cmd_adapter_init(args) -> int:
    entries = _load_manifest(args.manifest)
    model = init_model(entries, args.algo, args.dim, args.alpha,
                       factor=args.factor, tucker=args.tucker, seed=args.seed)
    save_weights(model, args.out)
    print(f"wrote {len(entries)} zero-initialized {args.algo} layers to {args.out}")
    return 0


def _cmd_adapter_info(args) -> int:
    model = load_weights(args.weights)
    meta = model.meta
    total = sum(param_count(ad) for ad in model.entries.values())
    print(f"algorithm: {meta.algorithm}")
    print(f"dim: {meta.dim}")
    print(f"alpha: {meta.alpha!r}")
    print(f"gamma: {MergeScale(meta.alpha, meta.dim).gamma!r}")
    print(f"factor: {meta.factor}")
    print(f"seed: {meta.seed}")
    print(f"layers: {len(model.entries)}")
    print(f"total_params: {total}")
    for name, ad in model.entries.items():
        shp = ad.layer
        geom = f"{shp.out_dim}x{shp.in_dim}"
        if shp.kind == "conv2d":
            geom += f" k={shp.kernel}"
        line = (f"layer {name}: {shp.kind} {geom} "
                f"params={param_count(ad)} max_rank={max_rank_bound(ad)}")
        if meta.dim > shp.max_rank:
            line += (f" over-parameterized (dim {meta.dim} exceeds "
                     f"min({shp.out_dim}, {shp.unrolled_in}))")
        print(line)
    return 0


def _cmd_adapter_reconstruct(args) -> int:
    model = load_weights(args.weights)
    # gamma * delta, handed to the writer one row block at a time
    save_dense({name: (ad.layer, functools.partial(_layer_rows, ad, 1.0))
                for name, ad in model.entries.items()},
               args.out, algorithm="delta", meta=model.meta)
    print(f"wrote {len(model.entries)} dense deltas to {args.out}")
    return 0


def _cmd_adapter_merge(args) -> int:
    model = load_weights(args.weights)
    if not math.isfinite(args.weight):
        raise ValueError(f"merge weight must be finite, got {args.weight}")
    with open_dense(args.base) as (base_meta, base):
        if base_meta.algorithm != "dense":
            raise ValueError(
                f"--base must hold dense weights, got a {base_meta.algorithm!r} file")
        for name, ad in model.entries.items():
            if name not in base:
                raise ValueError(f"adapter layer {name!r} is missing from the base")
            if base[name][0] != ad.layer:
                raise ValueError(
                    f"layer {name!r}: adapter geometry {ad.layer} does not match "
                    f"base geometry {base[name][0]}")

        def merged(ad, read):
            # merge()'s w0 + lam * gamma * delta from the base layer's float32
            # values, one row block at a time; a layer only in the base is
            # copied through as read
            w0 = read()
            if ad is None:
                return [w0.reshape(len(w0), -1)]
            return _layer_rows(ad, args.weight, w0)
        save_dense({name: (shape, functools.partial(merged, model.entries.get(name), read))
                    for name, (shape, read) in base.items()}, args.out, algorithm="dense")
    print(f"merged {len(model.entries)} layers at weight {args.weight!r} "
          f"into {args.out}")
    return 0


def _cmd_adapter_fit(args) -> int:
    with open_dense(args.delta) as (meta_in, entries):
        if meta_in.algorithm != "delta":
            raise ValueError(
                f"--delta must hold weight deltas, got a {meta_in.algorithm!r} file")
        if args.algo == "lora" and args.dim is None:
            raise ValueError("lora fits require --dim")
        fits = {}
        # one delta is read at a time; the fits copy it to float64
        for name, (_, read) in entries.items():
            try:
                if args.algo == "lora":
                    fits[name] = svd_fit_lora(read(), args.dim)
                else:
                    fits[name] = nkp_fit_lokr(read(), factor=args.factor, dim=args.dim)
            except ValueError as exc:
                raise ValueError(f"{args.delta}: layer {name!r}: {exc}") from exc
    dim = args.dim if args.dim is not None else max(
        ad.scale.dim for ad in fits.values())
    meta = ModelMeta(algorithm=args.algo, dim=dim, alpha=float(dim),
                     factor=args.factor if args.algo == "lokr" else -1)
    save_weights(AdapterModel(meta=meta, entries=fits), args.out)
    print(f"fitted {len(fits)} {args.algo} layers (dim {dim}) into {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify commands


def _verify_names(args) -> list[str]:
    if args.algo is not None:
        return [args.algo]
    return list(optim_harness.HARNESS_ALGORITHMS)


def _verdict(case: str, run) -> bool:
    """Print one sweep case's verdict line; returns whether the case failed.

    run() gives the measurement's text and whether it passed. A case that
    raises fails alone: its error goes to stderr, as every CLI error does,
    its verdict line names it, and the sweep goes on.
    """
    try:
        text, passed = run()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"{case}: error: {exc} FAIL")
        return True
    print(f"{case}: {text} {'PASS' if passed else 'FAIL'}")
    return not passed


def _cmd_verify_merge_ratio(args) -> int:
    failed = False
    for name, opt, scale in itertools.product(_verify_names(args), args.opt, args.scale):
        def run():
            deviation = optim_harness.verify_merge_ratio(
                name, scale, optimizer=opt, steps=args.steps, seed=args.seed,
                eps=args.eps, weight_decay=args.weight_decay)
            return f"max deviation: {deviation!r}", deviation < MERGE_RATIO_TOL
        failed |= _verdict(f"{name} {opt} ratio {scale!r}", run)
    print(f"{'FAIL' if failed else 'PASS'} (tolerance {MERGE_RATIO_TOL!r})")
    return 1 if failed else 0


def _cmd_verify_homogeneity(args) -> int:
    failed = False
    for name in _verify_names(args):
        def run():
            deviation = optim_harness.homogeneity_check(
                name, c=args.factor_scale, trials=args.trials, seed=args.seed)
            return f"max relative deviation {deviation!r}", deviation < HOMOGENEITY_TOL
        failed |= _verdict(name, run)
    print(f"tolerance {HOMOGENEITY_TOL!r}")
    return 1 if failed else 0


def _cmd_verify_gradients(args) -> int:
    failed = False
    for name in _verify_names(args):
        def run():
            errors = optim_harness.gradient_check(name, seed=args.seed)
            peak = max(errors.values())
            return f"max relative error {peak!r} over {len(errors)} factors", peak < GRADIENT_TOL
        failed |= _verdict(name, run)
    print(f"tolerance {GRADIENT_TOL!r}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# metrics commands


def _cmd_metrics_pair(args) -> int:
    # cossim, scd and align: one measure of two vector feature files
    a = feature_matrix(load_features(args.a))
    b = feature_matrix(load_features(args.b))
    print(repr(args.measure(a, b)))
    return 0


def _cmd_metrics_vendi(args) -> int:
    records = load_features(args.features)
    vectors = feature_matrix(records)
    if args.group_by is not None:
        if args.subsample is not None:
            raise ValueError("--subsample applies only to ungrouped scores")
        if args.singletons is None:
            raise ValueError("--group-by requires --singletons skip|include")
        labels = feature_labels(records, args.group_by)
        scores, mean = metrics.grouped_vendi(vectors, labels, args.singletons)
        _csv_out([(tag, repr(value)) for tag, value in scores.items()]
                 + [("mean", repr(mean))], ("group", "vendi"))
        return 0
    if args.singletons is not None:
        raise ValueError("--singletons applies only with --group-by")
    if args.subsample is not None:
        vectors = metrics.subsample(vectors, args.subsample,
                                    seed=args.subsample_seed)
    print(repr(metrics.vendi_score(vectors)))
    return 0


def _cmd_metrics_style(args) -> int:
    recs_a = load_features(args.a)
    recs_b = load_features(args.b)
    if len(recs_a) != len(recs_b):
        raise ValueError(
            f"record count mismatch: {len(recs_a)} vs {len(recs_b)}")
    if any(r.maps is None for r in recs_a + recs_b):
        raise ValueError("style comparison requires feature map records")
    rows = []
    losses = []
    for ra, rb in zip(recs_a, recs_b):
        names_a = [layer for layer, _ in ra.maps]
        names_b = [layer for layer, _ in rb.maps]
        if names_a != names_b:
            raise ValueError(
                f"records {ra.id!r}/{rb.id!r} differ in layers: "
                f"{names_a} vs {names_b}")
        try:
            loss = metrics.style_loss([m for _, m in ra.maps], [m for _, m in rb.maps])
        except NumericalError as exc:
            raise NumericalError(f"records {ra.id!r}/{rb.id!r}: {exc}") from None
        losses.append(loss)
        rows.append((ra.id, rb.id, repr(loss)))
    rows.append(("mean", "mean", repr(sum(losses) / len(losses))))
    _csv_out(rows, ("id_a", "id_b", "style_loss"))
    return 0


def _cmd_metrics_normalize(args) -> int:
    records = load_scores(args.scores)
    write_scores(metrics.rank_normalize(records), args.out)
    print(f"wrote {len(records)} normalized rows to {args.out}")
    return 0


def _cmd_metrics_aggregate(args) -> int:
    records = load_scores(args.scores)
    rolled = metrics.aggregate_scores(records)
    write_category_scores(rolled, args.out)
    print(f"wrote {len(rolled)} category rows to {args.out}")
    return 0


def _cmd_metrics_diversity_ratio(args) -> int:
    cls = feature_matrix(load_features(args.class_features))
    whole = feature_matrix(load_features(args.dataset_features))
    print(repr(metrics.diversity_ratio(cls, whole, args.measure)))
    return 0


def _cmd_balance(args) -> int:
    try:
        sizes = [int(part) for part in args.sizes.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    counts = metrics.balance_repeats(sizes, target=args.target)
    print(",".join(str(c) for c in counts))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltafactor",
        description="Low-rank weight-delta adapters and evaluation metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    adapter = sub.add_parser("adapter", help="create and transform weight files")
    adapter_sub = adapter.add_subparsers(dest="subcommand", required=True)

    p = adapter_sub.add_parser("init", help="zero-initialized adapter model")
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--manifest", required=True,
                   help="JSON list of {name, kind, shape} layer entries")
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--factor", type=int, default=-1)
    p.add_argument("--tucker", action="store_true",
                   help="use the Tucker form on conv2d layers")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_adapter_init)

    p = adapter_sub.add_parser("info", help="summarize a weight file")
    p.add_argument("--weights", required=True)
    p.set_defaults(handler=_cmd_adapter_info)

    p = adapter_sub.add_parser("reconstruct",
                               help="expand an adapter model to dense deltas")
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_adapter_reconstruct)

    p = adapter_sub.add_parser("merge", help="apply an adapter to base weights")
    p.add_argument("--weights", required=True)
    p.add_argument("--base", required=True, help="dense base weight file")
    p.add_argument("--weight", type=float, default=1.0,
                   help="merge ratio applied to the scaled delta")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_adapter_merge)

    p = adapter_sub.add_parser("fit", help="factor dense deltas into an adapter")
    p.add_argument("--algo", required=True, choices=("lora", "lokr"))
    p.add_argument("--delta", required=True, help="dense delta file")
    p.add_argument("--dim", type=int, default=None,
                   help="lora: the fit's rank (required); lokr: the right block's "
                        "rank, kept whole when left out")
    p.add_argument("--factor", type=int, default=-1,
                   help="lokr split: c's extents are at most this (-1: each extent "
                        "split as near square as its divisors allow)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_adapter_fit)

    verify = sub.add_parser("verify", help="run training-dynamics self-checks")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    harness_names = tuple(optim_harness.HARNESS_ALGORITHMS)

    p = verify_sub.add_parser(
        "merge-ratio",
        help="training at merge ratio s must equal a rescaled ratio-1 run, "
             "for every form, optimizer and ratio given")
    p.add_argument("--algo", choices=harness_names, default=None)
    p.add_argument("--scale", type=float, nargs="+", default=[4.0])
    p.add_argument("--opt", choices=optim_harness.OPTIMIZERS, nargs="+", default=["sgd"])
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.0,
                   help="adam/adagrad epsilon (nonzero breaks the equivalence)")
    p.add_argument("--weight-decay", type=float, default=0.0,
                   help="decoupled weight decay, measured but not covered by "
                        "the equivalence")
    p.set_defaults(handler=_cmd_verify_merge_ratio)

    p = verify_sub.add_parser(
        "homogeneity",
        help="scaling every factor by c must scale the delta by c^k")
    p.add_argument("--algo", choices=harness_names, default=None)
    p.add_argument("--factor-scale", type=float, default=2.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify_homogeneity)

    p = verify_sub.add_parser(
        "gradients", help="analytic factor gradients vs complex-step derivatives")
    p.add_argument("--algo", choices=harness_names, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify_gradients)

    met = sub.add_parser("metrics", help="similarity and diversity measures")
    met_sub = met.add_subparsers(dest="subcommand", required=True)

    p = met_sub.add_parser("cossim", help="mean pairwise cosine similarity")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=_cmd_metrics_pair, measure=metrics.avg_cosine_similarity)

    p = met_sub.add_parser("scd", help="squared centroid distance")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=_cmd_metrics_pair, measure=metrics.squared_centroid_distance)

    p = met_sub.add_parser("vendi", help="effective diversity score")
    p.add_argument("--features", required=True)
    p.add_argument("--group-by", choices=tuple(LABEL_FIELDS), default=None)
    p.add_argument("--singletons", choices=("skip", "include"), default=None)
    p.add_argument("--subsample", type=int, default=None)
    p.add_argument("--subsample-seed", type=int, default=0)
    p.set_defaults(handler=_cmd_metrics_vendi)

    p = met_sub.add_parser("align", help="paired text/image cosine alignment")
    p.add_argument("--images", dest="a", metavar="IMAGES", required=True)
    p.add_argument("--texts", dest="b", metavar="TEXTS", required=True)
    p.set_defaults(handler=_cmd_metrics_pair, measure=metrics.text_image_alignment)

    p = met_sub.add_parser("style", help="Gram-matrix style distance per pair")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=_cmd_metrics_style)

    p = met_sub.add_parser("normalize", help="rank-normalize a score table")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_metrics_normalize)

    p = met_sub.add_parser("aggregate",
                           help="roll a score table up to category means")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_metrics_aggregate)

    p = met_sub.add_parser("diversity-ratio",
                           help="class diversity relative to the dataset")
    p.add_argument("--class-features", required=True)
    p.add_argument("--dataset-features", required=True)
    p.add_argument("--measure", required=True, choices=metrics.MEASURES)
    p.set_defaults(handler=_cmd_metrics_diversity_ratio)

    p = sub.add_parser("balance", help="repeat counts that even out class sizes")
    p.add_argument("--sizes", required=True,
                   help="comma-separated class sizes, e.g. 12,10,7")
    p.add_argument("--target", type=int, default=200)
    p.set_defaults(handler=_cmd_balance)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built at the first dispatch, not at import, then kept: building the
    # tree costs as much as some 65 parses (2.1 ms against 0.03 ms, one BLAS thread)
    return build_parser()


def cli_dispatch(argv) -> int:
    """Parse and run one invocation; returns the process exit code."""
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
