"""Command-line front end.

Subcommands: ``aggregate`` (one method on one label file), ``bench``
(every method on a directory of datasets, with signed-rank comparison
against majority vote), ``sweep`` (accuracy over a grid of prior
strengths under both error-rate strategies), ``synth`` (write a
synthetic dataset) and ``eval`` (score a prediction file).

Data goes to files or stdout; diagnostics go to stderr. Exit status is
0 on success, 1 on data or validation errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import DsParams, dawid_skene, majority_vote
from .bwa import PROFILES, BwaHyperParams, aggregate_multiclass, worker_accuracy
from .dataset import (
    ValidationError,
    load_labels,
    load_predictions,
    load_truth,
    save_labels,
    save_predictions,
    save_truth,
)
from .evaluation import accuracy, build_report
from .synthetic import SynthSpec, generate

METHODS = ("mv", "ds", "bwa")
DEFAULT_PROFILE = "av15-adjusted"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # ParseError and ValidationError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdbwa",
        description="Aggregate redundant crowd labels into consensus labels.",
    )
    parser.add_argument("--version", action="version", version=f"crowdbwa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    agg = sub.add_parser("aggregate", help="run one aggregation method on a label file")
    agg.add_argument("--labels", required=True, help="label file (question,worker,answer)")
    agg.add_argument("--method", default="bwa", choices=METHODS)
    agg.add_argument("--out", required=True, help="prediction file to write (question,label)")
    agg.add_argument("--k", type=int, default=None, help="override the class count")
    _add_bwa_flags(agg)
    agg.set_defaults(handler=cmd_aggregate)

    bench = sub.add_parser("bench", help="benchmark methods over a directory of datasets")
    bench.add_argument(
        "--data",
        required=True,
        help="directory with one subdirectory per dataset, each holding a label "
        "file (answer.csv or labels.csv) and truth.csv",
    )
    bench.add_argument(
        "--methods",
        default="mv,bwa",
        help="comma-separated list drawn from mv, ds, bwa[:profile]",
    )
    bench.add_argument("--out", default=None, help="write the JSON report here")
    bench.set_defaults(handler=cmd_bench)

    sweep = sub.add_parser("sweep", help="accuracy over a grid of prior strengths")
    sweep.add_argument("--labels", required=True)
    sweep.add_argument("--truth", required=True)
    sweep.add_argument(
        "--grid",
        default="1,2,5,10,15,20,30,40,50",
        help="comma-separated a_v values; both error-rate strategies are run",
    )
    sweep.add_argument("--k", type=int, default=None)
    sweep.add_argument("--lambda", dest="lam", type=float, default=None)
    sweep.add_argument("--tolerance", type=float, default=None)
    sweep.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    sweep.add_argument("--out", default=None, help="CSV output (a_v,strategy,accuracy)")
    sweep.set_defaults(handler=cmd_sweep)

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--items", type=int, required=True)
    synth.add_argument("--workers", type=int, required=True)
    synth.add_argument("--k", type=int, default=2, help="number of classes")
    synth.add_argument("--redundancy", type=int, required=True, help="labels per item")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--accuracy-min", type=float, default=0.55)
    synth.add_argument("--accuracy-max", type=float, default=0.95)
    synth.add_argument(
        "--class-prior", default=None, help="comma-separated probabilities (default uniform)"
    )
    synth.add_argument("--out-labels", required=True)
    synth.add_argument("--out-truth", required=True)
    synth.set_defaults(handler=cmd_synth)

    ev = sub.add_parser("eval", help="score a prediction file against ground truth")
    ev.add_argument("--labels", required=True, help="label file defining the id maps")
    ev.add_argument("--predictions", required=True, help="prediction file (question,label)")
    ev.add_argument("--truth", required=True)
    ev.add_argument("--k", type=int, default=None)
    ev.set_defaults(handler=cmd_eval)

    return parser


def _add_bwa_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        default=DEFAULT_PROFILE,
        choices=sorted(PROFILES),
        help="named hyper-parameter profile (bwa only)",
    )
    parser.add_argument("--a-v", dest="a_v", type=float, default=None)
    parser.add_argument(
        "--epsilon-strategy", choices=("original", "adjusted"), default=None
    )
    parser.add_argument("--lambda", dest="lam", type=float, default=None)
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--max-iters", dest="max_iters", type=int, default=None)


def _given(args, *names: str) -> dict:
    """The options among ``names`` that the command line set."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _hyper_params(args) -> BwaHyperParams:
    overrides = _given(args, "a_v", "epsilon_strategy", "lam", "tolerance", "max_iters")
    return replace(PROFILES[args.profile], **overrides)


def cmd_aggregate(args) -> int:
    matrix = load_labels(args.labels, num_classes=args.k)
    if args.method == "mv":
        result = majority_vote(matrix)
        save_predictions(result.labels, matrix, args.out)
        unlabeled = int(result.is_unlabeled.sum())
        if unlabeled:
            print(f"warning: {unlabeled} items had no labels", file=sys.stderr)
    elif args.method == "ds":
        started = time.perf_counter()
        result = dawid_skene(matrix, DsParams())
        elapsed = time.perf_counter() - started
        save_predictions(result.hard_labels, matrix, args.out)
        print(
            f"ds: {result.iterations} iterations, converged={result.converged} "
            f"runtime={elapsed:.3f}s",
            file=sys.stderr,
        )
    else:
        hp = _hyper_params(args)
        started = time.perf_counter()
        result = aggregate_multiclass(matrix, hp)
        elapsed = time.perf_counter() - started
        save_predictions(result.hard_labels, matrix, args.out)
        _write_worker_diagnostics(f"{args.out}.workers.csv", matrix, result.worker_weights)
        summary = {
            "method": "bwa",
            "a_v": hp.a_v,
            "lambda": hp.lam,
            "epsilon_strategy": hp.epsilon_strategy,
            "epsilon": result.epsilon,
            "b_v": result.b_v,
            "iterations": [r.iterations for r in result.per_class],
            "converged": all(r.converged for r in result.per_class),
            "final_objective": [float(r.nll_trace[-1]) for r in result.per_class],
        }
        Path(f"{args.out}.summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        print(
            f"bwa: epsilon={result.epsilon:.6g} b_v={result.b_v:.6g} "
            f"iterations={summary['iterations']} converged={summary['converged']} "
            f"runtime={elapsed:.3f}s",
            file=sys.stderr,
        )
    return 0


def _write_worker_diagnostics(path, matrix, weights) -> None:
    rows = map("{},{!r},{!r}".format, matrix.worker_ids, weights.tolist(),
               worker_accuracy(weights).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(["worker,weight,accuracy", *rows]) + "\n")


def _parse_method_token(token: str):
    name, _, profile = token.partition(":")
    if name not in METHODS:
        raise ValidationError(f"unknown method {token!r} (expected mv, ds or bwa[:profile])")
    if name != "bwa":
        if profile:
            raise ValidationError(f"method {name!r} takes no profile")
        return token, name, None
    profile = profile or DEFAULT_PROFILE
    if profile not in PROFILES:
        raise ValidationError(
            f"unknown profile {profile!r} (expected one of {sorted(PROFILES)})"
        )
    return token, name, PROFILES[profile]


def cmd_bench(args) -> int:
    root = Path(args.data)
    if not root.is_dir():
        raise ValidationError(f"{root} is not a directory")
    methods = [_parse_method_token(t.strip()) for t in args.methods.split(",") if t.strip()]
    if not methods:
        raise ValidationError("no methods given")
    baseline = next((t for t, m, _ in methods if m == "mv"), None)
    if baseline is None:
        raise ValidationError("bench requires mv among the methods (it is the baseline)")
    named = {}  # each (method, hyper-parameters) pair to run, and its first token
    for token, method, hp in methods:
        if (method, hp) in named:
            raise ValidationError(
                f"methods {named[method, hp]!r} and {token!r} name the same run")
        named[method, hp] = token

    datasets = []
    for entry in sorted(root.iterdir()):
        if not entry.is_dir():
            continue
        label_file = next(
            (entry / name for name in ("answer.csv", "labels.csv") if (entry / name).exists()),
            None,
        )
        if label_file is None:
            continue
        truth_file = entry / "truth.csv"
        if not truth_file.exists():
            print(f"warning: {entry.name}: no truth.csv, skipped", file=sys.stderr)
            continue
        datasets.append((entry.name, label_file, truth_file))
    if not datasets:
        raise ValidationError(f"no datasets with labels and truth found under {root}")

    loaded = []
    for name, label_file, truth_file in datasets:
        matrix = load_labels(label_file)
        loaded.append((name, matrix, _load_truth(truth_file, matrix)))

    runs = []
    for name, matrix, truth in loaded:
        for token, method, hp in methods:
            started = time.perf_counter()
            if method == "mv":
                predictions = majority_vote(matrix).labels
            elif method == "ds":
                predictions = dawid_skene(matrix).hard_labels
            else:
                predictions = aggregate_multiclass(matrix, hp).hard_labels
            elapsed = time.perf_counter() - started
            runs.append((token, name, predictions, truth, elapsed))
            print(f"{name} / {token}: {elapsed:.3f}s", file=sys.stderr)

    report = build_report(runs, baseline=baseline)
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
    print(report.format_table())
    return 0


def cmd_sweep(args) -> int:
    matrix = load_labels(args.labels, num_classes=args.k)
    truth = _load_truth(args.truth, matrix)
    grid = [float(v) for v in args.grid.split(",") if v.strip()]
    if not grid:
        raise ValidationError("empty a_v grid")

    settings = _given(args, "lam", "tolerance", "max_iters")
    records = []
    for a_v in grid:
        for strategy in ("original", "adjusted"):
            hp = BwaHyperParams(a_v=a_v, epsilon_strategy=strategy, **settings)
            result = aggregate_multiclass(matrix, hp)
            records.append((a_v, strategy, accuracy(result.hard_labels, truth)))

    lines = ["a_v,strategy,accuracy"]
    lines += [f"{a_v:g},{strategy},{acc!r}" for a_v, strategy, acc in records]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_synth(args) -> int:
    prior = None
    if args.class_prior:
        prior = tuple(float(p) for p in args.class_prior.split(","))
    spec = SynthSpec(
        num_items=args.items,
        num_workers=args.workers,
        num_classes=args.k,
        redundancy=args.redundancy,
        seed=args.seed,
        class_prior=prior,
        accuracy_range=(args.accuracy_min, args.accuracy_max),
    )
    matrix, truth = generate(spec)
    save_labels(matrix, args.out_labels)
    save_truth(truth, matrix, args.out_truth)
    echo = {
        "items": spec.num_items,
        "workers": spec.num_workers,
        "classes": spec.num_classes,
        "redundancy": spec.redundancy,
        "seed": spec.seed,
        "accuracy_range": list(spec.accuracy_range),
        "class_prior": list(spec.class_prior) if spec.class_prior else "uniform",
        "labels_written": matrix.num_labels,
    }
    print(json.dumps(echo, sort_keys=True), file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    matrix = load_labels(args.labels, num_classes=args.k)
    truth = _load_truth(args.truth, matrix)
    items = truth[0]
    predictions, predicted = load_predictions(args.predictions, matrix)
    acc = accuracy(predictions, truth)
    n_missing = int(np.count_nonzero(~predicted[items]))
    if n_missing:
        print(
            f"warning: {n_missing} of {items.size} evaluated items have no prediction "
            "and were scored as class 0",
            file=sys.stderr,
        )
    print(json.dumps({"accuracy": acc, "n_evaluated": items.size, "n_missing": n_missing},
                     sort_keys=True))
    return 0


def _load_truth(path, matrix):
    """``load_truth``, refusing a file without rows: no accuracy is defined on it."""
    truth = load_truth(path, matrix)
    if not truth[0].size:
        raise ValidationError(f"{path}: no truth rows after the header")
    return truth


if __name__ == "__main__":
    sys.exit(main())
