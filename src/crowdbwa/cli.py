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
import functools
import json
import os
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
    args = _build_parser().parse_args(argv)
    # looked up per call, so a command swapped in the module namespace runs
    handler = {"aggregate": cmd_aggregate, "bench": cmd_bench, "sweep": cmd_sweep,
               "synth": cmd_synth, "eval": cmd_eval}[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:  # ParseError and ValidationError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache
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
    agg.add_argument(
        "--profile",
        default=DEFAULT_PROFILE,
        choices=sorted(PROFILES),
        help="named hyper-parameter profile (bwa only)",
    )
    agg.add_argument("--a-v", dest="a_v", type=float, default=None)
    agg.add_argument("--epsilon-strategy", choices=("original", "adjusted"), default=None)
    _add_em_flags(agg)

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

    sweep = sub.add_parser("sweep", help="accuracy over a grid of prior strengths")
    sweep.add_argument("--labels", required=True)
    sweep.add_argument("--truth", required=True)
    sweep.add_argument(
        "--grid",
        default="1,2,5,10,15,20,30,40,50",
        help="comma-separated a_v values; both error-rate strategies are run",
    )
    sweep.add_argument("--k", type=int, default=None)
    _add_em_flags(sweep)
    sweep.add_argument("--out", default=None, help="CSV output (a_v,strategy,accuracy)")

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

    ev = sub.add_parser("eval", help="score a prediction file against ground truth")
    ev.add_argument("--labels", required=True, help="label file defining the id maps")
    ev.add_argument("--predictions", required=True, help="prediction file (question,label)")
    ev.add_argument("--truth", required=True)
    ev.add_argument("--k", type=int, default=None)

    return parser


def _add_em_flags(parser: argparse.ArgumentParser) -> None:
    """The BWA EM settings that ``aggregate`` and ``sweep`` both take."""
    parser.add_argument("--lambda", dest="lam", type=float, default=None)
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--max-iters", dest="max_iters", type=int, default=None)


def _given(args, *names: str) -> dict:
    """The options among ``names`` that the command line set."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _hyper_params(args) -> BwaHyperParams:
    overrides = _given(args, "a_v", "epsilon_strategy", "lam", "tolerance", "max_iters")
    return replace(PROFILES[args.profile], **overrides)


def _run(method: str, matrix, hp):
    """Run ``method`` on ``matrix`` (``hp`` is read by bwa alone): its
    result and the seconds it took."""
    started = time.perf_counter()
    if method == "mv":
        result = majority_vote(matrix)
    elif method == "ds":
        result = dawid_skene(matrix, DsParams())
    else:
        result = aggregate_multiclass(matrix, hp)
    elapsed = time.perf_counter() - started
    return result, elapsed


def _refuse_clashes(inputs, outputs) -> None:
    """Raise ``ValidationError`` if an output path names the same file as
    an input or as an earlier output: by ``os.path.samefile`` where both
    exist, and by ``os.path.realpath`` otherwise."""
    seen = [(path, "input") for path in inputs]
    for path in outputs:
        for other, role in seen:
            if (os.path.samefile(path, other) if os.path.exists(path) and os.path.exists(other)
                    else os.path.realpath(path) == os.path.realpath(other)):
                raise ValidationError(f"{path}: output is the same file as the {role} {other}")
        seen.append((path, "output"))


def cmd_aggregate(args) -> int:
    workers_csv, summary_json = f"{args.out}.workers.csv", f"{args.out}.summary.json"
    _refuse_clashes([args.labels],
                    [args.out, workers_csv, summary_json] if args.method == "bwa" else [args.out])
    matrix = load_labels(args.labels, num_classes=args.k)
    hp = _hyper_params(args) if args.method == "bwa" else None
    result, elapsed = _run(args.method, matrix, hp)
    save_predictions(result.hard_labels, matrix, args.out)
    if args.method == "mv":
        tied = int(result.is_tied.sum())
        if tied:
            print(f"warning: {tied} items had tied top votes and went to the "
                  "smallest class index", file=sys.stderr)
    elif args.method == "ds":
        print(
            f"ds: {result.iterations} iterations, converged={result.converged} "
            f"runtime={elapsed:.3f}s",
            file=sys.stderr,
        )
    else:
        _write_worker_diagnostics(workers_csv, matrix, result.worker_weights)
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
        Path(summary_json).write_text(
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
    if args.out:
        _refuse_clashes([path for _, *files in datasets for path in files], [args.out])

    loaded = []
    for name, label_file, truth_file in datasets:
        matrix = load_labels(label_file)
        loaded.append((name, matrix, _load_truth(truth_file, matrix)))

    runs = []
    for name, matrix, truth in loaded:
        for token, method, hp in methods:
            result, elapsed = _run(method, matrix, hp)
            runs.append((token, name, result.hard_labels, truth, elapsed))
            print(f"{name} / {token}: {elapsed:.3f}s", file=sys.stderr)

    report = build_report(runs, baseline=baseline)
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
    print(report.format_table())
    return 0


def cmd_sweep(args) -> int:
    if args.out:
        _refuse_clashes([args.labels, args.truth], [args.out])
    matrix = load_labels(args.labels, num_classes=args.k)
    truth = _load_truth(args.truth, matrix)
    grid = [float(v) for v in args.grid.split(",") if v.strip()]
    if not grid:
        raise ValidationError("empty a_v grid")

    settings = _given(args, "lam", "tolerance", "max_iters")
    # every setting is checked before the first run
    runs = [BwaHyperParams(a_v=a_v, epsilon_strategy=strategy, **settings)
            for a_v in grid for strategy in ("original", "adjusted")]
    lines = ["a_v,strategy,accuracy"]
    for hp in runs:
        acc = accuracy(aggregate_multiclass(matrix, hp).hard_labels, truth)
        lines.append(f"{hp.a_v:g},{hp.epsilon_strategy},{acc!r}")
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
    _refuse_clashes([], [args.out_labels, args.out_truth])
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
