"""End-to-end benchmark of the crowdbwa command line.

Usage, from the root of a source checkout::

    python3 crowdbench/run.py --workload crowd-k2 --seed 1 --seconds 5 --trace 0

Writes the workload's seeded label and truth files under
``crowdbench/work/<workload>/``, times ``import crowdbwa.cli`` in fresh
interpreters, then runs ``synth`` and ``aggregate --method mv|ds|bwa``
in one worker process (``worker.py``) that calls ``crowdbwa.cli.main``
in-process, for whole rounds until ``--seconds`` have passed. Every
output is checked here against ``reference.py``, which never imports
crowdbwa. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, and with ``--trace 1`` the per-layer metrics of one more
round run under ``tracing.Tracer``, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent

#: Fresh interpreters timed per run for ``setup_s``, besides the worker's
#: own import; the median of all of them is reported.
SETUP_REPEATS = 5

#: Items of each ``synth`` output replayed draw by draw.
SYNTH_PREFIX_ITEMS = 200

#: Wall-clock budget of a whole run, below the 180 s a run may take.
RUN_BUDGET_S = 170

COMMANDS = ("synth", "mv", "ds", "bwa")

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import crowdbwa.cli; "
    "print(time.perf_counter() - t)"
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "crowdbwa" / "cli.py").is_file():
        print(f"error: no crowdbwa sources under {root / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )

    work = HERE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    datasets = workloads.generate(args.workload, args.seed, work / "data")
    ops = plan_ops(datasets, args.seed, work / "out")
    phases = {"inputs": time.monotonic() - started}

    setups = [time_import(env, args.trace) for _ in range(SETUP_REPEATS)]
    phases["setup"] = time.monotonic() - started - sum(phases.values())

    plan = {"ops": [{k: op[k] for k in ("argv", "outputs")} for op in ops],
            "seconds": args.seconds, "trace": bool(args.trace)}
    (work / "plan.json").write_text(json.dumps(plan))
    result_path = work / "result.json"
    budget = RUN_BUDGET_S - (time.monotonic() - started)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(work / "plan.json"), str(result_path)],
        cwd=root, env=env, capture_output=True, text=True, timeout=budget,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    phases["commands"] = time.monotonic() - started - sum(phases.values())

    rounds = result["rounds"] + ([result["traced"]] if args.trace else [])
    failed_ops, accs = check(ops, result)
    attempted = sum(len(rnd) for rnd in rounds)
    failed = sum(1 for rnd in rounds for i, rec in enumerate(rnd)
                 if rec["code"] != 0 or i in failed_ops)
    phases["checks"] = time.monotonic() - started - sum(phases.values())
    print("phase seconds: " + ", ".join(f"{k} {v:.1f}" for k, v in phases.items()),
          file=sys.stderr)

    if args.trace:
        metrics = trace_metrics(ops, result, setups)
    else:
        imports = [s for s, _ in setups] + [result["import_s"]]
        metrics = {"setup_s": (statistics.median(imports), "s")}
        for cmd in COMMANDS:
            metrics[f"{cmd}_s"] = (command_seconds(ops, result["rounds"], cmd), "s")
        for method in ("bwa", "ds"):
            metrics[f"{method}_acc"] = (float(np.mean(accs[method])) if accs[method] else 0.0,
                                        "ratio")
        metrics["peak_rss_mb"] = (result["maxrss_kb"] / 1024.0, "MB")

    print(json.dumps({
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def plan_ops(datasets, seed, out: Path) -> list[dict]:
    """Per dataset, ``synth`` at its shape, then mv, ds and bwa on its label
    file. Interleaving by dataset spreads every command's runs over the
    round."""
    ops = []
    for index, ds in enumerate(datasets):
        s = ds.shape
        d = out / s.name
        d.mkdir(parents=True, exist_ok=True)
        labels, truth = str(d / "synth-labels.csv"), str(d / "synth-truth.csv")
        ops.append({
            "metric": "synth", "ds": ds,
            "argv": ["synth", "--items", str(s.items), "--workers", str(s.workers),
                     "--k", str(s.classes), "--redundancy", str(s.redundancy),
                     "--seed", str(seed + index), "--out-labels", labels,
                     "--out-truth", truth],
            "outputs": [labels, truth],
            "synth": (s.items, s.workers, s.classes, s.redundancy, seed + index),
        })
        for method in ("mv", "ds", "bwa"):
            pred = str(d / f"{method}.csv")
            ops.append({
                "metric": method, "ds": ds,
                "argv": ["aggregate", "--labels", str(ds.labels_file), "--method", method,
                         "--out", pred],
                "outputs": [pred] + ([pred + ".workers.csv"] if method == "bwa" else []),
            })
    return ops


def command_seconds(ops, rounds, cmd) -> float:
    """Sum over the command's ops of the median seconds of their runs."""
    return sum(statistics.median(rnd[i]["seconds"] for rnd in rounds)
               for i, op in enumerate(ops) if op["metric"] == cmd)


def time_import(env, trace: int) -> tuple[float, float | None]:
    """Seconds to ``import crowdbwa.cli`` in a fresh interpreter, and with
    ``trace`` the cumulative seconds of ``crowdbwa.evaluation`` in it."""
    flags = ["-X", "importtime"] if trace else []
    proc = subprocess.run([sys.executable, *flags, "-c", IMPORT_SNIPPET],
                          env=env, capture_output=True, text=True, check=True)
    evaluation = None
    if trace:
        m = re.search(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*crowdbwa\.evaluation$",
                      proc.stderr, re.MULTILINE)
        evaluation = int(m.group(1)) / 1e6
    return float(proc.stdout.strip().splitlines()[-1]), evaluation


def check(ops, result) -> tuple[set[int], dict[str, list[float]]]:
    """Indices of ops whose output failed a check, and accuracies per method.

    Every run of an op must reproduce the same output bytes, so the files
    on disk stand for all of them.
    """
    rounds = result["rounds"] + ([result["traced"]] if "traced" in result else [])
    bad = set()
    accs = {"bwa": [], "ds": []}
    for i, op in enumerate(ops):
        recs = [rnd[i] for rnd in rounds]
        argv = " ".join(op["argv"])
        if any(r["code"] != 0 for r in recs):
            for r in recs:
                if r["code"] != 0:
                    sys.stderr.write(f"{argv}: exit {r['code']}\n{r['stderr']}")
            bad.add(i)
            continue
        problems = []
        if len({r["digest"] for r in recs}) != 1:
            problems.append("output bytes differ between runs")
        problems += check_op(op, recs[-1]["stderr"], accs)
        if problems:
            bad.add(i)
            sys.stderr.write(f"{argv}:\n  " + "\n  ".join(problems) + "\n")
    return bad, accs


def check_op(op, stderr, accs) -> list[str]:
    ds = op["ds"]
    if op["metric"] == "synth":
        return reference.check_synth(*op["outputs"], *op["synth"], SYNTH_PREFIX_ITEMS)
    pred, problems = reference.read_predictions(op["outputs"][0], ds)
    if problems:
        return problems
    if op["metric"] == "mv":
        return reference.check_mv(pred, ds)
    accs[op["metric"]].append(reference.accuracy(pred, ds))
    if op["metric"] == "ds":
        return reference.check_ds(pred, stderr, ds)
    return reference.check_bwa(pred, op["outputs"][0] + ".summary.json", ds)


def trace_metrics(ops, result, setups) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced round, the seconds ``crowdbwa.evaluation``
    takes to import, and per command the tracing overhead and the share of
    its time that spans below ``cli`` cover."""
    spans = result["spans"]
    m, dur, self_s = tracing.layer_metrics(spans, result["rss"])
    m["evaluation.import_s"] = (statistics.median(e for _, e in setups), "s")
    bounds = result["traced_first_span"] + [len(spans)]
    for cmd in COMMANDS:
        idx = [i for i, op in enumerate(ops) if op["metric"] == cmd]
        traced = sum(result["traced"][i]["seconds"] for i in idx)
        total = sum(dur[bounds[i]] for i in idx)
        cli_self = sum(self_s[j] for i in idx for j in range(bounds[i], bounds[i + 1])
                       if spans[j][0].startswith("cli."))
        m[f"trace.{cmd}_overhead_s"] = (traced - command_seconds(ops, result["rounds"], cmd),
                                        "s")
        m[f"trace.{cmd}_covered"] = (float(1.0 - cli_self / total), "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m


if __name__ == "__main__":
    sys.exit(main())
