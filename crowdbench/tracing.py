"""Span tracing around the public functions of every crowdbwa module.

``Tracer.install`` replaces each public module-level function of
``crowdbwa.{cli,dataset,synthetic,bwa,baselines,evaluation}`` with a
timing wrapper, in every crowdbwa namespace that binds it (so
``cli``'s imported ``load_labels`` and ``bwa``'s own ``m_step`` are both
wrapped), and ``uninstall`` puts the originals back. The program's
source is not touched. Spans (name, start, end, parent, count) are kept
in memory; a background thread samples the resident set size every
``SAMPLE_S`` seconds so the peak memory of a span can be read off
afterwards, by ``layer_metrics``. Nothing here runs at import time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time

import numpy as np

MODULES = ("cli", "dataset", "synthetic", "bwa", "baselines", "evaluation")

#: Work counts read from a traced call's return value.
COUNTS = {
    "dataset.load_labels": lambda r: r.num_labels,
    "synthetic.generate": lambda r: r[0].num_labels,
    "bwa.run_em_binary": lambda r: r.iterations,
    "baselines.dawid_skene": lambda r: r.iterations,
}

#: Spans whose peak resident memory is derived; they also take an RSS
#: sample just inside their start and end, so short calls have samples.
PEAKS = (
    "dataset.load_labels",
    "synthetic.generate",
    "bwa.aggregate_multiclass",
    "baselines.dawid_skene",
)

SAMPLE_S = 0.002

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, count]
        self.rss: list[tuple[float, int]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample, daemon=True)

    def install(self) -> None:
        package = importlib.import_module("crowdbwa")
        modules = [importlib.import_module(f"crowdbwa.{m}") for m in MODULES]
        namespaces = [package, *modules]
        for short, mod in zip(MODULES, modules):
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)
                            self._undo.append((ns, attr, fn))
        self._sampler.start()

    def uninstall(self) -> None:
        self._stop.set()
        self._sampler.join()
        for ns, attr, fn in reversed(self._undo):
            setattr(ns, attr, fn)
        self._undo.clear()

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_S):
            self.rss.append((time.perf_counter(), rss_bytes()))

    def _wrap(self, name, fn):
        spans, stack, rss = self.spans, self._stack, self.rss
        count = COUNTS.get(name)
        sample = name in PEAKS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                if sample:
                    rss.append((time.perf_counter(), rss_bytes()))
                result = fn(*args, **kwargs)
            finally:
                if sample:
                    rss.append((time.perf_counter(), rss_bytes()))
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(result)
            return result

        return traced


def layer_metrics(spans, rss):
    """Per-layer metrics from one traced round's spans and RSS samples,
    as ``{name: (value, unit)}``, plus each span's duration and self time.

    A span's self time is its duration minus its children's; a module's
    self time sums that over its spans. ``<function>_s`` sums the
    durations of that function's spans, which never nest in one another.
    """
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans])
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    nested = parent >= 0
    self_s = dur - np.bincount(parent[nested], dur[nested], minlength=len(spans))
    rss = np.array(rss, dtype=np.float64).reshape(-1, 2)

    def total(values, name):
        return float(sum(v for n, v in zip(names, values) if n == name))

    def peak_mb(name):
        """Highest RSS sampled while a span of ``name`` was open."""
        return max(rss[(rss[:, 0] >= s[1]) & (rss[:, 0] <= s[2]), 1].max()
                   for s in spans if s[0] == name) / 2**20

    m = {}
    for mod in ("cli", "dataset", "synthetic", "bwa", "baselines"):
        m[f"{mod}.self_s"] = (float(sum(
            v for n, v in zip(names, self_s) if n.startswith(mod + "."))), "s")
    for name in ("dataset.load_labels", "dataset.save_labels", "dataset.save_truth",
                 "dataset.vote_counts", "baselines.majority_vote", "synthetic.generate",
                 "bwa.resolve", "bwa.init_state", "bwa.m_step", "bwa.e_step",
                 "baselines.dawid_skene"):
        m[f"{name}_s"] = (total(dur, name), "s")
    m["bwa.run_em_binary_self_s"] = (total(self_s, "bwa.run_em_binary"), "s")
    counts = [s[4] or 0 for s in spans]
    m["dataset.labels_parsed"] = (total(counts, "dataset.load_labels"), "count")
    m["synthetic.labels_generated"] = (total(counts, "synthetic.generate"), "count")
    m["bwa.em_iterations"] = (total(counts, "bwa.run_em_binary"), "count")
    m["baselines.ds_iterations"] = (total(counts, "baselines.dawid_skene"), "count")
    for name in PEAKS:
        m[f"{name}_peak_mb"] = (peak_mb(name), "MB")
    return m, dur, self_s
