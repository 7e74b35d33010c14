"""Accuracy scoring and the one-sided Wilcoxon signed-rank comparison.

Methods are compared against majority vote per dataset. A method's
accuracy differences are ranked by magnitude (zero differences are
discarded, tied magnitudes share their average rank) and ``W_minus``
sums the ranks of the datasets where the method loses. Small ``W_minus``
is evidence the method beats the baseline; the one-sided p-value comes
from the normal approximation without continuity correction, plus an
exact tail computed from the rank-sign distribution when the effective
sample size permits.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

#: Largest effective sample size for which the exact tail is computed
#: (2^25 sign patterns; counted in closed form, not materialised).
EXACT_P_MAX_N = 25


@dataclass(frozen=True)
class WilcoxonResult:
    n_r: int            # effective sample size after discarding zeros
    w_minus: float      # rank sum over negative differences
    w_plus: float
    p_approx: float     # one-sided, normal approximation, no continuity correction
    p_exact: float | None

    def __post_init__(self):
        assert self.w_minus >= 0 and self.w_plus >= 0


@dataclass(frozen=True)
class RunScore:
    method: str
    dataset: str
    accuracy: float
    n_evaluated: int
    runtime_seconds: float


@dataclass(frozen=True)
class MethodSummary:
    method: str
    mean_accuracy: float
    wilcoxon: WilcoxonResult | None  # None for the baseline itself, or all-tie methods


@dataclass(frozen=True)
class EvalReport:
    """Per-run scores plus per-method summaries against the baseline."""

    scores: tuple[RunScore, ...]
    summaries: tuple[MethodSummary, ...]
    baseline: str

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "scores": [asdict(s) for s in self.scores],
            "summaries": [asdict(s) for s in self.summaries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def format_table(self) -> str:
        """Aligned plain-text rendering: accuracy grid plus summaries."""
        methods = [s.method for s in self.summaries]
        datasets = sorted({s.dataset for s in self.scores})
        acc = {(s.method, s.dataset): s.accuracy for s in self.scores}
        name_w = max([len(d) for d in datasets] + [len("dataset"), 7])
        col_w = max([len(m) for m in methods] + [8])

        lines = []
        header = "dataset".ljust(name_w) + "".join(
            f"  {m:>{col_w}}" for m in methods
        )
        lines.append(header)
        for d in datasets:
            cells = "".join(
                f"  {acc[(m, d)]:>{col_w}.4f}" if (m, d) in acc else f"  {'-':>{col_w}}"
                for m in methods
            )
            lines.append(d.ljust(name_w) + cells)
        lines.append("")
        lines.append(
            f"{'method':<{max(len(m) for m in methods) + 2}}"
            f"{'mean acc':>10}{'N_r':>6}{'W-':>8}{'p approx':>10}{'p exact':>10}"
        )
        for s in self.summaries:
            wx = s.wilcoxon
            lines.append(
                f"{s.method:<{max(len(m) for m in methods) + 2}}"
                f"{s.mean_accuracy:>10.4f}"
                + (
                    f"{wx.n_r:>6d}{wx.w_minus:>8.1f}{wx.p_approx:>10.4f}"
                    + (f"{wx.p_exact:>10.4f}" if wx.p_exact is not None else f"{'-':>10}")
                    if wx is not None
                    else f"{'-':>6}{'-':>8}{'-':>10}{'-':>10}"
                )
            )
        return "\n".join(lines)


def accuracy(predictions: np.ndarray, truth: tuple[np.ndarray, np.ndarray]) -> float:
    """Fraction of the truth's ``(items, labels)`` predicted correctly."""
    items, labels = truth
    if not items.size:
        raise ValueError("ground truth is empty")
    return float(np.mean(np.asarray(predictions)[items] == labels))


def wilcoxon_one_sided(diffs) -> WilcoxonResult:
    """Signed-rank test of per-dataset accuracy differences (method - baseline).

    Tests whether the method is better: small ``w_minus`` gives small p.
    Raises if every difference is zero (nothing to rank).
    """
    d = np.asarray(diffs, dtype=np.float64)
    nz = d[d != 0.0]
    if nz.size == 0:
        raise ValueError("all differences are zero; the test is undefined")
    n = int(nz.size)
    ranks = _average_ranks(np.abs(nz))
    w_minus = float(ranks[nz < 0].sum())
    w_plus = float(ranks[nz > 0].sum())
    p_exact = _exact_left_tail(ranks, w_minus) if n <= EXACT_P_MAX_N else None
    return WilcoxonResult(n_r=n, w_minus=w_minus, w_plus=w_plus,
                          p_approx=_approx_left_tail(n, w_minus), p_exact=p_exact)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; tied values share their average rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts  # 0-based rank of each distinct value's first copy
    return (starts + (counts + 1) / 2.0)[inverse]


def _approx_left_tail(n: int, w_observed: float) -> float:
    """P(W- <= observed) under the normal approximation, no continuity correction."""
    mean = n * (n + 1) / 4.0
    sd = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
    z = (w_observed - mean) / sd
    return 0.5 * math.erfc(-z * math.sqrt(0.5))  # the standard normal CDF at z


def _exact_left_tail(ranks: np.ndarray, w_observed: float) -> float:
    """P(W- <= observed) over all equally likely sign assignments.

    Counts, for every achievable rank sum, how many of the 2^n subsets
    of ranks attain it (ranks are doubled so tied half-integer average
    ranks become exact integers), then sums the tail. Equivalent to
    enumerating all 2^n assignments.
    """
    doubled = np.rint(2 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        counts[r:] += counts[: counts.size - r].copy()
    threshold = int(np.rint(2 * w_observed))
    favourable = int(counts[: threshold + 1].sum())
    return favourable / float(2 ** len(ranks))


def build_report(runs, baseline: str = "mv") -> EvalReport:
    """Assemble an evaluation report from raw benchmark runs.

    ``runs`` holds (method, dataset, predictions, truth, runtime_seconds)
    tuples. Every method is summarised by its mean accuracy and, except
    for the baseline, the signed-rank comparison against the baseline
    over the datasets both ran on. A method that ties the baseline
    everywhere gets no test (its summary carries ``wilcoxon=None``).
    """
    scores = []
    by_key: dict[tuple[str, str], float] = {}
    for method, ds, predictions, truth, runtime in runs:
        if (method, ds) in by_key:
            raise ValueError(f"duplicate run for method {method!r} on dataset {ds!r}")
        acc = accuracy(predictions, truth)
        by_key[(method, ds)] = acc
        scores.append(
            RunScore(
                method=method,
                dataset=ds,
                accuracy=acc,
                n_evaluated=truth[0].size,
                runtime_seconds=float(runtime),
            )
        )
    methods = sorted({s.method for s in scores})
    if baseline not in methods:
        raise ValueError(f"baseline method {baseline!r} missing from the runs")

    summaries = []
    for method in methods:
        accs = [s.accuracy for s in scores if s.method == method]
        wilcoxon = None
        if method != baseline:
            common = sorted(
                ds for (m, ds) in by_key if m == method and (baseline, ds) in by_key
            )
            diffs = np.array(
                [by_key[(method, ds)] - by_key[(baseline, ds)] for ds in common]
            )
            if diffs.size and np.any(diffs != 0.0):
                wilcoxon = wilcoxon_one_sided(diffs)
        summaries.append(
            MethodSummary(
                method=method,
                mean_accuracy=float(np.mean(accs)),
                wilcoxon=wilcoxon,
            )
        )
    return EvalReport(
        scores=tuple(sorted(scores, key=lambda s: (s.method, s.dataset))),
        summaries=tuple(summaries),
        baseline=baseline,
    )
