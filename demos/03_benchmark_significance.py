"""Benchmarking aggregators with a paired significance test.

Mean accuracy across datasets hides whether a method wins consistently
or just occasionally by a lot. The report therefore pairs each method
with majority vote per dataset and runs a one-sided signed-rank test:
zero differences are discarded, the remaining differences are ranked by
magnitude, and W- sums the ranks of the datasets where the method
loses. Consistently small losses give a small W- and a small p.

Run:  python demos/03_benchmark_significance.py
"""

import time

import numpy as np

from crowdbwa import (
    PROFILES,
    SynthSpec,
    build_report,
    dawid_skene,
    generate,
    majority_vote,
    aggregate_multiclass,
    wilcoxon_one_sided,
)

# ---------------------------------------------------------------------------
# Twelve simulated datasets of varying difficulty and class count.
# ---------------------------------------------------------------------------

datasets = {}
rng = np.random.default_rng(7)
for n in range(12):
    k = int(rng.choice([2, 2, 3, 4]))
    lo = float(rng.uniform(0.3, 0.6))
    spec = SynthSpec(
        num_items=int(rng.integers(300, 800)),
        num_workers=int(rng.integers(20, 60)),
        num_classes=k,
        redundancy=int(rng.integers(3, 7)),
        seed=n,
        accuracy_range=(lo, min(lo + 0.4, 0.97)),
    )
    datasets[f"synth{n:02d}"] = generate(spec)

# ---------------------------------------------------------------------------
# Run every method on every dataset, timing the aggregation call.
# ---------------------------------------------------------------------------

methods = {
    "mv": lambda m: majority_vote(m).hard_labels,
    "ds": lambda m: dawid_skene(m).hard_labels,
    "bwa:av30-original": lambda m: aggregate_multiclass(m, PROFILES["av30-original"]).hard_labels,
    "bwa:av15-adjusted": lambda m: aggregate_multiclass(m, PROFILES["av15-adjusted"]).hard_labels,
}

runs = []
for name, (matrix, truth) in datasets.items():
    for method, fn in methods.items():
        started = time.perf_counter()
        predictions = fn(matrix)
        runs.append((method, name, predictions, truth, time.perf_counter() - started))

report = build_report(runs, baseline="mv")
print(report.format_table())

# ---------------------------------------------------------------------------
# The same test by hand, to see the machinery: exact tail vs normal
# approximation for the a_v=15 profile.
# ---------------------------------------------------------------------------

acc = {(s.method, s.dataset): s.accuracy for s in report.scores}
diffs = [acc[("bwa:av15-adjusted", d)] - acc[("mv", d)] for d in sorted(datasets)]
result = wilcoxon_one_sided(diffs)
print(f"\nbwa:av15-adjusted vs mv: N_r={result.n_r}, W-={result.w_minus:.1f}")
print(f"normal approximation p = {result.p_approx:.4f}")
print(f"exact tail            p = {result.p_exact:.4f}")
