"""A first walk through label aggregation.

Five workers label eight yes/no questions with varying reliability. We
aggregate their conflicting answers three ways and look at what the
weighted-average model learns about each worker.

Run:  python demos/01_aggregation_basics.py
"""

import numpy as np

from crowdbwa import (
    PROFILES,
    LabelMatrix,
    aggregate_multiclass,
    dawid_skene,
    estimate_error_rate,
    majority_vote,
    worker_accuracy,
)

# ---------------------------------------------------------------------------
# A small crowd: alice and bob are careful, carol is average,
# dan answers "yes" to everything, and eve flips coins.
# ---------------------------------------------------------------------------

answers = {
    "alice": ["yes", "no", "yes", "yes", "no", "no", "yes", "no"],
    "bob":   ["yes", "no", "yes", "yes", "no", "no", "no", "no"],
    "carol": ["yes", "no", "no", "yes", "no", "yes", "yes", "no"],
    "dan":   ["yes", "yes", "yes", "yes", "yes", "yes", "yes", "yes"],
    "eve":   ["no", "yes", "yes", "no", "no", "yes", "yes", "no"],
}

rows = [
    (f"q{i}", worker, label)
    for worker, labels in answers.items()
    for i, label in enumerate(labels)
]
matrix = LabelMatrix.from_triples(rows)
print(f"{matrix.num_items} items, {matrix.num_workers} workers, "
      f"{matrix.num_labels} labels, classes={matrix.label_names}")

# ---------------------------------------------------------------------------
# Majority vote: every worker counts the same.
# ---------------------------------------------------------------------------

mv = majority_vote(matrix)
print("\nmajority vote: ", [matrix.label_names[k] for k in mv.hard_labels])

# ---------------------------------------------------------------------------
# The crowd's self-disagreement suggests how much to trust a worker a
# priori; it feeds the weighted-average model's prior.
# ---------------------------------------------------------------------------

print(f"\nestimated crowd error rate: {estimate_error_rate(matrix):.3f}")

bwa = aggregate_multiclass(matrix, PROFILES["av15-adjusted"])
print(f"bwa (a_v=15, adjusted): {[matrix.label_names[k] for k in bwa.hard_labels]}")
print(f"    classwise scores for q6: {np.round(bwa.score_matrix[:, 6], 3)}")

print("\nper-worker weight and implied accuracy:")
for j, weight in enumerate(bwa.worker_weights):
    print(f"    {matrix.worker_ids[j]:<6} weight {weight:6.2f} "
          f"accuracy {worker_accuracy(float(weight)):.3f}")

# ---------------------------------------------------------------------------
# Dawid-Skene fits a full confusion matrix per worker instead of a
# single weight; on tiny data its extra freedom can cut both ways.
# ---------------------------------------------------------------------------

ds = dawid_skene(matrix)
print(f"\ndawid-skene:   {[matrix.label_names[k] for k in ds.hard_labels]}")
print(f"dan's fitted confusion matrix (rows = true class):\n"
      f"{np.round(ds.confusion[matrix.worker_ids.index('dan')], 2)}")
