"""Recovering truth and worker quality from a simulated crowd.

A seeded simulator draws 50 workers with accuracies between 0.55 and
0.95 and has five of them label each of 2000 binary items. Because the
generator knows every worker's true accuracy, we can check not just the
aggregated labels but whether the model's inferred weights rank the
workers correctly.

Run:  python demos/02_synthetic_recovery.py
"""

import numpy as np

from crowdbwa import (
    PROFILES,
    SynthSpec,
    accuracy,
    aggregate_multiclass,
    dawid_skene,
    draw_worker_confusions,
    generate,
    majority_vote,
)

spec = SynthSpec(
    num_items=2000,
    num_workers=50,
    num_classes=2,
    redundancy=5,
    seed=20240901,
    accuracy_range=(0.55, 0.95),
)
matrix, truth = generate(spec)
true_accuracy = np.diagonal(draw_worker_confusions(spec), axis1=1, axis2=2)[:, 0]
print(f"simulated {matrix.num_labels} labels; "
      f"worker accuracies {true_accuracy.min():.2f}..{true_accuracy.max():.2f}")

# ---------------------------------------------------------------------------
# Aggregate with all three methods.
# ---------------------------------------------------------------------------

mv = majority_vote(matrix)
ds = dawid_skene(matrix)
bwa = aggregate_multiclass(matrix, PROFILES["av15-adjusted"])

print(f"\naccuracy  mv:  {accuracy(mv.hard_labels, truth):.4f}")
print(f"accuracy  ds:  {accuracy(ds.hard_labels, truth):.4f}")
print(f"accuracy  bwa: {accuracy(bwa.hard_labels, truth):.4f}")

# ---------------------------------------------------------------------------
# Weighting only helps if the weights track reality. Compare the
# inferred per-worker weights against the simulator's ground truth.
# ---------------------------------------------------------------------------

# Spearman's rho: the correlation of the two rank vectors (no ties here)
ranks = [np.argsort(np.argsort(x)) for x in (bwa.worker_weights, true_accuracy)]
rho = np.corrcoef(*ranks)[0, 1]
print(f"\nrank correlation of inferred weight vs true accuracy: {rho:.3f}")

order = np.argsort(bwa.worker_weights)
print("\n              least trusted        most trusted")
print("inferred:  " + "  ".join(matrix.worker_ids[j] for j in order[:3])
      + "   ...   " + "  ".join(matrix.worker_ids[j] for j in order[-3:]))
order_true = np.argsort(true_accuracy)
print("actual:    " + "  ".join(f"w{j}" for j in order_true[:3])
      + "   ...   " + "  ".join(f"w{j}" for j in order_true[-3:]))

# ---------------------------------------------------------------------------
# Where do the extra correct labels come from? Items whose vote was
# close (3-2 splits) are exactly where weighting changes the call.
# ---------------------------------------------------------------------------

counts = np.bincount(matrix.items * 2 + matrix.labels, minlength=2 * matrix.num_items)
margin = np.abs(counts[0::2] - counts[1::2])
items, labels = truth
close = margin[items] <= 1
close_truth = items[close], labels[close]
print(f"\non the {close.sum()} closest-vote items: mv {accuracy(mv.hard_labels, close_truth):.4f}, "
      f"bwa {accuracy(bwa.hard_labels, close_truth):.4f}")
