"""Reference aggregators: majority vote and Dawid-Skene.

Majority vote gives every worker an equal say. Dawid-Skene models each
worker with a full K-by-K confusion matrix, fitted by maximum-likelihood
EM with a little additive smoothing so sparse data cannot zero out a
confusion cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import LabelMatrix, vote_counts


@dataclass(frozen=True)
class MajorityVoteResult:
    hard_labels: np.ndarray   # per-item winning class (ties -> smallest index)
    is_tied: np.ndarray       # items whose top vote count 2+ classes share


@dataclass(frozen=True)
class DsParams:
    """Knobs for the Dawid-Skene EM fit.

    The 100-iteration cap is kept on purpose: on 4-class crowds DS usually
    stops there with ``converged=False``, after its hard labels have settled.
    """

    max_iters: int = 100
    tolerance: float = 1e-4   # max change in any class posterior
    smoothing: float = 0.01   # pseudo-count per confusion cell / prior count

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not 0 < self.smoothing < math.inf:
            raise ValueError("smoothing must be positive and finite")


@dataclass(frozen=True)
class DawidSkeneResult:
    hard_labels: np.ndarray      # argmax posterior, ties -> smallest index
    posteriors: np.ndarray       # (num_items, num_classes), rows sum to 1
    class_priors: np.ndarray
    confusion: np.ndarray        # (num_workers, true class, observed class)
    objective_trace: np.ndarray  # smoothed log posterior per iteration
    converged: bool
    iterations: int
    # max posterior change per iteration; the last entry is <= tolerance
    # exactly when converged
    delta_trace: np.ndarray


def majority_vote(matrix: LabelMatrix) -> MajorityVoteResult:
    """Per item, the class with the most votes; ties go to the smallest
    index, and the items they decide are flagged."""
    counts = vote_counts(matrix)
    labels = np.argmax(counts, axis=1)
    top = np.take_along_axis(counts, labels[:, None], axis=1)
    is_tied = np.count_nonzero(counts == top, axis=1) > 1
    return MajorityVoteResult(hard_labels=labels.astype(np.int64), is_tied=is_tied)


def dawid_skene(matrix: LabelMatrix, params: DsParams = DsParams()) -> DawidSkeneResult:
    """Fit per-worker confusion matrices and class priors by EM.

    Class posteriors start from the soft majority vote. Every M-step adds
    ``params.smoothing`` to each confusion-matrix cell and class-prior
    count, which makes the fit a MAP estimate under weak Dirichlet
    priors; ``objective_trace`` logs the corresponding smoothed log
    posterior, which is non-decreasing, and ``delta_trace`` the max
    posterior change the stopping rule reads. Deterministic throughout.
    """
    if matrix.num_classes < 2:
        raise ValueError("Dawid-Skene needs at least 2 classes")
    n, w, k = matrix.num_items, matrix.num_workers, matrix.num_classes
    items, workers, labels = matrix.items, matrix.workers, matrix.labels
    s = params.smoothing

    # Class-major state: posteriors[c] and log_odds[c] are contiguous rows of
    # length N, and every reduction over classes is elementwise across rows.
    counts = vote_counts(matrix).T.astype(np.float64, order="C")
    posteriors = counts / matrix.labels_per_item

    cell = workers * k + labels  # (worker, observed class) confusion row
    cell_count = np.bincount(cell, minlength=w * k).astype(np.float64)
    expected = np.empty((k, w * k))  # expected label counts per true class
    log_odds = np.zeros((k, n))  # against class 0, whose row stays 0
    trace, deltas = [], []
    converged = False
    for iterations in range(1, params.max_iters + 1):
        # M-step: smoothed priors and confusion[true, worker, observed]. Each
        # item's posteriors sum to 1, so class 0's expected counts are the
        # cell counts less the other classes'.
        priors = (posteriors.sum(axis=1) + s) / (n + k * s)
        for c in range(1, k):
            expected[c] = np.bincount(cell, posteriors[c][items], w * k)
        np.subtract(cell_count, expected[1:].sum(axis=0), out=expected[0])
        # the subtraction can leave -2e-15 where a count is 0; tiny smoothing
        # would not cover that before the log
        np.maximum(expected[0], 0.0, out=expected[0])
        confusion = expected.reshape(k, w, k) + s
        confusion /= confusion.sum(axis=2, keepdims=True)
        log_confusion = np.log(confusion).reshape(k, w * k)
        log_priors = np.log(priors)

        # E-step: the softmax needs only each class's log odds against class 0.
        for c in range(1, k):
            log_odds[c] = (log_priors[c] - log_priors[0]) + np.bincount(
                items, (log_confusion[c] - log_confusion[0])[cell], n)
        shift = log_odds.max(axis=0)
        new_posteriors = np.exp(log_odds - shift)
        total = new_posteriors.sum(axis=0)
        new_posteriors /= total

        # Class 0's log likelihood, summed over items, adds back to the odds.
        log_marginal = (n * float(log_priors[0]) + float(cell_count @ log_confusion[0])
                        + float((shift + np.log(total)).sum()))
        trace.append(log_marginal + s * float(log_confusion.sum() + log_priors.sum()))

        delta = float(np.abs(new_posteriors - posteriors).max())
        deltas.append(delta)
        posteriors = new_posteriors
        if delta <= params.tolerance:
            converged = True
            break

    return DawidSkeneResult(
        hard_labels=np.argmax(posteriors, axis=0).astype(np.int64),
        posteriors=posteriors.T,
        class_priors=priors,
        confusion=confusion.transpose(1, 0, 2),
        objective_trace=np.array(trace),
        converged=converged,
        iterations=iterations,
        delta_trace=np.array(deltas),
    )
