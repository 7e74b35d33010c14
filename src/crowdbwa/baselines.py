"""Reference aggregators: majority vote and Dawid-Skene.

Majority vote gives every worker an equal say. Dawid-Skene models each
worker with a full K-by-K confusion matrix, fitted by maximum-likelihood
EM with a little additive smoothing so sparse data cannot zero out a
confusion cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabelMatrix, vote_counts


@dataclass(frozen=True)
class MajorityVoteResult:
    labels: np.ndarray        # per-item winning class (ties -> smallest index)
    is_unlabeled: np.ndarray  # items with no votes at all (reported as class 0)


@dataclass(frozen=True)
class DsParams:
    """Knobs for the Dawid-Skene EM fit."""

    max_iters: int = 100
    tolerance: float = 1e-4   # max change in any class posterior
    smoothing: float = 0.01   # pseudo-count per confusion cell / prior count

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not self.smoothing > 0:
            raise ValueError("smoothing must be positive")


@dataclass(frozen=True)
class DawidSkeneResult:
    hard_labels: np.ndarray      # argmax posterior, ties -> smallest index
    posteriors: np.ndarray       # (num_items, num_classes), rows sum to 1
    class_priors: np.ndarray
    confusion: np.ndarray        # (num_workers, true class, observed class)
    objective_trace: np.ndarray  # smoothed log posterior per iteration
    converged: bool
    iterations: int


def majority_vote(matrix: LabelMatrix) -> MajorityVoteResult:
    """Per item, the class with the most votes; ties go to the smallest index.

    Items nobody labelled are flagged and reported as class 0.
    """
    counts = vote_counts(matrix)
    labels = np.argmax(counts.counts, axis=1).astype(np.int64)
    return MajorityVoteResult(labels=labels, is_unlabeled=counts.totals == 0)


def dawid_skene(matrix: LabelMatrix, params: DsParams = DsParams()) -> DawidSkeneResult:
    """Fit per-worker confusion matrices and class priors by EM.

    Class posteriors start from the soft majority vote (uniform for
    unlabelled items). Every M-step adds ``params.smoothing`` to each
    confusion-matrix cell and class-prior count, which makes the fit a
    MAP estimate under weak Dirichlet priors; ``objective_trace`` logs
    the corresponding smoothed log posterior, which is non-decreasing.
    Deterministic throughout.
    """
    if matrix.num_classes < 2:
        raise ValueError("Dawid-Skene needs at least 2 classes")
    n, w, k = matrix.num_items, matrix.num_workers, matrix.num_classes
    items, workers, labels = matrix.items, matrix.workers, matrix.labels
    s = params.smoothing

    counts = vote_counts(matrix).counts.astype(np.float64)
    totals = counts.sum(axis=1)
    posteriors = np.where(
        totals[:, None] > 0, counts / np.maximum(totals, 1)[:, None], 1.0 / k
    )

    cell = workers * k + labels  # (worker, observed class) confusion row
    trace = []
    converged = False
    iterations = 0
    confusion = np.full((w, k, k), 1.0 / k)
    priors = np.full(k, 1.0 / k)
    for iterations in range(1, params.max_iters + 1):
        # M-step: smoothed class priors and confusion rows; one bincount
        # per true class keeps the temporaries at one label-length array.
        priors = (posteriors.sum(axis=0) + s) / (n + k * s)
        flat = np.stack([np.bincount(cell, posteriors[items, c], w * k) for c in range(k)])
        confusion = flat.reshape(k, w, k).transpose(1, 0, 2) + s
        confusion = confusion / confusion.sum(axis=2, keepdims=True)
        log_confusion = np.log(confusion)

        # E-step in log space.
        log_like = np.log(priors) + np.stack(
            [np.bincount(items, log_confusion[:, c, :].ravel()[cell], n) for c in range(k)],
            axis=1,
        )
        shift = log_like.max(axis=1, keepdims=True)
        unnorm = np.exp(log_like - shift)
        new_posteriors = unnorm / unnorm.sum(axis=1, keepdims=True)

        log_marginal = float((shift[:, 0] + np.log(unnorm.sum(axis=1))).sum())
        trace.append(
            log_marginal
            + s * float(log_confusion.sum())
            + s * float(np.log(priors).sum())
        )

        delta = float(np.abs(new_posteriors - posteriors).max())
        posteriors = new_posteriors
        if delta <= params.tolerance:
            converged = True
            break

    return DawidSkeneResult(
        hard_labels=np.argmax(posteriors, axis=1).astype(np.int64),
        posteriors=posteriors,
        class_priors=priors,
        confusion=confusion,
        objective_trace=np.array(trace),
        converged=converged,
        iterations=iterations,
    )
