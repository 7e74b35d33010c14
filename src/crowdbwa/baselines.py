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

from .bwa import _group_sum
from .dataset import LabelMatrix, _helper, _on_parts, _two_threads, vote_counts

#: From this many labels up, ``dawid_skene`` splits each EM step over two
#: threads. Each step syncs the threads twice, so below it the hand-off
#: and the interpreter lock cost more than the split saves: forced open on
#: 2 cores, a fit took 46 ms against 22 ms unsplit at 15k labels, and 354
#: against 292 ms at 90k.
_SPLIT_MIN_LABELS = 1 << 17


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

    A crowd of ``_SPLIT_MIN_LABELS`` labels or more, in a process that may
    use two or more CPUs, splits each EM step into two halves of the label
    rows: for the M-step, halves that share no worker, and for the E-step,
    halves that share no item, which are each step's two parts of
    ``_on_parts``. Each half writes only its own workers' confusion rows
    or its own items' posteriors, and ``_group_sum`` adds each group's
    summands in label row order either way, so every output is bit for
    bit the same as an unsplit fit's. Every sum across workers or items
    stays with the caller, over the whole array.
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
    new_posteriors = np.empty_like(posteriors)

    cell = workers * k + labels  # (worker, observed class) confusion row
    cell_count = np.bincount(cell, minlength=w * k).astype(np.float64)
    # Parts are (first group, stop group, group index rebased to 0, the other
    # index), grouped by confusion row for the M-step and by item for the E-step.
    split = _two_threads(matrix.num_labels, _SPLIT_MIN_LABELS)
    if split:
        m_parts = [(start * k, stop * k, cell[rows] - start * k, items[rows])
                   for start, stop, rows in _halves(workers, matrix.labels_per_worker)]
        e_parts = [(start, stop, items[rows] - start, cell[rows])
                   for start, stop, rows in _halves(items, matrix.labels_per_item)]
        del cell
    else:
        m_parts, e_parts = [(0, w * k, cell, items)], [(0, n, items, cell)]

    expected = np.zeros((k, w * k))  # expected label counts per true class
    log_odds = np.zeros((k, n))  # against class 0, whose row stays 0
    log_normaliser = np.empty(n)  # per item, log of the softmax's denominator
    trace, deltas = [], []
    converged = False
    with _helper(split) as helper:
        for iterations in range(1, params.max_iters + 1):
            # M-step: smoothed priors and confusion[true, worker, observed].
            # Each item's posteriors sum to 1, so class 0's expected counts
            # are the cell counts less the other classes'.
            priors = (posteriors.sum(axis=1) + s) / (n + k * s)
            _on_parts(helper, _m_part, m_parts, posteriors, expected)
            np.subtract(cell_count, expected[1:].sum(axis=0), out=expected[0])
            # the subtraction can leave -2e-15 where a count is 0; tiny
            # smoothing would not cover that before the log
            np.maximum(expected[0], 0.0, out=expected[0])
            confusion = expected.reshape(k, w, k) + s
            confusion /= confusion.sum(axis=2, keepdims=True)
            log_confusion = np.log(confusion).reshape(k, w * k)
            log_priors = np.log(priors)

            # E-step: the softmax needs only each class's log odds against
            # class 0.
            part_deltas = _on_parts(
                helper, _e_part, e_parts, log_priors - log_priors[0],
                log_confusion - log_confusion[0], posteriors, new_posteriors, log_odds,
                log_normaliser)

            # Class 0's log likelihood, summed over items, adds back to the odds.
            # Not a BLAS dot: OpenBLAS splits a long one over its threads,
            # and the sum's bits would follow the thread count.
            log_marginal = (n * float(log_priors[0])
                            + float((cell_count * log_confusion[0]).sum())
                            + float(log_normaliser.sum()))
            trace.append(log_marginal + s * float(log_confusion.sum() + log_priors.sum()))

            delta = float(np.max(part_deltas))
            deltas.append(delta)
            posteriors, new_posteriors = new_posteriors, posteriors
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


def _halves(groups: np.ndarray, labels_per_group: np.ndarray):
    """Split the label rows into groups ``[0, cut)`` and ``[cut, G)``, where
    the first part holds the most groups whose labels are at most half, and
    keep each part's rows in order. Yields ``(start, stop, rows)`` for each
    part with a label."""
    cut = int(np.searchsorted(np.cumsum(labels_per_group), groups.size / 2, side="right"))
    below = groups < cut
    for start, stop, rows in ((0, cut, np.flatnonzero(below)),
                              (cut, labels_per_group.size, np.flatnonzero(~below))):
        if rows.size:
            yield start, stop, rows


def _m_part(part, posteriors, expected) -> None:
    """The expected counts of one part's confusion rows, for classes 1+."""
    start, stop, cells, items = part
    _class_sums(expected[:, start:stop], cells, posteriors, items)


def _e_part(part, log_prior_odds, log_confusion_odds, posteriors, new_posteriors,
            log_odds, log_normaliser) -> float:
    """One part's items: their log odds, new posteriors and log normalisers.
    Returns their largest posterior change."""
    start, stop, items, cells = part
    odds = log_odds[:, start:stop]
    _class_sums(odds, items, log_confusion_odds, cells)
    odds[1:] += log_prior_odds[1:, None]
    shift = odds.max(axis=0)
    new = new_posteriors[:, start:stop]
    np.exp(odds - shift, out=new)
    # class after class, as numpy sums axis 0 of two or more items; it would
    # sum a lone item's classes pairwise, and round differently
    total = sum(new[1:], new[0])
    new /= total
    np.add(shift, np.log(total), out=log_normaliser[start:stop])
    return float(np.abs(new - posteriors[:, start:stop]).max())


def _class_sums(out, groups, tables, index) -> None:
    """Per class ``c`` from 1 up, ``out[c]`` becomes each group's sum of
    ``tables[c][index]``, bit for bit ``np.bincount(groups, tables[c][index])``.

    Classes (1, 2), (3, 4), ... are summed two at a time, as the real and
    imaginary parts of one complex ``_group_sum`` pass; a class left over
    takes a float pass.
    """
    k, n = len(tables), out.shape[1]
    for c in range(1, k - 1, 2):
        pair = np.empty(tables.shape[1], complex)
        pair.real, pair.imag = tables[c], tables[c + 1]
        sums = _group_sum(groups, pair, index, n)
        out[c], out[c + 1] = sums.real, sums.imag
    if k % 2 == 0:
        out[k - 1] = _group_sum(groups, tables[k - 1], index, n)
