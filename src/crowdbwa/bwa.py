"""Bayesian weighted-average aggregation of crowd labels.

The binary model treats each item's latent truth ``z_i`` as a continuous
value in [0, 1] with a Gaussian prior (mean ``mu``, precision ``lam``),
and each worker's labels as Gaussian observations of ``z_i`` whose
precision ``v_j`` carries a conjugate Gamma(a_v/2, b_v/2) prior. The
hyper-parameters read as pseudo-counts: a worker is assumed to have
labelled ``a_v`` items before and made ``b_v`` mistakes.

Inference alternates two closed-form steps until the truth estimates
stop moving:

* expectation: ``E[v_j] = (a_v + |N_j|) / (b_v + SSE_j)``, a smoothed
  inverse error rate, where ``SSE_j`` is worker j's sum of squared
  errors against the current truth estimates;
* maximisation: ``z_i`` becomes the weighted arithmetic average of the
  prior mean and the item's labels (weights ``lam`` and ``E[v_j]``),
  after which ``mu`` is reset to the mean of all ``z_i``.

Multi-class tasks are handled one-versus-rest: the binary model scores
each class against the rest and the highest-scoring class wins.

No reduction depends on the order of its summands: whole-array sums are
correctly rounded (``_exact_total``, bit for bit ``math.fsum``), and
per-worker and per-item sums are pre-rounded onto a power-of-two grid on
which ``_group_sum`` adds without rounding (see ``_exact_sums``). Each
sum is thus a function of the multiset of its summands, so repeated runs
are bit-identical, relabelling items or workers permutes every output
without perturbing a single bit, and the order of the label rows does
not matter either. Every summand of those grouped sums is an entry of a
small table gathered per label (a worker's ``E[v_j]``, or one of an
item's two squared residuals ``z_i**2`` and ``(z_i - 1)**2``), so the
rounding is done on the table, once per entry, not once per label.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dataset import (BinaryView, LabelMatrix, _helper, _on_parts, _two_threads, binary_view,
                      vote_counts)

#: Denominator floor for the relative convergence test, which is
#: otherwise undefined at z_prev = 0.
REL_DIFF_FLOOR = 1e-8

#: Lower clamp on the error rate, so the prior mistake count b_v stays positive.
EPSILON_FLOOR = 1e-6

EPSILON_STRATEGIES = ("original", "adjusted", "fixed")

#: The one-versus-rest label values, as a column against a row of z.
_LABEL_VALUES = np.array([[0.0], [1.0]])


@dataclass(frozen=True)
class BwaHyperParams:
    """Hyper-parameters of the weighted-average model.

    ``a_v``/``b_v`` are the prior pseudo-counts of items labelled and
    mistakes made. ``b_v`` is usually derived from the data error rate
    (strategy ``"original"`` uses the rate as estimated, ``"adjusted"``
    rescales it by ``4 * (1 - 1/K)`` so a worst-case worker is believed
    to be no better than random guessing); strategy ``"fixed"`` takes
    ``b_v`` verbatim.
    """

    lam: float = 1.0
    a_v: float = 15.0
    b_v: float | None = None
    epsilon_strategy: str = "adjusted"
    tolerance: float = 1e-3
    max_iters: int = 500

    def __post_init__(self):
        if self.epsilon_strategy not in EPSILON_STRATEGIES:
            raise ValueError(
                f"epsilon_strategy must be one of {EPSILON_STRATEGIES}, "
                f"got {self.epsilon_strategy!r}"
            )
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        if not 0 < self.a_v < math.inf:
            raise ValueError("a_v must be positive and finite")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.epsilon_strategy == "fixed":
            if self.b_v is None or not 0 < self.b_v < math.inf:
                raise ValueError("strategy 'fixed' requires a positive, finite b_v")
        elif self.b_v is not None:
            raise ValueError(
                "b_v is derived from the data unless epsilon_strategy='fixed'"
            )


#: The two hyper-parameter profiles exposed by the command line.
PROFILES = {
    "av30-original": BwaHyperParams(a_v=30.0, epsilon_strategy="original"),
    "av15-adjusted": BwaHyperParams(a_v=15.0, epsilon_strategy="adjusted"),
}


@dataclass
class BwaState:
    """Mutable inference state for one binary run."""

    z: np.ndarray       # per-item truth estimate in [0, 1]
    mu: float           # prior mean, mean of z
    eqv: np.ndarray     # per-worker expected precision E[v_j]
    sse: np.ndarray     # per-worker sum of squared errors at z
    nll: float          # objective value at (z, mu), additive constant dropped


@dataclass(frozen=True)
class BinaryResult:
    """Converged binary aggregation."""

    scores: np.ndarray
    hard_labels: np.ndarray
    mu: float
    worker_weights: np.ndarray
    nll_trace: np.ndarray
    converged: bool
    iterations: int
    rel_trace: np.ndarray  # per iteration, the max relative change in z the stopping rule reads


@dataclass(frozen=True)
class MultiClassResult:
    """One-versus-rest aggregation over all classes."""

    score_matrix: np.ndarray        # (num_classes, num_items)
    hard_labels: np.ndarray         # per item, argmax class (ties -> smallest)
    per_class: tuple[BinaryResult, ...]
    worker_weights: np.ndarray      # mean E[v_j] across the class runs
    epsilon: float                  # error rate used to derive b_v
    b_v: float


# ---------------------------------------------------------------------------
# exact reductions
# ---------------------------------------------------------------------------


def _exact_sums(table, used, index, groups, num_groups: int,
                max_group_size: int) -> np.ndarray:
    """Per-group sums of ``x = table[index]`` that do not depend on the order.

    Summand ``n`` is ``table[index[n]]`` and belongs to group ``groups[n]``.

    Pre-rounded summation (Demmel & Nguyen, "Fast Reproducible
    Floating-Point Summation", ARITH 2013). Each summand is split into
    two folds, each rounded onto a power-of-two grid ``q`` by adding and
    subtracting ``1.5 * 2**52 * q``. The first grid is chosen from max|x|
    and ``max_group_size`` so that no group's partial sum spans more
    than 2**53 grid steps, and the second from the first's rounding
    error in the same way. Every partial sum of a fold is then exact, so
    ``_group_sum`` adds in any order without rounding, and each group's
    result depends only on the multiset of its summands (plus max|x| and
    ``max_group_size``, which relabelling or reordering the summands
    leaves alone). What the two folds leave out is at most
    ``max_group_size**2 * 2**-102 * max|x|`` per summand. The grid never
    drops below 2**-1074, the spacing of subnormal doubles, so it cannot
    underflow and subnormal summands are kept exactly.

    The folds are elementwise, so they are taken once per table entry
    and gathered per summand, which gives the same values as folding
    ``x`` itself. max|x| is taken over the entries whose ``used`` count
    is nonzero, those ``index`` refers to, so unused entries leave the
    grid where ``x`` puts it. The two folds are the real and imaginary
    parts of one complex table, so one ``_group_sum`` pass sums both.
    """
    sums = _group_sum(groups, _folds(table, _grid(table, used, max_group_size),
                                     max_group_size), index, num_groups)
    return sums.real + sums.imag


#: Labels ``_group_sum`` gathers at a time.
_GATHER_CHUNK = 1 << 16


def _group_sum(groups, table, index, n: int) -> np.ndarray:
    """Per group, the sum of ``table[index]``: bit for bit
    ``np.bincount(groups, table[index], n)``, adding in the same order.

    A complex ``table`` gives a complex sum whose real and imaginary parts
    are each added on their own, in the same order, so each part is bit
    for bit the float sum of that part of ``table``: one pass sums two
    float tables. It holds only the output and one chunk of gathered
    summands. Unlike ``np.bincount``, ``np.add.at`` reads a read-only
    ``groups`` in place, without copying it, and every group index EM
    passes is read-only.
    """
    out = np.zeros(n, table.dtype)
    for start in range(0, groups.size, _GATHER_CHUNK):
        part = slice(start, start + _GATHER_CHUNK)
        np.add.at(out, groups[part], table[index[part]])
    return out


def _grid(table, used, max_group_size: int) -> int:
    """The exponent of ``_exact_sums``' first grid for ``table``'s entries of
    nonzero ``used``: ``max_group_size`` times max|x| stays below 2**53 steps."""
    top = float(np.where(used, np.abs(table), 0.0).max(initial=0.0))
    return max(math.frexp(top)[1] + max_group_size.bit_length() - 52, -1074)


def _folds(table, exp: int, max_group_size: int) -> np.ndarray:
    """One complex array: its real part is ``table`` rounded onto the grid
    ``2**exp``, and its imaginary part what that leaves rounded onto the
    next grid down."""
    folds = np.empty(table.shape, complex)
    fold, rest = folds.real, folds.imag
    _round_to_grid(table, exp, fold)
    np.subtract(table, fold, out=rest)
    step = max_group_size.bit_length() - 52
    _round_to_grid(rest, max(exp + step, -1074), rest)
    return folds


def _round_to_grid(x, exp: int, out=None) -> np.ndarray:
    """``x`` rounded to multiples of ``2**exp``, for ``|x| < 2**(exp + 51)``,
    into ``out`` if given."""
    shift = math.ldexp(1.5, exp + 52)
    out = np.add(x, shift, out=out)
    out -= shift
    return out


#: Up to this many summands ``math.fsum`` is faster than ``_exact_total``'s folds.
_FSUM_MAX_SIZE = 512


def _exact_total(x) -> float:
    """``math.fsum(x)``, without a Python float per element.

    ``x`` is peeled into folds on power-of-two grids, as in
    ``_exact_sums``, until nothing is left; each fold's ``np.sum`` is
    exact, so ``math.fsum`` of those few partial sums is the correctly
    rounded sum of ``x``, bit for bit what ``math.fsum`` returns. Small,
    huge or non-finite arrays go to ``math.fsum`` directly.
    """
    if x.size <= _FSUM_MAX_SIZE:
        return math.fsum(x.tolist())
    top = max(float(x.max()), -float(x.min()))
    if not top < 2.0**960:
        return math.fsum(x.tolist())
    step = x.size.bit_length() - 52
    partials = []
    while top > 0.0:
        fold = _round_to_grid(x, max(math.frexp(top)[1] + step, -1074))
        partials.append(float(fold.sum()))
        x = x - fold
        top = max(float(x.max()), -float(x.min()))
    return math.fsum(partials)


# ---------------------------------------------------------------------------
# error-rate machinery for setting b_v
# ---------------------------------------------------------------------------


def estimate_error_rate(matrix: LabelMatrix) -> float:
    """Overall error rate of the crowd against its own soft majority vote.

    Pooled over the one-versus-rest views: each item/class cell with
    ``n`` of the item's ``m`` workers voting for the class contributes
    ``n * (m - n) / m`` disagreement mass. For two classes this is the
    classic ``sum_i n_i0 n_i1 / (n_i0 + n_i1)`` over the total label
    count. The raw value never exceeds 1/4; it is clamped below at
    ``EPSILON_FLOOR`` so downstream pseudo-counts stay positive.

    The pooled mass is divided by the declared class count, so a class
    no worker used (one added by ``--k``, or a gap in integer labels)
    dilutes the estimate, and ``b_v`` with it: binary labels declared
    as 3 classes give 2/3 of the 2-class value.
    """
    counts = vote_counts(matrix).astype(np.float64)
    totals = matrix.labels_per_item[:, None]
    per_cell = counts * (totals - counts) / totals
    raw = _exact_total(per_cell.ravel()) / (matrix.num_classes * matrix.num_labels)
    return max(raw, EPSILON_FLOOR)


def adjust_error_rate(epsilon: float, num_classes: int) -> float:
    """Rescale a raw error rate by ``4 * (1 - 1/K)``.

    Extends the estimate's natural [0, 1/4] range to [0, 1 - 1/K], the
    error rate of a random guesser over K classes (doubling, at K=2).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if num_classes < 2:
        raise ValueError("num_classes must be at least 2")
    return epsilon * 4.0 * (1.0 - 1.0 / num_classes)


def derive_bv(a_v: float, epsilon: float) -> float:
    """Prior mistake count implied by an error rate: ``b_v = a_v * eps``."""
    if not a_v > 0:
        raise ValueError("a_v must be positive")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    b_v = a_v * max(epsilon, EPSILON_FLOOR)
    if b_v > a_v:
        warnings.warn(
            f"b_v={b_v:g} exceeds a_v={a_v:g}; workers may receive weights "
            "below 1, which rewards prolific error-makers",
            stacklevel=2,
        )
    return b_v


def resolve(hp: BwaHyperParams, matrix: LabelMatrix) -> BwaHyperParams:
    """Pin ``b_v`` for ``matrix``, returning a ``"fixed"``-strategy copy."""
    if hp.epsilon_strategy == "fixed":
        return hp
    eps = estimate_error_rate(matrix)
    if hp.epsilon_strategy == "adjusted":
        eps = adjust_error_rate(eps, matrix.num_classes)
    return replace(hp, b_v=derive_bv(hp.a_v, eps), epsilon_strategy="fixed")


# ---------------------------------------------------------------------------
# EM steps for the binary model
# ---------------------------------------------------------------------------


def _check_resolved(hp: BwaHyperParams) -> None:
    if hp.b_v is None:
        raise ValueError("b_v is unresolved; pass the hyper-parameters through resolve()")


def _expectation(z, view: BinaryView, hp) -> tuple[np.ndarray, np.ndarray]:
    """(SSE_j, E[v_j]) for every worker at truth estimates ``z``."""
    # the squared residual of a label y on item i: z_i**2, then (z_i - 1)**2
    table = z - _LABEL_VALUES
    table *= table
    m = view.matrix
    n_j = m.labels_per_worker
    sse = _exact_sums(table.ravel(), view.residual_counts, view.residual_index,
                      m.workers, m.num_workers, m.max_labels_per_worker)
    # Each squared residual is <= 1, so SSE_j <= |N_j|; clamp away any
    # overshoot from the last bits the sums drop, to preserve the
    # minimum-weight guarantee E[v_j] >= 1 when b_v <= a_v.
    np.minimum(sse, n_j, out=sse)
    eqv = (hp.a_v + n_j) / (hp.b_v + sse)
    return sse, eqv


def _objective(z, mu, sse, view: BinaryView, hp) -> float:
    """Negative log likelihood at (z, mu), additive constant dropped."""
    dev = z - mu
    item_term = 0.5 * hp.lam * _exact_total(dev * dev)
    worker_term = _exact_total(
        0.5 * (hp.a_v + view.matrix.labels_per_worker) * np.log(hp.b_v + sse)
    )
    return item_term + worker_term


def init_state(view: BinaryView, hp: BwaHyperParams) -> BwaState:
    """Start from the soft majority vote.

    ``z_i`` is the fraction of the item's workers voting for the focal
    class, ``mu`` the mean of those values;
    worker precisions follow from one expectation pass. Like every step,
    it needs ``hp`` resolved (``b_v`` set) and raises ``ValueError``
    otherwise.
    """
    _check_resolved(hp)
    m = view.matrix
    z = view.residual_counts[m.num_items:] / m.labels_per_item
    mu = _exact_total(z) / m.num_items
    sse, eqv = _expectation(z, view, hp)
    nll = _objective(z, mu, sse, view, hp)
    return BwaState(z=z, mu=mu, eqv=eqv, sse=sse, nll=nll)


def e_step(state: BwaState, view: BinaryView, hp: BwaHyperParams) -> BwaState:
    """Refresh worker error sums and expected precisions at the current z.

    Workers with no labels fall back to the prior mean ``a_v / b_v``.
    """
    _check_resolved(hp)
    sse, eqv = _expectation(state.z, view, hp)
    return replace(state, sse=sse, eqv=eqv)


def m_step(state: BwaState, view: BinaryView, hp: BwaHyperParams) -> BwaState:
    """Re-solve the truth estimates, then the prior mean.

    ``z_i`` is the weighted average of the previous ``mu`` (weight
    ``lam``) and the item's labels (weights ``E[v_j]``). The new ``mu``
    is the mean of the new ``z``. Updating sequentially keeps the
    objective non-increasing.
    """
    _check_resolved(hp)
    m, eqv, n = view.matrix, state.eqv, view.matrix.num_items
    size = m.max_labels_per_item
    exp = _grid(eqv, m.labels_per_worker, size)
    # Per fold (the real and imaginary parts), each item's E[v_j] summed
    # over its labels y = 0, then over its labels y = 1: two exact partial
    # sums of the item's group
    sums = _group_sum(view.residual_index, _folds(eqv, exp, size), m.workers, 2 * n)
    f, r = sums.real, sums.imag
    den = (f[:n] + f[n:]) + (r[:n] + r[n:])
    # only labels y = 1 add to the numerator: a subset of the denominator's
    # summands on the same grid, so z carries that one grid's rounding
    num = f[n:] + r[n:]
    z = (hp.lam * state.mu + num) / (hp.lam + den)
    # z is a convex combination of mu and {0,1} labels; clip the odd
    # one-ulp division overshoot so the [0,1] range invariant is exact.
    np.clip(z, 0.0, 1.0, out=z)
    mu = _exact_total(z) / m.num_items
    return replace(state, z=z, mu=mu)


def neg_log_likelihood(state: BwaState, view: BinaryView, hp: BwaHyperParams) -> float:
    """Objective value at the state's (z, mu), recomputing error sums."""
    _check_resolved(hp)
    sse, _ = _expectation(state.z, view, hp)
    return _objective(state.z, state.mu, sse, view, hp)


def run_em_binary(view: BinaryView, hp: BwaHyperParams) -> BinaryResult:
    """Alternate the two steps from the majority-vote start to convergence.

    Stops when every ``z_i`` moves by at most ``hp.tolerance`` relative
    to its previous value, or after ``hp.max_iters`` iterations (the
    result is then flagged unconverged, never an error). Hard labels
    threshold the scores at 0.5; an exact tie resolves to 0. The
    objective value after every iteration is recorded in ``nll_trace``
    and is non-increasing, and the stopping statistic in ``rel_trace``.
    Fully deterministic.
    """
    hp = resolve(hp, view.matrix)
    state = init_state(view, hp)
    trace = [state.nll]
    rel_trace = []
    converged = False
    iterations = 0
    for iterations in range(1, hp.max_iters + 1):
        z_prev = state.z
        state = m_step(state, view, hp)
        state = e_step(state, view, hp)
        state.nll = _objective(state.z, state.mu, state.sse, view, hp)
        trace.append(state.nll)
        rel = np.abs(state.z - z_prev) / np.maximum(np.abs(z_prev), REL_DIFF_FLOOR)
        rel_trace.append(float(rel.max()))
        if rel_trace[-1] <= hp.tolerance:
            converged = True
            break
    return BinaryResult(
        scores=state.z,
        hard_labels=(state.z > 0.5).astype(np.int64),
        mu=state.mu,
        worker_weights=state.eqv,
        nll_trace=np.array(trace),
        converged=converged,
        iterations=iterations,
        rel_trace=np.array(rel_trace),
    )


#: From this many labels up, ``aggregate_multiclass`` fits its classes on
#: two threads. On 2 cores a K=2 split took 1.43 times the sequential time
#: at 30k labels and 0.85 at 100k; at ``2**15`` the small corpus files
#: ran slower as a whole than at this gate.
_SPLIT_MIN_LABELS = 1 << 17


def aggregate_multiclass(matrix: LabelMatrix, hp: BwaHyperParams) -> MultiClassResult:
    """Score every class one-versus-rest and pick the per-item argmax.

    The error rate is estimated once from the full matrix and the
    resulting ``b_v`` is shared by all class runs. Ties in the argmax
    resolve to the smallest class index.

    The class runs share nothing but the read-only ``matrix``. Classes
    0, 2, 4, ... are the first part of ``_on_parts`` and 1, 3, 5, ... the
    second, with a helper from ``_SPLIT_MIN_LABELS`` labels up. Each class
    is computed by one thread from the same inputs, so the results are
    bit for bit the same either way. Each class's view is built by the
    thread that fits it, as its class starts, and freed once it is
    fitted; the grouped sums go through ``_group_sum``, which makes no
    copy of the read-only indexes and gathers the summands in chunks
    rather than one label-length array.
    """
    if matrix.num_classes < 2:
        raise ValueError("multi-class aggregation needs at least 2 classes")
    hp = resolve(hp, matrix)
    classes = range(matrix.num_classes)
    with _helper(_two_threads(matrix.num_labels, _SPLIT_MIN_LABELS)) as helper:
        even, odd = _on_parts(helper, _fit_classes, [classes[0::2], classes[1::2]],
                              matrix, hp)
    per_class = tuple(even[k // 2] if k % 2 == 0 else odd[k // 2] for k in classes)
    scores = np.stack([r.scores for r in per_class])
    weights = np.mean([r.worker_weights for r in per_class], axis=0)
    return MultiClassResult(
        score_matrix=scores,
        hard_labels=np.argmax(scores, axis=0).astype(np.int64),
        per_class=per_class,
        worker_weights=weights,
        epsilon=hp.b_v / hp.a_v,
        b_v=hp.b_v,
    )


def _fit_classes(classes, matrix: LabelMatrix, hp: BwaHyperParams) -> list[BinaryResult]:
    """``run_em_binary`` on each of ``classes``, one after another, each on
    its ``binary_view`` of ``matrix``, built as its class starts."""
    return [run_em_binary(binary_view(matrix, k), hp) for k in classes]


def worker_accuracy(v) -> np.ndarray | float:
    """Accuracy implied by a precision: ``sqrt(e^v) / (1 + sqrt(e^v))``.

    Maps precision 0 to 0.5 (a coin-flipping worker) and grows towards 1
    for highly precise workers. Diagnostic only; computed in the stable
    form ``1 / (1 + e^(-v/2))``.
    """
    arr = np.asarray(v, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("precision must be non-negative")
    acc = 1.0 / (1.0 + np.exp(-arr / 2.0))
    return float(acc) if np.isscalar(v) or arr.ndim == 0 else acc
