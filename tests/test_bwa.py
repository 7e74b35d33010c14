"""Unit behaviour of the weighted-average model's building blocks.

The step operations are exercised against hand-computed values; the EM
driver is checked against independent fixed-point iteration written out
inline, and against majority vote where the two provably coincide.
"""

import math
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from crowdbwa import baselines, bwa, dataset
from crowdbwa.baselines import majority_vote
from crowdbwa.bwa import (
    EPSILON_FLOOR,
    PROFILES,
    REL_DIFF_FLOOR,
    BwaHyperParams,
    _FSUM_MAX_SIZE,
    _exact_sums,
    _exact_total,
    _grid,
    _group_sum,
    adjust_error_rate,
    aggregate_multiclass,
    derive_bv,
    e_step,
    estimate_error_rate,
    init_state,
    m_step,
    neg_log_likelihood,
    resolve,
    run_em_binary,
    worker_accuracy,
)
from crowdbwa.dataset import LabelMatrix, ValidationError, binary_view, vote_counts
from crowdbwa.synthetic import SynthSpec, generate


def matrix_from(rows, **kwargs):
    return LabelMatrix.from_triples(rows, **kwargs)


def fixed_hp(a_v, b_v, **kwargs):
    return BwaHyperParams(a_v=a_v, b_v=b_v, epsilon_strategy="fixed", **kwargs)


def empty_matrix(num_items=1, num_classes=2):
    """A matrix with items but neither workers nor labels: building it
    raises, since every item of a LabelMatrix has a label."""
    return LabelMatrix(
        items=np.empty(0, dtype=np.int64),
        workers=np.empty(0, dtype=np.int64),
        labels=np.empty(0, dtype=np.int64),
        item_ids=tuple(f"q{i}" for i in range(num_items)),
        worker_ids=(),
        label_names=tuple(str(k) for k in range(num_classes)),
    )


# The gather-then-split EM that folding per-worker and per-item tables
# replaced, kept as the reference: every reduction splits the per-label
# summands themselves, and whole-array sums go through math.fsum.
def _reference_exact_sums(x, groups, num_groups, max_group_size):
    step = max_group_size.bit_length() - 52
    exp = math.frexp(float(np.abs(x).max(initial=0.0)))[1]
    sums = np.zeros(num_groups)
    for _ in range(2):
        exp = max(exp + step, -1074)
        shift = math.ldexp(1.5, exp + 52)
        fold = x + shift
        fold -= shift
        sums += np.bincount(groups, fold, num_groups)
        x = x - fold
    return sums


def _reference_resolve(hp, matrix):
    counts = np.bincount(matrix.items * matrix.num_classes + matrix.labels,
                         minlength=matrix.num_items * matrix.num_classes)
    counts = counts.reshape(matrix.num_items, matrix.num_classes).astype(np.float64)
    totals = counts.sum(axis=1)
    counts, totals = counts[totals > 0], totals[totals > 0]
    per_cell = counts * (totals[:, None] - counts) / totals[:, None]
    raw = math.fsum(per_cell.ravel().tolist()) / (matrix.num_classes * totals.sum())
    eps = max(raw, EPSILON_FLOOR)
    if hp.epsilon_strategy == "adjusted":
        eps = adjust_error_rate(eps, matrix.num_classes)
    return fixed_hp(hp.a_v, derive_bv(hp.a_v, eps), lam=hp.lam,
                    tolerance=hp.tolerance, max_iters=hp.max_iters)


def _indicator(view):
    """Per label, 1.0 if it is the view's focal class, else 0.0."""
    return (view.matrix.labels == view.focal_class).astype(np.float64)


def _reference_expectation(z, view, hp):
    m = view.matrix
    residuals = z[m.items] - _indicator(view)
    n_j = m.labels_per_worker
    sse = _reference_exact_sums(residuals * residuals, m.workers, m.num_workers,
                                m.max_labels_per_worker)
    np.minimum(sse, n_j, out=sse)
    return sse, (hp.a_v + n_j) / (hp.b_v + sse)


def _reference_objective(z, mu, sse, view, hp):
    dev = z - mu
    item_term = 0.5 * hp.lam * math.fsum((dev * dev).tolist())
    worker_term = math.fsum(
        (0.5 * (hp.a_v + view.matrix.labels_per_worker) * np.log(hp.b_v + sse)).tolist()
    )
    return item_term + worker_term


def _reference_m_step(z, mu, eqv, view, hp):
    m = view.matrix
    w = eqv[m.workers]
    size = m.max_labels_per_item
    den = _reference_exact_sums(w, m.items, m.num_items, size)
    num = _reference_exact_sums(w * _indicator(view), m.items, m.num_items, size)
    z = (hp.lam * mu + num) / (hp.lam + den)
    np.clip(z, 0.0, 1.0, out=z)
    return z, math.fsum(z.tolist()) / m.num_items


def _reference_run_em_binary(view, hp):
    """(scores, mu, worker weights, nll trace, converged, iterations)"""
    totals = view.matrix.labels_per_item
    positives = np.bincount(view.matrix.items, _indicator(view), view.matrix.num_items)
    z = np.where(totals > 0, positives / np.maximum(totals, 1), 0.5)
    mu = math.fsum(z.tolist()) / view.matrix.num_items
    sse, eqv = _reference_expectation(z, view, hp)
    trace = [_reference_objective(z, mu, sse, view, hp)]
    converged = False
    for iterations in range(1, hp.max_iters + 1):
        z_prev = z
        z, mu = _reference_m_step(z, mu, eqv, view, hp)
        sse, eqv = _reference_expectation(z, view, hp)
        trace.append(_reference_objective(z, mu, sse, view, hp))
        rel = np.abs(z - z_prev) / np.maximum(np.abs(z_prev), 1e-8)
        if float(rel.max()) <= hp.tolerance:
            converged = True
            break
    return z, mu, eqv, np.array(trace), converged, iterations


class TestErrorRate:
    def test_unanimous_data_hits_floor(self):
        m = matrix_from(
            [("q0", "w0", "1"), ("q0", "w1", "1"), ("q1", "w0", "0"), ("q1", "w1", "0")]
        )
        assert estimate_error_rate(m) == 1e-6

    def test_balanced_split_is_exactly_quarter(self):
        m = matrix_from(
            [("q0", "w0", "0"), ("q0", "w1", "0"), ("q0", "w2", "1"), ("q0", "w3", "1")]
        )
        assert estimate_error_rate(m) == 0.25

    def test_one_three_split(self):
        m = matrix_from(
            [("q0", "w0", "0"), ("q0", "w1", "1"), ("q0", "w2", "1"), ("q0", "w3", "1")]
        )
        assert estimate_error_rate(m) == 0.1875

    def test_three_class_pooled_value(self):
        # one item, labels {0,1,2}: each class view disagrees 1-vs-2,
        # contributing 2/3; total 2 over 3*3 pooled labels.
        m = matrix_from([("q0", "w0", "0"), ("q0", "w1", "1"), ("q0", "w2", "2")])
        assert estimate_error_rate(m) == pytest.approx(2.0 / 9.0, rel=1e-12)

    def test_no_labels_rejected(self):
        # a crowd without labels cannot be built, so it never reaches the estimate
        with pytest.raises(ValidationError, match="^item 'q0' has no label$"):
            estimate_error_rate(empty_matrix())

    def test_binary_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rows = [
                (f"q{i}", f"w{j}", str(rng.integers(2)))
                for i in range(rng.integers(1, 8))
                for j in rng.choice(10, size=rng.integers(1, 6), replace=False)
            ]
            m = matrix_from(rows, num_classes=2)
            assert estimate_error_rate(m) <= 0.25

    def test_phantom_class_dilutes_epsilon(self):
        # a declared class that no label uses still counts in the K that
        # divides the pooled mass, so K=3 on binary labels scales eps by 2/3
        m, _ = generate(SynthSpec(num_items=2000, num_workers=50, num_classes=2,
                                  redundancy=5, seed=3))
        wide = replace(m, label_names=("0", "1", "2"))
        eps = estimate_error_rate(m)
        assert eps == pytest.approx(0.14484, rel=1e-12)
        assert estimate_error_rate(wide) == pytest.approx(0.09656, rel=1e-12)
        assert estimate_error_rate(wide) == pytest.approx(eps * 2 / 3, rel=1e-12)
        hp = PROFILES["av30-original"]
        assert resolve(hp, wide).b_v == pytest.approx(resolve(hp, m).b_v * 2 / 3, rel=1e-12)


class TestAdjustErrorRate:
    def test_doubles_at_two_classes(self):
        assert adjust_error_rate(0.25, 2) == 0.5

    def test_zero_stays_zero(self):
        assert adjust_error_rate(0.0, 7) == 0.0

    def test_four_classes(self):
        assert adjust_error_rate(0.1875, 4) == 0.5625

    def test_validation(self):
        with pytest.raises(ValueError):
            adjust_error_rate(-0.1, 2)
        with pytest.raises(ValueError):
            adjust_error_rate(0.1, 1)


class TestDeriveBv:
    def test_products(self):
        assert derive_bv(30.0, 0.2) == pytest.approx(6.0, rel=1e-12)
        assert derive_bv(15.0, 0.5) == 7.5

    def test_zero_epsilon_clamped(self):
        assert derive_bv(15.0, 0.0) == pytest.approx(15e-6, rel=1e-12)

    def test_warns_when_mistakes_exceed_prior_items(self):
        with pytest.warns(UserWarning, match="exceeds a_v"):
            derive_bv(10.0, 1.5)

    @pytest.mark.parametrize("a_v, epsilon, message", [
        (0.0, 0.1, "^a_v must be positive$"), (math.nan, 0.1, "^a_v must be positive$"),
        (15.0, -0.1, "^epsilon must be non-negative$")])
    def test_validation(self, a_v, epsilon, message):
        with pytest.raises(ValueError, match=message):
            derive_bv(a_v, epsilon)


class TestHyperParams:
    def test_profiles(self):
        assert PROFILES["av30-original"].a_v == 30.0
        assert PROFILES["av30-original"].epsilon_strategy == "original"
        assert PROFILES["av15-adjusted"].a_v == 15.0
        assert PROFILES["av15-adjusted"].epsilon_strategy == "adjusted"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0},
            {"a_v": -1.0},
            {"tolerance": 0.0},
            {"max_iters": 0},
            {"epsilon_strategy": "bogus"},
            {"epsilon_strategy": "fixed"},          # b_v missing
            {"b_v": 1.0},                           # b_v without fixed strategy
            {"epsilon_strategy": "fixed", "b_v": 0.0},
            {"lam": math.inf},
            {"a_v": math.inf},
            {"epsilon_strategy": "fixed", "b_v": math.inf},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            BwaHyperParams(**kwargs)

    def test_infinite_tolerance_stops_after_one_iteration(self):
        m, _ = generate(SynthSpec(num_items=40, num_workers=6, num_classes=3,
                                  redundancy=3, seed=1))
        result = aggregate_multiclass(m, BwaHyperParams(tolerance=math.inf))
        assert [r.iterations for r in result.per_class] == [1, 1, 1]
        assert all(r.converged for r in result.per_class)
        assert np.isfinite(result.score_matrix).all()
        assert np.isfinite(result.worker_weights).all()

    def test_resolve_strategies(self):
        m = matrix_from(
            [("q0", "w0", "0"), ("q0", "w1", "0"), ("q0", "w2", "1"), ("q0", "w3", "1")]
        )
        original = resolve(BwaHyperParams(a_v=30.0, epsilon_strategy="original"), m)
        assert original.b_v == 30.0 * 0.25
        adjusted = resolve(BwaHyperParams(a_v=15.0, epsilon_strategy="adjusted"), m)
        assert adjusted.b_v == 15.0 * 0.5
        fixed = fixed_hp(10.0, 3.0)
        assert resolve(fixed, m) is fixed


class TestInitState:
    def test_vote_fraction(self):
        m = matrix_from([("q0", "w0", "1"), ("q0", "w1", "1"), ("q0", "w2", "0")])
        state = init_state(binary_view(m, 1), fixed_hp(15.0, 3.0))
        assert state.z[0] == pytest.approx(2.0 / 3.0)

    def test_unanimous_mean(self):
        m = matrix_from([("q0", "w0", "1"), ("q1", "w0", "1"), ("q1", "w1", "1")])
        state = init_state(binary_view(m, 1), fixed_hp(15.0, 3.0))
        assert state.mu == 1.0

    def test_counts_the_focal_labels_without_copying_the_index(self):
        num_items, redundancy = 2000, 200
        rng = np.random.default_rng(3)
        m = LabelMatrix(np.repeat(np.arange(num_items), redundancy),
                        np.tile(np.arange(redundancy), num_items),
                        rng.integers(0, 2, num_items * redundancy),
                        tuple(f"q{i}" for i in range(num_items)),
                        tuple(f"w{j}" for j in range(redundancy)), ("0", "1"))
        view = binary_view(m, 1)
        tracemalloc.start()
        try:
            state = init_state(view, fixed_hp(15.0, 3.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.z.tobytes() == (vote_counts(m)[:, 1] / redundancy).tobytes()
        # a copy of the read-only residual index alone takes 8 * num_labels
        assert peak < 4 * m.num_labels


class TestESteps:
    def test_prior_mean_for_idle_worker(self):
        m = matrix_from(
            [("q0", "w0", "1")], worker_ids=["w0", "idle"], num_classes=2
        )
        view = binary_view(m, 1)
        hp = fixed_hp(15.0, 3.0)
        state = e_step(init_state(view, hp), view, hp)
        assert state.eqv[1] == 5.0

    def test_perfect_worker_weight(self):
        rows = [(f"q{i}", "w0", "1") for i in range(10)]
        m = matrix_from(rows, num_classes=2)
        view = binary_view(m, 1)
        hp = fixed_hp(15.0, 3.0)
        state = init_state(view, hp)
        state.z = np.ones(10)
        state = e_step(state, view, hp)
        assert state.sse[0] == 0.0
        assert state.eqv[0] == pytest.approx(25.0 / 3.0, rel=1e-12)

    def test_all_wrong_worker_keeps_weight_one(self):
        rows = [(f"q{i}", "w0", "1") for i in range(10)]
        m = matrix_from(rows, num_classes=2)
        view = binary_view(m, 1)
        hp = fixed_hp(15.0, 15.0)
        state = init_state(view, hp)
        state.z = np.zeros(10)
        state = e_step(state, view, hp)
        assert state.sse[0] == 10.0
        assert state.eqv[0] == 1.0


class TestMStep:
    def _single_vote_state(self, weight):
        m = matrix_from([("q0", "w0", "1")], num_classes=2)
        view = binary_view(m, 1)
        hp = fixed_hp(15.0, 3.0, lam=1.0)
        state = init_state(view, hp)
        state.mu = 0.5
        state.eqv = np.array([weight])
        return m_step(state, view, hp)

    def test_single_unit_weight_vote(self):
        assert self._single_vote_state(1.0).z[0] == 0.75

    def test_single_weight_three_vote(self):
        assert self._single_vote_state(3.0).z[0] == 0.875

    def test_opposing_unit_votes_cancel(self):
        m = matrix_from([("q0", "w0", "0"), ("q0", "w1", "1")], num_classes=2)
        view = binary_view(m, 1)
        hp = fixed_hp(15.0, 3.0)
        state = init_state(view, hp)
        state.mu = 0.5
        state.eqv = np.array([1.0, 1.0])
        assert m_step(state, view, hp).z[0] == 0.5


def _two_sum_m_step_z(state, view, hp):
    """The m-step's z with the denominator and the numerator each summed
    by its own ``_exact_sums`` call, both on the denominator's grid."""
    m = view.matrix
    size = m.max_labels_per_item
    focal = m.labels == view.focal_class
    den = _exact_sums(state.eqv, m.labels_per_worker > 0, m.workers, m.items,
                      m.num_items, size)
    num = _exact_sums(state.eqv, m.labels_per_worker > 0, m.workers[focal], m.items[focal],
                      m.num_items, size)
    return np.clip((hp.lam * state.mu + num) / (hp.lam + den), 0.0, 1.0)


class TestMStepSharedGroupedSum:
    """The m-step takes the numerator from the denominator's grouped sum."""

    def test_top_worker_never_gives_the_focal_label(self):
        # the expert labels every item 0 with weight 2**62 and the others
        # weigh at most 1/3, so the focal labels are summed on the expert's grid
        rows = [(f"q{i}", "expert", "0") for i in range(6)]
        rows += [(f"q{i}", f"w{j}", str((i + j) % 2)) for i in range(6) for j in range(3)]
        m = matrix_from(rows, num_classes=2)
        view = binary_view(m, 1)
        hp = fixed_hp(15.0, 3.0)
        state = init_state(view, hp)
        state.eqv = np.array([2.0**62, 1 / 3, 0.1, 2 / 7])
        z = m_step(state, view, hp).z
        assert z.tobytes() == _two_sum_m_step_z(state, view, hp).tobytes()

    def test_expert_crowd_numerator_is_order_free(self):
        # the same expert crowd with its rows shuffled and its items relabelled
        rows = [(f"q{i}", "expert", "0") for i in range(6)]
        rows += [(f"q{i}", f"w{j}", str((i + j) % 2)) for i in range(6) for j in range(3)]
        workers = ["expert", "w0", "w1", "w2"]
        eqv = np.array([2.0**62, 1 / 3, 0.1, 2 / 7])
        rng = np.random.default_rng(5)
        shuffled = [rows[r] for r in rng.permutation(len(rows))]
        renamed = [f"q{i}" for i in rng.permutation(6)]
        hp = fixed_hp(15.0, 3.0)
        zs = []
        for m in (matrix_from(rows, worker_ids=workers, num_classes=2),
                  matrix_from(shuffled, item_ids=renamed, worker_ids=workers, num_classes=2)):
            view = binary_view(m, 1)
            state = init_state(view, hp)
            state.eqv = eqv
            z = m_step(state, view, hp).z
            zs.append(z[[m.item_index[f"q{i}"] for i in range(6)]])
        assert zs[0].tobytes() == zs[1].tobytes()

    @pytest.mark.parametrize("focal", [0, 1, 2])
    def test_shared_grid(self, focal):
        m = generate(SynthSpec(num_items=300, num_workers=20, num_classes=3, redundancy=5,
                               seed=41, accuracy_range=(0.4, 0.9)))[0]
        view = binary_view(m, focal)
        hp = resolve(PROFILES["av15-adjusted"], m)
        state = init_state(view, hp)
        for _ in range(3):
            z = m_step(state, view, hp).z
            assert z.tobytes() == _two_sum_m_step_z(state, view, hp).tobytes()
            state = e_step(m_step(state, view, hp), view, hp)


class TestNegLogLikelihood:
    @staticmethod
    def item_term(z, mu, hp):
        """The objective at (z, mu) for one item with one focal label, less
        the worker's closed-form term ``0.5 * (a_v + 1) * log(b_v + (z - 1)**2)``."""
        view = binary_view(matrix_from([("q0", "w0", "1")], num_classes=2), 1)
        state = init_state(view, hp)
        state.z, state.mu = np.array([z]), mu
        residual = z - 1.0
        worker_term = 0.5 * (hp.a_v + 1) * np.log(hp.b_v + residual * residual)
        return neg_log_likelihood(state, view, hp) - worker_term

    def test_zero_at_prior_mean_without_workers(self):
        assert self.item_term(0.3, 0.3, fixed_hp(15.0, 3.0)) == 0.0

    def test_prior_term_alone(self):
        # b_v + (z - 1)**2 = 1: the worker term is 0, so the item term is exact
        assert self.item_term(1.0, 0.0, fixed_hp(15.0, 1.0, lam=1.0)) == 0.5

    def test_lower_error_sums_score_better(self):
        m = matrix_from([("q0", "w0", "1")], num_classes=2)
        view = binary_view(m, 1)
        hp = fixed_hp(2.0, 1.0)
        near = init_state(view, hp)
        near.z, near.mu = np.array([0.9]), 0.5
        far = init_state(view, hp)
        far.z, far.mu = np.array([0.5]), 0.5
        # same prior deviation (0.4 vs 0.0 swapped into the worker term):
        # compare pure worker terms by holding mu equal to z
        near.mu = near.z[0]
        far.mu = far.z[0]
        assert neg_log_likelihood(near, view, hp) < neg_log_likelihood(far, view, hp)


class TestUnresolvedHyperParams:
    def test_steps_reject_unresolved_b_v(self):
        view = binary_view(matrix_from([("q0", "w0", "1"), ("q0", "w1", "0")]), 1)
        state = init_state(view, fixed_hp(15.0, 3.0))
        hp = PROFILES["av15-adjusted"]
        with pytest.raises(ValueError, match="resolve"):
            init_state(view, hp)
        for step in (e_step, m_step, neg_log_likelihood):
            with pytest.raises(ValueError, match="resolve"):
                step(state, view, hp)

    def test_run_em_binary_resolves_once_itself(self):
        m = generate(SynthSpec(num_items=40, num_workers=6, num_classes=2, redundancy=3,
                                 seed=2))[0]
        view = binary_view(m, 1)
        hp = PROFILES["av30-original"]
        own = run_em_binary(view, hp)
        given = run_em_binary(view, resolve(hp, m))
        assert np.array_equal(own.scores, given.scores)
        assert np.array_equal(own.nll_trace, given.nll_trace)


class TestExactSums:
    """Per-group sums must not depend on the order of the summands, and
    must match a correctly rounded sum of each group."""

    @staticmethod
    def check(x, groups, num_groups, seed=0):
        size = int(np.bincount(groups, minlength=num_groups).max(initial=0))
        every = np.ones(x.size, dtype=bool)

        def sums_of(x, groups):
            # each summand its own table entry
            return _exact_sums(x, every, np.arange(x.size), groups, num_groups, size)

        sums = sums_of(x, groups)
        assert sums.tobytes() == _reference_exact_sums(x, groups, num_groups, size).tobytes()
        rng = np.random.default_rng(seed)
        for _ in range(5):
            p = rng.permutation(x.size)
            assert sums_of(x[p], groups[p]).tobytes() == sums.tobytes()
        # the same summands gathered from a table of their distinct values,
        # next to entries that no summand uses and that dwarf max|x|
        values, index = np.unique(x, return_inverse=True)
        table = np.r_[values, 1e300, -1e300]
        used = np.r_[np.ones(values.size, dtype=bool), False, False]
        p = rng.permutation(x.size)
        gathered = _exact_sums(table, used, index[p], groups[p], num_groups, size)
        assert gathered.tobytes() == sums.tobytes()
        for g in range(num_groups):
            exact = math.fsum(x[groups == g].tolist())
            assert abs(sums[g] - exact) <= 1e-15 * abs(exact)
        return sums

    def test_zeros_and_empty_groups(self):
        sums = self.check(np.zeros(12), np.arange(12) % 3, 5)
        assert sums.tobytes() == np.zeros(5).tobytes()
        sums = self.check(np.array([0.25, 0.5, 0.0]), np.array([1, 1, 3]), 5)
        assert list(sums) == [0.0, 0.75, 0.0, 0.0, 0.0]

    def test_no_labels(self):
        empty = np.empty(0, dtype=np.int64)
        for table in (np.empty(0), np.array([0.5, 2.0])):
            unused = np.zeros(table.size, dtype=bool)
            assert list(_exact_sums(table, unused, empty, empty, 3, 0)) == [0.0] * 3

    def test_mixed_magnitudes(self):
        rng = np.random.default_rng(7)
        groups = rng.integers(0, 40, size=1500)
        x = 10.0 ** rng.uniform(-300, 0, size=groups.size)
        # one summand near the top of the range in every group, so each
        # group's sum is of the order of max|x|
        x[:40] = rng.uniform(0.5, 1.0, size=40)
        groups[:40] = np.arange(40)
        self.check(x, groups, 40)

    def test_large_group_near_its_bound(self):
        # 1023 summands close to max|x| bring the group's sum near
        # max_group_size * max|x|, the bound the grid is chosen for
        rng = np.random.default_rng(3)
        groups = np.r_[np.zeros(1023, dtype=np.int64), rng.integers(1, 3, size=977)]
        self.check(np.full(groups.size, 0.1), groups, 3)
        self.check(rng.uniform(0.5, 1.0, groups.size), groups, 3)

    def test_first_folds_that_cancel(self):
        # big and -big fold onto the first grid whole, and the small summands
        # fold onto it as 0, so each group's sum is the sum of its second
        # folds alone: only their rounding onto the second grid keeps that
        # sum from depending on the order
        rng = np.random.default_rng(5)
        big, num_groups, n = 2.0**60, 6, 20
        groups = np.repeat(np.arange(num_groups), 5 * n)
        x = np.concatenate([
            np.r_[np.full(n, big), np.full(n, -big),
                  rng.choice([-1.0, 1.0], 3 * n) * 10.0 ** rng.uniform(-8, 3, 3 * n)]
            for _ in range(num_groups)])
        size, every, rows = 5 * n, np.ones(x.size, dtype=bool), np.arange(x.size)
        sums = _exact_sums(x, every, rows, groups, num_groups, size)
        assert sums.tobytes() == _reference_exact_sums(x, groups, num_groups, size).tobytes()
        for _ in range(5):
            p = rng.permutation(x.size)
            assert _exact_sums(x[p], every, rows, groups[p], num_groups, size).tobytes() == (
                sums.tobytes())
        # what the folds leave out is bounded against max|x|, not the sum
        for g in range(num_groups):
            exact = math.fsum(x[groups == g].tolist())
            assert abs(sums[g] - exact) <= size**3 * 2.0**-102 * big

    def test_subnormals(self):
        rng = np.random.default_rng(11)
        tiny = np.nextafter(0.0, 1.0)
        groups = rng.integers(0, 6, size=200)
        x = rng.integers(1, 2**40, size=groups.size) * tiny
        sums = self.check(x, groups, 6)
        assert np.all(np.isfinite(sums))
        # sums of subnormals are exact, so they equal the correctly rounded sums
        for g in range(6):
            assert sums[g] == math.fsum(x[groups == g].tolist())
        self.check(np.array([tiny, 3 * tiny, 1e-300, 2.5e-308]), np.array([0, 0, 1, 1]), 2)

    def test_folded_squared_residuals_match_gathered(self):
        # the e-step's table: [z**2, (z - 1)**2] indexed by item + N * y
        m = generate(SynthSpec(num_items=300, num_workers=20, num_classes=3,
                               redundancy=4, seed=5))[0]
        z = np.random.default_rng(1).random(m.num_items)
        for k in range(3):
            view = binary_view(m, k)
            residuals = z[m.items] - _indicator(view)
            size = m.max_labels_per_worker
            expected = _reference_exact_sums(residuals * residuals, m.workers,
                                             m.num_workers, size)
            table = np.r_[z * z, (z - 1.0) ** 2]
            sums = _exact_sums(table, view.residual_counts, view.residual_index,
                               m.workers, m.num_workers, size)
            assert sums.tobytes() == expected.tobytes()


class TestGroupSum:
    """``_group_sum`` is ``np.bincount`` of gathered weights, bit for bit,
    and holds neither a copy of its index nor a label-length gather."""

    @pytest.mark.parametrize("size", [1, 2000, 200_000])
    def test_matches_bincount_on_read_only_index(self, size):
        rng = np.random.default_rng(size)
        n = max(1, size // 3)
        groups = rng.integers(0, n, size)
        index = rng.integers(0, 5000, size)
        for arr in (groups, index):
            arr.setflags(write=False)
        # no grid: the sums round, so only the same order of addition matches
        table = rng.standard_normal(5000) * 10.0 ** rng.uniform(-8, 8, 5000)
        got = _group_sum(groups, table, index, n)
        assert got.tobytes() == np.bincount(groups, table[index], n).tobytes()

    def test_holds_the_output_and_one_chunk(self):
        size, n = 200_000, 1000
        rng = np.random.default_rng(0)
        groups = rng.integers(0, n, size)
        index = rng.integers(0, 5000, size)
        for arr in (groups, index):
            arr.setflags(write=False)
        table = rng.random(5000)
        tracemalloc.start()
        try:
            _group_sum(groups, table, index, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a copy of either index, or the summands gathered at once, would
        # alone take 8 * size = 1.6 MB
        assert peak < 8 * n + 4 * size

    @pytest.mark.parametrize("size", [1, 2000, 2**16 - 1, 2**16 + 1, 200_000])
    def test_complex_parts_match_bincount_on_read_only_index(self, size):
        rng = np.random.default_rng(size)
        n = max(1, size // 3)
        groups = rng.integers(0, n, size)
        index = rng.integers(0, 5000, size)
        for arr in (groups, index):
            arr.setflags(write=False)
        first, second = (rng.standard_normal(5000) * 10.0 ** rng.uniform(-8, 8, 5000)
                         for _ in range(2))
        table = np.empty(5000, complex)
        table.real, table.imag = first, second
        got = _group_sum(groups, table, index, n)
        assert got.dtype == complex
        assert got.real.tobytes() == np.bincount(groups, first[index], n).tobytes()
        assert got.imag.tobytes() == np.bincount(groups, second[index], n).tobytes()

    def test_complex_holds_the_output_and_one_chunk(self):
        size, n = 200_000, 1000
        rng = np.random.default_rng(0)
        groups = rng.integers(0, n, size)
        index = rng.integers(0, 5000, size)
        for arr in (groups, index):
            arr.setflags(write=False)
        table = rng.random(5000) + 1j * rng.random(5000)
        tracemalloc.start()
        try:
            _group_sum(groups, table, index, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a copy of either index takes 8 * size = 1.6 MB, and the complex
        # summands gathered at once 16 * size
        assert peak < 16 * n + 8 * size


class TestGrid:
    """The grid taken from max|x| over the used entries is the one a
    masked ``max(where=...)`` gives."""

    @staticmethod
    def where_grid(table, used, size):
        top = math.frexp(float(np.abs(table).max(where=used, initial=0.0)))[1]
        return max(top + size.bit_length() - 52, -1074)

    @pytest.mark.parametrize("odd", [np.nan, np.inf, -np.inf, -0.0, 0.0, -5.0, 1e300,
                                     np.nextafter(0.0, 1.0)])
    @pytest.mark.parametrize("at_used", [True, False])
    def test_special_values(self, odd, at_used):
        table = np.array([0.25, -0.75, odd, 3.0e-7, -0.0])
        used = np.array([True, True, at_used, False, True])
        for size in (0, 1, 5, 1000):
            assert _grid(table, used, size) == self.where_grid(table, used, size)

    def test_no_used_entry(self):
        for table in (np.empty(0), np.array([np.nan, -np.inf, 2.0, -0.0])):
            unused = np.zeros(table.size, dtype=bool)
            assert _grid(table, unused, 3) == self.where_grid(table, unused, 3)
            assert _grid(table, unused, 3) == 2 - 52

    def test_random_tables(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            table = rng.normal(size=50) * 10.0 ** rng.integers(-320, 300, size=50)
            used = rng.random(50) < 0.5
            assert _grid(table, used, 7) == self.where_grid(table, used, 7)


class TestExactTotal:
    """``_exact_total`` is ``math.fsum`` bit for bit, on either side of the
    size below which it calls ``math.fsum`` itself."""

    @pytest.mark.parametrize("x", [
        np.empty(0),
        np.array([0.1]),
        np.random.default_rng(0).random(2**20),
        np.zeros(5000),
        # cancellation: a large sum that nearly vanishes
        np.r_[np.random.default_rng(1).random(3000) * 1e16, 0.1, 1e-3,
              -np.random.default_rng(1).random(3000) * 1e16],
        np.random.default_rng(2).normal(size=4000),
        10.0 ** np.random.default_rng(3).uniform(-300, 0, size=3000),
        np.random.default_rng(4).integers(1, 2**40, size=3000) * np.nextafter(0.0, 1.0),
    ], ids=["empty", "one", "2^20", "zeros", "cancellation", "negatives",
            "1e-300..1", "subnormals"])
    def test_equals_fsum(self, x):
        expected = math.fsum(x.tolist())
        for sample in (x, x[:_FSUM_MAX_SIZE], x[:_FSUM_MAX_SIZE + 1]):
            total = _exact_total(sample)
            assert type(total) is float
            assert math.fsum(sample.tolist()).hex() == total.hex()
        assert _exact_total(x[::-1]).hex() == expected.hex()

    def test_non_finite_as_fsum(self):
        x = np.r_[np.ones(1000), np.inf]
        assert _exact_total(x) == math.inf
        assert math.isnan(_exact_total(np.r_[np.ones(1000), np.nan]))


class TestRunEmBinary:
    def test_unanimous_matches_majority_vote(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            truth = rng.integers(2, size=8)
            rows = [
                (f"q{i}", f"w{j}", str(truth[i]))
                for i in range(8)
                for j in rng.choice(5, size=3, replace=False)
            ]
            m = matrix_from(rows, num_classes=2)
            result = run_em_binary(binary_view(m, 1), fixed_hp(15.0, 7.5))
            assert np.array_equal(result.hard_labels, majority_vote(m).hard_labels)

    def test_single_item_single_vote(self):
        m = matrix_from([("q0", "w0", "1")], num_classes=2)
        result = run_em_binary(binary_view(m, 1), fixed_hp(2.0, 2.0))
        assert result.converged
        assert result.scores[0] > 0.5
        assert result.hard_labels[0] == 1

    def test_against_inline_fixed_point_iteration(self):
        # independent oracle: the same update rules written out directly
        rows = [("q0", "w0", "1"), ("q0", "w1", "0"), ("q1", "w0", "1"), ("q2", "w1", "1")]
        m = matrix_from(rows, num_classes=2)
        hp = fixed_hp(4.0, 1.0, tolerance=1e-12, max_iters=4000)
        result = run_em_binary(binary_view(m, 1), hp)

        labels = {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 1.0, (2, 1): 1.0}
        by_item = {0: [(0, 1.0), (1, 0.0)], 1: [(0, 1.0)], 2: [(1, 1.0)]}
        by_worker = {0: [(0, 1.0), (1, 1.0)], 1: [(0, 0.0), (2, 1.0)]}
        z = {0: 0.5, 1: 1.0, 2: 1.0}
        mu = np.mean(list(z.values()))
        for _ in range(6000):
            eqv = {
                j: (hp.a_v + len(cells)) / (hp.b_v + sum((z[i] - y) ** 2 for i, y in cells))
                for j, cells in by_worker.items()
            }
            z = {
                i: (hp.lam * mu + sum(eqv[j] * y for j, y in votes))
                / (hp.lam + sum(eqv[j] for j, y in votes))
                for i, votes in by_item.items()
            }
            mu = np.mean(list(z.values()))
        expected = np.array([z[0], z[1], z[2]])
        assert result.scores == pytest.approx(expected, abs=1e-9)

    def test_empty_view_rejected(self):
        with pytest.raises(ValidationError, match="^item 'q0' has no label$"):
            run_em_binary(binary_view(empty_matrix(), 1), fixed_hp(2.0, 1.0))

    def test_trace_non_increasing(self):
        m, _ = generate(SynthSpec(num_items=150, num_workers=12, num_classes=2,
                                  redundancy=4, seed=11, accuracy_range=(0.4, 0.95)))
        result = run_em_binary(binary_view(m, 1), PROFILES["av15-adjusted"])
        assert np.all(np.diff(result.nll_trace) <= 1e-9)

    def test_exact_tie_resolves_to_zero(self):
        m = matrix_from([("q0", "w0", "0"), ("q0", "w1", "1")], num_classes=2)
        result = run_em_binary(binary_view(m, 1), fixed_hp(15.0, 7.5))
        assert result.scores[0] == 0.5
        assert result.hard_labels[0] == 0


class TestRelTrace:
    """``rel_trace`` records the stopping statistic of every iteration."""

    @staticmethod
    def view():
        m, _ = generate(SynthSpec(num_items=300, num_workers=20, num_classes=2, redundancy=5,
                                  seed=0, accuracy_range=(0.3, 0.9)))
        return binary_view(m, 1)

    # (max_iters, converged): the second run stops at its cap
    @pytest.mark.parametrize("max_iters, converged", [(500, True), (3, False)])
    def test_one_entry_per_iteration_and_stopping_rule(self, max_iters, converged):
        hp = replace(PROFILES["av15-adjusted"], max_iters=max_iters)
        result = run_em_binary(self.view(), hp)
        rels = result.rel_trace
        assert result.converged is converged
        assert rels.shape == (result.iterations,)
        assert bool(rels[-1] <= hp.tolerance) is converged
        assert np.all(rels[:-1] > hp.tolerance)
        assert np.array_equal(rels, run_em_binary(self.view(), hp).rel_trace)

    def test_entry_is_the_max_relative_change(self):
        hp = PROFILES["av15-adjusted"]
        full = run_em_binary(self.view(), hp)
        for t in (1, 5, full.iterations - 1):
            before = run_em_binary(self.view(), replace(hp, max_iters=t)).scores
            after = run_em_binary(self.view(), replace(hp, max_iters=t + 1)).scores
            rel = np.abs(after - before) / np.maximum(np.abs(before), REL_DIFF_FLOOR)
            assert full.rel_trace[t] == rel.max()

    def test_every_class_of_a_multiclass_run(self):
        m, _ = generate(SynthSpec(num_items=200, num_workers=12, num_classes=4, redundancy=4,
                                  seed=2, accuracy_range=(0.3, 0.9)))
        hp = PROFILES["av15-adjusted"]
        for r in aggregate_multiclass(m, hp).per_class:
            assert r.rel_trace.shape == (r.iterations,)
            assert bool(r.rel_trace[-1] <= hp.tolerance) is r.converged


class TestAggregateMulticlass:
    def test_unanimous_four_class_item(self):
        rows = [("q0", f"w{j}", "2") for j in range(3)]
        m = matrix_from(rows, num_classes=4)
        result = aggregate_multiclass(m, PROFILES["av15-adjusted"])
        assert result.hard_labels[0] == 2

    def test_binary_argmax_matches_thresholded_view(self):
        m, _ = generate(SynthSpec(num_items=200, num_workers=15, num_classes=2,
                                  redundancy=5, seed=23, accuracy_range=(0.5, 0.9)))
        hp = BwaHyperParams(a_v=30.0, epsilon_strategy="original")
        multi = aggregate_multiclass(m, hp)
        solo = run_em_binary(binary_view(m, 1), hp)
        clear = np.abs(solo.scores - 0.5) > 1e-9
        assert np.array_equal(multi.hard_labels[clear], solo.hard_labels[clear])

    def test_class_permutation_equivariance(self):
        m, _ = generate(SynthSpec(num_items=60, num_workers=10, num_classes=3,
                                  redundancy=4, seed=5, accuracy_range=(0.5, 0.9)))
        perm = np.array([2, 0, 1])
        permuted = LabelMatrix(
            items=m.items.copy(), workers=m.workers.copy(),
            labels=perm[m.labels].copy(),
            item_ids=m.item_ids, worker_ids=m.worker_ids,
            label_names=tuple(np.array(m.label_names)[np.argsort(perm)]),
        )
        hp = PROFILES["av15-adjusted"]
        base = aggregate_multiclass(m, hp)
        moved = aggregate_multiclass(permuted, hp)
        assert np.array_equal(perm[base.hard_labels], moved.hard_labels)

    def test_single_class_rejected(self):
        m = matrix_from([("q0", "w0", "yes")])
        with pytest.raises(ValueError):
            aggregate_multiclass(m, PROFILES["av15-adjusted"])

    def test_argmax_tie_takes_smallest_class(self):
        # one item, one vote for each of two classes: the class scores
        # are exactly symmetric, so the tie resolves to class 0
        m = matrix_from([("q0", "w0", "0"), ("q0", "w1", "1")], num_classes=2)
        result = aggregate_multiclass(m, fixed_hp(15.0, 7.5))
        assert result.score_matrix[0, 0] == result.score_matrix[1, 0]
        assert result.hard_labels[0] == 0

    def test_shared_bv_across_views(self):
        m, _ = generate(SynthSpec(num_items=50, num_workers=8, num_classes=3,
                                  redundancy=3, seed=2))
        result = aggregate_multiclass(m, PROFILES["av15-adjusted"])
        expected_eps = adjust_error_rate(estimate_error_rate(m), 3)
        assert result.epsilon == pytest.approx(expected_eps, rel=1e-12)
        assert result.b_v == pytest.approx(15.0 * expected_eps, rel=1e-12)


class TestSplitClassRuns:
    """A crowd of ``_SPLIT_MIN_LABELS`` labels or more, with two usable
    CPUs, runs its odd classes on one helper thread, bit for bit as the
    sequential runs."""

    FIELDS = ("scores", "hard_labels", "worker_weights", "nll_trace", "rel_trace")

    @staticmethod
    def crowd(num_classes):
        return generate(SynthSpec(num_items=400, num_workers=40, num_classes=num_classes,
                                  redundancy=5, seed=num_classes,
                                  accuracy_range=(0.4, 0.9)))[0]

    @staticmethod
    def split_everything(monkeypatch, cpus=2):
        monkeypatch.setattr(bwa, "_SPLIT_MIN_LABELS", 0)
        monkeypatch.setattr(dataset, "_usable_cpus", lambda: cpus)

    @pytest.mark.parametrize("num_classes", [2, 3, 5])
    def test_split_matches_sequential(self, monkeypatch, thread_starts, num_classes):
        hp = PROFILES["av15-adjusted"]
        sequential = aggregate_multiclass(self.crowd(num_classes), hp)
        assert thread_starts == []
        self.split_everything(monkeypatch)
        split = aggregate_multiclass(self.crowd(num_classes), hp)
        assert len(thread_starts) == 1
        assert len(split.per_class) == num_classes
        for seq, par in zip(sequential.per_class, split.per_class):
            for field in self.FIELDS:
                assert getattr(seq, field).tobytes() == getattr(par, field).tobytes(), field
            assert (seq.iterations, seq.converged, seq.mu) == (par.iterations, par.converged,
                                                              par.mu)
        for field in ("score_matrix", "hard_labels", "worker_weights"):
            assert getattr(sequential, field).tobytes() == getattr(split, field).tobytes()

    def test_concurrent_runs_share_one_fresh_matrix(self, monkeypatch, thread_starts):
        hp = PROFILES["av15-adjusted"]
        sequential = aggregate_multiclass(self.crowd(3), hp)
        self.split_everything(monkeypatch)
        m = self.crowd(3)
        start = threading.Barrier(2)
        results = [None, None]

        def run(slot):
            start.wait()
            results[slot] = aggregate_multiclass(m, hp)

        callers = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join()
        # two callers, each with its one helper
        assert len(thread_starts) == 4
        for result in results:
            for seq, par in zip(sequential.per_class, result.per_class, strict=True):
                for field in self.FIELDS:
                    assert getattr(seq, field).tobytes() == getattr(par, field).tobytes(), field

    def test_each_view_is_freed_once_its_class_is_fitted(self, monkeypatch, thread_starts):
        # each thread builds its classes' views; each must go once fitted
        self.split_everything(monkeypatch)
        fit, views = bwa.run_em_binary, {}

        def watching(view, hp):
            k = view.focal_class
            if k >= 2:
                assert views[k - 2]() is None, f"class {k - 2}'s view outlived its fit"
            views[k] = weakref.ref(view)
            return fit(view, hp)

        monkeypatch.setattr(bwa, "run_em_binary", watching)
        aggregate_multiclass(self.crowd(6), PROFILES["av15-adjusted"])
        assert len(thread_starts) == 1
        assert sorted(views) == list(range(6))

    def test_one_usable_cpu_starts_no_thread(self, monkeypatch, thread_starts):
        self.split_everything(monkeypatch, cpus=1)
        aggregate_multiclass(self.crowd(3), PROFILES["av15-adjusted"])
        assert thread_starts == []

    def test_crowd_below_the_gate_starts_no_thread(self, monkeypatch, thread_starts):
        monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
        m = self.crowd(3)
        assert m.num_labels < bwa._SPLIT_MIN_LABELS
        aggregate_multiclass(m, PROFILES["av15-adjusted"])
        assert thread_starts == []

    def test_ds_gate_leaves_bwa_unsplit(self, monkeypatch, thread_starts):
        monkeypatch.setattr(baselines, "_SPLIT_MIN_LABELS", 0)
        monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
        aggregate_multiclass(self.crowd(3), PROFILES["av15-adjusted"])
        assert thread_starts == []

    def test_helper_error_reraises(self, monkeypatch, thread_starts):
        self.split_everything(monkeypatch)
        run = bwa.run_em_binary

        def failing(view, hp):
            if view.focal_class == 1:
                raise FloatingPointError("class 1 failed")
            return run(view, hp)

        monkeypatch.setattr(bwa, "run_em_binary", failing)
        with pytest.raises(FloatingPointError, match="^class 1 failed$"):
            aggregate_multiclass(self.crowd(3), PROFILES["av15-adjusted"])
        assert len(thread_starts) == 1 and not thread_starts[0].is_alive()


def _reference_crowds():
    """Seeded crowds for the regression against the reference EM."""
    spec = {
        "k2": SynthSpec(num_items=1500, num_workers=600, num_classes=2, redundancy=5,
                        seed=21),
        "k3": SynthSpec(num_items=400, num_workers=30, num_classes=3, redundancy=4,
                        seed=22, accuracy_range=(0.4, 0.9)),
        "k4": SynthSpec(num_items=800, num_workers=40, num_classes=4, redundancy=7,
                        seed=23, class_prior=(0.4, 0.3, 0.2, 0.1)),
        "redundancy1": SynthSpec(num_items=700, num_workers=30, num_classes=2,
                                 redundancy=1, seed=24),
    }
    crowds = {name: generate(s)[0] for name, s in spec.items()}
    m = generate(SynthSpec(num_items=300, num_workers=25, num_classes=3, redundancy=3,
                           seed=25))[0]
    # class 3 nobody used and 4 idle workers
    crowds["phantom-idle"] = LabelMatrix(
        items=m.items, workers=m.workers, labels=m.labels,
        item_ids=m.item_ids,
        worker_ids=m.worker_ids + tuple(f"idle{j}" for j in range(4)),
        label_names=("0", "1", "2", "3"),
    )
    return crowds


REFERENCE_CROWDS = _reference_crowds()


class TestMatchesGatherThenSplitReference:
    """Folding the per-worker and per-item tables gives the same bits as
    splitting every per-label summand."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("name", sorted(REFERENCE_CROWDS))
    def test_run_em_binary(self, name, profile):
        m = REFERENCE_CROWDS[name]
        hp = _reference_resolve(PROFILES[profile], m)
        assert resolve(PROFILES[profile], m) == hp
        for k in range(m.num_classes):
            view = binary_view(m, k)
            result = run_em_binary(view, PROFILES[profile])
            scores, mu, eqv, trace, converged, iterations = _reference_run_em_binary(view, hp)
            assert result.scores.tobytes() == scores.tobytes()
            assert result.mu.hex() == mu.hex()
            assert result.worker_weights.tobytes() == eqv.tobytes()
            assert result.nll_trace.tobytes() == trace.tobytes()
            assert (result.converged, result.iterations) == (converged, iterations)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("name", sorted(REFERENCE_CROWDS))
    def test_aggregate_multiclass(self, name, profile):
        m = REFERENCE_CROWDS[name]
        hp = _reference_resolve(PROFILES[profile], m)
        result = aggregate_multiclass(m, PROFILES[profile])
        runs = [_reference_run_em_binary(binary_view(m, k), hp) for k in range(m.num_classes)]
        assert result.b_v.hex() == hp.b_v.hex()
        assert result.score_matrix.tobytes() == np.stack([r[0] for r in runs]).tobytes()
        weights = np.mean([r[2] for r in runs], axis=0)
        assert result.worker_weights.tobytes() == weights.tobytes()
        assert [r.iterations for r in result.per_class] == [r[5] for r in runs]


class TestWorkerAccuracy:
    def test_random_worker(self):
        assert worker_accuracy(0.0) == 0.5

    def test_inverse_of_three_quarters(self):
        assert worker_accuracy(2.0 * np.log(3.0)) == pytest.approx(0.75, rel=1e-12)

    def test_large_precision_saturates(self):
        assert worker_accuracy(200.0) > 0.999999

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            worker_accuracy(-0.5)

    def test_vectorised(self):
        out = worker_accuracy(np.array([0.0, 2.0 * np.log(3.0)]))
        assert out == pytest.approx([0.5, 0.75], rel=1e-12)
