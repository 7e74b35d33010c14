"""Unit behaviour of the weighted-average model's building blocks.

The step operations are exercised against hand-computed values; the EM
driver is checked against independent fixed-point iteration written out
inline, and against majority vote where the two provably coincide.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from crowdbwa import bwa
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
from crowdbwa.dataset import LabelMatrix, binary_view
from crowdbwa.synthetic import SynthSpec, generate


def matrix_from(rows, **kwargs):
    return LabelMatrix.from_triples(rows, **kwargs)


def fixed_hp(a_v, b_v, **kwargs):
    return BwaHyperParams(a_v=a_v, b_v=b_v, epsilon_strategy="fixed", **kwargs)


def empty_matrix(num_items=1, num_classes=2):
    """A matrix with items but neither workers nor labels."""
    return LabelMatrix(
        items=np.empty(0, dtype=np.int64),
        workers=np.empty(0, dtype=np.int64),
        labels=np.empty(0, dtype=np.int64),
        num_items=num_items,
        num_workers=0,
        num_classes=num_classes,
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
        with pytest.raises(ValueError):
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
        wide = replace(m, num_classes=3, label_names=("0", "1", "2"))
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
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            BwaHyperParams(**kwargs)

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

    def test_unlabelled_item_at_half(self):
        m = matrix_from([("q0", "w0", "1")], item_ids=["q0", "q1"], num_classes=2)
        state = init_state(binary_view(m, 1), fixed_hp(15.0, 3.0))
        assert state.z[1] == 0.5

    def test_unanimous_mean(self):
        m = matrix_from([("q0", "w0", "1"), ("q1", "w0", "1"), ("q1", "w1", "1")])
        state = init_state(binary_view(m, 1), fixed_hp(15.0, 3.0))
        assert state.mu == 1.0


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

    def test_unlabelled_item_moves_to_mu(self):
        m = matrix_from([("q0", "w0", "1")], item_ids=["q0", "q1"], num_classes=2)
        view = binary_view(m, 1)
        hp = fixed_hp(15.0, 3.0)
        state = init_state(view, hp)
        state.mu = 0.25
        assert m_step(state, view, hp).z[1] == 0.25


def _two_sum_m_step_z(state, view, hp):
    """The m-step's z with the denominator and the numerator each summed
    by its own ``_exact_sums`` call, on its own grid."""
    m = view.matrix
    size = m.max_labels_per_item
    den = _exact_sums(state.eqv, m.labels_per_worker > 0, m.workers, m.items,
                      m.num_items, size)
    num = _exact_sums(state.eqv, view.worker_has_focal, view.focal_workers, view.focal_items,
                      m.num_items, size)
    return np.clip((hp.lam * state.mu + num) / (hp.lam + den), 0.0, 1.0)


class TestMStepSharedGroupedSum:
    """The m-step takes the numerator from the denominator's grouped sum
    when both are summed on one grid, and sums it apart otherwise."""

    @staticmethod
    def m_step_sums(monkeypatch, state, view, hp):
        """``m_step``'s z, and how many ``_exact_sums`` calls it made."""
        calls = []

        def counted(*args):
            calls.append(args)
            return _exact_sums(*args)

        monkeypatch.setattr(bwa, "_exact_sums", counted)
        z = m_step(state, view, hp).z
        return z, len(calls)

    def test_top_worker_never_gives_the_focal_label(self, monkeypatch):
        # the expert labels every item 0 with weight 2**62 and the others
        # weigh at most 1/3, so the focal labels' own grid is 2**64 times finer
        rows = [(f"q{i}", "expert", "0") for i in range(6)]
        rows += [(f"q{i}", f"w{j}", str((i + j) % 2)) for i in range(6) for j in range(3)]
        m = matrix_from(rows, num_classes=2)
        view = binary_view(m, 1)
        hp = fixed_hp(15.0, 3.0)
        state = init_state(view, hp)
        state.eqv = np.array([2.0**62, 1 / 3, 0.1, 2 / 7])
        size = m.max_labels_per_item
        assert _grid(state.eqv, view.worker_has_focal, size) < _grid(
            state.eqv, m.labels_per_worker > 0, size)
        z, calls = self.m_step_sums(monkeypatch, state, view, hp)
        assert calls == 1  # the numerator's own sum
        assert z.tobytes() == _two_sum_m_step_z(state, view, hp).tobytes()
        # on the denominator's grid the focal sums lose bits
        coarse = _exact_sums(state.eqv, m.labels_per_worker > 0, view.focal_workers,
                             view.focal_items, m.num_items, size)
        own = _exact_sums(state.eqv, view.worker_has_focal, view.focal_workers,
                          view.focal_items, m.num_items, size)
        assert coarse.tobytes() != own.tobytes()

    @pytest.mark.parametrize("focal", [0, 1, 2])
    def test_shared_grid(self, monkeypatch, focal):
        m = generate(SynthSpec(num_items=300, num_workers=20, num_classes=3, redundancy=5,
                               seed=41, accuracy_range=(0.4, 0.9)))[0]
        view = binary_view(m, focal)
        hp = resolve(PROFILES["av15-adjusted"], m)
        state = init_state(view, hp)
        size = m.max_labels_per_item
        for _ in range(3):
            assert _grid(state.eqv, view.worker_has_focal, size) == _grid(
                state.eqv, m.labels_per_worker > 0, size)
            z, calls = self.m_step_sums(monkeypatch, state, view, hp)
            assert calls == 0
            assert z.tobytes() == _two_sum_m_step_z(state, view, hp).tobytes()
            state = e_step(m_step(state, view, hp), view, hp)


class TestNegLogLikelihood:
    def test_zero_at_prior_mean_without_workers(self):
        view = binary_view(empty_matrix(num_items=1), 1)
        hp = fixed_hp(15.0, 3.0)
        state = init_state(view, hp)
        state.z = np.array([0.3])
        state.mu = 0.3
        assert neg_log_likelihood(state, view, hp) == 0.0

    def test_prior_term_alone(self):
        view = binary_view(empty_matrix(num_items=1), 1)
        hp = fixed_hp(15.0, 3.0, lam=1.0)
        state = init_state(view, hp)
        state.z = np.array([1.0])
        state.mu = 0.0
        assert neg_log_likelihood(state, view, hp) == 0.5

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
            sums = _exact_sums(table, view.residual_used, view.residual_index,
                               m.workers, m.num_workers, size)
            assert sums.tobytes() == expected.tobytes()


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
            assert np.array_equal(result.hard_labels, majority_vote(m).labels)

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
        with pytest.raises(ValueError):
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
            num_items=m.num_items, num_workers=m.num_workers, num_classes=3,
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
    # class 3 nobody used, 4 idle workers and 6 unlabelled items
    crowds["phantom-idle-unlabelled"] = LabelMatrix(
        items=m.items, workers=m.workers, labels=m.labels,
        num_items=m.num_items + 6, num_workers=m.num_workers + 4, num_classes=4,
        item_ids=m.item_ids + tuple(f"u{i}" for i in range(6)),
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
