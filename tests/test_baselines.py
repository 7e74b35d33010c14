"""Majority vote and Dawid-Skene reference aggregators.

The vectorised Dawid-Skene fit is cross-checked against a plain-loop
re-implementation of the same smoothed EM updates, and against the
earlier row-major vectorisation it replaced.
"""

import dataclasses
import math
import threading

import numpy as np
import pytest

from crowdbwa import baselines, bwa, dataset
from crowdbwa.baselines import DawidSkeneResult, DsParams, dawid_skene, majority_vote
from crowdbwa.dataset import LabelMatrix, vote_counts
from crowdbwa.synthetic import SynthSpec, generate


def matrix_from(rows, **kwargs):
    return LabelMatrix.from_triples(rows, **kwargs)


class TestMajorityVote:
    def test_simple_majority(self):
        m = matrix_from([("q0", "w0", "0"), ("q0", "w1", "0"), ("q0", "w2", "1")])
        assert majority_vote(m).hard_labels.tolist() == [0]

    def test_tie_goes_to_smallest_class(self):
        m = matrix_from(
            [("q0", "w0", "0"), ("q0", "w1", "0"), ("q0", "w2", "1"), ("q0", "w3", "1")]
        )
        assert majority_vote(m).hard_labels.tolist() == [0]

    def test_three_class_majority(self):
        rows = [("q0", "w0", "0")] + [("q0", f"w{j}", "2") for j in range(1, 5)]
        m = matrix_from(rows, num_classes=3)
        assert majority_vote(m).hard_labels.tolist() == [2]

    def test_ties_flagged_apart_from_unlabelled_items(self):
        rows = [("q0", "w0", "0"), ("q0", "w1", "1"),                    # 1-1 tie
                ("q1", "w0", "1"), ("q1", "w1", "1"), ("q1", "w2", "0"),  # majority
                ("q2", "w0", "0"), ("q2", "w1", "1"), ("q2", "w2", "2"),  # 3-way tie
                ("q3", "w0", "2"), ("q3", "w1", "2"), ("q3", "w2", "1"),
                ("q3", "w3", "1"), ("q3", "w4", "0")]                     # 2-2-1 tie
        m = matrix_from(rows, num_classes=3)
        result = majority_vote(m)
        assert result.hard_labels.tolist() == [0, 1, 0, 1]
        assert result.is_tied.tolist() == [True, False, True, True]

    def test_worker_identity_irrelevant(self):
        rows = [("q0", "w0", "0"), ("q0", "w1", "1"), ("q1", "w1", "1"), ("q1", "w2", "1")]
        renamed = [(q, {"w0": "a", "w1": "b", "w2": "c"}[w], y) for q, w, y in rows]
        assert np.array_equal(
            majority_vote(matrix_from(rows)).hard_labels,
            majority_vote(matrix_from(renamed)).hard_labels,
        )

    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        rows = [
            (f"q{i}", f"w{j}", str(rng.integers(3)))
            for i in range(15)
            for j in rng.choice(6, size=3, replace=False)
        ]
        m = matrix_from(rows, num_classes=3)
        perm = np.array([1, 2, 0])
        permuted = LabelMatrix(
            items=m.items.copy(), workers=m.workers.copy(), labels=perm[m.labels].copy(),
            item_ids=m.item_ids, worker_ids=m.worker_ids,
            label_names=tuple(np.array(m.label_names)[np.argsort(perm)]),
        )
        base, moved = majority_vote(m).hard_labels, majority_vote(permuted).hard_labels
        # equivariance holds wherever the original argmax was untied
        counts = np.stack(
            [np.bincount(m.items[m.labels == k], minlength=m.num_items) for k in range(3)]
        ).T
        untied = (counts == counts.max(axis=1, keepdims=True)).sum(axis=1) == 1
        assert np.array_equal(perm[base[untied]], moved[untied])


def naive_dawid_skene(matrix, params):
    """Plain-loop reference of the same smoothed EM updates."""
    n, w, k = matrix.num_items, matrix.num_workers, matrix.num_classes
    triples = list(zip(matrix.items, matrix.workers, matrix.labels))
    s = params.smoothing

    posteriors = np.full((n, k), 1.0 / k)
    counts = np.zeros((n, k))
    for i, _, l in triples:
        counts[i, l] += 1
    totals = counts.sum(axis=1)
    for i in range(n):
        if totals[i]:
            posteriors[i] = counts[i] / totals[i]

    for _ in range(params.max_iters):
        priors = (posteriors.sum(axis=0) + s) / (n + k * s)
        confusion = np.zeros((w, k, k))
        for i, j, l in triples:
            confusion[j, :, l] += posteriors[i]
        confusion += s
        confusion /= confusion.sum(axis=2, keepdims=True)

        new_posteriors = np.tile(np.log(priors), (n, 1))
        for i, j, l in triples:
            new_posteriors[i] += np.log(confusion[j, :, l])
        new_posteriors = np.exp(new_posteriors - new_posteriors.max(axis=1, keepdims=True))
        new_posteriors /= new_posteriors.sum(axis=1, keepdims=True)
        delta = np.abs(new_posteriors - posteriors).max()
        posteriors = new_posteriors
        if delta <= params.tolerance:
            break
    return posteriors


def row_major_dawid_skene(matrix, params=DsParams()):
    """The item-major (N, K) vectorisation ``dawid_skene`` replaced, kept
    verbatim as the reference for the class-major one."""
    n, w, k = matrix.num_items, matrix.num_workers, matrix.num_classes
    items, workers, labels = matrix.items, matrix.workers, matrix.labels
    s = params.smoothing

    counts = vote_counts(matrix).astype(np.float64)
    totals = counts.sum(axis=1)
    posteriors = np.where(
        totals[:, None] > 0, counts / np.maximum(totals, 1)[:, None], 1.0 / k
    )

    cell = workers * k + labels  # (worker, observed class) confusion row
    trace, deltas = [], []
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
        deltas.append(delta)
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
        delta_trace=np.array(deltas),
    )


class TestDawidSkene:
    def test_unanimous_matches_majority_vote(self):
        rng = np.random.default_rng(5)
        truth = rng.integers(3, size=10)
        rows = [
            (f"q{i}", f"w{j}", str(truth[i]))
            for i in range(10)
            for j in rng.choice(6, size=3, replace=False)
        ]
        m = matrix_from(rows, num_classes=3)
        assert np.array_equal(dawid_skene(m).hard_labels, majority_vote(m).hard_labels)

    def test_single_class_refused(self):
        m = matrix_from([("q0", "w0", "yes"), ("q1", "w0", "yes")])
        with pytest.raises(ValueError, match="^Dawid-Skene needs at least 2 classes$"):
            dawid_skene(m)

    def test_single_item_single_worker(self):
        m = matrix_from([("q0", "w0", "1")], num_classes=2)
        assert dawid_skene(m).hard_labels.tolist() == [1]

    def test_consistent_majority_pair_wins(self):
        # workers a and b agree on all three items; c always disagrees
        rows = []
        pair_labels = ["0", "1", "0"]
        for i, lab in enumerate(pair_labels):
            rows += [(f"q{i}", "a", lab), (f"q{i}", "b", lab),
                     (f"q{i}", "c", "1" if lab == "0" else "0")]
        m = matrix_from(rows, num_classes=2)
        result = dawid_skene(m)
        assert result.hard_labels.tolist() == [0, 1, 0]

    def test_posteriors_sum_to_one(self):
        m, _ = generate(SynthSpec(num_items=80, num_workers=10, num_classes=4,
                                  redundancy=4, seed=9, accuracy_range=(0.3, 0.9)))
        result = dawid_skene(m)
        assert np.abs(result.posteriors.sum(axis=1) - 1.0).max() <= 1e-12

    def test_objective_non_decreasing(self):
        for seed in range(5):
            m, _ = generate(SynthSpec(num_items=60, num_workers=8, num_classes=3,
                                      redundancy=3, seed=seed, accuracy_range=(0.3, 0.95)))
            trace = dawid_skene(m).objective_trace
            assert np.all(np.diff(trace) >= -1e-9)

    def test_identical_workers_reduce_to_majority_vote(self):
        rng = np.random.default_rng(2)
        pattern = rng.integers(2, size=12)
        rows = [
            (f"q{i}", f"w{j}", str(pattern[i])) for i in range(12) for j in range(4)
        ]
        m = matrix_from(rows, num_classes=2)
        assert np.array_equal(dawid_skene(m).hard_labels, majority_vote(m).hard_labels)

    def test_matches_naive_reference(self):
        params = DsParams(max_iters=40, tolerance=1e-10)
        for seed in range(4):
            m, _ = generate(SynthSpec(num_items=25, num_workers=6, num_classes=3,
                                      redundancy=3, seed=seed, accuracy_range=(0.4, 0.9)))
            fast = dawid_skene(m, params)
            slow = naive_dawid_skene(m, params)
            assert fast.posteriors == pytest.approx(slow, abs=1e-10)

    def test_deterministic(self):
        m, _ = generate(SynthSpec(num_items=40, num_workers=7, num_classes=3,
                                  redundancy=3, seed=13))
        a, b = dawid_skene(m), dawid_skene(m)
        assert np.array_equal(a.posteriors, b.posteriors)
        assert np.array_equal(a.hard_labels, b.hard_labels)

    def test_param_validation(self):
        for kwargs in ({"max_iters": 0}, {"tolerance": 0.0}, {"smoothing": 0.0},
                       {"smoothing": math.inf}):
            with pytest.raises(ValueError):
                DsParams(**kwargs)

    def test_unlabelled_item_idle_worker_unused_class(self):
        rows = [("q0", "w0", "0"), ("q0", "w1", "1"), ("q1", "w0", "1"),
                ("q1", "w1", "1"), ("q2", "w0", "0"), ("q2", "w1", "0")]
        m = matrix_from(rows, worker_ids=["w0", "w1", "w2"], num_classes=3)
        result = dawid_skene(m)
        assert result.posteriors.shape == (3, 3)
        assert result.confusion.shape == (3, 3, 3)
        assert np.abs(result.confusion[2] - 1.0 / 3).max() <= 1e-15
        assert np.abs(result.confusion.sum(axis=2) - 1.0).max() <= 1e-15

    def test_row_order_moves_only_rounding(self):
        # np.bincount adds each item's and worker's terms in row order, so
        # a shuffle may move the floats in the last bits, and nothing else
        m, _ = generate(SynthSpec(num_items=300, num_workers=20, num_classes=4,
                                  redundancy=5, seed=2, accuracy_range=(0.3, 0.9)))
        order = np.random.default_rng(0).permutation(m.num_labels)
        shuffled = LabelMatrix(
            items=m.items[order], workers=m.workers[order], labels=m.labels[order],
            item_ids=m.item_ids, worker_ids=m.worker_ids, label_names=m.label_names,
        )
        a, b = dawid_skene(m), dawid_skene(shuffled)
        assert (a.iterations, a.converged) == (b.iterations, b.converged)
        assert np.array_equal(a.hard_labels, b.hard_labels)
        assert np.abs(a.posteriors - b.posteriors).max() <= 1e-12


class TestMatchesRowMajorReference:
    """The class-major EM reproduces the row-major one up to the order of
    its floating-point sums."""

    # (classes, seed, converged): the 4-class crowd stops at max_iters
    @pytest.mark.parametrize("k, seed, converged",
                             [(2, 0, True), (3, 0, True), (4, 2, False), (5, 1, True)])
    def test_dawid_skene(self, k, seed, converged):
        m, _ = generate(SynthSpec(num_items=300, num_workers=20, num_classes=k,
                                  redundancy=5, seed=seed, accuracy_range=(0.3, 0.9)))
        got, ref = dawid_skene(m), row_major_dawid_skene(m)
        assert ref.converged is converged
        assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
        assert np.array_equal(got.hard_labels, ref.hard_labels)
        for name in ("posteriors", "confusion", "class_priors"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-12, name
        assert got.objective_trace == pytest.approx(ref.objective_trace, rel=1e-12, abs=0)

    # Heavy workers: class 0's expected counts are each cell's label count
    # less the other classes', so their rounding grows with labels per worker.
    @pytest.mark.parametrize("spec", [
        SynthSpec(num_items=20_000, num_workers=3, num_classes=2, redundancy=3,
                  accuracy_range=(0.9, 0.99)),
        SynthSpec(num_items=8_000, num_workers=5, num_classes=4, redundancy=4),
    ], ids=["k2-3-workers", "k4-5-workers"])
    def test_dawid_skene_heavy_workers(self, spec):
        m, _ = generate(spec)
        got, ref = dawid_skene(m), row_major_dawid_skene(m)
        assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
        assert np.array_equal(got.hard_labels, ref.hard_labels)
        for name in ("posteriors", "confusion", "class_priors"):
            assert np.abs(getattr(got, name) - getattr(ref, name)).max() <= 1e-12, name
        assert got.objective_trace == pytest.approx(ref.objective_trace, rel=1e-12, abs=0)


class TestDeltaTrace:
    """``delta_trace`` records the stopping statistic of every iteration."""

    # (classes, seed, converged): the 4-class crowd stops at max_iters
    @pytest.mark.parametrize("k, seed, converged", [(2, 0, True), (4, 2, False)])
    def test_one_entry_per_iteration_and_stopping_rule(self, k, seed, converged):
        m, _ = generate(SynthSpec(num_items=300, num_workers=20, num_classes=k,
                                  redundancy=5, seed=seed, accuracy_range=(0.3, 0.9)))
        params = DsParams()
        result = dawid_skene(m, params)
        deltas = result.delta_trace
        assert result.converged is converged
        assert deltas.shape == (result.iterations,)
        assert bool(deltas[-1] <= params.tolerance) is converged
        assert np.all(deltas[:-1] > params.tolerance)
        assert np.array_equal(deltas, dawid_skene(m, params).delta_trace)

    def test_entry_is_the_max_posterior_change(self):
        m, _ = generate(SynthSpec(num_items=200, num_workers=12, num_classes=3,
                                  redundancy=4, seed=3, accuracy_range=(0.3, 0.9)))
        full = dawid_skene(m)
        for t in (1, 5, full.iterations - 1):
            before = dawid_skene(m, DsParams(max_iters=t)).posteriors
            after = dawid_skene(m, DsParams(max_iters=t + 1)).posteriors
            assert full.delta_trace[t] == np.abs(after - before).max()


class TestSplitFit:
    """A crowd of ``_SPLIT_MIN_LABELS`` labels or more, with two usable
    CPUs, runs half of every EM step on one helper thread, bit for bit as
    the unsplit fit."""

    FIELDS = ("hard_labels", "posteriors", "class_priors", "confusion", "objective_trace",
              "delta_trace")

    @staticmethod
    def with_idle_workers(m):
        # every odd worker, the last included, has no label
        return dataclasses.replace(
            m, workers=m.workers * 2,
            worker_ids=tuple(f"w{j}" for j in range(2 * m.num_workers)))

    @staticmethod
    def split_everything(monkeypatch, cpus=2):
        monkeypatch.setattr(baselines, "_SPLIT_MIN_LABELS", 0)
        monkeypatch.setattr(dataset, "_usable_cpus", lambda: cpus)

    @staticmethod
    def small_crowd():
        return generate(SynthSpec(num_items=100, num_workers=10, num_classes=2, redundancy=3,
                                  seed=1))[0]

    def assert_same_fit(self, monkeypatch, thread_starts, m, params=DsParams()):
        sequential = dawid_skene(m, params)
        assert thread_starts == []
        self.split_everything(monkeypatch)
        split = dawid_skene(m, params)
        assert len(thread_starts) == 1
        for field in self.FIELDS:
            assert getattr(sequential, field).tobytes() == getattr(split, field).tobytes(), field
        assert (sequential.iterations, sequential.converged) == (split.iterations,
                                                                  split.converged)
        return split

    @pytest.mark.parametrize("num_classes, converged", [(2, False), (3, True), (5, True)])
    def test_split_matches_sequential(self, monkeypatch, thread_starts, num_classes,
                                      converged):
        m, _ = generate(SynthSpec(num_items=400, num_workers=40, num_classes=num_classes,
                                  redundancy=5, seed=num_classes, accuracy_range=(0.4, 0.9)))
        split = self.assert_same_fit(monkeypatch, thread_starts, self.with_idle_workers(m))
        assert split.converged is converged

    def test_one_worker_labels_everything(self, monkeypatch, thread_starts):
        # the M-step has one part, the E-step two
        rows = [(f"q{i}", "w1", str(i % 3)) for i in range(50)]
        m = matrix_from(rows, worker_ids=["w0", "w1", "w2"], num_classes=3)
        self.assert_same_fit(monkeypatch, thread_starts, m)

    def test_one_item_crowd(self, monkeypatch, thread_starts):
        # the E-step has one part, the M-step two
        rows = [("q0", f"w{j}", str(j % 4 // 3)) for j in range(40)]
        self.assert_same_fit(monkeypatch, thread_starts, matrix_from(rows))

    def test_one_item_halves_of_many_classes(self, monkeypatch, thread_starts):
        # numpy sums the classes of a single item pairwise; each half must
        # still add them in the order the whole crowd does
        rng = np.random.default_rng(3)
        rows = [(f"q{i}", f"w{j}", str(rng.integers(12))) for i in range(2) for j in range(30)]
        m = matrix_from(rows, num_classes=12)
        self.assert_same_fit(monkeypatch, thread_starts, m, DsParams(max_iters=5))

    def test_concurrent_fits_share_one_fresh_matrix(self, monkeypatch, thread_starts):
        sequential = dawid_skene(self.small_crowd())
        self.split_everything(monkeypatch)
        m = self.small_crowd()
        start = threading.Barrier(2)
        results = [None, None]

        def run(slot):
            start.wait()
            results[slot] = dawid_skene(m)

        callers = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
        # two callers, each with its one helper
        assert len(thread_starts) == 4
        for result in results:
            for field in self.FIELDS:
                expected, got = getattr(sequential, field), getattr(result, field)
                assert expected.tobytes() == got.tobytes(), field
            assert (sequential.iterations, sequential.converged) == (result.iterations,
                                                                      result.converged)

    def test_one_usable_cpu_starts_no_thread(self, monkeypatch, thread_starts):
        self.split_everything(monkeypatch, cpus=1)
        dawid_skene(self.small_crowd())
        assert thread_starts == []

    def test_crowd_below_the_gate_starts_no_thread(self, monkeypatch, thread_starts):
        monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
        m = self.small_crowd()
        assert m.num_labels < baselines._SPLIT_MIN_LABELS
        dawid_skene(m)
        assert thread_starts == []

    def test_bwa_gate_leaves_ds_unsplit(self, monkeypatch, thread_starts):
        monkeypatch.setattr(bwa, "_SPLIT_MIN_LABELS", 0)
        monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
        dawid_skene(self.small_crowd())
        assert thread_starts == []

    # the helper runs the second part, the caller the first
    @pytest.mark.parametrize("failing_half", ["helper", "caller"])
    def test_error_in_either_half_reraises(self, monkeypatch, thread_starts, failing_half):
        self.split_everything(monkeypatch)
        e_part = baselines._e_part

        def failing(part, *args):
            if (part[0] > 0) == (failing_half == "helper"):
                raise FloatingPointError(f"{failing_half} half failed")
            return e_part(part, *args)

        monkeypatch.setattr(baselines, "_e_part", failing)
        with pytest.raises(FloatingPointError, match=f"^{failing_half} half failed$"):
            dawid_skene(self.small_crowd())
        assert len(thread_starts) == 1 and not thread_starts[0].is_alive()


class TestPartSums:
    """``_m_part`` and ``_e_part`` sum classes two at a time, bit for bit as
    one ``np.bincount`` per class, on the whole crowd and on each half."""

    @staticmethod
    def parts(m):
        k = m.num_classes
        cell = m.workers * k + m.labels
        whole_m = [(0, m.num_workers * k, cell, m.items)]
        whole_e = [(0, m.num_items, m.items, cell)]
        halves_m = [(start * k, stop * k, cell[rows] - start * k, m.items[rows])
                    for start, stop, rows in baselines._halves(m.workers, m.labels_per_worker)]
        halves_e = [(start, stop, m.items[rows] - start, cell[rows])
                    for start, stop, rows in baselines._halves(m.items, m.labels_per_item)]
        assert len(halves_m) == len(halves_e) == 2
        return [(whole_m, whole_e), (halves_m, halves_e)]

    # K=2 leaves class 1 alone, K=3 pairs (1, 2), K=4 adds 3 alone, and so on
    @pytest.mark.parametrize("k", range(2, 7))
    def test_match_a_bincount_per_class(self, k):
        m = generate(SynthSpec(num_items=300, num_workers=25, num_classes=k, redundancy=4,
                               seed=k))[0]
        n, w = m.num_items, m.num_workers
        rng = np.random.default_rng(k)
        posteriors = rng.dirichlet(np.ones(k), n).T.copy()
        # magnitudes far apart, so a sum in another order rounds differently
        log_confusion_odds = rng.standard_normal((k, w * k)) * 10.0 ** rng.uniform(-6, 6, w * k)
        log_prior_odds = rng.standard_normal(k)
        log_confusion_odds[0], log_prior_odds[0] = 0.0, 0.0
        for m_parts, e_parts in self.parts(m):
            expected, reference = np.zeros((k, w * k)), np.zeros((k, w * k))
            for part in m_parts:
                baselines._m_part(part, posteriors, expected)
                start, stop, cells, items = part
                for c in range(1, k):
                    reference[c, start:stop] = np.bincount(cells, posteriors[c][items],
                                                           stop - start)
            assert expected[1:].tobytes() == reference[1:].tobytes()

            log_odds, reference = np.zeros((k, n)), np.zeros((k, n))
            scratch = [np.empty((k, n)), np.empty(n)]
            for part in e_parts:
                baselines._e_part(part, log_prior_odds, log_confusion_odds, posteriors,
                                  scratch[0], log_odds, scratch[1])
                start, stop, items, cells = part
                for c in range(1, k):
                    reference[c, start:stop] = log_prior_odds[c] + np.bincount(
                        items, log_confusion_odds[c][cells], stop - start)
            assert log_odds.tobytes() == reference.tobytes()
