"""Randomised invariant checks for the EM engine.

Each invariant is exercised over seeded synthetic instances: range
preservation and the minimum-weight guarantee at every iteration,
exact-bit determinism, permutation equivariance and independence of
the label row order, and label-swap symmetry of the binary model.
"""

import numpy as np
import pytest

from crowdbwa.bwa import (
    PROFILES,
    BwaHyperParams,
    aggregate_multiclass,
    e_step,
    estimate_error_rate,
    adjust_error_rate,
    init_state,
    m_step,
    run_em_binary,
)
from crowdbwa.dataset import LabelMatrix, binary_view
from crowdbwa.synthetic import SynthSpec, generate


def random_instance(seed, num_classes=2, num_items=120, num_workers=15, redundancy=4,
                    accuracy_range=(0.35, 0.95)):
    spec = SynthSpec(num_items=num_items, num_workers=num_workers,
                     num_classes=num_classes, redundancy=redundancy, seed=seed,
                     accuracy_range=accuracy_range)
    return generate(spec)[0]


def relabelled(matrix, item_perm=None, worker_perm=None):
    """Relabel dense indices: old index x becomes perm[x]."""
    item_perm = np.arange(matrix.num_items) if item_perm is None else item_perm
    worker_perm = np.arange(matrix.num_workers) if worker_perm is None else worker_perm
    return LabelMatrix(
        items=item_perm[matrix.items].copy(),
        workers=worker_perm[matrix.workers].copy(),
        labels=matrix.labels.copy(),
        num_items=matrix.num_items,
        num_workers=matrix.num_workers,
        num_classes=matrix.num_classes,
        item_ids=tuple(np.array(matrix.item_ids)[np.argsort(item_perm)]),
        worker_ids=tuple(np.array(matrix.worker_ids)[np.argsort(worker_perm)]),
        label_names=matrix.label_names,
    )


class TestStepInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_range_and_minimum_weight_every_iteration(self, seed):
        matrix = random_instance(seed)
        view = binary_view(matrix, 1)
        hp = BwaHyperParams(a_v=10.0, b_v=10.0 * 0.4, epsilon_strategy="fixed")
        state = init_state(view, hp)
        for _ in range(25):
            assert np.all(state.z >= 0.0) and np.all(state.z <= 1.0)
            assert 0.0 <= state.mu <= 1.0
            assert np.all(state.eqv >= 1.0)  # b_v <= a_v
            assert np.all(state.sse >= 0.0)
            assert np.all(state.sse <= matrix.labels_per_worker)
            state = m_step(state, view, hp)
            state = e_step(state, view, hp)

    @pytest.mark.parametrize("seed", range(6))
    def test_trace_non_increasing(self, seed):
        matrix = random_instance(seed, num_classes=3)
        result = aggregate_multiclass(matrix, PROFILES["av15-adjusted"])
        for r in result.per_class:
            assert np.all(np.diff(r.nll_trace) <= 1e-9)


class TestSymmetries:
    @pytest.mark.parametrize("seed", range(5))
    def test_label_swap_equivariance(self, seed):
        matrix = random_instance(seed)
        flipped = LabelMatrix(
            items=matrix.items.copy(), workers=matrix.workers.copy(),
            labels=(1 - matrix.labels).copy(),
            num_items=matrix.num_items, num_workers=matrix.num_workers, num_classes=2,
            item_ids=matrix.item_ids, worker_ids=matrix.worker_ids,
            label_names=matrix.label_names,
        )
        # at the fixed point: the relative-difference stopping rule is
        # itself asymmetric under z -> 1-z, so mirrored runs at a loose
        # tolerance may stop one iteration apart
        hp = BwaHyperParams(a_v=15.0, b_v=6.0, epsilon_strategy="fixed",
                            tolerance=1e-13, max_iters=10000)
        base = run_em_binary(binary_view(matrix, 1), hp)
        swap = run_em_binary(binary_view(flipped, 1), hp)
        assert np.abs(swap.scores - (1.0 - base.scores)).max() <= 1e-12
        assert abs(swap.mu - (1.0 - base.mu)) <= 1e-12
        assert swap.worker_weights == pytest.approx(base.worker_weights, rel=1e-9)
        clear = np.abs(base.scores - 0.5) > 1e-9
        assert np.array_equal(swap.hard_labels[clear], 1 - base.hard_labels[clear])

    @pytest.mark.parametrize("seed", range(5))
    def test_permutation_equivariance_bit_identical(self, seed):
        matrix = random_instance(seed, num_classes=3)
        rng = np.random.default_rng(seed + 100)
        item_perm = rng.permutation(matrix.num_items)
        worker_perm = rng.permutation(matrix.num_workers)
        permuted = relabelled(matrix, item_perm, worker_perm)
        hp = PROFILES["av15-adjusted"]
        base = aggregate_multiclass(matrix, hp)
        moved = aggregate_multiclass(permuted, hp)
        assert np.array_equal(base.score_matrix, moved.score_matrix[:, item_perm])
        assert np.array_equal(base.hard_labels, moved.hard_labels[item_perm])
        assert np.array_equal(base.worker_weights, moved.worker_weights[worker_perm])
        for a, b in zip(base.per_class, moved.per_class):
            assert np.array_equal(a.nll_trace, b.nll_trace)

    @pytest.mark.parametrize("seed", range(5))
    def test_row_order_irrelevant_bit_identical(self, seed):
        matrix = random_instance(seed, num_classes=3)
        order = np.random.default_rng(seed + 200).permutation(matrix.num_labels)
        shuffled = LabelMatrix(
            items=matrix.items[order], workers=matrix.workers[order],
            labels=matrix.labels[order],
            num_items=matrix.num_items, num_workers=matrix.num_workers,
            num_classes=matrix.num_classes, item_ids=matrix.item_ids,
            worker_ids=matrix.worker_ids, label_names=matrix.label_names,
        )
        hp = PROFILES["av15-adjusted"]
        base = aggregate_multiclass(matrix, hp)
        moved = aggregate_multiclass(shuffled, hp)
        assert np.array_equal(base.score_matrix, moved.score_matrix)
        assert np.array_equal(base.worker_weights, moved.worker_weights)
        for a, b in zip(base.per_class, moved.per_class):
            assert np.array_equal(a.nll_trace, b.nll_trace)

    @pytest.mark.parametrize("seed", range(5))
    def test_repeat_runs_bit_identical(self, seed):
        matrix = random_instance(seed, num_classes=4, num_items=90)
        hp = PROFILES["av30-original"]
        a = aggregate_multiclass(matrix, hp)
        b = aggregate_multiclass(matrix, hp)
        assert np.array_equal(a.score_matrix, b.score_matrix)
        assert np.array_equal(a.worker_weights, b.worker_weights)
        assert a.epsilon == b.epsilon


class TestErrorRateBounds:
    @pytest.mark.parametrize("seed", range(8))
    def test_binary_quarter_bound(self, seed):
        matrix = random_instance(seed, accuracy_range=(0.2, 0.9))
        assert estimate_error_rate(matrix) <= 0.25

    @pytest.mark.parametrize("num_classes", [2, 3, 5])
    def test_adjusted_bound(self, num_classes):
        for seed in range(4):
            matrix = random_instance(seed, num_classes=num_classes,
                                     accuracy_range=(0.2, 0.9))
            eps = adjust_error_rate(estimate_error_rate(matrix), num_classes)
            assert eps <= 1.0 - 1.0 / num_classes
