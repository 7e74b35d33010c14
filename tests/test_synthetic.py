"""Synthetic crowd generation: determinism, structure and calibration."""

import re

import numpy as np
import pytest
from test_item_label_fuzz import truth_map

from crowdbwa.baselines import majority_vote
from crowdbwa.dataset import LabelMatrix, load_labels, load_truth, save_labels, save_truth
from crowdbwa.evaluation import accuracy
from crowdbwa.synthetic import (
    SplitMix64,
    SynthSpec,
    _pick_workers,
    _uniforms,
    draw_worker_confusions,
    generate,
)


# The scalar generator that the array implementation replaced, kept as the
# reference: one SplitMix64 draw at a time, categoricals by linear scan, worker
# picks by a partial Fisher-Yates over a dict of swapped positions.
def _reference_confusions(spec, rng):
    lo, hi = spec.accuracy_range
    k = spec.num_classes
    conf = np.empty((spec.num_workers, k, k))
    for j in range(spec.num_workers):
        acc = lo + rng.uniform() * (hi - lo)
        off = (1.0 - acc) / (k - 1) if k > 1 else 0.0
        conf[j] = np.full((k, k), off)
        np.fill_diagonal(conf[j], acc if k > 1 else 1.0)
    return conf


def _reference_sample_distinct(rng, population, count):
    replacements = {}
    out = []
    for t in range(count):
        idx = t + rng.below(population - t)
        out.append(replacements.get(idx, idx))
        replacements[idx] = replacements.get(t, t)
    return out


# A second reference that scales to large shapes: the array walk that the
# target sort replaced. Step t looks its two positions up among every
# earlier step's write: keys[:, s] is the position step s wrote, vals[:, s]
# the value, and a position holds its latest write, or itself.
def _reference_pick_workers(u, population):
    n, count = u.shape
    keys = np.empty((n, count), dtype=np.int64)
    vals = np.empty((n, count), dtype=np.int64)
    picks = np.empty((n, count), dtype=np.int64)
    for t in range(count):
        target = t + (u[:, t] * (population - t)).astype(np.int64)
        current = np.stack([target, np.full(n, t, dtype=np.int64)], axis=1)
        if t:
            hit = keys[:, None, :t] == current[:, :, None]
            last = t - 1 - np.argmax(hit[:, :, ::-1], axis=2)
            written = np.take_along_axis(keys, last, axis=1) == current
            current = np.where(written, np.take_along_axis(vals, last, axis=1), current)
        picks[:, t] = current[:, 0]
        keys[:, t] = target
        vals[:, t] = current[:, 1]
    picks.sort(axis=1)
    return picks


class _Fixed(SplitMix64):
    """Replays given uniforms."""

    def __init__(self, uniforms):
        self._uniforms = iter(uniforms)

    def uniform(self):
        return next(self._uniforms)


def _reference_generate(spec):
    rng = SplitMix64(spec.seed)
    if spec.confusion is None:
        confusion = _reference_confusions(spec, rng)
    else:
        confusion = np.asarray(spec.confusion, dtype=np.float64)
    prior_cdf = np.cumsum(spec.prior_vector())
    label_cdfs = np.cumsum(confusion, axis=2)
    records = []
    truth = {}
    for i in range(spec.num_items):
        true_class = rng.categorical(prior_cdf)
        truth[i] = true_class
        chosen = sorted(_reference_sample_distinct(rng, spec.num_workers, spec.redundancy))
        for j in chosen:
            label = rng.categorical(label_cdfs[j, true_class])
            records.append((f"q{i}", f"w{j}", str(label)))
    matrix = LabelMatrix.from_triples(
        records,
        item_ids=[f"q{i}" for i in range(spec.num_items)],
        worker_ids=[f"w{j}" for j in range(spec.num_workers)],
        num_classes=spec.num_classes,
    )
    return matrix, truth


def _dirichlet_confusion(seed, workers, k):
    return np.random.default_rng(seed).dirichlet(np.ones(k), size=(workers, k))


def _seed_for_draw(n, z):
    """The seed whose draw n (counting from 0) outputs the uint64 ``z``,
    by inverting the SplitMix64 output mix."""
    mask = (1 << 64) - 1

    def unshift(y, s):  # inverse of x ^ (x >> s)
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & mask
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask
    state = unshift(z, 30)
    return (state - (n + 1) * 0x9E3779B97F4A7C15) & mask


_HALF = 1 << 63  # uniform 0.5 exactly
_TOP = (1 << 64) - 1  # uniform 1 - 2^-53, the largest draw


def _random_spec(case):
    rng = np.random.default_rng([31, case])
    workers = int(rng.integers(1, 13))
    k = int(rng.integers(1, 6))
    kwargs = dict(num_items=int(rng.integers(1, 41)), num_workers=workers,
                  num_classes=k, redundancy=int(rng.integers(1, workers + 1)),
                  seed=int(rng.integers(-2**63, 2**63)))
    if case % 3 == 1:
        kwargs["class_prior"] = tuple(rng.dirichlet(np.ones(k)))
    if case % 4 == 2:
        kwargs["confusion"] = _dirichlet_confusion(case, workers, k)
    else:
        lo, hi = sorted(rng.uniform(0.0, 1.0, size=2))
        kwargs["accuracy_range"] = (float(lo), float(hi))
    return SynthSpec(**kwargs)


_REFERENCE_SPECS = [
    SynthSpec(num_items=60, num_workers=7, num_classes=3, redundancy=3, seed=4,
              confusion=_dirichlet_confusion(4, 7, 3)),
    SynthSpec(num_items=80, num_workers=9, num_classes=3, redundancy=4, seed=8,
              class_prior=(0.5, 0.0, 0.5)),
    SynthSpec(num_items=80, num_workers=6, num_classes=4, redundancy=2, seed=9,
              class_prior=(0.7, 0.2, 0.1, 0.0)),
    SynthSpec(num_items=100, num_workers=12, num_classes=10, redundancy=5, seed=10,
              class_prior=(0.1,) * 10),
    SynthSpec(num_items=30, num_workers=5, num_classes=1, redundancy=2, seed=12),
    SynthSpec(num_items=30, num_workers=4, num_classes=1, redundancy=4, seed=13,
              confusion=np.ones((4, 1, 1))),
    SynthSpec(num_items=50, num_workers=10, num_classes=2, redundancy=1, seed=14),
    SynthSpec(num_items=6, num_workers=300, num_classes=3, redundancy=300, seed=15),
    SynthSpec(num_items=1, num_workers=20, num_classes=2, redundancy=7, seed=16),
    SynthSpec(num_items=40, num_workers=8, num_classes=3, redundancy=3, seed=17,
              accuracy_range=(1.0, 1.0)),
    SynthSpec(num_items=40, num_workers=8, num_classes=2, redundancy=3, seed=-3),
    SynthSpec(num_items=40, num_workers=8, num_classes=4, redundancy=5, seed=2**64 - 5),
    # A draw equal to a CDF entry picks the next class; a draw at or above
    # a last entry below 1 (ten 0.1s sum to 1 - 2^-53) picks the last class.
    SynthSpec(num_items=1, num_workers=1, num_classes=2, redundancy=1,
              seed=_seed_for_draw(0, _HALF), class_prior=(0.5, 0.5),
              confusion=np.full((1, 2, 2), 0.5)),
    SynthSpec(num_items=1, num_workers=1, num_classes=2, redundancy=1,
              seed=_seed_for_draw(2, _HALF), confusion=np.full((1, 2, 2), 0.5)),
    SynthSpec(num_items=1, num_workers=1, num_classes=10, redundancy=1,
              seed=_seed_for_draw(0, _TOP), class_prior=(0.1,) * 10,
              confusion=np.full((1, 10, 10), 0.1)),
    SynthSpec(num_items=1, num_workers=1, num_classes=10, redundancy=1,
              seed=_seed_for_draw(2, _TOP), confusion=np.full((1, 10, 10), 0.1)),
    SynthSpec(num_items=2, num_workers=5, num_classes=3, redundancy=5,
              seed=_seed_for_draw(5 + 3 + 2, _TOP)),
] + [_random_spec(case) for case in range(20)]


class TestSplitMix64:
    def test_reference_vector_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_uint64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_reference_vector_seed_1234567(self):
        rng = SplitMix64(1234567)
        assert [rng.next_uint64() for _ in range(5)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]

    def test_uniform_range(self):
        rng = SplitMix64(99)
        values = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in values)

    def test_categorical_inverts_cdf(self):
        rng = SplitMix64(5)
        cdf = np.array([0.2, 0.5, 1.0])
        draws = [rng.categorical(cdf) for _ in range(3000)]
        fractions = np.bincount(draws, minlength=3) / len(draws)
        assert fractions == pytest.approx([0.2, 0.3, 0.5], abs=0.03)


class TestSpecValidation:
    @pytest.mark.parametrize("counts", [(0, 5, 2), (5, 0, 2), (5, 5, 0), (-1, 5, 2)])
    def test_non_positive_counts(self, counts):
        items, workers, classes = counts
        with pytest.raises(ValueError, match="^item, worker and class counts must be positive$"):
            SynthSpec(num_items=items, num_workers=workers, num_classes=classes, redundancy=1)

    def test_confusion_shape(self):
        with pytest.raises(ValueError,
                           match=re.escape("confusion must have shape (3, 2, 2)")):
            SynthSpec(num_items=5, num_workers=3, num_classes=2, redundancy=1,
                      confusion=np.tile(np.eye(2), (2, 1, 1)))

    def test_redundancy_exceeding_workers(self):
        with pytest.raises(ValueError, match="redundancy"):
            SynthSpec(num_items=5, num_workers=3, num_classes=2, redundancy=4)

    def test_bad_prior(self):
        with pytest.raises(ValueError):
            SynthSpec(num_items=5, num_workers=5, num_classes=2, redundancy=2,
                      class_prior=(0.9, 0.2))

    def test_bad_confusion_rows(self):
        conf = np.full((2, 2, 2), 0.4)
        with pytest.raises(ValueError):
            SynthSpec(num_items=5, num_workers=2, num_classes=2, redundancy=1,
                      confusion=conf)

    @pytest.mark.parametrize("prior", [(np.nan, np.nan), (np.nan, 1.0), (np.inf, 0.0)])
    def test_non_finite_prior(self, prior):
        with pytest.raises(ValueError, match="finite"):
            SynthSpec(num_items=5, num_workers=5, num_classes=2, redundancy=2,
                      class_prior=prior)

    @pytest.mark.parametrize("entry", [slice(None), (1, 0, 1)])
    def test_non_finite_confusion(self, entry):
        conf = np.tile(np.eye(2), (2, 1, 1))
        conf[entry] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SynthSpec(num_items=5, num_workers=2, num_classes=2, redundancy=1,
                      confusion=conf)

    def test_bad_accuracy_range(self):
        with pytest.raises(ValueError):
            SynthSpec(num_items=5, num_workers=5, num_classes=2, redundancy=2,
                      accuracy_range=(0.9, 0.5))


class TestGenerate:
    def test_exact_redundancy_from_distinct_workers(self):
        spec = SynthSpec(num_items=50, num_workers=9, num_classes=3, redundancy=4, seed=1)
        matrix, _ = generate(spec)
        assert np.all(matrix.labels_per_item == 4)
        # distinctness is enforced by construction: duplicate pairs would
        # have been rejected when the matrix was built
        assert matrix.num_labels == 200

    def test_fixed_seed_reproduces_bit_identically(self):
        spec = SynthSpec(num_items=40, num_workers=8, num_classes=2, redundancy=3, seed=7)
        m1, t1 = generate(spec)
        m2, t2 = generate(spec)
        assert m1 == m2
        assert truth_map(t1) == truth_map(t2)

    def test_different_seeds_differ(self):
        base = dict(num_items=40, num_workers=8, num_classes=2, redundancy=3)
        m1, _ = generate(SynthSpec(seed=1, **base))
        m2, _ = generate(SynthSpec(seed=2, **base))
        assert m1 != m2

    def test_perfect_workers_reproduce_truth(self):
        k = 3
        conf = np.tile(np.eye(k), (6, 1, 1))
        spec = SynthSpec(num_items=60, num_workers=6, num_classes=k, redundancy=3,
                         seed=3, confusion=conf)
        matrix, truth = generate(spec)
        true_class = truth_map(truth)
        assert np.array_equal(matrix.labels, np.array(
            [true_class[i] for i in matrix.items.tolist()]))
        assert accuracy(majority_vote(matrix).hard_labels, truth) == 1.0

    def test_random_workers_leave_majority_vote_at_chance(self):
        conf = np.full((20, 2, 2), 0.5)
        spec = SynthSpec(num_items=10000, num_workers=20, num_classes=2, redundancy=3,
                         seed=17, confusion=conf)
        matrix, truth = generate(spec)
        assert accuracy(majority_vote(matrix).hard_labels, truth) == pytest.approx(0.5, abs=0.05)

    def test_class_prior_respected(self):
        spec = SynthSpec(num_items=8000, num_workers=5, num_classes=3, redundancy=1,
                         seed=23, class_prior=(0.6, 0.3, 0.1))
        _, truth = generate(spec)
        items, labels = truth
        fractions = np.bincount(labels, minlength=3) / items.size
        assert fractions == pytest.approx([0.6, 0.3, 0.1], abs=0.02)

    def test_empirical_worker_accuracy_tracks_confusion_diagonal(self):
        rng = np.random.default_rng(0)
        k = 2
        diagonals = rng.uniform(0.55, 0.95, size=8)
        conf = np.empty((8, k, k))
        for j, d in enumerate(diagonals):
            conf[j] = np.array([[d, 1 - d], [1 - d, d]])
        spec = SynthSpec(num_items=4000, num_workers=8, num_classes=k, redundancy=3,
                         seed=29, confusion=conf)
        matrix, truth = generate(spec)
        true_class = truth_map(truth)
        truth_arr = np.array([true_class[i] for i in matrix.items.tolist()])
        correct = matrix.labels == truth_arr
        for j, d in enumerate(diagonals):
            mask = matrix.workers == j
            m = int(mask.sum())
            rate = correct[mask].mean()
            se = np.sqrt(d * (1 - d) / m)
            assert abs(rate - d) <= 3 * se

    def test_symmetric_confusions_replayable(self):
        spec = SynthSpec(num_items=10, num_workers=4, num_classes=3, redundancy=2,
                         seed=11, accuracy_range=(0.6, 0.9))
        conf = draw_worker_confusions(spec)
        # the accuracy draws are the first uniforms of the stream
        rng = SplitMix64(11)
        expected = [0.6 + rng.uniform() * 0.3 for _ in range(4)]
        assert np.diagonal(conf, axis1=1, axis2=2) == pytest.approx(
            np.repeat(np.array(expected)[:, None], 3, axis=1), rel=1e-12
        )
        assert conf.sum(axis=2) == pytest.approx(np.ones((4, 3)), rel=1e-12)

    def test_seed_for_draw_inverts_the_stream(self):
        rng = SplitMix64(_seed_for_draw(3, 0x0123456789ABCDEF))
        assert [rng.next_uint64() for _ in range(4)][3] == 0x0123456789ABCDEF

    @pytest.mark.parametrize("spec", _REFERENCE_SPECS)
    def test_matches_scalar_reference(self, spec):
        matrix, truth = generate(spec)
        want_matrix, want_truth = _reference_generate(spec)
        assert matrix == want_matrix
        for arr in (matrix.items, matrix.workers, matrix.labels):
            assert arr.dtype == np.int64
        assert truth_map(truth) == want_truth
        assert truth[0].dtype == truth[1].dtype == np.int64
        if spec.confusion is None:
            assert np.array_equal(draw_worker_confusions(spec),
                                  _reference_confusions(spec, SplitMix64(spec.seed)))

    @pytest.mark.parametrize("items, workers, redundancy", [
        (100_000, 2000, 5),  # the criterion-8 crowd: about 1% of rows repeat a target
        (20, 300, 300),  # redundancy = workers
        (20, 5000, 5000),
        (2000, 15, 10),  # fewer workers than twice the redundancy
        (2000, 640, 40),  # the largest population walked on a whole table
        (2000, 641, 40),  # one more: most rows walk on their compact tables
        (1000, 8, 1),
        (1, 50, 30),
        (1000, 10**9, 7),
        (100_000, 20, 10),  # nearly every row repeats a target
    ])
    def test_picks_match_the_walk(self, items, workers, redundancy):
        u = _uniforms(items + workers, 0, items * redundancy).reshape(items, redundancy)
        assert np.array_equal(_pick_workers(u, workers), _reference_pick_workers(u, workers))

    @pytest.mark.parametrize("workers", [6, 10, 13])
    def test_picks_match_the_scalar_walk_at_extreme_draws(self, workers):
        # all draws 0: every step swaps with itself; all draws at the top:
        # every step targets the last position, a repeat from step 1 on
        u = np.array([[0.0] * 6, [1 - 2.0**-53] * 6, [0.0, 1 - 2.0**-53] * 3])
        want = [sorted(_reference_sample_distinct(_Fixed(row), workers, 6)) for row in u]
        assert _pick_workers(u, workers).tolist() == want
        assert np.array_equal(_reference_pick_workers(u, workers), want)

    def test_written_files_reload(self, tmp_path):
        spec = SynthSpec(num_items=30, num_workers=6, num_classes=2, redundancy=3, seed=5)
        matrix, truth = generate(spec)
        save_labels(matrix, tmp_path / "labels.csv")
        save_truth(truth, matrix, tmp_path / "truth.csv")
        reloaded = load_labels(tmp_path / "labels.csv", num_classes=2)
        retruth = load_truth(tmp_path / "truth.csv", reloaded)
        assert reloaded.num_labels == matrix.num_labels
        # content matches under external ids
        original = {
            (matrix.item_ids[i], matrix.worker_ids[j]): matrix.label_names[k]
            for i, j, k in zip(matrix.items, matrix.workers, matrix.labels)
        }
        round_tripped = {
            (reloaded.item_ids[i], reloaded.worker_ids[j]): reloaded.label_names[k]
            for i, j, k in zip(reloaded.items, reloaded.workers, reloaded.labels)
        }
        assert original == round_tripped
        assert {reloaded.item_ids[i]: k for i, k in truth_map(retruth).items()} == {
            matrix.item_ids[i]: k for i, k in truth_map(truth).items()
        }
