"""Accuracy scoring, signed-rank comparison and report assembly."""

import itertools
import json

import numpy as np
import pytest
from scipy import stats

from crowdbwa.evaluation import (
    _approx_left_tail,
    _average_ranks,
    accuracy,
    build_report,
    wilcoxon_one_sided,
)


def truth_from(mapping):
    """An ``(items, labels)`` truth holding ``mapping``'s item-to-class pairs."""
    return tuple(np.fromiter(column, np.int64, len(mapping))
                 for column in (mapping.keys(), mapping.values()))


class TestAccuracy:
    def test_all_correct(self):
        truth = truth_from({0: 1, 1: 0})
        assert accuracy(np.array([1, 0]), truth) == 1.0

    def test_half_correct(self):
        truth = truth_from({i: 0 for i in range(4)})
        assert accuracy(np.array([0, 0, 1, 1]), truth) == 0.5

    def test_items_outside_truth_ignored(self):
        truth = truth_from({0: 1})
        assert accuracy(np.array([1, 0, 0, 0]), truth) == 1.0
        assert accuracy(np.array([1, 1, 1, 1]), truth) == 1.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0]), truth_from({}))


def diffs_with_negative_ranks(n, negative_ranks, scale=1e-3):
    """Distinct magnitudes 1..n; the listed ranks carry negative sign."""
    return [(-r if r in negative_ranks else r) * scale for r in range(1, n + 1)]


class TestWilcoxon:
    @pytest.mark.parametrize(
        "w_minus, n, expected",
        [(38, 18, 0.0193), (39, 18, 0.0214), (47, 19, 0.0267), (56, 19, 0.0583)],
    )
    def test_published_reference_p_values(self, w_minus, n, expected):
        # greedy subset of {1..n} with the required rank sum
        remaining, negative = w_minus, set()
        for r in range(n, 0, -1):
            if r <= remaining:
                negative.add(r)
                remaining -= r
        assert remaining == 0
        result = wilcoxon_one_sided(diffs_with_negative_ranks(n, negative))
        assert result.n_r == n
        assert result.w_minus == w_minus
        assert round(result.p_approx, 4) == expected

    def test_three_wins_exact_eighth(self):
        result = wilcoxon_one_sided([0.02, 0.01, 0.03])
        assert result.w_minus == 0.0
        assert result.p_exact == 0.125

    def test_zero_differences_discarded(self):
        result = wilcoxon_one_sided([0.0, 0.01, 0.0, -0.02, 0.03])
        assert result.n_r == 3

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_one_sided([0.0, 0.0])

    def test_rank_sum_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(1, 15))
            d = rng.choice([-1, 1], size=n) * rng.integers(1, 6, size=n) * 0.01
            result = wilcoxon_one_sided(d)
            assert result.w_minus + result.w_plus == pytest.approx(
                result.n_r * (result.n_r + 1) / 2
            )

    def test_negation_swaps_rank_sums(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = rng.normal(size=10)
            a = wilcoxon_one_sided(d)
            b = wilcoxon_one_sided(-d)
            assert a.w_minus == b.w_plus
            assert a.w_plus == b.w_minus

    def test_exact_tail_matches_enumeration(self):
        # independent oracle: enumerate every sign assignment directly
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            d = rng.choice([-1, 1], size=n) * rng.integers(1, 4, size=n) * 0.01
            result = wilcoxon_one_sided(d)
            ranks = stats.rankdata(np.abs(d[d != 0]))
            favourable = sum(
                1
                for signs in itertools.product((0, 1), repeat=len(ranks))
                if sum(r for r, s in zip(ranks, signs) if s) <= result.w_minus + 1e-12
            )
            assert result.p_exact == pytest.approx(favourable / 2 ** len(ranks), abs=1e-12)

    def test_exact_close_to_approximation(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(15, 26))
            d = rng.normal(size=n)
            result = wilcoxon_one_sided(d)
            assert result.p_exact is not None
            assert abs(result.p_exact - result.p_approx) < 0.02

    def test_large_sample_skips_exact(self):
        rng = np.random.default_rng(3)
        result = wilcoxon_one_sided(rng.normal(size=30))
        assert result.p_exact is None
        assert 0 < result.p_approx <= 1


class TestWithoutScipyOracles:
    """The package's own rank and normal-tail helpers against scipy's."""

    def test_average_ranks_equal_rankdata_bit_for_bit(self):
        rng = np.random.default_rng(11)
        patterns = [np.full(12, 0.25), np.array([0.5])]  # all tied; a single value
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            patterns.append(rng.integers(0, int(rng.integers(1, 20)), size=n) / 7.0)
        for values in patterns:
            ours, theirs = _average_ranks(values), stats.rankdata(values)
            assert ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes(), values

    def test_approx_tail_near_norm_cdf_for_every_half_integer_w_minus(self):
        worst = 0.0
        for n in range(1, 61):
            w = np.arange(n * (n + 1) + 1) / 2.0
            mean = n * (n + 1) / 4.0
            sd = np.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
            expected = stats.norm.cdf((w - mean) / sd)
            ours = np.array([_approx_left_tail(n, x) for x in w])
            worst = max(worst, float(np.max(np.abs(ours - expected) / expected)))
        assert worst <= 2e-14

    def test_p_approx_is_the_approx_tail(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.choice([-1, 1], size=40) * rng.integers(1, 8, size=40) * 0.01
            result = wilcoxon_one_sided(d)
            assert result.p_approx == _approx_left_tail(result.n_r, result.w_minus)


def toy_truth(n=4):
    return truth_from({i: 0 for i in range(n)})


class TestBuildReport:
    def test_baseline_only_no_test_rows(self):
        truth = toy_truth()
        report = build_report([("mv", "d1", np.zeros(4, int), truth, 0.1)])
        assert len(report.summaries) == 1
        assert report.summaries[0].wilcoxon is None

    def test_always_winning_method(self):
        truth = toy_truth()
        runs = []
        for ds, mv_acc_labels in (("d1", [0, 0, 1, 1]), ("d2", [0, 1, 1, 1])):
            runs.append(("mv", ds, np.array(mv_acc_labels), truth, 0.1))
            runs.append(("better", ds, np.zeros(4, int), truth, 0.2))
        report = build_report(runs)
        summary = next(s for s in report.summaries if s.method == "better")
        assert summary.wilcoxon.w_minus == 0.0

    def test_all_tied_method_has_no_test(self):
        truth = toy_truth()
        runs = [
            ("mv", "d1", np.zeros(4, int), truth, 0.1),
            ("twin", "d1", np.zeros(4, int), truth, 0.1),
        ]
        report = build_report(runs)
        assert next(s for s in report.summaries if s.method == "twin").wilcoxon is None

    def test_missing_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            build_report([("ds", "d1", np.zeros(4, int), toy_truth(), 0.1)])

    def test_duplicate_run_rejected(self):
        truth = toy_truth()
        runs = [
            ("mv", "d1", np.zeros(4, int), truth, 0.1),
            ("mv", "d1", np.zeros(4, int), truth, 0.1),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            build_report(runs)

    def test_json_round_trip(self):
        truth = toy_truth()
        runs = [
            ("mv", "d1", np.array([0, 0, 1, 1]), truth, 0.5),
            ("mv", "d2", np.array([0, 1, 1, 1]), truth, 0.4),
            ("bwa", "d1", np.zeros(4, int), truth, 1.25),
            ("bwa", "d2", np.array([0, 0, 0, 1]), truth, 1.5),
        ]
        report = build_report(runs)
        assert json.loads(report.to_json()) == report.to_dict()

    def test_mean_accuracy(self):
        truth = toy_truth()
        runs = [
            ("mv", "d1", np.zeros(4, int), truth, 0.0),       # 1.0
            ("mv", "d2", np.array([0, 0, 1, 1]), truth, 0.0), # 0.5
        ]
        report = build_report(runs)
        assert report.summaries[0].mean_accuracy == 0.75

    def test_table_renders(self):
        truth = toy_truth()
        runs = [
            ("mv", "d1", np.zeros(4, int), truth, 0.1),
            ("bwa", "d1", np.array([0, 0, 0, 1]), truth, 0.2),
        ]
        table = build_report(runs).format_table()
        assert "dataset" in table and "mv" in table and "bwa" in table
