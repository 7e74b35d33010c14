"""Acceptance gate.

Every test here is one exit criterion, checked at its stated tolerance:

1. exhaustive tiny-instance EM correctness against a lattice search
2. objective monotonicity and convergence on seeded synthetic crowds
3. signed-rank p-values matching the published reference table
4. the error-rate estimator's 1/4 bound and doubling rule
5. recovery on synthetic crowds: beats majority vote, ranks workers
6. the invariant suite (symmetries, determinism, bounds)
7. published-benchmark reproduction (skipped unless the corpus is present)
8. wall-clock performance at the largest benchmark scale

A conftest hook prints one PASS/FAIL line per criterion.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from crowdbwa.baselines import majority_vote
from crowdbwa.bwa import (
    PROFILES,
    BwaHyperParams,
    adjust_error_rate,
    aggregate_multiclass,
    e_step,
    estimate_error_rate,
    init_state,
    m_step,
    run_em_binary,
)
from crowdbwa.dataset import LabelMatrix, binary_view, load_labels, load_truth
from crowdbwa.evaluation import accuracy, wilcoxon_one_sided
from crowdbwa.synthetic import SynthSpec, draw_worker_confusions, generate

# ---------------------------------------------------------------------------
# criterion 1: exhaustive tiny instances against a lattice-search oracle
# ---------------------------------------------------------------------------

STEPS = 1000                       # lattice {0, 1e-3, ..., 1}
LATTICE = np.arange(STEPS + 1) / STEPS
COARSE_IDX = np.arange(0, STEPS + 1, 8)
REFINE_TOP = 200                   # coarse cells refined to full resolution


def canonical_instances():
    """Every binary instance with <=3 items and <=3 workers, one per orbit.

    Cells take values {absent, 0, 1}; instances whose pattern differs
    only by an item permutation, worker permutation or global label swap
    are equivalent (exact symmetries of the model, verified separately),
    so one representative per orbit is enumerated. Workers with no
    labels only shift the objective by a constant and are covered by the
    smaller worker counts. Every item has a label, as a ``LabelMatrix``
    requires; a grid with an empty item row would reduce to the same grid
    without that row, already enumerated, since an unlabelled item's best
    ``z`` is ``mu`` and it adds 0 to the objective.
    """
    out = []
    for n in (1, 2, 3):
        for w in (1, 2, 3):
            pats = np.array(
                list(itertools.product((0, 1, 2), repeat=n * w)), dtype=np.int8
            ).reshape(-1, n, w)
            filled = pats != 0
            pats = pats[filled.any(axis=1).all(axis=1) & filled.any(axis=2).all(axis=1)]
            powers = 3 ** np.arange(n * w, dtype=np.int64)
            own = pats.reshape(len(pats), -1).astype(np.int64) @ powers
            best = None
            for pi in itertools.permutations(range(n)):
                for pj in itertools.permutations(range(w)):
                    moved = pats[:, list(pi), :][:, :, list(pj)]
                    for g in (moved, np.where(moved == 0, 0, 3 - moved)):
                        codes = g.reshape(len(pats), -1).astype(np.int64) @ powers
                        best = codes if best is None else np.minimum(best, codes)
            out += [(n, w, g.copy()) for g in pats[own == best]]
    return out


def worker_cells(grid):
    """Per worker, the [(item, label)] cells the worker filled in."""
    n, w = grid.shape
    return [
        [(i, int(grid[i, j]) - 1) for i in range(n) if grid[i, j]]
        for j in range(w)
        if (grid[:, j] != 0).any()
    ]


def objective_at(zs, cells, lam, a_v, b_v):
    """The negative log likelihood at points ``zs`` (rows), mu = mean."""
    n = zs.shape[1]
    su = zs.sum(axis=1)
    total = 0.5 * lam * ((zs * zs).sum(axis=1) - su * su / n)
    for c in cells:
        coef = 0.5 * (a_v + len(c))
        sse = np.zeros(len(zs))
        for i, y in c:
            d = zs[:, i] - y
            sse += d * d
        total = total + coef * np.log(b_v + sse)
    return total


def _coarse_axis_sse(cells, n):
    cg = LATTICE[COARSE_IDX]
    axis = np.zeros((n, len(cells), cg.size))
    for jj, c in enumerate(cells):
        for i, y in c:
            axis[i, jj] += (cg - y) ** 2
    return axis


_COARSE_PRIOR_3D = None


def _coarse_prior_3d(lam):
    global _COARSE_PRIOR_3D
    if _COARSE_PRIOR_3D is None:
        cg = LATTICE[COARSE_IDX]
        su = cg[:, None, None] + cg[None, :, None] + cg[None, None, :]
        sq = (cg**2)[:, None, None] + (cg**2)[None, :, None] + (cg**2)[None, None, :]
        _COARSE_PRIOR_3D = (0.5 * (sq - su * su / 3.0)).astype(np.float32)
    return lam * _COARSE_PRIOR_3D


def lattice_minimum(grid, lam, a_v, b_v, coarse_axis_sse=None):
    """Minimum of the objective over the full 1e-3 lattice, mu at the mean.

    One and two item instances are scanned exhaustively. For three items
    a float32 scan of every 8th lattice point ranks candidate regions
    and the best ``REFINE_TOP`` regions are re-evaluated exhaustively at
    full resolution in float64 (deepening the refinement does not change
    the result; the objective is far smoother than the coarse spacing).
    """
    cells = worker_cells(grid)
    n = grid.shape[0]
    if n == 1:
        pts = LATTICE[:, None]
        vals = objective_at(pts, cells, lam, a_v, b_v)
        k = int(np.argmin(vals))
        return float(vals[k]), pts[k]
    if n == 2:
        pts = np.column_stack(
            [np.repeat(LATTICE, STEPS + 1), np.tile(LATTICE, STEPS + 1)]
        )
        vals = objective_at(pts, cells, lam, a_v, b_v)
        k = int(np.argmin(vals))
        return float(vals[k]), pts[k]

    if coarse_axis_sse is None:
        coarse_axis_sse = _coarse_axis_sse(cells, 3)
    # In place in one float32 buffer: the same float64 sums rounded once to
    # float32, so bit for bit the values of the plain expression, in about
    # half the time (this scan is most of the oracle's cost).
    total = _coarse_prior_3d(lam)
    sse = np.empty_like(total)
    for jj, c in enumerate(cells):
        coef = 0.5 * (a_v + len(c))
        np.add(
            (coarse_axis_sse[0, jj][:, None] + coarse_axis_sse[1, jj][None, :])[:, :, None],
            coarse_axis_sse[2, jj][None, None, :],
            out=sse,
            casting="same_kind",
        )
        sse += b_v
        np.log(sse, out=sse)
        sse *= coef
        total += sse
    flat = total.ravel()
    top = np.argpartition(flat, REFINE_TOP - 1)[:REFINE_TOP]
    idx = np.unravel_index(top, total.shape)
    offsets = np.arange(-8, 9)
    windows = [
        np.clip(COARSE_IDX[ax][:, None] + offsets[None, :], 0, STEPS) for ax in idx
    ]
    keys = (
        windows[0][:, :, None, None].astype(np.int64) * (STEPS + 1)
        + windows[1][:, None, :, None]
    ) * (STEPS + 1) + windows[2][:, None, None, :]
    # Deduplicate by sort plus an adjacent-difference mask, not np.unique:
    # on numpy 2.4.6, np.unique takes about 290 ms on these ~1M int64 keys
    # (even with sorted=True) against about 20 ms for this, which alone
    # decides whether criterion 1 fits its 120 s gate. Same sorted array.
    uniq = np.sort(keys.ravel())
    uniq = uniq[np.r_[True, uniq[1:] != uniq[:-1]]]
    pts = np.column_stack(
        [
            LATTICE[uniq // ((STEPS + 1) ** 2)],
            LATTICE[(uniq // (STEPS + 1)) % (STEPS + 1)],
            LATTICE[uniq % (STEPS + 1)],
        ]
    )
    vals = objective_at(pts, cells, lam, a_v, b_v)
    k = int(np.argmin(vals))
    return float(vals[k]), pts[k]


def matrix_for_grid(grid):
    n, w = grid.shape
    rows = [
        (f"q{i}", f"w{j}", str(int(grid[i, j]) - 1))
        for i in range(n)
        for j in range(w)
        if grid[i, j]
    ]
    return LabelMatrix.from_triples(
        rows,
        item_ids=[f"q{i}" for i in range(n)],
        worker_ids=[f"w{j}" for j in range(w) if (grid[:, j] != 0).any()],
        num_classes=2,
    )


def test_criterion_1_em_objective_matches_lattice_oracle():
    started = time.perf_counter()
    instances = canonical_instances()
    assert len(instances) == 381
    checked = 0
    worst_gap = 0.0
    em_seconds = 0.0
    for n, w, grid in instances:
        cells = worker_cells(grid)
        coarse = _coarse_axis_sse(cells, 3) if n == 3 else None
        matrix = matrix_for_grid(grid)
        view = binary_view(matrix, 1)
        for a_v in (2.0, 15.0):
            b_v = a_v / 2.0
            hp = BwaHyperParams(
                a_v=a_v, b_v=b_v, epsilon_strategy="fixed",
                tolerance=1e-11, max_iters=20000,
            )
            em_started = time.perf_counter()
            result = run_em_binary(view, hp)
            em_seconds += time.perf_counter() - em_started
            em_objective = float(result.nll_trace[-1])
            oracle, oracle_z = lattice_minimum(grid, 1.0, a_v, b_v, coarse)
            gap = abs(em_objective - oracle)
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-4, (grid.tolist(), a_v, em_objective, oracle)
            for z_em, z_or in zip(result.scores, oracle_z):
                if abs(z_or - 0.5) >= 0.05:
                    assert (z_em > 0.5) == (z_or > 0.5), (grid.tolist(), a_v)
            checked += 1
    elapsed = time.perf_counter() - started
    print(
        f"\n  criterion 1: {checked} runs, worst gap {worst_gap:.2e}, "
        f"{elapsed:.0f}s (EM {em_seconds:.0f}s)"
    )
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 2: monotone, convergent EM on seeded synthetic instances
# ---------------------------------------------------------------------------


def test_criterion_2_monotone_and_convergent():
    started = time.perf_counter()
    instances = 0
    for seed in range(50):
        for k in (2, 4):
            matrix, _ = generate(
                SynthSpec(num_items=200, num_workers=20, num_classes=k,
                          redundancy=5, seed=1000 * k + seed,
                          accuracy_range=(0.35, 0.9))
            )
            result = aggregate_multiclass(matrix, PROFILES["av15-adjusted"])
            for r in result.per_class:
                assert np.all(np.diff(r.nll_trace) <= 1e-9)
                assert r.converged
                assert r.iterations <= 500
            instances += 1
    elapsed = time.perf_counter() - started
    assert instances == 100
    print(f"\n  criterion 2: 100 instances, {elapsed:.1f}s")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 3: signed-rank p-values against the published table
# ---------------------------------------------------------------------------


def test_criterion_3_wilcoxon_parity():
    expected = {
        (38, 18): 0.0193,
        (39, 18): 0.0214,
        (47, 19): 0.0267,
        (56, 19): 0.0583,
    }
    for (w_minus, n), p in expected.items():
        remaining, negative = w_minus, set()
        for r in range(n, 0, -1):
            if r <= remaining:
                negative.add(r)
                remaining -= r
        assert remaining == 0
        diffs = [(-r if r in negative else r) * 1e-3 for r in range(1, n + 1)]
        result = wilcoxon_one_sided(diffs)
        assert result.n_r == n
        assert result.w_minus == w_minus
        assert round(result.p_approx, 4) == p


# ---------------------------------------------------------------------------
# criterion 4: error-rate bound and doubling rule
# ---------------------------------------------------------------------------


def test_criterion_4_error_rate_rule():
    rng = np.random.default_rng(0)
    for trial in range(40):
        rows = []
        for i in range(int(rng.integers(1, 10))):
            for j in rng.choice(12, size=int(rng.integers(1, 7)), replace=False):
                rows.append((f"q{i}", f"w{j}", str(int(rng.integers(2)))))
        matrix = LabelMatrix.from_triples(rows, num_classes=2)
        eps = estimate_error_rate(matrix)
        assert eps <= 0.25
        assert adjust_error_rate(eps, 2) == 2.0 * eps

    # perfectly split votes attain the bound exactly
    for votes in (2, 4, 10):
        rows = [("q0", f"w{j}", str(j % 2)) for j in range(votes)]
        matrix = LabelMatrix.from_triples(rows, num_classes=2)
        assert estimate_error_rate(matrix) == 0.25


# ---------------------------------------------------------------------------
# criterion 5: synthetic recovery beats majority vote, ranks workers
# ---------------------------------------------------------------------------


def test_criterion_5_synthetic_recovery():
    started = time.perf_counter()
    bwa_accs, mv_accs, correlations = [], [], []
    for seed in range(20):
        spec = SynthSpec(num_items=1000, num_workers=50, num_classes=2,
                         redundancy=5, seed=seed, accuracy_range=(0.55, 0.95))
        matrix, truth = generate(spec)
        true_diagonals = np.diagonal(
            draw_worker_confusions(spec), axis1=1, axis2=2
        )[:, 0]
        result = aggregate_multiclass(matrix, PROFILES["av15-adjusted"])
        bwa_accs.append(accuracy(result.hard_labels, truth))
        mv_accs.append(accuracy(majority_vote(matrix).hard_labels, truth))
        rho = stats.spearmanr(result.worker_weights, true_diagonals).statistic
        correlations.append(rho)
    elapsed = time.perf_counter() - started
    print(
        f"\n  criterion 5: bwa {np.mean(bwa_accs):.4f} vs mv {np.mean(mv_accs):.4f}, "
        f"min rho {min(correlations):.3f}, {elapsed:.1f}s"
    )
    assert np.mean(bwa_accs) >= np.mean(mv_accs)
    assert all(rho > 0.5 for rho in correlations)
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 6: invariant suite
# ---------------------------------------------------------------------------


def _relabel(matrix, item_perm, worker_perm):
    return LabelMatrix(
        items=item_perm[matrix.items].copy(),
        workers=worker_perm[matrix.workers].copy(),
        labels=matrix.labels.copy(),
        item_ids=tuple(np.array(matrix.item_ids)[np.argsort(item_perm)]),
        worker_ids=tuple(np.array(matrix.worker_ids)[np.argsort(worker_perm)]),
        label_names=matrix.label_names,
    )


def test_criterion_6_invariant_suite():
    for seed in range(8):
        spec = SynthSpec(num_items=100, num_workers=12, num_classes=2, redundancy=4,
                         seed=seed, accuracy_range=(0.35, 0.95))
        matrix, _ = generate(spec)
        view = binary_view(matrix, 1)
        # fixed-point tolerance: the stopping rule's relative difference
        # is asymmetric under z -> 1-z, so mirrored runs at a loose
        # tolerance may stop one iteration apart
        hp = BwaHyperParams(a_v=12.0, b_v=6.0, epsilon_strategy="fixed",
                            tolerance=1e-13, max_iters=10000)

        # label-swap equivariance within 1e-12
        flipped = LabelMatrix(
            items=matrix.items.copy(), workers=matrix.workers.copy(),
            labels=(1 - matrix.labels).copy(),
            item_ids=matrix.item_ids, worker_ids=matrix.worker_ids,
            label_names=matrix.label_names,
        )
        base = run_em_binary(view, hp)
        swap = run_em_binary(binary_view(flipped, 1), hp)
        assert np.abs(swap.scores - (1.0 - base.scores)).max() <= 1e-12

        # worker/item permutation invariance, bit-identical
        rng = np.random.default_rng(seed)
        item_perm = rng.permutation(matrix.num_items)
        worker_perm = rng.permutation(matrix.num_workers)
        moved = run_em_binary(binary_view(_relabel(matrix, item_perm, worker_perm), 1), hp)
        assert np.array_equal(base.scores, moved.scores[item_perm])
        assert np.array_equal(base.worker_weights, moved.worker_weights[worker_perm])

        # determinism, bit-identical
        again = run_em_binary(view, hp)
        assert np.array_equal(base.scores, again.scores)
        assert np.array_equal(base.nll_trace, again.nll_trace)

        # range and minimum-weight guarantees at every iteration (b_v <= a_v)
        state = init_state(view, hp)
        for _ in range(15):
            assert np.all((state.z >= 0.0) & (state.z <= 1.0))
            assert np.all(state.eqv >= 1.0)
            state = m_step(state, view, hp)
            state = e_step(state, view, hp)


# ---------------------------------------------------------------------------
# criterion 7: published-benchmark reproduction (needs the public corpus)
# ---------------------------------------------------------------------------

DATASETS_ENV = "CROWDBWA_DATASETS"


def _benchmark_root():
    candidates = []
    if os.environ.get(DATASETS_ENV):
        candidates.append(Path(os.environ[DATASETS_ENV]))
    candidates.append(Path(__file__).parent / "data" / "real")
    for root in candidates:
        if root.is_dir() and any(root.iterdir()):
            return root
    return None


def test_criterion_7_published_benchmark_reproduction():
    root = _benchmark_root()
    if root is None:
        pytest.skip(
            "public 19-dataset benchmark corpus not available; set "
            f"{DATASETS_ENV} to a directory of <name>/{{answer.csv,truth.csv}} "
            "datasets to enable this criterion (criteria 1-6 stand alone)"
        )
    datasets = []
    for entry in sorted(root.iterdir()):
        if not entry.is_dir():
            continue
        label_file = next(
            (entry / n for n in ("answer.csv", "labels.csv") if (entry / n).exists()),
            None,
        )
        if label_file and (entry / "truth.csv").exists():
            datasets.append((entry.name, label_file, entry / "truth.csv"))
    assert len(datasets) == 19, f"expected the 19-dataset corpus, found {len(datasets)}"

    accs = {"mv": [], "av30": [], "av15": []}
    for _, label_file, truth_file in datasets:
        matrix = load_labels(label_file)
        truth = load_truth(truth_file, matrix)
        accs["mv"].append(accuracy(majority_vote(matrix).hard_labels, truth))
        accs["av30"].append(
            accuracy(aggregate_multiclass(matrix, PROFILES["av30-original"]).hard_labels, truth)
        )
        accs["av15"].append(
            accuracy(aggregate_multiclass(matrix, PROFILES["av15-adjusted"]).hard_labels, truth)
        )

    assert abs(np.mean(accs["mv"]) - 0.8196) <= 0.001
    assert abs(np.mean(accs["av15"]) - 0.8352) <= 0.003
    assert abs(np.mean(accs["av30"]) - 0.8342) <= 0.003
    for profile in ("av15", "av30"):
        diffs = np.array(accs[profile]) - np.array(accs["mv"])
        result = wilcoxon_one_sided(diffs)
        assert result.n_r == 18
        assert result.w_minus <= 39


# ---------------------------------------------------------------------------
# criterion 8: wall-clock performance at the largest benchmark scale
# ---------------------------------------------------------------------------


def test_criterion_8_performance_at_scale():
    spec = SynthSpec(num_items=100_000, num_workers=2000, num_classes=2,
                     redundancy=5, seed=12345, accuracy_range=(0.55, 0.95))
    matrix, truth = generate(spec)
    assert matrix.num_labels == 500_000

    started = time.perf_counter()
    mv_result = majority_vote(matrix)
    mv_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    bwa_result = aggregate_multiclass(matrix, PROFILES["av15-adjusted"])
    bwa_elapsed = time.perf_counter() - started

    print(f"\n  criterion 8: bwa {bwa_elapsed:.2f}s, mv {mv_elapsed:.3f}s")
    assert bwa_elapsed < 10.0
    assert mv_elapsed < 1.0
    # sanity: the run did real work
    assert accuracy(bwa_result.hard_labels, truth) >= accuracy(mv_result.hard_labels, truth)
