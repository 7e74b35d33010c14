"""Checks of every command's output, computed apart from crowdbwa.

Nothing here imports the program. Each aggregator is re-derived in
plain numpy from the model's closed-form steps (see the module
docstrings of ``crowdbwa.bwa`` and ``crowdbwa.baselines``), and
``synth`` output is replayed from the SplitMix64 draw order documented
in ``crowdbwa.synthetic``. Every check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Items whose top-two reference scores (BWA) or posteriors (DS) lie
#: closer than this may legitimately tie-break either way under a
#: different summation order, so their hard labels are not compared.
MARGIN_TOL = 1e-6

# The default `aggregate --method bwa` profile, av15-adjusted.
A_V = 15.0
LAM = 1.0
BWA_TOL = 1e-3
BWA_MAX_ITERS = 500
EPS_FLOOR = 1e-6
REL_FLOOR = 1e-8

# `aggregate --method ds` defaults.
DS_SMOOTHING = 0.01
DS_TOL = 1e-4
DS_MAX_ITERS = 100


class Triples:
    """A dataset's labels as dense arrays over the classes in its file."""

    def __init__(self, ds):
        self.items, self.workers = ds.items, ds.workers
        self.n, self.w = len(ds.item_ids), len(ds.worker_ids)
        if ds.shape.names is None:
            # Integer labels: the class index is the label itself.
            self.classes = np.arange(int(ds.labels.max()) + 1)
        else:
            self.classes = np.unique(ds.labels)
        self.k = self.classes.size
        self.labels = np.searchsorted(self.classes, ds.labels)
        self.counts = np.bincount(
            self.items * self.k + self.labels, minlength=self.n * self.k
        ).reshape(self.n, self.k).astype(np.float64)


def read_predictions(path, ds) -> tuple[np.ndarray, list[str]]:
    """Per item, the predicted class (-1 if missing), plus problems."""
    item_index = {name: i for i, name in enumerate(ds.item_ids)}
    label_index = {name: c for c, name in enumerate(ds.label_names)}
    lines = Path(path).read_text().splitlines()
    problems = []
    if not lines or lines[0] != "question,label":
        return np.full(len(ds.item_ids), -1), [f"{path}: bad header"]
    pred = np.full(len(ds.item_ids), -1)
    for line in lines[1:]:
        item, _, label = line.partition(",")
        if item not in item_index or label not in label_index:
            problems.append(f"{path}: unknown row {line!r}")
            break
        pred[item_index[item]] = label_index[label]
    if (pred < 0).any():
        problems.append(f"{path}: {int((pred < 0).sum())} items without a prediction")
    return pred, problems


def accuracy(pred, ds) -> float:
    return float(np.mean(pred == ds.truth))


def check_mv(pred, ds) -> list[str]:
    """Each prediction must be a class with the item's highest vote count."""
    t = Triples(ds)
    dense = np.searchsorted(t.classes, pred)
    valid = (dense < t.k) & (t.classes[np.minimum(dense, t.k - 1)] == pred)
    got = t.counts[np.arange(t.n), np.minimum(dense, t.k - 1)]
    bad = ~valid | (got != t.counts.max(axis=1))
    if bad.any():
        return [f"mv: {int(bad.sum())} items predicted a class without the most votes"]
    return []


# ---------------------------------------------------------------------------
# BWA
# ---------------------------------------------------------------------------


def pooled_error_rate(t: Triples) -> tuple[float, float]:
    """(epsilon, b_v) for the adjusted profile.

    Raw rate: each item/class cell with ``n`` of ``m`` votes adds
    ``n (m - n) / m``, over ``K`` times the label count, floored; then
    rescaled by ``4 (1 - 1/K)``; ``b_v = a_v * max(eps, floor)``.
    """
    m = t.counts.sum(axis=1)
    keep = m > 0
    c, m = t.counts[keep], m[keep][:, None]
    raw = max(float((c * (m - c) / m).sum()) / (t.k * float(m.sum())), EPS_FLOOR)
    b_v = A_V * max(raw * 4.0 * (1.0 - 1.0 / t.k), EPS_FLOOR)
    return b_v / A_V, b_v


def bwa_scores(t: Triples, b_v: float):
    """One-vs-rest EM scores (K, N), iterations and convergence per class."""
    n_j = np.bincount(t.workers, minlength=t.w).astype(np.float64)
    totals = t.counts.sum(axis=1)

    def expectation(z, y):
        r = z[t.items] - y
        sse = np.minimum(np.bincount(t.workers, r * r, minlength=t.w), n_j)
        return (A_V + n_j) / (b_v + sse)

    scores, iterations, converged = [], [], []
    for c in range(t.k):
        y = (t.labels == c).astype(np.float64)
        z = np.where(totals > 0, t.counts[:, c] / np.maximum(totals, 1), 0.5)
        mu = z.mean()
        eqv = expectation(z, y)
        done = False
        for it in range(1, BWA_MAX_ITERS + 1):
            z_prev = z
            wt = eqv[t.workers]
            den = np.bincount(t.items, wt, minlength=t.n)
            num = np.bincount(t.items, wt * y, minlength=t.n)
            z = np.clip((LAM * mu + num) / (LAM + den), 0.0, 1.0)
            mu = z.mean()
            eqv = expectation(z, y)
            rel = np.abs(z - z_prev) / np.maximum(np.abs(z_prev), REL_FLOOR)
            if rel.max() <= BWA_TOL:
                done = True
                break
        scores.append(z)
        iterations.append(it)
        converged.append(done)
    return np.stack(scores), iterations, converged


def check_bwa(pred, summary_path, ds) -> list[str]:
    t = Triples(ds)
    summary = json.loads(Path(summary_path).read_text())
    eps, b_v = pooled_error_rate(t)
    problems = []
    if not np.isclose(summary["epsilon"], eps, rtol=1e-9, atol=0):
        problems.append(f"bwa: epsilon {summary['epsilon']!r}, expected {eps!r}")
    if not np.isclose(summary["b_v"], b_v, rtol=1e-9, atol=0):
        problems.append(f"bwa: b_v {summary['b_v']!r}, expected {b_v!r}")
    if summary["converged"] is not True:
        problems.append("bwa: a class run did not converge")
    scores, iterations, converged = bwa_scores(t, b_v)
    if not all(converged):
        problems.append("bwa: the reference EM did not converge")
    if sorted(summary["iterations"]) != sorted(iterations):
        problems.append(f"bwa: iterations {summary['iterations']}, expected {iterations}")
    top2 = np.sort(scores, axis=0)[-2:]
    problems += _compare(pred, t, np.argmax(scores, axis=0), top2[1] - top2[0], "bwa")
    return problems


# ---------------------------------------------------------------------------
# Dawid-Skene
# ---------------------------------------------------------------------------


def dawid_skene(t: Triples):
    """Smoothed DS EM from the soft majority vote.

    Returns (posteriors as a (K, N) array, iterations, converged).
    """
    k, s = t.k, DS_SMOOTHING
    totals = t.counts.sum(axis=1)
    post = np.where(totals > 0, t.counts.T / np.maximum(totals, 1), 1.0 / k)
    cell = t.workers * k + t.labels  # (worker, observed class)
    converged = False
    for it in range(1, DS_MAX_ITERS + 1):
        priors = (post.sum(axis=1) + s) / (t.n + k * s)
        # conf[true, worker, observed], normalised over the observed class
        conf = np.stack([np.bincount(cell, post[c][t.items], minlength=t.w * k)
                         for c in range(k)]).reshape(k, t.w, k) + s
        log_conf = np.log(conf / conf.sum(axis=2, keepdims=True)).reshape(k, t.w * k)
        log_like = np.log(priors)[:, None] + np.stack([
            np.bincount(t.items, log_conf[c][cell], minlength=t.n) for c in range(k)
        ])
        unnorm = np.exp(log_like - log_like.max(axis=0))
        new = unnorm / unnorm.sum(axis=0)
        delta = np.abs(new - post).max()
        post = new
        if delta <= DS_TOL:
            converged = True
            break
    return post, it, converged


def check_ds(pred, stderr: str, ds) -> list[str]:
    t = Triples(ds)
    post, iterations, converged = dawid_skene(t)
    problems = []
    expected = f"ds: {iterations} iterations, converged={converged}"
    if expected not in stderr:
        problems.append(f"ds: reported {stderr.strip()!r}, expected {expected!r}")
    top2 = np.sort(post, axis=0)[-2:]
    problems += _compare(pred, t, np.argmax(post, axis=0), top2[1] - top2[0], "ds")
    return problems


def _compare(pred, t: Triples, ref_dense, margin, method) -> list[str]:
    ref = t.classes[ref_dense]
    clear = margin > MARGIN_TOL
    bad = clear & (pred != ref)
    if bad.any():
        return [f"{method}: {int(bad.sum())} of {int(clear.sum())} clear items differ "
                "from the reference"]
    return []


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


class _SplitMix64:
    def __init__(self, seed):
        self.state = seed & _MASK64

    def uniform(self) -> float:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53

    def categorical(self, cdf) -> int:
        u = self.uniform()
        for k, threshold in enumerate(cdf):
            if u < threshold:
                return k
        return len(cdf) - 1


def synth_prefix(items, workers, k, redundancy, seed, lo=0.55, hi=0.95):
    """The first ``items`` items of a symmetric-worker ``synth`` run:
    (label rows, truth rows) as written, replayed draw by draw."""
    rng = _SplitMix64(seed)
    cdfs = []
    for _ in range(workers):
        acc = lo + rng.uniform() * (hi - lo)
        rows = np.full((k, k), (1.0 - acc) / (k - 1))
        np.fill_diagonal(rows, acc)
        cdfs.append(np.cumsum(rows, axis=1))
    prior_cdf = np.cumsum(np.full(k, 1.0 / k))
    label_rows, truth_rows = [], []
    for i in range(items):
        true_class = rng.categorical(prior_cdf)
        truth_rows.append(f"q{i},{true_class}")
        swapped, chosen = {}, []
        for t in range(redundancy):
            idx = t + int(rng.uniform() * (workers - t))
            chosen.append(swapped.get(idx, idx))
            swapped[idx] = swapped.get(t, t)
        for j in sorted(chosen):
            label_rows.append(f"q{i},w{j},{rng.categorical(cdfs[j][true_class])}")
    return label_rows, truth_rows


def check_synth(labels_path, truth_path, items, workers, k, redundancy, seed,
                prefix_items) -> list[str]:
    """A replayed prefix, then shape and range checks over the whole output."""
    header, _, body = Path(labels_path).read_text().partition("\n")
    truth_header, _, truth_body = Path(truth_path).read_text().partition("\n")
    if header != "question,worker,answer" or truth_header != "question,truth":
        return ["synth: bad header"]
    want_rows, want_truth = synth_prefix(min(prefix_items, items), workers, k,
                                         redundancy, seed)
    problems = []
    if body.split("\n", len(want_rows))[:len(want_rows)] != want_rows:
        problems.append("synth: label rows differ from the SplitMix64 replay")
    if truth_body.split("\n", len(want_truth))[:len(want_truth)] != want_truth:
        problems.append("synth: truth rows differ from the SplitMix64 replay")
    try:
        rows = _int_fields(body, "qw", 3)
        truth = _int_fields(truth_body, "q", 2)
    except ValueError as exc:
        return problems + [f"synth: {exc}"]
    if rows.shape[0] != items * redundancy or truth.shape[0] != items:
        return problems + [f"synth: {rows.shape[0]} label rows and {truth.shape[0]} "
                           f"truth rows, expected {items * redundancy} and {items}"]
    if not np.array_equal(rows[:, 0], np.repeat(np.arange(items), redundancy)):
        problems.append("synth: items are not q0..q{n-1}, each with redundancy rows")
    pairs = np.sort(rows[:, 1].reshape(items, redundancy), axis=1)
    if pairs[:, 0].min() < 0 or pairs[:, -1].max() >= workers or (
            np.diff(pairs, axis=1) == 0).any():
        problems.append("synth: workers out of range or repeated within an item")
    if not np.array_equal(truth[:, 0], np.arange(items)):
        problems.append("synth: truth rows are not q0..q{n-1} in order")
    if min(rows[:, 2].min(), truth[:, 1].min()) < 0 or max(
            rows[:, 2].max(), truth[:, 1].max()) >= k:
        problems.append("synth: labels out of range")
    return problems


def _int_fields(body: str, prefixes: str, width: int) -> np.ndarray:
    """Rows of ``width`` comma-separated integers, id prefixes stripped."""
    for p in prefixes:
        body = body.replace(p, "")
    fields = body.replace("\n", ",").rstrip(",").split(",")
    if len(fields) % width:
        raise ValueError(f"{len(fields)} fields do not make rows of {width}")
    return np.array(fields, dtype=np.int64).reshape(-1, width)
