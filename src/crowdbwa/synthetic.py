"""Confusion-matrix crowd simulator with a portable deterministic RNG.

Datasets with known ground truth are generated for oracle and recovery
tests. Randomness comes from SplitMix64 rather than a platform RNG so
that a fixture is reproducible bit-for-bit from its seed in any
language:

* state update: ``state += 0x9E3779B97F4A7C15 (mod 2^64)``
* output: ``z = state; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EB; z = z ^ (z >> 31)``
  (all mod 2^64)
* uniform double: top 53 bits, ``(z >> 11) * 2^-53``

Draw n (counting from 0) is a pure function of ``seed + (n + 1) *
0x9E3779B97F4A7C15 (mod 2^64)``, so ``generate`` computes all of its
draws at once as one uint64 array. Draw offsets are fixed: symmetric
specs use draws ``[0, W)`` for the worker accuracies,
``lo + u * (hi - lo)``; explicit confusion matrices use none. After
that offset ``off``, item i uses the ``1 + 2r`` draws from
``off + i * (1 + 2r)``: one truth draw, ``r`` worker-selection draws
(a partial Fisher-Yates over the worker range whose step t swaps in
position ``t + floor(u * (W - t))``), then one label draw per assigned
worker in ascending worker order. A categorical draw from a cumulative
distribution ``cdf`` of length K is the count of entries of ``cdf``
that are ``<= u``, clipped to K - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabelMatrix

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """The SplitMix64 generator (constants above)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) as ``floor(uniform() * n)``."""
        return int(self.uniform() * n)

    def categorical(self, cdf) -> int:
        """First index whose cumulative mass exceeds a uniform draw."""
        u = self.uniform()
        for k, threshold in enumerate(cdf):
            if u < threshold:
                return k
        return len(cdf) - 1


@dataclass(eq=False)
class SynthSpec:
    """Recipe for one synthetic dataset.

    Workers are either symmetric (one accuracy per worker drawn
    uniformly from ``accuracy_range``; off-diagonal error mass spread
    evenly) or fully specified through ``confusion`` with shape
    (num_workers, true class, emitted class). Each item is labelled by
    ``redundancy`` distinct workers chosen uniformly.
    """

    num_items: int
    num_workers: int
    num_classes: int
    redundancy: int
    seed: int = 0
    class_prior: tuple[float, ...] | None = None  # None -> uniform
    accuracy_range: tuple[float, float] = (0.55, 0.95)
    confusion: np.ndarray | None = None

    def __post_init__(self):
        if min(self.num_items, self.num_workers, self.num_classes) < 1:
            raise ValueError("item, worker and class counts must be positive")
        if not 1 <= self.redundancy <= self.num_workers:
            raise ValueError(
                f"redundancy {self.redundancy} must be between 1 and the "
                f"worker count {self.num_workers}"
            )
        if self.class_prior is not None:
            prior = np.asarray(self.class_prior, dtype=np.float64)
            valid = np.isfinite(prior) & (prior >= 0)
            if prior.shape != (self.num_classes,) or not valid.all():
                raise ValueError("class_prior must be a finite non-negative vector of length K")
            if abs(float(prior.sum()) - 1.0) > 1e-9:
                raise ValueError("class_prior must sum to 1")
        if self.confusion is not None:
            conf = np.asarray(self.confusion, dtype=np.float64)
            expected = (self.num_workers, self.num_classes, self.num_classes)
            if conf.shape != expected:
                raise ValueError(f"confusion must have shape {expected}")
            valid = np.isfinite(conf) & (conf >= 0)
            if not valid.all() or np.any(np.abs(conf.sum(axis=2) - 1.0) > 1e-9):
                raise ValueError("confusion rows must be finite distributions")
        else:
            lo, hi = self.accuracy_range
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError("accuracy_range must satisfy 0 <= lo <= hi <= 1")

    def prior_vector(self) -> np.ndarray:
        if self.class_prior is None:
            return np.full(self.num_classes, 1.0 / self.num_classes)
        return np.asarray(self.class_prior, dtype=np.float64)


def draw_worker_confusions(spec: SynthSpec) -> np.ndarray:
    """The per-worker confusion matrices ``generate`` will use.

    For symmetric specs these are drawn from the seed (the draws are the
    first ``num_workers`` uniforms of the stream, so this replays
    exactly what ``generate`` consumes); explicit matrices are returned
    as given.
    """
    if spec.confusion is not None:
        return np.asarray(spec.confusion, dtype=np.float64)
    return _draw_confusions(spec, _uniforms(spec.seed, 0, spec.num_workers))


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms ``start`` to ``start + count - 1`` of the SplitMix64
    stream of ``seed``, equal bit for bit to ``SplitMix64.uniform``.

    The arithmetic stays on arrays, which wrap mod 2^64; numpy scalar
    uint64 arithmetic would warn on overflow instead.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _draw_confusions(spec: SynthSpec, u: np.ndarray) -> np.ndarray:
    """Symmetric confusions from one accuracy uniform per worker."""
    lo, hi = spec.accuracy_range
    k = spec.num_classes
    acc = lo + u * (hi - lo)
    conf = np.repeat((1.0 - acc) / max(k - 1, 1), k * k).reshape(spec.num_workers, k, k)
    conf[:, np.arange(k), np.arange(k)] = acc[:, None] if k > 1 else 1.0
    return conf


def generate(spec: SynthSpec) -> tuple[LabelMatrix, tuple[np.ndarray, np.ndarray]]:
    """Sample a labelled dataset and its complete ground truth, the
    latter as ``(items, labels)``: ``arange(num_items)`` and each item's
    true class, both int64.

    Item i is ``q{i}`` at index i and worker j is ``w{j}`` at index j,
    labels or not. Fully reproducible from the seed.
    """
    n, w, k, r = spec.num_items, spec.num_workers, spec.num_classes, spec.redundancy
    confusion = draw_worker_confusions(spec)
    offset = w if spec.confusion is None else 0
    draws = _uniforms(spec.seed, offset, n * (1 + 2 * r)).reshape(n, 1 + 2 * r)

    prior_cdf = np.cumsum(spec.prior_vector())
    truth = np.minimum(np.searchsorted(prior_cdf, draws[:, 0], side="right"), k - 1)
    picks = _pick_workers(draws[:, 1:1 + r], w)

    # Rows of the flattened (worker, true class) label CDFs. Each CDF is
    # non-decreasing, so counting its first k - 1 entries <= u gives the
    # first class whose cumulative mass exceeds u, or k - 1 if none does.
    cdf_rows = picks * k + truth[:, None]
    label_cdfs = np.cumsum(confusion, axis=2).reshape(w * k, k)
    labels = np.zeros((n, r), dtype=np.int64)
    for c in range(k - 1):
        labels += label_cdfs[cdf_rows, c] <= draws[:, 1 + r:]

    items = np.arange(n, dtype=np.int64)
    matrix = LabelMatrix(
        np.repeat(items, r), picks.ravel(), labels.ravel(),
        tuple(f"q{i}" for i in range(n)),
        tuple(f"w{j}" for j in range(w)),
        tuple(map(str, range(k))),
    )
    return matrix, (items, truth)


def _pick_workers(u: np.ndarray, population: int) -> np.ndarray:
    """Per row of ``u``, ``u.shape[1]`` distinct integers from
    [0, population) in ascending order.

    Each row runs a partial Fisher-Yates over a virtual identity array:
    step t swaps position t with ``t + floor(u[:, t] * (population - t))``
    and picks the value that lands at t. Swaps write only to targets, so
    a row whose targets are all distinct picks exactly its targets: no
    step reads a target that an earlier step wrote. Only the other rows
    walk their swaps.
    """
    steps = np.arange(u.shape[1])
    targets = (u * (population - steps)).astype(np.int64)
    targets += steps
    picks = np.sort(targets, axis=1)
    rows = np.flatnonzero((picks[:, 1:] == picks[:, :-1]).any(axis=1))
    if rows.size:
        walking = targets[rows]
        del targets  # when nearly every row walks, both would be held
        walked = _walk_swaps(walking, population)
        walked.sort(axis=1)
        picks[rows] = walked
    return picks


def _walk_swaps(targets: np.ndarray, population: int) -> np.ndarray:
    """The partial Fisher-Yates picks of each row of swap ``targets``,
    in step order, walked on all rows at once.

    A row's table holds the values at the positions it touches, its
    steps and targets, sorted: 2r slots, a position's slot being the
    first of its equal entries. A population of at most 16r is its own
    table instead: filling that costs less than the sort, and it holds
    at most 8 times as many entries.
    """
    rows, count = targets.shape
    # one row of slots per step: its position's, then its target's
    slots = np.empty((2 * count, rows), dtype=np.int64)
    slots[:count] = np.arange(count)[:, None]
    slots[count:] = targets.T
    if population <= 16 * count:
        table = np.tile(np.arange(population), rows)
        slots += np.arange(0, table.size, population)
    else:
        # column j of the table is row j's positions, sorted
        order = np.argsort(slots, axis=0)
        order *= rows
        order += np.arange(rows)
        table = np.take(slots, order)
        heads = np.arange(table.size).reshape(table.shape)
        heads[1:][table[1:] == table[:-1]] = 0
        np.maximum.accumulate(heads, axis=0, out=heads)
        np.put(slots, order, heads)
        del order, heads
        table = table.ravel()
    picks = np.empty((count, rows), dtype=np.int64)
    for t in range(count):
        picks[t] = table[slots[count + t]]
        table[slots[count + t]] = table[slots[t]]
    return picks.T
