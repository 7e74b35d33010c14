"""Seeded inputs for the three benchmark workloads.

Every label and truth file the timed ``aggregate`` commands read is
written here, with ``numpy.random.Generator(PCG64)``; ``crowdbwa synth``
is timed too, but its output is only checked, never fed to another
command. The in-memory copy of each dataset (dense triples plus the
true classes) is what the reference checks compute from.

Each dataset is a fixed crowd, drawn from ``CROWD_SEED`` and the
workload name, seen through a relabelling drawn from ``--seed``: new
item and worker indices (hence ids), a new assignment of class names
and a new row order. The aggregators are equivariant under these, so
every seed does the same EM work on different files.

Workers are symmetric: worker ``j`` answers correctly with probability
``acc_j``, drawn uniformly from [0.55, 0.95], and otherwise picks one
of the other ``K - 1`` classes uniformly. True classes are uniform.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ACCURACY_RANGE = (0.55, 0.95)

#: Seed of every workload's crowd: who labelled which item, and with
#: which label. ``--seed`` only relabels and reorders that crowd (see
#: README.md for why).
CROWD_SEED = 20190225

#: Above this many item-by-worker cells a dataset draws its workers by
#: rejection (redrawing rows that repeat a worker); below it, by sorting
#: weighted random keys, which is exact even when nearly every worker
#: labels every item.
KEYS_MAX_CELLS = 4_000_000


@dataclass(frozen=True)
class Shape:
    """Recipe for one dataset.

    ``redundancy`` is the mean labels per item; each item gets a count
    drawn uniformly from ``[redundancy - spread, redundancy + spread]``
    (at least 1, at most ``workers``). ``skew`` is the Zipf exponent of
    worker activity (0 = uniform). ``names`` gives string class names;
    without it classes are written as the integers ``0..K-1``.
    ``string_ids`` writes hashed item and worker ids instead of
    ``q<i>``/``w<j>``; ``shuffle`` writes the rows in random order
    instead of grouped by item.
    """

    name: str
    items: int
    workers: int
    classes: int
    redundancy: int
    spread: int = 0
    skew: float = 0.0
    names: tuple[str, ...] | None = None
    string_ids: bool = False
    shuffle: bool = False


@dataclass
class Dataset:
    """One generated dataset, as written and as the checks see it."""

    shape: Shape
    directory: Path
    items: np.ndarray      # dense item index per label row, in file order
    workers: np.ndarray    # dense worker index per label row
    labels: np.ndarray     # class index per label row
    truth: np.ndarray      # true class per item
    item_ids: list[str]
    worker_ids: list[str]
    label_names: list[str]

    @property
    def labels_file(self) -> Path:
        return self.directory / "labels.csv"

    @property
    def truth_file(self) -> Path:
        return self.directory / "truth.csv"


_K4_NAMES = ("negative", "neutral", "positive", "mixed")

#: 19 synthetic datasets of varied shape: 100-10,000 items, 3-20 labels
#: per item, 2-5 classes, 8-5,000 workers, 342,435 labels in all (about
#: two thirds of ``crowd-k2``). No shape is taken from a real dataset.
#: Half use string class names and hashed ids, most have skewed worker
#: activity, and all but four vary the labels per item.
CORPUS = (
    Shape("c01", 108, 39, 2, 20, 0, 0.0),
    Shape("c02", 800, 164, 2, 10, 2, 0.8, ("yes", "no"), True, True),
    Shape("c03", 462, 76, 2, 10, 2, 0.8),
    Shape("c04", 807, 109, 4, 10, 3, 1.0, ("a", "b", "c", "d"), True, True),
    Shape("c05", 584, 27, 4, 10, 2, 0.5),
    Shape("c06", 2665, 177, 5, 5, 2, 1.0, ("p", "q", "r", "s", "t"), True, True),
    Shape("c07", 5000, 176, 2, 3, 0, 0.8),
    Shape("c08", 1000, 83, 2, 20, 3, 0.6, ("pos", "neg"), True, True),
    Shape("c09", 10000, 1960, 2, 4, 1, 1.0),
    Shape("c10", 3500, 500, 3, 10, 3, 0.9, ("x", "y", "z"), True, True),
    Shape("c11", 10000, 5000, 2, 5, 0, 0.0),
    Shape("c12", 300, 8, 3, 8, 0, 0.0, ("lo", "mid", "hi"), True, True),
    Shape("c13", 1720, 203, 2, 7, 2, 1.1),
    Shape("c14", 4000, 600, 5, 5, 2, 0.7, ("v", "w", "x", "y", "z"), True, True),
    Shape("c15", 6000, 1200, 3, 6, 2, 1.0),
    Shape("c16", 100, 25, 2, 15, 3, 0.5, ("t", "f"), True, True),
    Shape("c17", 4000, 800, 4, 9, 3, 1.0),
    Shape("c18", 2500, 300, 2, 12, 4, 0.9, ("good", "bad"), True, True),
    Shape("c19", 640, 40, 3, 4, 1, 0.6),
)

WORKLOADS = {
    # The criterion-8 crowd: one large binary problem, integer labels,
    # rows grouped by item as `crowdbwa synth` writes them.
    "crowd-k2": (Shape("crowd-k2", 100_000, 2000, 2, 5),),
    # String names and ids, 3-9 labels per item, long-tailed worker
    # activity, rows in random order.
    "crowd-k4-skew": (
        Shape("crowd-k4-skew", 15_000, 3000, 4, 6, 3, 1.0, _K4_NAMES, True, True),
    ),
    "corpus": CORPUS,
}

def generate(workload: str, seed: int, root: Path) -> list[Dataset]:
    """Write every dataset of ``workload`` under ``root`` and return them."""
    tag = zlib.crc32(workload.encode())
    out = []
    for index, shape in enumerate(WORKLOADS[workload]):
        crowd = _crowd(shape, np.random.default_rng([CROWD_SEED, tag, index]))
        ds = _relabel(shape, *crowd, np.random.default_rng([seed, tag, index]))
        out.append(_write(ds, root / shape.name))
    return out


def _crowd(shape: Shape, rng: np.random.Generator):
    """Who labelled what, and how: (items, workers, labels, truth)."""
    n, w, k = shape.items, shape.workers, shape.classes
    lo = max(1, shape.redundancy - shape.spread)
    hi = min(w, shape.redundancy + shape.spread)
    per_item = rng.integers(lo, hi + 1, size=n)
    weights = np.arange(1, w + 1, dtype=np.float64) ** -shape.skew
    workers = _distinct_workers(rng, weights / weights.sum(), per_item)
    items = np.repeat(np.arange(n), per_item)
    truth = rng.integers(0, k, size=n)
    acc = rng.uniform(*ACCURACY_RANGE, size=w)
    correct = rng.random(items.size) < acc[workers]
    wrong = (truth[items] + rng.integers(1, k, size=items.size)) % k
    return items, workers, np.where(correct, truth[items], wrong), truth


def _relabel(shape: Shape, items, workers, labels, truth, rng) -> Dataset:
    """The crowd under random item, worker and class relabelling, in a
    random row order (random within each item unless ``shape.shuffle``)."""
    n, w, k = shape.items, shape.workers, shape.classes
    item_map, worker_map, class_map = (rng.permutation(m) for m in (n, w, k))
    items, workers, labels = item_map[items], worker_map[workers], class_map[labels]
    new_truth = np.empty_like(truth)
    new_truth[item_map] = class_map[truth]
    if shape.shuffle:
        order = rng.permutation(items.size)
    else:
        order = np.lexsort((rng.random(items.size), items))
    items, workers, labels = items[order], workers[order], labels[order]

    if shape.string_ids:
        salt = int(rng.integers(0, 2**32))
        item_ids = [f"t{(i * 2654435761 + salt) & 0xFFFFFFFF:08x}" for i in range(n)]
        worker_ids = [f"A{(j * 40503 + salt) & 0xFFFF:04X}{j}" for j in range(w)]
    else:
        item_ids = [f"q{i}" for i in range(n)]
        worker_ids = [f"w{j}" for j in range(w)]
    label_names = list(shape.names) if shape.names else [str(c) for c in range(k)]
    return Dataset(shape, Path(), items, workers, labels, new_truth,
                   item_ids, worker_ids, label_names)


def _distinct_workers(rng, weights, per_item) -> np.ndarray:
    """Per item, ``per_item[i]`` distinct workers drawn by ``weights``.

    Returns the workers of all items concatenated in item order.
    """
    n, w = per_item.size, weights.size
    width = int(per_item.max())
    keep = np.arange(width) < per_item[:, None]
    if n * w <= KEYS_MAX_CELLS:
        # Efraimidis-Spirakis: the largest u^(1/p) keys are a weighted
        # sample without replacement.
        keys = np.log(rng.random((n, w))) / weights
        picks = np.argsort(-keys, axis=1)[:, :width]
    else:
        cdf = np.cumsum(weights)
        cdf[-1] = 1.0
        picks = np.searchsorted(cdf, rng.random((n, width)), side="right")
        while True:
            # Unused slots get distinct negative fillers, so only a
            # repeated worker makes two neighbours equal.
            s = np.sort(np.where(keep, picks, -1 - np.arange(width)), axis=1)
            bad = np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))
            if not bad.size:
                break
            picks[bad] = np.searchsorted(
                cdf, rng.random((bad.size, width)), side="right"
            )
    return picks[keep]


def _write(ds: Dataset, directory: Path) -> Dataset:
    directory.mkdir(parents=True, exist_ok=True)
    ds.directory = directory
    iid, wid, names = ds.item_ids, ds.worker_ids, ds.label_names
    rows = [
        f"{iid[i]},{wid[j]},{names[c]}\n"
        for i, j, c in zip(ds.items.tolist(), ds.workers.tolist(), ds.labels.tolist())
    ]
    ds.labels_file.write_text("question,worker,answer\n" + "".join(rows))
    truth = [f"{iid[i]},{names[c]}\n" for i, c in enumerate(ds.truth.tolist())]
    ds.truth_file.write_text("question,truth\n" + "".join(truth))
    return ds
