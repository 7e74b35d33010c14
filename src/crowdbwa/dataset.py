"""Sparse data model for crowd-labelled classification tasks.

A task consists of items, each labelled by a few workers drawn from a
larger pool. Labels are stored as parallel arrays of (item, worker,
label) triples over dense integer indices; the original string
identifiers are kept in side tables so that predictions can be written
back under the external ids.

File formats (newline-delimited text, comma-separated, no quoting):

* label file:  header ``question,worker,answer``, one triple per line
* truth file:  header ``question,truth``, one item per line
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

LABELS_HEADER = "question,worker,answer"
TRUTH_HEADER = "question,truth"

_INT_LABEL = re.compile(r"^\d+$")
_INT64_MAX = np.iinfo(np.int64).max


class ParseError(ValueError):
    """A line of an input file is structurally malformed."""


class ValidationError(ValueError):
    """Input parses but violates a data-model invariant."""


@dataclass(eq=False)
class LabelMatrix:
    """Immutable sparse store of crowd labels.

    ``items``, ``workers`` and ``labels`` are parallel arrays, one entry
    per collected label, kept in input order. Each (item, worker) pair
    appears at most once. Instances are immutable after construction and
    safe to share across concurrent aggregator runs.
    """

    items: np.ndarray
    workers: np.ndarray
    labels: np.ndarray
    num_items: int
    num_workers: int
    num_classes: int
    item_ids: tuple[str, ...]
    worker_ids: tuple[str, ...]
    label_names: tuple[str, ...]

    def __post_init__(self):
        for arr in (self.items, self.workers, self.labels):
            arr.setflags(write=False)

    @property
    def num_labels(self) -> int:
        return self.items.size

    @cached_property
    def labels_per_item(self) -> np.ndarray:
        """|W_i|: number of workers who labelled each item."""
        counts = np.bincount(self.items, minlength=self.num_items)
        counts.setflags(write=False)
        return counts

    @cached_property
    def labels_per_worker(self) -> np.ndarray:
        """|N_j|: number of items each worker labelled."""
        counts = np.bincount(self.workers, minlength=self.num_workers)
        counts.setflags(write=False)
        return counts

    @cached_property
    def max_labels_per_item(self) -> int:
        """The largest |W_i| (0 without labels)."""
        return int(self.labels_per_item.max(initial=0))

    @cached_property
    def max_labels_per_worker(self) -> int:
        """The largest |N_j| (0 without labels)."""
        return int(self.labels_per_worker.max(initial=0))

    @cached_property
    def item_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.item_ids)}

    @cached_property
    def worker_index(self) -> dict[str, int]:
        return {name: j for j, name in enumerate(self.worker_ids)}

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.label_names)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelMatrix):
            return NotImplemented
        return (
            self.num_items == other.num_items
            and self.num_workers == other.num_workers
            and self.num_classes == other.num_classes
            and self.item_ids == other.item_ids
            and self.worker_ids == other.worker_ids
            and self.label_names == other.label_names
            and np.array_equal(self.items, other.items)
            and np.array_equal(self.workers, other.workers)
            and np.array_equal(self.labels, other.labels)
        )

    @classmethod
    def from_triples(
        cls,
        records: Iterable[tuple[str, str, str]],
        item_ids: Sequence[str] | None = None,
        worker_ids: Sequence[str] | None = None,
        num_classes: int | None = None,
    ) -> "LabelMatrix":
        """Build a matrix from (item id, worker id, label) triples.

        Dense indices follow first-appearance order unless an explicit
        id universe is supplied (which may include items or workers that
        never occur in ``records``). When every label string is a
        non-negative integer, the label value is its own class index and
        ``num_classes`` may extend the class count beyond the observed
        maximum; otherwise classes are the distinct label strings in
        first-appearance order.
        """
        records = list(records)
        if not records or set(map(len, records)) != {3}:
            raise ValidationError("expected a non-empty list of (item, worker, label) triples")
        columns = ([r[c] for r in records] for c in range(3))
        return _build(*columns, num_classes, item_ids, worker_ids)


def _build(items, workers, labels, num_classes=None, item_keys=None,
           worker_keys=None, label_keys=None, check=None) -> LabelMatrix:
    """Build a matrix from parallel item, worker and label string columns.

    A ``*_keys`` argument is that column's id universe in index order
    (default: its distinct values in first-appearance order). ``check``,
    if given, gets the first row whose (item, worker) pair repeats an
    earlier row's and the first row whose integer label is beyond the
    int64 range (each ``len(items)`` if there is none), and may raise
    its own error first.
    """
    i, item_ids = _factorise(items, item_keys, "item")
    w, worker_ids = _factorise(workers, worker_keys, "worker")
    pairs = i * len(worker_ids) + w
    order = np.argsort(pairs, kind="stable")
    repeats = order[1:][pairs[order[1:]] == pairs[order[:-1]]]
    repeat = int(repeats.min()) if repeats.size else len(items)
    k, label_names = _factorise(labels, label_keys, "label")
    integer = all(map(_INT_LABEL.match, label_names))
    values = list(map(int, label_names)) if integer else []
    huge = [c for c, v in enumerate(values) if v > _INT64_MAX]
    too_big = int(np.flatnonzero(np.isin(k, huge))[0]) if huge else len(items)
    if check is not None:
        check(repeat, too_big)
    first = min(repeat, too_big)
    if first < len(items):
        raise ValidationError(
            f"duplicate label: worker {workers[first]!r} labelled item {items[first]!r} twice"
            if first == repeat else f"integer label {labels[first]!r} is beyond the int64 range"
        )

    if integer:
        k = np.array(values, dtype=np.int64)[k]
        inferred = int(k.max()) + 1
        if num_classes is not None and num_classes < inferred:
            raise ValidationError(
                f"num_classes={num_classes} is below the largest label index "
                f"{inferred - 1}"
            )
        label_names = tuple(map(str, range(num_classes or inferred)))
    elif num_classes is not None and num_classes != len(label_names):
        raise ValidationError(
            "num_classes can only extend integer label spaces; "
            f"got {num_classes} with {len(label_names)} distinct label strings"
        )
    return LabelMatrix(i, w, k, len(item_ids), len(worker_ids), len(label_names),
                       item_ids, worker_ids, label_names)


def _factorise(column, keys, kind: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """int64 codes of ``column`` over ``keys`` (default: its distinct
    values in first-appearance order), and the keys as a tuple."""
    keys = tuple(dict.fromkeys(column) if keys is None else keys)
    index = dict(zip(keys, range(len(keys))))
    if len(index) != len(keys):
        raise ValidationError("explicit id list contains duplicates")
    try:
        return np.fromiter(map(index.__getitem__, column), np.int64, len(column)), keys
    except KeyError as exc:
        raise ValidationError(f"unknown {kind} id {exc.args[0]!r}") from None


@dataclass(frozen=True)
class GroundTruth:
    """Partial map from dense item index to true class index."""

    mapping: dict[int, int]

    def __len__(self) -> int:
        return len(self.mapping)

    def __contains__(self, item: int) -> bool:
        return item in self.mapping

    def __getitem__(self, item: int) -> int:
        return self.mapping[item]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(item indices, labels), sorted by item index."""
        if not self.mapping:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        idx = np.array(sorted(self.mapping), dtype=np.int64)
        lab = np.array([self.mapping[i] for i in idx], dtype=np.int64)
        return idx, lab


@dataclass(frozen=True)
class VoteCounts:
    """Per item, the number of workers voting for each class."""

    counts: np.ndarray  # (num_items, num_classes) int64

    @property
    def totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)


@dataclass(eq=False)
class BinaryView:
    """One-versus-rest view of a label matrix for a focal class.

    Exposes, over exactly the observed (item, worker) pairs, the
    indicator that the worker's label equals the focal class. Across the
    ``num_classes`` views of one matrix, each pair's indicators sum to 1.
    """

    matrix: LabelMatrix
    focal_class: int

    @property
    def items(self) -> np.ndarray:
        return self.matrix.items

    @property
    def workers(self) -> np.ndarray:
        return self.matrix.workers

    @cached_property
    def y(self) -> np.ndarray:
        """Indicator values, float64 in {0.0, 1.0}, one per triple."""
        y = (self.matrix.labels == self.focal_class).astype(np.float64)
        y.setflags(write=False)
        return y

    @property
    def num_items(self) -> int:
        return self.matrix.num_items

    @property
    def num_workers(self) -> int:
        return self.matrix.num_workers

    @property
    def num_labels(self) -> int:
        return self.matrix.num_labels

    @property
    def labels_per_item(self) -> np.ndarray:
        return self.matrix.labels_per_item

    @property
    def labels_per_worker(self) -> np.ndarray:
        return self.matrix.labels_per_worker

    @cached_property
    def positives_per_item(self) -> np.ndarray:
        """Per item, how many workers voted for the focal class."""
        pos = np.bincount(
            self.items[self.matrix.labels == self.focal_class],
            minlength=self.num_items,
        )
        pos.setflags(write=False)
        return pos


def vote_counts(matrix: LabelMatrix) -> VoteCounts:
    """Tally per-item, per-class vote counts."""
    flat = np.bincount(
        matrix.items * matrix.num_classes + matrix.labels,
        minlength=matrix.num_items * matrix.num_classes,
    )
    counts = flat.reshape(matrix.num_items, matrix.num_classes)
    counts.setflags(write=False)
    return VoteCounts(counts=counts)


def binary_view(matrix: LabelMatrix, focal_class: int) -> BinaryView:
    """One-versus-rest view for ``focal_class``."""
    if not 0 <= focal_class < matrix.num_classes:
        raise ValidationError(
            f"focal class {focal_class} out of range [0, {matrix.num_classes})"
        )
    return BinaryView(matrix=matrix, focal_class=focal_class)


def load_labels(path, num_classes: int | None = None) -> LabelMatrix:
    """Load a label file (header ``question,worker,answer``).

    ``num_classes`` optionally widens an integer label space, e.g. when
    the matching truth file mentions classes no worker ever used.
    """
    lines = _read_lines(path, LABELS_HEADER)
    rows = list(filter(str.strip, lines))
    if not rows:
        raise ValidationError(f"{path}: no label rows after the header")
    # Rows before ``good`` have three comma-separated fields, all non-empty.
    commas = np.fromiter(map(str.count, rows, repeat(",")), np.int64, len(rows))
    bad = np.flatnonzero(commas != 2)
    good = int(bad[0]) if bad.size else len(rows)
    fields = ",".join(rows[:good]).split(",") if good else []
    columns = [fields[c::3] for c in range(3)]
    del fields
    keys = []
    for c, column in enumerate(columns):
        distinct = dict.fromkeys(column)
        if any(map(str.__ne__, distinct, map(str.strip, distinct))):
            columns[c] = column = list(map(str.strip, column))
            distinct = dict.fromkeys(column)
        if "" in distinct:
            good = min(good, column.index(""))
        keys.append(distinct)
    items, workers, labels = columns

    def check(repeat: int, too_big: int) -> None:
        first = min(repeat, too_big, good)
        if first < len(rows):
            nonblank = np.fromiter(map(bool, map(str.strip, lines)), bool, len(lines))
            at = f"{path}:{np.flatnonzero(nonblank)[first] + 2}"
            if first < good:
                raise ValidationError(
                    f"{at}: duplicate (item, worker) pair ({items[first]!r}, {workers[first]!r})"
                    if first == repeat
                    else f"{at}: integer label {labels[first]!r} is beyond the int64 range"
                )
            raise ParseError(f"{at}: expected 3 non-empty comma-separated fields, "
                             f"got {rows[good].strip()!r}")

    return _build(items, workers, labels, num_classes, *keys, check=check)


def load_truth(path, matrix: LabelMatrix) -> GroundTruth:
    """Load a truth file (header ``question,truth``) against ``matrix``.

    Every item id must be known to the matrix, and every truth label
    must map into the matrix's label space.
    """
    lines = _read_lines(path, TRUTH_HEADER)
    mapping: dict[int, int] = {}
    integer_labels = all(_INT_LABEL.match(name) for name in matrix.label_names)
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2 or not all(fields):
            raise ParseError(
                f"{path}:{lineno}: expected 2 non-empty comma-separated fields, "
                f"got {line.strip()!r}"
            )
        item, label = fields
        if item not in matrix.item_index:
            raise ValidationError(f"{path}:{lineno}: unknown item id {item!r}")
        i = matrix.item_index[item]
        if i in mapping:
            raise ValidationError(f"{path}:{lineno}: duplicate truth for item {item!r}")
        if integer_labels and _INT_LABEL.match(label):
            k = int(label)
            if k >= matrix.num_classes:
                raise ValidationError(
                    f"{path}:{lineno}: truth label {label!r} outside the "
                    f"{matrix.num_classes}-class label space"
                )
        elif label in matrix.label_index:
            k = matrix.label_index[label]
        else:
            raise ValidationError(f"{path}:{lineno}: unknown truth label {label!r}")
        mapping[i] = k
    return GroundTruth(mapping=mapping)


def save_labels(matrix: LabelMatrix, path) -> None:
    """Write ``matrix`` in the label file format, preserving triple order."""
    columns = [
        np.array(names, dtype=object)[codes].tolist()
        for names, codes in ((matrix.item_ids, matrix.items),
                             (matrix.worker_ids, matrix.workers),
                             (matrix.label_names, matrix.labels))
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([LABELS_HEADER, *map(",".join, zip(*columns))]) + "\n")


def save_truth(truth: GroundTruth, matrix: LabelMatrix, path) -> None:
    """Write ``truth`` in the truth file format, sorted by item index."""
    idx, lab = truth.as_arrays()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRUTH_HEADER + "\n")
        for i, k in zip(idx, lab):
            fh.write(f"{matrix.item_ids[i]},{matrix.label_names[k]}\n")


def _read_lines(path, expected_header: str) -> list[str]:
    """The lines after the checked header; ``lines[n]`` is line ``n + 2``."""
    text = Path(path).read_text(encoding="utf-8-sig")
    raw = text.splitlines()
    if not raw or not raw[0].strip():
        raise ValidationError(f"{path}: empty file (expected header {expected_header!r})")
    if raw[0].strip() != expected_header:
        raise ParseError(
            f"{path}:1: bad header {raw[0].strip()!r} (expected {expected_header!r})"
        )
    return raw[1:]

