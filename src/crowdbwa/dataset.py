"""Sparse data model for crowd-labelled classification tasks.

A task consists of items, each labelled by a few workers drawn from a
larger pool. Labels are stored as parallel arrays of (item, worker,
label) triples over dense integer indices; the original string
identifiers are kept in side tables so that predictions can be written
back under the external ids.

File formats (newline-delimited text, comma-separated, no quoting):

* label file:       header ``question,worker,answer``, one triple per line
* truth file:       header ``question,truth``, one item per line
* prediction file:  header ``question,label``, one item per line
"""

from __future__ import annotations

import codecs
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

LABELS_HEADER = "question,worker,answer"
TRUTH_HEADER = "question,truth"
PREDICTIONS_HEADER = "question,label"

# ASCII only: int() folds other scripts' digits into their ASCII twin's class
_INT_LABEL = re.compile(r"^[0-9]+$")
_INT64_MAX = np.iinfo(np.int64).max
_INT64_DIGITS = len(str(_INT64_MAX))


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
        columns = [_codes([r[c] for r in records]) for c in range(3)]
        return _build(columns, num_classes, item_ids, worker_ids)


def _build(columns, num_classes=None, item_ids=None, worker_ids=None,
           check=None) -> LabelMatrix:
    """Build a matrix from the item, worker and label columns, each given
    as int64 codes over its distinct ids in first-appearance order.

    ``item_ids`` and ``worker_ids``, if given, are those columns' id
    universes in index order. ``check``, if given, gets the first row
    whose (item, worker) pair repeats an earlier row's and the first row
    whose integer label is beyond the int64 range (each the row count if
    there is none), and may raise its own error first.
    """
    (i, items), (w, workers), (k, labels) = columns
    if item_ids is not None:
        i, items = _recode(i, items, item_ids, "item")
    if worker_ids is not None:
        w, workers = _recode(w, workers, worker_ids, "worker")
    repeat = _first_repeat(i * len(workers) + w)
    integer = all(map(_INT_LABEL.match, labels))
    values = list(map(_int_label, labels)) if integer else []
    huge = [c for c, v in enumerate(values) if v > _INT64_MAX]
    too_big = int(np.flatnonzero(np.isin(k, huge))[0]) if huge else k.size
    if check is not None:
        check(repeat, too_big)
    first = min(repeat, too_big)
    if first < k.size:
        raise ValidationError(
            f"duplicate label: worker {workers[w[first]]!r} labelled item "
            f"{items[i[first]]!r} twice" if first == repeat
            else f"integer label {labels[k[first]]!r} is beyond the int64 range"
        )

    if integer:
        k = np.array(values, dtype=np.int64)[k]
        inferred = int(k.max()) + 1
        if num_classes is not None and num_classes < inferred:
            raise ValidationError(
                f"num_classes={num_classes} is below the largest label index "
                f"{inferred - 1}"
            )
        labels = tuple(map(str, range(num_classes or inferred)))
    elif num_classes is not None and num_classes != len(labels):
        raise ValidationError(
            "num_classes can only extend integer label spaces; "
            f"got {num_classes} with {len(labels)} distinct label strings"
        )
    return LabelMatrix(i, w, k, len(items), len(workers), len(labels),
                       items, workers, labels)


def _codes(column: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """int64 codes of ``column`` over its distinct values in
    first-appearance order, and those values as a tuple."""
    ids = tuple(dict.fromkeys(column))
    index = dict(zip(ids, range(len(ids))))
    return np.fromiter(map(index.__getitem__, column), np.int64, len(column)), ids


def _recode(codes, ids, universe, kind: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """``codes`` over ``ids`` re-expressed over the explicit id list
    ``universe``, and that list as a tuple."""
    universe = tuple(universe)
    index = dict(zip(universe, range(len(universe))))
    if len(index) != len(universe):
        raise ValidationError("explicit id list contains duplicates")
    lookup = [index.get(name, -1) for name in ids]
    if -1 in lookup:  # ids are in first-appearance order: this is the first unknown row
        raise ValidationError(f"unknown {kind} id {ids[lookup.index(-1)]!r}")
    return np.array(lookup, dtype=np.int64)[codes], universe


@dataclass(frozen=True, eq=False)
class BinaryView:
    """One-versus-rest view of a label matrix for a focal class.

    Holds, over exactly the observed (item, worker) pairs, the read-only
    index arrays that every iteration of the binary model reads for the
    focal class; everything else it reads from ``matrix``. Each mask
    marks the table entries its index refers to, by one rule:
    ``np.bincount(index, minlength=table_size) > 0``.
    """

    matrix: LabelMatrix
    focal_class: int
    focal_items: np.ndarray       # items of the triples labelled with the focal class
    focal_workers: np.ndarray     # and their workers
    worker_has_focal: np.ndarray  # per worker, whether it is among ``focal_workers``
    # Per triple, ``item + num_items * y``: the place of its squared
    # residual in a per-item table laid out as ``[z**2, (z - 1)**2]``
    residual_index: np.ndarray
    residual_used: np.ndarray     # which entries of that table it refers to


def vote_counts(matrix: LabelMatrix) -> np.ndarray:
    """Per item, the number of workers voting for each class: a read-only
    (num_items, num_classes) int64 array."""
    flat = np.bincount(
        matrix.items * matrix.num_classes + matrix.labels,
        minlength=matrix.num_items * matrix.num_classes,
    )
    counts = flat.reshape(matrix.num_items, matrix.num_classes)
    counts.setflags(write=False)
    return counts


def binary_view(matrix: LabelMatrix, focal_class: int) -> BinaryView:
    """One-versus-rest view for ``focal_class``."""
    if not 0 <= focal_class < matrix.num_classes:
        raise ValidationError(
            f"focal class {focal_class} out of range [0, {matrix.num_classes})"
        )
    focal = matrix.labels == focal_class
    focal_workers = matrix.workers[focal]
    residual_index = matrix.items + matrix.num_items * focal
    arrays = (matrix.items[focal], focal_workers, _used(focal_workers, matrix.num_workers),
              residual_index, _used(residual_index, 2 * matrix.num_items))
    for arr in arrays:
        arr.setflags(write=False)
    return BinaryView(matrix, focal_class, *arrays)


def _used(index: np.ndarray, size: int) -> np.ndarray:
    """Which entries of a ``size``-entry table ``index`` refers to."""
    return np.bincount(index, minlength=size) > 0


def load_labels(path, num_classes: int | None = None) -> LabelMatrix:
    """Load a label file (header ``question,worker,answer``).

    ``num_classes`` optionally widens an integer label space, e.g. when
    the matching truth file mentions classes no worker ever used.
    """
    columns, fail = _read_columns(path, LABELS_HEADER, 3)
    if not columns[0][0].size:  # no rows, or the first one is malformed
        fail()
        raise ValidationError(f"{path}: no label rows after the header")

    def check(repeat: int, too_big: int) -> None:
        fail((repeat, "duplicate (item, worker) pair ({0!r}, {1!r})"),
             (too_big, "integer label {2!r} is beyond the int64 range"))

    return _build(columns, num_classes, check=check)


def load_truth(path, matrix: LabelMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Load a truth file (header ``question,truth``) against ``matrix``.

    Every item id must be known to the matrix, and every truth label
    must map into the matrix's label space. Returns the truth as
    ``(items, labels)``: int64 item and class indices, sorted by item.
    """
    items, labels = _read_item_labels(path, TRUTH_HEADER, matrix, "truth")
    order = np.argsort(items)
    return items[order], labels[order]


def load_predictions(path, matrix: LabelMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Load a prediction file (header ``question,label``) against ``matrix``
    under ``load_truth``'s rules: each item's class (0 if it has no row),
    and the mask of items with a row."""
    items, labels = _read_item_labels(path, PREDICTIONS_HEADER, matrix, "prediction")
    predictions = np.zeros(matrix.num_items, dtype=np.int64)
    predictions[items] = labels
    predicted = np.zeros(matrix.num_items, dtype=bool)
    predicted[items] = True
    return predictions, predicted


def _read_item_labels(path, header: str, matrix: LabelMatrix, noun: str):
    """(item indices, class indices) of a two-field file's rows, in file order.

    Each item must be known to ``matrix`` and appear once. In an integer
    label space an integer label is its own class index; any other label
    must be a label name. Each distinct item and label is resolved once.
    """
    ((i, items), (k, labels)), fail = _read_columns(path, header, 2)
    i = np.fromiter(map(matrix.item_index.get, items, repeat(-1)), np.int64, len(items))[i]
    integer = all(map(_INT_LABEL.match, matrix.label_names))
    num_classes = matrix.num_classes

    def resolve(label: str) -> int:
        """The class index, -1 beyond the class count, -2 if unknown."""
        if integer and _INT_LABEL.match(label):
            code = _int_label(label)
            return code if code < num_classes else -1
        return matrix.label_index.get(label, -2)

    k = np.fromiter(map(resolve, labels), np.int64, len(labels))[k]
    fail((_first(i < 0), "unknown item id {0!r}"),
         (_first_repeat(i), f"duplicate {noun} for item {{0!r}}"),
         (_first(k == -1), f"{noun} label {{1!r}} outside the {num_classes}-class label space"),
         (_first(k == -2), f"unknown {noun} label {{1!r}}"))
    return i, k


def _int_label(label: str) -> int:
    """An ASCII-digit label's value, or int64's maximum + 1 for any larger
    one, which keeps ``int()`` clear of its 4,300-digit limit."""
    digits = label.lstrip("0")
    return int(digits or "0") if len(digits) <= _INT64_DIGITS else _INT64_MAX + 1


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry of ``mask``, or its length if none."""
    return int(mask.argmax()) if mask.any() else mask.size


def _first_repeat(keys: np.ndarray) -> int:
    """Index of the first entry equal to an earlier one, or the length if none."""
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():  # no repeat: nothing to locate
        return keys.size
    repeated = np.ones(keys.size, dtype=bool)
    repeated[_first_appearance(keys)[1]] = False
    return _first(repeated)


# The byte scanner below splits lines and strips fields by exactly the
# rules of str.splitlines and str.strip: these are the code points each
# one acts on (the 10 line breaks, then the other 19 of str.isspace's 29).
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_SPACES = ("\t\x1f \xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
           "\u2008\u2009\u200a\u202f\u205f\u3000")
_BREAK, _SPACE, _COMMA = 1, 2, 3
_ASCII_CLASS = np.zeros(256, dtype=np.uint8)
_WIDE: dict[bytes, int] = {}  # each non-ASCII break's and space's UTF-8 bytes, and class
for _cls, _chars in ((_BREAK, _BREAKS), (_SPACE, _SPACES), (_COMMA, ",")):
    for _c in _chars:
        if _c.isascii():
            _ASCII_CLASS[ord(_c)] = _cls
        else:
            _WIDE[_c.encode()] = _cls
_WIDE_LEADS = sorted({seq[0] for seq in _WIDE})
# A field's first _KEY_BYTES bytes pack into its key, 8 to a uint64 word;
# a longer field is told apart by its whole bytes.
_KEY_BYTES = 32
_WORD_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _read_columns(path, header: str, width: int):
    """Split a ``width``-field file's non-blank rows into stripped columns.

    Returns the columns of the rows before the first malformed one (a row
    without ``width`` non-empty comma-separated fields), each as
    ``(codes, values)``: int64 codes over the column's distinct values in
    first-appearance order. Also returns ``fail(*faults)``, which raises
    ``path:lineno: message`` for the first fault in file order. A fault
    is ``(row, message)``, with the message formatted with the row's
    fields and ``row`` the column length for none; the malformed row, if
    any, is a fault at that row.

    Lines end at each of str.splitlines' breaks (``\r\n`` is one), and
    str.strip's whitespace is stripped from lines and fields. The file
    is scanned as bytes: only ASCII bytes and the UTF-8 encodings of
    the wider breaks and spaces can split or pad a field.
    """
    data = Path(path).read_bytes()
    ascii_only = data.decode("utf-8-sig").isascii()  # the codec's own error if invalid
    data = data.removeprefix(codecs.BOM_UTF8)
    size = len(data)
    data += bytes(_KEY_BYTES + 8)  # what key words read past the end is masked off
    commas, (breaks, after), runs = _tokens(np.frombuffer(data, dtype=np.uint8), size,
                                            ascii_only)
    # Line n runs from the end of break n - 1 to the start of break n
    starts, ends = np.concatenate(([0], after)), np.append(breaks, size)
    if starts[-1] == size:  # no line after a final break
        starts, ends = starts[:-1], ends[:-1]
    starts, ends = _strip(runs, starts, ends)
    del breaks, after
    if not starts.size or starts[0] == ends[0]:
        raise ValidationError(f"{path}: empty file (expected header {header!r})")
    first_line = data[starts[0]:ends[0]].decode()
    if first_line != header:
        raise ParseError(f"{path}:1: bad header {first_line!r} (expected {header!r})")
    lines = 1 + np.flatnonzero(starts[1:] < ends[1:])  # the non-blank lines after the header
    starts, ends = starts[lines], ends[lines]
    # Rows before ``good`` have width - 1 commas, and then all fields non-empty
    first_comma = np.searchsorted(commas, starts)
    good = _first(np.diff(first_comma, append=commas.size) != width - 1)
    commas = commas[first_comma[0] if good else 0:][:good * (width - 1)]
    commas = commas.reshape(good, width - 1).T
    del first_comma
    field_starts, field_ends = _strip(runs, np.concatenate((starts[None, :good], commas + 1)),
                                      np.concatenate((commas, ends[None, :good])))
    del commas, runs
    good = _first((field_starts == field_ends).any(axis=0))
    nul = b"\0" in data[:size]
    columns = [_factorise(data, s[:good], e[:good], nul) for s, e in zip(field_starts, field_ends)]
    del field_starts, field_ends

    def fail(*faults: tuple[int, str]) -> None:
        at, p = min((fault[0], p) for p, fault in enumerate([(good,), *faults]))
        if at == lines.size:
            return
        if p:
            error = ValidationError
            message = faults[p - 1][1].format(*(ids[codes[at]] for codes, ids in columns))
        else:
            error = ParseError
            message = (f"expected {width} non-empty comma-separated fields, "
                       f"got {data[starts[at]:ends[at]].decode()!r}")
        raise error(f"{path}:{lines[at] + 1}: {message}")

    return columns, fail


def _tokens(bytes_: np.ndarray, size: int, ascii_only: bool):
    """The comma offsets of ``bytes_[:size]``; the start and end offsets
    of its line breaks; and those of its maximal runs of whitespace
    other than breaks."""
    low = np.flatnonzero(bytes_[:size] <= ord(","))  # no ASCII class byte is above it
    cls = _ASCII_CLASS[bytes_[low]]
    commas, breaks, spaces = (low[cls == c] for c in (_COMMA, _BREAK, _SPACE))
    del low, cls
    crlf = (bytes_[breaks] == ord("\r")) & (bytes_[breaks + 1] == ord("\n"))
    if crlf.any():  # the \n of a \r\n is no break of its own
        keep = np.ones(breaks.size, dtype=bool)
        keep[1:] = ~crlf[:-1]
        breaks, crlf = breaks[keep], crlf[keep]
    breaks, spaces = (breaks, breaks + 1 + crlf), (spaces, spaces + 1)
    if not ascii_only:
        breaks, spaces = _add_wide(bytes_, size, breaks, spaces)
    spaces, after = spaces
    new = np.ones(spaces.size, dtype=bool)  # where a run starts
    new[1:] = spaces[1:] != after[:-1]
    runs = spaces[new], after[np.roll(new, -1)]
    return commas, breaks, runs


def _add_wide(bytes_: np.ndarray, size: int, breaks, spaces):
    """``breaks`` and ``spaces``, each (starts, ends), merged with the
    non-ASCII ones in ``bytes_[:size]``."""
    lead = np.flatnonzero(np.isin(bytes_[:size], _WIDE_LEADS))
    found = {_BREAK: [breaks], _SPACE: [spaces]}
    for seq, cls in _WIDE.items():
        at = lead[np.all([bytes_[lead + n] == b for n, b in enumerate(seq)], axis=0)]
        found[cls].append((at, at + len(seq)))
    merged = []
    for spans in found.values():
        starts, ends = map(np.concatenate, zip(*spans))
        order = np.argsort(starts)
        merged.append((starts[order], ends[order]))
    return merged


def _strip(runs, starts, ends):
    """``starts`` and ``ends`` moved past leading and before trailing
    whitespace ``runs``; a span of only whitespace ends where it starts."""
    run_starts, run_ends = runs
    if not run_starts.size:
        return starts, ends
    at = np.minimum(np.searchsorted(run_starts, starts), run_starts.size - 1)
    starts = np.where(run_starts[at] == starts, run_ends[at], starts)
    at = np.minimum(np.searchsorted(run_ends, ends), run_ends.size - 1)
    ends = np.maximum(np.where(run_ends[at] == ends, run_starts[at], ends), starts)
    return starts, ends


def _factorise(data: bytes, starts, ends, nul: bool) -> tuple[np.ndarray, tuple[str, ...]]:
    """First-appearance codes of the fields ``data[starts:ends]``, and the
    distinct fields decoded. ``nul``: whether ``data`` holds a NUL byte,
    which zero padding would confuse with a shorter field's end."""
    if not starts.size:
        return np.empty(0, dtype=np.int64), ()
    lengths = ends - starts
    packed = np.minimum(lengths, _KEY_BYTES)
    # Element n of ``words`` holds data[n:n + 8], the first byte lowest
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    key = None
    for offset in range(0, int(packed.max()), 8):
        word = words[starts + offset] & _WORD_MASKS[np.clip(packed - offset, 0, 8)]
        key = word if key is None else _fold(key, word)
    long = np.flatnonzero(lengths > _KEY_BYTES)
    if long.size:
        seen: dict[bytes, int] = {}
        whole = np.zeros(starts.size, dtype=np.int64)
        whole[long] = [seen.setdefault(data[a:b], len(seen) + 1)
                       for a, b in zip(starts[long].tolist(), ends[long].tolist())]
        key = _fold(key, whole)
    if nul:
        key = _fold(key, lengths)
    codes, first = _first_appearance(key)
    # One decode of the distinct fields, each followed by a \n (no field holds one)
    starts, lengths = starts[first], lengths[first] + 1
    offsets = np.cumsum(lengths) - lengths
    text = np.frombuffer(data, dtype=np.uint8)[
        np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)]
    text[offsets + lengths - 1] = ord("\n")
    return codes, tuple(text[:-1].tobytes().decode().split("\n"))


def _fold(key: np.ndarray, word: np.ndarray) -> np.ndarray:
    """One int64 key per row that tells apart rows unequal in ``key`` or ``word``."""
    key, distinct = _first_appearance(key)
    top = int(word.max()) + 1
    if top > _INT64_MAX // len(distinct):
        word, top = _first_appearance(word)[0], word.size
    return key * top + word.astype(np.int64)


def _first_appearance(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 codes of ``key``'s values, numbered in order of first
    appearance, and the row where each value first appears."""
    order = np.argsort(key)
    ordered = key[order]
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    del ordered
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    by_first = np.argsort(first)
    rank = np.empty(first.size, dtype=np.int64)
    rank[by_first] = np.arange(first.size)
    codes = np.empty(key.size, dtype=np.int64)
    codes[order] = rank[np.cumsum(new) - 1]
    return codes, first[by_first]


def save_labels(matrix: LabelMatrix, path) -> None:
    """Write ``matrix`` in the label file format, preserving triple order."""
    _write_rows(path, LABELS_HEADER, _names(matrix.item_ids, matrix.items, "item id"),
                _names(matrix.worker_ids, matrix.workers, "worker id"),
                _names(matrix.label_names, matrix.labels, "label"))


def save_truth(truth: tuple[np.ndarray, np.ndarray], matrix: LabelMatrix, path) -> None:
    """Write ``truth``, ``(items, labels)`` sorted by item, in the truth
    file format."""
    items, labels = truth
    _write_rows(path, TRUTH_HEADER, _names(matrix.item_ids, items, "item id"),
                _names(matrix.label_names, labels, "label"))


def save_predictions(labels: np.ndarray, matrix: LabelMatrix, path) -> None:
    """Write one predicted class per item in the prediction file format."""
    _check_names(matrix.item_ids, "item id")
    _write_rows(path, PREDICTIONS_HEADER, matrix.item_ids,
                _names(matrix.label_names, labels, "label"))


def _names(names: Sequence[str], codes: np.ndarray, kind: str) -> list[str]:
    """The ``names`` of ``codes``, once ``_check_names`` passes them."""
    _check_names(names, kind)
    return np.array(names, dtype=object)[codes].tolist()


def _check_names(names: Sequence[str], kind: str) -> None:
    """Raise ``ValidationError`` naming the first of ``names`` that the
    reader would not read back as written: one that is empty, holds a
    comma or a line break, or starts or ends with whitespace."""
    names = tuple(names)
    text = ",".join(names)  # one C-level scan per character covers every name
    if (text.count(",") < len(names) and not any(map(text.__contains__, _BREAKS))
            and "" not in names and (not any(map(text.__contains__, _SPACES))
                                     or tuple(map(str.strip, names)) == names)):
        return
    bad = [name for name in names if not name or name != name.strip()
           or any(map(name.__contains__, "," + _BREAKS))]
    if bad:
        raise ValidationError(
            f"cannot save {kind} {bad[0]!r}: a name must be non-empty, hold no "
            "comma or line break, and neither start nor end with whitespace"
        )


def _write_rows(path, header: str, *columns: Sequence[str]) -> None:
    """Write ``header`` and then the columns' fields row by row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*columns))]) + "\n")
