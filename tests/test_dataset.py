"""Ingestion, validation and views of the sparse label store."""

import dataclasses
import re
import threading
import tracemalloc

import numpy as np
import pytest
import test_item_label_fuzz as item_label_fuzz
import test_loader_fuzz as loader_fuzz

from crowdbwa import dataset
from crowdbwa.dataset import (
    LABELS_HEADER,
    PREDICTIONS_HEADER,
    TRUTH_HEADER,
    LabelMatrix,
    ParseError,
    ValidationError,
    _first,
    _first_appearance,
    _first_repeat,
    binary_view,
    load_labels,
    load_predictions,
    load_truth,
    save_labels,
    save_predictions,
    save_truth,
    vote_counts,
)
from crowdbwa.synthetic import SynthSpec, generate


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadLabels:
    def test_three_triples(self, tmp_path):
        path = write(tmp_path, "l.csv", "question,worker,answer\nq1,w1,A\nq1,w2,B\nq2,w1,A\n")
        m = load_labels(path)
        assert (m.num_items, m.num_workers, m.num_classes, m.num_labels) == (2, 2, 2, 3)
        assert m.item_ids == ("q1", "q2")
        assert m.worker_ids == ("w1", "w2")
        assert m.label_names == ("A", "B")

    def test_header_only_rejected(self, tmp_path):
        path = write(tmp_path, "l.csv", "question,worker,answer\n")
        with pytest.raises(ValidationError):
            load_labels(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "l.csv", "")
        with pytest.raises(ValidationError):
            load_labels(path)

    def test_bad_header_rejected(self, tmp_path):
        path = write(tmp_path, "l.csv", "item,worker,answer\nq1,w1,A\n")
        with pytest.raises(ParseError):
            load_labels(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = write(tmp_path, "l.csv", "question,worker,answer\nq1,w1,A\nq1,w1,A\n")
        with pytest.raises(ValidationError, match=":3"):
            load_labels(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = write(tmp_path, "l.csv", "question,worker,answer\nq1,w1,A\nq2,w1\n")
        with pytest.raises(ParseError, match=":3"):
            load_labels(path)

    def test_empty_field_rejected(self, tmp_path):
        path = write(tmp_path, "l.csv", "question,worker,answer\nq1,,A\n")
        with pytest.raises(ParseError, match=":2"):
            load_labels(path)

    def test_integer_labels_set_class_count(self, tmp_path):
        path = write(tmp_path, "l.csv", "question,worker,answer\nq1,w1,0\nq2,w1,3\n")
        m = load_labels(path)
        assert m.num_classes == 4
        assert m.label_names == ("0", "1", "2", "3")

    def test_class_count_override(self, tmp_path):
        path = write(tmp_path, "l.csv", "question,worker,answer\nq1,w1,0\nq2,w1,1\n")
        assert load_labels(path, num_classes=5).num_classes == 5
        with pytest.raises(ValidationError):
            load_labels(write(tmp_path, "l2.csv",
                              "question,worker,answer\nq1,w1,0\nq2,w1,7\n"), num_classes=3)

    def test_string_labels_first_appearance_order(self, tmp_path):
        path = write(tmp_path, "l.csv", "question,worker,answer\nq1,w1,yes\nq2,w1,no\nq3,w1,yes\n")
        m = load_labels(path)
        assert m.label_names == ("yes", "no")
        assert list(m.labels) == [0, 1, 0]

    def test_index_maps_deterministic(self, tmp_path):
        path = write(
            tmp_path, "l.csv",
            "question,worker,answer\nq9,w3,B\nq2,w1,A\nq9,w1,B\nq5,w2,A\n",
        )
        assert load_labels(path) == load_labels(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "l.csv", "question,worker,answer\nq1,w1,A\n\nq2,w1,B\n\n")
        assert load_labels(path).num_labels == 2

    def test_first_repeated_pair_in_file_order_is_named(self, tmp_path):
        # 300 distinct pairs, then the same pairs in reverse order: the first
        # repeat in the file is the last pair again, on line 2 + 300.
        rows = [f"q{i},w{i % 7},A" for i in range(300)]
        path = write(tmp_path, "l.csv",
                     "question,worker,answer\n" + "\n".join(rows + rows[::-1]) + "\n")
        with pytest.raises(ValidationError, match=r":302: .*\('q299', 'w5'\)"):
            load_labels(path)

    def test_repeated_pair_before_malformed_row_wins(self, tmp_path):
        path = write(tmp_path, "l.csv",
                     "question,worker,answer\nq1,w1,A\n\n q1 ,w1,B\nq2,w1\n")
        with pytest.raises(ValidationError, match=":4: duplicate"):
            load_labels(path)

    def test_malformed_row_before_repeated_pair_wins(self, tmp_path):
        path = write(tmp_path, "l.csv",
                     "question,worker,answer\nq1,w1,A\nq2, ,B\nq1,w1,B\n")
        with pytest.raises(ParseError, match=":3:"):
            load_labels(path)

    def test_label_beyond_int64_names_line(self, tmp_path):
        path = write(tmp_path, "l.csv", "question,worker,answer\nq1,w1,0\n\n"
                     "q2,w1,99999999999999999999\nq3,w1,1\nq4,w1,99999999999999999999\n")
        with pytest.raises(ValidationError,
                           match=r"l\.csv:4: integer label '99999999999999999999'"):
            load_labels(path)

    def test_label_beyond_int64_after_repeated_pair(self, tmp_path):
        path = write(tmp_path, "l.csv", "question,worker,answer\nq1,w1,0\nq1,w1,1\n"
                     "q2,w1,99999999999999999999\n")
        with pytest.raises(ValidationError, match=":3: duplicate"):
            load_labels(path)

    def test_label_beyond_int64_before_malformed_row(self, tmp_path):
        path = write(tmp_path, "l.csv", "question,worker,answer\n"
                     "q1,w1,18446744073709551616\nq2,w1\n")
        with pytest.raises(ValidationError, match=":2: integer label"):
            load_labels(path)

    def test_label_beyond_int64_before_empty_label(self, tmp_path):
        # the empty label on line 3 does not make the label space a string one
        path = write(tmp_path, "l.csv", "question,worker,answer\n"
                     "q1,w1,99999999999999999999\nq2,w1, \n")
        with pytest.raises(ValidationError, match=":2: integer label"):
            load_labels(path)

    def test_label_of_5000_digits_names_line(self, tmp_path):
        # int() refuses strings beyond 4,300 digits; the digit count decides first
        path = write(tmp_path, "l.csv",
                     f"question,worker,answer\nq1,w1,0\nq2,w1,{'9' * 5000}\nq3,w1,1\n")
        with pytest.raises(ValidationError,
                           match=r"l\.csv:3: integer label '9{5000}' is beyond the int64 range"):
            load_labels(path)

    def test_zero_padded_label_of_5000_digits_is_its_value(self, tmp_path):
        path = write(tmp_path, "l.csv",
                     f"question,worker,answer\nq1,w1,0\nq2,w1,{'0' * 5000}1\n")
        m = load_labels(path)
        assert list(m.labels) == [0, 1]
        assert m.num_classes == 2

    def test_zero_padding_does_not_hide_int64_overflow(self, tmp_path):
        label = "0" * 5000 + "9223372036854775808"
        path = write(tmp_path, "l.csv", f"question,worker,answer\nq1,w1,{label}\n")
        with pytest.raises(ValidationError, match=r"l\.csv:2: integer label '0{5000}9223"):
            load_labels(path)

    def test_padding_crlf_and_bom(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_bytes("\ufeffquestion,worker,answer\r\n q1 ,w1\t, 2\r\n\r\nq2,w1,0\r\n"
                         .encode("utf-8"))
        m = load_labels(path)
        assert m.item_ids == ("q1", "q2")
        assert m.worker_ids == ("w1",)
        assert list(m.labels) == [2, 0]
        assert m.num_classes == 3

    def test_integer_labels_are_ascii_digits(self, tmp_path):
        # an Arabic-Indic three is its own label, not a second spelling of 3
        path = tmp_path / "l.csv"
        path.write_bytes("question,worker,answer\nq1,w1,3\nq2,w1,\u0663\nq3,w2,1\n"
                         .encode("utf-8"))
        m = load_labels(path)
        assert m.label_names == ("3", "\u0663", "1")
        assert list(m.labels) == [0, 1, 2]


# str.strip's whitespace and str.splitlines' line breaks; none lies above U+3000
WHITESPACE = [chr(c) for c in range(0x3001) if chr(c).isspace()]
BREAKS = [c for c in WHITESPACE if len(f"a{c}b".splitlines()) == 2]
# Ids that must be neither split nor stripped: U+2010 shares its first two
# UTF-8 bytes with U+2000-U+200A and U+2028/U+2029, and U+200B is no space
LOOKALIKES = ["q\u2010", "\u2010", "q\u200b", "\u200bq", "é", "問題", "q\x00", "\x00q"]


def code_points(text):
    return "+".join(f"U{ord(c):04X}" for c in text)


def rows_text(header, rows, newline="\n", pad=""):
    """A file of ``rows`` (tuples of fields), each field padded on both
    sides by ``pad``, with a line of only ``pad`` after the first row."""
    lines = [",".join(pad + f + pad for f in row) for row in rows]
    return newline.join([header, lines[0], pad, *lines[1:]]) + newline


LOOKALIKE_LABELS = [(item, f"w{t % 3}", str(t % 2)) for t, item in enumerate(LOOKALIKES)]
LOOKALIKE_TRUTH = [(item, str(t % 2)) for t, item in enumerate(LOOKALIKES)]


def compare_labels(tmp_path, text):
    """``load_labels``' outcome on ``text``, which must equal the row reference's."""
    path = tmp_path / "l.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = loader_fuzz.outcome(loader_fuzz.reference_load_labels, path, None)
    assert loader_fuzz.outcome(load_labels, path, None) == expected
    return expected


def compare_truth(tmp_path, text):
    """``load_truth``'s outcome on ``text`` against the look-alike crowd,
    which must equal the row reference's."""
    matrix = LabelMatrix.from_triples(LOOKALIKE_LABELS)
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = item_label_fuzz.outcome(
        lambda p, m: item_label_fuzz.reference_load(p, m, TRUTH_HEADER, "truth"), path, matrix)
    assert item_label_fuzz.outcome(item_label_fuzz.read_truth, path, matrix) == expected
    return expected


def test_whitespace_sets_are_str_rules():
    assert (len(WHITESPACE), len(BREAKS)) == (29, 10)


@pytest.mark.parametrize("newline", BREAKS + ["\r\n", "\n\r", "\r\r\n"], ids=code_points)
class TestEveryLineBreak:
    def test_labels(self, tmp_path, newline):
        got = compare_labels(tmp_path, rows_text(LABELS_HEADER, LOOKALIKE_LABELS, newline))
        assert got.item_ids == tuple(LOOKALIKES)

    def test_truth(self, tmp_path, newline):
        got = compare_truth(tmp_path, rows_text(TRUTH_HEADER, LOOKALIKE_TRUTH, newline))
        assert len(got) == len(LOOKALIKES)

    def test_line_numbers(self, tmp_path, newline):
        short = [("q9",)]
        got = compare_labels(tmp_path, rows_text(LABELS_HEADER, LOOKALIKE_LABELS + short,
                                                 newline))
        assert got[0] is ParseError
        got = compare_truth(tmp_path, rows_text(TRUTH_HEADER, LOOKALIKE_TRUTH + short, newline))
        assert got[0] is ParseError


@pytest.mark.parametrize("pad", WHITESPACE, ids=code_points)
class TestEveryWhitespacePad:
    """A break used as padding splits the row; the outcomes must still agree."""

    def test_labels(self, tmp_path, pad):
        got = compare_labels(tmp_path, rows_text(LABELS_HEADER, LOOKALIKE_LABELS, pad=pad))
        assert isinstance(got, LabelMatrix) is (pad not in BREAKS)

    def test_truth(self, tmp_path, pad):
        got = compare_truth(tmp_path, rows_text(TRUTH_HEADER, LOOKALIKE_TRUTH, pad=pad))
        assert isinstance(got, dict) is (pad not in BREAKS)


class TestHostileWidths:
    def test_one_huge_id_stays_small(self, tmp_path):
        rows = [f"q{i % 2000},w{i // 2000},{i % 2}" for i in range(10_000)]
        rows.insert(5_000, f"{'x' * 1_000_000},w0,1")
        path = tmp_path / "l.csv"
        path.write_text("\n".join([LABELS_HEADER, *rows]) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            matrix = load_labels(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix == loader_fuzz.reference_load_labels(path)
        assert matrix.item_ids[2_000] == "x" * 1_000_000
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("prefix", [7, 8, 15, 16, 31, 32, 40])
    def test_ids_sharing_a_prefix_are_distinct(self, tmp_path, prefix):
        ids = ["p" * prefix + "a", "p" * prefix + "b", "p" * prefix, "p" * prefix + "a"]
        path = write(tmp_path, "l.csv", "\n".join(
            [LABELS_HEADER, *(f"{q},w{t},0" for t, q in enumerate(ids))]))
        m = load_labels(path)
        assert m.item_ids == tuple(ids[:3])
        assert list(m.items) == [0, 1, 2, 0]

    def test_trailing_nul_is_part_of_the_id(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_bytes(b"question,worker,answer\nq1,w1,0\nq1\x00,w1,0\nq1,w2,1\n")
        m = load_labels(path)
        assert m.item_ids == ("q1", "q1\x00")
        assert list(m.items) == [0, 1, 0]


class TestRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path):
        original = load_labels(write(
            tmp_path, "l.csv",
            "question,worker,answer\nq9,w3,B\nq2,w1,A\nq9,w1,B\nq5,w2,A\nq2,w3,C\n",
        ))
        out = tmp_path / "roundtrip.csv"
        save_labels(original, out)
        assert load_labels(out) == original

    @pytest.mark.parametrize("matrix", [
        generate(SynthSpec(num_items=300, num_workers=20, num_classes=3, redundancy=4,
                           seed=2))[0],
        LabelMatrix.from_triples(
            [("é1", "wörker", "ja"), ("q 2", "wörker", "nein"), ("é1", "w2", "vielleicht"),
             ("問題", "w2", "ja")],
            item_ids=["問題", "é1", "q 2"],
            worker_ids=["idle", "w2", "wörker"],
        ),
    ], ids=["generated", "unicode-ids"])
    def test_save_labels_matches_row_writer(self, tmp_path, matrix):
        # the row-at-a-time writer that the joined write replaced
        with open(tmp_path / "rows.csv", "w", encoding="utf-8") as fh:
            fh.write("question,worker,answer\n")
            for i, j, k in zip(matrix.items, matrix.workers, matrix.labels):
                fh.write(
                    f"{matrix.item_ids[i]},{matrix.worker_ids[j]},{matrix.label_names[k]}\n"
                )
        save_labels(matrix, tmp_path / "joined.csv")
        assert (tmp_path / "joined.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_truth_round_trip(self, tmp_path):
        m = load_labels(write(tmp_path, "l.csv",
                              "question,worker,answer\nq1,w1,A\nq2,w1,B\nq3,w2,A\n"))
        truth = load_truth(write(tmp_path, "t.csv", "question,truth\nq1,A\nq3,B\n"), m)
        out = tmp_path / "t2.csv"
        save_truth(truth, m, out)
        assert read_truth(out, m) == item_label_fuzz.truth_map(truth)


class TestLoadTruth:
    def test_partial_coverage(self, tmp_path):
        m = load_labels(write(tmp_path, "l.csv",
                              "question,worker,answer\nq1,w1,A\nq2,w1,B\n"))
        assert read_truth(write(tmp_path, "t.csv", "question,truth\nq1,B\n"), m) == {0: 1}

    def test_unknown_item_rejected(self, tmp_path):
        m = load_labels(write(tmp_path, "l.csv", "question,worker,answer\nq1,w1,A\n"))
        with pytest.raises(ValidationError, match="unknown item"):
            load_truth(write(tmp_path, "t.csv", "question,truth\nq7,A\n"), m)

    def test_unknown_label_rejected(self, tmp_path):
        m = load_labels(write(tmp_path, "l.csv", "question,worker,answer\nq1,w1,A\n"))
        with pytest.raises(ValidationError, match="unknown truth label"):
            load_truth(write(tmp_path, "t.csv", "question,truth\nq1,Z\n"), m)

    def test_duplicate_item_rejected(self, tmp_path):
        m = load_labels(write(tmp_path, "l.csv", "question,worker,answer\nq1,w1,A\n"))
        with pytest.raises(ValidationError, match="duplicate truth"):
            load_truth(write(tmp_path, "t.csv", "question,truth\nq1,A\nq1,A\n"), m)

    def test_integer_truth_can_use_unseen_class(self, tmp_path):
        m = load_labels(
            write(tmp_path, "l.csv", "question,worker,answer\nq1,w1,0\nq2,w1,1\n"),
            num_classes=3,
        )
        assert read_truth(write(tmp_path, "t.csv", "question,truth\nq2,2\n"), m) == {1: 2}


read_truth = item_label_fuzz.read_truth


def read_predictions(path, matrix):
    labels, predicted = load_predictions(path, matrix)
    assert not labels[~predicted].any()
    return dict(zip(np.flatnonzero(predicted).tolist(), labels[predicted].tolist()))


@pytest.mark.parametrize("header, noun, read", [
    (TRUTH_HEADER, "truth", read_truth),
    (PREDICTIONS_HEADER, "prediction", read_predictions),
], ids=["truth", "prediction"])
class TestItemLabelReaders:
    """Edge cases that truth and prediction files share."""

    INTEGER = "question,worker,answer\nq1,w1,0\nq2,w1,1\nq3,w2,2\n"
    STRINGS = "question,worker,answer\nq1,w1,A\nq2,w1,B\n"

    def load(self, tmp_path, header, read, rows, labels=INTEGER):
        matrix = load_labels(write(tmp_path, "l.csv", labels))
        path = tmp_path / "f.csv"
        path.write_bytes(f"{header}\n{rows}".encode("utf-8"))
        return read(path, matrix)

    def test_leading_zero_is_the_class_index(self, tmp_path, header, noun, read):
        assert self.load(tmp_path, header, read, "q1,01\nq2,002\n") == {0: 1, 1: 2}

    def test_leading_zero_is_unknown_among_strings(self, tmp_path, header, noun, read):
        with pytest.raises(ValidationError, match=f"f.csv:2: unknown {noun} label '01'"):
            self.load(tmp_path, header, read, "q1,01\n", self.STRINGS)

    def test_class_index_is_unknown_among_strings(self, tmp_path, header, noun, read):
        with pytest.raises(ValidationError, match=f"f.csv:3: unknown {noun} label '1'"):
            self.load(tmp_path, header, read, "q1,B\nq2,1\n", self.STRINGS)

    def test_other_scripts_digits_are_unknown(self, tmp_path, header, noun, read):
        for label in ("\u0663", "\u00b2"):
            with pytest.raises(ValidationError, match=f"f.csv:2: unknown {noun} label"):
                self.load(tmp_path, header, read, f"q1,{label}\n")

    @pytest.mark.parametrize("label", ["3", "99999999999999999999"])
    def test_label_beyond_class_count(self, tmp_path, header, noun, read, label):
        with pytest.raises(ValidationError,
                           match=f"f.csv:3: {noun} label '{label}' outside the 3-class"):
            self.load(tmp_path, header, read, f"q1,0\nq2,{label}\n")

    def test_label_of_5000_digits_is_outside_the_label_space(self, tmp_path, header, noun,
                                                             read):
        with pytest.raises(ValidationError,
                           match=f"f.csv:3: {noun} label '9{{5000}}' outside the 3-class"):
            self.load(tmp_path, header, read, f"q1,0\nq2,{'9' * 5000}\n")

    def test_zero_padded_label_of_5000_digits_is_the_class_index(self, tmp_path, header,
                                                                 noun, read):
        assert self.load(tmp_path, header, read, f"q1,{'0' * 5000}1\n") == {0: 1}

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_padding_line_endings_bom_and_blank_lines(self, tmp_path, header, noun, read,
                                                      newline):
        matrix = load_labels(write(tmp_path, "l.csv", self.INTEGER))
        path = tmp_path / "f.csv"
        path.write_bytes(newline.join(["\ufeff" + header, " q2 ,\t1 ", "", "  ", "q3,0", ""])
                         .encode("utf-8"))
        assert read(path, matrix) == {1: 1, 2: 0}

    def test_header_only(self, tmp_path, header, noun, read):
        assert self.load(tmp_path, header, read, "") == {}
        assert self.load(tmp_path, header, read, "\n \n") == {}

    def test_repeated_item(self, tmp_path, header, noun, read):
        with pytest.raises(ValidationError, match=f"f.csv:4: duplicate {noun} for item 'q1'"):
            self.load(tmp_path, header, read, "q1,0\nq2,1\n q1,1\n")

    def test_repeated_item_reported_before_its_label(self, tmp_path, header, noun, read):
        with pytest.raises(ValidationError, match=f"f.csv:3: duplicate {noun} for item 'q1'"):
            self.load(tmp_path, header, read, "q1,0\nq1,9\n")

    def test_unknown_item_before_malformed_row(self, tmp_path, header, noun, read):
        with pytest.raises(ValidationError, match="f.csv:3: unknown item id 'q9'"):
            self.load(tmp_path, header, read, "q1,0\nq9,1\nq2\n")

    def test_malformed_row_before_unknown_item(self, tmp_path, header, noun, read):
        with pytest.raises(ParseError, match="f.csv:3: expected 2 non-empty"):
            self.load(tmp_path, header, read, "q1,0\nq2, \nq9,1\n")

    def test_other_header_rejected(self, tmp_path, header, noun, read):
        other = TRUTH_HEADER if header == PREDICTIONS_HEADER else PREDICTIONS_HEADER
        matrix = load_labels(write(tmp_path, "l.csv", self.INTEGER))
        with pytest.raises(ParseError, match="f.csv:1: bad header"):
            read(write(tmp_path, "f.csv", f"{other}\nq1,0\n"), matrix)


def cut_after(first, second):
    """``first + second`` as UTF-8, padded with spaces before the header or
    after the last line so that a split read cuts it just after ``first``,
    which ends with a \\n: that \\n becomes the file's middle byte."""
    a, b = first.encode(), second.encode()
    gap = len(a) - 2 - len(b)
    a = b" " * -gap + a if gap < 0 else a
    data = a + b + b" " * gap
    assert data.find(b"\n", len(data) // 2) + 1 == len(a)
    return data


def read_outcome(read, path):
    """What ``read(path)`` returns, or the exception class and message."""
    try:
        return read(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


class TestSplitRead:
    """A file read as two halves, the second on a helper thread, gives
    exactly what one pass gives: the same result, or the same error with
    the same line number."""

    @staticmethod
    def both(monkeypatch, thread_starts, tmp_path, data, read=load_labels, threads=1):
        """``read``'s outcome on ``data`` with the size gate just above the
        file, which must start no thread, and just at it, which must start
        ``threads`` threads and give the same outcome."""
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(dataset, "_SPLIT_MIN_BYTES", len(data) + 1)
        one_pass = read_outcome(read, path)
        assert thread_starts == []
        monkeypatch.setattr(dataset, "_SPLIT_MIN_BYTES", len(data))
        assert read_outcome(read, path) == one_pass
        assert len(thread_starts) == threads
        return one_pass

    def test_cut_just_after_a_crlf(self, monkeypatch, thread_starts, tmp_path):
        data = cut_after(f"{LABELS_HEADER}\r\nq1,w1,0\r\nq2,w1,1\r\n", "q3,w2,0\r\nq1,w2,1\r\n")
        m = self.both(monkeypatch, thread_starts, tmp_path, data)
        assert m.item_ids == ("q1", "q2", "q3") and list(m.items) == [0, 1, 2, 0]

    def test_lf_cr_pair_across_the_cut(self, monkeypatch, thread_starts, tmp_path):
        data = cut_after(f"{LABELS_HEADER}\nq1,w1,0\n", "\rq2,w1,1\n\rq3,w2\n")
        assert self.both(monkeypatch, thread_starts, tmp_path, data) == (
            ParseError, f"{tmp_path / 'f.csv'}:6: expected 3 non-empty comma-separated "
                        "fields, got 'q3,w2'")

    def test_wide_breaks_and_pad_in_the_second_half(self, monkeypatch, thread_starts, tmp_path):
        data = cut_after(f"{LABELS_HEADER}\nq1,w1,0\n",
                         "q2,w1,1\u2028q3,w2,0\x85\u3000q4\u3000,w1,1\n")
        m = self.both(monkeypatch, thread_starts, tmp_path, data)
        assert m.item_ids == ("q1", "q2", "q3", "q4")

    def test_malformed_row_in_the_first_half(self, monkeypatch, thread_starts, tmp_path):
        data = cut_after(f"{LABELS_HEADER}\nq1,w1,0\nq2,w1\nq3,w2,1\n", "q4,w1,0\nq5,,1\n")
        error, message = self.both(monkeypatch, thread_starts, tmp_path, data)
        assert error is ParseError and message.startswith(f"{tmp_path / 'f.csv'}:3: ")

    def test_malformed_row_only_in_the_second_half(self, monkeypatch, thread_starts, tmp_path):
        data = cut_after(f"{LABELS_HEADER}\nq1,w1,0\nq2,w1,1\n", "q3,w2,1\n\nq4,,1\nq5,w1\n")
        error, message = self.both(monkeypatch, thread_starts, tmp_path, data)
        assert error is ParseError and message.startswith(f"{tmp_path / 'f.csv'}:6: ")

    def test_repeated_pair_past_the_cut(self, monkeypatch, thread_starts, tmp_path):
        data = cut_after(f"{LABELS_HEADER}\nq1,w1,0\nq2,w1,1\n", "q3,w2,1\nq1,w1,1\n")
        assert self.both(monkeypatch, thread_starts, tmp_path, data) == (
            ValidationError, f"{tmp_path / 'f.csv'}:5: duplicate (item, worker) pair "
                             "('q1', 'w1')")

    def test_nul_byte(self, monkeypatch, thread_starts, tmp_path):
        data = cut_after(f"{LABELS_HEADER}\nq1,w1,0\nq2,w1,1\n", "q1\x00,w1,0\nq1,w2,1\n")
        m = self.both(monkeypatch, thread_starts, tmp_path, data)
        assert m.item_ids == ("q1", "q2", "q1\x00") and list(m.items) == [0, 1, 2, 0]

    def test_long_id_in_both_halves(self, monkeypatch, thread_starts, tmp_path):
        x = "x" * 40
        data = cut_after(f"{LABELS_HEADER}\n{x},w1,0\n{x}y,w1,1\n",
                         f"{x},w2,1\n{x}y,w2,0\n{x}z,w1,0\n")
        m = self.both(monkeypatch, thread_starts, tmp_path, data)
        assert m.item_ids == (x, x + "y", x + "z") and list(m.items) == [0, 1, 0, 1, 2]

    def test_cr_line_ends_are_read_in_one_pass(self, monkeypatch, thread_starts, tmp_path):
        data = f"{LABELS_HEADER}\rq1,w1,0\rq2,w1,1\rq3,w2,0\r".encode()
        m = self.both(monkeypatch, thread_starts, tmp_path, data, threads=0)
        assert m.num_labels == 3

    @pytest.mark.parametrize("read", [read_truth, read_predictions], ids=["truth", "prediction"])
    @pytest.mark.parametrize("tail", ["q3,1\n", "q3,1\nq9,0\n"], ids=["valid", "unknown"])
    def test_truth_and_predictions(self, monkeypatch, thread_starts, tmp_path, read, tail):
        matrix = LabelMatrix.from_triples([(f"q{i}", "w1", str(i % 2)) for i in range(4)])
        header = TRUTH_HEADER if read is read_truth else PREDICTIONS_HEADER
        data = cut_after(f"{header}\nq0,0\nq1,1\n", tail)
        self.both(monkeypatch, thread_starts, tmp_path, data, lambda path: read(path, matrix))

    def test_one_cpu_starts_no_thread(self, monkeypatch, thread_starts, tmp_path):
        path = tmp_path / "l.csv"
        path.write_bytes(cut_after(f"{LABELS_HEADER}\nq1,w1,0\n", "q2,w1,1\n"))
        monkeypatch.setattr(dataset, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(dataset, "_SPLIT_MIN_BYTES", 0)
        assert load_labels(path).num_labels == 2
        assert thread_starts == []

    @pytest.mark.parametrize("on", ["caller", "helper"])
    @pytest.mark.parametrize("step", ["_scan", "_factorise"])
    def test_error_on_either_thread_reraises(self, monkeypatch, thread_starts, tmp_path, step,
                                             on):
        """The caller scans the first half and factorises the later
        columns; the helper scans the second half and factorises the
        first column. A failure in any of them reaches the caller, and
        the helper has stopped by then."""
        path = tmp_path / "l.csv"
        path.write_bytes(cut_after(f"{LABELS_HEADER}\nq1,w1,0\n", "q2,w1,1\n"))
        monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(dataset, "_SPLIT_MIN_BYTES", 0)
        caller, real = threading.current_thread(), getattr(dataset, step)

        def failing(*args, **kwargs):
            if (threading.current_thread() is caller) == (on == "caller"):
                raise RuntimeError(f"{step} on the {on}")
            return real(*args, **kwargs)

        monkeypatch.setattr(dataset, step, failing)
        with pytest.raises(RuntimeError, match=f"^{step} on the {on}$"):
            load_labels(path)
        [helper] = thread_starts
        assert not helper.is_alive()

    def test_large_crowd_stays_below_the_one_pass_peak(self, monkeypatch, thread_starts,
                                                         tmp_path):
        """Read on two threads, a file shaped like the criterion-8 crowd
        (500k rows of q<i>, w<j> and 0/1) peaks below the 82 MB of
        tracemalloc that one pass took before the loader's memory work.
        How far the two factorisations overlap varies, so the worst of
        several reads counts."""
        matrix, _ = generate(SynthSpec(num_items=100_000, num_workers=2000, num_classes=2,
                                       redundancy=5, seed=7))
        path = tmp_path / "l.csv"
        save_labels(matrix, path)
        monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
        peaks = []
        for _ in range(3):
            tracemalloc.start()
            try:
                loaded = load_labels(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert loaded.num_labels == 500_000
        assert len(thread_starts) == 3
        assert max(peaks) < 82 * 2**20

    def test_concurrent_reads_share_one_file(self, monkeypatch, thread_starts, tmp_path):
        path = tmp_path / "l.csv"
        save_labels(generate(SynthSpec(num_items=400, num_workers=40, num_classes=3,
                                       redundancy=5, seed=3))[0], path)
        one_pass = load_labels(path)
        monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(dataset, "_SPLIT_MIN_BYTES", 0)
        start = threading.Barrier(2)
        results = [None, None]

        def run(slot):
            start.wait()
            results[slot] = load_labels(path)

        callers = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
        # two callers, each with its one helper
        assert len(thread_starts) == 4
        for result in results:
            for field in dataclasses.fields(LabelMatrix):
                a, b = getattr(one_pass, field.name), getattr(result, field.name)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
                else:
                    assert a == b, field.name


class TestOnParts:
    """``_on_parts`` runs the first part on the caller and the second on
    the one helper ``_helper`` makes, or every part on the caller."""

    @staticmethod
    def record(part, log):
        log.append((part, threading.current_thread()))
        return part * 10

    def test_no_helper_runs_the_parts_in_order_on_the_caller(self, thread_starts):
        log = []
        with dataset._helper(False) as helper:
            assert helper is None
            assert dataset._on_parts(helper, self.record, [1, 2], log) == [10, 20]
        assert log == [(1, threading.current_thread()), (2, threading.current_thread())]
        assert thread_starts == []

    def test_second_part_runs_on_the_named_helper(self, thread_starts):
        log = []
        with dataset._helper(True) as helper:
            assert dataset._on_parts(helper, self.record, [1, 2], log) == [10, 20]
        [helper_thread] = thread_starts
        assert dict(log) == {1: threading.current_thread(), 2: helper_thread}
        assert helper_thread.name.startswith("crowdbwa-helper")
        assert not helper_thread.is_alive()

    def test_one_part_starts_no_thread(self, thread_starts):
        log = []
        with dataset._helper(True) as helper:
            assert dataset._on_parts(helper, self.record, [1], log) == [10]
        assert log == [(1, threading.current_thread())]
        assert thread_starts == []

    def test_callers_error_wins_once_the_helper_has_stopped(self, thread_starts):
        helper_failed = threading.Event()

        def failing(part):
            if part == 2:
                helper_failed.set()
                raise RuntimeError("helper failed")
            assert helper_failed.wait(timeout=60)
            raise ValueError("caller failed")

        with pytest.raises(ValueError, match="^caller failed$"):
            with dataset._helper(True) as helper:
                dataset._on_parts(helper, failing, [1, 2])
        [helper_thread] = thread_starts
        assert not helper_thread.is_alive()


class TestSavePredictions:
    def test_matches_row_writer(self, tmp_path):
        matrix = LabelMatrix.from_triples(
            [("é1", "w", "ja"), ("q 2", "w", "nein"), ("問題", "w", "ja")],
            item_ids=["問題", "é1", "q 2"])
        labels = np.array([1, 0, 1])
        save_predictions(labels, matrix, tmp_path / "p.csv")
        rows = [PREDICTIONS_HEADER] + [f"{q},{matrix.label_names[k]}"
                                       for q, k in zip(matrix.item_ids, labels)]
        assert (tmp_path / "p.csv").read_text(encoding="utf-8") == "\n".join(rows) + "\n"
        assert read_predictions(tmp_path / "p.csv", matrix) == {0: 1, 1: 0, 2: 1}


class TestSaveRejectsUnreadableNames:
    """Each writer refuses a name that the reader would not read back as
    written, and names it in the error."""

    def refused(self, tmp_path, kind, name):
        fields = {"item id": "q1", "worker id": "w1", "label": "yes", kind: name}
        matrix = LabelMatrix.from_triples([("q0", "w0", "no"), tuple(fields.values())])
        writes = [lambda path: save_labels(matrix, path)]
        if kind != "worker id":  # only the label file holds worker ids
            writes += [lambda path: save_truth((np.array([0, 1]), np.array([0, 1])), matrix, path),
                       lambda path: save_predictions(np.array([0, 1]), matrix, path)]
        for write_to in writes:
            with pytest.raises(ValidationError, match=re.escape(f"{kind} {name!r}")):
                write_to(tmp_path / "out.csv")

    def test_empty(self, tmp_path):
        self.refused(tmp_path, "item id", "")
        self.refused(tmp_path, "label", "")

    def test_comma(self, tmp_path):
        self.refused(tmp_path, "item id", "a,b")
        self.refused(tmp_path, "worker id", "w,2")

    @pytest.mark.parametrize("brk", BREAKS, ids=code_points)
    def test_line_break(self, tmp_path, brk):
        self.refused(tmp_path, "item id", f"a{brk}b")
        self.refused(tmp_path, "label", f"ja{brk}")

    @pytest.mark.parametrize("name", [" q", "q ", "\tq", "q\u3000", "\xa0q"], ids=code_points)
    def test_edge_whitespace(self, tmp_path, name):
        for kind in ("item id", "worker id", "label"):
            self.refused(tmp_path, kind, name)


class TestFromTriples:
    def test_explicit_universe_keeps_unlabelled_entries(self):
        m = LabelMatrix.from_triples(
            [("q0", "w0", "1"), ("q1", "w0", "0")],
            item_ids=["q1", "q0"],
            worker_ids=["w0", "w1"],
            num_classes=2,
        )
        assert m.item_ids == ("q1", "q0")
        assert m.num_workers == 2
        assert list(m.labels_per_item) == [1, 1]
        assert list(m.labels_per_worker) == [2, 0]

    def test_unknown_id_with_explicit_universe(self):
        with pytest.raises(ValidationError, match="unknown item"):
            LabelMatrix.from_triples([("qX", "w0", "0")], item_ids=["q0"], worker_ids=["w0"])

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            LabelMatrix.from_triples([("q0", "w0", "0"), ("q0", "w0", "1")])

    def test_unknown_worker_with_explicit_universe(self):
        with pytest.raises(ValidationError, match="unknown worker id 'wX'"):
            LabelMatrix.from_triples([("q0", "w0", "0"), ("q0", "wX", "1")],
                                     item_ids=["q0"], worker_ids=["w0"])

    def test_duplicate_explicit_ids_rejected(self):
        with pytest.raises(ValidationError, match="explicit id list contains duplicates"):
            LabelMatrix.from_triples([("q0", "w0", "0")], item_ids=["q0", "q0"])

    def test_duplicate_names_both_ids_of_first_repeat(self):
        rows = [(f"q{i}", f"w{i % 7}", "0") for i in range(300)]
        with pytest.raises(ValidationError, match="worker 'w5' labelled item 'q299' twice"):
            LabelMatrix.from_triples(rows + rows[::-1])

    def test_duplicate_under_explicit_universe(self):
        with pytest.raises(ValidationError, match="worker 'w1' labelled item 'q1' twice"):
            LabelMatrix.from_triples([("q1", "w1", "0"), ("q0", "w1", "0"), ("q1", "w1", "1")],
                                     item_ids=["q0", "q1"], worker_ids=["w0", "w1"])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            LabelMatrix.from_triples([])

    def test_records_must_be_triples(self):
        with pytest.raises(ValidationError, match="triples"):
            LabelMatrix.from_triples([("q0", "w0", "0"), ("q1", "w0", "0", "extra")])

    def test_label_beyond_int64_rejected(self):
        with pytest.raises(ValidationError, match="integer label '9223372036854775808'"):
            LabelMatrix.from_triples([("q0", "w0", "1"), ("q1", "w0", "9223372036854775808")])

    def test_string_labels_reject_class_override(self):
        with pytest.raises(ValidationError):
            LabelMatrix.from_triples([("q0", "w0", "yes")], num_classes=3)


class TestEveryItemHasALabel:
    """A matrix holds at least one item, and every item has a label."""

    def test_direct_constructor_names_first_unlabelled_item(self):
        with pytest.raises(ValidationError, match="^item 'q1' has no label$"):
            LabelMatrix(np.array([0, 2]), np.array([0, 0]), np.array([0, 1]), 4, 1, 2,
                        ("q0", "q1", "q2", "q3"), ("w0",), ("0", "1"))

    def test_explicit_item_without_label(self):
        with pytest.raises(ValidationError, match="^item 'q2' has no label$"):
            LabelMatrix.from_triples([("q0", "w0", "0"), ("q1", "w0", "1")],
                                     item_ids=["q0", "q2", "q1"])

    def test_no_items(self):
        none = np.empty(0, dtype=np.int64)
        with pytest.raises(ValidationError, match="at least one item"):
            LabelMatrix(none, none, none, 0, 0, 2, (), (), ("0", "1"))


class TestIndicesInRange:
    """Every item, worker and label index lies below its count."""

    @staticmethod
    def build(items, workers, labels, num_items=2, num_workers=1, num_classes=2):
        return LabelMatrix(np.array(items), np.array(workers), np.array(labels),
                           num_items, num_workers, num_classes,
                           tuple(f"q{i}" for i in range(num_items)),
                           tuple(f"w{j}" for j in range(num_workers)),
                           tuple(str(k) for k in range(num_classes)))

    def test_item_beyond_num_items(self):
        with pytest.raises(ValidationError, match=r"^items must lie in \[0, 2\), found 0\.\.5$"):
            self.build([0, 1, 5], [0, 0, 0], [0, 1, 0])

    def test_worker_beyond_num_workers(self):
        with pytest.raises(ValidationError, match=r"^workers must lie in \[0, 1\), found 0\.\.3$"):
            self.build([0, 1], [0, 3], [0, 1])

    def test_label_beyond_num_classes(self):
        with pytest.raises(ValidationError, match=r"^labels must lie in \[0, 2\), found 0\.\.2$"):
            self.build([0, 1], [0, 0], [0, 2])

    @pytest.mark.parametrize("column", range(3))
    def test_negative_index(self, column):
        columns = [[0, 1], [0, 0], [0, 1]]
        columns[column] = [0, -1]
        with pytest.raises(ValidationError, match=r"must lie in \[0, \d\), found -1\.\.0$"):
            self.build(*columns)

    def test_indices_at_their_bounds(self):
        m = self.build([0, 1], [0, 1], [1, 0], num_workers=2)
        assert m.labels_per_worker.tolist() == [1, 1]


class TestIdTableLengths:
    """Each id table holds one name per index."""

    @pytest.mark.parametrize("table, names, expected", [
        ("item_ids", ("q0",), 2), ("worker_ids", ("w0", "w1"), 1),
        ("label_names", ("0", "1", "2"), 2)])
    def test_length_differs_from_count(self, table, names, expected):
        tables = {"item_ids": ("q0", "q1"), "worker_ids": ("w0",), "label_names": ("0", "1")}
        tables[table] = names
        with pytest.raises(ValidationError,
                           match=rf"^{table} must hold {expected} names, found {len(names)}$"):
            LabelMatrix(np.array([0, 1]), np.array([0, 0]), np.array([0, 1]), 2, 1, 2,
                        **tables)

    def test_short_item_ids_with_an_unlabelled_item(self):
        with pytest.raises(ValidationError, match=r"^item_ids must hold 2 names, found 1$"):
            LabelMatrix(np.array([0]), np.array([0]), np.array([0]), 2, 1, 2,
                        ("q0",), ("w0",), ("0", "1"))


class TestCountsAtConstruction:
    """The per-item and per-worker counts and their maxima are fields,
    taken once, when the matrix is built."""

    @staticmethod
    def columns(num_labels, num_items, num_workers, seed=0):
        rng = np.random.default_rng(seed)
        return (np.arange(num_labels) % num_items, rng.integers(0, num_workers, num_labels),
                rng.integers(0, 2, num_labels), num_items, num_workers, 2,
                tuple(f"q{i}" for i in range(num_items)),
                tuple(f"w{j}" for j in range(num_workers)), ("0", "1"))

    def build(self, *args):
        return LabelMatrix(*self.columns(*args))

    def test_fields_after_construction(self):
        m = self.build(1000, 300, 50)
        assert {"labels_per_item", "labels_per_worker", "max_labels_per_item",
                "max_labels_per_worker"} <= vars(m).keys()
        for counts, column, n in ((m.labels_per_item, m.items, m.num_items),
                                  (m.labels_per_worker, m.workers, m.num_workers)):
            assert not counts.flags.writeable
            assert np.array_equal(counts, np.bincount(column, minlength=n))
        assert m.max_labels_per_item == np.bincount(m.items).max()
        assert m.max_labels_per_worker == np.bincount(m.workers).max()

    def test_counting_copies_no_column(self):
        num_labels = 500_000
        columns = self.columns(num_labels, 20_000, 2_000)
        tracemalloc.start()
        try:
            m = LabelMatrix(*columns)
            # read them too: a count taken lazily would bincount a frozen column
            m.labels_per_item, m.labels_per_worker
            m.max_labels_per_item, m.max_labels_per_worker
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.max_labels_per_item == 25
        # a copy of either column alone takes 8 * num_labels
        assert peak < 4 * num_labels

    def test_replace_copies_no_column(self):
        # replace hands __post_init__ the frozen columns of the original
        num_labels = 500_000
        m = self.build(num_labels, 20_000, 2_000)
        tracemalloc.start()
        try:
            copy = dataclasses.replace(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(copy.labels_per_item, m.labels_per_item)
        assert np.array_equal(copy.labels_per_worker, m.labels_per_worker)
        assert peak < 4 * num_labels

    def test_replace_counts_afresh(self):
        m = self.build(100, 10, 5)
        wider = dataclasses.replace(m, num_workers=7, worker_ids=m.worker_ids + ("w5", "w6"))
        assert wider.labels_per_worker.tolist() == m.labels_per_worker.tolist() + [0, 0]
        assert wider.max_labels_per_worker == m.max_labels_per_worker


class TestVoteCounts:
    def test_basic_counts(self):
        m = LabelMatrix.from_triples(
            [("q0", "w0", "0"), ("q0", "w1", "0"), ("q0", "w2", "1")], num_classes=2
        )
        vc = vote_counts(m)
        assert vc.dtype == np.int64 and not vc.flags.writeable
        assert vc.tolist() == [[2, 1]]
        assert vc.sum(axis=1).tolist() == [3]

    def test_three_classes_unanimous(self):
        m = LabelMatrix.from_triples(
            [("q0", "w0", "2"), ("q0", "w1", "2"), ("q0", "w2", "2")], num_classes=3
        )
        assert vote_counts(m).tolist() == [[0, 0, 3]]

    def test_row_sums_match_labels_per_item(self):
        rng = np.random.default_rng(0)
        rows = [
            (f"q{i}", f"w{j}", str(rng.integers(4)))
            for i in range(10)
            for j in rng.choice(8, size=3, replace=False)
        ]
        m = LabelMatrix.from_triples(rows, num_classes=4)
        assert np.array_equal(vote_counts(m).sum(axis=1), m.labels_per_item)


def indicator(view):
    """Per label, 1.0 if it is the view's focal class, else 0.0, read off
    its residual index ``item + num_items * y``."""
    return (view.residual_index // view.matrix.num_items).astype(np.float64)


class TestBinaryView:
    def test_indicator_values(self):
        m = LabelMatrix.from_triples([("q0", "w0", "2")], num_classes=3)
        assert indicator(binary_view(m, 2)).tolist() == [1.0]
        assert indicator(binary_view(m, 0)).tolist() == [0.0]

    def test_partition_of_unity(self):
        rng = np.random.default_rng(1)
        rows = [
            (f"q{i}", f"w{j}", str(rng.integers(3)))
            for i in range(12)
            for j in rng.choice(6, size=2, replace=False)
        ]
        m = LabelMatrix.from_triples(rows, num_classes=3)
        stacked = np.stack([indicator(binary_view(m, k)) for k in range(3)])
        assert np.array_equal(stacked.sum(axis=0), np.ones(m.num_labels))

    def test_out_of_range_class(self):
        m = LabelMatrix.from_triples([("q0", "w0", "0")], num_classes=2)
        with pytest.raises(ValidationError):
            binary_view(m, 2)

    def test_positives_per_item(self):
        m = LabelMatrix.from_triples(
            [("q0", "w0", "1"), ("q0", "w1", "0"), ("q1", "w0", "1")], num_classes=2
        )
        view = binary_view(m, 1)
        positives = np.bincount(view.residual_index, minlength=2 * m.num_items)[m.num_items:]
        assert positives.tolist() == [1, 1]

    def test_masks_mark_the_entries_their_index_reads(self):
        m = generate(SynthSpec(num_items=200, num_workers=30, num_classes=4, redundancy=3,
                               seed=4))[0]
        for k in range(4):
            view = binary_view(m, k)
            positives = vote_counts(m)[:, k]
            # items with a label other than k, then items with k
            assert np.array_equal(view.residual_used, np.concatenate(
                (m.labels_per_item > positives, positives > 0)))

    def test_frozen_and_read_only(self):
        view = binary_view(LabelMatrix.from_triples([("q0", "w0", "1")]), 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.focal_class = 0
        for arr in (view.residual_index, view.residual_used):
            assert not arr.flags.writeable


def locate_first_repeat(keys):
    """The first repeat located by factorising every key, as the loader
    did before it sorted first to learn whether any key repeats."""
    repeated = np.ones(keys.size, dtype=bool)
    repeated[_first_appearance(keys)[1]] = False
    return _first(repeated)


class TestFirstRepeat:
    @pytest.mark.parametrize("keys, expected", [
        ([], 0),
        ([7], 1),
        ([3, 1, 2, -1, 9], 5),
        ([4, 4, 1, 2, 3], 1),
        ([1, 2, 5, 3, 5, 6, 7], 4),
        ([9, 8, 7, 6, 9], 4),
        ([2, 1, 2, 1, 2, 1], 2),
        ([0, 0, 0, 0], 1),
    ], ids=["empty", "one-key", "no-repeat", "start", "middle", "end", "many", "all-equal"])
    def test_same_index_as_locating_every_key(self, keys, expected):
        keys = np.array(keys, dtype=np.int64)
        assert _first_repeat(keys) == locate_first_repeat(keys) == expected

    def test_random_keys(self):
        rng = np.random.default_rng(15)
        for size in (2, 10, 1000):
            for high in (size // 2 + 1, size, 100 * size):
                keys = rng.integers(-1, high, size=size)
                assert _first_repeat(keys) == locate_first_repeat(keys)
            distinct = rng.permutation(size)
            assert _first_repeat(distinct) == size
