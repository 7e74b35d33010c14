"""Ingestion, validation and views of the sparse label store."""

import numpy as np
import pytest

from crowdbwa.dataset import (
    LabelMatrix,
    ParseError,
    ValidationError,
    binary_view,
    load_labels,
    load_truth,
    save_labels,
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

    def test_padding_crlf_and_bom(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_bytes("\ufeffquestion,worker,answer\r\n q1 ,w1\t, 2\r\n\r\nq2,w1,0\r\n"
                         .encode("utf-8"))
        m = load_labels(path)
        assert m.item_ids == ("q1", "q2")
        assert m.worker_ids == ("w1",)
        assert list(m.labels) == [2, 0]
        assert m.num_classes == 3


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
            item_ids=["問題", "unlabelled", "é1", "q 2", "also unlabelled"],
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
        assert load_truth(out, m).mapping == truth.mapping


class TestLoadTruth:
    def test_partial_coverage(self, tmp_path):
        m = load_labels(write(tmp_path, "l.csv",
                              "question,worker,answer\nq1,w1,A\nq2,w1,B\n"))
        truth = load_truth(write(tmp_path, "t.csv", "question,truth\nq1,B\n"), m)
        assert len(truth) == 1
        assert truth[0] == 1

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
        truth = load_truth(write(tmp_path, "t.csv", "question,truth\nq2,2\n"), m)
        assert truth[1] == 2


class TestFromTriples:
    def test_explicit_universe_keeps_unlabelled_entries(self):
        m = LabelMatrix.from_triples(
            [("q0", "w0", "1")],
            item_ids=["q0", "q1", "q2"],
            worker_ids=["w0", "w1"],
            num_classes=2,
        )
        assert m.num_items == 3
        assert m.num_workers == 2
        assert list(m.labels_per_item) == [1, 0, 0]
        assert list(m.labels_per_worker) == [1, 0]

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


class TestVoteCounts:
    def test_basic_counts(self):
        m = LabelMatrix.from_triples(
            [("q0", "w0", "0"), ("q0", "w1", "0"), ("q0", "w2", "1")], num_classes=2
        )
        vc = vote_counts(m)
        assert vc.counts.tolist() == [[2, 1]]
        assert vc.totals.tolist() == [3]

    def test_unlabelled_item_all_zero(self):
        m = LabelMatrix.from_triples(
            [("q0", "w0", "0")], item_ids=["q0", "q1"], num_classes=2
        )
        assert vote_counts(m).counts[1].tolist() == [0, 0]

    def test_three_classes_unanimous(self):
        m = LabelMatrix.from_triples(
            [("q0", "w0", "2"), ("q0", "w1", "2"), ("q0", "w2", "2")], num_classes=3
        )
        assert vote_counts(m).counts.tolist() == [[0, 0, 3]]

    def test_row_sums_match_labels_per_item(self):
        rng = np.random.default_rng(0)
        rows = [
            (f"q{i}", f"w{j}", str(rng.integers(4)))
            for i in range(10)
            for j in rng.choice(8, size=3, replace=False)
        ]
        m = LabelMatrix.from_triples(rows, num_classes=4)
        assert np.array_equal(vote_counts(m).totals, m.labels_per_item)


class TestBinaryView:
    def test_indicator_values(self):
        m = LabelMatrix.from_triples([("q0", "w0", "2")], num_classes=3)
        assert binary_view(m, 2).y.tolist() == [1.0]
        assert binary_view(m, 0).y.tolist() == [0.0]

    def test_partition_of_unity(self):
        rng = np.random.default_rng(1)
        rows = [
            (f"q{i}", f"w{j}", str(rng.integers(3)))
            for i in range(12)
            for j in rng.choice(6, size=2, replace=False)
        ]
        m = LabelMatrix.from_triples(rows, num_classes=3)
        stacked = np.stack([binary_view(m, k).y for k in range(3)])
        assert np.array_equal(stacked.sum(axis=0), np.ones(m.num_labels))

    def test_out_of_range_class(self):
        m = LabelMatrix.from_triples([("q0", "w0", "0")], num_classes=2)
        with pytest.raises(ValidationError):
            binary_view(m, 2)

    def test_positives_per_item(self):
        m = LabelMatrix.from_triples(
            [("q0", "w0", "1"), ("q0", "w1", "0"), ("q1", "w0", "1")], num_classes=2
        )
        assert binary_view(m, 1).positives_per_item.tolist() == [1, 1]
