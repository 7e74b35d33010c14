"""End-to-end behaviour of the command-line interface."""

import json

import numpy as np
import pytest

from crowdbwa.cli import main

FIXTURE = "question,worker,answer\nq1,w1,A\nq1,w2,B\nq2,w1,A\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_writes_expected_row_counts(self, tmp_path, capsys):
        labels, truth = tmp_path / "l.csv", tmp_path / "t.csv"
        code, out, err = run(
            capsys, "synth", "--items", "10", "--workers", "5", "--k", "2",
            "--redundancy", "3", "--seed", "7",
            "--out-labels", str(labels), "--out-truth", str(truth),
        )
        assert code == 0
        assert len(labels.read_text().splitlines()) == 31  # header + N*r
        assert len(truth.read_text().splitlines()) == 11
        echo = json.loads(err.strip().splitlines()[-1])
        assert echo["seed"] == 7 and echo["labels_written"] == 30

    def test_infeasible_redundancy_fails(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--items", "10", "--workers", "5", "--redundancy", "6",
            "--out-labels", str(tmp_path / "l.csv"), "--out-truth", str(tmp_path / "t.csv"),
        )
        assert code == 1
        assert "redundancy" in err

    def test_identical_flags_identical_files(self, tmp_path, capsys):
        args = ["synth", "--items", "12", "--workers", "6", "--redundancy", "2",
                "--seed", "3"]
        la, ta = tmp_path / "a_l.csv", tmp_path / "a_t.csv"
        lb, tb = tmp_path / "b_l.csv", tmp_path / "b_t.csv"
        assert run(capsys, *args, "--out-labels", str(la), "--out-truth", str(ta))[0] == 0
        assert run(capsys, *args, "--out-labels", str(lb), "--out-truth", str(tb))[0] == 0
        assert la.read_bytes() == lb.read_bytes()
        assert ta.read_bytes() == tb.read_bytes()


class TestAggregate:
    def test_majority_vote_predictions(self, tmp_path, capsys):
        labels = tmp_path / "l.csv"
        labels.write_text(FIXTURE)
        out = tmp_path / "pred.csv"
        code, _, _ = run(capsys, "aggregate", "--labels", str(labels),
                         "--method", "mv", "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "question,label"
        assert len(rows) == 3
        assert rows[1] == "q1,A"

    def test_bwa_on_unanimous_data_matches_mv(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        lines = ["question,worker,answer"]
        for i in range(12):
            lab = str(rng.integers(2))
            for j in rng.choice(6, size=3, replace=False):
                lines.append(f"q{i},w{j},{lab}")
        labels = tmp_path / "l.csv"
        labels.write_text("\n".join(lines) + "\n")
        mv_out, bwa_out = tmp_path / "mv.csv", tmp_path / "bwa.csv"
        assert run(capsys, "aggregate", "--labels", str(labels), "--method", "mv",
                   "--out", str(mv_out))[0] == 0
        assert run(capsys, "aggregate", "--labels", str(labels), "--method", "bwa",
                   "--profile", "av15-adjusted", "--out", str(bwa_out))[0] == 0
        assert mv_out.read_text() == bwa_out.read_text()

    def test_bwa_writes_diagnostics(self, tmp_path, capsys):
        labels = tmp_path / "l.csv"
        labels.write_text(FIXTURE)
        out = tmp_path / "pred.csv"
        code, _, err = run(capsys, "aggregate", "--labels", str(labels),
                           "--method", "bwa", "--out", str(out))
        assert code == 0
        workers = (tmp_path / "pred.csv.workers.csv").read_text().splitlines()
        assert workers[0] == "worker,weight,accuracy"
        assert len(workers) == 3
        summary = json.loads((tmp_path / "pred.csv.summary.json").read_text())
        assert summary["converged"] is True
        assert "epsilon" in summary and "iterations" in summary

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        labels = tmp_path / "l.csv"
        labels.write_text(FIXTURE)
        with pytest.raises(SystemExit) as exc:
            main(["aggregate", "--labels", str(labels), "--method", "zc",
                  "--out", str(tmp_path / "p.csv")])
        assert exc.value.code == 2

    def test_missing_file_reports_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "aggregate", "--labels", str(tmp_path / "nope.csv"),
                           "--out", str(tmp_path / "p.csv"))
        assert code == 1
        assert "error" in err

    def test_malformed_input_names_line(self, tmp_path, capsys):
        labels = tmp_path / "l.csv"
        labels.write_text("question,worker,answer\nq1,w1,A\nq2,w1\n")
        code, _, err = run(capsys, "aggregate", "--labels", str(labels),
                           "--out", str(tmp_path / "p.csv"))
        assert code == 1
        assert ":3" in err

    def test_label_beyond_int64_names_line(self, tmp_path, capsys):
        labels = tmp_path / "l.csv"
        labels.write_text("question,worker,answer\nq1,w1,0\nq2,w1,99999999999999999999\n")
        code, _, err = run(capsys, "aggregate", "--labels", str(labels),
                           "--out", str(tmp_path / "p.csv"))
        assert code == 1
        assert "l.csv:3: integer label" in err

    def test_bwa_outputs_and_summary_byte_identical(self, tmp_path, capsys):
        d = make_dataset(tmp_path, capsys, "ds1", 9)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, err = run(capsys, "aggregate", "--labels", str(d / "labels.csv"),
                               "--method", "bwa", "--out", str(out))
            assert code == 0
            assert "runtime=" in err
            outs.append([(tmp_path / f"{name}{suffix}").read_bytes()
                         for suffix in ("", ".workers.csv", ".summary.json")])
        assert outs[0] == outs[1]
        assert "runtime_seconds" not in json.loads(outs[0][2])

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        labels = tmp_path / "l.csv"
        labels.write_text(FIXTURE)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "aggregate", "--labels", str(labels), "--method", "bwa", "--out", str(a))
        run(capsys, "aggregate", "--labels", str(labels), "--method", "bwa", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.workers.csv").read_bytes() == (
            tmp_path / "b.csv.workers.csv"
        ).read_bytes()


def make_dataset(tmp_path, capsys, name, seed, accuracy_range=("0.35", "0.75")):
    d = tmp_path / "data" / name
    d.mkdir(parents=True)
    code, _, _ = run(
        capsys, "synth", "--items", "30", "--workers", "8", "--redundancy", "3",
        "--seed", str(seed), "--accuracy-min", accuracy_range[0],
        "--accuracy-max", accuracy_range[1],
        "--out-labels", str(d / "labels.csv"), "--out-truth", str(d / "truth.csv"),
    )
    assert code == 0
    return d


class TestBench:
    def test_two_datasets_two_methods(self, tmp_path, capsys):
        make_dataset(tmp_path, capsys, "ds1", 1)
        make_dataset(tmp_path, capsys, "ds2", 2)
        report_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "bench", "--data", str(tmp_path / "data"),
                           "--methods", "mv,bwa", "--out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert len(report["scores"]) == 4
        assert {s["method"] for s in report["scores"]} == {"mv", "bwa"}
        bwa_summary = next(s for s in report["summaries"] if s["method"] == "bwa")
        mv_summary = next(s for s in report["summaries"] if s["method"] == "mv")
        assert mv_summary["wilcoxon"] is None
        assert "dataset" in out

    def test_mv_only_has_no_test_section(self, tmp_path, capsys):
        make_dataset(tmp_path, capsys, "ds1", 3)
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "bench", "--data", str(tmp_path / "data"),
                         "--methods", "mv", "--out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert all(s["wilcoxon"] is None for s in report["summaries"])

    def test_empty_directory_fails(self, tmp_path, capsys):
        (tmp_path / "data").mkdir()
        code, _, err = run(capsys, "bench", "--data", str(tmp_path / "data"))
        assert code == 1
        assert "no datasets" in err

    def test_dataset_without_truth_skipped(self, tmp_path, capsys):
        make_dataset(tmp_path, capsys, "ds1", 4)
        broken = tmp_path / "data" / "broken"
        broken.mkdir()
        (broken / "labels.csv").write_text(FIXTURE)
        code, _, err = run(capsys, "bench", "--data", str(tmp_path / "data"),
                           "--methods", "mv,bwa")
        assert code == 0
        assert "broken" in err and "skipped" in err

    def test_requires_mv_baseline(self, tmp_path, capsys):
        make_dataset(tmp_path, capsys, "ds1", 5)
        code, _, err = run(capsys, "bench", "--data", str(tmp_path / "data"),
                           "--methods", "bwa,ds")
        assert code == 1
        assert "baseline" in err


class TestSweep:
    def test_grid_times_strategies(self, tmp_path, capsys):
        d = make_dataset(tmp_path, capsys, "ds1", 6)
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--labels", str(d / "labels.csv"),
                         "--truth", str(d / "truth.csv"), "--grid", "1,15,30",
                         "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "a_v,strategy,accuracy"
        assert len(rows) == 7
        assert sum(",original," in r for r in rows[1:]) == 3
        assert sum(",adjusted," in r for r in rows[1:]) == 3

    def test_zero_prior_strength_rejected(self, tmp_path, capsys):
        d = make_dataset(tmp_path, capsys, "ds1", 7)
        code, _, err = run(capsys, "sweep", "--labels", str(d / "labels.csv"),
                           "--truth", str(d / "truth.csv"), "--grid", "0,15")
        assert code == 1
        assert "a_v" in err

    def test_flat_region_on_high_quality_crowd(self, tmp_path, capsys):
        d = tmp_path / "hq"
        d.mkdir()
        assert run(
            capsys, "synth", "--items", "400", "--workers", "30", "--redundancy", "7",
            "--seed", "0", "--accuracy-min", "0.75", "--accuracy-max", "0.95",
            "--out-labels", str(d / "labels.csv"), "--out-truth", str(d / "truth.csv"),
        )[0] == 0
        code, out, _ = run(capsys, "sweep", "--labels", str(d / "labels.csv"),
                           "--truth", str(d / "truth.csv"), "--grid", "10,20,30,40,50")
        assert code == 0
        by_strategy = {"original": [], "adjusted": []}
        for line in out.strip().splitlines()[1:]:
            _, strategy, acc = line.split(",")
            by_strategy[strategy].append(float(acc))
        for accs in by_strategy.values():
            assert len(accs) == 5
            assert max(accs) - min(accs) < 0.02


class TestEval:
    def test_scores_prediction_file(self, tmp_path, capsys):
        d = make_dataset(tmp_path, capsys, "ds1", 8)
        pred = tmp_path / "pred.csv"
        assert run(capsys, "aggregate", "--labels", str(d / "labels.csv"),
                   "--method", "mv", "--out", str(pred))[0] == 0
        code, out, _ = run(capsys, "eval", "--labels", str(d / "labels.csv"),
                           "--predictions", str(pred), "--truth", str(d / "truth.csv"))
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["n_evaluated"] == 30
        assert 0.0 <= payload["accuracy"] <= 1.0

    def test_reports_items_without_prediction(self, tmp_path, capsys):
        d = make_dataset(tmp_path, capsys, "ds1", 8)
        pred = tmp_path / "pred.csv"
        assert run(capsys, "aggregate", "--labels", str(d / "labels.csv"),
                   "--method", "mv", "--out", str(pred))[0] == 0
        full = pred.read_text().splitlines()
        args = ("eval", "--labels", str(d / "labels.csv"),
                "--predictions", str(pred), "--truth", str(d / "truth.csv"))
        code, out, err = run(capsys, *args)
        assert json.loads(out)["n_missing"] == 0
        assert "warning" not in err

        pred.write_text("\n".join(full[:1] + full[3:]) + "\n")
        code, out, err = run(capsys, *args)
        assert code == 0
        payload = json.loads(out)
        assert payload["n_missing"] == 2
        assert payload["n_evaluated"] == 30
        assert "2 of 30 evaluated items have no prediction" in err

    def test_repeated_prediction_rejected(self, tmp_path, capsys):
        d = make_dataset(tmp_path, capsys, "ds1", 8)
        pred = tmp_path / "pred.csv"
        assert run(capsys, "aggregate", "--labels", str(d / "labels.csv"),
                   "--method", "mv", "--out", str(pred))[0] == 0
        rows = pred.read_text().splitlines()
        item = rows[1].split(",")[0]
        pred.write_text("\n".join(rows + [f"{item},0"]) + "\n")
        code, out, err = run(capsys, "eval", "--labels", str(d / "labels.csv"),
                             "--predictions", str(pred), "--truth", str(d / "truth.csv"))
        assert code == 1
        assert out == ""
        assert f"pred.csv:{len(rows) + 1}: duplicate prediction for item {item!r}" in err
