"""End-to-end behaviour of the command-line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crowdbwa
from crowdbwa import cli
from crowdbwa.cli import main

FIXTURE = "question,worker,answer\nq1,w1,A\nq1,w2,B\nq2,w1,A\n"


# two pinned synthetic crowds: binary, and four skewed classes
SYNTH_K2 = ["--items", "1000", "--workers", "50", "--k", "2", "--redundancy", "5",
            "--seed", "7"]
SYNTH_K4 = ["--items", "500", "--workers", "30", "--k", "4", "--redundancy", "7",
            "--seed", "123", "--class-prior", "0.4,0.3,0.2,0.1",
            "--accuracy-min", "0.3", "--accuracy-max", "0.9"]


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

    @pytest.mark.parametrize("argv, labels_sha, truth_sha", [
        (SYNTH_K2,
         "bb52bc46162c5a75c69fa48af7108430f9c6760b2d967b0209d65c93f32f2458",
         "034000d42f6410a027d730c9d67c67392fd2b56d7237c77c7e882f3e50b19e4a"),
        (SYNTH_K4,
         "3264b234484fb981593c3f5a156ba972b55b2f7c951e68a0441479069b7104d7",
         "3e0d9aa3032aa207ac6ad8f5cc6a5d9c4029f03f0d6c615c940c2a74698b4ce5"),
    ])
    def test_pinned_output_bytes(self, tmp_path, capsys, argv, labels_sha, truth_sha):
        labels, truth = tmp_path / "l.csv", tmp_path / "t.csv"
        code, _, _ = run(capsys, "synth", *argv,
                         "--out-labels", str(labels), "--out-truth", str(truth))
        assert code == 0
        assert hashlib.sha256(labels.read_bytes()).hexdigest() == labels_sha
        assert hashlib.sha256(truth.read_bytes()).hexdigest() == truth_sha

    def test_nan_class_prior_fails(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--items", "5", "--workers", "3", "--redundancy", "2",
            "--class-prior", "nan,nan",
            "--out-labels", str(tmp_path / "l.csv"), "--out-truth", str(tmp_path / "t.csv"),
        )
        assert code == 1
        assert "class_prior" in err


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

    def test_label_of_5000_digits_names_line(self, tmp_path, capsys):
        labels = tmp_path / "l.csv"
        labels.write_text(f"question,worker,answer\nq1,w1,0\nq2,w1,{'7' * 5000}\n")
        code, _, err = run(capsys, "aggregate", "--labels", str(labels),
                           "--out", str(tmp_path / "p.csv"))
        assert code == 1
        assert re.search(r"l\.csv:3: integer label '7{5000}' is beyond the int64 range", err)
        assert "4300" not in err

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

    def test_ds_line_and_byte_identical_predictions(self, tmp_path, capsys):
        d = make_dataset(tmp_path, capsys, "ds1", 9)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, err = run(capsys, "aggregate", "--labels", str(d / "labels.csv"),
                               "--method", "ds", "--out", str(out))
            assert code == 0
            assert re.fullmatch(r"ds: \d+ iterations, converged=(True|False) "
                                r"runtime=\d+\.\d{3}s\n", err)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    # sha256 of the predictions, .workers.csv and .summary.json files
    @pytest.mark.parametrize("synth, profile, shas", [
        (SYNTH_K2, "av15-adjusted",
         ["1e88c73fae38c83d749e031b664fdf898cdd46294492c6b69f670c1b0528414f",
          "bff5520075b2c50dd3d1c3fd624f002de04ac4bfbf7884e17d9fb60c730e8ac1",
          "792e528237b867f243acb7ff85e885fb5bb468ccd6fcd2bdf1b713c8df246b32"]),
        (SYNTH_K2, "av30-original",
         ["bb6025b6c9dde550c728d6d9b423a19f50f94a58037343e1f628560569cffd87",
          "157dfb7189c97a9a083f1c0dff0510b14df39f09c44784ba9cd3baab62792604",
          "4c6477c20ec6290c39567a7532b3ebb89a5475ec1f15815f71966895253ad66a"]),
        (SYNTH_K4, "av15-adjusted",
         ["98932e341de73a842c49e7c2b68850957ac72183135e057ee189496bfef7e474",
          "9c0acdaf4487d693fa2b142dbafd854f51bc90643cd039ca4152d135a1990a7b",
          "7f775f467d9b5c3808e8dd9bb4a5004916ceddecc8dfd5d4a37f0ee407ae4fdf"]),
        (SYNTH_K4, "av30-original",
         ["f770fa72128ea21259e698c9bc69ac96d403d6599c0e332aedd449b8dd95fe56",
          "b5ed26fbedc8364edddb7f853bea7180e2ac63eecdbd6acb30b44ad0175fe8ce",
          "5c494e334e92c0174d8ebc18b05cb2c2433c287f9771b15d91afecd4e505a33f"]),
    ], ids=["k2-av15-adjusted", "k2-av30-original", "k4-av15-adjusted", "k4-av30-original"])
    def test_bwa_pinned_output_bytes(self, tmp_path, capsys, synth, profile, shas):
        labels = tmp_path / "l.csv"
        code, _, _ = run(capsys, "synth", *synth, "--out-labels", str(labels),
                         "--out-truth", str(tmp_path / "t.csv"))
        assert code == 0
        out = tmp_path / "pred.csv"
        code, _, _ = run(capsys, "aggregate", "--labels", str(labels), "--method", "bwa",
                         "--profile", profile, "--out", str(out))
        assert code == 0
        assert [hashlib.sha256((tmp_path / f"pred.csv{suffix}").read_bytes()).hexdigest()
                for suffix in ("", ".workers.csv", ".summary.json")] == shas

    def test_no_scipy_on_the_aggregate_path(self, tmp_path):
        # importing scipy costs start-up time and resident memory that no
        # aggregation method needs
        labels = tmp_path / "l.csv"
        labels.write_text(FIXTURE)
        script = (
            "import sys\n"
            "import crowdbwa.cli\n"
            "assert 'scipy' not in sys.modules, 'import'\n"
            "for method in ('mv', 'ds', 'bwa'):\n"
            "    out = sys.argv[2] + method\n"
            "    code = crowdbwa.cli.main(['aggregate', '--labels', sys.argv[1],\n"
            "                              '--method', method, '--out', out])\n"
            "    assert code == 0, method\n"
            "    assert 'scipy' not in sys.modules, method\n"
        )
        src = str(Path(crowdbwa.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(labels), str(tmp_path / "pred-")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_import_leaves_out_the_thread_pool_module(self):
        # concurrent.futures pulls in logging, about 10 ms of start-up;
        # only a crowd large enough to split its class runs may load it
        src = str(Path(crowdbwa.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, crowdbwa.cli\n"
             "assert 'concurrent.futures' not in sys.modules"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_every_command_runs_without_scipy(self, tmp_path, capsys):
        # every command runs where importing scipy fails
        for name, seed in (("ds1", 1), ("ds2", 2), ("ds3", 3)):
            make_dataset(tmp_path, capsys, name, seed)
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from crowdbwa.cli import main\n"
            "data, out = sys.argv[1], sys.argv[2]\n"
            "labels, truth = data + '/ds1/labels.csv', data + '/ds1/truth.csv'\n"
            "runs = [['aggregate', '--labels', labels, '--method', method, '--out', out + method]\n"
            "        for method in ('mv', 'ds', 'bwa')]\n"
            "runs += [['eval', '--labels', labels, '--predictions', out + 'bwa', '--truth', truth],\n"
            "         ['sweep', '--labels', labels, '--truth', truth, '--grid', '1,15'],\n"
            "         ['synth', '--items', '20', '--workers', '5', '--redundancy', '3',\n"
            "          '--out-labels', out + 's.csv', '--out-truth', out + 't.csv'],\n"
            "         ['bench', '--data', data, '--methods', 'mv,ds,bwa', '--out', out + 'r.json']]\n"
            "for argv in runs:\n"
            "    assert main(argv) == 0, argv\n"
            "report = json.load(open(out + 'r.json'))\n"
            "assert any(s['wilcoxon'] for s in report['summaries']), 'no signed-rank test ran'\n"
        )
        src = str(Path(crowdbwa.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "data"), str(tmp_path / "out-")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("rows, err", [
        ("q1,w1,A\nq1,w2,B\n"           # tie
         "q2,w1,A\nq2,w2,B\nq2,w3,B\n"  # majority
         "q3,w1,C\nq3,w2,B\nq3,w3,A\n"  # 3-way tie
         "q4,w1,C\n",                   # one vote
         "warning: 2 items had tied top votes and went to the smallest class index\n"),
        ("q1,w1,A\nq1,w2,A\nq2,w1,B\n", ""),
    ], ids=["ties", "no-ties"])
    def test_mv_reports_tied_items(self, tmp_path, capsys, rows, err):
        labels = tmp_path / "l.csv"
        labels.write_text("question,worker,answer\n" + rows)
        code, _, got = run(capsys, "aggregate", "--labels", str(labels), "--method", "mv",
                           "--out", str(tmp_path / "pred.csv"))
        assert code == 0
        assert got == err

    @pytest.mark.parametrize("flags, name", [
        (["--a-v", "inf"], "a_v"),
        (["--lambda", "inf"], "lam"),
    ])
    def test_infinite_hyper_parameter_fails(self, tmp_path, capsys, flags, name):
        labels = tmp_path / "l.csv"
        labels.write_text(FIXTURE)
        out = tmp_path / "pred.csv"
        code, _, err = run(capsys, "aggregate", "--labels", str(labels), "--method", "bwa",
                           "--out", str(out), *flags)
        assert code == 1
        assert err == f"error: {name} must be positive and finite\n"
        assert not out.exists()

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
        assert "ds1 / " not in err  # no method ran

    def test_repeated_method_fails_before_any_method(self, tmp_path, capsys):
        make_dataset(tmp_path, capsys, "ds1", 5)
        code, out, err = run(capsys, "bench", "--data", str(tmp_path / "data"),
                             "--methods", "mv,mv,bwa")
        assert code == 1
        assert out == ""
        assert "'mv'" in err
        assert "ds1 / " not in err  # no method ran

    @pytest.mark.parametrize("methods, first, second", [
        ("mv,bwa,bwa:av15-adjusted", "bwa", "bwa:av15-adjusted"),
        ("mv,bwa:av30-original,ds,bwa:av30-original", "bwa:av30-original",
         "bwa:av30-original"),
    ])
    def test_one_model_named_twice_fails_before_any_load(self, tmp_path, capsys, monkeypatch,
                                                         methods, first, second):
        make_dataset(tmp_path, capsys, "ds1", 5)
        loads = []
        monkeypatch.setattr(cli, "load_labels", lambda *a, **k: loads.append(a))
        code, out, err = run(capsys, "bench", "--data", str(tmp_path / "data"),
                             "--methods", methods)
        assert code == 1
        assert out == "" and loads == []
        assert f"{first!r} and {second!r}" in err

    def test_n_evaluated_is_truth_row_count(self, tmp_path, capsys):
        make_dataset(tmp_path, capsys, "ds1", 1)
        truth = make_dataset(tmp_path, capsys, "ds2", 2) / "truth.csv"
        truth.write_text("\n".join(truth.read_text().splitlines()[:22]) + "\n")
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "bench", "--data", str(tmp_path / "data"),
                         "--methods", "mv,ds,bwa", "--out", str(report_path))
        assert code == 0
        scores = json.loads(report_path.read_text())["scores"]
        assert len(scores) == 6
        for s in scores:
            truth = tmp_path / "data" / s["dataset"] / "truth.csv"
            assert s["n_evaluated"] == len(truth.read_text().splitlines()) - 1
        assert {s["dataset"]: s["n_evaluated"] for s in scores} == {"ds1": 30, "ds2": 21}

    def test_header_only_truth_fails_before_any_method(self, tmp_path, capsys):
        make_dataset(tmp_path, capsys, "ds1", 1)
        truth = make_dataset(tmp_path, capsys, "ds2", 2) / "truth.csv"
        truth.write_text("question,truth\n")
        code, out, err = run(capsys, "bench", "--data", str(tmp_path / "data"),
                             "--methods", "mv,bwa")
        assert code == 1
        assert out == ""
        assert err == f"error: {truth}: no truth rows after the header\n"


def link(path, kind, name="alias.csv"):
    """A path naming the same file as ``path``: ``path`` itself, or a
    symlink or hard link called ``name`` beside it."""
    if kind == "same path":
        return path
    other = path.with_name(name)
    if kind == "symlink":
        other.symlink_to(path)
    else:
        os.link(path, other)
    return other


def snapshot(root):
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


LINKS = ("same path", "symlink", "hard link")


class TestOutputsNeverReplaceInputs:
    """Every command refuses an output that names one of its inputs or
    another of its outputs, and writes nothing."""

    def refused(self, capsys, tmp_path, argv, output, other, role):
        before = snapshot(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {output}: output is the same file as the {role} {other}\n"
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("kind", LINKS)
    @pytest.mark.parametrize("method", ["mv", "ds", "bwa"])
    def test_aggregate_out(self, tmp_path, capsys, kind, method):
        labels = tmp_path / "l.csv"
        labels.write_text(FIXTURE)
        out = link(labels, kind)
        self.refused(capsys, tmp_path, ["aggregate", "--labels", str(labels), "--method",
                                        method, "--out", str(out)], out, labels, "input")

    @pytest.mark.parametrize("kind", LINKS)
    @pytest.mark.parametrize("suffix", [".workers.csv", ".summary.json"])
    def test_bwa_side_outputs(self, tmp_path, capsys, kind, suffix):
        labels = tmp_path / ("p.csv" + suffix if kind == "same path" else "l.csv")
        labels.write_text(FIXTURE)
        side = link(labels, kind, "p.csv" + suffix)
        self.refused(capsys, tmp_path, ["aggregate", "--labels", str(labels), "--method",
                                        "bwa", "--out", str(tmp_path / "p.csv")],
                     side, labels, "input")

    @pytest.mark.parametrize("kind", LINKS)
    def test_synth_outputs(self, tmp_path, capsys, kind):
        labels = tmp_path / "a.csv"
        labels.write_text("kept\n")
        truth = link(labels, kind)
        self.refused(capsys, tmp_path, ["synth", "--items", "5", "--workers", "3",
                                        "--redundancy", "2", "--out-labels", str(labels),
                                        "--out-truth", str(truth)], truth, labels, "output")

    @pytest.mark.parametrize("kind", ["same path", "symlink"])
    def test_synth_outputs_not_yet_written(self, tmp_path, capsys, kind):
        path = tmp_path / "new.csv"
        other = path if kind == "same path" else tmp_path / "alias.csv"
        if kind == "symlink":
            other.symlink_to(path)
        self.refused(capsys, tmp_path, ["synth", "--items", "5", "--workers", "3",
                                        "--redundancy", "2", "--out-labels", str(path),
                                        "--out-truth", str(other)], other, path, "output")

    @pytest.mark.parametrize("kind", LINKS)
    @pytest.mark.parametrize("name", ["labels.csv", "truth.csv"])
    def test_sweep_out(self, tmp_path, capsys, kind, name):
        d = make_dataset(tmp_path, capsys, "ds1", 6)
        out = link(d / name, kind)
        self.refused(capsys, tmp_path, ["sweep", "--labels", str(d / "labels.csv"),
                                        "--truth", str(d / "truth.csv"), "--grid", "1",
                                        "--out", str(out)], out, d / name, "input")

    @pytest.mark.parametrize("kind", LINKS)
    @pytest.mark.parametrize("name", ["labels.csv", "truth.csv"])
    def test_bench_out(self, tmp_path, capsys, kind, name):
        make_dataset(tmp_path, capsys, "ds1", 1)
        d = make_dataset(tmp_path, capsys, "ds2", 2)
        out = link(d / name, kind)
        self.refused(capsys, tmp_path, ["bench", "--data", str(tmp_path / "data"),
                                        "--methods", "mv,bwa", "--out", str(out)],
                     out, d / name, "input")


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

    @pytest.mark.parametrize("flags, name", [
        (["--grid", "1,inf"], "a_v"),
        (["--grid", "1", "--lambda", "inf"], "lam"),
    ])
    def test_infinite_hyper_parameter_fails_before_any_run(self, tmp_path, capsys,
                                                           monkeypatch, flags, name):
        d = make_dataset(tmp_path, capsys, "ds1", 7)

        def never(*args):
            raise AssertionError("a method ran")

        monkeypatch.setattr(cli, "aggregate_multiclass", never)
        code, out, err = run(capsys, "sweep", "--labels", str(d / "labels.csv"),
                             "--truth", str(d / "truth.csv"), *flags)
        assert code == 1
        assert out == ""
        assert err == f"error: {name} must be positive and finite\n"

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

    @pytest.mark.parametrize("flags, given", [
        ([], {}),
        (["--lambda", "2", "--tolerance", "0.01", "--max-iters", "7"],
         {"lam": 2.0, "tolerance": 0.01, "max_iters": 7}),
    ], ids=["defaults", "given"])
    def test_settings_not_given_are_the_model_defaults(self, tmp_path, capsys, monkeypatch,
                                                       flags, given):
        d = make_dataset(tmp_path, capsys, "ds1", 6)
        seen = []

        def record(matrix, hp):
            seen.append(hp)
            return aggregate(matrix, hp)

        aggregate = cli.aggregate_multiclass
        monkeypatch.setattr(cli, "aggregate_multiclass", record)
        code, _, _ = run(capsys, "sweep", "--labels", str(d / "labels.csv"),
                         "--truth", str(d / "truth.csv"), "--grid", "5", *flags)
        assert code == 0
        assert seen == [crowdbwa.BwaHyperParams(a_v=5.0, epsilon_strategy=strategy, **given)
                        for strategy in ("original", "adjusted")]

    def test_header_only_truth_fails_before_any_method(self, tmp_path, capsys, monkeypatch):
        d = make_dataset(tmp_path, capsys, "ds1", 6)
        (d / "truth.csv").write_text("question,truth\n")

        def never(*args):
            raise AssertionError("a method ran")

        monkeypatch.setattr(cli, "aggregate_multiclass", never)
        code, out, err = run(capsys, "sweep", "--labels", str(d / "labels.csv"),
                             "--truth", str(d / "truth.csv"), "--grid", "1,15")
        assert code == 1
        assert out == ""
        assert err == f"error: {d / 'truth.csv'}: no truth rows after the header\n"


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

    def test_non_ascii_digit_prediction_names_line(self, tmp_path, capsys):
        d = make_dataset(tmp_path, capsys, "ds1", 8)
        pred = tmp_path / "pred.csv"
        assert run(capsys, "aggregate", "--labels", str(d / "labels.csv"),
                   "--method", "mv", "--out", str(pred))[0] == 0
        rows = pred.read_text().splitlines()
        rows[2] = rows[2].split(",")[0] + ",²"
        pred.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", "--labels", str(d / "labels.csv"),
                             "--predictions", str(pred), "--truth", str(d / "truth.csv"))
        assert code == 1
        assert out == ""
        assert "pred.csv:3: unknown prediction label '²'" in err

    def test_class_index_rejected_among_string_labels(self, tmp_path, capsys):
        labels, truth, pred = tmp_path / "l.csv", tmp_path / "t.csv", tmp_path / "pred.csv"
        labels.write_text(FIXTURE)
        truth.write_text("question,truth\nq1,A\nq2,B\n")
        pred.write_text("question,label\nq1,A\nq2,1\n")
        code, out, err = run(capsys, "eval", "--labels", str(labels),
                             "--predictions", str(pred), "--truth", str(truth))
        assert code == 1
        assert out == ""
        assert "pred.csv:3: unknown prediction label '1'" in err

    def test_header_only_truth_fails(self, tmp_path, capsys):
        labels, truth, pred = tmp_path / "l.csv", tmp_path / "t.csv", tmp_path / "pred.csv"
        labels.write_text(FIXTURE)
        truth.write_text("question,truth\n")
        pred.write_text("question,label\nq1,A\nq2,B\n")
        code, out, err = run(capsys, "eval", "--labels", str(labels),
                             "--predictions", str(pred), "--truth", str(truth))
        assert code == 1
        assert out == ""
        assert err == f"error: {truth}: no truth rows after the header\n"


class TestModuleEntryPoint:
    """``python -m crowdbwa`` runs the command line from a source checkout."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(crowdbwa.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-m", "crowdbwa", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_version(self):
        proc = self.run_module("--version")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"crowdbwa {crowdbwa.__version__}\n"

    def test_aggregate(self, tmp_path):
        labels, out = tmp_path / "l.csv", tmp_path / "pred.csv"
        labels.write_text(FIXTURE)
        proc = self.run_module("aggregate", "--labels", str(labels), "--method", "mv",
                               "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text() == "question,label\nq1,A\nq2,A\n"

    def test_error_status(self, tmp_path):
        proc = self.run_module("aggregate", "--labels", str(tmp_path / "missing.csv"),
                               "--out", str(tmp_path / "pred.csv"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
