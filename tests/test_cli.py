import ast
import builtins
import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import os
import pkgutil
import re
import stat
import tracemalloc
import warnings
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import htks.classifier
import htks.formats
import htks.pipeline
from htks import (
    LABEL_ORDER,
    ClassifierConfig,
    JointId,
    Normalization,
    SessionScript,
    SynthConfig,
    TouchLabel,
    Trial,
    generate,
)
from htks.cli import main
from htks.formats import (
    iter_poses,
    load_decisions,
    load_labels,
    write_labels,
    write_poses,
    write_script,
)
from htks.pipeline import RunConfig, classify_sequence, run_pipeline
from htks.synth import _BLOCK_FRAMES, generate_frames

from conftest import DEFAULT_COORDS, make_pose
from test_formats import DECISIONS_FILE_BYTES, LABEL_FILE_BYTES, label_pairs

H, S, K, T = TouchLabel.HEAD, TouchLabel.SHOULDERS, TouchLabel.KNEES, TouchLabel.TOES


@pytest.fixture
def corpus(tmp_path):
    """Noiseless synthetic corpus written to disk: 40 frames, 10 per class."""
    frames = generate(SynthConfig(seed=4, frames_per_class=10))
    poses_path = tmp_path / "poses.txt"
    labels_path = tmp_path / "labels.txt"
    write_poses(poses_path, (pose for pose, _ in frames))
    write_labels(labels_path, ((p.frame_id, lab) for p, lab in frames))
    return poses_path, labels_path


class TestGenerateCommand:
    def test_writes_parseable_files(self, tmp_path):
        poses_path = tmp_path / "p.txt"
        labels_path = tmp_path / "l.txt"
        code = main(["generate", "--out-poses", str(poses_path),
                     "--out-labels", str(labels_path),
                     "--seed", "5", "--frames-per-class", "3", "--jitter", "0.02"])
        assert code == 0
        assert len(list(iter_poses(poses_path))) == 12
        ids, _ = load_labels(labels_path)
        assert len(ids) == 12

    def test_confusable_flag(self, tmp_path):
        code = main(["generate", "--out-poses", str(tmp_path / "p.txt"),
                     "--out-labels", str(tmp_path / "l.txt"),
                     "--frames-per-class", "2", "--confusable"])
        assert code == 0
        _, labels = load_labels(tmp_path / "l.txt")
        assert (labels == LABEL_ORDER.index(T)).all()

    def test_bad_seed_is_config_error(self, tmp_path):
        code = main(["generate", "--out-poses", str(tmp_path / "p.txt"),
                     "--out-labels", str(tmp_path / "l.txt"), "--seed", "-3"])
        assert code == 3

    # Block boundaries of the generator: one frame, a whole block, one past
    # it, and mid-block; the golden corpus never spans two blocks.
    @pytest.mark.parametrize("frames_per_class", [1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 9_001])
    @pytest.mark.parametrize("confusable", [False, True])
    def test_streamed_files_match_the_whole_array_write(self, tmp_path, frames_per_class,
                                                        confusable):
        config = SynthConfig(seed=7, jitter_stddev_ratio=0.05, frames_per_class=frames_per_class)
        frames = generate_frames(config, confusable=confusable)
        write_poses(tmp_path / "whole.txt", frames.coords)
        write_labels(tmp_path / "whole_labels.txt", enumerate(frames.labels))
        code = main(["generate", "--out-poses", str(tmp_path / "p.txt"),
                     "--out-labels", str(tmp_path / "l.txt"), "--seed", "7", "--jitter", "0.05",
                     "--frames-per-class", str(frames_per_class)]
                    + ["--confusable"] * confusable)
        assert code == 0
        assert (tmp_path / "p.txt").read_bytes() == (tmp_path / "whole.txt").read_bytes()
        assert (tmp_path / "l.txt").read_bytes() == (tmp_path / "whole_labels.txt").read_bytes()

    def test_memory_does_not_grow_with_the_corpus(self, tmp_path):
        """Generation streams blocks from the generator to the pose writer:
        the tracemalloc peak stays under 8 MB and does not grow from 18k to
        54k frames. The whole corpus in memory took 1.7 kB per frame."""
        peaks = []
        for frames_per_class in (4_500, 13_500):
            tracemalloc.start()
            try:
                code = main(["generate", "--out-poses", str(tmp_path / "p.txt"),
                             "--out-labels", str(tmp_path / "l.txt"), "--jitter", "0.05",
                             "--frames-per-class", str(frames_per_class)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert max(peaks) < 8 * 2**20
        assert peaks[1] - peaks[0] < 2**16


class TestClassifyCommand:
    def test_minimal_invocation(self, corpus, tmp_path):
        poses_path, _ = corpus
        out = tmp_path / "decisions.csv"
        code = main(["classify", "--poses", str(poses_path), "--out", str(out)])
        assert code == 0
        ids, labels = load_decisions(out)
        assert len(ids) == len(labels) == 40
        assert ids.tolist() == list(range(40))

    def test_rule_overrides(self, corpus, tmp_path):
        poses_path, _ = corpus
        out = tmp_path / "decisions.csv"
        assert main(["classify", "--poses", str(poses_path), "--out", str(out),
                     "--no-rule1", "--no-rule2"]) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        assert not any("true" in (row["rule1_fired"], row["rule2_applied"]) for row in rows)

    def test_missing_pose_file_is_config_error(self, tmp_path):
        code = main(["classify", "--poses", str(tmp_path / "absent.txt"),
                     "--out", str(tmp_path / "d.csv")])
        assert code == 3

    def test_malformed_pose_file_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 head=1,2\n", encoding="utf-8")
        code = main(["classify", "--poses", str(bad), "--out", str(tmp_path / "d.csv")])
        assert code == 2

    def test_non_utf8_pose_file_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"# poses\n0 head=\xff\n")
        code = main(["classify", "--poses", str(bad), "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert f"{bad}:2: not valid UTF-8" in capsys.readouterr().err

    def test_comment_only_pose_file_is_evaluation_error(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# poses\n# no frames\n", encoding="utf-8")
        code = main(["classify", "--poses", str(empty), "--out", str(tmp_path / "d.csv")])
        assert code == 4


@pytest.mark.parametrize("normalization", [m.value for m in Normalization])
@pytest.mark.parametrize("command", ["classify", "run"])
def test_overflowing_distance_is_evaluation_error(tmp_path, capsys, command, normalization):
    # Every coordinate is finite, but the wrist-to-head distance is not.
    pose = make_pose(head=(1e308, -300.0), left_wrist=(-1e308, -40.0),
                     right_wrist=(-1e308, -40.0))
    poses_path = tmp_path / "poses.txt"
    write_poses(poses_path, [pose])
    if command == "classify":
        out = ["--out", str(tmp_path / "d.csv")]
    else:
        out = ["--out-dir", str(tmp_path / "out")]
    code = main([command, "--poses", str(poses_path), "--normalization", normalization, *out])
    assert code == 4
    assert "frame 0" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_reports_perfect_noiseless_accuracy(self, corpus, tmp_path, capsys):
        poses_path, labels_path = corpus
        decisions = tmp_path / "decisions.csv"
        assert main(["classify", "--poses", str(poses_path), "--out", str(decisions)]) == 0
        out_json = tmp_path / "report.json"
        code = main(["evaluate", "--decisions", str(decisions),
                     "--labels", str(labels_path), "--out-json", str(out_json)])
        assert code == 0
        captured = capsys.readouterr()
        assert "overall accuracy = 100.00" in captured.out
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert payload["overall_accuracy"] == 100.0

    def test_disjoint_labels_is_evaluation_error(self, corpus, tmp_path):
        poses_path, _ = corpus
        decisions = tmp_path / "decisions.csv"
        assert main(["classify", "--poses", str(poses_path), "--out", str(decisions)]) == 0
        other = tmp_path / "other_labels.txt"
        write_labels(other, [(999, H)])
        code = main(["evaluate", "--decisions", str(decisions), "--labels", str(other)])
        assert code == 4

    @pytest.mark.parametrize("command", ["evaluate", "run"])
    @pytest.mark.parametrize("labels", [[], [(999, H)]], ids=["empty", "disjoint"])
    def test_no_labelled_frame_is_empty_input(self, corpus, tmp_path, capsys, command, labels):
        poses_path, _ = corpus
        other = tmp_path / "other_labels.txt"
        write_labels(other, labels)
        if command == "evaluate":
            decisions = tmp_path / "decisions.csv"
            assert main(["classify", "--poses", str(poses_path), "--out", str(decisions)]) == 0
            argv = ["evaluate", "--decisions", str(decisions), "--labels", str(other)]
        else:
            argv = ["run", "--poses", str(poses_path), "--labels", str(other),
                    "--out-dir", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv) == 4
        assert "zero pairs" in capsys.readouterr().err


class TestScoreCommand:
    def test_scores_against_script(self, corpus, tmp_path, capsys):
        poses_path, _ = corpus
        decisions = tmp_path / "decisions.csv"
        assert main(["classify", "--poses", str(poses_path), "--out", str(decisions)]) == 0
        # frames 0-9 are head touches; a trial stating "toes" expects head
        script_path = tmp_path / "script.txt"
        write_script(script_path, SessionScript(trials=(
            Trial(T, 0, 9),       # requires head, observed head -> correct
            Trial(H, 10, 19),     # requires toes, observed shoulders -> wrong
            Trial(S, 30, 39),     # requires knees, observed toes -> wrong
        )))
        out_json = tmp_path / "session.json"
        code = main(["score", "--decisions", str(decisions),
                     "--script", str(script_path), "--out-json", str(out_json)])
        assert code == 0
        captured = capsys.readouterr()
        assert "score: 1/3" in captured.out
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert payload["num_correct"] == 1
        assert payload["per_trial"][0]["correct"] is True
        assert payload["per_trial"][1]["observed_part"] == "shoulders"


class TestReportCommand:
    def test_render_and_compare(self, corpus, tmp_path, capsys):
        poses_path, labels_path = corpus
        decisions = tmp_path / "decisions.csv"
        report_a = tmp_path / "a.json"
        report_b = tmp_path / "b.json"
        assert main(["classify", "--poses", str(poses_path), "--out", str(decisions)]) == 0
        assert main(["evaluate", "--decisions", str(decisions), "--labels", str(labels_path),
                     "--out-json", str(report_a)]) == 0
        assert main(["classify", "--poses", str(poses_path), "--out", str(decisions),
                     "--no-rule1", "--no-rule2"]) == 0
        assert main(["evaluate", "--decisions", str(decisions), "--labels", str(labels_path),
                     "--out-json", str(report_b)]) == 0
        capsys.readouterr()
        assert main(["report", "--report", str(report_a)]) == 0
        assert "overall accuracy" in capsys.readouterr().out
        assert main(["report", "--report", str(report_a), "--compare", str(report_b)]) == 0
        out = capsys.readouterr().out
        assert "delta[toes]" in out and "delta[overall]" in out

    @pytest.mark.parametrize("row", [["1", "0", "0", "0"], [True, False, False, False]],
                             ids=["strings", "booleans"])
    def test_string_counts_are_parse_error(self, tmp_path, capsys, row):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"counts": [row] * 4}), encoding="utf-8")
        assert main(["report", "--report", str(path)]) == 2
        assert "counts must be numbers" in capsys.readouterr().err

    # A head row whose total wraps past int64, and counts at or past 2**63 as
    # integers and as floats (JSON reads 1e400 as inf).
    @pytest.mark.parametrize("head_row", [
        "[4611686018427387904, 4611686018427387904, 0, 0]",
        "[9223372036854775808, 0, 0, 0]",
        "[1e300, 0, 0, 0]",
        "[1e400, 0, 0, 0]",
    ], ids=["total", "int", "1e300", "1e400"])
    def test_counts_past_int64_are_parse_error(self, tmp_path, capsys, head_row):
        path = tmp_path / "report.json"
        path.write_text('{"counts": [%s, [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}' % head_row,
                        encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["report", "--report", str(path)]) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert "must be below 2**63" in captured.err and captured.out == ""


# Inputs a reader once met with a traceback; each is a documented exit now.
_HUGE_INT = "1" + "0" * 400  # an int, but too big for a float
_TOO_MANY_DIGITS = "1" + "0" * 5000  # past Python's 4300-digit int parsing limit


@pytest.mark.parametrize("command", ["classify", "run"])
@pytest.mark.parametrize("text", [
    f"classifier:\n  rule1_threshold_ratio: {_HUGE_INT}\n",
    f"classifier:\n  rule2_bias_ratio: -{_HUGE_INT}\n",
    "[" * 3000 + "]" * 3000 + "\n",
    "a: " + "{a: " * 3000 + "1" + "}" * 3000 + "\n",
    f"rule1_threshold_ratio: {_TOO_MANY_DIGITS}\n",
    "rule1_threshold_ratio: 2001-13-45\n",
], ids=["huge-ratio", "huge-bias", "deep-list", "deep-map", "5001-digits", "bad-date"])
def test_unreadable_config_is_config_error(corpus, tmp_path, capsys, command, text):
    poses_path, _ = corpus
    config_path = tmp_path / "config.yaml"
    config_path.write_text(text, encoding="utf-8")
    if command == "classify":
        out = ["--out", str(tmp_path / "d.csv")]
    else:
        out = ["--out-dir", str(tmp_path / "out")]
    assert main([command, "--config", str(config_path), "--poses", str(poses_path), *out]) == 3
    assert "config error: " in capsys.readouterr().err


@pytest.mark.parametrize("command, text, message", [
    ("classify", "1: 2\n", "unknown classifier config keys: 1"),
    ("score", "1: 2\n", "unknown classifier config keys: 1"),
    ("run", "1: 2\n", "unknown run config keys: 1"),
    ("run", "paths: {1: x}\n", "unknown path keys: 1"),
    ("run", "classifier: {1: 2, x: 3}\n", "unknown classifier config keys: 1, x"),
])
def test_any_yaml_key_is_config_error(decisions_csv, tmp_path, capsys, command, text, message):
    poses, script = decisions_csv.parent / "poses.txt", tmp_path / "s.txt"
    config_path = tmp_path / "c.yaml"
    config_path.write_text(text, encoding="utf-8")
    write_script(script, SessionScript(trials=(Trial(H, 0, 3),)))
    args = {
        "classify": ["--poses", str(poses), "--out", str(tmp_path / "d.csv")],
        "score": ["--decisions", str(decisions_csv), "--script", str(script)],
        "run": ["--poses", str(poses), "--out-dir", str(tmp_path / "out")],
    }[command]
    assert main([command, "--config", str(config_path), *args]) == 3
    err = capsys.readouterr().err
    assert f"config error: {message}\n" in err and "Traceback" not in err


@pytest.mark.parametrize("text", [
    "[" * 200_000 + "]" * 200_000,
    '{"counts": [[%s, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}' % _TOO_MANY_DIGITS,
], ids=["deep", "5001-digits"])
def test_unreadable_report_json_is_parse_error(tmp_path, capsys, text):
    path = tmp_path / "report.json"
    path.write_text(text, encoding="utf-8")
    assert main(["report", "--report", str(path)]) == 2
    assert f"parse error: {path}: invalid JSON: " in capsys.readouterr().err


class TestRunCommand:
    def test_pose_file_only_writes_decisions_only(self, corpus, tmp_path):
        poses_path, _ = corpus
        out_dir = tmp_path / "out"
        code = main(["run", "--poses", str(poses_path), "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "decisions.csv").is_file()
        assert not (out_dir / "report.json").exists()
        assert not (out_dir / "session.json").exists()

    def test_full_run_writes_all_artifacts(self, corpus, tmp_path):
        poses_path, labels_path = corpus
        script_path = tmp_path / "script.txt"
        write_script(script_path, SessionScript(trials=(Trial(T, 0, 9), Trial(K, 10, 19))))
        out_dir = tmp_path / "out"
        code = main(["run", "--poses", str(poses_path), "--labels", str(labels_path),
                     "--script", str(script_path), "--out-dir", str(out_dir)])
        assert code == 0
        for name in ("decisions.csv", "report.json", "report.txt", "session.json"):
            assert (out_dir / name).is_file()
        # session totals must agree with an external recount from the file
        ids, labels = load_decisions(out_dir / "decisions.csv")
        session = json.loads((out_dir / "session.json").read_text(encoding="utf-8"))
        by_frame = dict(zip(ids.tolist(), [LABEL_ORDER[index] for index in labels.tolist()]))
        recount = 0
        for trial, required in ((Trial(T, 0, 9), H), (Trial(K, 10, 19), S)):
            window = [by_frame[f] for f in range(trial.start_frame, trial.end_frame + 1)
                      if f in by_frame]
            top = max(set(window), key=window.count)
            recount += top is required
        assert session["num_correct"] == recount

    def test_config_file_with_cli_override(self, corpus, tmp_path):
        poses_path, labels_path = corpus
        config_path = tmp_path / "run.yaml"
        config_path.write_text(
            "paths:\n"
            f"  poses: {poses_path.name}\n"
            f"  labels: {labels_path.name}\n"
            "  out_dir: from_file\n"
            "classifier:\n"
            "  rule2_bias_ratio: 0.01\n"
            "report_format: delimited\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "cli_wins"
        code = main(["run", "--config", str(config_path), "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "decisions.csv").is_file()
        assert not (tmp_path / "from_file").exists()
        text = (out_dir / "report.txt").read_text(encoding="utf-8")
        assert text.startswith("truth,")  # delimited style from the file

    def test_rerun_is_byte_identical(self, corpus, tmp_path):
        poses_path, labels_path = corpus
        out_dir = tmp_path / "out"
        args = ["run", "--poses", str(poses_path), "--labels", str(labels_path),
                "--out-dir", str(out_dir)]
        assert main(args) == 0
        first = {name: (out_dir / name).read_bytes()
                 for name in ("decisions.csv", "report.json", "report.txt")}
        assert main(args) == 0
        second = {name: (out_dir / name).read_bytes()
                  for name in ("decisions.csv", "report.json", "report.txt")}
        assert first == second

    def test_missing_poses_is_config_error(self, tmp_path):
        assert main(["run", "--out-dir", str(tmp_path / "out")]) == 3
        assert main(["run", "--poses", str(tmp_path / "ghost.txt"),
                     "--out-dir", str(tmp_path / "out")]) == 3

    def test_bad_run_config_key(self, corpus, tmp_path):
        poses_path, _ = corpus
        config_path = tmp_path / "run.yaml"
        config_path.write_text("pathz:\n  poses: x\n", encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 3

    @pytest.mark.parametrize("value", ["false", "''", "null"])
    def test_report_format_that_is_not_a_style(self, corpus, tmp_path, capsys, value):
        poses_path, labels_path = corpus
        config_path = tmp_path / "run.yaml"
        config_path.write_text(f"report_format: {value}\n", encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--poses", str(poses_path),
                     "--labels", str(labels_path), "--out-dir", str(tmp_path / "out")]) == 3
        assert "config error: report_format must be one of" in capsys.readouterr().err

    def test_stage_replay_matches_run(self, tmp_path):
        poses = tmp_path / "poses.txt"
        labels = tmp_path / "labels.txt"
        assert main(["generate", "--out-poses", str(poses), "--out-labels", str(labels),
                     "--seed", "3", "--frames-per-class", "60", "--jitter", "0.2"]) == 0
        # Unlabelled frames are skipped by both paths.
        write_labels(labels, [(f, lab) for f, lab in label_pairs(labels) if f % 7])
        script = tmp_path / "script.txt"
        write_script(script, SessionScript(trials=(
            Trial(T, 0, 9), Trial(H, 50, 70), Trial(K, 119, 125),
            Trial(S, 178, 200), Trial(H, 235, 260),
        )))
        out = tmp_path / "out"
        assert main(["run", "--poses", str(poses), "--labels", str(labels),
                     "--script", str(script), "--out-dir", str(out)]) == 0

        stages = tmp_path / "stages"
        stages.mkdir()
        decisions = stages / "decisions.csv"
        assert main(["classify", "--poses", str(poses), "--out", str(decisions)]) == 0
        assert main(["evaluate", "--decisions", str(decisions), "--labels", str(labels),
                     "--out-json", str(stages / "report.json")]) == 0
        assert main(["score", "--decisions", str(decisions), "--script", str(script),
                     "--out-json", str(stages / "session.json")]) == 0
        for name in ("decisions.csv", "report.json", "session.json"):
            assert (out / name).read_bytes() == (stages / name).read_bytes(), name

    @pytest.mark.parametrize("bad", ["labels", "script"])
    def test_bad_input_fails_before_output(self, corpus, tmp_path, bad):
        poses_path, labels_path = corpus
        script_path = tmp_path / "script.txt"
        write_script(script_path, SessionScript(trials=(Trial(T, 0, 9),)))
        broken = {"labels": labels_path, "script": script_path}[bad]
        broken.write_text(broken.read_text(encoding="utf-8") + "not a valid line\n",
                          encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(["run", "--poses", str(poses_path), "--labels", str(labels_path),
                     "--script", str(script_path), "--out-dir", str(out_dir)])
        assert code == 2
        assert not (out_dir / "decisions.csv").exists()


@pytest.mark.parametrize("command", ["classify", "run"])
@pytest.mark.parametrize("case, expected", [("comments-only", 4), ("bad-line-at-40", 2)])
def test_failed_classification_leaves_no_decisions(tmp_path, command, case, expected):
    poses_path = tmp_path / "poses.txt"
    if case == "comments-only":
        poses_path.write_text("# poses\n# no frames\n", encoding="utf-8")
    else:
        write_poses(poses_path, [make_pose(frame_id=i) for i in range(40)])
        with open(poses_path, "a", encoding="utf-8") as fh:
            fh.write("40 head=1,2\n")
    decisions = tmp_path / "out" / "decisions.csv"
    if command == "classify":
        decisions.parent.mkdir()
        out = ["--out", str(decisions)]
    else:
        out = ["--out-dir", str(decisions.parent)]
    assert main([command, "--poses", str(poses_path), *out]) == expected
    assert not decisions.exists()


def test_failed_classification_keeps_a_non_regular_output(tmp_path):
    # Only a regular file is removed on failure; a pipe (or /dev/null) stays.
    poses_path = tmp_path / "poses.txt"
    poses_path.write_text("# poses\n# no frames\n", encoding="utf-8")
    fifo = tmp_path / "decisions.pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["classify", "--poses", str(poses_path), "--out", str(fifo)]) == 4
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


@pytest.mark.parametrize("case", ["classify-missing-dir", "generate-missing-dir",
                                  "run-out-dir-is-file", "classify-out-is-dir"])
def test_unusable_output_path_is_config_error(corpus, tmp_path, capsys, case):
    poses_path, _ = corpus
    classify = ["classify", "--poses", str(poses_path), "--out"]
    if case == "classify-missing-dir":
        target, argv = tmp_path / "nodir" / "d.csv", classify
    elif case == "generate-missing-dir":
        target = tmp_path / "nodir" / "p.txt"
        argv = ["generate", "--out-labels", str(tmp_path / "l.txt"), "--out-poses"]
    elif case == "run-out-dir-is-file":
        target = tmp_path / "a_file"
        target.write_text("", encoding="utf-8")
        argv = ["run", "--poses", str(poses_path), "--out-dir"]
    else:
        target, argv = tmp_path, classify
    assert main([*argv, str(target)]) == 3
    assert f"config error: cannot write {target}" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("case, expected", [
    ("classify", 3), ("generate-fails-on-close", 3), ("generate-fails-on-write", 3),
    ("classify-bad-line-at-40", 2),
])
def test_output_to_full_device(corpus, tmp_path, capsys, case, expected):
    # /dev/full opens, but every write to it fails: a small output fails when
    # its buffer is flushed on close, a large one on a write. A pose-file
    # error raised while writing keeps its own exit code.
    poses_path, _ = corpus
    if case.startswith("generate"):
        per_class = "1" if case.endswith("close") else "100"
        argv = ["generate", "--out-labels", str(tmp_path / "l.txt"),
                "--frames-per-class", per_class, "--out-poses", "/dev/full"]
    else:
        if case.endswith("40"):
            poses_path = tmp_path / "bad.txt"
            write_poses(poses_path, [make_pose(frame_id=i) for i in range(40)])
            with open(poses_path, "a", encoding="utf-8") as fh:
                fh.write("40 head=1,2\n")
        argv = ["classify", "--poses", str(poses_path), "--out", "/dev/full"]
    assert main(argv) == expected
    err = capsys.readouterr().err
    if expected == 3:
        assert "config error: cannot write /dev/full: " in err
    else:
        assert f"parse error: {poses_path}:42: " in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_first_output_removed_when_the_second_fails(corpus, tmp_path, capsys, command):
    first = tmp_path / "x.txt"
    if command == "generate":
        argv = ["generate", "--out-poses", str(first), "--out-labels", "/dev/full"]
    else:
        poses_path, labels_path = corpus
        decisions = tmp_path / "decisions.csv"
        assert main(["classify", "--poses", str(poses_path), "--out", str(decisions)]) == 0
        argv = ["evaluate", "--decisions", str(decisions), "--labels", str(labels_path),
                "--out-json", str(first), "--out-text", "/dev/full"]
    assert main(argv) == 3
    assert "config error: cannot write /dev/full: " in capsys.readouterr().err
    assert not first.exists()


def test_run_keeps_no_decisions_when_a_report_fails(corpus, tmp_path, capsys):
    poses_path, labels_path = corpus
    out_dir = tmp_path / "o"
    (out_dir / "report.json").mkdir(parents=True)
    argv = ["run", "--poses", str(poses_path), "--labels", str(labels_path),
            "--out-dir", str(out_dir)]
    assert main(argv) == 3
    assert f"cannot write {out_dir / 'report.json'}" in capsys.readouterr().err
    assert sorted(path.name for path in out_dir.iterdir()) == ["report.json"]


def test_score_uses_the_configured_tie_break_order(tmp_path, capsys):
    # Frames alternate head and toes touches, so the trial's majority and
    # longest run both tie; only the tie-break order decides it.
    frames = generate(SynthConfig(seed=1, frames_per_class=1))
    head, toes = (pose for pose, label in frames if label in (H, T))
    poses = [dataclasses.replace(pose, frame_id=i) for i, pose in enumerate([head, toes] * 2)]
    poses_path, script_path = tmp_path / "poses.txt", tmp_path / "script.txt"
    write_poses(poses_path, poses)
    write_script(script_path, SessionScript(trials=(Trial(T, 0, 3),)))  # requires head
    config = tmp_path / "classifier.yaml"
    config.write_text("classifier:\n  tie_break_order: [head, shoulders, knees, toes]\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--poses", str(poses_path), "--script", str(script_path),
                 "--config", str(config), "--out-dir", str(out)]) == 0
    decisions = out / "decisions.csv"
    scored = {}
    for name, extra in (("configured", ["--config", str(config)]), ("default", [])):
        scored[name] = tmp_path / f"{name}.json"
        assert main(["score", "--decisions", str(decisions), "--script", str(script_path),
                     "--out-json", str(scored[name]), *extra]) == 0
    capsys.readouterr()
    assert scored["configured"].read_bytes() == (out / "session.json").read_bytes()
    observed = [json.loads(scored[name].read_text(encoding="utf-8"))["per_trial"][0]
                ["observed_part"] for name in ("configured", "default")]
    assert observed == ["head", "toes"]


def _standing_coords(frames: int) -> np.ndarray:
    """``(frames, 12, 2)`` coordinates of the default standing pose."""
    pose = np.array([DEFAULT_COORDS[joint] for joint in JointId], dtype=np.float64)
    return np.tile(pose, (frames, 1, 1))


def _break_line(poses_path, frame: int, bad: bytes) -> None:
    """Replace frame ``frame`` of an array-written pose file with ``bad``."""
    lines = poses_path.read_bytes().splitlines(keepends=True)
    lines[1 + frame] = bad + b"\n"
    poses_path.write_bytes(b"".join(lines))


# A pose file is read in chunks, but its errors still come in file order:
# a ParseError from a later line never replaces an earlier frame's error,
# whether the two lie in one chunk or in two, or in the calibration window
# that is read ahead of deciding any frame.
@pytest.mark.parametrize("command", ["classify", "run"])
@pytest.mark.parametrize("case, expected", [
    ("degenerate-calibration-then-bad-line-100", 4),
    ("degenerate-calibration-then-bad-line-10", 4),
    ("overflow-at-10-then-bad-line-20", 4),
    ("overflow-at-10-then-bad-line-100", 4),
    ("overflow-at-10-then-bad-line-300", 4),
    ("overflow-at-10-then-bad-byte-200", 4),
    ("bad-line-5000", 2),
])
def test_errors_come_in_file_order(tmp_path, capsys, command, case, expected):
    poses_path = tmp_path / "poses.txt"
    coords = _standing_coords(6000)
    if case.startswith("degenerate"):
        coords[:30, list(JointId).index(JointId.HIP)] = coords[:30, 0]
    elif case.startswith("overflow"):
        coords[10, list(JointId).index(JointId.HEAD)] = (1e308, -300.0)
        coords[10, list(JointId).index(JointId.LEFT_WRIST)] = (-1e308, -40.0)
    write_poses(poses_path, coords)
    frame = int(case.rsplit("-", 1)[1])
    _break_line(poses_path, frame, b"\xff" if "byte" in case else b"%d head=1,2" % frame)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    decisions = out_dir / "decisions.csv"
    out = ["--out", str(decisions)] if command == "classify" else ["--out-dir", str(out_dir)]
    assert main([command, "--poses", str(poses_path), *out]) == expected
    err = capsys.readouterr().err
    if case.startswith("overflow"):
        assert "evaluation error: frame 10: " in err
    elif case.startswith("bad-line"):
        assert f"parse error: {poses_path}:5002: " in err
    assert not decisions.exists()


@pytest.fixture(scope="module")
def decisions_csv(tmp_path_factory):
    """decisions.csv of 8 noiseless frames (ids 0-7), in a directory of its own."""
    root = tmp_path_factory.mktemp("decided")
    poses, decisions = root / "poses.txt", root / "decisions.csv"
    write_poses(poses, (pose for pose, _ in generate(SynthConfig(frames_per_class=2))))
    assert main(["classify", "--poses", str(poses), "--out", str(decisions)]) == 0
    return decisions


@given(data=LABEL_FILE_BYTES)
def test_evaluate_exit_code_for_any_labels_bytes(decisions_csv, data):
    labels = decisions_csv.parent / "labels.txt"
    labels.write_bytes(data)
    code = main(["evaluate", "--decisions", str(decisions_csv), "--labels", str(labels)])
    assert code in {0, 2, 3, 4}


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """A decisions path, and labels and a two-trial script for frames 0-7."""
    root = tmp_path_factory.mktemp("stage")
    labels, script = root / "labels.txt", root / "script.txt"
    write_labels(labels, ((frame_id, LABEL_ORDER[frame_id % 4]) for frame_id in range(8)))
    write_script(script, SessionScript(trials=(Trial(H, 0, 3), Trial(T, 4, 7))))
    return root / "decisions.csv", labels, script


@given(data=DECISIONS_FILE_BYTES)
def test_evaluate_and_score_exit_code_for_any_decisions_bytes(stage_inputs, data):
    decisions, labels, script = stage_inputs
    decisions.write_bytes(data)
    for command, option, path in (("evaluate", "--labels", labels), ("score", "--script", script)):
        assert main([command, "--decisions", str(decisions), option, str(path)]) in {0, 2, 3, 4}


def _exit_and_stderr(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# Config bytes: raw bytes, or "key: value" lines, at the top level or under
# ``classifier:``, with keys that are not strings and values of every type.
_YAML_KEYS = st.sampled_from([
    "rule1_threshold_ratio", "rule2_bias_ratio", "enable_rule1", "enable_rule2",
    "tie_break_order", "normalization", "classifier", "rule3_gain", "1", "-1", "1.5", "null",
    "~", "true", "2001-01-01", "[1, 2]", "{a: 1}", "? [x]", "!!binary aGk=", "&k x", "*k",
])
_YAML_VALUES = st.sampled_from([
    "0.5", "1", "0", "-1", ".nan", ".inf", "-.inf", "1" + "0" * 400, "yes", "no", "true",
    "false", "null", "''", "head", "[toes, knees, shoulders, head]", "[toes, toes]", "[]",
    "{}", "{1: 2}", "fixed_pixels", "2001-13-45", "!!binary aGk=", "&v 1", "*v", "[", "'",
    "!!python/name:os.system", "!!set {a}",
])


@st.composite
def config_lines(draw):
    lines = [f"{key}: {value}"
             for key, value in draw(st.lists(st.tuples(_YAML_KEYS, _YAML_VALUES), max_size=4))]
    if draw(st.booleans()):
        lines = ["classifier:", *("  " + line for line in lines)]
    return "\n".join(lines).encode()


@given(data=st.one_of(st.binary(max_size=60), config_lines()))
def test_classify_exit_code_for_any_config_bytes(decisions_csv, data):
    root = decisions_csv.parent
    (root / "config.yaml").write_bytes(data)
    code, err = _exit_and_stderr(["classify", "--config", str(root / "config.yaml"), "--poses",
                                  str(root / "poses.txt"), "--out", str(root / "d.csv")])
    assert code in {0, 2, 3, 4} and "Traceback" not in err


@given(data=st.one_of(st.binary(max_size=120), st.lists(st.sampled_from([
    b"trial head 0 3", b"trial toes 4 7", b"trial knees 9 2", b"trial toes 0 99999999999999999999",
    b"map head toes", b"map toes head", b"map head head", b"map knees shoulders", b"# c", b"",
    b"trial", b"map", b"tria head 0 1", b"trial \xff 0 1", b"trial head -1 2",
]), max_size=6).map(b"\n".join)))
def test_score_exit_code_for_any_script_bytes(decisions_csv, data):
    script = decisions_csv.parent / "script.txt"
    script.write_bytes(data)
    code, err = _exit_and_stderr(["score", "--decisions", str(decisions_csv),
                                  "--script", str(script)])
    assert code in {0, 2, 3, 4} and "Traceback" not in err


# Pose-file bytes: the canonical lines of ``decisions_csv``'s poses with
# bytes overwritten, and comments, blank lines or bad UTF-8 between them,
# under any line end; or raw bytes.
_POSE_BYTES = st.sampled_from([b"\xff", b"\xc3", b"#", b" ", b"\t", b"\r", b"\n", b"0", b"9",
                               b"-", b".", b"e", b",", b"=", b"x", b""])


@st.composite
def pose_file_bytes(draw, lines: list[bytes]):
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        at, cut = draw(st.integers(0, len(lines[i]))), draw(st.integers(0, 3))
        lines[i] = lines[i][:at] + draw(_POSE_BYTES) + lines[i][at + cut:]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from([b"# c", b"", b"  ", b"\xff", b"#\xff"])))
    newline = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return newline.join(lines) + draw(st.sampled_from([newline, b""]))


@given(data=st.data(), chunk_frames=st.sampled_from([1, 2, 3, 5, htks.formats._CHUNK_FRAMES]))
def test_classify_exit_code_for_any_pose_bytes(decisions_csv, data, chunk_frames):
    root = decisions_csv.parent
    canonical = (root / "poses.txt").read_bytes().splitlines()
    poses = root / "fuzzed_poses.txt"
    poses.write_bytes(data.draw(st.one_of(st.binary(max_size=200), pose_file_bytes(canonical))))
    with mock.patch.object(htks.formats, "_CHUNK_FRAMES", chunk_frames):
        code, err = _exit_and_stderr(["classify", "--poses", str(poses),
                                      "--out", str(root / "d.csv")])
    assert code in {0, 2, 3, 4} and "Traceback" not in err
    if code == 2:
        assert re.match(rf"parse error: {re.escape(str(poses))}:\d+: ", err)


# report.json bytes: raw bytes, a written report with bytes overwritten, or
# a ``counts`` value of any JSON shape and type.
_JSON_VALUES = st.recursive(
    st.one_of(st.integers(-1, 2**64), st.floats(), st.booleans(), st.none(), st.text(max_size=3)),
    lambda children: st.lists(children, max_size=5), max_leaves=24)
_VALID_REPORT = json.dumps({"counts": [[5, 1, 0, 0], [0, 9, 1, 0], [0, 0, 7, 3], [1, 0, 0, 9]]})


@st.composite
def overwritten_report(draw):
    text = _VALID_REPORT.encode()
    at = draw(st.integers(0, len(text) - 1))
    return text[:at] + draw(st.binary(min_size=1, max_size=3)) + text[at + 1:]


@given(data=st.one_of(st.binary(max_size=120), overwritten_report(),
                      _JSON_VALUES.map(lambda counts: json.dumps({"counts": counts}).encode())))
def test_report_exit_code_for_any_report_bytes(decisions_csv, data):
    path = decisions_csv.parent / "report.json"
    path.write_bytes(data)
    code, err = _exit_and_stderr(["report", "--report", str(path)])
    assert code in {0, 2, 3, 4} and "Traceback" not in err
    if code == 2:
        assert err.startswith(f"parse error: {path}:")


def test_run_memory_grows_by_at_most_48_bytes_per_frame(tmp_path):
    """Ground truth and decisions stay arrays through ``run --labels``: the
    tracemalloc peak grows by at most 48 B per frame from 10k to 20k frames.
    A labels dict and one (frame_id, label) tuple per frame took ~140 B."""
    peaks = []
    for frames_per_class in (2_500, 5_000):
        poses, labels = tmp_path / "poses.txt", tmp_path / "labels.txt"
        assert main(["generate", "--out-poses", str(poses), "--out-labels", str(labels),
                     "--seed", "8", "--frames-per-class", str(frames_per_class),
                     "--jitter", "0.05"]) == 0
        tracemalloc.start()
        try:
            code = main(["run", "--poses", str(poses), "--labels", str(labels),
                         "--out-dir", str(tmp_path / "out")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert (peaks[1] - peaks[0]) / 10_000 <= 48


class TestPipelineApi:
    def test_decision_stream_is_lazy(self):
        def endless():
            i = 0
            while True:
                yield make_pose(frame_id=i)
                i += 1

        config = ClassifierConfig()
        rows = classify_sequence(endless(), config)
        taken = list(islice(rows, 50))
        assert [fid for fid, _ in taken] == list(range(50))
        fixed = ClassifierConfig(normalization=Normalization.FIXED_PIXELS)
        assert len(list(islice(classify_sequence(endless(), fixed), 5))) == 5

    def test_sequence_is_decided_in_blocks_of_30(self, monkeypatch):
        # One core call per block of up to 30 poses, not one per pose.
        calls = []

        def counting(frame_ids, *args):
            calls.append(len(frame_ids))
            return decide(frame_ids, *args)

        decide = htks.classifier._decide
        monkeypatch.setattr(htks.classifier, "_decide", counting)
        monkeypatch.setattr(htks.pipeline, "_decide", counting)
        poses = [make_pose(frame_id=i) for i in range(61)]
        assert len(list(classify_sequence(poses, ClassifierConfig()))) == 61
        assert calls == [30, 30, 1]

    @pytest.mark.parametrize("command", ["classify", "run"])
    def test_pose_file_is_opened_once(self, corpus, tmp_path, monkeypatch, command):
        poses_path, labels_path = corpus
        opened = []

        def recording(path, *args, **kwargs):
            opened.append(Path(path))
            return builtins.open(path, *args, **kwargs)

        monkeypatch.setattr(htks.formats, "open", recording, raising=False)
        if command == "classify":
            argv = ["classify", "--poses", str(poses_path), "--out", str(tmp_path / "d.csv")]
        else:
            argv = ["run", "--poses", str(poses_path), "--labels", str(labels_path),
                    "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        assert opened.count(poses_path) == 1

    def test_run_pipeline_validates_paths_before_processing(self, tmp_path):
        from htks import ConfigError

        config = RunConfig(poses_path=tmp_path / "none.txt", out_dir=tmp_path / "out")
        with pytest.raises(ConfigError):
            run_pipeline(config)
        assert not (tmp_path / "out").exists()

    def test_bad_report_format_rejected(self, tmp_path):
        from htks import ConfigError

        with pytest.raises(ConfigError):
            RunConfig(poses_path=tmp_path / "p.txt", out_dir=tmp_path, report_format="xml")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["run", "--help"]) == 0
        capsys.readouterr()

    def test_version_of_usage_error(self, capsys):
        assert main(["frobnicate"]) == 3
        assert "No such command 'frobnicate'" in capsys.readouterr().err


def test_every_public_name_exists():
    import htks

    for info in pkgutil.iter_modules(htks.__path__):
        module = importlib.import_module(f"htks.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], info.name


def test_no_module_imports_a_name_it_never_uses():
    """No linter is installed, so this is the unused-import check: every
    name a module imports at its top level is read somewhere in it."""
    for path in sorted((Path(htks.formats.__file__).parent).glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(imported - read) == [], path.name


def test_no_private_module_name_is_unused():
    """Every ``_private`` name a module of ``src/htks`` defines at its top
    level is read somewhere in the package outside its own definition."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(htks.formats.__file__).parent.glob("*.py")}
    defined, read = set(), set()
    for module, tree in trees.items():
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                bound = {statement.name}
            else:
                bound = {node.id for node in ast.walk(statement)
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            defined.update((module, name) for name in bound
                           if name.startswith("_") and not name.startswith("__"))
            # An import of the name, an attribute or a plain read counts.
            for node in ast.walk(statement):
                if isinstance(node, ast.alias):
                    read.add(node.name)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.Name) and node.id not in bound:
                    read.add(node.id)
    assert sorted(f"{module}:{name}" for module, name in defined if name not in read) == []


def test_benchmark_traced_names_exist():
    """The benchmark tracer skips a name the package no longer has, which
    would silently zero that layer's metrics."""
    spans_path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {
        (module, attr)
        for module, attr, *_ in spans.TRACED_NAMES
        if not hasattr(importlib.import_module(module), attr)
    }
    assert spans.TRACED_NAMES
    # run_pipeline evaluates and scores from the labels it kept while
    # classifying, so it no longer reads decisions.csv back; the decisions
    # re-parse layer is meant to read zero. evaluate_decisions tallies index
    # arrays with evaluation._tally, not build_confusion, so the tracer's
    # evaluation.pairs count reads zero until the tracer wraps the tally.
    # Pose files and pose streams are classified in chunks by
    # pipeline._classify_chunks, which calibrates on the chunks it is given:
    # pipeline neither re-reads the calibration window with iter_poses nor
    # classifies pose by pose, so the read_poses and classify layers read
    # zero until the tracer wraps that generator.
    assert missing == {
        ("htks.pipeline", "iter_decisions"),
        ("htks.pipeline", "build_confusion"),
        ("htks.pipeline", "iter_poses"),
        ("htks.pipeline", "classify"),
    }
