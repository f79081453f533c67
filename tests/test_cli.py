import ast
import builtins
import contextlib
import csv
import ctypes
import dataclasses
import fcntl
import functools
import importlib.util
import io
import json
import os
import pickle
import pkgutil
import re
import resource
import shutil
import signal
import stat
import subprocess
import sys
import threading
import time
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
from htks.formats import load_decisions, load_labels
from htks.pipeline import RunConfig, classify_sequence, run_pipeline
from htks.synth import _BLOCK_FRAMES, generate_frames

from conftest import (
    DEFAULT_COORDS,
    make_pose,
    read_poses,
    save_labels,
    save_pose_array,
    save_poses,
    save_script,
)
from test_formats import DECISIONS_FILE_BYTES, LABEL_FILE_BYTES, label_pairs

H, S, K, T = TouchLabel.HEAD, TouchLabel.SHOULDERS, TouchLabel.KNEES, TouchLabel.TOES


@pytest.fixture
def corpus(tmp_path):
    """Noiseless synthetic corpus written to disk: 40 frames, 10 per class."""
    frames = generate(SynthConfig(seed=4, frames_per_class=10))
    poses_path = tmp_path / "poses.txt"
    labels_path = tmp_path / "labels.txt"
    save_poses(poses_path, (pose for pose, _ in frames))
    save_labels(labels_path, ((p.frame_id, lab) for p, lab in frames))
    return poses_path, labels_path


class TestGenerateCommand:
    def test_writes_parseable_files(self, tmp_path):
        poses_path = tmp_path / "p.txt"
        labels_path = tmp_path / "l.txt"
        code = main(["generate", "--out-poses", str(poses_path),
                     "--out-labels", str(labels_path),
                     "--seed", "5", "--frames-per-class", "3", "--jitter", "0.02"])
        assert code == 0
        assert len(list(read_poses(poses_path))) == 12
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
        save_pose_array(tmp_path / "whole.txt", frames.coords)
        save_labels(tmp_path / "whole_labels.txt", enumerate(frames.labels))
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
    save_poses(poses_path, [pose])
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
        save_labels(other, [(999, H)])
        code = main(["evaluate", "--decisions", str(decisions), "--labels", str(other)])
        assert code == 4

    @pytest.mark.parametrize("command", ["evaluate", "run"])
    @pytest.mark.parametrize("labels", [[], [(999, H)]], ids=["empty", "disjoint"])
    def test_no_labelled_frame_is_empty_input(self, corpus, tmp_path, capsys, command, labels):
        poses_path, _ = corpus
        other = tmp_path / "other_labels.txt"
        save_labels(other, labels)
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
        save_script(script_path, SessionScript(trials=(
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
    save_script(script, SessionScript(trials=(Trial(H, 0, 3),)))
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
        save_script(script_path, SessionScript(trials=(Trial(T, 0, 9), Trial(K, 10, 19))))
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
        save_labels(labels, [(f, lab) for f, lab in label_pairs(labels) if f % 7])
        script = tmp_path / "script.txt"
        save_script(script, SessionScript(trials=(
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
        save_script(script_path, SessionScript(trials=(Trial(T, 0, 9),)))
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
        save_poses(poses_path, [make_pose(frame_id=i) for i in range(40)])
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
            save_poses(poses_path, [make_pose(frame_id=i) for i in range(40)])
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


@pytest.mark.parametrize("case", [
    "classify-poses", "classify-hard-link", "classify-symlink", "run-poses", "run-labels",
    "generate", "generate-other-spelling", "evaluate-labels", "evaluate-both-outputs",
    "score-script", "classify-config", "score-config", "run-config",
])
def test_output_that_is_an_input_or_another_output_is_config_error(corpus, tmp_path, capsys,
                                                                   case):
    # Writing such an output would destroy the file; nothing is opened.
    poses_path, labels_path = corpus
    out_dir = tmp_path / "o"
    out_dir.mkdir()
    decisions, script = tmp_path / "decisions.csv", tmp_path / "script.txt"
    assert main(["classify", "--poses", str(poses_path), "--out", str(decisions)]) == 0
    save_script(script, SessionScript(trials=(Trial(H, 0, 9),)))
    # A run config named like one of run's outputs, inside its --out-dir.
    config = out_dir / "session.json" if case == "run-config" else tmp_path / "c.yaml"
    config.write_text("classifier: {}\n", encoding="utf-8")
    inputs = [poses_path, labels_path, decisions, script, config]
    before = [path.read_bytes() for path in inputs]
    evaluate = ["evaluate", "--decisions", str(decisions), "--labels", str(labels_path)]
    if case == "classify-poses":
        argv = ["classify", "--poses", str(poses_path), "--out", str(poses_path)]
    elif case in ("classify-hard-link", "classify-symlink"):
        other = out_dir / "d.csv"
        (os.link if case == "classify-hard-link" else os.symlink)(poses_path, other)
        argv = ["classify", "--poses", str(poses_path), "--out", str(other)]
    elif case in ("run-poses", "run-labels"):
        index, name = (0, "decisions.csv") if case == "run-poses" else (1, "report.json")
        inputs[index] = inputs[index].rename(out_dir / name)
        argv = ["run", "--poses", str(inputs[0]), "--labels", str(inputs[1]),
                "--out-dir", str(out_dir)]
    elif case == "generate":
        argv = ["generate", "--out-poses", str(out_dir / "x"), "--out-labels", str(out_dir / "x")]
    elif case == "generate-other-spelling":
        argv = ["generate", "--out-poses", str(out_dir / "x"),
                "--out-labels", str(tmp_path / "o" / ".." / "o" / "x")]
    elif case == "evaluate-labels":
        argv = [*evaluate, "--out-text", str(out_dir / "r.txt"), "--out-json", str(labels_path)]
    elif case == "evaluate-both-outputs":
        argv = [*evaluate, "--out-json", str(out_dir / "r"), "--out-text", str(out_dir / "r")]
    elif case == "classify-config":
        argv = ["classify", "--poses", str(poses_path), "--config", str(config),
                "--out", str(config)]
    elif case == "score-config":
        argv = ["score", "--decisions", str(decisions), "--script", str(script),
                "--config", str(config), "--out-json", str(config)]
    elif case == "run-config":
        argv = ["run", "--config", str(config), "--poses", str(poses_path),
                "--script", str(script), "--out-dir", str(out_dir)]
    else:
        argv = ["score", "--decisions", str(decisions), "--script", str(script),
                "--out-json", str(script)]
    kept = sorted(out_dir.iterdir())
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "config error: output " in err and "Traceback" not in err
    assert [path.read_bytes() for path in inputs] == before
    assert sorted(out_dir.iterdir()) == kept


@pytest.mark.parametrize("command, expected", [
    ("classify", 2), ("evaluate", 3), ("score", 2), ("run", 2),
])
def test_failed_command_keeps_earlier_outputs(corpus, tmp_path, capsys, command, expected):
    # Each output is written beside its path and renamed over it only once
    # the whole command has succeeded.
    poses_path, labels_path = corpus
    script, out = tmp_path / "script.txt", tmp_path / "o"
    save_script(script, SessionScript(trials=(Trial(H, 0, 9),)))
    assert main(["run", "--poses", str(poses_path), "--labels", str(labels_path),
                 "--script", str(script), "--out-dir", str(out)]) == 0
    decisions = out / "decisions.csv"
    # Each failing command would write other bytes: 20 of the 40 frames, a
    # report against other labels.
    bad_poses, bad_decisions = tmp_path / "bad.txt", tmp_path / "bad.csv"
    head = poses_path.read_text(encoding="utf-8").splitlines(keepends=True)[:21]
    bad_poses.write_text("".join(head) + "20 head=1,2\n", encoding="utf-8")
    bad_decisions.write_bytes(decisions.read_bytes() + b"41,head\n")
    other_labels = tmp_path / "other.txt"
    save_labels(other_labels, [(frame_id, LABEL_ORDER[LABEL_ORDER.index(label) - 1])
                                for frame_id, label in label_pairs(labels_path)])
    argv = {
        "classify": ["classify", "--poses", str(bad_poses), "--out", str(decisions)],
        # report.json is written, then the directory given as --out-text fails.
        "evaluate": ["evaluate", "--decisions", str(decisions), "--labels", str(other_labels),
                     "--out-json", str(out / "report.json"), "--out-text", str(out)],
        "score": ["score", "--decisions", str(bad_decisions), "--script", str(script),
                  "--out-json", str(out / "session.json")],
        "run": ["run", "--poses", str(bad_poses), "--labels", str(labels_path),
                "--script", str(script), "--out-dir", str(out)],
    }[command]
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(before) == ["decisions.csv", "report.json", "report.txt", "session.json"]
    capsys.readouterr()
    assert main(argv) == expected
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_yaml_is_loaded_only_for_a_yaml_file():
    code = "import sys, htks.cli; sys.exit('yaml' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(htks.formats.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_worker_pool_is_loaded_only_for_a_pool(corpus, tmp_path):
    # A one-chunk pose file is read for calibration and decided at once, and
    # 2,000 generated frames (1.2 MB) are spelled here; each argument is a
    # command. Then, with a worker per byte on two CPUs, ``generate`` starts
    # a pool, which loads ``fcntl`` to enlarge its pipes and neither
    # ``multiprocessing`` nor ``concurrent.futures``.
    poses_path, _ = corpus
    code = ("import os, sys, htks.cli, htks.pipeline\n"
            "loaded = lambda: {'concurrent.futures', 'fcntl', 'multiprocessing'} & set(sys.modules)\n"
            "assert not loaded(), loaded()\n"
            "for argv in map(str.split, sys.argv[1:]):\n"
            "    assert htks.cli.main(argv) == 0\n"
            "    assert not loaded(), loaded()\n"
            "htks.pipeline._WORKER_BYTES = 1\n"
            f"htks.pipeline._CPU_MAX = {str(tmp_path / 'cpu.max')!r}\n"  # no CPU quota
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "assert htks.cli.main(sys.argv[-1].split()) == 0\n"
            "assert loaded() == ({'fcntl'} if sys.version_info < (3, 12) else set()), loaded()\n")
    env = {**os.environ, "PYTHONPATH": str(Path(htks.formats.__file__).parents[1])}
    commands = [f"run --poses {poses_path} --out-dir {tmp_path / 'out'}",
                f"generate --out-poses {tmp_path / 'p.txt'} --out-labels {tmp_path / 'l.txt'} "
                "--frames-per-class 500 --jitter 0.05"]
    result = subprocess.run([sys.executable, "-c", code, *commands], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert len((tmp_path / "l.txt").read_text(encoding="utf-8").splitlines()) == 2_001


def test_outputs_that_are_not_regular_files_may_repeat(corpus, tmp_path, capsys):
    poses_path, labels_path = corpus
    decisions = tmp_path / "decisions.csv"
    assert main(["classify", "--poses", str(poses_path), "--out", str(decisions)]) == 0
    assert main(["evaluate", "--decisions", str(decisions), "--labels", str(labels_path),
                 "--out-json", os.devnull, "--out-text", os.devnull]) == 0
    capsys.readouterr()


def test_run_compares_only_the_outputs_it_writes(corpus, tmp_path):
    # Without labels or a script, run writes decisions.csv alone, so a
    # pose file named report.json or session.json in its directory is safe.
    poses_path, _ = corpus
    out_dir = tmp_path / "o"
    out_dir.mkdir()
    for name in ("report.json", "session.json"):
        moved = out_dir / name
        poses_path.rename(moved)
        assert main(["run", "--poses", str(moved), "--out-dir", str(out_dir)]) == 0
        poses_path = moved


def _denied(path):
    """An ``open`` for ``htks.formats`` that refuses to open ``path``."""
    def opening(name, *args, **kwargs):
        if Path(name) == path:
            raise PermissionError(13, "Permission denied", str(name))
        return builtins.open(name, *args, **kwargs)
    return opening


@pytest.mark.parametrize("case", [
    "classify-poses", "run-poses", "run-labels", "run-script", "evaluate-decisions",
    "evaluate-labels", "score-decisions", "score-script", "report-first", "report-compare",
    "classify-config", "score-config", "run-config",
])
def test_input_that_cannot_be_opened_is_config_error(corpus, tmp_path, capsys, monkeypatch,
                                                     case):
    poses_path, labels_path = corpus
    decisions, script, config = (tmp_path / name for name in ("d.csv", "s.txt", "c.yaml"))
    assert main(["classify", "--poses", str(poses_path), "--out", str(decisions)]) == 0
    save_script(script, SessionScript(trials=(Trial(H, 0, 9),)))
    config.write_text("classifier: {}\n", encoding="utf-8")
    report_path = tmp_path / "r.json"
    assert main(["evaluate", "--decisions", str(decisions), "--labels", str(labels_path),
                 "--out-json", str(report_path)]) == 0
    out_dir = tmp_path / "out"
    command, _, reader = case.partition("-")
    argv = {
        "classify": ["classify", "--poses", str(poses_path), "--config", str(config),
                     "--out", str(out_dir / "d.csv")],
        "run": ["run", "--poses", str(poses_path), "--labels", str(labels_path),
                "--script", str(script), "--config", str(config), "--out-dir", str(out_dir)],
        "evaluate": ["evaluate", "--decisions", str(decisions), "--labels", str(labels_path),
                     "--out-json", str(out_dir / "r.json")],
        "score": ["score", "--decisions", str(decisions), "--script", str(script),
                  "--config", str(config), "--out-json", str(out_dir / "s.json")],
        "report": ["report", "--report", str(report_path), "--compare", str(report_path)],
    }[command]
    if reader == "compare":
        report_path = tmp_path / "r2.json"
        report_path.write_bytes((tmp_path / "r.json").read_bytes())
        argv[-1] = str(report_path)
    unreadable = {"poses": poses_path, "labels": labels_path, "script": script,
                  "decisions": decisions, "config": config, "first": report_path,
                  "compare": report_path}[reader]
    out_dir.mkdir()
    monkeypatch.setattr(htks.formats, "open", _denied(unreadable), raising=False)
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"config error: cannot read {unreadable}: Permission denied\n" in err
    assert "Traceback" not in err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", ["classify", "score", "run"])
def test_config_that_is_a_directory_is_config_error(decisions_csv, tmp_path, capsys, command):
    poses, script = decisions_csv.parent / "poses.txt", tmp_path / "s.txt"
    save_script(script, SessionScript(trials=(Trial(H, 0, 3),)))
    args = {
        "classify": ["--poses", str(poses), "--out", str(tmp_path / "d.csv")],
        "score": ["--decisions", str(decisions_csv), "--script", str(script)],
        "run": ["--poses", str(poses), "--out-dir", str(tmp_path / "out")],
    }[command]
    assert main([command, "--config", str(tmp_path), *args]) == 3
    err = capsys.readouterr().err
    assert f"config error: cannot read {tmp_path}: Is a directory\n" in err
    assert not (tmp_path / "d.csv").exists() and not (tmp_path / "out").exists()


@pytest.mark.skipif(not os.path.isfile("/proc/self/mem"), reason="needs /proc/self/mem")
@pytest.mark.parametrize("command", ["classify", "run"])
def test_pose_file_that_fails_on_read_is_config_error(tmp_path, capsys, command):
    # /proc/self/mem opens, but a read at offset 0 fails with EIO, an
    # error that names no file.
    out = (["--out", str(tmp_path / "d.csv")] if command == "classify"
           else ["--out-dir", str(tmp_path)])
    assert main([command, "--poses", "/proc/self/mem", *out]) == 3
    err = capsys.readouterr().err
    assert "config error: cannot read: Input/output error\n" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("kind", ["fifo", "directory"])
@pytest.mark.parametrize("command", ["classify", "evaluate"])
def test_an_input_that_is_not_a_regular_file_is_config_error(decisions_csv, tmp_path, capsys,
                                                             command, kind):
    # The inputs are checked before any is opened, so a FIFO that nothing
    # writes to blocks nothing.
    special = tmp_path / kind
    os.mkfifo(special) if kind == "fifo" else special.mkdir()
    argv = (["classify", "--poses", str(special), "--out", str(tmp_path / "d.csv")]
            if command == "classify" else
            ["evaluate", "--decisions", str(decisions_csv), "--labels", str(special)])
    assert main(argv) == 3
    description = "pose file" if command == "classify" else "labels file"
    assert capsys.readouterr().err == (
        f"config error: {description} is not a regular file: {special}\n")
    assert [path.name for path in tmp_path.iterdir()] == [kind]


@pytest.mark.parametrize("torso, jitter", [("300", "1e306"), ("1e308", "1.0")])
def test_generate_settings_that_overflow_are_config_error(tmp_path, capsys, torso, jitter):
    argv = ["generate", "--out-poses", str(tmp_path / "p.txt"),
            "--out-labels", str(tmp_path / "l.txt"), "--torso-length", torso, "--jitter", jitter]
    assert main(argv) == 3
    assert "overflows a coordinate" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_score_uses_the_configured_tie_break_order(tmp_path, capsys):
    # Frames alternate head and toes touches, so the trial's majority and
    # longest run both tie; only the tie-break order decides it.
    frames = generate(SynthConfig(seed=1, frames_per_class=1))
    head, toes = (pose for pose, label in frames if label in (H, T))
    poses = [dataclasses.replace(pose, frame_id=i) for i, pose in enumerate([head, toes] * 2)]
    poses_path, script_path = tmp_path / "poses.txt", tmp_path / "script.txt"
    save_poses(poses_path, poses)
    save_script(script_path, SessionScript(trials=(Trial(T, 0, 3),)))  # requires head
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
    save_pose_array(poses_path, coords)
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


# A pose file of five blocks: the first is read for calibration, the other
# four go to worker processes where the pool runs. Line 1 is the header and
# line i + 2 frame i; the third block starts at line 1025.
_POOL_FRAMES = 2_400
_HUGE = b"1" + b"0" * 308 + b".0"  # 1e308 in the layout write_poses uses for short numbers


def _set_token(lines: list[bytes], line_no: int, index: int, token: bytes) -> None:
    tokens = lines[line_no - 1].split(b" ")
    tokens[index] = token
    lines[line_no - 1] = b" ".join(tokens)


def _bad_token(lines):
    _set_token(lines, 1500, 1, b"head=x,1.5")


def _bad_byte(lines):
    lines[2200] += b"\xff"


def _repeated_id_at_chunk_edge(lines):
    _set_token(lines, 1025, 0, lines[1023].split(b" ")[0])


def _exponent_and_confidence(lines):
    _set_token(lines, 1800, 1, b"head=1e-05,-3e+02")
    lines[1800] += b",0.75"


def _crlf(lines):
    lines[:] = [line + b"\r" for line in lines]


def _lone_cr(lines):
    return b"\r".join(lines) + b"\r"


def _no_last_newline(lines):
    return b"\n".join(lines)


def _comment_and_blank_lines(lines):
    lines[1100:1100] = [b"# a note", b"", b"   "]


def _comment_only_range(lines):
    lines[512:512] = [b"# a note"] * 600  # lines 513 to 1112: all of the second block


def _with_confidence(line: bytes) -> bytes:
    """A pose line with the confidence 0.9 after every joint."""
    frame_id, *joints = line.split(b" ")
    return b" ".join([frame_id, *(joint + b",0.9" for joint in joints)])


def _confidence_on_every_joint(lines):
    lines[1:] = map(_with_confidence, lines[1:])


def _integer_coordinates(lines):
    lines[1:] = [re.sub(rb"\.[0-9]+", b"", line) for line in lines[1:]]


def _bad_joint_at_repeated_id_chunk_edge(lines):
    _repeated_id_at_chunk_edge(lines)
    _set_token(lines, 1025, 1, b"head=x,1.5")


def _overflow(lines):
    _set_token(lines, 2001, 1, b"head=" + _HUGE + b",-300.0")
    _set_token(lines, 2001, 1 + list(JointId).index(JointId.LEFT_WRIST),
               b"left_wrist=-" + _HUGE + b",-40.0")


def _pooled_and_in_process(tmp_path, monkeypatch, caplog, capsys, command, edit,
                           worker_bytes=1, frames=_POOL_FRAMES):
    """Run ``command`` on a pose file of ``frames`` frames, edited, with two
    CPUs, then with one, and ``worker_bytes`` of the file to each worker (by
    default any file is large enough for two): for each, its exit code,
    stdout and stderr, output bytes and log. ``edit`` changes the file's
    lines in place or returns the file's bytes."""
    monkeypatch.setattr(htks.pipeline, "_WORKER_BYTES", worker_bytes)
    monkeypatch.setattr(htks.pipeline, "_CPU_MAX", str(tmp_path / "cpu.max"))  # no CPU quota
    coords = generate_frames(SynthConfig(seed=3, jitter_stddev_ratio=0.05,
                                         frames_per_class=frames // 4)).coords
    poses_path, labels_path = tmp_path / "poses.txt", tmp_path / "labels.txt"
    save_pose_array(poses_path, coords)
    save_labels(labels_path, ((i, LABEL_ORDER[i % 4]) for i in range(frames)))
    lines = poses_path.read_bytes().split(b"\n")[:-1]
    data = None if edit is None else edit(lines)
    poses_path.write_bytes(data or b"\n".join(lines) + b"\n")
    out_dir = tmp_path / "out"
    if command == "classify":
        argv = ["classify", "--poses", str(poses_path), "--out", str(out_dir / "decisions.csv")]
    else:
        argv = ["run", "--poses", str(poses_path), "--labels", str(labels_path),
                "--out-dir", str(out_dir)]
    runs = []
    for cpus in ({0, 1}, {0}):
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        caplog.clear()
        # The CPUs this process may run on decide the number of workers.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        with caplog.at_level("INFO", logger="htks"):
            code = main(argv)
        outputs = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
        runs.append((code, capsys.readouterr(), outputs, caplog.messages))
    return runs


def _assert_pool_said(pooled, in_process, decided):
    """The pooled run logs the one-CPU log and, where its pool ran, how many
    of the five chunks its workers decided."""
    said = [message for message in pooled[3] if message.startswith("decided ")]
    if sys.version_info >= (3, 12):
        decided = None  # where fork warns of threads, no pool starts
    assert said == ([] if decided is None else
                    [f"decided {decided} of 5 chunks in 2 worker processes"])
    assert [message for message in pooled[3] if message not in said] == in_process[3]


@pytest.mark.parametrize("command", ["classify", "run"])
@pytest.mark.parametrize("edit, expected, decided", [
    (None, 0, 4),
    (_bad_token, 2, None),
    (_bad_byte, 2, None),
    (_repeated_id_at_chunk_edge, 2, None),
    (_exponent_and_confidence, 0, 4),
    (_crlf, 0, 4),
    (_lone_cr, 0, 4),
    (_no_last_newline, 0, 4),
    (_comment_and_blank_lines, 0, 4),
    (_comment_only_range, 0, 4),
    (_confidence_on_every_joint, 0, 4),
    (_integer_coordinates, 0, 4),
    (_bad_joint_at_repeated_id_chunk_edge, 2, None),
    (_overflow, 4, None),
], ids=lambda value: getattr(value, "__name__", str(value)))
def test_worker_processes_change_nothing_but_the_log(tmp_path, monkeypatch, caplog, capsys,
                                                      command, edit, expected, decided):
    pooled, in_process = _pooled_and_in_process(tmp_path, monkeypatch, caplog, capsys,
                                                command, edit)
    assert pooled[0] == expected
    assert pooled[:3] == in_process[:3]
    # A chunk is read here again only where its first frame line depends on
    # the frames before it; a chunk of comments alone is no chunk.
    _assert_pool_said(pooled, in_process, decided)


def test_a_non_utf8_byte_a_worker_would_read_is_reported_at_its_line(tmp_path, monkeypatch,
                                                                     caplog, capsys):
    def bad_byte_on_line_3001(lines):
        lines[3000] += b"\xff"

    pooled, in_process = _pooled_and_in_process(tmp_path, monkeypatch, caplog, capsys, "run",
                                                bad_byte_on_line_3001, frames=4_000)
    assert pooled[:3] == in_process[:3]
    assert pooled[0] == 2
    assert pooled[1].err == f"parse error: {tmp_path / 'poses.txt'}:3001: not valid UTF-8\n"


def test_lone_cr_lines_are_read_a_range_at_a_time(tmp_path):
    # A reader that split only at \n would hold a lone-CR file as one line.
    peaks = []
    for newline in (b"\n", b"\r"):
        poses = tmp_path / "poses.txt"
        save_pose_array(poses, generate_frames(SynthConfig(seed=3, jitter_stddev_ratio=0.05,
                                                           frames_per_class=4_000)).coords)
        poses.write_bytes(poses.read_bytes().replace(b"\n", newline))
        tracemalloc.start()
        try:
            code = main(["classify", "--poses", str(poses), "--out", str(tmp_path / "d.csv")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert poses.stat().st_size > 9_000_000
    assert peaks[1] - peaks[0] < 1_000_000


def test_a_range_job_needs_nothing_forked(tmp_path):
    # A fresh interpreter runs the worker loop on its standard streams: the
    # call, its arguments and the jobs come down the job pipe, so it decides
    # each range as this process does, hands back a ParseError whole and
    # writes worker 0's notice byte for each. The ranges after the first:
    # as ``write_poses`` writes them, a confidence on every joint, and one
    # with a malformed line 1540.
    path = tmp_path / "poses.txt"
    save_pose_array(path, generate_frames(SynthConfig(seed=3, jitter_stddev_ratio=0.05,
                                                      frames_per_class=400)).coords)
    lines = path.read_bytes().split(b"\n")[:-1]
    lines[1024:1536] = map(_with_confidence, lines[1024:1536])
    _set_token(lines, 1540, 1, b"head=x,1.5")
    path.write_bytes(b"\n".join(lines) + b"\n")
    with htks.formats._pose_file(path) as (ranges, _):
        jobs = list(ranges)[1:]
    args = (str(path), htks.ClassifierConfig(), 300.0)
    env = {**os.environ, "PYTHONPATH": str(Path(htks.formats.__file__).parents[1])}
    worker = subprocess.run(
        [sys.executable, "-c", "import htks.pipeline; htks.pipeline._work(0, 0, 1, 2)"],
        input=b"".join(map(pickle.dumps, [(htks.pipeline._decided_range, args), *jobs])),
        env=env, capture_output=True, timeout=300)
    assert worker.stderr == b"\0" * 3
    spawned, results = io.BytesIO(worker.stdout), []
    for job in jobs:
        here, there = htks.pipeline._decided_range(job, *args), pickle.load(spawned)
        ids, (labels, text), strict, error = here
        assert ids.tolist() == there[0].tolist()
        assert labels.tolist() == there[1][0].tolist()
        assert (text, strict) == (there[1][1], there[2])
        assert type(error) is type(there[3])
        if error is not None:
            assert (str(error), error.path, error.line_no) == (
                str(there[3]), there[3].path, there[3].line_no)
        results.append((len(ids), strict, error and error.line_no))
    assert results == [(512, 0, None), (512, 512, None), (3, 1, 1540)]
    assert "bad coordinates for head" in str(error)


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt")
@pytest.mark.parametrize("command", ["run", "generate"])
def test_workers_keep_their_heap_between_jobs(tmp_path, command):
    # Without fixed thresholds glibc may hand a worker's free heap back to
    # the kernel after each job, and the next job faults it in again: about
    # 450 minor faults a chunk for ``generate`` in a fresh process. Forking
    # costs about 1,500 a worker.
    poses, labels = tmp_path / "poses.txt", tmp_path / "labels.txt"
    generate = ["generate", "--out-poses", str(poses), "--out-labels", str(labels),
                "--seed", "3", "--frames-per-class", "12000", "--jitter", "0.05"]
    assert main(generate) == 0
    run = ["run", "--poses", str(poses), "--labels", str(labels), "--out-dir", str(tmp_path)]
    code = ("import os, resource, sys, htks.pipeline\n"
            "from htks.cli import main\n"
            "htks.pipeline._WORKER_BYTES = 1\n"
            f"htks.pipeline._CPU_MAX = {str(tmp_path / 'cpu.max')!r}\n"  # no CPU quota
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(htks.formats.__file__).parents[1])}
    # The workers are shut down when the command returns, so all are counted.
    result = subprocess.run([sys.executable, "-c", code, *(run if command == "run" else generate)],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    if sys.version_info < (3, 12):  # from 3.12 on no pool starts
        if command == "run":
            assert "decided 93 of 94 chunks in 2 worker processes" in result.stderr
        assert int(result.stdout.split()[-1]) <= 100 * 94


def test_no_pool_starts_for_a_short_file(tmp_path, monkeypatch, caplog, capsys):
    # 2,400 frames take less time to decide than forking two workers costs.
    pooled, in_process = _pooled_and_in_process(tmp_path, monkeypatch, caplog, capsys,
                                                "run", None, htks.pipeline._WORKER_BYTES)
    assert pooled == in_process


@pytest.mark.parametrize("cpus, size, workers", [
    ({0, 1}, 1_000, 0), ({0, 1}, 2_999_999, 1), ({0, 1}, 3_000_000, 2), ({0, 1}, 10**9, 2),
    ({0, 1, 2, 3}, 4_500_000, 3), ({0}, 10**9, 1), (set(range(300)), 10**12, 256),
])
def test_workers_come_from_the_cpus_and_the_file_size(tmp_path, monkeypatch, cpus, size,
                                                      workers):
    # One worker per CPU and per 1.5 MB of pose file: a pool only pays for
    # its forks with enough of the file for each worker. A worker's notice
    # byte holds its index, so there are at most 256.
    assert htks.pipeline._WORKER_BYTES == 1_500_000
    monkeypatch.setattr(htks.pipeline, "_CPU_MAX", str(tmp_path / "cpu.max"))  # no CPU quota
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert htks.pipeline._workers(size) == (workers if sys.version_info < (3, 12) else 1)
    # From Python 3.12 on fork warns in a threaded process: no workers.
    monkeypatch.setattr(sys, "version_info", (3, 12, 0))
    assert htks.pipeline._workers(size) == 1


@pytest.mark.parametrize("cpu_max, workers", [
    ("max 100000\n", 4), ("400000 100000\n", 4), ("150000 100000\n", 2),
    ("100000 100000\n", 1), ("50000 100000\n", 1), ("1000 1000\n", 1), ("max\n", 4),
])
def test_workers_are_capped_by_the_cgroup_cpu_quota(tmp_path, monkeypatch, cpu_max, workers):
    # cgroup v2's cpu.max holds "<quota> <period>" in microseconds, or "max
    # <period>" for none; a quota of 1.5 periods runs at most two workers.
    path = tmp_path / "cpu.max"
    path.write_text(cpu_max, encoding="ascii")
    monkeypatch.setattr(htks.pipeline, "_CPU_MAX", str(path))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert htks.pipeline._workers(10**9) == (workers if sys.version_info < (3, 12) else 1)


def _dying_job(block, path, config, scale):
    os._exit(1)


def test_blocks_of_a_dead_worker_are_decided_here(tmp_path, monkeypatch, caplog, capsys):
    monkeypatch.setattr(htks.pipeline, "_decided_range", _dying_job)
    pooled, in_process = _pooled_and_in_process(tmp_path, monkeypatch, caplog, capsys,
                                                "run", None)
    assert pooled[0] == 0
    assert pooled[:3] == in_process[:3]
    _assert_pool_said(pooled, in_process, 0)


_DECIDED_RANGE = htks.pipeline._decided_range


def _dying_at_line_1537(block, path, config, scale):
    """``_decided_range``, but a worker given the range of line 1537 dies."""
    if block[0] == 1537:
        os._exit(1)
    return _DECIDED_RANGE(block, path, config, scale)


def test_ranges_after_a_worker_killed_mid_run_are_decided_here(tmp_path, monkeypatch, caplog,
                                                                capsys):
    # The ranges a worker finished are taken; the killed worker's range and
    # every later one no worker finished are decided here.
    monkeypatch.setattr(htks.pipeline, "_decided_range", _dying_at_line_1537)
    pooled, in_process = _pooled_and_in_process(tmp_path, monkeypatch, caplog, capsys,
                                                "run", None)
    assert pooled[0] == 0
    assert pooled[:3] == in_process[:3]
    said = [message for message in pooled[3] if message.startswith("decided ")]
    assert [message for message in pooled[3] if message not in said] == in_process[3]
    if sys.version_info < (3, 12):
        assert len(said) == 1
        assert re.fullmatch("decided [0-3] of 5 chunks in 2 worker processes", said[0])


_PYTEST_PID = os.getpid()
_SPELLED_HERE = []  # first frame ids of the pose chunks this process spelled


def _spelled_here(chunk):
    """``_poses_text``, noting the chunk in this process's ``_SPELLED_HERE``."""
    _SPELLED_HERE.append(chunk[0])
    return htks.formats._poses_text(chunk)


def _dying_at_3512(chunk):
    """``_spelled_here``, but a worker given the chunk of frame 3512 dies."""
    if chunk[0] == 3512 and os.getpid() != _PYTEST_PID:
        os._exit(1)
    return _spelled_here(chunk)


def _generated_pooled_and_on_one_cpu(tmp_path, monkeypatch, capsys, args,
                                     speller=_spelled_here):
    """Run ``generate`` with ``args`` on two CPUs, any file large enough for
    two workers, then on one: for each, its exit code, stdout and stderr,
    the files in its output directory, and the chunks the parent spelled."""
    monkeypatch.setattr(htks.pipeline, "_WORKER_BYTES", 1)
    monkeypatch.setattr(htks.pipeline, "_CPU_MAX", str(tmp_path / "cpu.max"))  # no CPU quota
    monkeypatch.setattr(htks.pipeline, "_poses_text", speller)
    out = tmp_path / "out"
    runs = []
    for cpus in ({0, 1}, {0}):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        _SPELLED_HERE.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        code = main(["generate", "--out-poses", str(out / "poses.txt"),
                     "--out-labels", str(out / "labels.txt"), *args])
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        runs.append((code, capsys.readouterr(), files, list(_SPELLED_HERE)))
    return runs


@pytest.mark.parametrize("args", [
    [],
    ["--frames-per-class", "1500", "--jitter", "0.05", "--confusable"],
    ["--frames-per-class", "1500", "--jitter", "0"],
    # Coordinates of 1e16 and more are spelled by ``repr``.
    ["--frames-per-class", "1500", "--jitter", "0.05", "--torso-length", "1e16"],
    # Two generator blocks per class, neither of whole chunks.
    ["--frames-per-class", "4500", "--jitter", "0.05", "--seed", "3"],
], ids=["default", "confusable", "no-jitter", "repr", "two-blocks"])
def test_pooled_generate_writes_the_bytes_of_one_cpu(tmp_path, monkeypatch, capsys, args):
    pooled, one_cpu = _generated_pooled_and_on_one_cpu(tmp_path, monkeypatch, capsys, args)
    assert pooled[0] == 0
    assert pooled[:3] == one_cpu[:3]
    # The parent spells the first chunk and the workers all others.
    assert pooled[3] == (one_cpu[3][:1] if sys.version_info < (3, 12) else one_cpu[3])


def _assert_spelled_here_from_3512(pooled, one_cpu):
    """The pooled run wrote the bytes of the one-CPU run, and a worker lost
    on the chunk of frame 3512 left that chunk to the parent. No later chunk
    went to the pool, so all after those already in flight, at most two per
    worker and one more, were spelled in the parent too."""
    assert pooled[0] == 0
    assert pooled[:3] == one_cpu[:3]
    chunks, here = one_cpu[3], set(pooled[3])
    assert 3512 in here
    assert set(chunks[chunks.index(3512) + 2 * 2 + 1:]) <= here
    if sys.version_info < (3, 12):  # from 3.12 on no pool starts
        assert here < set(chunks)


def test_chunks_of_a_dead_generate_worker_are_spelled_here(tmp_path, monkeypatch, capsys):
    pooled, one_cpu = _generated_pooled_and_on_one_cpu(
        tmp_path, monkeypatch, capsys, ["--frames-per-class", "3000", "--jitter", "0.05"],
        _dying_at_3512)
    _assert_spelled_here_from_3512(pooled, one_cpu)


class _DiesWhenPickled:
    """Ends the worker that pickles it. With ``cut``, it first writes half
    a pickle's first frame to the worker's result pipe, as a worker killed
    while blocked writing a result larger than the pipe leaves it."""

    def __init__(self, cut: bool):
        self.cut = cut

    def __reduce__(self):
        if self.cut:
            writer = sys._getframe(1).f_locals["writer"]  # ``_work``'s result pipe
            writer.write(pickle.dumps(list(range(20_000)))[:50_000])
            writer.flush()
        os._exit(1)


def _dying_while_writing_3512(cut: bool, chunk):
    """``_spelled_here``, but a worker given the chunk of frame 3512 dies
    once the chunk's text, about 290 KB, is down its result pipe."""
    text = _spelled_here(chunk)
    if chunk[0] == 3512 and os.getpid() != _PYTEST_PID:
        return text, _DiesWhenPickled(cut)
    return text


@pytest.mark.parametrize("cut", [False, True], ids=["after-a-whole-item", "inside-a-frame"])
def test_chunk_of_a_worker_dead_while_writing_is_spelled_here(tmp_path, monkeypatch, capsys,
                                                              cut):
    # The parent reads a result that ends early: end of file where the next
    # item should start, or a truncated pickle.
    pooled, one_cpu = _generated_pooled_and_on_one_cpu(
        tmp_path, monkeypatch, capsys, ["--frames-per-class", "3000", "--jitter", "0.05"],
        functools.partial(_dying_while_writing_3512, cut))
    _assert_spelled_here_from_3512(pooled, one_cpu)


_HUNG = None  # the file a worker given the chunk of frame 3512 writes its pid to


def _hung_at_3512(chunk):
    """``_spelled_here``, but a worker given the chunk of frame 3512 names
    itself in ``_HUNG`` and waits."""
    if chunk[0] == 3512 and os.getpid() != _PYTEST_PID:
        _HUNG.with_suffix(".tmp").write_text(str(os.getpid()), encoding="ascii")
        _HUNG.with_suffix(".tmp").rename(_HUNG)
        time.sleep(300)
    return _spelled_here(chunk)


def test_chunks_of_a_generate_worker_killed_mid_run_are_spelled_here(tmp_path, monkeypatch,
                                                                      capsys):
    # A worker killed from outside, as by the OOM killer, while it spells a
    # chunk: the parent reads end of file from its result pipe.
    monkeypatch.setitem(globals(), "_HUNG", tmp_path / "hung")
    finished = threading.Event()

    def kill_the_hung_worker():
        while not finished.wait(0.01):
            with contextlib.suppress(FileNotFoundError):
                os.kill(int(_HUNG.read_text(encoding="ascii")), signal.SIGKILL)
                return

    killer = threading.Thread(target=kill_the_hung_worker)
    killer.start()
    try:
        pooled, one_cpu = _generated_pooled_and_on_one_cpu(
            tmp_path, monkeypatch, capsys, ["--frames-per-class", "3000", "--jitter", "0.05"],
            _hung_at_3512)
    finally:
        finished.set()
        killer.join(timeout=60)
    assert not killer.is_alive()
    _assert_spelled_here_from_3512(pooled, one_cpu)


def test_generate_without_large_pipes_spells_every_chunk_here(tmp_path, monkeypatch, capsys):
    # The pool enlarges its job pipes so that the parent never blocks
    # writing a job; where the kernel refuses, no worker is forked.
    fcntl_call = fcntl.fcntl

    def refused(fd, command, *args):
        if command == fcntl.F_SETPIPE_SZ:
            raise PermissionError(1, "Operation not permitted")
        return fcntl_call(fd, command, *args)

    monkeypatch.setattr(fcntl, "fcntl", refused)
    monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    pooled, one_cpu = _generated_pooled_and_on_one_cpu(
        tmp_path, monkeypatch, capsys, ["--frames-per-class", "700", "--jitter", "0.05"])
    assert pooled[0] == 0
    assert pooled == one_cpu


def test_generate_overflow_under_a_pool_leaves_no_file_and_no_process(tmp_path, monkeypatch,
                                                                        capsys):
    # With seed 0, the toes block overflows after three blocks went to the pool.
    args = ["--seed", "0", "--frames-per-class", "600", "--torso-length", "1.5e308",
            "--jitter", "0.05"]
    pooled, one_cpu = _generated_pooled_and_on_one_cpu(tmp_path, monkeypatch, capsys, args)
    assert pooled[0] == 3
    assert "overflows a coordinate" in pooled[1].err
    assert pooled[:3] == one_cpu[:3]
    assert pooled[2] == {}
    assert pooled[3] == ([0] if sys.version_info < (3, 12) else one_cpu[3])


@pytest.fixture(scope="module")
def decisions_csv(tmp_path_factory):
    """decisions.csv of 8 noiseless frames (ids 0-7), in a directory of its own."""
    root = tmp_path_factory.mktemp("decided")
    poses, decisions = root / "poses.txt", root / "decisions.csv"
    save_poses(poses, (pose for pose, _ in generate(SynthConfig(frames_per_class=2))))
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
    save_labels(labels, ((frame_id, LABEL_ORDER[frame_id % 4]) for frame_id in range(8)))
    save_script(script, SessionScript(trials=(Trial(H, 0, 3), Trial(T, 4, 7))))
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


def test_no_module_name_is_unused():
    """Every function, class and constant a module of ``src/htks`` defines
    at its top level is read somewhere in the package outside its own
    definition, so no code there serves only the tests. Exempt are the
    names of ``htks.__all__``, dunders, the ``[project.scripts]`` entry
    point and the click commands it reaches through their group."""
    root = Path(htks.formats.__file__).parent
    pyproject = (root.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.partition("[project.scripts]\n")[2].partition("\n[")[0]
    exempt = {*htks.__all__, *re.findall(r':(\w+)"', scripts)}  # htks = "htks.cli:main"
    defined, read = set(), set()
    for path in root.glob("*.py"):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                bound = {statement.name}
                if any(isinstance(decorator, ast.Call) and getattr(decorator.func, "attr", None)
                       == "command" for decorator in statement.decorator_list):
                    exempt.add(statement.name)
            else:  # the names it stores, less the variables of its comprehensions
                loops = {id(node) for loop in ast.walk(statement)
                         if isinstance(loop, ast.comprehension) for node in ast.walk(loop.target)}
                bound = {node.id for node in ast.walk(statement) if isinstance(node, ast.Name)
                         and isinstance(node.ctx, ast.Store) and id(node) not in loops}
            defined.update((path.name, name) for name in bound
                           if not (name.startswith("__") and name.endswith("__")))
            # An import of the name, an attribute or a plain read counts.
            for node in ast.walk(statement):
                if isinstance(node, ast.alias):
                    read.add(node.name)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.Name) and node.id not in bound:
                    read.add(node.id)
    assert sorted(f"{module}:{name}" for module, name in defined
                  if name not in read | exempt) == []


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
