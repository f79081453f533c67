import importlib.util
import json
import os
import pkgutil
import stat
from itertools import islice
from pathlib import Path

import pytest

from htks import (
    ClassifierConfig,
    LabeledFrame,
    Normalization,
    SessionScript,
    SynthConfig,
    TouchLabel,
    Trial,
    generate,
)
from htks.cli import main
from htks.formats import (
    load_decisions,
    load_labels,
    load_poses,
    write_labels,
    write_poses,
    write_script,
)
from htks.pipeline import RunConfig, classify_sequence, run_pipeline

from conftest import make_pose

H, S, K, T = TouchLabel.HEAD, TouchLabel.SHOULDERS, TouchLabel.KNEES, TouchLabel.TOES


@pytest.fixture
def corpus(tmp_path):
    """Noiseless synthetic corpus written to disk: 40 frames, 10 per class."""
    frames = generate(SynthConfig(seed=4, frames_per_class=10))
    poses_path = tmp_path / "poses.txt"
    labels_path = tmp_path / "labels.txt"
    write_poses(poses_path, (pose for pose, _ in frames))
    write_labels(labels_path, (LabeledFrame(p.frame_id, lab) for p, lab in frames))
    return poses_path, labels_path


class TestGenerateCommand:
    def test_writes_parseable_files(self, tmp_path):
        poses_path = tmp_path / "p.txt"
        labels_path = tmp_path / "l.txt"
        code = main(["generate", "--out-poses", str(poses_path),
                     "--out-labels", str(labels_path),
                     "--seed", "5", "--frames-per-class", "3", "--jitter", "0.02"])
        assert code == 0
        assert len(load_poses(poses_path)) == 12
        assert len(load_labels(labels_path)) == 12

    def test_confusable_flag(self, tmp_path):
        code = main(["generate", "--out-poses", str(tmp_path / "p.txt"),
                     "--out-labels", str(tmp_path / "l.txt"),
                     "--frames-per-class", "2", "--confusable"])
        assert code == 0
        labels = load_labels(tmp_path / "l.txt")
        assert all(item.truth is T for item in labels)

    def test_bad_seed_is_config_error(self, tmp_path):
        code = main(["generate", "--out-poses", str(tmp_path / "p.txt"),
                     "--out-labels", str(tmp_path / "l.txt"), "--seed", "-3"])
        assert code == 3


class TestClassifyCommand:
    def test_minimal_invocation(self, corpus, tmp_path):
        poses_path, _ = corpus
        out = tmp_path / "decisions.csv"
        code = main(["classify", "--poses", str(poses_path), "--out", str(out)])
        assert code == 0
        rows = load_decisions(out)
        assert len(rows) == 40
        assert [fid for fid, _ in rows] == list(range(40))

    def test_rule_overrides(self, corpus, tmp_path):
        poses_path, _ = corpus
        out = tmp_path / "decisions.csv"
        assert main(["classify", "--poses", str(poses_path), "--out", str(out),
                     "--no-rule1", "--no-rule2"]) == 0
        assert not any(d.rule1_fired or d.rule2_applied for _, d in load_decisions(out))

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
        write_labels(other, [LabeledFrame(999, H)])
        code = main(["evaluate", "--decisions", str(decisions), "--labels", str(other)])
        assert code == 4


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
        rows = load_decisions(out_dir / "decisions.csv")
        session = json.loads((out_dir / "session.json").read_text(encoding="utf-8"))
        by_frame = dict(rows)
        recount = 0
        for trial, required in ((Trial(T, 0, 9), H), (Trial(K, 10, 19), S)):
            window = [by_frame[f].label for f in range(trial.start_frame, trial.end_frame + 1)
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

    def test_stage_replay_matches_run(self, tmp_path):
        poses = tmp_path / "poses.txt"
        labels = tmp_path / "labels.txt"
        assert main(["generate", "--out-poses", str(poses), "--out-labels", str(labels),
                     "--seed", "3", "--frames-per-class", "60", "--jitter", "0.2"]) == 0
        # Unlabelled frames are skipped by both paths.
        write_labels(labels, [item for item in load_labels(labels) if item.frame_id % 7])
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
        capsys.readouterr()


def test_every_public_name_exists():
    import htks

    for info in pkgutil.iter_modules(htks.__path__):
        module = importlib.import_module(f"htks.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], info.name


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
    # re-parse layer is meant to read zero.
    assert missing == {("htks.pipeline", "iter_decisions")}
