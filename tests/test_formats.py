import numpy as np
import pytest

from htks import (
    BodyPose,
    ClassifierConfig,
    ConfigError,
    ConfusionMatrix,
    DistanceProfile,
    FrameDecision,
    JointId,
    LabeledFrame,
    Normalization,
    ParseError,
    SessionScript,
    SynthConfig,
    TouchLabel,
    Trial,
    generate,
    report,
)
from htks.formats import (
    DECISIONS_HEADER,
    classifier_config_from_dict,
    classifier_config_to_dict,
    iter_poses,
    load_classifier_config,
    load_decisions,
    load_labels,
    load_poses,
    load_report_json,
    load_script,
    write_classifier_config,
    write_decisions,
    write_labels,
    write_poses,
    write_report_json,
    write_script,
)
from htks.synth import generate_frames

H, S, K, T = TouchLabel.HEAD, TouchLabel.SHOULDERS, TouchLabel.KNEES, TouchLabel.TOES

POSE_LINE = (
    "{fid} head=320.5,80.25 left_shoulder=280.0,140.0 right_shoulder=360.0,140.0 "
    "left_elbow=260.0,200.0 right_elbow=380.0,200.0 left_wrist=250.0,260.0 "
    "right_wrist=390.0,260.0 hip=320.0,300.0 left_knee=300.0,420.0 "
    "right_knee=340.0,420.0 left_ankle=295.0,540.0 right_ankle=345.0,540.0"
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestPoseFile:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_lines(path, ["# comment", "", POSE_LINE.format(fid=0),
                           POSE_LINE.format(fid=1), POSE_LINE.format(fid=2)])
        poses = load_poses(path)
        assert [p.frame_id for p in poses] == [0, 1, 2]
        assert poses[0].joints[list(poses[0].joints)[0]].x == 320.5

    def test_round_trip_synthetic_corpus(self, tmp_path):
        frames = generate(SynthConfig(seed=21, jitter_stddev_ratio=0.04, frames_per_class=100))
        path = tmp_path / "poses.txt"
        write_poses(path, (pose for pose, _ in frames))
        loaded = load_poses(path)
        assert loaded == [pose for pose, _ in frames]

    def test_confidence_round_trip(self, tmp_path):
        from conftest import make_pose
        from htks import JointId

        pose = make_pose(confidence={JointId.HEAD: 0.25, JointId.HIP: 1.0})
        path = tmp_path / "poses.txt"
        write_poses(path, [pose])
        assert load_poses(path) == [pose]

    # 4,400 frames span two of the array writer's row chunks.
    @pytest.mark.parametrize("jitter, confusable", [
        (0.0, False), (0.05, False), (0.05, True),
    ], ids=["noiseless", "jittered", "confusable"])
    def test_pose_objects_and_array_write_same_bytes(self, tmp_path, jitter, confusable):
        config = SynthConfig(seed=3, jitter_stddev_ratio=jitter, frames_per_class=1100)
        frames = generate_frames(config, confusable=confusable)
        write_poses(tmp_path / "objects.txt", (pose for pose, _ in frames.pairs()))
        write_poses(tmp_path / "array.txt", frames.coords)
        assert (tmp_path / "objects.txt").read_bytes() == (tmp_path / "array.txt").read_bytes()

    def test_confidence_line_extends_the_array_line(self, tmp_path):
        frames = generate_frames(SynthConfig(seed=3, jitter_stddev_ratio=0.05, frames_per_class=1))
        pose, _ = frames.pairs()[0]
        pose = BodyPose(pose.frame_id, pose.joints,
                        confidence={JointId.HEAD: 0.25, JointId.RIGHT_ANKLE: 1.0})
        write_poses(tmp_path / "objects.txt", [pose])
        write_poses(tmp_path / "array.txt", frames.coords[:1])
        assert load_poses(tmp_path / "objects.txt") == [pose]
        with_confidence = (tmp_path / "objects.txt").read_text(encoding="utf-8")
        without = with_confidence.replace(",0.25 ", " ").replace(",1.0\n", "\n")
        assert without == (tmp_path / "array.txt").read_text(encoding="utf-8")

    def test_joint_order_within_line_is_free(self, tmp_path):
        path = tmp_path / "poses.txt"
        tokens = POSE_LINE.format(fid=0).split()
        reordered = [tokens[0]] + list(reversed(tokens[1:]))
        write_lines(path, [" ".join(reordered)])
        assert load_poses(path)[0] == load_poses_from_line(tmp_path, POSE_LINE.format(fid=0))

    def test_missing_joint_named_with_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        line = POSE_LINE.format(fid=0).replace(
            " left_knee=300.0,420.0", "")
        write_lines(path, ["# header", line])
        with pytest.raises(ParseError) as exc_info:
            load_poses(path)
        message = str(exc_info.value)
        assert "left_knee" in message and ":2:" in message

    def test_unknown_joint_rejected(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_lines(path, [POSE_LINE.format(fid=0) + " nose=1.0,2.0"])
        with pytest.raises(ParseError, match="nose"):
            load_poses(path)

    def test_duplicate_joint_rejected(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_lines(path, [POSE_LINE.format(fid=0) + " head=1.0,2.0"])
        with pytest.raises(ParseError, match="duplicate"):
            load_poses(path)

    def test_non_finite_coordinate_rejected(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_lines(path, [POSE_LINE.format(fid=0).replace("320.5", "nan")])
        with pytest.raises(ParseError, match="head"):
            load_poses(path)

    def test_decreasing_frame_ids_rejected(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_lines(path, [POSE_LINE.format(fid=5), POSE_LINE.format(fid=5)])
        with pytest.raises(ParseError, match="strictly increasing"):
            load_poses(path)

    def test_bad_confidence_rejected(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_lines(path, [POSE_LINE.format(fid=0).replace("hip=320.0,300.0",
                                                           "hip=320.0,300.0,1.5")])
        with pytest.raises(ParseError, match="confidence"):
            load_poses(path)

    def test_streaming_is_lazy(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_lines(path, [POSE_LINE.format(fid=i) for i in range(10)])
        stream = iter_poses(path)
        first = next(stream)
        assert first.frame_id == 0


def load_poses_from_line(tmp_path, line):
    path = tmp_path / "one.txt"
    write_lines(path, [line])
    return load_poses(path)[0]


class TestLabelsFile:
    def test_round_trip(self, tmp_path):
        labels = [LabeledFrame(0, H), LabeledFrame(3, T), LabeledFrame(7, K)]
        path = tmp_path / "labels.txt"
        write_labels(path, labels)
        assert load_labels(path) == labels

    def test_unknown_class_is_hard_error(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_lines(path, ["0 head", "1 elbows"])
        with pytest.raises(ParseError, match="elbows"):
            load_labels(path)

    def test_duplicate_frame_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_lines(path, ["0 head", "0 toes"])
        with pytest.raises(ParseError, match="duplicate"):
            load_labels(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_lines(path, ["0 head extra"])
        with pytest.raises(ParseError):
            load_labels(path)


class TestScriptFile:
    def test_default_mapping_when_no_map_lines(self, tmp_path):
        path = tmp_path / "script.txt"
        write_lines(path, ["trial head 0 10", "trial toes 11 20"])
        script = load_script(path)
        assert script.mapping.required_for(H) is T
        assert len(script.trials) == 2

    def test_custom_mapping(self, tmp_path):
        path = tmp_path / "script.txt"
        write_lines(path, [
            "map head shoulders", "map shoulders head",
            "map knees toes", "map toes knees",
            "trial head 0 10",
        ])
        script = load_script(path)
        assert script.mapping.required_for(H) is S
        assert script.mapping.required_for(K) is T

    def test_round_trip(self, tmp_path):
        script = SessionScript(trials=(Trial(H, 0, 9), Trial(K, 15, 30)))
        path = tmp_path / "script.txt"
        write_script(path, script)
        assert load_script(path) == script

    def test_identity_mapping_rejected(self, tmp_path):
        path = tmp_path / "script.txt"
        write_lines(path, [
            "map head head", "map shoulders knees",
            "map knees shoulders", "map toes head",
            "trial head 0 10",
        ])
        with pytest.raises(ParseError, match="itself"):
            load_script(path)

    def test_partial_mapping_rejected(self, tmp_path):
        path = tmp_path / "script.txt"
        write_lines(path, ["map head toes", "trial head 0 10"])
        with pytest.raises(ParseError, match="missing"):
            load_script(path)

    def test_no_trials_rejected(self, tmp_path):
        path = tmp_path / "script.txt"
        write_lines(path, ["map head toes", "map toes head",
                           "map shoulders knees", "map knees shoulders"])
        with pytest.raises(ParseError, match="no trials"):
            load_script(path)

    def test_overlapping_trials_rejected(self, tmp_path):
        path = tmp_path / "script.txt"
        write_lines(path, ["trial head 0 10", "trial toes 5 20"])
        with pytest.raises(ParseError, match="disjoint"):
            load_script(path)

    def test_unknown_directive(self, tmp_path):
        path = tmp_path / "script.txt"
        write_lines(path, ["sing head 0 10"])
        with pytest.raises(ParseError, match="sing"):
            load_script(path)


class TestClassifierConfigFile:
    def test_round_trip(self, tmp_path):
        config = ClassifierConfig(
            rule1_threshold_ratio=0.4,
            rule2_bias_ratio=0.1,
            enable_rule2=False,
            tie_break_order=(H, S, K, T),
            normalization=Normalization.FIXED_PIXELS,
        )
        path = tmp_path / "classifier.yaml"
        write_classifier_config(path, config)
        assert load_classifier_config(path) == config

    def test_dict_round_trip(self):
        config = ClassifierConfig()
        assert classifier_config_from_dict(classifier_config_to_dict(config)) == config

    def test_partial_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "classifier.yaml"
        path.write_text("classifier:\n  rule2_bias_ratio: 0.07\n", encoding="utf-8")
        config = load_classifier_config(path)
        assert config.rule2_bias_ratio == 0.07
        assert config.rule1_threshold_ratio == 0.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "classifier.yaml"
        path.write_text("classifier:\n  rule3_gain: 2.0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="rule3_gain"):
            load_classifier_config(path)

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            classifier_config_from_dict({"rule1_threshold_ratio": "big"})
        with pytest.raises(ConfigError):
            classifier_config_from_dict({"enable_rule1": "yes"})
        with pytest.raises(ConfigError):
            classifier_config_from_dict({"normalization": "raw"})
        with pytest.raises(ConfigError):
            classifier_config_from_dict({"tie_break_order": ["head", "head", "knees", "toes"]})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_classifier_config(tmp_path / "nope.yaml")


class TestDecisionsFile:
    def test_round_trip(self, tmp_path):
        rows = [
            (0, FrameDecision(label=T, profile=DistanceProfile(1.5, 2.25, 3.125, 0.0),
                              rule1_fired=True)),
            (1, FrameDecision(label=S, profile=DistanceProfile(10.0, 2.0, 30.0, 40.0),
                              rule2_applied=True)),
            (5, FrameDecision(label=H, profile=DistanceProfile(0.1, 1.0, 2.0, 3.0),
                              tie_broken=True)),
        ]
        path = tmp_path / "decisions.csv"
        write_decisions(path, rows)
        assert load_decisions(path) == rows

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "decisions.csv"
        path.write_text("frame,stuff\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            load_decisions(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "decisions.csv"
        write_decisions(path, [(0, FrameDecision(label=H, profile=DistanceProfile(1, 2, 3, 4)))])
        text = path.read_text(encoding="utf-8").replace(",head,", ",hihat,")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="hihat"):
            load_decisions(path)


class TestReportJson:
    def test_round_trip_recomputes_percentages(self, tmp_path):
        counts = np.array([[5, 1, 0, 0], [0, 9, 1, 0], [0, 0, 7, 3], [1, 0, 0, 9]])
        rep = report(ConfusionMatrix(counts))
        path = tmp_path / "report.json"
        write_report_json(path, rep)
        loaded = load_report_json(path)
        assert loaded.matrix == rep.matrix
        assert loaded.overall_accuracy == rep.overall_accuracy
        assert np.allclose(loaded.row_percentages, rep.row_percentages)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_report_json(path)

    def test_missing_counts_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{\"labels\": []}", encoding="utf-8")
        with pytest.raises(ParseError, match="counts"):
            load_report_json(path)


class TestNonUtf8Input:
    # Two lines that are valid in each format, then a byte that is not UTF-8.
    @pytest.mark.parametrize("loader, prefix", [
        (load_poses, "# poses\n\n"),
        (load_labels, "# labels\n\n"),
        (load_script, "# script\n\n"),
        (load_decisions, DECISIONS_HEADER + "\n\n"),
        (load_report_json, "{\n\n"),
    ], ids=["poses", "labels", "script", "decisions", "report_json"])
    def test_parse_error_names_path_and_line(self, tmp_path, loader, prefix):
        path = tmp_path / "input"
        path.write_bytes(prefix.encode() + b"\xff\n")
        with pytest.raises(ParseError) as exc_info:
            loader(path)
        assert (exc_info.value.path, exc_info.value.line_no) == (path, 3)

    def test_yaml_config_is_config_error(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_bytes(b"classifier:\n  enable_rule1: true\n  \xff: 1\n")
        with pytest.raises(ConfigError, match=r"config.yaml:3: not valid UTF-8"):
            load_classifier_config(path)

    def test_line_found_past_the_first_decoded_chunk(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_bytes((b"# " + b"x" * 60 + b"\r\n") * 300 + b"# \xc3\n")
        with pytest.raises(ParseError) as exc_info:
            load_poses(path)
        assert exc_info.value.line_no == 301
