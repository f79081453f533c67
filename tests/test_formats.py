from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import htks.formats

from htks import (
    LABEL_ORDER,
    BodyPose,
    ClassifierConfig,
    ConfigError,
    ConfusionMatrix,
    DistanceProfile,
    FrameDecision,
    JointId,
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
    _content_lines,
    _frame_id,
    _pose_chunks,
    classifier_config_from_dict,
    classifier_config_to_dict,
    iter_decisions,
    iter_poses,
    load_classifier_config,
    load_labels,
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
        poses = list(iter_poses(path))
        assert [p.frame_id for p in poses] == [0, 1, 2]
        assert poses[0].joints[list(poses[0].joints)[0]].x == 320.5

    def test_round_trip_synthetic_corpus(self, tmp_path):
        frames = generate(SynthConfig(seed=21, jitter_stddev_ratio=0.04, frames_per_class=100))
        path = tmp_path / "poses.txt"
        write_poses(path, (pose for pose, _ in frames))
        loaded = list(iter_poses(path))
        assert loaded == [pose for pose, _ in frames]

    def test_confidence_round_trip(self, tmp_path):
        from conftest import make_pose
        from htks import JointId

        pose = make_pose(confidence={JointId.HEAD: 0.25, JointId.HIP: 1.0})
        path = tmp_path / "poses.txt"
        write_poses(path, [pose])
        assert list(iter_poses(path)) == [pose]

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
        assert list(iter_poses(tmp_path / "objects.txt")) == [pose]
        with_confidence = (tmp_path / "objects.txt").read_text(encoding="utf-8")
        without = with_confidence.replace(",0.25 ", " ").replace(",1.0\n", "\n")
        assert without == (tmp_path / "array.txt").read_text(encoding="utf-8")

    def test_joint_order_within_line_is_free(self, tmp_path):
        path = tmp_path / "poses.txt"
        tokens = POSE_LINE.format(fid=0).split()
        reordered = [tokens[0]] + list(reversed(tokens[1:]))
        write_lines(path, [" ".join(reordered)])
        from_line = load_poses_from_line(tmp_path, POSE_LINE.format(fid=0))
        assert list(iter_poses(path))[0] == from_line

    def test_missing_joint_named_with_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        line = POSE_LINE.format(fid=0).replace(
            " left_knee=300.0,420.0", "")
        write_lines(path, ["# header", line])
        with pytest.raises(ParseError) as exc_info:
            list(iter_poses(path))
        message = str(exc_info.value)
        assert "left_knee" in message and ":2:" in message

    def test_unknown_joint_rejected(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_lines(path, [POSE_LINE.format(fid=0) + " nose=1.0,2.0"])
        with pytest.raises(ParseError, match="nose"):
            list(iter_poses(path))

    def test_duplicate_joint_rejected(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_lines(path, [POSE_LINE.format(fid=0) + " head=1.0,2.0"])
        with pytest.raises(ParseError, match="duplicate"):
            list(iter_poses(path))

    def test_non_finite_coordinate_rejected(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_lines(path, [POSE_LINE.format(fid=0).replace("320.5", "nan")])
        with pytest.raises(ParseError, match="head"):
            list(iter_poses(path))

    def test_decreasing_frame_ids_rejected(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_lines(path, [POSE_LINE.format(fid=5), POSE_LINE.format(fid=5)])
        with pytest.raises(ParseError, match="strictly increasing"):
            list(iter_poses(path))

    def test_bad_confidence_rejected(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_lines(path, [POSE_LINE.format(fid=0).replace("hip=320.0,300.0",
                                                           "hip=320.0,300.0,1.5")])
        with pytest.raises(ParseError, match="confidence"):
            list(iter_poses(path))

    def test_streaming_is_lazy(self, tmp_path):
        path = tmp_path / "poses.txt"
        write_lines(path, [POSE_LINE.format(fid=i) for i in range(10)])
        stream = iter_poses(path)
        first = next(stream)
        assert first.frame_id == 0


def read_strict(path):
    """``(ids, coords, error)`` of ``iter_poses``: the frames it yields,
    as arrays, and the ParseError that ends them, if any."""
    poses, error = [], None
    try:
        for pose in iter_poses(path):
            poses.append(pose)
    except ParseError as exc:
        error = exc
    coords = [[(pose.joints[j].x, pose.joints[j].y) for j in JointId] for pose in poses]
    return ([pose.frame_id for pose in poses],
            np.array(coords, dtype=np.float64).reshape(-1, 12, 2), error)


def read_chunks(path):
    """``(ids, coords, error)`` of the chunk reader, chunks concatenated."""
    chunks, error = [], None
    try:
        for chunk in _pose_chunks(path):
            chunks.append(chunk)
    except ParseError as exc:
        error = exc
    ids = [frame_id for frame_ids, _ in chunks for frame_id in frame_ids.tolist()]
    coords = np.concatenate([c for _, c in chunks]) if chunks else np.empty((0, 12, 2))
    assert all(frame_ids.dtype == np.int64 for frame_ids, _ in chunks)
    return ids, coords, error


def assert_same_reading(path):
    strict_ids, strict_coords, strict_error = read_strict(path)
    ids, coords, error = read_chunks(path)
    assert ids == strict_ids
    assert coords.tobytes() == strict_coords.tobytes()  # bit-identical, -0.0 included
    if strict_error is None:
        assert error is None
    else:
        assert (str(error), error.line_no) == (str(strict_error), strict_error.line_no)
    return ids, error


# Pose-file lines for the chunk reader property. Each is built from a kind,
# a frame-id step and twelve coordinates: canonical lines, lines off the
# canonical layout that still parse, and lines that break a rule.
_COORDINATE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.5, -300.25, 1e-310]),
)
# Each is a float() spelling the strict parser rejects or must agree on;
# "1\x1c" and "2\xa0" end in characters str.split() splits on.
_BAD_COORDINATE = st.sampled_from(["1_0", "inf", "nan", "1e400", "-Infinity", "+5",
                                   "\u0663", "1,5", "0x1", "", "1\x1c", "2\xa0"])
_BAD_ID = st.sampled_from(["+4", "1_0", "\u0663", "-1", "9223372036854775808", "x"])
_POSE_KIND = st.sampled_from([
    "canonical", "canonical", "canonical", "confidence", "shuffled", "spaces",
    "coordinate", "id", "decreasing", "comment", "missing-joint",
])


@st.composite
def pose_file_lines(draw):
    lines, frame_id = [], 0
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(_POSE_KIND)
        frame_id += draw(st.integers(1, 3))
        values = [draw(_COORDINATE) for _ in range(24)]
        entries = [f"{joint.value}={values[2 * i]!r},{values[2 * i + 1]!r}"
                   for i, joint in enumerate(JointId)]
        token = str(frame_id)
        if kind == "confidence":
            entries[draw(st.integers(0, 11))] += ",0.5"
        elif kind == "shuffled":
            entries = draw(st.permutations(entries))
        elif kind == "coordinate":
            index = draw(st.integers(0, 11))
            joint = entries[index].partition("=")[0]
            entries[index] = f"{joint}={draw(_BAD_COORDINATE)},2.0"
        elif kind == "id":
            token = draw(_BAD_ID)
        elif kind == "decreasing":
            token = str(max(frame_id - draw(st.integers(1, 4)), 0))
        elif kind == "missing-joint":
            entries.pop(draw(st.integers(0, 11)))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# comment", "", "   "])))
        elif kind == "spaces":
            lines.append("  " + "\t".join([token, *entries]) + " ")
        else:
            lines.append(" ".join([token, *entries]))
    return lines


class TestPoseChunks:
    @given(lines=pose_file_lines(), chunk_frames=st.sampled_from([1, 2, 3, 5, 256]))
    def test_same_frames_and_errors_as_iter_poses(self, scratch_dir, lines, chunk_frames):
        path = scratch_dir / "poses.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with mock.patch.object(htks.formats, "_CHUNK_FRAMES", chunk_frames):
            assert_same_reading(path)

    @pytest.mark.parametrize("bad_frame", [254, 255, 256, 257])
    def test_bad_line_either_side_of_a_chunk_boundary(self, tmp_path, bad_frame):
        # Frames 0-255 make the first 256-frame chunk; the bad line ends the
        # stream, and every frame before it is still yielded.
        assert htks.formats._CHUNK_FRAMES == 256
        path = tmp_path / "poses.txt"
        frames = generate_frames(SynthConfig(seed=2, jitter_stddev_ratio=0.05,
                                             frames_per_class=150))
        write_poses(path, frames.coords)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1 + bad_frame] = lines[1 + bad_frame].replace(" hip=", " hip=1_0,nan ", 1)
        write_lines(path, lines)
        ids, error = assert_same_reading(path)
        assert ids == list(range(bad_frame))
        assert error.line_no == bad_frame + 2

    @pytest.mark.parametrize("space", ["\xa0", "\x85", "\u2003", "\t"])
    def test_whitespace_inside_a_coordinate(self, tmp_path, space):
        # float() strips these, str.split() splits on them: the line is not
        # canonical, and the strict parser's error stands.
        path = tmp_path / "poses.txt"
        lines = [POSE_LINE.format(fid=i) for i in range(3)]
        lines[1] = lines[1].replace("hip=320.0,", f"hip=320.0{space},")
        write_lines(path, lines)
        ids, error = assert_same_reading(path)
        assert ids == [0] and error.line_no == 2

    def test_canonical_file_read_as_arrays(self, tmp_path):
        path = tmp_path / "poses.txt"
        frames = generate_frames(SynthConfig(seed=2, jitter_stddev_ratio=0.05,
                                             frames_per_class=150))
        write_poses(path, frames.coords)
        chunks = list(_pose_chunks(path))
        assert [len(ids) for ids, _ in chunks] == [256, 256, 88]
        assert np.concatenate([c for _, c in chunks]).tobytes() == frames.coords.tobytes()
        assert_same_reading(path)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    """A directory for tests that rewrite one file per hypothesis example."""
    return tmp_path_factory.mktemp("examples")


# Labels-file bytes: raw bytes, or "<id> <class> [extra]" lines near the
# format (signs, non-ASCII digits, unknown or miscased classes, comments,
# empty tokens, bad UTF-8).
_LABEL_LINE = st.tuples(
    st.sampled_from([b"0", b"7", b"-1", b"+2", b"1_0", b"1.5", b"\xd9\xa3", b"#", b""]),
    st.sampled_from([b"head", b"toes", b"Toes", b"elbows", b"\xff", b"\x00", b""]),
    st.sampled_from([b"", b"x"]),
).map(b" ".join)
LABEL_FILE_BYTES = st.one_of(
    st.binary(max_size=80), st.lists(_LABEL_LINE, max_size=6).map(b"\n".join)
)


def label_pairs(path):
    """The labels file at ``path`` as (frame_id, TouchLabel) pairs in file order."""
    ids, labels = load_labels(path)
    assert (ids.dtype, labels.dtype) == (np.int64, np.int8)
    return list(zip(ids.tolist(), [LABEL_ORDER[index] for index in labels.tolist()]))


def load_labels_by_line(path) -> dict:
    """The per-line labels reader ``load_labels`` replaced, kept as the
    reference its block reader is checked against."""
    labels = {}
    for line_no, line in _content_lines(path):
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected 'frame_id class', got {line!r}", path, line_no)
        frame_id = _frame_id(tokens[0], path, line_no)
        try:
            truth = TouchLabel(tokens[1])
        except ValueError:
            raise ParseError(f"unknown class name: {tokens[1]!r}", path, line_no) from None
        if frame_id in labels:
            raise ParseError(f"duplicate frame id: {frame_id}", path, line_no)
        labels[frame_id] = truth
    return labels


def assert_same_labels(path):
    """``load_labels`` returns the reference reader's pairs or raises its
    ParseError: same message, path and line."""
    try:
        expected, expected_error = list(load_labels_by_line(path).items()), None
    except ParseError as exc:
        expected, expected_error = None, exc
    try:
        pairs, error = label_pairs(path), None
    except ParseError as exc:
        pairs, error = None, exc
    assert pairs == expected
    if expected_error is None:
        assert error is None
    else:
        assert (str(error), error.path, error.line_no) == (
            str(expected_error), expected_error.path, expected_error.line_no)
    return pairs, error


# Labels-file lines for the block reader property: canonical lines, repeats
# of an earlier id (possibly in an earlier block), comments and blank lines,
# lines off the canonical layout that still parse, and lines that break a rule.
_LABEL_KIND = st.sampled_from([
    "canonical", "canonical", "canonical", "canonical", "repeat", "comment",
    "spaces", "big-id", "id", "class", "extra",
])
_CLASS_NAME = st.sampled_from([label.value for label in LABEL_ORDER])


@st.composite
def label_file_lines(draw):
    lines, ids = [], []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(_LABEL_KIND)
        token = str(draw(st.integers(0, 10**6)))
        name = draw(_CLASS_NAME)
        if kind == "repeat" and ids:
            token = draw(st.sampled_from(ids))
        elif kind == "big-id":
            token = draw(st.sampled_from(
                [str(10**18 - 1), "0" * 17 + "5", str(2**63 - 1), str(2**63), str(10**19),
                 "0" * 19 + "7"]))
        elif kind == "id":
            token = draw(st.sampled_from(["+4", "1_0", "\u0663", "\uff11", "-1", "x", "007"]))
        elif kind == "class":
            name = draw(st.sampled_from(["Toes", "elbows", "head,", "\u0127ead"]))
        ids.append(token)
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# comment", "", "   ", "#1 head"])))
        elif kind == "spaces":
            spacing = draw(st.sampled_from(["  {} {} ", "{}\t{}", "{}  {}", "{}\xa0{}"]))
            lines.append(spacing.format(token, name))
        elif kind == "extra":
            lines.append(f"{token} {name} x")
        else:
            lines.append(f"{token} {name}")
    return lines


def load_poses_from_line(tmp_path, line):
    path = tmp_path / "one.txt"
    write_lines(path, [line])
    return list(iter_poses(path))[0]


class TestLabelsFile:
    def test_round_trip(self, tmp_path):
        labels = [(7, K), (0, H), (3, T)]
        path = tmp_path / "labels.txt"
        write_labels(path, labels)
        assert label_pairs(path) == labels

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

    def test_negative_frame_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_lines(path, ["0 head", "-1 head"])
        with pytest.raises(ParseError) as exc_info:
            load_labels(path)
        assert (exc_info.value.path, exc_info.value.line_no) == (path, 2)

    @given(pairs=st.lists(
        st.tuples(st.integers(0, 10**12), st.sampled_from(list(TouchLabel))),
        unique_by=lambda pair: pair[0],
    ))
    def test_round_trip_any_ids(self, scratch_dir, pairs):
        path = scratch_dir / "labels.txt"
        write_labels(path, pairs)
        assert label_pairs(path) == pairs

    @given(lines=label_file_lines(), chunk_frames=st.sampled_from([1, 2, 3, 5, 256]))
    def test_same_labels_and_errors_as_the_line_reader(self, scratch_dir, lines, chunk_frames):
        path = scratch_dir / "labels.txt"
        write_lines(path, lines)
        with mock.patch.object(htks.formats, "_CHUNK_FRAMES", chunk_frames):
            assert_same_labels(path)

    @pytest.mark.parametrize("bad_line, expected_line", [(600, 501), (400, 400)])
    def test_earlier_error_wins_across_blocks(self, tmp_path, bad_line, expected_line):
        # Line 501 repeats frame 3 of the first 256-frame block; a bad line
        # after it loses to the duplicate, one before it wins.
        assert htks.formats._CHUNK_FRAMES == 256
        path = tmp_path / "labels.txt"
        lines = [f"{i} {LABEL_ORDER[i % 4].value}" for i in range(700)]
        lines[500] = "3 toes"
        lines[bad_line - 1] = f"{bad_line} elbows"
        write_lines(path, lines)
        _, error = assert_same_labels(path)
        assert error.line_no == expected_line

    @pytest.mark.parametrize("bad", ["5 elbows", "5 toes"], ids=["bad-class", "duplicate"])
    def test_earlier_error_wins_over_a_later_non_utf8_byte(self, tmp_path, bad):
        # Line 260 is bad; 12 KB of comments on, past the text decoder's
        # first read of that part of the file, line 301 is not UTF-8. Both
        # sit in the second 256-line block.
        path = tmp_path / "labels.txt"
        lines = [f"{i} head".encode() for i in range(259)]
        lines += [bad.encode()] + [b"# " + b"x" * 300] * 40 + [b"\xff head"]
        path.write_bytes(b"\n".join(lines) + b"\n")
        _, error = assert_same_labels(path)
        assert error.line_no == 260

    def test_canonical_file_read_as_arrays(self, tmp_path):
        path = tmp_path / "labels.txt"
        pairs = [(i * 7 % 600, LABEL_ORDER[i % 4]) for i in range(600)]
        write_labels(path, pairs)
        assert label_pairs(path) == pairs

    @given(data=LABEL_FILE_BYTES)
    def test_any_bytes_parse_or_raise_parse_error(self, scratch_dir, data):
        path = scratch_dir / "labels.txt"
        path.write_bytes(data)
        try:
            ids, _ = load_labels(path)
        except ParseError as exc:
            assert exc.path == path and exc.line_no >= 1
        else:
            assert (ids >= 0).all()


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
        with pytest.raises(ConfigError, match="calibration_frame"):
            classifier_config_from_dict({"normalization": "raw"})
        with pytest.raises(ConfigError, match="calibration_frame"):
            ClassifierConfig(normalization="raw")
        with pytest.raises(ConfigError):
            classifier_config_from_dict({"tie_break_order": ["head", "head", "knees", "toes"]})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_classifier_config(tmp_path / "nope.yaml")


def decision_chunk(rows):
    """``(frame_id, FrameDecision)`` rows as the one chunk of arrays
    ``write_decisions`` takes."""
    decisions = [decision for _, decision in rows]
    return np.array([frame_id for frame_id, _ in rows]), (
        np.array([LABEL_ORDER.index(d.label) for d in decisions]),
        np.array([d.rule1_fired for d in decisions]),
        np.array([d.rule2_applied for d in decisions]),
        np.array([d.tie_broken for d in decisions]),
        np.array([d.profile.as_tuple() for d in decisions]),
    )


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
        write_decisions(path, [decision_chunk(rows)])
        assert list(iter_decisions(path)) == rows

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "decisions.csv"
        path.write_text("frame,stuff\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            list(iter_decisions(path))

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "decisions.csv"
        write_decisions(
            path, [decision_chunk([(0, FrameDecision(label=H, profile=DistanceProfile(1, 2, 3, 4)))])]
        )
        text = path.read_text(encoding="utf-8").replace(",head,", ",hihat,")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="hihat"):
            list(iter_decisions(path))


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


class TestFrameIdGrammar:
    # Only ASCII digits name a frame, and the id must fit in an int64:
    # int() alone would take a sign, an underscore or any Unicode digit.
    @pytest.mark.parametrize("token", ["+4", "1_0", "\u0663", "9223372036854775808"])
    @pytest.mark.parametrize("reader", ["poses", "labels", "decisions"])
    def test_non_ascii_digit_ids_rejected(self, tmp_path, reader, token):
        path = tmp_path / "input.txt"
        if reader == "poses":
            write_lines(path, ["# poses", POSE_LINE.format(fid=token)])
            load = lambda p: list(iter_poses(p))  # noqa: E731
        elif reader == "labels":
            write_lines(path, ["0 head", f"{token} toes"])
            load = load_labels
        else:
            write_lines(path, [DECISIONS_HEADER, f"{token},head,false,true,false,1.0,2.0,3.0,4.0"])
            load = lambda p: list(iter_decisions(p))  # noqa: E731
        with pytest.raises(ParseError, match="frame id") as exc_info:
            load(path)
        assert (exc_info.value.path, exc_info.value.line_no) == (path, 2)

    def test_largest_id_accepted(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_lines(path, ["9223372036854775807 head", "007 toes"])
        assert label_pairs(path) == [(2**63 - 1, H), (7, T)]


class TestNonUtf8Input:
    # Two lines that are valid in each format, then a byte that is not UTF-8.
    @pytest.mark.parametrize("loader, prefix", [
        (lambda p: list(iter_poses(p)), "# poses\n\n"),
        (load_labels, "# labels\n\n"),
        (load_script, "# script\n\n"),
        (lambda p: list(iter_decisions(p)), DECISIONS_HEADER + "\n\n"),
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
            list(iter_poses(path))
        assert exc_info.value.line_no == 301
