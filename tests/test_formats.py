import re
import tracemalloc
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
    PartMapping,
    SessionScript,
    SynthConfig,
    TouchLabel,
    Trial,
    generate,
    report,
)
from htks.formats import (
    DECISIONS_HEADER,
    _NEWLINE,
    _canonical_arrays,
    _content_lines,
    _float_text,
    _frame_id,
    _pose_file,
    _rows_text,
    _shortest,
    _text_lines,
    classifier_config_from_dict,
    classifier_config_to_dict,
    iter_poses,
    load_classifier_config,
    load_decisions,
    load_labels,
    load_report_json,
    load_script,
    report_to_dict,
    write_classifier_config,
    write_decisions,
    write_labels,
    write_poses,
    write_report_json,
    write_script,
)
from htks.pipeline import _classify_pose_file
from htks.synth import SynthFrames, generate_frames

H, S, K, T = TouchLabel.HEAD, TouchLabel.SHOULDERS, TouchLabel.KNEES, TouchLabel.TOES
# Lines per block of the line readers and writers; a synth corpus of
# ``CHUNK // 2 + 22`` frames per class fills two blocks and 88 frames of a third.
CHUNK = htks.formats._CHUNK_FRAMES

POSE_LINE = (
    "{fid} head=320.5,80.25 left_shoulder=280.0,140.0 right_shoulder=360.0,140.0 "
    "left_elbow=260.0,200.0 right_elbow=380.0,200.0 left_wrist=250.0,260.0 "
    "right_wrist=390.0,260.0 hip=320.0,300.0 left_knee=300.0,420.0 "
    "right_knee=340.0,420.0 left_ankle=295.0,540.0 right_ankle=345.0,540.0"
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# Coordinates off the array formatter's own range or at its edges, and
# negative ones inside it.
ODD_COORDINATES = [
    0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-7, -0.00012, 0.009999999999999998, 0.01,
    -0.5, -123.456, 999999999999999.9, 1e15, -1e16, 1.7976931348623157e308, -1e300,
    12345678901234567.0, 0.1, -2.0**49,
]


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

    # 4,400 frames span nine of the array writer's row chunks; "odd" puts
    # zeros, -0.0 and tiny, huge and negative coordinates in every chunk.
    @pytest.mark.parametrize("jitter, confusable, odd", [
        (0.0, False, False), (0.05, False, False), (0.05, True, False), (0.05, False, True),
    ], ids=["noiseless", "jittered", "confusable", "odd"])
    def test_pose_objects_and_array_write_same_bytes(self, tmp_path, jitter, confusable, odd):
        config = SynthConfig(seed=3, jitter_stddev_ratio=jitter, frames_per_class=1100)
        frames = generate_frames(config, confusable=confusable)
        if odd:
            coords = frames.coords.copy()
            picks = np.random.default_rng(4).choice(coords.size, 3000, replace=False)
            coords.flat[picks] = np.resize(ODD_COORDINATES, len(picks))
            frames = SynthFrames(coords=coords, labels=frames.labels)
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

    def test_array_blocks_continue_the_frame_ids(self, tmp_path):
        coords = generate_frames(SynthConfig(seed=3, jitter_stddev_ratio=0.05,
                                             frames_per_class=300)).coords
        write_poses(tmp_path / "whole.txt", coords)
        write_poses(tmp_path / "blocks.txt", iter(np.split(coords, [0, 1, 700, 700, 1201])))
        assert (tmp_path / "blocks.txt").read_bytes() == (tmp_path / "whole.txt").read_bytes()

    def test_empty_array_writes_the_header_and_a_bad_shape_raises(self, tmp_path):
        write_poses(tmp_path / "empty.txt", np.empty((0, 12, 2)))
        assert list(iter_poses(tmp_path / "empty.txt")) == []
        with pytest.raises(ValueError):
            write_poses(tmp_path / "bad.txt", np.zeros((2, 12, 3)))
        assert not (tmp_path / "bad.txt").exists()

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


def pose_chunks(path):
    """The ``(ids, coords)`` chunks ``_pose_block`` reads from each range of
    a pose file, as the pipeline reads them, then the ParseError met."""
    prev_frame_id = None
    with _pose_file(path) as (ranges, parse):
        for block in ranges:
            ids, coords, _, error = parse(block, prev_frame_id)
            if len(ids):
                prev_frame_id = int(ids[-1])
                yield ids, coords
            if error is not None:
                raise error


def read_chunks(path):
    """``(ids, coords, error)`` of the chunk reader, chunks concatenated."""
    chunks, error = [], None
    try:
        for chunk in pose_chunks(path):
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
    st.sampled_from([0.0, -0.0, 1.5, -300.25, 1e-310, 1e-05, -7.3e-05, 1e16]),
)
# Each is a float() spelling the strict parser rejects or must agree on;
# "1\x1c" and "2\xa0" end in characters str.split() splits on. Then signs,
# dots and exponents where the array path reads only "[-]digits.digits",
# and mantissas past 18 digits or 2**63, or places past 27.
_BAD_COORDINATE = st.sampled_from([
    "1_0", "inf", "nan", "1e400", "-Infinity", "+5", "\u0663", "1,5", "0x1", "", "1\x1c",
    "2\xa0", "1-2.0", "1.2-", "--1.0", "1.2.3", "1..2", "-", ".", "-.", "5", "+1.5",
    "1e-05", "1E5", "-1.5e3", "1234567890123456789.5", "99999999999999999999.0",
    "-9223372036854775808.0", "0." + "0" * 27 + "1", "0" * 30 + "1.25", "1" * 400 + ".0",
])
_BAD_ID = st.sampled_from([
    "+4", "1_0", "\u0663", "-1", "9223372036854775808", "x", "1.0", "1" * 18, "1" * 19,
    "1" * 20, "0" * 18 + "7", "0" * 19 + "7", str(2**63 - 1), str(2**64 + 5),
])
# Where a name holding a digit, "-" or "." is cut, and what it holds.
_NAME_HAZARD = st.tuples(st.integers(0, 20), st.sampled_from(["1", "-", ".", "9."]))
_POSE_KIND = st.sampled_from([
    "canonical", "canonical", "canonical", "confidence", "shuffled", "spaces",
    "coordinate", "id", "decreasing", "comment", "missing-joint", "name", "name-empty",
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
        elif kind in ("name", "name-empty"):
            # "he1ad=" reads as "head=" once digits are taken out; with
            # one slot emptied, the line still holds 25 numbers.
            index = draw(st.integers(0, 11))
            (cut, inserted), entry = draw(_NAME_HAZARD), entries[index]
            cut = min(cut, entry.index("="))
            entries[index] = entry[:cut] + inserted + entry[cut:]
            if kind == "name-empty":
                other = draw(st.integers(0, 11))
                entries[other] = entries[other].partition("=")[0] + "=," + entries[other].split(",")[1]
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# comment", "", "   "])))
        elif kind == "spaces":
            lines.append("  " + "\t".join([token, *entries]) + " ")
        else:
            lines.append(" ".join([token, *entries]))
    return lines


class TestPoseChunks:
    @given(lines=pose_file_lines(), chunk_frames=st.sampled_from([1, 2, 3, 5, CHUNK]),
           newline=st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    def test_same_frames_and_errors_as_iter_poses(self, scratch_dir, lines, chunk_frames,
                                                  newline):
        path = scratch_dir / "poses.txt"
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        with mock.patch.object(htks.formats, "_CHUNK_FRAMES", chunk_frames):
            assert_same_reading(path)

    @pytest.mark.parametrize("bad_frame", [CHUNK - 2, CHUNK - 1, CHUNK, CHUNK + 1],
                             ids=["C-2", "C-1", "C", "C+1"])
    def test_bad_line_either_side_of_a_chunk_boundary(self, tmp_path, bad_frame):
        # Frames 0 to CHUNK - 1 make the first chunk; the bad line ends the
        # stream, and every frame before it is still yielded.
        path = tmp_path / "poses.txt"
        frames = generate_frames(SynthConfig(seed=2, jitter_stddev_ratio=0.05,
                                             frames_per_class=CHUNK // 2 + 22))
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
                                             frames_per_class=CHUNK // 2 + 22))
        write_poses(path, frames.coords)
        chunks = list(pose_chunks(path))
        # Chunks count lines from the header, the first chunk's first line.
        assert [len(ids) for ids, _ in chunks] == [CHUNK - 1, CHUNK, 89]
        assert np.concatenate([c for _, c in chunks]).tobytes() == frames.coords.tobytes()
        assert_same_reading(path)

    @pytest.mark.parametrize("comment", ["# segment", "", "  # indented"])
    def test_comment_every_256_lines_keeps_the_array_path(self, tmp_path, comment):
        path = tmp_path / "poses.txt"
        frames = generate_frames(SynthConfig(seed=2, jitter_stddev_ratio=0.05,
                                             frames_per_class=CHUNK // 2 + 22))
        write_poses(path, frames.coords)
        lines = path.read_text(encoding="utf-8").splitlines()
        for at in range(len(lines) - len(lines) % 256, 0, -256):
            lines.insert(at, comment)
        write_lines(path, lines)
        with mock.patch.object(htks.formats, "_parse_pose_line", side_effect=AssertionError):
            chunks = list(pose_chunks(path))
        assert np.concatenate([c for _, c in chunks]).tobytes() == frames.coords.tobytes()
        assert_same_reading(path)


    def test_lines_read_line_by_line_are_logged(self, tmp_path, caplog):
        path = tmp_path / "poses.txt"
        write_poses(path, generate_frames(SynthConfig(seed=2, frames_per_class=10)).coords)

        def logged():
            # The pipeline, which reads the blocks, counts them in one line.
            caplog.clear()
            with caplog.at_level("INFO", logger="htks"):
                list(_classify_pose_file(path, ClassifierConfig()))
            return [message for message in caplog.messages if "line by line" in message]

        assert logged() == []
        lines = path.read_text(encoding="utf-8").splitlines()
        for at in (5, 30):
            lines[at] = re.sub("hip=[^,]*", "hip=1e-05", lines[at])
        write_lines(path, lines)
        assert_same_reading(path)
        assert logged() == ["2 of 40 pose lines parsed line by line"]

    @pytest.mark.parametrize("old, new", [
        ("head=320.5", "he1ad=320.5"), ("head=320.5,80.25", "he1ad=,80.25"),
        ("head=320.5,80.25", "he1.0ad=,80.25"), ("head=320.5", "head=\u0663320.5"),
        ("hip=320.0,300.0", "hip=3.20.0,300"), ("hip=320.0", "hip=."), ("hip=320.0", "hip=-."),
        ("head=320.5", "head=1.0,2.0 head=320.5"), ("hip=320.0", "hip-=320.0"),
        ("hip=320.0", "hip=32-0.0"), ("hip=320.0", "hip=320.0-"), ("hip=320.0", "hip=3.20.0"),
        ("hip=320.0", "hip=320..0"), ("hip=320.0", "hip=+320.0"), ("hip=320.0", "hip=3.2e2"),
        ("hip=320.0", "hip=320"), ("hip=320.0", "hip=320.0000000000000001"),
        ("hip=320.0", "hip=99999999999999999999.0"), ("hip=320.0", "hip=" + "0" * 25 + "320.0"),
        ("hip=320.0", "hip=0." + "0" * 30 + "32"), ("hip=320.0", "hip=" + "9" * 400 + ".0"),
    ])
    def test_hazard_inside_a_canonical_block(self, tmp_path, old, new):
        # Each line would be canonical once its numbers are taken out, or
        # holds a number the array path must not read or must read exactly.
        path = tmp_path / "poses.txt"
        lines = [POSE_LINE.format(fid=i) for i in range(3)]
        assert old in lines[1]
        lines[1] = lines[1].replace(old, new, 1)
        write_lines(path, lines)
        assert_same_reading(path)

    @pytest.mark.parametrize("token", [
        "1" * 18, "1" * 19, "1" * 20, "0" * 18 + "7", "0" * 19 + "7",
        str(2**63 - 1), str(2**63), str(2**64 + 5), "-5", "5.0", "0",
    ])
    def test_large_or_odd_frame_id_in_a_canonical_block(self, tmp_path, token):
        path = tmp_path / "poses.txt"
        write_lines(path, [POSE_LINE.format(fid=0), POSE_LINE.format(fid=token)])
        assert_same_reading(path)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_canonical_file_with_other_line_ends(self, tmp_path, newline):
        path = tmp_path / "poses.txt"
        frames = generate_frames(SynthConfig(seed=2, jitter_stddev_ratio=0.05,
                                             frames_per_class=CHUNK // 2 + 22))
        write_poses(path, frames.coords)
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        chunks = list(pose_chunks(path))
        assert [len(ids) for ids, _ in chunks] == [CHUNK - 1, CHUNK, 89]
        assert np.concatenate([c for _, c in chunks]).tobytes() == frames.coords.tobytes()

    @pytest.mark.parametrize("bad_line", [CHUNK + 1, CHUNK + 2, CHUNK + 9, 2 * CHUNK + 40])
    @pytest.mark.parametrize("chunk_frames", [3, CHUNK])
    @pytest.mark.parametrize("scan_bytes", [1 << 12, htks.formats._SCAN_BYTES])
    def test_lines_text_mode_drops_before_a_non_utf8_byte(self, tmp_path, bad_line,
                                                           chunk_frames, scan_bytes):
        # Text mode decodes 8 KiB at a time, so it never reads the lines
        # just before such a byte, even in an earlier block or scan window,
        # nor the bad token among them: its error is the byte's.
        path = tmp_path / "poses.txt"
        write_poses(path, generate_frames(SynthConfig(seed=2, jitter_stddev_ratio=0.05,
                                                      frames_per_class=300)).coords)
        lines = path.read_bytes().split(b"\n")
        lines[bad_line - 1] = lines[bad_line - 1].replace(b"hip=", b"hip=\xff", 1)
        lines[bad_line - 3] = lines[bad_line - 3].replace(b"hip=", b"hip=x", 1)
        path.write_bytes(b"\n".join(lines))
        with mock.patch.object(htks.formats, "_CHUNK_FRAMES", chunk_frames), \
                mock.patch.object(htks.formats, "_SCAN_BYTES", scan_bytes):
            ids, error = assert_same_reading(path)
        assert error.line_no == bad_line and "UTF-8" in str(error)
        assert len(ids) < bad_line - 3

    @pytest.mark.parametrize("bad_line", [3, 300, 601])
    def test_non_utf8_byte_inside_a_canonical_block(self, tmp_path, bad_line):
        # The frames decoded before the byte are read, as iter_poses reads
        # them, and its error follows.
        path = tmp_path / "poses.txt"
        frames = generate_frames(SynthConfig(seed=2, jitter_stddev_ratio=0.05,
                                             frames_per_class=150))
        write_poses(path, frames.coords)
        lines = path.read_bytes().split(b"\n")
        lines[bad_line - 1] = lines[bad_line - 1].replace(b"hip=", b"hip=\xff", 1)
        path.write_bytes(b"\n".join(lines))
        ids, error = assert_same_reading(path)
        assert error.line_no == bad_line
        assert len(ids) > bad_line - 20


def read_numbers(tokens):
    """The values the canonical-block reader gives number ``tokens`` laid
    out as canonical pose lines, or None if it does not read them."""
    padded = iter([*tokens, *["0.0"] * (-len(tokens) % 24)])
    lines = [
        " ".join([str(i), *(f"{joint.value}={next(padded)},{next(padded)}" for joint in JointId)])
        for i in range((len(tokens) + 23) // 24)
    ]
    arrays = _canonical_arrays("".join(line + "\n" for line in lines).encode(), len(lines), None)
    return None if arrays is None else arrays[1].ravel()[:len(tokens)]


def assert_reads_as_float(tokens):
    values = read_numbers(tokens)
    assert values is not None
    expected = np.array([float(token) for token in tokens])
    assert values.view(np.int64).tolist() == expected.view(np.int64).tolist()


def midpoint_decimals(count=400, seed=5):
    """Decimals of 16, 17 and 18 significant digits just below and just
    above the midpoints between random float64 neighbours."""
    rng = np.random.default_rng(seed)
    context = Context(prec=1200)
    tokens = []
    for _ in range(count):
        low = float(rng.uniform(1, 2) * 2.0 ** int(rng.integers(-30, 60)))
        high = float(np.nextafter(low, np.inf))
        midpoint = context.divide(context.add(Decimal(low), Decimal(high)), 2)
        for digits in (16, 17, 18):
            step = Decimal(1).scaleb(midpoint.adjusted() - digits + 1)
            for rounding in (ROUND_FLOOR, ROUND_CEILING):
                token = format(midpoint.quantize(step, rounding=rounding), "f")
                tokens.append(token if "." in token else token + ".")
    return tokens


# Odd integers past 2**53 and halves past 2**52 are float64 midpoints.
EXACT_MIDPOINTS = [f"{2**53 + 1}.0", f"{2**53 + 3}.00", f"{2**54 + 2}.", f"{2**52 + 1}.5",
                   f"-{2**53 + 5}.0", f"{2**59 + 2**6}.0", "0.5", "-0.0", "0.0", "5.", ".5",
                   "-.5", "000.000", "-00001.10"]


def fixed_point(draw_digits, lead, places, negative):
    """``draw_digits`` after ``lead`` zeros as a decimal with ``places``
    digits after its point, zero-padded on the left as needed."""
    digits = "0" * lead + draw_digits
    if places > len(digits):
        digits = "0" * (places - len(digits)) + digits
    token = digits[:len(digits) - places] + "." + digits[len(digits) - places:]
    return "-" + token if negative else token


class TestExactDecimals:
    """The canonical-block reader reads each number as ``float()`` does,
    bit for bit, through one rounded ``np.longdouble`` division."""

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_repr_of_any_double(self, values):
        tokens = [repr(value) for value in values]
        plain = [token for token in tokens if "e" not in token]
        if plain:
            assert_reads_as_float(plain)
        for token in set(tokens) - set(plain):
            assert read_numbers([token]) is None

    @given(st.lists(st.builds(fixed_point, st.text("0123456789", min_size=1, max_size=18),
                              st.integers(0, 4), st.integers(0, 27), st.booleans()),
                    min_size=1, max_size=50))
    def test_fixed_point_strings(self, tokens):
        assert_reads_as_float(tokens)

    def test_near_and_at_float64_midpoints(self):
        tokens = midpoint_decimals()
        assert_reads_as_float(tokens + EXACT_MIDPOINTS)
        # One longdouble division alone rounds some of them the wrong way.
        naive = [
            (np.array([int(whole + fraction)]).astype(np.longdouble)
             / htks.formats._POWERS[len(fraction)]).astype(np.float64)[0]
            for whole, _, fraction in (token.partition(".") for token in tokens)
        ]
        assert sum(value != float(token) for value, token in zip(naive, tokens)) > 0

    def test_same_arrays_without_extended_precision(self, tmp_path):
        self.assert_same_arrays_without(tmp_path, "_EXTENDED")

    def test_same_arrays_without_the_x87_layout(self, tmp_path):
        # Midpoints are then found by arithmetic, not by the quotient's bits.
        self.assert_same_arrays_without(tmp_path, "_X87")

    @staticmethod
    def assert_same_arrays_without(tmp_path, flag):
        path = tmp_path / "poses.txt"
        write_poses(path, generate_frames(SynthConfig(seed=2, jitter_stddev_ratio=0.05,
                                                      frames_per_class=150)).coords)
        tokens = midpoint_decimals(count=40) + EXACT_MIDPOINTS
        with_extended = read_numbers(tokens), read_chunks(path)
        with mock.patch.object(htks.formats, flag, False):
            without = read_numbers(tokens), read_chunks(path)
        assert with_extended[0].tobytes() == without[0].tobytes()
        assert with_extended[1][0] == without[1][0]
        assert with_extended[1][1].tobytes() == without[1][1].tobytes()
        assert_reads_as_float(tokens)

    def test_seed_1_corpus(self, tmp_path, seed_1_coords):
        # ``repr`` round-trips through ``float()``, so the written array is
        # ``float()`` of every token: 100k frames, 2.4M numbers.
        path = tmp_path / "poses.txt"
        coords = seed_1_coords
        write_poses(path, coords)
        read, parse = htks.formats._canonical_arrays, htks.formats._parse_pose_line
        calls, parsed = [], []

        def counting(data, lines, prev_frame_id):
            arrays = read(data, lines, prev_frame_id)
            calls.append((lines, arrays is not None))
            return arrays

        def parsing(line, path, line_no, prev_frame_id):
            parsed.append(line_no)
            return parse(line, path, line_no, prev_frame_id)

        with mock.patch.object(htks.formats, "_canonical_arrays", counting), \
                mock.patch.object(htks.formats, "_parse_pose_line", parsing):
            chunks = list(pose_chunks(path))
        # A block is read as a whole unless it holds the header or a line
        # with an exponent token such as 1e-05. Such a block is tried whole,
        # then each run of lines between those lines is read as a whole,
        # and only the exponent lines go through the strict parser.
        lines = path.read_text(encoding="utf-8").splitlines()
        exponents = [i for i, line in enumerate(lines) if "e-" in line or "e+" in line]
        expected = []
        for start in range(0, len(lines), CHUNK):
            block = range(start, min(start + CHUNK, len(lines)))
            odd = [i for i in block if i == 0 or i in exponents]
            expected.append((len(block), not odd))
            if odd:
                edges = [block.start - 1, *odd, block.stop]
                expected += [(b - a - 1, True) for a, b in zip(edges, edges[1:]) if b - a > 1]
        assert calls == expected
        assert parsed == [i + 1 for i in exponents]
        assert exponents and 0 not in exponents
        assert np.concatenate([ids for ids, _ in chunks]).tolist() == list(range(len(coords)))
        assert all(c.tobytes() == coords[ids[0]:ids[-1] + 1].tobytes() for ids, c in chunks)


def spelled(values):
    """The text ``_float_text`` spells for each float64 in ``values``."""
    text = _float_text(np.asarray(values, np.float64))
    return [bytes(column[column != 0]).decode() for column in text.T]


def assert_spelled_as_repr(values):
    values = np.asarray(values, np.float64)
    assert spelled(values) == [repr(value) for value in values.tolist()]


def with_neighbours(values):
    """``values`` and the float64 on either side of each."""
    values = np.asarray(values, np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


def decimal_midpoints(digits, count=2000, seed=11):
    """The float64 nearest to ``(M + 1/2) * 10**(e - digits + 1)`` for
    random ``digits``-digit M and decimal exponents e the formatter's
    array path covers, and the doubles exactly halfway between two such
    decimals, ``j / 2**(s + 1)`` for odd j."""
    rng = np.random.default_rng(seed + digits)
    nearest = [float(f"{m}5e{e - digits}") for m, e in zip(
        rng.integers(10 ** (digits - 1), 10 ** digits, count, dtype=np.int64).tolist(),
        rng.integers(-2, 15, count).tolist())]
    ties = []
    for e10 in range(-2, 15):
        denominator = 2 ** (digits - e10)
        low = int(Fraction(10) ** e10 * denominator)
        for j in rng.integers(low, 10 * low, count // 17).tolist():
            if j < 2**53:
                ties.append(float(Fraction(j | 1, denominator)))
    return nearest + ties


# The formatter leaves to ``repr`` only what it cannot spell: 174 of the
# 2.4M coordinates of the seed-1 corpus, all below 1e-2 in magnitude.
MAX_REPR_FALLBACKS = 200


class TestFloatText:
    """``_float_text`` spells each float64 as ``repr`` does, bit for bit."""

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_any_double(self, values):
        assert_spelled_as_repr(values)

    @given(st.lists(st.floats(1e-2, 1e15, exclude_max=True).flatmap(
        lambda v: st.sampled_from([v, -v])), min_size=1, max_size=50))
    def test_any_double_in_the_array_range(self, values):
        assert_spelled_as_repr(values)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_any_bit_pattern(self, bits):
        assert_spelled_as_repr(np.array(bits, np.uint64).view(np.float64))

    def test_powers_of_two_and_ten(self):
        powers = np.concatenate([2.0 ** np.arange(-1074, 1024),
                                 [float(f"1e{e}") for e in range(-323, 309)]])
        assert_spelled_as_repr(with_neighbours(np.concatenate([powers, -powers])))

    def test_notation_and_range_boundaries(self):
        edges = [1e-5, 1e-4, 1e-2, 1e15, 1e16, 0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308]
        assert_spelled_as_repr(with_neighbours(edges + [-edge for edge in edges]))

    @pytest.mark.parametrize("digits", [15, 16, 17])
    def test_decimal_midpoints(self, digits):
        assert_spelled_as_repr(with_neighbours(decimal_midpoints(digits)))

    def test_rounding_that_carries_into_a_new_digit(self):
        tokens = [f"0.{'9' * nines}{end}e{e}" for nines in range(1, 20) for end in ("", "5")
                  for e in range(-4, 17)]
        assert_spelled_as_repr(with_neighbours([float(token) for token in tokens]))

    def test_seed_1_corpus(self, seed_1_coords):
        values = seed_1_coords.ravel()
        assert (~_shortest(values)[2]).sum() <= MAX_REPR_FALLBACKS
        for start in range(0, len(values), 1 << 16):
            chunk = values[start:start + (1 << 16)]
            assert _rows_text([_float_text(chunk), _NEWLINE]) == "".join(
                [f"{value!r}\n" for value in chunk.tolist()])


@pytest.fixture(scope="module")
def seed_1_coords():
    """The 100k frames of the seed-1 benchmark corpus, as coordinates."""
    return generate_frames(SynthConfig(seed=1, jitter_stddev_ratio=0.05,
                                       frames_per_class=25_000)).coords


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

    def test_blocks_of_pairs_write_one_line_each(self, tmp_path):
        # 1,300 pairs from a generator span three of the writer's blocks.
        pairs = [(i * 7, LABEL_ORDER[i % 4]) for i in range(1300)]
        path = tmp_path / "labels.txt"
        write_labels(path, iter(pairs))
        assert path.read_text(encoding="utf-8") == "# ground truth: frame_id class\n" + "".join(
            f"{frame_id} {label.value}\n" for frame_id, label in pairs)
        assert label_pairs(path) == pairs

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

    @given(lines=label_file_lines(), chunk_frames=st.sampled_from([1, 2, 3, 5, CHUNK]))
    def test_same_labels_and_errors_as_the_line_reader(self, scratch_dir, lines, chunk_frames):
        path = scratch_dir / "labels.txt"
        write_lines(path, lines)
        with mock.patch.object(htks.formats, "_CHUNK_FRAMES", chunk_frames):
            assert_same_labels(path)

    @pytest.mark.parametrize("bad_line, expected_line",
                             [(2 * CHUNK + 88, 2 * CHUNK - 11), (CHUNK + 144, CHUNK + 144)],
                             ids=["after-the-repeat", "before-the-repeat"])
    def test_earlier_error_wins_across_blocks(self, tmp_path, bad_line, expected_line):
        # Line 2 * CHUNK - 11, in the second block, repeats frame 3 of the
        # first; a bad line after it, in the third block, loses to the
        # duplicate, one before it in the second block wins.
        path = tmp_path / "labels.txt"
        lines = [f"{i} {LABEL_ORDER[i % 4].value}" for i in range(2 * CHUNK + 188)]
        lines[2 * CHUNK - 12] = "3 toes"
        lines[bad_line - 1] = f"{bad_line} elbows"
        write_lines(path, lines)
        _, error = assert_same_labels(path)
        assert error.line_no == expected_line

    @pytest.mark.parametrize("bad", ["5 elbows", "5 toes"], ids=["bad-class", "duplicate"])
    def test_earlier_error_wins_over_a_later_non_utf8_byte(self, tmp_path, bad):
        # Line CHUNK + 4 is bad; 12 KB of comments on, past the text
        # decoder's first read of that part of the file, line CHUNK + 45 is
        # not UTF-8. Both sit in the second block.
        path = tmp_path / "labels.txt"
        lines = [f"{i} head".encode() for i in range(CHUNK + 3)]
        lines += [bad.encode()] + [b"# " + b"x" * 300] * 40 + [b"\xff head"]
        path.write_bytes(b"\n".join(lines) + b"\n")
        _, error = assert_same_labels(path)
        assert error.line_no == CHUNK + 4

    def test_canonical_file_read_as_arrays(self, tmp_path):
        path = tmp_path / "labels.txt"
        pairs = [(i * 7 % 600, LABEL_ORDER[i % 4]) for i in range(600)]
        write_labels(path, pairs)
        assert label_pairs(path) == pairs

    @pytest.mark.parametrize("comment", ["# segment", "", "  # indented"])
    def test_comment_every_256_lines_keeps_the_block_path(self, tmp_path, comment):
        path = tmp_path / "labels.txt"
        pairs = [(i * 7 % 1200, LABEL_ORDER[i % 4]) for i in range(1200)]
        write_labels(path, pairs)
        lines = path.read_text(encoding="utf-8").splitlines()
        for at in range(len(lines) - len(lines) % 256, 0, -256):
            lines.insert(at, comment)
        write_lines(path, lines)
        with mock.patch.object(htks.formats, "_frame_id", side_effect=AssertionError):
            assert label_pairs(path) == pairs
        assert_same_labels(path)

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


@st.composite
def session_scripts(draw):
    """Scripts with ordered, disjoint trials and any derangement as the mapping."""
    bounds = sorted(draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=12,
                                  unique=True)))
    windows = zip(bounds[::2], bounds[1::2] + bounds[-1:])  # an odd last bound: one frame
    trials = tuple(Trial(draw(st.sampled_from(LABEL_ORDER)), start, end)
                   for start, end in windows)
    required = draw(st.permutations(LABEL_ORDER).filter(
        lambda order: all(a is not b for a, b in zip(LABEL_ORDER, order))))
    return SessionScript(trials=trials, mapping=PartMapping(dict(zip(LABEL_ORDER, required))))


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

    @given(script=session_scripts())
    def test_round_trip_any_script(self, scratch_dir, script):
        path = scratch_dir / "script.txt"
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


def classifier_config_from_dict_reference(data: dict) -> ClassifierConfig:
    """The YAML reader from before ``ClassifierConfig`` checked its own field
    types, kept as the reference for the configs and first errors it gives."""
    if not isinstance(data, dict):
        raise ConfigError(f"classifier config must be a mapping, got {type(data).__name__}")
    defaults = ClassifierConfig()
    known = set(classifier_config_to_dict(defaults))
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown classifier config keys: {', '.join(sorted(unknown))}")
    kwargs: dict = {}
    for key in ("rule1_threshold_ratio", "rule2_bias_ratio"):
        if key in data:
            if isinstance(data[key], bool) or not isinstance(data[key], (int, float)):
                raise ConfigError(f"{key} must be a number, got {data[key]!r}")
            kwargs[key] = data[key]
    for key in ("enable_rule1", "enable_rule2"):
        if key in data:
            if not isinstance(data[key], bool):
                raise ConfigError(f"{key} must be a boolean, got {data[key]!r}")
            kwargs[key] = data[key]
    if "tie_break_order" in data:
        raw = data["tie_break_order"]
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"tie_break_order must be a list, got {raw!r}")
        kwargs["tie_break_order"] = raw
    if "normalization" in data:
        kwargs["normalization"] = data["normalization"]
    return ClassifierConfig(**kwargs)


# Values YAML can give any classifier key, and values near each key's own type.
_LABEL_NAMES = [label.value for label in LABEL_ORDER]
_CONFIG_JUNK = st.one_of(
    st.text(max_size=4), st.sampled_from(["0.5", "no", "yes", "toes", "fixed_pixels"]),
    st.booleans(), st.none(), st.lists(st.integers(), max_size=2),
    st.integers(), st.sampled_from([10**400, -(10**400)]), st.floats(),
)
_RATIO_VALUES = st.one_of(st.floats(), st.integers(-3, 3), st.floats(-1.0, 2.0))
_CONFIG_VALUES = {
    "rule1_threshold_ratio": _RATIO_VALUES,
    "rule2_bias_ratio": _RATIO_VALUES,
    "enable_rule1": st.booleans(),
    "enable_rule2": st.booleans(),
    "tie_break_order": st.one_of(
        st.permutations(_LABEL_NAMES), st.permutations(LABEL_ORDER).map(tuple),
        st.lists(st.sampled_from([*_LABEL_NAMES, "ankles", None]), max_size=5),
    ),
    "normalization": st.one_of(st.sampled_from(Normalization),
                               st.sampled_from([m.value for m in Normalization])),
}


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

    @given(config=st.builds(
        ClassifierConfig,
        rule1_threshold_ratio=st.floats(0.0, exclude_min=True, allow_infinity=False),
        rule2_bias_ratio=st.floats(0.0, allow_infinity=False),
        enable_rule1=st.booleans(),
        enable_rule2=st.booleans(),
        tie_break_order=st.permutations(LABEL_ORDER).map(tuple),
        normalization=st.sampled_from(Normalization),
    ))
    def test_round_trip_any_config(self, scratch_dir, config):
        path = scratch_dir / "classifier.yaml"
        write_classifier_config(path, config)
        assert load_classifier_config(path) == config

    # Junk in one of four draws per key, so that some dicts pass every type
    # check and the order of the later checks is exercised too.
    @settings(max_examples=500)
    @given(data=st.fixed_dictionaries({}, optional={
        key: st.one_of(_CONFIG_JUNK, values, values, values)
        for key, values in _CONFIG_VALUES.items()
    }))
    def test_same_config_and_errors_as_the_reference_reader(self, data):
        try:
            expected = classifier_config_from_dict_reference(data)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as raised:
                classifier_config_from_dict(data)
            assert str(raised.value) == str(exc)
        else:
            assert classifier_config_from_dict(data) == expected


def iter_decisions_by_line(path):
    """The per-row decisions reader ``load_decisions`` replaced, kept as the
    reference it is checked against: ``(frame_id, FrameDecision)`` rows."""

    def parse_bool(token, line_no):
        if token == "true":
            return True
        if token == "false":
            return False
        raise ParseError(f"expected true/false, got {token!r}", path, line_no)

    with open(path, "r", encoding="utf-8") as fh:
        lines = _text_lines(fh, path)
        first = next(lines, "").rstrip("\n")
        if first != DECISIONS_HEADER:
            raise ParseError(f"bad decisions header: {first!r}", path, 1)
        for line_no, raw in enumerate(lines, start=2):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 9:
                raise ParseError(f"expected 9 fields, got {len(fields)}", path, line_no)
            frame_id = _frame_id(fields[0], path, line_no)
            try:
                label = TouchLabel(fields[1])
            except ValueError:
                raise ParseError(f"unknown class name: {fields[1]!r}", path, line_no) from None
            rule1, rule2, tied = (parse_bool(token, line_no) for token in fields[2:5])
            try:
                profile = DistanceProfile(*(float(v) for v in fields[5:9]))
            except ValueError as exc:
                raise ParseError(f"bad distances: {exc}", path, line_no) from None
            try:
                decision = FrameDecision(label, profile, rule1, rule2, tied)
            except ValueError as exc:
                raise ParseError(str(exc), path, line_no) from None
            yield frame_id, decision


def assert_same_decisions(path):
    """``load_decisions`` returns the reference reader's ids and labels or
    raises its ParseError: same message, path and line."""
    try:
        expected = [(frame_id, LABEL_ORDER.index(decision.label))
                    for frame_id, decision in iter_decisions_by_line(path)]
        expected_error = None
    except ParseError as exc:
        expected, expected_error = None, exc
    try:
        ids, labels = load_decisions(path)
        assert (ids.dtype, labels.dtype) == (np.int64, np.int8)
        rows, error = list(zip(ids.tolist(), labels.tolist())), None
    except ParseError as exc:
        rows, error = None, exc
    assert rows == expected
    if expected_error is None:
        assert error is None
    else:
        assert (str(error), error.path, error.line_no) == (
            str(expected_error), expected_error.path, expected_error.line_no)
    return rows, error


# Decisions files for the reader property: rows as ``write_decisions``
# spells them, some with one token mutated (a field missing or extra, an id
# or class or flag off the grammar, rule 1 on a non-toes row, a distance
# that is not finite and >= 0 or not a number), blank lines, a bad header,
# and a non-UTF-8 byte anywhere.
_DECISION_KIND = st.sampled_from(
    ["valid"] * 12 + ["blank", "fields", "id", "class", "flag", "rule1", "distance"])
_FLAG = st.sampled_from(["true", "false"])
_BAD_DISTANCE = st.sampled_from(
    ["nan", "inf", "1e400", "-1.0", "x", "-inf", "-0.0", "1_0", " 2.5", "", "\u0663"])


@st.composite
def decisions_file_bytes(draw):
    header = draw(st.sampled_from(
        [DECISIONS_HEADER] * 9 + [DECISIONS_HEADER + ",x", DECISIONS_HEADER.upper(), ""]))
    lines = [header]
    for frame_id in range(draw(st.integers(0, 10))):
        kind, label = draw(_DECISION_KIND), draw(_CLASS_NAME)
        rule1 = draw(_FLAG) if label == "toes" else "false"
        distances = [repr(draw(st.floats(0.0, 1e300))) for _ in range(4)]
        fields = [str(frame_id), label, rule1, draw(_FLAG), draw(_FLAG), *distances]
        if kind == "blank":
            fields = [draw(st.sampled_from(["", "   ", "\t"]))]
        elif kind == "fields" and draw(st.booleans()):
            fields.pop(draw(st.integers(0, 8)))
        elif kind == "fields":
            fields.insert(draw(st.integers(0, 9)), draw(st.sampled_from(["", "1.0", "true"])))
        elif kind == "id":
            fields[0] = draw(st.sampled_from(
                ["+4", "1_0", "\u0663", str(2**63), str(2**63 - 1), "-1", "", "007"]))
        elif kind == "class":
            fields[1] = draw(st.sampled_from(["Toes", "elbows", "", "head ", "TOES"]))
        elif kind == "flag":
            fields[draw(st.integers(2, 4))] = draw(st.sampled_from(["True", "1", "", "yes"]))
        elif kind == "rule1":
            fields[1:3] = [draw(st.sampled_from(["head", "shoulders", "knees"])), "true"]
        elif kind == "distance":
            fields[draw(st.integers(5, 8))] = draw(_BAD_DISTANCE)
        lines.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    data = (newline.join(lines) + newline).encode("utf-8")
    if draw(st.integers(0, 5)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


DECISIONS_FILE_BYTES = st.one_of(st.binary(max_size=120), decisions_file_bytes())


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
        assert list(iter_decisions_by_line(path)) == rows
        ids, labels = load_decisions(path)
        assert (ids.dtype, labels.dtype) == (np.int64, np.int8)
        assert (ids.tolist(), labels.tolist()) == ([0, 1, 5], [3, 1, 0])

    # Every label and flag combination, ids up to 2**63 - 1, distances of
    # 0.0, 1e-7 and 1e300 among random ones, in one chunk either side of
    # the writer's 512 rows.
    @pytest.mark.parametrize("rows", [1, 511, 512, 513])
    def test_same_rows_as_the_template_writer(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        frame_ids = np.sort(rng.choice(2**63 - 2, rows, replace=False)) + 1
        frame_ids[[0, -1]] = [0, 2**63 - 1] if rows > 1 else [0]
        combinations = np.arange(rows) % 32
        labels, rule1, rule2, tied = (combinations >> 3, *((combinations >> bit) & 1 == 1
                                                             for bit in (2, 1, 0)))
        profiles = rng.exponential(300.0, (rows, 4)) * 10.0 ** rng.integers(-4, 5, (rows, 4))
        profiles.flat[:9] = [0.0, 1e-7, 1e300, 0.01, 1e15, 5e-324, 123.5, 2.0**-6, 1e16][:rows * 4]
        path = tmp_path / "decisions.csv"
        chunk = frame_ids, (labels, rule1, rule2, tied, profiles)
        assert write_decisions(path, [chunk]) == rows
        assert path.read_text(encoding="utf-8") == DECISIONS_HEADER + "\n" + "".join(
            "%d,%s,%r,%r,%r,%r\n" % (frame_id, htks.formats._DECISION_FIELDS[field], *profile)
            for frame_id, field, profile in zip(
                frame_ids.tolist(), combinations.tolist(), profiles.tolist()))

    # 256-row chunks, and uneven ones with an empty one, are each
    # formatted as they arrive; an empty chunk writes nothing.
    @pytest.mark.parametrize("sizes", [[256] * 5, [0, 1, 511, 3, 700, 2, 13]],
                             ids=["reader_chunks", "uneven"])
    def test_chunks_regrouped_into_full_matrices(self, tmp_path, sizes):
        rng = np.random.default_rng(len(sizes))
        rows = sum(sizes)
        frame_ids = np.arange(rows, dtype=np.int64) * 3
        flags = rng.integers(0, 2, (3, rows)) == 1
        whole = frame_ids, (rng.integers(0, 4, rows), *flags, rng.exponential(300.0, (rows, 4)))
        write_decisions(tmp_path / "one.csv", [whole])
        ends = np.cumsum(sizes)[:-1]
        chunks = [(ids, (labels, rule1, rule2, tied, profiles)) for ids, labels, rule1, rule2,
                  tied, profiles in zip(*(np.split(a, ends) for a in (frame_ids, *whole[1])))]
        with mock.patch.object(htks.formats, "_float_text", wraps=_float_text) as spy:
            assert write_decisions(tmp_path / "split.csv", chunks) == rows
        assert [len(call.args[0]) for call in spy.call_args_list] == [4 * n for n in sizes if n]
        assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    @given(data=decisions_file_bytes())
    def test_same_rows_and_errors_as_the_per_row_reader(self, scratch_dir, data):
        path = scratch_dir / "decisions.csv"
        path.write_bytes(data)
        assert_same_decisions(path)

    # Each rule, its message and line, on the third line of a file.
    @pytest.mark.parametrize("row, message", [
        ("0,head,false,false,false,1,2,3", "expected 9 fields, got 8"),
        ("0,head,false,false,false,1,2,3,4,5", "expected 9 fields, got 10"),
        ("+4,head,false,false,false,1,2,3,4", "frame id must be ASCII digits"),
        (f"{2**63},head,false,false,false,1,2,3,4", "frame id must be ASCII digits"),
        ("0,elbows,false,false,false,1,2,3,4", "unknown class name: 'elbows'"),
        ("0,toes,True,false,false,1,2,3,4", "expected true/false, got 'True'"),
        ("0,toes,false,false,1,1,2,3,4", "expected true/false, got '1'"),
        ("0,head,true,false,false,1,2,3,4", "rule 1 can only ever conclude toes"),
        ("0,head,false,false,false,nan,2,3,4", "bad distances: d_head must be finite"),
        ("0,head,false,false,false,1,inf,3,4", "bad distances: d_shoulders must be finite"),
        ("0,head,false,false,false,1,2,1e400,4", "bad distances: d_knees must be finite"),
        ("0,head,false,false,false,1,2,3,-1.0", "bad distances: d_ankles must be finite"),
        ("0,head,false,false,false,x,2,3,4", "bad distances: could not convert"),
    ])
    def test_each_rule_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "decisions.csv"
        write_lines(path, [DECISIONS_HEADER, "", row])
        with pytest.raises(ParseError, match=re.escape(message)) as exc_info:
            load_decisions(path)
        assert (exc_info.value.path, exc_info.value.line_no) == (path, 3)
        assert_same_decisions(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "decisions.csv"
        path.write_text("frame,stuff\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            load_decisions(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "decisions.csv"
        write_decisions(
            path, [decision_chunk([(0, FrameDecision(label=H, profile=DistanceProfile(1, 2, 3, 4)))])]
        )
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

    @given(counts=st.lists(st.lists(st.integers(0, 2**58), min_size=4, max_size=4).filter(any),
                           min_size=4, max_size=4))
    def test_round_trip_any_counts(self, scratch_dir, counts):
        rep = report(ConfusionMatrix(np.array(counts)))
        path = scratch_dir / "report.json"
        write_report_json(path, rep)
        loaded = load_report_json(path)
        assert loaded.matrix == rep.matrix
        assert report_to_dict(loaded) == report_to_dict(rep)

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
            load = load_decisions
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

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_late_byte_in_a_large_file(self, tmp_path, newline):
        # 8 MB of comment lines, then the byte: the file is read again line by
        # line to find it, never whole.
        path = tmp_path / "poses.txt"
        lines = 80_000
        path.write_bytes(("# " + "x" * 97 + newline).encode() * lines + b"# \xff\n")
        tracemalloc.start()
        try:
            error = htks.formats._not_utf8(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (error.path, error.line_no) == (path, lines + 1)
        assert peak < 1 << 20
        with pytest.raises(ParseError) as exc_info:
            list(iter_poses(path))
        assert exc_info.value.line_no == lines + 1

    # Text is decoded 8 KiB at a time, and the 65,535-byte line leaves one
    # byte of the eighth chunk to what follows: a line end or a character
    # split across two chunks counts once.
    @pytest.mark.parametrize("tail, line_no", [
        ("\r\n# y\n", 3), ("\r# y\n", 3), ("\r\r", 3), ("\n", 2), ("\u00e9\n", 2),
    ], ids=["crlf", "cr", "two-cr", "lf", "character"])
    def test_line_end_across_a_block_boundary(self, tmp_path, tail, line_no):
        path = tmp_path / "poses.txt"
        path.write_bytes(b"#" + b"x" * ((1 << 16) - 2) + tail.encode() + b"\xff\n")
        with pytest.raises(ParseError) as exc_info:
            list(iter_poses(path))
        assert exc_info.value.line_no == line_no

    def test_file_ending_inside_a_character(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_bytes(b"# a\n# b\r\n# \xc3")
        assert htks.formats._not_utf8(path).line_no == 3

    def test_line_found_past_the_first_decoded_chunk(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_bytes((b"# " + b"x" * 60 + b"\r\n") * 300 + b"# \xc3\n")
        with pytest.raises(ParseError) as exc_info:
            list(iter_poses(path))
        assert exc_info.value.line_no == 301
