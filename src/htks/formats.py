"""File formats for poses, labels, scripts, configs, decisions and reports.

All formats are line-oriented UTF-8 text. ``#`` starts a comment line and
blank lines are ignored in the hand-editable formats (poses, labels,
scripts). Parse failures raise ParseError with the file and line number.

Pose file, one frame per line, joint entries self-describing so the order
within a line never matters::

    <frame_id> head=<x>,<y>[,<conf>] left_shoulder=... (all 12 joints)

Frame ids must be strictly increasing. The head entry is expected to be
the head *center*; adapt estimator output that reports the head top.
Pose and labels files are read, and pose, labels and decisions files
written, in chunks of ``_CHUNK_FRAMES`` lines. A chunk exactly as
``write_poses`` (from an array) or ``write_labels`` writes it is parsed as
a whole; any other chunk, such as one with a comment, goes line by line.

Labels file: ``<frame_id> <class>`` with class one of head, shoulders,
knees, toes. Frame ids are unique and in any order.

In every file a frame id is ASCII decimal digits, up to 2**63 - 1.

Script file: optional ``map <stated> <required>`` lines (all four classes
must be covered when overriding the default head<->toes, shoulders<->knees
pairing) followed by ``trial <stated> <start_frame> <end_frame>`` lines
with ordered, disjoint, inclusive windows.

Classifier/run configuration is YAML; see the README for the documented
defaults.
"""

from __future__ import annotations

import json
import os
import re
import stat
from contextlib import contextmanager, suppress
from dataclasses import fields
from functools import partial
from itertools import count, dropwhile, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np
import yaml

from .classifier import ClassifierConfig, DistanceProfile
from .errors import ConfigError, EmptyScript, ParseError
from .evaluation import ConfusionMatrix, EvalReport, format_report, report
from .game import PartMapping, SessionScript, SessionResult, Trial, DEFAULT_PART_MAPPING
from .pose import BodyPose, JointId, Point2, TouchLabel, LABEL_ORDER, _joint_array

__all__ = [
    "write_poses",
    "iter_poses",
    "write_labels",
    "load_labels",
    "write_script",
    "load_script",
    "classifier_config_to_dict",
    "classifier_config_from_dict",
    "load_classifier_config",
    "write_classifier_config",
    "write_decisions",
    "load_decisions",
    "report_to_dict",
    "write_report_json",
    "load_report_json",
    "write_report_text",
    "session_to_dict",
    "write_session_json",
]

DECISIONS_HEADER = (
    "frame_id,label,rule1_fired,rule2_applied,tie_broken,d_head,d_shoulders,d_knees,d_ankles"
)


def _not_utf8(path) -> ParseError:
    """A ParseError at the line of the first byte in ``path`` that is not
    UTF-8. Text files decode ahead of the line being read, so the
    decoder's own error does not say which line holds the byte. Read again
    line by line, such a byte decodes to a surrogate that cannot encode."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return ParseError("not valid UTF-8", path, line_no)
    return ParseError("not valid UTF-8", path, None)


def _writing(path, call, *args, **kwargs):
    """``call(*args, **kwargs)``, with an OSError raised as a ConfigError
    saying that the output ``path`` cannot be written."""
    try:
        return call(*args, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


@contextmanager
def _output(path) -> Iterator[Callable[[str], object]]:
    """Open ``path`` for every writer here and yield its ``write``. A path
    that cannot be opened, written, flushed or closed is a ConfigError
    naming it; any other error of the body, such as a ParseError from the
    pose reader ``write_decisions`` pulls, keeps its type. If the body
    raises, the half-written file is removed, unless it is not a regular
    file (``/dev/null``, a pipe)."""
    fh = _writing(path, open, path, "w", encoding="utf-8")
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    try:
        try:
            yield partial(_writing, path, fh.write)
        except BaseException:
            # The body's error is the one to report, not a failed flush.
            with suppress(OSError):
                fh.close()
            raise
        _writing(path, fh.close)
    except BaseException:
        if regular:
            Path(path).unlink(missing_ok=True)
        raise


@contextmanager
def _all_or_none() -> Iterator[Callable]:
    """Yield ``output(writer, path, *args)``, which calls ``writer(path,
    *args)`` and returns its result. If the body raises, the regular files
    ``output`` already wrote are removed, so a command that fails leaves
    none of its outputs rather than some of them."""
    written: list[Path] = []

    def output(writer, path, *args, **kwargs):
        result = writer(path, *args, **kwargs)
        written.append(Path(path))
        return result

    try:
        yield output
    except BaseException:
        for path in written:
            if path.is_file():
                path.unlink(missing_ok=True)
        raise


def _make_output_dir(path) -> None:
    """Create the directory ``path`` and its parents, if missing."""
    _writing(path, Path(path).mkdir, parents=True, exist_ok=True)


def _text_lines(fh, path) -> Iterator[str]:
    """The lines of the text file ``fh`` opened from ``path``."""
    try:
        yield from fh
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _content(numbered: Iterable[tuple[int, str]]) -> Iterator[tuple[int, str]]:
    """Yield (line_no, stripped_line) of ``(line_no, line)`` pairs, skipping
    blanks and # comments."""
    for line_no, raw in numbered:
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _content_lines(path) -> Iterator[tuple[int, str]]:
    """Yield (line_no, stripped_line) of ``path`` skipping blanks and # comments."""
    with open(path, "r", encoding="utf-8") as fh:
        yield from _content(enumerate(_text_lines(fh, path), 1))


# A frame id in every file: ASCII decimal digits that fit in an int64.
_FRAME_ID = re.compile("[0-9]{1,19}")
_MAX_FRAME_ID = int(np.iinfo(np.int64).max)


def _frame_id(token: str, path, line_no: int) -> int:
    """The frame id spelled by ``token``, or a ParseError at ``line_no``."""
    if _FRAME_ID.fullmatch(token):
        frame_id = int(token)
        if frame_id <= _MAX_FRAME_ID:
            return frame_id
    raise ParseError(
        f"frame id must be ASCII digits from 0 to {_MAX_FRAME_ID}: {token!r}", path, line_no
    )


# ---------------------------------------------------------------------------
# numbers as text

# The array writers spell up to ``_CHUNK_FRAMES`` lines at a time as one
# uint8 matrix with a column per line. Each field of a line is a block of
# rows, NUL where its text is shorter; the NULs are dropped on writing.
# The line readers take chunks of as many lines. Peak memory grows with it,
# mostly a chunk's text and its byte-wide masks: the tracemalloc peak of a
# 100k-frame ``htks classify`` run is 2.2 MB at 256, 4.2 MB at 512 and 8.0 MB at 1,024.
_CHUNK_FRAMES = 512
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)
# ``repr`` of a float64 v is its shortest round-trip decimal (as Ryu finds
# it; Adams, PLDI 2018). ``_shortest`` finds it for 1e-2 <= |v| < 1e15 by
# exact float64 arithmetic: y = |v| * 10**s (s <= 18, 10**s exact) is
# hi + lo (Dekker's product, 1971), and for k = 15, 16, 17 digits the
# integer M nearest y reads back as v iff |y - M| < h, half an ulp of v
# times 10**s. At most one 15-digit decimal reads back as v, so the least
# such k gives the shortest digits; at 17 every M does. |y - M| is exact
# where y >= 2**52, else within 2**-54, and never within 2**-44 of h, as
# an end of v's interval has 19 or more digits. Two M tie only where
# h > 0.5, so y > 2**52, and M then rounds half-even as ``repr`` does.
# Powers of two (interval narrower below) are short exact decimals here.
_POW10 = np.array([float(f"1e{s}") for s in range(19)])
_SPLIT = 2.0**27 + 1  # Veltkamp: x * _SPLIT - (x * _SPLIT - x) is x's top 26 bits.
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# float("1e-1") > 0.1 and float("1e-2") > 0.01: the exponents found are exact.
_DECADES = np.array([float(f"1e{e}") for e in range(-2, 16)])


def _shortest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(digits, scale, exact)``: where ``exact``, ``repr(v)`` of float64
    ``v`` spells ``digits / 10**scale`` with the sign of v."""
    a = np.abs(values)
    exact = (a >= 1e-2) & (a < 1e15)
    a = np.where(exact, a, 1.5)
    e10 = np.searchsorted(_DECADES, a, "right") - 3
    a_hi = a * _SPLIT - (a * _SPLIT - a)
    a_lo = a - a_hi
    half_ulp = np.spacing(a) / 2
    digits, scale = np.zeros(len(a), np.int64), np.zeros(len(a), np.int64)
    for k in (17, 16, 15):
        s = k - 1 - e10
        p, p_hi, p_lo = _POW10[s], _POW10_HI[s], _POW10_LO[s]
        hi = a * p
        lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
        whole = np.rint(hi)
        t = (hi - whole) + lo
        nearest = np.rint(t)
        inside = np.abs(t - nearest) < half_ulp * p
        np.copyto(digits, whole.astype(np.int64) + nearest.astype(np.int64), where=inside)
        np.copyto(scale, s, where=inside)
    return digits, scale, exact


def _digit_rows(ints: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` lowest digits of int64 ``ints`` >= 0 as ASCII rows."""
    text = np.empty((width, len(ints)), np.uint8)
    for row in text[::-1]:
        quotient = ints // 10
        row[...] = ints - quotient * 10 + 48
        ints = quotient
    return text


def _int_text(ints: np.ndarray) -> np.ndarray:
    """Non-negative int64 ``ints`` as text columns, leading zeros NUL."""
    width = len(str(int(ints.max(initial=0))))
    text = _digit_rows(ints, width)
    text[:-1] *= ints >= _POW10_INT[width - 1:0:-1, None]
    return text


def _float_text(values: np.ndarray) -> np.ndarray:
    """float64 ``values`` as text columns, ``repr(v)`` once NULs are dropped."""
    digits, scale, exact = _shortest(values)
    whole, fraction = np.divmod(digits, _POW10_INT[scale])
    places = max(1, int(scale.max(initial=0)))
    fraction_text = _digit_rows(fraction * _POW10_INT[places - scale], places)
    nonzero = np.zeros(len(values), bool)
    for row in fraction_text[:0:-1]:
        nonzero |= row != ord("0")
        row *= nonzero
    text = np.concatenate([np.where(values < 0, np.uint8(ord("-")), np.uint8(0))[None],
                           _int_text(whole), np.full((1, len(values)), ord("."), np.uint8),
                           fraction_text])
    slow = np.flatnonzero(~exact)
    if len(slow):
        spelled = np.array([repr(v) for v in values[slow].tolist()], "S")
        spelled = spelled.view(np.uint8).reshape(len(slow), -1).T
        text = np.pad(text, ((0, max(0, len(spelled) - len(text))), (0, 0)))
        text[:, slow] = 0
        text[:len(spelled), slow] = spelled
    return text


_COMMA, _NEWLINE = (np.frombuffer(text, np.uint8)[:, None] for text in (b",", b"\n"))


def _rows_text(fields: list[np.ndarray]) -> str:
    """The lines whose bytes are ``fields`` in turn, each a text array
    ``(width, lines)`` or ``(width, 1)``, with NULs dropped."""
    matrix = np.empty((max(field.shape[1] for field in fields), sum(map(len, fields))), np.uint8)
    column = 0
    for field in fields:
        matrix[:, column:column + len(field)] = field.T
        column += len(field)
    return matrix[matrix != 0].tobytes().decode()


# ---------------------------------------------------------------------------
# poses


# ``%r`` of a Python float is its shortest repr, which the parser reads
# back to the same float; ``_float_text`` spells the same bytes.
_JOINT_ENTRIES = tuple(f"{joint.value}=%r,%r" for joint in JointId)
_POSE_SEPARATORS = [np.frombuffer(text.encode(), np.uint8)[:, None]
                    for joint in JointId for text in (f" {joint.value}=", ",")]


def write_poses(path, poses: Iterable[BodyPose] | Iterable[np.ndarray] | np.ndarray) -> None:
    """Write a pose file from BodyPose objects, or from ``(n, 12, 2)`` coordinate
    blocks (or one array) in JointId order whose rows are frame ids 0, 1, ..."""
    with _output(path) as write:
        write("# pose frames: frame_id joint=x,y[,confidence] x12; head = head center\n")
        start = 0
        for block in [poses] if isinstance(poses, np.ndarray) else poses:
            if isinstance(block, BodyPose):
                write(_pose_line(block))
                continue
            block = np.asarray(block, np.float64).reshape(len(block), 24)
            for at in range(0, len(block), _CHUNK_FRAMES):
                chunk = block[at:at + _CHUNK_FRAMES]
                numbers = np.split(_float_text(chunk.T.ravel()), chunk.shape[1], axis=1)
                fields = [field for pair in zip(_POSE_SEPARATORS, numbers) for field in pair]
                write(_rows_text([_int_text(np.arange(start, start + len(chunk))), *fields,
                                  _NEWLINE]))
                start += len(chunk)


def _pose_line(pose: BodyPose) -> str:
    confidence = pose.confidence or {}
    parts = [str(pose.frame_id)]
    for joint, entry in zip(JointId, _JOINT_ENTRIES):
        point = pose.joints[joint]
        conf = f",{confidence[joint]!r}" if joint in confidence else ""
        parts.append(entry % (point.x, point.y) + conf)
    return " ".join(parts) + "\n"


def _parse_pose_line(line: str, path, line_no: int, prev_frame_id: int | None) -> BodyPose:
    tokens = line.split()
    frame_id = _frame_id(tokens[0], path, line_no)
    if prev_frame_id is not None and frame_id <= prev_frame_id:
        raise ParseError(
            f"frame ids must be strictly increasing: {frame_id} after {prev_frame_id}",
            path,
            line_no,
        )
    joints: dict[JointId, Point2] = {}
    confidence: dict[JointId, float] = {}
    for token in tokens[1:]:
        name, sep, rest = token.partition("=")
        if not sep:
            raise ParseError(f"malformed joint entry (missing '='): {token!r}", path, line_no)
        try:
            joint = JointId(name)
        except ValueError:
            raise ParseError(f"unknown joint name: {name!r}", path, line_no) from None
        if joint in joints:
            raise ParseError(f"duplicate joint: {name!r}", path, line_no)
        fields = rest.split(",")
        if len(fields) not in (2, 3):
            raise ParseError(
                f"joint entry needs x,y or x,y,confidence: {token!r}", path, line_no
            )
        try:
            point = Point2(float(fields[0]), float(fields[1]))
        except ValueError as exc:
            raise ParseError(f"bad coordinates for {name}: {exc}", path, line_no) from None
        joints[joint] = point
        if len(fields) == 3:
            try:
                confidence[joint] = float(fields[2])
            except ValueError:
                raise ParseError(
                    f"bad confidence for {name}: {fields[2]!r}", path, line_no
                ) from None
    try:
        return BodyPose(
            frame_id=frame_id, joints=joints, confidence=confidence if confidence else None
        )
    except ValueError as exc:
        raise ParseError(str(exc), path, line_no) from None


def iter_poses(path) -> Iterator[BodyPose]:
    """Stream poses from a file, validating as frames are read."""
    prev_frame_id = None
    for line_no, line in _content_lines(path):
        pose = _parse_pose_line(line, path, line_no, prev_frame_id)
        prev_frame_id = pose.frame_id
        yield pose


def _line_blocks(path) -> Iterator[tuple[int, list[str], ParseError | None]]:
    """``(line_no, block, error)``: the lines of ``path`` after its leading
    ``#`` lines (a header) in lists ``block`` of up to ``_CHUNK_FRAMES``,
    the number of each list's first line, and a byte that is not UTF-8
    that ends the last list early, so no earlier line's error is skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        header: list[None] = []  # one entry per header line dropped
        lines = dropwhile(lambda line: line.startswith("#") and not header.append(None), fh)
        for line_no in count(1, _CHUNK_FRAMES):
            block, error = [], None
            try:
                # ``extend`` keeps the lines read before a decode error.
                block.extend(islice(lines, _CHUNK_FRAMES))
            except UnicodeDecodeError:
                error = _not_utf8(path)
            yield line_no + len(header), block, error
            if error or len(block) < _CHUNK_FRAMES:
                return


# A line exactly as ``write_poses`` writes it from an array is its numbers,
# runs of ``_NUMERIC`` bytes, in the slots of ``_POSE_TEMPLATE``: the frame
# id, then x,y of every joint in JointId order. ``_POSE_GAPS`` are the
# lengths of the slots' separators, the last one the newline.
_NUMERIC = b"0123456789.-"
_NUMERIC_FLAGS = bytes(byte in _NUMERIC for byte in range(256))
_DIGITS_ONLY = bytes(byte if byte in b"0123456789" else 32 for byte in range(256))
_POSE_TEMPLATE = "".join(f" {joint.value}=," for joint in JointId).encode() + b"\n"
_POSE_GAPS = np.array([gap for joint in JointId for gap in (len(joint.value) + 2, 1)] + [1])
# Every ``10**places`` up to 10**27 is exact in a 64-bit significand, as is
# a mantissa below 10**18 and every float64 midpoint. So a quotient rounded
# once to 64 bits rounds on to the float64 ``float()`` reads, unless it
# lands on a midpoint. ``_EXTENDED`` checks by arithmetic that
# ``np.longdouble`` has such a significand (an x87 precision-control
# setting can narrow it below its type) and is not a pair of doubles.
_POWERS = np.cumprod([1] + [10] * 27, dtype=np.longdouble)
_EXTENDED = bool(np.longdouble(1) + 2.0**-63 != 1 and np.longdouble(1) + 2.0**-120 == 1)


def _canonical_arrays(lines: list[str], prev_frame_id: int | None):
    """``(ids, coords)`` of lines exactly as ``write_poses`` writes them from
    an array, ids of up to 18 digits increasing after ``prev_frame_id`` and
    numbers ``[-]digits.digits``, else None. Coordinates equal ``float()``."""
    data, n = "".join(lines).encode(), len(lines)
    if n == 0 or data.translate(None, _NUMERIC) != _POSE_TEMPLATE * n:
        return None
    # The numbers must fill the slots exactly, so no digit hides in a name.
    byte = np.frombuffer(data, np.uint8)
    numeric = np.frombuffer(data.translate(_NUMERIC_FLAGS), np.bool_)
    starts, ends = np.flatnonzero(np.diff(numeric, prepend=False, append=False)).reshape(-1, 2).T
    del numeric
    if (len(starts) != len(_POSE_GAPS) * n
            or (np.append(starts[1:], len(data)) - ends != np.tile(_POSE_GAPS, n)).any()):
        return None
    id_lengths = (ends - starts).reshape(n, -1)[:, 0]
    starts, ends = (a.reshape(n, -1)[:, 1:].ravel() for a in (starts, ends))
    # One ``.`` in each coordinate, a ``-`` only first, and a digit.
    dots = np.flatnonzero(byte == ord("."))
    negative = byte[starts] == ord("-")
    digits = data.translate(_DIGITS_ONLY, b".-")
    if (len(dots) != len(starts) or (id_lengths > 18).any() or (ends - starts - negative < 2).any()
            or not ((starts <= dots) & (dots < ends)).all()
            or len(data) - len(digits) - len(dots) != negative.sum()):
        return None
    numbers = np.fromstring(digits, np.int64, sep=" ").reshape(n, -1)
    ids, mantissas = numbers[:, 0].copy(), numbers[:, 1:].ravel()
    if not (prev_frame_id is None or ids[0] > prev_frame_id) or (np.diff(ids) <= 0).any():
        return None
    places = ends - dots - 1
    # ``np.fromstring`` reads more digits than an int64 holds as 2**63 - 1.
    long = np.flatnonzero((mantissas >= 10**18) | (places > 27))
    mantissas[long] = places[long] = 0
    quotients = mantissas.astype(np.longdouble) / _POWERS[places]
    values = quotients.astype(np.float64)
    # A midpoint q between values r and r' has 2q - r = r', a float64. Those
    # are divided again as Python ints, which round correctly.
    mirrored = 2 * quotients - values
    ties = (quotients != values) & (mirrored.astype(np.float64) == mirrored)
    for i in np.flatnonzero(ties) if _EXTENDED else range(len(values)):
        values[i] = int(mantissas[i]) / 10 ** int(places[i])
    np.negative(values, out=values, where=negative)
    values[long] = [float(data[starts[i]:ends[i]]) for i in long]
    if not np.isfinite(values).all():
        return None
    return ids, values.reshape(n, len(JointId), 2)


def _pose_chunks(path) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream a pose file as ``(ids int64 (n,), coords float64 (n, 12, 2))``
    chunks of up to ``_CHUNK_FRAMES`` frames, with the frames and errors
    of ``iter_poses``.

    A chunk of canonical lines is parsed as a whole; any other chunk goes
    through the strict per-line parser. On an error the frames before it
    are yielded first, then its ParseError is raised.
    """
    prev_frame_id = None
    for first, block, error in _line_blocks(path):
        arrays = _canonical_arrays(block, prev_frame_id)
        if arrays is None:
            poses = []
            try:
                for line_no, line in _content(enumerate(block, first)):
                    poses.append(_parse_pose_line(line, path, line_no, prev_frame_id))
                    prev_frame_id = poses[-1].frame_id
            except ParseError as exc:
                error = exc
            if poses:
                arrays = np.array([pose.frame_id for pose in poses], np.int64), _joint_array(poses)
        else:
            prev_frame_id = int(arrays[0][-1])
        if arrays is not None:
            yield arrays
        if error is not None:
            raise error


# ---------------------------------------------------------------------------
# labels


def write_labels(path, pairs: Iterable[tuple[int, TouchLabel]]) -> None:
    """Write a labels file from (frame_id, label) pairs."""
    pairs = iter(pairs)
    with _output(path) as write:
        write("# ground truth: frame_id class\n")
        while block := list(islice(pairs, _CHUNK_FRAMES)):
            # A TouchLabel is a str, so ``+`` adds its value.
            write("".join([f"{frame_id} " + truth + "\n" for frame_id, truth in block]))


_LABEL_INDEX = {label.value: index for index, label in enumerate(LABEL_ORDER)}
# Lines as ``write_labels`` writes them, ids of up to 18 digits (no overflow).
_CANONICAL_LABELS = re.compile(f"(?:[0-9]{{1,18}} (?:{'|'.join(_LABEL_INDEX)})\n)*", re.ASCII)


def load_labels(path) -> tuple[np.ndarray, np.ndarray]:
    """Ground truth as ``(frame_ids int64, labels int8)`` arrays in file
    order, each label a LABEL_ORDER index. The file is read in blocks of
    ``_CHUNK_FRAMES`` lines: a block as ``write_labels`` writes it is parsed
    as a whole, any other line by line. Ids are sorted once at the end."""
    ids, labels, error = [np.empty(0, np.int64)], [np.empty(0, np.int8)], None
    for first, block, error in _line_blocks(path):
        text = "".join(block)
        if _CANONICAL_LABELS.fullmatch(text):
            for name, index in _LABEL_INDEX.items():
                text = text.replace(name, str(index))
            rows = np.fromstring(text, np.int64, sep=" ").reshape(-1, 2)
        else:
            pairs = []
            try:
                for line_no, line in _content(enumerate(block, first)):
                    tokens = line.split()
                    if len(tokens) != 2:
                        raise ParseError(f"expected 'frame_id class', got {line!r}", path, line_no)
                    frame_id = _frame_id(tokens[0], path, line_no)
                    if tokens[1] not in _LABEL_INDEX:
                        raise ParseError(f"unknown class name: {tokens[1]!r}", path, line_no)
                    pairs.append((frame_id, _LABEL_INDEX[tokens[1]]))
            except ParseError as exc:
                error = exc
            rows = np.array(pairs, np.int64).reshape(-1, 2)
        ids.append(rows[:, 0].copy())
        labels.append(rows[:, 1].astype(np.int8))
        if error is not None:
            break
    ids = np.concatenate(ids)
    if (np.diff(np.sort(ids)) == 0).any():
        # An id repeats before any ``error``, so every line up to the first
        # repeat is valid: find that line.
        seen: set[int] = set()
        for line_no, line in _content_lines(path):
            frame_id = int(line.split()[0])
            if frame_id in seen:
                raise ParseError(f"duplicate frame id: {frame_id}", path, line_no)
            seen.add(frame_id)
    if error is not None:
        raise error
    return ids, np.concatenate(labels)


# ---------------------------------------------------------------------------
# session scripts


def write_script(path, script: SessionScript) -> None:
    with _output(path) as write:
        write("# session script\n")
        for stated in LABEL_ORDER:
            write(f"map {stated.value} {script.mapping.required_for(stated).value}\n")
        for trial in script.trials:
            write(
                f"trial {trial.stated_part.value} {trial.start_frame} {trial.end_frame}\n"
            )


def load_script(path) -> SessionScript:
    mapping_entries: dict[TouchLabel, TouchLabel] = {}
    mapping_line = None
    trials: list[Trial] = []
    for line_no, line in _content_lines(path):
        tokens = line.split()
        if tokens[0] == "map":
            if len(tokens) != 3:
                raise ParseError(f"expected 'map <stated> <required>', got {line!r}", path, line_no)
            try:
                stated, required = TouchLabel(tokens[1]), TouchLabel(tokens[2])
            except ValueError as exc:
                raise ParseError(f"unknown class name in map: {exc}", path, line_no) from None
            if stated in mapping_entries:
                raise ParseError(f"duplicate map entry for {stated.value!r}", path, line_no)
            mapping_entries[stated] = required
            mapping_line = line_no
        elif tokens[0] == "trial":
            if len(tokens) != 4:
                raise ParseError(
                    f"expected 'trial <stated> <start> <end>', got {line!r}", path, line_no
                )
            try:
                stated = TouchLabel(tokens[1])
            except ValueError:
                raise ParseError(f"unknown class name: {tokens[1]!r}", path, line_no) from None
            start, end = (_frame_id(token, path, line_no) for token in tokens[2:])
            try:
                trials.append(Trial(stated_part=stated, start_frame=start, end_frame=end))
            except ValueError as exc:
                raise ParseError(str(exc), path, line_no) from None
        else:
            raise ParseError(f"unknown directive: {tokens[0]!r}", path, line_no)
    if mapping_entries:
        try:
            mapping = PartMapping(mapping_entries)
        except ValueError as exc:
            raise ParseError(str(exc), path, mapping_line) from None
    else:
        mapping = DEFAULT_PART_MAPPING
    try:
        return SessionScript(trials=tuple(trials), mapping=mapping)
    except (ValueError, EmptyScript) as exc:
        raise ParseError(str(exc), path) from None


# ---------------------------------------------------------------------------
# classifier configuration (YAML)


def classifier_config_to_dict(config: ClassifierConfig) -> dict:
    return {
        "rule1_threshold_ratio": config.rule1_threshold_ratio,
        "rule2_bias_ratio": config.rule2_bias_ratio,
        "enable_rule1": config.enable_rule1,
        "enable_rule2": config.enable_rule2,
        "tie_break_order": [label.value for label in config.tie_break_order],
        "normalization": config.normalization.value,
    }


def classifier_config_from_dict(data: dict) -> ClassifierConfig:
    _known_keys(data, "classifier config", [f.name for f in fields(ClassifierConfig)])
    return ClassifierConfig(**data)


def load_classifier_config(path) -> ClassifierConfig:
    data = _load_yaml(path)
    if data is None:
        return ClassifierConfig()
    if isinstance(data, dict) and set(data) == {"classifier"}:
        data = data["classifier"]
    return classifier_config_from_dict(data)


def write_classifier_config(path, config: ClassifierConfig) -> None:
    with _output(path) as write:
        write(yaml.safe_dump({"classifier": classifier_config_to_dict(config)}, sort_keys=True))


def _known_keys(data, name: str, known, keys_name: str | None = None) -> None:
    """Raise ConfigError unless ``data`` is a dict whose keys are all in ``known``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a mapping, got {type(data).__name__}")
    unknown = sorted(map(str, set(data) - set(known)))
    if unknown:
        raise ConfigError(f"unknown {keys_name or name} keys: {', '.join(unknown)}")


def _load_yaml(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"invalid config file: {_not_utf8(path)}") from None
    # ValueError: a value YAML's constructors reject, such as the date 2001-13-45.
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from None


# ---------------------------------------------------------------------------
# per-frame decisions (CSV)


# The ``label,rule1_fired,rule2_applied,tie_broken`` fields of a decisions
# row, indexed by ``((label * 2 + rule1) * 2 + rule2) * 2 + tied`` with the
# label as its LABEL_ORDER index.
_DECISION_FIELDS = tuple(
    f"{label.value},{rule1},{rule2},{tied}"
    for label in LABEL_ORDER
    for rule1 in ("false", "true")
    for rule2 in ("false", "true")
    for tied in ("false", "true")
)
_DECISION_TEXT = np.array([f",{fields}," for fields in _DECISION_FIELDS], "S")
_DECISION_TEXT = _DECISION_TEXT.view(np.uint8).reshape(len(_DECISION_FIELDS), -1).T


def write_decisions(path, chunks: Iterable[tuple[np.ndarray, tuple]]) -> int:
    """Write a decisions CSV; returns the number of rows written.

    Each chunk is ``(frame_ids, (labels, rule1_fired, rule2_applied,
    tie_broken, profiles))`` as the classifier core returns it: LABEL_ORDER
    indices, three boolean arrays and the ``(n, 4)`` distances.
    """
    written = 0
    with _output(path) as write:
        write(DECISIONS_HEADER + "\n")
        for frame_ids, (labels, rule1, rule2, tied, profiles) in chunks:
            if not len(frame_ids):
                continue  # ``_rows_text`` would stretch the separators to one line
            fields = ((labels * 2 + rule1) * 2 + rule2) * 2 + tied
            head, shoulders, knees, ankles = np.split(_float_text(profiles.T.ravel()), 4, axis=1)
            write(_rows_text([_int_text(frame_ids), _DECISION_TEXT[:, fields], head, _COMMA,
                              shoulders, _COMMA, knees, _COMMA, ankles, _NEWLINE]))
            written += len(frame_ids)
    return written


def load_decisions(path) -> tuple[np.ndarray, np.ndarray]:
    """A decisions CSV as ``(frame_ids int64, labels int8)`` arrays in file
    order, labels as LABEL_ORDER indices, as ``load_labels`` returns. Every
    row is checked, in order: nine fields, the frame id, the class, three
    flags, four distances finite and >= 0, and rule 1 fired only on toes."""
    frame_ids, labels = [], []
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
            frame_ids.append(_frame_id(fields[0], path, line_no))
            label = _LABEL_INDEX.get(fields[1])
            if label is None:
                raise ParseError(f"unknown class name: {fields[1]!r}", path, line_no)
            for flag in fields[2:5]:
                if flag != "true" and flag != "false":
                    raise ParseError(f"expected true/false, got {flag!r}", path, line_no)
            try:
                distances = [float(value) for value in fields[5:]]
                if not all(0.0 <= value < np.inf for value in distances):
                    DistanceProfile(*distances)  # raises with the class's own message
            except ValueError as exc:
                raise ParseError(f"bad distances: {exc}", path, line_no) from None
            if fields[2] == "true" and label != _LABEL_INDEX[TouchLabel.TOES.value]:
                raise ParseError("rule 1 can only ever conclude toes", path, line_no)
            labels.append(label)
    return np.array(frame_ids, np.int64), np.array(labels, np.int8)


# ---------------------------------------------------------------------------
# evaluation reports and session results (JSON)


def _dump_json(path, payload: dict) -> None:
    with _output(path) as write:
        write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def report_to_dict(rep: EvalReport) -> dict:
    return {
        "labels": [label.value for label in LABEL_ORDER],
        "counts": rep.matrix.counts.tolist(),
        "row_percentages": rep.row_percentages.tolist(),
        "per_class_accuracy": {
            label.value: rep.per_class_accuracy[label] for label in LABEL_ORDER
        },
        "overall_accuracy": rep.overall_accuracy,
    }


def write_report_json(path, rep: EvalReport) -> None:
    _dump_json(path, report_to_dict(rep))


def load_report_json(path) -> EvalReport:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    # A ValueError is a JSONDecodeError or an int of more than 4300 digits.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}", path) from None
    if not isinstance(data, dict) or "counts" not in data:
        raise ParseError("report JSON must contain a 'counts' grid", path)
    try:
        matrix = ConfusionMatrix(data["counts"])
    except ValueError as exc:
        raise ParseError(f"bad counts grid: {exc}", path) from None
    # Percentages are derived data; recompute rather than trust the file.
    return report(matrix)


def write_report_text(path, rep: EvalReport, style: str = "table") -> None:
    with _output(path) as write:
        write(format_report(rep, style=style))


def session_to_dict(result: SessionResult) -> dict:
    return {
        "per_trial": [
            {
                "stated_part": t.stated_part.value,
                "required_part": t.required_part.value,
                "observed_part": t.observed_part.value if t.observed_part else "undecided",
                "correct": t.correct,
            }
            for t in result.per_trial
        ],
        "num_correct": result.num_correct,
        "num_trials": result.num_trials,
        "score_fraction": result.score_fraction,
    }


def write_session_json(path, result: SessionResult) -> None:
    _dump_json(path, session_to_dict(result))
