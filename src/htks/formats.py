"""File formats for poses, labels, scripts, configs, decisions and reports.

All formats are line-oriented UTF-8 text. ``#`` starts a comment line and
blank lines are ignored in the hand-editable formats (poses, labels,
scripts). Parse failures raise ParseError with the file and line number.

Pose file, one frame per line, joint entries self-describing so the order
within a line never matters::

    <frame_id> head=<x>,<y>[,<conf>] left_shoulder=... (all 12 joints)

Frame ids must be strictly increasing. The head entry is expected to be
the head *center*; adapt estimator output that reports the head top.
Pose and labels files are read in chunks of ``_CHUNK_FRAMES`` (512)
lines, counted from the first line of the file. Each writer writes its
header, then text that one function spells by chunk: ``_poses_text`` of
``_CHUNK_FRAMES`` frames, ``_labels_text`` of a run of frames with one
label, ``_decisions_text`` of the frames of a chunk read. Lines exactly as
those spell them are parsed as a whole, a chunk or, for poses, a run
between other lines at a time; any other goes line by line.

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

import codecs
import io
import json
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import fields
from functools import partial
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .classifier import ClassifierConfig, DistanceProfile
from .errors import ConfigError, EmptyScript, ParseError
from .evaluation import ConfusionMatrix, EvalReport, format_report, report
from .game import PartMapping, SessionScript, SessionResult, Trial, DEFAULT_PART_MAPPING
from .pose import BodyPose, JointId, Point2, TouchLabel, LABEL_ORDER, _joint_array

__all__ = [
    "write_poses",
    "write_labels",
    "load_labels",
    "load_script",
    "classifier_config_from_dict",
    "load_classifier_config",
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


class _Staged:
    """An output ``path`` and the ``file`` written for it: for a regular or
    new file, a new temporary file beside it, which ``_all_or_none`` renames
    over it; for any other (``/dev/null``, a pipe), ``path`` itself."""

    def __init__(self, path):
        self.path, self.target = path, os.path.realpath(path)  # the file a symlink names
        self.temporary = os.path.isfile(path) or not os.path.exists(path)
        head, name = os.path.split(self.target)
        name = f".{name}.{os.urandom(6).hex()}.tmp"
        self.file = os.path.join(head, name) if self.temporary else path


@contextmanager
def _output(path) -> Iterator[Callable[[str], object]]:
    """Open ``path`` for every writer here and yield its ``write``. A path
    that cannot be opened, written, flushed or closed is a ConfigError
    naming it; any other error of the body, such as a ParseError from the
    pose reader ``write_decisions`` pulls, keeps its type. The file at
    ``path`` is replaced once the body succeeds, or for a ``_Staged`` path
    once its ``_all_or_none`` does."""
    if not isinstance(path, _Staged):  # a writer called on its own: a command of one output
        with _all_or_none() as output, output(_output, path) as write:
            yield write
        return
    fh = _writing(path.path, open, path.file, "x" if path.temporary else "w", encoding="utf-8")
    try:
        yield partial(_writing, path.path, fh.write)
    except BaseException:
        # The body's error is the one to report, not a failed flush.
        with suppress(OSError):
            fh.close()
        raise
    _writing(path.path, fh.close)


@contextmanager
def _all_or_none() -> Iterator[Callable]:
    """Yield ``output(writer, path, *args)``, which calls ``writer`` on
    ``path`` as a ``_Staged`` output and returns its result. The files
    written replace their paths only once the body has succeeded, so a
    command that fails leaves every earlier file as it was."""
    staged: list[_Staged] = []

    def output(writer, path, *args, **kwargs):
        staged.append(_Staged(path))
        return writer(staged[-1], *args, **kwargs)

    try:
        yield output
        for out in staged:
            if out.temporary:
                _writing(out.path, os.replace, out.file, out.target)
    finally:
        for out in staged:
            if out.temporary:
                Path(out.file).unlink(missing_ok=True)


def _check_files(inputs: Iterable[tuple[str, object]], outputs: Iterable = ()) -> None:
    """Raise ConfigError unless each ``(description, path)`` of ``inputs``
    is a file, in order, and no output is an input or an earlier output,
    which writing it would destroy. A None path is skipped, and so is an
    output that exists but is not a regular file (``/dev/null``, a pipe)."""
    # Keyed by a file's (st_ino, st_dev), as os.path.samefile compares
    # files, or by the resolved name of a path that does not exist yet.
    named = {}
    for description, path in inputs:
        if path is not None:
            if not os.path.isfile(path):
                problem = "is not a regular file" if os.path.exists(path) else "does not exist"
                raise ConfigError(f"{description} {problem}: {path}")
            named.setdefault(os.stat(path)[1:3], f"{description} {path}")
    for path in outputs:
        if path is not None and (os.path.isfile(path) or not os.path.exists(path)):
            key = os.stat(path)[1:3] if os.path.isfile(path) else os.path.realpath(path)
            if key in named:
                raise ConfigError(f"output {path} is also the {named[key]}")
            named[key] = f"output {path}"


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


_POSE_SEPARATORS = [np.frombuffer(text.encode(), np.uint8)[:, None]
                    for joint in JointId for text in (f" {joint.value}=", ",")]


def write_poses(path, texts: Iterable[str]) -> None:
    """Write a pose file: its header, then each of ``texts``, the lines
    ``_poses_text`` spells for the ``_pose_chunks`` of the frames."""
    with _output(path) as write:
        write("# pose frames: frame_id joint=x,y[,confidence] x12; head = head center\n")
        for text in texts:
            write(text)


def _pose_chunks(block, start: int) -> list[tuple[int, np.ndarray]]:
    """``(first frame id, frames)`` of each chunk of ``block``, whose frames are ``start`` on."""
    return [(start + i, block[i:i + _CHUNK_FRAMES]) for i in range(0, len(block), _CHUNK_FRAMES)]


def _poses_text(chunk: tuple[int, np.ndarray]) -> str:
    """The pose-file lines of a ``_pose_chunks`` chunk of ``(n, 12, 2)`` coordinates."""
    first, coords = chunk
    coords = np.asarray(coords, np.float64).reshape(len(coords), 24)
    numbers = np.split(_float_text(coords.T.ravel()), 24, axis=1)
    fields = [field for pair in zip(_POSE_SEPARATORS, numbers) for field in pair]
    return _rows_text([_int_text(np.arange(first, first + len(coords))), *fields, _NEWLINE])


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


def _data_lines(block: list[str]) -> list[str]:
    """The lines of ``block`` that ``_content`` keeps, unchanged."""
    return [line for line in block if (text := line.strip()) and not text.startswith("#")]


# Files are scanned for line ends ``_SCAN_BYTES`` at a time. Text mode
# decodes 8 KiB at a time, so a byte that is not UTF-8 also hides the lines
# before it in those 8 KiB: a range is handed out only once the bytes
# ``_DECODE_AHEAD`` past its end are known to decode.
_SCAN_BYTES, _DECODE_AHEAD = 1 << 18, 1 << 16


@contextmanager
def _pose_file(path) -> Iterator[tuple[Iterator[tuple], Callable]]:
    """Open the pose file ``path`` once for ``(ranges, parse)``: its
    ``_line_ranges``, and ``parse(range, prev_frame_id)``, its
    ``_pose_block``."""
    with open(path, "rb") as fh:
        yield _line_ranges(fh, path), partial(_pose_block, fh, path)


def _line_ranges(fh, path) -> Iterator[tuple[int, int, int, int, ParseError | None]]:
    """``(line_no, offset, length, lines, error)``: the byte ranges of the
    file ``path``, open as ``fh``, of ``_CHUNK_FRAMES`` lines each (the last
    fewer), each range's first line number and, on the last, the
    ParseError of a byte that is not UTF-8. Lines end where text mode ends
    them, at ``\\n``, ``\\r\\n`` or a lone ``\\r``; the ranges stop where text
    mode stops before such a byte."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    window = bytearray(_SCAN_BYTES)
    byte, is_end = np.frombuffer(window, np.uint8), np.empty(_SCAN_BYTES, np.bool_)
    line_no, start, ends, offset, error = 1, 0, np.empty(0, np.int64), 0, None
    while error is None:
        fh.seek(offset)  # ``fh`` is read between ranges too
        size = fh.readinto(window)
        last = size < _SCAN_BYTES
        size -= not last and window[-1] == ord("\r")  # a \r\n may start here: read it next
        end = np.equal(byte[:size], ord("\n"), out=is_end[:size])
        if window.find(b"\r", 0, size) >= 0:
            lone = byte[:size] == ord("\r")
            np.greater(lone[:-1], end[1:], out=lone[:-1])  # not a \r\n
            end |= lone
        ends = np.concatenate([ends, offset + 1 + np.flatnonzero(end)])
        offset += size
        try:
            if decoder.getstate()[0] or not window.isascii():
                decoder.decode(memoryview(window)[:size], last)
        except UnicodeDecodeError:
            error, read = _not_utf8(path), 0
            with open(path, "r", encoding="utf-8") as text, suppress(UnicodeDecodeError):
                for read, _ in enumerate(text, 1):  # the lines text mode reads before it
                    pass
            ends = ends[:read - line_no + 1]
        while len(ends) >= _CHUNK_FRAMES and (
                last or error or ends[_CHUNK_FRAMES - 1] + _DECODE_AHEAD <= offset):
            stop = int(ends[_CHUNK_FRAMES - 1])
            yield line_no, start, stop - start, _CHUNK_FRAMES, None
            line_no, start, ends = line_no + _CHUNK_FRAMES, stop, ends[_CHUNK_FRAMES:]
        if last:
            break
    if error is None and offset > (ends[-1] if len(ends) else start):
        ends = np.append(ends, offset)  # a last line with no line end
    yield line_no, start, int(ends[-1]) - start if len(ends) else 0, len(ends), error


def _range_lines(data: bytes) -> list[str]:
    """The lines of ``_range_bytes`` ``data``."""
    return list(io.StringIO(data.decode(), newline="\n"))


def _range_bytes(fh, offset: int, length: int) -> bytes:
    """``length`` bytes of the binary file ``fh`` from ``offset``, line
    ends as text mode reads them: ``\\r\\n`` and a lone ``\\r`` as ``\\n``."""
    fh.seek(offset)
    data = fh.read(length)
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


# A line exactly as ``_poses_text`` spells it is its numbers,
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
# ``_X87`` adds that it is the x87 format, its significand the low 8 of 16
# bytes: there a midpoint is a quotient whose 11 bits below a float64's
# significand are ``0x400``.
_POWERS = np.cumprod([1] + [10] * 27, dtype=np.longdouble)
_EXTENDED = bool(np.longdouble(1) + 2.0**-63 != 1 and np.longdouble(1) + 2.0**-120 == 1)
_X87 = _EXTENDED and np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16


def _canonical_arrays(data: bytes, lines: int, prev_frame_id: int | None):
    """``(ids, coords)`` of the ``lines`` lines ``data`` if they are exactly
    as ``_poses_text`` spells them, ids of up to 18 digits
    increasing after ``prev_frame_id`` and numbers ``[-]digits.digits``,
    else None. Coordinates equal ``float()``."""
    n = lines
    if n == 0 or data.translate(None, _NUMERIC) != _POSE_TEMPLATE * n:
        return None
    # The numbers must fill the slots exactly, so no digit hides in a name.
    byte = np.frombuffer(data, np.uint8)
    # After a newline, each number's first byte and the byte after its last flip the flag.
    numeric = np.frombuffer((b"\n" + data).translate(_NUMERIC_FLAGS), np.bool_)
    starts, ends = np.flatnonzero(np.diff(numeric)).reshape(-1, 2).T
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
    # Midpoints are divided again as Python ints, which round correctly.
    if not _EXTENDED:
        ties = range(len(values))
    elif _X87:
        ties = np.flatnonzero((quotients.view(np.uint64)[::2] & 0x7FF) == 0x400)
    else:
        # A midpoint q between values r and r' has 2q - r = r', a float64.
        mirrored = 2 * quotients - values
        ties = np.flatnonzero((quotients != values) & (mirrored.astype(np.float64) == mirrored))
    for i in ties:
        values[i] = int(mantissas[i]) / 10 ** int(places[i])
    np.negative(values, out=values, where=negative)
    values[long] = [float(data[starts[i]:ends[i]]) for i in long]
    if not np.isfinite(values).all():
        return None
    return ids, values.reshape(n, len(JointId), 2)


def _pose_block(fh, path, block: tuple[int, int, int, int, ParseError | None],
                prev_frame_id: int | None):
    """``(ids int64 (n,), coords float64 (n, 12, 2), strict, error)``: the
    frames of one ``_line_ranges`` range of the pose file ``path``, open as
    ``fh``, after the frame ``prev_frame_id``, with the frames and errors
    of ``_parse_pose_line`` on each line; how many of its lines were
    parsed line by line; and the ParseError that follows those frames, if
    any.

    A range of canonical lines is parsed as a whole, as bytes; in any
    other, so is each run of lines that are canonical less their numbers.
    Other lines (comments, exponents, confidences) and runs the array check
    refuses go through the strict per-line parser, in file order.
    """
    first, offset, length, lines, error = block
    data = _range_bytes(fh, offset, length)
    arrays = _canonical_arrays(data, lines, prev_frame_id)
    if arrays is not None:
        return (*arrays, 0, error)
    pieces, poses, strict = [], [], 0
    try:
        for canonical, run in groupby(enumerate(_range_lines(data), first), _on_template):
            run = list(run)
            arrays = _canonical_arrays("".join([line for _, line in run]).encode(), len(run),
                                       prev_frame_id) if canonical else None
            if arrays is not None:
                pieces += [_pose_arrays(poses), arrays]
                poses, prev_frame_id = [], int(arrays[0][-1])
                continue
            for line_no, line in _content(run):
                strict += 1
                poses.append(_parse_pose_line(line, path, line_no, prev_frame_id))
                prev_frame_id = poses[-1].frame_id
    except ParseError as exc:
        error = exc
    pieces.append(_pose_arrays(poses))
    return (*map(np.concatenate, zip(*pieces)), strict, error)


def _on_template(numbered: tuple[int, str]) -> bool:
    """Whether a ``(line_no, line)`` less its ``_NUMERIC`` bytes is ``_POSE_TEMPLATE``."""
    return numbered[1].encode().translate(None, _NUMERIC) == _POSE_TEMPLATE


def _pose_arrays(poses: list[BodyPose]) -> tuple[np.ndarray, np.ndarray]:
    return np.array([pose.frame_id for pose in poses], np.int64), _joint_array(poses)


# ---------------------------------------------------------------------------
# labels


def write_labels(path, texts: Iterable[str]) -> None:
    """Write a labels file: its header, then each of ``texts``, the lines
    ``_labels_text`` spells for runs of frames."""
    with _output(path) as write:
        write("# ground truth: frame_id class\n")
        for text in texts:
            write(text)


def _labels_text(first: int, label: TouchLabel, frames: int) -> str:
    """The labels-file lines giving ``label`` to the ``frames`` frames from ``first`` on."""
    return _rows_text([_int_text(np.arange(first, first + frames)),
                       np.frombuffer(f" {label.value}\n".encode(), np.uint8)[:, None]])


_LABEL_INDEX = {label.value: index for index, label in enumerate(LABEL_ORDER)}
# Lines as ``_labels_text`` spells them, ids of up to 18 digits (no overflow).
_CANONICAL_LABELS = re.compile(f"(?:[0-9]{{1,18}} (?:{'|'.join(_LABEL_INDEX)})\n)*", re.ASCII)


def load_labels(path) -> tuple[np.ndarray, np.ndarray]:
    """Ground truth as ``(frame_ids int64, labels int8)`` arrays in file
    order, each label a LABEL_ORDER index. The file is read in
    ``_line_ranges`` of ``_CHUNK_FRAMES`` lines: a range whose text, or
    failing that whose lines less its comment and blank lines, is as
    ``_labels_text`` spells it is parsed as a whole, any other line by
    line. Ids are sorted once at the end."""
    ids, labels, error = [np.empty(0, np.int64)], [np.empty(0, np.int8)], None
    with open(path, "rb") as fh:
        for first, offset, length, _, error in _line_ranges(fh, path):
            data = _range_bytes(fh, offset, length)
            text, lines = data.decode(), []
            if not _CANONICAL_LABELS.fullmatch(text):  # only then split into lines
                lines = _range_lines(data)
                if _CANONICAL_LABELS.fullmatch(kept := "".join(_data_lines(lines))):
                    text, lines = kept, []
            if not lines:
                for name, index in _LABEL_INDEX.items():
                    text = text.replace(name, str(index))
                rows = np.fromstring(text, np.int64, sep=" ").reshape(-1, 2)
            else:
                pairs = []
                try:
                    for line_no, line in _content(enumerate(lines, first)):
                        tokens = line.split()
                        if len(tokens) != 2:
                            raise ParseError(f"expected 'frame_id class', got {line!r}",
                                             path, line_no)
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
    if ((sorted_ids := np.sort(ids))[1:] == sorted_ids[:-1]).any():
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


def _known_keys(data, name: str, known, keys_name: str | None = None) -> None:
    """Raise ConfigError unless ``data`` is a dict whose keys are all in ``known``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a mapping, got {type(data).__name__}")
    unknown = sorted(map(str, set(data) - set(known)))
    if unknown:
        raise ConfigError(f"unknown {keys_name or name} keys: {', '.join(unknown)}")


def _load_yaml(path):
    import yaml  # here, so that commands without a YAML file never load PyYAML
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


def write_decisions(path, chunks: Iterable[tuple[np.ndarray, tuple[np.ndarray, str]]]) -> int:
    """Write a decisions CSV: its header, then the rows of each chunk
    ``(frame_ids, (labels, text))``, ``text`` the rows ``_decisions_text``
    spells for the frames, as the pipeline's ``_spelled`` gives them in
    worker processes and in the parent alike. Returns the number of rows."""
    written = 0
    with _output(path) as write:
        write(DECISIONS_HEADER + "\n")
        for frame_ids, (_, text) in chunks:
            write(text)
            written += len(frame_ids)
    return written


def _decisions_text(frame_ids: np.ndarray, decisions: tuple) -> str:
    """The decisions CSV rows of ``frame_ids``, one or more, and the
    ``_decide`` result ``decisions``."""
    labels, rule1, rule2, tied, profiles = decisions
    fields = ((labels * 2 + rule1) * 2 + rule2) * 2 + tied
    head, shoulders, knees, ankles = np.split(_float_text(profiles.T.ravel()), 4, axis=1)
    return _rows_text([_int_text(frame_ids), _DECISION_TEXT[:, fields], head, _COMMA,
                       shoulders, _COMMA, knees, _COMMA, ankles, _NEWLINE])


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
