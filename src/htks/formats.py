"""File formats for poses, labels, scripts, configs, decisions and reports.

All formats are line-oriented UTF-8 text. ``#`` starts a comment line and
blank lines are ignored in the hand-editable formats (poses, labels,
scripts). Parse failures raise ParseError with the file and line number.

Pose file, one frame per line, joint entries self-describing so the order
within a line never matters::

    <frame_id> head=<x>,<y>[,<conf>] left_shoulder=... (all 12 joints)

Frame ids must be strictly increasing. The head entry is expected to be
the head *center*; adapt estimator output that reports the head top.

Labels file: ``<frame_id> <class>`` with class one of head, shoulders,
knees, toes.

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
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np
import yaml

from .classifier import ClassifierConfig, DistanceProfile, FrameDecision
from .errors import ConfigError, EmptyScript, ParseError
from .evaluation import ConfusionMatrix, EvalReport, format_report, report
from .game import PartMapping, SessionScript, SessionResult, Trial, DEFAULT_PART_MAPPING
from .pose import BodyPose, JointId, LabeledFrame, Point2, TouchLabel, LABEL_ORDER

__all__ = [
    "write_poses",
    "iter_poses",
    "load_poses",
    "write_labels",
    "load_labels",
    "write_script",
    "load_script",
    "classifier_config_to_dict",
    "classifier_config_from_dict",
    "load_classifier_config",
    "write_classifier_config",
    "write_decisions",
    "iter_decisions",
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
    decoder's own error does not say which line holds the byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    line_no = None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        prefix = data[: exc.start].decode("utf-8")
        line_no = prefix.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
    return ParseError("not valid UTF-8", path, line_no)


def _cannot_write(path, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write {path}: {exc.strerror or exc}")


@contextmanager
def _output(path) -> Iterator[TextIO]:
    """Open ``path`` for every writer here. A path that cannot be opened is
    a ConfigError naming it. If the body raises, the half-written file is
    removed, unless it is not a regular file (``/dev/null``, a pipe)."""
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _cannot_write(path, exc) from None
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    try:
        with fh:
            yield fh
    except BaseException:
        if regular:
            Path(path).unlink(missing_ok=True)
        raise


def _make_output_dir(path) -> None:
    """Create the directory ``path`` and its parents, if missing."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def _text_lines(fh, path) -> Iterator[str]:
    """The lines of the text file ``fh`` opened from ``path``."""
    try:
        yield from fh
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _content_lines(path) -> Iterator[tuple[int, str]]:
    """Yield (line_no, stripped_line) skipping blanks and # comments."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(_text_lines(fh, path), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield line_no, line


# ---------------------------------------------------------------------------
# poses


# One pose line: the frame id, then x,y of each joint in JointId order.
# ``%r`` of a Python float is its shortest repr, which the parser reads
# back to the same float.
_JOINT_ENTRIES = tuple(f"{joint.value}=%r,%r" for joint in JointId)
_POSE_LINE = " ".join(["%d", *_JOINT_ENTRIES]) + "\n"
# Rows formatted per write; bounds the lists a large array is turned into.
_ROWS_PER_CHUNK = 4096


def write_poses(path, poses: Iterable[BodyPose] | np.ndarray) -> None:
    """Write a pose file from BodyPose objects, or from an ``(N, 12, 2)``
    coordinate array in JointId order whose row ``i`` is frame id ``i``."""
    with _output(path) as fh:
        fh.write("# pose frames: frame_id joint=x,y[,confidence] x12; head = head center\n")
        if isinstance(poses, np.ndarray):
            rows = poses.reshape(len(poses), -1)
            for start in range(0, len(rows), _ROWS_PER_CHUNK):
                chunk = rows[start:start + _ROWS_PER_CHUNK].tolist()
                fh.write("".join([
                    _POSE_LINE % (frame_id, *row)
                    for frame_id, row in enumerate(chunk, start)
                ]))
            return
        for pose in poses:
            fh.write(_pose_line(pose))


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
    try:
        frame_id = int(tokens[0])
    except ValueError:
        raise ParseError(f"frame id is not an integer: {tokens[0]!r}", path, line_no) from None
    if frame_id < 0:
        raise ParseError(f"frame id must be non-negative: {frame_id}", path, line_no)
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


def load_poses(path) -> list[BodyPose]:
    return list(iter_poses(path))


# ---------------------------------------------------------------------------
# labels


def write_labels(path, labels: Iterable[LabeledFrame]) -> None:
    with _output(path) as fh:
        fh.write("# ground truth: frame_id class\n")
        for item in labels:
            fh.write(f"{item.frame_id} {item.truth.value}\n")


def load_labels(path) -> list[LabeledFrame]:
    labels = []
    seen = set()
    for line_no, line in _content_lines(path):
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected 'frame_id class', got {line!r}", path, line_no)
        try:
            frame_id = int(tokens[0])
        except ValueError:
            raise ParseError(f"frame id is not an integer: {tokens[0]!r}", path, line_no) from None
        try:
            truth = TouchLabel(tokens[1])
        except ValueError:
            raise ParseError(f"unknown class name: {tokens[1]!r}", path, line_no) from None
        if frame_id in seen:
            raise ParseError(f"duplicate frame id: {frame_id}", path, line_no)
        seen.add(frame_id)
        try:
            labels.append(LabeledFrame(frame_id=frame_id, truth=truth))
        except ValueError as exc:
            raise ParseError(str(exc), path, line_no) from None
    return labels


# ---------------------------------------------------------------------------
# session scripts


def write_script(path, script: SessionScript) -> None:
    with _output(path) as fh:
        fh.write("# session script\n")
        for stated in LABEL_ORDER:
            fh.write(f"map {stated.value} {script.mapping.required_for(stated).value}\n")
        for trial in script.trials:
            fh.write(
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
            try:
                start, end = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(f"trial frames must be integers: {line!r}", path, line_no) from None
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
    if not isinstance(data, dict):
        raise ConfigError(f"classifier config must be a mapping, got {type(data).__name__}")
    defaults = ClassifierConfig()
    known = set(classifier_config_to_dict(defaults))
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown classifier config keys: {', '.join(sorted(unknown))}")
    kwargs: dict = {}
    if "rule1_threshold_ratio" in data:
        kwargs["rule1_threshold_ratio"] = _as_number(data["rule1_threshold_ratio"], "rule1_threshold_ratio")
    if "rule2_bias_ratio" in data:
        kwargs["rule2_bias_ratio"] = _as_number(data["rule2_bias_ratio"], "rule2_bias_ratio")
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


def _as_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def load_classifier_config(path) -> ClassifierConfig:
    data = _load_yaml(path)
    if data is None:
        return ClassifierConfig()
    if isinstance(data, dict) and set(data) == {"classifier"}:
        data = data["classifier"]
    return classifier_config_from_dict(data)


def write_classifier_config(path, config: ClassifierConfig) -> None:
    with _output(path) as fh:
        yaml.safe_dump({"classifier": classifier_config_to_dict(config)}, fh, sort_keys=True)


def _load_yaml(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"invalid config file: {_not_utf8(path)}") from None


# ---------------------------------------------------------------------------
# per-frame decisions (CSV)


def _bool_str(value: bool) -> str:
    return "true" if value else "false"


def write_decisions(path, rows: Iterable[tuple[int, FrameDecision]]) -> int:
    """Write a decisions CSV; returns the number of rows written."""
    count = 0
    with _output(path) as fh:
        fh.write(DECISIONS_HEADER + "\n")
        for count, (frame_id, decision) in enumerate(rows, start=1):
            p = decision.profile
            fh.write(
                f"{frame_id},{decision.label.value},{_bool_str(decision.rule1_fired)},"
                f"{_bool_str(decision.rule2_applied)},{_bool_str(decision.tie_broken)},"
                f"{p.d_head!r},{p.d_shoulders!r},{p.d_knees!r},{p.d_ankles!r}\n"
            )
    return count


def _parse_bool(token: str, path, line_no: int) -> bool:
    if token == "true":
        return True
    if token == "false":
        return False
    raise ParseError(f"expected true/false, got {token!r}", path, line_no)


def iter_decisions(path) -> Iterator[tuple[int, FrameDecision]]:
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
            try:
                frame_id = int(fields[0])
            except ValueError:
                raise ParseError(f"bad frame id: {fields[0]!r}", path, line_no) from None
            try:
                label = TouchLabel(fields[1])
            except ValueError:
                raise ParseError(f"unknown class name: {fields[1]!r}", path, line_no) from None
            rule1 = _parse_bool(fields[2], path, line_no)
            rule2 = _parse_bool(fields[3], path, line_no)
            tied = _parse_bool(fields[4], path, line_no)
            try:
                profile = DistanceProfile(*(float(v) for v in fields[5:9]))
            except ValueError as exc:
                raise ParseError(f"bad distances: {exc}", path, line_no) from None
            try:
                decision = FrameDecision(
                    label=label,
                    profile=profile,
                    rule1_fired=rule1,
                    rule2_applied=rule2,
                    tie_broken=tied,
                )
            except ValueError as exc:
                raise ParseError(str(exc), path, line_no) from None
            yield frame_id, decision


def load_decisions(path) -> list[tuple[int, FrameDecision]]:
    return list(iter_decisions(path))


# ---------------------------------------------------------------------------
# evaluation reports and session results (JSON)


def _dump_json(path, payload: dict) -> None:
    with _output(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path) from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not isinstance(data, dict) or "counts" not in data:
        raise ParseError("report JSON must contain a 'counts' grid", path)
    try:
        matrix = ConfusionMatrix(data["counts"])
    except ValueError as exc:
        raise ParseError(f"bad counts grid: {exc}", path) from None
    # Percentages are derived data; recompute rather than trust the file.
    return report(matrix)


def write_report_text(path, rep: EvalReport, style: str = "table") -> None:
    with _output(path) as fh:
        fh.write(format_report(rep, style=style))


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
