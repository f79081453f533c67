"""Shared pose builders and file writers for the test suite."""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest
import yaml

from htks import LABEL_ORDER, BodyPose, ClassifierConfig, JointId, Point2, SessionScript
from htks.formats import (
    _content_lines,
    _parse_pose_line,
    _pose_chunks,
    _poses_text,
    write_labels,
    write_poses,
)

# A generic standing pose; tests override individual joints as needed.
DEFAULT_COORDS = {
    JointId.HEAD: (0.0, -300.0),
    JointId.LEFT_SHOULDER: (-60.0, -225.0),
    JointId.RIGHT_SHOULDER: (60.0, -225.0),
    JointId.LEFT_ELBOW: (-90.0, -135.0),
    JointId.RIGHT_ELBOW: (90.0, -135.0),
    JointId.LEFT_WRIST: (-75.0, -40.0),
    JointId.RIGHT_WRIST: (75.0, -40.0),
    JointId.HIP: (0.0, 0.0),
    JointId.LEFT_KNEE: (-40.0, 150.0),
    JointId.RIGHT_KNEE: (40.0, 150.0),
    JointId.LEFT_ANKLE: (-45.0, 300.0),
    JointId.RIGHT_ANKLE: (45.0, 300.0),
}


def make_pose(frame_id: int = 0, confidence=None, **overrides) -> BodyPose:
    """Build a full pose; override joints by name, e.g. left_wrist=(1, 2)."""
    coords = dict(DEFAULT_COORDS)
    for name, xy in overrides.items():
        coords[JointId(name)] = xy
    joints = {joint: Point2(x, y) for joint, (x, y) in coords.items()}
    return BodyPose(frame_id=frame_id, joints=joints, confidence=confidence)


def random_pose(rng: np.random.Generator, frame_id: int = 0, span: int = 1000) -> BodyPose:
    """Random integer-coordinate pose with head and hip guaranteed apart."""
    joints = {
        joint: Point2(float(rng.integers(-span, span + 1)), float(rng.integers(-span, span + 1)))
        for joint in JointId
    }
    if joints[JointId.HEAD] == joints[JointId.HIP]:
        head = joints[JointId.HEAD]
        joints[JointId.HIP] = Point2(head.x + 1.0, head.y)
    return BodyPose(frame_id=frame_id, joints=joints)


def head_hip(pose: BodyPose) -> float:
    """The head-to-hip distance of ``pose``, by ``math.hypot``."""
    head, hip = pose[JointId.HEAD], pose[JointId.HIP]
    return math.hypot(head.x - hip.x, head.y - hip.y)


def translate_pose(pose: BodyPose, tx: float, ty: float) -> BodyPose:
    return BodyPose(
        frame_id=pose.frame_id,
        joints={j: Point2(p.x + tx, p.y + ty) for j, p in pose.joints.items()},
        confidence=pose.confidence,
    )


def scale_pose(pose: BodyPose, s: float) -> BodyPose:
    return BodyPose(
        frame_id=pose.frame_id,
        joints={j: Point2(p.x * s, p.y * s) for j, p in pose.joints.items()},
        confidence=pose.confidence,
    )


# File writers for fixtures. The writers of ``htks.formats`` take only the
# text that one function per format spells; these spell what tests build.

# ``%r`` of a Python float is its shortest repr, which the parser reads
# back to the same float; ``_float_text`` spells the same bytes.
_JOINT_ENTRIES = tuple(f"{joint.value}=%r,%r" for joint in JointId)


def pose_line(pose: BodyPose) -> str:
    """The pose-file line of ``pose``, its confidences included: the
    reference ``_poses_text`` is checked against."""
    confidence = pose.confidence or {}
    parts = [str(pose.frame_id)]
    for joint, entry in zip(JointId, _JOINT_ENTRIES):
        point = pose.joints[joint]
        conf = f",{confidence[joint]!r}" if joint in confidence else ""
        parts.append(entry % (point.x, point.y) + conf)
    return " ".join(parts) + "\n"


def save_poses(path, poses) -> None:
    """Write a pose file of BodyPose objects, a ``pose_line`` each."""
    write_poses(path, map(pose_line, poses))


def save_pose_array(path, coords: np.ndarray) -> None:
    """Write a pose file of ``(n, 12, 2)`` coordinates in JointId order,
    frame ids 0, 1, ..., spelled by chunk as ``htks generate`` spells them."""
    write_poses(path, map(_poses_text, _pose_chunks(coords, 0)))


def save_labels(path, pairs) -> None:
    """Write a labels file of ``(frame_id, TouchLabel)`` pairs, a line each."""
    write_labels(path, (f"{frame_id} {label.value}\n" for frame_id, label in pairs))


def save_script(path, script: SessionScript) -> None:
    """Write a session script: a map line per class, then a line per trial."""
    lines = [f"map {stated.value} {script.mapping.required_for(stated).value}"
             for stated in LABEL_ORDER]
    lines += [f"trial {trial.stated_part.value} {trial.start_frame} {trial.end_frame}"
              for trial in script.trials]
    Path(path).write_text("# session script\n" + "".join(line + "\n" for line in lines),
                          encoding="utf-8")


def classifier_config_dict(config: ClassifierConfig) -> dict:
    """``config`` as the mapping under ``classifier:`` in a config file."""
    return {
        "rule1_threshold_ratio": config.rule1_threshold_ratio,
        "rule2_bias_ratio": config.rule2_bias_ratio,
        "enable_rule1": config.enable_rule1,
        "enable_rule2": config.enable_rule2,
        "tie_break_order": [label.value for label in config.tie_break_order],
        "normalization": config.normalization.value,
    }


def save_classifier_config(path, config: ClassifierConfig) -> None:
    """Write a classifier config YAML file."""
    text = yaml.safe_dump({"classifier": classifier_config_dict(config)}, sort_keys=True)
    Path(path).write_text(text, encoding="utf-8")


def read_poses(path) -> Iterator[BodyPose]:
    """The poses of a pose file, each line read by the strict parser: the
    reference the chunk reader is checked against."""
    prev_frame_id = None
    for line_no, line in _content_lines(path):
        pose = _parse_pose_line(line, path, line_no, prev_frame_id)
        prev_frame_id = pose.frame_id
        yield pose


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    ``multiprocessing.active_children`` sees none started by ``os.fork``."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({f'pid {pid}' if pid else 'running'})")
