"""Shared pose builders for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from htks import BodyPose, JointId, Point2

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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
