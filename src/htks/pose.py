"""Domain types for single-frame 2D body keypoints and touch labels.

Conventions baked into the data model:

- "hands" are the left/right wrist joints (the upstream estimator emits
  wrists, not hands);
- the hip is a single joint, no left/right split;
- the head point is assumed to be the head *center*; files produced by
  estimators that emit the head top should be adapted upstream;
- a pose is only representable when all 12 joints are present. Partial
  detections are an ingestion error, never imputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional

import numpy as np

__all__ = [
    "JointId",
    "TouchLabel",
    "LABEL_ORDER",
    "Point2",
    "BodyPose",
]


class JointId(str, Enum):
    """The 12 tracked body joints."""

    HEAD = "head"
    LEFT_SHOULDER = "left_shoulder"
    RIGHT_SHOULDER = "right_shoulder"
    LEFT_ELBOW = "left_elbow"
    RIGHT_ELBOW = "right_elbow"
    LEFT_WRIST = "left_wrist"
    RIGHT_WRIST = "right_wrist"
    HIP = "hip"
    LEFT_KNEE = "left_knee"
    RIGHT_KNEE = "right_knee"
    LEFT_ANKLE = "left_ankle"
    RIGHT_ANKLE = "right_ankle"


class TouchLabel(str, Enum):
    """The four touch classes a frame can be assigned to."""

    HEAD = "head"
    SHOULDERS = "shoulders"
    KNEES = "knees"
    TOES = "toes"


# Canonical display/row order used everywhere a fixed label order matters.
LABEL_ORDER = (TouchLabel.HEAD, TouchLabel.SHOULDERS, TouchLabel.KNEES, TouchLabel.TOES)


@dataclass(frozen=True)
class Point2:
    """A 2D pixel location; both coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class BodyPose:
    """One frame's 12 joint locations, with optional per-joint confidences.

    Confidences are carried for ingestion-time filtering only; the
    classifier itself uses positions exclusively.
    """

    frame_id: int
    joints: Mapping[JointId, Point2]
    confidence: Optional[Mapping[JointId, float]] = None

    def __post_init__(self):
        if not isinstance(self.frame_id, int) or self.frame_id < 0:
            raise ValueError(f"frame_id must be a non-negative integer, got {self.frame_id!r}")
        joints = dict(self.joints)
        for key in joints:
            if not isinstance(key, JointId):
                raise ValueError(f"unknown joint key: {key!r}")
        missing = [j.value for j in JointId if j not in joints]
        if missing:
            raise ValueError(f"pose is missing joints: {', '.join(missing)}")
        object.__setattr__(self, "joints", joints)
        if self.confidence is not None:
            confidence = dict(self.confidence)
            for key, value in confidence.items():
                if not isinstance(key, JointId):
                    raise ValueError(f"unknown joint key in confidence map: {key!r}")
                if not (0.0 <= float(value) <= 1.0):
                    raise ValueError(f"confidence for {key.value} out of [0, 1]: {value!r}")
            object.__setattr__(self, "confidence", confidence)

    def __getitem__(self, joint: JointId) -> Point2:
        return self.joints[joint]


def _joint_array(poses: Iterable[BodyPose]) -> np.ndarray:
    """The ``(n, 12, 2)`` coordinates of ``poses``, joints in JointId order."""
    return np.array(
        [[(pose.joints[joint].x, pose.joints[joint].y) for joint in JointId] for pose in poses],
        dtype=np.float64,
    ).reshape(-1, len(JointId), 2)
