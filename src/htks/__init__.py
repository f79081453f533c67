"""Touch classification, session scoring and evaluation for
Head-Toes-Knees-Shoulders motion data from 2D body keypoints."""

from .classifier import (
    CALIBRATION_WINDOW,
    DEFAULT_TIE_BREAK_ORDER,
    ClassifierConfig,
    DistanceProfile,
    FrameDecision,
    Normalization,
    calibration_scale,
    classify,
    classify_baseline,
    distance_profile,
)
from .errors import (
    ConfigError,
    DegeneratePose,
    EmptyClassRow,
    EmptyInput,
    EmptyScript,
    EvaluationError,
    HtksError,
    InvalidScale,
    ParseError,
)
from .evaluation import (
    ConfusionMatrix,
    EvalReport,
    ReportDelta,
    build_confusion,
    compare_reports,
    format_report,
    report,
)
from .game import (
    DEFAULT_PART_MAPPING,
    PartMapping,
    SessionResult,
    SessionScript,
    Trial,
    TrialOutcome,
    aggregate_trial,
    score_session,
)
from .pose import (
    LABEL_ORDER,
    BodyPose,
    JointId,
    Point2,
    TouchLabel,
    euclidean,
)
from .pipeline import classify_sequence
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "BodyPose",
    "CALIBRATION_WINDOW",
    "ClassifierConfig",
    "ConfigError",
    "ConfusionMatrix",
    "DEFAULT_PART_MAPPING",
    "DEFAULT_TIE_BREAK_ORDER",
    "DegeneratePose",
    "DistanceProfile",
    "EmptyClassRow",
    "EmptyInput",
    "EmptyScript",
    "EvalReport",
    "EvaluationError",
    "FrameDecision",
    "HtksError",
    "InvalidScale",
    "JointId",
    "LABEL_ORDER",
    "Normalization",
    "ParseError",
    "PartMapping",
    "Point2",
    "ReportDelta",
    "SessionResult",
    "SessionScript",
    "SynthConfig",
    "TouchLabel",
    "Trial",
    "TrialOutcome",
    "aggregate_trial",
    "build_confusion",
    "calibration_scale",
    "classify",
    "classify_baseline",
    "classify_sequence",
    "compare_reports",
    "distance_profile",
    "euclidean",
    "format_report",
    "generate",
    "report",
    "score_session",
]
