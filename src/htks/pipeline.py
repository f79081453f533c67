"""The end-to-end pipeline: ingest, classify, evaluate, score, report.

The stage commands communicate only through the documented file formats,
so any stage can be re-run in isolation from the artifacts of the previous
one. ``run_pipeline`` classifies once and evaluates and scores from the
labels it kept in memory, never reading ``decisions.csv`` back.

``classify_sequence`` is the package's one calibrate-and-classify path,
used by ``run_pipeline``, ``htks classify`` and library callers alike. It
streams: apart from the fixed calibration window it holds one frame at a
time. It stays in this module, not in ``classifier``, because it looks up
``calibration_scale`` and ``classify`` here, where the benchmark's tracer
(``bench/spans.py``) wraps them to time the classifier layer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .classifier import (
    CALIBRATION_WINDOW,
    ClassifierConfig,
    FrameDecision,
    Normalization,
    calibration_scale,
    classify,
)
from .errors import ConfigError, EmptyInput
from .evaluation import EvalReport, build_confusion, report
from .formats import (
    iter_poses,
    load_labels,
    load_script,
    write_decisions,
    write_report_json,
    write_report_text,
    write_session_json,
    classifier_config_from_dict,
    _load_yaml,
    _make_output_dir,
)
from .game import SessionResult, score_session
from .pose import BodyPose, TouchLabel

__all__ = [
    "RunConfig",
    "PipelineResult",
    "classify_sequence",
    "evaluate_decisions",
    "load_run_settings",
    "run_pipeline",
]

log = logging.getLogger("htks")

REPORT_FORMATS = ("table", "delimited")


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run needs; paths are checked up front."""

    poses_path: Path
    out_dir: Path
    labels_path: Optional[Path] = None
    script_path: Optional[Path] = None
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    report_format: str = "table"

    def __post_init__(self):
        if self.report_format not in REPORT_FORMATS:
            raise ConfigError(
                f"report_format must be one of {REPORT_FORMATS}, got {self.report_format!r}"
            )


@dataclass
class PipelineResult:
    decisions_path: Path
    frames: int
    report_path: Optional[Path] = None
    report_text_path: Optional[Path] = None
    session_path: Optional[Path] = None
    report: Optional[EvalReport] = None
    session: Optional[SessionResult] = None
    skipped_unlabeled: int = 0


def classify_sequence(
    poses: Iterable[BodyPose], config: ClassifierConfig
) -> Iterator[tuple[int, FrameDecision]]:
    """Classify every frame of a pose stream, yielding (frame_id, decision)
    pairs lazily; buffers only the calibration window.

    The result is an iterator, so it can be consumed once. A sequence with
    no frames raises EmptyInput under either normalization.
    """
    pose_iter = iter(poses)
    first = next(pose_iter, None)
    if first is None:
        raise EmptyInput("pose sequence contains no frames")
    pose_iter = chain([first], pose_iter)
    if config.normalization is Normalization.FIXED_PIXELS:
        scale = 1.0
    else:
        opening = list(islice(pose_iter, CALIBRATION_WINDOW))
        scale = calibration_scale(opening)
        pose_iter = chain(opening, pose_iter)
        log.info("calibration scale: %.3f px over first %d frames", scale, len(opening))
    for pose in pose_iter:
        yield pose.frame_id, classify(pose, config, scale)


def evaluate_decisions(
    decided: Sequence[tuple[int, TouchLabel]], truth: Mapping[int, TouchLabel]
) -> tuple[EvalReport, int]:
    """Join (frame_id, label) pairs with ground truth and report accuracies.

    Frames without a ground-truth label are skipped; the count of skips is
    returned alongside the report.
    """
    rep = report(build_confusion(
        (truth[frame_id], label) for frame_id, label in decided if frame_id in truth
    ))
    skipped = len(decided) - rep.matrix.total
    if skipped:
        log.warning("skipped %d frames with no ground truth", skipped)
    return rep, skipped


def load_run_settings(path) -> dict:
    """Parse a run-config YAML into normalized settings.

    Returns only the keys the file sets, out of ``classifier``,
    ``report_format``, ``poses_path``, ``labels_path``, ``script_path`` and
    ``out_dir``; path values are resolved relative to the config file's
    directory.
    """
    data = _load_yaml(path)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"run config must be a mapping, got {type(data).__name__}")
    unknown = set(data) - {"classifier", "paths", "report_format"}
    if unknown:
        raise ConfigError(f"unknown run config keys: {', '.join(sorted(unknown))}")
    settings: dict = {}
    if "classifier" in data:
        settings["classifier"] = classifier_config_from_dict(data["classifier"])
    if "report_format" in data:
        settings["report_format"] = data["report_format"]
    paths = data.get("paths", {})
    if not isinstance(paths, dict):
        raise ConfigError(f"paths must be a mapping, got {type(paths).__name__}")
    unknown = set(paths) - {"poses", "labels", "script", "out_dir"}
    if unknown:
        raise ConfigError(f"unknown path keys: {', '.join(sorted(unknown))}")
    base = Path(path).resolve().parent
    for file_key, settings_key in (
        ("poses", "poses_path"),
        ("labels", "labels_path"),
        ("script", "script_path"),
        ("out_dir", "out_dir"),
    ):
        if paths.get(file_key) is not None:
            settings[settings_key] = base / str(paths[file_key])
    return settings


def _keep_labels(
    rows: Iterable[tuple[int, FrameDecision]], kept: list[tuple[int, TouchLabel]]
) -> Iterator[tuple[int, FrameDecision]]:
    """Pass ``rows`` through, appending each row's (frame_id, label) to ``kept``."""
    for frame_id, decision in rows:
        kept.append((frame_id, decision.label))
        yield frame_id, decision


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Classify a pose file and write every requested artifact.

    Writes decisions.csv always, report.json/report.txt when labels are
    supplied, session.json when a script is supplied. Reruns with the same
    config overwrite the outputs with identical bytes. Labels and script
    are loaded first, so a bad one leaves no output behind.
    """
    for description, candidate in (
        ("pose file", config.poses_path),
        ("labels file", config.labels_path),
        ("script file", config.script_path),
    ):
        if candidate is not None and not Path(candidate).is_file():
            raise ConfigError(f"{description} does not exist: {candidate}")

    truth = None if config.labels_path is None else {
        item.frame_id: item.truth for item in load_labels(config.labels_path)
    }
    script = None if config.script_path is None else load_script(config.script_path)

    out_dir = Path(config.out_dir)
    _make_output_dir(out_dir)
    decisions_path = out_dir / "decisions.csv"
    decided: list[tuple[int, TouchLabel]] = []
    rows = classify_sequence(iter_poses(config.poses_path), config.classifier)
    if truth is not None or script is not None:
        rows = _keep_labels(rows, decided)
    frames = write_decisions(decisions_path, rows)
    log.info("classified %d frames -> %s", frames, decisions_path)
    result = PipelineResult(decisions_path=decisions_path, frames=frames)

    if truth is not None:
        rep, skipped = evaluate_decisions(decided, truth)
        result.report = rep
        result.skipped_unlabeled = skipped
        result.report_path = out_dir / "report.json"
        result.report_text_path = out_dir / "report.txt"
        write_report_json(result.report_path, rep)
        write_report_text(result.report_text_path, rep, style=config.report_format)
        log.info("overall accuracy %.2f -> %s", rep.overall_accuracy, result.report_path)

    if script is not None:
        session = score_session(script, decided, config.classifier.tie_break_order)
        result.session = session
        result.session_path = out_dir / "session.json"
        write_session_json(result.session_path, session)
        log.info(
            "session score %d/%d -> %s",
            session.num_correct,
            session.num_trials,
            result.session_path,
        )

    return result
