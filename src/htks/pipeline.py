"""The end-to-end pipeline: ingest, classify, evaluate, score, report.

The stage commands communicate only through the documented file formats,
so any stage can be re-run in isolation from the artifacts of the previous
one. Decisions and ground truth travel as arrays of int64 frame ids and
int8 LABEL_ORDER indices. ``run_pipeline`` keeps the labels it classifies
and never reads ``decisions.csv`` back; ``htks evaluate`` and ``htks
score`` read it with ``load_decisions`` into the same arrays.

Pose files and pose streams are classified by one generator,
``_classify_chunks``: it calibrates on the opening frames of
``(frame_ids, coords)`` chunks and hands each chunk to the classifier
core. ``run_pipeline`` and ``htks classify`` feed it a pose file's chunks,
reading the file once; ``classify_sequence`` feeds it blocks of poses. It
stays here, not in ``classifier``, because it looks up
``calibration_scale`` here, where the benchmark's tracer
(``bench/spans.py``) wraps it, as it wraps ``load_labels`` and ``report``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .classifier import (
    CALIBRATION_WINDOW,
    ClassifierConfig,
    FrameDecision,
    Normalization,
    _decide,
    _frame_decisions,
    calibration_scale,
)
from .errors import ConfigError, EmptyInput, ParseError
from .evaluation import EvalReport, _tally, report
from .formats import (
    load_labels,
    load_script,
    write_decisions,
    write_report_json,
    write_report_text,
    write_session_json,
    classifier_config_from_dict,
    _all_or_none,
    _check_files,
    _known_keys,
    _load_yaml,
    _pose_chunks,
    _writing,
)
from .game import SessionResult, score_session
from .pose import BodyPose, _joint_array

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
# Decided frames joined per step, so the join's only per-frame index is the truth's sort order.
_JOIN_FRAMES = 4096


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
    pairs lazily; buffers one block of ``CALIBRATION_WINDOW`` poses.

    The result is an iterator, so it can be consumed once. A sequence with
    no frames raises EmptyInput under either normalization. A block whose
    frame overflows raises EvaluationError before yielding any decision.
    """
    poses = iter(poses)
    blocks = iter(lambda: list(islice(poses, CALIBRATION_WINDOW)), [])
    chunks = (([pose.frame_id for pose in block], _joint_array(block)) for block in blocks)
    for frame_ids, decisions in _classify_chunks(chunks, config):
        yield from zip(frame_ids, _frame_decisions(decisions))


def _classify_chunks(chunks: Iterable, config: ClassifierConfig, kept: Optional[list] = None):
    """Classify ``(frame_ids, coords)`` chunks, yielding ``(frame_ids, decisions)``
    as ``write_decisions`` takes them; ``kept`` gets each ``(frame_ids, labels)``.

    The scale comes from the first ``CALIBRATION_WINDOW`` frames of the
    chunks, read before any chunk is decided (under fixed pixels it is 1.0
    and only the first chunk is read ahead); a ParseError among them is
    raised after the frames before it, in file order. A stream with no
    frames raises EmptyInput under either normalization.
    """
    chunks = iter(chunks)
    fixed = config.normalization is Normalization.FIXED_PIXELS
    opening, frames, error = [], 0, None
    try:
        for chunk in chunks:
            opening.append(chunk)
            frames += len(chunk[0])
            if frames >= (1 if fixed else CALIBRATION_WINDOW):
                break
    except ParseError as exc:
        error, chunks = exc, ()
    if not frames:
        raise error or EmptyInput("pose sequence contains no frames")
    if fixed:
        scale = 1.0
    else:
        window = np.concatenate([coords for _, coords in opening])[:CALIBRATION_WINDOW]
        scale = calibration_scale(window)
        log.info("calibration scale: %.3f px over first %d frames", scale, len(window))
    for frame_ids, coords in chain(opening, chunks):
        decisions = _decide(frame_ids, coords, config, scale)
        if kept is not None:
            kept.append((frame_ids, decisions[0]))
        yield frame_ids, decisions
    if error is not None:
        raise error


def evaluate_decisions(
    decided: tuple[np.ndarray, np.ndarray], truth: tuple[np.ndarray, np.ndarray]
) -> tuple[EvalReport, int]:
    """Join decided ``(frame_ids, labels)`` arrays, labels as LABEL_ORDER
    indices, with ground truth of that shape and report accuracies.

    Either side may come in any order. Frames without a ground-truth label
    are skipped; the count of skips is returned alongside the report.
    """
    frame_ids, predicted = decided
    truth_ids, truth_labels = truth
    order = np.argsort(truth_ids)
    joined = [(truth_labels[:0], predicted[:0])]
    for start in range(0, len(frame_ids), _JOIN_FRAMES):
        step = slice(start, start + _JOIN_FRAMES)
        first = np.searchsorted(truth_ids, frame_ids[step], "left", sorter=order)
        found = np.searchsorted(truth_ids, frame_ids[step], "right", sorter=order) > first
        joined.append((truth_labels[order[first[found]]], predicted[step][found]))
    rep = report(_tally(*map(np.concatenate, zip(*joined))))
    skipped = len(frame_ids) - rep.matrix.total
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
    _known_keys(data, "run config", ("classifier", "paths", "report_format"))
    settings: dict = {}
    if "classifier" in data:
        settings["classifier"] = classifier_config_from_dict(data["classifier"])
    if "report_format" in data:
        settings["report_format"] = data["report_format"]
    paths = data.get("paths", {})
    _known_keys(paths, "paths", ("poses", "labels", "script", "out_dir"), "path")
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


def _run_outputs(config: RunConfig) -> list[Optional[Path]]:
    """decisions.csv, report.json, report.txt and session.json as ``run_pipeline``
    writes them: no report without labels, no session without a script."""
    out_dir, labels = Path(config.out_dir), config.labels_path is not None
    return [out_dir / "decisions.csv", out_dir / "report.json" if labels else None,
            out_dir / "report.txt" if labels else None,
            out_dir / "session.json" if config.script_path is not None else None]


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Classify a pose file and write every requested artifact.

    Writes decisions.csv always, report.json/report.txt when labels are
    supplied, session.json when a script is supplied. Reruns with the same
    config overwrite the outputs with identical bytes. Labels and script
    are loaded first, so a bad one leaves no output behind; the outputs
    replace the files at their paths only once every step has succeeded.
    """
    out_dir = Path(config.out_dir)
    decisions_path, *report_paths, session_path = outputs = _run_outputs(config)
    _check_files([("pose file", config.poses_path), ("labels file", config.labels_path),
                  ("script file", config.script_path)], outputs)

    truth = None if config.labels_path is None else load_labels(config.labels_path)
    script = None if config.script_path is None else load_script(config.script_path)

    _writing(out_dir, out_dir.mkdir, parents=True, exist_ok=True)
    kept = None if truth is None and script is None else []
    rows = _classify_chunks(_pose_chunks(config.poses_path), config.classifier, kept)
    with _all_or_none() as output:
        frames = output(write_decisions, decisions_path, rows)
        if kept is not None:
            decided = tuple(map(np.concatenate, zip(*kept)))
            kept.clear()
        log.info("classified %d frames -> %s", frames, decisions_path)
        result = PipelineResult(decisions_path=decisions_path, frames=frames)

        if truth is not None:
            rep, skipped = evaluate_decisions(decided, truth)
            result.report = rep
            result.skipped_unlabeled = skipped
            result.report_path, result.report_text_path = report_paths
            output(write_report_json, result.report_path, rep)
            output(write_report_text, result.report_text_path, rep, style=config.report_format)
            log.info("overall accuracy %.2f -> %s", rep.overall_accuracy, result.report_path)

        if script is not None:
            session = score_session(script, decided, config.classifier.tie_break_order)
            result.session = session
            result.session_path = session_path
            output(write_session_json, result.session_path, session)
            log.info(
                "session score %d/%d -> %s",
                session.num_correct,
                session.num_trials,
                result.session_path,
            )

    return result
