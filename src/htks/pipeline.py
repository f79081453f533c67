"""The end-to-end pipeline: ingest, classify, evaluate, score, report.

The stage commands communicate only through the documented file formats,
so any stage can be re-run in isolation from the artifacts of the previous
one. Decisions and ground truth travel as arrays of int64 frame ids and
int8 LABEL_ORDER indices. ``run_pipeline`` keeps the labels it classifies
and never reads ``decisions.csv`` back; ``htks evaluate`` and ``htks
score`` read it with ``load_decisions`` into the same arrays.

Pose files and pose streams are classified by one generator,
``_classify_chunks``: it calibrates on the opening frames of a stream's
blocks and hands each block to the classifier core. ``run_pipeline`` and
``htks classify`` feed it a pose file's byte ranges of lines through
``_classify_pose_file``; in a long file, with more than one CPU, worker
processes read the ranges after the calibration window with the parent's
reader, ``formats._pose_block``, and decide and spell them.
``classify_sequence`` feeds it blocks of poses. It stays here, not in
``classifier``, because it looks up ``calibration_scale`` here, where the
benchmark's tracer (``bench/spans.py``) wraps it, as it wraps
``load_labels`` and ``report``. ``_pooled`` forks those worker processes,
and those that spell ``htks generate``'s pose file for ``_pose_texts``,
and feeds them jobs and takes their results over pipes.
"""

from __future__ import annotations

import ctypes
import logging
import os
import pickle
import sys
from collections import deque
from contextlib import closing, suppress
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
from .errors import ConfigError, EmptyInput
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
    _decisions_text,
    _known_keys,
    _load_yaml,
    _pose_file,
    _poses_text,
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
# Pose-file blocks in flight per worker process.
_READ_AHEAD = 2
# Pose-file bytes per worker process. On 2 CPUs two workers gain nothing up
# to about 5,000 frames of the layout ``write_poses`` writes, 3 MB.
_WORKER_BYTES = 1_500_000
_PIPE_BYTES = 1 << 20  # of each worker's job and result pipes; see ``_Pool``
# The CPU quota of this process's cgroup, where cgroup v2 is mounted.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"
# glibc's ``mallopt`` parameters; a worker keeps up to 16 MiB of free heap.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _HEAP_KEPT = -1, -3, 16 << 20


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
    read = lambda block, _: ([pose.frame_id for pose in block], _joint_array(block), 0, None)
    for frame_ids, decisions in _classify_chunks(blocks, read, _decide, config):
        yield from zip(frame_ids, _frame_decisions(decisions))


def _classify_pose_file(path, config: ClassifierConfig, kept: Optional[list] = None):
    """``_classify_chunks`` on a pose file, yielding ``(frame_ids, (labels,
    text))``, the text its decisions rows, with ``_workers`` for its size."""
    with _pose_file(path) as (ranges, parse):
        yield from _classify_chunks(ranges, parse, _spelled, config, kept,
                                    _workers(os.path.getsize(path)), path)


def _classify_chunks(blocks: Iterable, parse, decide, config: ClassifierConfig,
                     kept: Optional[list] = None, workers: int = 1, path=None):
    """Classify ``blocks`` in order, yielding ``(frame_ids, decide(frame_ids,
    coords, config, scale))`` for each with frames; ``kept`` gets each
    ``(frame_ids, labels)``. ``parse(block, prev_frame_id)`` gives a block's
    ``(frame_ids, coords, strict, error)``: frames after ``prev_frame_id``,
    its lines parsed line by line (counted in one INFO line) and a
    ParseError raised after those frames.

    The scale comes from the first ``CALIBRATION_WINDOW`` frames, read
    before any block is decided (under fixed pixels it is 1.0 and only the
    first block with frames is read ahead). A stream with no frames raises
    EmptyInput under either normalization.

    With ``workers`` above one, the blocks are the ``_line_ranges`` of the
    pose file ``path`` and ``_pooled`` runs ``_decided_range``, ``parse``
    with no frame before, on those after the calibration window in
    ``workers`` processes. A range is read here again only where its worker
    died or its first frame line depends on the frames before: its id does
    not follow them, or its error comes before any frame.
    """
    fixed = config.normalization is Normalization.FIXED_PIXELS
    blocks, opening, prev, frames, strict, error = iter(blocks), [], None, 0, 0, None
    for block in blocks:
        ids, coords, lines, error = parse(block, prev)
        strict += lines
        if len(ids):
            opening.append((ids, coords))
            prev, frames = int(ids[-1]), frames + len(ids)
        if error is not None or frames >= (1 if fixed else CALIBRATION_WINDOW):
            break
    if not frames:
        raise error or EmptyInput("pose sequence contains no frames")
    if fixed:
        scale = 1.0
    else:
        window = np.concatenate([coords for _, coords in opening])[:CALIBRATION_WINDOW]
        scale = calibration_scale(window)
        log.info("calibration scale: %.3f px over first %d frames", scale, len(window))
    for ids, coords in opening:
        yield _kept(kept, ids, decide(ids, coords, config, scale))
    if error is not None:
        raise error
    pooled, chunks, sent = 0, len(opening), 0
    with closing(_pooled(workers, _decided_range, blocks, path, config, scale)) as results:
        for sent, (block, result) in enumerate(results, 1):
            ids, decisions, lines, error = result or ((), None, 0, None)
            if result is not None and (ids[0] > prev if len(ids) else error is None):
                pooled += len(ids) > 0
            else:
                ids, coords, lines, error = parse(block, prev)
                decisions = len(ids) and decide(ids, coords, config, scale)
            strict += lines
            if len(ids):
                prev, frames, chunks = int(ids[-1]), frames + len(ids), chunks + 1
                yield _kept(kept, ids, decisions)
            if error is not None:
                raise error
    if strict:
        log.info("%d of %d pose lines parsed line by line", strict, frames)
    if workers > 1 and sent:
        log.info("decided %d of %d chunks in %d worker processes", pooled, chunks, workers)


def _kept(kept: Optional[list], frame_ids, decisions: tuple):
    if kept is not None:
        kept.append((frame_ids, decisions[0]))
    return frame_ids, decisions


def _spelled(frame_ids: np.ndarray, coords: np.ndarray, config: ClassifierConfig, scale: float):
    """``(labels, text)``: the labels ``_decide`` gives the frames and their decisions rows."""
    decisions = _decide(frame_ids, coords, config, scale)
    return decisions[0], _decisions_text(frame_ids, decisions)


def _decided_range(block: tuple, path, config: ClassifierConfig, scale: float):
    """A worker's job: ``(frame_ids, _spelled(...), strict, error)`` of the
    ``_pose_block`` of ``block`` in the pose file ``path``, with no frame
    before it. A ParseError is returned; any other error ends the worker."""
    with _pose_file(path) as (_, parse):
        ids, coords, strict, error = parse(block, None)
    return ids, len(ids) and _spelled(ids, coords, config, scale), strict, error


def _pose_texts(chunks: Iterable[tuple[int, np.ndarray]], frames: int) -> Iterator[str]:
    """The ``_poses_text`` of each of ``chunks``, ``frames`` frames in all, in
    order: the first spelled here, its bytes per frame sizing the file for
    ``_workers``, and the others in worker processes."""
    chunks = iter(chunks)
    for first in islice(chunks, 1):
        yield (text := _poses_text(first))
        workers = _workers(len(text) * frames // len(first[1]))
        for chunk, text in _pooled(workers, _poses_text, chunks):
            yield _poses_text(chunk) if text is None else text


def _pooled(workers: int, call, jobs: Iterable, *args) -> Iterator[tuple]:
    """Yield ``(job, call(job, *args))`` for each of ``jobs`` in order, the
    calls made in a ``_Pool`` started at the first job, ``_READ_AHEAD`` jobs
    per worker in flight; None, for the caller to compute, where no pool
    runs or a worker died. Every worker is reaped when the generator ends."""
    pool, pending = None, deque()
    try:
        for index, job in enumerate(chain(jobs, [None])):
            if job is not None:
                if index == 0 and workers > 1:
                    pool = _Pool(workers, call, args)
                pending.append((job, pool and pool.sent(job)))
            while len(pending) > (0 if job is None else _READ_AHEAD * workers):
                done, worker = pending.popleft()
                yield done, None if worker is None else pool.result(worker)
    finally:
        if pool is not None:
            pool.close()


class _Pool:
    """Processes forked to run ``_work``, each with a job and a result pipe
    of ``_PIPE_BYTES``, writing a byte per job done to one notice pipe. Each
    job goes to the worker with the fewest unfinished, so a job pipe holds
    at most ``_READ_AHEAD + 2`` (98 KB each for ``generate``): writing one
    never blocks. No job is sent where a pipe cannot be enlarged, a fork
    fails or a worker died; one sent before waits in the read end kept here."""

    def __init__(self, workers: int, call, args: tuple):
        import fcntl  # here, so that commands without a pool never load it
        started = pickle.dumps((call, args))
        notices, notify = os.pipe()
        jobs, self.feeds, reads, outs = zip(*(os.pipe() + os.pipe() for _ in range(workers)))
        self.fds = [notices, *jobs, *self.feeds, *reads]  # closed by close(), not the readers
        self.results = [open(fd, "rb", closefd=False) for fd in reads]
        self.notices = open(notices, "rb", buffering=0, closefd=False)
        self.pids, self.unfinished, self.died = [], [0] * workers, True
        with suppress(OSError):
            for fd in self.feeds + reads:
                fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            for index, own in enumerate(zip(jobs, outs)):
                os.write(self.feeds[index], started)
                if not (pid := os.fork()):
                    _work(index, *own, notify, {*self.fds, *outs} - set(own))
                self.pids.append(pid)
            self.died = False
        for fd in (notify, *outs):
            os.close(fd)
        os.set_blocking(notices, False)

    def sent(self, job) -> Optional[int]:
        for worker in self.notices.read(1 << 12) or b"":  # None where none is waiting
            self.unfinished[worker] -= 1
        worker = self.unfinished.index(min(self.unfinished))
        if self.died:
            return None
        os.write(self.feeds[worker], pickle.dumps(job))
        self.unfinished[worker] += 1
        return worker

    def result(self, worker: int):
        try:
            return pickle.load(self.results[worker])
        except (EOFError, pickle.UnpicklingError):  # the worker died writing it
            self.died = True

    def close(self) -> None:
        for fd in self.fds:
            os.close(fd)
        for pid in self.pids:
            os.waitpid(pid, 0)


def _work(index: int, jobs: int, results: int, notify: int, inherited=()) -> None:
    """A worker: close ``inherited``, read ``(call, args)`` and then jobs from
    the pipe ``jobs``, pickle ``call(job, *args)`` to ``results`` and write
    ``index`` to ``notify``; exit at end of file or on any error, leaving the
    job to the parent. Ctrl-C is the parent's. Fixed glibc thresholds keep
    the heap's free top for the next job to reuse."""
    try:
        import signal
        for fd in inherited:
            os.close(fd)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # glibc only
        if mallopt is not None:
            mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
            mallopt(_M_TRIM_THRESHOLD, _HEAP_KEPT)
            mallopt(_M_MMAP_THRESHOLD, _HEAP_KEPT)
        with open(jobs, "rb") as reader, open(results, "wb") as writer:
            call, args = pickle.load(reader)
            while True:
                pickle.dump(call(pickle.load(reader), *args), writer)
                writer.flush()
                os.write(notify, bytes([index]))
    finally:
        os._exit(0)


def _workers(size: int) -> int:
    """Worker processes for ``size`` bytes of pose file: one per CPU this
    process may run on, up to the ceiling of a cgroup v2 CPU quota, per
    ``_WORKER_BYTES`` and per notice byte value; one or none means no pool,
    as where no fork is found or, from Python 3.12 on, fork warns of
    threads, which numpy's BLAS starts at import."""
    if sys.version_info >= (3, 12) or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    # cgroup v2 spells no quota "max"; where it is not mounted there is no file.
    with suppress(OSError, ValueError), open(_CPU_MAX, encoding="ascii") as fh:
        quota, period = fh.read().split()
        cpus = min(cpus, -(-int(quota) // int(period)))
    return min(cpus, size // _WORKER_BYTES, 256)


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
    rows = _classify_pose_file(config.poses_path, config.classifier, kept)
    with _all_or_none() as output, closing(rows):
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
