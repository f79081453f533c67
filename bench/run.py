"""Benchmark of the htks pipeline, driven through ``htks.cli.main``.

One run sets up the program and the workload's input files untimed, then
starts a worker process (worker.py) that repeats the workload's op back to
back for ``--seconds`` (a closed loop: one client, one thread) and checks
every op's outputs. The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.

    python3 bench/run.py --workload corpus_eval --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --size small    # self-check

``--workload all`` runs every workload untraced and traced and asserts that
each emits every metric of BENCHMARK.json with its unit; with
``--size small`` it is the benchmark's quick self-check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import FRAMES_PER_CLASS, Workload

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = tuple(FRAMES_PER_CLASS)
# A run must end within 180 s; this leaves room to start and report.
RUN_LIMIT_S = 170.0
COLD_STARTS = 5

END_TO_END_UNITS = {
    "frames_per_s": "frames/s",
    "op_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "formats.read_poses.frames": "count",
    "formats.read_poses.self_s": "s",
    "formats.read_poses.frames_per_s": "frames/s",
    "formats.read_poses.share": "fraction",
    "classifier.classify.calls": "count",
    "classifier.classify.self_s": "s",
    "classifier.classify.frames_per_s": "frames/s",
    "classifier.classify.share": "fraction",
    "classifier.calibration.self_s": "s",
    "formats.write_decisions.self_s": "s",
    "formats.write_decisions.frames_per_s": "frames/s",
    "formats.read_decisions.frames": "count",
    "formats.read_decisions.self_s": "s",
    "formats.read_decisions.frames_per_s": "frames/s",
    "pipeline.decision_reparse_ratio": "ratio",
    "evaluation.pairs": "count",
    "evaluation.self_s": "s",
    "game.score_session.trials": "count",
    "game.score_session.self_s": "s",
    "game.score_session.s_per_trial": "s",
    "game.score_session.share": "fraction",
    "synth.generate.frames": "count",
    "synth.generate.self_s": "s",
    "synth.generate.frames_per_s": "frames/s",
    "synth.generate.share": "fraction",
    "formats.write_poses.self_s": "s",
    "formats.write_poses.frames_per_s": "frames/s",
    "formats.write_labels.self_s": "s",
    "formats.load_labels.self_s": "s",
    "formats.load_script.self_s": "s",
    "formats.write_reports.self_s": "s",
    "pipeline.self_s": "s",
    "cli.self_s": "s",
    "traced_op_s": "s",
    "trace_overhead_s": "s",
    "classifier.rule1_fired": "count",
    "classifier.tie_broken": "count",
    "game.num_correct": "count",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def program_env() -> dict:
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def cold_start_s(env: dict, timeout: float) -> float:
    """Median wall time for a fresh interpreter to import ``htks.cli``."""
    times = []
    for _ in range(COLD_STARTS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import htks.cli"], env=env, check=True, timeout=timeout)
        times.append(perf_counter() - start)
    return statistics.median(times)


def layer_metrics(op: dict) -> dict:
    """Per-layer metrics of one traced op, from its span summary."""
    spans, wall = op["spans"], op["wall_s"]

    def self_s(*names):
        return sum(spans[name]["self_s"] for name in names)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    frames = spans["formats.read_poses"]["items"]
    reparsed = spans["formats.read_decisions"]["items"]
    made = spans["synth.generate"]["items"]
    trials = spans["game.score_session"]["measured"]
    read_poses = self_s("formats.read_poses")
    classify = self_s("classifier.classify")
    write_decisions = self_s("formats.write_decisions")
    read_decisions = self_s("formats.read_decisions")
    score = self_s("game.score_session")
    synth = self_s("synth.generate")
    write_poses = self_s("formats.write_poses")
    return {
        "formats.read_poses.frames": frames,
        "formats.read_poses.self_s": read_poses,
        "formats.read_poses.frames_per_s": rate(frames, read_poses),
        "formats.read_poses.share": read_poses / wall,
        "classifier.classify.calls": spans["classifier.classify"]["calls"],
        "classifier.classify.self_s": classify,
        "classifier.classify.frames_per_s": rate(frames, classify),
        "classifier.classify.share": classify / wall,
        "classifier.calibration.self_s": self_s("classifier.calibration"),
        "formats.write_decisions.self_s": write_decisions,
        "formats.write_decisions.frames_per_s": rate(frames, write_decisions),
        "formats.read_decisions.frames": reparsed,
        "formats.read_decisions.self_s": read_decisions,
        "formats.read_decisions.frames_per_s": rate(reparsed, read_decisions),
        "pipeline.decision_reparse_ratio": reparsed / frames if frames else 0.0,
        "evaluation.pairs": spans["evaluation.build_confusion"]["measured"],
        "evaluation.self_s": self_s("evaluation.build_confusion", "evaluation.report"),
        "game.score_session.trials": trials,
        "game.score_session.self_s": score,
        "game.score_session.s_per_trial": score / trials if trials else 0.0,
        "game.score_session.share": score / wall,
        "synth.generate.frames": made,
        "synth.generate.self_s": synth,
        "synth.generate.frames_per_s": rate(made, synth),
        "synth.generate.share": synth / wall,
        "formats.write_poses.self_s": write_poses,
        "formats.write_poses.frames_per_s": rate(made, write_poses),
        "formats.write_labels.self_s": self_s("formats.write_labels"),
        "formats.load_labels.self_s": self_s("formats.load_labels"),
        "formats.load_script.self_s": self_s("formats.load_script"),
        "formats.write_reports.self_s": self_s(
            "formats.write_report_json", "formats.write_report_text", "formats.write_session_json"
        ),
        "pipeline.self_s": self_s("pipeline.run_pipeline"),
        "cli.self_s": self_s("cli.main"),
        "traced_op_s": wall,
    }


def per_layer(result: dict) -> dict:
    """Mean over the run's traced ops, so self times still add up to the
    traced op time; plus tracing overhead and the behaviour invariants."""
    per_op = [layer_metrics(op) for op in result["traced_ops"]]
    metrics = {}
    for name in per_op[0]:
        value = statistics.fmean(op[name] for op in per_op)
        if PER_LAYER_UNITS[name] == "count" and value.is_integer():
            value = int(value)
        metrics[name] = value
    metrics["trace_overhead_s"] = metrics["traced_op_s"] - statistics.median(result["op_s"])
    metrics.update(result["invariants"] or dict.fromkeys(
        ("classifier.rule1_fired", "classifier.tie_broken", "game.num_correct"), 0
    ))
    return metrics


def end_to_end(result: dict, setup_s: float) -> dict:
    op_s = result["op_s"]
    return {
        "frames_per_s": statistics.median(result["frames"] / t for t in op_s),
        "op_s_p50": statistics.median(op_s),
        "setup_s": setup_s,
        "peak_rss_mb": result["max_rss_kb"] / 1024,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """One benchmark run; returns the result object printed as JSON."""
    deadline = perf_counter() + RUN_LIMIT_S

    def remaining() -> float:
        return max(1.0, deadline - perf_counter())

    env = program_env()
    setup_s = 0.0 if trace else cold_start_s(env, remaining())
    out_dir = ROOT / ".bench"
    work_dir = out_dir / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        Workload(name, size, seed, work_dir).prepare(env, remaining())
        request = {
            "workload": name,
            "size": size,
            "seed": seed,
            "seconds": seconds,
            # Past this many seconds the worker starts no op it could not finish.
            "budget_s": remaining() - 5.0,
            "trace": trace,
            "work_dir": str(work_dir),
            "trace_path": str(out_dir / f"trace-{name}.npz"),
        }
        request_path, result_path = work_dir / "request.json", work_dir / "result.json"
        request_path.write_text(json.dumps(request), encoding="utf-8")
        log_path = work_dir / "worker.log"
        with open(log_path, "w", encoding="utf-8") as log:
            worker = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("worker.py")),
                 str(request_path), str(result_path)],
                env=env, stdout=log, stderr=subprocess.STDOUT, timeout=remaining(),
            )
        if worker.returncode != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-4000:]
            raise BenchError(f"worker exited with code {worker.returncode}:\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if trace and not result["traced_ops"]:
            raise BenchError("the run ended before a traced op could finish")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = len(result["op_s"]) + len(result["traced_ops"])
    failed = len(result["failures"])
    for failure in result["failures"]:
        print(f"{name}: op failed: {failure}")
    metrics = per_layer(result) if trace else end_to_end(result, setup_s)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for metric, value in metrics.items():
        print(f"{name} {metric} = {value} {units[metric]}")
    print(f"{name} ops = {attempted}, ops_failed_frac = {failed / attempted}")
    print(f"{name} untraced op times (s) = {result['op_s']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def self_check(name: str, trace: bool, payload: dict) -> list[str]:
    """Problems with one run's result: wrong names or units, failed ops,
    or layer self times that do not add up to the traced op time."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {m: v["unit"] for m, v in payload["metrics"].items()}
    problems = [] if got == wanted else [f"metrics {got} differ from BENCHMARK.json {wanted}"]
    if not payload["correct"]:
        problems.append(f"{payload['failed']} of {payload['attempted']} ops failed")
    metrics = {m: v["value"] for m, v in payload["metrics"].items()}
    if not trace:
        problems += [f"{m} is not positive" for m, v in metrics.items() if not v > 0]
        return problems
    layer_sum = sum(v for m, v in metrics.items() if m.endswith(".self_s"))
    if abs(layer_sum - metrics["traced_op_s"]) > 1e-6:
        problems.append(f"self times sum to {layer_sum} s, traced op took {metrics['traced_op_s']} s")
    if name != "session_batch" and metrics["game.score_session.trials"]:
        problems.append("game scored trials on a workload without a script")
    return problems


def main() -> int:
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps the
    # running child and the work directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "htks" / "cli.py").is_file():
        print(f"error: no htks source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            payload = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
            print(json.dumps(payload))
            return 0
        problems = []
        for name in WORKLOADS:
            for trace in (False, True):
                payload = run_workload(name, args.seed, args.seconds, trace, args.size)
                problems += [f"{name} trace={int(trace)}: {p}" for p in self_check(name, trace, payload)]
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
