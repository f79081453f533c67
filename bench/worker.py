"""Run one workload's ops back to back in this process and check each op.

run.py starts this in a fresh interpreter once the inputs exist, so the
process's peak RSS covers the ops alone. In a traced run, untraced and
traced ops alternate, starting untraced, so the run also measures what
tracing costs.

Usage: python3 bench/worker.py REQUEST_JSON RESULT_JSON
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import htks.cli

from spans import Tracer, install, uninstall
from workloads import CheckFailed, Workload


def run_ops(request: dict) -> dict:
    workload = Workload(
        request["workload"], request["size"], request["seed"], Path(request["work_dir"])
    )
    argv = workload.argv()
    tracer = Tracer() if request["trace"] else None
    op_s, traced_ops, failures = [], [], []
    first = None
    began = perf_counter()
    while True:
        traced = tracer is not None and len(op_s) > len(traced_ops)
        workload.clear_outputs()
        undo = install(tracer) if traced else []
        root = tracer.begin_op() if traced else None
        start = perf_counter()
        try:
            code = htks.cli.main(argv)
            error = None if code == 0 else f"exit code {code}"
        except Exception:
            traceback.print_exc()
            error = "raised " + traceback.format_exc().strip().splitlines()[-1]
        finally:
            op_time = perf_counter() - start
            if traced:
                traced_ops.append(tracer.end_op(root))
                uninstall(undo)
            else:
                op_s.append(op_time)
        if error is None:
            try:
                fingerprint, invariants = workload.check()
                if first is None:
                    first = (fingerprint, invariants)
                elif fingerprint != first[0]:
                    raise CheckFailed("outputs differ from the first op's")
            except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
                error = f"check failed: {exc}"
        if error is not None:
            print(f"op {len(op_s) + len(traced_ops)} failed: {error}", file=sys.stderr)
            failures.append(error)
        elapsed = perf_counter() - began
        if elapsed + op_time > request["budget_s"]:
            break
        if elapsed >= request["seconds"] and (tracer is None or traced_ops):
            break
    if tracer is not None:
        tracer.save(request["trace_path"])
    return {
        "frames": workload.frames,
        "op_s": op_s,
        "traced_ops": traced_ops,
        "failures": failures,
        "invariants": first[1] if first else None,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main(request_path: str, result_path: str) -> None:
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    result = run_ops(request)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
