"""The benchmark's workloads: the inputs each one is given, the op a run
repeats, and the checks every op's outputs must pass.

Inputs come from the program's own ``generate`` command, run in a separate
process before anything is timed; session scripts are written here. The op
itself only ever sees files.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

JITTER = "0.05"
# Synthetic sequences are emitted one class block after another, in this order.
CLASS_ORDER = ("head", "shoulders", "knees", "toes")
# The default script mapping: each stated part requires its partner.
PARTNER = {"head": "toes", "toes": "head", "shoulders": "knees", "knees": "shoulders"}
TRIAL_FRAMES = 50
MIN_ACCURACY = 99.0

# Frames per class at each size; the small size is for the self-check.
# For session_batch it is a multiple of TRIAL_FRAMES, so no trial straddles
# two class blocks.
FRAMES_PER_CLASS = {
    "corpus_eval": {"full": 25_000, "small": 250},
    "session_batch": {"full": 12_500, "small": 250},
    "generate": {"full": 12_500, "small": 125},
}


class CheckFailed(Exception):
    """An op's outputs are wrong."""


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def count_content_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith("#"))


def decision_counts(path: Path) -> dict:
    """Rows and rule activity in a decisions CSV."""
    rows = rule1 = tied = 0
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            fields = line.split(",")
            rows += 1
            rule1 += fields[2] == "true"
            tied += fields[4] == "true"
    return {"rows": rows, "classifier.rule1_fired": rule1, "classifier.tie_broken": tied}


def generate_argv(poses: Path, labels: Path, seed: int, frames_per_class: int) -> list[str]:
    return [
        "generate", "--out-poses", str(poses), "--out-labels", str(labels),
        "--seed", str(seed), "--frames-per-class", str(frames_per_class), "--jitter", JITTER,
    ]


class Workload:
    """One workload at one size and seed, working in ``work_dir``."""

    def __init__(self, name: str, size: str, seed: int, work_dir: Path):
        self.name = name
        self.seed = seed
        self.frames_per_class = FRAMES_PER_CLASS[name][size]
        self.frames = 4 * self.frames_per_class
        self.poses = work_dir / "poses.txt"
        self.labels = work_dir / "labels.txt"
        self.script = work_dir / "script.txt"
        self.out = work_dir / "out"

    def prepare(self, env: dict, timeout: float) -> None:
        """Write the op's input files; run before anything is timed."""
        if self.name == "generate":
            return
        subprocess.run(
            [sys.executable, "-m", "htks.cli"]
            + generate_argv(self.poses, self.labels, self.seed, self.frames_per_class),
            env=env, check=True, timeout=timeout, stdout=subprocess.DEVNULL,
        )
        if self.name == "session_batch":
            self.labels.unlink()
            self.write_script()

    def write_script(self) -> None:
        """Back-to-back trials over every frame; each trial lies inside one
        class block, and every fourth states a part whose required response
        is not the class performed, so exactly a quarter score wrong."""
        rng = random.Random(self.seed)
        lines = ["# session script"]
        for index, start in enumerate(range(0, self.frames, TRIAL_FRAMES)):
            performed = CLASS_ORDER[start // self.frames_per_class]
            stated = PARTNER[performed]
            if index % 4 == 3:
                stated = rng.choice([part for part in CLASS_ORDER if part != stated])
            lines.append(f"trial {stated} {start} {start + TRIAL_FRAMES - 1}")
        self.script.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @property
    def trials(self) -> int:
        return self.frames // TRIAL_FRAMES

    def argv(self) -> list[str]:
        if self.name == "generate":
            return generate_argv(
                self.out / "poses.txt", self.out / "labels.txt", self.seed, self.frames_per_class
            )
        inputs = ["--labels", str(self.labels)] if self.name == "corpus_eval" else [
            "--script", str(self.script)
        ]
        return ["run", "--poses", str(self.poses), *inputs, "--out-dir", str(self.out)]

    def clear_outputs(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        for path in self.out.iterdir():
            path.unlink()

    def check(self) -> tuple[dict, dict]:
        """Check the last op's outputs; returns their fingerprint (sha256
        per file) and the behaviour invariants counted from them."""
        fingerprint = {path.name: sha256(path) for path in sorted(self.out.iterdir())}
        invariants = {"classifier.rule1_fired": 0, "classifier.tie_broken": 0, "game.num_correct": 0}
        if self.name == "generate":
            for path in (self.out / "poses.txt", self.out / "labels.txt"):
                lines = count_content_lines(path)
                if lines != self.frames:
                    raise CheckFailed(f"{path.name} holds {lines} frames, expected {self.frames}")
            return fingerprint, invariants
        counts = decision_counts(self.out / "decisions.csv")
        if counts.pop("rows") != self.frames:
            raise CheckFailed(f"decisions.csv does not hold {self.frames} rows")
        invariants.update(counts)
        if self.name == "corpus_eval":
            report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
            if sum(map(sum, report["counts"])) != self.frames:
                raise CheckFailed("report.json does not count every frame")
            if not report["overall_accuracy"] >= MIN_ACCURACY:
                raise CheckFailed(f"overall accuracy {report['overall_accuracy']} < {MIN_ACCURACY}")
        else:
            session = json.loads((self.out / "session.json").read_text(encoding="utf-8"))
            expected = self.trials - self.trials // 4
            if (session["num_trials"], session["num_correct"]) != (self.trials, expected):
                raise CheckFailed(
                    f"session scored {session['num_correct']}/{session['num_trials']}, "
                    f"expected {expected}/{self.trials}"
                )
            invariants["game.num_correct"] = session["num_correct"]
        return fingerprint, invariants
