"""Byte gate on the files the CLI writes.

The sha256 of every artifact of a fixed ``generate`` + ``run`` corpus is
pinned here, so a rewrite of any layer must keep the files byte for byte.
"""

import hashlib

import pytest

from htks.cli import main

GENERATE_ARGS = ["--seed", "5", "--frames-per-class", "2000", "--jitter", "0.05"]

GENERATED = {
    False: {
        "poses.txt": "0a5b4248d700fc2036c0071cbef85a1237502b4cfd19b544e1dbc999fa09212a",
        "labels.txt": "ca5f07fd61b98c83cd178434af4c8b33ede5cf019f5c4238a45c150e564a9ca6",
    },
    True: {
        "poses.txt": "f93aebfe0435aaa6d6509fbc0f4834b635d973313dc2152e12372da9d306a86f",
        "labels.txt": "304c6ab04a324bd18204932d4be778d119dc46acb5e720539b9cf6c3e052396d",
    },
}

# Two trials per class block, one straddling the knees/toes boundary, and
# three whose stated part does not match the performed class.
SCRIPT = """\
# session script
trial toes 0 49
trial toes 1950 1999
trial knees 2000 2049
trial head 2500 2549
trial shoulders 4000 4049
trial shoulders 5980 6019
trial head 6100 6149
trial knees 7950 7999
"""

RUN_ARTIFACTS = {
    "decisions.csv": "e8e57f6d8b49a6e75b6a4149cb5e7d85a1c0186de24aeaf8aa229aa74c1f3410",
    "report.json": "00de891e9f5b5a8aa99820c45879d779712927d8fdd6d7cd87d095b26acd34d6",
    "report.txt": "3c86ba2bf985ee51b354e24e817a160a9cf6403df93c6f254947d98534b8644b",
    "session.json": "bfdaa7f6ff6e1c2b3841b1e3083809c3c73cb6078dfc0fd68e929789e05096db",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate_corpus(directory, confusable: bool):
    poses, labels = directory / "poses.txt", directory / "labels.txt"
    argv = ["generate", "--out-poses", str(poses), "--out-labels", str(labels), *GENERATE_ARGS]
    assert main(argv + (["--confusable"] if confusable else [])) == 0
    return poses, labels


@pytest.mark.parametrize("confusable", [False, True], ids=["plain", "confusable"])
def test_generate_bytes(tmp_path, confusable):
    generate_corpus(tmp_path, confusable)
    assert {name: sha256(tmp_path / name) for name in GENERATED[confusable]} == (
        GENERATED[confusable]
    )


def test_run_artifact_bytes(tmp_path):
    poses, labels = generate_corpus(tmp_path, confusable=False)
    script = tmp_path / "script.txt"
    script.write_text(SCRIPT, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--poses", str(poses), "--labels", str(labels),
                 "--script", str(script), "--out-dir", str(out)])
    assert code == 0
    assert {path.name: sha256(path) for path in sorted(out.iterdir())} == RUN_ARTIFACTS
