"""Golden sha256 hashes of every CLI artifact under the packaged default config.

test_criterion_7_cli_determinism compares one run with a second run of the
same code, so it cannot see output drift across a refactor. These hashes
pin the bytes themselves: a change that moves any of them must say so and
update the table deliberately.

The 20,000-step timeline and 20,000-task session are the sizes of the
benchmark's large CLI commands; 20,000 steps run far into the saturated
intervention regime, where last-bit drift would accumulate.
"""

import hashlib
import json

import pytest

from engagekit.cli import main
from engagekit.config import default_config_path

# The README commands, then the large ones; {out} and {config} are filled in per test.
COMMANDS = {
    "gen-data": ["gen-data", "--n", "1000", "--seed", "0", "--out", "{out}"],
    "case-study": ["case-study", "--config", "{config}"],
    "simulate-session": ["simulate-session", "--tasks", "10", "--seed", "0", "--out", "{out}"],
    "simulate-timeline": ["simulate-timeline", "--config", "{config}", "--out", "{out}"],
    "simulate-session-20000": ["simulate-session", "--tasks", "20000", "--seed", "0", "--out", "{out}"],
    "simulate-timeline-20000": ["simulate-timeline", "--config", "{config}", "--steps", "20000",
                                "--out", "{out}"],
}

# (command, file it writes) -> sha256 of the file's bytes
GOLDEN = {
    ("gen-data", "out.csv"): "33023f129be09bbe5c6ed23c5ff68fc479416cbc943991ecdcfa9882cda451a0",
    ("case-study", "report.json"): "23e068fc6a67cc78fa2b85d0c84067c4ca452484db270f7235570087c976b44b",
    ("case-study", "confusion.csv"): "574db651721944611c4ad1a2f125a055529f0d17095290a77cec62470c8f83b7",
    ("simulate-session", "out.csv"): "7345676b5630b1600f548d191072bf9643a7371e69dcff1cc92561e0253f22dd",
    ("simulate-timeline", "out.csv"): "94abbb48fb2e32c10fbeebe42f6701191900744570c477683bc33d78d2aa2f97",
    ("simulate-session-20000", "out.csv"): "9b967fe21e670785f890e1061ebd006ef121f8214924571bc15576d5270d0c07",
    ("simulate-timeline-20000", "out.csv"): "a1d85c4092330af4d45d74b16a54760e01d45d9703f733502b72e87e9b7678c8",
}


def _default_config(tmp_path):
    """The packaged profile, unchanged except that its outputs land in tmp_path."""
    raw = json.loads(default_config_path().read_text(encoding="utf-8"))
    raw["output"]["report_json"] = str(tmp_path / "report.json")
    raw["output"]["confusion_csv"] = str(tmp_path / "confusion.csv")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_artifacts_match_golden_hashes(command, tmp_path):
    config = _default_config(tmp_path)
    argv = [arg.format(out=tmp_path / "out.csv", config=config) for arg in COMMANDS[command]]
    assert main(argv) == 0
    expected = {name: digest for (cmd, name), digest in GOLDEN.items() if cmd == command}
    written = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected}
    assert written == expected
