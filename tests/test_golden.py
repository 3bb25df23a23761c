"""Golden sha256 hashes of every CLI artifact under the packaged default config.

test_criterion_7_cli_determinism compares one run with a second run of the
same code, so it cannot see output drift across a refactor. These hashes
pin the bytes themselves: a change that moves any of them must say so and
update the table deliberately.

The 20,000-step timeline, 20,000-task session and 100,000-row dataset are
the sizes of the benchmark's large CLI commands; 20,000 steps run far into
the saturated intervention regime, where last-bit drift would accumulate.
The 140,000-row dataset takes 280,000 draws, past the pure-Python budget,
so gen-data takes them from numpy, or without numpy where it cannot be
imported.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from engagekit.cli import main
from engagekit.config import default_config_path

from conftest import subprocess_env

# The README commands, then the large ones; {out} and {config} are filled in per test.
COMMANDS = {
    "gen-data": ["gen-data", "--n", "1000", "--seed", "0", "--out", "{out}"],
    "case-study": ["case-study", "--config", "{config}"],
    "simulate-session": ["simulate-session", "--tasks", "10", "--seed", "0", "--out", "{out}"],
    "simulate-timeline": ["simulate-timeline", "--config", "{config}", "--out", "{out}"],
    "simulate-session-20000": ["simulate-session", "--tasks", "20000", "--seed", "0", "--out", "{out}"],
    "simulate-timeline-20000": ["simulate-timeline", "--config", "{config}", "--steps", "20000",
                                "--out", "{out}"],
    "gen-data-100000": ["gen-data", "--n", "100000", "--seed", "0", "--out", "{out}"],
    "gen-data-140000": ["gen-data", "--n", "140000", "--seed", "0", "--out", "{out}"],
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
    ("gen-data-100000", "out.csv"): "2c6d67170a1ff32dd95560564ad90bf5b1538663bac6a68fb0a3c00e5c9207c2",
    ("gen-data-140000", "out.csv"): "d8eb9167843ee79e1f236cfe5acf9aef1ea445a9d380ed59b93ab857b4d608bd",
}


def _default_config(tmp_path):
    """The packaged profile, unchanged except that its outputs land in tmp_path."""
    raw = json.loads(default_config_path().read_text(encoding="utf-8"))
    raw["output"]["report_json"] = str(tmp_path / "report.json")
    raw["output"]["confusion_csv"] = str(tmp_path / "confusion.csv")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", [pytest.param(c, marks=pytest.mark.numpy) if c == "case-study" else c
                                     for c in COMMANDS])
def test_cli_artifacts_match_golden_hashes(command, tmp_path):
    config = _default_config(tmp_path)
    argv = [arg.format(out=tmp_path / "out.csv", config=config) for arg in COMMANDS[command]]
    assert main(argv) == 0
    expected = {name: digest for (cmd, name), digest in GOLDEN.items() if cmd == command}
    written = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected}
    assert written == expected


def _imported_modules(importtime_log: str) -> set[str]:
    """Module names from the lines ``python -X importtime`` writes to stderr."""
    return {line.rsplit("|", 1)[1].strip() for line in importtime_log.splitlines()
            if line.startswith("import time:") and "|" in line}


def _run_logging_imports(argv: list[str], cwd) -> tuple[subprocess.CompletedProcess, set[str]]:
    """A fresh ``python -X importtime -m engagekit``, and the modules it
    imported: -X importtime logs every one, so a module missing from the
    log never entered sys.modules."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "engagekit", *argv], cwd=cwd,
                          env=subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported = _imported_modules(proc.stderr)
    assert "engagekit.cli" in imported  # the log was read
    return proc, imported


@pytest.mark.parametrize("command", [c for c in COMMANDS if c.startswith("simulate-")
                                     or c in ("gen-data", "gen-data-100000")])
def test_simulate_commands_match_golden_hashes_without_numpy(command, tmp_path, capsys):
    # Draws within the budget come from the pure-Python PCG64: the simulate
    # commands, and gen-data up to 131072 rows, never import numpy.
    config = _default_config(tmp_path)
    argv = [arg.format(out=tmp_path / "out.csv", config=config) for arg in COMMANDS[command]]
    proc, imported = _run_logging_imports(argv, tmp_path)
    assert not {m for m in imported if m.split(".")[0] == "numpy"}
    if command.startswith("gen-data"):
        assert not imported & {"engagekit.config", "engagekit.simulator"}
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == GOLDEN[(command, "out.csv")]
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.numpy
def test_case_study_matches_golden_hashes_without_numpy_random(tmp_path, capsys):
    # case-study imports numpy for its arrays and its fit, but takes its
    # 2000 doubles and its permutation of 1000 from the pure-Python PCG64,
    # so it imports numpy.random only where `import numpy` does (numpy < 2).
    config = _default_config(tmp_path)
    argv = [arg.format(config=config) for arg in COMMANDS["case-study"]]
    proc, imported = _run_logging_imports(argv, tmp_path)
    numpy_alone = subprocess.run([sys.executable, "-X", "importtime", "-c", "import numpy"],
                                 env=subprocess_env(), capture_output=True, text=True, check=True)
    assert "numpy" in imported
    assert ("numpy.random" in imported) == ("numpy.random" in _imported_modules(numpy_alone.stderr))
    for name in ("report.json", "confusion.csv"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == GOLDEN[("case-study", name)]
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


# The fit's sigmoid takes np.exp, whose SIMD loops numpy picks at import, and
# its gemv products come from the OpenBLAS kernel picked at load. Each setting
# below takes one of them off this machine's default: exp on AVX2 (X86_V3),
# exp on the baseline loop, and two older gemv kernels. A setting that names
# what the machine lacks leaves the run as it was.
KERNEL_SETTINGS = {
    "exp-x86-v3": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "exp-baseline": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
    "gemv-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "gemv-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
}


@pytest.mark.numpy
@pytest.mark.parametrize("setting", KERNEL_SETTINGS)
def test_case_study_report_is_the_golden_on_other_kernels(setting, tmp_path):
    config = _default_config(tmp_path)
    argv = [arg.format(config=config) for arg in COMMANDS["case-study"]]
    proc = subprocess.run([sys.executable, "-m", "engagekit", *argv], cwd=tmp_path,
                          env={**subprocess_env(), **KERNEL_SETTINGS[setting]}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert report == GOLDEN[("case-study", "report.json")]
