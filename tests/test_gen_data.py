"""gen-data against the dataset it stands for.

``gen-data`` streams its rows from the draws instead of building a
``Dataset``, and takes its draws without numpy where ``rng``'s rule allows.
Its file and its stdout line must still be those of
``write_dataset_csv(generate_synthetic_dataset(n, seed))`` and that
dataset's ``positive_rate``, on the numpy path (in this process, which
loads ``numpy.random`` below) and on the pure-Python one (a fresh
interpreter where numpy cannot be imported, which draws past the
pure-Python budget without it).
Sizes straddle the writer's chunk of 4096 rows and 131072, where the 2n
draws reach the pure-Python budget.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile

import numpy.random  # noqa: F401  (rng's rule then draws through numpy here)
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engagekit import cli
from engagekit.cli import main
from engagekit.regression import generate_synthetic_dataset
from engagekit.rng import _PURE_BUDGET, MAX_SEED, _pcg64_random
from engagekit.storage import _CHUNK_ROWS, write_dataset_csv

from conftest import subprocess_env

# The largest n whose 2n draws a fresh process takes in pure Python before
# it turns to numpy.
LAST_PURE_N = _PURE_BUDGET // 2

sizes = st.one_of(
    st.integers(1, 300),
    st.integers(_CHUNK_ROWS - 6, _CHUNK_ROWS + 6),
    st.integers(LAST_PURE_N - 6, LAST_PURE_N + 6),
)
seeds = st.integers(0, MAX_SEED)


def reference(tmp, n, seed):
    """The bytes and stdout line gen-data must give, from the Dataset path."""
    data = generate_synthetic_dataset(n, seed)
    path = os.path.join(tmp, "reference.csv")
    write_dataset_csv(path, data)
    with open(path, "rb") as handle:
        return handle.read(), f"(positive rate {data.positive_rate:.4f})\n"


def gen_data_argv(out, n, seed):
    return ["gen-data", "--n", str(n), "--seed", str(seed), "--out", out]


@settings(max_examples=12, deadline=None)
@given(sizes, seeds)
@example(_CHUNK_ROWS, 0)
@example(_CHUNK_ROWS + 1, MAX_SEED)
@example(LAST_PURE_N + 1, 2**32)
def test_gen_data_equals_the_dataset_writer(n, seed):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(gen_data_argv(out, n, seed)) == 0
        expected_bytes, expected_rate = reference(tmp, n, seed)
        with open(out, "rb") as handle:
            assert handle.read() == expected_bytes
        assert stdout.getvalue() == f"wrote {n} rows to {out} {expected_rate}"


# A fresh interpreter that cannot import numpy runs gen-data.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from engagekit.cli import main
sys.exit(main(sys.argv[1:]))
"""


@settings(max_examples=6, deadline=None)
@given(sizes, seeds)
@example(LAST_PURE_N, MAX_SEED)
@example(LAST_PURE_N + 1, 0)
@example(_CHUNK_ROWS + 1, 2**32)
def test_gen_data_without_numpy_equals_the_dataset_writer(n, seed):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        proc = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, *gen_data_argv(out, n, seed)],
                              env=subprocess_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        expected_bytes, expected_rate = reference(tmp, n, seed)
        with open(out, "rb") as handle:
            assert handle.read() == expected_bytes
        assert proc.stdout == f"wrote {n} rows to {out} {expected_rate}"


@pytest.mark.parametrize("flags, message", [
    (["--n", "0"], "n must be >= 1, got 0"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--n", "0", "--seed", "-1"], "n must be >= 1, got 0"),
], ids=["n", "seed", "n-first"])
def test_gen_data_checks_arguments_before_the_output_path(tmp_path, capsys, flags, message):
    # The output is a directory, which writing would report instead.
    assert main(["gen-data", *flags, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_gen_data_checks_the_seed_before_a_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "data.csv"
    assert main(["gen-data", "--seed", str(MAX_SEED + 1), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: seed must be <= {MAX_SEED}, got {MAX_SEED + 1}\n"


def test_gen_data_past_the_budget_checks_the_seed_before_it_imports_numpy(tmp_path):
    # These rows take their draws through numpy, and a bad seed is reported
    # before numpy is imported and before the output path is touched.
    code = ("import json, sys\n"
            "from engagekit.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print(json.dumps([status, 'numpy' in sys.modules]))")
    argv = gen_data_argv(str(tmp_path / "data.csv"), LAST_PURE_N + 1, -1)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=subprocess_env(),
                          capture_output=True, text=True, check=True)
    assert (proc.stdout, proc.stderr) == ("[1, false]\n", "error: seed must be >= 0, got -1\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("pure", [False, True], ids=["numpy", "list"])
@pytest.mark.parametrize("n", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 5000])
def test_gen_data_chunks_are_equal_length_lists_summing_to_n(monkeypatch, n, pure):
    # The writer takes equal-length lists; the last chunk's engagement must
    # stop at row n, not run on into the reward draws.
    if pure:
        monkeypatch.setattr(cli, "_raw_draws", _pcg64_random)
    chunks = list(cli._synthetic_chunks(n, 7))
    for engagement, reward, retention in chunks:
        assert len(engagement) == len(reward) == len(retention) <= _CHUNK_ROWS
    assert sum(len(engagement) for engagement, _, _ in chunks) == n
