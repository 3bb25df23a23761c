"""The pure-Python PCG64 against numpy's, and the rule that picks a path."""

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engagekit.rng import _PURE_BUDGET, MAX_SEED, _pcg64_random, make_rng

from conftest import subprocess_env


def run_python(code: str) -> str:
    """Run code in a fresh interpreter; return its stdout."""
    return subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, check=True).stdout


SEEDS = [0, 1, 2, 7, 42, 2025, 2**32 - 1, 2**32, 2**63 + 5, MAX_SEED, 123_456_789_012_345]


@pytest.mark.parametrize("seed", SEEDS)
def test_pure_doubles_equal_numpy_at_chosen_seeds(seed):
    assert _pcg64_random(seed, 1000) == make_rng(seed).random(1000).tolist()


@settings(deadline=None)
@given(st.integers(0, MAX_SEED), st.integers(0, 3000))
def test_pure_doubles_equal_numpy(seed, n):
    assert _pcg64_random(seed, n) == make_rng(seed).random(n).tolist()


@pytest.mark.parametrize("seed", [True, -1, MAX_SEED + 1, 1.0])
def test_bad_seed_message_is_the_same_on_both_paths(seed):
    with pytest.raises(ValueError) as pure:
        _pcg64_random(seed, 3)
    with pytest.raises(ValueError) as numpy:
        make_rng(seed)
    assert str(pure.value) == str(numpy.value)
    assert str(pure.value).startswith("seed must be ")


def test_draws_stay_pure_within_the_budget_then_import_numpy():
    # A fresh process: the budget counts every pure draw it takes, and the
    # request that would pass it goes to numpy, with the same doubles.
    out = run_python(f"""
import json, sys
from engagekit.rng import _draws
first = _draws(3, {_PURE_BUDGET} - 5)
pure_before = "numpy" not in sys.modules
last_pure = _draws(9, 5)
still_pure = "numpy" not in sys.modules
past = _draws(11, 1)
print(json.dumps([pure_before, still_pure, "numpy" in sys.modules, first[-3:], last_pure, past]))
""")
    pure_before, still_pure, numpy_loaded, first_tail, last_pure, past = json.loads(out)
    assert pure_before and still_pure and numpy_loaded
    assert first_tail == make_rng(3).random(_PURE_BUDGET - 5).tolist()[-3:]
    assert last_pure == make_rng(9).random(5).tolist()
    assert past == make_rng(11).random(1).tolist()


def test_one_request_past_the_budget_uses_numpy():
    out = run_python(f"""
import json, sys
from engagekit.rng import _draws
doubles = _draws(5, {_PURE_BUDGET} + 1)
print(json.dumps(["numpy" in sys.modules, doubles[:2], doubles[-2:]]))
""")
    numpy_loaded, head, tail = json.loads(out)
    expected = make_rng(5).random(_PURE_BUDGET + 1).tolist()
    assert numpy_loaded
    assert head == expected[:2] and tail == expected[-2:]


def test_draws_past_the_budget_without_numpy_stay_pure():
    # Where numpy cannot be imported, a request past the budget, and every
    # request after it, draws in pure Python with the same doubles. The
    # reference is the pure-Python PCG64 too, so this runs without numpy.
    out = run_python(f"""
import json, sys
sys.modules["numpy"] = None
from engagekit.rng import _draws
past = _draws(5, {_PURE_BUDGET} + 1)
after = _draws(6, 3)
print(json.dumps([past[:2], past[-2:], after]))
""")
    head, tail, after = json.loads(out)
    expected = _pcg64_random(5, _PURE_BUDGET + 1)
    assert head == expected[:2] and tail == expected[-2:]
    assert after == _pcg64_random(6, 3)
