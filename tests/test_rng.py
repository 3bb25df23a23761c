"""The pure-Python PCG64 against numpy's, and the rule that picks a path."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engagekit.rng import _PURE_BUDGET, MAX_SEED, _pcg64_permutation, _pcg64_random, make_rng

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


# Fisher-Yates sizes where the mask random_interval uses grows a bit.
@pytest.mark.parametrize("n", [2**k + d for k in range(13) for d in (0, 1)])
@pytest.mark.parametrize("seed", [0, 2**32, MAX_SEED])
def test_pure_permutation_equals_numpy_at_powers_of_two(seed, n):
    assert _pcg64_permutation(seed, n) == make_rng(seed).permutation(n).tolist()


@settings(deadline=None)
@given(st.integers(0, MAX_SEED), st.integers(0, 5000))
def test_pure_permutation_equals_numpy(seed, n):
    assert _pcg64_permutation(seed, n) == make_rng(seed).permutation(n).tolist()


@pytest.mark.parametrize(
    "seed", [True, -1, MAX_SEED + 1, 1.0, np.int64(-1), np.float64(1.0), np.True_],
    ids=["True", "-1", "18446744073709551616", "1.0", "np.int64(-1)", "np.float64(1.0)", "np.True_"],
)
def test_bad_seed_message_is_the_same_on_both_paths(seed):
    with pytest.raises(ValueError) as pure:
        _pcg64_random(seed, 3)
    with pytest.raises(ValueError) as permutation:
        _pcg64_permutation(seed, 3)
    with pytest.raises(ValueError) as numpy:
        make_rng(seed)
    assert str(pure.value) == str(permutation.value) == str(numpy.value)
    assert str(pure.value).startswith("seed must be ")


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"),
    (True, "seed must be an integer, got True"),
], ids=["-1", "True"])
def test_make_rng_checks_the_seed_before_it_imports_numpy(monkeypatch, seed, message):
    # Where numpy cannot be imported, a bad seed is still the error reported.
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_rng(seed)


@pytest.mark.parametrize("seed", [np.int64(-1), np.uint64(MAX_SEED), np.int64(2025), np.uint64(2025)])
def test_make_rng_takes_numpy_integer_seeds(seed):
    if seed < 0:
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            make_rng(seed)
    else:
        assert make_rng(seed).random(3).tolist() == make_rng(int(seed)).random(3).tolist()


def test_numpy_loaded_without_numpy_random_draws_in_pure_python():
    # A fresh process that has imported numpy but not numpy.random: every
    # public routine that draws stays on the pure-Python path, for int and
    # numpy integer seeds alike, and gives what it gives once numpy.random
    # is loaded, arrays of the same dtypes included. (With numpy < 2,
    # `import numpy` loads numpy.random, so only the numpy path runs.)
    out = run_python("""
import json, sys
import numpy as np
with_numpy = "numpy.random" in sys.modules
from engagekit.regression import generate_synthetic_dataset, train_test_split
from engagekit.rng import _draws
from engagekit.simulator import simulate_session

def results(seed):
    data = generate_synthetic_dataset(40, seed)
    split = train_test_split(data, 0.25, seed)
    arrays = [data.engagement, data.reward, data.retention, split.train_indices, split.test_indices,
              split.train.engagement, split.test.retention]
    return {
        "draws": _draws(seed, 5),
        "arrays": [a.tolist() for a in arrays],
        "dtypes": [str(a.dtype) for a in arrays],
        "session": [[s.engagement, s.reward, s.difficulty, s.success] for s in simulate_session(4, seed)],
    }

seeds = [2025, np.int64(2025), np.uint64(2025)]
pure = [results(seed) for seed in seeds]
pure_only = "numpy.random" not in sys.modules
import numpy.random
print(json.dumps([with_numpy, pure_only, pure, [results(seed) for seed in seeds]]))
""")
    with_numpy, pure_only, pure, through_numpy = json.loads(out)
    assert pure_only == (not with_numpy)
    assert pure[0] == pure[1] == pure[2] == through_numpy[0] == through_numpy[1] == through_numpy[2]
    assert pure[0]["dtypes"] == ["float64", "float64", "int64", "int64", "int64", "float64", "int64"]


def test_a_blocked_numpy_random_stays_blocked():
    # A None entry for numpy.random blocks its import: past the budget, the
    # draws fall back to pure Python and leave the entry in place.
    out = run_python(f"""
import json, sys
import numpy
sys.modules["numpy.random"] = None
from engagekit.rng import _draws, _permutation
within = _draws(5, 3)
past = _draws(6, {_PURE_BUDGET})
perm = _permutation(7, 10)
print(json.dumps([within, past[-2:], perm, sys.modules["numpy.random"] is None]))
""")
    within, past_tail, perm, still_blocked = json.loads(out)
    assert within == _pcg64_random(5, 3)
    assert past_tail == _pcg64_random(6, _PURE_BUDGET)[-2:]
    assert perm == _pcg64_permutation(7, 10)
    assert still_blocked


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
