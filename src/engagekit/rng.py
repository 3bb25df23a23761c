"""Deterministic random number generation.

Every stochastic routine in this package (synthetic data, splits, session
and timeline simulation) draws from a PCG64 generator seeded from a 64-bit
seed through numpy's ``SeedSequence``. PCG64 is fully specified by its
published recurrence (O'Neill 2014: a 128-bit LCG with the XSL-RR output),
so a given seed yields the same stream on every platform and every numpy
release that ships it.

:func:`make_rng` returns numpy's ``Generator(PCG64(seed))`` and imports
numpy when first called. The package needs nothing from it but doubles
and permutations. :func:`_raw_draws` returns ``make_rng(seed).random(n)``:
a list of floats from the pure-Python path, or numpy's float64 array,
which a caller that streams its output converts a slice at a time
(:func:`_draws` converts it whole). :func:`_permutation` returns
``make_rng(seed).permutation(n)``, a list of ints or numpy's array. The
two paths give the same numbers, bit for bit, and take a numpy integer
seed as the int it holds. The one taken follows this rule:

* numpy's generator, when ``numpy.random`` is already imported; a ``None``
  entry in ``sys.modules``, which blocks the import, does not count. The
  rule keys on ``numpy.random``, not ``numpy``: since numpy 2, ``import
  numpy`` leaves it out, and importing it costs about 13 ms and 6 MB of
  peak RSS more (27 MB with ``import numpy``, 33 MB with both, in a fresh
  Python 3.11 process). So ``case-study``, which imports numpy for its
  arrays, still draws its data and its split in pure Python. With numpy
  < 2, ``import numpy`` loads ``numpy.random`` too, and any process with
  numpy loaded draws through it;
* else the pure-Python PCG64 (:func:`_pcg64_random`,
  :func:`_pcg64_permutation`), as long as this process's pure-Python
  draws, counting this request (n doubles, or the n items of a
  permutation), stay within ``_PURE_BUDGET`` = 2**18. A pure draw costs
  0.5 to 1 us, as fast as the 2-vCPU VM it was timed on ran at the time,
  so the whole budget costs about what importing numpy and drawing there
  does, a little more in time and far less in memory. In fresh
  processes, 200,000 pure draws took 125 to 235 ms (three medians of 15)
  against 114 to 191 ms for importing numpy, then drawing and converting
  the same doubles. So a short run never pays for the import, and
  ``gen-data`` stays numpy-free up to 131072 rows: at 100000 rows it ran
  up to 17% longer than through numpy, and peaked at 24 MB of RSS
  instead of 37;
* else numpy, imported then, so that a huge request, or a long numpy-free
  loop over many seeds, does not stay on the slow path;
* else, where numpy cannot be imported, the pure-Python PCG64 past the
  budget too: a slower run, never a failed one.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from ._spec import INTEGER, Spec

if TYPE_CHECKING:
    import numpy as np

MAX_SEED = 2**64 - 1
SEED = Spec(INTEGER, ge=0, le=MAX_SEED)

# Pure-Python draws one process may take before numpy is imported instead.
_PURE_BUDGET = 2**18
_pure_drawn = 0

_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def make_rng(seed: int) -> np.random.Generator:
    """Return a fresh PCG64-backed generator for a 64-bit unsigned seed."""
    import numpy as np

    seed = SEED.check("seed", _plain(seed))
    return np.random.Generator(np.random.PCG64(seed))


def _plain(seed):
    """A numpy integer seed as the int it holds, as numpy's seeding reads
    it, so that both paths take it; any other seed as it is, for
    :data:`SEED` to check."""
    np = sys.modules.get("numpy")
    return int(seed) if np is not None and isinstance(seed, np.integer) else seed


def _draws(seed: int, n: int) -> list[float]:
    """``make_rng(seed).random(n).tolist()``, through the path the module
    doc describes."""
    doubles = _raw_draws(seed, n)
    return doubles if isinstance(doubles, list) else doubles.tolist()


def _raw_draws(seed: int, n: int) -> list[float] | np.ndarray:
    """``make_rng(seed).random(n)``, through the path the module doc
    describes: a list from the pure-Python path, else numpy's array."""
    return _by_rule(seed, n, _pcg64_random, "random")


def _permutation(seed: int, n: int) -> list[int] | np.ndarray:
    """``make_rng(seed).permutation(n)``, through the path the module doc
    describes: a list from the pure-Python path, else numpy's array."""
    return _by_rule(seed, n, _pcg64_permutation, "permutation")


def _by_rule(seed: int, n: int, pure, method: str):
    """pure(seed, n) or ``getattr(make_rng(seed), method)(n)``, by the
    module doc's rule; n counts against the budget."""
    global _pure_drawn
    seed = _plain(seed)
    # Threads racing on the count can only change which path draws, not
    # the result.
    if sys.modules.get("numpy.random") is None and _pure_drawn + n <= _PURE_BUDGET:
        result = pure(seed, n)
        _pure_drawn += n
        return result
    try:
        rng = make_rng(seed)
    except ModuleNotFoundError:
        return pure(seed, n)
    return getattr(rng, method)(n)


def _seed_words(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(8, uint32)`` for a seed
    of at most 64 bits: its one or two entropy words never outgrow the
    4-word pool, so the pass that mixes extra entropy words into the pool
    never runs."""
    entropy = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return words


def _pcg64_seeded(seed: int) -> tuple[int, int]:
    """PCG64's 128-bit (state, increment) as numpy seeds it from seed,
    before the first output."""
    SEED.check("seed", seed)
    w = _seed_words(seed)
    # generate_state(4, uint64) is the words read little-endian in pairs;
    # PCG64 takes the first two as the initial state, the last two as the
    # stream, each high word first.
    initstate = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
    inc = ((w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32) << 1 & _MASK128 | 1
    # srandom: step, add initstate, step.
    return (inc + initstate) * _PCG64_MULTIPLIER + inc & _MASK128, inc


def _pcg64_random(seed: int, n: int) -> list[float]:
    """The first n doubles of ``make_rng(seed).random()``, in pure Python."""
    state, inc = _pcg64_seeded(seed)
    mult, mask, mask64 = _PCG64_MULTIPLIER, _MASK128, _MASK64
    doubles = []
    append = doubles.append
    for _ in range(n):
        state = state * mult + inc & mask
        x = (state >> 64 ^ state) & mask64
        rot = state >> 122
        # XSL-RR output, then numpy's double: the top 53 bits times 2**-53.
        append((((x >> rot | x << 64 - rot) & mask64) >> 11) * 2**-53)
    return doubles


def _pcg64_permutation(seed: int, n: int) -> list[int]:
    """``make_rng(seed).permutation(n).tolist()``, in pure Python.

    numpy shuffles ``range(n)`` from the end (Fisher-Yates; Knuth, TAOCP
    vol. 2, section 3.4.2): for i from n - 1 down to 1 it swaps items i and
    j, with j uniform on [0, i] by ``random_interval``. That draws 32-bit
    halves of the 64-bit outputs, the low half first, keeps the bits under
    the smallest all-ones mask >= i, and draws again while the result
    exceeds i. An i of 2**32 or more would take whole 64-bit outputs
    instead, so this gives numpy's order for n up to 2**32 + 1 only. The
    budget sends larger n to numpy, and without numpy nothing asks for a
    permutation: its one caller, ``regression``, imports numpy.
    """
    state, inc = _pcg64_seeded(seed)
    mult, mask128, mask64 = _PCG64_MULTIPLIER, _MASK128, _MASK64
    perm = list(range(n))
    spare = None  # the high half of the last output, not yet used
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if spare is None:
                state = state * mult + inc & mask128
                x = (state >> 64 ^ state) & mask64
                rot = state >> 122
                x = (x >> rot | x << 64 - rot) & mask64
                j, spare = x & mask, x >> 32
            else:
                j, spare = spare & mask, None
            if j <= i:
                break
        perm[i], perm[j] = perm[j], perm[i]
    return perm
