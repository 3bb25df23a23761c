"""Deterministic random number generation.

Every stochastic routine in this package (synthetic data, splits, session
and timeline simulation) draws from a PCG64 generator seeded from a 64-bit
seed through numpy's ``SeedSequence``. PCG64 is fully specified by its
published recurrence (O'Neill 2014: a 128-bit LCG with the XSL-RR output),
so a given seed yields the same stream on every platform and every numpy
release that ships it.

:func:`make_rng` returns numpy's ``Generator(PCG64(seed))`` and imports
numpy when first called. The simulators and ``gen-data`` need nothing but
doubles, which :func:`_raw_draws` returns: a list of floats from the
pure-Python path, or numpy's float64 array, which a caller that streams its
output converts a slice at a time (:func:`_draws` converts it whole). The
two paths give the same doubles bit for bit, and the one taken follows this
rule:

* numpy's generator, when numpy is already imported (drawing through it
  then costs nothing extra); a ``None`` entry in ``sys.modules``, which
  blocks the import, does not count;
* else the pure-Python PCG64 (:func:`_pcg64_random`), as long as this
  process's pure-Python draws, counting this request, stay within
  ``_PURE_BUDGET`` = 2**17. At about 0.7 us a draw, the whole budget costs
  about what importing numpy does, so a short CLI run never pays for the
  import;
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
_PURE_BUDGET = 2**17
_pure_drawn = 0

_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def make_rng(seed: int) -> np.random.Generator:
    """Return a fresh PCG64-backed generator for a 64-bit unsigned seed."""
    import numpy as np

    SEED.check("seed", int(seed) if isinstance(seed, np.integer) else seed)
    return np.random.Generator(np.random.PCG64(seed))


def _draws(seed: int, n: int) -> list[float]:
    """``make_rng(seed).random(n).tolist()``, through the path the module
    doc describes."""
    doubles = _raw_draws(seed, n)
    return doubles if isinstance(doubles, list) else doubles.tolist()


def _raw_draws(seed: int, n: int) -> list[float] | np.ndarray:
    """``make_rng(seed).random(n)``, through the path the module doc
    describes: a list from the pure-Python path, else numpy's array."""
    global _pure_drawn
    # Threads racing on the count can only change which path draws, not
    # the doubles.
    if sys.modules.get("numpy") is None and _pure_drawn + n <= _PURE_BUDGET:
        doubles = _pcg64_random(seed, n)
        _pure_drawn += n
        return doubles
    try:
        rng = make_rng(seed)
    except ModuleNotFoundError:
        return _pcg64_random(seed, n)
    return rng.random(n)


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


def _pcg64_random(seed: int, n: int) -> list[float]:
    """The first n doubles of ``make_rng(seed).random()``, in pure Python."""
    SEED.check("seed", seed)
    w = _seed_words(seed)
    # generate_state(4, uint64) is the words read little-endian in pairs;
    # PCG64 takes the first two as the initial state, the last two as the
    # stream, each high word first.
    initstate = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
    inc = ((w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32) << 1 & _MASK128 | 1
    mult, mask, mask64 = _PCG64_MULTIPLIER, _MASK128, _MASK64
    state = (inc + initstate) * mult + inc & mask  # srandom: step, add initstate, step
    doubles = []
    append = doubles.append
    for _ in range(n):
        state = state * mult + inc & mask
        x = (state >> 64 ^ state) & mask64
        rot = state >> 122
        # XSL-RR output, then numpy's double: the top 53 bits times 2**-53.
        append((((x >> rot | x << 64 - rot) & mask64) >> 11) * 2**-53)
    return doubles
