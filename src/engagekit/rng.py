"""Deterministic random number generation.

Every stochastic routine in this package (synthetic data, splits, session
and timeline simulation) draws from a PCG64 generator built here. PCG64 is
fully specified by its published recurrence, so a given 64-bit seed yields
the same stream on every platform and every numpy release that ships it.
"""

from __future__ import annotations

import numpy as np

from ._spec import INTEGER, Spec

MAX_SEED = 2**64 - 1
SEED = Spec(INTEGER, ge=0, le=MAX_SEED)


def make_rng(seed: int) -> np.random.Generator:
    """Return a fresh PCG64-backed generator for a 64-bit unsigned seed."""
    SEED.check("seed", int(seed) if isinstance(seed, np.integer) else seed)
    return np.random.Generator(np.random.PCG64(seed))
