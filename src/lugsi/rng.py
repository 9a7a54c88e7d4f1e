"""Deterministic random source.

Every random decision in the package (fold shuffles, k-means++ seeding,
synthetic data) flows through a PCG64 generator created here. PCG64 is a
named, platform-independent algorithm with 64-bit output, so a given seed
reproduces the same stream byte-for-byte across runs and machines running
the same numpy generation.
"""

import numpy as np

from .errors import DataError


def make_rng(seed: int) -> np.random.Generator:
    """Return a PCG64-backed generator for the given integer seed (>= 0)."""
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))
