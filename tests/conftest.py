"""Shared fixtures and dataset helpers."""

import tracemalloc

import numpy as np
import pytest

from lugsi import Dataset
from lugsi.granulation import Granulation


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_binary_dataset(rng, l, n):
    """Random points in the unit cube with both labels present."""
    X = rng.random((l, n))
    y = rng.integers(0, 2, l)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return Dataset(X, y)


def singleton_granulation(data, seed=0):
    """Each sample its own granule, in sample order."""
    l = data.l
    return Granulation(
        assignments=np.arange(l),
        centroids=data.features.copy(),
        clustering_error=0.0,
        iterations_run=1,
        seed=seed,
    )


def traced_peak(build, *args):
    """Call build(*args) under tracemalloc; return the peak traced bytes."""
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
