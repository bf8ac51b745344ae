"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PointSet, Raster, Region
from repro.core.kernels import get_kernel


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def region() -> Region:
    return Region(0.0, 0.0, 100.0, 80.0)


@pytest.fixture
def raster(region: Region) -> Raster:
    return Raster(region, 37, 23)


@pytest.fixture
def small_xy(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform((0.0, 0.0), (100.0, 80.0), (300, 2))


@pytest.fixture
def small_points(rng: np.random.Generator) -> PointSet:
    n = 400
    xy = rng.uniform((0.0, 0.0), (100.0, 80.0), (n, 2))
    t = rng.uniform(0.0, 1000.0, n)
    category = rng.integers(0, 5, n)
    return PointSet(xy, t=t, category=category, name="fixture")


def reference_grid(
    xy: np.ndarray, raster: Raster, kernel_name: str, bandwidth: float
) -> np.ndarray:
    """Independent O(XYn) reference: direct kernel evaluation, no chunking,
    no shared code path with the methods under test beyond the kernel's
    ``evaluate`` (which is itself verified against hand values)."""
    kernel = get_kernel(kernel_name)
    xs = raster.x_centers()
    ys = raster.y_centers()
    xy = np.asarray(xy, dtype=np.float64)
    grid = np.zeros(raster.shape)
    for j, k in enumerate(ys):
        for i, qx in enumerate(xs):
            d_sq = (xy[:, 0] - qx) ** 2 + (xy[:, 1] - k) ** 2
            grid[j, i] = kernel.evaluate(d_sq, bandwidth).sum()
    return grid


#: How a ``workers > 1`` SLAM render runs, for the parallel bit-identity
#: matrices (see :func:`parallel_kwargs`).
PARALLEL_MODES = ("dist", "process", "thread")


@pytest.fixture(scope="session")
def worker_pool_coordinator():
    """A :class:`repro.dist.Coordinator` over two spawned ``repro
    dist-worker`` processes, shared by every test that renders across a
    process boundary; the workers are reaped at session end."""
    from repro.dist import Coordinator
    from repro.dist.launch import launch_local_workers

    pool = launch_local_workers(2)
    try:
        with Coordinator(pool.addrs) as coord:
            yield coord
    finally:
        pool.shutdown()


def parallel_kwargs(mode: str, request) -> dict:
    """The ``compute_kdv``/grid-function kwargs that run a render in
    ``mode``:

    ``thread``
        In the calling process, no backend: ``workers`` is the ``native``
        engine's OpenMP thread count, and every other engine runs serially.
    ``dist``
        Row shards through a worker-less coordinator (computed in-process).
    ``process``
        Row shards through two spawned worker processes.
    """
    from repro.dist import Coordinator

    if mode == "thread":
        return {}
    if mode == "dist":
        return {"backend": "dist", "coordinator": Coordinator([])}
    if mode == "process":
        return {
            "backend": "dist",
            "coordinator": request.getfixturevalue("worker_pool_coordinator"),
        }
    raise ValueError(f"unknown parallel mode {mode!r}")
