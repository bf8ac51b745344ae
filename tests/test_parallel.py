"""Tests for the ``workers``/``backend`` contract of the SLAM sweeps.

The contract under test: any ``workers``/``backend`` combination returns a
grid *bit-identical* (``np.array_equal``, not allclose) to the serial sweep,
because each row is computed by the same code in the same floating-point
order however the rows are split — one in-process block, or row shards
through a :mod:`repro.dist` coordinator (in-process or across worker
processes).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PARALLEL_METHODS, Raster, Region, compute_kdv
from repro.core.envelope import YSortedIndex
from repro.core.kernels import get_kernel
from repro.core.slam_bucket import slam_bucket_row_numpy
from repro.core.sweep import (
    BACKENDS,
    resolve_workers,
    sweep_kdv,
    sweep_rows,
    validate_backend,
)
from repro.dist import Coordinator
from repro.dist.plan import plan_shards

from .conftest import PARALLEL_MODES, parallel_kwargs

KERNEL_NAMES = ("uniform", "epanechnikov", "quartic")
ENGINES = ("python", "numpy")


@pytest.fixture(scope="module")
def xy() -> np.ndarray:
    rng = np.random.default_rng(77)
    return rng.uniform((0.0, 0.0), (100.0, 80.0), (200, 2))


class TestResolveWorkers:
    def test_serial_values(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1

    def test_auto_is_positive(self):
        assert resolve_workers("auto") >= 1

    def test_int_passthrough(self):
        assert resolve_workers(4) == 4
        assert resolve_workers("3") == 3

    @pytest.mark.parametrize("bad", [0, -2, "many", 1.5, object()])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(bad)


class TestValidateBackend:
    def test_known_backends(self):
        validate_backend(None)  # the in-process default
        for backend in BACKENDS:
            validate_backend(backend)

    def test_unknown_rejected(self):
        for retired in ("mpi", "process", "thread"):
            with pytest.raises(ValueError, match="backend"):
                validate_backend(retired)


class TestPartitionRows:
    """The dist planner's ``balance="rows"`` split — the row partition every
    sharded render is assembled from — covers ``range(Y)`` exactly once in
    contiguous near-equal bands."""

    @staticmethod
    def _bands(num_rows: int, num_shards: int, num_points: int = 64):
        xy = np.column_stack(
            (np.zeros(num_points), np.linspace(0.0, 100.0, num_points))
        )
        y_centers = (np.arange(num_rows) + 0.5) * (100.0 / max(num_rows, 1))
        plan = plan_shards(
            YSortedIndex(xy), y_centers, 5.0, num_shards, balance="rows"
        )
        return [(s.row_start, s.row_stop) for s in plan]

    def test_empty(self):
        with pytest.raises(ValueError, match="zero-row"):
            self._bands(0, 4)

    def test_single_block(self):
        assert self._bands(10, 1) == [(0, 10)]

    def test_more_blocks_than_rows(self):
        assert self._bands(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_invalid(self):
        with pytest.raises(ValueError, match="empty dataset"):
            self._bands(10, 4, num_points=0)
        with pytest.raises(ValueError, match="shards"):
            self._bands(10, 0)

    @settings(max_examples=200, deadline=None)
    @given(num_rows=st.integers(1, 5000), num_blocks=st.integers(1, 64))
    def test_exact_contiguous_cover(self, num_rows, num_blocks):
        blocks = self._bands(num_rows, num_blocks)
        # contiguous, in order, covering [0, num_rows) exactly once
        cursor = 0
        for start, stop in blocks:
            assert start == cursor
            assert stop > start
            cursor = stop
        assert cursor == num_rows
        assert len(blocks) == min(num_blocks, num_rows)
        sizes = [stop - start for start, stop in blocks]
        assert max(sizes) - min(sizes) <= 1  # near-equal split


class TestSweepRowsBlocks:
    def test_blocks_reassemble_full_sweep(self, xy):
        """sweep_rows over any contiguous split concatenates to the full
        grid — the property the dist shard merge relies on."""
        raster = Raster(Region(0, 0, 100, 80), 21, 17)
        kernel = get_kernel("epanechnikov")
        ysorted = YSortedIndex(xy)
        cx = (raster.region.xmin + raster.region.xmax) / 2.0
        xs_scaled = (raster.x_centers() - cx) / 9.0
        args = (raster.y_centers(), xs_scaled, ysorted, cx, 9.0, kernel,
                slam_bucket_row_numpy)
        full = sweep_rows(0, raster.height, *args)
        for bounds in ((0, 8, 17), (0, 5, 11, 17), (0, 1, 2, 16, 17),
                       tuple(range(18))):
            parts = [
                sweep_rows(start, stop, *args)
                for start, stop in zip(bounds[:-1], bounds[1:])
            ]
            assert np.array_equal(np.concatenate(parts), full)


class TestParallelEquality:
    """workers > 1 must be bit-for-bit identical to the serial path."""

    @pytest.mark.parametrize("mode", PARALLEL_MODES)
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    @pytest.mark.parametrize("method", PARALLEL_METHODS)
    def test_bit_identical(self, method, kernel_name, engine, mode, xy,
                           request):
        kwargs = dict(
            size=(16, 12), kernel=kernel_name, bandwidth=9.0,
            method=method, engine=engine,
        )
        serial = compute_kdv(xy, **kwargs)
        parallel = compute_kdv(
            xy, workers=2, **parallel_kwargs(mode, request), **kwargs
        )
        assert np.array_equal(serial.grid, parallel.grid)
        assert parallel.stats is not None
        if mode == "thread":
            # python/numpy have no threads: the in-process sweep is serial
            assert parallel.stats.workers == 1
            assert parallel.stats.backend == "serial"
        else:
            assert parallel.stats.workers == 2
            assert parallel.stats.backend == "dist"

    def test_tall_raster_rao_columns(self, xy):
        """RAO picks the column sweep; parallel blocks must survive the
        transpose round-trip bit-for-bit."""
        kwargs = dict(size=(12, 20), bandwidth=9.0, method="slam_bucket_rao")
        serial = compute_kdv(xy, **kwargs)
        parallel = compute_kdv(xy, workers=3, **kwargs)
        assert np.array_equal(serial.grid, parallel.grid)
        assert parallel.stats.orientation == "columns"
        assert parallel.stats.rows == 12  # RAO sweeps the shorter axis

    def test_weighted_sweep_parallel(self, xy):
        weights = np.linspace(0.5, 2.0, len(xy))
        kwargs = dict(size=(16, 12), bandwidth=9.0, method="slam_bucket",
                      weights=weights)
        serial = compute_kdv(xy, **kwargs)
        parallel = compute_kdv(xy, workers=2, backend="dist",
                               coordinator=Coordinator([]), **kwargs)
        assert np.array_equal(serial.grid, parallel.grid)

    def test_workers_auto(self, xy):
        result = compute_kdv(xy, size=(16, 12), bandwidth=9.0,
                             method="slam_bucket", workers="auto")
        serial = compute_kdv(xy, size=(16, 12), bandwidth=9.0,
                             method="slam_bucket")
        assert np.array_equal(result.grid, serial.grid)
        assert result.stats.workers >= 1

    def test_sweep_kdv_direct_parallel(self, xy):
        raster = Raster(Region(0, 0, 100, 80), 19, 13)
        kernel = get_kernel("quartic")
        serial = sweep_kdv(xy, raster, kernel, 9.0, slam_bucket_row_numpy)
        sharded = sweep_kdv(xy, raster, kernel, 9.0, slam_bucket_row_numpy,
                            workers=2, backend="dist",
                            coordinator=Coordinator([]))
        assert np.array_equal(serial, sharded)

    def test_bad_workers_via_api(self, xy):
        with pytest.raises(ValueError, match="workers"):
            compute_kdv(xy, size=(8, 8), bandwidth=5.0, workers=0)
        with pytest.raises(ValueError, match="workers"):
            compute_kdv(xy, size=(8, 8), bandwidth=5.0, workers="fast")

    def test_bad_backend_via_api(self, xy):
        for backend in ("mpi", "process", "thread"):
            with pytest.raises(ValueError, match="backend"):
                compute_kdv(xy, size=(8, 8), bandwidth=5.0,
                            method="slam_bucket", workers=2, backend=backend)

    def test_baselines_ignore_workers(self, xy):
        """Non-SLAM methods accept the workers parameter (validated, then
        ignored) so callers can sweep methods uniformly."""
        result = compute_kdv(xy, size=(8, 8), bandwidth=9.0,
                             method="scan", workers=4)
        assert result.stats is None


class TestStats:
    def test_serial_stats(self, xy):
        result = compute_kdv(xy, size=(16, 12), bandwidth=9.0,
                             method="slam_bucket")
        s = result.stats
        assert s is not None
        assert s.backend == "serial"
        assert s.workers == 1
        assert s.blocks == 1
        assert s.rows == 12
        assert s.orientation == "rows"
        assert s.elapsed_seconds > 0
        assert s.rows_per_sec > 0

    def test_parallel_block_count(self, xy):
        # engine="numpy" pins a row engine with no threads of its own
        inproc = compute_kdv(xy, size=(16, 12), bandwidth=9.0,
                             method="slam_bucket", engine="numpy", workers=2)
        s = inproc.stats
        assert (s.backend, s.workers, s.blocks) == ("serial", 1, 1)
        sharded = compute_kdv(xy, size=(16, 12), bandwidth=9.0,
                              method="slam_bucket", engine="numpy", workers=2,
                              backend="dist", coordinator=Coordinator([]))
        s = sharded.stats
        assert s.backend == "dist"
        assert s.workers == 2
        assert 1 < s.blocks <= 2
        assert s.blocks <= s.rows

    def test_non_rao_orientation_is_rows(self, xy):
        # even on a tall raster, the non-RAO methods sweep rows
        result = compute_kdv(xy, size=(12, 20), bandwidth=9.0,
                             method="slam_sort", workers=2)
        assert result.stats.orientation == "rows"
        assert result.stats.rows == 20


class TestPicklability:
    """The sweep context must cross a process boundary (the dist pickle
    transport): regions, rasters, the y-sorted index, and kernel singletons
    all pickle round-trip."""

    def test_region_raster_roundtrip(self):
        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 37, 23)
        clone = pickle.loads(pickle.dumps(raster))
        assert clone == raster
        assert np.array_equal(clone.x_centers(), raster.x_centers())

    def test_ysorted_index_roundtrip(self, xy):
        index = YSortedIndex(xy)
        clone = pickle.loads(pickle.dumps(index))
        assert np.array_equal(clone.sorted_xy, index.sorted_xy)
        assert np.array_equal(clone.order, index.order)

    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    def test_kernel_roundtrip(self, kernel_name):
        kernel = get_kernel(kernel_name)
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.name == kernel.name
        assert clone.num_channels == kernel.num_channels
