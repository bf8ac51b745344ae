"""Tests for the block-vectorized ``numpy_batch`` sweep engine.

The engine's contract (repro.core.batch) has two halves:

* **bit-identity** — under the bucket methods it returns grids that are
  ``np.array_equal`` to the per-row ``numpy`` engine, for every kernel,
  weighting, worker count, dist sharding, RAO orientation, and ``max_block_bytes``
  setting (the python engine agrees to float tolerance, as it already does
  with per-row numpy under slam_sort);
* **serial-equal observability** — recorder counters and phase-timer call
  counts match the per-row serial sweep exactly, so dashboards cannot tell
  the engines apart except by the seconds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Raster, Region, compute_kdv
from repro.core.batch import (
    DEFAULT_MAX_BLOCK_BYTES,
    NumpyBatchEngine,
    numpy_batch_grid,
)
from repro.core.bounds import bucket_indices
from repro.core.envelope import YSortedIndex
from repro.core.kernels import get_kernel
from repro.core.native import NATIVE_AVAILABLE, native_grid
from repro.core.slam_bucket import slam_bucket_row_numpy
from repro.core.sweep import sweep_kdv
from repro.dist import Coordinator
from repro.obs import Recorder

from .conftest import PARALLEL_MODES, parallel_kwargs

KERNEL_NAMES = ("uniform", "epanechnikov", "quartic")


@pytest.fixture(scope="module")
def cluster_xy() -> np.ndarray:
    rng = np.random.default_rng(20220613)
    centers = rng.uniform([0.0, 0.0], [100.0, 80.0], size=(8, 2))
    return centers[rng.integers(0, 8, 3000)] + rng.normal(0.0, 6.0, (3000, 2))


@pytest.fixture(scope="module")
def cluster_weights(cluster_xy) -> np.ndarray:
    return np.random.default_rng(99).uniform(0.5, 2.0, len(cluster_xy))


def _grids(xy, raster, kernel_name, bandwidth, engine, **kwargs):
    table = {"numpy": slam_bucket_row_numpy}
    kernel = get_kernel(kernel_name)
    if engine == "numpy_batch":
        return numpy_batch_grid(xy, raster, kernel, bandwidth, **kwargs)
    return sweep_kdv(xy, raster, kernel, bandwidth, table[engine], **kwargs)


class TestBitIdentity:
    """numpy_batch == per-row numpy, bit for bit (acceptance criterion c)."""

    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    @pytest.mark.parametrize("weighted", (False, True))
    def test_kernels_and_weights(
        self, kernel_name, weighted, cluster_xy, cluster_weights
    ):
        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 64, 48)
        w = cluster_weights if weighted else None
        a = _grids(cluster_xy, raster, kernel_name, 9.0, "numpy", weights=w)
        b = _grids(cluster_xy, raster, kernel_name, 9.0, "numpy_batch", weights=w)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", PARALLEL_MODES)
    def test_parallel_workers(self, mode, cluster_xy, request):
        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 48, 40)
        serial = _grids(cluster_xy, raster, "epanechnikov", 9.0, "numpy_batch")
        parallel = _grids(
            cluster_xy, raster, "epanechnikov", 9.0, "numpy_batch",
            workers=3, **parallel_kwargs(mode, request),
        )
        assert np.array_equal(serial, parallel)

    @pytest.mark.parametrize("size", ((48, 36), (36, 48)))
    def test_rao_both_orientations(self, size, cluster_xy):
        """Through the public API, under RAO, for both sweep orientations."""
        kw = dict(
            region=Region(0.0, 0.0, 100.0, 80.0), size=size, bandwidth=9.0,
            method="slam_bucket_rao", normalization="none",
        )
        a = compute_kdv(cluster_xy, engine="numpy", **kw).grid
        b = compute_kdv(cluster_xy, engine="numpy_batch", **kw).grid
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "max_block_bytes",
        (1, 4096, 64 * 1024, DEFAULT_MAX_BLOCK_BYTES, 1 << 30),
    )
    def test_chunking_invariance(self, max_block_bytes, cluster_xy):
        """Every chunk boundary placement — from one row per chunk to the
        whole block in one chunk — produces the same bits."""
        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 40, 30)
        reference = _grids(cluster_xy, raster, "quartic", 9.0, "numpy")
        got = _grids(
            cluster_xy, raster, "quartic", 9.0, "numpy_batch",
            max_block_bytes=max_block_bytes,
        )
        assert np.array_equal(reference, got)

    def test_python_engine_close(self, cluster_xy):
        from repro.core.slam_bucket import slam_bucket_row_python

        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 24, 18)
        kernel = get_kernel("epanechnikov")
        a = sweep_kdv(cluster_xy, raster, kernel, 9.0, slam_bucket_row_python)
        b = numpy_batch_grid(cluster_xy, raster, kernel, 9.0)
        scale = max(a.max(), 1.0)
        np.testing.assert_allclose(b / scale, a / scale, atol=1e-12)


class TestScratchReuse:
    """The chunk loop runs in per-block scratch: more chunks must not mean
    more allocation (the hoisted-buffer contract in the chunking comment)."""

    @staticmethod
    def _sweep_peak(xy, weights, height: int, max_block_bytes: int) -> int:
        """tracemalloc peak (bytes) of one warmed sweep_block call."""
        import tracemalloc

        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 64, height)
        kernel = get_kernel("quartic")  # most channels -> most scratch
        idx = YSortedIndex(xy)
        sw = weights[idx.order]
        engine = NumpyBatchEngine(max_block_bytes=max_block_bytes)
        args = (
            0, height, raster.y_centers(),
            (raster.x_centers() - 50.0) / 9.0, idx, 50.0, 9.0, kernel,
        )
        engine.sweep_block(*args, sorted_weights=sw)  # warm caches/imports
        tracemalloc.start()
        try:
            engine.sweep_block(*args, sorted_weights=sw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_chunking_adds_no_allocation_growth(
        self, cluster_xy, cluster_weights
    ):
        """Doubling the row count (and therefore the chunk count, at a fixed
        ``max_block_bytes``) may grow the peak by the extra output rows and
        envelope bookkeeping — never by per-chunk scratch accumulation."""
        few = self._sweep_peak(cluster_xy, cluster_weights, 48, 16 * 1024)
        many = self._sweep_peak(cluster_xy, cluster_weights, 96, 16 * 1024)
        # Outputs are (height, 64) float64; row-proportional bookkeeping
        # (envelope bounds, cumsums) gets a generous 64 KiB of slack.
        out_delta = (96 - 48) * 64 * 8
        assert many <= few + out_delta + 64 * 1024

    def test_small_chunks_bound_the_working_set(
        self, cluster_xy, cluster_weights
    ):
        """A chunked sweep must peak well below the single-chunk sweep: the
        whole point of ``max_block_bytes`` is a bounded working set, and the
        hoisted scratch is sized to the largest chunk, not the block."""
        chunked = self._sweep_peak(cluster_xy, cluster_weights, 96, 16 * 1024)
        single = self._sweep_peak(cluster_xy, cluster_weights, 96, 1 << 30)
        assert chunked < single


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 120),
    b=st.floats(0.5, 40.0, allow_nan=False),
    width=st.integers(1, 24),
    height=st.integers(1, 24),
    kernel_name=st.sampled_from(KERNEL_NAMES),
    weighted=st.booleans(),
    threads=st.integers(1, 4),
)
def test_batch_parity_property(
    seed, n, b, width, height, kernel_name, weighted, threads
):
    """Hypothesis sweep of the bit-identity contract, including degenerate
    rasters (1-pixel rows/columns) and empty/tiny datasets.  When the
    compiled ``native`` engine is present it joins the matrix: same bits as
    the per-row numpy engine for every drawn case and OpenMP thread count."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform((0.0, 0.0), (50.0, 40.0), (n, 2))
    weights = rng.uniform(0.1, 3.0, n) if weighted else None
    raster = Raster(Region(0.0, 0.0, 50.0, 40.0), width, height)
    kernel = get_kernel(kernel_name)
    a = sweep_kdv(xy, raster, kernel, b, slam_bucket_row_numpy, weights=weights)
    c = numpy_batch_grid(xy, raster, kernel, b, weights=weights)
    assert np.array_equal(a, c)
    if NATIVE_AVAILABLE:
        d = native_grid(xy, raster, kernel, b, weights=weights, workers=threads)
        assert np.array_equal(a, d)


class TestBatchEdgeCases:
    def test_single_pixel_rows(self):
        """X = 1 exercises the bucket grid's gx -> 1.0 fallback inside the
        batched scatter (num_pixels == 1 has no pixel spacing)."""
        xy = np.array([[5.0, 5.0], [5.0, 6.0], [4.0, 5.5]])
        raster = Raster(Region(0.0, 0.0, 10.0, 10.0), 1, 8)
        kernel = get_kernel("epanechnikov")
        a = sweep_kdv(xy, raster, kernel, 4.0, slam_bucket_row_numpy)
        b = numpy_batch_grid(xy, raster, kernel, 4.0)
        assert np.array_equal(a, b)
        assert b.shape == (8, 1)

    def test_all_rows_empty(self):
        """Every envelope empty (points far above the raster): the batch
        driver's zero-pair early path must return the all-zeros block."""
        xy = np.full((10, 2), 1000.0)
        raster = Raster(Region(0.0, 0.0, 10.0, 10.0), 6, 5)
        grid = numpy_batch_grid(xy, raster, get_kernel("quartic"), 2.0)
        assert grid.shape == (5, 6)
        assert not grid.any()

    def test_some_rows_empty_scatter_back(self):
        """A band of points leaves leading/trailing rows empty; the
        compressed scatter must place non-empty rows correctly."""
        rng = np.random.default_rng(3)
        xy = np.column_stack(
            [rng.uniform(0, 10, 40), rng.uniform(4.8, 5.2, 40)]
        )
        raster = Raster(Region(0.0, 0.0, 10.0, 10.0), 12, 20)
        kernel = get_kernel("epanechnikov")
        a = sweep_kdv(xy, raster, kernel, 0.4, slam_bucket_row_numpy)
        b = numpy_batch_grid(xy, raster, kernel, 0.4)
        assert np.array_equal(a, b)
        assert not b[0].any() and not b[-1].any() and b.any()

    def test_endpoints_exactly_on_pixel_centers(self):
        """Integer coordinates + integer bandwidth put interval endpoints
        exactly on pixel centers; the closed-interval tie rule must survive
        batching (same correction arithmetic, just vectorized over pairs)."""
        xs = np.arange(11, dtype=np.float64)  # pixel centers 0..10
        lb = np.array([2.0, 0.0, 10.0, -1.0])
        ub = np.array([5.0, 0.0, 12.0, -0.5])
        enter, leave = bucket_indices(xs, lb, ub)
        np.testing.assert_array_equal(enter, np.searchsorted(xs, lb, "left"))
        np.testing.assert_array_equal(leave, np.searchsorted(xs, ub, "right"))
        # and end-to-end: a crafted dataset whose lb/ub land on centers
        xy = np.array([[3.0, 2.0], [7.0, 2.0], [5.0, 2.0]])
        raster = Raster(Region(-0.5, -0.5, 10.5, 4.5), 11, 5)
        kernel = get_kernel("uniform")
        a = sweep_kdv(xy, raster, kernel, 2.0, slam_bucket_row_numpy)
        b = numpy_batch_grid(xy, raster, kernel, 2.0)
        assert np.array_equal(a, b)

    def test_zero_pixel_intervals(self):
        """Intervals entirely between two pixel centers (enter == leave)
        contribute nothing — but their pairs still flow through the scatter
        (dropping them would reorder bincount sums for other pairs)."""
        xs = np.arange(5, dtype=np.float64)
        enter, leave = bucket_indices(
            xs, np.array([1.25, 3.1]), np.array([1.75, 3.9])
        )
        np.testing.assert_array_equal(enter, leave)
        xy = np.array([[1.5, 1.0], [1.5, 1.2]])
        raster = Raster(Region(-0.5, -0.5, 4.5, 2.5), 5, 3)
        kernel = get_kernel("epanechnikov")
        a = sweep_kdv(xy, raster, kernel, 0.4, slam_bucket_row_numpy)
        b = numpy_batch_grid(xy, raster, kernel, 0.4)
        assert np.array_equal(a, b)

    def test_empty_block_request(self):
        engine = NumpyBatchEngine()
        out = engine.sweep_block(
            3, 3, np.arange(5.0), np.arange(4.0), YSortedIndex(np.zeros((0, 2))),
            0.0, 1.0, get_kernel("uniform"),
        )
        assert out.shape == (0, 4)

    def test_unknown_kernel_rejected(self, cluster_xy):
        class FakeKernel:
            name = "gaussianish"
            num_channels = 4

        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 8, 8)
        with pytest.raises(ValueError, match="numpy_batch.*gaussianish"):
            numpy_batch_grid(cluster_xy, raster, FakeKernel(), 5.0)

    def test_bad_max_block_bytes_rejected(self):
        with pytest.raises(ValueError, match="max_block_bytes"):
            NumpyBatchEngine(max_block_bytes=0)


class TestRecorderParity:
    """Counters and timer call counts are serial-equal (batch phases merge
    to the per-row loop's accounting; docs/observability.md)."""

    def _snapshot(self, engine, cluster_xy, **kwargs):
        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 32, 40)
        rec = Recorder()
        _grids(
            cluster_xy, raster, "epanechnikov", 6.0, engine,
            recorder=rec, **kwargs,
        )
        return rec.snapshot()

    def test_counters_and_calls_match_serial_rowwise(self, cluster_xy):
        serial = self._snapshot("numpy", cluster_xy)
        batch = self._snapshot("numpy_batch", cluster_xy)
        assert batch["counters"] == serial["counters"]
        for phase in ("sweep.envelope_update", "sweep.endpoint_bucket",
                      "sweep.prefix_sweep"):
            assert batch["phases"][phase]["calls"] == \
                serial["phases"][phase]["calls"], phase

    def test_parallel_merge_equals_serial(self, cluster_xy):
        serial = self._snapshot("numpy_batch", cluster_xy)
        merged = self._snapshot(
            "numpy_batch", cluster_xy, workers=3, backend="dist",
            coordinator=Coordinator([]),
        )
        assert merged["counters"]["sweep.blocks"] > 1
        # sweep.blocks legitimately reflects the partitioning, and the
        # dist.* counters are the shard tier's own accounting (no serial
        # counterpart); every row/envelope count must still merge to the
        # serial totals.
        def sweep_counters(snap):
            return {k: v for k, v in snap["counters"].items()
                    if k != "sweep.blocks" and not k.startswith("dist.")}

        assert sweep_counters(merged) == sweep_counters(serial)
        for phase, data in serial["phases"].items():
            assert merged["phases"][phase]["calls"] == data["calls"], phase


class TestYSortedReuse:
    def test_transposed_twin_cached_and_backlinked(self, cluster_xy):
        idx = YSortedIndex(cluster_xy)
        twin = idx.transposed()
        assert twin is idx.transposed()  # cached
        assert twin.transposed() is idx  # back-linked
        fresh = YSortedIndex(cluster_xy[:, ::-1])
        np.testing.assert_array_equal(twin.order, fresh.order)
        np.testing.assert_array_equal(twin.sorted_xy, fresh.sorted_xy)

    @pytest.mark.parametrize("size", ((40, 30), (30, 40)))
    def test_caller_index_honored_under_rao(self, size, cluster_xy):
        """compute_kdv(ysorted=...) returns the same bits in both RAO
        orientations — the column sweep consumes the cached transposed twin
        instead of dropping the index."""
        kw = dict(
            region=Region(0.0, 0.0, 100.0, 80.0), size=size, bandwidth=9.0,
            method="slam_bucket_rao", normalization="none",
        )
        idx = YSortedIndex(cluster_xy)
        without = compute_kdv(cluster_xy, engine="numpy_batch", **kw).grid
        with_idx = compute_kdv(
            cluster_xy, engine="numpy_batch", ysorted=idx, **kw
        ).grid
        assert np.array_equal(without, with_idx)
        if size[0] < size[1]:  # columns orientation ran: twin was built
            assert idx._transposed is not None

    def test_index_skips_rebuild(self, cluster_xy):
        """With a caller index, no ``index_build`` span is recorded."""
        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 24, 18)
        kernel = get_kernel("epanechnikov")
        idx = YSortedIndex(cluster_xy)
        rec = Recorder()
        numpy_batch_grid(cluster_xy, raster, kernel, 9.0, ysorted=idx,
                         recorder=rec)
        assert "index_build" not in rec.snapshot()["phases"]

    def test_api_rejects_mismatched_index(self, cluster_xy):
        idx = YSortedIndex(cluster_xy[:10])
        with pytest.raises(ValueError, match="10 points"):
            compute_kdv(cluster_xy, size=(8, 8), bandwidth=5.0,
                        method="slam_bucket", ysorted=idx)

    def test_api_rejects_index_for_non_slam_method(self, cluster_xy):
        idx = YSortedIndex(cluster_xy)
        with pytest.raises(ValueError, match="SLAM methods"):
            compute_kdv(cluster_xy, size=(8, 8), bandwidth=5.0,
                        method="scan", ysorted=idx)
