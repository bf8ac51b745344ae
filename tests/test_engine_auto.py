"""``engine="auto"``: one resolution rule, bit-identical defaults.

:func:`repro.core.api.resolve_engine` is the only place that knows which
concrete engine ``"auto"`` names.  These tests pin its table, then pin every
default render path — ``compute_kdv``, an exploration frame, a tile (plain,
served and windowed), a streaming grid, the quality tiers and a distributed
render — ``np.array_equal`` to the same call with the per-row ``numpy``
oracle.  The equality tests run in both availability regimes: with the
compiled extension (``auto`` -> ``native``; skipped when it is absent) and
with it forced off (``auto`` -> ``numpy_batch``).
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import repro.core.api as api
from repro import ExplorationSession, PointSet, Region, compute_kdv
from repro.cli import build_parser
from repro.core.api import resolve_engine
from repro.core.native import NATIVE_AVAILABLE
from repro.dist import Coordinator, WorkerServer
from repro.extensions.multiband import compute_multiband
from repro.extensions.streaming import StreamingKDV
from repro.serve import TileService
from repro.serve.quality import coreset_grid, pyramid_grid
from repro.viz.tiles import TileScheme, render_tile

WORLD = Region(0.0, 0.0, 1000.0, 1000.0)
TILE = 16
BANDWIDTH = 60.0


@pytest.fixture(scope="module")
def feed() -> PointSet:
    rng = np.random.default_rng(20221013)
    centers = rng.uniform(100.0, 900.0, (5, 2))
    xy = np.clip(
        centers[rng.integers(0, 5, 1500)] + rng.normal(0.0, 70.0, (1500, 2)),
        0.0, 1000.0,
    )
    return PointSet(xy, t=np.arange(len(xy), dtype=np.float64))


@pytest.fixture(params=["native", "fallback"])
def regime(request, monkeypatch) -> str:
    """What ``auto`` resolves to for the bucket methods in this test."""
    if request.param == "native":
        if not NATIVE_AVAILABLE:
            pytest.skip("native sweep extension not compiled")
        return "native"
    monkeypatch.setattr(api, "NATIVE_AVAILABLE", False)
    return "numpy_batch"


def _oracle_tile(points, scheme, zoom, tx, ty) -> np.ndarray:
    return compute_kdv(
        points, region=scheme.tile_region(zoom, tx, ty), size=(TILE, TILE),
        bandwidth=BANDWIDTH, engine="numpy", normalization="none",
    ).grid


# -- the resolution table -----------------------------------------------------


class TestResolveEngine:
    @pytest.mark.parametrize("available, bucket", [(True, "native"),
                                                   (False, "numpy_batch")])
    def test_table(self, monkeypatch, available, bucket):
        monkeypatch.setattr(api, "NATIVE_AVAILABLE", available)
        for method in ("slam_bucket", "slam_bucket_rao"):
            assert resolve_engine("auto", method) == bucket
        for method in ("slam_sort", "slam_sort_rao", "quad", "akde"):
            assert resolve_engine("auto", method) == "numpy"
        for method in ("scan", "rqs_kd", "zorder", "binned_fft"):
            # ignored by these methods; any concrete name would do
            assert resolve_engine("auto", method) == "numpy"

    @pytest.mark.parametrize("engine", ["python", "numpy", "numpy_batch",
                                        "native", "bogus"])
    def test_explicit_names_pass_through(self, engine):
        assert resolve_engine(engine, "slam_bucket_rao") == engine

    @pytest.mark.parametrize("fn", [compute_kdv, ExplorationSession,
                                    StreamingKDV, pyramid_grid, coreset_grid,
                                    compute_multiband],
                             ids=lambda fn: fn.__name__)
    def test_default_everywhere(self, fn):
        assert inspect.signature(fn).parameters["engine"].default == "auto"

    @pytest.mark.parametrize("command", ["compute", "dist"])
    def test_cli_default(self, command):
        args = build_parser().parse_args([command, "x.csv"])
        assert args.engine == "auto"

    def test_native_default_reports_fused_phase(self, regime):
        xy = np.random.default_rng(3).uniform(0.0, 50.0, (300, 2))
        phases = compute_kdv(xy, size=(24, 18), bandwidth=6.0,
                             collect_stats=True).stats.phases
        assert ("sweep.fused" in phases) == (regime == "native")
        assert ("sweep.prefix_sweep" in phases) == (regime != "native")


# -- every default path equals the numpy oracle -------------------------------


class TestDefaultsEqualOracle:
    @pytest.mark.parametrize("method", ["slam_bucket", "slam_bucket_rao",
                                        "slam_sort", "slam_sort_rao"])
    @pytest.mark.parametrize("size", [(40, 24), (24, 40)])
    def test_compute_kdv(self, regime, feed, method, size):
        kw = dict(size=size, bandwidth=BANDWIDTH, method=method)
        assert np.array_equal(
            compute_kdv(feed, **kw).grid,
            compute_kdv(feed, engine="numpy", **kw).grid,
        )

    def test_compute_kdv_weighted(self, regime, feed):
        w = np.random.default_rng(5).uniform(0.5, 2.0, len(feed))
        kw = dict(size=(32, 24), bandwidth=BANDWIDTH, weights=w,
                  kernel="quartic")
        assert np.array_equal(
            compute_kdv(feed.xy, **kw).grid,
            compute_kdv(feed.xy, engine="numpy", **kw).grid,
        )

    def test_exploration_frame(self, regime, feed):
        auto = ExplorationSession(feed, size=(48, 36))
        oracle = ExplorationSession(feed, size=(48, 36), engine="numpy")
        for session in (auto, oracle):
            session.zoom(0.5)
        assert np.array_equal(auto.render().grid, oracle.render().grid)

    def test_render_tile(self, regime, feed):
        scheme = TileScheme(WORLD)
        for tile in [(0, 0, 0), (2, 1, 2)]:
            got = render_tile(feed, scheme, *tile, tile_size=TILE,
                              bandwidth=BANDWIDTH)
            assert np.array_equal(got, _oracle_tile(feed, scheme, *tile))

    def test_tile_service_plain_and_windowed(self, regime, feed):
        scheme = TileScheme(WORLD)
        window = 600.0
        live = feed.xy[feed.t >= feed.t.max() - window]
        with TileService(feed, scheme, tile_size=TILE, bandwidth=BANDWIDTH,
                         max_zoom=2, window_s=window) as service:
            for tile in [(0, 0, 0), (1, 1, 0)]:
                assert np.array_equal(service.get_tile(*tile),
                                      _oracle_tile(feed, scheme, *tile))
                assert np.array_equal(
                    service.get_tile(*tile, window=window),
                    _oracle_tile(live, scheme, *tile),
                )

    def test_streaming_insert_delete(self, regime, feed):
        kw = dict(size=(32, 24), bandwidth=BANDWIDTH, rebuild_every=None)
        auto = StreamingKDV(WORLD, **kw)
        oracle = StreamingKDV(WORLD, engine="numpy", **kw)
        for stream in (auto, oracle):
            stream.insert(feed.xy[:900])
            stream.insert(feed.xy[900:])
            stream.delete_oldest()
        assert np.array_equal(auto.grid, oracle.grid)

    def test_quality_tiers(self, regime, feed):
        region = TileScheme(WORLD).tile_region(1, 0, 1)
        kw = dict(bandwidth=BANDWIDTH)
        assert np.array_equal(
            pyramid_grid(feed.xy, region, (TILE, TILE), level=1, **kw),
            pyramid_grid(feed.xy, region, (TILE, TILE), level=1,
                         engine="numpy", **kw),
        )
        assert np.array_equal(
            coreset_grid(feed.xy, region, (TILE, TILE), sample_size=256, **kw),
            coreset_grid(feed.xy, region, (TILE, TILE), sample_size=256,
                         engine="numpy", **kw),
        )

    def test_multiband(self, regime, feed):
        kw = dict(size=(32, 24))
        for got, want in zip(
            compute_multiband(feed, [40.0, 90.0], **kw),
            compute_multiband(feed, [40.0, 90.0], engine="numpy", **kw),
        ):
            assert np.array_equal(got.grid, want.grid)

    def test_dist_two_workers(self, regime, feed):
        servers = [WorkerServer(port=0, heartbeat_s=0.2) for _ in range(2)]
        threads = [srv.start_in_thread() for srv in servers]
        kw = dict(size=(40, 30), bandwidth=BANDWIDTH)
        try:
            addrs = [("127.0.0.1", srv.port) for srv in servers]
            with Coordinator(addrs, shards=4) as coord:
                assert coord.connect() == 2
                dist = compute_kdv(feed, backend="dist", coordinator=coord, **kw)
                assert coord.recorder.counter_value("dist.local_shards") == 0
        finally:
            for srv in servers:
                srv.stop()
            for thread in threads:
                thread.join(timeout=5.0)
        assert np.array_equal(dist.grid,
                              compute_kdv(feed, engine="numpy", **kw).grid)


# -- the baselines and the error message --------------------------------------


@pytest.mark.parametrize("method", ["scan", "quad", "akde"])
def test_auto_accepted_by_baselines(feed, method):
    kw = dict(size=(20, 16), bandwidth=BANDWIDTH, method=method)
    assert np.array_equal(
        compute_kdv(feed, engine="auto", **kw).grid,
        compute_kdv(feed, engine="numpy", **kw).grid,
    )


@pytest.mark.parametrize("method", ["slam_bucket_rao", "slam_sort"])
def test_unknown_engine_error_lists_auto(feed, method):
    with pytest.raises(ValueError, match="unknown engine 'bogus'") as exc:
        compute_kdv(feed, size=(8, 6), bandwidth=BANDWIDTH, method=method,
                    engine="bogus")
    assert "'auto'" in str(exc.value)
