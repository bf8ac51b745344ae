"""``dist_render``: repeated full renders through the worker pool, closed loop.

One caller renders a hotspot-skewed ~100k-point city at 1280x960 with
``compute_kdv(..., backend="dist")`` through a ``Coordinator`` over two
local worker processes, all with default settings.  This is the only
workload that exercises shard planning, transport, shared memory and the
merge; its row bands differ in cost, the case the scheduler exists for.
Every grid must equal the in-process render exactly.  After each render,
with the workers idle, the caller times the reference sweep of
``hostspeed.py``; the run's times are reported at the reference host's
speed.
"""

from __future__ import annotations

import time

import numpy as np

from common import counter, draw, median, peak_rss_mb, percentile, replay_core

N_POINTS = 100_000
WORKERS = 2
SETUPS = 5
MIN_RENDERS = 50
#: The tail this workload reports: 10 of its at least 50 renders lie beyond.
TAIL = 80
INPROC_REPEATS = 3


def make_points(seed: int):
    from repro import CityModel, generate_city

    model = CityModel(
        name="hotspot", extent=(20_000.0, 30_000.0), num_hotspots=3,
        num_clusters=20, hotspot_sigma=600.0, cluster_sigma=250.0,
        mixture=(0.7, 0.2, 0.05, 0.05),
    )
    return draw(generate_city(model, int(1.5 * N_POINTS), seed=7), N_POINTS, seed)


def _workers_peak_mb(pool) -> float:
    return sum(peak_rss_mb(w.pid) for w in pool)


def _close(coord, pool) -> None:
    try:
        if coord is not None:
            coord.close()
    finally:
        if pool is not None:
            pool.shutdown()


def run(ctx) -> dict:
    from repro import compute_kdv
    from repro.dist import Coordinator, launch_local_workers
    from repro.viz.bandwidth import scott_bandwidth
    from repro.viz.region import Region

    points = make_points(ctx.seed)
    reference = compute_kdv(points).grid

    setup_s, workers_mb = [], []
    coord = pool = None
    try:
        for i in range(SETUPS):
            t0 = time.perf_counter()
            pool = launch_local_workers(WORKERS)
            coord = Coordinator(pool.addrs)
            alive = coord.connect()
            setup_s.append(time.perf_counter() - t0)
            if alive != WORKERS:
                raise RuntimeError(f"only {alive} of {WORKERS} workers connected")
            if i < SETUPS - 1:
                workers_mb.append(_workers_peak_mb(pool))
                _close(coord, pool)
                coord = pool = None

        renders = {False: [], True: []}  # traced? -> seconds
        per_render = {"shards": [], "tcp": [], "shm": []}
        attempted = failed = 0
        errors: list = []
        first = coord.recorder.snapshot()
        start = time.perf_counter()
        while time.perf_counter() - start < ctx.seconds or attempted < MIN_RENDERS:
            traced = ctx.trace and attempted % 2 == 1
            attempted += 1
            before = coord.recorder.snapshot() if traced else None
            try:
                t0 = time.perf_counter()
                grid = compute_kdv(points, backend="dist", coordinator=coord).grid
                dt = time.perf_counter() - t0
            except Exception as exc:
                failed += 1
                errors.append(f"render: {type(exc).__name__}: {exc}")
                continue
            renders[traced].append(dt)
            if traced:
                after = coord.recorder.snapshot()
                ctx.tracer.add("dist.render", t0, t0 + dt, ctx.tracer.new_id())

                def d(name):
                    return counter(after, name) - counter(before, name)

                per_render["shards"].append(d("dist.shards"))
                per_render["tcp"].append(d("dist.bytes_rx") + d("dist.bytes_tx"))
                per_render["shm"].append(d("dist.shm_bytes"))
            if not np.array_equal(grid, reference):
                failed += 1
                errors.append("dist grid differs from the in-process render")
            ctx.host.sample()
        last = coord.recorder.snapshot()
        workers_mb.append(_workers_peak_mb(pool))
    finally:
        _close(coord, pool)

    all_renders = renders[False] + renders[True]
    out = {
        "e2e": {
            "setup_s": median(setup_s),
            "rss_mb": peak_rss_mb() + max(workers_mb),
            "latency_p50_ms": percentile(all_renders, 50) * 1e3,
            "latency_tail_ms": percentile(all_renders, TAIL) * 1e3,
        },
        "layers": {},
        "samples": len(all_renders),
        "latencies_ms": [round(v * 1e3, 3) for v in all_renders],
        "tail_pct": TAIL,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    if ctx.trace and renders[True]:
        xy = points.xy
        inproc, core = [], []
        for _ in range(INPROC_REPEATS):
            trace_id = ctx.tracer.new_id()
            _, dt = ctx.tracer.timed("dist.inproc", trace_id, None, compute_kdv, points)
            inproc.append(dt)
            bandwidth, scott_s = ctx.tracer.timed("viz.bandwidth.scott", trace_id, None,
                                                  scott_bandwidth, xy)
            rep = replay_core(xy, Region.from_points(xy), (1280, 960), bandwidth,
                              ctx.tracer, trace_id, None)
            rep["scott_s"] = scott_s
            core.append(rep)
        shards = median(per_render["shards"])
        overhead = median(renders[True]) - median(inproc) / WORKERS
        sweep = sum(r["sweep_s"] for r in core)
        pairs = sum(r["pairs"] for r in core)

        def total(name):
            return counter(last, name) - counter(first, name)

        out["layers"] = {
            "dist.inproc_ms": median(inproc) * 1e3,
            "dist.overhead_ms": overhead * 1e3,
            "dist.shards": shards,
            "dist.overhead_per_shard_ms": overhead / shards * 1e3 if shards else 0.0,
            "dist.tcp_bytes": median(per_render["tcp"]),
            "dist.shm_bytes": median(per_render["shm"]),
            "dist.retries": total("dist.retries"),
            "dist.steals": total("dist.steals"),
            "viz.bandwidth.scott_ms": median([r["scott_s"] for r in core]) * 1e3,
            "viz.region.bounds_ms": median([r["bounds_s"] for r in core]) * 1e3,
            "core.envelope.index_ms": median([r["index_s"] for r in core]) * 1e3,
            "core.setup_share": sum(r["bounds_s"] + r["index_s"] for r in core) / sum(inproc),
            "core.sweep_ms": median([r["sweep_s"] for r in core]) * 1e3,
            "core.envelope_pairs": median([r["pairs"] for r in core]),
            "core.ns_per_pair": sweep / pairs * 1e9 if pairs else 0.0,
            "trace.overhead_pct": (median(renders[True]) / median(renders[False]) - 1.0) * 100.0,
        }
    return out
