"""``explore``: one analyst's exploratory session, closed loop.

A seeded sequence of ``ExplorationSession`` operations (zoom ratios
0.25-1, pans, time and category filters, resets) at 1280x960 over one
~100k-point synthetic city, with the default method, engine and kernel.
Full-view frames spend their time in the sweep; filtered and zoomed frames
re-pay the per-call index build.  Never touches ``serve`` or ``dist``.

The operations come in cycles of eight with a fixed mix of kinds (two of
eight filtered), so the median frame always falls among the full-data
frames.  The seed moves only the parameters: zoom ratios are drawn without
replacement from the paper's ladder, two per cycle, and pans move a fifth
of the view in a seeded direction.  A run covers whole pairs of cycles, so
every zoom ratio appears equally often.

After each frame, with the session idle, the run times the reference sweep
of ``hostspeed.py``; the run's times are reported at the reference host's
speed.
"""

from __future__ import annotations

import time

import numpy as np

from common import draw, median, oracle_mismatch, peak_rss_mb, percentile, replay_core

N_POINTS = 100_000
SIZE = (1280, 960)
SETUPS = 15
MIN_FRAMES = 48
#: The tail this workload reports: 10 or more of its at least 48 frames lie
#: beyond.
TAIL = 79
_YEAR = 365.25 * 24 * 3600.0
_ZOOMS = (0.25, 0.5, 0.75, 1.0)


def make_points(seed: int):
    from repro import full_size, load_dataset

    city = load_dataset("seattle", scale=1.5 * N_POINTS / full_size("seattle"))
    return draw(city, N_POINTS, seed)


def _cycles(rng: np.random.Generator):
    """Endless seeded operation cycles; each op is ``(name, fn(session))``."""
    while True:
        ratios = list(rng.permutation(_ZOOMS))
        for half in (ratios[:2], ratios[2:]):
            dx, dy, ex, ey = rng.choice((-0.2, 0.2), 4)
            t0 = float(rng.uniform(0.0, 3.0 * _YEAR))
            cat = int(rng.integers(0, 6))
            r1, r2 = float(half[0]), float(half[1])
            yield [
                ("reset", lambda s: s.reset_view()),
                ("zoom", lambda s, r=r1: s.zoom(r)),
                ("pan", lambda s, a=dx, b=dy: s.pan(a, b)),
                ("pan", lambda s, a=ex, b=ey: s.pan(a, b)),
                ("filter_time", lambda s, a=t0: s.filter_time(a, a + _YEAR)),
                ("filter_category", lambda s, c=cat: s.filter_category(c)),
                ("clear_filters", lambda s: s.clear_filters()),
                ("zoom", lambda s, r=r2: s.zoom(r)),
            ]


def run(ctx) -> dict:
    from repro import ExplorationSession
    from repro.viz.bandwidth import scott_bandwidth

    points = make_points(ctx.seed)
    xy = points.xy

    setup_s, scott_s = [], []
    session = None
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        session = ExplorationSession(points)
        setup_s.append(time.perf_counter() - t0)
        _, dt = ctx.tracer.timed("viz.bandwidth.scott", 0, None, scott_bandwidth, xy)
        scott_s.append(dt)

    op_rng = np.random.default_rng([ctx.seed, 1])
    check_rng = np.random.default_rng([ctx.seed, 2])
    frames = {False: [], True: []}  # traced? -> frame seconds
    layers = {"bounds_s": [], "index_s": [], "sweep_s": [], "pairs": []}
    attempted = failed = 0
    errors: list = []
    start = time.perf_counter()
    cycles = _cycles(op_rng)
    cycle = 0
    while (cycle % 2 or time.perf_counter() - start < ctx.seconds
           or sum(map(len, frames.values())) < MIN_FRAMES):
        traced = ctx.trace and cycle % 2 == 1
        for name, op in next(cycles):
            attempted += 1
            trace_id = ctx.tracer.new_id()
            try:
                t0 = time.perf_counter()
                result = op(session)
                dt = time.perf_counter() - t0
            except Exception as exc:  # a failed frame is counted, not fatal
                failed += 1
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            frames[traced].append(dt)
            session.frames.clear()  # keep memory flat however many frames run
            active = session.active_points
            bad = oracle_mismatch(
                result.grid, session.region, active.xy, session.bandwidth,
                check_rng, scale=1.0 / len(active),
            )
            if traced:
                root = ctx.tracer.add("explore.frame", t0, t0 + dt, trace_id)
                rep = replay_core(active.xy, session.region, SIZE, session.bandwidth,
                                  ctx.tracer, trace_id, root)
                for key in layers:
                    layers[key].append(rep[key])
                if bad is None and not np.array_equal(rep["grid"] / float(len(active)), result.grid):
                    bad = "layer replay grid differs from the session frame"
            if bad is not None:
                failed += 1
                errors.append(f"{name}: {bad}")
            ctx.host.sample()
        cycle += 1

    all_frames = frames[False] + frames[True]
    out = {
        "e2e": {
            "setup_s": median(setup_s),
            "rss_mb": peak_rss_mb(),
            "latency_p50_ms": percentile(all_frames, 50) * 1e3,
            "latency_tail_ms": percentile(all_frames, TAIL) * 1e3,
        },
        "samples": len(all_frames),
        "latencies_ms": [round(v * 1e3, 3) for v in all_frames],
        "tail_pct": TAIL,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "layers": {"viz.bandwidth.scott_ms": median(scott_s) * 1e3},
    }
    if ctx.trace and frames[True]:
        sweep, pairs = sum(layers["sweep_s"]), sum(layers["pairs"])
        setup = sum(layers["bounds_s"]) + sum(layers["index_s"])
        out["layers"].update({
            "viz.region.bounds_ms": median(layers["bounds_s"]) * 1e3,
            "core.envelope.index_ms": median(layers["index_s"]) * 1e3,
            "core.setup_share": setup / sum(frames[True]),
            "core.sweep_ms": median(layers["sweep_s"]) * 1e3,
            "core.envelope_pairs": median(layers["pairs"]),
            "core.ns_per_pair": sweep / pairs * 1e9 if pairs else 0.0,
            "trace.overhead_pct": (median(frames[True]) / median(frames[False]) - 1.0) * 100.0,
        })
    return out
