"""``tile_traffic``: a live map layer served by ``TileService``, open loop.

Tile requests arrive at a fixed rate, one at a seeded time in each 1/RATE
slot, from twelve scripted map sessions that pan and zoom over zooms 3-8
from home views at the city's three densest areas; one session asks for
``window=`` tiles.  Timestamped ``ingest`` batches arrive at a fixed rate
beside the reads, and auto-ticks advance the live sliding window.  This is
the only workload that exercises the cache, coalescing, the render queue
and GIL contention, invalidation and deep-zoom envelopes; the writes
reveal a read-path gain that costs ingest.

Load comes from two generator threads, which sleep until their next event
instead of polling: each wake-up takes the GIL from a render in flight.
The issuer keeps the request schedule with ``request_tile(wait=False)``: a
hit answers at once, a miss returns a pending tile whose completion is
timestamped by a callback on the render future itself, so a hit never
waits behind an earlier, slower miss.
The issuer then colours and encodes each answer (``colorize_tile``,
``encode_png``).  Latency runs from a request's scheduled send time to its
PNG bytes.  The writer thread sends the ingest batches on their schedule.
The sessions' opening views are fetched before the clock starts, and the
first ``WARMUP_S`` seconds are left out of every figure.

With 2.5k points, 256-px tiles and Scott's bandwidth a miss costs 25-70 ms
with the default engine on 2 cores.  At this rate about 82% of requests
hit the cache, no request is refused, and the render pool stays below
saturation with no growing backlog.  Two misses that overlap share the
GIL and each take about twice as long.  The arrivals and the scripts keep
overlaps rare and the same from run to run, so the tail is set by single
renders, not by how many overlaps a run happens to draw: Poisson arrivals
clumped five misses into half a second in some runs and not in others,
and the queue behind them moved the tail between 59 and 156 ms over ten
seeds.

Between requests, while no render is in flight, the issuer times the
reference sweep of ``hostspeed.py``; the run's times are reported at the
reference host's speed.
"""

from __future__ import annotations

import json
import queue
import threading
import time

import numpy as np

from common import (
    counter, draw, median, oracle_mismatch, peak_rss_mb, percentile, phase, replay_core,
)

N_POINTS = 2_500
TILE = 256
MAX_ZOOM = 8
RATE = 8.0                  # tile requests per second
INGEST_HZ = 0.25            # ingest batches per second
BATCH = 200                 # events per ingest batch
DAY = 86_400.0
WINDOW_S = 30 * DAY         # the live sliding window, in event time
TICK_S = 1.0
WARMUP_S = 6.0
SETUPS = 9
SESSIONS = 12
WINDOWED_SESSIONS = 1
HOT_AREAS = 3
#: Home zooms; with the hot areas they give each session its own home view.
HOME_ZOOMS = (3, 5, 6, 8)
#: Every session repeats this script from its own offset, so the mix of
#: actions in any stretch of traffic is fixed: refreshes (clients re-polling
#: a live layer), a pan onto an unseen tile, and a zoom in and back out.
#: About one request in six misses, so the tail lies near the middle of the
#: misses rather than at their slowest few.  Headings are fixed per
#: session; the seed moves the events drawn, the order of the sessions and
#: the arrival times.
SCRIPT = ("pan", "refresh", "refresh", "refresh", "refresh", "refresh",
          "zoom_in", "refresh", "refresh", "zoom_out", "refresh", "refresh")
#: Ingest batches land around the centres of the cells of a DISTRICTS x
#: DISTRICTS grid over the data that hold no hot area, in a seeded order, so
#: a run writes to about every such district once.  A batch in a hot area
#: invalidates every popular tile around it at once; the re-render burst
#: would set the tail by itself and swing it from run to run.  Batches
#: elsewhere still invalidate the low-zoom tiles over them and stale every
#: render in flight.
DISTRICTS = 3
#: Tails reported: p94 of the 192 measured tile requests (11 beyond it) and p80 of the ~12 measured ingests (a per-layer figure).
TAIL = 94
INGEST_TAIL = 80
#: The generator is too late, and the run invalid, past this p99 lateness.
MAX_LATE_S = 0.5
CHECK_TILES = 10
#: The issuer times the reference sweep of ``hostspeed.py`` (~50 ms) at most
#: every HOST_EVERY_S, and only while no render is in flight and the next
#: request is more than HOST_IDLE_S away, so the sweep does not load the
#: service and delays a request only when the host is briefly twice as slow
#: (which shows in ``serve.late_ms``).
HOST_EVERY_S = 0.5
HOST_IDLE_S = 0.1
REPLAY_TILES = 16


def make_points(seed: int):
    from repro import full_size, load_dataset

    city = load_dataset("seattle", scale=1.5 * N_POINTS / full_size("seattle"))
    return draw(city, N_POINTS, seed)


def _hot_areas(scheme, xy) -> np.ndarray:
    """Centres of the densest zoom-4 tiles: where the city's events are."""
    w = scheme.world
    per = 16
    counts, _, _ = np.histogram2d(xy[:, 0], xy[:, 1], bins=per,
                                  range=[[w.xmin, w.xmax], [w.ymin, w.ymax]])
    top = np.argsort(counts, axis=None)[::-1][:HOT_AREAS]
    ix, iy = np.unravel_index(top, counts.shape)
    return np.column_stack([w.xmin + (ix + 0.5) * w.width / per,
                            w.ymin + (iy + 0.5) * w.height / per])


class _Session:
    """One map client: a home view at a hot area, walked by :data:`SCRIPT`."""

    def __init__(self, scheme, hot, index: int):
        self.scheme = scheme
        self.window = WINDOW_S if index < WINDOWED_SESSIONS else None
        self.z = HOME_ZOOMS[index // len(hot) % len(HOME_ZOOMS)]
        self.x, self.y = hot[index % len(hot)]
        self.heading = ((1, 0), (-1, 0), (0, 1), (0, -1))[index % 4]
        self.k = index

    def step(self) -> None:
        action = SCRIPT[self.k % len(SCRIPT)]
        self.k += 1
        if action == "pan":
            w = self.scheme.world
            side = w.width / (1 << self.z)
            self.x = min(max(self.x + self.heading[0] * side, w.xmin), w.xmax)
            self.y = min(max(self.y + self.heading[1] * side, w.ymin), w.ymax)
        elif action == "zoom_in":
            self.z = min(self.z + 1, MAX_ZOOM)
        elif action == "zoom_out":
            self.z = max(self.z - 1, 0)

    def tile(self) -> tuple:
        """The one tile a small map widget shows; a larger viewport fetches
        its tiles in a burst whose queueing would swing the tail."""
        return (self.z, *self.scheme.tile_of_point(self.z, self.x, self.y), self.window)


def _schedule(rng, scheme, xy, t_max, seconds):
    """Seeded request and ingest schedules, ``[(due_s, z, tx, ty, window)]``
    and ``[(due_s, xy, t)]``, plus the tiles of the sessions' opening views."""
    # One arrival at a seeded uniform time in each 1/RATE slot: the rate of a
    # Poisson stream without its clumps, whose queueing bursts would set the
    # tail by themselves and swing it from run to run
    slots = int(RATE * seconds)
    times = (np.arange(slots) + rng.uniform(0.0, 1.0, slots)) / RATE
    hot = _hot_areas(scheme, xy)
    sessions = [_Session(scheme, hot, i) for i in range(SESSIONS)]
    opening = sorted({s.tile() for s in sessions}, key=str)
    order = rng.permutation(SESSIONS)  # a fixed rotation spaces the misses evenly
    tiles: list = []
    while len(tiles) < len(times):
        for i in order:
            sessions[i].step()
            tiles.append(sessions[i].tile())
    requests = [(float(due), *key) for due, key in zip(times, tiles)]
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    step = (hi - lo) / DISTRICTS
    hot_cells = {tuple(((h - lo) // step).astype(int)) for h in hot}
    quiet = [c for c in range(DISTRICTS * DISTRICTS)
             if (c % DISTRICTS, c // DISTRICTS) not in hot_cells]
    cells: list = []
    ingests = []
    for k in range(1, int(seconds * INGEST_HZ)):
        if not cells:
            cells = list(rng.permutation(quiet))
        cell = cells.pop()
        centre = lo + step * (np.array([cell % DISTRICTS, cell // DISTRICTS]) + 0.5)
        batch = rng.normal(centre, 300.0, (BATCH, 2))
        t = np.sort(t_max + k * DAY + rng.uniform(0.0, DAY, BATCH))
        ingests.append((k / INGEST_HZ, batch, t))
    return requests, ingests, opening


class _Traffic:
    """The two generator threads and what they measured."""

    def __init__(self, svc, requests, ingests, tracer, traced: bool, host):
        self.svc, self.requests, self.ingests = svc, requests, ingests
        self.tracer, self.traced, self.host = tracer, traced, host
        self.next_host_sample = 0.0
        self.stop = threading.Event()
        self.done_q: "queue.Queue" = queue.Queue()
        self.lock = threading.Lock()
        self.results: list = []     # (due, latency_s, hit, render_done_s, traced, key)
        self.late: list = []        # (due, lateness_s)
        self.ingest_lat: list = []  # (due, latency_s, tiles invalidated)
        self.colorize_s: list = []
        self.png_s: list = []
        self.miss_waits: dict = {}   # measured all-time miss key -> render wait
        self.served: set = set()
        self.failures: list = []
        self.outstanding = 0
        self.t0 = 0.0

    def fail(self, what: str, exc: BaseException) -> None:
        with self.lock:
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    def _finish(self, req, response, hit: bool, t_done: float, trace_id, parent):
        from repro.viz.image import encode_png

        due, z, tx, ty, window = req
        a = time.perf_counter()
        rgb = self.svc.colorize_tile(response.grid, window=window)
        b = time.perf_counter()
        png = encode_png(rgb)
        c = time.perf_counter()
        if not png:
            raise ValueError("empty PNG")
        latency = c - (self.t0 + due)
        if trace_id is not None:
            self.tracer.add("viz.colormap.colorize", a, b, trace_id, parent)
            self.tracer.add("viz.image.png", b, c, trace_id, parent)
            self.tracer.add("serve.request", self.t0 + due, c, trace_id)
            self.colorize_s.append(b - a)
            self.png_s.append(c - b)
        self.results.append((due, latency, hit, t_done - (self.t0 + due), trace_id is not None,
                             (z, tx, ty, window is not None)))
        self.served.add((z, tx, ty, window))
        if not hit and window is None and due >= WARMUP_S:
            self.miss_waits[(z, tx, ty)] = t_done - (self.t0 + due)

    def _drain(self, timeout: float) -> None:
        """Colour and encode every render that has finished, waiting up to
        ``timeout`` for the first one."""
        block = timeout > 0
        while True:
            try:
                req, pending, t_done, trace_id = self.done_q.get(block, max(timeout, 0.0))
            except queue.Empty:
                return
            block, timeout = False, 0.0
            self.outstanding -= 1
            try:
                response = pending.resolve(timeout=0)
                if trace_id is not None:
                    self.tracer.add("serve.render", self.t0 + req[0], t_done, trace_id)
                self._finish(req, response, False, t_done, trace_id, None)
            except Exception as exc:
                self.fail(f"tile {req[1:]}", exc)

    def issuer(self) -> None:
        try:
            for i, req in enumerate(self.requests):
                due = self.t0 + req[0]
                while not self.stop.is_set():
                    now = time.perf_counter()
                    wait = due - now
                    if wait <= 0:
                        break
                    if (wait > HOST_IDLE_S and now >= self.next_host_sample
                            and not self.outstanding and self.done_q.empty()):
                        self.host.sample()
                        self.next_host_sample = now + HOST_EVERY_S
                        continue
                    self._drain(wait)
                if self.stop.is_set():
                    return
                sent = time.perf_counter()
                self.late.append((req[0], sent - due))
                trace_id = self.tracer.new_id() if self.traced and i % 2 else None
                self._issue(req, trace_id)
            deadline = time.perf_counter() + 30.0
            while self.outstanding and not self.stop.is_set() and time.perf_counter() < deadline:
                self._drain(0.25)
        except Exception as exc:
            self.fail("issuer", exc)

    def _issue(self, req, trace_id) -> None:
        from repro.serve import PendingTile

        _due, z, tx, ty, window = req
        try:
            a = time.perf_counter()
            answer = self.svc.request_tile(z, tx, ty, window=window, wait=False)
            b = time.perf_counter()
            span = None
            if trace_id is not None:
                span = self.tracer.add("serve.request_tile", a, b, trace_id)
            if isinstance(answer, PendingTile):
                self.outstanding += 1
                q = self.done_q
                answer.future.add_done_callback(
                    lambda _f, r=req, p=answer, tid=trace_id: q.put((r, p, time.perf_counter(), tid))
                )
            else:
                self._finish(req, answer, True, b, trace_id, span)
        except Exception as exc:
            self.fail(f"tile {req[1:]}", exc)

    def writer(self) -> None:
        for due_rel, xy, t in self.ingests:
            due = self.t0 + due_rel
            while not self.stop.is_set() and time.perf_counter() < due:
                self.stop.wait(due - time.perf_counter())
            if self.stop.is_set():
                return
            try:
                answer = self.svc.ingest(xy, t)
                self.ingest_lat.append((due_rel, time.perf_counter() - due, answer.get("invalidated")))
            except Exception as exc:
                self.fail("ingest", exc)


def _check(svc, seed_points, ingests, served, bandwidth, rng) -> list:
    """Quiescent end-of-run check of a seeded sample of served tiles against
    the direct kernel sum over the points the service must hold, and of
    windowed tiles against a fresh render of the live window."""
    from repro.viz.tiles import render_tile

    svc.tick()  # expire exactly the events older than the window
    xy_all = np.vstack([seed_points.xy] + [b for _d, b, _t in ingests])
    t_all = np.concatenate([seed_points.t] + [t for _d, _b, t in ingests])
    live = t_all >= t_all.max() - WINDOW_S
    keys = sorted(served, key=lambda k: (k[0], k[1], k[2], k[3] is not None))
    picks = rng.choice(len(keys), min(CHECK_TILES, len(keys)), replace=False)
    problems = []
    for k in picks:
        z, tx, ty, window = keys[int(k)]
        xy = xy_all if window is None else xy_all[live]
        grid = svc.request_tile(z, tx, ty, window=window).grid
        region = svc.scheme.tile_region(z, tx, ty)
        bad = oracle_mismatch(grid, region, xy, bandwidth, rng)
        if bad is None and window is not None:
            fresh = render_tile(xy, svc.scheme, z, tx, ty, tile_size=TILE, bandwidth=bandwidth)
            drift = float(np.max(np.abs(fresh - grid)))
            if drift > 1e-9:
                bad = f"windowed tile drifts {drift:.3g} from a fresh render"
        if bad is not None:
            problems.append(f"tile {(z, tx, ty, window)}: {bad}")
    return problems


def _replay(svc, xy, keys, bandwidth, tracer) -> dict:
    """Uncontended ``render_tile`` and layer replays of served miss keys."""
    from repro.core.envelope import YSortedIndex
    from repro.viz.tiles import render_tile

    index = YSortedIndex(xy)
    out = {"render_s": [], "bounds_s": [], "index_s": [], "sweep_s": [], "pairs": []}
    for z, tx, ty in keys:
        trace_id = tracer.new_id()
        _, dt = tracer.timed("viz.tiles.render", trace_id, None, render_tile, xy, svc.scheme,
                             z, tx, ty, tile_size=TILE, bandwidth=bandwidth, ysorted=index)
        out["render_s"].append(dt)
        rep = replay_core(xy, svc.scheme.tile_region(z, tx, ty), (TILE, TILE), bandwidth,
                          tracer, trace_id, None)
        for key in ("bounds_s", "index_s", "sweep_s", "pairs"):
            out[key].append(rep[key])
    return out


def run(ctx) -> dict:
    from repro.serve import TileService
    from repro.viz.bandwidth import scott_bandwidth

    points = make_points(ctx.seed)
    bandwidth = scott_bandwidth(points.xy)
    rng = np.random.default_rng([ctx.seed, 1])

    def build():
        return TileService(points, tile_size=TILE, bandwidth=bandwidth, max_zoom=MAX_ZOOM,
                           window_s=WINDOW_S, tick_s=TICK_S)

    setup_s = []
    svc = traffic = None
    threads: list = []
    try:
        for i in range(SETUPS):
            t0 = time.perf_counter()
            svc = build()
            setup_s.append(time.perf_counter() - t0)
            if i < SETUPS - 1:
                svc.close()
        requests, ingests, opening = _schedule(
            rng, svc.scheme, points.xy, float(points.t.max()), ctx.seconds)
        for z, tx, ty, window in opening:  # a map opens on a warm cache
            svc.request_tile(z, tx, ty, window=window)
        traffic = _Traffic(svc, requests, ingests, ctx.tracer, ctx.trace, ctx.host)
        threads = [threading.Thread(target=traffic.issuer, name="bench-issuer"),
                   threading.Thread(target=traffic.writer, name="bench-writer")]
        traffic.t0 = time.perf_counter()
        for t in threads:
            t.start()
        threads[0].join(timeout=traffic.t0 + WARMUP_S - time.perf_counter())
        before = svc.recorder.snapshot()
        while any(t.is_alive() for t in threads):
            for t in threads:
                t.join(timeout=0.5)
        after = svc.recorder.snapshot()
        check_problems = _check(svc, points, ingests, traffic.served, bandwidth, rng)
        a = time.perf_counter()
        stats = svc.stats()
        stats_s = time.perf_counter() - a
        replay = None
        if ctx.trace:
            keys = sorted(traffic.miss_waits)
            picks = rng.choice(len(keys), min(REPLAY_TILES, len(keys)), replace=False)
            keys = [keys[int(k)] for k in picks]
            xy_all = np.vstack([points.xy] + [b for _d, b, _t in ingests])
            replay = _replay(svc, xy_all, keys, bandwidth, ctx.tracer)
            replay["wait_s"] = [traffic.miss_waits[k] - r for k, r in zip(keys, replay["render_s"])]
    finally:
        if traffic is not None:
            traffic.stop.set()
        for t in threads:
            t.join()
        if svc is not None:
            svc.close()

    measured = [r for r in traffic.results if r[0] >= WARMUP_S]
    latency = [r[1] for r in measured]
    hits = [r[1] for r in measured if r[2]]
    misses = [r for r in measured if not r[2]]
    ingest_lat = [lat for due, lat, _n in traffic.ingest_lat if due >= WARMUP_S]
    late = [lat for due, lat in traffic.late if due >= WARMUP_S]
    failures = list(traffic.failures) + check_problems
    unfinished = len(requests) - len(traffic.results) - sum(f.startswith("tile") for f in traffic.failures)
    if unfinished > 0:
        failures.append(f"{unfinished} requests never completed")
    late_p99 = percentile(late, 99) if late else 0.0
    if late_p99 > MAX_LATE_S:
        failures.append(f"generator too late: p99 lateness {late_p99 * 1e3:.0f} ms")
    for view in stats.get("window", {}).get("views", []):
        drift = float(view.get("last_rebuild_drift") or 0.0)
        if drift > 1e-9:
            failures.append(f"window {view.get('seconds')} drifted {drift:.3g} before its rebuild")

    def delta(name):
        return counter(after, name) - counter(before, name)

    def delta_ms(name):
        (t1, c1), (t0, c0) = phase(after, name), phase(before, name)
        return (t1 - t0) / (c1 - c0) * 1e3 if c1 > c0 else 0.0

    lookups = delta("tiles.cache.hits") + delta("tiles.cache.misses")
    flights = delta("serve.coalesce.joined") + delta("serve.coalesce.leaders")
    ingests_n = delta("serve.ingest_requests")
    layers = {
        "serve.hit_ratio": delta("tiles.cache.hits") / lookups if lookups else 0.0,
        "serve.hit_ms": median(hits) * 1e3,
        "serve.miss_ms": median([r[1] for r in misses]) * 1e3,
        "serve.coalesce_ratio": delta("serve.coalesce.joined") / flights if flights else 0.0,
        "serve.renders": phase(after, "tiles.render")[1] - phase(before, "tiles.render")[1],
        "serve.ingest_ms": delta_ms("serve.ingest"),
        "serve.ingest_p50_ms": percentile(ingest_lat, 50) * 1e3 if ingest_lat else 0.0,
        "serve.ingest_tail_ms": percentile(ingest_lat, INGEST_TAIL) * 1e3 if ingest_lat else 0.0,
        "serve.window.tick_ms": delta_ms("window.tick"),
        "serve.invalidated_per_ingest": delta("serve.invalidated_tiles") / ingests_n if ingests_n else 0.0,
        "serve.late_ms": late_p99 * 1e3,
        "obs.stats_ms": stats_s * 1e3,
        "obs.stats_kb": len(json.dumps(stats, default=str)) / 1024.0,
    }
    if ctx.trace:
        traced = [r[1] for r in measured if r[4]]
        untraced = [r[1] for r in measured if not r[4]]
        render_ms = median(replay["render_s"]) * 1e3
        sweep, pairs = sum(replay["sweep_s"]), sum(replay["pairs"])
        setup = sum(replay["bounds_s"]) + sum(replay["index_s"])
        layers.update({
            "viz.colormap.colorize_ms": median(traffic.colorize_s) * 1e3,
            "viz.image.png_ms": median(traffic.png_s) * 1e3,
            "viz.tiles.render_ms": render_ms,
            "serve.wait_ms": median(replay["wait_s"]) * 1e3,
            "viz.region.bounds_ms": median(replay["bounds_s"]) * 1e3,
            "core.envelope.index_ms": median(replay["index_s"]) * 1e3,
            "core.setup_share": setup / (setup + sweep) if sweep else 0.0,
            "core.sweep_ms": median(replay["sweep_s"]) * 1e3,
            "core.envelope_pairs": median(replay["pairs"]),
            "core.ns_per_pair": sweep / pairs * 1e9 if pairs else 0.0,
            "trace.overhead_pct": (median(traced) / median(untraced) - 1.0) * 100.0
            if traced and untraced else 0.0,
        })
    return {
        "e2e": {
            "setup_s": median(setup_s),
            "rss_mb": peak_rss_mb(),
            "latency_p50_ms": percentile(latency, 50) * 1e3,
            "latency_tail_ms": percentile(latency, TAIL) * 1e3,
        },
        "layers": layers,
        "samples": len(latency),
        "latencies_ms": [round(v * 1e3, 3) for v in latency],
        "detail": {
            "requests": [(round(r[0], 3), round(r[1] * 1e3, 3), r[2], r[5], round(r[3] * 1e3, 3))
                         for r in measured],
            "ingests": [(due, round(lat * 1e3, 3), n) for due, lat, n in traffic.ingest_lat],
        },
        "tail_pct": TAIL,
        "attempted": len(requests) + len(ingests) + CHECK_TILES,
        "failed": len(failures),
        "errors": failures,
    }
