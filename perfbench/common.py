"""Shared pieces of the benchmark: statistics, the in-memory trace, the
direct-sum oracle, peak-memory readers and the layer replay.

Nothing here imports ``repro`` at module level: ``run.py`` first builds the
package from a copy of the checkout and puts that copy on ``sys.path``.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

#: Relative tolerance (share of the grid's peak) for the direct-sum check.
#: Float error of the prefix-aggregate sweep is ~1e-11 of the peak at these
#: sizes; one missing or extra point moves a pixel by ~1e-3 of the peak.
ORACLE_RTOL = 1e-6


def draw(points, n: int, seed: int):
    """``n`` events drawn without replacement, by ``seed``, from a city
    generated once with a fixed seed.  Every seed gets the same city (its
    hotspots, streets and extent) and a different set of events, so the
    cost of the work does not swing with where a seed puts the hotspots."""
    rng = np.random.default_rng([seed, 0])
    return points.select(np.sort(rng.choice(len(points), n, replace=False)))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64))) if len(values) else 0.0


def counter(snapshot: dict, name: str) -> float:
    """A recorder counter, or 0 when the program no longer exposes it."""
    return float((snapshot or {}).get("counters", {}).get(name, 0) or 0)


def phase(snapshot: dict, name: str) -> "tuple[float, int]":
    """``(total_s, calls)`` of a recorder phase, ``(0, 0)`` when absent."""
    entry = (snapshot or {}).get("phases", {}).get(name) or {}
    return float(entry.get("total_s", 0.0) or 0.0), int(entry.get("calls", 0) or 0)


class Trace:
    """Spans recorded by the benchmark around its calls into the program.

    Spans are kept in memory (one tuple each) and written once, at the end
    of the run, so the trace never does I/O inside a measured region.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._spans: list = []
        self._next_id = 0
        self.epoch = time.perf_counter()

    def new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def add(self, name: str, start: float, end: float, trace_id: int,
            parent: "int | None" = None) -> int:
        span_id = self.new_id()
        with self._lock:
            self._spans.append((span_id, parent, trace_id, name, start, end))
        return span_id

    def timed(self, name: str, trace_id: int, parent: "int | None", fn, *args, **kwargs):
        """Call ``fn`` and record it as one span; returns ``(result, seconds)``."""
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        self.add(name, start, end, trace_id, parent)
        return out, end - start

    def write(self, path: str) -> None:
        rows = [
            {"id": s, "parent": p, "trace": t, "name": n,
             "start_ms": (a - self.epoch) * 1e3, "dur_ms": (b - a) * 1e3}
            for s, p, t, n, a, b in self._spans
        ]
        with open(path, "w") as f:
            json.dump(rows, f)


def kernel_sum(xy: np.ndarray, qx: np.ndarray, qy: np.ndarray, bandwidth: float) -> np.ndarray:
    """Epanechnikov kernel sums at query pixels by direct O(n) evaluation —
    the SCAN definition, written here independently of the program."""
    b2 = bandwidth * bandwidth
    out = np.empty(len(qx), dtype=np.float64)
    for i, (x, y) in enumerate(zip(qx, qy)):
        d2 = (xy[:, 0] - x) ** 2 + (xy[:, 1] - y) ** 2
        inside = d2 <= b2
        out[i] = float(np.sum(1.0 - d2[inside] / b2))
    return out


def oracle_mismatch(grid, region, xy, bandwidth, rng, scale=1.0, pixels=8) -> "str | None":
    """Compare ``grid`` (rows south to north) at seeded pixels plus its peak
    pixel against :func:`kernel_sum` times ``scale``; a message on mismatch."""
    grid = np.asarray(grid)
    rows, cols = grid.shape
    js = list(rng.integers(0, rows, pixels))
    is_ = list(rng.integers(0, cols, pixels))
    pj, pi = np.unravel_index(int(np.argmax(grid)), grid.shape)
    js.append(int(pj))
    is_.append(int(pi))
    js, is_ = np.asarray(js), np.asarray(is_)
    qx = region.xmin + (is_ + 0.5) * (region.width / cols)
    qy = region.ymin + (js + 0.5) * (region.height / rows)
    want = kernel_sum(xy, qx, qy, bandwidth) * scale
    got = grid[js, is_]
    peak = float(np.max(np.abs(grid))) if grid.size else 0.0
    tol = ORACLE_RTOL * max(peak, float(np.max(np.abs(want))), 1e-300)
    bad = np.abs(got - want) > tol
    if np.any(bad):
        k = int(np.argmax(bad))
        return f"pixel ({js[k]}, {is_[k]}): got {got[k]!r}, direct sum {want[k]!r}"
    return None


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size (VmHWM) of a process in MiB, 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def replay_core(xy, region, size, bandwidth, trace, trace_id, parent):
    """Time the per-call layers of one SLAM render, each through its public
    function: bounds (``Region.from_points``), the y-sorted index over the
    active points, and ``compute_kdv`` given the region, a float bandwidth
    and that prebuilt index.  Returns a dict of seconds plus the sweep's
    envelope-pair count read from ``KDVResult.stats`` and the grid."""
    from repro import compute_kdv
    from repro.core.envelope import YSortedIndex
    from repro.viz.region import Region

    _, bounds_s = trace.timed("viz.region.bounds", trace_id, parent, Region.from_points, xy)
    index, index_s = trace.timed("core.envelope.index", trace_id, parent, YSortedIndex, xy)
    result, sweep_s = trace.timed(
        "core.sweep", trace_id, parent, compute_kdv, xy, region=region, size=size,
        bandwidth=float(bandwidth), ysorted=index, collect_stats=True, normalization="none",
    )
    stats = result.stats
    pairs = float((stats.counters if stats is not None else {}).get("sweep.envelope_points", 0))
    return {"bounds_s": bounds_s, "index_s": index_s, "sweep_s": sweep_s,
            "pairs": pairs, "grid": result.grid}
