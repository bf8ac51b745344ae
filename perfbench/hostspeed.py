"""Host speed: a frozen reference sweep timed beside the program.

On a shared host the same single-threaded render runs up to a third faster
or slower from one minute to the next, as the neighbours' load changes what
the host's cores give this one.  No run length averages that out: the
median frame of one 30-60 s stretch differs from the next by 10-15%, and
by more between sets of runs made far apart.

So every workload also times a fixed reference computation, interleaved
with its own work while the program is idle: one SLAM bucket sweep
(envelope by binary search, bucket deltas by ``bincount``, prefix sums)
over a fixed seeded input, written here in numpy, independent of the
program.  Every end-to-end time is then reported at the reference host's
speed::

    reported = measured * REF_MS / median(reference times of the run)

The reference code and input never change between commits, so a change to
the program moves a reported time by exactly the share it moves the
measured time; the host's drift moves the program and the reference alike
and cancels (closely for full-frame sweeps, less so for small tile renders
and PNG encodes, where per-call overhead dominates).  Each report keeps
the raw figures and the reference times.
"""

from __future__ import annotations

import time

import numpy as np

#: Median time of :meth:`HostSpeed.sample` on the reference host (2 vCPUs
#: of a shared Xeon, numpy's own kernels, no extra threads).
REF_MS = 50.0

#: The reference input is shaped like a row of a 1280x960 frame over 100k
#: points: ~6000 envelope points a row, 30 rows.
_N = 100_000
_X = 1280
_ROWS = 30
_BANDWIDTH = 0.03


class HostSpeed:
    """Reference sweep timings of one run, and the scale they give."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        centres = rng.uniform(0.1, 0.9, (20, 2))
        xy = np.concatenate([
            rng.normal(centres[rng.integers(0, 20, _N // 2)], 0.04),
            rng.uniform(0.0, 1.0, (_N - _N // 2, 2)),
        ])
        xy = xy[np.argsort(xy[:, 1], kind="stable")]
        self._px = np.ascontiguousarray(xy[:, 0])
        self._py = np.ascontiguousarray(xy[:, 1])
        self._xs = (np.arange(_X) + 0.5) / _X
        self._ys = (np.arange(_ROWS) + 0.5) / _ROWS
        self.samples: list = []
        self._checksum = None

    def _sweep(self) -> float:
        b, b2, nx = _BANDWIDTH, _BANDWIDTH * _BANDWIDTH, _X
        xs, px, py = self._xs, self._px, self._py
        total = 0.0
        for y in self._ys:
            lo, hi = np.searchsorted(py, (y - b, y + b))
            ex, dy = px[lo:hi], py[lo:hi] - y
            h = np.sqrt(np.maximum(b2 - dy * dy, 0.0))
            enter = np.searchsorted(xs, ex - h)
            leave = np.searchsorted(xs, ex + h, "right")
            net = np.empty((nx + 1, 3))
            for c, w in enumerate((np.ones_like(ex), ex, 1.0 - (dy * dy + ex * ex) / b2)):
                net[:, c] = np.bincount(enter, w, nx + 1) - np.bincount(leave, w, nx + 1)
            agg = np.cumsum(net[:nx], axis=0)
            row = agg[:, 2] + (2.0 * xs * agg[:, 1] - xs * xs * agg[:, 0]) / b2
            total += float(row.sum())
        return total

    def sample(self) -> float:
        """Time one reference sweep; returns its seconds."""
        t0 = time.perf_counter()
        checksum = self._sweep()
        dt = time.perf_counter() - t0
        if self._checksum is not None and checksum != self._checksum:
            raise RuntimeError("the reference sweep gave a different result")
        self._checksum = checksum
        self.samples.append(dt)
        return dt

    def ref_ms(self) -> float:
        if not self.samples:
            raise RuntimeError("no reference sweep was timed")
        return float(np.median(self.samples)) * 1e3

    def scale(self) -> float:
        """Factor that turns a time measured in this run into one at the
        reference host's speed."""
        return REF_MS / self.ref_ms()
