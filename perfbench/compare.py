"""Summarise and compare saved benchmark reports.

    python3 perfbench/compare.py perfbench/.out/reports/*-t0-*[0-9].json
    python3 perfbench/compare.py BASE_REPORTS... --against HEAD_REPORTS...

For each workload and metric, prints the median, the quartiles and the
quartile spread as a share of the median.  With ``--against`` it also
prints the head's median relative to the base's, flagged against the
metric's bound from ``BENCHMARK.json``.  Runs whose ``native`` or
``openmp`` attribute differ are not comparable: the tool refuses them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(paths):
    reports = []
    for path in paths:
        with open(path) as f:
            reports.append(json.load(f))
    return reports


def _summary(reports):
    """(workload, trace) -> metric -> list of values."""
    out = defaultdict(lambda: defaultdict(list))
    for r in reports:
        for name, m in r["metrics"].items():
            out[(r["workload"], r["trace"])][name].append(m["value"])
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    args = parser.parse_args(argv)

    base, head = _load(args.reports), _load(args.against)
    kinds = {(r["attributes"].get("native"), r["attributes"].get("openmp")) for r in base + head}
    if len(kinds) > 1:
        print(f"refusing to compare runs with different native/openmp builds: {sorted(kinds)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base_s, head_s = _summary(base), _summary(head)
    worst = 0.0
    for key in sorted(base_s):
        workload, trace = key
        n = len(next(iter(base_s[key].values())))
        print(f"{workload} (trace {trace}, {n} runs)")
        for name, values in base_s[key].items():
            q1, q2, q3 = _quartiles(values)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            line = f"  {name:28s} median {q2:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread:7.2%}"
            bound = bounds.get(name, {}).get("bound")
            if bound is not None and name != "setup_s":
                line += f"  (bound {bound:.0%})"
                worst = max(worst, spread / bound)
            if name in head_s.get(key, {}):
                h = statistics.median(head_s[key][name])
                change = h / q2 - 1.0 if q2 else float("nan")
                line += f"  head {h:12.4f} ({change:+.2%})"
            print(line)
    if bounds:
        print(f"largest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
