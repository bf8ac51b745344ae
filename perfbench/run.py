"""Benchmark entry point.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0

Builds the program from this checkout (see ``native_build.py``), runs one
workload, checks its outputs, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric of ``BENCHMARK.json`` (``--trace 0``) or every per-layer metric
(``--trace 1``).  The lines before it give the run attributes (native
build, OpenMP) and where the full report was written.  Any process,
thread or ``/dev/shm`` segment left behind fails the run, and so does a
SIGTERM/SIGINT, after the workload has been torn down.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")

import hygiene  # noqa: E402
import native_build  # noqa: E402
from common import Trace  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

WORKLOADS = ("explore", "tile_traffic", "dist_render")
#: End-to-end metrics in these units are times, scaled to the reference
#: host's speed.
TIME_UNITS = ("s", "ms")


class Interrupted(BaseException):
    """Raised in the main thread by SIGTERM/SIGINT so every ``finally``
    tears its workload down before the process exits."""


class Context:
    def __init__(self, seed: int, seconds: float, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Trace()
        self.host = HostSpeed()
        self.attributes: dict = {}


def _on_signal(signum, _frame):
    # Only the first signal interrupts: later ones must not cut teardown short.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise Interrupted(signal.Signals(signum).name)


def _remove_dead_builds() -> None:
    """Delete build copies left by runs that were killed outright."""
    if not os.path.isdir(OUT):
        return
    for name in os.listdir(OUT):
        if name.startswith("build-") and name[6:].isdigit():
            try:
                os.kill(int(name[6:]), 0)
            except ProcessLookupError:
                shutil.rmtree(os.path.join(OUT, name), ignore_errors=True)
            except PermissionError:
                pass


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _unit(spec: dict, name: str) -> "str | None":
    for m in spec["end_to_end"]:
        if m["name"] == name:
            return m["unit"]
    return None


def _module(workload: str):
    if workload == "explore":
        import wl_explore as mod
    elif workload == "tile_traffic":
        import wl_tiles as mod
    else:
        import wl_dist as mod
    return mod


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    _remove_dead_builds()
    hygiene.become_subreaper()
    shm_before = hygiene.shm_segments()
    build_dir = os.path.join(OUT, f"build-{os.getpid()}")
    ctx = Context(args.seed, args.seconds, bool(args.trace))
    outcome = None
    status = 0
    try:
        spec = _load_spec()
        src = native_build.build(ROOT, build_dir)
        ctx.attributes.update(native_build.import_built(src))
        print("attributes: " + json.dumps(ctx.attributes, sort_keys=True), flush=True)
        outcome = _module(args.workload).run(ctx)
    except Interrupted as exc:
        print(f"interrupted by {exc}; workload torn down", file=sys.stderr)
        status = 128 + (15 if str(exc) == "SIGTERM" else 2)
    except Exception:
        traceback.print_exc()
        status = 1
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        hygiene.stop_resource_tracker()
        problems = hygiene.leftovers(shm_before)
        shutil.rmtree(build_dir, ignore_errors=True)
    if problems:
        print("leftovers after the run: " + "; ".join(problems), file=sys.stderr)
        status = status or 1
    if status:
        return status

    raw = outcome["e2e"]
    scale = ctx.host.scale()
    print(f"host speed: reference sweep {ctx.host.ref_ms():.2f} ms "
          f"(median of {len(ctx.host.samples)}), times scaled by {scale:.4f}")
    e2e = {name: value * scale if _unit(spec, name) in TIME_UNITS else value
           for name, value in raw.items()}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome["layers"] if args.trace else e2e
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    correct = outcome["failed"] == 0
    for line in outcome["errors"][:10]:
        print(f"failed: {line}", file=sys.stderr)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attributes": ctx.attributes,
        "samples": outcome.get("samples"), "tail_pct": outcome.get("tail_pct"),
        "correct": correct, "attempted": outcome["attempted"],
        "failed": outcome["failed"], "errors": outcome["errors"][:100],
        "metrics": metrics,
        "raw_e2e": raw, "host_scale": scale,
        "host_ref_ms": [round(v * 1e3, 3) for v in ctx.host.samples],
        "latencies_ms": outcome.get("latencies_ms"),
        "detail": outcome.get("detail"),
        "absent": [m["name"] for m in wanted if m["name"] not in values],
    }
    os.makedirs(os.path.join(OUT, "reports"), exist_ok=True)
    stem = os.path.join(
        OUT, "reports",
        f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}",
    )
    with open(stem + ".json", "w") as f:
        json.dump(report, f, indent=1)
    if args.trace:
        ctx.tracer.write(stem + ".spans.json")
    print(f"report: {os.path.relpath(stem, ROOT)}.json "
          f"({outcome.get('samples')} samples, tail = p{outcome.get('tail_pct')})")
    print(json.dumps({
        "correct": correct, "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
