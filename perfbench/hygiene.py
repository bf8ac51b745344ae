"""Process hygiene: nothing a run starts may outlive it.

After each workload and at exit the harness checks for descendant
processes, threads other than the main one, new ``/dev/shm`` segments and
any ``repro dist-worker`` process, and fails the run if one remains.
"""

from __future__ import annotations

import ctypes
import os
import threading
import time

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants (a dist worker's own helper processes, for
    example), so they are reaped here instead of lingering as zombies."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap() -> None:
    """Collect every exited child without blocking."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _proc_table() -> "dict[int, tuple[int, str]]":
    """pid -> (ppid, cmdline) for every visible process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace").strip()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        table[int(entry)] = (ppid, cmd)
    return table


def descendants() -> "dict[int, str]":
    """Descendant pid -> cmdline of this process."""
    root = os.getpid()
    table = _proc_table()
    children: "dict[int, list[int]]" = {}
    for pid, (ppid, _cmd) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, stack = {}, [root]
    while stack:
        for child in children.get(stack.pop(), []):
            out[child] = table[child][1]
            stack.append(child)
    return out


def dist_workers() -> "dict[int, str]":
    """Every visible ``repro dist-worker`` process (what
    ``pgrep -af "repro dist-worke[r]"`` lists)."""
    return {
        pid: cmd for pid, (_ppid, cmd) in _proc_table().items()
        if "repro dist-worker" in cmd
    }


def shm_segments() -> "set[str]":
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker, which the
    coordinator's shared-memory segments start and which otherwise lives
    until interpreter exit."""
    try:
        from multiprocessing import resource_tracker
    except ImportError:
        return
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass


def leftovers(shm_before: "set[str]", wait_s: float = 5.0) -> "list[str]":
    """What the run left behind, after waiting up to ``wait_s`` for things
    that are already on their way out.  Empty means clean."""
    deadline = time.monotonic() + wait_s
    while True:
        reap()
        problems = []
        procs = descendants()
        if procs:
            problems.append(f"descendant processes: {procs}")
        workers = dist_workers()
        if workers:
            problems.append(f"dist workers: {workers}")
        threads = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
        if threads:
            problems.append(f"threads: {threads}")
        segments = shm_segments() - shm_before
        if segments:
            problems.append(f"/dev/shm segments: {sorted(segments)}")
        if not problems or time.monotonic() >= deadline:
            return problems
        time.sleep(0.05)
