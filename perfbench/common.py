"""Shared plumbing: the run context, clean-up, statistics and the result line."""

from __future__ import annotations

import ctypes
import gc
import json
import os
import shutil
import signal
import statistics
import time
from pathlib import Path

_PR_SET_CHILD_SUBREAPER = 36


class Run:
    """One benchmark invocation: arguments, scratch space and clean-up.

    Everything the run creates lives under ``perfbench/_work/run-<pid>`` in
    the checkout and is removed by :meth:`close`, which also stops every
    server the run booted and then ends and reaps every process left under
    this one — on success, failure and interrupt alike.
    """

    def __init__(self, root: Path, seed: int, seconds: float, trace: bool):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = root / "perfbench" / "_work" / f"run-{os.getpid()}"
        if self.work.parent.is_dir():
            # scratch of runs that were killed before they could clean up
            for stale in self.work.parent.glob("run-*"):
                pid = stale.name.removeprefix("run-")
                if stale == self.work or not Path(f"/proc/{pid}").exists():
                    shutil.rmtree(stale, ignore_errors=True)
        self.work.mkdir(parents=True)
        self._servers: list = []

    def track(self, server):
        self._servers.append(server)
        return server

    def stop_server(self, server) -> None:
        server.stop()
        if server in self._servers:
            self._servers.remove(server)

    def note(self, message: str) -> None:
        """A line printed before the result (input digests, set-up samples)."""
        print(message, flush=True)

    def close(self) -> None:
        servers, self._servers = self._servers, []
        for server in servers:
            try:
                server.stop()
            except Exception as error:  # noqa: BLE001 - keep stopping the rest
                print(f"warning: could not stop server: {error!r}", flush=True)
        end_children()
        shutil.rmtree(self.work, ignore_errors=True)
        parent = self.work.parent
        try:
            parent.rmdir()  # only when no other run or trace output is left
        except OSError:
            pass


def adopt_orphans() -> bool:
    """Make this process the reaper of descendants whose parent ends.

    With ``PR_SET_CHILD_SUBREAPER`` a server's workers and its resource
    tracker, orphaned when the server's coordinator exits, become children of
    this process, so :func:`end_processes` and :func:`end_children` can wait
    for every one of them instead of leaving them to ``init``.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def child_pids(parents: set[int]) -> list[int]:
    """Live or zombie processes whose parent is in ``parents``, from ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) in parents:
            children.append(int(entry))
    return children


def _ended(pid: int) -> bool:
    """Whether ``pid`` has ended; reaps it when it is this process's child."""
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:
        return not Path(f"/proc/{pid}").exists()


def end_processes(pids: list[int], grace: float) -> None:
    """Let ``pids`` exit within ``grace`` seconds, kill the rest, wait for all."""
    pending = set(pids)
    deadline = time.monotonic() + grace
    while pending:
        pending = {pid for pid in pending if not _ended(pid)}
        if not pending or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    for pid in pending:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 30
    while pending and time.monotonic() < deadline:
        pending = {pid for pid in pending if not _ended(pid)}
        time.sleep(0.02)
    if pending:
        print(f"warning: processes {sorted(pending)} did not end", flush=True)


def end_children() -> None:
    """End and reap every process still running under this one.

    The multiprocessing resource tracker that worker pools start in this
    process is stopped first, the way it expects (close its pipe, wait), so
    it can still unlink any shared-memory segment left behind; anything else
    is killed.  Repeats until no child is left, since a killed process's own
    children are handed to this one (see :func:`adopt_orphans`).
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except Exception as error:  # noqa: BLE001 - the sweep below still ends it
        print(f"warning: could not stop the resource tracker: {error!r}", flush=True)
    for _ in range(20):
        children = child_pids({os.getpid()})
        if not children:
            return
        end_processes(children, grace=0.0)
    print(f"warning: child processes left: {child_pids({os.getpid()})}", flush=True)


def release() -> None:
    """Collect garbage so generator data dropped by the caller is freed."""
    gc.collect()


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return statistics.median(values)


def directory_mb(path: Path) -> float:
    total = sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())
    return total / (1024.0 * 1024.0)


def self_peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def timed(function, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - started


def latency_metrics(samples: list[float], elapsed_s: float, cpu_s: float) -> dict:
    """``qps``, ``p50_ms``, ``p95_ms`` and ``cpu_ms_per_op`` of a timed window.

    ``samples`` are the latencies in seconds of the operations the window
    completed.
    """
    return {
        "qps": (len(samples) / elapsed_s, "1/s"),
        "p50_ms": (percentile(samples, 0.50) * 1000.0, "ms"),
        "p95_ms": (percentile(samples, 0.95) * 1000.0, "ms"),
        "cpu_ms_per_op": (cpu_s * 1000.0 / len(samples), "ms"),
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The final JSON line; ``metrics`` maps name -> (value, unit)."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


class TemplateCounts:
    """Operations attempted and failed per request template."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}

    def add(self, template: str, ok: bool) -> None:
        entry = self.counts.setdefault(template, [0, 0])
        entry[0] += 1
        if not ok:
            entry[1] += 1

    @property
    def attempted(self) -> int:
        return sum(entry[0] for entry in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(entry[1] for entry in self.counts.values())

    def as_note(self, workload: str) -> str:
        return "operations: " + json.dumps(
            {
                "workload": workload,
                "attempted": self.attempted,
                "failed": self.failed,
                "templates": {
                    name: {"attempted": a, "failed": f}
                    for name, (a, f) in sorted(self.counts.items())
                },
            },
            sort_keys=True,
        )
