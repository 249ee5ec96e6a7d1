"""The served deployment as its own process tree, and a closed-loop client.

:class:`ServeProcess` boots ``python -m repro serve --from-snapshot DIR
--workers 2 --port 0 --json`` in a new session (so the coordinator and its
worker processes form one process group), reads the endpoint from the JSON
banner, reports CPU time and peak resident memory of the whole tree from
``/proc``, and stops it: SIGINT to the coordinator for a clean pool shutdown,
then SIGKILL to anything of the tree left, waiting for every process to end.
The server stays in the benchmark's process group, and its coordinator gets
SIGKILL if the benchmark itself dies (``PR_SET_PDEATHSIG``), so no server
outlives the run that booted it.

:func:`closed_loop` drives the server from this process over persistent
HTTP/1.1 connections (:class:`Client`), one thread per client; each client
sends its next request only after the previous reply arrived.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import end_processes

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: ``python -c`` prelude: ask for SIGKILL when the benchmark (argv[1]) dies,
#: give up if it already has, then exec the server command (argv[2:])
_LAUNCH = (
    "import ctypes, os, signal, sys; "
    "ctypes.CDLL(None).prctl(1, int(signal.SIGKILL), 0, 0, 0); "
    "os.getppid() == int(sys.argv[1]) or os._exit(1); "
    "os.execv(sys.executable, [sys.executable] + sys.argv[2:])"
)


class ServeError(RuntimeError):
    """The server did not boot, or answered a request with an error."""


class ServeProcess:
    """One ``repro serve`` process tree over a sharded snapshot."""

    def __init__(self, root: Path, snapshot: Path, log_path: Path, workers: int = 2):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self._log = open(log_path, "wb")
        command = [
            sys.executable, "-c", _LAUNCH, str(os.getpid()),
            "-m", "repro", "serve",
            "--from-snapshot", str(snapshot),
            "--workers", str(workers), "--port", "0", "--json",
        ]
        self.process = subprocess.Popen(
            command,
            cwd=str(root),
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            stdin=subprocess.DEVNULL,
        )
        self.host = ""
        self.port = 0
        self._stopped = False

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until the JSON banner names the endpoint."""
        deadline = time.monotonic() + timeout
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServeError("server did not print its endpoint in time")
                if not selector.select(remaining):
                    continue
                chunk = os.read(self.process.stdout.fileno(), 65536)
                if not chunk:
                    raise ServeError(f"server exited during boot (code {self.process.poll()})")
                buffer += chunk
                try:
                    banner = json.loads(buffer)
                except ValueError:
                    continue
                break
        endpoint = banner["endpoint"].removeprefix("http://")
        host, port = endpoint.rsplit(":", 1)
        self.host, self.port = host, int(port)

    # -- the process tree, read from /proc ------------------------------------

    def pids(self) -> list[int]:
        """The coordinator and every descendant still running."""
        parents: dict[int, list[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            parents.setdefault(ppid, []).append(int(entry))
        tree, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            tree.append(pid)
            frontier.extend(parents.get(pid, []))
        return tree

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the tree's live processes."""
        total = 0
        for pid in self.pids():
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])  # utime, stime
        return total / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """Sum of the tree's per-process peak resident set sizes (VmHWM)."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """Stop the tree and wait for every process of it; safe to call twice."""
        if self._stopped:
            return
        self._stopped = True
        descendants = [pid for pid in self.pids() if pid != self.process.pid]
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        # the workers and the coordinator's resource tracker now belong to
        # this process (common.adopt_orphans): they get a moment to finish
        end_processes(descendants, grace=5.0)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


class Client:
    """One persistent HTTP/1.1 connection to the router.

    A minimal client over a raw socket: ``http.client`` parses every response
    header block through ``email.parser``, which made the load generator use
    half a core of the two this benchmark shares with the server.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.socket = socket.create_connection((host, port), timeout=120)
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.socket.makefile("rb")

    def _exchange(self, head: str, body: bytes = b"") -> dict:
        self.socket.sendall(head.encode("ascii") + body)
        status = self.reader.readline()
        length = None
        while (line := self.reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        if not status.startswith(b"HTTP/1.1 ") or length is None:
            raise ServeError(f"malformed response: {status!r}")
        return json.loads(self.reader.read(length))

    def post(self, request: dict) -> dict:
        body = json.dumps(request).encode("utf-8")
        return self._exchange(
            f"POST /query HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n",
            body,
        )

    def get(self, path: str) -> dict:
        return self._exchange(f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n\r\n")

    def close(self) -> None:
        self.reader.close()
        self.socket.close()


def closed_loop(
    host: str,
    port: int,
    requests: list[dict],
    *,
    clients: int,
    seconds: float,
    round_size: int = 1,
) -> tuple[list[tuple[int, float, dict]], float]:
    """Run ``requests`` in order from ``clients`` connections for ``seconds``.

    Clients take the next request index from a shared counter; once the time
    is up they keep going only until the number of requests taken is a whole
    number of rounds.  Returns ``(index, latency_s, reply)`` per request,
    ordered by index, and the elapsed wall time.
    """
    lock = threading.Lock()
    taken = [0]
    results: list[tuple[int, float, dict]] = []
    errors: list[BaseException] = []
    started = time.perf_counter()
    deadline = started + seconds

    def next_index() -> int | None:
        with lock:
            index = taken[0]
            if index >= len(requests):
                return None
            if time.perf_counter() >= deadline and index % round_size == 0:
                return None
            taken[0] += 1
            return index

    def client_loop() -> None:
        client = Client(host, port)
        local: list[tuple[int, float, dict]] = []
        try:
            while (index := next_index()) is not None:
                begin = time.perf_counter()
                reply = client.post(requests[index])
                end = time.perf_counter()
                local.append((index, end - begin, reply))
        except BaseException as error:  # noqa: BLE001 - re-raised by the caller
            errors.append(error)
        finally:
            client.close()
            with lock:
                results.extend(local)

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise ServeError(f"client failed: {errors[0]!r}") from errors[0]
    results.sort(key=lambda result: result[0])
    return results, elapsed


def set_up(run, build_engine, first_request: dict, repeats: int):
    """Time ``repeats`` set-ups from generated inputs to the first answer.

    Each set-up calls ``build_engine()`` (load the inputs into a fresh
    engine), saves a 2-shard snapshot, boots a server over it and waits for
    the answer to ``first_request``.  All but the last server are stopped and
    their snapshots deleted.  Returns ``(server, snapshot, seconds per
    set-up)``.
    """
    import shutil

    setups = []
    server = snapshot = None
    for attempt in range(repeats):
        if server is not None:
            run.stop_server(server)
            shutil.rmtree(snapshot)
        snapshot = run.work / f"snapshot-{attempt}"
        started = time.perf_counter()
        engine = build_engine()
        engine.save(snapshot, shards=2)
        engine.close()
        del engine
        server = run.track(ServeProcess(run.root, snapshot, run.work / f"serve-{attempt}.log"))
        server.wait_ready()
        client = Client(server.host, server.port)
        try:
            reply = client.post(first_request)
        finally:
            client.close()
        if not reply.get("ok"):
            raise ServeError(f"first request failed: {reply}")
        setups.append(time.perf_counter() - started)
    return server, snapshot, setups


def served_counters(server) -> dict[str, float]:
    """Collapse hits, result-cache and plan-cache hit ratios from the server."""
    client = Client(server.host, server.port)
    try:
        statz = client.get("/statz")
        health = client.get("/healthz")
    finally:
        client.close()
    plan = health["plan_cache"]
    lookups = plan["hits"] + plan["misses"]
    return {
        "serving.collapse_hits": statz["router"]["collapse_hits"],
        "workload.result_cache_hit_ratio": statz["workload"]["result_cache"]["hit_rate"],
        "engine.plan_cache_hit_ratio": plan["hits"] / lookups if lookups else 0.0,
    }
