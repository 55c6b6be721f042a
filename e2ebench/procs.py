"""Server process lifecycle and ``/proc`` counters.

A :class:`Server` is one ``serve`` process on an ephemeral loopback
port: spawned, awaited via the ``ping`` op, stopped via the
``shutdown`` op, reaped by pid, and then checked for hygiene — no
``serve`` or shard-worker process may survive and the port must be
free again.  CPU and memory come from ``/proc``, which costs the server
nothing.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

CLK_TCK = os.sysconf("SC_CLK_TCK")
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
def _stat_fields(path: str) -> list[str]:
    with open(path) as fh:
        text = fh.read()
    # Field 2 (comm) may contain spaces; everything after ")" is fixed.
    return text[text.rindex(")") + 2:].split()


def cpu_s(pid: int, tid: int | None = None) -> float:
    """utime + stime of a process (all threads) or of one thread."""
    path = f"/proc/{pid}/stat" if tid is None else f"/proc/{pid}/task/{tid}/stat"
    fields = _stat_fields(path)
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def thread_cpu_s(pid: int) -> dict[int, float]:
    """CPU seconds per thread id of ``pid``."""
    out = {}
    for entry in os.listdir(f"/proc/{pid}/task"):
        try:
            out[int(entry)] = cpu_s(pid, int(entry))
        except (FileNotFoundError, ProcessLookupError):
            pass  # thread ended between listing and reading
    return out


def children(pid: int) -> list[int]:
    """Direct child pids of ``pid``."""
    kids: list[int] = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except FileNotFoundError:
            pass
    return sorted(set(kids))


def peak_rss_mb(pid: int) -> float:
    """High-water resident set (VmHWM) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        state = _stat_fields(f"/proc/{pid}/stat")[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def port_free(port: int) -> bool:
    """Whether nothing listens on the loopback ``port`` any more."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", port))
        return True
    except OSError:
        return False
    finally:
        probe.close()


# ----------------------------------------------------------------------
# A serve process
# ----------------------------------------------------------------------
class Server:
    """One ``serve`` process speaking the JSON-lines protocol."""

    def __init__(self, root: Path, log_dir: Path, serve_args=(), span_dir: Path | None = None):
        env = dict(os.environ)
        # The load generator pins its own BLAS to one thread; the server
        # must run exactly as a user would start it.
        env.pop("OPENBLAS_NUM_THREADS", None)
        env["PYTHONPATH"] = str(root / "src")
        if span_dir is None:
            argv = [sys.executable, "-m", "repro", "serve"]
        else:
            argv = [sys.executable, str(root / "e2ebench" / "serve_traced.py"), str(span_dir)]
        argv += ["--host", "127.0.0.1", "--port", "0", *serve_args]
        log_dir.mkdir(parents=True, exist_ok=True)
        self._stderr = open(log_dir / "serve.stderr", "ab")
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._stderr,
        )
        self.pid = self.proc.pid
        self.workers: list[int] = []
        try:
            self.port = self._await_listening()
        except BaseException:
            self.kill()
            raise

    def _await_listening(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode(errors="replace")
            if not line:
                raise BenchError(f"serve exited before listening (code {self.proc.wait()})")
            if "listening on" in line:
                return int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
        raise BenchError("serve did not report its port in time")

    def request(self, payload: dict) -> dict:
        """One control request on a fresh connection."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=READY_TIMEOUT_S) as sock:
            fh = sock.makefile("rwb")
            fh.write(json.dumps(payload).encode() + b"\n")
            fh.flush()
            line = fh.readline()
        if not line:
            raise BenchError(f"serve closed the connection on {payload.get('op')}")
        return json.loads(line)

    def ping(self) -> None:
        if not self.request({"op": "ping", "id": 0}).get("pong"):
            raise BenchError("serve did not answer ping")

    def metrics(self) -> dict:
        return self.request({"op": "metrics", "id": 0})["metrics"]

    def note_workers(self) -> None:
        """Remember the shard workers so their exit can be checked."""
        self.workers = sorted(set(self.workers) | set(children(self.pid)))

    def busy_pid(self) -> int:
        """The process whose main thread runs the scheduler."""
        return self.workers[0] if self.workers else self.pid

    def tree_peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid) + sum(peak_rss_mb(w) for w in self.workers)

    def stop(self) -> None:
        """Shutdown op, reap, and verify nothing is left behind."""
        self.note_workers()
        try:
            reply = self.request({"op": "shutdown", "id": 0})
            if not reply.get("ok"):
                raise BenchError(f"shutdown refused: {reply}")
            self.proc.wait(timeout=STOP_TIMEOUT_S)
            self.check_clean()
        finally:
            self.kill()  # a no-op after a clean stop

    def kill(self) -> None:
        """Force the whole tree down (error paths); idempotent."""
        for pid in self.workers:
            if alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        self.proc.stdout.close()
        self._stderr.close()

    def check_clean(self) -> None:
        if self.proc.returncode != 0:
            raise BenchError(f"serve exited with code {self.proc.returncode}")
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            survivors = [pid for pid in self.workers if alive(pid)]
            if not survivors and port_free(self.port):
                self.workers = []  # gone: their pids may be reused
                return
            time.sleep(0.05)
        raise BenchError(
            f"after shutdown: surviving workers {survivors}, "
            f"port {self.port} free={port_free(self.port)}"
        )
