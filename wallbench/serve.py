"""Start ``repro serve --port 0`` as its own process and always tear it down."""

from __future__ import annotations

import contextlib
import os
import re
import select
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Tuple

_URL = re.compile(r"(http://\S+?/v1)/?\s")

#: Worker threads of the server, spawned or hosted in-process alike.
SERVER_WORKERS = 2

#: Seconds allowed from spawn until ``/healthz`` answers.
START_TIMEOUT = 60.0


class ServerProcess:
    """A running ``repro serve`` child: its process and API root URL."""

    def __init__(self, process: subprocess.Popen, url: str) -> None:
        self.process = process
        self.url = url

    @property
    def pid(self) -> int:
        return self.process.pid

    def peak_rss_mb(self) -> float:
        """The child's peak resident set size (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.pid}/status").read_text(encoding="utf-8")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_seconds(self) -> float:
        """CPU seconds the child has used so far, all its threads together.

        Reads the child's process CPU clock (Linux encodes the clock id of
        process ``pid`` as ``(~pid << 3) | 2``), which counts nanoseconds,
        where ``/proc/<pid>/stat`` counts 10 ms ticks.
        """
        return time.clock_gettime(((~self.pid) << 3) | 2)


def _read_url(process: subprocess.Popen, deadline: float) -> str:
    """Read the ``# serving on URL`` line the CLI prints on start."""
    assert process.stdout is not None
    buffered = b""
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"repro serve exited with code {process.returncode}")
        ready, _, _ = select.select([process.stdout], [], [], 0.05)
        if not ready:
            continue
        chunk = os.read(process.stdout.fileno(), 4096)
        if not chunk:
            continue
        buffered += chunk
        match = _URL.search(buffered.decode("utf-8", "replace"))
        if match:
            return match.group(1)
    raise TimeoutError("repro serve printed no URL in time")


def _wait_healthy(url: str, deadline: float) -> None:
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(f"{url}/healthz", timeout=1.0) as response:
                if response.status == 200:
                    return
        except OSError:
            pass
        time.sleep(0.005)
    raise TimeoutError(f"{url}/healthz never answered 200")


def stop(process: subprocess.Popen) -> None:
    """Interrupt the server (its clean shutdown path), escalating if needed."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10.0)
    if process.stdout is not None:
        process.stdout.close()


@contextlib.contextmanager
def serving(
    root: Path,
    store: Path,
    env: Dict[str, str],
    cpus: Optional[Set[int]] = None,
) -> Iterator[ServerProcess]:
    """Run ``repro serve`` on a fresh store until the block exits, however it exits.

    Args:
        root: Checkout root (the child's working directory).
        store: Store directory for the server (its queue lives inside it).
        env: Child environment; must put the repository's ``src`` on
            ``PYTHONPATH``.
        cpus: CPUs to pin the server to, or ``None`` to leave it free.
    """
    command = [
        sys.executable,
        "-u",  # the URL line must not sit in a pipe buffer
        "-m",
        "repro.cli",
        "serve",
        "--port",
        "0",
        "--workers",
        str(SERVER_WORKERS),
        "--store",
        str(store),
    ]
    process = subprocess.Popen(
        command,
        cwd=str(root),
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        if cpus:
            os.sched_setaffinity(process.pid, cpus)
        deadline = time.monotonic() + START_TIMEOUT
        url = _read_url(process, deadline)
        _wait_healthy(url, deadline)
        yield ServerProcess(process, url)
    finally:
        stop(process)


def child_env(root: Path, tmp: Path) -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` and temp dir."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmp)
    return env


def split_cpus() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """``(client, server)`` CPU sets, or ``(None, None)`` on one CPU.

    Pinning the client and the server to different CPUs keeps the
    scheduler from stacking both on one CPU for a whole run, which
    otherwise makes run-to-run latency bimodal on a two-CPU machine.
    """
    available = sorted(os.sched_getaffinity(0))
    if len(available) < 2:
        return None, None
    return {available[0]}, set(available[1:])
