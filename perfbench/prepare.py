"""Set-up: from generated inputs to the first servable operation.

Set-up compiles and validates every embedding a workload serves,
generates their codecs, saves the artifact store and packs it; the
serve workloads then spawn a ``repro serve`` daemon on that store and
wait until ``/healthz`` answers.  Each step runs inside a span, so the
traced run can split ``setup_s`` into its layers.

``setup_s`` counts the in-process steps by this process's CPU time and
the daemon by its wall time from spawn until ``/healthz`` answers.  The
in-process steps' wall time is mostly ``save_store`` waiting on the
disk: each rename over an existing file (the manifest is rewritten once
per artifact) blocks for ~20 ms on an ext4 volume, and that wait swings
twofold from minute to minute with the load other tenants put on a
shared disk.  The wall time stays visible per layer
(``engine.save_store_ms``).
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.engine import Engine, pack_store

from tracing import Recorder

#: How long a daemon may take to answer /healthz before set-up fails.
READY_TIMEOUT_S = 60.0


def build_store(embeddings, store: Path, recorder: Recorder) -> None:
    engine = Engine()
    with recorder.span("engine.compile"):
        compiled = [engine.compile_embedding(sigma, ensure_valid=True)
                    for sigma in embeddings]
    with recorder.span("engine.codegen"):
        for artifact in compiled:
            artifact.codec
    with recorder.span("engine.save_store"):
        engine.save_store(store)
    with recorder.span("engine.pack"):
        pack_store(store)


class Daemon:
    """One ``repro serve`` process on an ephemeral port.

    Its stderr goes to a file in the work directory (no pipe to drain);
    the port is read from the banner line the CLI prints once the
    server socket is bound.
    """

    def __init__(self, root: Path, store: Path, work: Path) -> None:
        self.log = work / f"daemon-{time.monotonic_ns()}.log"
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   TMPDIR=str(work))
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", str(store),
                 "--port", "0"],
                cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log)
        self.port = 0

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        marker = "# serving http://127.0.0.1:"
        while not self.port:
            if self.process.poll() is not None or \
                    time.monotonic() > deadline:
                raise RuntimeError("daemon did not start: "
                                   + self.log.read_text()[-2000:])
            for line in self.log.read_text().splitlines():
                if line.startswith(marker):
                    self.port = int(line[len(marker):].split()[0])
            time.sleep(0.002)
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never answered /healthz")
            time.sleep(0.002)

    def get(self, path: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """The daemon's RSS high-water mark (VmHWM), read from outside."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def set_up(embeddings, root: Path, work: Path, name: str,
           recorder: Recorder, daemon: bool) -> tuple[float, Path,
                                                      "Daemon | None"]:
    """One full set-up; returns (seconds, store path, daemon or None):
    the CPU seconds of building the store plus the wall seconds of
    daemon spawn until ready."""
    store = work / name
    cpu_started = time.process_time()
    with recorder.span("setup"):
        build_store(embeddings, store, recorder)
        seconds = time.process_time() - cpu_started
        server = None
        if daemon:
            with recorder.span("serve.ready") as ready:
                server = Daemon(root, store, work)
                try:
                    server.wait_ready()
                except BaseException:
                    server.stop()
                    raise
            seconds += ready.duration
    return seconds, store, server
