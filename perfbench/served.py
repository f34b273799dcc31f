"""The served workload: a threaded KVServer in a child process.

The parent spawns ``python -m perfbench.child served ...`` from the
checkout root, waits for ``ready <port>``, drives the server with one
closed-loop KVClient per caller thread, and then talks to the child over
its stdin/stdout, one JSON reply per command line:

* ``start`` -- the timed phase begins (the child clears its spans);
* ``drain`` -- the timed phase ended: wait_for_compaction(), then reply
  with the drain time, space amplification, peak RSS and span tally;
* ``stop``  -- stop the server, close the engine, write spans, exit.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from dataclasses import replace

from repro.service.client import KVClient
from repro.service.server import KVServer, ServiceConfig

from perfbench.engine import (
    Round,
    child_command,
    child_env,
    delta,
    drive,
    peak_rss_mb,
    setup,
    space_amp,
    streams_for,
)
from perfbench.spans import Recorder, Tally, TracedMethods
from perfbench.workloads import OP_KINDS, WORKLOADS, Oracle, Values

#: The repro-serve default executor size.
SERVER_WORKERS = 4
_REPLY_TIMEOUT_S = 120.0


class ServerProcess:
    """One child server; its set-up runs between spawn and ``ready``."""

    def __init__(self, root: str, workload, seed: int, directory: str,
                 plain: bool, trace: bool, spans_out: str | None):
        command = child_command("served", workload, seed, directory, plain,
                                trace, spans_out)
        self._proc = subprocess.Popen(
            command, cwd=root, env=child_env(root), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, bufsize=0,
        )
        self._buffer = b""
        try:
            ready = self._read_line().split()
            if ready[:1] != [b"ready"]:
                raise RuntimeError(f"child server did not start: {ready!r}")
        except BaseException:
            self.close()
            raise
        self.port = int(ready[1])
        self.setup_s = float(ready[2])

    def _read_line(self) -> bytes:
        deadline = time.monotonic() + _REPLY_TIMEOUT_S
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            readable = select.select([fd], [], [], max(0.0, remaining))[0]
            if not readable:
                raise TimeoutError("child server stopped answering")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise EOFError("child server exited")
            self._buffer += chunk
        line, __, self._buffer = self._buffer.partition(b"\n")
        return line

    def command(self, name: str) -> dict:
        self._proc.stdin.write(name.encode() + b"\n")
        return json.loads(self._read_line())

    def close(self) -> None:
        """Stop the child and wait until it has exited."""
        if self._proc.poll() is None:
            try:
                self._proc.stdin.write(b"stop\n")
                self._proc.stdin.close()
                self._proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self._proc.kill()
                self._proc.wait()


def run_round(root: str, workload, seed: int, directory: str, plain: bool,
              seconds: float | None = None, counts=None,
              recorder: Recorder | None = None, spans_out: str | None = None):
    """Served: set up a child server, drive it over loopback, drain it.

    Engine, crypto and server counters come from OP_STATS deltas; set-up
    time is measured inside the child (open + load + settle).
    """
    values = Values(seed)
    oracle = Oracle(workload, values)
    server = ServerProcess(root, workload, seed, directory, plain,
                           recorder is not None, spans_out)
    clients = []
    try:
        admin = KVClient("127.0.0.1", server.port, pool_size=1)
        clients.append(admin)
        targets = []
        for __ in range(workload.callers):
            client = KVClient("127.0.0.1", server.port, pool_size=1)
            clients.append(client)
            targets.append(
                TracedMethods(client, recorder, "client", OP_KINDS)
                if recorder is not None else client
            )
        before = admin.stats()
        server.command("start")
        if recorder is not None:
            recorder.spans.clear()
        start_ns = time.perf_counter_ns()
        phase = drive(targets, streams_for(workload, seed), oracle,
                      seconds=seconds, counts=counts)
        timed_end_ns = time.perf_counter_ns()
        reply = server.command("drain")
        phase.drain_s = reply["drain_s"]
        after = admin.stats()
        phase.busy_retries = sum(
            getattr(t, "busy_retries", 0) for t in clients[1:]
        )
        client_tally = (
            Tally(recorder.spans, start_ns, timed_end_ns, timed_end_ns)
            if recorder is not None else None
        )
    finally:
        for client in clients:
            client.close()
        server.close()
    return Round(
        phase, server.setup_s, reply["files_per_level"], reply["space_amp"],
        reply["rss_mb"],
        engine=delta({**after["engine"], **after["crypto"]},
                     {**before["engine"], **before["crypto"]}),
        server=delta(after["server"], before["server"]),
        engine_tally=Tally.from_dict(reply["tally"]) if reply["tally"] else None,
        client_tally=client_tally,
    )


def serve(args) -> int:
    """Child side: set up, serve, and answer start/drain/stop on stdio."""
    workload = replace(WORKLOADS[args.workload], records=args.records)
    recorder = Recorder() if args.trace else None
    store = setup(args.dir, workload, Values(args.seed), args.plain, recorder)
    server = KVServer(store.target, ServiceConfig(num_workers=SERVER_WORKERS))
    server.start()
    out = sys.stdout
    out.write(f"ready {server.address[1]} {store.setup_s!r}\n")
    out.flush()
    start_ns = timed_end_ns = 0
    try:
        while True:
            command = sys.stdin.readline().strip()
            if command == "start":
                if recorder is not None:
                    recorder.spans.clear()
                start_ns = time.perf_counter_ns()
                reply = {}
            elif command == "drain":
                timed_end_ns = time.perf_counter_ns()
                began = time.perf_counter()
                store.db.wait_for_compaction()
                drain_s = time.perf_counter() - began
                reply = {
                    "drain_s": drain_s,
                    "space_amp": space_amp(store.db, workload),
                    "rss_mb": peak_rss_mb(),
                    "files_per_level": store.files_per_level,
                    "tally": (
                        Tally(recorder.spans, start_ns, timed_end_ns,
                              time.perf_counter_ns()).to_dict()
                        if recorder is not None else None
                    ),
                }
            else:
                break
            out.write(json.dumps(reply) + "\n")
            out.flush()
    finally:
        server.stop()
        store.db.close()
        if recorder is not None and args.spans_out:
            recorder.write(args.spans_out)
    return 0
