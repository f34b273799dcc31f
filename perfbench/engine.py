"""Store set-up, the closed-loop load generator and the engine-side readings.

The configuration is pinned here and nowhere else: SHIELD as
``open_shield_db`` ships it (``ShieldOptions`` defaults, scheme
``shake-ctr``, the 512 B WAL buffer), stock ``Options`` with the adaptive
controller pinned off, ``LocalEnv`` in a fresh directory, and no fsync per
write.  The plain baseline uses the same options without a crypto provider.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.crypto.cipher import CRYPTO_STATS
from repro.env.local import LocalEnv
from repro.errors import ReproError
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.write_batch import WriteBatch
from repro.shield import ShieldOptions, open_shield_db

from perfbench.spans import (
    Recorder,
    Tally,
    TracedEnv,
    TracedKDS,
    TracedMethods,
    TracedShieldOptions,
)
from perfbench.workloads import (
    GET,
    OP_KINDS,
    PUT,
    VALUE_SIZE,
    Oracle,
    OpStream,
    Values,
    Workload,
    key_of,
)

SCHEME = "shake-ctr"
WAL_BUFFER = 512
LOAD_BATCH = 256
#: Load-phase only: L0 triggers out of reach so the bulk load does not
#: cascade through the levels; force_compaction() then settles the tree.
_NO_TRIGGER = 1 << 30


def measured_options(env) -> Options:
    return Options(env=env, adaptive_compaction=False, wal_sync_writes=False,
                   wal_buffer_size=WAL_BUFFER)


def _open(path: str, kds, options: Options, plain: bool,
          recorder: Recorder | None = None) -> DB:
    if plain:
        return DB(path, options)
    fields = dict(kds=kds, scheme=SCHEME, wal_buffer_size=WAL_BUFFER)
    shield = (TracedShieldOptions(recorder, **fields) if recorder
              else ShieldOptions(**fields))
    return open_shield_db(path, shield, options)


def build_store(path: str, workload: Workload, values: Values, kds,
                plain: bool) -> None:
    """Load every record (version 0) in key order, settle with
    force_compaction() and close: the same tree on every run."""
    os.makedirs(path, exist_ok=True)
    options = measured_options(LocalEnv())
    options.level0_file_num_compaction_trigger = _NO_TRIGGER
    options.level0_slowdown_writes_trigger = _NO_TRIGGER
    options.level0_stop_writes_trigger = _NO_TRIGGER
    db = _open(path, kds, options, plain)
    try:
        for start in range(0, workload.records, LOAD_BATCH):
            batch = WriteBatch()
            for index in range(start, min(start + LOAD_BATCH, workload.records)):
                batch.put(key_of(index), values.value(index, 0))
            db.write(batch)
        db.force_compaction()
    finally:
        db.close()


def open_store(path: str, kds, plain: bool, recorder: Recorder | None = None):
    """Reopen the settled store with stock options, wrapped when traced, and
    open every table once so no lazy table/DEK set-up lands in the timed
    phase.  Returns (db, target the callers drive)."""
    env = LocalEnv()
    if recorder is not None:
        env = TracedEnv(env, recorder)
        kds = TracedKDS(kds, recorder)
    db = _open(path, kds, measured_options(env), plain, recorder)
    for __, meta in db.live_files():
        db.get(meta.smallest)
    target = db
    if recorder is not None:
        target = TracedMethods(db, recorder, "db", OP_KINDS)
    return db, target


@dataclass
class Store:
    db: DB
    target: object
    setup_s: float
    files_per_level: list[int]


def setup(path: str, workload: Workload, values: Values, plain: bool,
          recorder: Recorder | None = None) -> Store:
    """open + load + settle, timed."""
    started = time.perf_counter()
    kds = InMemoryKDS()
    build_store(path, workload, values, kds, plain)
    db, target = open_store(path, kds, plain, recorder)
    setup_s = time.perf_counter() - started
    levels = [db.num_files_at_level(level) for level in range(db.options.num_levels)]
    return Store(db, target, setup_s, levels)


def space_amp(db: DB, workload: Workload) -> float:
    """Live SST + WAL bytes over the logical bytes of the latest values."""
    sst = sum(meta.size for __, meta in db.live_files())
    wal = sum(
        os.path.getsize(os.path.join(db.path, name))
        for name in os.listdir(db.path) if name.endswith(".log")
    )
    logical = workload.records * (len(key_of(0)) + VALUE_SIZE)
    return (sst + wal) / logical


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def engine_readings(db: DB) -> dict:
    """The engine's own counters plus the process-wide crypto registry."""
    readings = db.stats_snapshot()
    readings.update(CRYPTO_STATS.snapshot())
    return readings


def delta(after: dict, before: dict) -> dict:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if isinstance(value, (int, float))
    }


# ---------------------------------------------------------------------------
# Closed-loop load generator
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    """What the callers did in one timed phase."""

    latencies_us: dict = field(default_factory=lambda: {k: [] for k in OP_KINDS})
    mix: dict = field(default_factory=lambda: {k: 0 for k in OP_KINDS})
    per_caller_ops: list = field(default_factory=list)
    failed: int = 0
    wrong: int = 0
    busy_retries: int = 0
    timed_s: float = 0.0
    drain_s: float = 0.0

    @property
    def ops(self) -> int:
        return sum(self.per_caller_ops)

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.timed_s + self.drain_s)

    def absorb(self, other: "Phase") -> None:
        """Add another caller's operations to this phase."""
        for kind in OP_KINDS:
            self.latencies_us[kind].extend(other.latencies_us[kind])
            self.mix[kind] += other.mix[kind]
        self.per_caller_ops.extend(other.per_caller_ops)
        self.failed += other.failed
        self.wrong += other.wrong


def _caller(target, stream: OpStream, oracle: Oracle, deadline, count,
            out: Phase) -> None:
    clock = time.perf_counter
    latencies = out.latencies_us
    done = 0
    while (done < count) if count is not None else (clock() < deadline):
        kind, index, length = stream.next()
        key = key_of(index)
        done += 1
        try:
            if kind == GET:
                t0 = clock()
                got = target.get(key)
                t1 = clock()
                ok = oracle.check_get(index, got)
            elif kind == PUT:
                value = oracle.next_value(index)
                t0 = clock()
                target.put(key, value)
                t1 = clock()
                oracle.acknowledge(index)
                ok = True
            else:
                t0 = clock()
                got = target.scan(key, None, length)
                t1 = clock()
                ok = oracle.check_scan(index, length, got)
        except (ReproError, OSError):
            out.failed += 1
            continue
        latencies[kind].append((t1 - t0) * 1e6)
        out.mix[kind] += 1
        if not ok:
            out.wrong += 1
    out.per_caller_ops.append(done)


def drive(targets, streams, oracle: Oracle, seconds: float | None = None,
          counts: list[int] | None = None) -> Phase:
    """Run one closed-loop caller per target, for ``seconds`` or for
    ``counts[i]`` operations each; caller 0 runs on the calling thread."""
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else None
    parts = [Phase() for _ in targets]
    jobs = [
        (targets[i], streams[i], oracle, deadline,
         counts[i] if counts is not None else None, parts[i])
        for i in range(len(targets))
    ]
    threads = [threading.Thread(target=_caller, args=job) for job in jobs[1:]]
    for thread in threads:
        thread.start()
    _caller(*jobs[0])
    for thread in threads:
        thread.join()
    phase = Phase()
    for part in parts:
        phase.absorb(part)
    phase.timed_s = time.perf_counter() - started
    return phase


def streams_for(workload: Workload, seed: int) -> list[OpStream]:
    return [OpStream(workload, seed, caller) for caller in range(workload.callers)]


@dataclass
class Round:
    """One set-up plus one timed phase, with the readings taken around it."""

    phase: Phase
    setup_s: float
    files_per_level: list
    space_amp: float
    rss_mb: float
    #: Engine + crypto-registry counter deltas over timed phase and drain.
    engine: dict
    #: OP_STATS ``server`` section deltas (served workload only).
    server: dict | None = None
    #: Spans under the engine-side roots (DB calls, flush/compaction).
    engine_tally: Tally | None = None
    #: Spans under the client calls (served workload only).
    client_tally: Tally | None = None

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["phase"] = asdict(self.phase)
        for name in ("engine_tally", "client_tally"):
            if out[name] is not None:
                out[name] = out[name].to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Round":
        fields = dict(data)
        fields["phase"] = Phase(**data["phase"])
        for name in ("engine_tally", "client_tally"):
            if fields.get(name) is not None:
                fields[name] = Tally.from_dict(fields[name])
        return cls(**fields)


def run_round(workload: Workload, seed: int, directory: str, plain: bool,
              seconds: float | None = None, counts: list[int] | None = None,
              recorder: Recorder | None = None) -> Round:
    """Embedded: set up in ``directory``, drive, drain, read, close."""
    values = Values(seed)
    store = setup(directory, workload, values, plain, recorder)
    try:
        before = engine_readings(store.db)
        if recorder is not None:
            recorder.spans.clear()
        start_ns = time.perf_counter_ns()
        phase = drive([store.target], streams_for(workload, seed),
                      Oracle(workload, values), seconds=seconds, counts=counts)
        timed_end_ns = time.perf_counter_ns()
        began = time.perf_counter()
        store.db.wait_for_compaction()
        phase.drain_s = time.perf_counter() - began
        end_ns = time.perf_counter_ns()
        engine = delta(engine_readings(store.db), before)
        amp = space_amp(store.db, workload)
    finally:
        store.db.close()
    tally = (Tally(recorder.spans, start_ns, timed_end_ns, end_ns)
             if recorder is not None else None)
    return Round(phase, store.setup_s, store.files_per_level, amp,
                 peak_rss_mb(), engine, engine_tally=tally)


def child_command(mode: str, workload: Workload, seed: int, directory: str,
                  plain: bool, trace: bool, spans_out: str | None = None,
                  seconds: float | None = None,
                  counts: list[int] | None = None) -> list[str]:
    """argv for ``python -m perfbench.child`` (one round per process)."""
    command = [sys.executable, "-m", "perfbench.child", mode,
               "--workload", workload.name, "--records", str(workload.records),
               "--seed", str(seed), "--dir", directory]
    if plain:
        command.append("--plain")
    if trace:
        command.append("--trace")
    if spans_out:
        command += ["--spans-out", spans_out]
    if seconds is not None:
        command += ["--seconds", repr(seconds)]
    if counts is not None:
        command += ["--counts", ",".join(map(str, counts))]
    return command


def child_env(root: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]))


#: A round that takes longer than this has hung.
ROUND_TIMEOUT_S = 150


def spawn_round(root: str, workload: Workload, seed: int, directory: str,
                plain: bool, seconds: float | None = None,
                counts: list[int] | None = None, trace: bool = False,
                spans_out: str | None = None) -> Round:
    """Embedded: run one round in a fresh interpreter, so its peak RSS is
    its own and no round inherits another's heap or threads."""
    command = child_command("embedded", workload, seed, directory, plain,
                            trace, spans_out, seconds, counts)
    done = subprocess.run(command, cwd=root, env=child_env(root),
                          stdout=subprocess.PIPE, timeout=ROUND_TIMEOUT_S,
                          check=True)
    return Round.from_dict(json.loads(done.stdout.splitlines()[-1]))
