"""End-to-end and per-layer metrics from measured rounds.

End-to-end metrics come from untraced rounds; per-layer metrics from the
traced round, with the untraced and plain rounds of the same op stream for
the overhead figures.  Names and units match ``BENCHMARK.json``.
"""

from __future__ import annotations

import math
import statistics

from repro.lsm.options import Options

from perfbench.spans import BYTES, CALLS, NS
from perfbench.workloads import GET, OP_KINDS, PUT, SCAN

#: Fewer samples than this beyond a percentile and it is not reported.
MIN_TAIL = 10


def percentile(samples: list[float], p: float) -> float | None:
    """Nearest-rank percentile, or None when fewer than MIN_TAIL samples
    lie beyond it."""
    n = len(samples)
    if n == 0 or n * (1.0 - p) < MIN_TAIL:
        return None
    return sorted(samples)[max(0, math.ceil(p * n) - 1)]


def latency_table(phase) -> dict:
    """Per op type: sample count, p50 and p99 (None where unsupported)."""
    return {
        kind: {
            "n": len(phase.latencies_us[kind]),
            "p50_us": percentile(phase.latencies_us[kind], 0.50),
            "p99_us": percentile(phase.latencies_us[kind], 0.99),
        }
        for kind in OP_KINDS
    }


#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("get_p99_us", "us"),
    ("space_amp", "ratio"),
    ("rss_mb", "MB"),
]
#: Printed with the end-to-end metrics but not gated.  Not every workload
#: sends puts or scans, and on cold-read the get median sits on a miss
#: path whose speed follows the host's bursts (see README.md).
REPORTED_ONLY = [
    ("get_p50_us", "us"),
    ("put_p50_us", "us"),
    ("put_p99_us", "us"),
    ("scan_p50_us", "us"),
    ("error_rate", "ratio"),
]


def round_values(rnd) -> dict:
    """One round's end-to-end values (None where it lacks the samples)."""
    lat = latency_table(rnd.phase)
    return {
        "setup_s": rnd.setup_s,
        "ops_per_s": rnd.phase.ops_per_s,
        "get_p50_us": lat[GET]["p50_us"],
        "get_p99_us": lat[GET]["p99_us"],
        "put_p50_us": lat[PUT]["p50_us"],
        "put_p99_us": lat[PUT]["p99_us"],
        "scan_p50_us": lat[SCAN]["p50_us"],
        "space_amp": rnd.space_amp,
        "rss_mb": rnd.rss_mb,
    }


def end_to_end(rounds) -> dict:
    """The median over rounds of each round's value, so one round that the
    host slowed down cannot move a metric; None unless every round has it."""
    per_round = [round_values(rnd) for rnd in rounds]
    out = {}
    for name in per_round[0]:
        values = [values[name] for values in per_round]
        out[name] = None if None in values else statistics.median(values)
    attempted = sum(rnd.phase.ops for rnd in rounds)
    bad = sum(rnd.phase.failed + rnd.phase.wrong for rnd in rounds)
    out["error_rate"] = bad / attempted
    return out


#: (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("lsm.self_us_per_op", "us", "lower"),
    ("lsm.plain_us_per_op", "us", "lower"),
    ("lsm.compaction_bytes_per_op", "B", "lower"),
    ("lsm.write_amp", "ratio", "lower"),
    ("lsm.stall_s", "s", "lower"),
    ("lsm.sst_probes_per_get", "count", "lower"),
    ("lsm.cache_hit_ratio", "ratio", "higher"),
    ("lsm.write_group_mean", "count", "higher"),
    ("shield.overhead_us_per_op", "us", "lower"),
    ("shield.fg_new_files", "count/kop", "lower"),
    ("shield.new_file_us", "us", "lower"),
    ("crypto.fg_calls_per_op", "count", "lower"),
    ("crypto.fg_us_per_op", "us", "lower"),
    ("crypto.bg_s_per_kop", "s", "lower"),
    ("crypto.bg_bytes_per_op", "B", "lower"),
    ("crypto.init_share", "ratio", "lower"),
    ("keys.kds_calls_per_kop", "count", "lower"),
    ("keys.kds_us", "us", "lower"),
    ("env.wal_bytes_per_put", "B", "lower"),
    ("env.sst_write_bytes_per_op", "B", "lower"),
    ("env.read_bytes_per_get", "B", "lower"),
    ("env.fg_us_per_op", "us", "lower"),
    ("env.bg_s_per_kop", "s", "lower"),
    ("service.exec_us", "us", "lower"),
    ("service.queue_wait_us", "us", "lower"),
    ("service.wire_us", "us", "lower"),
    ("service.busy_retries", "count/kop", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage", "ratio", "higher"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(untraced, traced, plain) -> dict:
    """Per-layer values from the traced round of one op stream, with the
    untraced SHIELD round and the plain round replaying its operations."""
    phase = traced.phase
    ops = phase.ops
    kops = ops / 1000.0
    gets, puts = phase.mix[GET], phase.mix[PUT]
    eng = traced.engine
    tally = traced.engine_tally
    fg = lambda prefix, field, root="": tally.total("fg", prefix, field, root)
    bg = lambda prefix, field: tally.total("bg", prefix, field)
    both = lambda prefix, field: tally.total("all", prefix, field)

    shield_us = 1e6 * (untraced.phase.timed_s + untraced.phase.drain_s) / untraced.phase.ops
    plain_us = 1e6 * (plain.phase.timed_s + plain.phase.drain_s) / plain.phase.ops
    init_s = eng.get("crypto.init_s.sum", 0.0)
    bulk_s = eng.get("crypto.bulk_s.sum", 0.0)
    new_files = fg("shield.for_new_file", CALLS)
    kds_calls = both("keys.", CALLS)
    stall = (eng.get("db.stall_seconds.sum", 0.0)
             + eng.get("db.slowdown_writes", 0) * Options().slowdown_delay_s)

    out = {
        "lsm.self_us_per_op": tally.fg_self_ns / 1e3 / ops,
        "lsm.plain_us_per_op": plain_us,
        "lsm.compaction_bytes_per_op": eng.get("db.compaction_bytes_written", 0) / ops,
        "lsm.write_amp": _ratio(
            eng.get("db.flush_bytes", 0) + eng.get("db.compaction_bytes_written", 0),
            eng.get("db.user_write_bytes", 0),
        ),
        "lsm.stall_s": stall,
        "lsm.sst_probes_per_get": _ratio(eng.get("db.get_sst_probes", 0),
                                         eng.get("db.gets", 0)),
        "lsm.cache_hit_ratio": _ratio(
            eng.get("db.block_cache.hits", 0),
            eng.get("db.block_cache.hits", 0) + eng.get("db.block_cache.misses", 0),
        ),
        "lsm.write_group_mean": _ratio(eng.get("db.group_size.sum", 0),
                                       eng.get("db.group_size.count", 0)),
        "shield.overhead_us_per_op": shield_us - plain_us,
        "shield.fg_new_files": new_files / kops,
        "shield.new_file_us": _ratio(fg("shield.for_new_file", NS), new_files) / 1e3,
        "crypto.fg_calls_per_op": fg("crypto.", CALLS) / ops,
        "crypto.fg_us_per_op": fg("crypto.", NS) / 1e3 / ops,
        "crypto.bg_s_per_kop": bg("crypto.", NS) / 1e9 / kops,
        "crypto.bg_bytes_per_op": bg("crypto.", BYTES) / ops,
        "crypto.init_share": _ratio(init_s, init_s + bulk_s),
        "keys.kds_calls_per_kop": kds_calls / kops,
        "keys.kds_us": _ratio(both("keys.", NS), kds_calls) / 1e3,
        "env.wal_bytes_per_put": _ratio(both("env.append.wal", BYTES), puts),
        "env.sst_write_bytes_per_op": both("env.append.sst", BYTES) / ops,
        "env.read_bytes_per_get": _ratio(fg("env.read.", BYTES, "db.get"), gets),
        "env.fg_us_per_op": fg("env.", NS) / 1e3 / ops,
        "env.bg_s_per_kop": bg("env.", NS) / 1e9 / kops,
        "service.exec_us": 0.0,
        "service.queue_wait_us": 0.0,
        "service.wire_us": 0.0,
        "service.busy_retries": 0.0,
        "trace.overhead_pct": 100.0 * (untraced.phase.ops_per_s - phase.ops_per_s)
        / untraced.phase.ops_per_s,
        "trace.coverage": tally.coverage,
    }
    if traced.server is not None:
        srv = traced.server
        exec_s = sum(srv.get(f"service.latency.{k}.sum", 0.0) for k in OP_KINDS)
        executed = sum(srv.get(f"service.latency.{k}.count", 0) for k in OP_KINDS)
        exec_us = 1e6 * _ratio(exec_s, executed)
        wait_us = 1e6 * _ratio(srv.get("service.queue_wait_s.sum", 0.0),
                               srv.get("service.queue_wait_s.count", 0))
        client = traced.client_tally
        call_us = _ratio(client.total("fg", "client.", NS),
                         client.total("fg", "client.", CALLS)) / 1e3
        out.update({
            "service.exec_us": exec_us,
            "service.queue_wait_us": wait_us,
            "service.wire_us": call_us - exec_us - wait_us,
            "service.busy_retries": phase.busy_retries / kops,
            "trace.coverage": client.coverage,
        })
    return out
