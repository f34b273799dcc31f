"""Tests of the benchmark itself: tiny runs, ledger arithmetic, transparency.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import engine, metrics, served
from perfbench.run import ROOT, refused_knobs
from perfbench.spans import BYTES, CALLS, Recorder, Span, Tally, covered_ns, self_ns
from perfbench.workloads import WORKLOADS, Oracle, Values

TINY_RECORDS = 384


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], records=TINY_RECORDS)


# -- tiny runs ---------------------------------------------------------------


def _round(workload, directory, plain=False, counts=None, traced=False):
    counts = counts or [150] * workload.callers
    recorder = Recorder() if traced else None
    if workload.served:
        return served.run_round(ROOT, workload, 3, directory, plain,
                                counts=counts, recorder=recorder)
    return engine.run_round(workload, 3, directory, plain, counts=counts,
                            recorder=recorder)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_each_workload(name, tmp_path):
    workload = tiny(name)
    untraced = _round(workload, str(tmp_path / "u"))
    traced = _round(workload, str(tmp_path / "t"), traced=True)
    plain = _round(workload, str(tmp_path / "p"), plain=True,
                   counts=untraced.phase.per_caller_ops)
    for rnd in (untraced, traced, plain):
        assert rnd.phase.failed == 0 and rnd.phase.wrong == 0
        assert rnd.phase.ops == 150 * workload.callers
        assert rnd.files_per_level[-1] >= 1 and sum(rnd.files_per_level[:-1]) == 0

    e2e = metrics.end_to_end([untraced])
    for name_, __ in metrics.END_TO_END:
        if name_ != "get_p99_us":  # 150 ops cannot support a p99
            assert e2e[name_] > 0, name_
    assert e2e["error_rate"] == 0

    layers = metrics.per_layer(untraced, traced, plain)
    assert [n for n, __, __ in metrics.PER_LAYER] == list(layers)
    assert layers["lsm.self_us_per_op"] > 0
    assert layers["crypto.fg_calls_per_op"] > 0
    assert 0 < layers["trace.coverage"] <= 1
    if workload.served:
        assert layers["service.exec_us"] > 0
        assert layers["service.queue_wait_us"] > 0
    else:
        assert layers["service.exec_us"] == 0
    if workload.put_share:
        assert layers["env.wal_bytes_per_put"] > 0
    else:
        assert layers["env.wal_bytes_per_put"] == 0
        assert layers["crypto.bg_bytes_per_op"] == 0
        assert layers["keys.kds_calls_per_kop"] == 0


def test_embedded_round_in_a_child_process(tmp_path):
    workload = tiny("ycsb-a")
    rnd = engine.spawn_round(ROOT, workload, 4, str(tmp_path / "c"),
                             plain=False, counts=[100], trace=True)
    assert rnd.phase.ops == 100 and rnd.phase.wrong == 0
    assert rnd.engine_tally.fg_roots == 100
    assert rnd.rss_mb > 0


# -- correctness checks ------------------------------------------------------


class _Stale:
    """A store that never applies puts: every read after a put is stale."""

    def __init__(self, values: Values):
        self._values = values

    def get(self, key):
        return self._values.value(int(key[4:]), 0)

    def put(self, key, value):
        pass

    def scan(self, start, end, limit):
        return []


def test_stale_and_missing_values_are_counted_wrong():
    workload = tiny("ycsb-a")
    values = Values(1)
    phase = engine.drive([_Stale(values)], engine.streams_for(workload, 1),
                         Oracle(workload, values), counts=[400])
    assert phase.wrong > 0 and phase.failed == 0

    reads = tiny("cold-read")
    phase = engine.drive([_Stale(values)], engine.streams_for(reads, 1),
                         Oracle(reads, values), counts=[400])
    assert phase.wrong == phase.mix["scan"] > 0


# -- ledger arithmetic -------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    root = Span(1, 0, "db.get", 100, 200, 0, 1)
    children = [
        Span(2, 1, "env.read.sst", 110, 130, 4096, 1),
        Span(3, 1, "crypto.decrypt", 120, 150, 4096, 1),  # overlaps 2
        Span(4, 1, "env.read.sst", 190, 260, 0, 1),       # runs past root
    ]
    assert covered_ns([(110, 130), (120, 150), (190, 260)], 100, 200) == 50
    assert self_ns(root, children) == 50
    assert self_ns(root, []) == 100


def test_tally_splits_foreground_and_background_roots():
    spans = [
        Span(1, 0, "db.put", 100, 200, 0, 1),
        Span(2, 1, "env.append.wal", 120, 140, 512, 1),
        Span(3, 1, "shield.for_new_file", 150, 180, 0, 1),
        Span(4, 3, "keys.provision", 155, 170, 0, 1),
        Span(5, 0, "crypto.encrypt", 130, 160, 4096, 2),  # compaction thread
        Span(6, 0, "db.get", 250, 300, 0, 1),
        Span(7, 0, "db.get", 50, 60, 0, 1),               # before the window
    ]
    tally = Tally(spans, 100, 300, 400)
    assert tally.fg_roots == 2
    assert tally.fg_self_ns == (100 - 20 - 30) + 50
    assert tally.total("fg", "keys.", CALLS) == 1
    assert tally.total("bg", "crypto.", BYTES) == 4096
    assert tally.total("fg", "crypto.", CALLS) == 0
    assert tally.total("fg", "env.append.wal", BYTES, root="db.put") == 512
    assert tally.total("fg", "env.", BYTES, root="db.get") == 0
    assert tally.coverage == pytest.approx(150 / 200)
    assert Tally.from_dict(json.loads(json.dumps(tally.to_dict()))).total(
        "all", "", CALLS) == tally.total("all", "", CALLS)


def test_percentiles_need_ten_samples_beyond_them():
    assert metrics.percentile(list(range(999)), 0.99) is None
    assert metrics.percentile(list(range(1000)), 0.99) == 989
    assert metrics.percentile(list(range(19)), 0.50) is None
    assert metrics.percentile(list(range(1, 21)), 0.50) == 10


# -- transparency ------------------------------------------------------------


def _observe(directory: str, recorder):
    workload = tiny("cold-read")
    values = Values(5)
    store = engine.setup(directory, workload, values, plain=False,
                         recorder=recorder)
    seen = []

    class Recording:
        def get(self, key):
            seen.append(store.target.get(key))
            return seen[-1]

        def scan(self, start, end, limit):
            seen.append(store.target.scan(start, end, limit))
            return seen[-1]

    before = engine.engine_readings(store.db)
    phase = engine.drive([Recording()], engine.streams_for(workload, 5),
                         Oracle(workload, values), counts=[400])
    after = engine.engine_readings(store.db)
    store.db.close()
    change = engine.delta(after, before)
    counts = {name: change.get(name, 0) for name in (
        "db.get_sst_probes", "db.block_cache.misses", "db.block_cache.hits",
        "crypto.context_inits", "crypto.ops")}
    return seen, counts, phase


def test_wrappers_are_transparent_on_cold_read(tmp_path):
    seen, counts, phase = _observe(str(tmp_path / "untraced"), None)
    recorder = Recorder()
    traced_seen, traced_counts, traced_phase = _observe(
        str(tmp_path / "traced"), recorder)
    assert phase.wrong == traced_phase.wrong == 0
    assert traced_seen == seen
    assert traced_counts == counts
    assert counts["db.get_sst_probes"] > 0 and counts["crypto.context_inits"] > 0
    decrypts = [s for s in recorder.spans if s.name == "crypto.decrypt"]
    assert len(decrypts) >= counts["db.block_cache.misses"] > 0


# -- command -----------------------------------------------------------------


def test_refused_environment_knobs():
    environ = {"REPRO_AEAD": "1", "PATH": "/bin", "REPRO_TRACE_SAMPLE": "1",
               "REPRO_ADAPTIVE": "0"}
    assert refused_knobs(environ) == [
        "REPRO_ADAPTIVE", "REPRO_AEAD", "REPRO_TRACE_SAMPLE"]
    assert refused_knobs({"HOME": "/"}) == []


def _command(cwd: str, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ycsb-a",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


def test_command_refuses_knobs_without_a_result():
    done = _command(ROOT, env=dict(os.environ, REPRO_ADAPTIVE="1"))
    assert done.returncode == 2 and done.stdout == ""


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _command(str(tmp_path))
    assert done.returncode != 0 and done.stdout == ""


def test_benchmark_json_declares_what_the_command_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == \
        metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] \
        == metrics.PER_LAYER
