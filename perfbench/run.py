"""SHIELD benchmark: one command, three workloads, end-to-end or per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ycsb-a --seed 1 --seconds 21 --trace 0

``--trace 0`` runs the workload's untraced rounds (each: a fresh set-up, an
equal share of ``--seconds`` timed, the compaction drain) and reports the
median over rounds of each end-to-end metric.  ``--trace 1`` runs three
rounds of one op stream -- untraced SHIELD, traced SHIELD, and the plain
engine replaying the untraced round's operations -- and reports the
per-layer metrics.  Either way every value read is checked against the
last acknowledged write; the command exits 1 on any wrong value or failed
operation and 2 when it cannot run at all.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Knobs that would silently change what is measured.
REFUSED_ENV = ("REPRO_AEAD", "REPRO_ADAPTIVE")
REFUSED_ENV_PREFIX = "REPRO_TRACE"


def refused_knobs(environ) -> list[str]:
    return sorted(
        name for name in environ
        if name in REFUSED_ENV or name.startswith(REFUSED_ENV_PREFIX)
    )


def calibration_s() -> float:
    """Best of three runs of a fixed pure-Python loop (host speed context)."""
    best = float("inf")
    for __ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


def _round(workload, seed: int, directory: str, plain: bool,
           seconds: float | None = None, counts: list[int] | None = None,
           spans_stem: str | None = None):
    """One round in child processes; traced when ``spans_stem`` is given,
    writing its spans to ``<spans_stem>-*.tsv``."""
    from perfbench import engine, served
    from perfbench.spans import Recorder

    trace = spans_stem is not None
    try:
        if not workload.served:
            return engine.spawn_round(
                ROOT, workload, seed, directory, plain, seconds, counts, trace,
                spans_stem + "-engine.tsv" if trace else None,
            )
        recorder = Recorder() if trace else None
        result = served.run_round(
            ROOT, workload, seed, directory, plain, seconds, counts, recorder,
            spans_stem + "-engine.tsv" if trace else None,
        )
        if recorder is not None:
            recorder.write(spans_stem + "-client.tsv")
        return result
    finally:
        # Deleted before the kernel's writeback delay runs out, a round's
        # files are never written back under the next round.
        shutil.rmtree(directory, ignore_errors=True)


def measure(workload, seed: int, seconds: float, trace: bool, work_dir: str,
            spans_dir: str):
    """Run the rounds; returns (metric values, rounds, extra detail)."""
    from perfbench import metrics

    if not trace:
        rounds = [
            _round(workload, seed * 101 + r, os.path.join(work_dir, f"r{r}"),
                   plain=False, seconds=seconds / workload.rounds)
            for r in range(workload.rounds)
        ]
        return metrics.end_to_end(rounds), rounds, {}
    spans_stem = os.path.join(spans_dir, f"spans-{workload.name}")
    share = seconds / 3
    untraced = _round(workload, seed, os.path.join(work_dir, "untraced"),
                      plain=False, seconds=share)
    traced = _round(workload, seed, os.path.join(work_dir, "traced"),
                    plain=False, seconds=share, spans_stem=spans_stem)
    plain = _round(workload, seed, os.path.join(work_dir, "plain"),
                   plain=True, counts=untraced.phase.per_caller_ops)
    values = metrics.per_layer(untraced, traced, plain)
    return values, [untraced, traced, plain], {
        "spans": os.path.relpath(spans_stem, ROOT) + "-*.tsv",
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:,.4f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found next to perfbench/; run from a "
              "full checkout", file=sys.stderr)
        return 2
    knobs = refused_knobs(os.environ)
    if knobs:
        print(f"perfbench: refusing to run with {', '.join(knobs)} set",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import metrics
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    context = {
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "calibration_s": calibration_s(),
    }
    state_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(state_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=state_dir)
    try:
        values, rounds, extra = measure(workload, args.seed, args.seconds,
                                        bool(args.trace), work_dir, state_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r.phase.ops for r in rounds)
    failed = sum(r.phase.failed for r in rounds)
    wrong = sum(r.phase.wrong for r in rounds)
    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": context,
        "rounds": [
            {
                "setup_s": r.setup_s,
                "files_per_level": r.files_per_level,
                "ops": r.phase.ops,
                "mix": r.phase.mix,
                "timed_s": r.phase.timed_s,
                "drain_s": r.phase.drain_s,
                "compaction_bytes_per_op":
                    r.engine.get("db.compaction_bytes_written", 0) / r.phase.ops,
                "latency": metrics.latency_table(r.phase),
                "space_amp": r.space_amp,
                "failed": r.phase.failed,
                "wrong": r.phase.wrong,
            }
            for r in rounds
        ],
        **extra,
    }

    if args.trace:
        declared = [(name, unit) for name, unit, __ in metrics.PER_LAYER]
        shown = declared
    else:
        declared = metrics.END_TO_END
        shown = declared + metrics.REPORTED_ONLY
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, unit in shown:
        print(f"  {name:30s} {_fmt(values.get(name)):>16s} {unit}")
    print(f"  attempted={attempted} failed={failed} wrong={wrong}")
    print("detail " + json.dumps(detail, sort_keys=True))

    missing = [name for name, __ in declared if values.get(name) is None]
    if missing:
        print(f"perfbench: too few samples for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed + wrong,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared
        },
    }))
    return 0 if failed + wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
