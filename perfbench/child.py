"""Child-process entry: ``python -m perfbench.child embedded|served ...``.

``embedded`` runs one whole round (set-up, timed phase, drain) and prints
it as one JSON line; ``served`` sets up a KVServer and answers the parent's
commands (see perfbench.served).  Each round gets a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from perfbench import engine, served
from perfbench.spans import Recorder
from perfbench.workloads import WORKLOADS


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("mode", choices=("embedded", "served"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--records", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--plain", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--counts")
    args = parser.parse_args(argv)
    if args.mode == "served":
        return served.serve(args)
    workload = replace(WORKLOADS[args.workload], records=args.records)
    counts = [int(c) for c in args.counts.split(",")] if args.counts else None
    recorder = Recorder() if args.trace else None
    result = engine.run_round(workload, args.seed, args.dir, args.plain,
                              seconds=args.seconds, counts=counts,
                              recorder=recorder)
    if recorder is not None and args.spans_out:
        recorder.write(args.spans_out)
    print(json.dumps(result.to_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
