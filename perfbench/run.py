"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_compile --seed 1 --seconds 20 --trace 0

Every input is made from ``--seed``.  The timed window lasts ``--seconds``
(the block under way when it closes still finishes).  Every output is
checked.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
ledger with ``--trace 1``.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: settings that select program behaviour; the benchmark runs the defaults
PINNED_ENV = (
    "REPRO_ENGINE", "REPRO_FAULTS", "REPRO_PLAN_CACHE",
    "REPRO_SPMM_BACKEND", "REPRO_TRACE",
)

WORKLOADS = ("cold_compile", "warm_execute", "service_waves")


def _make(name: str):
    if name == "cold_compile":
        from perfbench.workloads import ColdCompile
        return ColdCompile()
    if name == "warm_execute":
        from perfbench.workloads import WarmExecute
        return WarmExecute()
    from perfbench.service import ServiceWaves
    return ServiceWaves()


def pin_to_one_cpu() -> None:
    """Run this process on one CPU, so the host probe times the CPU the
    program runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    pin_to_one_cpu()
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench.harness import measure, result_line

    workload = _make(args.workload)
    trace = bool(args.trace)

    def log(line: str) -> None:
        print(line, flush=True)

    record = measure(workload, args.seed, args.seconds, trace, log)
    log(f"workload  : {args.workload} (seed {args.seed}, "
        f"{'traced and untraced blocks' if trace else 'untraced'})")
    log(f"per op    : {workload.inputs_per_op}")
    log(f"ops       : {record['attempted']} attempted, {record['failed']} failed")
    log(f"latency   : {record['samples']} untraced samples, "
        f"{record['beyond_p90']} beyond p90")
    log(f"host      : probe {record['probe']}, median {record['calib_ms']:.2f} ms")
    log("unscaled  : " + ", ".join(
        f"{name} {value:.6g}" for name, value in record["raw"].items()
    ))
    for name, value in record["end_to_end"].items():
        log(f"  {name:<34} {value:.6g}")
    for name, value in record.get("per_layer", {}).items():
        log(f"  {name:<34} {value:.6g}")
    print(result_line(record, trace), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
