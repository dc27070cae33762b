"""The perf ledger's one command.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload at one seed, prints every metric by name with its
unit, checks the outputs against the sequential ``apply_event`` oracle
and prints one JSON object as its last line (``correct``, ``attempted``,
``failed``, ``metrics``).  ``--trace 0`` reports the end-to-end metrics,
always measured with tracing off; ``--trace 1`` reruns the workload
with ledger-side spans and the library's telemetry switched on and
reports the per-layer metrics.  Exit code 1 on any correctness failure.
"""

from __future__ import annotations

import os
import sys

if __package__ in (None, ""):  # run as a script from a checkout root
    # Host control lives in the runner: one BLAS thread, set before numpy
    # is first imported, so a kernel's speed never depends on idle cores.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    _root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    for _path in (os.path.join(_root, "src"), _root):
        if _path not in sys.path:
            sys.path.insert(0, _path)

import argparse
import atexit
import json
import signal
import traceback
from pathlib import Path
from typing import Any

from benchmarks.ledger import harness, oracle, worlds
from benchmarks.ledger.harness import END_TO_END

HERE = Path(__file__).resolve().parent


def measure(
    workload: str, seed: int, seconds: float, scale: str = "full",
    pin: bool = True,
) -> dict[str, Any]:
    """The untraced run: every end-to-end metric of one workload."""
    spec = worlds.scaled(worlds.SPECS[workload], scale, seconds)
    host = harness.prepare_host(spec, pin)
    inputs = worlds.make_inputs(spec, seed)
    smoke = scale == "smoke"
    n_blocks = 2 if smoke else harness.N_BLOCKS
    world, setup_passes, readings = harness.timed_setup(
        spec, inputs, harness.SETUP_PASSES,
        0.0 if smoke else harness.SETUP_MIN_SECONDS,
    )
    session = harness.Session(world)
    try:
        harness.run_sessions([session], n_blocks)
        rss = harness.peak_rss_mb(world)
        counters = oracle.finish_checks(world, session.tally, seed)
    finally:
        world.close()
    tally, blocks = session.tally, session.blocks
    metrics = session.estimates(min(harness.MIN_VALID_BLOCKS, n_blocks))
    metrics["setup_s"] = harness.quiet(setup_passes, "lower")
    metrics["peak_rss_mb"] = rss
    readings += [reading for b in blocks for reading in b.kernel_s]
    host.update(harness.disturbance(readings))
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "scale": scale, "trace": 0,
        "correct": tally.failed == 0 and len(metrics) == len(END_TO_END),
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.reasons,
        "metrics": {
            name: {"value": metrics[name], "unit": END_TO_END[name][0]}
            for name in END_TO_END if name in metrics
        },
        "blocks": [
            {
                "index": b.index, "valid": b.valid, "why": b.why_invalid,
                "late_p95_ms": b.late_p95_ms,
                "paced_drain_ms": b.paced_drain_ms, "kernel_s": b.kernel_s,
                **b.metrics,
            }
            for b in blocks
        ],
        "setup_passes": setup_passes,
        "counters": counters,
        "host": host,
    }


def report(record: dict[str, Any]) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    host = record["host"]
    print(
        f"# ledger {record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']} scale={record['scale']} "
        f"trace={record['trace']}"
    )
    print(f"# host {json.dumps(host, sort_keys=True)}")
    for block in record.get("blocks", []):
        flag = "ok" if block["valid"] else f"INVALID ({block['why']})"
        print(
            f"# block {block['index']}: {flag}  "
            f"late_p95={block['late_p95_ms']:.3f}ms "
            f"drain={block['paced_drain_ms']:.2f}ms"
        )
    for note in record.get("notes", []):
        print(f"# {note}")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, value in record.get("counters", {}).items():
        print(f"# {name} {value}")
    print(f"ops_attempted {record['attempted']} count")
    print(f"ops_failed {record['failed']} count")
    for reason in record.get("failures", []):
        print(f"# FAILED: {reason}")
    print(json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": record["metrics"],
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(worlds.SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=worlds.BASE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke: tiny worlds and 2 blocks, for the tests only",
    )
    parser.add_argument(
        "--no-pin", action="store_true",
        help="skip CPU pinning (hosts without sched_setaffinity)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the full record to OUT/<workload>_seed<N>.json",
    )
    args = parser.parse_args(argv)
    if args.trace:
        from benchmarks.ledger import probes

        record = probes.trace(
            args.workload, args.seed, args.seconds, args.scale,
            pin=not args.no_pin, out_dir=HERE / "out",
        )
    else:
        record = measure(
            args.workload, args.seed, args.seconds, args.scale,
            pin=not args.no_pin,
        )
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        suffix = "_trace" if args.trace else ""
        path = args.out / f"{args.workload}_seed{args.seed}{suffix}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    report(record)
    return 0 if record["correct"] else 1


def run_and_leave_nothing() -> None:
    """The script's way out, on every path: :func:`main`, then no child.

    Shard workers are joined by ``World.close``; this is the net under it
    (an error between a store's creation and its world's) and the end of
    multiprocessing's resource tracker, which by design outlives the
    process that started it.  The order matters: the ``atexit`` hooks run
    *first* — the shared-memory store's sweep unlinks what was never
    closed, and every unlink talks to the tracker, starting one if need
    be — then the children are stopped and waited for, then the process
    leaves without a second teardown that could start another.
    """
    # a polite kill unwinds like any error
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        code = main()
    except SystemExit as exc:  # argparse, SIGTERM
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except BaseException:
        traceback.print_exc()
        code = 1
    atexit._run_exitfuncs()
    harness.stop_child_processes()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run_and_leave_nothing()
