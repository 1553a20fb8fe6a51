"""Served-statement benchmark: one command, three workloads.

Run from the repository root::

    python3 stmtbench/run.py --workload suite-cold --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
makes the separate traced run that reports the per-layer ledger.  Every
metric is printed by name and unit; the last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metric definitions.
"""

import argparse
import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="stmtbench",
        description="Served-statement benchmark of the RC-NVM reproduction.",
    )
    parser.add_argument("--workload", required=True,
                        choices=("suite-cold", "suite-warm", "olxp-tenants"))
    parser.add_argument("--seed", type=int, required=True,
                        help="seeds statement order and tenant arrivals")
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed host seconds to serve statements for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run with the per-layer ledger")
    return parser.parse_args(argv)


def _print_metrics(metrics, units):
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]!r:>24} {unit}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"stmtbench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from ledger import PER_LAYER, measure_traced

    workload = workloads.WORKLOADS[args.workload]
    calibration = workloads.host_calibration()
    print(f"stmtbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    if args.trace:
        measurement, untraced, metrics, missing = measure_traced(
            workload, args.seed, args.seconds
        )
        print(f"per-layer metrics ({len(measurement.units)} traced units, "
              f"then as many untraced):")
        _print_metrics(metrics, PER_LAYER)
        extra = {"untraced_units": len(untraced.units),
                 "missing_entry_points": missing}
        served = [measurement, untraced]
    else:
        measurement = workloads.measure(workload, args.seed, args.seconds)
        metrics = measurement.end_to_end()
        print(f"end-to-end metrics ({len(measurement.units)} units):")
        _print_metrics(metrics, workloads.END_TO_END)
        latencies = measurement.typical_latencies_ms()
        extra = {
            "tail_pct": workloads.TAIL_PCT,
            "tail_samples": len(latencies),
            "tail_beyond": sum(ms > metrics["stmt_tail_ms"] for ms in latencies),
        }
        served = [measurement]
    total = {
        name: sum(getattr(m, name) for m in served)
        for name in ("attempted", "failed", "lost", "shed")
    }
    mismatches = sum(m.checker.mismatches for m in served)
    exceptions = sum(m.checker.exceptions for m in served)
    print(f"  {'error_rate':<30} {total['failed'] / total['attempted']!r:>24} "
          f"ratio ({mismatches} mismatches + {total['lost']} lost to "
          f"{exceptions} exceptions + {total['shed']} shed of "
          f"{total['attempted']} attempted)")
    print(f"  simulated-state digest {measurement.sim.get('digest')}")
    meta = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": len(measurement.units),
        "host_calibration_s": calibration,
        "python": platform.python_version(),
        **extra,
    }
    print("  meta " + json.dumps(meta, sort_keys=True))
    units = PER_LAYER if args.trace else workloads.END_TO_END
    print(json.dumps({
        "correct": mismatches == 0 and exceptions == 0,
        "attempted": total["attempted"],
        "failed": total["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
