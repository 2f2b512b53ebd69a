"""Command line of the benchmark.

``python3 -m wallbench --workload W --seed N --seconds S --trace 0|1``
    one workload in this process; the last stdout line is the result
    object (``correct``, ``attempted``, ``failed``, ``metrics``).
``python3 -m wallbench run [--seed N] [--quick] [--out FILE]``
    every workload, process per workload, round-robin; the ledger.
``python3 -m wallbench compare A.json B.json``
    apply every metric's bound to two ledgers; exit 1 on a regression.
``python3 -m wallbench golden``
    regenerate ``wallbench/golden/`` from the current code.
"""

import argparse
import json
import sys


def _measure(argv: list[str]) -> int:
    from wallbench.driver import measure
    from wallbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="wallbench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shorten every tstop and the service's op sequence "
                             "(golden checks are skipped below 1)")
    parser.add_argument("--reps", type=int, default=None,
                        help="exactly this many timed reps instead of a time box")
    parser.add_argument("--detail", action="store_true",
                        help="print the per-rep samples on the line before the result")
    args = parser.parse_args(argv)

    result, detail = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        scale=args.scale, reps=args.reps,
    )
    for target in detail["trace_missing"]:
        print(f"trace_missing: {target}", file=sys.stderr)
    if args.detail:
        print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def _run(argv: list[str]) -> int:
    from wallbench import ledger

    parser = argparse.ArgumentParser(prog="wallbench run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="2 reps, tstop/4, 75 service ops; not comparable")
    parser.add_argument("--out", metavar="FILE", help="write the ledger as JSON")
    args = parser.parse_args(argv)
    result = ledger.run(args.seed, quick=args.quick, out=args.out)
    failed = sum(w["end_to_end"]["fail_ratio"]["failed"] for w in result["workloads"].values())
    return 1 if failed else 0


def _compare(argv: list[str]) -> int:
    from wallbench import ledger

    parser = argparse.ArgumentParser(prog="wallbench compare")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as a, open(args.new, encoding="utf-8") as b:
        return ledger.compare(json.load(a), json.load(b))


def _golden(argv: list[str]) -> int:
    from wallbench.compute import write_golden

    write_golden()
    return 0


def main(argv: list[str]) -> int:
    commands = {"run": _run, "compare": _compare, "golden": _golden}
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return _measure(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
