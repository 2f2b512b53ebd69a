"""``wallbench run`` and ``wallbench compare``: the committed ledger.

``run`` measures every workload in its own process (clean
``peak_rss_mb``, cold caches) and interleaves them round-robin — round
1 of all seven, then round 2, then the traced processes — because
identical work drifts by tens of percent over tens of seconds on a
shared host and only spreading the workloads over that drift keeps it
out of the comparison between them. Every round yields one value per
metric (the run's own best-of-N aggregate, see :mod:`wallbench.samples`);
the ledger value is the median over rounds, printed with the rounds'
range and, for ``wall_s``, the median and quartiles of all per-rep
walls. The last process of each workload makes the traced passes after
its timed reps, for the per-layer numbers.

``compare`` applies each metric's regression bound, workload by
workload, to two such ledgers.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from wallbench import ROOT
from wallbench.driver import LEDGER_METRICS, SERVICE_METRICS
from wallbench.layers import PER_LAYER
from wallbench.samples import BEYOND
from wallbench.workloads import WORKLOADS

SCHEMA = "wallbench/1"

#: Full protocol: ROUNDS plain processes per workload and then the traced
#: one, whose timed reps run before any tracing and count as one more
#: round. Each process times REPS reps of a compute workload (6 >= 5
#: pooled) or one 300-op rep of the service on its own farm (3 pooled).
ROUNDS, REPS, SERVICE_REPS = 2, 2, 1
#: ``--quick``: one round, 2 reps, tstop/4, 75 service ops.
QUICK_REPS, QUICK_SCALE = 2, 0.25

#: The issue's "25 % or 0.1 s" for set-up: differences under this many
#: seconds are neither noise nor regression.
SETUP_SLACK_S = 0.1

_DIRECTION = {name: better for name, _u, better, _b in LEDGER_METRICS}
_BOUNDS = {name: bound for name, _u, _b, bound in LEDGER_METRICS}


def _child(workload: str, seed: int, trace: bool, quick: bool) -> dict:
    """Run one workload process; returns its ``detail`` object."""
    service = WORKLOADS[workload].check == "service"
    reps = SERVICE_REPS if service else QUICK_REPS if quick else REPS
    argv = [sys.executable, "-m", "wallbench", "--workload", workload,
            "--seed", str(seed), "--trace", str(int(trace)), "--detail",
            "--seconds", "0", "--reps", str(reps)]
    if quick:
        argv += ["--scale", str(QUICK_SCALE)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-2])["detail"]


def _quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _pool(details: list[dict], traced: dict, service: bool) -> dict:
    def cat(key):
        return [v for d in details for v in d[key]]

    end = {}
    # rates and latencies are the service's rows
    rows = LEDGER_METRICS if service else LEDGER_METRICS[: -len(SERVICE_METRICS)]
    for name, unit, _better, _bound in rows:
        rounds = [d["best"][name] for d in details]
        # a percentile one round could not resolve (too few samples
        # beyond it) is not resolved by the others
        resolved = None not in rounds
        end[name] = {"value": statistics.median(rounds) if resolved else None,
                     "rounds": rounds if resolved else [], "unit": unit}
    end["wall_s"]["reps"] = _quartiles(cat("wall_s"))
    end["setup_s"]["reps"] = _quartiles(cat("setup_s"))
    attempted = sum(d["attempted"] for d in details)
    failed = sum(d["failed"] for d in details)
    end["fail_ratio"] = {"value": failed / attempted, "attempted": attempted, "failed": failed}
    return {
        "end_to_end": end,
        # 0 = the workload never enters that layer; null = its trace target is gone
        # (the service's end-to-end rows are above, pooled: not repeated here)
        "per_layer": {name: traced["layers"].get(name, 0.0) for name, _u, _b in PER_LAYER
                      if name not in _BOUNDS},
        "trace_missing": traced["trace_missing"],
        "max_rel_err": max(d["max_rel_err"] for d in details),
    }


def _machine() -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": model, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha}


def run(seed: int, quick: bool = False, out: str | None = None) -> dict:
    """Measure every workload; returns (and optionally writes) the ledger."""
    started = perf_counter()
    details: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for index in range(1 if quick else ROUNDS):
        for name in WORKLOADS:
            print(f"round {index + 1}: {name}")
            details[name].append(_child(name, seed, trace=False, quick=quick))
    ledger = {"schema": SCHEMA, "quick": quick, "seed": seed, **_machine(), "workloads": {}}
    for name in WORKLOADS:
        print(f"traced: {name}")
        traced = _child(name, seed, trace=True, quick=quick)
        service = WORKLOADS[name].check == "service"
        ledger["workloads"][name] = _pool([*details[name], traced], traced, service)
    ledger["elapsed_s"] = perf_counter() - started
    print(render(ledger))
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return ledger


# -- printing ----------------------------------------------------------------------


def _fmt(entry: dict) -> str:
    if entry.get("value") is None:
        return f"n/a (fewer than {BEYOND} samples beyond it)"
    text = f"{entry['value']:.6g}"
    if len(entry.get("rounds", ())) > 1:
        text += f" (rounds {min(entry['rounds']):.4g}..{max(entry['rounds']):.4g})"
    if "reps" in entry:
        reps = entry["reps"]
        text += f" reps: median {reps['median']:.4g} [{reps['q1']:.4g}, {reps['q3']:.4g}] n={reps['n']}"
    return text


#: Read beside the numbers: what a change to one layer may move.
INTERACTIONS = """\
interactions: with nothing contending, a faster layer saves at most its self-time
share of wall_s (a 2x devices.eval_s win is <=25% on digital_seq, ~0 on grid_seq);
virtual_work must not move under a pure-speed change; on service_mixed the server
and node contend for one flock, so queue_*_ms savings can move jobs_per_s by more
than their share."""


def render(ledger: dict) -> str:
    lines = []
    if ledger["quick"]:
        lines.append("quick: not comparable")
    lines.append(
        f"wallbench seed={ledger['seed']} {ledger['cpu_model']} x{ledger['nproc']} "
        f"python {ledger['python']} numpy {ledger['numpy']} scipy {ledger['scipy']} "
        f"git {ledger['git_sha'][:12]} ({ledger['elapsed_s']:.0f}s)"
    )
    for name, block in ledger["workloads"].items():
        lines.append(f"\n== {name}")
        for metric, entry in block["end_to_end"].items():
            unit = entry.get("unit", "ratio")
            lines.append(f"  {metric:<18} {_fmt(entry)} {unit}")
        lines.append(f"  {'verify.max_rel_err':<18} {block['max_rel_err']:.3g}")
        for missing in block["trace_missing"]:
            lines.append(f"  trace_missing      {missing}")
    lines.append("\n== per layer (one traced pass per workload; self seconds unless noted)")
    names = list(ledger["workloads"])
    lines.append(f"  {'metric':<36}" + "".join(f"{n[:13]:>14}" for n in names))
    for metric, unit, _better in PER_LAYER:
        cells = []
        for name in names:
            value = ledger["workloads"][name]["per_layer"].get(metric)
            cells.append(f"{'null' if value is None else format(value, '.4g'):>14}")
        if any(c.strip() not in ("0", "null") for c in cells):
            lines.append(f"  {metric + ' [' + unit + ']':<36}" + "".join(cells))
    lines.append("\n" + INTERACTIONS)
    return "\n".join(lines)


# -- compare -----------------------------------------------------------------------


def _worse(base: float, new: float, better: str) -> float:
    """Relative change in the *worse* direction (negative = improved)."""
    if not base:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _judge(metric: str, base: dict, new: dict) -> tuple[str, float]:
    """Status and new/base ratio of one metric x workload."""
    better, bound = _DIRECTION[metric], _BOUNDS[metric]
    b, n = base.get("value"), new.get("value")
    if b is None or n is None:
        return "unresolved", float("nan")
    ratio = n / b if b else float("nan")
    slack = SETUP_SLACK_S if metric == "setup_s" else 0.0
    if abs(n - b) <= slack:
        return "ok", ratio
    worse = _worse(b, n, better)
    sides = (base.get("rounds", [b]), new.get("rounds", [n]))
    if any(max(r) - min(r) > max(bound * abs(statistics.median(r)), slack) for r in sides):
        # the rounds of one side disagree by more than the bound: only a
        # clean separation (every new round beats every base round) counts
        worst_new = max(sides[1]) if better == "lower" else min(sides[1])
        best_base = min(sides[0]) if better == "lower" else max(sides[0])
        return ("improved" if _worse(best_base, worst_new, better) < 0 else "unresolved"), ratio
    return ("regressed" if worse > bound else "improved" if worse < -bound else "ok"), ratio


def compare(base: dict, new: dict) -> int:
    """Print one row per workload x metric; 1 on a regression."""
    if base.get("quick") or new.get("quick"):
        print("quick: not comparable")
    bad = False
    for name, block in new["workloads"].items():
        old = base["workloads"].get(name)
        if old is None:
            continue
        for metric in _BOUNDS:
            if metric not in block["end_to_end"] or metric not in old["end_to_end"]:
                continue  # rates and latencies are rows of the service workload only
            b, n = old["end_to_end"][metric], block["end_to_end"][metric]
            status, ratio = _judge(metric, b, n)
            bad |= status == "regressed"
            print(f"{name:<14} {metric:<16} {status:<10} base {_fmt(b)} | new {_fmt(n)} | "
                  f"new/base {ratio:.3f} (bound {_BOUNDS[metric]:.1%})")
        b, n = old["end_to_end"]["fail_ratio"], block["end_to_end"]["fail_ratio"]
        status = "regressed" if n["value"] > b["value"] else "ok"
        bad |= status == "regressed"
        print(f"{name:<14} {'fail_ratio':<16} {status:<10} base {b['failed']}/{b['attempted']} | "
              f"new {n['failed']}/{n['attempted']}")
    return 1 if bad else 0
