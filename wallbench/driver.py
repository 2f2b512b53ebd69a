"""One workload, one process: set up, warm up, time reps, aggregate.

This is the unit both front ends share: the contract entry point
(``python3 -m wallbench --workload W --seed N --seconds S --trace 0|1``)
prints its result as one JSON line, and ``wallbench run`` launches the
same thing once per workload per round and pools the per-rep detail.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
from time import perf_counter

from wallbench import ROOT
from wallbench.compute import Golden, run_rep, traced_layers
from wallbench.layers import PER_LAYER
from wallbench.samples import latencies, summarize
from wallbench.service import Farm, run_service_rep, service_layers
from wallbench.workloads import (
    SERVICE_BLOCKS,
    WORKLOADS,
    make_decks,
    make_traffic,
)

#: Timed reps a compute run never goes below, whatever ``--seconds`` says.
MIN_REPS = 5
#: ... and in a traced run, whose timed loop only anchors the overhead ratios.
MIN_REPS_TRACED = 3
#: Reps of the service, each the whole op sequence on a farm of its own
#: (the last ones set up); a traced run times one.
SERVICE_REPS = 2
#: Set-up is repeated and its median reported, so ``setup_s`` is steady:
#: each repeat is a fresh interpreter importing the benchmark and the
#: simulator, then this process generating inputs (and starting a farm).
SETUP_REPEATS = 3

#: (name, unit, better, bound): the issue's thirteen end-to-end metrics
#: with the issue's bounds, ``fail_ratio`` aside (it tolerates no
#: increase). This is what ``wallbench compare`` holds two ledgers to.
LEDGER_METRICS = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("virtual_work", "units", "lower", 0.005),
    ("virtual_speedup", "x", "higher", 0.01),
    ("wall_speedup", "x", "higher", 0.10),
    ("ops_per_s", "1/s", "higher", 0.10),
    ("jobs_per_s", "1/s", "higher", 0.10),
    ("submit_p50_ms", "ms", "lower", 0.10),
    ("submit_p95_ms", "ms", "lower", 0.25),
    ("read_p50_ms", "ms", "lower", 0.10),
    ("read_p95_ms", "ms", "lower", 0.25),
)
#: The rows only the service has (rates and latencies of HTTP ops).
SERVICE_METRICS = LEDGER_METRICS[6:]
#: What every run of every workload prints; ``BENCHMARK.json`` mirrors
#: this list. The contract accepts a benchmark only if ten single runs
#: spread by less than each bound, and single runs of unchanged code
#: read 3-25 % apart on a shared 2-core host — so here, and only
#: here, the two host-time bounds are the 0.25 it allows.
CONTRACT_BOUNDS = {"wall_s": 0.25, "wall_speedup": 0.25}
END_TO_END = tuple(
    (name, unit, better, CONTRACT_BOUNDS.get(name, bound))
    for name, unit, better, bound in LEDGER_METRICS[:6]
)


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _import() -> None:
    """What a cold start pays before any input exists: imports, in a fresh interpreter."""
    subprocess.run([sys.executable, "-c", "import wallbench.driver"], cwd=ROOT, check=True)


def _compute(spec, seed, seconds, trace, scale, reps):
    prepare = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        _import()
        decks = make_decks(spec.name, seed, scale)
        golden = Golden.load() if spec.check == "golden" and scale == 1.0 else None
        prepare.append(perf_counter() - start)

    warm = run_rep(spec, decks, golden, 0)
    budget = seconds / 2 if trace else seconds
    floor = reps or (MIN_REPS_TRACED if trace else MIN_REPS)
    timed = []
    start = perf_counter()
    while len(timed) < floor or (reps is None and perf_counter() - start < budget):
        sample = run_rep(spec, decks, golden, len(timed) + 1)
        if sample.virtual_work != warm.virtual_work:
            sample.failed += 1  # the virtual clock must repeat exactly
        timed.append(sample)

    rss = _rss_mb(resource.RUSAGE_SELF)  # read before the traced passes can raise it
    layers, missing = traced_layers(spec, decks, timed) if trace else ({}, [])
    return prepare, [warm, *timed], timed, layers, missing, rss


def _service(seed, trace, scale, reps):
    """The whole op sequence as one rep on one farm, so its manifest grows.

    The farm is set up ``SETUP_REPEATS`` times for a steady ``setup_s``;
    the last *reps* of them are driven, with the same traffic.
    """
    blocks = max(1, round(SERVICE_BLOCKS * scale))
    reps = reps or (1 if trace else SERVICE_REPS)
    prepare, timed = [], []
    for index in range(SETUP_REPEATS):
        start = perf_counter()
        _import()
        traffic = make_traffic(seed, blocks)
        with Farm() as farm:
            prepare.append(perf_counter() - start)
            if index >= SETUP_REPEATS - reps:
                timed.append(run_service_rep(traffic, farm))
    layers, missing = service_layers(traffic, timed[-1]) if trace else ({}, [])
    return prepare, timed, timed, layers, missing, _rss_mb(resource.RUSAGE_CHILDREN)


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    reps: int | None = None,
) -> tuple[dict, dict]:
    """Run *workload* once; returns ``(result, detail)``.

    *result* is the contract object (``correct``/``attempted``/``failed``
    /``metrics``: end-to-end with tracing off, per-layer from the traced
    pass). *detail* carries what ``wallbench run`` pools: the run's own
    aggregates under ``best`` and the per-rep walls behind them.
    ``scale``/``reps`` are the ``--quick`` knobs (shorter tstop or op
    sequence, a fixed rep count); the service ignores *seconds*.
    """
    spec = WORKLOADS[workload]
    service = spec.check == "service"
    if service:
        outcome = _service(seed, trace, scale, reps)
    else:
        outcome = _compute(spec, seed, seconds, trace, scale, reps)
    prepare, counted, timed, layers, missing, rss = outcome
    timed = [s for s in timed if s.complete]
    first = counted[0]  # the virtual clock is read off the first pass

    attempted = sum(s.attempted for s in counted)
    failed = sum(s.failed for s in counted)
    values = {
        "setup_s": statistics.median(prepare),
        "peak_rss_mb": rss,
        "virtual_work": first.virtual_work,
        "virtual_speedup": first.virtual_speedup,
        **(summarize(timed) if timed else {}),
        **(latencies(timed) if service else {}),
    }
    if trace and service:  # the service's own end-to-end rows ride along
        layers.update({name: values.get(name) for name, *_ in SERVICE_METRICS})
    detail = {
        "workload": workload,
        "seed": seed,
        "best": values,
        "setup_s": prepare,
        "wall_s": [sum(s.wall) for s in timed],
        "attempted": attempted,
        "failed": failed,
        "max_rel_err": max(s.max_rel_err for s in counted),
        "layers": layers,
        "trace_missing": missing,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    if trace:
        result["metrics"] = {
            name: {"value": float(layers.get(name) or 0.0), "unit": unit}
            for name, unit, _better in PER_LAYER
        }
    elif timed:
        result["metrics"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _better, _bound in END_TO_END
        }
    return result, detail
