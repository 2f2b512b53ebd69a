"""Perf trending: canonical baselines and regression diffs for the bench
harness's ``BENCH_METRICS_*.json`` dumps.

The bench harness (``benchmarks/conftest.py``) dumps deterministic solver
counters and histogram summaries per experiment — Newton iterations,
accepted points, LTE rejects, lu factor/solve splits — exactly the
numbers the Table R9/R10 claims rest on. Until now those files were
write-only. This module turns them into a trend line:

* :func:`build_baseline` canonicalizes every ``BENCH_METRICS_<exp>.json``
  in a directory into one committed ``BENCH_BASELINE.json``;
* :func:`diff_against_baseline` compares a fresh metrics directory
  against that baseline with per-metric relative tolerances and reports
  every regression — CI fails when the diff is nonempty.

Direction matters: for most metrics *more* is worse (iterations,
rejects, factorisations), but for a few *less* is the regression —
losing lu reuse hits or cache hits means reuse stopped firing,
and a shrinking mean accepted step means the integrator is taking more
steps for the same simulated window.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

#: Baseline file schema version.
BASELINE_VERSION = 1

#: Default relative tolerance before a metric movement counts as a change.
DEFAULT_TOLERANCE = 0.25

#: Stock baseline location, relative to a repo checkout.
DEFAULT_BASELINE = "benchmarks/BENCH_BASELINE.json"

#: Metric keys (flattened form, see :func:`flatten_metrics`) where a
#: *decrease* is the regression direction. Everything else regresses on
#: increase. Matching is by channel name, so both the counter and any
#: histogram views of a channel share a direction.
BENEFIT_CHANNELS = frozenset(
    {
        "lu.reuse_hit",
        "jobs.cache_hits",
        "controller.h_taken",
        "step.h_accepted",
        # Speculation-benefit channels: fewer speculative successes or
        # fewer pipeline stages for the same simulated window means the
        # pipelined schemes stopped overlapping work.
        "speculate.successes",
        "pipeline.stages",
        # Fewer variants amortised per lockstep solve means the ensemble
        # backend stopped batching same-topology jobs together.
        "ensemble.variants_per_solve",
        # Deliberately NOT listed: wtm.outer_iterations. The default
        # direction is the right one — more outer sweeps for the same
        # Table R13 workloads means the boundary exchange stopped
        # contracting (a convergence regression), so it gates on increase.
        # Deliberately NOT listed: service.request_duration (and its
        # service.tenant.<name>.request_duration variants). Request
        # latency regresses when it *grows*, so the default direction
        # already gates it; listing it here would invert the gate and
        # celebrate a slower front door.
    }
)

_METRICS_GLOB = "BENCH_METRICS_*.json"


def load_metrics_dir(metrics_dir) -> dict[str, dict]:
    """Every ``BENCH_METRICS_<exp_id>.json`` in *metrics_dir*, by exp id."""
    out: dict[str, dict] = {}
    for path in sorted(Path(metrics_dir).glob(_METRICS_GLOB)):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        exp_id = payload.get("exp_id") or path.stem.removeprefix("BENCH_METRICS_")
        out[exp_id] = payload
    return out


def canonicalize(payload: dict) -> dict:
    """The comparable core of one metrics dump.

    Keeps counters verbatim and reduces histograms to their ``count`` and
    ``mean`` (the log2 buckets and min/max are diagnostic detail, too
    granular to gate CI on).
    """
    histograms = {}
    for name, data in (payload.get("histograms") or {}).items():
        histograms[name] = {
            "count": int(data.get("count", 0)),
            "mean": float(data.get("mean", 0.0)),
        }
    return {
        "title": payload.get("title", ""),
        "counters": {k: float(v) for k, v in (payload.get("counters") or {}).items()},
        "histograms": histograms,
    }


def flatten_metrics(canonical: dict) -> dict[str, float]:
    """Canonical experiment dict -> flat ``{metric_key: value}``.

    Keys look like ``counters.newton.iterations`` and
    ``histograms.step.h_accepted.mean``.
    """
    flat: dict[str, float] = {}
    for name, value in canonical.get("counters", {}).items():
        flat[f"counters.{name}"] = float(value)
    for name, data in canonical.get("histograms", {}).items():
        flat[f"histograms.{name}.count"] = float(data.get("count", 0))
        flat[f"histograms.{name}.mean"] = float(data.get("mean", 0.0))
    return flat


def channel_of(metric_key: str) -> str:
    """The recorder channel a flattened metric key refers to."""
    if metric_key.startswith("counters."):
        return metric_key[len("counters."):]
    if metric_key.startswith("histograms."):
        name = metric_key[len("histograms."):]
        return name.rsplit(".", 1)[0]  # strip the .count / .mean suffix
    return metric_key


def build_baseline(metrics_dir, tolerances: dict[str, float] | None = None) -> dict:
    """Canonical baseline document for every metrics dump in *metrics_dir*."""
    experiments = {
        exp_id: canonicalize(payload)
        for exp_id, payload in load_metrics_dir(metrics_dir).items()
    }
    return {
        "version": BASELINE_VERSION,
        "experiments": experiments,
        "tolerances": dict(tolerances or {}),
    }


def write_baseline(baseline: dict, out_path) -> Path:
    """Write *baseline* as deterministic JSON (sorted keys, trailing \\n)."""
    path = Path(out_path)
    path.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_baseline(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    version = baseline.get("version")
    if version != BASELINE_VERSION:
        raise ValueError(
            f"baseline version {version!r} unsupported (expected {BASELINE_VERSION})"
        )
    return baseline


@dataclass
class PerfEntry:
    """One metric's movement between baseline and current run."""

    exp_id: str
    metric: str
    baseline: float
    current: float
    tolerance: float
    #: ok | regressed | improved (improved = moved beyond tolerance in
    #: the good direction; never fails the diff).
    status: str

    @property
    def rel_change(self) -> float:
        if self.baseline == 0.0:
            return math.inf if self.current != 0.0 else 0.0
        return (self.current - self.baseline) / abs(self.baseline)

    def to_dict(self) -> dict:
        rel = self.rel_change
        return {
            "exp_id": self.exp_id,
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "rel_change": None if math.isinf(rel) else rel,
            "tolerance": self.tolerance,
            "status": self.status,
        }

    def describe(self) -> str:
        rel = self.rel_change
        pct = "new" if math.isinf(rel) else f"{rel:+.1%}"
        return (
            f"[{self.status:>9}] {self.exp_id}: {self.metric} "
            f"{self.baseline:g} -> {self.current:g} ({pct}, tol {self.tolerance:.0%})"
        )


@dataclass
class PerfDiff:
    """Outcome of one baseline-vs-current comparison."""

    entries: list[PerfEntry] = field(default_factory=list)
    compared: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[PerfEntry]:
        return [e for e in self.entries if e.status == "regressed"]

    @property
    def improvements(self) -> list[PerfEntry]:
        return [e for e in self.entries if e.status == "improved"]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "compared": list(self.compared),
            "skipped": list(self.skipped),
            "regressions": [e.to_dict() for e in self.regressions],
            "improvements": [e.to_dict() for e in self.improvements],
        }

    def summary(self) -> str:
        lines = [
            f"perf diff: {len(self.compared)} experiment(s) compared"
            + (f", {len(self.skipped)} skipped (no fresh metrics)" if self.skipped else "")
        ]
        for entry in self.regressions + self.improvements:
            lines.append("  " + entry.describe())
        lines.append(
            "PASS: no perf regressions"
            if self.passed
            else f"FAIL: {len(self.regressions)} metric(s) regressed"
        )
        return "\n".join(lines)


def _classify(metric: str, base: float, current: float, tolerance: float) -> str:
    if base == 0.0 and current == 0.0:
        return "ok"
    if base == 0.0:
        rel = math.inf
    else:
        rel = (current - base) / abs(base)
    if abs(rel) <= tolerance:
        return "ok"
    worse_is_up = channel_of(metric) not in BENEFIT_CHANNELS
    regressed = rel > 0 if worse_is_up else rel < 0
    return "regressed" if regressed else "improved"


def diff_against_baseline(
    baseline: dict,
    metrics_dir,
    tolerance: float = DEFAULT_TOLERANCE,
    metric_tolerances: dict[str, float] | None = None,
) -> PerfDiff:
    """Compare fresh metrics dumps in *metrics_dir* against *baseline*.

    Only experiments present in **both** the baseline and the fresh
    directory are compared (CI runs smoke subsets; the full-table dumps
    simply carry over). Within a compared experiment a metric missing on
    either side counts as 0 — the engine omits zero counters, so
    "vanished" and "zero" are the same observation. Per-metric
    tolerances (flattened key or bare channel name) override the global
    one; baseline-embedded ``tolerances`` sit below CLI-provided ones.
    """
    resolved: dict[str, float] = dict(baseline.get("tolerances") or {})
    resolved.update(metric_tolerances or {})

    def tol_for(metric: str) -> float:
        return resolved.get(metric, resolved.get(channel_of(metric), tolerance))

    fresh = {
        exp_id: canonicalize(payload)
        for exp_id, payload in load_metrics_dir(metrics_dir).items()
    }
    diff = PerfDiff()
    for exp_id, base_exp in sorted(baseline.get("experiments", {}).items()):
        if exp_id not in fresh:
            diff.skipped.append(exp_id)
            continue
        diff.compared.append(exp_id)
        base_flat = flatten_metrics(base_exp)
        cur_flat = flatten_metrics(fresh[exp_id])
        for metric in sorted(set(base_flat) | set(cur_flat)):
            base_value = base_flat.get(metric, 0.0)
            cur_value = cur_flat.get(metric, 0.0)
            tol = tol_for(metric)
            status = _classify(metric, base_value, cur_value, tol)
            if status != "ok":
                diff.entries.append(
                    PerfEntry(exp_id, metric, base_value, cur_value, tol, status)
                )
    return diff
