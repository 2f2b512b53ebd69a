"""Causal diagnosis of one traced run.

:func:`explain_trace` reads a flat event list plus the recorder's
summary snapshot (counters / histograms / span-path totals) and distils
four findings:

* **critical path** — on the virtual clock, which lane bounded the run:
  for a pipelined trace, every ``stage_run`` span is attributed to the
  costliest candidate under it (a ``stage_task``, or the one ``timestep``
  of a ``threads=1`` stage) and those bounding costs are folded per lane; for a campaign trace, ``job_run`` spans are ranked by cost;
  a sequential trace trivially pins lane 0.
* **rejection taxonomy** — every rejected candidate step classified by
  cause (LTE, Newton failure, bypass-stall fallback), cross-checked
  between span outcome tags, ``lte_reject`` events and the controller's
  ``controller.reject.<cause>`` counters, plus the step-size timeline.
* **speculation economics** — useful vs wasted speculative work units
  per the ``speculate.*`` counters, and the depth-vs-hit-rate curve from
  ``speculate`` events.
* **solver-phase split** — device-eval / assembly / factor / backsolve
  virtual cost from the synthesized phase spans (with per-device-class
  attribution from the ``classes`` attr), next to the LU reuse ledger.

Everything in the report is a count, a virtual-clock quantity or a
simulated time — never a wall-clock reading — so the JSON rendering of
the same deterministic run is byte-identical across reruns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.instrument.events import (
    JOB_RUN,
    LTE_REJECT,
    PHASE_ASSEMBLY,
    PHASE_BACKSOLVE,
    PHASE_DEVICE_EVAL,
    PHASE_FACTOR,
    QUEUE_WAIT,
    RESULT_UPLOAD,
    SERVICE_DEDUP,
    SERVICE_JOB,
    SERVICE_REQUEST,
    SERVICE_SOLVE,
    SPECULATE,
    STAGE_RUN,
    STAGE_TASK,
    STEP_ACCEPT,
    TIMESTEP,
    WTM_OUTER_ITER,
    WTM_PARTITION,
    OUTCOME_ACCEPTED,
    OUTCOME_LTE_REJECT,
    OUTCOME_NEWTON_FAIL,
    OUTCOME_SPECULATIVE_HIT,
    OUTCOME_SPECULATIVE_WASTE,
    TraceEvent,
)
from repro.instrument.spans import build_span_tree, outcome_counts

#: Span names that represent one candidate time point.
CANDIDATE_SPANS = (TIMESTEP, STAGE_TASK)

#: Solver-phase span names, in pipeline order.
PHASE_SPANS = (PHASE_DEVICE_EVAL, PHASE_ASSEMBLY, PHASE_FACTOR, PHASE_BACKSOLVE)

#: Every outcome tag the engine emits. An outcome outside this vocabulary
#: is an *unclassified* candidate — the report's classified fraction
#: (an acceptance gate) counts them.
KNOWN_OUTCOMES = frozenset(
    {
        OUTCOME_ACCEPTED,
        OUTCOME_LTE_REJECT,
        OUTCOME_NEWTON_FAIL,
        OUTCOME_SPECULATIVE_HIT,
        OUTCOME_SPECULATIVE_WASTE,
    }
)

#: Prefix of the controller's per-cause rejection counters.
_REJECT_PREFIX = "controller.reject."

#: Cap on the step-size timeline carried in the report; a multi-thousand
#: point run still yields a readable JSON document. The truncation is
#: announced in the report itself (``timeline_truncated``).
TIMELINE_CAP = 2000


@dataclass
class ExplainReport:
    """Deterministic diagnosis of one trace (see module docstring)."""

    source: str
    spans: dict = field(default_factory=dict)
    critical_path: dict = field(default_factory=dict)
    rejections: dict = field(default_factory=dict)
    speculation: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "spans": self.spans,
            "critical_path": self.critical_path,
            "rejections": self.rejections,
            "speculation": self.speculation,
            "phases": self.phases,
            "counters": self.counters,
        }

    def to_json(self) -> str:
        """Canonical JSON rendering: sorted keys, stable float repr."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _round(value: float) -> float:
    """Fold float noise out of derived ratios (sums stay exact)."""
    return round(float(value), 9)


#: Stitched service tiers in request-lifecycle order (queue wait, solve,
#: result upload); the order also breaks cost ties deterministically.
SERVICE_TIERS = (QUEUE_WAIT, SERVICE_SOLVE, RESULT_UPLOAD)


def _service_path(tree) -> dict | None:
    """Cross-node request breakdown for a stitched service trace.

    Service traces are the one tier where the costs are wall-clock
    **seconds** (the stitcher's choice: request latency has no
    virtual-clock answer). Worker snapshots re-parented beneath each
    ``service_solve`` still carry ``job_run`` spans, so this check must
    run before the campaign scan or a farm trace would be misread as a
    plain campaign.
    """
    requests = [n for n in tree.walk() if n.name == SERVICE_REQUEST]
    if not requests:
        return None
    tiers = {name: {"count": 0, "cost": 0.0} for name in SERVICE_TIERS}
    tenants: dict[str, dict] = {}
    jobs = []
    dedup_served = 0
    for request in requests:
        tenant = str(request.attrs.get("tenant", "default"))
        entry = tenants.setdefault(
            tenant, {"requests": 0, "jobs": 0, "cost": 0.0}
        )
        entry["requests"] += 1
        for job in request.children:
            if job.name != SERVICE_JOB:
                continue
            jobs.append(job)
            entry["jobs"] += 1
            entry["cost"] += job.cost
            for child in job.children:
                if child.name in tiers:
                    tiers[child.name]["count"] += 1
                    tiers[child.name]["cost"] += child.cost
                elif child.name == SERVICE_DEDUP:
                    dedup_served += 1
    tier_total = sum(entry["cost"] for entry in tiers.values())
    for entry in tiers.values():
        entry["share"] = _round(
            entry["cost"] / tier_total if tier_total > 0 else 0.0
        )
    critical_tier = max(SERVICE_TIERS, key=lambda name: tiers[name]["cost"])
    ranked = sorted(
        jobs,
        key=lambda n: (
            -n.cost,
            str(n.attrs.get("label", "")),
            str(n.attrs.get("hash", "")),
        ),
    )
    slowest = [
        {
            "label": str(n.attrs.get("label") or n.attrs.get("hash", "")),
            "cost": n.cost,
            "status": n.outcome or str(n.attrs.get("status", "")),
            "tenant": str(n.attrs.get("tenant", "default")),
            "node": n.attrs.get("node"),
            "cached": bool(n.attrs.get("cached", False)),
        }
        for n in ranked[:10]
    ]
    return {
        "kind": "service",
        "requests": len(requests),
        "jobs": len(jobs),
        "dedup_served": dedup_served,
        "bounding_cost_total": sum(n.cost for n in jobs),
        "tiers": tiers,
        "critical_tier": critical_tier,
        "tenants": {name: tenants[name] for name in sorted(tenants)},
        "slowest_jobs": slowest,
        "critical_job": slowest[0]["label"] if slowest else None,
        "critical_lane": ranked[0].lane if ranked else None,
    }


def _critical_path(tree, events) -> dict:
    """Attribute the run's virtual-clock cost to its bounding lane."""
    # Stitched farm traces first: they embed worker job_run spans under
    # their solve tiers, so any later scan would misclassify them.
    service = _service_path(tree)
    if service is not None:
        return service

    # Campaign traces rank whole jobs: the stage spans riding along in
    # the workers' event tails are ring-buffer fragments (the *end* of
    # each job only) and would misattribute the run if folded per lane.
    jobs = [n for n in tree.walk() if n.name == JOB_RUN]
    if jobs:
        ranked = sorted(
            jobs, key=lambda n: (-n.cost, str(n.attrs.get("label", "")))
        )
        slowest = [
            {
                "label": str(n.attrs.get("label", "")),
                "cost": n.cost,
                "status": n.outcome or str(n.attrs.get("status", "")),
            }
            for n in ranked[:10]
        ]
        return {
            "kind": "campaign",
            "jobs": len(jobs),
            "bounding_cost_total": sum(n.cost for n in jobs),
            "slowest_jobs": slowest,
            "critical_job": slowest[0]["label"] if slowest else None,
            "critical_lane": ranked[0].lane if ranked else None,
        }

    # WTM traces must be recognised before the stage scan: each partition
    # solve nests its own stage_run spans, and folding those per lane
    # would attribute the run to the partitions' *internal* pipelines
    # instead of the outer Gauss-Jacobi/Seidel sweeps. Here every outer
    # iteration is bounded by its costliest partition solve (exactly the
    # virtual-clock rule the coordinator books for a jacobi stage; for
    # seidel it names the dominant partition of each serial sweep).
    outer_iters = [n for n in tree.walk() if n.name == WTM_OUTER_ITER]
    partition_nodes = [
        c for n in outer_iters for c in n.children if c.name == WTM_PARTITION
    ]
    if partition_nodes:
        lanes: dict[int, dict] = {}
        total = 0.0
        for sweep in outer_iters:
            parts = [c for c in sweep.children if c.name == WTM_PARTITION]
            if not parts:
                continue
            # ties break toward the lowest partition index for stability
            bounding = max(
                parts,
                key=lambda n: (n.cost, -int(n.attrs.get("partition", 0))),
            )
            index = int(bounding.attrs.get("partition", 0))
            entry = lanes.setdefault(
                index,
                {"lane": index, "stages_bounded": 0, "bounding_cost": 0.0},
            )
            entry["stages_bounded"] += 1
            entry["bounding_cost"] += bounding.cost
            total += bounding.cost
        ranked = sorted(
            lanes.values(), key=lambda e: (-e["bounding_cost"], e["lane"])
        )
        for entry in ranked:
            entry["share"] = _round(
                entry["bounding_cost"] / total if total > 0 else 0.0
            )
        return {
            "kind": "wtm",
            "stages": len(outer_iters),
            "partitions": len(lanes),
            "bounding_cost_total": total,
            "lanes": ranked,
            "critical_lane": ranked[0]["lane"] if ranked else None,
        }

    stage_nodes = [n for n in tree.walk() if n.name == STAGE_RUN]
    if stage_nodes:
        lanes: dict[int, dict] = {}
        total = 0.0
        for stage in stage_nodes:
            tasks = [c for c in stage.children if c.name in CANDIDATE_SPANS]
            if not tasks:
                continue
            # ties break toward the lowest lane so attribution is stable
            bounding = max(tasks, key=lambda n: (n.cost, -n.lane))
            entry = lanes.setdefault(
                bounding.lane,
                {"lane": bounding.lane, "stages_bounded": 0, "bounding_cost": 0.0},
            )
            entry["stages_bounded"] += 1
            entry["bounding_cost"] += bounding.cost
            total += bounding.cost
        ranked = sorted(
            lanes.values(), key=lambda e: (-e["bounding_cost"], e["lane"])
        )
        for entry in ranked:
            entry["share"] = _round(
                entry["bounding_cost"] / total if total > 0 else 0.0
            )
        return {
            "kind": "pipeline",
            "stages": len(stage_nodes),
            "bounding_cost_total": total,
            "lanes": ranked,
            "critical_lane": ranked[0]["lane"] if ranked else None,
        }

    steps = [n for n in tree.walk() if n.name == TIMESTEP]
    total = sum(n.cost for n in steps)
    return {
        "kind": "sequential",
        "stages": len(steps),
        "bounding_cost_total": total,
        "lanes": [
            {
                "lane": 0,
                "stages_bounded": len(steps),
                "bounding_cost": total,
                "share": 1.0 if steps else 0.0,
            }
        ],
        "critical_lane": 0,
    }


def _rejections(tree, events, counters) -> dict:
    """Classify every rejected candidate step by cause."""
    candidates = outcome_counts(tree, names=CANDIDATE_SPANS)
    lte_events = sum(1 for ev in events if ev.name == LTE_REJECT)
    spans_lte = candidates.get(OUTCOME_LTE_REJECT, 0)
    spans_newton = candidates.get(OUTCOME_NEWTON_FAIL, 0)
    controller_newton = int(counters.get(_REJECT_PREFIX + "newton_fail", 0))
    stall = int(counters.get(_REJECT_PREFIX + "stall_guard", 0))

    # LTE rejections: every one emits an ``lte_reject`` event (corrective
    # re-solves have no task span, so the event count is the superset);
    # the ``lte.rejects`` counter backs it up if the ring buffer evicted
    # events. Newton failures: span tags cover guard-salvaged producer
    # failures the controller never saw; the controller counter covers
    # sequential retries when spans were evicted.
    lte = max(lte_events, spans_lte, int(counters.get("lte.rejects", 0)))
    newton = max(spans_newton, controller_newton)
    causes = {
        OUTCOME_LTE_REJECT: lte,
        OUTCOME_NEWTON_FAIL: newton,
        "stall_guard": stall,
    }
    total = sum(causes.values())

    # A candidate span whose outcome tag is outside the engine vocabulary
    # cannot be attributed to a cause; untagged candidates are unused
    # guard points (insurance that was never needed), not rejections.
    unknown = sum(
        count
        for outcome, count in candidates.items()
        if outcome not in KNOWN_OUTCOMES and outcome != "untagged"
    )
    classified = total
    total_with_unknown = total + unknown

    timeline = []
    for ev in events:
        if ev.name == STEP_ACCEPT:
            timeline.append(
                {
                    "t": ev.t_sim,
                    "h": ev.attrs.get("h"),
                    "event": "accept",
                }
            )
        elif ev.name == LTE_REJECT:
            timeline.append(
                {
                    "t": ev.t_sim,
                    "h": ev.attrs.get("h"),
                    "h_optimal": ev.attrs.get("h_optimal"),
                    "event": "reject",
                }
            )
    truncated = max(0, len(timeline) - TIMELINE_CAP)
    if truncated:
        timeline = timeline[:TIMELINE_CAP]

    return {
        "total": total_with_unknown,
        "causes": causes,
        "classified": classified,
        "classified_fraction": _round(
            classified / total_with_unknown if total_with_unknown else 1.0
        ),
        "candidate_outcomes": candidates,
        "step_timeline": timeline,
        "timeline_truncated": truncated,
    }


def _speculation(events, counters) -> dict:
    """Speculation economics plus the depth-vs-hit-rate curve."""
    useful = float(counters.get("speculate.useful_work", 0.0))
    wasted = float(counters.get("speculate.wasted_work", 0.0))
    risked = useful + wasted
    depth_stats: dict[int, dict] = {}
    resolved = successes = hits = 0
    for ev in events:
        if ev.name != SPECULATE:
            continue
        resolved += 1
        depth = int(ev.attrs.get("depth", 1))
        entry = depth_stats.setdefault(
            depth, {"depth": depth, "resolved": 0, "successes": 0, "hits": 0}
        )
        entry["resolved"] += 1
        if ev.attrs.get("success"):
            entry["successes"] += 1
            successes += 1
        if ev.attrs.get("hit"):
            entry["hits"] += 1
            hits += 1
    curve = []
    for depth in sorted(depth_stats):
        entry = depth_stats[depth]
        entry["hit_rate"] = _round(entry["hits"] / entry["resolved"])
        curve.append(entry)
    return {
        "useful_work": useful,
        "wasted_work": wasted,
        "work_risked": risked,
        "efficiency": _round(useful / risked if risked > 0 else 1.0),
        "resolved": resolved,
        "successes": successes,
        "hits": hits,
        "attempts": int(
            counters.get("speculate.successes", 0)
            + counters.get("speculate.misses", 0)
        ),
        "depth_curve": curve,
    }


def _phases(tree, counters) -> dict:
    """Solver-phase virtual-cost split with per-device-class attribution."""
    split: dict[str, dict] = {
        name: {"count": 0, "cost": 0.0} for name in PHASE_SPANS
    }
    by_class: dict[str, float] = {}
    for node in tree.walk():
        if node.name not in split:
            continue
        entry = split[node.name]
        entry["count"] += 1
        entry["cost"] += node.cost
        if node.name == PHASE_DEVICE_EVAL:
            for cls, units in (node.attrs.get("classes") or {}).items():
                by_class[cls] = by_class.get(cls, 0.0) + float(units)
    total = sum(entry["cost"] for entry in split.values())
    for entry in split.values():
        entry["share"] = _round(entry["cost"] / total if total > 0 else 0.0)
    split[PHASE_DEVICE_EVAL]["by_class"] = dict(sorted(by_class.items()))
    return {
        **split,
        "total_cost": total,
        "lu": {
            "factorisations": int(counters.get("lu.factor", 0)),
            "solves": int(counters.get("lu.solve", 0)),
            "reuse_hits": int(counters.get("lu.reuse_hit", 0)),
        },
    }


#: Counters surfaced verbatim in the report (a diagnosis-relevant subset;
#: the full set stays in the trace footer).
_REPORT_COUNTERS = (
    "points.accepted",
    "lte.rejects",
    "newton.solves",
    "newton.iterations",
    "newton.failures",
    "pipeline.stages",
    "controller.accepts",
    "jobs.completed",
    "jobs.failed",
    "jobs.cache_hits",
    "wtm.outer_iterations",
    "wtm.partition_solves",
    "wtm.converged",
    "wtm.not_converged",
)


def explain_trace(
    events: list[TraceEvent], summary: dict | None = None, source: str = "trace"
) -> ExplainReport:
    """Diagnose a run from its flat event list plus summary snapshot."""
    summary = summary or {}
    counters = dict(summary.get("counters") or {})
    tree = build_span_tree(events)
    span_total = len(tree.nodes)
    spans = {
        "count": span_total,
        "malformed": tree.malformed,
        "problems": list(tree.problems),
        "roots": len(tree.roots),
    }
    report = ExplainReport(
        source=source,
        spans=spans,
        critical_path=_critical_path(tree, events),
        rejections=_rejections(tree, events, counters),
        speculation=_speculation(events, counters),
        phases=_phases(tree, counters),
        counters={
            name: counters[name] for name in _REPORT_COUNTERS if name in counters
        },
    )
    reject_prefixed = {
        name: int(val)
        for name, val in sorted(counters.items())
        if name.startswith(_REJECT_PREFIX)
    }
    if reject_prefixed:
        report.counters.update(reject_prefixed)
    return report


def explain_recorder(recorder, source: str = "run") -> ExplainReport:
    """Diagnose a live :class:`~repro.instrument.Recorder`."""
    return explain_trace(list(recorder.events), recorder.snapshot(), source=source)


def explain_jsonl(path) -> ExplainReport:
    """Diagnose a ``--trace`` JSONL file."""
    from repro.instrument.exporters import read_jsonl

    events, summary = read_jsonl(path)
    return explain_trace(events, summary, source=str(path))


def _fmt_units(value: float) -> str:
    return f"{value:,.0f}" if value == int(value) else f"{value:,.1f}"


def render_text(report: ExplainReport) -> str:
    """Human-readable rendering of an :class:`ExplainReport`."""
    lines: list[str] = []
    spans = report.spans
    lines.append(f"trace: {report.source}")
    lines.append(
        f"spans: {spans.get('count', 0)} "
        f"({spans.get('roots', 0)} roots, {spans.get('malformed', 0)} malformed)"
    )
    for problem in spans.get("problems", [])[:5]:
        lines.append(f"  ! {problem}")

    cp = report.critical_path
    lines.append("")
    kind = cp.get("kind")
    if kind == "service":
        lines.append("critical path (wall clock)")
        lines.append(
            f"  {cp.get('requests', 0)} request(s), {cp.get('jobs', 0)} "
            f"job(s), {cp.get('bounding_cost_total', 0.0):.3f} s end-to-end"
        )
        tiers = cp.get("tiers", {})
        for name in SERVICE_TIERS:
            entry = tiers.get(name, {})
            if entry.get("count"):
                lines.append(
                    f"  {name}: {entry['cost']:.3f} s "
                    f"({entry['share']:.0%}, {entry['count']} span(s))"
                )
        if cp.get("critical_tier"):
            lines.append(f"  dominated by tier {cp['critical_tier']!r}")
        for job in cp.get("slowest_jobs", [])[:5]:
            where = f" on {job['node']}" if job.get("node") else ""
            cached = " [dedup-served]" if job.get("cached") else ""
            lines.append(
                f"  job {job['label'] or '<unnamed>'}: {job['cost']:.3f} s "
                f"({job['status']}, tenant {job['tenant']}){where}{cached}"
            )
        if cp.get("critical_job"):
            lines.append(f"  bounded by job {cp['critical_job']!r}")
        for tenant, entry in cp.get("tenants", {}).items():
            lines.append(
                f"  tenant {tenant}: {entry['requests']} request(s), "
                f"{entry['jobs']} job(s), {entry['cost']:.3f} s"
            )
        if cp.get("dedup_served"):
            lines.append(
                f"  dedup served {cp['dedup_served']} duplicate "
                f"submission(s) at zero cost"
            )
    elif kind == "campaign":
        lines.append("critical path (virtual clock)")
        lines.append(
            f"  campaign of {cp.get('jobs', 0)} jobs, "
            f"{_fmt_units(cp.get('bounding_cost_total', 0.0))} work units total"
        )
        for job in cp.get("slowest_jobs", [])[:5]:
            lines.append(
                f"  job {job['label'] or '<unnamed>'}: "
                f"{_fmt_units(job['cost'])} wu ({job['status']})"
            )
        if cp.get("critical_job"):
            lines.append(f"  bounded by job {cp['critical_job']!r}")
    elif kind == "wtm":
        lines.append("critical path (virtual clock)")
        lines.append(
            f"  {cp.get('stages', 0)} WTM outer sweeps over "
            f"{cp.get('partitions', 0)} partition(s), bounding cost "
            f"{_fmt_units(cp.get('bounding_cost_total', 0.0))} wu"
        )
        for entry in cp.get("lanes", [])[:6]:
            lines.append(
                f"  partition {entry['lane']}: bounded "
                f"{entry['stages_bounded']} sweep(s), "
                f"{_fmt_units(entry['bounding_cost'])} wu "
                f"({entry['share']:.0%} of the critical path)"
            )
        if cp.get("critical_lane") is not None:
            lines.append(f"  bounded by partition {cp['critical_lane']}")
    else:
        label = "pipeline stages" if kind == "pipeline" else "sequential steps"
        lines.append("critical path (virtual clock)")
        lines.append(
            f"  {cp.get('stages', 0)} {label}, bounding cost "
            f"{_fmt_units(cp.get('bounding_cost_total', 0.0))} wu"
        )
        for entry in cp.get("lanes", [])[:6]:
            lines.append(
                f"  lane {entry['lane']}: bounded {entry['stages_bounded']} "
                f"stage(s), {_fmt_units(entry['bounding_cost'])} wu "
                f"({entry['share']:.0%} of the critical path)"
            )
        if cp.get("critical_lane") is not None:
            lines.append(f"  bounded by lane {cp['critical_lane']}")

    rej = report.rejections
    lines.append("")
    lines.append(
        f"rejections: {rej.get('total', 0)} "
        f"({rej.get('classified_fraction', 1.0):.0%} classified)"
    )
    cause_names = {
        OUTCOME_LTE_REJECT: "LTE (truncation error)",
        OUTCOME_NEWTON_FAIL: "Newton non-convergence",
        "stall_guard": "bypass stall fallback",
    }
    for cause, count in sorted(rej.get("causes", {}).items()):
        if count:
            lines.append(f"  {cause_names.get(cause, cause)}: {count}")
    accepted = rej.get("candidate_outcomes", {}).get(OUTCOME_ACCEPTED, 0)
    if accepted:
        lines.append(f"  accepted candidates: {accepted}")

    spec = report.speculation
    lines.append("")
    if spec.get("resolved", 0) or spec.get("work_risked", 0.0) > 0:
        lines.append(
            f"speculation: {spec['resolved']} resolved, "
            f"{spec['hits']} hits, "
            f"{_fmt_units(spec['work_risked'])} wu risked "
            f"({spec['efficiency']:.0%} efficient)"
        )
        for entry in spec.get("depth_curve", []):
            lines.append(
                f"  depth {entry['depth']}: {entry['hits']}/{entry['resolved']} "
                f"hits ({entry['hit_rate']:.0%})"
            )
    else:
        lines.append("speculation: none (sequential run or no speculative points)")

    ph = report.phases
    lines.append("")
    lines.append(
        f"solver phases: {_fmt_units(ph.get('total_cost', 0.0))} wu attributed"
    )
    for name in PHASE_SPANS:
        entry = ph.get(name, {})
        if entry.get("count"):
            lines.append(
                f"  {name}: {_fmt_units(entry['cost'])} wu "
                f"({entry['share']:.0%}, {entry['count']} span(s))"
            )
        if name == PHASE_DEVICE_EVAL:
            for cls, units in (entry.get("by_class") or {}).items():
                lines.append(f"    class {cls}: {_fmt_units(units)} wu")
    lu = ph.get("lu", {})
    if any(lu.values()):
        lines.append(
            f"  LU: {lu['factorisations']} factor, {lu['solves']} solves, "
            f"{lu['reuse_hits']} reuse hits"
        )
    return "\n".join(lines) + "\n"
