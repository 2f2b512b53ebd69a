"""Which callables the traced pass wraps, and the per-layer metrics.

A layer is a ``repro`` module name. ``_s`` metrics are *self* seconds
of that layer's spans in one traced pass (duration minus the part
child spans cover) unless marked inclusive below; ``_calls`` are span
counts; ratios and sizes come from the run's own statistics.
:data:`PER_LAYER` is the single list of names, units and directions —
``BENCHMARK.json`` mirrors it (``test_wallbench`` checks that).
"""

from __future__ import annotations

from wallbench.trace import Target, Tracer

TARGETS = (
    Target("mna.compile", "repro.mna.compiler:compile_circuit"),
    Target("mna.eval", "repro.mna.system:MnaSystem.eval"),
    Target("mna.jacobian", "repro.mna.system:MnaSystem.jacobian"),
    Target("mna.residual", "repro.mna.system:MnaSystem.resistive_residual"),
    Target("mna.limit", "repro.mna.system:MnaSystem.limit"),
    Target("mna.ensemble_jacobian", "repro.mna.ensemble:EnsembleSystem.jacobian"),
    Target("devices.eval", "repro.devices.base:DeviceBank.eval", subclasses=True),
    Target("linalg.factor", "repro.linalg.solve:LinearSolver.factor"),
    Target("linalg.backsolve", "repro.linalg.solve:LinearSolver.resolve"),
    Target("linalg.backsolve", "repro.linalg.solve:LinearSolver.solve_reused"),
    Target("linalg.block_factor", "repro.linalg.solve:BlockSolver.factor_all"),
    Target("solver.newton", "repro.solver.newton:newton_solve"),
    Target("solver.newton", "repro.solver.ensemble:ensemble_newton_solve"),
    Target(
        "solver.dcop",
        "repro.solver.dcop:solve_operating_point",
        value=lambda op: op.iterations,
    ),
    Target("integration.lte", "repro.integration.lte:lte_verdict"),
    Target("integration.lte", "repro.integration.lte:ensemble_lte_verdict"),
    Target("integration.predict", "repro.integration.history:TimepointHistory.predict"),
    Target("integration.controller", "repro.integration.controller:StepController.propose"),
    Target("integration.controller", "repro.integration.controller:StepController.on_accept"),
    Target("integration.controller", "repro.integration.controller:StepController.on_reject"),
    Target("integration.scheme", "repro.integration.methods:scheme_coefficients"),
    Target("engine.run", "repro.engine.transient:run_transient"),
    Target("engine.run", "repro.engine.ensemble:run_ensemble_transient"),
    Target("waveform.build", "repro.engine.transient:_build_waveforms"),
    Target("core.pipeline", "repro.core.pipeline:PipelineEngine.run"),
    Target("partition.partition", "repro.partition.partitioner:partition_circuit"),
    Target("partition.coordinator", "repro.partition.coordinator:run_wtm"),
    Target("partition.boundary", "repro.partition.boundary:build_partition_circuit"),
    Target("partition.boundary", "repro.partition.boundary:BoundaryWaveform.as_source"),
    Target("partition.boundary", "repro.partition.boundary:BoundaryWaveform.at"),
    Target("partition.boundary", "repro.partition.boundary:BoundarySource.breakpoints"),
)

#: Wrapped while an in-process FarmNode settles jobs (service_mixed).
SERVICE_TARGETS = (
    Target("service.node_step", "repro.service.node:FarmNode.step"),
    Target("service.queue_claim", "repro.service.queue:JobQueue.claim"),
    Target("service.queue_complete", "repro.service.queue:JobQueue.complete"),
    Target("jobs.execute_job", "repro.jobs.workers:execute_job"),
)

#: (name, unit, better). The order is the order of the printed table.
PER_LAYER = (
    ("netlist.parse_s", "s", "lower"),
    ("netlist.cards", "count", "lower"),
    ("mna.compile_s", "s", "lower"),
    ("mna.unknowns", "count", "lower"),
    ("mna.nnz", "count", "lower"),
    ("devices.eval_s", "s", "lower"),
    ("devices.eval_calls", "count", "lower"),
    ("mna.eval_self_s", "s", "lower"),
    ("mna.jacobian_s", "s", "lower"),
    ("mna.jacobian_calls", "count", "lower"),
    ("mna.residual_s", "s", "lower"),
    ("mna.limit_s", "s", "lower"),
    ("mna.ensemble_jacobian_s", "s", "lower"),
    ("linalg.factor_s", "s", "lower"),
    ("linalg.factor_calls", "count", "lower"),
    ("linalg.refactor_calls", "count", "lower"),
    ("linalg.backsolve_s", "s", "lower"),
    ("linalg.backsolve_calls", "count", "lower"),
    ("linalg.reuse_hit_ratio", "ratio", "higher"),
    ("linalg.block_factor_s", "s", "lower"),
    ("solver.newton_self_s", "s", "lower"),
    ("solver.newton_solves", "count", "lower"),
    ("solver.newton_iters", "count", "lower"),
    ("solver.newton_fail_ratio", "ratio", "lower"),
    ("solver.dcop_s", "s", "lower"),
    ("solver.dcop_iters", "count", "lower"),
    ("integration.lte_s", "s", "lower"),
    ("integration.predict_s", "s", "lower"),
    ("integration.controller_s", "s", "lower"),
    ("integration.scheme_s", "s", "lower"),
    ("integration.reject_ratio", "ratio", "lower"),
    ("engine.loop_self_s", "s", "lower"),
    ("engine.accepted_points", "count", "lower"),
    ("engine.us_per_newton_iter", "us", "lower"),
    ("waveform.build_s", "s", "lower"),
    ("waveform.export_s", "s", "lower"),
    ("waveform.export_bytes", "bytes", "lower"),
    ("core.pipeline_self_s", "s", "lower"),
    ("core.stages", "count", "lower"),
    ("core.mean_stage_width", "count", "higher"),
    ("core.wasted_solve_ratio", "ratio", "lower"),
    ("core.speculation_hit_ratio", "ratio", "higher"),
    ("parallel.stage_s", "s", "lower"),
    ("parallel.stage_wait_s", "s", "lower"),
    ("parallel.stage_calls", "count", "lower"),
    ("ensemble.run_s", "s", "lower"),
    ("ensemble.k1_wall_s", "s", "lower"),
    ("ensemble.k1_over_seq", "ratio", "lower"),
    ("ensemble.us_per_sim_iter", "us", "lower"),
    ("partition.partition_s", "s", "lower"),
    ("partition.coordinator_self_s", "s", "lower"),
    ("partition.boundary_s", "s", "lower"),
    ("partition.inner_solve_s", "s", "lower"),
    ("partition.outer_iters", "count", "lower"),
    ("service.queue_submit_ms", "ms", "lower"),
    ("service.queue_claim_ms", "ms", "lower"),
    ("service.queue_complete_ms", "ms", "lower"),
    ("service.queue_status_ms", "ms", "lower"),
    ("service.queue_ms_per_entry", "ms", "lower"),
    ("service.queue_manifest_bytes", "bytes", "lower"),
    ("service.http_overhead_ms", "ms", "lower"),
    ("service.node_overhead_ms", "ms", "lower"),
    ("service.dedup_ratio", "ratio", "higher"),
    ("service.error_ratio", "ratio", "lower"),
    # the service's own end-to-end rows (driver.SERVICE_METRICS), printed
    # with the traced run because only one workload has them
    ("ops_per_s", "1/s", "higher"),
    ("jobs_per_s", "1/s", "higher"),
    ("submit_p50_ms", "ms", "lower"),
    ("submit_p95_ms", "ms", "lower"),
    ("read_p50_ms", "ms", "lower"),
    ("read_p95_ms", "ms", "lower"),
    ("jobs.execute_job_ms", "ms", "lower"),
    ("jobs.spec_hash_us", "us", "lower"),
    ("jobs.cache_put_ms", "ms", "lower"),
    ("jobs.cache_get_ms", "ms", "lower"),
    ("jobs.result_bytes", "bytes", "lower"),
    ("instrument.recorder_overhead_ratio", "ratio", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
    ("trace.pass_wall_s", "s", "lower"),
    ("trace.attributed_ratio", "ratio", "higher"),
    ("verify.max_rel_err", "ratio", "lower"),
)

#: metric -> (span, field) for the metrics read straight off the span
#: summary. ``total_s`` marks the inclusive ones: the operating point,
#: an ensemble run and a WTM inner solve are phases, not layers.
_SPAN_METRICS = {
    "netlist.parse_s": ("netlist.parse", "self_s"),
    "mna.compile_s": ("mna.compile", "self_s"),
    "devices.eval_s": ("devices.eval", "self_s"),
    "devices.eval_calls": ("devices.eval", "calls"),
    "mna.eval_self_s": ("mna.eval", "self_s"),
    "mna.jacobian_s": ("mna.jacobian", "self_s"),
    "mna.jacobian_calls": ("mna.jacobian", "calls"),
    "mna.residual_s": ("mna.residual", "self_s"),
    "mna.limit_s": ("mna.limit", "self_s"),
    "mna.ensemble_jacobian_s": ("mna.ensemble_jacobian", "self_s"),
    "linalg.factor_s": ("linalg.factor", "self_s"),
    "linalg.backsolve_s": ("linalg.backsolve", "self_s"),
    "linalg.backsolve_calls": ("linalg.backsolve", "calls"),
    "linalg.block_factor_s": ("linalg.block_factor", "self_s"),
    "solver.newton_self_s": ("solver.newton", "self_s"),
    "solver.newton_solves": ("solver.newton", "calls"),
    "solver.dcop_s": ("solver.dcop", "total_s"),
    "solver.dcop_iters": ("solver.dcop", "value"),
    "integration.lte_s": ("integration.lte", "self_s"),
    "integration.predict_s": ("integration.predict", "self_s"),
    "integration.controller_s": ("integration.controller", "self_s"),
    "integration.scheme_s": ("integration.scheme", "self_s"),
    "waveform.build_s": ("waveform.build", "self_s"),
    "waveform.export_s": ("waveform.export", "self_s"),
    "core.pipeline_self_s": ("core.pipeline", "self_s"),
    "parallel.stage_s": ("parallel.stage", "self_s"),
    "parallel.stage_calls": ("parallel.stage", "calls"),
    "partition.partition_s": ("partition.partition", "self_s"),
    "partition.coordinator_self_s": ("partition.coordinator", "self_s"),
    "partition.boundary_s": ("partition.boundary", "self_s"),
}


def _stage_wait(tracer: Tracer) -> float:
    """Seconds tasks waited for a worker: task start minus stage start."""
    stage_start = {
        sid: start for sid, _p, name, start, _e, _v in tracer.records
        if name == "parallel.stage"
    }
    return sum(
        start - stage_start[parent]
        for _sid, parent, name, start, _e, _v in tracer.records
        if name == "parallel.task" and parent in stage_start
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute_layer_metrics(tracer: Tracer, runs, pass_wall: float) -> dict:
    """Per-layer metrics of one traced compute pass.

    *runs* are the pass's :class:`~wallbench.compute.DeckRun` objects
    (statistics, sizes). A metric whose span target is gone is ``None``;
    a layer the workload never enters is 0.
    """
    summary = tracer.summary()
    lost = tracer.unresolved

    def span(name: str, key: str):
        if name in lost:
            return None
        return summary.get(name, {}).get(key, 0.0)

    out = {metric: span(*source) for metric, source in _SPAN_METRICS.items()}

    def stat(name: str) -> float:
        return float(sum(getattr(run.stats, name, 0) or 0 for run in runs))

    iters = stat("newton_iterations")
    solves = stat("lu_solves")
    accepted = stat("accepted_points")
    rejected = stat("rejected_points")
    newton_solves = out["solver.newton_solves"] or 0
    out["netlist.cards"] = sum(run.deck.cards for run in runs)
    sizes = [run.sizes() for run in runs]
    out["mna.unknowns"] = sum(n for n, _ in sizes)
    out["mna.nnz"] = sum(nnz for _, nnz in sizes)
    out["linalg.factor_calls"] = stat("lu_factors")
    out["linalg.refactor_calls"] = stat("lu_refactors")
    out["linalg.reuse_hit_ratio"] = _ratio(stat("lu_reuse_hits"), solves)
    out["solver.newton_iters"] = iters
    out["solver.newton_fail_ratio"] = _ratio(stat("newton_failures"), newton_solves)
    out["integration.reject_ratio"] = _ratio(rejected, accepted + rejected)
    out["engine.accepted_points"] = accepted
    out["waveform.export_bytes"] = sum(len(text) for run in runs for text in run.csvs)

    # The transient loops' own time, plus the stage tasks that run the
    # same solve_timepoint code on pool threads: the interpreter row.
    loop = [span("engine.run", "self_s"), span("parallel.task", "self_s")]
    out["engine.loop_self_s"] = None if None in loop else sum(loop)

    clocks = [run.stats.clock for run in runs if hasattr(run.stats, "wasted_solves")]
    out["core.stages"] = sum(c.stages for c in clocks)
    out["core.mean_stage_width"] = _ratio(
        sum(sum(c._stage_widths) for c in clocks),
        sum(len(c._stage_widths) for c in clocks),
    )
    out["core.wasted_solve_ratio"] = _ratio(stat("wasted_solves"), newton_solves)
    out["core.speculation_hit_ratio"] = _ratio(
        stat("speculative_hits"), stat("speculative_solves")
    )
    out["parallel.stage_wait_s"] = _stage_wait(tracer)

    ensemble = [run for run in runs if len(run.waveforms) > 1]
    out["ensemble.run_s"] = (
        span("engine.run", "total_s") if ensemble else 0.0
    )
    out["ensemble.us_per_sim_iter"] = _ratio(
        1e6 * sum(run.sim_s for run in ensemble),
        sum(run.stats.newton_iterations * len(run.waveforms) for run in ensemble),
    )

    wtm = "partition.coordinator" in summary
    out["partition.inner_solve_s"] = span("engine.run", "total_s") if wtm else 0.0
    out["partition.outer_iters"] = stat("outer_iterations")

    root_self = summary.get("wallbench.pass", {}).get("self_s", 0.0)
    # the denominator of every layer share: self seconds of a traced pass
    # add up to this, not to the (untraced, best-of-N) wall_s
    out["trace.pass_wall_s"] = pass_wall
    out["trace.attributed_ratio"] = 1.0 - _ratio(root_self, pass_wall)
    return out
