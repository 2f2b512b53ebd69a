"""Experiment registry: one entry per reconstructed table / figure.

Each experiment function runs its workloads, returns an
:class:`ExperimentResult` carrying both the rendered text (what the bench
harness prints) and the raw data (what EXPERIMENTS.md records). The
mapping to the paper's evaluation is documented in DESIGN.md's
"Reconstructed evaluation index".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.finegrained import fine_grained_curve
from repro.baselines.relaxation import WaveformRelaxation
from repro.bench.tables import render_series, render_table
from repro.circuits.registry import BENCHMARKS, Benchmark, get_benchmark
from repro.core.wavepipe import compare_with_sequential, run_wavepipe
from repro.engine.transient import run_transient
from repro.mna.compiler import compile_circuit
from repro.mna.system import MnaSystem
from repro.waveform.waveform import compare, worst_deviation

#: Default circuit subset for the speedup tables (full registry).
SPEEDUP_CIRCUITS = [
    "ring5",
    "ring9",
    "invchain8",
    "nandchain6",
    "powergrid6x6",
    "rlcline8",
    "mixer",
    "lcosc",
    "rectifier",
]


@dataclass
class ExperimentResult:
    """Rendered text + raw data of one experiment."""

    exp_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def _speedup_row(bench: Benchmark, scheme: str, threads: list[int]) -> tuple[list, dict]:
    compiled = compile_circuit(bench.build(), bench.options)
    seq = run_transient(compiled, bench.tstop, tstep=bench.tstep, options=bench.options)
    row: list[object] = [bench.name, seq.stats.accepted_points]
    cells = {}
    for t in threads:
        report = compare_with_sequential(
            compiled, bench.tstop, scheme=scheme, threads=t,
            tstep=bench.tstep, options=bench.options,
        )
        row.append(report.speedup)
        cells[t] = report.speedup
    return row, cells


def _speedup_table(exp_id: str, title: str, scheme: str, threads: list[int], names) -> ExperimentResult:
    headers = ["circuit", "seq points"] + [f"{t} thr" for t in threads]
    rows = []
    data = {}
    for name in names:
        row, cells = _speedup_row(get_benchmark(name), scheme, threads)
        rows.append(row)
        data[name] = cells
    geo = {
        t: float(np.exp(np.mean([np.log(max(data[n][t], 1e-9)) for n in names])))
        for t in threads
    }
    rows.append(["geomean", ""] + [geo[t] for t in threads])
    data["geomean"] = geo
    text = render_table(headers, rows, title=title)
    return ExperimentResult(exp_id, title, text, data)


# -- tables ----------------------------------------------------------------------


def table_r1(names=None) -> ExperimentResult:
    """Benchmark circuit statistics."""
    names = names or list(BENCHMARKS)
    headers = ["circuit", "kind", "unknowns", "devices", "tstop", "description"]
    rows = []
    data = {}
    for name in names:
        bench = get_benchmark(name)
        compiled = compile_circuit(bench.build(), bench.options)
        devices = sum(b.count for b in compiled.banks)
        rows.append(
            [name, bench.kind, compiled.n, devices, f"{bench.tstop:.3g}s", bench.description]
        )
        data[name] = {"unknowns": compiled.n, "devices": devices, "kind": bench.kind}
    return ExperimentResult(
        "table_r1", "Table R1: benchmark circuits", render_table(headers, rows, "Table R1"), data
    )


def table_r2(threads=(2, 3, 4), names=None) -> ExperimentResult:
    """Backward pipelining speedups."""
    return _speedup_table(
        "table_r2",
        "Table R2: backward pipelining speedup vs sequential",
        "backward",
        list(threads),
        names or SPEEDUP_CIRCUITS,
    )


def table_r3(threads=(2, 3), names=None) -> ExperimentResult:
    """Forward pipelining speedups."""
    return _speedup_table(
        "table_r3",
        "Table R3: forward pipelining speedup vs sequential",
        "forward",
        list(threads),
        names or SPEEDUP_CIRCUITS,
    )


def table_r4(threads=(3, 4), names=None, exp_id="table_r4") -> ExperimentResult:
    """Combined scheme speedups."""
    return _speedup_table(
        exp_id,
        "Table R4: combined backward+forward speedup vs sequential",
        "combined",
        list(threads),
        names or SPEEDUP_CIRCUITS,
    )


def table_r4_smoke() -> ExperimentResult:
    """Two-circuit combined-scheme subset for CI smoke runs.

    Its count pin holds the speculation channels (``speculate.successes``,
    ``pipeline.stages``) exactly: a pipelined run that stops speculating
    or stops forming stages moves those counters and fails the smoke.
    """
    return table_r4(threads=(3,), names=["ring5", "rectifier"],
                    exp_id="table_r4_smoke")


def table_r5(names=None, scheme="combined", threads=4) -> ExperimentResult:
    """Accuracy: WavePipe vs sequential waveforms (paper: no accuracy loss)."""
    names = names or ["ring5", "invchain8", "powergrid6x6", "mixer", "rectifier"]
    headers = ["circuit", "signal", "max |dv| (V)", "rel. to swing", "rms (V)"]
    rows = []
    data = {}
    for name in names:
        bench = get_benchmark(name)
        compiled = compile_circuit(bench.build(), bench.options)
        report = compare_with_sequential(
            compiled, bench.tstop, scheme=scheme, threads=threads,
            tstep=bench.tstep, options=bench.options, signals=list(bench.signals),
        )
        for dev in report.deviations:
            rows.append([name, dev.name, dev.max_abs, dev.max_relative, dev.rms])
        worst = report.worst_deviation
        data[name] = {
            "worst_signal": worst.name if worst else None,
            "worst_rel": worst.max_relative if worst else 0.0,
        }
    title = f"Table R5: waveform deviation, {scheme} x{threads} vs sequential"
    return ExperimentResult("table_r5", title, render_table(headers, rows, title), data)


def table_r6(name="invchain8", threads=4) -> ExperimentResult:
    """Ablation: scheduler knobs of the backward scheme."""
    bench = get_benchmark(name)
    compiled = compile_circuit(bench.build(), bench.options)
    variants = {
        "default": {},
        "no guard": {"backward_guard_fraction": 0.0},
        "guard 0.25": {"backward_guard_fraction": 0.25},
        "ratio 1.5": {"step_ratio_max": 1.5},
        "ratio 3.0": {"step_ratio_max": 3.0},
        "margin 0.7": {"lte_cap_margin": 0.7},
        "predictor guess": {"newton_guess": "predictor"},
    }
    headers = ["variant", "speedup", "wasted solves", "accepted"]
    rows = []
    data = {}
    for label, changes in variants.items():
        options = bench.options.replace(**changes)
        report = compare_with_sequential(
            bench.build(), bench.tstop, scheme="backward", threads=threads,
            tstep=bench.tstep, options=options,
        )
        stats = report.pipelined.stats
        rows.append([label, report.speedup, stats.wasted_solves, stats.accepted_points])
        data[label] = {"speedup": report.speedup, "wasted": stats.wasted_solves}
    title = f"Table R6: backward-scheme ablation on {name} ({threads} threads)"
    return ExperimentResult("table_r6", title, render_table(headers, rows, title), data)


# -- figures ------------------------------------------------------------------------


def fig_r1(names=("invchain8", "powergrid6x6"), threads=(1, 2, 3, 4, 6)) -> ExperimentResult:
    """Speedup vs thread count per scheme."""
    threads = list(threads)
    series = {}
    data = {}
    for name in names:
        bench = get_benchmark(name)
        compiled = compile_circuit(bench.build(), bench.options)
        for scheme in ("backward", "combined"):
            speedups = []
            for t in threads:
                report = compare_with_sequential(
                    compiled, bench.tstop, scheme=scheme, threads=t,
                    tstep=bench.tstep, options=bench.options,
                )
                speedups.append(report.speedup)
            series[f"{name}/{scheme}"] = np.array(speedups)
            data[f"{name}/{scheme}"] = dict(zip(threads, speedups))
    text = render_series(
        np.array(threads, dtype=float), series,
        title="Fig R1: speedup vs threads",
    )
    table = render_table(
        ["series"] + [f"{t} thr" for t in threads],
        [[k] + [float(v) for v in vals] for k, vals in series.items()],
    )
    return ExperimentResult("fig_r1", "Fig R1: speedup vs threads", text + "\n\n" + table, data)


def fig_r2(name="powergrid6x6", threads=4) -> ExperimentResult:
    """Accepted step size vs time: sequential vs backward pipelining."""
    bench = get_benchmark(name)
    compiled = compile_circuit(bench.build(), bench.options)
    seq = run_transient(compiled, bench.tstop, tstep=bench.tstep, options=bench.options)
    pipe = run_wavepipe(
        compiled, bench.tstop, scheme="backward", threads=threads,
        tstep=bench.tstep, options=bench.options,
    )
    data = {
        "sequential": {"t": seq.times[1:].tolist(), "h": seq.step_sizes.tolist()},
        "backward": {"t": pipe.times[1:].tolist(), "h": pipe.step_sizes.tolist()},
        "seq_points": seq.stats.accepted_points,
        "pipe_points": pipe.stats.accepted_points,
        "pipe_stages": pipe.stats.clock.stages,
    }
    # Resample the step profile on a common grid for the ASCII plot.
    grid = np.linspace(0, bench.tstop, 120)
    seq_h = np.interp(grid, seq.times[1:], seq.step_sizes)
    pipe_h = np.interp(grid, pipe.times[1:], pipe.step_sizes)
    text = render_series(
        grid,
        {"seq log10(h)": np.log10(seq_h), "wavepipe log10(h)": np.log10(pipe_h)},
        title=f"Fig R2: step size vs time on {name} (backward x{threads})",
    )
    summary = (
        f"sequential: {seq.stats.accepted_points} points; backward x{threads}: "
        f"{pipe.stats.accepted_points} points in {pipe.stats.clock.stages} stages "
        f"(mean stage width {pipe.stats.clock.mean_width:.2f})"
    )
    return ExperimentResult("fig_r2", "Fig R2: step sizes", text + "\n" + summary, data)


def fig_r3(name="lcosc", scheme="combined", threads=4) -> ExperimentResult:
    """Waveform overlay: WavePipe vs sequential (visual accuracy claim)."""
    bench = get_benchmark(name)
    compiled = compile_circuit(bench.build(), bench.options)
    seq = run_transient(compiled, bench.tstop, tstep=bench.tstep, options=bench.options)
    pipe = run_wavepipe(
        compiled, bench.tstop, scheme=scheme, threads=threads,
        tstep=bench.tstep, options=bench.options,
    )
    signal = bench.signals[0]
    grid = np.linspace(0, bench.tstop, 160)
    seq_v = seq.waveforms[signal].at(grid)
    pipe_v = pipe.waveforms[signal].at(grid)
    deviations = compare(seq.waveforms, pipe.waveforms, names=list(bench.signals))
    worst = worst_deviation(deviations)
    text = render_series(
        grid,
        {f"seq {signal}": seq_v, f"{scheme} {signal}": pipe_v},
        title=f"Fig R3: {signal} on {name}, sequential vs {scheme} x{threads}",
    )
    text += f"\nworst deviation: {worst.max_abs:.3e} V ({worst.max_relative:.2e} of swing) on {worst.name}"
    data = {
        "signal": signal,
        "worst_rel": worst.max_relative,
        "worst_abs": worst.max_abs,
        "seq_frequency": seq.waveforms[signal].frequency(),
        "pipe_frequency": pipe.waveforms[signal].frequency(),
    }
    return ExperimentResult("fig_r3", "Fig R3: waveform overlay", text, data)


def fig_r4(threads=(2, 4, 8, 16)) -> ExperimentResult:
    """WavePipe vs baselines: fine-grained parallelism and WR."""
    threads = list(threads)
    # Fine-grained projection + WavePipe on the inverter chain.
    bench = get_benchmark("invchain8")
    compiled = compile_circuit(bench.build(), bench.options)
    seq = run_transient(compiled, bench.tstop, tstep=bench.tstep, options=bench.options)
    system = MnaSystem(compiled)
    fine = fine_grained_curve(system, seq, threads)
    wave = []
    for t in threads:
        report = compare_with_sequential(
            compiled, bench.tstop, scheme="combined", threads=t,
            tstep=bench.tstep, options=bench.options,
        )
        wave.append(report.speedup)
    rows = [
        ["fine-grained (model)"] + [e.speedup for e in fine],
        ["wavepipe combined"] + list(wave),
    ]
    table = render_table(
        ["method"] + [f"{t} thr" for t in threads],
        rows,
        title="Fig R4a: speedup vs threads, WavePipe vs fine-grained baseline (invchain8)",
    )

    # Waveform relaxation behaviour: friendly vs feedback circuit.
    wr_rows = []
    wr_data = {}
    from repro.circuits.digital import inverter_chain, ring_oscillator

    chain = inverter_chain(stages=4, period=10e-9)
    wr_chain = WaveformRelaxation(
        chain, tstop=12e-9,
        partition=[{"vdd", "n0", "n1", "n2"}, {"n3", "n4"}],
    ).run(max_sweeps=12, wr_vtol=2e-2)
    wr_rows.append(["invchain4 (cut at gate)", wr_chain.sweeps, wr_chain.converged,
                    f"{wr_chain.sweep_deltas[-1]:.2e}"])
    wr_data["invchain4"] = {"sweeps": wr_chain.sweeps, "converged": wr_chain.converged}

    ring = ring_oscillator(5)
    wr_ring = WaveformRelaxation(ring, tstop=10e-9, blocks=2).run(
        max_sweeps=12, wr_vtol=2e-2
    )
    wr_rows.append(["ring5 (feedback loop)", wr_ring.sweeps, wr_ring.converged,
                    f"{wr_ring.sweep_deltas[-1]:.2e}"])
    wr_data["ring5"] = {"sweeps": wr_ring.sweeps, "converged": wr_ring.converged}

    wr_table = render_table(
        ["circuit", "sweeps", "converged", "final delta (V)"],
        wr_rows,
        title="Fig R4b: waveform relaxation convergence (the method WavePipe avoids)",
    )
    data = {
        "fine_grained": {t: e.speedup for t, e in zip(threads, fine)},
        "wavepipe": dict(zip(threads, wave)),
        "wr": wr_data,
    }
    return ExperimentResult(
        "fig_r4", "Fig R4: baselines", table + "\n\n" + wr_table, data
    )


def table_r7(name="ring5", threads=3) -> ExperimentResult:
    """Extension: speedup vs integration tolerance.

    Looser tolerances mean bigger steps, worse predictor starts and more
    Newton iterations per solve — more work for pipelining to hide; tight
    tolerances approach the regime where solves are too cheap to
    parallelise coarsely. Not a paper table (the abstract is silent on
    tolerance), but it quantifies the sensitivity any adopter will hit.
    """
    bench = get_benchmark(name)
    headers = ["reltol", "seq points", "iters/solve", "backward", "forward", "combined"]
    rows = []
    data = {}
    for reltol in (1e-2, 3e-3, 1e-3, 3e-4):
        options = bench.options.replace(reltol=reltol)
        compiled = compile_circuit(bench.build(), options)
        seq = run_transient(compiled, bench.tstop, tstep=bench.tstep, options=options)
        solves = seq.stats.accepted_points + seq.stats.rejected_points
        iters_per = seq.stats.newton_iterations / max(solves, 1)
        row = [f"{reltol:g}", seq.stats.accepted_points, iters_per]
        cells = {"iters_per_solve": iters_per}
        for scheme in ("backward", "forward", "combined"):
            report = compare_with_sequential(
                compiled, bench.tstop, scheme=scheme, threads=threads,
                tstep=bench.tstep, options=options,
            )
            row.append(report.speedup)
            cells[scheme] = report.speedup
        rows.append(row)
        data[reltol] = cells
    title = f"Table R7 (extension): speedup vs reltol on {name} ({threads} threads)"
    return ExperimentResult("table_r7", title, render_table(headers, rows, title), data)


def fig_r5(name="invchain8", threads=3) -> ExperimentResult:
    """Extension: sensitivity to per-stage synchronisation overhead.

    The abstract argues coarse-grained parallelism needs "low parallel
    programming effort"; the quantitative counterpart is that WavePipe
    synchronises once per *time point*, not once per device evaluation,
    so its speedup should survive sync costs that would erase any
    fine-grained scheme's gains. The sweep charges each pipeline stage an
    extra cost expressed as a fraction of one Newton iteration and
    compares against the fine-grained baseline under the same overhead.
    """
    bench = get_benchmark(name)
    compiled = compile_circuit(bench.build(), bench.options)
    seq = run_transient(compiled, bench.tstop, tstep=bench.tstep, options=bench.options)
    system = MnaSystem(compiled)
    from repro.solver.newton import iteration_work

    iter_cost = iteration_work(system)
    fractions = (0.0, 0.1, 0.5, 1.0, 2.0)
    headers = ["sync cost (iterations)", "wavepipe combined", "fine-grained (model)"]
    rows = []
    data = {}
    from repro.baselines.finegrained import FORK_JOIN_OVERHEAD, fine_grained_estimate
    import repro.baselines.finegrained as fg

    for frac in fractions:
        options = bench.options.replace(sync_overhead=frac * iter_cost)
        report = compare_with_sequential(
            compiled, bench.tstop, scheme="combined", threads=threads,
            tstep=bench.tstep, options=options,
        )
        # fine-grained pays the same cost *every iteration*, not per stage
        original = fg.FORK_JOIN_OVERHEAD
        try:
            fg.FORK_JOIN_OVERHEAD = frac / max(threads - 1, 1)
            fine = fine_grained_estimate(system, seq, threads)
        finally:
            fg.FORK_JOIN_OVERHEAD = original
        rows.append([f"{frac:g}", report.speedup, fine.speedup])
        data[frac] = {"wavepipe": report.speedup, "fine_grained": fine.speedup}
    title = f"Fig R5 (extension): speedup vs sync overhead on {name} ({threads} threads)"
    return ExperimentResult("fig_r5", title, render_table(headers, rows, title), data)


def table_r8(threads=3) -> ExperimentResult:
    """Extension: speedup vs circuit size.

    WavePipe parallelises the *time axis*, so — unlike fine-grained
    device/matrix parallelism, whose efficiency depends on how much work
    each iteration offers the threads — its gains should be roughly
    independent of circuit size. Swept on the two scalable generators.
    """
    from repro.circuits.digital import inverter_chain
    from repro.circuits.interconnect import rc_grid

    cases = [
        ("invchain4", lambda: inverter_chain(stages=4), 50e-9),
        ("invchain8", lambda: inverter_chain(stages=8), 50e-9),
        ("invchain16", lambda: inverter_chain(stages=16), 50e-9),
        ("grid4x4", lambda: rc_grid(4, 4), 40e-9),
        ("grid6x6", lambda: rc_grid(6, 6), 40e-9),
        ("grid8x8", lambda: rc_grid(8, 8), 40e-9),
    ]
    headers = ["circuit", "unknowns", "backward", "combined"]
    rows = []
    data = {}
    for name, factory, tstop in cases:
        compiled = compile_circuit(factory())
        row = [name, compiled.n]
        cells = {"unknowns": compiled.n}
        for scheme in ("backward", "combined"):
            report = compare_with_sequential(
                compiled, tstop, scheme=scheme, threads=threads
            )
            row.append(report.speedup)
            cells[scheme] = report.speedup
        rows.append(row)
        data[name] = cells
    title = f"Table R8 (extension): speedup vs circuit size ({threads} threads)"
    return ExperimentResult("table_r8", title, render_table(headers, rows, title), data)


def table_r9(names=None, repeats=2, exp_id="table_r9") -> ExperimentResult:
    """Extension: solve-cost ablation of factorisation reuse.

    Runs each circuit sequentially with ``jacobian_reuse`` off (the
    full-Newton reference) and on (the modified-Newton Jacobian
    bypass), comparing transient wall time, factorisation counts, reuse
    hit rate and waveform deviation. Linear circuits reuse exact factors
    either way, so their two columns differ only in factor counts. Wall
    times are best-of-*repeats* to suppress scheduler noise.
    """
    names = names or list(BENCHMARKS)
    headers = [
        "circuit",
        "off (ms)",
        "on (ms)",
        "reduction",
        "factors off>on",
        "hit rate",
        "fallbacks",
        "worst rel dev",
    ]
    rows = []
    data = {}
    for name in names:
        bench = get_benchmark(name)
        compiled = compile_circuit(bench.build(), bench.options)

        def best_run(options):
            best = None
            for _ in range(max(repeats, 1)):
                res = run_transient(
                    compiled, bench.tstop, tstep=bench.tstep, options=options
                )
                if best is None or res.stats.tran_seconds < best.stats.tran_seconds:
                    best = res
            return best

        off = best_run(bench.options.replace(jacobian_reuse=False))
        on = best_run(bench.options.replace(jacobian_reuse=True))
        t_off = off.stats.tran_seconds
        t_on = on.stats.tran_seconds
        reduction = 1.0 - t_on / t_off if t_off > 0 else 0.0
        hit_rate = (
            on.stats.lu_reuse_hits / on.stats.lu_solves if on.stats.lu_solves else 0.0
        )
        worst = worst_deviation(
            compare(off.waveforms, on.waveforms, names=list(bench.signals))
        )
        worst_rel = worst.max_relative if worst else 0.0
        rows.append(
            [
                name,
                f"{t_off * 1e3:.1f}",
                f"{t_on * 1e3:.1f}",
                f"{reduction:.1%}",
                f"{off.stats.lu_factors}>{on.stats.lu_factors}",
                f"{hit_rate:.1%}",
                on.stats.bypass_fallbacks,
                f"{worst_rel:.2e}",
            ]
        )
        data[name] = {
            "off_tran_seconds": t_off,
            "on_tran_seconds": t_on,
            "reduction": reduction,
            "factors_off": off.stats.lu_factors,
            "factors_on": on.stats.lu_factors,
            "reuse_hits": on.stats.lu_reuse_hits,
            "reuse_hit_rate": hit_rate,
            "bypass_fallbacks": on.stats.bypass_fallbacks,
            "worst_rel_dev": worst_rel,
        }
    title = "Table R9 (extension): factorisation-reuse solve-cost ablation"
    return ExperimentResult(exp_id, title, render_table(headers, rows, title), data)


def table_r9_smoke() -> ExperimentResult:
    """One-row-per-kind Table R9 subset for CI smoke runs."""
    return table_r9(
        names=["rcladder20", "rectifier"], repeats=1, exp_id="table_r9_smoke"
    )


def table_r10(
    name="rectifier",
    jobs=16,
    seed=7,
    workers=(1, 2, 4),
    exp_id="table_r10",
) -> ExperimentResult:
    """Extension: batch-campaign throughput, serial vs process pool.

    Runs one seeded Monte Carlo campaign (*jobs* jittered variants of a
    nonlinear registry circuit) through every backend configuration —
    the job-level parallelism axis orthogonal to WavePipe's intra-run
    pipelining (processes sidestep the GIL entirely) — plus a final
    cache-served re-run against a shared result cache. Each
    configuration gets a fresh store so no timing row benefits from
    another's cache.
    """
    import shutil
    import tempfile
    import time

    from repro.jobs import CircuitRef, JobSpec, monte_carlo, run_campaign

    base = JobSpec(circuit=CircuitRef(kind="registry", name=name))
    campaign = monte_carlo(base, n=jobs, seed=seed)
    headers = ["backend", "jobs", "wall (s)", "jobs/s", "speedup", "outcome"]
    rows = []
    data = {}

    def run_config(key, label, store, **kwargs):
        t0 = time.perf_counter()
        result = run_campaign(campaign, store=store, **kwargs)
        wall = time.perf_counter() - t0
        baseline = data.get("serial", {}).get("wall_seconds", wall)
        speedup = baseline / wall if wall > 0 else 0.0
        counts = ", ".join(
            f"{count} {status}" for status, count in sorted(result.counts.items())
        )
        rows.append(
            [label, len(result.outcomes), f"{wall:.2f}",
             f"{len(result.outcomes) / wall:.2f}", f"{speedup:.2f}x", counts]
        )
        data[key] = {
            "backend": label,
            "jobs": len(result.outcomes),
            "wall_seconds": wall,
            "throughput": len(result.outcomes) / wall,
            "speedup": speedup,
            "passed": result.passed,
            "cache_hits": result.cache_hits,
            "counts": result.counts,
        }
        return result

    tmp = tempfile.mkdtemp(prefix="table_r10_")
    try:
        run_config("serial", "serial", f"{tmp}/serial")
        for n in workers:
            run_config(
                f"process{n}", f"process x{n}", f"{tmp}/process{n}",
                backend="process", workers=n,
            )
        # Cache row: replay against the serial store — every job is a hit.
        run_config("cached", "cached re-run", f"{tmp}/serial")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    title = (
        f"Table R10 (extension): campaign throughput, {jobs}-job Monte Carlo "
        f"on {name} (seed {seed})"
    )
    return ExperimentResult(exp_id, title, render_table(headers, rows, title), data)


def table_r10_smoke() -> ExperimentResult:
    """Tiny Table R10 subset for CI smoke runs."""
    return table_r10(jobs=4, workers=(2,), exp_id="table_r10_smoke")


#: Verify-generator seeds for Table R11 — each draws a different family
#: (diode-clipper, mosfet-chain, bjt-follower, rlc-ladder, rc-ladder,
#: resistive-sin, diode-mesh), so the ensemble engine is exercised on
#: every device bank. The multi-block WTM families are covered by Table
#: R13 instead.
R11_SEEDS = (38, 16, 42, 7, 5, 3, 101)


def table_r11(
    seeds=R11_SEEDS,
    jobs=16,
    mc_seed=5,
    jitter=0.02,
    workers=16,
    exp_id="table_r11",
) -> ExperimentResult:
    """Extension: ensemble lockstep solve vs per-job process pool.

    A Monte Carlo campaign's jobs differ only in component values, so K
    of them can share one transient solve: batched device evaluation and
    assembly over ``(n, K)`` state, per-variant factorisations, and a
    shared adaptive grid accepted
    by max-reduction over per-variant LTE. The table runs the same
    *jobs*-variant campaign both ways — one :class:`EnsembleRequest`
    against a *workers*-process pool — and reports wall time and the
    virtual-clock cost (``work_units``).

    Accuracy is oracle-checked, not assumed: every ensemble variant is
    compared against its own standalone sequential run (the exact
    simulation a per-job backend performs) and classified on the verify
    tolerance ladder. Options are verification-grade (``reltol=3e-6``,
    ``max_step=tstop/256``) so legal tolerance-scaled drift between the
    shared grid and each variant's native grid stays below the ``loose``
    (1e-3) rung.
    """
    import time

    from repro.api import EnsembleRequest, run_ensemble_request
    from repro.engine.transient import TransientResult  # noqa: F401 (doc link)
    from repro.jobs import CircuitRef, JobSpec, apply_params, monte_carlo, run_campaign
    from repro.utils.options import SimOptions
    from repro.verify.generators import draw_circuit
    from repro.verify.oracle import classify_tier

    headers = [
        "circuit",
        "K",
        "ens wall (s)",
        "pool wall (s)",
        "wall x",
        "ens work",
        "pool work",
        "work x",
        "worst rel dev",
        "tier",
    ]
    rows = []
    data = {}
    for seed in seeds:
        gen = draw_circuit(seed)
        options = SimOptions(
            reltol=3e-6, max_step=gen.tstop / 256, jacobian_reuse=True
        )

        request = EnsembleRequest(
            circuit=gen.circuit,
            tstop=gen.tstop,
            options=options,
            ensemble=jobs,
            jitter=jitter,
            seed=mc_seed,
        )
        t0 = time.perf_counter()
        ens = run_ensemble_request(request)
        ens_wall = time.perf_counter() - t0
        ens_work = ens.stats.work_units

        # The pool arm runs the identical variant set: monte_carlo and
        # EnsembleRequest share the seeded draw protocol (sorted
        # component order, lognormal factors).
        base = JobSpec(
            circuit=CircuitRef(kind="verify", seed=seed),
            analysis="transient",
            tstop=gen.tstop,
            options={
                "reltol": 3e-6,
                "max_step": gen.tstop / 256,
                "jacobian_reuse": True,
            },
        )
        campaign = monte_carlo(base, n=jobs, seed=mc_seed, jitter=jitter)
        t0 = time.perf_counter()
        pool = run_campaign(campaign, backend="process", workers=workers)
        pool_wall = time.perf_counter() - t0
        pool_work = pool.metrics.work_units

        # Oracle: each variant against its own sequential run.
        worst_rel = 0.0
        tiers = []
        for k, overrides in enumerate(ens.params):
            ref = run_transient(
                apply_params(gen.circuit, overrides), gen.tstop, options=options
            )
            worst = worst_deviation(
                compare(ref.waveforms, ens.variants[k].waveforms)
            )
            rel = worst.max_relative if worst else 0.0
            tiers.append(classify_tier(rel))
            worst_rel = max(worst_rel, rel)

        name = f"{gen.family}[{seed}]"
        wall_x = pool_wall / ens_wall if ens_wall > 0 else 0.0
        work_x = pool_work / ens_work if ens_work > 0 else 0.0
        rows.append(
            [
                name,
                jobs,
                f"{ens_wall:.2f}",
                f"{pool_wall:.2f}",
                f"{wall_x:.2f}x",
                f"{ens_work:.0f}",
                f"{pool_work:.0f}",
                f"{work_x:.2f}x",
                f"{worst_rel:.2e}",
                classify_tier(worst_rel),
            ]
        )
        data[name] = {
            "family": gen.family,
            "seed": seed,
            "variants": jobs,
            "ens_wall_seconds": ens_wall,
            "pool_wall_seconds": pool_wall,
            "wall_speedup": wall_x,
            "ens_work_units": ens_work,
            "pool_work_units": pool_work,
            "work_ratio": work_x,
            "pool_passed": pool.passed,
            "worst_rel_dev": worst_rel,
            "tier": classify_tier(worst_rel),
            "variant_tiers": tiers,
        }
    title = (
        f"Table R11 (extension): {jobs}-variant ensemble Monte Carlo vs "
        f"{workers}-worker process pool (mc seed {mc_seed}, jitter {jitter:g})"
    )
    return ExperimentResult(exp_id, title, render_table(headers, rows, title), data)


def table_r11_smoke() -> ExperimentResult:
    """Two-circuit, six-variant Table R11 subset for CI smoke runs.

    Its count pin holds ``ensemble.variants_per_solve`` exactly: a
    backend that stops batching variants into shared solves moves that
    counter and fails the smoke.
    """
    # Seeds pick one linear and one nonlinear single-block family
    # (rc-ladder, bjt-follower). Multi-block families are out: shared-grid
    # ensemble comparison on switching composites measures edge-timing
    # jitter, not solver agreement (their oracle is wtm_vs_monolithic).
    return table_r11(
        seeds=(5, 42), jobs=6, workers=2, exp_id="table_r11_smoke"
    )


def table_r12(
    requests=200,
    unique=12,
    workers=2,
    campaign_every=25,
    campaign_jobs=4,
    seed=0,
    exp_id="table_r12",
) -> ExperimentResult:
    """Extension: simulation service under deterministic mixed load.

    Boots a :class:`repro.service.ServiceServer` (persistent queue +
    *workers* in-process farm nodes sharing one result cache) on a
    throwaway directory and drives it with the seeded load generator:
    a fixed pool of *unique* Monte Carlo variants submitted repeatedly
    across rotating tenants, campaign bursts every *campaign_every*
    requests, status polls in between, then a drain and one result
    fetch per distinct hash.

    Every counter the run leaves behind is deterministic — the op
    sequence is seeded and response-independent, monitoring probes are
    unmetered, and each unique spec simulates exactly once no matter
    which node claims it — so the smoke subset pins the service stack's
    counts exactly: queue dedups, node completions, and the solver work
    behind the farm.
    """
    import tempfile
    import time
    from pathlib import Path

    from repro.instrument import get_recorder
    from repro.service import ServiceServer, run_load

    with tempfile.TemporaryDirectory() as tmp:
        server = ServiceServer(
            Path(tmp) / "queue", recorder=get_recorder(), workers=workers
        )
        with server:
            t0 = time.perf_counter()
            report = run_load(
                server.url,
                requests=requests,
                seed=seed,
                unique=unique,
                campaign_every=campaign_every,
                campaign_jobs=campaign_jobs,
                wait_timeout=600.0,
            )
            wall = time.perf_counter() - t0

    executed = report.submitted - report.deduped
    headers = [
        "requests",
        "accepted",
        "deduped",
        "campaigns",
        "polls",
        "unique jobs",
        "executed",
        "fetched",
        "drained",
        "req/s",
    ]
    rows = [
        [
            report.requests,
            report.submitted,
            report.deduped,
            report.campaigns,
            report.polls,
            report.unique_jobs,
            executed,
            report.results_fetched,
            "yes" if report.drained else "NO",
            f"{report.requests / wall:.0f}" if wall > 0 else "-",
        ]
    ]
    title = (
        f"Table R12 (extension): {workers}-node service farm under "
        f"{requests}-request mixed load (seed {seed}, {unique} unique specs)"
    )
    data = {
        "load": report.to_dict(),
        "executed": executed,
        "wall_seconds": wall,
        "workers": workers,
    }
    return ExperimentResult(exp_id, title, render_table(headers, rows, title), data)


def table_r12_smoke() -> ExperimentResult:
    """Sixty-request Table R12 subset for CI smoke runs.

    Its count pin holds the ``service.*`` counters exactly: a falling
    ``service.deduped`` means the content-hash dedup stopped absorbing
    repeat submissions, and any growth in solver work for the same fixed
    op sequence means jobs are being resimulated instead of served from
    the shared cache.
    """
    return table_r12(
        requests=60, unique=6, campaign_every=20, exp_id="table_r12_smoke"
    )


#: Table R13 workloads: (registry name, partition count, WTM config).
#: ``mixedrate6`` is the multirate showcase — one fast block forces the
#: monolithic solver dense everywhere while partitioned slow blocks
#: stride — and the row where WTM beats the monolithic virtual clock.
#: ``rcblocks6``'s deep chain shows the mode trade-off: Gauss-Jacobi
#: information crosses one bridge per sweep (outer count grows with
#: chain depth) while Gauss-Seidel converges at the topology minimum,
#: beating the relaxation baseline's default-mode sweep count.
R13_WORKLOADS = (
    ("mixedrate6", 6, {"multirate": True, "modes": ("jacobi", "seidel")}),
    ("rcblocks6", 6, {"modes": ("jacobi", "seidel")}),
    ("rcblocks3", 3, {"modes": ("jacobi", "seidel")}),
)


def table_r13(
    workloads=R13_WORKLOADS,
    scheme="combined",
    threads=2,
    check_tiers=True,
    exp_id="table_r13",
) -> ExperimentResult:
    """Extension: WTM domain decomposition vs monolithic and WR baseline.

    Four arms per workload, all costed on the same virtual clock:
    the monolithic sequential engine, the monolithic WavePipe run
    (*scheme* x *threads*), the naive :class:`WaveformRelaxation`
    baseline at its default Gauss-Jacobi mode on the same cut, and the
    WTM coordinator (both outer modes) with every partition solve
    WavePipe-pipelined. ``multirate`` workloads additionally let each
    partition's step controller run free — the circuit-axis win a
    monolithic global step control cannot reach.

    With *check_tiers* the headline WTM config of every workload is also
    classified against the verification-grade monolithic reference via
    :func:`~repro.partition.checks.wtm_vs_monolithic`; speed without
    agreement is a bug, not a result.
    """
    from repro.partition import partition_circuit, run_wtm, wtm_vs_monolithic
    from repro.utils.options import SimOptions

    headers = [
        "circuit",
        "arm",
        "P",
        "outer",
        "conv",
        "virtual work",
        "serial work",
        "vs mono seq",
    ]
    rows = []
    data = {}
    for name, parts, cfg in workloads:
        bench = get_benchmark(name)
        circuit = bench.build()
        tstop = bench.tstop
        manifest = partition_circuit(circuit, parts)
        multirate = cfg.get("multirate", False)

        mono = run_transient(circuit, tstop, options=bench.options)
        mono_work = mono.stats.total_work
        pipe = run_wavepipe(
            circuit, tstop, scheme=scheme, threads=threads, options=bench.options
        )
        wr = WaveformRelaxation(
            circuit,
            tstop,
            partition=[set(spec.nodes) for spec in manifest.partitions],
            options=bench.options,
        ).run()

        def row(arm, outer, conv, virtual, serial, parts=parts):
            rows.append(
                [
                    name,
                    arm,
                    parts,
                    outer if outer is not None else "-",
                    "yes" if conv else "NO",
                    f"{virtual:.0f}",
                    f"{serial:.0f}",
                    f"{mono_work / virtual:.2f}x" if virtual > 0 else "-",
                ]
            )

        row("mono sequential", None, True, mono_work, mono_work, parts=1)
        row(
            f"mono wavepipe/{scheme}",
            None,
            True,
            pipe.stats.virtual_total,
            pipe.stats.serial_total,
            parts=1,
        )
        row("wr baseline/jacobi", wr.sweeps, wr.converged, wr.parallel_work, wr.serial_work)

        wtm_data = {}
        for mode in cfg.get("modes", ("jacobi", "seidel")):
            res = run_wtm(
                circuit,
                tstop,
                manifest=manifest,
                mode=mode,
                scheme=scheme,
                threads=threads,
                multirate=multirate,
                options=bench.options,
                strict=False,
            )
            suffix = "/multirate" if multirate else ""
            row(
                f"wtm {mode}+{scheme}{suffix}",
                res.outer_iterations,
                res.converged,
                res.stats.virtual_total,
                res.stats.serial_total,
            )
            wtm_data[mode] = {
                "outer_iterations": res.outer_iterations,
                "converged": res.converged,
                "virtual_work": res.stats.virtual_total,
                "serial_work": res.stats.serial_total,
            }

        entry = {
            "partitions": parts,
            "multirate": multirate,
            "mono_seq_work": mono_work,
            "mono_wavepipe_virtual": pipe.stats.virtual_total,
            "mono_best_virtual": min(mono_work, pipe.stats.virtual_total),
            "wr_sweeps": wr.sweeps,
            "wr_converged": wr.converged,
            "wr_parallel_work": wr.parallel_work,
            "wtm": wtm_data,
        }
        if check_tiers:
            # The headline config per workload. The multirate showcase
            # needs a denser exchange grid and tighter block tolerances:
            # with free-running steps the comparison resolves the fast
            # block's edges only through the sampled exchange, so the
            # grid chord error is the classification floor.
            agreement = wtm_vs_monolithic(
                circuit,
                tstop,
                manifest=manifest,
                mode="jacobi" if multirate else "seidel",
                scheme=scheme,
                threads=threads,
                multirate=multirate,
                options=SimOptions(reltol=1e-5),
                **({"grid_points": 4096} if multirate else {}),
            )
            entry["tier"] = agreement.tier
            entry["worst_rel_dev"] = agreement.worst
            entry["agreement_ok"] = agreement.ok
        data[name] = entry

    title = (
        f"Table R13 (extension): WTM partitioned transients "
        f"(pipelined per-partition, {scheme} x{threads}) vs monolithic "
        f"and waveform-relaxation baseline"
    )
    return ExperimentResult(exp_id, title, render_table(headers, rows, title), data)


def table_r13_smoke() -> ExperimentResult:
    """Two-workload Table R13 subset for CI smoke runs.

    Keeps both headline wins under the count pin: the multirate jacobi
    row that beats the monolithic virtual clock, and the deep-chain
    seidel row that beats the relaxation baseline's sweep count. The pin
    holds ``wtm.outer_iterations`` exactly — more outer iterations for
    the same workloads is a convergence regression.
    """
    return table_r13(
        workloads=(
            ("mixedrate6", 6, {"multirate": True, "modes": ("jacobi",)}),
            ("rcblocks6", 6, {"modes": ("seidel",)}),
        ),
        check_tiers=False,
        exp_id="table_r13_smoke",
    )


#: Experiment id -> callable returning an ExperimentResult.
EXPERIMENTS = {
    "table_r1": table_r1,
    "table_r2": table_r2,
    "table_r3": table_r3,
    "table_r4": table_r4,
    "table_r4_smoke": table_r4_smoke,
    "table_r5": table_r5,
    "table_r6": table_r6,
    "table_r7": table_r7,
    "table_r8": table_r8,
    "table_r9": table_r9,
    "table_r9_smoke": table_r9_smoke,
    "table_r10": table_r10,
    "table_r10_smoke": table_r10_smoke,
    "table_r11": table_r11,
    "table_r11_smoke": table_r11_smoke,
    "table_r12": table_r12,
    "table_r12_smoke": table_r12_smoke,
    "table_r13": table_r13,
    "table_r13_smoke": table_r13_smoke,
    "fig_r1": fig_r1,
    "fig_r2": fig_r2,
    "fig_r3": fig_r3,
    "fig_r4": fig_r4,
    "fig_r5": fig_r5,
}


def run_experiment(exp_id: str) -> ExperimentResult:
    """Run one registered experiment by id."""
    try:
        func = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {', '.join(EXPERIMENTS)}"
        ) from None
    return func()
