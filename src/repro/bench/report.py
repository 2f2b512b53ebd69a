"""EXPERIMENTS.md generator.

Runs every registered experiment and renders the paper-vs-measured record
the reproduction ships with. Regenerate after algorithm changes with::

    python -m repro.bench.report [output-path]

The "paper claim" column states what is derivable from the source text
available to this reproduction (the abstract — see DESIGN.md) plus the
generic expectations stated in DESIGN.md's reconstructed-evaluation index.
"""

from __future__ import annotations

import sys
import time

from repro.bench.experiments import EXPERIMENTS, run_experiment

#: Claim text per experiment (what the abstract / DESIGN.md predicts).
CLAIMS = {
    "table_r1": "Evaluation covers 'general analog and digital ICs' (abstract): digital, analog and interconnect circuit classes.",
    "table_r2": "Backward pipelining speeds up transient simulation using 2+ threads without changing accuracy; gains are workload-dependent (coarse-grained parallelism, modest efficiency).",
    "table_r3": "Forward (predictive) pipelining yields additional speedup where Newton solves are expensive; degrades gracefully (to ~1.0x) where solves are cheap.",
    "table_r4": "The combined scheme adapts per-regime and matches or beats the better single scheme on aggregate.",
    "table_r4_smoke": "CI smoke subset of Table R4 (two circuits, 3 threads); same aggregate expectation, and its metrics dump feeds the perf gate's speculation-benefit channels.",
    "table_r5": "WavePipe does not jeopardise accuracy: accepted waveforms match sequential within integration tolerance (oscillator phase aside).",
    "table_r7": "Extension (no paper counterpart): the two schemes respond oppositely to tolerance — backward gains track rejection/ramp pressure (strongest at loose-to-mid reltol), forward gains track prediction quality (grow as reltol tightens); combined stays between them. No configuration regresses below ~1.0.",
    "table_r8": "Extension (no paper counterpart): WavePipe parallelises the time axis, so speedup is roughly independent of circuit size — the property that lets coarse-grained gains compose with (rather than compete against) fine-grained parallelism.",
    "table_r6": "Scheduler design choices (rejection guard, ratio bound, LTE cap margin, Newton guess) each contribute; defaults are near the per-knob optimum.",
    "table_r9": "Extension (no paper counterpart): the modified-Newton Jacobian bypass (jacobian_reuse) cuts the factorisation count of every nonlinear registry circuit, including stiff ones where the stall guard caps stale-factor damage, with deviations within solver tolerance. The wall-time column is reported, not claimed: a dense factorisation costs a few microseconds, so what a bypass saves is inside the noise of these sub-second runs. On the linear interconnect circuits every reuse is exact and reuse within a Newton solve is unconditional, so both columns take the same path bit for bit, with fewer factorisations than Newton iterations in both and no more with the switch on (which only lets exact factors carry across solves).",
    "table_r9_smoke": "CI smoke subset of Table R9 (one linear, one stiff nonlinear circuit); same expectations at reduced coverage.",
    "table_r10": "Extension (no paper counterpart): job-level parallelism through the repro.jobs process pool scales Monte Carlo campaign throughput with worker count on multi-core hosts (processes sidestep the GIL — the axis orthogonal to WavePipe's intra-run pipelining), and the content-addressed result cache serves a campaign re-run without executing a single job.",
    "table_r10_smoke": "CI smoke subset of Table R10 (4-job campaign, 2-worker pool); same correctness/caching expectations without the scaling claim.",
    "table_r11": "Extension (no paper counterpart): Monte Carlo variants of one topology share a single vectorized transient solve — one adaptive grid and one Newton history across K parameter-jittered instances — beating the same campaign run as independent process-pool jobs in both virtual-clock work and wall time, with every variant within the loose (1e-3) rung against its own sequential run.",
    "table_r11_smoke": "CI smoke subset of Table R11 (two families, 6 variants, 2 workers); same both-clocks win and per-variant accuracy expectations, and its metrics dump feeds the perf gate's ensemble.variants_per_solve benefit channel.",
    "table_r12": "Extension (no paper counterpart): the simulation service — persistent content-hash queue, farm nodes sharing one result cache, stdlib HTTP front end — absorbs a seeded 200-request mixed workload (duplicate submissions, campaign bursts, status polls, rotating tenants) with zero errors, drains completely, and executes each distinct spec exactly once; the counter dump is deterministic and trends the queue dedup rate and per-node completion split in the perf gate.",
    "table_r12_smoke": "CI smoke subset of Table R12 (60 requests, 6 unique specs, 2 in-process nodes); same zero-error drain and exactly-once execution expectations, with service.* counters gated by repro perf diff.",
    "table_r13": "Extension (no paper counterpart): waveform-transmission domain decomposition composes with per-partition WavePipe pipelining — on a rate-disparate multi-block workload the multirate Gauss-Jacobi run beats the best monolithic virtual-clock cost outright (global step control must run dense everywhere; partitioned quiet blocks stride), the Gauss-Seidel coordinator needs fewer outer sweeps than the naive waveform-relaxation baseline on the same cut, and every headline configuration classifies loose (1e-3) or tighter against the verification-grade monolithic reference.",
    "table_r13_smoke": "CI smoke subset of Table R13 (multirate jacobi on mixedrate6, seidel on rcblocks6); same beat-the-monolith and beat-the-baseline expectations, with wtm.* counters — wtm.outer_iterations foremost — gated by repro perf diff.",
    "fig_r1": "Speedup grows from exactly 1.0 at one thread and saturates quickly — coarse-grained application-level parallelism, not linear scaling.",
    "fig_r2": "Pipelining covers the same simulated window in fewer stages than the sequential run has points (the speedup mechanism made visible).",
    "fig_r3": "Pipelined waveforms overlay the sequential ones; oscillation frequency matches within a fraction of a percent.",
    "fig_r5": "Extension (no paper counterpart): with zero overhead an ideal fine-grained scheme beats WavePipe, but it degrades much faster as synchronisation costs grow; WavePipe (one sync per time point) stays ahead once sync costs approach a Newton iteration — the quantitative form of the abstract's coarse-grained argument.",
    "fig_r4": "Fine-grained intra-iteration parallelism saturates (Amdahl); waveform relaxation fails to converge on feedback circuits — WavePipe avoids both limits.",
}

HEADER = """# EXPERIMENTS — paper vs. measured

Reproduction record for WavePipe (Dong, Li & Ye, DAC 2008). Only the
paper's **abstract** was available to this reproduction (see DESIGN.md,
"Source-text caveat"), so the "paper claim" column records what the
abstract states or what DESIGN.md's reconstruction predicts, and the
measured section shows what this implementation produces. Speedups are
virtual-clock measurements (deterministic ideal-machine schedule replay;
see DESIGN.md, "Substitutions") against the sequential baseline on the
same engine. Absolute numbers depend on circuit mix and tolerances; the
claims under test are the *shapes*.

Regenerate with: `python -m repro.bench.report`

"""


def generate(path: str = "EXPERIMENTS.md") -> str:
    """Run every experiment and write the paper-vs-measured record."""
    sections = [HEADER]
    for exp_id in EXPERIMENTS:
        if exp_id.endswith("_smoke"):
            continue  # CI subsets of a full experiment already in the record
        started = time.perf_counter()
        result = run_experiment(exp_id)
        elapsed = time.perf_counter() - started
        sections.append(f"## {result.title}\n")
        sections.append(f"**Paper claim / expectation:** {CLAIMS[exp_id]}\n")
        sections.append("**Measured:**\n")
        sections.append("```")
        sections.append(result.text)
        sections.append("```")
        sections.append(f"\n_(regenerated in {elapsed:.1f}s by `{exp_id}`)_\n")
    content = "\n".join(sections)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return content


if __name__ == "__main__":  # pragma: no cover
    target = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    generate(target)
    print(f"wrote {target}")
