"""Inside the WavePipe scheduler: what each adaptive mechanism contributes.

Instruments one backward-pipelined run to show the decisions DESIGN.md
describes — guard insurance, ramp-chain extension, rejection salvage —
and then switches each mechanism off to quantify its contribution (a
live, single-circuit version of the Table R6 ablation).

Run with::

    python examples/scheduler_anatomy.py
"""

from repro import SimOptions, compare_with_sequential, simulate
from repro.bench.tables import render_table
from repro.circuits.digital import inverter_chain
from repro.core.backward import BackwardPipeline
from repro.mna.compiler import compile_circuit


def main() -> None:
    compiled = compile_circuit(inverter_chain(stages=8))
    tstop = 50e-9

    # --- the sequential baseline's pain points -----------------------------
    seq = simulate(compiled, analysis="transient", tstop=tstop)
    solves = seq.stats.accepted_points + seq.stats.rejected_points
    print("sequential baseline:")
    print(f"  {seq.stats.accepted_points} accepted points")
    print(f"  {seq.stats.rejected_points} LTE rejections "
          f"({100 * seq.stats.rejected_points / solves:.0f}% of solves wasted)")
    print(f"  {seq.stats.newton_iterations / solves:.2f} Newton iterations/solve")

    # --- one instrumented pipelined run ------------------------------------
    engine = BackwardPipeline(compiled, tstop, threads=4)
    result = engine.run()
    stats = result.stats
    print("\nbackward pipelining, 4 threads:")
    print(f"  {stats.clock.stages} stages for {stats.accepted_points} points "
          f"(mean width {stats.clock.mean_width:.2f})")
    print(f"  guard points that salvaged a failed stage: {stats.guard_salvages}")
    print(f"  wasted solves (discarded chain/guard work): {stats.wasted_solves}")
    print(f"  virtual speedup: {seq.stats.total_work / stats.virtual_total:.2f}x")

    # --- switch mechanisms off one at a time --------------------------------
    variants = {
        "full scheduler (default)": SimOptions(),
        "no rejection guard": SimOptions(backward_guard_fraction=0.0),
        "no ratio bound to exploit (r_max=1.05)": SimOptions(step_ratio_max=1.05),
        "blind chains (no headroom gate)": SimOptions(chain_headroom_min=0.0),
        "predictor-seeded Newton": SimOptions(newton_guess="predictor"),
    }
    rows = []
    for label, options in variants.items():
        report = compare_with_sequential(
            compile_circuit(inverter_chain(stages=8), options),
            tstop, scheme="backward", threads=4, options=options,
        )
        ps = report.pipelined.stats
        rows.append([
            label,
            f"{report.speedup:.2f}",
            ps.guard_salvages,
            ps.wasted_solves,
        ])
    print()
    print(render_table(
        ["variant", "speedup", "salvages", "wasted"],
        rows,
        title="What each mechanism is worth (backward x4, inverter chain)",
    ))
    print(
        "\nReading the table: removing the guard forfeits rejection salvage "
        "(the dominant mechanism on this rejection-heavy digital workload); "
        "r_max=1.05 changes the *baseline* too — almost no ramp conservatism "
        "left to exploit, but many more rejected steps for the guard to "
        "rescue. The headroom gate and the Newton-guess policy barely move "
        "THIS circuit because its chains rarely fire; their effects live on "
        "oscillatory workloads (rlcline8) and in the tolerance sweep — see "
        "Table R6/R7 in EXPERIMENTS.md for the cross-circuit picture."
    )


if __name__ == "__main__":
    main()
