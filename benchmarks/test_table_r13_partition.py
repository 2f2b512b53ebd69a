"""Table R13: WTM domain decomposition vs monolithic and WR baseline.

Reproduction claim (extension, no paper counterpart): partitioning the
circuit at its weak couplings and exchanging boundary waveforms opens a
third parallelism axis that composes with WavePipe's time axis — and on
rate-disparate workloads it reaches a speedup the monolithic engine
cannot: ``mixedrate6``'s fast block forces a monolithic adaptive solver
dense across the *whole* circuit, while the multirate WTM run lets the
five quiet blocks stride, beating the best monolithic virtual-clock cost
outright. On the deep ``rcblocks6`` chain the Gauss-Seidel coordinator
also converges in fewer outer sweeps than the naive waveform-relaxation
baseline (``run_wtm``'s plain Gauss-Jacobi configuration) on the
identical cut.

Speed without agreement is a bug: the full table classifies every
headline WTM config on the oracle tolerance ladder and requires the
``loose`` (1e-3) rung or tighter.
"""

from repro.bench.experiments import table_r13, table_r13_smoke

LOOSE = 1e-3


def _check_rows(data):
    for name, cells in data.items():
        assert cells["wr_converged"], f"{name}: relaxation baseline diverged"
        for mode, wtm in cells["wtm"].items():
            assert wtm["converged"], f"{name}: wtm/{mode} did not converge"
            assert wtm["outer_iterations"] >= 1
        if "tier" in cells:
            assert cells["agreement_ok"], (
                f"{name}: WTM classified {cells['tier']} "
                f"(worst {cells['worst_rel_dev']:.3e} > loose {LOOSE:g})"
            )

    # Headline 1 — circuit-axis beats the monolithic clock where time-axis
    # parallelism cannot: the multirate run undercuts both the sequential
    # and the WavePipe monolithic cost.
    mixed = data["mixedrate6"]
    jacobi = mixed["wtm"]["jacobi"]
    assert jacobi["virtual_work"] < mixed["mono_best_virtual"], (
        f"mixedrate6: wtm jacobi virtual work {jacobi['virtual_work']:.0f} "
        f"does not beat best monolithic {mixed['mono_best_virtual']:.0f}"
    )

    # Headline 2 — the coordinator beats the naive baseline's sweep count
    # on the deep chain (Seidel sweeps propagate through every bridge;
    # the baseline's default Jacobi mode crosses one bridge per sweep).
    chain = data["rcblocks6"]
    seidel = chain["wtm"]["seidel"]
    assert seidel["outer_iterations"] < chain["wr_sweeps"], (
        f"rcblocks6: wtm seidel took {seidel['outer_iterations']} outer "
        f"iterations vs baseline's {chain['wr_sweeps']} sweeps"
    )


def test_table_r13_partition(run_once):
    result = run_once(table_r13)
    _check_rows(result.data)
    # The full table carries the agreement classification for every row.
    assert all("tier" in cells for cells in result.data.values())


def test_table_r13_smoke(run_once):
    result = run_once(table_r13_smoke)
    _check_rows(result.data)
