"""Table R9: solve-cost ablation of the factorisation-reuse fast path.

Reproduction claim (extension, no paper counterpart): the modified-Newton
bypass of ``SimOptions.jacobian_reuse`` cuts the factorisation count of a
sequential transient on every nonlinear registry circuit without moving
accepted waveforms beyond solver tolerance. On the linear circuits every
reuse is exact and reuse within a solve is unconditional, so there the
switch only lets factors carry across solves: no more factorisations
with it on, and zero deviation.

The gate is on the deterministic cells only (factor counts, reuse hits,
waveform deviation). The wall-time ``reduction`` column is printed and
stored but not asserted: it is a ratio of two sub-second timings on a
shared host (the smoke subset read 10.9 / -0.1 / 9.1 % on three
consecutive runs of one commit), and the wall-clock ledger
(``wallbench``, ``grid_reuse`` workload) is where wall claims are paired
and judged.
"""

from repro.bench.experiments import table_r9, table_r9_smoke
from repro.circuits.registry import get_benchmark
from repro.mna.compiler import compile_circuit
from repro.mna.system import MnaSystem

#: Relative waveform deviation allowed between reuse-on and reuse-off
#: runs; generous vs the measured worst case (~7e-3 on lcosc) but far
#: below anything resembling a wrong waveform.
DEV_TOL = 2e-2


def _is_linear(name):
    bench = get_benchmark(name)
    return not MnaSystem(compile_circuit(bench.build(), bench.options)).has_nonlinear


def _check_rows(data):
    for name, cells in data.items():
        assert cells["reuse_hits"] > 0, f"{name}: fast path never reused factors"
        if _is_linear(name):
            # Reuse is exact on linear circuits and unconditional within a
            # solve, so the switch may save factorisations but never bits.
            assert cells["factors_on"] <= cells["factors_off"], name
            assert cells["worst_rel_dev"] == 0.0, name
            continue
        assert cells["factors_on"] < cells["factors_off"], (
            f"{name}: reuse did not reduce factorisation count"
        )
        assert cells["worst_rel_dev"] <= DEV_TOL, (
            f"{name}: waveform deviation {cells['worst_rel_dev']:.2e} "
            f"exceeds {DEV_TOL:.0e}"
        )
    reductions = ", ".join(f"{n} {c['reduction']:.1%}" for n, c in data.items())
    print(f"wall-time reduction (reported, not gated): {reductions}")


def test_table_r9_solvecost(run_once):
    result = run_once(table_r9)
    _check_rows(result.data)


def test_table_r9_smoke(run_once):
    result = run_once(table_r9_smoke)
    # The smoke subset carries one linear circuit (rcladder20, where every
    # reuse is exact) and one stiff nonlinear circuit
    # (rectifier, where the stall guard must contain the damage).
    _check_rows(result.data)
    assert result.data["rcladder20"]["worst_rel_dev"] == 0.0
