"""Per-call floors of the Newton hot path, as one JSON object.

    PYTHONPATH=src python benchmarks/hotpath_floors.py [--calls N] [--out FILE]

Times each layer of one Newton iteration in a tight loop at the DC
operating point of five registry circuits: ``MnaSystem.eval``, the
charge-only ``MnaSystem.charge_at`` beside it, every bank's ``eval``,
``MnaSystem.jacobian``, ``LinearSolver.factor`` and
``LinearSolver.resolve`` — plus the scalar LTE verdict of one trap step
(``lte_verdict``). Each figure is the best of 5 repeats of *calls*
back-to-back calls, in microseconds per call.

Three rows price the hand-offs around the solve. ``scatter_k8`` is the
ensemble accumulation of ``invchain8``'s MOSFET gate charges into an
``(n + 1, 8)`` buffer: ``np.add.at`` through a 2-D row index against the
flat index the banks use. ``stage_round_trip`` is one stage of empty
tasks through ``SerialExecutor`` and ``ThreadExecutor(2)`` at widths 1
and 2: the executor's own cost, with nothing to compute. ``lane_alloc``
is one fresh ``make_buffers()`` plus ``LinearSolver(...)`` on
``invchain8`` and ``grid32``: what every stage task paid before the
engine kept one solver lane per thread for the whole run.

The ``grid32`` and ``grid64`` rows are the sparse and export end of the
size ladder: the 1 025-unknown RC grid of the ``grid_seq`` workload and
its 4 097-unknown big brother, timing the SuperLU ``factor`` and
``resolve`` and ``to_csv_text`` of a 10 ns transient. ``factor`` is the
numeric refactor in the pattern's once-computed order; ``factor_colamd``
is a fresh default ``scipy.sparse.linalg.splu`` of the same matrix (the
COLAMD-per-factor cost the solver paid before), and ``fill`` /
``fill_colamd`` are their L+U nonzeros. Those calls cost milliseconds,
so the rows run ``calls // 100`` of them (at least 2; their own
``calls`` field says how many).

These are warm-cache *floors*: in situ each layer reads about 2x its
floor (docs/performance.md "Where the time goes"), so use them as
shares and ratios between commits, not as totals. Informational — CI
uploads the JSON as an artifact and gates nothing on it.
"""

from __future__ import annotations

import argparse
import json
import sys
import timeit

import numpy as np
import scipy.sparse.linalg as spla

from repro.circuits.interconnect import rc_grid
from repro.circuits.registry import get_benchmark
from repro.devices.mosfet import MosfetBank
from repro.engine.transient import run_transient
from repro.integration.history import Timepoint, TimepointHistory
from repro.integration.lte import lte_verdict
from repro.linalg.solve import LinearSolver
from repro.mna.compiler import compile_circuit
from repro.mna.pattern import flat_index
from repro.mna.system import MnaSystem
from repro.parallel.executors import SerialExecutor, ThreadExecutor
from repro.solver.dcop import solve_operating_point
from repro.utils.options import SimOptions
from repro.waveform.export import to_csv_text

CIRCUITS = ("ring9", "nandchain6", "mixer", "invchain8", "rcladder20")
REPEATS = 5
#: Transient-like leading coefficient (1 / 0.5 ns) so the C stream is assembled.
ALPHA0 = 2.0e9
#: Step of the LTE verdict's synthetic trap history (0.5 ns).
STEP = 0.5e-9
#: Variant count of the ``scatter_k8`` row.
SIMS = 8
#: The ``grid_seq`` deck (a 32 x 32 RC grid) and a 64 x 64 one, simulated for 10 ns.
GRID_SIZES = (32, 64)
GRID_TSTOP = 10e-9


def floor_us(func, calls: int) -> float:
    """Best-of-REPEATS mean microseconds per call of *func*."""
    best = min(timeit.repeat(func, number=calls, repeat=REPEATS))
    return round(best / calls * 1e6, 2)


def circuit_floors(name: str, calls: int) -> dict:
    bench = get_benchmark(name)
    system = MnaSystem(compile_circuit(bench.build(), bench.options))
    x = solve_operating_point(system).x
    out = system.make_buffers()
    x_full = system.eval(x, 0.0, out)
    rhs = -system.resistive_residual(out, x)
    solver = LinearSolver(system.unknown_names, system.pattern)
    solver.factor(system.jacobian(out, ALPHA0))

    row = {
        "unknowns": system.n,
        "nnz": system.pattern.nnz,
        "eval": floor_us(lambda: system.eval(x, 0.0, out), calls),
        "charge_at": floor_us(lambda: system.charge_at(x, out), calls),
        "banks": {
            type(bank).__name__: floor_us(lambda b=bank: b.eval(x_full, 0.0, out), calls)
            for bank in system.compiled.banks
        },
        "jacobian": floor_us(lambda: system.jacobian(out, ALPHA0), calls),
    }
    jac = system.jacobian(out, ALPHA0)
    row["factor"] = floor_us(lambda: solver.factor(jac), calls)
    row["resolve"] = floor_us(lambda: solver.resolve(rhs), calls)

    # A smooth trap history through the operating point: x(t) = x*(1+t/1us)^2.
    history = TimepointHistory()
    for k in range(4):
        xk = x * (1.0 + k * STEP / 1e-6) ** 2
        history.append(Timepoint(k * STEP, xk, xk, xk))
    x_new = x * (1.0 + 4 * STEP / 1e-6) ** 2
    options = SimOptions()
    row["lte_verdict"] = floor_us(
        lambda: lte_verdict(
            "trap", 2, history, 4 * STEP, x_new, system.voltage_rows, options
        ),
        calls,
    )
    return row


def scatter_floors(calls: int) -> dict:
    bench = get_benchmark("invchain8")
    system = MnaSystem(compile_circuit(bench.build(), bench.options))
    (mos,) = [bank for bank in system.compiled.banks if isinstance(bank, MosfetBank)]
    index = np.concatenate([mos.g, mos.s, mos.d])
    flat = flat_index(index, SIMS)
    target = np.zeros((system.n + 1, SIMS))
    values = np.random.default_rng(0).normal(size=(index.size, SIMS))
    flat_target = target.reshape(-1)
    flat_values = values.reshape(-1)
    return {
        "rows": int(index.size),
        "sims": SIMS,
        "add_at_2d": floor_us(lambda: np.add.at(target, index, values), calls),
        "add_at_flat": floor_us(lambda: np.add.at(flat_target, flat, flat_values), calls),
    }


def stage_floors(calls: int) -> dict:
    row = {}
    for name, executor in (
        ("SerialExecutor", SerialExecutor()),
        ("ThreadExecutor(2)", ThreadExecutor(2)),
    ):
        with executor:
            for width in (1, 2):
                tasks = [lambda: None] * width
                row[f"{name} width {width}"] = floor_us(
                    lambda: executor.run_stage(tasks), calls
                )
    return row


def lane_alloc_floors(calls: int) -> dict:
    bench = get_benchmark("invchain8")
    systems = {
        "invchain8": MnaSystem(compile_circuit(bench.build(), bench.options)),
        "grid32": MnaSystem(compile_circuit(rc_grid(32, 32))),
    }
    return {
        name: floor_us(
            lambda s=system: (
                s.make_buffers(),
                LinearSolver(s.unknown_names, s.pattern),
            ),
            calls,
        )
        for name, system in systems.items()
    }


def grid_floors(size: int, calls: int) -> dict:
    circuit = rc_grid(size, size)
    system = MnaSystem(compile_circuit(circuit))
    x = solve_operating_point(system).x
    out = system.make_buffers()
    system.eval(x, 0.0, out)
    rhs = -system.resistive_residual(out, x)
    jac = system.jacobian(out, ALPHA0)
    solver = LinearSolver(system.unknown_names, system.pattern)
    solver.factor(jac)
    lu = solver._sparse_lu[0]
    colamd = spla.splu(jac)
    waveforms = run_transient(circuit, GRID_TSTOP).waveforms
    calls = max(calls // 100, 2)
    return {
        "unknowns": system.n,
        "nnz": system.pattern.nnz,
        "calls": calls,
        "fill": lu.L.nnz + lu.U.nnz,
        "fill_colamd": colamd.L.nnz + colamd.U.nnz,
        "factor": floor_us(lambda: solver.factor(jac), calls),
        "factor_colamd": floor_us(lambda: spla.splu(jac), calls),
        "resolve": floor_us(lambda: solver.resolve(rhs), calls),
        "to_csv_text": floor_us(lambda: to_csv_text(waveforms), calls),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=2000, help="calls per repeat")
    parser.add_argument("--out", help="also write the JSON object to this file")
    args = parser.parse_args(argv)

    report = {
        "unit": "us_per_call",
        "calls": args.calls,
        "repeats": REPEATS,
        "circuits": {
            **{name: circuit_floors(name, args.calls) for name in CIRCUITS},
            **{f"grid{size}": grid_floors(size, args.calls) for size in GRID_SIZES},
        },
        "scatter_k8": scatter_floors(args.calls),
        "stage_round_trip": stage_floors(args.calls),
        "lane_alloc": lane_alloc_floors(args.calls),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
