"""The flattened point solve: charge-only evaluation, the voltage-row LTE
verdict and the flat ensemble scatters, each against the formula it
replaced, bit for bit."""

import numpy as np
import pytest

from repro.circuits.registry import BENCHMARKS
from repro.devices.base import lift_sims, scatter_add
from repro.integration.history import (
    Timepoint,
    TimepointHistory,
    divided_difference,
    neville_extrapolate,
)
from repro.integration.lte import (
    ERROR_CONSTANTS,
    _unknown_error_ratios,
    ensemble_lte_verdict,
    lte_verdict,
)
from repro.mna.compiler import compile_circuit
from repro.mna.ensemble import ensemble_from_compiled
from repro.mna.pattern import flat_index
from repro.mna.system import MnaSystem
from repro.solver.newton import newton_solve
from repro.utils.options import SimOptions
from repro.verify.generators import FAMILIES, draw_circuit


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _systems(circuit, options=None):
    """The scalar system and a K=3 ensemble of the same circuit."""
    compiled = [compile_circuit(circuit, options) for _ in range(3)]
    return MnaSystem(compiled[0]), ensemble_from_compiled(compiled).system


def _circuits():
    for name, bench in sorted(BENCHMARKS.items()):
        yield name, bench.build(), bench.options
    for family in sorted(FAMILIES):
        yield family, draw_circuit(0, [family]).circuit, None


CIRCUITS = list(_circuits())


# -- charge-only evaluation ----------------------------------------------------


@pytest.mark.parametrize("name,circuit,options", CIRCUITS, ids=[c[0] for c in CIRCUITS])
def test_charge_at_is_bit_equal_to_full_eval(name, circuit, options):
    rng = np.random.default_rng(11)
    for system in _systems(circuit, options):
        shape = (system.n,) if system.sims is None else (system.n, system.sims)
        for _ in range(4):
            x = rng.uniform(-2.0, 2.0, shape)
            t = float(rng.uniform(0.0, 1e-7))
            out = system.make_buffers()
            system.eval(x, t, out)
            expected = out.q[: system.n].copy()
            assert _bits(system.charge_at(x)) == _bits(expected)
            # In the very buffers eval just filled, too.
            assert _bits(system.charge_at(x, out)) == _bits(expected)


@pytest.mark.parametrize("name", ["ring5", "rectifier", "rlcline8", "mixer"])
def test_newton_on_buffers_that_served_charge_at(name):
    """charge_at keeps the source-injection key and everything Newton
    reads: a solve on buffers it just used retraces a fresh-buffer solve."""
    bench = BENCHMARKS[name]
    system = MnaSystem(compile_circuit(bench.build(), bench.options))
    rng = np.random.default_rng(3)
    t, alpha0 = 0.3 * bench.tstop, 1e9
    beta = rng.uniform(-1e-6, 1e-6, system.n)
    x0 = np.zeros(system.n)
    used = system.make_buffers()
    newton_solve(system, t, alpha0, beta, x0, out=used)
    system.charge_at(rng.uniform(-1.0, 1.0, system.n), used)
    again = newton_solve(system, t, alpha0, beta, x0, out=used)
    fresh = newton_solve(system, t, alpha0, beta, x0, out=system.make_buffers())
    assert again.converged and fresh.converged
    assert again.iterations == fresh.iterations
    assert _bits(again.x) == _bits(fresh.x)
    assert again.residual_norm == fresh.residual_norm


# -- the LTE verdict on voltage rows -------------------------------------------


def _full_vector_ratios(method_used, order, history, t_new, x_new, mask, options, h):
    """The formula the verdict used before: every unknown, then the mask."""
    needed = order + 2
    points = [(t_new, x_new)] + [(p.t, p.x) for p in history.newest(needed - 1)]
    if len(points) < needed:
        return None
    dd = divided_difference(points[:needed])
    err = ERROR_CONSTANTS[method_used] * (h ** (order + 1)) * np.abs(dd)
    scale = np.maximum(np.abs(x_new), np.abs(history.last.x))
    tol = options.trtol * (
        options.effective_lte_reltol * scale + options.effective_lte_abstol
    )
    masked_err = err[mask]
    if masked_err.size == 0:
        return None
    return masked_err / tol[mask]


def _history(rng, tail, points, era_after=None):
    history = TimepointHistory()
    for k in range(points):
        x = rng.normal(size=(6, *tail))
        history.append(Timepoint(1e-9 * (k + 1) ** 1.3, x, x, x))
        if era_after == k:
            history.mark_era()
    return history


@pytest.mark.parametrize("tail", [(), (1,), (3,)], ids=["scalar", "K1", "K3"])
@pytest.mark.parametrize("case", ["warm", "cold", "post-breakpoint", "no-voltages"])
@pytest.mark.parametrize("method,order", [("be", 1), ("trap", 2), ("gear2", 2)])
def test_voltage_row_ratios_match_full_vector_formula(tail, case, method, order):
    rng = np.random.default_rng(21)
    points = 1 if case == "cold" else 6
    history = _history(rng, tail, points, era_after=4 if case == "post-breakpoint" else None)
    mask = np.array([True] * 4 + [False] * 2)
    if case == "no-voltages":
        mask[:] = False
    rows = slice(0, int(mask.sum()))  # how MnaSystem.voltage_rows spells a prefix
    options = SimOptions()
    x_new = rng.normal(size=(6, *tail))
    t_new = history.last.t + 2e-10
    h = 2e-10
    expected = _full_vector_ratios(method, order, history, t_new, x_new, mask, options, h)
    got = _unknown_error_ratios(method, order, history, t_new, x_new, rows, options, h)
    if case in ("cold", "no-voltages") or (case == "post-breakpoint" and order == 2):
        assert expected is None and got is None
    else:
        assert _bits(got) == _bits(expected)
    verdict_of = ensemble_lte_verdict if tail else lte_verdict
    verdict = verdict_of(method, order, history, t_new, x_new, rows, options, h_solve=h)
    assert verdict == verdict_of(
        method, order, history, t_new, x_new, mask, options, h_solve=h
    )
    assert verdict.estimated == (expected is not None)
    if expected is not None:
        assert verdict.error_ratio == float(expected.max())
        if tail:
            assert _bits(verdict.ratios) == _bits(expected.max(axis=0))


def test_divided_difference_and_extrapolation_leave_inputs_alone():
    rng = np.random.default_rng(5)
    for count in (1, 2, 3, 4):
        xs = [rng.normal(size=(5, 2)) for _ in range(count)]
        before = [x.copy() for x in xs]
        points = [(1e-9 * (k + 1), x) for k, x in enumerate(xs)]
        predicted = neville_extrapolate(points, 7e-9)
        assert all(predicted is not x for x in xs)
        if count > 1:
            divided_difference(points)
        for x, kept in zip(xs, before):
            assert _bits(x) == _bits(kept)


# -- flat ensemble scatters ----------------------------------------------------


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("values", ["full", "column", "scalar"])
def test_flat_scatter_is_bit_equal_to_2d_add_at(order, values):
    rng = np.random.default_rng(17)
    rows, sims, m = 9, 8, 30
    index = rng.integers(0, rows, m)  # repeats on purpose
    vals = {
        "full": rng.normal(size=(m, sims)),
        "column": np.broadcast_to(rng.normal(size=(m, 1)), (m, sims)),
        "scalar": 0.37,
    }[values]
    base = rng.normal(size=(rows, sims))
    target = np.array(base, order=order)
    expected = np.array(base, order=order)
    np.add.at(expected, index, vals)
    flat = target.reshape(-1) if order == "C" else target.T.reshape(-1)
    assert np.shares_memory(flat, target)
    at = flat_index(index, sims) if order == "C" else flat_index(index, sims, rows=rows)
    np.add.at(flat, at, vals if np.isscalar(vals) else np.reshape(vals, -1))
    assert _bits(target) == _bits(expected)


def test_bank_scatter_add_matches_2d_add_at():
    rng = np.random.default_rng(2)
    index = np.array([3, 1, 3, 0, 2])
    levels = rng.normal(size=5)
    for sims in (None, 3):
        target = np.zeros((4,) if sims is None else (4, sims))
        expected = target.copy()
        vals = lift_sims(levels, sims)
        np.add.at(expected, index, vals)
        at = index if sims is None else flat_index(index, sims)
        scatter_add(target, at, vals)
        assert _bits(target) == _bits(expected)


@pytest.mark.parametrize("name", ["ring5", "rcladder20", "powergrid6x6"])
def test_block_assembly_matches_2d_scatter(name):
    """The block workspace's flat scatter equals the same pattern scatter
    through 2-D ``add.at`` (dense and sparse patterns)."""
    bench = BENCHMARKS[name]
    _, system = _systems(bench.build(), bench.options)
    rng = np.random.default_rng(8)
    out = system.make_buffers()
    system.eval(rng.uniform(-1.0, 1.0, (system.n, system.sims)), 1e-9, out)
    matrices = system.jacobian(out, 1e9)
    pattern = system.pattern
    rows = pattern.size**2 if pattern.dense else pattern.nnz
    data = np.zeros((rows + 1, system.sims))
    pattern.scatter(
        data, out.g_vals, out.c_vals, 1e9, system.gshunt, pattern.maps(pattern.dense)
    )
    for k, matrix in enumerate(matrices):
        got = matrix.ravel(order="F") if pattern.dense else matrix.data
        assert _bits(got) == _bits(data[:rows, k])
