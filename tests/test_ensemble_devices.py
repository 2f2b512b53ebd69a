"""Per-bank scalar-vs-ensemble equivalence (the shape contract in action).

Every bank in ``devices/`` must produce bit-identical residuals, charges
and Jacobian slot values whether evaluated on the scalar path (1-D
buffers, ``sims=None``) or through an ensemble system with ``sims=1``.
For K>1 each column of the batched buffers must match the scalar
evaluation of that variant's own compiled circuit, bit for bit — the
trailing sims axis re-orders no arithmetic, it only widens it.
"""

import inspect

import numpy as np
import pytest

from repro.circuit.circuit import Circuit
from repro.circuit.components import Resistor
from repro.circuit.sources import Dc, Sin
from repro.devices.base import DeviceBank, EvalOutputs, lift_sims, stamp_values
from repro.errors import SimulationError
from repro.jobs.spec import apply_params, jitterable_params
from repro.mna.compiler import compile_circuit
from repro.mna.ensemble import compile_ensemble
from repro.mna.system import MnaSystem


def linear_rc():
    c = Circuit("rc")
    c.add_vsource("V1", "in", "0", Sin(0.0, 1.0, 1e6))
    c.add_resistor("R1", "in", "out", 1e3)
    c.add_capacitor("C1", "out", "0", 1e-9)
    return c


def inductive():
    c = Circuit("ind")
    c.add_isource("I1", "a", "0", Dc(1e-3))
    c.add_inductor("L1", "a", "b", 1e-6)
    c.add_inductor("L2", "b", "0", 2e-6)
    c.add_mutual("K1", "L1", "L2", 0.5)
    c.add_resistor("R1", "b", "0", 50.0)
    return c


def controlled():
    c = Circuit("ctrl")
    c.add_vsource("V1", "in", "0", Dc(1.0))
    c.add_resistor("R1", "in", "a", 1e3)
    c.add_vcvs("E1", "b", "0", "a", "0", 2.0)
    c.add_vccs("G1", "c", "0", "a", "0", 1e-3)
    c.add_cccs("F1", "d", "0", "V1", 0.5)
    c.add_ccvs("H1", "e", "0", "V1", 100.0)
    for node in "bcde":
        c.add_resistor(f"RL{node}", node, "0", 1e3)
    return c


def diode_circuit():
    c = Circuit("diode")
    c.add_vsource("V1", "in", "0", Sin(0.0, 2.0, 1e6))
    c.add_resistor("R1", "in", "a", 1e3)
    c.add_diode("D1", "a", "0")
    return c


def bjt_circuit():
    c = Circuit("bjt")
    c.add_vsource("VCC", "vcc", "0", Dc(5.0))
    c.add_vsource("VB", "b", "0", Dc(0.7))
    c.add_bjt("Q1", "vcc", "b", "e")
    c.add_resistor("RE", "e", "0", 1e3)
    return c


def mosfet_circuit():
    c = Circuit("mos")
    c.add_vsource("VDD", "vdd", "0", Dc(3.0))
    c.add_vsource("VG", "g", "0", Dc(1.5))
    c.add_resistor("RD", "vdd", "d", 1e3)
    c.add_mosfet("M1", "d", "g", "0", "0")
    return c


ALL_CIRCUITS = [
    linear_rc,
    inductive,
    controlled,
    diode_circuit,
    bjt_circuit,
    mosfet_circuit,
]


def probe_x(n, seed):
    """A deterministic, modestly-scaled unknown vector."""
    rng = np.random.default_rng(seed)
    return 0.5 * rng.standard_normal(n)


def assert_columns_match(ens_out, scalar_outs, n):
    """Every ensemble column bitwise equals its scalar counterpart."""
    for k, out_s in enumerate(scalar_outs):
        assert np.array_equal(ens_out.f[:, k], out_s.f)
        assert np.array_equal(ens_out.q[:, k], out_s.q)
        assert np.array_equal(ens_out.s[:, k], out_s.s)
        assert np.array_equal(ens_out.g_vals[:, k], out_s.g_vals)
        assert np.array_equal(ens_out.c_vals[:, k], out_s.c_vals)


@pytest.mark.parametrize("make", ALL_CIRCUITS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("t", [0.0, 0.3e-6])
def test_k1_ensemble_bit_identical(make, t):
    circuit = make()
    scalar = MnaSystem(compile_circuit(circuit))
    out_s = scalar.make_buffers()
    x = probe_x(scalar.n, seed=1)
    scalar.eval(x, t, out_s)

    ens = compile_ensemble([circuit])
    assert ens.sims == 1
    out_e = ens.system.make_buffers()
    ens.system.eval(x[:, None], t, out_e)
    assert_columns_match(out_e, [out_s], scalar.n)


@pytest.mark.parametrize("make", ALL_CIRCUITS, ids=lambda f: f.__name__)
def test_k3_columns_match_their_variants(make, t=0.2e-6):
    """Jittered variants: column k bitwise equals variant k's scalar eval."""
    base = make()
    nominal = jitterable_params(base)
    rng = np.random.default_rng(7)
    variants = []
    for _ in range(3):
        overrides = {
            name: float(value * rng.lognormal(0.0, 0.05))
            for name, value in sorted(nominal.items())
        }
        variants.append(apply_params(base, overrides) if overrides else base)

    scalar_outs = []
    x = None
    for circuit in variants:
        system = MnaSystem(compile_circuit(circuit))
        if x is None:
            x = probe_x(system.n, seed=2)
        out = system.make_buffers()
        system.eval(x, t, out)
        scalar_outs.append(out)

    ens = compile_ensemble(variants)
    assert ens.sims == 3
    out_e = ens.system.make_buffers()
    ens.system.eval(np.repeat(x[:, None], 3, axis=1), t, out_e)
    assert_columns_match(out_e, scalar_outs, len(x))


@pytest.mark.parametrize("make", ALL_CIRCUITS, ids=lambda f: f.__name__)
def test_buffers_reseed_and_assemble_in_place(make):
    """The one buffer path, scalar and K=2: constant stamps survive
    re-evaluation, and in-place assembly equals the retained-matrix one."""
    circuit = make()
    a0 = 2.0e6
    for system in (
        MnaSystem(compile_circuit(circuit)),
        compile_ensemble([circuit, circuit]).system,
    ):
        def lifted(x):
            return x if system.sims is None else np.repeat(x[:, None], 2, axis=1)

        x1 = lifted(probe_x(system.n, seed=3))
        x2 = lifted(probe_x(system.n, seed=4))

        # A reset() that forgets to reseed, or a bank that accumulates into
        # its slots, shows up as a second eval differing from a first one.
        reused = system.make_buffers()
        system.eval(x1, 0.1e-6, reused)
        system.eval(x2, 0.2e-6, reused)
        fresh = system.make_buffers()
        system.eval(x2, 0.2e-6, fresh)
        for name in ("f", "q", "s", "g_vals", "c_vals"):
            assert np.array_equal(getattr(reused, name), getattr(fresh, name)), name

        # Charge-only evaluations never build a matrix.
        assert reused.workspace is None and fresh.workspace is None

        jac = system.jacobian(reused, a0)
        assert reused.workspace is not None
        columns = [(jac, reused.g_vals, reused.c_vals)] if system.sims is None else [
            (jac[k], reused.g_vals[:, k], reused.c_vals[:, k]) for k in range(2)
        ]
        for matrix, g_vals, c_vals in columns:
            retained = system.pattern.assemble(
                g_vals, c_vals, a0, diag_shift=system.gshunt
            )
            # Dense-size systems: a Fortran (n, n) array, no sparse container.
            assert isinstance(matrix, np.ndarray) and matrix.flags.f_contiguous
            assert np.array_equal(matrix, retained.toarray())
        assert system.jacobian(reused, a0) is jac  # aliased, not rebuilt


def test_ensemble_bank_constants_follow_the_stacked_parameters():
    """Constants a bank precomputes are re-derived after `_ensemble_bank`
    stacks the parameters: a K=3 bank must not evaluate with variant 0's."""
    base = mosfet_circuit()
    variants = [
        apply_params(base, {name: value * factor for name, value in
                            sorted(jitterable_params(base).items())})
        for factor in (1.0, 1.07, 0.94)
    ]
    ens = compile_ensemble(variants).system
    bank = next(b for b in ens.compiled.banks if type(b).__name__ == "MosfetBank")
    assert bank._half_beta.shape == bank.beta.shape == (bank.count, 3)
    assert np.array_equal(bank._half_beta, 0.5 * bank.beta)
    assert not np.array_equal(bank._half_beta[:, 0], bank._half_beta[:, 1])


@pytest.mark.parametrize("make", [linear_rc, inductive], ids=lambda f: f.__name__)
def test_source_injection_is_cached_per_buffer_set_and_scale(make):
    """`s(t)` is rebuilt when t or a source bank's scale changes (DC source
    stepping re-solves t=0 at scales 0..1) and never leaks between sets."""
    system = MnaSystem(compile_circuit(make()))
    bank = system.compiled.vsource_bank or system.compiled.isource_bank
    x = probe_x(system.n, seed=5)
    t = 0.25e-6
    shared, other = system.make_buffers(), system.make_buffers()
    try:
        for scale in (0.1, 0.5, 0.5, 1.0):
            bank.scale = scale
            system.eval(x, t, shared)
            fresh = system.make_buffers()
            system.eval(x, t, fresh)
            assert np.array_equal(shared.s, fresh.s), scale
            assert shared.s.any()
    finally:
        bank.scale = 1.0
    system.eval(x, t, shared)
    assert not shared.inject  # same (t, scale) as the evaluation before: kept
    assert not other.s.any()  # a set that never evaluated holds no injection
    system.eval(x, 2 * t, shared)
    fresh = system.make_buffers()
    system.eval(x, 2 * t, fresh)
    assert np.array_equal(shared.s, fresh.s)


def test_make_buffers_takes_no_argument():
    assert list(inspect.signature(MnaSystem.make_buffers).parameters) == ["self"]


def test_every_bank_opts_into_ensembles():
    """All shipped banks advertise ensemble support.

    This is the inventory check behind the per-circuit tests above: a
    new bank type that forgets the trailing-sims contract must flip
    this test (or implement the contract and extend the circuits list).
    """
    seen = set()
    for make in ALL_CIRCUITS:
        for bank in compile_circuit(make()).banks:
            seen.add(type(bank))
            assert bank.supports_ensemble, type(bank).__name__
            bank.ensure_ensemble(4)  # must not raise
    assert len(seen) >= 10  # R, C, L, mutual, V, I, E, G, F, H, D, Q, M


def test_ensure_ensemble_rejects_unsupporting_bank():
    class ScalarOnlyBank(DeviceBank):
        supports_ensemble = False

        def __init__(self):
            self.count = 1
            self.names = ("X1",)

        def register(self, pattern):  # pragma: no cover - never stamped
            pass

        def eval(self, x, t, out):  # pragma: no cover - never evaluated
            pass

    bank = ScalarOnlyBank()
    bank.ensure_ensemble(1)  # K=1 is always fine
    with pytest.raises(SimulationError, match="supports_ensemble"):
        bank.ensure_ensemble(2)


class TestShapeHelpers:
    def test_stamp_values_lifts_scalar_parts(self):
        # device-major interleave, 1-D parts broadcast across sims
        a = np.array([1.0, 2.0])
        b = np.array([[10.0, 20.0], [30.0, 40.0]])
        out = stamp_values(a, b, sims=2)
        assert out.shape == (4, 2)
        assert np.array_equal(out[0], [1.0, 1.0])
        assert np.array_equal(out[1], [10.0, 20.0])
        assert np.array_equal(out[2], [2.0, 2.0])
        assert np.array_equal(out[3], [30.0, 40.0])

    def test_stamp_values_scalar_mode(self):
        out = stamp_values(np.array([1.0, 2.0]), np.array([3.0, 4.0]), sims=None)
        assert np.array_equal(out, [1.0, 3.0, 2.0, 4.0])

    def test_lift_sims(self):
        v = np.array([1.0, 2.0])
        assert lift_sims(v, None) is v
        lifted = lift_sims(v, 3)
        assert lifted.shape == (2, 3)
        assert np.array_equal(lifted[:, 0], v)

    def test_eval_outputs_shapes(self):
        scalar = EvalOutputs(4, np.zeros(6), np.zeros(2))
        assert scalar.f.shape == (5,)
        assert scalar.g_vals.shape == (6,)
        batched = EvalOutputs(4, np.zeros((6, 3)), np.zeros((2, 3)), sims=3)
        assert batched.f.shape == (5, 3)
        assert batched.g_vals.shape == (6, 3)
        assert batched.c_vals.shape == (2, 3)


def test_topology_mismatch_rejected():
    a = linear_rc()
    b = linear_rc()
    b.add_resistor("R2", "out", "0", 1e3)
    with pytest.raises(SimulationError, match="identical topology"):
        compile_ensemble([a, b])


def test_apply_params_preserves_topology():
    base = diode_circuit()
    jittered = apply_params(base, {"R1": 1.1e3})
    comp = compile_ensemble([base, jittered])
    assert comp.sims == 2
    # the jitter landed in the stacked parameter column, not the topology
    r_bank = next(
        b for b in comp.system.compiled.banks if "R1" in getattr(b, "names", [])
    )
    assert r_bank.g.shape == (1, 2)
    assert r_bank.g[0, 0] != r_bank.g[0, 1]
    assert isinstance(base.components[1], Resistor)
