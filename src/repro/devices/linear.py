"""Linear passive device banks: resistors, capacitors, inductors.

Stamp conventions (MNA, residual form ``f(x) + dq(x)/dt + s(t) = 0``):

* Resistor between nodes a, b: current leaving a is ``g*(va - vb)``;
  contributes to ``f`` and the G-stream Jacobian.
* Capacitor: charge ``C*(va - vb)`` accumulated into ``q`` with the same
  4-entry pattern in the C-stream.
* Inductor: adds a branch-current unknown ``j``. KCL rows get ``+-x[j]``;
  the branch row enforces ``va - vb - L*dj/dt = 0`` via ``f[j] = va - vb``
  and ``q[j] = -L * x[j]``.
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import (
    DeviceBank,
    EvalOutputs,
    scatter_add,
    stamp_values,
    two_terminal_conductance_pattern,
    two_terminal_values,
)
from repro.mna.pattern import PatternBuilder


class ResistorBank(DeviceBank):
    """All linear resistors, parameterised by conductance."""

    work_weight = 0.25
    supports_ensemble = True
    ensemble_params = ("g",)

    def __init__(self, names, a_idx, b_idx, resistances):
        super().__init__(names)
        self.a = np.asarray(a_idx, dtype=np.int64)
        self.b = np.asarray(b_idx, dtype=np.int64)
        self.g = 1.0 / np.asarray(resistances, dtype=float)
        self._slots = None
        self.derive()

    def derive(self) -> None:
        self._f_at = self.scatter_index(self.a, self.b)

    def register(self, builder: PatternBuilder) -> None:
        rows, cols = two_terminal_conductance_pattern(self.a, self.b)
        self._slots = builder.add_g_entries(rows, cols)

    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        v = x_full[self.a] - x_full[self.b]
        current = self.g * v
        scatter_add(out.f, self._f_at, np.concatenate([current, -current]))

    def write_static_stamps(self, g_vals, c_vals) -> None:
        g_vals[self._slots.slice] = two_terminal_values(self.g)


class CapacitorBank(DeviceBank):
    """All linear capacitors; contributes charge, not resistive current."""

    work_weight = 0.25
    supports_ensemble = True
    ensemble_params = ("c",)

    def __init__(self, names, a_idx, b_idx, capacitances):
        super().__init__(names)
        self.a = np.asarray(a_idx, dtype=np.int64)
        self.b = np.asarray(b_idx, dtype=np.int64)
        self.c = np.asarray(capacitances, dtype=float)
        self._slots = None
        self.derive()

    def derive(self) -> None:
        self._q_at = self.scatter_index(self.a, self.b)

    def register(self, builder: PatternBuilder) -> None:
        rows, cols = two_terminal_conductance_pattern(self.a, self.b)
        self._slots = builder.add_c_entries(rows, cols)

    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        self.charge(x_full, out)

    def charge(self, x_full: np.ndarray, out: EvalOutputs) -> None:
        v = x_full[self.a] - x_full[self.b]
        charge = self.c * v
        scatter_add(out.q, self._q_at, np.concatenate([charge, -charge]))

    def write_static_stamps(self, g_vals, c_vals) -> None:
        c_vals[self._slots.slice] = two_terminal_values(self.c)


class MutualInductanceBank(DeviceBank):
    """Magnetic couplings between inductor pairs (SPICE ``K`` elements).

    Adds the off-diagonal flux terms: the branch equation of inductor 1
    gains ``-M * dj2/dt`` and vice versa, i.e. ``q[j1] -= M * x[j2]`` and
    the symmetric C-stream entries ``(j1, j2) = (j2, j1) = -M``.
    """

    work_weight = 0.25
    supports_ensemble = True
    ensemble_params = ("m",)

    def __init__(self, names, j1_idx, j2_idx, mutuals):
        super().__init__(names)
        self.j1 = np.asarray(j1_idx, dtype=np.int64)
        self.j2 = np.asarray(j2_idx, dtype=np.int64)
        self.m = np.asarray(mutuals, dtype=float)
        self._c_slots = None
        self.derive()

    def derive(self) -> None:
        self._q_at = self.scatter_index(self.j1, self.j2)

    def register(self, builder: PatternBuilder) -> None:
        rows = np.stack([self.j1, self.j2], axis=1).ravel()
        cols = np.stack([self.j2, self.j1], axis=1).ravel()
        self._c_slots = builder.add_c_entries(rows, cols)

    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        self.charge(x_full, out)

    def charge(self, x_full: np.ndarray, out: EvalOutputs) -> None:
        flux = np.concatenate([-self.m * x_full[self.j2], -self.m * x_full[self.j1]])
        scatter_add(out.q, self._q_at, flux)

    def write_static_stamps(self, g_vals, c_vals) -> None:
        c_vals[self._c_slots.slice] = stamp_values(-self.m, -self.m, sims=self.sims)


class InductorBank(DeviceBank):
    """All linear inductors, each owning one branch-current unknown."""

    work_weight = 0.25
    supports_ensemble = True
    ensemble_params = ("l",)

    def __init__(self, names, a_idx, b_idx, branch_idx, inductances):
        super().__init__(names)
        self.a = np.asarray(a_idx, dtype=np.int64)
        self.b = np.asarray(b_idx, dtype=np.int64)
        self.j = np.asarray(branch_idx, dtype=np.int64)
        self.l = np.asarray(inductances, dtype=float)
        self._g_slots = None
        self._c_slots = None
        self.derive()

    def derive(self) -> None:
        self._f_at = self.scatter_index(self.a, self.b, self.j)
        self._q_at = self.scatter_index(self.j)

    def register(self, builder: PatternBuilder) -> None:
        a, b, j = self.a, self.b, self.j
        rows = np.stack([a, b, j, j], axis=1).ravel()
        cols = np.stack([j, j, a, b], axis=1).ravel()
        self._g_slots = builder.add_g_entries(rows, cols)
        self._c_slots = builder.add_c_entries(j, j)

    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        current = x_full[self.j]
        branch = x_full[self.a] - x_full[self.b]
        scatter_add(out.f, self._f_at, np.concatenate([current, -current, branch]))
        self.charge(x_full, out)

    def charge(self, x_full: np.ndarray, out: EvalOutputs) -> None:
        scatter_add(out.q, self._q_at, -self.l * x_full[self.j])

    def write_static_stamps(self, g_vals, c_vals) -> None:
        ones = np.ones(self.count)
        g_vals[self._g_slots.slice] = stamp_values(
            ones, -ones, ones, -ones, sims=self.sims
        )
        c_vals[self._c_slots.slice] = -self.l
