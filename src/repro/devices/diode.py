"""Junction diode bank (Shockley model with depletion + diffusion charge).

Current: ``i = IS*(exp(vd/(n*VT)) - 1) + gmin*vd`` with an overflow-safe
exponential; the gmin term is the standard SPICE junction regularisation.

Charge: depletion capacitance integrated to a charge with the SPICE
forward-bias linearisation above ``fc*vj`` (keeps charge and capacitance
continuous), plus diffusion charge ``tt * i_junction``.

Newton limiting uses the classic SPICE ``pnjlim``: junction voltages are
pulled back onto a logarithmic trajectory once they exceed the critical
voltage, which is what makes exponential devices converge from bad initial
guesses.

Series resistance is not handled here: the compiler synthesises an internal
node and an explicit resistor when the model card has ``rs > 0``.
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import (
    VT,
    DeviceBank,
    EvalOutputs,
    safe_exp,
    scatter_add,
    two_terminal_conductance_pattern,
)
from repro.mna.pattern import PatternBuilder

#: Depletion-capacitance forward-bias linearisation knee (SPICE ``fc``).
FC = 0.5


def pnjlim(vnew: np.ndarray, vold: np.ndarray, vt: np.ndarray, vcrit: np.ndarray):
    """SPICE junction-voltage limiter (vectorised).

    Returns ``(vlimited, changed)`` where *changed* is a boolean mask of
    entries that were pulled back. Shapes follow the ensemble contract:
    all four inputs are ``(n_devices,)`` or all are ``(n_devices, K)``.
    """
    vnew = np.asarray(vnew, dtype=float).copy()
    vold = np.asarray(vold, dtype=float)
    hot = (vnew > vcrit) & (np.abs(vnew - vold) > 2.0 * vt)
    changed = np.zeros(vnew.shape, dtype=bool)
    if not hot.any():
        return vnew, changed

    for pos in zip(*np.nonzero(hot)):
        if vold[pos] > 0:
            arg = 1.0 + (vnew[pos] - vold[pos]) / vt[pos]
            if arg > 0:
                vnew[pos] = vold[pos] + vt[pos] * np.log(arg)
            else:
                vnew[pos] = vcrit[pos]
        else:
            vnew[pos] = vt[pos] * np.log(vnew[pos] / vt[pos])
        changed[pos] = True
    return vnew, changed


def depletion_charge(v: np.ndarray, cj0: np.ndarray, vj: np.ndarray, m: np.ndarray):
    """Depletion charge and capacitance with forward-bias linearisation.

    For ``v < FC*vj``:   q = cj0*vj/(1-m) * (1 - (1 - v/vj)^(1-m))
    For ``v >= FC*vj``:  capacitance continues linearly in v (SPICE).

    Returns ``(charge, capacitance)`` arrays.
    """
    v = np.asarray(v, dtype=float)
    knee = FC * vj
    below = v < knee
    one_m = 1.0 - m

    ratio = 1.0 - np.minimum(v, knee) / vj  # > 0 by construction
    q_below = cj0 * vj / one_m * (1.0 - ratio ** one_m)
    c_below = cj0 * ratio ** (-m)

    # Above the knee: c(v) = c_knee * (1 + m*(v - knee)/(vj*(1-FC)))
    c_knee = cj0 * (1.0 - FC) ** (-m)
    q_knee = cj0 * vj / one_m * (1.0 - (1.0 - FC) ** one_m)
    dv = v - knee
    slope = c_knee * m / (vj * (1.0 - FC))
    q_above = q_knee + c_knee * dv + 0.5 * slope * dv * dv
    c_above = c_knee + slope * dv

    np.copyto(q_above, q_below, where=below)
    np.copyto(c_above, c_below, where=below)
    return q_above, c_above


class DiodeBank(DeviceBank):
    """All junction diodes sharing the Shockley equations (per-instance params)."""

    work_weight = 1.0
    supports_ensemble = True
    nonlinear = True
    ensemble_params = ("isat", "n", "cj0", "vj", "m", "tt", "vt", "vcrit")

    def __init__(self, names, anode_idx, cathode_idx, models, areas, gmin: float):
        super().__init__(names)
        self.a = np.asarray(anode_idx, dtype=np.int64)
        self.b = np.asarray(cathode_idx, dtype=np.int64)
        self._ab = np.stack([self.a, self.b])  # one gather per evaluation
        areas = np.asarray(areas, dtype=float)
        self.isat = np.array([m.is_ for m in models]) * areas
        self.n = np.array([m.n for m in models])
        self.cj0 = np.array([m.cj0 for m in models]) * areas
        self.vj = np.array([m.vj for m in models])
        self.m = np.array([m.m for m in models])
        self.tt = np.array([m.tt for m in models])
        self.gmin = gmin
        self.vt = self.n * VT
        self.vcrit = self.vt * np.log(self.vt / (np.sqrt(2.0) * self.isat))
        self._g_slots = None
        self._c_slots = None
        self.derive()

    def derive(self) -> None:
        self._at = self.scatter_index(self.a, self.b)

    def register(self, builder: PatternBuilder) -> None:
        rows, cols = two_terminal_conductance_pattern(self.a, self.b)
        self._g_slots = builder.add_g_entries(rows, cols)
        self._c_slots = builder.add_c_entries(rows, cols)

    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        vd, i_junction, dexpo = self._junction(x_full)
        g_junction = self.isat * dexpo / self.vt

        current = i_junction + self.gmin * vd
        conductance = g_junction + self.gmin
        scatter_add(out.f, self._at, np.concatenate([current, -current]))
        self._stamp(out.g_vals, self._g_slots, conductance)

        c_dep = self._scatter_charge(vd, i_junction, out)
        cap = c_dep + self.tt * g_junction
        self._stamp(out.c_vals, self._c_slots, cap)

    def charge(self, x_full: np.ndarray, out: EvalOutputs) -> None:
        vd, i_junction, _ = self._junction(x_full)
        self._scatter_charge(vd, i_junction, out)

    def _junction(self, x_full: np.ndarray):
        """Junction voltage, junction current and the exponential's slope."""
        v = x_full[self._ab]
        vd = v[0] - v[1]
        expo, dexpo = safe_exp(vd / self.vt)
        return vd, self.isat * (expo - 1.0), dexpo

    def _scatter_charge(self, vd, i_junction, out: EvalOutputs) -> np.ndarray:
        """Accumulate depletion + diffusion charge; returns the depletion
        capacitance."""
        q_dep, c_dep = depletion_charge(vd, self.cj0, self.vj, self.m)
        charge = q_dep + self.tt * i_junction
        scatter_add(out.q, self._at, np.concatenate([charge, -charge]))
        return c_dep

    def _stamp(self, vals, slots, g) -> None:
        """The (+g, -g, -g, +g) stamp of each device, written column-wise."""
        view = self.stamp_view(vals, slots, 4)
        column = g[:, None]
        view[:, 0::3] = column
        view[:, 1:3] = -column

    def limit(
        self,
        x_proposed: np.ndarray,
        x_previous: np.ndarray,
        changed_cols: np.ndarray | None = None,
    ) -> bool:
        vnew = x_proposed[self.a] - x_proposed[self.b]
        vold = x_previous[self.a] - x_previous[self.b]
        vlim, changed = pnjlim(vnew, vold, self.vt, self.vcrit)
        if not changed.any():
            return False
        if changed_cols is not None and changed.ndim == 2:
            changed_cols |= changed.any(axis=0)
        # Apply the voltage correction across the junction symmetrically
        # (cathode side held, anode adjusted) unless the anode is ground.
        delta = vlim - vnew
        trash = out_of_range(x_proposed)
        for pos in zip(*np.nonzero(changed)):
            i = pos[0]
            ai, bi = self.a[i], self.b[i]
            if ai < trash:
                x_proposed[(ai, *pos[1:])] += delta[pos]
            else:
                x_proposed[(bi, *pos[1:])] -= delta[pos]
        return True


def out_of_range(x_full: np.ndarray) -> int:
    """Index of the trash/ground slot (last row) in a padded vector."""
    return x_full.shape[0] - 1
