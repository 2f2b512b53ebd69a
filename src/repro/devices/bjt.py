"""Ebers–Moll BJT bank (transport formulation with Early effect).

Currents (NPN, sign-flipped for PNP like the MOSFET bank):

    i_f  = IS*(exp(vbe/VT) - 1)         forward transport component
    i_r  = IS*(exp(vbc/VT) - 1)         reverse transport component
    I_C  = (i_f - i_r)*(1 - vbc/VAF) - i_r/BR
    I_B  = i_f/BF + i_r/BR
    I_E  = -(I_C + I_B)

Charge model: constant junction capacitances ``cje`` (B-E) and ``cjc``
(B-C) plus forward diffusion charge ``tf * i_f`` (voltage-dependent, so the
B-E C-stream entry is nonlinear). gmin is added across both junctions.

Newton limiting reuses the diode ``pnjlim`` on both junction voltages.
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import (
    VT,
    DeviceBank,
    EvalOutputs,
    safe_exp,
    scatter_add,
    stamp_values,
)
from repro.devices.diode import pnjlim
from repro.mna.pattern import PatternBuilder


class BjtBank(DeviceBank):
    """All bipolar transistors (both polarities)."""

    work_weight = 2.0
    supports_ensemble = True
    nonlinear = True
    ensemble_params = (
        "sign",
        "isat",
        "bf",
        "br",
        "inv_vaf",
        "cje",
        "cjc",
        "tf",
        "vt",
        "vcrit",
    )

    def __init__(self, names, c_idx, b_idx, e_idx, models, areas, gmin):
        super().__init__(names)
        self.c = np.asarray(c_idx, dtype=np.int64)
        self.b = np.asarray(b_idx, dtype=np.int64)
        self.e = np.asarray(e_idx, dtype=np.int64)
        areas = np.asarray(areas, dtype=float)
        self.sign = np.array([1.0 if m.polarity == "npn" else -1.0 for m in models])
        self.isat = np.array([m.is_ for m in models]) * areas
        self.bf = np.array([m.bf for m in models])
        self.br = np.array([m.br for m in models])
        self.inv_vaf = np.array(
            [0.0 if np.isinf(m.vaf) else 1.0 / m.vaf for m in models]
        )
        self.cje = np.array([m.cje for m in models]) * areas
        self.cjc = np.array([m.cjc for m in models]) * areas
        self.tf = np.array([m.tf for m in models])
        self.gmin = gmin
        self.vt = np.full(self.count, VT)
        self.vcrit = self.vt * np.log(self.vt / (np.sqrt(2.0) * self.isat))
        # One gather per evaluation: rows vb, ve, vc.
        self._bec = np.stack([self.b, self.e, self.c])
        self._g_slots = None
        self._c_slots = None
        self.derive()

    def derive(self) -> None:
        self._neg_sign = -self.sign
        self._f_at = self.scatter_index(self.c, self.b, self.e)
        self._q_at = self.scatter_index(self.b, self.e, self.c)

    def register(self, builder: PatternBuilder) -> None:
        c, b, e = self.c, self.b, self.e
        # Dense 3x3 coupling block per device (rows/cols over c, b, e).
        rows = np.stack([c, c, c, b, b, b, e, e, e], axis=1).ravel()
        cols = np.stack([c, b, e, c, b, e, c, b, e], axis=1).ravel()
        self._g_slots = builder.add_g_entries(rows, cols)
        self._c_slots = builder.add_c_entries(rows, cols)

    def write_static_stamps(self, g_vals, c_vals) -> None:
        # C-stream over the 3x3 (c, b, e) block: the constant B-C junction
        # capacitance entries. The four entries carrying the B-E
        # capacitance (voltage-dependent through tf) are written by eval.
        zeros = np.zeros(self.count)
        c_vals[self._c_slots.slice] = stamp_values(
            self.cjc,  # dQc/dVc = -p*cjc*d vbc/dVc = -p*cjc*(-p) = cjc
            -self.cjc,  # dQc/dVb
            zeros,  # dQc/dVe
            -self.cjc,  # dQb/dVc
            zeros,  # dQb/dVb (varying)
            zeros,  # dQb/dVe (varying)
            zeros,  # dQe/dVc
            zeros,  # dQe/dVb (varying)
            zeros,  # dQe/dVe (varying)
            sims=self.sims,
        )

    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        p = self.sign
        vj, currents, dej = self._junctions(x_full)
        vbe, vbc = vj[0], vj[1]
        i_f, i_r = currents[0], currents[1]
        slopes = self.isat * dej / self.vt  # d i_f / d vbe, d i_r / d vbc
        gf, gr = slopes[0], slopes[1]

        early = 1.0 - vbc * self.inv_vaf
        i_t = i_f - i_r
        ir_br = i_r / self.br
        gr_br = gr / self.br
        ic = i_t * early - ir_br + self.gmin * (vbe - vbc)
        ib = i_f / self.bf + ir_br + self.gmin * vbe

        # Partials in (vbe, vbc) space; d ic / d vbc is exactly -g_cc.
        dic_dvbe = gf * early + self.gmin
        dib_dvbe = gf / self.bf + self.gmin
        g_cc = gr * early + i_t * self.inv_vaf + gr_br + self.gmin

        # Real node currents: I_C into collector, I_B into base, I_E = -(I_C+I_B).
        i_c_real = p * ic
        i_b_real = p * ib
        i_e_real = -(i_c_real + i_b_real)
        scatter_add(out.f, self._f_at, np.concatenate([i_c_real, i_b_real, i_e_real]))

        # Chain rule: vbe = p*(Vb - Ve), vbc = p*(Vb - Vc); p cancels in G.
        # Rows of the 3x3 block are (c, b, e); the emitter row is minus
        # the sum of the other two (KCL).
        g = self.stamp_view(out.g_vals, self._g_slots, 9)
        g[:, 0] = g_cc
        g[:, 1] = dic_dvbe - g_cc
        g[:, 2] = -dic_dvbe
        g[:, 3] = -gr_br
        g[:, 4] = dib_dvbe + gr_br
        g[:, 5] = -dib_dvbe
        g[:, 6:] = -(g[:, :3] + g[:, 3:6])

        self._scatter_charges(vbe, vbc, i_f, out)
        c_be = self.cje + self.tf * gf
        c = self.stamp_view(out.c_vals, self._c_slots, 9)
        c[:, 4] = c_be + self.cjc  # dQb/dVb
        c[:, 5] = c[:, 7] = -c_be  # dQb/dVe, dQe/dVb
        c[:, 8] = c_be  # dQe/dVe

    def charge(self, x_full: np.ndarray, out: EvalOutputs) -> None:
        vj, currents, _ = self._junctions(x_full)
        self._scatter_charges(vj[0], vj[1], currents[0], out)

    def _junctions(self, x_full: np.ndarray):
        """Both junctions at once: rows (vbe, vbc) of the device-space
        voltages, of the transport currents (i_f, i_r) and of the
        exponentials' slopes."""
        v = x_full[self._bec]
        vj = self.sign * (v[0] - v[1:])
        ej, dej = safe_exp(vj / self.vt)
        return vj, self.isat * (ej - 1.0), dej

    def _scatter_charges(self, vbe, vbc, i_f, out: EvalOutputs) -> None:
        """Charges q_be on B-E, q_bc on B-C (device space), real sign p,
        into rows (b, e, c)."""
        q_be = self.cje * vbe + self.tf * i_f
        q_bc = self.cjc * vbc
        charges = [self.sign * (q_be + q_bc), self._neg_sign * q_be, self._neg_sign * q_bc]
        scatter_add(out.q, self._q_at, np.concatenate(charges))

    def limit(
        self,
        x_proposed: np.ndarray,
        x_previous: np.ndarray,
        changed_cols: np.ndarray | None = None,
    ) -> bool:
        changed_any = False
        for plus, minus in ((self.b, self.e), (self.b, self.c)):
            p = self.sign
            vnew = p * (x_proposed[plus] - x_proposed[minus])
            vold = p * (x_previous[plus] - x_previous[minus])
            vlim, changed = pnjlim(vnew, vold, self.vt, self.vcrit)
            if changed.any():
                changed_any = True
                if changed_cols is not None and changed.ndim == 2:
                    changed_cols |= changed.any(axis=0)
                delta = p * (vlim - vnew)
                trash = x_proposed.shape[0] - 1
                for pos in zip(*np.nonzero(changed)):
                    i = pos[0]
                    if plus[i] != trash:
                        x_proposed[(plus[i], *pos[1:])] += delta[pos]
                    else:
                        x_proposed[(minus[i], *pos[1:])] -= delta[pos]
        return changed_any
