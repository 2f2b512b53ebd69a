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
        self._g_slots = None
        self._c_slots = None

    def register(self, builder: PatternBuilder) -> None:
        c, b, e = self.c, self.b, self.e
        # Dense 3x3 coupling block per device (rows/cols over c, b, e).
        rows = np.stack([c, c, c, b, b, b, e, e, e], axis=1).ravel()
        cols = np.stack([c, b, e, c, b, e, c, b, e], axis=1).ravel()
        self._g_slots = builder.add_g_entries(rows, cols)
        self._c_slots = builder.add_c_entries(rows, cols)

    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        p = self.sign
        vbe = p * (x_full[self.b] - x_full[self.e])
        vbc = p * (x_full[self.b] - x_full[self.c])

        ef, def_ = safe_exp(vbe / self.vt)
        er, der = safe_exp(vbc / self.vt)
        i_f = self.isat * (ef - 1.0)
        i_r = self.isat * (er - 1.0)
        gf = self.isat * def_ / self.vt  # d i_f / d vbe
        gr = self.isat * der / self.vt  # d i_r / d vbc

        early = 1.0 - vbc * self.inv_vaf
        ic = (i_f - i_r) * early - i_r / self.br + self.gmin * (vbe - vbc)
        ib = i_f / self.bf + i_r / self.br + self.gmin * vbe

        # Partials in (vbe, vbc) space.
        dic_dvbe = gf * early + self.gmin
        dic_dvbc = -gr * early - (i_f - i_r) * self.inv_vaf - gr / self.br - self.gmin
        dib_dvbe = gf / self.bf + self.gmin
        dib_dvbc = gr / self.br

        # Real node currents: I_C into collector, I_B into base, I_E = -(I_C+I_B).
        i_c_real = p * ic
        i_b_real = p * ib
        np.add.at(out.f, self.c, i_c_real)
        np.add.at(out.f, self.b, i_b_real)
        np.add.at(out.f, self.e, -(i_c_real + i_b_real))

        # Chain rule: vbe = p*(Vb - Ve), vbc = p*(Vb - Vc); p cancels in G.
        g_cc = gr * early + (i_f - i_r) * self.inv_vaf + gr / self.br + self.gmin
        g_cb = dic_dvbe + dic_dvbc
        g_ce = -dic_dvbe
        g_bc = -dib_dvbc
        g_bb = dib_dvbe + dib_dvbc
        g_be = -dib_dvbe
        g_ec = -(g_cc + g_bc)
        g_eb = -(g_cb + g_bb)
        g_ee = -(g_ce + g_be)
        out.g_vals[self._g_slots.slice] = stamp_values(
            g_cc, g_cb, g_ce, g_bc, g_bb, g_be, g_ec, g_eb, g_ee, sims=self.sims
        )

        # Charges: q_be on B-E, q_bc on B-C (device space), real sign p.
        q_be = self.cje * vbe + self.tf * i_f
        q_bc = self.cjc * vbc
        c_be = self.cje + self.tf * gf
        c_bc = self.cjc
        np.add.at(out.q, self.b, p * (q_be + q_bc))
        np.add.at(out.q, self.e, -p * q_be)
        np.add.at(out.q, self.c, -p * q_bc)
        zeros = np.zeros(self.count)
        # C-stream over the same 3x3 (c, b, e) block:
        # dQc/d(c,b,e); dQb/...; dQe/...
        out.c_vals[self._c_slots.slice] = stamp_values(
            c_bc,  # dQc/dVc = -p*cjc*d vbc/dVc = -p*cjc*(-p) = cjc
            -c_bc,  # dQc/dVb
            zeros,  # dQc/dVe
            -c_bc,  # dQb/dVc
            c_be + c_bc,  # dQb/dVb
            -c_be,  # dQb/dVe
            zeros,  # dQe/dVc
            -c_be,  # dQe/dVb
            c_be,  # dQe/dVe
            sims=self.sims,
        )

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
