"""Level-1 (Shichman–Hodges) MOSFET bank.

DC model: square-law with channel-length modulation and optional body
effect; drain/source roles swap automatically when ``vds`` changes sign
(SPICE "mode" handling), and PMOS devices are evaluated in a sign-flipped
space so one code path serves both polarities.

Charge model (documented simplification, see DESIGN.md): gate charge is
stored on voltage-independent capacitances ``Cgs = Cgd = Cox*W*L/2`` plus
overlaps — this preserves circuit dynamics, loading and stiffness (what
WavePipe's time-stepping cares about) while keeping the Jacobian's C-stream
constant. The strong nonlinearity of the circuit remains in the DC
square-law current.

Convergence relies on the solver's global update damping rather than
per-device fetlim state: the square law is polynomial (no overflow), and
stateless evaluation is required so concurrent WavePipe tasks can share
banks safely.
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import DeviceBank, EvalOutputs, scatter_pair, stamp_values
from repro.mna.pattern import PatternBuilder


class MosfetBank(DeviceBank):
    """All level-1 MOSFETs (both polarities in one bank)."""

    work_weight = 2.0
    supports_ensemble = True
    nonlinear = True
    ensemble_params = ("sign", "vto", "beta", "lam", "gamma", "phi", "cgs", "cgd")

    def __init__(self, names, d_idx, g_idx, s_idx, b_idx, models, widths, lengths, gmin):
        super().__init__(names)
        self.d = np.asarray(d_idx, dtype=np.int64)
        self.g = np.asarray(g_idx, dtype=np.int64)
        self.s = np.asarray(s_idx, dtype=np.int64)
        self.b = np.asarray(b_idx, dtype=np.int64)
        widths = np.asarray(widths, dtype=float)
        lengths = np.asarray(lengths, dtype=float)
        self.sign = np.array([1.0 if m.polarity == "nmos" else -1.0 for m in models])
        self.vto = np.array([m.vto for m in models])
        self.beta = np.array([m.kp for m in models]) * widths / lengths
        self.lam = np.array([m.lambda_ for m in models])
        self.gamma = np.array([m.gamma for m in models])
        self.phi = np.array([m.phi for m in models])
        cox_total = np.array([m.cox for m in models]) * widths * lengths
        self.cgs = 0.5 * cox_total + np.array([m.cgso for m in models]) * widths
        self.cgd = 0.5 * cox_total + np.array([m.cgdo for m in models]) * widths
        self.gmin = gmin
        self._g_slots = None
        self._c_slots = None

    def register(self, builder: PatternBuilder) -> None:
        d, g, s, b = self.d, self.g, self.s, self.b
        # Channel current: rows (d, s) x cols (d, g, s, b), plus gmin d-s
        # handled inside the same 8 entries.
        rows = np.stack([d, d, d, d, s, s, s, s], axis=1).ravel()
        cols = np.stack([d, g, s, b, d, g, s, b], axis=1).ravel()
        self._g_slots = builder.add_g_entries(rows, cols)
        # Gate charge: rows (g, s, d) coupling to (g, s, d).
        c_rows = np.stack([g, g, g, s, s, d, d], axis=1).ravel()
        c_cols = np.stack([g, s, d, g, s, g, d], axis=1).ravel()
        self._c_slots = builder.add_c_entries(c_rows, c_cols)

    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        p = self.sign
        vd = x_full[self.d]
        vg = x_full[self.g]
        vs = x_full[self.s]
        vb = x_full[self.b]

        u_ds = p * (vd - vs)
        u_gs = p * (vg - vs)
        u_bs = p * (vb - vs)

        forward = u_ds >= 0.0
        # Effective (mode-resolved) branch voltages.
        e_ds = np.where(forward, u_ds, -u_ds)
        e_gs = np.where(forward, u_gs, u_gs - u_ds)
        e_bs = np.where(forward, u_bs, u_bs - u_ds)

        # Threshold with body effect (vbs clamped below phi for the sqrt).
        sqrt_arg = np.maximum(self.phi - e_bs, 1e-12)
        vth = self.vto + self.gamma * (np.sqrt(sqrt_arg) - np.sqrt(self.phi))
        dvth_dbs = -0.5 * self.gamma / np.sqrt(sqrt_arg)
        vov = e_gs - vth

        on = vov > 0.0
        linear = on & (e_ds < vov)
        clm = 1.0 + self.lam * e_ds

        # Saturation expressions (then overridden where linear / off).
        ids = 0.5 * self.beta * vov**2 * clm
        gm = self.beta * vov * clm
        gds = 0.5 * self.lam * self.beta * vov**2

        ids_lin = self.beta * (vov - 0.5 * e_ds) * e_ds * clm
        gm_lin = self.beta * e_ds * clm
        gds_lin = self.beta * (vov - e_ds) * clm + self.lam * self.beta * (
            vov - 0.5 * e_ds
        ) * e_ds

        ids = np.where(linear, ids_lin, ids)
        gm = np.where(linear, gm_lin, gm)
        gds = np.where(linear, gds_lin, gds)
        ids = np.where(on, ids, 0.0)
        gm = np.where(on, gm, 0.0)
        gds = np.where(on, gds, 0.0)
        gmb = gm * (-dvth_dbs)

        # Map effective-space conductances to real-node partials of the
        # drain current I_D (current entering the drain terminal).
        # Forward:  I_D = p*ids, partials (d,g,s,b) = (gds, gm, -(gm+gds+gmb), gmb)
        # Reverse:  I_D = -p*ids', partials = (gm+gds+gmb, -gm, -gds, -gmb)
        a_d = np.where(forward, gds, gm + gds + gmb)
        a_g = np.where(forward, gm, -gm)
        a_s = np.where(forward, -(gm + gds + gmb), -gds)
        a_b = np.where(forward, gmb, -gmb)
        i_drain = np.where(forward, p * ids, -p * ids)

        # gmin between drain and source keeps off devices well-conditioned.
        i_drain = i_drain + self.gmin * (vd - vs)
        a_d = a_d + self.gmin
        a_s = a_s - self.gmin

        scatter_pair(out.f, self.d, self.s, i_drain)
        out.g_vals[self._g_slots.slice] = stamp_values(
            a_d, a_g, a_s, a_b, -a_d, -a_g, -a_s, -a_b, sims=self.sims
        )

        # Constant gate capacitances.
        q_gs = self.cgs * (vg - vs)
        q_gd = self.cgd * (vg - vd)
        np.add.at(out.q, self.g, q_gs + q_gd)
        np.add.at(out.q, self.s, -q_gs)
        np.add.at(out.q, self.d, -q_gd)
        out.c_vals[self._c_slots.slice] = stamp_values(
            self.cgs + self.cgd,
            -self.cgs,
            -self.cgd,
            -self.cgs,
            self.cgs,
            -self.cgd,
            self.cgd,
            sims=self.sims,
        )

    def operating_regions(self, x_full: np.ndarray) -> list[str]:
        """Human-readable region of each device ("off"/"linear"/"saturation").

        Diagnostic helper used by examples and tests.
        """
        p = self.sign
        u_ds = p * (x_full[self.d] - x_full[self.s])
        u_gs = p * (x_full[self.g] - x_full[self.s])
        e_ds = np.abs(u_ds)
        e_gs = np.where(u_ds >= 0, u_gs, u_gs - u_ds)
        vov = e_gs - self.vto
        labels = []
        for i in range(self.count):
            if vov[i] <= 0:
                labels.append("off")
            elif e_ds[i] < vov[i]:
                labels.append("linear")
            else:
                labels.append("saturation")
        return labels
