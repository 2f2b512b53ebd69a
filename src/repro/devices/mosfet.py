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

from repro.devices.base import DeviceBank, EvalOutputs, scatter_add, stamp_values
from repro.mna.pattern import PatternBuilder


#: Row order (s, g, d, b) of the (d, g, s, b) partials: a reversed device
#: exchanges its drain and source rows.
_SWAP_DS = np.array([2, 1, 0, 3])


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
        # One gather per evaluation; source first so the branch voltages
        # and the two gate-charge differences are contiguous row ranges.
        self._sdgb = np.stack([self.s, self.d, self.g, self.b])
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
        self.derive()

    def derive(self) -> None:
        # Products the square law repeats, grouped exactly as the
        # left-to-right expressions they replace (0.5*lam*beta*vov**2 is
        # ((0.5*lam)*beta)*vov**2), so results stay bit-equal.
        self._half_beta = 0.5 * self.beta
        self._lam_beta = self.lam * self.beta
        self._half_lam_beta = 0.5 * self.lam * self.beta
        self._half_gamma = 0.5 * self.gamma
        self._sqrt_phi = np.sqrt(self.phi)
        self._neg_sign = -self.sign
        # +gmin on the drain partial, -gmin on the source partial.
        self._gmin_ds = np.array([self.gmin, -self.gmin]).reshape(
            2, *[1] * self.sign.ndim
        )
        self._f_at = self.scatter_index(self.d, self.s)
        self._q_at = self.scatter_index(self.g, self.s, self.d)

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

    def write_static_stamps(self, g_vals, c_vals) -> None:
        # The gate capacitances are voltage-independent (module docstring),
        # so the whole C stream of this bank is constant.
        c_vals[self._c_slots.slice] = stamp_values(
            self.cgs + self.cgd,
            -self.cgs,
            -self.cgd,
            -self.cgs,
            self.cgs,
            -self.cgd,
            self.cgd,
            sims=self.sims,
        )

    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        v = x_full[self._sdgb]  # rows vs, vd, vg, vb
        to_source = v[1:] - v[0]  # rows vd-vs, vg-vs, vb-vs
        # Sign-flipped branch voltages u_ds, u_gs, u_bs, then resolved to
        # the effective (mode) voltages in place: a reversed device swaps
        # drain and source, so e_gs = u_gs - u_ds, e_bs = u_bs - u_ds and
        # e_ds = -u_ds.
        e = self.sign * to_source
        forward = e[0] >= 0.0
        reverse = ~forward
        np.subtract(e[1:], e[0], out=e[1:], where=reverse)
        np.negative(e[0], out=e[0], where=reverse)
        e_ds, e_gs, e_bs = e[0], e[1], e[2]

        # Threshold with body effect (vbs clamped below phi for the sqrt).
        root = np.sqrt(np.maximum(self.phi - e_bs, 1e-12))
        vov = e_gs - (self.vto + self.gamma * (root - self._sqrt_phi))
        on = vov > 0.0
        linear = on & (e_ds < vov)
        clm = 1.0 + self.lam * e_ds
        vov2 = vov**2

        # Rows gds, gm, ids: the saturation expressions, overridden where
        # linear and zeroed where off.
        ch = np.empty((3, *vov.shape))
        np.multiply(self._half_lam_beta, vov2, out=ch[0])
        np.multiply(self.beta * vov, clm, out=ch[1])
        np.multiply(self._half_beta * vov2, clm, out=ch[2])
        lin = np.empty_like(ch)
        mid = vov - 0.5 * e_ds
        np.add(
            self.beta * (vov - e_ds) * clm, self._lam_beta * mid * e_ds, out=lin[0]
        )
        np.multiply(self.beta * e_ds, clm, out=lin[1])
        np.multiply(self.beta * mid * e_ds, clm, out=lin[2])
        np.copyto(ch, lin, where=linear)
        np.copyto(ch, 0.0, where=~on)
        gds, gm, ids = ch[0], ch[1], ch[2]

        # Real-node partials of the drain current I_D (current entering
        # the drain terminal), rows (d, g, s, b):
        # Forward:  I_D = p*ids,   partials (gds, gm, -(gm+gds+gmb), gmb)
        # Reverse:  I_D = -p*ids', partials (gm+gds+gmb, -gm, -gds, -gmb)
        # i.e. the negated forward row with d and s exchanged.
        a = np.empty((4, *vov.shape))
        a[:2] = ch[:2]
        np.multiply(gm, self._half_gamma / root, out=a[3])  # gmb = gm * -dvth/dvbs
        total = gm + gds
        total += a[3]
        np.negative(total, out=a[2])
        np.copyto(a, (-a).take(_SWAP_DS, axis=0), where=reverse)
        i_drain = np.where(forward, self.sign, self._neg_sign) * ids

        # gmin between drain and source keeps off devices well-conditioned.
        i_drain += self.gmin * to_source[0]
        a[::2] += self._gmin_ds

        scatter_add(out.f, self._f_at, np.concatenate([i_drain, -i_drain]))
        stamps = self.stamp_view(out.g_vals, self._g_slots, 8)
        columns = a.swapaxes(0, 1)
        stamps[:, :4] = columns
        np.negative(columns, out=stamps[:, 4:])

        self._scatter_charges(v, out)

    def charge(self, x_full: np.ndarray, out: EvalOutputs) -> None:
        self._scatter_charges(x_full[self._sdgb[:3]], out)

    def _scatter_charges(self, v: np.ndarray, out: EvalOutputs) -> None:
        """Gate charges on the constant capacitances (static stamps), from
        the gathered rows ``vs, vd, vg``, into rows (g, s, d)."""
        q_gs = self.cgs * (v[2] - v[0])
        q_gd = self.cgd * (v[2] - v[1])
        scatter_add(out.q, self._q_at, np.concatenate([q_gs + q_gd, -q_gs, -q_gd]))

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
