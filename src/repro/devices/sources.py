"""Independent and controlled source banks.

Independent sources carry a :class:`~repro.circuit.sources.SourceWaveform`
each and a *scale* factor the DC source-stepping homotopy ramps from 0 to
1. Controlled sources (E/G/F/H) are linear and stamp constants.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.sources import SourceWaveform
from repro.devices.base import (
    DeviceBank,
    EvalOutputs,
    lift_sims,
    scatter_add,
    stamp_values,
)
from repro.mna.pattern import PatternBuilder


class VoltageSourceBank(DeviceBank):
    """Independent voltage sources, one branch-current unknown each.

    Rows: KCL at plus/minus get ``+-x[j]``; branch row enforces
    ``v_plus - v_minus - scale*V(t) = 0``.
    """

    work_weight = 0.5
    supports_ensemble = True

    def __init__(self, names, plus_idx, minus_idx, branch_idx, waveforms):
        super().__init__(names)
        self.p = np.asarray(plus_idx, dtype=np.int64)
        self.m = np.asarray(minus_idx, dtype=np.int64)
        self.j = np.asarray(branch_idx, dtype=np.int64)
        self.waveforms: list[SourceWaveform] = list(waveforms)
        #: Homotopy scale for DC source stepping; 1.0 in normal operation.
        self.scale = 1.0
        self._slots = None
        self.derive()

    def derive(self) -> None:
        self._f_at = self.scatter_index(self.p, self.m, self.j)
        self._s_at = self.scatter_index(self.j)

    def register(self, builder: PatternBuilder) -> None:
        p, m, j = self.p, self.m, self.j
        rows = np.stack([p, m, j, j], axis=1).ravel()
        cols = np.stack([j, j, p, m], axis=1).ravel()
        self._slots = builder.add_g_entries(rows, cols)

    def _levels(self, t: float) -> np.ndarray:
        return np.array([w.value(t) for w in self.waveforms])

    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        current = x_full[self.j]
        branch = x_full[self.p] - x_full[self.m]
        scatter_add(out.f, self._f_at, np.concatenate([current, -current, branch]))
        if out.inject:
            levels = -self.scale * self._levels(t)
            scatter_add(out.s, self._s_at, lift_sims(levels, self.sims))

    def write_static_stamps(self, g_vals, c_vals) -> None:
        # Only the source *injection* depends on time/scale; the branch
        # constraint rows are constant +-1 stamps.
        ones = np.ones(self.count)
        g_vals[self._slots.slice] = stamp_values(
            ones, -ones, ones, -ones, sims=self.sims
        )

    def branch_index(self, name: str) -> int:
        """MNA unknown index of the branch current of source *name*."""
        return int(self.j[self.names.index(name)])


class CurrentSourceBank(DeviceBank):
    """Independent current sources (SPICE convention: positive value flows
    from plus, through the source, out of minus)."""

    work_weight = 0.25
    supports_ensemble = True

    def __init__(self, names, plus_idx, minus_idx, waveforms):
        super().__init__(names)
        self.p = np.asarray(plus_idx, dtype=np.int64)
        self.m = np.asarray(minus_idx, dtype=np.int64)
        self.waveforms: list[SourceWaveform] = list(waveforms)
        self.scale = 1.0
        self.derive()

    def derive(self) -> None:
        self._s_at = self.scatter_index(self.p, self.m)

    def register(self, builder: PatternBuilder) -> None:
        pass  # pure source injection: no Jacobian entries

    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        if out.inject:
            levels = self.scale * np.array([w.value(t) for w in self.waveforms])
            both = lift_sims(np.concatenate([levels, -levels]), self.sims)
            scatter_add(out.s, self._s_at, both)


class VcvsBank(DeviceBank):
    """Voltage-controlled voltage sources (E): v_p - v_m = gain*(v_cp - v_cm)."""

    work_weight = 0.5
    supports_ensemble = True
    ensemble_params = ("gain",)

    def __init__(self, names, plus_idx, minus_idx, cp_idx, cm_idx, branch_idx, gains):
        super().__init__(names)
        self.p = np.asarray(plus_idx, dtype=np.int64)
        self.m = np.asarray(minus_idx, dtype=np.int64)
        self.cp = np.asarray(cp_idx, dtype=np.int64)
        self.cm = np.asarray(cm_idx, dtype=np.int64)
        self.j = np.asarray(branch_idx, dtype=np.int64)
        self.gain = np.asarray(gains, dtype=float)
        self._slots = None
        self.derive()

    def derive(self) -> None:
        self._f_at = self.scatter_index(self.p, self.m, self.j)

    def register(self, builder: PatternBuilder) -> None:
        p, m, j, cp, cm = self.p, self.m, self.j, self.cp, self.cm
        rows = np.stack([p, m, j, j, j, j], axis=1).ravel()
        cols = np.stack([j, j, p, m, cp, cm], axis=1).ravel()
        self._slots = builder.add_g_entries(rows, cols)

    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        current = x_full[self.j]
        branch = (
            x_full[self.p]
            - x_full[self.m]
            - self.gain * (x_full[self.cp] - x_full[self.cm])
        )
        scatter_add(out.f, self._f_at, np.concatenate([current, -current, branch]))

    def write_static_stamps(self, g_vals, c_vals) -> None:
        ones = np.ones(self.count)
        g_vals[self._slots.slice] = stamp_values(
            ones, -ones, ones, -ones, -self.gain, self.gain, sims=self.sims
        )


class VccsBank(DeviceBank):
    """Voltage-controlled current sources (G): i(p->m) = gm*(v_cp - v_cm)."""

    work_weight = 0.5
    supports_ensemble = True
    ensemble_params = ("gm",)

    def __init__(self, names, plus_idx, minus_idx, cp_idx, cm_idx, gms):
        super().__init__(names)
        self.p = np.asarray(plus_idx, dtype=np.int64)
        self.m = np.asarray(minus_idx, dtype=np.int64)
        self.cp = np.asarray(cp_idx, dtype=np.int64)
        self.cm = np.asarray(cm_idx, dtype=np.int64)
        self.gm = np.asarray(gms, dtype=float)
        self._slots = None
        self.derive()

    def derive(self) -> None:
        self._f_at = self.scatter_index(self.p, self.m)

    def register(self, builder: PatternBuilder) -> None:
        p, m, cp, cm = self.p, self.m, self.cp, self.cm
        rows = np.stack([p, p, m, m], axis=1).ravel()
        cols = np.stack([cp, cm, cp, cm], axis=1).ravel()
        self._slots = builder.add_g_entries(rows, cols)

    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        current = self.gm * (x_full[self.cp] - x_full[self.cm])
        scatter_add(out.f, self._f_at, np.concatenate([current, -current]))

    def write_static_stamps(self, g_vals, c_vals) -> None:
        g_vals[self._slots.slice] = stamp_values(
            self.gm, -self.gm, -self.gm, self.gm, sims=self.sims
        )


class CccsBank(DeviceBank):
    """Current-controlled current sources (F): i(p->m) = gain * i(ctrl branch)."""

    work_weight = 0.5
    supports_ensemble = True
    ensemble_params = ("gain",)

    def __init__(self, names, plus_idx, minus_idx, ctrl_branch_idx, gains):
        super().__init__(names)
        self.p = np.asarray(plus_idx, dtype=np.int64)
        self.m = np.asarray(minus_idx, dtype=np.int64)
        self.jc = np.asarray(ctrl_branch_idx, dtype=np.int64)
        self.gain = np.asarray(gains, dtype=float)
        self._slots = None
        self.derive()

    def derive(self) -> None:
        self._f_at = self.scatter_index(self.p, self.m)

    def register(self, builder: PatternBuilder) -> None:
        rows = np.stack([self.p, self.m], axis=1).ravel()
        cols = np.stack([self.jc, self.jc], axis=1).ravel()
        self._slots = builder.add_g_entries(rows, cols)

    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        current = self.gain * x_full[self.jc]
        scatter_add(out.f, self._f_at, np.concatenate([current, -current]))

    def write_static_stamps(self, g_vals, c_vals) -> None:
        g_vals[self._slots.slice] = stamp_values(self.gain, -self.gain, sims=self.sims)


class CcvsBank(DeviceBank):
    """Current-controlled voltage sources (H): v_p - v_m = r * i(ctrl branch)."""

    work_weight = 0.5
    supports_ensemble = True
    ensemble_params = ("r",)

    def __init__(self, names, plus_idx, minus_idx, ctrl_branch_idx, branch_idx, rs):
        super().__init__(names)
        self.p = np.asarray(plus_idx, dtype=np.int64)
        self.m = np.asarray(minus_idx, dtype=np.int64)
        self.jc = np.asarray(ctrl_branch_idx, dtype=np.int64)
        self.j = np.asarray(branch_idx, dtype=np.int64)
        self.r = np.asarray(rs, dtype=float)
        self._slots = None
        self.derive()

    def derive(self) -> None:
        self._f_at = self.scatter_index(self.p, self.m, self.j)

    def register(self, builder: PatternBuilder) -> None:
        p, m, j, jc = self.p, self.m, self.j, self.jc
        rows = np.stack([p, m, j, j, j], axis=1).ravel()
        cols = np.stack([j, j, p, m, jc], axis=1).ravel()
        self._slots = builder.add_g_entries(rows, cols)

    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        current = x_full[self.j]
        branch = x_full[self.p] - x_full[self.m] - self.r * x_full[self.jc]
        scatter_add(out.f, self._f_at, np.concatenate([current, -current, branch]))

    def write_static_stamps(self, g_vals, c_vals) -> None:
        ones = np.ones(self.count)
        g_vals[self._slots.slice] = stamp_values(
            ones, -ones, ones, -ones, -self.r, sims=self.sims
        )
