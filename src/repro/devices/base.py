"""Device bank protocol and shared evaluation buffers.

The compiler groups every component of a given physics into one *bank*: a
single object holding numpy index arrays and parameter vectors for all
instances of that device type. Banks evaluate vectorised — one numpy
expression per physical quantity regardless of instance count — which is
what makes a pure-Python SPICE engine fast enough for thousands of Newton
solves.

Contract (all arrays sized ``n_unknowns + 1``; the last element is the
ground/trash slot):

* ``register(builder)`` — once, at compile time: claim Jacobian slots.
* ``write_static_stamps(g_vals, c_vals)`` — once per system: write the
  operating-point-independent Jacobian stamps into the baselines every
  buffer set is seeded from.
* ``eval(x_full, t, out)`` — write the *varying* stamps of the claimed
  ``out.g_vals``/``out.c_vals`` slices and accumulate resistive currents
  into ``out.f`` and charges into ``out.q``; source banks add their
  injection to ``out.s`` only when ``out.inject`` is set (it depends on
  time and scale, not on ``x``, so a buffer set keeps it across the
  iterations of one solve). Must not retain state: banks are evaluated
  concurrently by WavePipe tasks.
* ``charge(x_full, out)`` — accumulate into ``out.q`` exactly what
  ``eval`` accumulates there (same expressions, same order) and touch
  nothing else. Every bank whose ``eval`` writes ``out.q`` overrides it;
  the default is a no-op.
* ``limit(x_proposed, x_previous)`` — optionally adjust the proposed Newton
  iterate in place (junction limiting). Returns True if it changed anything.

Each bank adds into a stream with one ``np.add.at`` over an index it
concatenates once (:meth:`DeviceBank.scatter_index`); ``add.at`` applies
elements in order, so this is bit-equal to one call per terminal.

Shape contract (scalar vs ensemble)
-----------------------------------

Every bank evaluates in one of two modes, selected by its ``sims``
attribute:

* **Scalar mode** (``sims is None``, the default): parameter vectors are
  ``(n_devices,)``, the solution ``x_full`` is ``(n + 1,)``, and every
  :class:`EvalOutputs` buffer is 1-D — ``f``/``q``/``s`` are ``(n + 1,)``
  and the slot arrays are ``(n_slots,)``. This is the legacy path and is
  bit-for-bit unchanged.
* **Ensemble mode** (``sims == K``): the bank simulates K parameter
  variants of the *same topology* at once. Per-variant parameters are
  ``(n_devices, K)``; topology (index arrays) stays ``(n_devices,)`` and
  identical across variants. ``x_full`` is ``(n + 1, K)`` and every
  :class:`EvalOutputs` buffer gains the trailing ``sims`` axis:
  ``f``/``q``/``s`` are ``(n + 1, K)``, slot arrays ``(n_slots, K)``.

Broadcasting rules: the device axis leads, the ``sims`` axis trails.
A ``(n_devices,)`` constant does **not** broadcast against a
``(n_devices, K)`` value under NumPy's trailing-axis alignment — lift it
to a column first (``p[:, None]``). :func:`stamp_values` does this
automatically for the constant interleaved stamps, and
:meth:`DeviceBank.stamp_view` exposes a bank's slot slice as ``(n_devices,
P)`` / ``(n_devices, P, K)`` so varying stamps are written one column per
stamp entry, correct in both modes. Banks advertise ensemble
capability via the ``supports_ensemble`` class flag; driving an
unsupporting bank with K > 1 raises :class:`~repro.errors.SimulationError`
from :meth:`DeviceBank.ensure_ensemble` rather than a NumPy broadcast
traceback deep inside ``eval``.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import SimulationError
from repro.mna.pattern import PatternBuilder, flat_index

#: Thermal voltage at the fixed simulation temperature (300.15 K).
BOLTZMANN = 1.380649e-23
CHARGE = 1.602176634e-19
TEMPERATURE = 300.15
VT = BOLTZMANN * TEMPERATURE / CHARGE

#: Largest exponent argument evaluated exactly; beyond it the exponential
#: is continued linearly to keep evaluations finite (limiting normally
#: prevents reaching this).
EXP_ARG_MAX = 100.0


def safe_exp(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overflow-safe exponential with linear continuation.

    Returns ``(value, derivative)`` of a function equal to ``exp(u)`` for
    ``u <= EXP_ARG_MAX`` and to its tangent line beyond, so value and first
    derivative are continuous everywhere. The two are the *same array*
    when no argument is in the linear region (the usual case): treat
    both as read-only.
    """
    u = np.asarray(u, dtype=float)
    base = np.exp(np.minimum(u, EXP_ARG_MAX))
    over = u > EXP_ARG_MAX
    if not over.any():
        return base, base
    value = base.copy()
    np.copyto(value, base * (1.0 + (u - EXP_ARG_MAX)), where=over)
    # The tangent slope equals exp(EXP_ARG_MAX) in the linear region.
    return value, base


class EvalOutputs:
    """Per-evaluation accumulation buffers, reused across Newton iterations.

    Attributes:
        f: resistive-current residual accumulator, length ``n + 1``.
        q: charge accumulator, length ``n + 1``.
        s: source-injection accumulator, length ``n + 1``. A function of
            ``(t, source scales)`` only, so :meth:`reset` keeps it while
            that key repeats — one evaluation of ``s(t)`` per solve, not
            per Newton iteration.
        inject: True when the current evaluation must (re)build ``s``;
            source banks test it before touching ``s``.
        x_full: the padded evaluation point (``x`` plus the ground/trash
            slot, which stays 0) and *pads*, two more padded vectors for
            the Newton loop's junction limiter — allocated once here
            instead of three times per iteration.
        g_vals / c_vals: Jacobian slot value arrays (dI/dx and dQ/dx),
            seeded from the *g_base*/*c_base* constant-stamp baselines
            (shared, read-only) and re-seeded by every :meth:`reset`:
            linear banks never write their slots, nonlinear banks
            overwrite theirs each evaluation.
        workspace: the buffer set's
            :class:`~repro.mna.pattern.AssemblyWorkspace`, created by the
            first :meth:`~repro.mna.system.MnaSystem.jacobian` call
            (charge-only evaluations never build a matrix).
        sims: None for the scalar path; K for an ensemble of K variants,
            in which case every buffer carries a trailing ``(..., K)``
            axis per the module-level shape contract.
    """

    def __init__(
        self,
        n_unknowns: int,
        g_base: np.ndarray,
        c_base: np.ndarray,
        sims: int | None = None,
    ):
        self.n = n_unknowns
        self.sims = sims
        tail = () if sims is None else (sims,)
        self.f = np.zeros((n_unknowns + 1, *tail))
        self.q = np.zeros((n_unknowns + 1, *tail))
        self.s = np.zeros((n_unknowns + 1, *tail))
        self.inject = True
        self._source_key = None
        self.x_full = np.zeros((n_unknowns + 1, *tail))
        self.pads = (np.zeros_like(self.x_full), np.zeros_like(self.x_full))
        self._g_base = g_base
        self._c_base = c_base
        self.g_vals = g_base.copy()
        self.c_vals = c_base.copy()
        self.workspace = None

    def reset(self, source_key: tuple | None = None) -> None:
        """Zero the accumulators and re-seed the slot arrays from the
        constant-stamp baselines (zero in every nonlinear bank's varying
        slots, which the owning bank then overwrites).

        *source_key* names what the source injection depends on — ``(t,
        scale of each source bank)``. While it repeats, ``s`` is kept and
        :attr:`inject` is False; ``None`` always rebuilds. The key is per
        buffer set, so sets never share an injection; code that swaps a
        bank's waveform objects (``dc_sweep``) must use fresh buffers.
        """
        self.f.fill(0.0)
        self.q.fill(0.0)
        self.inject = source_key is None or source_key != self._source_key
        if self.inject:
            self.s.fill(0.0)
            self._source_key = source_key
        np.copyto(self.g_vals, self._g_base)
        np.copyto(self.c_vals, self._c_base)


class DeviceBank(abc.ABC):
    """Base class for vectorised device groups."""

    #: Relative work-unit weight of one device evaluation; nonlinear
    #: devices cost more than linear ones (used by the cost model).
    work_weight: float = 1.0

    #: True for banks whose currents are nonlinear in the solution; the
    #: Newton solvers damp updates only when some bank sets it.
    nonlinear: bool = False

    #: Capability flag: True when this bank honours the ensemble shape
    #: contract (trailing ``sims`` axis on parameters, stamps and
    #: limiting). Concrete banks opt in explicitly; the base default is
    #: False so new bank types fail loudly rather than mis-broadcast.
    supports_ensemble: bool = False

    #: Per-device float parameter attributes that vary across ensemble
    #: variants; :mod:`repro.mna.ensemble` stacks these into
    #: ``(n_devices, K)`` arrays when building an ensemble bank. Index
    #: arrays and everything not listed here must be identical across
    #: variants (same topology).
    ensemble_params: tuple[str, ...] = ()

    #: None in scalar mode; K when this bank instance evaluates an
    #: ensemble of K parameter variants.
    sims: int | None = None

    def __init__(self, names: list[str]):
        self.names = list(names)
        self.count = len(self.names)

    def derive(self) -> None:
        """Recompute every constant derived from :attr:`ensemble_params`.

        Called at the end of ``__init__`` by banks that precompute such
        constants, and again by :mod:`repro.mna.ensemble` *after* it has
        stacked the parameters, so a K > 1 bank never evaluates with
        variant-0 constants. Default: nothing derived.
        """

    def stamp_view(self, vals: np.ndarray, slots, parts: int) -> np.ndarray:
        """This bank's slice of a slot array as ``(n_devices, parts[, K])``.

        A view: writing column ``j`` sets stamp entry ``j`` of every
        device, in the device-major slot order :meth:`register` claimed.
        """
        return vals[slots.start : slots.stop].reshape(
            self.count, parts, *vals.shape[1:]
        )

    def ensure_ensemble(self, sims: int) -> None:
        """Raise a clear error when this bank cannot run K > 1 variants."""
        if sims > 1 and not self.supports_ensemble:
            raise SimulationError(
                f"{type(self).__name__} does not support ensemble evaluation: "
                f"asked for {sims} variants but supports_ensemble is False. "
                "Run these circuits as separate jobs instead."
            )

    @abc.abstractmethod
    def register(self, builder: PatternBuilder) -> None:
        """Claim Jacobian stamp slots for every instance."""

    @abc.abstractmethod
    def eval(self, x_full: np.ndarray, t: float, out: EvalOutputs) -> None:
        """Evaluate all instances at solution *x_full* and time *t*."""

    def charge(self, x_full: np.ndarray, out: EvalOutputs) -> None:
        """Accumulate only this bank's charges into ``out.q``; default none."""

    def scatter_index(self, *rows: np.ndarray) -> np.ndarray:
        """One :func:`scatter_add` index over the row arrays *rows*, in order.

        Built once per bank in :meth:`derive` (its ``sims`` is final
        there): the concatenated rows on the scalar path, their flat
        positions in a C-order ``(n + 1, K)`` accumulator on an ensemble.
        """
        index = np.concatenate(rows)
        return index if self.sims is None else flat_index(index, self.sims)

    def limit(
        self,
        x_proposed: np.ndarray,
        x_previous: np.ndarray,
        changed_cols: np.ndarray | None = None,
    ) -> bool:
        """Junction-limit the proposed iterate in place; default no-op.

        In ensemble mode *changed_cols* (a ``(K,)`` bool array, when
        provided) must be OR-updated with True for every variant column
        this bank altered, so the solver can track per-variant limiting
        without comparing arrays.
        """
        return False

    def write_static_stamps(self, g_vals: np.ndarray, c_vals: np.ndarray) -> None:
        """Write this bank's constant Jacobian stamps into the baselines.

        Every stamp that does not depend on the operating point is
        written into the full-size *g_vals*/*c_vals* baseline arrays
        here, once per system, and never in :meth:`eval`: all stamps of
        the linear passives and sources, and the constant capacitance
        entries of nonlinear banks (MOS gate capacitances, BJT ``cjc``).
        ``(n_devices, K)`` parameters give ``(n_slots, K)`` baselines, so
        the same code serves scalar and ensemble banks. Slots left at 0
        are the varying ones, which the bank overwrites each evaluation.
        """

    @property
    def work_units(self) -> float:
        """Work units charged per evaluation of this bank."""
        return self.work_weight * self.count

    def __repr__(self) -> str:
        return f"{type(self).__name__}(count={self.count})"


def two_terminal_conductance_pattern(a: np.ndarray, b: np.ndarray):
    """(rows, cols) for the classic 4-entry conductance stamp of each pair.

    Entry order per device: (a,a), (a,b), (b,a), (b,b) with values
    (+g, -g, -g, +g); callers tile values in the same order.
    """
    rows = np.stack([a, a, b, b], axis=1).ravel()
    cols = np.stack([a, b, a, b], axis=1).ravel()
    return rows, cols


def two_terminal_values(g: np.ndarray) -> np.ndarray:
    """Values matching :func:`two_terminal_conductance_pattern` order.

    Accepts ``(n_devices,)`` (scalar mode) or ``(n_devices, K)``
    (ensemble mode); the interleave keeps the device-major slot order in
    both cases, yielding ``(4*n_devices,)`` or ``(4*n_devices, K)``.
    """
    g = np.asarray(g)
    if g.ndim == 2:
        return np.stack([g, -g, -g, g], axis=1).reshape(-1, g.shape[1])
    return np.stack([g, -g, -g, g], axis=1).ravel()


def stamp_values(*parts: np.ndarray, sims: int | None = None) -> np.ndarray:
    """Interleave per-device stamp parts into device-major slot order.

    Scalar mode (``sims is None``): each part is ``(n_devices,)`` and the
    result is the flat ``(P*n_devices,)`` interleave — all P entries of
    device 0, then device 1, and so on — exactly
    ``np.stack(parts, axis=1).ravel()``.

    Ensemble mode (``sims == K``): parts may be ``(n_devices, K)``
    per-variant arrays or ``(n_devices,)`` variant-invariant constants
    (lifted to a broadcast column automatically); the result is
    ``(P*n_devices, K)`` in the same device-major slot order, suitable
    for assignment into an ensemble :class:`EvalOutputs` slot slice.
    """
    if sims is None:
        return np.stack(parts, axis=1).ravel()
    lifted = [
        p if p.ndim == 2 else np.broadcast_to(p[:, None], (p.shape[0], sims))
        for p in (np.asarray(part, dtype=float) for part in parts)
    ]
    return np.stack(lifted, axis=1).reshape(-1, sims)


def lift_sims(values: np.ndarray, sims: int | None) -> np.ndarray:
    """Broadcast a per-device ``(n_devices,)`` array to ``(n_devices, sims)``.

    No-op in scalar mode (``sims is None``) or when *values* already
    carries the sims axis. Needed because NumPy aligns trailing axes, so
    a variant-invariant per-device vector must be lifted to a column
    before accumulating into an ensemble buffer.
    """
    if sims is None or values.ndim == 2:
        return values
    return np.broadcast_to(values[:, None], (values.shape[0], sims))


def scatter_add(target: np.ndarray, at: np.ndarray, values: np.ndarray) -> None:
    """``target[at] += values`` with repeats, for a bank's ``(n + 1[, K])``
    accumulator and its :meth:`DeviceBank.scatter_index` *at*."""
    if target.ndim == 1:
        np.add.at(target, at, values)
    else:
        np.add.at(target.reshape(-1), at, np.reshape(values, -1))
