"""Simulator options.

:class:`SimOptions` is the one options object threaded through every layer
(Newton solver, integration/step control, transient engines, WavePipe
schedulers). Field names and defaults follow SPICE3/ngspice conventions
where an equivalent exists (``reltol``, ``abstol``, ``vntol``, ``trtol``,
``gmin``...), so decks and intuition transfer.

The object is a frozen dataclass: engines never mutate options, they derive
new ones with :meth:`SimOptions.replace` — this keeps concurrent WavePipe
tasks free of shared mutable state.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import SimulationError

#: Integration methods understood by the engine.
INTEGRATION_METHODS = ("be", "trap", "gear2")


@dataclass(frozen=True)
class SimOptions:
    """Tolerances and algorithm knobs for all analyses.

    Attributes:
        reltol: relative tolerance on Newton updates and LTE.
        abstol: absolute current tolerance (A) for branch-type unknowns.
        vntol: absolute voltage tolerance (V) for node-type unknowns.
        chgtol: absolute charge tolerance (C) used by LTE estimation.
        gmin: conductance placed across every nonlinear junction.
        max_newton_iters: Newton iteration cap per solve attempt.
        damping: scale cap on Newton updates; 1.0 disables extra damping.
        voltage_limit: per-iteration cap (V) on any node-voltage update,
            the coarse global companion to per-device junction limiting.
        method: integration method, one of ``be``, ``trap``, ``gear2``.
        trtol: SPICE truncation-error fudge factor (>1 trusts the LTE
            estimate less and allows bigger steps).
        lte_reltol / lte_abstol: tolerances used by the LTE test; default
            to ``reltol`` / ``vntol`` when set to None.
        step_ratio_max: max allowed ratio of consecutive accepted steps
            (the bound WavePipe's backward pipelining legally exceeds by
            inserting verified intermediate points).
        step_shrink: reject-retry shrink factor.
        min_step_fraction: minimum step as a fraction of the sim window;
            going below raises :class:`~repro.errors.TimestepError`.
        first_step_fraction: initial step as fraction of ``tstep`` hint.
        max_step: optional absolute ceiling on the step (s).
        gmin_steps / source_steps: homotopy schedule lengths for the DC
            operating-point fallbacks.
        newton_guess: initial iterate for each transient Newton solve —
            ``"previous"`` (the last accepted solution, classic SPICE3
            behaviour and the regime the paper's forward pipelining
            targets) or ``"predictor"`` (polynomial extrapolation; a
            stronger baseline that shrinks forward pipelining's margin —
            see the ablation bench).
        sync_overhead: virtual-clock cost (work units) charged per
            pipeline stage for thread synchronisation.
        predictor_order: polynomial predictor order (1 or 2).
        backward_guard_fraction: backward pipelining places a guard point
            at this fraction of the main step when recent stages saw LTE
            rejections; 0 disables guards.
        lte_cap_margin: scale on the a-priori LTE-optimal step used to cap
            backward chain targets (<1 is more conservative).
        spec_min_iters: forward speculation is only scheduled when the
            running average Newton cost per solve is at least this many
            iterations — a corrective phase costs about one iteration, so
            cheaper solves (e.g. linear circuits) leave speculation
            nothing to save.
        chain_headroom_min: backward chain extension requires the
            LTE-optimal step estimate to exceed ``chain_headroom_min *
            step_ratio_max * h`` — i.e. real headroom beyond the ratio
            cap, which separates genuine post-event ramps from LTE
            blind spots on oscillatory waveforms.
        jacobian_reuse: enable the modified-Newton "Jacobian bypass" on
            nonlinear systems — back-solve against the previous LU
            factors, while they match the linearised operator and the
            residual keeps contracting, instead of refactoring every
            iteration. The only lever in the assembly/factor path that
            changes iteration counts, and so the only one with a switch
            (static linear-device stamps, in-place assembly and exact
            reuse are unconditional: a linear system's later Newton
            iterations always back-solve through the factors of the
            solve's first, which are its exact operator). On a linear
            system the switch only lets those exact factors carry
            across solves, which saves factorisations but changes no
            result. Off by default: the reuse-off path is the
            full-Newton reference.
        reuse_stall_ratio: while bypassing, the residual must contract
            by at least this factor per iteration
            (``|F_k| <= reuse_stall_ratio * |F_{k-1}|``); a stall forces
            a full refactorisation on the spot (counted as
            ``newton.bypass_fallback``). 1.0 tolerates non-increasing
            residuals; smaller values demand faster contraction and
            refactor more eagerly.
        refactor_every: force a refactorisation after this many
            consecutive bypassed solves (0 disables the cap). A belt
            alongside the stall guard's suspenders for circuits whose
            residual contracts slowly but monotonically under stale
            factors — slow enough to waste iterations, not slow enough
            to trip the stall ratio. The default of 2 is uniformly
            profitable across the registry circuits. Like
            ``reuse_stall_ratio`` it governs the nonlinear bypass only.
        instrument: optional :class:`~repro.instrument.Recorder` every
            layer reports into (None falls back to the process-global
            default, a NullRecorder unless someone installed one).
            Excluded from equality comparison and repr — it is a sink,
            not a numerical knob.
    """

    reltol: float = 1e-3
    abstol: float = 1e-12
    vntol: float = 1e-6
    chgtol: float = 1e-14
    gmin: float = 1e-12
    max_newton_iters: int = 100
    damping: float = 1.0
    voltage_limit: float = 2.0

    method: str = "trap"
    trtol: float = 7.0
    lte_reltol: float | None = None
    lte_abstol: float | None = None
    step_ratio_max: float = 2.0
    step_shrink: float = 0.25
    min_step_fraction: float = 1e-12
    first_step_fraction: float = 0.01
    max_step: float | None = None

    gmin_steps: int = 10
    source_steps: int = 10
    newton_guess: str = "previous"

    sync_overhead: float = 0.0
    predictor_order: int = 2
    backward_guard_fraction: float = 0.5
    lte_cap_margin: float = 1.0
    spec_min_iters: float = 2.5
    chain_headroom_min: float = 2.0

    jacobian_reuse: bool = False
    reuse_stall_ratio: float = 0.9
    refactor_every: int = 2

    instrument: object | None = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.method not in INTEGRATION_METHODS:
            raise SimulationError(
                f"unknown integration method {self.method!r}; "
                f"expected one of {INTEGRATION_METHODS}"
            )
        for name in ("reltol", "abstol", "vntol", "chgtol", "trtol"):
            if getattr(self, name) <= 0:
                raise SimulationError(f"option {name} must be positive")
        if self.step_ratio_max < 1.0:
            raise SimulationError("step_ratio_max must be >= 1")
        if not 0 < self.step_shrink < 1:
            raise SimulationError("step_shrink must lie in (0, 1)")
        if self.predictor_order not in (1, 2):
            raise SimulationError("predictor_order must be 1 or 2")
        if not 0 <= self.backward_guard_fraction < 1:
            raise SimulationError("backward_guard_fraction must lie in [0, 1)")
        if self.lte_cap_margin <= 0:
            raise SimulationError("lte_cap_margin must be positive")
        if self.newton_guess not in ("previous", "predictor"):
            raise SimulationError("newton_guess must be 'previous' or 'predictor'")
        if not 0 < self.reuse_stall_ratio <= 1:
            raise SimulationError("reuse_stall_ratio must lie in (0, 1]")
        if self.refactor_every < 0:
            raise SimulationError("refactor_every must be >= 0")

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dump of every numerical knob.

        ``instrument`` is excluded: it is a live object sink, not a
        reproducible setting. ``from_dict(to_dict())`` equals the
        original options object (equality also ignores ``instrument``).
        """
        out = {}
        for f in dataclasses.fields(self):
            if f.name == "instrument":
                continue
            out[f.name] = getattr(self, f.name)
        return out

    @classmethod
    def from_dict(cls, data: dict, instrument=None) -> "SimOptions":
        """Rebuild options from a :meth:`to_dict` dump (validated afresh).

        Missing keys take their defaults; unknown keys raise
        :class:`SimulationError` so stale job specs fail loudly instead
        of silently dropping a knob.
        """
        known = {f.name for f in dataclasses.fields(cls)} - {"instrument"}
        unknown = set(data) - known
        if unknown:
            raise SimulationError(
                f"unknown SimOptions field(s) in dump: {sorted(unknown)}"
            )
        return cls(**data, instrument=instrument)

    @property
    def effective_lte_reltol(self) -> float:
        """LTE relative tolerance, defaulting to ``reltol``."""
        return self.reltol if self.lte_reltol is None else self.lte_reltol

    @property
    def effective_lte_abstol(self) -> float:
        """LTE absolute tolerance, defaulting to ``vntol``."""
        return self.vntol if self.lte_abstol is None else self.lte_abstol

    @property
    def integration_order(self) -> int:
        """Order of the configured integration method (1 or 2)."""
        return 1 if self.method == "be" else 2

    def replace(self, **changes) -> "SimOptions":
        """Return a copy with *changes* applied (validated like a fresh object)."""
        return dataclasses.replace(self, **changes)
