"""Unified analysis entry point: :func:`simulate` and the request protocol.

Every analysis the package offers — sequential transient, WavePipe
pipelined transient, DC transfer sweep, small-signal AC, and parameter
sweep — historically had its own entry point with its own argument
spelling. :func:`simulate` fronts all five behind one signature with
harmonised keywords (``tstop``/``tstep``/``options``/``threads``/
``scheme``), normalising the call into an :class:`AnalysisRequest` and
wrapping the engine's native result in an :class:`AnalysisResult` that
exposes the shared surface (``waveforms``/``stats``) while
delegating everything analysis-specific to the raw result.

The engine-level functions stay importable from their own modules
(:mod:`repro.engine.transient`, :mod:`repro.core.wavepipe`,
:mod:`repro.analysis`); :mod:`repro` itself exports only
:func:`simulate`.

The sixth analysis, ``ensemble``, solves K parameter variants of one
topology in lockstep through the vectorized ensemble engine
(:mod:`repro.engine.ensemble`). It has a first-class request object,
:class:`EnsembleRequest`, and :func:`simulate` reaches it implicitly:
passing ``variants=[{...}, ...]`` or ``ensemble=K`` promotes a plain
transient call to an ensemble run returning an :class:`EnsembleResult`.

The seventh, ``wtm``, decomposes the circuit itself: the waveform
transmission method (:mod:`repro.partition`) cuts the network at its
weak couplings and iterates concurrent per-partition transients that
exchange boundary waveforms until fixed point. Passing ``partitions=N``
promotes a plain transient call the same way ``ensemble=`` does, and
``scheme=`` selects per-partition WavePipe pipelining inside each
partition solve.

Example::

    from repro import simulate

    res = simulate(circuit, analysis="transient", tstop=1e-6)
    par = simulate(circuit, analysis="wavepipe", tstop=1e-6,
                   scheme="combined", threads=4)
    dc = simulate(circuit, analysis="dc", source="V1",
                  values=np.linspace(0, 5, 51))
    ens = simulate(circuit, tstop=1e-6, ensemble=16, jitter=0.02, seed=5)
    print(ens.stats.summary(), ens[0].waveforms.voltage("out"))
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.ac import ac_analysis as _ac_analysis
from repro.analysis.dc import dc_sweep as _dc_sweep
from repro.analysis.sweep import sweep as _sweep
from repro.core.wavepipe import run_wavepipe as _run_wavepipe
from repro.engine.ensemble import run_ensemble_transient as _run_ensemble_transient
from repro.engine.transient import run_transient as _run_transient
from repro.errors import SimulationError
from repro.partition.coordinator import run_wtm as _run_wtm
from repro.jobs.spec import apply_params, jitter_draws, jitterable_params
from repro.utils.options import SimOptions

# Verification companions to simulate(): the differential oracle proving
# one circuit (or a fuzzing campaign of generated ones) equivalent across
# every scheme/executor/reuse configuration. Re-exported here so the
# "front door" module offers both halves of the API: run an analysis, or
# prove the analyses agree.
from repro.verify.oracle import (  # noqa: F401  (public re-exports)
    EquivalenceReport,
    FuzzReport,
    run_verification,
    verify_circuit,
)

#: Analyses understood by :func:`simulate`.
ANALYSES = ("transient", "wavepipe", "dc", "ac", "sweep", "ensemble", "wtm")

#: Extra keywords each analysis accepts beyond the shared ones.
_ANALYSIS_EXTRAS = {
    "transient": {"uic", "node_ics", "instrument"},
    "wtm": {
        "partitions",
        "manifest",
        "mode",
        "max_outer",
        "wtm_tol",
        "relax",
        "windows",
        "grid_points",
        "multirate",
        "strict",
        "instrument",
        "executor",
    },
    "ensemble": {
        "variants",
        "ensemble",
        "jitter",
        "seed",
        "uic",
        "node_ics",
        "instrument",
    },
    "wavepipe": {"uic", "node_ics", "instrument", "executor"},
    "dc": {"source", "values"},
    "ac": {"source", "freqs"},
    "sweep": {
        "parameter",
        "values",
        "metrics",
        "circuit_factory",
        "option_field",
        "skip_failures",
    },
}


@dataclass
class AnalysisRequest:
    """A fully-specified analysis: what to run, on what, and how.

    The shared keywords live as first-class fields; analysis-specific
    ones (``source``, ``values``, ``freqs``, ``parameter``, ``metrics``,
    ``uic``...) ride in ``extras``. Validation happens at construction,
    so a malformed request fails before any engine starts.
    """

    analysis: str
    circuit: object | None = None
    tstop: float | None = None
    tstep: float | None = None
    options: SimOptions | None = None
    threads: int = 2
    scheme: str | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.analysis not in ANALYSES:
            raise SimulationError(
                f"unknown analysis {self.analysis!r}; expected one of {ANALYSES}"
            )
        allowed = _ANALYSIS_EXTRAS[self.analysis]
        unknown = set(self.extras) - allowed
        if unknown:
            raise SimulationError(
                f"unexpected keyword(s) for {self.analysis!r} analysis: "
                f"{sorted(unknown)}; allowed: {sorted(allowed)}"
            )
        if self.threads < 1:
            raise SimulationError("threads must be >= 1")
        if self.analysis in ("transient", "wavepipe", "sweep", "ensemble", "wtm"):
            if self.tstop is None or self.tstop <= 0:
                raise SimulationError(
                    f"{self.analysis!r} analysis requires tstop > 0"
                )
        if self.analysis == "wtm":
            if self.circuit is not None and not hasattr(self.circuit, "components"):
                raise SimulationError(
                    "'wtm' analysis requires a raw Circuit (the partitioner "
                    "cuts the component graph before compilation)"
                )
        if self.analysis == "ensemble":
            has_variants = self.extras.get("variants") is not None
            has_count = self.extras.get("ensemble") is not None
            if has_variants == has_count:
                raise SimulationError(
                    "'ensemble' analysis requires exactly one of "
                    "variants= or ensemble="
                )
        if self.analysis == "sweep":
            if self.circuit is None and self.extras.get("circuit_factory") is None:
                raise SimulationError(
                    "'sweep' analysis requires a circuit or a circuit_factory"
                )
            for name in ("parameter", "values", "metrics"):
                if self.extras.get(name) is None:
                    raise SimulationError(f"'sweep' analysis requires {name}=")
        else:
            if self.circuit is None:
                raise SimulationError(
                    f"{self.analysis!r} analysis requires a circuit"
                )
        if self.analysis == "dc":
            for name in ("source", "values"):
                if self.extras.get(name) is None:
                    raise SimulationError(f"'dc' analysis requires {name}=")
        if self.analysis == "ac":
            for name in ("source", "freqs"):
                if self.extras.get(name) is None:
                    raise SimulationError(f"'ac' analysis requires {name}=")

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dump of the request, minus the circuit.

        The circuit object itself is not JSON-representable (reattach it
        through ``from_dict(..., circuit=...)``); everything else —
        including :class:`SimOptions` and numpy-array extras — is
        converted to plain JSON types. Non-serializable extras (e.g. a
        ``circuit_factory`` callable or live metric functions) raise
        :class:`SimulationError` rather than producing a lossy dump.
        """
        return {
            "analysis": self.analysis,
            "tstop": self.tstop,
            "tstep": self.tstep,
            "options": None if self.options is None else self.options.to_dict(),
            "threads": self.threads,
            "scheme": self.scheme,
            "extras": {k: _json_safe(k, v) for k, v in self.extras.items()},
        }

    @classmethod
    def from_dict(cls, data: dict, circuit=None) -> "AnalysisRequest":
        """Rebuild a request from a :meth:`to_dict` dump.

        Validation runs exactly as on direct construction, so a request
        that requires a circuit still needs one passed here.
        """
        options = data.get("options")
        return cls(
            analysis=data["analysis"],
            circuit=circuit,
            tstop=data.get("tstop"),
            tstep=data.get("tstep"),
            options=None if options is None else SimOptions.from_dict(options),
            threads=data.get("threads", 2),
            scheme=data.get("scheme"),
            extras=dict(data.get("extras") or {}),
        )


def _json_safe(key: str, value):
    """Convert one extras value to plain JSON types (or fail loudly)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "tolist"):  # numpy array / scalar
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_safe(key, item) for item in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(key, v) for k, v in value.items()}
    raise SimulationError(
        f"extras[{key!r}] of type {type(value).__name__} is not JSON-serializable"
    )


@dataclass
class AnalysisResult:
    """Uniform wrapper over an analysis' native result.

    The shared surface — ``waveforms``, ``stats`` — is
    available for every analysis that has it (None otherwise); anything
    else (``step_sizes``, ``transfer``, ``failures``...) is delegated to
    the wrapped ``raw`` result, so existing result-handling code keeps
    working against the wrapper unchanged.
    """

    analysis: str
    request: AnalysisRequest
    raw: object

    @property
    def waveforms(self):
        """Waveform-like view of the result (DC sweeps expose their
        ``curves``, swept against source level instead of time)."""
        wf = getattr(self.raw, "waveforms", None)
        if wf is not None:
            return wf
        return getattr(self.raw, "curves", None)

    @property
    def stats(self):
        return getattr(self.raw, "stats", None)

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails: delegate to the raw result.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.raw, name)


@dataclass
class EnsembleRequest:
    """K parameter variants of one topology, solved in one lockstep run.

    The variant set is given either explicitly (``variants`` — a list of
    ``{component name: value}`` override dicts, one per variant) or as a
    jitter spec (``ensemble=K`` with ``jitter``/``seed``), in which case
    the K variant parameter sets are drawn exactly like
    :func:`repro.jobs.campaign.monte_carlo`: every perturbable component
    value is multiplied by an independent seeded lognormal factor with
    sigma ``jitter``, in sorted component-name order, so an ensemble run
    and a Monte Carlo campaign with equal seeds simulate the same
    circuits. Exactly one of the two spellings must be used.

    ``extras`` carries the transient-engine pass-throughs (``uic``,
    ``node_ics``, ``instrument``). The circuit must be a raw
    :class:`~repro.circuit.circuit.Circuit` (variants are rebuilt from
    it with per-variant parameter overrides).
    """

    circuit: object | None = None
    tstop: float | None = None
    tstep: float | None = None
    options: SimOptions | None = None
    variants: list | None = None
    ensemble: int | None = None
    jitter: float = 0.05
    seed: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.circuit is None:
            raise SimulationError("ensemble request requires a circuit")
        if not hasattr(self.circuit, "components"):
            raise SimulationError(
                "ensemble request requires a raw Circuit (variants are "
                "rebuilt with per-variant parameter overrides)"
            )
        if self.tstop is None or self.tstop <= 0:
            raise SimulationError("ensemble request requires tstop > 0")
        if (self.variants is None) == (self.ensemble is None):
            raise SimulationError(
                "exactly one of variants= or ensemble= is required"
            )
        if self.variants is not None:
            if not self.variants:
                raise SimulationError("variants must contain at least one entry")
            normalized = []
            for i, overrides in enumerate(self.variants):
                if not isinstance(overrides, dict):
                    raise SimulationError(
                        f"variants[{i}] must be a dict of component-name "
                        f"overrides, got {type(overrides).__name__}"
                    )
                normalized.append(
                    {str(name): float(value) for name, value in overrides.items()}
                )
            self.variants = normalized
        else:
            self.ensemble = int(self.ensemble)
            if self.ensemble < 1:
                raise SimulationError("ensemble= must be >= 1")
            if self.jitter < 0:
                raise SimulationError("jitter must be >= 0")
        allowed = {"uic", "node_ics", "instrument"}
        unknown = set(self.extras) - allowed
        if unknown:
            raise SimulationError(
                f"unexpected keyword(s) for ensemble request: "
                f"{sorted(unknown)}; allowed: {sorted(allowed)}"
            )

    def resolve_variants(self) -> list:
        """The per-variant parameter override dicts this request denotes.

        Explicit ``variants`` are returned as given (copied); a jitter
        spec draws them over the circuit's perturbable components with
        :func:`~repro.jobs.spec.jitter_draws`, the draw ``monte_carlo``
        makes.
        """
        if self.variants is not None:
            return [dict(overrides) for overrides in self.variants]
        nominal = jitterable_params(self.circuit)
        if not nominal:
            raise SimulationError(
                "circuit has no perturbable parameters to jitter; "
                "pass explicit variants= instead"
            )
        return jitter_draws(nominal, self.ensemble, self.seed, self.jitter)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dump of the request, minus the circuit.

        Mirrors :meth:`AnalysisRequest.to_dict`: the circuit reattaches
        through ``from_dict(..., circuit=...)``, everything else round-
        trips exactly, and non-serializable extras (a live
        ``instrument``) raise :class:`SimulationError`.
        """
        return {
            "analysis": "ensemble",
            "tstop": self.tstop,
            "tstep": self.tstep,
            "options": None if self.options is None else self.options.to_dict(),
            "variants": self.variants,
            "ensemble": self.ensemble,
            "jitter": self.jitter,
            "seed": self.seed,
            "extras": {k: _json_safe(k, v) for k, v in self.extras.items()},
        }

    @classmethod
    def from_dict(cls, data: dict, circuit=None) -> "EnsembleRequest":
        """Rebuild a request from a :meth:`to_dict` dump.

        Validation runs exactly as on direct construction, so the
        circuit must be reattached here.
        """
        options = data.get("options")
        variants = data.get("variants")
        return cls(
            circuit=circuit,
            tstop=data.get("tstop"),
            tstep=data.get("tstep"),
            options=None if options is None else SimOptions.from_dict(options),
            variants=None if variants is None else [dict(v) for v in variants],
            ensemble=data.get("ensemble"),
            jitter=data.get("jitter", 0.05),
            seed=data.get("seed", 0),
            extras=dict(data.get("extras") or {}),
        )


@dataclass
class EnsembleResult:
    """Per-variant :class:`AnalysisResult`s plus the shared-run rollup.

    ``variants[k]`` wraps variant *k*'s
    :class:`~repro.engine.transient.TransientResult` (its column of the
    lockstep solve) exactly as a standalone transient run would be
    wrapped; ``params[k]`` records the parameter overrides it simulated.
    ``stats`` describes the one shared run (one adaptive grid, one
    Newton history); anything else is delegated to the raw
    :class:`~repro.engine.ensemble.EnsembleTransientResult`.
    """

    request: EnsembleRequest
    raw: object
    params: list
    variants: list

    analysis = "ensemble"

    @property
    def stats(self):
        return self.raw.stats

    @property
    def times(self):
        return self.raw.times

    @property
    def sims(self) -> int:
        return len(self.variants)

    def __len__(self) -> int:
        return len(self.variants)

    def __getitem__(self, k: int) -> AnalysisResult:
        return self.variants[k]

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.raw, name)


def run_ensemble_request(request: EnsembleRequest) -> EnsembleResult:
    """Dispatch an already-validated :class:`EnsembleRequest`."""
    params = request.resolve_variants()
    circuits = [apply_params(request.circuit, overrides) for overrides in params]
    raw = _run_ensemble_transient(
        circuits,
        request.tstop,
        tstep=request.tstep,
        options=request.options,
        **request.extras,
    )
    variants = [
        AnalysisResult(analysis="transient", request=request, raw=variant)
        for variant in raw.variants
    ]
    return EnsembleResult(request=request, raw=raw, params=params, variants=variants)


def simulate(
    circuit=None,
    analysis: str = "transient",
    *,
    tstop: float | None = None,
    tstep: float | None = None,
    options: SimOptions | None = None,
    threads: int = 2,
    scheme: str | None = None,
    **extras,
) -> "AnalysisResult | EnsembleResult":
    """Run any analysis through one harmonised signature.

    Args:
        circuit: a :class:`~repro.circuit.circuit.Circuit` or an
            already-compiled circuit (optional for ``sweep`` when a
            ``circuit_factory`` is given).
        analysis: one of ``transient``, ``wavepipe``, ``dc``, ``ac``,
            ``sweep``, ``ensemble``, ``wtm``. Passing ``variants=`` or
            ``ensemble=`` promotes a ``transient`` call to ``ensemble``
            implicitly; passing ``partitions=`` promotes it to ``wtm``.
        tstop / tstep: simulation window and suggested step for the
            time-domain analyses.
        options: :class:`~repro.utils.options.SimOptions`; defaults to
            the circuit's compiled options.
        threads: worker count for ``wavepipe`` (and pipelined ``sweep``).
        scheme: WavePipe scheme (``backward``/``forward``/``combined``);
            defaults to ``combined`` for ``wavepipe``, and selects
            pipelined runs inside ``sweep`` when set.
        **extras: analysis-specific keywords — ``source``/``values``
            (dc), ``source``/``freqs`` (ac), ``parameter``/``values``/
            ``metrics`` (sweep), ``uic``/``node_ics``/``instrument``
            (transient, wavepipe, ensemble), ``variants``/``ensemble``/
            ``jitter``/``seed`` (ensemble), ``partitions``/``mode``/
            ``windows``/``relax``/``grid_points``/``strict`` (wtm, where
            ``scheme`` selects per-partition WavePipe pipelining).

    Returns:
        An :class:`AnalysisResult` wrapping the engine's native result,
        or an :class:`EnsembleResult` for ensemble runs.
    """
    if analysis == "transient" and (
        extras.get("variants") is not None or extras.get("ensemble") is not None
    ):
        analysis = "ensemble"
    if analysis == "transient" and extras.get("partitions") is not None:
        analysis = "wtm"
    request = AnalysisRequest(
        analysis=analysis,
        circuit=circuit,
        tstop=tstop,
        tstep=tstep,
        options=options,
        threads=threads,
        scheme=scheme,
        extras=extras,
    )
    return run_request(request)


def run_request(request: AnalysisRequest) -> "AnalysisResult | EnsembleResult":
    """Dispatch an already-validated :class:`AnalysisRequest`."""
    extras = request.extras
    if request.analysis == "ensemble":
        return run_ensemble_request(
            EnsembleRequest(
                circuit=request.circuit,
                tstop=request.tstop,
                tstep=request.tstep,
                options=request.options,
                variants=extras.get("variants"),
                ensemble=extras.get("ensemble"),
                jitter=extras.get("jitter", 0.05),
                seed=extras.get("seed", 0),
                extras={
                    k: v
                    for k, v in extras.items()
                    if k in ("uic", "node_ics", "instrument")
                },
            )
        )
    if request.analysis == "wtm":
        wtm_extras = {k: v for k, v in extras.items() if k != "partitions"}
        raw = _run_wtm(
            request.circuit,
            request.tstop,
            extras.get("partitions", 2),
            scheme=request.scheme,
            threads=request.threads,
            tstep=request.tstep,
            options=request.options,
            **wtm_extras,
        )
        return AnalysisResult(analysis="wtm", request=request, raw=raw)
    if request.analysis == "transient":
        raw = _run_transient(
            request.circuit,
            request.tstop,
            tstep=request.tstep,
            options=request.options,
            **extras,
        )
    elif request.analysis == "wavepipe":
        raw = _run_wavepipe(
            request.circuit,
            request.tstop,
            scheme=request.scheme or "combined",
            threads=request.threads,
            tstep=request.tstep,
            options=request.options,
            **extras,
        )
    elif request.analysis == "dc":
        raw = _dc_sweep(
            request.circuit,
            extras["source"],
            extras["values"],
            options=request.options,
        )
    elif request.analysis == "ac":
        raw = _ac_analysis(
            request.circuit,
            extras["source"],
            extras["freqs"],
            options=request.options,
        )
    else:  # sweep — validated by AnalysisRequest
        raw = _sweep(
            extras["parameter"],
            extras["values"],
            extras["metrics"],
            request.tstop,
            circuit_factory=extras.get("circuit_factory"),
            circuit=request.circuit,
            options=request.options,
            option_field=extras.get("option_field"),
            scheme=request.scheme,
            threads=request.threads,
            skip_failures=extras.get("skip_failures", False),
        )
    return AnalysisResult(analysis=request.analysis, request=request, raw=raw)
