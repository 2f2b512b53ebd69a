"""Job specifications: what one batch simulation is, as pure data.

A :class:`JobSpec` pins down one simulation completely — which circuit,
which analysis, which options, which component-parameter overrides — as a
JSON-serializable record. Two properties make the batch service work:

* **Portable**: a spec travels to a worker process as a plain dict and is
  rebuilt there (:meth:`JobSpec.from_dict`), so the process-pool backend
  never pickles live circuit or engine objects.
* **Content-hashable**: :meth:`JobSpec.content_hash` digests the
  canonical JSON form (sorted keys, label excluded), giving the
  result cache its address: same physics in, same hash out, regardless
  of labels or the order fields were supplied in.

Circuits are *referenced*, not embedded as objects, via
:class:`CircuitRef`: a registry benchmark name, a verbatim SPICE deck, or
a seeded draw from the :mod:`repro.verify.generators` families. All three
rebuild deterministically anywhere.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.components import (
    Bjt,
    Capacitor,
    Diode,
    Inductor,
    Mosfet,
    Resistor,
)
from repro.errors import SimulationError
from repro.utils.options import SimOptions

#: Analyses a job may run. Batch campaigns are transient workloads — the
#: scalar analyses (dc/ac) have no waveform payload worth caching yet.
JOB_ANALYSES = ("transient", "wavepipe")

#: Circuit reference kinds understood by :meth:`CircuitRef.build`.
CIRCUIT_KINDS = ("registry", "netlist", "verify")


@dataclass(frozen=True)
class BuiltCircuit:
    """A circuit materialised from a :class:`CircuitRef`, plus defaults."""

    circuit: Circuit
    tstop: float | None = None
    tstep: float | None = None
    options: SimOptions | None = None
    signals: tuple[str, ...] | None = None


@dataclass(frozen=True)
class CircuitRef:
    """Rebuildable reference to one circuit.

    Attributes:
        kind: ``registry`` (benchmark name), ``netlist`` (verbatim deck
            text), or ``verify`` (seeded generator-family draw).
        name: registry benchmark key (``kind="registry"``).
        netlist: SPICE deck text (``kind="netlist"``).
        seed: generator seed (``kind="verify"``).
        families: optional family restriction for verify draws.
    """

    kind: str
    name: str | None = None
    netlist: str | None = None
    seed: int | None = None
    families: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in CIRCUIT_KINDS:
            raise SimulationError(
                f"unknown circuit ref kind {self.kind!r}; expected one of {CIRCUIT_KINDS}"
            )
        if self.kind == "registry" and not self.name:
            raise SimulationError("registry circuit ref requires name=")
        if self.kind == "netlist" and not self.netlist:
            raise SimulationError("netlist circuit ref requires netlist= deck text")
        if self.kind == "verify" and self.seed is None:
            raise SimulationError("verify circuit ref requires seed=")
        if self.families is not None and not isinstance(self.families, tuple):
            object.__setattr__(self, "families", tuple(self.families))

    @property
    def describe(self) -> str:
        if self.kind == "registry":
            return self.name
        if self.kind == "netlist":
            first = self.netlist.strip().splitlines()[0] if self.netlist.strip() else "deck"
            return f"deck:{first[:32]}"
        return f"verify[seed={self.seed}]"

    def build(self) -> BuiltCircuit:
        """Materialise the referenced circuit (with its native defaults)."""
        if self.kind == "registry":
            from repro.circuits.registry import get_benchmark

            try:
                bench = get_benchmark(self.name)
            except KeyError as exc:
                raise SimulationError(str(exc)) from None
            return BuiltCircuit(
                circuit=bench.build(),
                tstop=bench.tstop,
                tstep=bench.tstep,
                options=bench.options,
                signals=tuple(bench.signals),
            )
        if self.kind == "netlist":
            from repro.netlist.parser import TranCommand, parse_netlist

            netlist = parse_netlist(self.netlist)
            tran = next(
                (c for c in netlist.analyses if isinstance(c, TranCommand)), None
            )
            return BuiltCircuit(
                circuit=netlist.circuit,
                tstop=tran.tstop if tran else None,
                tstep=tran.tstep if tran else None,
                options=netlist.options,
            )
        from repro.verify.generators import draw_circuit

        families = sorted(self.families) if self.families else None
        generated = draw_circuit(self.seed, families=families)
        return BuiltCircuit(circuit=generated.circuit, tstop=generated.tstop)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.name is not None:
            out["name"] = self.name
        if self.netlist is not None:
            out["netlist"] = self.netlist
        if self.seed is not None:
            out["seed"] = self.seed
        if self.families is not None:
            out["families"] = list(self.families)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CircuitRef":
        families = data.get("families")
        return cls(
            kind=data["kind"],
            name=data.get("name"),
            netlist=data.get("netlist"),
            seed=data.get("seed"),
            families=tuple(families) if families is not None else None,
        )


#: Component types whose headline parameter Monte Carlo / corner
#: generators may perturb, mapped to the perturbed field name.
PARAM_FIELDS = {
    Resistor: "resistance",
    Capacitor: "capacitance",
    Inductor: "inductance",
    Diode: "area",
    Bjt: "area",
    Mosfet: "w",
}


def jitterable_params(circuit: Circuit) -> dict[str, float]:
    """Component name -> nominal value, for every perturbable component."""
    out: dict[str, float] = {}
    for comp in circuit.components:
        fieldname = PARAM_FIELDS.get(type(comp))
        if fieldname is not None:
            out[comp.name] = float(getattr(comp, fieldname))
    return out


def jitter_draws(
    nominal: dict[str, float], n: int, seed: int, jitter: float
) -> list[dict[str, float]]:
    """*n* seeded lognormal draws of the *nominal* values.

    Each draw multiplies every value by an independent lognormal factor
    with sigma=*jitter*; names are drawn in sorted order, so one seed
    always yields the same draws whatever order *nominal* was built in.
    """
    rng = np.random.default_rng(seed)
    names = sorted(nominal)
    draws = []
    for _ in range(n):
        factors = rng.lognormal(mean=0.0, sigma=jitter, size=len(names))
        draws.append(
            {name: float(nominal[name] * f) for name, f in zip(names, factors)}
        )
    return draws


def apply_params(circuit: Circuit, params: dict[str, float]) -> Circuit:
    """Copy of *circuit* with the named component values replaced.

    Unknown component names or non-perturbable component types raise
    :class:`SimulationError` — a campaign must never silently simulate
    the nominal circuit while believing it perturbed something.
    """
    if not params:
        return circuit
    remaining = dict(params)
    out = Circuit(title=circuit.title)
    for comp in circuit.components:
        if comp.name in remaining:
            fieldname = PARAM_FIELDS.get(type(comp))
            if fieldname is None:
                raise SimulationError(
                    f"component {comp.name!r} ({type(comp).__name__}) has no "
                    "perturbable value parameter"
                )
            comp = dataclasses.replace(
                comp, **{fieldname: float(remaining.pop(comp.name))}
            )
        out.add(comp)
    if remaining:
        raise SimulationError(
            f"param override(s) name unknown component(s): {sorted(remaining)}"
        )
    return out


@dataclass(frozen=True)
class JobSpec:
    """One batch simulation, fully specified as JSON-safe data.

    Attributes:
        circuit: the :class:`CircuitRef` to rebuild and simulate.
        analysis: ``transient`` or ``wavepipe``.
        label: human-facing job name — *excluded* from the content hash,
            so relabelling a campaign never invalidates its cache.
        tstop / tstep: transient window/step; None defers to the
            circuit ref's native defaults (registry window, ``.tran``
            card).
        scheme / threads: WavePipe scheme and worker count (wavepipe
            analysis only).
        options: :class:`SimOptions` field overrides applied on top of
            the ref's native options (plain JSON values).
        params: component name -> absolute value overrides (the Monte
            Carlo / corner jitter channel).
        signals: trace names to record in the result; None records the
            ref's signals-of-interest, falling back to all node voltages.
    """

    circuit: CircuitRef
    analysis: str = "transient"
    label: str = ""
    tstop: float | None = None
    tstep: float | None = None
    scheme: str | None = None
    threads: int = 1
    options: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    signals: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.analysis not in JOB_ANALYSES:
            raise SimulationError(
                f"unknown job analysis {self.analysis!r}; expected one of {JOB_ANALYSES}"
            )
        if self.threads < 1:
            raise SimulationError("job threads must be >= 1")
        if self.tstop is not None and self.tstop <= 0:
            raise SimulationError("job tstop must be > 0")
        if self.signals is not None and not isinstance(self.signals, tuple):
            object.__setattr__(self, "signals", tuple(self.signals))
        # Validate option overrides eagerly: a bad knob should fail at
        # campaign build time, not inside a worker process.
        if self.options:
            try:
                SimOptions().replace(**self.options)
            except TypeError as exc:
                raise SimulationError(f"invalid job option override: {exc}") from None

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "circuit": self.circuit.to_dict(),
            "analysis": self.analysis,
            "label": self.label,
            "tstop": self.tstop,
            "tstep": self.tstep,
            "scheme": self.scheme,
            "threads": self.threads,
            "options": dict(self.options),
            "params": dict(self.params),
            "signals": list(self.signals) if self.signals is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        signals = data.get("signals")
        return cls(
            circuit=CircuitRef.from_dict(data["circuit"]),
            analysis=data.get("analysis", "transient"),
            label=data.get("label", ""),
            tstop=data.get("tstop"),
            tstep=data.get("tstep"),
            scheme=data.get("scheme"),
            threads=data.get("threads", 1),
            options=dict(data.get("options") or {}),
            params=dict(data.get("params") or {}),
            signals=tuple(signals) if signals is not None else None,
        )

    def canonical_dict(self) -> dict:
        """The content-defining fields only (no label)."""
        out = self.to_dict()
        del out["label"]
        return out

    def canonical_json(self) -> str:
        """Deterministic JSON form the content hash digests."""
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )

    def content_hash(self) -> str:
        """sha256 hex digest of the canonical spec (the cache address)."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def derive(self, **changes) -> "JobSpec":
        """Copy with *changes* applied (validated like a fresh spec)."""
        return dataclasses.replace(self, **changes)
