"""Campaign generation and execution: Monte Carlo, corners, sweeps.

A :class:`Campaign` is a named list of job specs plus the provenance dict
that reproduces it. The three stock generators cover the bread-and-butter
industrial batch workloads the engine serves:

* :func:`monte_carlo` — seeded lognormal jitter on every perturbable
  component parameter (R/C/L values, diode/BJT areas, MOSFET widths).
  Same seed => identical specs => identical content hashes, which is
  what makes re-runs free and resume exact.
* :func:`pvt_corners` — process corner sets expressed as per-component-
  class multiplicative scales (tt/ff/ss/fs/sf by default).
* :func:`param_sweep` — one job per value of one named component.

:func:`run_campaign` drives a campaign through a
:class:`~repro.jobs.scheduler.JobScheduler`, checkpointing a manifest in
a :class:`~repro.jobs.store.CampaignStore` after every job so a killed
campaign resumes from where it stopped (finished jobs come back as cache
hits; the final manifest and cached result bytes are identical to an
uninterrupted run's).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from repro.circuit.components import Bjt, Capacitor, Diode, Inductor, Mosfet, Resistor
from repro.engine.transient import TransientStats
from repro.errors import SimulationError
from repro.instrument.events import CAMPAIGN_RUN
from repro.instrument.recorder import resolve_recorder
from repro.instrument.tracectx import current_trace
from repro.jobs.scheduler import JobOutcome, JobScheduler
from repro.jobs.spec import JobSpec, jitter_draws, jitterable_params
from repro.jobs.store import CampaignStore

#: Component-class keys accepted in corner scale sets.
_CLASS_KEYS = {
    Resistor: "resistor",
    Capacitor: "capacitor",
    Inductor: "inductor",
    Diode: "device",
    Bjt: "device",
    Mosfet: "device",
}

#: Stock process corners: multiplicative scales per component class.
#: "fast" silicon: lower R/C (shorter delays), stronger devices.
CORNERS: dict[str, dict[str, float]] = {
    "tt": {},
    "ff": {"resistor": 0.9, "capacitor": 0.9, "inductor": 0.9, "device": 1.1},
    "ss": {"resistor": 1.1, "capacitor": 1.1, "inductor": 1.1, "device": 0.9},
    "fs": {"resistor": 0.9, "capacitor": 1.1},
    "sf": {"resistor": 1.1, "capacitor": 0.9},
}


@dataclass
class Campaign:
    """A named, reproducible set of job specs."""

    name: str
    jobs: list[JobSpec]
    generator: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.jobs)


def _base_label(base: JobSpec) -> str:
    return base.label or base.circuit.describe


def monte_carlo(
    base: JobSpec,
    n: int,
    seed: int,
    jitter: float = 0.05,
    components: list[str] | None = None,
) -> Campaign:
    """*n* seeded Monte Carlo variants of *base*.

    Every perturbable component value is multiplied by an independent
    lognormal factor with sigma=*jitter* (values stay positive; 0.05 is
    roughly a 5% one-sigma spread). *components* restricts the jitter to
    the named components.

    Overrides already present in ``base.params`` are treated as the
    nominal values the jitter multiplies.
    """
    if n < 1:
        raise SimulationError("monte_carlo requires n >= 1")
    if jitter < 0:
        raise SimulationError("monte_carlo jitter must be >= 0")
    nominal = jitterable_params(base.circuit.build().circuit)
    nominal.update(base.params)
    if components is not None:
        unknown = set(components) - set(nominal)
        if unknown:
            raise SimulationError(
                f"monte_carlo components not perturbable/present: {sorted(unknown)}"
            )
        nominal = {name: nominal[name] for name in components}
    if not nominal:
        raise SimulationError("circuit has no perturbable parameters to jitter")
    label = _base_label(base)
    jobs = [
        base.derive(label=f"{label}/mc{i:03d}", params={**base.params, **draw})
        for i, draw in enumerate(jitter_draws(nominal, n, seed, jitter))
    ]
    return Campaign(
        name=f"{label}-mc{n}",
        jobs=jobs,
        generator={
            "kind": "monte_carlo",
            "n": n,
            "seed": seed,
            "jitter": jitter,
            "components": sorted(components) if components is not None else None,
        },
    )


def pvt_corners(
    base: JobSpec,
    corners: dict[str, dict[str, float]] | list[str] | None = None,
) -> Campaign:
    """One job per corner; scales applied per component class.

    *corners* may be a list of stock corner names (subset of
    :data:`CORNERS`) or a full mapping ``{name: {class_key: scale}}``
    with class keys ``resistor``/``capacitor``/``inductor``/``device``.
    """
    if corners is None:
        table = dict(CORNERS)
    elif isinstance(corners, dict):
        table = corners
    else:
        unknown = set(corners) - set(CORNERS)
        if unknown:
            raise SimulationError(
                f"unknown corner(s) {sorted(unknown)}; stock corners: {sorted(CORNERS)}"
            )
        table = {name: CORNERS[name] for name in corners}
    circuit = base.circuit.build().circuit
    nominals = jitterable_params(circuit)
    label = _base_label(base)
    jobs = []
    for corner_name in table:
        scales = table[corner_name]
        bad = set(scales) - set(_CLASS_KEYS.values())
        if bad:
            raise SimulationError(
                f"corner {corner_name!r} scales unknown class(es) {sorted(bad)}; "
                f"allowed: {sorted(set(_CLASS_KEYS.values()))}"
            )
        params = dict(base.params)
        for comp in circuit.components:
            key = _CLASS_KEYS.get(type(comp))
            scale = scales.get(key) if key is not None else None
            if scale is None:
                continue
            nominal = base.params.get(comp.name, nominals[comp.name])
            params[comp.name] = float(nominal * scale)
        jobs.append(base.derive(label=f"{label}/{corner_name}", params=params))
    return Campaign(
        name=f"{label}-corners",
        jobs=jobs,
        generator={
            "kind": "pvt_corners",
            "corners": {name: dict(table[name]) for name in table},
        },
    )


def param_sweep(base: JobSpec, component: str, values) -> Campaign:
    """One job per value of *component* (absolute values, not scales)."""
    values = [float(v) for v in values]
    if not values:
        raise SimulationError("param_sweep requires at least one value")
    nominal = jitterable_params(base.circuit.build().circuit)
    if component not in nominal:
        raise SimulationError(
            f"component {component!r} is not a perturbable parameter of the circuit"
        )
    label = _base_label(base)
    jobs = [
        base.derive(
            label=f"{label}/{component}={value:g}",
            params=dict(base.params, **{component: value}),
        )
        for value in values
    ]
    return Campaign(
        name=f"{label}-sweep-{component}",
        jobs=jobs,
        generator={"kind": "param_sweep", "component": component, "values": values},
    )


def single(base: JobSpec) -> Campaign:
    """Degenerate one-job campaign (the CLI's no-generator default)."""
    label = _base_label(base)
    return Campaign(
        name=label,
        jobs=[base.derive(label=base.label or label)],
        generator={"kind": "single"},
    )


@dataclass
class CampaignResult:
    """Everything one campaign run produced.

    ``stats`` sums the persisted counts of every job that produced a
    result (:func:`rollup_stats`).
    """

    campaign: Campaign
    outcomes: list[JobOutcome]
    stats: TransientStats
    manifest_path: str | None = None

    @property
    def passed(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for outcome in self.outcomes:
            out[outcome.status] = out.get(outcome.status, 0) + 1
        return out

    @property
    def cache_hits(self) -> int:
        return self.counts.get("cached", 0)

    @property
    def failures(self) -> list[JobOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def to_dict(self) -> dict:
        return {
            "name": self.campaign.name,
            "generator": self.campaign.generator,
            "jobs": len(self.outcomes),
            "passed": self.passed,
            "counts": self.counts,
            "manifest": self.manifest_path,
            "wall_seconds": self.stats.tran_seconds,
            "outcomes": [
                {
                    "label": outcome.spec.label,
                    "hash": outcome.spec_hash,
                    "status": outcome.status,
                    "attempts": outcome.attempts,
                    "error": outcome.error,
                }
                for outcome in self.outcomes
            ],
        }

    def summary(self) -> str:
        counts = ", ".join(
            f"{count} {status}" for status, count in sorted(self.counts.items())
        )
        verdict = "PASS" if self.passed else f"FAIL({len(self.failures)} jobs)"
        return (
            f"campaign {self.campaign.name}: {verdict} — "
            f"{len(self.outcomes)} jobs ({counts}), "
            f"{self.stats.tran_seconds:.2f}s simulated wall time"
        )


def rollup_stats(outcomes: list[JobOutcome]) -> TransientStats:
    """Campaign-level stats: sums of every completed job's counts.

    ``tran_seconds`` aggregates actual execution time (cache hits cost
    nothing and contribute nothing).
    """
    totals = TransientStats().counts()
    seconds = 0.0
    for outcome in outcomes:
        result = outcome.result
        if result is None:
            continue
        for name in totals:
            totals[name] += result.stats.get(name, 0)
        if not result.cached:
            seconds += outcome.elapsed or result.elapsed
    return TransientStats(tran_seconds=seconds, **totals)


def run_campaign(
    campaign: Campaign,
    store: CampaignStore | str | None = None,
    backend="serial",
    workers: int = 1,
    timeout: float | None = None,
    retries: int = 1,
    backoff: float = 0.0,
    instrument=None,
    on_outcome=None,
    heartbeat=None,
) -> CampaignResult:
    """Run every job of *campaign*, checkpointing into *store*.

    Args:
        store: a :class:`CampaignStore`, a directory path to create one
            in, or None for an ephemeral run (no cache, no manifest).
        backend / workers / timeout / retries / backoff: scheduler
            configuration (see :class:`~repro.jobs.scheduler.JobScheduler`).
        instrument: optional Recorder; gains ``jobs.*`` counters, per-job
            ``job_run`` events, worker telemetry rollups and a
            campaign-level ``campaign_run`` event.
        on_outcome: optional callback fired per job outcome (after the
            manifest checkpoint).
        heartbeat: optional :class:`~repro.instrument.telemetry.Heartbeat`
            started for the duration of the scheduler run (its
            ``total_jobs`` is set to the campaign size if unset).
    """
    if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        store = CampaignStore(store)
    rec = resolve_recorder(instrument)
    statuses: dict[str, str] = {}
    if store is not None and store.has_manifest():
        # Carry prior terminal statuses so a resumed campaign's manifest
        # reflects history for jobs not re-run this time (cache hits
        # overwrite them with "cached"/"done" below anyway).
        statuses.update(store.statuses())
        statuses = {h: s for h, s in statuses.items() if s in ("done", "failed")}

    def checkpoint(outcome: JobOutcome) -> None:
        # "cached" means "done on an earlier run": the manifest records
        # success uniformly, so an interrupted-then-resumed campaign's
        # final manifest is byte-identical to an uninterrupted run's.
        status = "done" if outcome.status == "cached" else outcome.status
        statuses[outcome.spec_hash] = status
        if store is not None:
            store.write_manifest(
                campaign.name, campaign.generator, campaign.jobs, statuses
            )
        if on_outcome is not None:
            on_outcome(outcome)

    if store is not None:
        store.write_manifest(campaign.name, campaign.generator, campaign.jobs, statuses)
    scheduler = JobScheduler(
        backend=backend,
        workers=workers,
        cache=store.cache if store is not None else None,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        instrument=instrument,
    )
    if heartbeat is not None and heartbeat.total_jobs is None:
        heartbeat.total_jobs = len(campaign.jobs)
    beat_scope = heartbeat if heartbeat is not None else contextlib.nullcontext()
    # When an ambient trace context is bound (a farm node running this
    # campaign on behalf of a service submission), stamp its ids on the
    # campaign root so a stitched cross-node trace can tie the span back
    # to the request that paid for it.
    ambient = current_trace()
    span_attrs = {"campaign": campaign.name, "jobs": len(campaign.jobs)}
    if ambient is not None:
        span_attrs["trace_id"] = ambient.trace_id
        span_attrs["tenant"] = ambient.tenant
    # per-job ``job_run`` spans settled on this thread nest under the
    # campaign root.
    with rec.tree_span(CAMPAIGN_RUN, **span_attrs):
        with beat_scope, scheduler:
            outcomes = scheduler.run(campaign.jobs, on_outcome=checkpoint)
    rec.count("jobs.campaigns")
    return CampaignResult(
        campaign=campaign,
        outcomes=outcomes,
        stats=rollup_stats(outcomes),
        manifest_path=str(store.manifest_path) if store is not None else None,
    )
