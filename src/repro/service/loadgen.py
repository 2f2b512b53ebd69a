"""Deterministic load generator for the simulation service.

Drives a mixed request stream — unique Monte-Carlo submissions, exact
duplicate resubmits (the dedup path), status polls, periodic campaign
submissions — against one :class:`~repro.service.client.ServiceClient`.
Everything is derived from one ``random.Random(seed)``: the op sequence,
the spec pool, the campaign seeds. Same seed, same traffic, same service
counters — which is what lets the Table R12 smoke benchmark pin the
service stack's counts exactly and the CI smoke job assert exact
reconciliation.

Backpressure (429) is counted, never fatal: with a quota configured the
generator records every rejection and moves on, so a burst of uniques
past the cap yields a deterministic nonzero ``rejected`` tally.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field

from repro.errors import SimulationError
from repro.jobs.campaign import monte_carlo
from repro.jobs.spec import CircuitRef, JobSpec
from repro.service.client import Backpressure, ServiceClient, ServiceError

#: Op mix: fraction of loop ops that are submissions (the rest are
#: status polls). Campaign submits are scheduled by stride instead
#: (every ``campaign_every`` requests) so their count is exact, not
#: merely seeded.
_P_DUPLICATE = 0.70


@dataclass
class LoadReport:
    """What one load-generation run observed."""

    requests: int = 0          # HTTP calls in the main op loop
    submitted: int = 0         # accepted submissions (202), incl. campaign members
    deduped: int = 0           # accepted submissions absorbed by dedup
    rejected: int = 0          # 429 backpressure responses
    campaigns: int = 0         # accepted campaign submissions
    campaign_jobs: int = 0     # jobs across those campaigns
    polls: int = 0             # status polls
    results_fetched: int = 0   # result bodies fetched after the drain
    errors: int = 0            # non-429 request failures
    unique_jobs: int = 0       # distinct content hashes touched
    drained: bool = False      # queue reached zero active jobs in time
    elapsed: float = 0.0
    counts: dict = field(default_factory=dict)  # final queue status counts

    def to_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        return (
            f"loadgen: {self.requests} requests — {self.submitted} submitted "
            f"({self.deduped} deduped), {self.campaigns} campaigns "
            f"({self.campaign_jobs} jobs), {self.polls} polls, "
            f"{self.rejected} rejected (429), {self.errors} errors; "
            f"{self.unique_jobs} unique jobs, "
            f"{self.results_fetched} results fetched, "
            f"drained={self.drained} in {self.elapsed:.1f}s"
        )


def run_load(
    client: ServiceClient | str,
    requests: int = 200,
    seed: int = 0,
    circuit: str = "rcladder20",
    tenants: tuple[str, ...] = ("acme", "bulk", "free"),
    unique: int = 8,
    jitter: float = 0.02,
    campaign_every: int = 25,
    campaign_jobs: int = 4,
    tstop: float | None = None,
    wait: bool = True,
    wait_timeout: float = 300.0,
    fetch_results: bool = True,
    think: float = 0.0,
) -> LoadReport:
    """Drive *requests* mixed operations; returns the observed tallies.

    Args:
        client: a :class:`ServiceClient` or a base URL string.
        requests: length of the main op loop (drain-phase result fetches
            are extra).
        seed: master seed for the op sequence and every spec.
        circuit: registry benchmark every job simulates.
        tenants: rotated deterministically across submissions.
        unique: size of the distinct-spec pool the submit ops draw from.
        jitter: Monte-Carlo sigma for pool/campaign variants.
        campaign_every: one campaign submission per this many requests.
        campaign_jobs: members per submitted campaign.
        tstop: optional transient-window override (shorter = cheaper).
        wait: after the loop, poll ``/healthz`` until no active jobs
            remain (or *wait_timeout* passes).
        fetch_results: after a successful drain, fetch every unique
            job's result exactly once.
        think: fixed sleep between ops (0 = as fast as the socket goes).
    """
    if requests < 1:
        raise SimulationError("loadgen needs requests >= 1")
    if unique < 1:
        raise SimulationError("loadgen needs unique >= 1")
    if isinstance(client, str):
        client = ServiceClient(client)
    rng = random.Random(seed)
    base = JobSpec(
        circuit=CircuitRef(kind="registry", name=circuit),
        label=f"loadgen-{circuit}",
        tstop=tstop,
    )
    pool = monte_carlo(base, n=unique, seed=seed, jitter=jitter).jobs
    report = LoadReport()
    known: list[str] = []
    seen: set[str] = set()
    started = time.monotonic()

    def note(spec_hash: str) -> None:
        if spec_hash not in seen:
            seen.add(spec_hash)
            known.append(spec_hash)

    def tenant_for(index: int) -> str:
        return tenants[index % len(tenants)] if tenants else "default"

    for index in range(requests):
        if think > 0:
            time.sleep(think)
        report.requests += 1
        tenant = tenant_for(index)
        try:
            if campaign_every > 0 and index % campaign_every == campaign_every - 1:
                receipt = client.submit_campaign(
                    base,
                    {
                        "kind": "monte_carlo",
                        "n": campaign_jobs,
                        "seed": seed + 1000 + index // campaign_every,
                        "jitter": jitter,
                    },
                    tenant=tenant,
                )
                report.campaigns += 1
                report.campaign_jobs += len(receipt["jobs"])
                # campaign members count as submissions, mirroring the
                # server's service.submitted/.deduped convention — so
                # submitted - deduped == jobs actually enqueued holds
                # across both submit paths
                report.submitted += len(receipt["jobs"])
                report.deduped += receipt["deduped"]
                for spec_hash in receipt["jobs"]:
                    note(spec_hash)
                continue
            draw = rng.random()
            pick = rng.randrange(unique)
            if draw < _P_DUPLICATE or not known:
                # Submissions draw from a fixed pool: a pool member's
                # first submit is unique work, every later one is an
                # exact duplicate the service must dedup against the
                # live queue entry (or the finished one) instead of
                # recomputing — so cached/uncached traffic mixes without
                # any response-dependent branching.
                receipt = client.submit_job(pool[pick], tenant=tenant)
                report.submitted += 1
                report.deduped += int(receipt["deduped"])
                note(receipt["id"])
            else:
                spec_hash = known[rng.randrange(len(known))]
                client.job(spec_hash)
                report.polls += 1
        except Backpressure:
            report.rejected += 1
        except (ServiceError, ConnectionError, TimeoutError, OSError):
            report.errors += 1

    report.unique_jobs = len(known)

    if wait:
        deadline = time.monotonic() + wait_timeout
        while time.monotonic() < deadline:
            try:
                health = client.healthz()
            except (ServiceError, ConnectionError, OSError):
                time.sleep(0.2)
                continue
            queue_counts = health.get("queue", {})
            report.counts = queue_counts
            active = queue_counts.get("pending", 0) + queue_counts.get("leased", 0)
            if active == 0:
                report.drained = True
                break
            time.sleep(0.1)

    if fetch_results and report.drained:
        for spec_hash in known:
            try:
                client.result(spec_hash)
                report.results_fetched += 1
            except (ServiceError, ConnectionError, OSError):
                report.errors += 1

    report.elapsed = time.monotonic() - started
    return report
