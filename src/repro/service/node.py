"""Farm node: claim work from a :class:`~repro.service.queue.JobQueue`,
run it through a :class:`~repro.jobs.scheduler.JobScheduler`, settle it.

A node is one OS process (or thread) in a horizontally sharded farm. Any
number of nodes point at the same queue directory; the write-locked
queue transactions partition the pending work between them, and the
shared :class:`~repro.jobs.cache.ResultCache` under ``<root>/results``
dedups the physics — a node claiming a spec another tenant already paid
for serves the cached bytes without touching the engine.

Crash safety is entirely lease-based: a node never marks anything on the
queue before it finishes. SIGKILL a node mid-job and the only trace is a
lease that stops being renewed; the next claimant's transaction reaps it
and reruns the job, producing byte-identical results (specs are
deterministic and results content-addressed).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path

from repro.instrument.recorder import resolve_recorder
from repro.instrument.telemetry import tenant_counter
from repro.jobs.cache import ResultCache
from repro.jobs.scheduler import JobScheduler
from repro.service.queue import ClaimedJob, JobQueue
from repro.service.trace import TraceStore

#: Subdirectory of the queue root holding the shared result cache.
RESULTS_DIR = "results"

#: Default idle sleep between empty claim attempts.
DEFAULT_POLL = 0.05

#: Default lease duration; must comfortably exceed one job's wall time
#: (the node renews outstanding leases whenever a batch member settles,
#: but a single job longer than the lease can still be reclaimed).
DEFAULT_LEASE = 30.0


class FarmNode:
    """One worker node of a sharded simulation farm.

    Args:
        root: queue directory shared by every node and front end.
        node_id: stable identity used in lease records; defaults to
            ``node-<pid>``.
        backend: scheduler backend name or instance (``serial``,
            ``process``, an :class:`~repro.jobs.ensemble.EnsembleBackend`
            for lockstep variant batching, ...).
        workers: worker count when *backend* is a name.
        batch: jobs claimed per queue transaction. Claiming > 1 lets the
            ensemble backend see same-topology specs together.
        lease_seconds: lease granted per claim; renewed as batch members
            settle.
        poll_interval: idle sleep when a claim returns nothing.
        timeout: per-job wall-clock limit passed to the scheduler.
        retries: scheduler-internal retries per claim. Defaults to 0 —
            the queue's own ``max_attempts`` accounting is the retry
            policy of record, and burning attempts in two places makes
            failures harder to read.
        instrument: optional Recorder for ``service.node.*`` counters
            (plus the scheduler's ``jobs.*`` family).
        quota / max_attempts: forwarded to the node's queue handle.
    """

    def __init__(
        self,
        root,
        node_id: str | None = None,
        backend="serial",
        workers: int = 1,
        batch: int = 1,
        lease_seconds: float = DEFAULT_LEASE,
        poll_interval: float = DEFAULT_POLL,
        timeout: float | None = None,
        retries: int = 0,
        instrument=None,
        quota: int | None = None,
        max_attempts: int = 3,
    ):
        self.root = Path(root)
        self.node_id = node_id or f"node-{os.getpid()}"
        self.batch = max(1, int(batch))
        self.lease_seconds = lease_seconds
        self.poll_interval = poll_interval
        self.instrument = instrument
        self.queue = JobQueue(self.root, quota=quota, max_attempts=max_attempts)
        self.cache = ResultCache(self.root / RESULTS_DIR)
        self.traces = TraceStore(self.root)
        self.scheduler = JobScheduler(
            backend=backend,
            workers=workers,
            cache=self.cache,
            timeout=timeout,
            retries=retries,
            instrument=instrument,
        )

    # -- one claim-run-settle cycle ----------------------------------------------

    def step(self) -> int:
        """Claim up to ``batch`` jobs, run them, settle them.

        Returns the number of jobs claimed (0 means the queue had no
        pending work at claim time). Settlement is eager: each job is
        completed/failed on the queue the moment its outcome lands, and
        the leases of still-running batch members are renewed so a slow
        tail job is not reaped mid-batch.
        """
        rec = resolve_recorder(self.instrument)
        claimed = self.queue.claim(
            self.node_id, lease_seconds=self.lease_seconds, limit=self.batch
        )
        if not claimed:
            # Starvation signal: the node asked and the queue had nothing.
            # A dashboard where claims_empty dominates node.claims means
            # the farm is over-provisioned; the inverse means saturation.
            rec.count("service.claims_empty")
            return 0
        rec.count("service.node.claims", len(claimed))
        claim_wall = time.time()
        by_hash = {job.spec_hash: job for job in claimed}
        for job in claimed:
            # Queue age at the moment of claim — the staleness knob that
            # backpressure 429s should be tuned against, not raw depth.
            rec.observe("service.queue_age", job.queue_age)
            for tenant in job.tenants:
                rec.observe(tenant_counter(tenant, "queue_age"), job.queue_age)
        outstanding = {job.spec_hash for job in claimed}

        def settle(outcome) -> None:
            spec_hash = outcome.spec_hash
            if outcome.ok:
                # complete() after an eagerly-settled failure still wins:
                # the scheduler may retry a spec it already reported.
                if self.queue.complete(spec_hash, self.node_id):
                    rec.count("service.node.completed")
                    if outcome.status == "cached":
                        rec.count("service.node.dedup_served")
            else:
                self.queue.fail(
                    spec_hash, self.node_id, outcome.error or outcome.status
                )
                rec.count("service.node.failed")
            job = by_hash.get(spec_hash)
            if job is not None:
                settled = time.time()
                claimed_at = (
                    job.enqueued + job.queue_age
                    if job.enqueued is not None
                    else claim_wall
                )
                lease_latency = max(settled - claimed_at, 0.0)
                rec.observe("service.lease_latency", lease_latency)
                for tenant in job.tenants:
                    rec.observe(
                        tenant_counter(tenant, "lease_latency"), lease_latency
                    )
                self.traces.put(
                    spec_hash,
                    {
                        "hash": spec_hash,
                        "node": self.node_id,
                        "attempts": job.attempts,
                        "status": outcome.status,
                        "ok": outcome.ok,
                        "cached": outcome.status == "cached",
                        "trace": job.trace,
                        "enqueued": job.enqueued,
                        "claimed": claimed_at,
                        "settled": settled,
                        "elapsed": float(outcome.elapsed or 0.0),
                        "queue_age": job.queue_age,
                        "lease_latency": lease_latency,
                        "telemetry": outcome.telemetry,
                    },
                )
            outstanding.discard(spec_hash)
            for other in outstanding:
                self.queue.renew(other, self.node_id, self.lease_seconds)

        trace_map = {
            job.spec_hash: job.trace for job in claimed if job.trace
        }
        self.scheduler.run(
            [job.spec for job in claimed],
            on_outcome=settle,
            trace=trace_map or None,
        )
        return len(claimed)

    # -- the node loop -----------------------------------------------------------

    def run(self, stop: threading.Event | None = None, drain: bool = False) -> int:
        """Claim-run-settle until stopped; returns total jobs claimed.

        With ``drain=True`` the loop exits once the queue holds no active
        (pending or leased) work — leases held by *other* nodes keep a
        draining node alive, so a survivor waits out a crashed peer's
        lease and absorbs its work before exiting.
        """
        rec = resolve_recorder(self.instrument)
        total = 0
        while stop is None or not stop.is_set():
            claimed = self.step()
            total += claimed
            if claimed:
                continue
            if drain and self.queue.depth() == 0:
                break
            # Idle-backoff histogram: how much of the node's life is
            # spent sleeping on an empty queue (complement of the
            # saturation story claims_empty tells in counts).
            rec.observe("service.idle_backoff", self.poll_interval)
            time.sleep(self.poll_interval)
        return total

    def close(self) -> None:
        self.scheduler.close()
        self.queue.close()

    def __enter__(self) -> "FarmNode":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_node(
    root,
    node_id: str | None = None,
    backend="serial",
    workers: int = 1,
    batch: int = 1,
    lease_seconds: float = DEFAULT_LEASE,
    poll_interval: float = DEFAULT_POLL,
    timeout: float | None = None,
    drain: bool = False,
    instrument=None,
    install_signals: bool = True,
) -> int:
    """Process entry point for ``repro node``: run one farm node loop.

    SIGTERM/SIGINT request a graceful stop (finish the in-flight batch,
    settle it, exit); SIGKILL is the fault-injection path — the lease
    reaper cleans up after it. Returns total jobs claimed.
    """
    stop = threading.Event()
    if install_signals:
        def _request_stop(signum, frame):
            stop.set()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, _request_stop)
            except (ValueError, OSError):  # non-main thread
                break
    with FarmNode(
        root,
        node_id=node_id,
        backend=backend,
        workers=workers,
        batch=batch,
        lease_seconds=lease_seconds,
        poll_interval=poll_interval,
        timeout=timeout,
        instrument=instrument,
    ) as node:
        return node.run(stop=stop, drain=drain)


__all__ = ["FarmNode", "run_node", "ClaimedJob", "RESULTS_DIR"]
