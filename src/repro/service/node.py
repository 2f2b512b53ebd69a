"""Farm node: claim work from a :class:`~repro.service.queue.JobQueue`,
run it through a :class:`~repro.jobs.scheduler.JobScheduler`, settle it.

A node is one OS process (or thread) in a horizontally sharded farm. Any
number of nodes point at the same queue directory; the write-locked
queue transactions partition the pending work between them, and the
shared :class:`~repro.jobs.cache.ResultCache` under ``<root>/results``
dedups the physics — a node claiming a spec another tenant already paid
for serves the cached bytes without touching the engine.

``repro node`` (:func:`run_node`) keeps every core busy: it runs one
claim loop per usable CPU, each an ordinary :class:`FarmNode` in its own
forked process, and sums their claims and counters when they exit.

Crash safety is entirely lease-based: a node never marks anything on the
queue before it finishes. SIGKILL a node mid-job and the only trace is a
lease that stops being renewed; the next claimant's transaction reaps it
and reruns the job, producing byte-identical results (specs are
deterministic and results content-addressed).
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
import threading
import time
from multiprocessing import connection as mp_connection
from pathlib import Path

from repro.errors import ReproError, SimulationError
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


def usable_cpus() -> int:
    """Claim loops a node runs by default: one per CPU it may run on.

    The affinity mask, not the machine's core count, so a node started
    under ``taskset`` or a cgroup cpuset runs as many loops as it has
    cores. Without ``fork`` a node cannot fan out, so the answer is 1.
    """
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)

#: ``prctl`` option: the signal the kernel sends when the parent dies.
_PR_SET_PDEATHSIG = 1


def _on_stop_signals(action) -> None:
    """Run *action* on SIGTERM/SIGINT (a no-op off the main thread)."""

    def handler(signum, frame):
        action()

    for signum in _STOP_SIGNALS:
        try:
            signal.signal(signum, handler)
        except (ValueError, OSError):  # non-main thread
            break


def _die_with_parent() -> None:
    """Have Linux SIGKILL this process when the node process dies.

    Elsewhere the per-iteration ``getppid`` check of :class:`_LoopStop`
    is the only guard, and it waits for the in-flight job.
    """
    if not sys.platform.startswith("linux"):
        return
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, os.strerror(errno))


class _LoopStop(threading.Event):
    """A claim loop's stop flag; also reads set once the node is gone.

    The loop tests it once per claim, so a loop orphaned before
    ``PR_SET_PDEATHSIG`` took hold (or where it does not exist) stops
    after its in-flight job instead of claiming forever.
    """

    def __init__(self, parent: int):
        super().__init__()
        self.parent = parent

    def is_set(self) -> bool:
        return super().is_set() or os.getppid() != self.parent


def _run_loop(root, node_id, options: dict, stop, drain: bool, instrument) -> int:
    with FarmNode(root, node_id=node_id, instrument=instrument, **options) as node:
        return node.run(stop=stop, drain=drain)


def _loop_main(conn, parent: int, root, node_id, options, drain, instrument) -> None:
    """Body of one forked claim loop: run, then report to the node process.

    Sends ``(claimed, recorder snapshot, error message or None)``.
    """
    _die_with_parent()
    stop = _LoopStop(parent)
    _on_stop_signals(stop.set)
    # the node process blocked these across the fork; from here on they
    # reach this loop's own handler
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
    claimed, error = 0, None
    try:
        claimed = _run_loop(root, node_id, options, stop, drain, instrument)
    except ReproError as exc:
        error = str(exc)
    conn.send((claimed, instrument.snapshot(), error))
    conn.close()


def _run_loops(
    loops: int, root, node_id, options: dict, drain: bool, rec, install_signals: bool
) -> int:
    """Fork *loops* claim loops, wait for every one, sum their claims.

    Forked from the node process before anything opens the queue store,
    so no sqlite connection crosses a fork. Fork, not spawn: the node has
    started no thread of its own yet, and a forked loop skips the ~1 s
    re-import and keeps the node's command line, so ``pgrep -f`` finds a
    node's loops with it. SIGTERM/SIGINT are blocked until each loop has
    its own handler, and then forwarded to every loop: each stops after
    its in-flight job. A loop that fails stops the others, and the node
    raises its error once all are reaped.
    """
    ctx = multiprocessing.get_context("fork")
    parent = os.getpid()
    procs: dict = {}  # reader conn -> Process
    failure = None
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
    try:
        try:
            for index in range(loops):
                reader, writer = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_loop_main,
                    name=f"claim-loop-{index}",
                    args=(
                        writer,
                        parent,
                        root,
                        None if node_id is None else f"{node_id}.{index}",
                        options,
                        drain,
                        rec,
                    ),
                )
                proc.start()
                writer.close()  # a loop's EOF must reach the node
                procs[reader] = proc
            if install_signals:
                _on_stop_signals(
                    lambda: [proc.terminate() for proc in procs.values()]
                )
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        total = 0
        pending = dict(procs)
        while pending:
            for reader in mp_connection.wait(list(pending)):
                proc = pending.pop(reader)
                try:
                    claimed, snapshot, error = reader.recv()
                except EOFError:  # died before reporting
                    claimed, snapshot, error = 0, None, None
                reader.close()
                proc.join()
                if error is None and proc.exitcode != 0:
                    error = f"{proc.name} exited with code {proc.exitcode}"
                total += claimed
                if snapshot is not None:
                    rec.merge(snapshot)
                if error is not None and failure is None:
                    failure = error
                    for other in pending.values():
                        other.terminate()
    finally:
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
            proc.join()
    if failure is not None:
        raise SimulationError(failure)
    return total


def run_node(
    root,
    node_id: str | None = None,
    backend="serial",
    workers: int | None = None,
    batch: int = 1,
    lease_seconds: float = DEFAULT_LEASE,
    poll_interval: float = DEFAULT_POLL,
    timeout: float | None = None,
    drain: bool = False,
    instrument=None,
    install_signals: bool = True,
) -> int:
    """Process entry point for ``repro node``: run *workers* claim loops.

    Each loop is an ordinary :class:`FarmNode` running one job at a time
    on *backend*. ``workers`` defaults to :func:`usable_cpus`; above 1
    each loop is a forked process (lease id ``<node_id>.<i>``, or
    ``node-<pid>`` without a *node_id*) whose counters are merged into
    *instrument* when it exits, and a SIGKILLed node takes its loops
    with it. ``workers=1`` runs the one loop in this process.

    SIGTERM/SIGINT request a graceful stop (every loop finishes its
    in-flight job, settles it, exits); SIGKILL is the fault-injection
    path — the lease reaper cleans up after it. Returns the total jobs
    claimed over all loops.
    """
    loops = usable_cpus() if workers is None else workers
    if loops < 1:
        raise SimulationError(f"a node needs workers >= 1, got {loops}")
    options = dict(
        backend=backend,
        batch=batch,
        lease_seconds=lease_seconds,
        poll_interval=poll_interval,
        timeout=timeout,
    )
    if loops > 1:
        return _run_loops(
            loops, root, node_id, options, drain,
            resolve_recorder(instrument), install_signals,
        )
    stop = threading.Event()
    if install_signals:
        _on_stop_signals(stop.set)
    return _run_loop(root, node_id, options, stop, drain, instrument)


__all__ = ["FarmNode", "run_node", "ClaimedJob", "RESULTS_DIR"]
