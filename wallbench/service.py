"""The ``service_mixed`` workload: a real farm driven over HTTP.

``repro serve --workers 0`` and one ``repro node`` run as subprocesses
on a scratch queue root; one :class:`~repro.service.client.ServiceClient`
sends the seeded op sequence closed-loop (the callers this models are
scripts that wait for each reply), waits for the queue to drain, then
fetches ``result`` + ``waveform`` once per unique job. Every fetched
payload is checked against :func:`~repro.jobs.workers.execute_job` run
in-process on the same spec, and every job must have been claimed
exactly once.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep

from repro.errors import ReproError
from repro.jobs.cache import ResultCache
from repro.jobs.spec import CircuitRef, JobSpec
from repro.jobs.workers import execute_job
from repro.service.client import ServiceClient, ServiceError
from repro.service.node import FarmNode
from repro.service.queue import JobQueue

from wallbench import ROOT, SRC
from wallbench.layers import SERVICE_TARGETS
from wallbench.samples import Sample
from wallbench.trace import Tracer
from wallbench.workloads import JOBS_PER_BLOCK, OPS_PER_BLOCK, ServiceTraffic

#: Scratch space inside the checkout (git-ignored); the benchmark reads
#: and writes nowhere else.
SCRATCH = ROOT / ".wallbench_scratch"

#: Jobs the traced in-process FarmNode settles (enough for steady medians).
NODE_STEPS = 40

START_TIMEOUT = 60.0
DRAIN_TIMEOUT = 150.0
STOP_TIMEOUT = 15.0


def scratch_dir(prefix: str) -> Path:
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))


class Farm:
    """Server + node subprocesses on a fresh queue root.

    ``start`` returns once the farm has *done a job*: a canary submitted
    over HTTP and fetched back proves both processes are up, so node
    start-up lands in ``setup_s``, not in the first ops of the loop.
    """

    def __init__(self) -> None:
        self.root = scratch_dir("farm-")
        self.procs: list[subprocess.Popen] = []
        self.client: ServiceClient | None = None

    def _spawn(self, *argv: str, stdout) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv, "--root", str(self.root)],
            stdout=stdout, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        self.procs.append(proc)
        return proc

    def start(self) -> "Farm":
        try:
            server = self._spawn("serve", "--port", "0", "--workers", "0", stdout=subprocess.PIPE)
            self._spawn("node", "--id", "wallbench-node", stdout=subprocess.DEVNULL)
            ready, _, _ = select.select([server.stdout], [], [], START_TIMEOUT)
            line = server.stdout.readline() if ready else ""
            if " on http://" not in line:
                raise RuntimeError(f"service did not start (got {line!r})")
            self.client = ServiceClient(line.split(" on ")[1].split()[0])
            canary = JobSpec(circuit=CircuitRef(kind="registry", name="rcladder20"), tstop=1e-9)
            receipt = self.client.submit_job(canary, tenant="wallbench")
            self.client.wait_job(receipt["id"], timeout=START_TIMEOUT, poll=0.02)
        except BaseException:
            self.stop()  # no half-started farm, no scratch root left behind
            raise
        return self

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        self.procs.clear()
        shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "Farm":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class ServiceSample(Sample):
    """A service rep, plus what the per-layer study needs.

    Its parts are cut where the work is the same in every rep of the
    same traffic: ``loop`` after each block of ops, ``drain`` at every
    ``JOBS_PER_BLOCK``-th job the farm settled (first op sent -> last
    job settled, by the queue's own ``settled`` stamps), ``wall`` the
    same and then the result fetches, ``base`` the in-process
    ``execute_job`` of each block's jobs, run in the rep's check.
    """

    #: latencies of the single-job submits alone (campaigns excluded),
    #: the HTTP twin of the direct ``JobQueue.submit`` replay
    job_submit_s: list[float] = field(default_factory=list)
    deduped: int = 0
    receipts: int = 0
    manifest_bytes: int = 0


def _payload_error(fetched: dict, local: dict) -> float:
    """Worst relative sample deviation between two result payloads."""
    worst = 0.0
    for name, values in local["signals"].items():
        got = fetched["signals"].get(name, [])
        if len(got) != len(values):
            return float("inf")
        scale = max(abs(v) for v in values) or 1.0
        worst = max(worst, max(abs(a - b) for a, b in zip(got, values)) / scale)
    return worst


def run_service_rep(traffic: ServiceTraffic, farm: Farm) -> ServiceSample:
    """Op loop → drain → one result+waveform fetch per unique job → check."""
    client = farm.client
    sample = ServiceSample(ops=len(traffic.ops), sims=len(traffic.unique))

    def guarded(call, *args, **kwargs):
        """The reply, or None with the error counted as a failed op."""
        try:
            return call(*args, **kwargs)
        except (ServiceError, OSError):
            sample.attempted += 1
            sample.failed += 1
            return None

    def timed(call, *args, **kwargs):
        start = perf_counter()
        reply = guarded(call, *args, **kwargs)
        sample.attempted += reply is not None
        return reply, perf_counter() - start

    def send(op) -> None:
        if op.kind == "poll":
            _, dt = timed(client.job, op.job)
            sample.read_s.append(dt)
            return
        if op.kind == "campaign":
            reply, dt = timed(client.submit_campaign, op.spec, op.generator, tenant=op.tenant)
            if reply is not None:
                sample.receipts += len(reply["jobs"])
                sample.deduped += reply["deduped"]
        else:
            reply, dt = timed(client.submit_job, op.spec, tenant=op.tenant)
            sample.job_submit_s.append(dt)
            if reply is not None:
                sample.receipts += 1
                sample.deduped += int(reply["deduped"])
        sample.submit_s.append(dt)

    t_first, epoch_first = perf_counter(), time.time()
    for at in range(0, len(traffic.ops), OPS_PER_BLOCK):
        t_block = perf_counter()
        for op in traffic.ops[at : at + OPS_PER_BLOCK]:
            send(op)
        sample.loop.append(perf_counter() - t_block)

    deadline = perf_counter() + DRAIN_TIMEOUT
    while perf_counter() < deadline:
        # how many polls the wait takes is timing, not traffic: only a
        # poll that errors counts, as a failed op
        health = guarded(client.healthz)
        if health is not None:
            counts = health["queue"]
            if counts.get("pending", 0) + counts.get("leased", 0) == 0:
                break
        sleep(0.05)

    fetched = {}
    for spec_hash in traffic.unique:
        result, dt = timed(client.result, spec_hash)
        sample.read_s.append(dt)
        waveform, dt = timed(client.waveform, spec_hash)
        sample.read_s.append(dt)
        fetched[spec_hash] = (result, waveform)
    wall = perf_counter() - t_first

    # -- untimed: the parts, then the check (also the in-process baseline) --
    queue = JobQueue(farm.root)
    sample.manifest_bytes = queue.path.stat().st_size
    entries = queue.entries()
    settled = sorted(
        entries[h]["settled"] - epoch_first
        for h in traffic.unique
        if "settled" in entries.get(h, ())
    )
    if len(settled) == len(traffic.unique):
        marks = settled[JOBS_PER_BLOCK - 1 :: JOBS_PER_BLOCK]
        sample.drain = [b - a for a, b in zip([0.0, *marks], marks)]
        sample.wall = [*sample.drain, wall - marks[-1]]
    else:
        sample.complete = False  # the farm never drained: failures below, no times

    for at, (spec_hash, spec) in enumerate(traffic.unique.items()):
        if at % JOBS_PER_BLOCK == 0:
            sample.base.append(0.0)
        sample.attempted += 1
        result, waveform = fetched[spec_hash]
        start = perf_counter()
        try:
            local = execute_job(spec).to_dict()
        except ReproError:
            sample.failed += 1
            continue
        sample.base[-1] += perf_counter() - start
        attempts = entries.get(spec_hash, {}).get("attempts", 0)
        sample.base_virtual += local["stats"]["work_units"]
        if result is None or waveform is None:
            sample.failed += 1  # the fetch already counted; so does the job
            continue
        sample.virtual_work += result["stats"]["work_units"] * attempts
        served = {k: v for k, v in result.items() if k != "telemetry"}
        same = (
            served == local
            and waveform["times"] == local["times"]
            and waveform["signals"] == local["signals"]
            and attempts == 1
        )
        sample.max_rel_err = max(sample.max_rel_err, _payload_error(result, local))
        sample.failed += 0 if same else 1
    return sample


# -- the traced pass ---------------------------------------------------------------


def _median_ms(seconds) -> float:
    seconds = list(seconds)
    return 1e3 * statistics.median(seconds) if seconds else 0.0


def _median_call(call, repeats: int = 5) -> float:
    """Median seconds of *repeats* direct calls."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _per_call_ms(summary: dict, span: str) -> float:
    row = summary.get(span)
    return 1e3 * row["total_s"] / row["calls"] if row and row["calls"] else 0.0


def service_layers(traffic: ServiceTraffic, sample: ServiceSample) -> tuple[dict, list[str]]:
    """Per-layer numbers behind one HTTP rep, measured in-process.

    The same op sequence is replayed straight into a second
    :class:`JobQueue` (so every direct call sees the manifest depth its
    HTTP twin saw), then an in-process :class:`FarmNode` settles
    ``NODE_STEPS`` of those jobs under the tracer.
    """
    root = scratch_dir("direct-")
    try:
        queue = JobQueue(root)
        direct_submit: list[tuple[int, float]] = []  # (manifest entries, seconds)
        direct_status: list[float] = []
        entries: set[str] = set()
        for op in traffic.ops:
            start = perf_counter()
            if op.kind == "poll":
                queue.status(op.job)
                direct_status.append(perf_counter() - start)
            elif op.kind == "campaign":
                queue.submit_campaign(
                    "wallbench", list(op.members), op.generator, tenant=op.tenant
                )
                entries.update(member.content_hash() for member in op.members)
            else:
                queue.submit(op.spec, tenant=op.tenant)
                elapsed = perf_counter() - start
                entries.add(op.spec.content_hash())
                direct_submit.append((len(entries), elapsed))

        tracer = Tracer()
        with FarmNode(root, node_id="wallbench-direct") as node:
            with tracer.installed(SERVICE_TARGETS):
                for _ in range(NODE_STEPS):
                    if node.step() == 0:
                        break
        summary = tracer.summary()

        spec = next(iter(traffic.unique.values()))
        hash_us = 1e6 * _median_call(spec.content_hash, repeats=101)
        execute_ms = 1e3 * _median_call(lambda: execute_job(spec))
        result = execute_job(spec)
        cache = ResultCache(root / "probe")
        put_ms = 1e3 * _median_call(lambda: cache.put(result))
        get_ms = 1e3 * _median_call(lambda: cache.get(result.spec_hash))
        path = cache.path(result.spec_hash)
        result_bytes = path.stat().st_size
    finally:
        shutil.rmtree(root, ignore_errors=True)

    depths = [depth for depth, _ in direct_submit]
    slope = statistics.linear_regression(
        depths, [1e3 * dt for _, dt in direct_submit]
    ).slope if len(set(depths)) > 1 else 0.0
    steps = summary.get("service.node_step", {"total_s": 0.0, "calls": 0})
    executed = summary.get("jobs.execute_job", {"total_s": 0.0})
    out = {
        "service.queue_submit_ms": _median_ms(dt for _, dt in direct_submit),
        "service.queue_claim_ms": _per_call_ms(summary, "service.queue_claim"),
        "service.queue_complete_ms": _per_call_ms(summary, "service.queue_complete"),
        "service.queue_status_ms": _median_ms(direct_status),
        "service.queue_ms_per_entry": slope,
        "service.queue_manifest_bytes": sample.manifest_bytes,
        "service.http_overhead_ms": _median_ms(sample.job_submit_s)
        - _median_ms(dt for _, dt in direct_submit),
        "service.node_overhead_ms": (
            1e3 * (steps["total_s"] - executed["total_s"]) / steps["calls"]
            if steps["calls"] else 0.0
        ),
        "service.dedup_ratio": sample.deduped / sample.receipts if sample.receipts else 0.0,
        "service.error_ratio": sample.failed / sample.attempted,
        "jobs.execute_job_ms": execute_ms,
        "jobs.spec_hash_us": hash_us,
        "jobs.cache_put_ms": put_ms,
        "jobs.cache_get_ms": get_ms,
        "jobs.result_bytes": result_bytes,
        "verify.max_rel_err": sample.max_rel_err,
    }
    lost = tracer.unresolved
    for metric, span in (
        ("service.queue_claim_ms", "service.queue_claim"),
        ("service.queue_complete_ms", "service.queue_complete"),
        ("service.node_overhead_ms", "service.node_step"),
        ("service.node_overhead_ms", "jobs.execute_job"),
    ):
        if span in lost:
            out[metric] = None
    return out, list(tracer.missing)
