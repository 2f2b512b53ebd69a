"""Farm-level behaviour: multi-node work stealing and fault injection.

Satellite 1 of the service PR: a node is SIGKILLed mid-claim, its lease
expires, a second node reclaims the job, and the final campaign artifact
directory is byte-identical to an uninterrupted run.  The two-node demo
also checks the acceptance criterion that merged per-node counters
reconcile to 100% of submitted jobs.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.instrument.recorder import Recorder
from repro.jobs.campaign import monte_carlo
from repro.jobs.spec import CircuitRef, JobSpec
from repro.service.node import RESULTS_DIR, FarmNode
from repro.service.queue import JobQueue

posix_only = pytest.mark.skipif(
    sys.platform == "win32", reason="needs POSIX signals"
)

DECK = """rc lowpass
V1 in 0 SIN(0 1 1k)
R1 in out 1k
C1 out 0 1u
.tran 10u 1m
.end
"""


def rc_spec(label="rc") -> JobSpec:
    return JobSpec(circuit=CircuitRef(kind="netlist", netlist=DECK), label=label)


def submit_campaign(root, n=4, seed=7) -> tuple[str, list[str]]:
    queue = JobQueue(root)
    plan = monte_carlo(rc_spec(), n=n, seed=seed, jitter=0.03)
    cid, receipts = queue.submit_campaign(
        "farm-demo", plan.jobs, generator=plan.generator
    )
    return cid, [r.spec_hash for r in receipts]


def discard_queue_store(root) -> None:
    """Delete a farm's queue store (db + WAL sidecars), keeping its cache.

    Close every handle on the store first: sqlite removes a WAL file by
    name when its last connection closes.
    """
    path = JobQueue(root).path
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


def result_bytes(root) -> dict[str, bytes]:
    results = Path(root) / RESULTS_DIR
    return {p.name: p.read_bytes() for p in sorted(results.glob("*.json"))}


class TestTwoNodeFarm:
    def test_second_node_steals_work_and_counters_reconcile(self, tmp_path):
        root = tmp_path / "farm"
        cid, hashes = submit_campaign(root, n=6)
        unique = len(set(hashes))

        rec_a = Recorder(capture_events=False)
        rec_b = Recorder(capture_events=False)
        # node A drains slowly (one job per claim); node B joins mid-campaign
        node_a = FarmNode(root, node_id="alpha", batch=1, instrument=rec_a)
        node_b = FarmNode(root, node_id="beta", batch=1, instrument=rec_b)

        thread = threading.Thread(target=node_a.run, kwargs={"drain": True})
        thread.start()
        node_b.run(drain=True)
        thread.join(timeout=60)
        assert not thread.is_alive()

        queue = JobQueue(root)
        assert queue.counts() == {"done": unique}
        rollup = queue.campaign_status(cid)
        assert rollup["done"] is True
        assert rollup["counts"] == {"done": unique}

        merged = Recorder(capture_events=False)
        merged.merge(rec_a.snapshot())
        merged.merge(rec_b.snapshot())
        counters = merged.snapshot()["counters"]
        # every submitted job settled exactly once across the farm, and is
        # served from the shared cache: completions + cache entries both
        # reconcile to 100% of the submitted (unique) jobs
        assert counters["service.node.completed"] == unique
        assert counters.get("service.node.failed", 0) == 0
        assert len(result_bytes(root)) == unique

    def test_fresh_queue_is_served_from_shared_cache(self, tmp_path):
        root = tmp_path / "farm"
        cid, hashes = submit_campaign(root, n=3)
        FarmNode(root, node_id="alpha").run(drain=True)

        # a brand-new queue over the same cache directory: the second node
        # claims every job but settles them all straight from the shared
        # result cache instead of resimulating
        discard_queue_store(root)
        cid2, _ = submit_campaign(root, n=3)
        assert cid2 == cid
        rec = Recorder(capture_events=False)
        FarmNode(root, node_id="beta", instrument=rec).run(drain=True)
        counters = rec.snapshot()["counters"]
        assert counters["service.node.completed"] == len(set(hashes))
        assert counters["service.node.dedup_served"] == len(set(hashes))


VICTIM_SCRIPT = textwrap.dedent(
    """
    import sys, time
    import repro.jobs.workers as workers
    from repro.service.node import FarmNode

    root, marker = sys.argv[1], sys.argv[2]

    def hang(spec):
        with open(marker, "w") as fh:
            fh.write(spec.content_hash())
        time.sleep(600)

    workers.FAULT_HOOK = hang
    FarmNode(root, node_id="victim", lease_seconds=1.0).run(drain=True)
    """
)


@posix_only
class TestFaultInjection:
    def test_sigkill_mid_claim_is_reclaimed_byte_identically(self, tmp_path):
        # reference: an uninterrupted run of the same campaign
        clean_root = tmp_path / "clean"
        submit_campaign(clean_root, n=4)
        FarmNode(clean_root, node_id="solo").run(drain=True)
        expected = result_bytes(clean_root)
        assert len(expected) == 4

        # interrupted: the victim node claims a job, hangs inside the
        # worker (FAULT_HOOK), and is SIGKILLed while holding the lease
        root = tmp_path / "farm"
        cid, hashes = submit_campaign(root, n=4)
        marker = tmp_path / "claimed.marker"
        victim = subprocess.Popen(
            [sys.executable, "-c", VICTIM_SCRIPT, str(root), str(marker)],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parent.parent,
        )
        try:
            deadline = time.monotonic() + 30
            while not marker.exists():
                assert time.monotonic() < deadline, "victim never claimed"
                assert victim.poll() is None, "victim exited prematurely"
                time.sleep(0.02)
        finally:
            victim.kill()
        victim.wait(timeout=10)

        victim_hash = marker.read_text()
        queue = JobQueue(root)
        status = queue.status(victim_hash)
        assert status["status"] == "leased"
        assert status["lease"]["node"] == "victim"

        # rescue node waits out the 1s lease, reclaims, and finishes
        rescue = FarmNode(root, node_id="rescue", poll_interval=0.05)
        rescue.run(drain=True)

        status = queue.status(victim_hash)
        assert status["status"] == "done"
        assert status["attempts"] == 2  # burned lease + successful rerun
        assert queue.campaign_status(cid)["done"] is True
        # the hard kill left no torn state: the final artifact directory is
        # byte-identical to the uninterrupted run
        assert result_bytes(root) == expected

    def test_sigkill_mid_lease_keeps_the_trace_id(self, tmp_path):
        """Observability satellite: a job re-leased after SIGKILL settles
        under the *same* trace id — its stitched spans re-parent beneath
        the originating request — and the result artifacts stay
        byte-identical to an uninterrupted run."""
        from repro.instrument.spans import build_span_tree
        from repro.instrument.tracectx import TraceContext
        from repro.service.trace import TraceStore, build_campaign_trace

        plan = monte_carlo(rc_spec(), n=4, seed=7, jitter=0.03)

        clean_root = tmp_path / "clean"
        JobQueue(clean_root).submit_campaign(
            "farm-demo", plan.jobs, generator=plan.generator
        )
        FarmNode(clean_root, node_id="solo").run(drain=True)
        expected = result_bytes(clean_root)

        root = tmp_path / "farm"
        queue = JobQueue(root)
        ctx = TraceContext.mint(
            tenant="acme", origin="client", entropy="sigkill-trace"
        )
        cid, _ = queue.submit_campaign(
            "farm-demo", plan.jobs, generator=plan.generator,
            tenant="acme", trace=ctx,
        )
        marker = tmp_path / "claimed.marker"
        victim = subprocess.Popen(
            [sys.executable, "-c", VICTIM_SCRIPT, str(root), str(marker)],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parent.parent,
        )
        try:
            deadline = time.monotonic() + 30
            while not marker.exists():
                assert time.monotonic() < deadline, "victim never claimed"
                assert victim.poll() is None, "victim exited prematurely"
                time.sleep(0.02)
        finally:
            victim.kill()
        victim.wait(timeout=10)
        victim_hash = marker.read_text()

        FarmNode(root, node_id="rescue", poll_interval=0.05).run(drain=True)
        assert queue.status(victim_hash)["attempts"] == 2

        # the rescue node's record carries the original submission's ids
        store = TraceStore(root)
        record = store.get(victim_hash)
        assert record["node"] == "rescue"
        assert record["attempts"] == 2
        assert record["trace"]["trace_id"] == ctx.trace_id

        # stitched trace: one request root under the original trace id,
        # the re-leased job's spans nested beneath it, nothing malformed
        trace_rec = build_campaign_trace(queue, store, cid)
        tree = build_span_tree(list(trace_rec.events))
        assert tree.malformed == 0
        roots = [n for n in tree.roots if n.name == "service_request"]
        assert [n.attrs["trace_id"] for n in roots] == [ctx.trace_id]
        jobs = {c.attrs["hash"]: c for c in roots[0].children
                if c.name == "service_job"}
        relased = jobs[victim_hash[:12]]
        assert relased.attrs["node"] == "rescue"
        assert relased.attrs["attempts"] == 2
        assert relased.attrs["trace_id"] == ctx.trace_id

        # and the crash never leaked into the physics: artifacts match
        # the uninterrupted run byte for byte
        assert result_bytes(root) == expected
