"""Farm-level behaviour: multi-node work stealing and fault injection.

Satellite 1 of the service PR: a node is SIGKILLed mid-claim, its lease
expires, a second node reclaims the job, and the final campaign artifact
directory is byte-identical to an uninterrupted run.  The two-node demo
also checks the acceptance criterion that merged per-node counters
reconcile to 100% of submitted jobs.
"""

import os
import shutil
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


REPO = Path(__file__).resolve().parent.parent

linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads /proc; loops die with the node through PR_SET_PDEATHSIG",
)

#: A two-loop node whose every job sleeps 0.5 s after dropping a marker
#: file named after its spec hash, so a test can signal it mid-job.
SLOW_NODE_SCRIPT = textwrap.dedent(
    """
    import sys, time
    import repro.jobs.workers as workers
    from repro.service.node import run_node

    root, marker = sys.argv[1], sys.argv[2]

    def slow(spec):
        open(marker + spec.content_hash(), "w").close()
        time.sleep(0.5)

    workers.FAULT_HOOK = slow
    print(run_node(root, node_id="fan", workers=2, poll_interval=0.05))
    """
)


def repro_node(root, *argv, prefix=()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*prefix, sys.executable, "-m", "repro", "node", "--root", str(root), *argv],
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )


def processes_naming(token: str) -> list[int]:
    """Live processes whose command line contains *token* (zombies have none)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            if token.encode() in (entry / "cmdline").read_bytes():
                pids.append(int(entry.name))
        except OSError:  # exited while we looked
            continue
    return pids


def jobs_per_node(root) -> dict[str, int]:
    """Settled jobs by lease identity; every job done on its first claim."""
    entries = JobQueue(root).entries()
    assert {e["status"] for e in entries.values()} == {"done"}
    assert {e["attempts"] for e in entries.values()} == {1}
    per_node: dict[str, int] = {}
    for entry in entries.values():
        per_node[entry["node"]] = per_node.get(entry["node"], 0) + 1
    return per_node


def start_slow_node(tmp_path):
    root = tmp_path / "farm"
    submit_campaign(root, n=8)
    marker = f"{tmp_path}/started-"
    node = subprocess.Popen(
        [sys.executable, "-c", SLOW_NODE_SCRIPT, str(root), marker],
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=REPO, stdout=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 30
    while len(list(tmp_path.glob("started-*"))) < 2:  # both loops mid-job
        assert time.monotonic() < deadline, "the loops never claimed"
        assert node.poll() is None, "node exited prematurely"
        time.sleep(0.02)
    assert len(processes_naming(str(root))) == 3  # the node and its loops
    return root, node


@posix_only
@linux_only
class TestFanOutNode:
    def test_drain_settles_every_job_once_and_sums_the_loops(self, tmp_path):
        root = tmp_path / "farm"
        _, hashes = submit_campaign(root, n=12)
        unique = len(set(hashes))
        # more loops than this machine may have cores
        run = repro_node(root, "--id", "fan", "--workers", "3", "--drain", "--metrics")
        assert run.returncode == 0, run.stderr
        assert f"claiming {unique} job(s)" in run.stdout
        per_node = jobs_per_node(root)
        assert set(per_node) <= {"fan.0", "fan.1", "fan.2"}
        counters = dict(
            line.strip().split(" = ")
            for line in run.stdout.splitlines() if " = " in line
        )
        # the printed counters are the loops' merged recorders
        assert float(counters["service.node.claims"]) == sum(per_node.values())
        assert float(counters["service.node.completed"]) == unique
        assert float(counters["jobs.completed"]) == unique
        assert processes_naming(str(root)) == []

    def test_one_worker_is_the_single_in_process_loop(self, tmp_path):
        root = tmp_path / "farm"
        _, hashes = submit_campaign(root, n=4)
        run = repro_node(root, "--id", "solo", "--workers", "1", "--drain")
        assert run.returncode == 0, run.stderr
        assert jobs_per_node(root) == {"solo": len(set(hashes))}

    @pytest.mark.skipif(shutil.which("taskset") is None, reason="needs taskset")
    def test_default_is_one_loop_per_usable_cpu(self, tmp_path):
        root = tmp_path / "farm"
        _, hashes = submit_campaign(root, n=4)
        run = repro_node(root, "--id", "pinned", "--drain", prefix=("taskset", "-c", "0"))
        assert run.returncode == 0, run.stderr
        # one usable CPU: one loop, under the node's own id
        assert jobs_per_node(root) == {"pinned": len(set(hashes))}

    def test_a_failing_loop_fails_the_node(self, tmp_path):
        root = tmp_path / "farm"
        root.mkdir()
        (root / "queue.json").write_text('{"version": 1, "jobs": {}}')
        # not --drain: only the loops' failure can end this node
        run = repro_node(root, "--workers", "2")
        assert run.returncode == 2
        assert "queue.json" in run.stderr
        assert processes_naming(str(root)) == []

    def test_sigterm_settles_in_flight_jobs_and_leaves_no_process(self, tmp_path):
        root, node = start_slow_node(tmp_path)
        node.send_signal(signal.SIGTERM)
        out, _ = node.communicate(timeout=30)
        assert node.returncode == 0
        started = {p.name[len("started-"):] for p in tmp_path.glob("started-*")}
        queue = JobQueue(root)
        # every job a loop had started settled; nothing is left leased
        assert {queue.status(h)["status"] for h in started} == {"done"}
        assert queue.counts().get("leased", 0) == 0
        assert int(out) == len(started)
        assert processes_naming(str(root)) == []

    def test_sigkill_of_the_node_takes_its_loops_down(self, tmp_path):
        root, node = start_slow_node(tmp_path)
        node.kill()
        node.wait(timeout=10)
        node.stdout.close()
        deadline = time.monotonic() + 2.0
        while processes_naming(str(root)):
            assert time.monotonic() < deadline, "a claim loop outlived its node"
            time.sleep(0.02)
