"""JobQueue semantics: dedup, quotas, leases, attempts, persistence.

Everything time-dependent runs on an injected fake clock, so lease
expiry and reaping are tested deterministically; everything else reloads
the manifest from disk through fresh JobQueue handles to prove the queue
has no hidden in-memory state a node restart would lose.
"""

import contextlib
import json
import multiprocessing
import random
import sqlite3
import statistics
import sys
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.errors import SimulationError
from repro.jobs.spec import CircuitRef, JobSpec
from repro.service.queue import (
    JobQueue,
    QuotaExceeded,
    campaign_id,
)

DECK = """rc lowpass
V1 in 0 SIN(0 1 1k)
R1 in out 1k
C1 out 0 1u
.tran 10u 1m
.end
"""


def rc_spec(label="rc", **kw) -> JobSpec:
    return JobSpec(circuit=CircuitRef(kind="netlist", netlist=DECK), label=label, **kw)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def open_fresh_roots(base, barrier, rounds, results) -> None:
    """Open one never-used queue root per round, released by *barrier*.

    Each opener waits a random 0-2 ms after the release so that, over the
    rounds, arrivals sweep the few hundred microseconds in which a first
    open switches the fresh store to WAL.
    """
    errors = []
    for i in range(rounds):
        barrier.wait(timeout=60)
        time.sleep(random.random() * 0.002)
        try:
            JobQueue(base / f"root{i}").counts()
        except SimulationError as exc:
            errors.append(str(exc))
    results.put(errors)


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def queue(tmp_path, clock):
    return JobQueue(tmp_path / "q", clock=clock)


class TestSubmit:
    def test_submit_creates_pending_entry(self, queue):
        receipt = queue.submit(rc_spec())
        assert receipt.created and not receipt.deduped
        assert receipt.status == "pending"
        status = queue.status(receipt.spec_hash)
        assert status["status"] == "pending"
        assert status["tenants"] == ["default"]
        assert queue.depth() == 1

    def test_identical_specs_dedup_by_content_hash(self, queue):
        first = queue.submit(rc_spec(label="a"), tenant="t1")
        second = queue.submit(rc_spec(label="b"), tenant="t2")  # label is not content
        assert second.spec_hash == first.spec_hash
        assert second.deduped and not second.created
        status = queue.status(first.spec_hash)
        assert status["tenants"] == ["t1", "t2"]
        assert queue.depth() == 1  # one physical job
        assert queue.depth("t1") == queue.depth("t2") == 1

    def test_priority_takes_the_max_across_submitters(self, queue):
        receipt = queue.submit(rc_spec(), priority=1)
        queue.submit(rc_spec(), tenant="other", priority=5)
        queue.submit(rc_spec(), priority=2)
        assert queue.status(receipt.spec_hash)["priority"] == 5

    def test_resubmitting_a_failed_job_requeues_it(self, queue, clock):
        queue = JobQueue(queue.root, max_attempts=1, clock=clock)
        receipt = queue.submit(rc_spec())
        queue.claim("n1")
        assert queue.fail(receipt.spec_hash, "n1", "boom") == "failed"
        again = queue.submit(rc_spec())
        assert again.deduped
        status = queue.status(receipt.spec_hash)
        assert status["status"] == "pending"
        assert status["attempts"] == 0 and status["error"] is None

    def test_store_is_a_stdlib_readable_sqlite_file(self, queue):
        receipt = queue.submit(rc_spec())
        with contextlib.closing(sqlite3.connect(queue.path)) as db:
            assert db.execute("SELECT version FROM meta").fetchall() == [(2,)]
            [(spec_hash, body)] = db.execute("SELECT hash, body FROM jobs")
        assert spec_hash == receipt.spec_hash
        assert json.loads(body) == queue.entries()[spec_hash]

    def test_receipt_depths_are_what_the_transaction_left(self, queue):
        first = queue.submit(rc_spec(params={"R1": 1.0e3}), tenant="a")
        assert (first.queue_depth, first.tenant_depth) == (1, 1)
        other = queue.submit(rc_spec(params={"R1": 1.1e3}), tenant="b")
        assert (other.queue_depth, other.tenant_depth) == (2, 1)
        joined = queue.submit(rc_spec(params={"R1": 1.0e3}), tenant="b")
        assert joined.deduped
        assert (joined.queue_depth, joined.tenant_depth) == (2, 2)
        queue.claim("n1", limit=2)
        queue.complete(first.spec_hash, "n1")
        again = queue.submit(rc_spec(params={"R1": 1.0e3}), tenant="a")
        assert again.status == "done"
        assert (again.queue_depth, again.tenant_depth) == (1, 0)

    def test_persistence_across_handles(self, queue, clock):
        receipt = queue.submit(rc_spec())
        reopened = JobQueue(queue.root, clock=clock)
        assert reopened.status(receipt.spec_hash)["status"] == "pending"
        assert reopened.claim("n1")[0].spec_hash == receipt.spec_hash


class TestQuota:
    def test_quota_rejects_excess_active_jobs(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", quota=2, clock=clock)
        queue.submit(rc_spec(params={"R1": 1.0e3}))
        queue.submit(rc_spec(params={"R1": 1.1e3}))
        with pytest.raises(QuotaExceeded) as err:
            queue.submit(rc_spec(params={"R1": 1.2e3}))
        assert err.value.tenant == "default"
        assert err.value.depth == 2 and err.value.quota == 2
        assert queue.depth() == 2  # rejected submit left no trace

    def test_quota_counts_per_tenant(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", quota=1, clock=clock)
        queue.submit(rc_spec(params={"R1": 1.0e3}), tenant="a")
        queue.submit(rc_spec(params={"R1": 1.1e3}), tenant="b")  # other tenant ok
        with pytest.raises(QuotaExceeded):
            queue.submit(rc_spec(params={"R1": 1.2e3}), tenant="a")

    def test_subscribing_to_an_active_job_counts_against_quota(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", quota=1, clock=clock)
        queue.submit(rc_spec(params={"R1": 1.0e3}), tenant="a")
        queue.submit(rc_spec(params={"R1": 1.1e3}), tenant="b")
        # b is at quota; joining a's (distinct) active job must be refused
        with pytest.raises(QuotaExceeded):
            queue.submit(rc_spec(params={"R1": 1.0e3}), tenant="b")

    def test_settled_jobs_free_quota(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", quota=1, clock=clock)
        first = queue.submit(rc_spec(params={"R1": 1.0e3}))
        queue.claim("n1")
        queue.complete(first.spec_hash, "n1")
        queue.submit(rc_spec(params={"R1": 1.1e3}))  # no raise

    def test_rejection_carries_the_queue_depth_it_saw(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", quota=1, clock=clock)
        queue.submit(rc_spec(params={"R1": 1.0e3}), tenant="a")
        queue.submit(rc_spec(params={"R1": 1.1e3}), tenant="b")
        with pytest.raises(QuotaExceeded) as err:
            queue.submit(rc_spec(params={"R1": 1.2e3}), tenant="a")
        assert (err.value.depth, err.value.queue_depth) == (1, 2)

    def test_campaign_quota_is_all_or_nothing(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", quota=2, clock=clock)
        jobs = [rc_spec(params={"R1": 1e3 * (1 + i)}) for i in range(3)]
        with pytest.raises(QuotaExceeded):
            queue.submit_campaign("big", jobs)
        assert queue.depth() == 0  # nothing partially enqueued
        cid, receipts = queue.submit_campaign("ok", jobs[:2])
        assert len(receipts) == 2 and queue.depth() == 2


class TestClaimAndLease:
    def test_claim_order_priority_then_submission(self, queue):
        low = queue.submit(rc_spec(params={"R1": 1.0e3}), priority=0)
        high = queue.submit(rc_spec(params={"R1": 1.1e3}), priority=9)
        mid = queue.submit(rc_spec(params={"R1": 1.2e3}), priority=5)
        order = [job.spec_hash for job in queue.claim("n1", limit=3)]
        assert order == [high.spec_hash, mid.spec_hash, low.spec_hash]

    def test_claimed_spec_round_trips(self, queue):
        spec = rc_spec(label="keepme", tstop=5e-4)
        queue.submit(spec)
        [claimed] = queue.claim("n1")
        assert claimed.spec.content_hash() == spec.content_hash()
        assert claimed.spec.label == "keepme"
        assert claimed.attempts == 1

    def test_claimed_jobs_are_invisible_to_other_claimants(self, queue):
        queue.submit(rc_spec())
        assert queue.claim("n1")
        assert queue.claim("n2") == []

    def test_lease_expiry_returns_job_to_pending(self, queue, clock):
        receipt = queue.submit(rc_spec())
        queue.claim("n1", lease_seconds=30.0)
        clock.advance(31.0)
        [reclaimed] = queue.claim("n2", lease_seconds=30.0)
        assert reclaimed.spec_hash == receipt.spec_hash
        assert reclaimed.attempts == 2
        assert queue.status(receipt.spec_hash)["lease"]["node"] == "n2"

    def test_renew_extends_the_lease(self, queue, clock):
        receipt = queue.submit(rc_spec())
        queue.claim("n1", lease_seconds=30.0)
        clock.advance(25.0)
        assert queue.renew(receipt.spec_hash, "n1", lease_seconds=30.0)
        clock.advance(25.0)  # would have expired without the renewal
        assert queue.claim("n2") == []

    def test_renew_refused_after_losing_the_lease(self, queue, clock):
        receipt = queue.submit(rc_spec())
        queue.claim("n1", lease_seconds=30.0)
        clock.advance(31.0)
        queue.claim("n2")
        assert not queue.renew(receipt.spec_hash, "n1")

    def test_burned_attempts_fail_the_job(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", max_attempts=2, clock=clock)
        receipt = queue.submit(rc_spec())
        for node in ("n1", "n2"):
            assert queue.claim(node, lease_seconds=10.0)
            clock.advance(11.0)
        assert queue.claim("n3") == []
        status = queue.status(receipt.spec_hash)
        assert status["status"] == "failed"
        assert "lease expired" in status["error"]

    def test_reap_expired_reports_touched_hashes(self, queue, clock):
        receipt = queue.submit(rc_spec())
        queue.claim("n1", lease_seconds=10.0)
        assert queue.reap_expired() == []
        clock.advance(11.0)
        assert queue.reap_expired() == [receipt.spec_hash]
        assert queue.status(receipt.spec_hash)["status"] == "pending"


class TestSettlement:
    def test_complete_is_idempotent(self, queue):
        receipt = queue.submit(rc_spec())
        queue.claim("n1")
        assert queue.complete(receipt.spec_hash, "n1")
        assert not queue.complete(receipt.spec_hash, "n2")  # duplicate
        assert queue.status(receipt.spec_hash)["status"] == "done"

    def test_late_completion_after_lost_lease_is_accepted(self, queue, clock):
        # n1's lease expires, n2 reclaims — then n1 finishes anyway.
        # Deterministic content-addressed results make that harmless.
        receipt = queue.submit(rc_spec())
        queue.claim("n1", lease_seconds=10.0)
        clock.advance(11.0)
        queue.claim("n2")
        assert queue.complete(receipt.spec_hash, "n1")
        assert not queue.complete(receipt.spec_hash, "n2")
        assert queue.status(receipt.spec_hash)["status"] == "done"

    def test_fail_requeues_while_attempts_remain(self, queue):
        receipt = queue.submit(rc_spec())
        queue.claim("n1")
        assert queue.fail(receipt.spec_hash, "n1", "sim blew up") == "pending"
        status = queue.status(receipt.spec_hash)
        assert status["error"] == "sim blew up"
        assert queue.claim("n2")  # claimable again

    def test_fail_after_completion_is_a_noop(self, queue):
        receipt = queue.submit(rc_spec())
        queue.claim("n1")
        queue.complete(receipt.spec_hash, "n1")
        assert queue.fail(receipt.spec_hash, "n2", "late error") == "done"

    def test_unknown_hash_rejected(self, queue):
        with pytest.raises(SimulationError, match="unknown job"):
            queue.complete("0" * 64, "n1")
        with pytest.raises(SimulationError, match="unknown job"):
            queue.fail("0" * 64, "n1", "x")


class TestCampaigns:
    def test_campaign_id_is_deterministic(self):
        a = campaign_id("mc", ["h1", "h2"])
        assert a == campaign_id("mc", ["h1", "h2"])
        assert a != campaign_id("mc", ["h2", "h1"])
        assert a != campaign_id("other", ["h1", "h2"])

    def test_campaign_rollup_tracks_member_statuses(self, queue):
        jobs = [rc_spec(params={"R1": 1e3 * (1 + i)}) for i in range(3)]
        cid, receipts = queue.submit_campaign("mc3", jobs, generator={"kind": "x"})
        rollup = queue.campaign_status(cid)
        assert rollup["jobs"] == 3 and not rollup["done"]
        assert rollup["counts"] == {"pending": 3}
        queue.claim("n1", limit=2)
        queue.complete(receipts[0].spec_hash, "n1")
        queue.fail(receipts[1].spec_hash, "n1", "err")
        rollup = queue.campaign_status(cid)
        assert rollup["counts"] == {"done": 1, "pending": 2}
        assert not rollup["done"]

    def test_campaign_receipts_share_the_committed_depths(self, queue):
        queue.submit(rc_spec(params={"R1": 9e3}), tenant="other")
        jobs = [rc_spec(params={"R1": 1e3 * (1 + i)}) for i in range(3)]
        _, receipts = queue.submit_campaign("mc3", jobs, tenant="a")
        assert {(r.queue_depth, r.tenant_depth) for r in receipts} == {(4, 3)}

    def test_campaign_resubmission_dedups_members(self, queue):
        jobs = [rc_spec(params={"R1": 1e3 * (1 + i)}) for i in range(2)]
        cid1, _ = queue.submit_campaign("mc", jobs, tenant="a")
        cid2, receipts = queue.submit_campaign("mc", jobs, tenant="b")
        assert cid1 == cid2
        assert all(r.deduped for r in receipts)
        assert queue.campaign_status(cid1)["tenants"] == ["a", "b"]
        assert queue.depth() == 2

    def test_unknown_campaign_is_none(self, queue):
        assert queue.campaign_status("feedbeef") is None


class TestInspection:
    def test_counts_and_depths(self, queue):
        a = queue.submit(rc_spec(params={"R1": 1.0e3}), tenant="a")
        queue.submit(rc_spec(params={"R1": 1.1e3}), tenant="b")
        queue.claim("n1", limit=1)
        queue.complete(a.spec_hash, "n1")
        assert queue.counts() == {"done": 1, "pending": 1}
        assert queue.depths_by_tenant() == {"b": 1}

    def test_job_hashes_in_submission_order(self, queue):
        first = queue.submit(rc_spec(params={"R1": 1.0e3}))
        second = queue.submit(rc_spec(params={"R1": 1.1e3}))
        assert queue.job_hashes() == [first.spec_hash, second.spec_hash]

    def test_validation(self, tmp_path):
        with pytest.raises(SimulationError):
            JobQueue(tmp_path, quota=0)
        with pytest.raises(SimulationError):
            JobQueue(tmp_path, max_attempts=0)
        queue = JobQueue(tmp_path / "q")
        with pytest.raises(SimulationError):
            queue.claim("n", limit=0)
        with pytest.raises(SimulationError):
            queue.claim("n", lease_seconds=0)
        with pytest.raises(SimulationError):
            queue.submit_campaign("empty", [])


# A deck-sized spec: entry bodies weigh what the service's do (~3 KB).
LADDER = "ladder\nV1 n0 0 SIN(0 1 1k)\n" + "".join(
    f"R{i} n{i} n{i + 1} 1k\nC{i} n{i + 1} 0 1n\n" for i in range(60)
) + ".tran 10u 1m\n.end\n"


def ladder_spec(i: int) -> JobSpec:
    return JobSpec(
        circuit=CircuitRef(kind="netlist", netlist=LADDER), params={"R1": 1e3 + i}
    )


class TestStore:
    def test_cycle_cost_is_independent_of_history(self, queue):
        """claim + complete touches one row, however many the store holds."""

        def median_cycle_at(entries: int) -> float:
            for i in range(len(queue.job_hashes()), entries):
                queue.submit(ladder_spec(i))
            times = []
            for _ in range(20):
                start = time.perf_counter()
                [job] = queue.claim("timed")
                queue.complete(job.spec_hash, "timed")
                times.append(time.perf_counter() - start)
            return statistics.median(times)

        shallow = median_cycle_at(50)
        deep = median_cycle_at(800)
        assert deep <= 3 * shallow, (shallow, deep)

    def test_one_handle_shared_by_many_threads(self, queue):
        threads, rounds = 8, 50
        claimed: list[str] = []
        errors: list[BaseException] = []

        def hammer(worker: int) -> None:
            try:
                for i in range(rounds):
                    receipt = queue.submit(rc_spec(params={"R1": 1e3 + worker + i / 100}))
                    assert queue.status(receipt.spec_hash) is not None
                    for job in queue.claim(f"w{worker}"):
                        claimed.append(job.spec_hash)
                        assert queue.complete(job.spec_hash, f"w{worker}")
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=hammer, args=(w,)) for w in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert errors == []
        # every submit was followed by a claim, so nothing is left over and
        # no job was handed out twice
        assert len(claimed) == len(set(claimed)) == threads * rounds
        assert queue.counts() == {"done": threads * rounds}

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_concurrent_first_opens_of_a_fresh_root_all_succeed(self, tmp_path):
        # N farm-node loops open one fresh store at the same instant; the
        # switch to WAL must wait its turn like every other write does
        ctx = multiprocessing.get_context("fork")
        rounds, openers = 200, 8
        barrier, results = ctx.Barrier(openers), ctx.Queue()
        procs = [
            ctx.Process(target=open_fresh_roots, args=(tmp_path, barrier, rounds, results))
            for _ in range(openers)
        ]
        for proc in procs:
            proc.start()
        errors = [error for _ in procs for error in results.get(timeout=120)]
        for proc in procs:
            proc.join(timeout=30)
        assert not any(proc.is_alive() for proc in procs)
        assert errors == []

    def test_v1_manifest_is_refused_by_name(self, tmp_path):
        (tmp_path / "queue.json").write_text('{"version": 1, "jobs": {}}')
        with pytest.raises(SimulationError, match=r"queue\.json"):
            JobQueue(tmp_path).counts()
        assert not (tmp_path / "queue.db").exists()

    def test_foreign_schema_version_is_refused(self, queue):
        queue.submit(rc_spec())
        queue.close()
        with contextlib.closing(sqlite3.connect(queue.path)) as db:
            db.execute("UPDATE meta SET version = 3")
            db.commit()
        with pytest.raises(SimulationError, match="schema version 3"):
            JobQueue(queue.root).counts()

    def test_cli_dump_is_the_legible_form_of_the_store(self, tmp_path, capsys):
        queue = JobQueue(tmp_path / "q")
        jobs = [rc_spec(params={"R1": 1e3 * (1 + i)}) for i in range(2)]
        cid, receipts = queue.submit_campaign("pair", jobs, generator={"kind": "x"})
        [job] = queue.claim("n1")
        queue.complete(job.spec_hash, "n1")
        assert cli_main(["queue", str(queue.root)]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["version"] == 2
        assert dump["counts"] == {"done": 1, "pending": 1}
        assert dump["jobs"] == queue.entries()
        assert "settled" in dump["jobs"][job.spec_hash]
        assert {h: e["attempts"] for h, e in dump["jobs"].items()} == {
            receipts[0].spec_hash: 1, receipts[1].spec_hash: 0,
        }
        assert dump["campaigns"] == {cid: queue.campaign(cid)}

    def test_cli_dump_of_an_empty_root(self, tmp_path, capsys):
        assert cli_main(["queue", str(tmp_path / "fresh")]) == 0
        assert json.loads(capsys.readouterr().out)["jobs"] == {}
