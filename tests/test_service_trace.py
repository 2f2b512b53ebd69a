"""The trace store and the cross-node campaign trace stitcher.

Covers the observability tentpole end-to-end at the unit level: trace
contexts persisted through the queue, per-job records written by nodes,
and ``build_campaign_trace`` synthesizing one well-formed span tree per
campaign — request roots per trace id, queue/solve/upload tiers, worker
snapshots re-parented under the solve span, dedup links as zero-cost
children — deterministically enough that two builds export byte-identical
JSONL.
"""

import io
import json

import pytest

from repro.diagnose import explain_trace
from repro.instrument.events import (
    QUEUE_WAIT,
    RESULT_UPLOAD,
    SERVICE_DEDUP,
    SERVICE_JOB,
    SERVICE_REQUEST,
    SERVICE_SOLVE,
)
from repro.instrument.exporters import write_jsonl
from repro.instrument.recorder import Recorder
from repro.instrument.spans import build_span_tree
from repro.instrument.tracectx import TraceContext
from repro.jobs.campaign import monte_carlo
from repro.jobs.spec import CircuitRef, JobSpec
from repro.service.node import FarmNode
from repro.service.queue import JobQueue
from repro.service.trace import TraceStore, build_campaign_trace

DECK = """rc lowpass
V1 in 0 SIN(0 1 1k)
R1 in out 1k
C1 out 0 1u
.tran 10u 1m
.end
"""


def rc_spec(label="rc") -> JobSpec:
    return JobSpec(circuit=CircuitRef(kind="netlist", netlist=DECK), label=label)


def export_bytes(recorder) -> str:
    buf = io.StringIO()
    write_jsonl(recorder, buf)
    return buf.getvalue()


class TestTraceStore:
    def test_roundtrip(self, tmp_path):
        store = TraceStore(tmp_path)
        record = {"hash": "abc", "node": "alpha", "elapsed": 0.25}
        store.put("abc", record)
        assert store.get("abc") == record
        # compact on disk; a record an earlier release indented still loads
        assert store.path("abc").read_text() == json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ) + "\n"
        store.path("abc").write_text(json.dumps(record, indent=2), encoding="utf-8")
        assert store.get("abc") == record

    def test_missing_and_torn_records_give_none(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.get("missing") is None
        store.path("torn").write_text("{not json", encoding="utf-8")
        assert store.get("torn") is None

    def test_latest_settle_wins(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("h", {"node": "victim", "attempts": 1})
        store.put("h", {"node": "rescue", "attempts": 2})
        assert store.get("h")["node"] == "rescue"


class TestQueueTraceCarriage:
    def test_enqueue_timestamps_and_queue_age(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        receipt = queue.submit(rc_spec(), tenant="acme")
        entry = queue.entries([receipt.spec_hash])[receipt.spec_hash]
        assert entry["enqueued"] is not None
        [job] = queue.claim("node-a")
        assert job.enqueued == entry["enqueued"]
        assert job.queue_age >= 0.0

    def test_trace_adopted_by_first_submission_then_linked(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        first = TraceContext.mint(tenant="acme", origin="client", entropy="a")
        second = TraceContext.mint(tenant="bulk", origin="client", entropy="b")
        receipt = queue.submit(rc_spec(), tenant="acme", trace=first)
        queue.submit(rc_spec(), tenant="bulk", trace=second)
        entry = queue.entries([receipt.spec_hash])[receipt.spec_hash]
        assert entry["trace"]["trace_id"] == first.trace_id
        assert [link["trace_id"] for link in entry["trace_links"]] == [
            second.trace_id
        ]

    def test_claim_carries_trace_and_tenants(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        ctx = TraceContext.mint(tenant="acme", origin="client", entropy="a")
        queue.submit(rc_spec(), tenant="acme", trace=ctx)
        [job] = queue.claim("node-a")
        assert job.trace["trace_id"] == ctx.trace_id
        assert "acme" in job.tenants


@pytest.fixture(scope="module")
def drained_farm(tmp_path_factory):
    """One drained single-node farm: a traced campaign from tenant acme
    plus a duplicate partial submission from tenant bulk (dedup links)
    and one untraced direct submission."""
    root = tmp_path_factory.mktemp("farm") / "queue"
    queue = JobQueue(root)
    plan = monte_carlo(rc_spec(), n=3, seed=7, jitter=0.03)
    ctx = TraceContext.mint(tenant="acme", origin="client", entropy="req-a")
    dup = TraceContext.mint(tenant="bulk", origin="client", entropy="req-b")
    cid, receipts = queue.submit_campaign(
        "traced", plan.jobs, generator=plan.generator, tenant="acme", trace=ctx
    )
    queue.submit(plan.jobs[0], tenant="bulk", trace=dup)
    untraced = queue.submit(rc_spec("solo"), tenant="free")
    # the untraced job rides in the same campaign trace via a second
    # campaign record so the stitcher sees a mixed-group campaign
    cid2, _ = queue.submit_campaign(
        "mixed", [plan.jobs[0], rc_spec("solo")], tenant="free"
    )
    FarmNode(root, node_id="alpha", instrument=Recorder(capture_events=False)).run(
        drain=True
    )
    return {
        "root": root,
        "queue": queue,
        "store": TraceStore(root),
        "cid": cid,
        "cid2": cid2,
        "ctx": ctx,
        "dup": dup,
        "hashes": [r.spec_hash for r in receipts],
        "untraced_hash": untraced.spec_hash,
    }


class TestStitcher:
    def test_unknown_campaign_is_none(self, drained_farm):
        assert build_campaign_trace(
            drained_farm["queue"], drained_farm["store"], "feedface"
        ) is None

    def test_span_tree_is_well_formed(self, drained_farm):
        rec = build_campaign_trace(
            drained_farm["queue"], drained_farm["store"], drained_farm["cid"]
        )
        tree = build_span_tree(list(rec.events))
        assert tree.malformed == 0
        assert tree.problems == []

    def test_one_request_root_with_job_tiers(self, drained_farm):
        rec = build_campaign_trace(
            drained_farm["queue"], drained_farm["store"], drained_farm["cid"]
        )
        tree = build_span_tree(list(rec.events))
        roots = [n for n in tree.roots if n.name == SERVICE_REQUEST]
        assert len(roots) == 1
        root = roots[0]
        assert root.attrs["trace_id"] == drained_farm["ctx"].trace_id
        assert root.attrs["tenant"] == "acme"
        jobs = [c for c in root.children if c.name == SERVICE_JOB]
        assert len(jobs) == 3
        for job in jobs:
            names = [c.name for c in job.children]
            assert names.count(QUEUE_WAIT) == 1
            assert names.count(SERVICE_SOLVE) == 1
            assert names.count(RESULT_UPLOAD) == 1
            assert job.attrs["node"] == "alpha"

    def test_worker_spans_reparent_under_solve(self, drained_farm):
        rec = build_campaign_trace(
            drained_farm["queue"], drained_farm["store"], drained_farm["cid"]
        )
        tree = build_span_tree(list(rec.events))
        solves = [n for n in tree.walk() if n.name == SERVICE_SOLVE]
        # at least one solve span carries the worker's re-parented
        # engine spans (the ring-buffer tail of the actual solve)
        assert any(solve.children for solve in solves)

    def test_dedup_links_are_zero_cost_children(self, drained_farm):
        rec = build_campaign_trace(
            drained_farm["queue"], drained_farm["store"], drained_farm["cid"]
        )
        tree = build_span_tree(list(rec.events))
        dedups = [n for n in tree.walk() if n.name == SERVICE_DEDUP]
        assert len(dedups) >= 1
        by_trace = {n.attrs["trace_id"]: n for n in dedups}
        link = by_trace[drained_farm["dup"].trace_id]
        assert link.cost == 0.0
        assert link.attrs["tenant"] == "bulk"

    def test_untraced_jobs_group_under_their_own_root(self, drained_farm):
        rec = build_campaign_trace(
            drained_farm["queue"], drained_farm["store"], drained_farm["cid2"]
        )
        tree = build_span_tree(list(rec.events))
        roots = {n.attrs["trace_id"]: n for n in tree.roots
                 if n.name == SERVICE_REQUEST}
        # the deduped member keeps its paying (acme) trace id; the solo
        # job never carried one and lands under the untraced root
        assert drained_farm["ctx"].trace_id in roots
        assert "untraced" in roots

    def test_builds_are_byte_deterministic(self, drained_farm):
        queue, store = drained_farm["queue"], drained_farm["store"]
        first = export_bytes(build_campaign_trace(queue, store, drained_farm["cid"]))
        second = export_bytes(build_campaign_trace(queue, store, drained_farm["cid"]))
        assert first == second


class TestExplainServiceTier:
    def _report(self, drained_farm):
        rec = build_campaign_trace(
            drained_farm["queue"], drained_farm["store"], drained_farm["cid"]
        )
        return explain_trace(list(rec.events), rec.snapshot(), source="test")

    def test_service_tier_recognised_before_campaign(self, drained_farm):
        report = self._report(drained_farm)
        cp = report.critical_path
        assert cp["kind"] == "service"
        assert cp["requests"] == 1
        assert cp["jobs"] == 3
        assert cp["dedup_served"] >= 1
        assert cp["critical_tier"] in ("queue_wait", "service_solve",
                                       "result_upload")
        assert cp["critical_job"]
        assert cp["slowest_jobs"]
        assert cp["tenants"]["acme"]["jobs"] == 3
        shares = [cp["tiers"][name]["share"]
                  for name in ("queue_wait", "service_solve", "result_upload")]
        assert abs(sum(shares) - 1.0) < 1e-6

    def test_check_criteria_hold(self, drained_farm):
        report = self._report(drained_farm)
        assert report.spans["count"] > 0
        assert report.spans["malformed"] == 0
        assert report.rejections["classified_fraction"] == 1.0

    def test_report_json_is_byte_deterministic(self, drained_farm):
        assert (self._report(drained_farm).to_json()
                == self._report(drained_farm).to_json())
