"""Telemetry layer: recorder merging, heartbeats, Prometheus exposition.

Covers the cross-process aggregation primitives (snapshot/merge), the
event-capacity accounting (``instrument.events_dropped``, drop vs tail
eviction), the live Heartbeat reporter, the Prometheus text renderer and
its stdlib ``/metrics`` endpoint, and the guarantee that the disabled
(NullRecorder) path allocates nothing.
"""

import http.client
import io
import json
import time

import pytest

from repro.instrument import (
    EVENTS_DROPPED,
    NULL_RECORDER,
    Heartbeat,
    MetricsServer,
    NullRecorder,
    Recorder,
    heartbeat_for,
    serve_metrics,
    to_prometheus,
)
from repro.instrument.prometheus import metric_name


def _traced_cli_run(tmp_path, capsys, monkeypatch, max_events: int) -> str:
    """Output of a ``--trace`` CLI run whose recorder keeps *max_events*."""
    import repro.instrument
    from repro.cli import main

    class SmallRecorder(Recorder):
        def __init__(self, **kwargs):
            super().__init__(max_events=max_events, **kwargs)

    monkeypatch.setattr(repro.instrument, "Recorder", SmallRecorder)
    deck = tmp_path / "rc.cir"
    deck.write_text(
        "rc deck\nV1 in 0 PULSE(0 1 1n 1p 1p 1m 2m)\nR1 in out 1k\n"
        "C1 out 0 1n\n.tran 0.1u 10u\n.end\n"
    )
    trace = tmp_path / "t.json"
    assert main([str(deck), "--samples", "2", "--trace", str(trace)]) == 0
    return capsys.readouterr().out


class TestEventCapacity:
    def test_drop_mode_keeps_first_and_counts(self):
        rec = Recorder(max_events=2)
        for i in range(5):
            rec.event(f"e{i}")
        assert [e.name for e in rec.events] == ["e0", "e1"]
        assert rec.dropped_events == 3
        assert rec.counter(EVENTS_DROPPED) == 3
        assert rec.snapshot()["dropped_events"] == 3

    def test_tail_mode_keeps_last_and_counts(self):
        rec = Recorder(max_events=3, evict="tail")
        for i in range(5):
            rec.event(f"e{i}")
        assert [e.name for e in rec.events] == ["e2", "e3", "e4"]
        assert rec.dropped_events == 2
        assert rec.counter(EVENTS_DROPPED) == 2

    def test_bad_evict_rejected(self):
        with pytest.raises(ValueError, match="evict"):
            Recorder(evict="lru")

    def test_drops_surface_in_cli_trace_run(self, tmp_path, capsys, monkeypatch):
        out = _traced_cli_run(tmp_path, capsys, monkeypatch, max_events=1)
        assert "trace written" in out
        assert "events dropped" in out

    def test_no_drops_stay_silent(self, tmp_path, capsys, monkeypatch):
        out = _traced_cli_run(tmp_path, capsys, monkeypatch, max_events=500_000)
        assert "trace written" in out
        assert "dropped" not in out


class TestSnapshotMerge:
    def worker(self) -> Recorder:
        rec = Recorder(max_events=8, evict="tail")
        rec.count("newton.iterations", 12)
        rec.count("lu.solve", 12)
        rec.observe("newton.iterations_per_solve", 3)
        rec.observe("newton.iterations_per_solve", 9)
        rec.event("newton_solve", ts=0.5, lane=1)
        rec.event("step_accept", ts=0.9, t_sim=1e-6)
        return rec

    def test_counters_and_histograms_add(self):
        parent = Recorder()
        parent.count("newton.iterations", 5)
        parent.merge(self.worker().snapshot())
        parent.merge(self.worker().snapshot())
        assert parent.counter("newton.iterations") == 5 + 24
        assert parent.counter("lu.solve") == 24
        hist = parent.histograms["newton.iterations_per_solve"]
        assert hist.count == 4
        assert hist.total == 24.0
        assert hist.minimum == 3.0 and hist.maximum == 9.0
        # log2 buckets: 3 -> bucket 1, 9 -> bucket 3
        assert hist.buckets == {1: 2, 3: 2}

    def test_events_tail_travels_and_replays(self):
        parent = Recorder()
        snap = self.worker().snapshot(events_tail=10)
        assert [row["name"] for row in snap["events_tail"]] == [
            "newton_solve",
            "step_accept",
        ]
        parent.merge(snap)
        assert [e.name for e in parent.events] == ["newton_solve", "step_accept"]
        assert parent.events[0].lane == 1
        assert parent.events[1].t_sim == 1e-6

    def test_merged_events_rebase_onto_receiver_clock(self):
        # Snapshot timestamps are relative to the worker's epoch; merge
        # must shift them onto the parent's clock (tail ends at merge
        # time) or worker events land at bogus trace positions.
        parent = Recorder()
        snap = self.worker().snapshot(events_tail=10)
        time.sleep(0.01)
        before = parent.clock()
        parent.merge(snap)
        after = parent.clock()
        first, last = parent.events
        assert last.ts - first.ts == pytest.approx(0.9 - 0.5)
        assert before <= last.ts <= after

    def test_plain_snapshot_carries_no_events(self):
        snap = self.worker().snapshot()
        assert "events_tail" not in snap
        parent = Recorder()
        parent.merge(snap)
        assert parent.events == []

    def test_dropped_events_accumulate(self):
        worker = Recorder(max_events=1, evict="tail")
        worker.event("a")
        worker.event("b")
        parent = Recorder()
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())
        assert parent.dropped_events == 2
        assert parent.counter(EVENTS_DROPPED) == 2

    def test_merge_none_and_empty_are_noops(self):
        parent = Recorder()
        parent.merge(None)
        parent.merge({})
        assert parent.counters == {} and parent.events == []

    def test_json_roundtripped_snapshot_merges(self):
        # Worker snapshots cross a pipe / the result cache as JSON, which
        # stringifies histogram bucket keys.
        snap = json.loads(json.dumps(self.worker().snapshot()))
        parent = Recorder()
        parent.merge(snap)
        hist = parent.histograms["newton.iterations_per_solve"]
        assert hist.buckets == {1: 1, 3: 1}


class TestHeartbeat:
    def test_samples_jobs_rate_and_eta(self, tmp_path):
        rec = Recorder(capture_events=False)
        path = tmp_path / "beats.jsonl"
        beat = Heartbeat(rec, interval=60.0, total_jobs=4, jsonl=str(path))
        beat.start()
        rec.count("jobs.completed", 2)
        rec.count("jobs.failed", 1)
        rec.count("points.accepted", 500)
        record = beat.sample()
        assert record["jobs"] == {"total": 4, "done": 2, "cached": 0, "failed": 1}
        assert record["deltas"]["points.accepted"] == 500
        assert record["points_per_second"] > 0
        assert record["eta_seconds"] is not None and record["eta_seconds"] >= 0
        beat.stop()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(row["record"] == "heartbeat" for row in rows)
        assert rows[-1]["final"] is True
        assert [row["seq"] for row in rows] == list(range(len(rows)))

    def test_background_thread_emits_on_interval(self):
        rec = Recorder(capture_events=False)
        with Heartbeat(rec, interval=0.02) as beat:
            deadline = time.monotonic() + 5.0
            while not beat.records and time.monotonic() < deadline:
                time.sleep(0.01)
        # at least one periodic sample plus the final one from stop()
        assert len(beat.records) >= 2
        assert beat.records[-1]["final"] is True

    def test_status_line_on_plain_stream(self):
        rec = Recorder(capture_events=False)
        rec.count("jobs.completed", 3)
        stream = io.StringIO()
        beat = Heartbeat(rec, interval=60.0, total_jobs=3, stream=stream)
        beat.start()
        beat.stop()
        out = stream.getvalue()
        assert "jobs 3 done/3" in out
        assert "ETA" in out

    def test_retried_jobs_do_not_double_count(self):
        # A job that failed once and then succeeded on retry contributes
        # to jobs.failed, jobs.retries, and jobs.completed; it must show
        # up only in "done", or settled exceeds total and the ETA clamps
        # to 0 while work is still running.
        rec = Recorder(capture_events=False)
        rec.count("jobs.completed", 2)
        rec.count("jobs.failed", 1)
        rec.count("jobs.retries", 1)
        beat = Heartbeat(rec, interval=60.0, total_jobs=4)
        beat.start()
        time.sleep(0.01)
        record = beat.sample()
        beat.stop()
        assert record["jobs"]["done"] == 2
        assert record["jobs"]["failed"] == 0
        # 2 of 4 settled: the ETA must still be a live extrapolation
        assert record["eta_seconds"] is not None and record["eta_seconds"] > 0

    def test_exhausted_retries_still_count_as_failed(self):
        # retries=1, both attempts failed: one failed job, not two.
        rec = Recorder(capture_events=False)
        rec.count("jobs.failed", 2)
        rec.count("jobs.retries", 1)
        beat = Heartbeat(rec, interval=60.0, total_jobs=1)
        with beat:
            record = beat.sample()
        assert record["jobs"]["failed"] == 1
        assert record["eta_seconds"] == 0.0

    def test_eta_unknown_without_total(self):
        rec = Recorder(capture_events=False)
        rec.count("jobs.completed", 1)
        with Heartbeat(rec, interval=60.0) as beat:
            assert beat.sample()["eta_seconds"] is None

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            Heartbeat(Recorder(), interval=0.0)

    def test_heartbeat_for_is_noop_without_sinks(self):
        scope = heartbeat_for(Recorder())
        assert not isinstance(scope, Heartbeat)
        with scope:
            pass
        assert isinstance(
            heartbeat_for(Recorder(), jsonl="unused", progress=False), Heartbeat
        )


class TestPrometheus:
    def recorder(self) -> Recorder:
        rec = Recorder()
        rec.count("newton.iterations", 42)
        rec.count("jobs.completed", 3)
        rec.observe("controller.h_taken", 1e-6)
        rec.observe("controller.h_taken", 2e-6)
        return rec

    def test_counters_render_with_type_lines(self):
        text = to_prometheus(self.recorder())
        assert "# TYPE repro_newton_iterations_total counter" in text
        assert "repro_newton_iterations_total 42" in text
        assert "repro_jobs_completed_total 3" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        text = to_prometheus(self.recorder())
        lines = [l for l in text.splitlines() if l.startswith("repro_controller_h_taken")]
        bucket_lines = [l for l in lines if "_bucket" in l]
        # two samples in two different log2 buckets -> cumulative 1 then 2
        counts = [int(l.rsplit(" ", 1)[1]) for l in bucket_lines]
        assert counts == sorted(counts)
        assert counts[-1] == 2
        assert any('le="+Inf"' in l for l in bucket_lines)
        assert "repro_controller_h_taken_count 2" in text
        assert "repro_controller_h_taken_sum" in text

    def test_renders_snapshot_dicts_too(self):
        snap = self.recorder().snapshot()
        assert to_prometheus(snap) == to_prometheus(self.recorder())

    def test_metric_name_folding(self):
        assert metric_name("newton.iterations") == "repro_newton_iterations"
        assert metric_name("a b-c") == "repro_a_b_c"
        assert metric_name("2fast") == "repro__2fast"

    def test_http_endpoint_serves_scrapes(self):
        rec = self.recorder()
        with serve_metrics(rec, port=0) as server:
            assert server.port > 0
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            body = response.read().decode()
            assert response.status == 200
            assert "text/plain" in response.getheader("Content-Type")
            assert "repro_newton_iterations_total 42" in body
            conn.request("GET", "/healthz")
            health = json.loads(conn.getresponse().read())
            assert health["status"] == "ok"
            conn.request("GET", "/nope")
            assert conn.getresponse().status == 404
            conn.close()

    def test_healthz_reports_actual_ephemeral_port(self):
        # Regression: started with port=0, the server must report the
        # kernel-assigned port in /healthz (clients used to have to
        # guess it out-of-band).
        rec = Recorder(capture_events=False)
        with serve_metrics(rec, port=0) as server:
            bound = server.port
            assert bound > 0
            conn = http.client.HTTPConnection("127.0.0.1", bound, timeout=5)
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert "application/json" in response.getheader("Content-Type")
            health = json.loads(response.read())
            conn.close()
        assert health == {"status": "ok", "host": "127.0.0.1", "port": bound}

    def test_start_logs_the_bound_address(self, caplog):
        rec = Recorder(capture_events=False)
        with caplog.at_level("INFO", logger="repro.instrument.prometheus"):
            with serve_metrics(rec, port=0) as server:
                port = server.port
        assert any(f":{port}/metrics" in message for message in caplog.messages)

    def test_scrape_sees_live_updates(self):
        rec = Recorder(capture_events=False)
        server = MetricsServer(rec).start()
        try:
            rec.count("points.accepted", 7)
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
            conn.request("GET", "/metrics")
            assert "repro_points_accepted_total 7" in conn.getresponse().read().decode()
            conn.close()
        finally:
            server.stop()


class TestNullRecorderStaysInert:
    def test_operations_allocate_nothing(self):
        null = NullRecorder()
        null.count("x", 5)
        null.observe("y", 1.0)
        null.event("z", lane=2)
        null.merge({"counters": {"x": 1}, "histograms": {}})
        assert null.counters == {} and null.histograms == {} and null.events == []
        # class-level empty containers: no per-call (or per-instance) state
        assert null.counters is NullRecorder.counters
        assert null.tree_span("s") is NULL_RECORDER.tree_span("s")
        assert null.snapshot(events_tail=5) == {
            "counters": {},
            "histograms": {},
            "events": 0,
            "dropped_events": 0,
        }
