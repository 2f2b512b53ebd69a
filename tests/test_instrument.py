"""Instrumentation stack: recorder, exporters, run stats, engine wiring."""

import dataclasses
import io
import json

import pytest

from repro.circuit.circuit import Circuit
from repro.circuit.sources import Pulse
from repro import simulate
from repro.core.pipeline import PipelineResult, PipelineStats
from repro.core.wavepipe import compare_with_sequential, run_wavepipe
from repro.engine.ensemble import EnsembleTransientResult
from repro.engine.transient import TransientResult, TransientStats, run_transient
from repro.instrument import (
    NULL_RECORDER,
    Histogram,
    NullRecorder,
    Recorder,
    chrome_trace_dict,
    get_recorder,
    read_jsonl,
    resolve_recorder,
    set_recorder,
    use_recorder,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.parallel.clock import VirtualClock
from repro.utils.options import SimOptions


def make_rc():
    c = Circuit("rc")
    c.add_vsource(
        "V1", "in", "0", Pulse(0.0, 1.0, delay=1e-9, rise=1e-12, width=1e-3)
    )
    c.add_resistor("R1", "in", "out", 1e3)
    c.add_capacitor("C1", "out", "0", 1e-9)
    return c


class TestHistogram:
    def test_streaming_summary(self):
        h = Histogram()
        for v in (1.0, 2.0, 4.0, 4.0):
            h.add(v)
        assert h.count == 4
        assert h.mean == pytest.approx(2.75)
        assert h.minimum == 1.0
        assert h.maximum == 4.0
        assert h.buckets == {0: 1, 1: 1, 2: 2}

    def test_nonpositive_values_bucketed(self):
        h = Histogram()
        h.add(0.0)
        h.add(-3.0)
        assert h.count == 2
        assert len(h.buckets) == 1  # both in the degenerate bucket

    def test_empty_to_dict(self):
        d = Histogram().to_dict()
        assert d["count"] == 0
        assert d["min"] is None and d["max"] is None


class TestRecorder:
    def test_counters_and_histograms(self):
        rec = Recorder()
        rec.count("solves")
        rec.count("solves", 2)
        rec.observe("h", 1e-9)
        assert rec.counter("solves") == 3
        assert rec.counter("absent", -1) == -1
        snap = rec.snapshot()
        assert snap["counters"]["solves"] == 3
        assert snap["histograms"]["h"]["count"] == 1

    def test_events_and_lanes(self):
        rec = Recorder()
        rec.event("a", ts=0.0, lane=0)
        rec.event("b", ts=0.1, dur=0.05, lane=2, t_sim=1e-6, extra=7)
        assert rec.lanes == [0, 2]
        assert rec.events[1].attrs == {"extra": 7}

    def test_event_cap_drops_and_counts(self):
        rec = Recorder(max_events=2)
        for k in range(5):
            rec.event("e", ts=float(k))
        assert len(rec.events) == 2
        assert rec.dropped_events == 3

    def test_capture_events_off_skips_log(self):
        rec = Recorder(capture_events=False)
        rec.event("e")
        rec.count("c")
        assert rec.events == []
        assert rec.counter("c") == 1  # counters still live


class TestNullRecorder:
    def test_everything_is_inert(self):
        rec = NullRecorder()
        assert rec.enabled is False
        rec.count("x")
        rec.observe("x", 1.0)
        rec.event("x")
        with rec.tree_span("x"):
            pass
        assert rec.counter("x") == 0
        assert rec.snapshot()["events"] == 0
        assert rec.lanes == []


class TestGlobalDefault:
    def test_default_is_null(self):
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_scopes_the_swap(self):
        rec = Recorder()
        with use_recorder(rec) as active:
            assert active is rec
            assert get_recorder() is rec
        assert get_recorder() is NULL_RECORDER

    def test_set_recorder_none_restores_null(self):
        previous = set_recorder(Recorder())
        assert previous is NULL_RECORDER
        set_recorder(None)
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_is_thread_local(self):
        # Concurrent scopes must not bleed into each other: two threads
        # each bind their own recorder and hammer the ambient counter;
        # every count must land in the binding thread's recorder (the
        # farm-node telemetry undercount regression).
        import threading

        recorders = [Recorder(), Recorder()]
        barrier = threading.Barrier(2)

        def work(rec):
            with use_recorder(rec):
                barrier.wait()
                for _ in range(2000):
                    get_recorder().count("ambient.hits")

        threads = [threading.Thread(target=work, args=(r,)) for r in recorders]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [r.counter("ambient.hits") for r in recorders] == [2000, 2000]

    def test_threads_spawned_inside_scope_fall_back_to_process_default(self):
        import threading

        seen = []
        with use_recorder(Recorder()):
            t = threading.Thread(target=lambda: seen.append(get_recorder()))
            t.start()
            t.join()
        assert seen == [NULL_RECORDER]

    def test_resolve_recorder(self):
        rec = Recorder()
        assert resolve_recorder(rec) is rec
        assert resolve_recorder(None) is get_recorder()
        fresh = resolve_recorder(True)
        assert isinstance(fresh, Recorder) and fresh is not rec


class TestExporters:
    def record_sample(self):
        rec = Recorder()
        rec.count("newton.solves", 4)
        rec.observe("step.h_accepted", 1e-9)
        rec.event("step_accept", ts=0.0, lane=0, t_sim=1e-9, h=1e-9)
        rec.event("stage_task", ts=0.1, dur=0.02, lane=1, iterations=3)
        return rec

    def test_jsonl_round_trip(self):
        rec = self.record_sample()
        buffer = io.StringIO()
        write_jsonl(rec, buffer)
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert lines[0]["record"] == "header"
        assert lines[-1]["record"] == "summary"
        buffer.seek(0)
        events, summary = read_jsonl(buffer)
        assert [e.name for e in events] == ["step_accept", "stage_task"]
        assert events[1].dur == pytest.approx(0.02)
        assert summary["counters"]["newton.solves"] == 4

    def test_chrome_trace_structure(self):
        rec = self.record_sample()
        doc = chrome_trace_dict(rec)
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        # one thread_name + one thread_sort_index per lane
        assert {m["tid"] for m in meta} == {0, 1}
        names = {
            m["tid"]: m["args"]["name"]
            for m in meta
            if m["name"] == "thread_name"
        }
        assert names == {0: "scheduler", 1: "worker-1"}
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 1 and complete[0]["dur"] == pytest.approx(0.02e6)
        assert len(instants) == 1 and instants[0]["args"]["t_sim"] == 1e-9
        assert doc["otherData"]["counters"]["newton.solves"] == 4

    def test_chrome_trace_file_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self.record_sample(), str(path))
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc

    def test_write_trace_dispatches_on_extension(self, tmp_path):
        rec = self.record_sample()
        assert write_trace(rec, str(tmp_path / "t.jsonl")) == "jsonl"
        assert write_trace(rec, str(tmp_path / "t.json")) == "chrome"
        events, _ = read_jsonl(str(tmp_path / "t.jsonl"))
        assert len(events) == 2


class TestRunMetrics:
    """The derived ratios and the report live on the run's stats."""

    def test_sequential_run_populates_metrics(self):
        rec = Recorder()
        result = run_transient(make_rc(), 10e-6, instrument=rec)
        stats = result.stats
        assert type(stats) is TransientStats
        assert stats.iterations_per_point == pytest.approx(
            stats.newton_iterations / stats.accepted_points
        )
        tested = stats.accepted_points + stats.rejected_points
        assert stats.reject_rate == stats.rejected_points / tested
        # the recorder's counters reconcile with the stats
        assert rec.counters["points.accepted"] == stats.accepted_points
        assert rec.counters["newton.iterations"] == stats.newton_iterations

    def test_wall_seconds_split(self):
        result = run_transient(make_rc(), 10e-6)
        stats = result.stats
        assert stats.dcop_seconds > 0
        assert stats.tran_seconds > 0
        assert stats.wall_seconds == pytest.approx(
            stats.dcop_seconds + stats.tran_seconds
        )
        with pytest.raises(AttributeError):
            stats.wall_seconds = 1.0  # derived, no longer assignable

    def test_pipelined_run_populates_metrics(self):
        result = run_wavepipe(make_rc(), 10e-6, scheme="combined", threads=3)
        stats = result.stats
        clock = stats.clock
        assert stats.threads == 3
        assert stats.stage_utilization == pytest.approx(
            clock.serial_work / (clock.virtual_work * 3)
        )
        assert 0.0 < stats.stage_utilization <= 1.0
        dumped = stats.to_dict()
        assert dumped["stages"] == clock.stages > 0
        assert dumped["virtual_work"] == clock.virtual_work
        assert dumped["serial_work"] == clock.serial_work
        assert dumped["mean_stage_width"] == clock.mean_width
        assert dumped["peak_stage_width"] == clock.peak_width

    def test_metrics_without_recorder(self):
        result = run_transient(make_rc(), 10e-6)
        assert "run stats" in result.stats.summary()
        # the stats are the one record: no result type carries a copy
        for result_type in (TransientResult, PipelineResult, EnsembleTransientResult):
            assert "metrics" not in {f.name for f in dataclasses.fields(result_type)}

    def test_summary_text(self):
        stats = PipelineStats(
            clock=VirtualClock(stages=40, virtual_work=50.0, serial_work=120.0),
            threads=4,
            accepted_points=100,
            rejected_points=10,
            newton_iterations=250,
            speculative_work=8.0,
            speculative_wasted_work=2.0,
        )
        text = stats.summary()
        assert "4 threads, 40 stages" in text
        assert "2.50 per accepted point" in text
        assert "9.1% reject rate" in text
        assert "stage utilization 60.0%" in text
        assert "(75.0% efficient)" in text
        sequential = TransientStats(accepted_points=100, newton_iterations=250).summary()
        assert "2.50 per accepted point" in sequential
        assert "pipeline" not in sequential and "lu:" not in sequential

    def test_to_dict_json_safe(self):
        runs = {
            "sequential": run_transient(make_rc(), 10e-6),
            "pipelined": run_wavepipe(make_rc(), 10e-6, scheme="backward", threads=2),
            "ensemble": simulate(make_rc(), tstop=10e-6, ensemble=2, jitter=0.02, seed=1),
        }
        for kind, result in runs.items():
            stats = result.stats
            loaded = json.loads(json.dumps(stats.to_dict()))
            for name in ("accepted_points", "newton_iterations", "work_units", "lu_solves"):
                assert loaded[name] == getattr(stats, name), (kind, name)
            assert loaded["iterations_per_point"] == stats.iterations_per_point
            assert loaded["reuse_hit_rate"] == stats.reuse_hit_rate
            assert loaded["wall_seconds"] == stats.wall_seconds
            assert ("stage_utilization" in loaded) == (kind == "pipelined"), kind
        assert json.loads(json.dumps(runs["pipelined"].stats.to_dict()))["threads"] == 2


class TestEngineWiring:
    def test_compare_with_sequential_metric_deltas(self):
        rec = Recorder()
        report = compare_with_sequential(
            make_rc(), 10e-6, scheme="combined", threads=3, instrument=rec
        )
        delta = report.metrics_delta()
        seq_pts, pipe_pts = delta["accepted_points"]
        assert seq_pts == report.sequential.stats.accepted_points
        assert pipe_pts == report.pipelined.stats.accepted_points
        assert "iters/pt" in report.summary()

    def test_trace_covers_both_schedulers_and_workers(self):
        rec = Recorder()
        run_wavepipe(make_rc(), 10e-6, scheme="combined", threads=3, instrument=rec)
        names = {ev.name for ev in rec.events}
        assert "stage_run" in names
        assert "stage_task" in names
        assert "step_accept" in names
        assert 0 in rec.lanes  # scheduler lane
        assert any(lane >= 1 for lane in rec.lanes)  # worker lanes

    def test_global_recorder_backs_unthreaded_calls(self):
        rec = Recorder(capture_events=False)
        with use_recorder(rec):
            run_transient(make_rc(), 10e-6)
        assert rec.counter("points.accepted") > 0
        assert rec.counter("newton.solves") > 0

    def test_instrument_roundtrips_through_options(self):
        rec = Recorder()
        opts = SimOptions(reltol=1e-4)
        result = run_transient(make_rc(), 10e-6, options=opts, instrument=rec)
        assert result.stats.accepted_points > 0
        assert rec.counter("points.accepted") == result.stats.accepted_points

    def test_null_recorder_leaves_no_trace(self):
        run_transient(make_rc(), 10e-6)
        assert get_recorder() is NULL_RECORDER
        assert NULL_RECORDER.counters == {} and NULL_RECORDER.events == []


class TestCli:
    def run_cli(self, tmp_path, capsys, extra):
        deck = tmp_path / "rc.cir"
        deck.write_text(
            "rc deck\n"
            "V1 in 0 PULSE(0 1 1n 1p 1p 1m 2m)\n"
            "R1 in out 1k\n"
            "C1 out 0 1n\n"
            ".tran 0.1u 10u\n"
            ".end\n"
        )
        from repro.cli import main

        code = main([str(deck), "--samples", "3", *extra])
        assert code == 0
        return capsys.readouterr().out

    def test_metrics_flag_prints_summary(self, tmp_path, capsys):
        out = self.run_cli(tmp_path, capsys, ["--metrics"])
        assert "run stats" in out

    def test_metrics_flag_reports_wtm_run(self, tmp_path, capsys):
        deck = tmp_path / "blocks.cir"
        deck.write_text(
            "two rc blocks on a weak bridge\n"
            "V1 a0 0 PULSE(0 1 1n 1n 1n 8n 20n)\n"
            "R1 a0 a1 1k\n"
            "C1 a1 0 1p\n"
            "RBR a1 b0 200k\n"
            "R2 b0 b1 1k\n"
            "C2 b1 0 1p\n"
            "V2 b2 0 PULSE(0 1 11n 1n 1n 8n 20n)\n"
            "R3 b2 b1 1k\n"
            ".tran 0.1n 40n\n"
            ".end\n"
        )
        from repro.cli import main

        assert main([str(deck), "--samples", "3", "--partitions", "2",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "wtm stats" in out
        assert "  partitions: 2, " in out
        assert "  work: virtual " in out

    def test_metrics_alone_builds_no_recorder(self, tmp_path, capsys, monkeypatch):
        import repro.instrument

        built = []

        class SpyRecorder(Recorder):
            def __init__(self, **kwargs):
                built.append(kwargs)
                super().__init__(**kwargs)

        monkeypatch.setattr(repro.instrument, "Recorder", SpyRecorder)
        out = self.run_cli(tmp_path, capsys, ["--metrics"])
        assert built == []
        for line in ("  points: ", "  newton: ", "  wall: "):
            assert line in out

    def test_trace_flag_writes_chrome_json(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        out = self.run_cli(
            tmp_path,
            capsys,
            ["--wavepipe", "combined", "--threads", "3", "--trace", str(trace)],
        )
        assert "chrome trace written" in out
        doc = json.loads(trace.read_text())
        tids = {e["tid"] for e in doc["traceEvents"]}
        assert 0 in tids and len(tids) >= 2
