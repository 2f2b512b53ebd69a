"""Cross-process telemetry aggregation through the job scheduler.

The acceptance path of the telemetry subsystem: worker processes ship
recorder snapshots back over the result pipe (on success, failure and
timeout), the parent merges them into the campaign recorder, cached
results replay their deterministic telemetry on resume, and campaign
rollups end up byte-identical between a fresh run and a
kill-then-resume run.
"""

import multiprocessing
import time

import pytest

import repro.jobs.workers as workers_module
from repro.instrument import Recorder
from repro.jobs import (
    CircuitRef,
    JobScheduler,
    JobSpec,
    deterministic_telemetry,
    execute_job,
    monte_carlo,
    run_campaign,
)
from repro.jobs.cache import ResultCache

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault-injection via FAULT_HOOK needs the fork start method",
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


def rc_campaign(n=4):
    return monte_carlo(rc_spec(), n=n, seed=11, jitter=0.05)


def solver_rollup(stats) -> dict:
    """The deterministic slice of a campaign rollup (no wall-clock)."""
    return stats.counts()


class TestExecuteJobTelemetry:
    def test_result_carries_deterministic_telemetry(self):
        rec = Recorder(capture_events=False)
        result = execute_job(rc_spec(), instrument=rec)
        assert result.telemetry is not None
        assert result.telemetry["counters"]["newton.iterations"] > 0
        assert result.telemetry["counters"]["lu.solve"] > 0
        assert "newton.iterations_per_solve" in result.telemetry["histograms"]
        assert result.to_dict()["telemetry"] == result.telemetry

    def test_without_instrument_payload_is_unchanged(self):
        result = execute_job(rc_spec())
        assert result.telemetry is None
        assert "telemetry" not in result.to_dict()

    def test_telemetry_is_deterministic(self):
        a = execute_job(rc_spec(), instrument=Recorder(capture_events=False))
        b = execute_job(rc_spec(), instrument=Recorder(capture_events=False))
        assert a.to_dict() == b.to_dict()

    def test_deterministic_telemetry_helper(self):
        assert deterministic_telemetry(None) is None
        rec = Recorder()
        rec.count("x", 2)
        rec.event("e")  # events never enter the deterministic slice
        telemetry = deterministic_telemetry(rec)
        assert telemetry == {
            "counters": {"x": 2},
            "histograms": {},
            "dropped_events": 0,
        }


class TestSchedulerAggregation:
    def test_serial_outcomes_carry_and_merge_snapshots(self):
        rec = Recorder()
        with JobScheduler(instrument=rec) as scheduler:
            outcomes = scheduler.run([rc_spec("a"), rc_spec("b")])
        for outcome in outcomes:
            assert outcome.telemetry is not None
            assert outcome.telemetry["counters"]["newton.iterations"] > 0
            assert outcome.telemetry["events_tail"]
        merged = sum(
            o.telemetry["counters"]["newton.iterations"] for o in outcomes
        )
        assert rec.counter("newton.iterations") == merged

    def test_process_pool_aggregates_worker_counters(self):
        rec = Recorder()
        specs = [rc_spec(f"j{i}", params={"R1": 1e3 + i}) for i in range(3)]
        with JobScheduler(backend="process", workers=2, instrument=rec) as scheduler:
            outcomes = scheduler.run(specs)
        assert all(o.status == "done" for o in outcomes)
        assert rec.counter("newton.iterations") > 0
        assert rec.counter("lu.solve") > 0
        assert rec.counter("newton.iterations") == sum(
            o.telemetry["counters"]["newton.iterations"] for o in outcomes
        )

    def test_disabled_recorder_disables_telemetry(self):
        with JobScheduler(backend="process", workers=2) as scheduler:
            outcomes = scheduler.run([rc_spec("a"), rc_spec("b")])
        assert all(o.telemetry is None for o in outcomes)
        assert all("telemetry" not in o.result.to_dict() for o in outcomes)

    def test_cached_results_replay_their_telemetry(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = Recorder(capture_events=False)
        with JobScheduler(cache=cache, instrument=first) as scheduler:
            scheduler.run([rc_spec()])
        second = Recorder(capture_events=False)
        with JobScheduler(cache=cache, instrument=second) as scheduler:
            (outcome,) = scheduler.run([rc_spec()])
        assert outcome.status == "cached"
        assert outcome.telemetry is not None
        assert second.counter("newton.iterations") == first.counter(
            "newton.iterations"
        )
        assert second.counter("lu.solve") == first.counter("lu.solve")

    @needs_fork
    def test_failed_worker_still_ships_partial_snapshot(self, monkeypatch):
        monkeypatch.setattr(
            workers_module,
            "FAULT_HOOK",
            lambda spec: (_ for _ in ()).throw(ValueError("mid-flight")),
        )
        rec = Recorder()
        with JobScheduler(
            backend="process", workers=1, retries=0, instrument=rec
        ) as scheduler:
            (outcome,) = scheduler.run([rc_spec()])
        assert outcome.status == "failed"
        assert outcome.telemetry is not None
        assert "counters" in outcome.telemetry

    @needs_fork
    def test_timed_out_worker_still_ships_partial_snapshot(self, monkeypatch):
        def hook(spec):
            if spec.label == "hang":
                time.sleep(60)

        monkeypatch.setattr(workers_module, "FAULT_HOOK", hook)
        rec = Recorder()
        with JobScheduler(
            backend="process", workers=1, timeout=1.0, retries=0, instrument=rec
        ) as scheduler:
            (outcome,) = scheduler.run([rc_spec("hang")])
        assert outcome.status == "timeout"
        # SIGTERM handler in the worker gets one last message out
        assert outcome.telemetry is not None
        assert rec.counter("jobs.timeouts") == 1


class TestCampaignRollup:
    def test_process_campaign_rollup_reports_solver_work(self, tmp_path):
        rec = Recorder(capture_events=False)
        report = run_campaign(
            rc_campaign(),
            store=tmp_path / "store",
            backend="process",
            workers=2,
            instrument=rec,
        )
        assert report.passed
        rollup = report.stats
        assert rollup.newton_iterations > 0
        assert rollup.lu_factors > 0 and rollup.lu_solves > 0
        assert rollup.accepted_points > 0
        # the campaign recorder saw the same totals via worker snapshots
        assert rec.counter("newton.iterations") == rollup.newton_iterations
        assert rec.counter("lu.solve") == rollup.lu_solves

    def test_interrupted_campaign_resumes_to_identical_rollup(
        self, tmp_path, monkeypatch
    ):
        campaign = rc_campaign()
        victim = campaign.jobs[1].label

        # Uninterrupted reference run in its own store.
        fresh = run_campaign(
            campaign,
            store=tmp_path / "fresh",
            backend="process",
            workers=2,
            instrument=Recorder(capture_events=False),
        )

        # "Kill" one job mid-campaign, then resume against the same store.
        def hook(spec):
            if spec.label == victim:
                raise RuntimeError("injected interruption")

        monkeypatch.setattr(workers_module, "FAULT_HOOK", hook)
        interrupted = run_campaign(
            campaign,
            store=tmp_path / "resumed",
            backend="process",
            workers=2,
            retries=0,
            instrument=Recorder(capture_events=False),
        )
        assert not interrupted.passed
        monkeypatch.setattr(workers_module, "FAULT_HOOK", None)

        resume_rec = Recorder(capture_events=False)
        resumed = run_campaign(
            campaign,
            store=tmp_path / "resumed",
            backend="process",
            workers=2,
            instrument=resume_rec,
        )
        assert resumed.passed
        assert resumed.cache_hits == len(campaign.jobs) - 1
        assert solver_rollup(resumed.stats) == solver_rollup(fresh.stats)
        # per-job payloads (including embedded telemetry) byte-identical
        for a, b in zip(fresh.outcomes, resumed.outcomes):
            assert a.result.to_dict() == b.result.to_dict()

    def test_serial_and_process_rollups_agree(self, tmp_path):
        campaign = rc_campaign(n=2)
        serial = run_campaign(
            campaign,
            store=tmp_path / "serial",
            instrument=Recorder(capture_events=False),
        )
        process = run_campaign(
            campaign,
            store=tmp_path / "process",
            backend="process",
            workers=2,
            instrument=Recorder(capture_events=False),
        )
        assert solver_rollup(serial.stats) == solver_rollup(process.stats)

    def test_campaign_heartbeat_counts_jobs(self, tmp_path):
        from repro.instrument import Heartbeat

        rec = Recorder(capture_events=False)
        beat = Heartbeat(
            rec, interval=60.0, jsonl=str(tmp_path / "beats.jsonl")
        )
        report = run_campaign(
            rc_campaign(n=2),
            store=tmp_path / "store",
            instrument=rec,
            heartbeat=beat,
        )
        assert report.passed
        assert beat.total_jobs == 2
        final = beat.records[-1]
        assert final["final"] is True
        assert final["jobs"]["done"] == 2
        assert final["eta_seconds"] == 0.0
