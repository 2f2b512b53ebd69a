"""Scheduler machinery: backends, cache, retries, crash/timeout isolation.

The process-pool cases use the ``FAULT_HOOK`` in :mod:`repro.jobs.workers`
to simulate worker death and hangs; under the (preferred) fork start
method a monkeypatched hook propagates into the children automatically.
The whole-process tests are skipped when fork is unavailable.
"""

import json
import multiprocessing
import os
import pickle
import time

import pytest

import repro.jobs.workers as workers_module
from repro.errors import SimulationError
from repro.jobs.cache import ResultCache
from repro.jobs.scheduler import (
    BACKENDS,
    JobScheduler,
    ProcessPoolBackend,
    SerialBackend,
    _race_won_result,
    make_backend,
)
from repro.jobs.spec import CircuitRef, JobSpec
from repro.jobs.workers import JobResult, execute_job

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


class TestExecuteJob:
    def test_runs_and_packages_waveforms(self):
        result = execute_job(rc_spec())
        assert result.final_time == pytest.approx(1e-3)
        assert "v(out)" in result.signals
        assert len(result.times) == len(result.signals["v(out)"])
        # the waveform grid carries t=0 plus every accepted point
        assert result.stats["accepted_points"] == len(result.times) - 1
        assert result.elapsed > 0

    def test_param_override_changes_the_physics(self):
        slow = execute_job(rc_spec(params={"C1": 1e-4}))
        fast = execute_job(rc_spec())
        # 100x the capacitance: the output barely moves in the same window
        assert max(abs(v) for v in slow.signals["v(out)"]) < 0.5 * max(
            abs(v) for v in fast.signals["v(out)"]
        )

    def test_missing_signal_rejected(self):
        with pytest.raises(SimulationError, match="no trace"):
            execute_job(rc_spec(signals=("v(nope)",)))

    def test_missing_tstop_rejected(self):
        deck_no_tran = "t\nV1 a 0 DC 1\nR1 a 0 1k\n.end\n"
        spec = JobSpec(circuit=CircuitRef(kind="netlist", netlist=deck_no_tran))
        with pytest.raises(SimulationError, match="tstop"):
            execute_job(spec)

    def test_payload_is_deterministic(self):
        a, b = execute_job(rc_spec()), execute_job(rc_spec())
        assert a.to_dict() == b.to_dict()


class TestResultCache:
    def result(self, spec):
        return JobResult(
            spec_hash=spec.content_hash(),
            label=spec.label,
            analysis="transient",
            final_time=1.0,
            times=[0.0, 1.0],
            signals={"v(out)": [0.0, 0.5]},
            stats={"accepted_points": 2},
        )

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = rc_spec()
        assert cache.get(spec.content_hash()) is None
        cache.put(self.result(spec))
        hit = cache.get(spec.content_hash())
        assert hit is not None and hit.cached
        assert hit.to_dict() == self.result(spec).to_dict()
        assert spec.content_hash() in cache and len(cache) == 1

    def test_corrupt_entry_evicted_not_fatal(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = rc_spec()
        cache.path(spec.content_hash()).write_text("{not json", encoding="utf-8")
        assert cache.get(spec.content_hash()) is None
        assert not cache.path(spec.content_hash()).exists()

    def test_entries_are_compact_and_indented_ones_still_load(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = rc_spec()
        result = self.result(spec)
        path = cache.put(result)
        assert path.read_text().count("\n") == 1  # one line, no indent
        path.write_text(
            json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        assert cache.get(spec.content_hash()).to_dict() == result.to_dict()

    def test_stored_bytes_are_stable(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = rc_spec()
        cache.put(self.result(spec))
        first = cache.path(spec.content_hash()).read_bytes()
        cache.put(self.result(spec))
        assert cache.path(spec.content_hash()).read_bytes() == first


class TestBackendFactory:
    def test_names_and_instances(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        backend = make_backend("process", workers=3)
        assert isinstance(backend, ProcessPoolBackend) and backend.workers == 3
        assert make_backend(backend) is backend
        assert set(BACKENDS) == {"serial", "process", "ensemble"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="unknown backend"):
            make_backend("cloud")

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(SimulationError, match=f"got {workers}"):
            ProcessPoolBackend(workers)


class TestSerialScheduling:
    def test_outcomes_in_order_and_cached_second_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [rc_spec("a"), rc_spec("b", params={"R1": 2e3})]
        with JobScheduler(cache=cache) as scheduler:
            first = scheduler.run(specs)
            assert [o.status for o in first] == ["done", "done"]
            assert [o.spec.label for o in first] == ["a", "b"]
            second = scheduler.run(specs)
        assert [o.status for o in second] == ["cached", "cached"]
        assert second[0].result.cached

    def test_failing_job_does_not_stop_the_batch(self, monkeypatch):
        def hook(spec):
            if spec.label == "boom":
                raise RuntimeError("injected")

        monkeypatch.setattr(workers_module, "FAULT_HOOK", hook)
        with JobScheduler(retries=0) as scheduler:
            outcomes = scheduler.run([rc_spec("boom"), rc_spec("fine")])
        assert [o.status for o in outcomes] == ["failed", "done"]
        assert "injected" in outcomes[0].error

    def test_retry_recovers_flaky_job(self, monkeypatch):
        calls = {"n": 0}

        def hook(spec):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient failure")

        monkeypatch.setattr(workers_module, "FAULT_HOOK", hook)
        with JobScheduler(retries=1) as scheduler:
            (outcome,) = scheduler.run([rc_spec()])
        assert outcome.status == "done"
        assert outcome.attempts == 2

    def test_backoff_delays_retry(self, monkeypatch):
        monkeypatch.setattr(
            workers_module,
            "FAULT_HOOK",
            lambda spec: (_ for _ in ()).throw(RuntimeError("always")),
        )
        t0 = time.perf_counter()
        with JobScheduler(retries=2, backoff=0.05) as scheduler:
            (outcome,) = scheduler.run([rc_spec()])
        assert outcome.status == "failed" and outcome.attempts == 3
        assert time.perf_counter() - t0 >= 0.05 + 0.1  # 0.05, then 0.1

    def test_scheduler_validation(self):
        with pytest.raises(SimulationError, match="retries"):
            JobScheduler(retries=-1)
        with pytest.raises(SimulationError, match="timeout"):
            JobScheduler(timeout=0)

    def test_counters_and_events(self, tmp_path):
        from repro.instrument import JOB_RUN, Recorder

        rec = Recorder()
        cache = ResultCache(tmp_path)
        with JobScheduler(cache=cache, instrument=rec) as scheduler:
            scheduler.run([rc_spec()])
            scheduler.run([rc_spec()])
        assert rec.counter("jobs.completed") == 1
        assert rec.counter("jobs.cache_hits") == 1
        assert rec.counter("jobs.cache_misses") == 1
        assert [e.name for e in rec.events].count(JOB_RUN) == 2


class TestProcessScheduling:
    def test_pool_runs_jobs(self):
        specs = [rc_spec(f"j{i}", params={"R1": 1e3 + i}) for i in range(3)]
        with JobScheduler(backend="process", workers=2) as scheduler:
            outcomes = scheduler.run(specs)
        assert [o.status for o in outcomes] == ["done"] * 3
        assert all(o.result.signals["v(out)"] for o in outcomes)

    @needs_fork
    def test_worker_crash_fails_only_its_job(self, monkeypatch):
        def hook(spec):
            if spec.label == "die":
                os._exit(3)

        monkeypatch.setattr(workers_module, "FAULT_HOOK", hook)
        with JobScheduler(backend="process", workers=2, retries=0) as scheduler:
            outcomes = scheduler.run([rc_spec("die"), rc_spec("live")])
        assert [o.status for o in outcomes] == ["crashed", "done"]
        assert "exit code 3" in outcomes[0].error

    @needs_fork
    def test_worker_exception_reports_traceback(self, monkeypatch):
        monkeypatch.setattr(
            workers_module,
            "FAULT_HOOK",
            lambda spec: (_ for _ in ()).throw(ValueError("inside worker")),
        )
        with JobScheduler(backend="process", workers=1, retries=0) as scheduler:
            (outcome,) = scheduler.run([rc_spec()])
        assert outcome.status == "failed"
        assert "inside worker" in outcome.error

    @needs_fork
    def test_hung_worker_times_out(self, monkeypatch):
        def hook(spec):
            if spec.label == "hang":
                time.sleep(60)

        monkeypatch.setattr(workers_module, "FAULT_HOOK", hook)
        t0 = time.perf_counter()
        with JobScheduler(
            backend="process", workers=2, timeout=1.0, retries=0
        ) as scheduler:
            outcomes = scheduler.run([rc_spec("hang"), rc_spec("ok")])
        assert [o.status for o in outcomes] == ["timeout", "done"]
        assert time.perf_counter() - t0 < 30

    @needs_fork
    def test_sigterm_immune_worker_is_killed(self, monkeypatch):
        # A worker wedged in native code never runs the Python-level
        # SIGTERM handler; the supervisor must escalate to SIGKILL
        # instead of blocking forever in join().
        import signal

        def hook(spec):
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(60)

        monkeypatch.setattr(workers_module, "FAULT_HOOK", hook)
        t0 = time.perf_counter()
        with JobScheduler(
            backend="process", workers=1, timeout=1.0, retries=0
        ) as scheduler:
            (outcome,) = scheduler.run([rc_spec("wedged")])
        assert outcome.status == "timeout"
        assert time.perf_counter() - t0 < 30

    @needs_fork
    def test_crash_then_retry_succeeds(self, tmp_path, monkeypatch):
        # Crash on the first attempt only, keyed off an on-disk flag so
        # the signal survives the process boundary.
        flag = tmp_path / "crashed-once"

        def hook(spec):
            if not flag.exists():
                flag.write_text("x")
                os._exit(9)

        monkeypatch.setattr(workers_module, "FAULT_HOOK", hook)
        with JobScheduler(backend="process", workers=1, retries=1) as scheduler:
            (outcome,) = scheduler.run([rc_spec()])
        assert outcome.status == "done"
        assert outcome.attempts == 2


class _FakeReader:
    """Pipe read end whose recv fails the way a torn frame does."""

    def __init__(self, exc):
        self.exc = exc

    def recv(self):
        raise self.exc

    def close(self):
        pass


class _FakeProcess:
    exitcode = 1

    def is_alive(self):
        return False

    def terminate(self):
        pass

    def kill(self):
        pass

    def join(self, timeout=None):
        pass


class TestSupervisorRobustness:
    """The supervisor must survive any garbage a dying worker leaves in
    the pipe — a malformed reply fails that job, never the whole run."""

    @pytest.mark.parametrize(
        "exc",
        [
            EOFError(),
            OSError("pipe torn"),
            # a SIGTERM-interrupted send leaves a partial frame: recv
            # surfaces it as an unpickling / struct error
            pickle.UnpicklingError("truncated frame"),
            ValueError("not enough values to unpack"),
        ],
    )
    def test_any_malformed_reply_is_a_crash(self, exc):
        emitted = []
        ProcessPoolBackend._finish(
            _FakeReader(exc),
            7,
            _FakeProcess(),
            time.monotonic(),
            lambda *a: emitted.append(a),
        )
        assert len(emitted) == 1
        index, status = emitted[0][0], emitted[0][1]
        assert (index, status) == (7, "crash")

    def test_race_won_result_recovers_finished_job(self):
        result = execute_job(rc_spec())
        message = ("ok", result.to_dict(), 1.5, {"counters": {}})
        recovered = _race_won_result(message)
        assert recovered is not None
        assert recovered.spec_hash == result.spec_hash
        assert recovered.elapsed == 1.5

    @pytest.mark.parametrize(
        "message",
        [
            None,
            ("error", "traceback", 0.1, None),  # the normal SIGTERM reply
            ("ok", {"malformed": True}, 0.1, None),  # bad payload shape
            ("ok", {}, 0.1),  # too short
        ],
    )
    def test_race_won_result_rejects_non_results(self, message):
        assert _race_won_result(message) is None

    def test_worker_does_not_send_twice_after_interrupted_send(self):
        # SIGTERM landing mid conn.send must not trigger a second send
        # onto a stream that already holds a partial frame.
        import signal

        class _InterruptedConn:
            sends = 0
            closed = False

            def send(self, message):
                self.sends += 1
                raise KeyboardInterrupt  # stands in for _Terminated

            def close(self):
                self.closed = True

        conn = _InterruptedConn()
        previous = signal.getsignal(signal.SIGTERM)
        try:
            workers_module.worker_main(conn, rc_spec().to_dict(), False)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert conn.sends == 1
        assert conn.closed
