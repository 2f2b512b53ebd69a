"""Virtual clock accounting and stage executors."""

import threading
import time

import pytest

from repro.errors import SimulationError
from repro.parallel.clock import VirtualClock
from repro.parallel.executors import SerialExecutor, ThreadExecutor, make_executor


class TestVirtualClock:
    def test_stage_charges_max_plus_sync(self):
        clock = VirtualClock(sync_overhead=1.0)
        cost = clock.advance_stage([3.0, 7.0, 2.0])
        assert cost == pytest.approx(8.0)
        assert clock.virtual_work == pytest.approx(8.0)
        assert clock.serial_work == pytest.approx(12.0)
        assert clock.stages == 1
        assert clock.peak_width == 3

    def test_empty_stage_free(self):
        clock = VirtualClock()
        assert clock.advance_stage([]) == 0.0
        assert clock.stages == 0

    def test_serial_charge(self):
        clock = VirtualClock()
        clock.advance_serial(5.0)
        assert clock.virtual_work == 5.0
        assert clock.serial_work == 5.0

    def test_overlapped_hidden_within_producer(self):
        clock = VirtualClock()
        exposed = clock.advance_producer_stage(10.0, [6.0])
        assert exposed == 0.0
        assert clock.virtual_work == pytest.approx(10.0)
        assert clock.serial_work == pytest.approx(16.0)

    def test_overlapped_excess_exposed(self):
        clock = VirtualClock()
        exposed = clock.advance_producer_stage(10.0, [13.0])
        assert exposed == pytest.approx(3.0)
        assert clock.virtual_work == pytest.approx(13.0)

    def test_producer_stage_multiple_overlaps(self):
        clock = VirtualClock()
        exposed = clock.advance_producer_stage(10.0, [4.0, 12.0, 9.0])
        # only the worst overshoot is exposed (others run on own threads)
        assert exposed == pytest.approx(2.0)
        assert clock.virtual_work == pytest.approx(12.0)
        assert clock.serial_work == pytest.approx(35.0)
        assert clock.peak_width == 4

    def test_mean_width(self):
        clock = VirtualClock()
        clock.advance_stage([1.0])
        clock.advance_stage([1.0, 1.0, 1.0])
        assert clock.mean_width == pytest.approx(2.0)

    def test_speedup_against(self):
        clock = VirtualClock()
        clock.advance_stage([4.0])
        assert clock.speedup_against(8.0) == pytest.approx(2.0)

    def test_speedup_degenerate(self):
        assert VirtualClock().speedup_against(100.0) == 1.0


class TestExecutors:
    def tasks(self, results):
        return [lambda r=r: r for r in results]

    def test_serial_preserves_order(self):
        ex = SerialExecutor()
        assert ex.run_stage(self.tasks([1, 2, 3])) == [1, 2, 3]

    def test_thread_preserves_order(self):
        with ThreadExecutor(4) as ex:
            # stagger completion: later tasks finish first
            def slow(v, delay):
                def run():
                    time.sleep(delay)
                    return v
                return run

            results = ex.run_stage([slow(1, 0.05), slow(2, 0.02), slow(3, 0.0)])
        assert results == [1, 2, 3]

    def test_thread_actually_concurrent(self):
        barrier = threading.Barrier(3, timeout=5.0)

        def task():
            barrier.wait()  # deadlocks unless all 3 run simultaneously
            return True

        with ThreadExecutor(3) as ex:
            assert ex.run_stage([task, task, task]) == [True, True, True]

    def test_thread_propagates_exceptions(self):
        def boom():
            raise ValueError("task failed")

        with ThreadExecutor(2) as ex:
            with pytest.raises(ValueError, match="task failed"):
                ex.run_stage([boom])

    def test_thread_exception_keeps_original_traceback(self):
        def deep_failure():
            raise KeyError("missing state")

        def boom():
            deep_failure()

        with ThreadExecutor(2) as ex:
            with pytest.raises(KeyError) as excinfo:
                ex.run_stage([boom])
        frames = [tb.name for tb in excinfo.traceback]
        assert "deep_failure" in frames  # raising frame survives the hop

    def test_thread_close_is_idempotent(self):
        ex = ThreadExecutor(2)
        ex.close()
        ex.close()  # must not raise
        ex.close()

    def test_thread_run_stage_after_close_raises(self):
        """A closed pool fails fast with a clear SimulationError instead of
        surfacing concurrent.futures internals (or hanging)."""
        ex = ThreadExecutor(2)
        assert ex.run_stage(self.tasks([1])) == [1]
        ex.close()
        with pytest.raises(SimulationError, match="closed"):
            ex.run_stage(self.tasks([2]))

    def test_thread_context_manager_closes(self):
        with ThreadExecutor(2) as ex:
            pass
        with pytest.raises(SimulationError, match="closed"):
            ex.run_stage(self.tasks([1]))

    def test_make_executor_rejects_unknown_kind(self):
        with pytest.raises(SimulationError, match="unknown executor"):
            make_executor("fiber", 2)

    def test_thread_mid_stage_failure_runs_all_tasks(self):
        ran = []

        def ok(k):
            def run():
                ran.append(k)
                return k
            return run

        def boom():
            ran.append("boom")
            raise RuntimeError("mid-stage")

        with ThreadExecutor(3) as ex:
            with pytest.raises(RuntimeError, match="mid-stage"):
                ex.run_stage([ok(0), boom, ok(2)])
        # The stage waits for every sibling before raising: no task is
        # abandoned mid-flight with shared history buffers checked out.
        assert sorted(ran, key=str) == [0, 2, "boom"]

    def test_thread_two_failures_first_in_task_order_wins(self):
        def fail_slow():
            time.sleep(0.05)
            raise ValueError("first in task order")

        def fail_fast():
            raise KeyError("finished first")

        with ThreadExecutor(2) as ex:
            # fail_fast raises long before fail_slow, but propagation is
            # deterministic in task order (matching SerialExecutor).
            with pytest.raises(ValueError, match="first in task order"):
                ex.run_stage([fail_slow, fail_fast])

    @pytest.mark.parametrize("workers", [0, -1, -8])
    def test_worker_floor(self, workers):
        with pytest.raises(SimulationError, match=f"max_workers >= 1, got {workers}"):
            ThreadExecutor(workers)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_floor_through_factory(self, workers):
        with pytest.raises(SimulationError, match=f"got {workers}"):
            make_executor("thread", workers)

    def test_factory(self):
        assert isinstance(make_executor("serial", 4), SerialExecutor)
        ex = make_executor("thread", 2)
        assert isinstance(ex, ThreadExecutor)
        ex.close()
        with pytest.raises(SimulationError):
            make_executor("fiber", 2)


class TestThreadLanes:
    """How ThreadExecutor maps a stage onto threads: the caller runs slot
    0 itself, persistent lanes run the rest (slot k on lane k % workers)."""

    def test_slot_zero_runs_on_the_calling_thread(self):
        with ThreadExecutor(3) as ex:
            idents = ex.run_stage([threading.get_ident] * 3)
        assert idents[0] == threading.get_ident()
        assert threading.get_ident() not in idents[1:]
        assert idents[1] != idents[2]

    def test_wide_stage_completes_in_task_order(self):
        with ThreadExecutor(2) as ex:
            results = ex.run_stage(
                [lambda k=k: (k, threading.get_ident()) for k in range(7)]
            )
        assert [k for k, _ in results] == list(range(7))
        caller = threading.get_ident()
        assert {ident for k, ident in results if k % 2 == 0} == {caller}
        (lane,) = {ident for k, ident in results if k % 2 == 1}
        assert lane != caller

    def test_slot_zero_failure_waits_for_running_lanes(self):
        finished = []

        def boom():
            raise RuntimeError("slot 0")

        def slow():
            time.sleep(0.05)
            finished.append("lane")
            return True

        with ThreadExecutor(2) as ex:
            with pytest.raises(RuntimeError, match="slot 0"):
                ex.run_stage([boom, slow])
            assert finished == ["lane"]  # done before the error surfaced
            assert ex.run_stage([lambda: 1, lambda: 2]) == [1, 2]

    def test_single_worker_starts_no_thread(self):
        before = threading.active_count()
        ex = ThreadExecutor(1)
        assert threading.active_count() == before
        assert ex.run_stage([threading.get_ident] * 3) == [threading.get_ident()] * 3
        ex.close()

    def test_lanes_are_joined_on_close(self):
        baseline = threading.active_count()
        for _ in range(50):
            ex = ThreadExecutor(3)
            assert ex.run_stage([lambda: 1] * 4) == [1] * 4
            ex.close()
        assert threading.active_count() == baseline

    def test_empty_stage(self):
        with ThreadExecutor(2) as ex:
            assert ex.run_stage([]) == []

    def test_stress_more_lanes_than_cores_loses_no_result(self):
        """Many short stages, four threads on fewer cores and a tiny switch
        interval: every slot's result lands in its own place, every time."""
        import sys

        failures = []

        def drive():
            try:
                with ThreadExecutor(4) as ex:
                    for width in [1, 2, 3, 4, 5, 9] * 40:
                        got = ex.run_stage([lambda k=k: k * k for k in range(width)])
                        if got != [k * k for k in range(width)]:
                            failures.append(got)
            except Exception as exc:  # surfaced by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=drive)
            runner.start()
            runner.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert failures == []
