"""Solver lanes: a stage's task k always runs in the engine's lane k.

Each pipelined engine owns one ``(buffers, solver)`` lane per thread for
the whole run, and binds stage task k to lane k. The order an executor
actually runs a stage's tasks in (chaos permutations, real threads, a
tiny interpreter switch interval) must therefore change nothing: every
lane sees the same solves in the same order as under the serial
executor, with reuse on (factors carried across stages) or off.
"""

import dataclasses
import hashlib
import sys

import numpy as np
import pytest

import repro.engine.transient as transient
from repro.circuits.registry import get_benchmark
from repro.core.backward import BackwardPipeline
from repro.core.wavepipe import run_wavepipe
from repro.engine.transient import PointTask
from repro.errors import SimulationError
from repro.integration.history import TimepointHistory
from repro.parallel.executors import SerialExecutor, ThreadExecutor
from repro.verify.chaos import ChaosExecutor

#: Wall-clock fields: the only stats allowed to differ between runtimes.
WALL_FIELDS = {"dcop_seconds", "tran_seconds"}


def _fingerprint(result):
    stats = {
        f.name: getattr(result.stats, f.name)
        for f in dataclasses.fields(result.stats)
        if f.name not in WALL_FIELDS and f.name != "clock"
    }
    stats["clock"] = dataclasses.asdict(result.stats.clock)
    waves = hashlib.sha256()
    for name in result.waveforms.names:
        waves.update(np.ascontiguousarray(result.waveforms[name].values).tobytes())
    return waves.hexdigest(), result.times.tolist(), result.step_sizes.tolist(), stats


def _run(name, scheme, reuse, executor):
    bench = get_benchmark(name)
    options = bench.options.replace(jacobian_reuse=reuse)
    with executor:
        return run_wavepipe(
            bench.build(),
            bench.tstop / 2,
            scheme=scheme,
            threads=3,
            tstep=bench.tstep,
            options=options,
            executor=executor,
        )


CASES = [
    (name, scheme, reuse)
    for name in ("invchain8", "mixer")
    for scheme in ("backward", "forward")
    for reuse in (False, True)
]


@pytest.mark.parametrize("name,scheme,reuse", CASES)
def test_chaos_threads_bit_identical_to_serial(name, scheme, reuse):
    reference = _fingerprint(_run(name, scheme, reuse, SerialExecutor()))
    for seed in (3 * len(name), 3 * len(name) + 1):
        chaos = ChaosExecutor(ThreadExecutor(3), seed=seed)
        assert _fingerprint(_run(name, scheme, reuse, chaos)) == reference, seed


def test_bit_identical_under_tiny_switch_interval():
    reference = _fingerprint(_run("invchain8", "backward", True, SerialExecutor()))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = _run("invchain8", "backward", True, ChaosExecutor(ThreadExecutor(3), seed=5))
    finally:
        sys.setswitchinterval(interval)
    assert _fingerprint(result) == reference


def test_slot_k_keeps_its_solver_across_stages(monkeypatch):
    used = {}  # target time -> solver that solved it
    real = transient.solve_timepoint

    def spy(system, history, t_new, options, force_be, buffers, solver, *rest):
        used[t_new] = solver
        return real(system, history, t_new, options, force_be, buffers, solver, *rest)

    monkeypatch.setattr(transient, "solve_timepoint", spy)
    slots: list[list[object]] = []

    class Probe(BackwardPipeline):
        def solve_stage(self, tasks):
            solutions = super().solve_stage(tasks)
            slots.append([used[task.t] for task in tasks])
            return solutions

    bench = get_benchmark("invchain8")
    with ChaosExecutor(ThreadExecutor(3), seed=11) as executor:
        engine = Probe(bench.build(), bench.tstop / 4, 3, tstep=bench.tstep,
                       options=bench.options, executor=executor)
        engine.run()
    lanes = [solver for _, solver in engine._lanes]
    assert len(lanes) == 3 and len({id(s) for s in lanes}) == 3
    wide = [stage for stage in slots if len(stage) > 1]
    assert len(wide) > 10
    for stage in slots:
        assert all(solver is lanes[k] for k, solver in enumerate(stage))


def test_stage_wider_than_threads_is_refused():
    bench = get_benchmark("invchain8")
    engine = BackwardPipeline(bench.build(), bench.tstop, 2, options=bench.options)
    task = PointTask(TimepointHistory(), 1e-9, False)
    with pytest.raises(SimulationError, match="3 tasks"):
        engine.solve_stage([task] * 3)
