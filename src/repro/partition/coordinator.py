"""WTM coordinator: Gauss-Jacobi/Seidel outer iterations over partitions.

The Waveform Transmission Method (PAPERS.md, arXiv 0911.1166) is the
circuit-axis complement to WavePipe's time-axis pipelining: the circuit
is cut at weak couplings (see :mod:`repro.partition.partitioner`), each
partition is transient-simulated over the window with its neighbours'
boundary voltages frozen at the last iterate (see
:mod:`repro.partition.boundary`), and the exchange repeats until the
boundary waveforms reach a fixed point. Because every partition solve is
an ordinary engine run, each one can itself be pipelined with the
existing :func:`repro.core.wavepipe.run_wavepipe` schemes — the two
parallelism axes compose, which is the whole point of the subsystem.

Cost accounting runs on the shared :class:`~repro.parallel.clock.VirtualClock`
model: in ``jacobi`` mode the partition solves of one outer iteration are
concurrent, so the stage charges ``max`` of the per-partition virtual
costs (plus sync overhead); ``seidel`` mode consumes in-iteration updates
and is charged serially, trading parallelism for roughly half the outer
iterations. Windowing splits ``[0, tstop]`` into successive sub-windows
iterated to convergence one at a time — shorter windows tighten the
fixed-point contraction and bound how far a wrong boundary iterate can
propagate before being corrected.

Convergence is residual-based: the largest boundary-node waveform change
between consecutive iterates, normalised per node by its signal scale.
Non-convergence is never silent — ``strict`` (the default) raises
:class:`~repro.errors.ConvergenceError`, and ``strict=False`` returns a
result whose ``converged`` flag and residual history say exactly what
happened.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.components import Inductor, MutualInductance
from repro.core.wavepipe import run_wavepipe
from repro.engine.transient import run_transient
from repro.errors import ConvergenceError, SimulationError
from repro.instrument.events import (
    WTM_OUTER_ITER,
    WTM_PARTITION,
    WTM_RUN,
    WTM_WINDOW,
)
from repro.instrument.recorder import resolve_recorder
from repro.parallel.clock import VirtualClock
from repro.parallel.executors import StageExecutor, make_executor
from repro.partition.boundary import (
    BoundarySource,
    BoundaryWaveform,
    build_partition_circuit,
)
from repro.partition.partitioner import PartitionManifest, partition_circuit
from repro.utils.options import SimOptions
from repro.waveform.waveform import WaveformSet

#: Default relative tolerance on the boundary-waveform residual. One
#: notch below the oracle's "loose" rung so a converged run's remaining
#: fixed-point error stays inside the 1e-3 classification budget.
WTM_TOL = 5e-4

#: Residual normalisation floor (V): a boundary node whose waveform is
#: essentially flat at 0 V is scaled by this instead of its swing.
_SCALE_FLOOR = 1e-9

_MODES = ("jacobi", "seidel")


@dataclass
class WtmStats:
    """Work accounting of one WTM run.

    Attributes:
        clock: virtual clock the outer iterations were charged on.
        dc_work_units: work of the full-circuit DC solve seeding the
            initial iterate (charged serially on both totals).
        outer_iterations: outer iterations summed over all windows.
        partition_solves: individual partition transients executed.
        windows: time windows the run was split into.
    """

    clock: VirtualClock
    dc_work_units: float = 0.0
    outer_iterations: int = 0
    partition_solves: int = 0
    windows: int = 1

    @property
    def virtual_total(self) -> float:
        """Virtual-clock cost with concurrent partition solves."""
        return self.clock.virtual_work + self.dc_work_units

    @property
    def serial_total(self) -> float:
        """Total engine work as if every solve ran on one core."""
        return self.clock.serial_work + self.dc_work_units

    @property
    def total_work(self) -> float:
        """Alias for :attr:`serial_total` (TransientStats compatibility)."""
        return self.serial_total

    def speedup_against(self, serial_reference: float) -> float:
        """Virtual speedup of this run against a serial reference cost."""
        return self.clock.speedup_against(
            serial_reference - self.dc_work_units
        ) if self.virtual_total > 0 else 0.0

    def summary(self) -> str:
        """Human-readable end-of-run report."""
        # Every outer iteration solves every partition once.
        partitions = (
            self.partition_solves // self.outer_iterations
            if self.outer_iterations
            else 0
        )
        return "\n".join(
            [
                "wtm stats",
                f"  partitions: {partitions}, {self.outer_iterations} outer "
                f"iterations over {self.windows} window(s), "
                f"{self.partition_solves} partition solves",
                f"  work: virtual {self.virtual_total:.1f} wu vs serial "
                f"{self.serial_total:.1f} wu (both incl. dcop "
                f"{self.dc_work_units:.1f} wu)",
            ]
        )


@dataclass
class WtmResult:
    """Outcome of one WTM partitioned transient.

    Attributes:
        waveforms: converged (or last) iterate on the common grid.
        times: the common sample grid.
        stats: virtual/serial work accounting.
        converged: every window reached the residual tolerance.
        residuals: per-outer-iteration boundary residuals, all windows
            concatenated in execution order.
        window_iterations: outer iterations each window used.
        manifest: the decomposition the run executed.
        mode: ``"jacobi"`` or ``"seidel"``.
        windows: window count.
        relax: under-relaxation factor applied to boundary updates.
    """

    waveforms: WaveformSet
    times: np.ndarray
    stats: WtmStats
    converged: bool
    residuals: list[float] = field(default_factory=list)
    window_iterations: list[int] = field(default_factory=list)
    manifest: PartitionManifest | None = None
    mode: str = "seidel"
    windows: int = 1
    relax: float = 1.0

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def partitions(self) -> int:
        return len(self.manifest) if self.manifest is not None else 1

    @property
    def outer_iterations(self) -> int:
        return self.stats.outer_iterations


def _has_branch_state(circuit: Circuit) -> bool:
    """True when the circuit carries state ``node_ics`` cannot express."""
    return any(
        isinstance(comp, (Inductor, MutualInductance))
        for comp in circuit.components
    )


def _sample_grid(circuit: Circuit, tstop: float, grid_points: int) -> np.ndarray:
    """Uniform grid over ``[0, tstop]`` with source breakpoints spliced in.

    The iterate is piecewise linear between samples, so a waveform corner
    (a Pulse edge start/stop, a Pwl knot) falling between two uniform
    samples would be clipped by up to ``slope * dt / 2`` — an error the
    adaptive monolithic reference does not make because its step control
    lands on source breakpoints exactly. Splicing the breakpoints into
    the grid removes that corner error from every boundary exchange and
    from the returned waveforms.
    """
    grid = np.linspace(0.0, tstop, grid_points)
    extra: set[float] = set()
    for comp in circuit.components:
        waveform = getattr(comp, "waveform", None)
        if waveform is None:
            continue
        for t in waveform.breakpoints(tstop):
            if 0.0 < t < tstop:
                extra.add(float(t))
    if not extra:
        return grid
    merged = np.union1d(grid, np.array(sorted(extra)))
    # Drop near-duplicates: a breakpoint within dt/1e6 of a uniform
    # sample would make np.diff collapse toward zero.
    keep = np.concatenate(
        ([True], np.diff(merged) > tstop / (grid_points - 1) * 1e-6)
    )
    merged = merged[keep]
    merged[-1] = tstop  # a breakpoint grazing tstop must not shorten the run
    return merged


def _windowed_circuit(circuit: Circuit, abs_times: np.ndarray) -> Circuit:
    """*circuit* with every source re-expressed in window-local time.

    Window solves run from local ``t = 0``; a source waveform defined in
    absolute time must therefore be resampled onto the shifted grid. The
    grid splices every source breakpoint in, so the resampling itself is
    exact for piecewise-linear sources — and the sampled stand-in is a
    corner-aware :class:`BoundarySource`, so a window's block solver
    still lands on the original waveform's edges instead of rediscovering
    them through LTE rejections (or, worse, stepping over a corner the
    estimator underweights).
    """
    t0 = float(abs_times[0])
    if t0 == 0.0:
        return circuit
    local = abs_times - t0
    sub = Circuit(circuit.title)
    for comp in circuit.components:
        waveform = getattr(comp, "waveform", None)
        if waveform is not None:
            values = waveform.values(np.asarray(abs_times, dtype=float))
            comp = dataclasses.replace(
                comp, waveform=BoundarySource(local, values)
            )
        sub.add(comp)
    return sub


def run_wtm(
    circuit: Circuit,
    tstop: float,
    partitions: int = 2,
    *,
    manifest: PartitionManifest | None = None,
    mode: str = "seidel",
    scheme: str | None = None,
    threads: int = 2,
    tstep: float | None = None,
    options: SimOptions | None = None,
    executor: str | StageExecutor | None = None,
    max_outer: int = 25,
    wtm_tol: float = WTM_TOL,
    relax: float = 1.0,
    windows: int = 1,
    grid_points: int = 400,
    multirate: bool = False,
    strict: bool = True,
    instrument=None,
) -> WtmResult:
    """Partitioned transient simulation of *circuit* to *tstop*.

    Args:
        partitions: weak-coupling partition count (ignored when
            *manifest* is given).
        manifest: explicit decomposition; defaults to
            :func:`~repro.partition.partitioner.partition_circuit`.
        mode: ``"seidel"`` (in-iteration boundary updates, charged
            serially, fewer outer iterations — the default) or
            ``"jacobi"`` (concurrent partition solves, charged as one
            virtual-clock stage per iteration).
        scheme: optional WavePipe scheme (``backward``/``forward``/
            ``combined``) pipelining every partition solve; None runs
            the sequential engine per partition.
        threads: simulated thread count per pipelined partition solve.
        executor: stage executor running the partition tasks of one
            outer iteration — ``None`` (owned serial), ``"serial"``/
            ``"thread"`` (owned), or an open :class:`StageExecutor`
            instance such as a :class:`~repro.verify.chaos.ChaosExecutor`
            (left open for the caller).
        max_outer: outer-iteration cap **per window**.
        wtm_tol: relative boundary-residual convergence tolerance.
        relax: under-relaxation factor on boundary updates in (0, 1].
        windows: successive time windows iterated to convergence one at
            a time (>1 requires a circuit without inductive branch
            state, which ``node_ics`` cannot restart).
        grid_points: boundary-waveform samples across ``[0, tstop]``.
        multirate: let each partition's step controller run free instead
            of capping steps at the boundary-grid spacing. Quiet blocks
            then stride over their idle phases while only the active
            block pays dense cost — the circuit-axis multirate win the
            grid cap forfeits. Neighbour switching edges stay resolved
            because the injected :class:`BoundarySource` reports its
            corners as breakpoints.
        strict: raise :class:`~repro.errors.ConvergenceError` when any
            window fails to converge instead of returning the flagged
            result.
        instrument: optional recorder; receives the ``wtm.*`` counters
            and the ``wtm_run > wtm_window > wtm_outer_iter >
            wtm_partition`` span family.
    """
    if not isinstance(circuit, Circuit):
        raise SimulationError("run_wtm needs a raw Circuit (not a compiled one)")
    if mode not in _MODES:
        raise SimulationError(f"WTM mode must be one of {_MODES}, got {mode!r}")
    if not 0.0 < relax <= 1.0:
        raise SimulationError("relax must be in (0, 1]")
    if max_outer < 1:
        raise SimulationError("max_outer must be >= 1")
    if grid_points < 2:
        raise SimulationError("grid_points must be >= 2")
    if windows < 1:
        raise SimulationError("windows must be >= 1")
    if windows > grid_points - 1:
        raise SimulationError("more windows than grid intervals")
    if windows > 1 and _has_branch_state(circuit):
        raise SimulationError(
            "windowed WTM cannot restart inductive branch currents; "
            "use windows=1 for circuits with inductors"
        )
    tstop = float(tstop)
    if manifest is None:
        manifest = partition_circuit(circuit, partitions)
    n_parts = len(manifest)

    base = options or SimOptions()
    rec = resolve_recorder(
        instrument if instrument is not None else base.instrument
    )
    grid = _sample_grid(circuit, tstop, grid_points)
    if multirate:
        # Each block steps at its own LTE-controlled rate; the injected
        # BoundarySource pins neighbour edges through its corner
        # breakpoints, so no grid cap is needed and quiet blocks can
        # stride over their idle phases.
        block_options = base.replace(
            instrument=rec if rec.enabled else None,
        )
    else:
        # Conservative default: cap the block solver's step at twice the
        # boundary sample spacing so even sub-corner-threshold features
        # of a neighbour's iterate cannot be stepped over (the classic
        # waveform-relaxation rule, and what the oracle ladder validates).
        block_options = base.replace(
            max_step=2.0 * tstop / (grid_points - 1),
            instrument=rec if rec.enabled else None,
        )

    owns_executor = executor is None or isinstance(executor, str)
    stage_exec = (
        make_executor(executor or "serial", max(n_parts, 1))
        if owns_executor
        else executor
    )

    clock = VirtualClock(sync_overhead=base.sync_overhead)
    stats = WtmStats(clock=clock, windows=windows)

    run_sid = 0
    if rec.enabled:
        run_sid = rec.begin_span(
            WTM_RUN,
            lane=0,
            t_sim=0.0,
            partitions=n_parts,
            mode=mode,
            windows=windows,
            scheme=scheme or "sequential",
        )

    try:
        iterate, dc_work = _initial_iterate(circuit, base, grid)
        stats.dc_work_units = dc_work

        boundary_nodes = manifest.boundary_nodes()
        residuals: list[float] = []
        window_iterations: list[int] = []
        converged = True

        edges = [
            round(w * (grid.size - 1) / windows) for w in range(windows + 1)
        ]
        for w in range(windows):
            i0, i1 = edges[w], edges[w + 1]
            abs_times = grid[i0 : i1 + 1]
            local_times = abs_times - abs_times[0]
            duration = float(local_times[-1])
            uic = i0 > 0
            state0 = (
                {node: float(vals[i0]) for node, vals in iterate.items()}
                if uic
                else None
            )
            windowed = _windowed_circuit(circuit, abs_times)

            win_sid = 0
            if rec.enabled:
                win_sid = rec.begin_span(
                    WTM_WINDOW, lane=0, t_sim=float(abs_times[0]), window=w
                )
            win_virtual0 = clock.virtual_work
            win_converged = False
            iters = 0

            for outer in range(1, max_outer + 1):
                iters = outer
                iter_sid = 0
                if rec.enabled:
                    iter_sid = rec.begin_span(
                        WTM_OUTER_ITER,
                        lane=0,
                        t_sim=float(abs_times[0]),
                        iteration=outer,
                        window=w,
                    )
                source = {
                    node: vals[i0 : i1 + 1].copy()
                    for node, vals in iterate.items()
                }
                view = dict(source)  # seidel overwrites as blocks finish
                residual = 0.0

                def make_task(p: int):
                    def task():
                        psid = 0
                        if rec.enabled:
                            psid = rec.begin_span(
                                WTM_PARTITION,
                                lane=0,
                                parent=iter_sid,
                                t_sim=float(abs_times[0]),
                                partition=p,
                            )
                        boundary = {
                            node: BoundaryWaveform(local_times, view[node])
                            for node in manifest.foreign_nodes(p)
                        }
                        sub = build_partition_circuit(
                            windowed, manifest, p, boundary
                        )
                        ics = (
                            {
                                n: state0[n]
                                for n in sub.nodes()
                                if n in state0
                            }
                            if uic
                            else None
                        )
                        if scheme:
                            res = run_wavepipe(
                                sub,
                                duration,
                                scheme=scheme,
                                threads=threads,
                                tstep=tstep,
                                options=block_options,
                                executor="serial",
                                uic=uic,
                                node_ics=ics,
                            )
                            v_cost = res.stats.virtual_total
                            s_cost = res.stats.serial_total
                        else:
                            res = run_transient(
                                sub,
                                duration,
                                tstep=tstep,
                                options=block_options,
                                uic=uic,
                                node_ics=ics,
                            )
                            v_cost = s_cost = res.stats.total_work
                        own = {
                            node: res.waveforms.voltage(node).at(local_times)
                            for node in manifest.partitions[p].nodes
                        }
                        if rec.enabled:
                            rec.end_span(
                                psid,
                                outcome="solved",
                                cost=v_cost,
                                partition=p,
                            )
                        return own, v_cost, s_cost
                    return task

                solves: list[tuple[dict, float, float]] = []
                if mode == "jacobi":
                    solves = stage_exec.run_stage(
                        [make_task(p) for p in range(n_parts)]
                    )
                    clock.advance_stage([v for _, v, _ in solves])
                    # advance_stage books sum(costs) as serial work using
                    # the *virtual* per-task costs; correct to engine work
                    clock.serial_work += sum(
                        s - v for _, v, s in solves
                    )
                else:
                    for p in range(n_parts):
                        (result,) = stage_exec.run_stage([make_task(p)])
                        own, v_cost, s_cost = result
                        view.update(own)
                        clock.advance_serial(v_cost)
                        clock.serial_work += s_cost - v_cost
                        solves.append(result)
                stats.partition_solves += n_parts
                stats.outer_iterations += 1

                updated = dict(source)
                for own, _, _ in solves:
                    updated.update(own)
                for node in boundary_nodes:
                    new, old = updated[node], source[node]
                    delta = float(np.abs(new - old).max())
                    scale = max(
                        float(new.max() - new.min()),
                        float(np.abs(new).max()),
                        _SCALE_FLOOR,
                    )
                    residual = max(residual, delta / scale)
                    if relax < 1.0:
                        updated[node] = relax * new + (1.0 - relax) * old
                for node, vals in updated.items():
                    iterate[node][i0 : i1 + 1] = vals

                residuals.append(residual)
                if rec.enabled:
                    rec.observe("wtm.residual", residual)
                    rec.end_span(
                        iter_sid,
                        outcome=(
                            "converged" if residual <= wtm_tol else "iterating"
                        ),
                        cost=clock.virtual_work - win_virtual0,
                        residual=residual,
                    )
                if residual <= wtm_tol:
                    win_converged = True
                    break

            window_iterations.append(iters)
            if rec.enabled:
                rec.end_span(
                    win_sid,
                    outcome="converged" if win_converged else "not_converged",
                    cost=clock.virtual_work - win_virtual0,
                    iterations=iters,
                )
            if not win_converged:
                converged = False
                break  # later windows would start from a wrong state

        data = {f"v({node})": vals for node, vals in iterate.items()}
        result = WtmResult(
            waveforms=WaveformSet(grid, data),
            times=grid,
            stats=stats,
            converged=converged,
            residuals=residuals,
            window_iterations=window_iterations,
            manifest=manifest,
            mode=mode,
            windows=windows,
            relax=relax,
        )
    finally:
        if owns_executor:
            stage_exec.close()

    if rec.enabled:
        rec.count("wtm.runs")
        rec.count("wtm.partitions", n_parts)
        rec.count("wtm.boundary_nodes", len(manifest.boundary))
        rec.count("wtm.windows", windows)
        rec.count("wtm.outer_iterations", stats.outer_iterations)
        rec.count("wtm.partition_solves", stats.partition_solves)
        rec.count("wtm.converged" if converged else "wtm.not_converged")
        rec.count("wtm.virtual_work", stats.virtual_total)
        rec.count("wtm.serial_work", stats.serial_total)
        rec.end_span(
            run_sid,
            outcome="converged" if converged else "not_converged",
            cost=stats.virtual_total,
            t_sim=tstop,
            outer_iterations=stats.outer_iterations,
        )

    if not converged and strict:
        failed = len(window_iterations) - 1
        raise ConvergenceError(
            f"WTM did not converge: window {failed} residual "
            f"{residuals[-1]:.3g} after {max_outer} outer iteration(s) "
            f"(tolerance {wtm_tol:g}); raise max_outer, lower relax, or "
            f"add windows — or pass strict=False to inspect the iterate"
        )
    return result


def _initial_iterate(
    circuit: Circuit, options: SimOptions, grid: np.ndarray
) -> tuple[dict[str, np.ndarray], float]:
    """DC operating point of the *full* circuit, held flat over the grid.

    Seeding every partition from the coupled DC solution (instead of
    zeros) removes the transient the fixed-point iteration would
    otherwise spend recovering bias points. Returns the iterate and the
    DC solve's work units (charged serially by the caller).
    """
    from repro.mna.compiler import compile_circuit
    from repro.mna.system import MnaSystem
    from repro.solver.dcop import solve_operating_point

    compiled = compile_circuit(circuit, options)
    system = MnaSystem(compiled)
    op = solve_operating_point(system, options)
    iterate = {}
    for node in circuit.nodes():
        idx = compiled.node_voltage_index(node)
        iterate[node] = np.full(grid.size, float(op.x[idx]))
    return iterate, float(op.work_units)
