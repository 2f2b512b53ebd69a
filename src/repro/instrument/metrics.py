"""Per-run metrics: the numbers that explain *why* a run was fast or slow.

:class:`RunMetrics` condenses a run's :class:`TransientStats` (and, for
pipelined runs, the virtual clock) into the quantities the paper's
evaluation hinges on — Newton iterations per accepted point, LTE reject
rate, pipeline stage utilization, speculation hit rate — plus the raw
counts they derive from, so the summary always reconciles with the
underlying stats. Built via :meth:`RunMetrics.from_stats`, which uses
duck typing on the stats object to avoid importing the engine (the
engine imports this package, not the other way around).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunMetrics:
    """Derived diagnostics of one transient run (sequential or pipelined)."""

    scheme: str = "sequential"
    threads: int = 1

    accepted_points: int = 0
    rejected_points: int = 0
    newton_failures: int = 0
    newton_iterations: int = 0
    work_units: float = 0.0
    dc_work_units: float = 0.0

    dcop_seconds: float = 0.0
    tran_seconds: float = 0.0

    # Linear-solver cost breakdown (factorisation reuse).
    lu_factors: int = 0
    lu_solves: int = 0
    lu_reuse_hits: int = 0
    bypass_fallbacks: int = 0

    # Pipeline-only (zero / defaults on sequential runs).
    stages: int = 0
    mean_stage_width: float = 1.0
    peak_stage_width: int = 1
    virtual_work: float = 0.0
    serial_work: float = 0.0
    speculative_solves: int = 0
    speculative_hits: int = 0
    wasted_solves: int = 0
    wasted_work: float = 0.0
    speculative_work: float = 0.0
    speculative_wasted_work: float = 0.0
    guard_salvages: int = 0

    #: Counter snapshot from the attached recorder, when one was enabled.
    counters: dict = field(default_factory=dict)

    #: Trace events the recorder could not retain (capacity overflow);
    #: nonzero means the exported trace is incomplete.
    events_dropped: int = 0

    # -- derived ratios ---------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        return self.dcop_seconds + self.tran_seconds

    @property
    def attempted_points(self) -> int:
        """Every candidate that reached the LTE test or failed Newton."""
        return self.accepted_points + self.rejected_points + self.newton_failures

    @property
    def iterations_per_point(self) -> float:
        """Newton iterations per *accepted* point (includes rejected work)."""
        if self.accepted_points <= 0:
            return 0.0
        return self.newton_iterations / self.accepted_points

    @property
    def reject_rate(self) -> float:
        """LTE rejections as a fraction of LTE-tested candidates."""
        tested = self.accepted_points + self.rejected_points
        return self.rejected_points / tested if tested else 0.0

    @property
    def stage_utilization(self) -> float:
        """Fraction of the thread-pool's pipelined capacity doing work.

        ``serial_work / (virtual_work * threads)``: 1.0 means every lane
        was busy for the whole virtual schedule, lower values expose
        bubbles (idle lanes while the stage's critical task finishes).
        Sequential runs report 1.0 by construction.
        """
        if self.virtual_work <= 0 or self.threads <= 1:
            return 1.0
        return min(1.0, self.serial_work / (self.virtual_work * self.threads))

    @property
    def speculation_hit_rate(self) -> float:
        if self.speculative_solves <= 0:
            return 0.0
        return self.speculative_hits / self.speculative_solves

    @property
    def speculation_efficiency(self) -> float:
        """Fraction of speculative work units that ended up useful.

        1.0 when the scheme never speculated (nothing was risked), down
        to 0.0 when every speculative solve was discarded — the economics
        number the depth throttle is trying to maximise.
        """
        if self.speculative_work <= 0:
            return 1.0
        return max(0.0, 1.0 - self.speculative_wasted_work / self.speculative_work)

    @property
    def reuse_hit_rate(self) -> float:
        """Back-solves served by reused factors, as a fraction of all
        back-solves (0.0 with jacobian_reuse off on a nonlinear circuit;
        a linear one reuses exact factors within each solve regardless)."""
        if self.lu_solves <= 0:
            return 0.0
        return self.lu_reuse_hits / self.lu_solves

    @property
    def is_pipelined(self) -> bool:
        return self.stages > 0

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_stats(
        cls,
        stats,
        scheme: str = "sequential",
        threads: int = 1,
        recorder=None,
    ) -> "RunMetrics":
        """Build metrics from a TransientStats/PipelineStats object."""
        metrics = cls(
            scheme=scheme,
            threads=threads,
            accepted_points=stats.accepted_points,
            rejected_points=stats.rejected_points,
            newton_failures=stats.newton_failures,
            newton_iterations=stats.newton_iterations,
            work_units=stats.work_units,
            dc_work_units=stats.dc_work_units,
            dcop_seconds=stats.dcop_seconds,
            tran_seconds=stats.tran_seconds,
            lu_factors=getattr(stats, "lu_factors", 0),
            lu_solves=getattr(stats, "lu_solves", 0),
            lu_reuse_hits=getattr(stats, "lu_reuse_hits", 0),
            bypass_fallbacks=getattr(stats, "bypass_fallbacks", 0),
        )
        clock = getattr(stats, "clock", None)
        if clock is not None and clock.stages > 0:
            metrics.stages = clock.stages
            metrics.mean_stage_width = clock.mean_width
            metrics.peak_stage_width = clock.peak_width
            metrics.virtual_work = clock.virtual_work
            metrics.serial_work = clock.serial_work
        metrics.speculative_solves = getattr(stats, "speculative_solves", 0)
        metrics.speculative_hits = getattr(stats, "speculative_hits", 0)
        metrics.wasted_solves = getattr(stats, "wasted_solves", 0)
        metrics.wasted_work = getattr(stats, "wasted_work", 0.0)
        metrics.speculative_work = getattr(stats, "speculative_work", 0.0)
        metrics.speculative_wasted_work = getattr(
            stats, "speculative_wasted_work", 0.0
        )
        extra = getattr(stats, "extra", None) or {}
        metrics.guard_salvages = extra.get("guard_salvages", 0)
        if recorder is not None and recorder.enabled:
            metrics.counters = dict(recorder.counters)
            metrics.events_dropped = int(getattr(recorder, "dropped_events", 0))
        return metrics

    # -- presentation -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dump: raw fields plus the derived ratios."""
        out = {
            "scheme": self.scheme,
            "threads": self.threads,
            "accepted_points": self.accepted_points,
            "rejected_points": self.rejected_points,
            "newton_failures": self.newton_failures,
            "newton_iterations": self.newton_iterations,
            "iterations_per_point": self.iterations_per_point,
            "reject_rate": self.reject_rate,
            "work_units": self.work_units,
            "dc_work_units": self.dc_work_units,
            "dcop_seconds": self.dcop_seconds,
            "tran_seconds": self.tran_seconds,
            "wall_seconds": self.wall_seconds,
            "lu_factors": self.lu_factors,
            "lu_solves": self.lu_solves,
            "lu_reuse_hits": self.lu_reuse_hits,
            "reuse_hit_rate": self.reuse_hit_rate,
            "bypass_fallbacks": self.bypass_fallbacks,
        }
        if self.is_pipelined:
            out.update(
                {
                    "stages": self.stages,
                    "mean_stage_width": self.mean_stage_width,
                    "peak_stage_width": self.peak_stage_width,
                    "stage_utilization": self.stage_utilization,
                    "virtual_work": self.virtual_work,
                    "serial_work": self.serial_work,
                    "speculative_solves": self.speculative_solves,
                    "speculative_hits": self.speculative_hits,
                    "speculation_hit_rate": self.speculation_hit_rate,
                    "wasted_solves": self.wasted_solves,
                    "wasted_work": self.wasted_work,
                    "speculative_work": self.speculative_work,
                    "speculative_wasted_work": self.speculative_wasted_work,
                    "speculation_efficiency": self.speculation_efficiency,
                    "guard_salvages": self.guard_salvages,
                }
            )
        if self.events_dropped:
            out["events_dropped"] = self.events_dropped
        if self.counters:
            out["counters"] = dict(self.counters)
        return out

    def summary(self) -> str:
        """Human-readable end-of-run report."""
        label = self.scheme if self.threads <= 1 else f"{self.scheme} x{self.threads}"
        lines = [f"run metrics ({label})"]
        lines.append(
            f"  points: {self.accepted_points} accepted, "
            f"{self.rejected_points} rejected ({self.reject_rate:.1%} reject rate), "
            f"{self.newton_failures} Newton failures"
        )
        lines.append(
            f"  newton: {self.newton_iterations} iterations, "
            f"{self.iterations_per_point:.2f} per accepted point"
        )
        lines.append(
            f"  wall: dcop {self.dcop_seconds:.4f}s + transient "
            f"{self.tran_seconds:.4f}s = {self.wall_seconds:.4f}s"
        )
        if self.events_dropped:
            lines.append(
                f"  trace: {self.events_dropped} events dropped "
                f"(raise Recorder max_events for a complete trace)"
            )
        if self.lu_solves:
            lines.append(
                f"  lu: {self.lu_factors} factor, {self.lu_solves} back-solves "
                f"({self.reuse_hit_rate:.1%} on reused factors, "
                f"{self.bypass_fallbacks} bypass fallbacks)"
            )
        if self.is_pipelined:
            lines.append(
                f"  pipeline: {self.stages} stages, mean width "
                f"{self.mean_stage_width:.2f} (peak {self.peak_stage_width}), "
                f"stage utilization {self.stage_utilization:.1%}"
            )
            lines.append(
                f"  work: virtual {self.virtual_work:.1f} wu vs serial-equivalent "
                f"{self.serial_work:.1f} wu (+ dcop {self.dc_work_units:.1f} wu)"
            )
            lines.append(
                f"  speculation: {self.speculative_solves} solves, "
                f"{self.speculative_hits} hits "
                f"({self.speculation_hit_rate:.1%} hit rate); "
                f"wasted {self.wasted_solves} solves "
                f"({self.wasted_work:.1f} wu); "
                f"{self.guard_salvages} guard salvages"
            )
            if self.speculative_work > 0:
                lines.append(
                    f"  speculation economics: {self.speculative_work:.1f} wu "
                    f"risked, {self.speculative_wasted_work:.1f} wu wasted "
                    f"({self.speculation_efficiency:.1%} efficient)"
                )
        return "\n".join(lines)


def metrics_delta(reference: RunMetrics, candidate: RunMetrics) -> dict:
    """Side-by-side (reference, candidate) pairs of the headline metrics.

    Used by ``compare_with_sequential`` to report *why* a pipelined run's
    speedup is what it is — extra iterations, extra rejects, wasted work —
    alongside the speedup number itself.
    """
    return {
        "accepted_points": (reference.accepted_points, candidate.accepted_points),
        "iterations_per_point": (
            reference.iterations_per_point,
            candidate.iterations_per_point,
        ),
        "reject_rate": (reference.reject_rate, candidate.reject_rate),
        "newton_failures": (reference.newton_failures, candidate.newton_failures),
        "work_units": (reference.work_units, candidate.work_units),
        "wall_seconds": (reference.wall_seconds, candidate.wall_seconds),
        "lu_factors": (reference.lu_factors, candidate.lu_factors),
        "reuse_hit_rate": (reference.reuse_hit_rate, candidate.reuse_hit_rate),
    }
