"""Virtual clock: the primary speedup metric of this reproduction.

The paper measured wall-clock speedups of a pthreads engine on a real
multi-core machine. This host has one CPU, and CPython's GIL serialises
pure-Python threads, so wall-clock cannot exhibit multi-core scaling here
regardless of the algorithm (see DESIGN.md, "Substitutions"). Instead we
charge every task its *measured* cost and replay the schedule an ideal
shared-memory machine would execute:

* a **stage** of independent tasks (backward pipelining) costs the maximum
  of its tasks' costs plus a configurable synchronisation overhead;
* **speculative** work (forward pipelining) is free while it overlaps its
  producer and charged serially beyond that;
* **wasted** work (discarded points, failed speculation) still occupies
  the thread that ran it, so it inflates stage maxima exactly as it would
  inflate real wall time.

Costs are work units from the instrumented Newton solver (device
evaluations + factorisation effort per iteration) — deterministic, unlike
`perf_counter`, so speedup tables are reproducible. The clock also sums
the plain serial total so efficiency (= serial/virtual/threads) can be
reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VirtualClock:
    """Accumulates pipelined (virtual) and serial-equivalent work."""

    sync_overhead: float = 0.0
    virtual_work: float = 0.0
    serial_work: float = 0.0
    stages: int = 0
    peak_width: int = 1
    _stage_widths: list[int] = field(default_factory=list)

    def advance_stage(self, costs: list[float]) -> float:
        """Charge one stage of concurrent task costs; returns its width cost."""
        if not costs:
            return 0.0
        stage_cost = max(costs) + self.sync_overhead
        self.virtual_work += stage_cost
        self.serial_work += sum(costs)
        self.stages += 1
        self._stage_widths.append(len(costs))
        self.peak_width = max(self.peak_width, len(costs))
        return stage_cost

    def advance_serial(self, cost: float) -> None:
        """Charge work that runs with no concurrency (DC op, corrective
        Newton phases, single-task stages)."""
        self.virtual_work += cost
        self.serial_work += cost

    def advance_producer_stage(
        self, producer_cost: float, overlapped_costs: list[float]
    ) -> float:
        """Charge a producer with several tasks hidden behind it.

        Each overlapped task runs on its own thread concurrently with the
        producer (and with each other), so only the worst overshoot past
        the producer is exposed. Returns the exposed amount.
        """
        exposed = max(
            (max(0.0, c - producer_cost) for c in overlapped_costs), default=0.0
        )
        self.virtual_work += producer_cost + exposed + self.sync_overhead
        self.serial_work += producer_cost + sum(overlapped_costs)
        self.stages += 1
        width = 1 + len(overlapped_costs)
        self._stage_widths.append(width)
        self.peak_width = max(self.peak_width, width)
        return exposed

    @property
    def mean_width(self) -> float:
        """Average number of concurrent tasks per stage."""
        if not self._stage_widths:
            return 1.0
        return sum(self._stage_widths) / len(self._stage_widths)

    def speedup_against(self, serial_reference: float) -> float:
        """Speedup of this schedule vs an externally measured serial cost."""
        if self.virtual_work <= 0:
            return 1.0
        return serial_reference / self.virtual_work
