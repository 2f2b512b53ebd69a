"""What one rep measured, and how reps become one number.

Host times are aggregated as **best of N, part by part**: a rep is
split into parts (one per deck; a service rep is cut at every block of
ops and at every 14th job settled), each part keeps its fastest rep,
and the parts are summed. On a shared host
contention only ever *adds* time, in bursts of ten to twenty seconds;
over ten 10-second runs of unchanged code the median rep moved by
29 % (interquartile range over median) where the best rep moved by
6 %. The fastest rep is the reproducible part of the distribution and
so the only part a regression bound can be held against; the ledger
still prints median and quartiles beside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: A percentile is reported only where this many samples lie beyond it
#: (a p95 needs 200 ops of its kind).
BEYOND = 10


@dataclass
class Sample:
    """One rep. List fields hold seconds per part, in part order."""

    wall: list[float] = field(default_factory=list)
    #: default sequential engine on the same part (x variants); empty
    #: on the workloads that *are* that engine
    base: list[float] = field(default_factory=list)
    sim: list[float] = field(default_factory=list)
    #: service only: the op loop, first op -> last job settled, per-op latencies
    loop: list[float] = field(default_factory=list)
    drain: list[float] = field(default_factory=list)
    submit_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    virtual_work: float = 0.0
    base_virtual: float = 0.0
    ops: int = 0
    sims: int = 0
    attempted: int = 0
    failed: int = 0
    max_rel_err: float = 0.0
    #: False when a pass raised: the rep counts its failure, times nothing
    complete: bool = True

    @property
    def virtual_speedup(self) -> float:
        if not (self.base_virtual and self.virtual_work):
            return 1.0
        return self.base_virtual / self.virtual_work


def best(samples: list[Sample], part: str) -> float:
    """Sum over parts of the fastest rep of that part (0 if never timed)."""
    columns = zip(*(getattr(s, part) for s in samples))
    return sum(min(column) for column in columns)


def summarize(samples: list[Sample]) -> dict:
    """The host-time end-to-end metrics of a run's complete reps."""
    wall = best(samples, "wall")
    base = best(samples, "base")
    first = samples[0]
    return {
        "wall_s": wall,
        # 1 by definition where the workload is itself the baseline
        "wall_speedup": base / wall if base else 1.0,
        # a compute op is one deck -> CSV pass, a job one simulated
        # circuit: both rates run over the pass time. The service
        # counts HTTP ops over the op loop and unique jobs to the drain.
        "ops_per_s": first.ops / (best(samples, "loop") or wall),
        "jobs_per_s": first.sims / (best(samples, "drain") or wall),
    }


def percentile(values: list[float], pct: float) -> float | None:
    """Nearest-rank percentile; None with fewer than BEYOND samples beyond it."""
    if len(values) * (100 - pct) / 100 < BEYOND:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100.0))]


def latencies(samples: list[Sample]) -> dict:
    """p50/p95 of the per-op latencies pooled over *samples*, in ms.

    The one place the service's latency rows are computed: the per-run
    line and the ledger both read this. None = too few samples.
    """
    out = {}
    for kind in ("submit", "read"):
        pooled = [1e3 * dt for s in samples for dt in getattr(s, f"{kind}_s")]
        for pct in (50, 95):
            out[f"{kind}_p{pct}_ms"] = percentile(pooled, pct)
    return out
