"""Shared helpers for the bench harness.

Every bench runs its experiment exactly once (rounds=1): these are
simulation-campaign benchmarks whose interesting output is the table
itself, not a microsecond timing distribution.

Each run executes under a process-global :class:`repro.instrument.Recorder`
(counters/histograms only — event capture off so campaigns stay cheap).
A ``*_smoke`` experiment's counts — Newton iterations, accepted points,
rejects, factors — must then equal its entry in ``smoke_counts.json``:
counters and histogram counts exactly, histogram means to a relative
1e-9. A change that moves a count edits the entry it moves.
"""

import json
import math
from fnmatch import fnmatch
from pathlib import Path

import pytest

from repro.instrument import Recorder, use_recorder

PINS = Path(__file__).parent / "smoke_counts.json"

#: Wall-clock channels that move between two identical runs, so no pin
#: holds them: a counter or whole histogram by name, or only a
#: histogram's mean by ``<name>.mean``.
UNPINNED = (
    "service.claims_empty",
    "service.idle_backoff",
    "service.lease_latency.mean",
    "service.queue_age.mean",
    "service.tenant.*.lease_latency",
    "service.tenant.*.queue_age",
)


def _pinned(key: str) -> bool:
    return not any(fnmatch(key, pattern) for pattern in UNPINNED)


def _pin_mismatches(pin: dict, snapshot: dict) -> list[str]:
    """Every way a recorder *snapshot* departs from its *pin* entry.

    A histogram pinned with ``mean_max`` instead of ``mean`` is a
    wall-clock latency: its count is exact, its mean only bounded.
    """
    out = []
    counters = {k: v for k, v in snapshot["counters"].items() if _pinned(k)}
    for name in sorted(set(counters) | set(pin["counters"])):
        got, want = counters.get(name), pin["counters"].get(name)
        if got != want:
            out.append(f"counter {name}: {got} (pinned {want})")
    histograms = {k: v for k, v in snapshot["histograms"].items() if _pinned(k)}
    for name in sorted(set(histograms) | set(pin["histograms"])):
        got, want = histograms.get(name), pin["histograms"].get(name)
        if got is None or want is None:
            out.append(f"histogram {name}: {'unpinned' if want is None else 'missing'}")
            continue
        if got["count"] != want["count"]:
            out.append(f"histogram {name} count: {got['count']} (pinned {want['count']})")
        if "mean_max" in want:
            if not got["mean"] <= want["mean_max"]:
                out.append(f"histogram {name} mean: {got['mean']!r} > {want['mean_max']!r}")
        elif _pinned(f"{name}.mean") and not math.isclose(
            got["mean"], want["mean"], rel_tol=1e-9
        ):
            out.append(f"histogram {name} mean: {got['mean']!r} (pinned {want['mean']!r})")
    return out


def _check_pins(exp_id: str, snapshot: dict) -> None:
    pins = json.loads(PINS.read_text())
    assert exp_id in pins, f"{exp_id} has no entry in {PINS.name}"
    mismatches = _pin_mismatches(pins[exp_id], snapshot)
    assert not mismatches, f"{exp_id} moved off {PINS.name}:\n" + "\n".join(mismatches)


@pytest.fixture
def run_once(benchmark):
    """Run an experiment function once under pytest-benchmark and print it."""

    def runner(func, *args, **kwargs):
        recorder = Recorder(capture_events=False)
        with use_recorder(recorder):
            result = benchmark.pedantic(
                func, args=args, kwargs=kwargs, rounds=1, iterations=1
            )
        print()
        print(result.text)
        if result.exp_id.endswith("_smoke"):
            _check_pins(result.exp_id, recorder.snapshot())
        return result

    return runner
