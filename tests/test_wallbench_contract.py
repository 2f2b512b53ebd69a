"""Tier-1 guard for the frozen wall-clock benchmark (``wallbench/``).

The benchmark wraps simulator callables *by name* and checks two of its
workloads against committed golden counts; both break silently from the
simulator's side — as a ``trace_missing`` line, or as ``"correct":
false`` in a run only the pipeline makes. These two checks fail here
instead. Read-only use of ``wallbench``.
"""

import pytest

pytest.importorskip("wallbench")

from wallbench.compute import Golden, run_rep  # noqa: E402
from wallbench.layers import SERVICE_TARGETS, TARGETS  # noqa: E402
from wallbench.trace import Tracer  # noqa: E402
from wallbench.workloads import WORKLOADS, make_decks  # noqa: E402


def test_every_trace_target_resolves():
    with Tracer().installed(TARGETS + SERVICE_TARGETS) as tracer:
        assert tracer.missing == []


@pytest.mark.parametrize("name", ["digital_seq", "grid_seq"])
def test_golden_workload_still_correct(name):
    """One full-scale rep: waveforms within the golden band, and exactly
    the golden ``accepted_points`` / ``newton_iterations`` per deck."""
    sample = run_rep(WORKLOADS[name], make_decks(name, 0), Golden.load(), 0)
    assert sample.attempted > 0
    assert sample.failed == 0
