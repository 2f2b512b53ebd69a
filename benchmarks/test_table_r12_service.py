"""Table R12: service farm under deterministic mixed load.

Reproduction claim (extension, no paper counterpart): the
simulation-as-a-service layer — persistent content-hash queue, farm
nodes sharing one result cache, HTTP front end — absorbs a seeded
mixed workload with zero request errors, drains completely, and
executes each distinct spec exactly once: submissions minus dedups
equals completed jobs equals unique content hashes.  Because the load
generator's op sequence is seeded and response-independent and the
monitoring endpoints are unmetered, the smoke's counters are
deterministic and pinned exactly in ``smoke_counts.json``.
"""

from repro.bench.experiments import table_r12, table_r12_smoke


def _check(result):
    load = result.data["load"]
    assert load["errors"] == 0, f"loadgen saw {load['errors']} request errors"
    assert load["rejected"] == 0, "unexpected backpressure (no quota configured)"
    assert load["drained"], f"queue failed to drain: {load['counts']}"
    assert load["counts"] == {"done": load["unique_jobs"]}
    # each distinct spec executed exactly once across the farm
    assert result.data["executed"] == load["unique_jobs"]
    assert load["results_fetched"] == load["unique_jobs"]
    assert load["campaigns"] > 0 and load["deduped"] > 0


def test_table_r12_service(run_once):
    result = run_once(table_r12)
    _check(result)


def test_table_r12_smoke(run_once):
    result = run_once(table_r12_smoke)
    _check(result)
