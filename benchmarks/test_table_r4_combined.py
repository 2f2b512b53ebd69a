"""Table R4: combined backward+forward speedup vs sequential.

Shape claim: the combined scheme adapts per-regime and matches or beats
the better single scheme on aggregate.
"""

from repro.bench.experiments import table_r2, table_r4, table_r4_smoke


def test_table_r4_combined(run_once):
    result = run_once(table_r4)
    geo = result.data["geomean"]
    assert geo[3] >= 1.0
    assert geo[4] >= 1.0


def test_table_r4_smoke(run_once):
    # Its count pin holds speculate.successes and pipeline.stages exactly.
    result = run_once(table_r4_smoke)
    assert result.data["geomean"][3] >= 1.0
