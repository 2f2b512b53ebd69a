"""Table R11: ensemble lockstep campaigns vs per-job process pool.

Reproduction claim (extension, no paper counterpart): Monte Carlo jobs
that differ only in component values can share one transient solve — the
vectorized ensemble engine batches K variants through one adaptive grid
and one Newton history — and that sharing beats running the same campaign as independent process-pool jobs
in **both** virtual-clock work and wall time, while every variant stays
within the ``loose`` (1e-3) rung of the verify tolerance ladder against
its own standalone sequential run.

Unlike the Table R10 wall-clock assertions, the ensemble's advantages do
not depend on physical core count — the batching amortises Python/
assembly overhead inside one process — so the speedup checks run
unconditionally.
"""

from repro.bench.experiments import table_r11, table_r11_smoke

#: Every variant must clear the loose rung (acceptance criterion).
LOOSE = 1e-3


def _check_rows(data):
    for key, cells in data.items():
        assert cells["pool_passed"], f"{key}: process-pool campaign had failed jobs"
        assert cells["worst_rel_dev"] <= LOOSE, (
            f"{key}: worst variant deviation {cells['worst_rel_dev']:.3e} "
            f"exceeds the loose rung ({LOOSE:g})"
        )
        assert cells["work_ratio"] > 1.0, (
            f"{key}: ensemble used more virtual-clock work than the pool "
            f"({cells['ens_work_units']:.0f} vs {cells['pool_work_units']:.0f})"
        )
        assert cells["wall_speedup"] > 1.0, (
            f"{key}: ensemble was not faster than the pool "
            f"({cells['ens_wall_seconds']:.2f}s vs "
            f"{cells['pool_wall_seconds']:.2f}s)"
        )


def test_table_r11_ensemble(run_once):
    result = run_once(table_r11)
    _check_rows(result.data)


def test_table_r11_smoke(run_once):
    result = run_once(table_r11_smoke)
    _check_rows(result.data)
