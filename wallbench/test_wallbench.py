"""Tests of the benchmark itself. Run explicitly: ``pytest wallbench -q``
(tier-1's ``testpaths`` stops at ``tests/``).

Everything runs at quick settings (tstop/4, one rep, one 25-op service block):
the point is the shape of the output and the behaviour of the checks,
not the numbers.
"""

import json
import re

import pytest

from wallbench import ROOT, ledger
from wallbench.compute import (
    Golden,
    check_golden,
    run_deck,
    run_rep,
    traced_layers,
)
from wallbench.driver import END_TO_END, LEDGER_METRICS, measure
from wallbench.layers import PER_LAYER, TARGETS
from wallbench.samples import BEYOND, Sample, latencies
from wallbench.service import SCRATCH, Farm
from wallbench.trace import Target
from wallbench.workloads import WORKLOADS, make_decks, make_traffic

from repro.waveform.export import read_csv, to_csv_text

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_mirrors_the_code_and_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["wallbench"]
    # the driver's runs are capped in total, so it gets five of the seven
    assert {(w["name"], w["why"]) for w in BENCHMARK["workloads"]} < {
        (w.name, w.why) for w in WORKLOADS.values()
    }
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == list(PER_LAYER)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert 2 <= len(BENCHMARK["workloads"]) <= 8 and 1 <= BENCHMARK["run_seconds"] <= 60


def _assert_result(result, names):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(names)
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"} and isinstance(entry["value"], float)


@pytest.mark.parametrize("workload", ["digital_seq", "wavepipe_pipe"])
def test_untraced_result_has_every_end_to_end_metric(workload):
    result, detail = measure(workload, seed=3, seconds=0, trace=False, scale=0.25, reps=1)
    _assert_result(result, [m["name"] for m in BENCHMARK["end_to_end"]])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert len(detail["wall_s"]) == 1 and detail["trace_missing"] == []


def test_traced_result_has_every_per_layer_metric():
    result, detail = measure("grid_seq", seed=3, seconds=0, trace=True, scale=0.25, reps=1)
    _assert_result(result, [m["name"] for m in BENCHMARK["per_layer"]])
    layers = detail["layers"]
    assert detail["trace_missing"] == []
    assert layers["trace.attributed_ratio"] >= 0.9
    # the grid is LU-bound: the inversion the ledger exists to show
    assert layers["linalg.factor_s"] > layers["devices.eval_s"] + layers["mna.eval_self_s"]


def test_service_result_and_exactly_once_check():
    result, detail = measure("service_mixed", seed=3, seconds=0, trace=False, scale=1 / 12, reps=1)
    _assert_result(result, [m["name"] for m in BENCHMARK["end_to_end"]])
    traffic = make_traffic(3, blocks=1)
    assert len(traffic.ops) == 25 and len(traffic.unique) == 14
    # one rep on one farm: one HTTP op per op, then result + waveform
    # fetch + payload check per job (drain polls only count when they fail)
    assert result["attempted"] == len(traffic.ops) + 3 * len(traffic.unique)
    assert detail["best"]["virtual_speedup"] == 1.0  # every unique job ran exactly once
    assert detail["best"]["read_p50_ms"] > 0  # 7 polls + 28 fetches: 17 beyond the median
    assert detail["best"]["submit_p95_ms"] is None  # 18 writes: not one beyond it, let alone 10
    assert not SCRATCH.exists() or not any(SCRATCH.iterdir())


def test_percentiles_need_samples_beyond_them():
    def rows(n):
        return latencies([Sample(submit_s=[1e-3 * i for i in range(n)])])

    assert rows(2 * BEYOND - 1)["submit_p50_ms"] is None
    assert rows(2 * BEYOND)["submit_p50_ms"] == pytest.approx(BEYOND)
    assert rows(20 * BEYOND - 1)["submit_p95_ms"] is None
    assert rows(20 * BEYOND)["submit_p95_ms"] == pytest.approx(19 * BEYOND)


def test_farm_that_fails_its_canary_leaves_nothing_behind(monkeypatch):
    from repro.service.client import ServiceClient, ServiceError

    def refuse(self, *args, **kwargs):
        raise ServiceError(503, "canary refused")

    monkeypatch.setattr(ServiceClient, "submit_job", refuse)
    farm = Farm()
    with pytest.raises(ServiceError):
        farm.start()
    assert farm.procs == [] and not farm.root.exists()


def test_same_seed_same_inputs_other_seed_other_deck_same_circuit():
    assert make_decks("digital_seq", 5) == make_decks("digital_seq", 5)
    assert make_decks("digital_seq", 5) != make_decks("digital_seq", 6)
    assert make_traffic(5, 2) == make_traffic(5, 2)
    assert make_traffic(5, 2) != make_traffic(6, 2)
    kinds = [op.kind for op in make_traffic(6, 2).ops]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "submit": 20, "duplicate": 14, "poll": 14, "campaign": 2
    }


def test_golden_check_trips_on_a_perturbed_csv_and_on_a_count():
    golden = Golden.load()
    deck = next(d for d in make_decks("digital_seq", 11) if d.name == "nandchain6")
    run = run_deck(deck)
    ok, err = check_golden(run, "digital_seq", golden)
    assert ok and err < 1e-6

    reference = golden.waveforms["nandchain6"]
    text = to_csv_text(reference)
    rows = text.splitlines()
    cells = rows[len(rows) // 2].split(",")
    cells[1] = repr(float(cells[1]) + 0.05)  # 50 mV on one sample of one trace
    rows[len(rows) // 2] = ",".join(cells)
    import io

    bent = Golden({"nandchain6": read_csv(io.StringIO("\n".join(rows) + "\n"))}, golden.counts)
    ok, err = check_golden(run, "digital_seq", bent)
    assert not ok and err > 1e-3

    counts = json.loads(json.dumps(golden.counts))
    counts["digital_seq"]["nandchain6"]["newton_iterations"] += 1
    ok, _ = check_golden(run, "digital_seq", Golden(golden.waveforms, counts))
    assert not ok


def test_unresolved_trace_target_yields_null_and_trace_missing():
    spec = WORKLOADS["digital_seq"]
    decks = make_decks("digital_seq", 0, scale=0.25)
    untraced = [run_rep(spec, decks, None, 1)]
    broken = [t for t in TARGETS if t.span != "linalg.factor"]
    broken.append(Target("linalg.factor", "repro.linalg.solve:LinearSolver.gone_after_refactor"))
    layers, missing = traced_layers(spec, decks, untraced, targets=broken)
    assert missing == ["repro.linalg.solve:LinearSolver.gone_after_refactor"]
    assert layers["linalg.factor_s"] is None
    assert layers["linalg.backsolve_s"] > 0  # the rest of the trace is intact


def _ledger(wall, spread=0.01, failed=0):
    def entry(value):
        return {"value": value, "rounds": [value * (1 - spread), value * (1 + spread)]}

    end = {name: entry(1.0) for name, _unit, _better, _bound in LEDGER_METRICS}
    end["wall_s"] = entry(wall)
    end["fail_ratio"] = {"value": failed / 10, "attempted": 10, "failed": failed}
    return {"quick": False, "workloads": {"grid_seq": {"end_to_end": end}}}


def test_compare_rows_and_exit_codes(capsys):
    def status(base, new):
        code = ledger.compare(base, new)
        row = next(ln for ln in capsys.readouterr().out.splitlines() if " wall_s " in ln)
        return code, row.split()[2]

    assert status(_ledger(1.0), _ledger(1.05)) == (0, "ok")
    assert status(_ledger(1.0), _ledger(1.5)) == (1, "regressed")
    assert status(_ledger(1.0), _ledger(0.5)) == (0, "improved")
    # rounds that disagree by more than the bound: not "unchanged", unresolved
    assert status(_ledger(1.0, spread=0.2), _ledger(1.05, spread=0.2)) == (0, "unresolved")
    # ... unless every new round beats every base round
    assert status(_ledger(1.0, spread=0.2), _ledger(0.5, spread=0.2)) == (0, "improved")
    assert ledger.compare(_ledger(1.0), _ledger(1.0, failed=1)) == 1
