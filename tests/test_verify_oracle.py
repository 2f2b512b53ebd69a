"""The differential oracle: lattice shape, verdicts, reproducibility, CLI.

Fast-path unit tests plus a handful of real (but small) oracle runs.
The expensive full-campaign acceptance check lives in CI's verify-fuzz
job (``python -m repro verify --trials 10 --seed 0``); here we pin the
machinery: lattice construction, tier classification, report structure,
byte-identical same-seed JSON, recorder counters and CLI exit codes.
"""

import json

import pytest

from repro.cli import main
from repro.errors import SimulationError
from repro.instrument import Recorder
from repro.verify.generators import FAMILIES
from repro.verify.oracle import (
    DEFAULT_TOLERANCE,
    TOLERANCE_LADDER,
    ConfigResult,
    ConfigSpec,
    EquivalenceReport,
    classify_tier,
    configuration_lattice,
    run_verification,
    verify_circuit,
)

#: Single-scheme / single-family settings keep real oracle runs in this
#: module around a second each instead of a full 20-config lattice.
FAST = dict(schemes=["combined"], chaos=False)


class TestToleranceLadder:
    def test_ladder_is_sorted_tightest_first(self):
        levels = [level for _, level in TOLERANCE_LADDER]
        assert levels == sorted(levels)

    def test_default_is_the_lte_rung(self):
        assert DEFAULT_TOLERANCE == dict(TOLERANCE_LADDER)["lte"]

    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "exact"),
            (1e-13, "machine"),
            (1e-12, "machine"),
            (1e-9, "tight"),
            (1e-4, "loose"),
            (1e-2, "lte"),
            (0.5, "beyond"),
        ],
    )
    def test_classify_tier(self, value, expected):
        assert classify_tier(value) == expected


class TestConfigurationLattice:
    def test_full_lattice_shape(self):
        configs = configuration_lattice()
        # 2 sequential + 3 schemes x 2 executors x 2 reuse + 3 one-wide + 3 chaos
        assert len(configs) == 2 + 12 + 3 + 3
        assert configs[0] == ConfigSpec("sequential", reuse=False)
        labels = [c.label for c in configs]
        assert len(set(labels)) == len(labels)  # all distinct

    def test_no_chaos_drops_only_chaos_configs(self):
        with_chaos = configuration_lattice(chaos=True)
        without = configuration_lattice(chaos=False)
        assert without == [c for c in with_chaos if c.chaos_seed is None]

    def test_scheme_subset(self):
        configs = configuration_lattice(chaos=False, schemes=["combined"])
        assert len(configs) == 2 + 4 + 1
        assert {c.analysis for c in configs} == {"sequential", "combined"}
        assert [c.label for c in configs if c.one_wide] == [
            "combined/serialx1[reuse=off]"
        ]

    def test_unknown_scheme_raises(self):
        with pytest.raises(SimulationError, match="unknown WavePipe scheme"):
            configuration_lattice(schemes=["diagonal"])

    def test_labels_are_replayable_descriptions(self):
        assert ConfigSpec("sequential", reuse=True).label == "sequential[reuse=on]"
        assert (
            ConfigSpec("combined", "thread", True).label
            == "combined/thread[reuse=on]"
        )
        assert (
            ConfigSpec("forward", "serial", False, chaos_seed=2).label
            == "forward/serial+chaos2[reuse=off]"
        )


class TestVerifyCircuit:
    def test_rc_lattice_passes(self, rc_circuit):
        report = verify_circuit(rc_circuit, tstop=8e-6, schemes=["combined"])
        assert report.passed, report.summary()
        assert report.reference == "sequential[reuse=off]"
        assert report.reference_points > 0
        # sequential reuse=on + 4 combined + 1 one-wide + 1 chaos candidate
        assert len(report.configs) == 7
        # the one-wide point shares the sequential stage: exact, not "close"
        [one_wide] = [r for r in report.configs if "x1" in r.config]
        assert one_wide.tier == "exact" and one_wide.worst_relative == 0.0
        assert one_wide.accepted_points == report.reference_points
        for result in report.configs:
            assert result.tier != "beyond"
            assert result.accepted_points > 0
            assert result.deviations  # per-signal detail present

    def test_requires_tstop(self, rc_circuit):
        with pytest.raises(SimulationError, match="tstop"):
            verify_circuit(rc_circuit)

    def test_recorder_counters(self, rc_circuit):
        rec = Recorder(capture_events=True)
        verify_circuit(rc_circuit, tstop=4e-6, instrument=rec, **FAST)
        assert rec.counter("verify.circuits") == 1
        assert rec.counter("verify.configs_run") == 7
        assert rec.counter("verify.circuits_passed") == 1
        [event] = [e for e in rec.events if e.name == "verify_trial"]
        assert event.attrs["passed"] is True

    def test_chaos_books_chaos_counters(self, rc_circuit):
        rec = Recorder(capture_events=False)
        verify_circuit(
            rc_circuit, tstop=4e-6, schemes=["combined"], chaos=True,
            instrument=rec,
        )
        assert rec.counter("chaos.stages") > 0
        assert rec.counter("chaos.tasks") > 0

    def test_report_json_is_deterministic(self, rc_circuit):
        a = verify_circuit(rc_circuit, tstop=8e-6, **FAST).to_json()
        b = verify_circuit(rc_circuit, tstop=8e-6, **FAST).to_json()
        assert a == b
        parsed = json.loads(a)
        assert parsed["circuit"] == "rc-fixture"
        assert parsed["passed"] is True


class TestReportStructure:
    def _result(self, rel, passed):
        return ConfigResult(
            config="combined/serial[reuse=off]",
            accepted_points=10,
            deviations=[],
            worst_signal="v(out)",
            worst_relative=rel,
            worst_abs=rel,
            tier=classify_tier(rel),
            passed=passed,
        )

    def test_failures_and_worst(self):
        report = EquivalenceReport(
            circuit="c", family=None, seed=None, tstop=1.0, threads=2,
            tolerance=DEFAULT_TOLERANCE, reference="sequential[reuse=off]",
            reference_points=10,
            configs=[self._result(1e-8, True), self._result(0.3, False)],
        )
        assert not report.passed
        assert len(report.failures) == 1
        assert report.worst.worst_relative == 0.3
        assert "FAIL(1 configs)" in report.summary()

    def test_empty_report_passes_vacuously(self):
        report = EquivalenceReport(
            circuit="c", family=None, seed=None, tstop=1.0, threads=2,
            tolerance=DEFAULT_TOLERANCE, reference="sequential[reuse=off]",
            reference_points=10,
        )
        assert report.passed
        assert report.worst is None
        assert "no configs" in report.summary()


class TestRunVerification:
    def test_campaign_is_byte_identical_across_reruns(self):
        kwargs = dict(trials=2, seed=7, families=["rc-mesh"], **FAST)
        first = run_verification(**kwargs)
        second = run_verification(**kwargs)
        assert first.passed, first.summary()
        assert first.to_json() == second.to_json()

    def test_different_seed_different_campaign(self):
        a = run_verification(trials=1, seed=0, families=["rc-mesh"], **FAST)
        b = run_verification(trials=1, seed=1, families=["rc-mesh"], **FAST)
        assert a.reports[0].circuit != b.reports[0].circuit

    def test_trials_floor(self):
        with pytest.raises(SimulationError, match="trials"):
            run_verification(trials=0)

    def test_on_report_callback_and_counters(self):
        rec = Recorder(capture_events=False)
        seen = []
        report = run_verification(
            trials=2, seed=3, families=["diode-clipper"], instrument=rec,
            on_report=seen.append, **FAST,
        )
        assert len(seen) == 2
        assert seen == report.reports
        assert rec.counter("verify.trials") == 2
        assert rec.counter("verify.circuits") == 2


class TestVerifyCli:
    def test_verify_subcommand_passes(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main([
            "verify", "--trials", "1", "--seed", "0",
            "--families", "rc-mesh", "--no-chaos",
            "--json", str(out_file), "--metrics",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "verify: PASS" in captured
        assert "verify.trials = 1" in captured
        payload = json.loads(out_file.read_text())
        assert payload["passed"] is True
        assert payload["families"] == ["rc-mesh"]

    def test_unknown_family_exits_2(self, capsys):
        assert main(["verify", "--trials", "1", "--families", "warp-core"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_list_families(self, capsys):
        assert main(["verify", "--list-families"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == sorted(FAMILIES)


class TestTrialErrorCapture:
    """A trial that blows up mid-campaign must fail, not abort, the run."""

    def _raise_on_second(self, monkeypatch):
        import repro.verify.oracle as oracle_module

        real = oracle_module.verify_circuit
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise SimulationError("Newton blew up")
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle_module, "verify_circuit", flaky)

    def test_raising_trial_recorded_not_fatal(self, monkeypatch):
        self._raise_on_second(monkeypatch)
        rec = Recorder(capture_events=False)
        report = run_verification(
            trials=3, seed=3, families=["diode-clipper"], instrument=rec, **FAST
        )
        assert len(report.reports) == 3  # campaign ran to completion
        assert not report.passed
        errored = report.reports[1]
        assert errored.error == "SimulationError: Newton blew up"
        assert not errored.passed
        assert "ERROR" in errored.summary()
        assert report.failures == [errored]
        assert rec.counter("verify.trial_errors") == 1

    def test_error_lands_in_json(self, monkeypatch):
        self._raise_on_second(monkeypatch)
        report = run_verification(
            trials=2, seed=3, families=["diode-clipper"], **FAST
        )
        payload = json.loads(report.to_json())
        assert payload["passed"] is False
        assert payload["reports"][1]["error"].startswith("SimulationError")
        assert payload["reports"][0]["error"] is None

    def test_cli_exits_nonzero_on_raising_trial(self, monkeypatch, capsys):
        import repro.verify.oracle as oracle_module

        def boom(*args, **kwargs):
            raise SimulationError("synthetic engine failure")

        monkeypatch.setattr(oracle_module, "verify_circuit", boom)
        code = main(
            ["verify", "--trials", "1", "--families", "rc-mesh", "--no-chaos"]
        )
        assert code == 1
        assert "ERROR" in capsys.readouterr().out

    def test_cli_exits_nonzero_on_classification_failure(self, capsys):
        # An absurdly tight tolerance turns legal interpolation noise
        # into a classification failure on every config.
        code = main([
            "verify", "--trials", "1", "--seed", "0", "--families", "rc-mesh",
            "--no-chaos", "--tol", "1e-30",
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
