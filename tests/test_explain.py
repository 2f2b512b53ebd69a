"""repro.diagnose: automated run diagnosis and the `repro explain` CLI.

Pins the acceptance properties of the diagnosis layer: the JSON report
is byte-identical across reruns of the same deterministic run, the
critical path names the bounding lane (or job), every rejected step is
classified by cause, speculation economics and the solver-phase split
are populated, and the CLI front door round-trips trace files with the
documented exit codes.
"""

import json

import pytest

from repro.circuit.circuit import Circuit
from repro.circuit.components import DiodeModel
from repro.circuit.sources import Sin
from repro.cli import main
from repro.core.wavepipe import run_wavepipe
from repro.diagnose import (
    explain_jsonl,
    explain_recorder,
    explain_trace,
    render_html,
    render_text,
)
from repro.engine.transient import run_transient
from repro.instrument import Recorder, write_jsonl


def stiff_circuit() -> Circuit:
    c = Circuit("explain-rectifier")
    c.add_vsource("V1", "in", "0", Sin(0.0, 5.0, 1e5))
    c.add_resistor("R1", "in", "a", 100.0)
    c.add_diode("D1", "a", "out", DiodeModel(is_=1e-14, n=1.5))
    c.add_capacitor("C1", "out", "0", 1e-7)
    c.add_resistor("R2", "out", "0", 1e4)
    return c


TSTOP = 2e-5


def traced_run(scheme="combined", threads=3) -> Recorder:
    rec = Recorder()
    run_wavepipe(
        stiff_circuit(), TSTOP, scheme=scheme, threads=threads, instrument=rec
    )
    return rec


@pytest.fixture(scope="module")
def pipelined_report():
    return explain_recorder(traced_run(), source="run")


class TestReportContent:
    def test_critical_path_names_bounding_lane(self, pipelined_report):
        cp = pipelined_report.critical_path
        assert cp["kind"] == "pipeline"
        assert cp["stages"] > 0
        assert cp["critical_lane"] == cp["lanes"][0]["lane"]
        assert cp["lanes"][0]["bounding_cost"] > 0
        shares = [entry["share"] for entry in cp["lanes"]]
        assert sum(shares) == pytest.approx(1.0, abs=1e-6)

    def test_all_rejections_classified(self, pipelined_report):
        rej = pipelined_report.rejections
        assert rej["total"] > 0  # the stiff circuit must reject some steps
        assert rej["classified_fraction"] == 1.0
        assert rej["classified"] == rej["total"]
        assert sum(rej["causes"].values()) == rej["total"]
        assert rej["causes"]["lte_reject"] > 0

    def test_step_timeline_tracks_events(self, pipelined_report):
        timeline = pipelined_report.rejections["step_timeline"]
        assert timeline
        assert {entry["event"] for entry in timeline} == {"accept", "reject"}
        assert all(entry["h"] > 0 for entry in timeline)

    def test_speculation_economics(self, pipelined_report):
        spec = pipelined_report.speculation
        assert spec["resolved"] > 0
        assert spec["work_risked"] > 0
        assert 0.0 <= spec["efficiency"] <= 1.0
        curve = spec["depth_curve"]
        assert curve and curve[0]["depth"] == 1
        assert all(0.0 <= entry["hit_rate"] <= 1.0 for entry in curve)

    def test_phase_split_with_class_attribution(self, pipelined_report):
        phases = pipelined_report.phases
        assert phases["total_cost"] > 0
        for name in ("device_eval", "assembly", "factor", "backsolve"):
            assert phases[name]["cost"] > 0
        by_class = phases["device_eval"]["by_class"]
        assert "diodes" in by_class and by_class["diodes"] > 0
        shares = [
            phases[n]["share"]
            for n in ("device_eval", "assembly", "factor", "backsolve")
        ]
        assert sum(shares) == pytest.approx(1.0, abs=1e-6)

    def test_sequential_run_pins_lane_zero(self):
        rec = Recorder()
        run_transient(stiff_circuit(), TSTOP, instrument=rec)
        report = explain_recorder(rec)
        assert report.critical_path["kind"] == "sequential"
        assert report.critical_path["critical_lane"] == 0
        assert report.spans["malformed"] == 0

    def test_one_wide_pipeline_is_bounded_by_its_timesteps(self):
        """threads=1: each stage holds the sequential step's one
        ``timestep`` span instead of worker-lane tasks, and that span
        bounds it — same total as the sequential trace, on lane 0."""
        seq = Recorder()
        run_transient(stiff_circuit(), TSTOP, instrument=seq)
        sequential = explain_recorder(seq).critical_path
        cp = explain_recorder(traced_run("backward", threads=1)).critical_path
        assert cp["kind"] == "pipeline"
        assert cp["critical_lane"] == 0
        assert cp["stages"] == sequential["stages"]
        assert cp["bounding_cost_total"] == sequential["bounding_cost_total"] > 0

    def test_campaign_trace_ranks_jobs(self):
        rec = Recorder()
        with rec.tree_span("campaign_run", campaign="demo"):
            rec.emit_span("job_run", ts=0.0, dur=2.0, outcome="done",
                          cost=20.0, label="slow")
            rec.emit_span("job_run", ts=0.0, dur=1.0, outcome="done",
                          cost=5.0, label="fast")
        report = explain_recorder(rec)
        cp = report.critical_path
        assert cp["kind"] == "campaign"
        assert cp["critical_job"] == "slow"
        assert [j["label"] for j in cp["slowest_jobs"]] == ["slow", "fast"]

    def test_empty_trace_degrades_gracefully(self):
        report = explain_trace([], {})
        assert report.spans["count"] == 0
        assert report.rejections["total"] == 0
        assert report.rejections["classified_fraction"] == 1.0
        assert report.speculation["efficiency"] == 1.0
        render_text(report)  # must not raise


class TestDeterminism:
    def test_json_byte_identical_across_reruns(self):
        a = explain_recorder(traced_run(), source="x").to_json()
        b = explain_recorder(traced_run(), source="x").to_json()
        assert a == b

    def test_report_carries_no_wall_clock(self, pipelined_report):
        # ts/dur never enter the report: every float is a count, a work
        # quantity, or a simulated time. Spot-check the flattened keys.
        def keys(obj, prefix=""):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    yield from keys(v, f"{prefix}.{k}")
            elif isinstance(obj, list):
                for v in obj:
                    yield from keys(v, prefix)
            else:
                yield prefix

        for key in keys(pipelined_report.to_dict()):
            assert ".ts" not in key and ".dur" not in key


class TestRenderers:
    def test_text_report_mentions_the_essentials(self, pipelined_report):
        text = render_text(pipelined_report)
        assert "critical path" in text
        assert "bounded by lane" in text
        assert "100% classified" in text
        assert "device_eval" in text

    def test_html_is_self_contained(self, pipelined_report):
        rec = traced_run(scheme="forward")
        page = render_html(rec.events, explain_recorder(rec))
        assert page.startswith("<!DOCTYPE html>")
        assert "<script src=" not in page and "href=" not in page
        assert 'class="span"' in page
        assert "Diagnosis" in page


class TestExplainCli:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_jsonl(traced_run(), path)
        return path

    def test_explain_text_and_check(self, trace_file, capsys):
        assert main(["explain", str(trace_file), "--check"]) == 0
        out = capsys.readouterr().out
        assert "bounded by lane" in out

    def test_explain_json_deterministic(self, trace_file, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["explain", str(trace_file), "--json", str(first)]) == 0
        assert main(["explain", str(trace_file), "--json", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        report = json.loads(first.read_text())
        assert report["rejections"]["classified_fraction"] == 1.0

    def test_explain_json_to_stdout(self, trace_file, capsys):
        assert main(["explain", str(trace_file), "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["critical_path"]["critical_lane"] is not None

    def test_explain_writes_html(self, trace_file, tmp_path):
        out = tmp_path / "run.html"
        assert main(["explain", str(trace_file), "--html", str(out)]) == 0
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_explain_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_explain_rejects_non_jsonl(self, tmp_path, capsys):
        bad = tmp_path / "trace.jsonl"
        bad.write_text("not json at all\n")
        assert main(["explain", str(bad)]) == 2
        assert "not a JSONL trace" in capsys.readouterr().err

    def test_check_fails_on_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        write_jsonl(Recorder(), empty)
        assert main(["explain", str(empty), "--check"]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_batch_trace_flag_feeds_explain(self, tmp_path, capsys):
        trace = tmp_path / "campaign.jsonl"
        rc = main(
            [
                "batch",
                "--circuit",
                "ring5",
                "--montecarlo",
                "2",
                "--seed",
                "3",
                "--trace",
                str(trace),
            ]
        )
        assert rc == 0
        assert trace.exists()
        capsys.readouterr()
        report = explain_jsonl(trace)
        assert report.critical_path["kind"] == "campaign"
        assert report.critical_path["critical_job"]
        assert report.spans["malformed"] == 0
