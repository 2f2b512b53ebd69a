"""Campaign generators and the checkpoint/resume contract.

The interrupted-campaign tests enforce the headline guarantee: killing a
campaign mid-flight and re-running it yields a manifest and cached result
files *byte-identical* to an uninterrupted run's.
"""

import json

import pytest

from repro.cli import main
from repro.errors import SimulationError
from repro.instrument import CAMPAIGN_RUN, Recorder
from repro.jobs import (
    CORNERS,
    CampaignStore,
    CircuitRef,
    JobSpec,
    monte_carlo,
    param_sweep,
    pvt_corners,
    run_campaign,
    single,
)

DECK = """rc lowpass
V1 in 0 SIN(0 1 1k)
R1 in out 1k
C1 out 0 1u
.tran 10u 1m
.end
"""


def rc_spec(**kw) -> JobSpec:
    return JobSpec(circuit=CircuitRef(kind="netlist", netlist=DECK), **kw)


class TestMonteCarlo:
    def test_same_seed_same_hashes(self):
        a = monte_carlo(rc_spec(), n=5, seed=3)
        b = monte_carlo(rc_spec(), n=5, seed=3)
        assert [j.content_hash() for j in a.jobs] == [
            j.content_hash() for j in b.jobs
        ]

    def test_different_seeds_differ(self):
        a = monte_carlo(rc_spec(), n=5, seed=3)
        b = monte_carlo(rc_spec(), n=5, seed=4)
        assert [j.content_hash() for j in a.jobs] != [
            j.content_hash() for j in b.jobs
        ]

    def test_jitter_perturbs_every_param(self):
        campaign = monte_carlo(rc_spec(), n=2, seed=0, jitter=0.1)
        for job in campaign.jobs:
            assert set(job.params) == {"R1", "C1"}
            assert job.params["R1"] != pytest.approx(1e3)
            assert job.params["R1"] == pytest.approx(1e3, rel=0.8)

    def test_component_restriction(self):
        campaign = monte_carlo(rc_spec(), n=2, seed=0, components=["R1"])
        assert all(set(j.params) == {"R1"} for j in campaign.jobs)
        with pytest.raises(SimulationError, match="not perturbable"):
            monte_carlo(rc_spec(), n=2, seed=0, components=["R9"])

    def test_validation(self):
        with pytest.raises(SimulationError, match="n >= 1"):
            monte_carlo(rc_spec(), n=0, seed=0)
        with pytest.raises(SimulationError, match="jitter"):
            monte_carlo(rc_spec(), n=1, seed=0, jitter=-0.1)


class TestCornersAndSweep:
    def test_stock_corners(self):
        campaign = pvt_corners(rc_spec())
        labels = [j.label.split("/")[-1] for j in campaign.jobs]
        assert labels == list(CORNERS)
        by_corner = {j.label.split("/")[-1]: j for j in campaign.jobs}
        assert by_corner["tt"].params == {}
        assert by_corner["ff"].params["R1"] == pytest.approx(0.9e3)
        assert by_corner["ss"].params["C1"] == pytest.approx(1.1e-6)

    def test_corner_subset_and_unknown(self):
        assert len(pvt_corners(rc_spec(), corners=["tt", "ss"]).jobs) == 2
        with pytest.raises(SimulationError, match="unknown corner"):
            pvt_corners(rc_spec(), corners=["xx"])
        with pytest.raises(SimulationError, match="class"):
            pvt_corners(rc_spec(), corners={"odd": {"resistors": 2.0}})

    def test_sweep(self):
        campaign = param_sweep(rc_spec(), "R1", [500.0, 1000.0, 2000.0])
        assert [j.params["R1"] for j in campaign.jobs] == [500.0, 1000.0, 2000.0]
        with pytest.raises(SimulationError, match="not a perturbable"):
            param_sweep(rc_spec(), "V1", [1.0])
        with pytest.raises(SimulationError, match="at least one"):
            param_sweep(rc_spec(), "R1", [])


class TestRunCampaign:
    def test_serial_run_and_cached_rerun(self, tmp_path):
        campaign = monte_carlo(rc_spec(), n=4, seed=7)
        rec = Recorder()
        result = run_campaign(campaign, store=tmp_path, instrument=rec)
        assert result.passed and result.counts == {"done": 4}
        assert result.stats.accepted_points > 0
        assert rec.counters["jobs.completed"] == 4
        assert any(e.name == CAMPAIGN_RUN for e in rec.events)

        rerun = run_campaign(campaign, store=tmp_path)
        assert rerun.counts == {"cached": 4}
        assert rerun.cache_hits == 4
        assert rerun.stats.tran_seconds == 0.0

    def test_ephemeral_run_without_store(self):
        result = run_campaign(single(rc_spec()))
        assert result.passed and result.manifest_path is None

    def test_manifest_tracks_statuses(self, tmp_path):
        campaign = monte_carlo(rc_spec(), n=2, seed=1)
        run_campaign(campaign, store=tmp_path)
        store = CampaignStore(tmp_path)
        manifest = store.load_manifest()
        assert manifest["name"] == campaign.name
        assert [row["status"] for row in manifest["jobs"]] == ["done", "done"]
        assert store.manifest_jobs() == campaign.jobs

    def test_interrupted_campaign_resumes_byte_identically(self, tmp_path):
        campaign = monte_carlo(rc_spec(), n=4, seed=9)

        # Reference: one uninterrupted run.
        clean = tmp_path / "clean"
        run_campaign(campaign, store=clean)

        # Victim: killed (exception unwinds the whole campaign) after
        # the second job checkpoints.
        broken = tmp_path / "broken"
        seen = []

        def killer(outcome):
            seen.append(outcome)
            if len(seen) == 2:
                raise KeyboardInterrupt("simulated kill")

        with pytest.raises(KeyboardInterrupt):
            run_campaign(campaign, store=broken, on_outcome=killer)

        partial = json.loads((broken / "manifest.json").read_text())
        statuses = [row["status"] for row in partial["jobs"]]
        assert statuses.count("done") == 2 and statuses.count("pending") == 2

        # Resume: finished jobs come back as cache hits, the rest run.
        resumed = run_campaign(campaign, store=broken)
        assert resumed.passed
        assert resumed.cache_hits == 2

        assert (broken / "manifest.json").read_bytes() == (
            clean / "manifest.json"
        ).read_bytes()
        clean_results = sorted(p.name for p in (clean / "results").iterdir())
        broken_results = sorted(p.name for p in (broken / "results").iterdir())
        assert broken_results == clean_results
        for name in clean_results:
            assert (broken / "results" / name).read_bytes() == (
                clean / "results" / name
            ).read_bytes()

    def test_failed_job_fails_the_campaign(self, tmp_path, monkeypatch):
        import repro.jobs.workers as workers_module

        def hook(spec):
            if spec.label.endswith("mc001"):
                raise RuntimeError("injected")

        monkeypatch.setattr(workers_module, "FAULT_HOOK", hook)
        campaign = monte_carlo(rc_spec(), n=3, seed=2)
        result = run_campaign(campaign, store=tmp_path, retries=0)
        assert not result.passed
        assert result.counts == {"done": 2, "failed": 1}
        assert "injected" in result.failures[0].error
        manifest = CampaignStore(tmp_path).load_manifest()
        assert sorted(row["status"] for row in manifest["jobs"]) == [
            "done",
            "done",
            "failed",
        ]


class TestBatchCli:
    def test_montecarlo_run_and_cached_rerun(self, tmp_path, capsys):
        deck = tmp_path / "rc.cir"
        deck.write_text(DECK, encoding="utf-8")
        args = [
            "batch",
            "--deck",
            str(deck),
            "--montecarlo",
            "3",
            "--seed",
            "5",
            "--store",
            str(tmp_path / "store"),
            "--json",
            str(tmp_path / "report.json"),
        ]
        assert main(args) == 0
        first = json.loads((tmp_path / "report.json").read_text())
        assert first["passed"] and first["counts"] == {"done": 3}

        assert main(args) == 0
        second = json.loads((tmp_path / "report.json").read_text())
        assert second["counts"] == {"cached": 3}

    def test_requires_a_circuit_source(self, capsys):
        assert main(["batch", "--montecarlo", "2"]) == 2
        assert "provide --circuit" in capsys.readouterr().err

    def test_unknown_circuit_exits_2(self, capsys):
        assert main(["batch", "--circuit", "nosuch", "--corners"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_failed_jobs_exit_nonzero(self, tmp_path, capsys, monkeypatch):
        import repro.jobs.workers as workers_module

        monkeypatch.setattr(
            workers_module,
            "FAULT_HOOK",
            lambda spec: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        deck = tmp_path / "rc.cir"
        deck.write_text(DECK, encoding="utf-8")
        assert main(["batch", "--deck", str(deck), "--retries", "0"]) == 1

    def test_list_circuits(self, capsys):
        assert main(["batch", "--list-circuits"]) == 0
        assert "rectifier" in capsys.readouterr().out


class TestPersistedCounts:
    """The counts a job result persists: a cache and service format."""

    #: Key set and order of ``JobResult.to_dict()["stats"]``.
    PINNED = [
        "accepted_points",
        "rejected_points",
        "newton_failures",
        "newton_iterations",
        "work_units",
        "lu_factors",
        "lu_solves",
        "lu_reuse_hits",
        "bypass_fallbacks",
    ]

    def campaign_runs(self):
        from repro.jobs.ensemble import EnsembleBackend

        campaign = monte_carlo(rc_spec(), n=3, seed=2)
        rec = Recorder(capture_events=False)
        lockstep = run_campaign(
            campaign, backend=EnsembleBackend(max_group=4), instrument=rec
        )
        assert rec.counter("ensemble.batches") == 1  # the jobs were batched
        return {"sequential": run_campaign(campaign), "ensemble": lockstep}

    def test_stats_key_order_pinned(self):
        for kind, result in self.campaign_runs().items():
            assert result.passed, kind
            for outcome in result.outcomes:
                payload = outcome.result.to_dict()["stats"]
                assert list(payload) == self.PINNED, kind
                assert all(type(v) is int for k, v in payload.items() if k != "work_units")
                assert type(payload["work_units"]) is float

    def test_campaign_stats_sum_job_counts(self):
        for kind, result in self.campaign_runs().items():
            payloads = [o.result.to_dict()["stats"] for o in result.outcomes]
            for name in self.PINNED:
                assert getattr(result.stats, name) == sum(p[name] for p in payloads), (
                    kind,
                    name,
                )
            assert result.stats.tran_seconds > 0
            assert result.to_dict()["wall_seconds"] == result.stats.tran_seconds
