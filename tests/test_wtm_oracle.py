"""WTM differential oracle: partitioned fixed point vs monolithic truth.

:func:`repro.partition.checks.wtm_vs_monolithic` applies the oracle's
tolerance ladder to a genuinely different numerical method, so the
acceptance bar is explicit: every *converged* WTM run on the seeded
multi-block families (and on one hand-cut bridge, the explicit-manifest
path) must classify at ``loose`` (1e-3) or tighter
against the verification-grade sequential reference, and non-converged
runs must be reported as such — never silently classified.

The trailing class covers the diagnosis side: a recorded WTM run must
explain with a ``wtm``-kind critical path (outer iterations bounded by
their costliest partition solve), not fall through to the stage scan of
the partitions' internal pipelines.
"""

import pytest

from repro.diagnose.explain import explain_recorder
from repro.instrument import Recorder
from repro.partition import manifest_from_node_sets, run_wtm, wtm_vs_monolithic
from repro.utils.options import SimOptions
from repro.verify.generators import draw_circuit
from repro.verify.oracle import TOLERANCE_LADDER
from tests.test_wtm import TSTOP, rc_bridge

#: Ladder rungs an agreeing WTM run may land on (loose or tighter).
AGREEING_TIERS = {name for name, level in TOLERANCE_LADDER if level <= 1e-3}


def draw_family(family: str, seed: int):
    gen = draw_circuit(seed, families=[family])
    assert gen.family == family
    return gen


def seeded_mesh(seed: int):
    gen = draw_family("bridged-rc-mesh", seed)
    return gen.circuit, gen.tstop, {"partitions": 2}


def hand_cut_bridge():
    """An explicit node-set cut (not the partitioner's), Gauss-Seidel."""
    circuit = rc_bridge()
    manifest = manifest_from_node_sets(
        circuit, [{"a0", "a1"}, {"b0", "b1", "b2"}]
    )
    return circuit, TSTOP, {"manifest": manifest, "mode": "seidel"}


class TestSeededFamilies:
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: seeded_mesh(11), id="11"),
            pytest.param(lambda: seeded_mesh(14), id="14"),
            pytest.param(hand_cut_bridge, id="rc_bridge"),
        ],
    )
    def test_bridged_rc_mesh_agrees(self, build):
        circuit, tstop, wtm_kwargs = build()
        agreement = wtm_vs_monolithic(circuit, tstop, **wtm_kwargs)
        assert agreement.converged
        assert agreement.tier in AGREEING_TIERS, agreement.worst
        assert agreement.ok

    def test_inverter_composite_agrees(self):
        gen = draw_family("inverter-composite", 1)
        # The MOSFET stages need verification-grade block tolerances:
        # at looser reltol the per-block step controllers' switching-edge
        # placement dominates the boundary fixed-point agreement.
        agreement = wtm_vs_monolithic(
            gen.circuit, gen.tstop, 2, options=SimOptions(reltol=1e-5)
        )
        assert agreement.converged
        assert agreement.tier in AGREEING_TIERS, agreement.worst
        assert agreement.ok

    def test_deviations_cover_every_node(self):
        gen = draw_family("bridged-rc-mesh", 11)
        agreement = wtm_vs_monolithic(gen.circuit, gen.tstop, 2)
        compared = {d.name for d in agreement.deviations}
        expected = {f"v({node})" for node in gen.circuit.nodes()}
        assert compared == expected
        assert agreement.reference_work > 0


class TestNonConvergenceReporting:
    def test_failed_run_is_never_classified(self):
        gen = draw_family("bridged-rc-mesh", 11)
        circuit = gen.circuit
        nodes = list(circuit.nodes())
        # Sever the node list down the middle regardless of coupling
        # strength: a strong cut the outer iteration cannot contract
        # across within one sweep.
        node_sets = [set(nodes[: len(nodes) // 2]), set(nodes[len(nodes) // 2 :])]
        manifest = manifest_from_node_sets(circuit, node_sets)
        agreement = wtm_vs_monolithic(
            gen.circuit, gen.tstop, manifest=manifest, max_outer=2
        )
        assert not agreement.converged
        assert agreement.tier == "not_converged"
        assert not agreement.ok
        # Deviations still present for diagnosis of the failed iterate.
        assert agreement.deviations
        assert not agreement.wtm.converged


class TestExplainCriticalPath:
    def _recorded_run(self, **kwargs):
        from repro.circuits.multiblock import bridged_rc_blocks

        rec = Recorder()
        res = run_wtm(
            bridged_rc_blocks(blocks=3, rungs=2),
            40e-9,
            3,
            instrument=rec,
            **kwargs,
        )
        assert res.converged
        return explain_recorder(rec)

    def test_wtm_run_explains_as_wtm(self):
        report = self._recorded_run(mode="jacobi")
        cp = report.critical_path
        assert cp["kind"] == "wtm"
        assert cp["stages"] > 0
        # "partitions" counts the distinct *bounding* lanes — one
        # dominant block may bound every sweep, so 1..3 here.
        assert 1 <= cp["partitions"] <= 3
        assert cp["lanes"]
        assert all(lane["lane"] in (0, 1, 2) for lane in cp["lanes"])
        # Every outer iteration is attributed to exactly one lane.
        assert sum(l["stages_bounded"] for l in cp["lanes"]) == cp["stages"]
        assert cp["critical_lane"] is not None
        assert cp["bounding_cost_total"] > 0
        assert report.spans["malformed"] == 0
        assert not report.spans["problems"]

    def test_pipelined_partitions_do_not_hijack_attribution(self):
        # Each partition solve nests stage_run spans of its own WavePipe
        # pipeline; the explain tiering must still rank the outer sweeps.
        report = self._recorded_run(mode="seidel", scheme="combined", threads=2)
        cp = report.critical_path
        assert cp["kind"] == "wtm"
        assert 1 <= cp["partitions"] <= 3
        shares = [lane["share"] for lane in cp["lanes"]]
        assert all(0.0 <= s <= 1.0 for s in shares)
        assert sum(shares) == pytest.approx(1.0, abs=1e-6)
