"""End-to-end flows: netlist -> compile -> analyses -> WavePipe."""

import numpy as np
import pytest

from repro import (
    SimOptions,
    compare_with_sequential,
    parse_netlist,
    simulate,
)

AMPLIFIER_DECK = """Common-emitter amplifier
.model qfast npn is=1e-15 bf=150 vaf=80 cje=1p cjc=0.5p tf=50p
.param vcc=9 rload={2.2k}
VCC vcc 0 {vcc}
VIN in 0 SIN(0 10m 1meg)
RS in s1 600
CIN s1 b 1u
RB1 vcc b 47k
RB2 b 0 10k
Q1 c b e qfast
RC vcc c {rload}
RE e 0 560
CE e 0 10u
.tran 10n 4u
.end
"""

SUBCKT_DECK = """Two-stage buffer via subcircuits
.model mn nmos vto=0.7 kp=200u lambda=0.05
.model mp pmos vto=0.7 kp=100u lambda=0.05
.subckt inv in out vdd
MP out in vdd vdd mp w=2u l=1u
MN out in 0 0 mn w=1u l=1u
C1 out 0 5f
.ends
VDD vdd 0 3
VIN a 0 PULSE(0 3 1n 0.1n 0.1n 4n 10n)
X1 a b vdd inv
X2 b c vdd inv
.tran 0.1n 30n
.end
"""


class TestAmplifierFlow:
    @pytest.fixture(scope="class")
    def netlist(self):
        return parse_netlist(AMPLIFIER_DECK)

    def test_parses_with_params(self, netlist):
        assert netlist.circuit["RC"].resistance == pytest.approx(2200.0)
        assert netlist.tran.tstop == pytest.approx(4e-6)

    def test_bias_point_reasonable(self, netlist):
        from repro.mna.compiler import compile_circuit
        from repro.mna.system import MnaSystem
        from repro.solver.dcop import solve_operating_point

        compiled = compile_circuit(netlist.circuit)
        op = solve_operating_point(MnaSystem(compiled))
        vc = op.x[compiled.node_voltage_index("c")]
        vb = op.x[compiled.node_voltage_index("b")]
        ve = op.x[compiled.node_voltage_index("e")]
        assert 0.55 < vb - ve < 0.75  # forward-biased junction
        assert 2.0 < vc < 8.5  # collector in the active region

    def test_amplifies(self, netlist):
        result = simulate(netlist.circuit, tstop=netlist.tran.tstop)
        vout = result.waveforms.voltage("c").slice(1e-6, 4e-6)
        gain = vout.peak_to_peak() / 20e-3
        assert gain > 10.0  # CE stage with bypassed emitter

    def test_ac_gain_consistent_with_transient(self, netlist):
        result = simulate(netlist.circuit, tstop=netlist.tran.tstop)
        tran_gain = result.waveforms.voltage("c").slice(1e-6, 4e-6).peak_to_peak() / 20e-3
        ac = simulate(netlist.circuit, analysis="ac", source="VIN", freqs=[1e6])
        ac_gain = ac.magnitude("v(c)")[0]
        assert tran_gain == pytest.approx(ac_gain, rel=0.25)

    def test_wavepipe_matches_on_amplifier(self, netlist):
        report = compare_with_sequential(
            netlist.circuit, 2e-6, scheme="combined", threads=3,
            signals=["v(c)"],
        )
        assert report.worst_deviation.max_relative < 0.05
        assert report.speedup > 0.9


class TestSubcircuitFlow:
    def test_full_flow(self):
        netlist = parse_netlist(SUBCKT_DECK)
        result = simulate(
            netlist.circuit,
            analysis="wavepipe",
            tstop=netlist.tran.tstop,
            scheme="backward",
            threads=2,
            tstep=netlist.tran.tstep,
        )
        # two inversions: output follows input levels
        vc = result.waveforms.voltage("c")
        assert vc.at(3e-9) == pytest.approx(3.0, abs=0.1)
        assert vc.at(8e-9) == pytest.approx(0.0, abs=0.1)

    def test_hierarchical_nodes_recorded(self):
        netlist = parse_netlist(SUBCKT_DECK)
        result = simulate(netlist.circuit, tstop=5e-9)
        assert "v(b)" in result.waveforms.names


class TestOptionsFlow:
    def test_netlist_options_respected(self):
        deck = """opt test
V1 a 0 PULSE(0 1 1n 0.1n 0.1n 10n)
R1 a b 1k
C1 b 0 1p
.options reltol=1e-2 method=be
.tran 0.1n 20n
.end
"""
        netlist = parse_netlist(deck)
        assert netlist.options.method == "be"
        loose = simulate(netlist.circuit, tstop=20e-9, options=netlist.options)
        tight = simulate(
            netlist.circuit, tstop=20e-9, options=netlist.options.replace(reltol=1e-5)
        )
        assert loose.stats.accepted_points < tight.stats.accepted_points

    def test_gear2_full_run(self):
        netlist = parse_netlist(SUBCKT_DECK)
        options = SimOptions(method="gear2")
        seq = simulate(netlist.circuit, tstop=20e-9, options=options)
        pipe = simulate(
            netlist.circuit, analysis="wavepipe", tstop=20e-9,
            scheme="combined", threads=3, options=options,
        )
        for name in ("v(b)", "v(c)"):
            e_seq = seq.waveforms[name].crossings(1.5)
            e_pipe = pipe.waveforms[name].crossings(1.5)
            assert e_seq.size == e_pipe.size
            if e_seq.size:
                assert np.abs(e_seq - e_pipe).max() < 0.2e-9
