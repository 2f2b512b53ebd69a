"""SPICE netlist parser."""

import pytest

from repro.circuit.components import (
    Bjt,
    Capacitor,
    Cccs,
    Ccvs,
    Diode,
    Inductor,
    Mosfet,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.circuit.sources import Dc, Exp, Pulse, Pwl, Sin
from repro.errors import NetlistError
from repro.netlist.parser import DcCommand, OpCommand, TranCommand, parse_netlist


def parse(body: str):
    return parse_netlist("test deck\n" + body + "\n.end\n")


class TestStructure:
    def test_title_is_first_line(self):
        nl = parse_netlist("My Amplifier\nR1 a 0 1k\n")
        assert nl.title == "My Amplifier"

    def test_dot_card_first_line_rejected(self):
        with pytest.raises(NetlistError, match="title"):
            parse_netlist(".tran 1n 1u\nR1 a 0 1k\n")

    def test_empty_deck_rejected(self):
        with pytest.raises(NetlistError, match="empty"):
            parse_netlist("\n\n")

    def test_comments_ignored(self):
        nl = parse("* a comment\nR1 a 0 1k $ inline\nR2 a 0 2k ; also inline")
        assert len(nl.circuit) == 2

    def test_continuation_lines(self):
        nl = parse("V1 in 0 PULSE(0 1\n+ 1n 1n 1n\n+ 5n 20n)")
        wf = nl.circuit["V1"].waveform
        assert isinstance(wf, Pulse)
        assert wf.period == pytest.approx(20e-9)

    def test_continuation_without_previous_rejected(self):
        with pytest.raises(NetlistError, match="continuation"):
            parse_netlist("+ R1 a 0 1k\n")

    def test_continuation_can_extend_title(self):
        nl = parse_netlist("my\n+ title\nR1 a 0 1k\n")
        assert nl.title == "my title"

    def test_stops_at_end_card(self):
        nl = parse_netlist("t\nR1 a 0 1k\n.end\nR2 b 0 2k\n")
        assert "R2" not in nl.circuit

    def test_error_carries_line_number(self):
        with pytest.raises(NetlistError, match="line 3"):
            parse_netlist("t\nR1 a 0 1k\nZ9 a 0 1k\n")


class TestPassiveElements:
    def test_resistor(self):
        nl = parse("R1 in out 4.7k")
        r = nl.circuit["R1"]
        assert isinstance(r, Resistor)
        assert r.resistance == pytest.approx(4700.0)

    def test_capacitor_with_ic(self):
        nl = parse("V1 a 0 1\nR0 a c 1\nC1 c 0 10p ic=1.5")
        c = nl.circuit["C1"]
        assert isinstance(c, Capacitor)
        assert c.ic == 1.5

    def test_inductor(self):
        nl = parse("L1 a b 10n")
        assert isinstance(nl.circuit["L1"], Inductor)

    def test_wrong_arity_rejected(self):
        with pytest.raises(NetlistError, match="expected"):
            parse("R1 a 0")

    def test_resistor_ic_rejected(self):
        with pytest.raises(NetlistError, match="no ic"):
            parse("R1 a 0 1k ic=1")


class TestSources:
    def test_bare_value_is_dc(self):
        nl = parse("V1 a 0 3.3")
        assert isinstance(nl.circuit["V1"].waveform, Dc)
        assert nl.circuit["V1"].waveform.level == pytest.approx(3.3)

    def test_dc_keyword(self):
        nl = parse("I1 a 0 DC 1m")
        assert nl.circuit["I1"].waveform.level == pytest.approx(1e-3)

    def test_default_zero(self):
        nl = parse("V1 a 0")
        assert nl.circuit["V1"].waveform.level == 0.0

    def test_pulse(self):
        nl = parse("V1 a 0 PULSE(0 5 1n 2n 3n 10n 50n)")
        wf = nl.circuit["V1"].waveform
        assert isinstance(wf, Pulse)
        assert (wf.v1, wf.v2) == (0.0, 5.0)
        assert wf.rise == pytest.approx(2e-9)
        assert wf.fall == pytest.approx(3e-9)

    def test_sin(self):
        nl = parse("V1 a 0 SIN(1 2 1meg 1u 1k)")
        wf = nl.circuit["V1"].waveform
        assert isinstance(wf, Sin)
        assert wf.freq == pytest.approx(1e6)
        assert wf.theta == pytest.approx(1e3)

    def test_pwl(self):
        nl = parse("V1 a 0 PWL(0 0 1n 1 2n 0)")
        wf = nl.circuit["V1"].waveform
        assert isinstance(wf, Pwl)
        assert len(wf.points) == 3

    def test_pwl_odd_args_rejected(self):
        with pytest.raises(NetlistError, match="pairs"):
            parse("V1 a 0 PWL(0 0 1n)")

    def test_exp(self):
        nl = parse("V1 a 0 EXP(0 1 1n 2n 10n 3n)")
        wf = nl.circuit["V1"].waveform
        assert isinstance(wf, Exp)
        assert wf.tau1 == pytest.approx(2e-9)

    def test_missing_paren_rejected(self):
        with pytest.raises(NetlistError):
            parse("V1 a 0 PULSE 0 1")


class TestControlledSources:
    def test_vcvs(self):
        nl = parse("E1 p 0 cp cm 100")
        e = nl.circuit["E1"]
        assert isinstance(e, Vcvs)
        assert e.gain == 100.0

    def test_vccs(self):
        nl = parse("G1 p 0 cp cm 1m")
        assert isinstance(nl.circuit["G1"], Vccs)

    def test_cccs_and_ccvs(self):
        nl = parse("V1 a 0 1\nF1 p 0 V1 2\nH1 q 0 V1 50")
        assert isinstance(nl.circuit["F1"], Cccs)
        assert isinstance(nl.circuit["H1"], Ccvs)
        assert nl.circuit["H1"].ctrl_source == "V1"


class TestDevicesAndModels:
    def test_diode_with_model(self):
        nl = parse(".model dfast d is=1e-12 n=1.1\nD1 a 0 dfast 2.0")
        d = nl.circuit["D1"]
        assert isinstance(d, Diode)
        assert d.model.is_ == pytest.approx(1e-12)
        assert d.area == 2.0

    def test_mosfet_with_geometry(self):
        nl = parse(".model mn nmos vto=0.5 kp=100u\nM1 d g s 0 mn w=2u l=0.5u")
        m = nl.circuit["M1"]
        assert isinstance(m, Mosfet)
        assert m.model.polarity == "nmos"
        assert m.w == pytest.approx(2e-6)
        assert m.l == pytest.approx(0.5e-6)

    def test_pmos_polarity(self):
        nl = parse(".model mp pmos vto=0.6\nM1 d g s b mp")
        assert nl.circuit["M1"].model.polarity == "pmos"

    def test_bjt(self):
        nl = parse(".model qn npn bf=200\nQ1 c b e qn")
        q = nl.circuit["Q1"]
        assert isinstance(q, Bjt)
        assert q.model.bf == 200.0

    def test_model_parens_tolerated(self):
        nl = parse(".model dd d (is=1e-13)\nD1 a 0 dd")
        assert nl.circuit["D1"].model.is_ == pytest.approx(1e-13)

    def test_unknown_model_rejected(self):
        with pytest.raises(NetlistError, match="unknown model"):
            parse("D1 a 0 nosuchmodel")

    def test_wrong_model_type_rejected(self):
        with pytest.raises(NetlistError, match="expected"):
            parse(".model mn nmos\nD1 a 0 mn")

    def test_unknown_model_param_rejected(self):
        with pytest.raises(NetlistError, match="unknown parameter"):
            parse(".model dd d zeta=1")

    def test_model_lambda_alias(self):
        nl = parse(".model mn nmos lambda=0.1\nM1 d g s 0 mn")
        assert nl.circuit["M1"].model.lambda_ == pytest.approx(0.1)


class TestParamsAndExpressions:
    def test_param_used_in_value(self):
        nl = parse(".param rload=2k\nR1 a 0 {rload}")
        assert nl.circuit["R1"].resistance == pytest.approx(2000.0)

    def test_param_chain(self):
        nl = parse(".param vdd=3 half={vdd/2}\nV1 a 0 {half}")
        assert nl.circuit["V1"].waveform.level == pytest.approx(1.5)

    def test_expression_in_waveform(self):
        nl = parse(".param amp=2\nV1 a 0 SIN(0 {amp*2} 1meg)")
        assert nl.circuit["V1"].waveform.amplitude == pytest.approx(4.0)

    def test_unknown_param_rejected(self):
        with pytest.raises(NetlistError, match="unknown parameter"):
            parse("R1 a 0 {nope}")


class TestAnalysesAndOptions:
    def test_tran(self):
        nl = parse("R1 a 0 1k\n.tran 1n 100n")
        assert nl.tran.tstep == pytest.approx(1e-9)
        assert nl.tran.tstop == pytest.approx(100e-9)

    def test_tran_validation(self):
        with pytest.raises(NetlistError, match="positive"):
            parse("R1 a 0 1\n.tran 0 10n")

    def test_dc_command(self):
        nl = parse("V1 a 0 1\n.dc V1 0 5 0.1")
        cmd = nl.analyses[0]
        assert isinstance(cmd, DcCommand)
        assert cmd.source == "V1"
        assert cmd.step == pytest.approx(0.1)

    def test_op_command(self):
        nl = parse("R1 a 0 1\n.op")
        assert any(isinstance(a, OpCommand) for a in nl.analyses)

    def test_options_flow_into_simoptions(self):
        nl = parse("R1 a 0 1\n.options reltol=1e-5 method=gear2")
        assert nl.options.reltol == pytest.approx(1e-5)
        assert nl.options.method == "gear2"

    def test_unknown_option_rejected(self):
        # the last three were SimOptions fields once; none is a deck knob
        for name in (
            "frobnicate", "step_grow_cap", "speculative_iter_cap", "reject_ewma_threshold"
        ):
            with pytest.raises(NetlistError, match="unsupported option"):
                parse(f"R1 a 0 1\n.options {name}=1")

    def test_unknown_card_rejected(self):
        with pytest.raises(NetlistError, match="unknown card"):
            parse(".fourier 1k v(out)")


class TestSubcircuits:
    DECK = """\
.subckt inv in out vdd
M1 out in vdd vdd mp
M2 out in 0 0 mn
.ends
.model mn nmos vto=0.7
.model mp pmos vto=0.7
VDD vdd 0 3
V1 a 0 PULSE(0 3 1n 0.1n 0.1n 5n 10n)
X1 a b vdd inv
X2 b c vdd inv
"""

    def test_instantiation(self):
        nl = parse(self.DECK)
        assert "X1.M1" in nl.circuit
        assert "X2.M2" in nl.circuit
        assert nl.circuit["X1.M1"].nodes == ("b", "a", "vdd", "vdd")

    def test_port_count_mismatch_rejected(self):
        with pytest.raises(NetlistError, match="port"):
            parse(self.DECK + "X3 a b inv")

    def test_unknown_subckt_rejected(self):
        with pytest.raises(NetlistError, match="unknown subcircuit"):
            parse("X1 a b nosub")

    def test_missing_ends_rejected(self):
        with pytest.raises(NetlistError, match="missing .ends"):
            parse(".subckt foo a\nR1 a 0 1k")

    def test_nested_subckt_rejected(self):
        with pytest.raises(NetlistError, match="nested"):
            parse(".subckt a x\n.subckt b y\n.ends\n.ends")

    def test_stray_ends_rejected(self):
        with pytest.raises(NetlistError, match="without matching"):
            parse(".ends")

    def test_models_shared_with_subcircuits(self):
        nl = parse(self.DECK)
        assert nl.circuit["X1.M1"].model.polarity == "pmos"
