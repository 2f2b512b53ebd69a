"""The unified ``simulate()`` facade: dispatch and validation.

``repro.simulate`` fronts all five analyses behind one signature. These
tests exercise every dispatch arm on tiny circuits, the
construction-time validation of :class:`AnalysisRequest`, and the
delegation surface of :class:`AnalysisResult`.
"""

import numpy as np
import pytest

from repro import AnalysisRequest, AnalysisResult, simulate
from repro.api import ANALYSES, run_request
from repro.circuit.circuit import Circuit
from repro.circuit.sources import Pulse
from repro.errors import SimulationError


def _rc(r=1e3):
    circuit = Circuit("facade-rc")
    circuit.add_vsource(
        "V1", "in", "0", Pulse(0.0, 1.0, delay=1e-6, rise=1e-12, width=1.0)
    )
    circuit.add_resistor("R1", "in", "out", r)
    circuit.add_capacitor("C1", "out", "0", 1e-9)
    return circuit


class TestSimulateDispatch:
    def test_transient(self):
        res = simulate(_rc(), analysis="transient", tstop=8e-6)
        assert isinstance(res, AnalysisResult)
        assert res.analysis == "transient"
        assert res.waveforms.voltage("out").final_value() == pytest.approx(1.0, abs=1e-3)
        assert res.stats.accepted_points > 0
        # analysis-specific attributes pass through to the raw result
        assert len(res.times) == res.stats.accepted_points + 1

    def test_transient_is_default_analysis(self):
        res = simulate(_rc(), tstop=8e-6)
        assert res.analysis == "transient"

    def test_wavepipe(self):
        res = simulate(
            _rc(), analysis="wavepipe", tstop=8e-6, scheme="backward", threads=2
        )
        assert res.analysis == "wavepipe"
        assert res.waveforms.voltage("out").final_value() == pytest.approx(1.0, abs=1e-3)
        assert res.stats.threads == 2

    def test_dc(self, divider_circuit):
        res = simulate(
            divider_circuit, analysis="dc", source="V1", values=np.linspace(0, 10, 11)
        )
        # DC sweeps expose their curves through the shared waveforms view
        assert res.waveforms is res.curves
        assert res.curves.voltage("mid").values[-1] == pytest.approx(7.5)

    def test_ac(self):
        res = simulate(
            _rc(), analysis="ac", source="V1", freqs=np.logspace(3, 7, 30)
        )
        fc = res.corner_frequency("v(out)")
        assert fc == pytest.approx(1 / (2 * np.pi * 1e3 * 1e-9), rel=0.15)

    def test_sweep(self):
        res = simulate(
            analysis="sweep",
            parameter="R",
            values=[500.0, 1e3],
            metrics={"v_final": lambda r: r.waveforms.voltage("out").final_value()},
            tstop=20e-6,
            circuit_factory=_rc,
        )
        np.testing.assert_allclose(res.column("v_final"), 1.0, atol=1e-3)

    def test_run_request_equivalent(self):
        request = AnalysisRequest(analysis="transient", circuit=_rc(), tstop=8e-6)
        res = run_request(request)
        assert res.request is request
        assert res.stats.accepted_points > 0


class TestRequestValidation:
    def test_unknown_analysis(self):
        with pytest.raises(SimulationError, match="unknown analysis"):
            simulate(_rc(), analysis="noise", tstop=1e-6)

    def test_unknown_extra_keyword(self):
        with pytest.raises(SimulationError, match="unexpected keyword"):
            simulate(_rc(), analysis="transient", tstop=1e-6, freqs=[1.0])

    def test_missing_tstop(self):
        for analysis in ("transient", "wavepipe"):
            with pytest.raises(SimulationError, match="tstop"):
                simulate(_rc(), analysis=analysis)

    def test_missing_circuit(self):
        with pytest.raises(SimulationError, match="circuit"):
            simulate(analysis="transient", tstop=1e-6)

    def test_dc_needs_source_and_values(self):
        with pytest.raises(SimulationError, match="source"):
            simulate(_rc(), analysis="dc", values=[1.0])
        with pytest.raises(SimulationError, match="values"):
            simulate(_rc(), analysis="dc", source="V1")

    def test_ac_needs_freqs(self):
        with pytest.raises(SimulationError, match="freqs"):
            simulate(_rc(), analysis="ac", source="V1")

    def test_sweep_needs_its_keywords(self):
        with pytest.raises(SimulationError, match="circuit"):
            simulate(analysis="sweep", tstop=1e-6, parameter="R",
                     values=[1.0], metrics={"m": lambda r: 0.0})
        with pytest.raises(SimulationError, match="parameter"):
            simulate(analysis="sweep", tstop=1e-6, circuit_factory=_rc,
                     values=[1.0], metrics={"m": lambda r: 0.0})

    def test_bad_threads(self):
        with pytest.raises(SimulationError, match="threads"):
            simulate(_rc(), analysis="wavepipe", tstop=1e-6, threads=0)

    def test_analyses_tuple_is_complete(self):
        assert ANALYSES == (
            "transient", "wavepipe", "dc", "ac", "sweep", "ensemble", "wtm"
        )


class TestDeprecatedShims:
    """The facade itself never warns; the old ``repro.run_*`` shims are gone."""

    def test_simulate_emits_no_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulate(_rc(), analysis="transient", tstop=2e-6)

    def test_shim_names_are_gone(self):
        import repro

        for name in ("run_transient", "run_wavepipe", "dc_sweep", "ac_analysis", "sweep"):
            assert not hasattr(repro, name), name
            assert name not in repro.__all__


class TestAnalysisResultSurface:
    def test_getattr_delegates_and_fails_cleanly(self):
        res = simulate(_rc(), analysis="transient", tstop=2e-6)
        assert res.step_sizes is res.raw.step_sizes
        with pytest.raises(AttributeError):
            res.nonexistent_attribute
        with pytest.raises(AttributeError):
            res._private

    def test_stats_none_when_raw_has_none(self):
        res = simulate(
            _rc(), analysis="ac", source="V1", freqs=np.logspace(3, 6, 5)
        )
        assert res.stats is None
