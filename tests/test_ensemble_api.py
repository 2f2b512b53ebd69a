"""Ensemble facade: request validation, JSON round-trips, promotion.

Mirrors ``test_api_serialization.py`` for the ensemble request type:
``EnsembleRequest.from_dict(to_dict(x), circuit=c) == x`` for any valid
request (both the explicit-``variants`` and the ``ensemble=K`` jitter
spellings), validation reruns on rebuild, and the ``simulate()`` facade
promotes ``variants=``/``ensemble=`` keywords onto the ensemble path.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AnalysisResult, EnsembleRequest, EnsembleResult, simulate
from repro.circuit.circuit import Circuit
from repro.circuit.sources import Pulse
from repro.errors import SimulationError
from repro.jobs.spec import jitterable_params
from repro.mna.compiler import compile_circuit
from repro.utils.options import SimOptions

from tests.test_api_serialization import options_kwargs

positive = st.floats(
    min_value=1e-12, max_value=1e6, allow_nan=False, allow_infinity=False
)

#: Per-variant override dicts over this module's rc_circuit components.
variants_lists = st.lists(
    st.dictionaries(st.sampled_from(["R1", "C1"]), positive, max_size=2),
    min_size=1,
    max_size=5,
)


def rc_circuit() -> Circuit:
    c = Circuit("rc")
    c.add_vsource("V1", "in", "0", Pulse(0.0, 1.0, delay=1e-8, rise=1e-9, width=1e-6))
    c.add_resistor("R1", "in", "out", 1e3)
    c.add_capacitor("C1", "out", "0", 1e-9)
    return c


class TestEnsembleRequestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(kwargs=options_kwargs, variants=variants_lists)
    def test_explicit_variants_roundtrip_is_exact(self, kwargs, variants):
        circuit = rc_circuit()
        request = EnsembleRequest(
            circuit=circuit,
            tstop=1e-6,
            options=SimOptions(**kwargs),
            variants=variants,
        )
        dumped = json.loads(json.dumps(request.to_dict()))
        assert EnsembleRequest.from_dict(dumped, circuit=circuit) == request

    @settings(max_examples=50, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=64),
        jitter=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_jitter_spec_roundtrip_is_exact(self, k, jitter, seed):
        circuit = rc_circuit()
        request = EnsembleRequest(
            circuit=circuit, tstop=2e-6, ensemble=k, jitter=jitter, seed=seed
        )
        dumped = json.loads(json.dumps(request.to_dict()))
        rebuilt = EnsembleRequest.from_dict(dumped, circuit=circuit)
        assert rebuilt == request
        assert rebuilt.resolve_variants() == request.resolve_variants()

    def test_extras_roundtrip(self):
        circuit = rc_circuit()
        request = EnsembleRequest(
            circuit=circuit,
            tstop=1e-6,
            ensemble=2,
            extras={"uic": True, "node_ics": {"out": 0.5}},
        )
        rebuilt = EnsembleRequest.from_dict(request.to_dict(), circuit=circuit)
        assert rebuilt.extras == {"uic": True, "node_ics": {"out": 0.5}}

    def test_validation_reruns_on_rebuild(self):
        dump = EnsembleRequest(
            circuit=rc_circuit(), tstop=1e-6, ensemble=4
        ).to_dict()
        with pytest.raises(SimulationError, match="requires a circuit"):
            EnsembleRequest.from_dict(dump)  # circuit not reattached


class TestEnsembleRequestValidation:
    def test_circuit_required(self):
        with pytest.raises(SimulationError, match="requires a circuit"):
            EnsembleRequest(tstop=1e-6, ensemble=2)

    def test_compiled_circuit_rejected(self):
        compiled = compile_circuit(rc_circuit())
        with pytest.raises(SimulationError, match="raw Circuit"):
            EnsembleRequest(circuit=compiled, tstop=1e-6, ensemble=2)

    def test_tstop_required(self):
        with pytest.raises(SimulationError, match="tstop"):
            EnsembleRequest(circuit=rc_circuit(), ensemble=2)

    def test_exactly_one_spelling(self):
        with pytest.raises(SimulationError, match="exactly one"):
            EnsembleRequest(circuit=rc_circuit(), tstop=1e-6)
        with pytest.raises(SimulationError, match="exactly one"):
            EnsembleRequest(
                circuit=rc_circuit(), tstop=1e-6, ensemble=2, variants=[{}]
            )

    def test_variants_must_be_nonempty_dicts(self):
        with pytest.raises(SimulationError, match="at least one"):
            EnsembleRequest(circuit=rc_circuit(), tstop=1e-6, variants=[])
        with pytest.raises(SimulationError, match="must be a dict"):
            EnsembleRequest(
                circuit=rc_circuit(), tstop=1e-6, variants=[["R1", 1e3]]
            )

    def test_ensemble_count_and_jitter_bounds(self):
        with pytest.raises(SimulationError, match=">= 1"):
            EnsembleRequest(circuit=rc_circuit(), tstop=1e-6, ensemble=0)
        with pytest.raises(SimulationError, match="jitter"):
            EnsembleRequest(
                circuit=rc_circuit(), tstop=1e-6, ensemble=2, jitter=-0.1
            )

    def test_unknown_extras_rejected(self):
        with pytest.raises(SimulationError, match="unexpected keyword"):
            EnsembleRequest(
                circuit=rc_circuit(), tstop=1e-6, ensemble=2, extras={"bogus": 1}
            )


class TestResolveVariants:
    def test_matches_monte_carlo_draw_order(self):
        circuit = rc_circuit()
        request = EnsembleRequest(
            circuit=circuit, tstop=1e-6, ensemble=3, jitter=0.1, seed=99
        )
        nominal = jitterable_params(circuit)
        rng = np.random.default_rng(99)
        names = sorted(nominal)
        expected = []
        for _ in range(3):
            factors = rng.lognormal(mean=0.0, sigma=0.1, size=len(names))
            expected.append(
                {n: float(nominal[n] * f) for n, f in zip(names, factors)}
            )
        assert request.resolve_variants() == expected

    def test_explicit_variants_copied(self):
        overrides = [{"R1": 2e3}]
        request = EnsembleRequest(
            circuit=rc_circuit(), tstop=1e-6, variants=overrides
        )
        resolved = request.resolve_variants()
        assert resolved == [{"R1": 2e3}]
        resolved[0]["R1"] = 0.0
        assert request.resolve_variants() == [{"R1": 2e3}]

    def test_jitter_needs_perturbable_params(self):
        c = Circuit("bare")
        c.add_vsource("V1", "a", "0", Pulse(0.0, 1.0, delay=1e-8, rise=1e-9, width=1e-6))
        request = EnsembleRequest(circuit=c, tstop=1e-6, ensemble=2)
        with pytest.raises(SimulationError, match="no perturbable"):
            request.resolve_variants()


class TestSimulateFacade:
    def test_ensemble_keyword_promotes(self):
        result = simulate(rc_circuit(), tstop=1e-6, ensemble=3, jitter=0.02, seed=5)
        assert isinstance(result, EnsembleResult)
        assert result.sims == 3
        assert len(result) == 3
        assert isinstance(result[0], AnalysisResult)
        assert result.analysis == "ensemble"
        assert len(result.params) == 3

    def test_variants_keyword_promotes(self):
        result = simulate(
            rc_circuit(),
            analysis="transient",
            tstop=1e-6,
            variants=[{"R1": 1e3}, {"R1": 2e3}],
        )
        assert isinstance(result, EnsembleResult)
        assert result.params == [{"R1": 1e3}, {"R1": 2e3}]

    def test_identity_variant_matches_sequential(self):
        """A single no-override variant is the legacy path, bit for bit."""
        circuit = rc_circuit()
        seq = simulate(circuit, analysis="transient", tstop=1e-6)
        ens = simulate(circuit, tstop=1e-6, variants=[{}])
        assert np.array_equal(ens.times, seq.times)
        for name in seq.waveforms.names:
            assert np.array_equal(
                ens[0].waveforms[name].values, seq.waveforms[name].values
            )

    def test_ensemble_analysis_validates_spelling(self):
        with pytest.raises(SimulationError, match="exactly one"):
            simulate(rc_circuit(), analysis="ensemble", tstop=1e-6)
