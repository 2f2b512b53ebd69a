"""Property tests for the partition subsystem (hypothesis).

Two contracts worth pinning beyond examples: the partitioner is a pure
function of the circuit (byte-identical manifest JSON for structurally
identical circuits, across fresh builds and arbitrary parameter draws),
and the injected boundary source replays a partition's published samples
exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.multiblock import bridged_rc_blocks, mixed_rate_blocks
from repro.partition import BoundaryWaveform, partition_circuit
from repro.partition.boundary import BoundarySource


def _bridged_params():
    return st.fixed_dictionaries(
        {
            "blocks": st.integers(2, 4),
            "rungs": st.integers(1, 4),
            "section_r": st.floats(100.0, 1e4),
            "section_c": st.floats(0.1e-12, 5e-12),
            "bridge_r": st.floats(1e5, 1e7),
            "bridge_c": st.floats(0.0, 5e-14),
        }
    )


class TestPartitionerDeterminism:
    @given(params=_bridged_params())
    @settings(max_examples=25, deadline=None)
    def test_manifest_json_pure_function_of_circuit(self, params):
        first = partition_circuit(
            bridged_rc_blocks(**params), params["blocks"]
        )
        second = partition_circuit(
            bridged_rc_blocks(**params), params["blocks"]
        )
        assert first.to_json() == second.to_json()

    @given(params=_bridged_params(), requested=st.integers(2, 3))
    @settings(max_examples=25, deadline=None)
    def test_partition_is_an_exact_node_cover(self, params, requested):
        circuit = bridged_rc_blocks(**params)
        requested = min(requested, params["blocks"])
        manifest = partition_circuit(circuit, requested)
        covered = [n for spec in manifest.partitions for n in spec.nodes]
        assert sorted(covered) == sorted(circuit.nodes())
        assert len(covered) == len(set(covered))
        for spec in manifest.boundary:
            assert spec.owner not in spec.consumers

    @given(blocks=st.integers(2, 5), rungs=st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_mixed_rate_split_matches_block_structure(self, blocks, rungs):
        manifest = partition_circuit(
            mixed_rate_blocks(blocks=blocks, rungs=rungs), blocks
        )
        sizes = sorted(len(spec.nodes) for spec in manifest.partitions)
        assert sizes == [rungs + 1] * blocks


def _waveforms():
    """Strategy: a valid BoundaryWaveform on a strictly increasing grid."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, 24))
        # Gap ratio capped at 1000:1 so chord slopes stay well inside
        # float precision; the exactness claim below is about linear
        # interpolation, not about surviving catastrophic cancellation.
        gaps = draw(
            st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1)
        )
        times = np.concatenate(([0.0], np.cumsum(gaps)))
        values = np.array(
            draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
        )
        return BoundaryWaveform(times=times, values=values)

    return build()


class TestBoundaryWaveformRoundTrip:
    @given(wave=_waveforms())
    @settings(max_examples=25, deadline=None)
    def test_source_replays_the_samples(self, wave):
        source = wave.as_source()
        assert isinstance(source, BoundarySource)
        np.testing.assert_allclose(
            source.values(wave.times), wave.values, rtol=0, atol=1e-12
        )
        for t in source.breakpoints(float(wave.times[-1])):
            assert wave.times[0] < t < wave.times[-1]
