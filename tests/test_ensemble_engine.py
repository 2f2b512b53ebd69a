"""Ensemble transient engine: K=1 bit-identity and seeded K>1 oracles.

Two guarantees back the ensemble mode's accuracy story:

* **K=1 is the legacy path.** A one-variant ensemble must reproduce the
  sequential transient run bit for bit — same accepted time grid, same
  waveform samples — with Jacobian reuse on *and* off. Any drift here
  means the trailing sims axis re-ordered floating-point arithmetic.
  Both run the one time loop and the one instrumented Newton wrapper, so
  K=1 must also book the same cost statistics and emit the same span
  tree and counters, ``sims`` tags and ``ensemble.*`` channels aside.
* **K>1 stays on the tolerance ladder.** For every verify circuit
  family, a seeded jittered ensemble must keep each variant within the
  ``loose`` (1e-3) rung of its own standalone sequential run, despite
  sharing one adaptive grid chosen by max-reduction over per-variant
  LTE estimates.
"""

import numpy as np
import pytest

from repro.api import simulate
from repro.engine.ensemble import run_ensemble_transient
from repro.jobs.spec import apply_params, jitterable_params
from repro.utils.options import SimOptions
from repro.verify.generators import draw_circuit
from repro.verify.oracle import classify_tier
from repro.waveform.waveform import compare, worst_deviation

#: One seed per covered verify family (same map as the Table R11 bench).
#: The multi-block WTM families (bridged-rc-mesh, inverter-composite) are
#: deliberately absent: their verification story is the partition oracle
#: in test_wtm_oracle.py, not the shared-grid ensemble, whose pointwise
#: comparison degenerates into edge-timing jitter on switching blocks.
FAMILY_SEEDS = {
    "diode-clipper": 38,
    "mosfet-chain": 16,
    "bjt-follower": 42,
    "rlc-ladder": 7,
    "rc-ladder": 5,
    "resistive-sin": 3,
    "diode-mesh": 101,
}

#: Every variant must clear the loose rung against its sequential run.
LOOSE = 1e-3


def assert_bit_identical(ens, seq):
    assert np.array_equal(ens.times, seq.times)
    variant = ens.variants[0]
    assert set(variant.waveforms.names) == set(seq.waveforms.names)
    for name in seq.waveforms.names:
        assert np.array_equal(
            variant.waveforms[name].values, seq.waveforms[name].values
        ), name


@pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "no-reuse"])
@pytest.mark.parametrize("seed", [11, 42, 19])
def test_k1_bit_identical_to_sequential(seed, reuse):
    gen = draw_circuit(seed)
    options = SimOptions(jacobian_reuse=reuse)
    seq = simulate(gen.circuit, analysis="transient", tstop=gen.tstop, options=options)
    ens = run_ensemble_transient([gen.circuit], gen.tstop, options=options)
    assert ens.sims == 1
    assert_bit_identical(ens, seq)


def test_k1_bit_identical_with_uic():
    gen = draw_circuit(19)
    options = SimOptions(jacobian_reuse=True)
    seq = simulate(
        gen.circuit, analysis="transient", tstop=gen.tstop, options=options, uic=True
    )
    ens = run_ensemble_transient(
        [gen.circuit], gen.tstop, options=options, uic=True
    )
    assert_bit_identical(ens, seq)


#: TransientStats fields that are counts or virtual work (not wall time).
COST_FIELDS = (
    "accepted_points", "rejected_points", "newton_failures", "newton_iterations",
    "work_units", "dc_work_units", "lu_factors", "lu_solves", "lu_reuse_hits",
    "bypass_fallbacks",
)


def _trace(rec):
    """(spans, counters, histograms) of a run, minus what K=1 may add."""
    from repro.instrument.spans import build_span_tree

    tree = build_span_tree(rec.events)
    assert tree.problems == []
    spans = [
        (node.path, node.outcome, node.cost, node.attrs.get("classes"))
        for node in tree.walk()
    ]
    snap = rec.snapshot()
    shared = {
        kind: {k: v for k, v in snap[kind].items() if not k.startswith("ensemble.")}
        for kind in ("counters", "histograms")
    }
    return spans, shared["counters"], shared["histograms"], tree


@pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "no-reuse"])
@pytest.mark.parametrize("seed", [11, 42])
def test_k1_books_the_same_stats_spans_and_counters(seed, reuse):
    from repro.instrument import Recorder

    gen = draw_circuit(seed)
    options = SimOptions(jacobian_reuse=reuse)
    seq_rec, ens_rec = Recorder(), Recorder()
    seq = simulate(
        gen.circuit, analysis="transient", tstop=gen.tstop, options=options,
        instrument=seq_rec,
    )
    ens = run_ensemble_transient(
        [gen.circuit], gen.tstop, options=options, instrument=ens_rec
    )
    for name in COST_FIELDS:
        assert getattr(ens.stats, name) == getattr(seq.stats, name), name

    seq_spans, seq_counters, seq_hists, seq_tree = _trace(seq_rec)
    ens_spans, ens_counters, ens_hists, ens_tree = _trace(ens_rec)
    assert ens_spans == seq_spans
    assert ens_counters == seq_counters
    assert ens_hists == seq_hists

    # the allowed differences, and nothing else
    (seq_run,), (ens_run,) = seq_tree.roots, ens_tree.roots
    assert (seq_run.attrs["kind"], ens_run.attrs["kind"]) == ("sequential", "ensemble")
    tagged = {n.name for n in ens_tree.walk() if n.attrs.get("sims") == 1}
    assert tagged == {"run", "timestep", "newton_solve"}
    assert not any("sims" in n.attrs for n in seq_tree.walk())
    extra = set(ens_rec.counters) - set(seq_rec.counters)
    assert extra and all(name.startswith("ensemble.") for name in extra)


def jittered_variants(circuit, k, seed=5, jitter=0.02):
    """The monte_carlo draw: lognormal factors over sorted param names."""
    nominal = jitterable_params(circuit)
    rng = np.random.default_rng(seed)
    names = sorted(nominal)
    out = []
    for _ in range(k):
        factors = rng.lognormal(mean=0.0, sigma=jitter, size=len(names))
        out.append(
            {name: float(nominal[name] * f) for name, f in zip(names, factors)}
        )
    return out


@pytest.mark.parametrize(
    "family", sorted(FAMILY_SEEDS), ids=sorted(FAMILY_SEEDS)
)
def test_k3_oracle_within_loose(family):
    """Each jittered variant tracks its own sequential run to <= loose."""
    gen = draw_circuit(FAMILY_SEEDS[family])
    assert gen.family == family
    options = SimOptions(
        reltol=3e-6, max_step=gen.tstop / 256, jacobian_reuse=True
    )
    overrides = jittered_variants(gen.circuit, k=3)
    circuits = [apply_params(gen.circuit, o) for o in overrides]
    ens = run_ensemble_transient(circuits, gen.tstop, options=options)
    assert ens.sims == 3

    for k, circuit in enumerate(circuits):
        ref = simulate(circuit, analysis="transient", tstop=gen.tstop, options=options)
        worst = worst_deviation(compare(ref.waveforms, ens.variants[k].waveforms))
        rel = worst.max_relative if worst is not None else 0.0
        tier = classify_tier(rel)
        assert rel <= LOOSE, f"{family} variant {k}: {rel:.3e} ({tier})"


def test_variants_share_grid_and_stats():
    gen = draw_circuit(11)
    overrides = jittered_variants(gen.circuit, k=4)
    circuits = [apply_params(gen.circuit, o) for o in overrides]
    ens = run_ensemble_transient(circuits, gen.tstop)
    for variant in ens.variants:
        assert variant.times is ens.times or np.array_equal(
            variant.times, ens.times
        )
        assert variant.stats is ens.stats
    assert ens.stats.accepted_points == len(ens.times) - 1


def test_ensemble_counters_recorded():
    from repro.instrument import Recorder

    gen = draw_circuit(19)
    overrides = jittered_variants(gen.circuit, k=2)
    circuits = [apply_params(gen.circuit, o) for o in overrides]
    rec = Recorder()
    run_ensemble_transient(circuits, gen.tstop, instrument=rec)
    counters = rec.snapshot()["counters"]
    assert counters.get("ensemble.solves", 0) > 0
    assert counters["ensemble.variants_per_solve"] == 2 * counters["ensemble.solves"]
    assert counters.get("ensemble.points.accepted", 0) > 0
