"""The compute workloads: one deck → CSV pass, its check, one rep.

A *pass* is the user path for every deck of the workload — deck text →
``parse_netlist`` → ``compile_circuit`` → ``simulate`` → ``to_csv_text``.
A *rep* is one timed pass plus, where the workload has a baseline, the
default sequential engine on the same deck timed back to back, and the
output check of every pass; :mod:`wallbench.samples` turns reps into
numbers.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.api import simulate
from repro.errors import ReproError
from repro.instrument import Recorder
from repro.jobs.spec import apply_params
from repro.mna.compiler import compile_circuit
from repro.mna.system import MnaSystem
from repro.netlist.parser import parse_netlist
from repro.parallel.executors import make_executor
from repro.verify.oracle import TOLERANCE_LADDER, classify_tier
from repro.waveform.export import read_csv, to_csv_text
from repro.waveform.waveform import WaveformSet, compare

from wallbench.layers import TARGETS, compute_layer_metrics
from wallbench.samples import Sample, best
from wallbench.trace import Tracer, TracingExecutor
from wallbench.workloads import (
    WORKLOADS,
    Deck,
    WorkloadSpec,
    deck_text,
    make_decks,
    sequential,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Golden CSVs keep at most this many traces (evenly strided): the grid
#: has 1601 and a 2 MB reference adds nothing a 64-trace one misses.
GOLDEN_TRACES = 64
#: Deck seed the goldens are written from (any seed is the same circuit).
GOLDEN_SEED = 0
#: Traced passes per traced run; each per-layer metric is their median.
TRACED_PASSES = 3
#: K=1 ensemble / sequential pairs timed for ``ensemble.k1_over_seq``.
K1_PAIRS = 3

_LADDER = [name for name, _ in TOLERANCE_LADDER]


def within(max_relative: float, band: str) -> bool:
    """True when *max_relative* classifies at or under the *band* rung."""
    tier = classify_tier(max_relative)
    return tier in _LADDER[: _LADDER.index(band) + 1]


def deviation(reference: WaveformSet, candidate: WaveformSet, names=None) -> float:
    """Worst relative deviation over *names* (default: every shared trace)."""
    rows = compare(reference, candidate, names=list(names) if names else None)
    return max((d.max_relative for d in rows), default=float("inf"))


@dataclass
class DeckRun:
    """Outcome of one deck → CSV pass."""

    deck: Deck
    circuit: object  # the parsed (raw) Circuit
    options: object
    result: object
    waveforms: list[WaveformSet]  # one per simulated variant
    csvs: list[str]
    submit_s: float  # deck text -> ready to simulate (parse [+ compile])
    sim_s: float
    read_s: float  # result -> CSV text

    @property
    def stats(self):
        return self.result.stats

    @property
    def wall_s(self) -> float:
        return self.submit_s + self.sim_s + self.read_s

    @property
    def virtual_work(self) -> float:
        """Simulated cost of the pass on the repo's virtual clock."""
        stats = self.stats
        pipelined = getattr(stats, "virtual_total", None)
        return float(stats.total_work if pipelined is None else pipelined)

    def sizes(self) -> tuple[int, int]:
        """(unknowns, Jacobian nonzeros) of the deck's nominal circuit."""
        system = MnaSystem(compile_circuit(self.circuit, self.options))
        return system.n, system.pattern.nnz


def run_deck(deck: Deck, tracer: Tracer | None = None, instrument=None) -> DeckRun:
    """One pass of *deck*; with *tracer*, the direct calls are spans."""
    span = tracer.span if tracer is not None else contextlib.nullcontext
    mode = dict(deck.mode)
    analysis = mode.pop("analysis", "transient")
    raw = "ensemble" in mode or "partitions" in mode  # engines that cut/clone the Circuit
    executor = None
    if tracer is not None and "executor" in mode:
        executor = TracingExecutor(make_executor(mode["executor"], mode["threads"]), tracer)
        mode["executor"] = executor
    if instrument is not None:
        mode["instrument"] = instrument
    try:
        t0 = perf_counter()
        with span("netlist.parse"):
            netlist = parse_netlist(deck.text)
        options = netlist.options.replace(**deck.options)
        circuit = netlist.circuit
        if not raw:
            with span("mna.compile"):
                circuit = compile_circuit(circuit, options)
        t1 = perf_counter()
        result = simulate(
            circuit,
            analysis,
            tstop=netlist.tran.tstop,
            tstep=netlist.tran.tstep,
            options=options,
            **mode,
        )
        t2 = perf_counter()
        variants = getattr(result, "variants", None)
        waveforms = [v.waveforms for v in variants] if variants else [result.waveforms]
        with span("waveform.export"):
            csvs = [to_csv_text(w) for w in waveforms]
        t3 = perf_counter()
    finally:
        if executor is not None:
            executor.close()
    return DeckRun(
        deck, netlist.circuit, options, result, waveforms, csvs,
        submit_s=t1 - t0, sim_s=t2 - t1, read_s=t3 - t2,
    )


# -- golden references -------------------------------------------------------------


@dataclass
class Golden:
    """Committed references: one CSV per deck, exact counts per workload."""

    waveforms: dict[str, WaveformSet]
    counts: dict[str, dict[str, dict]]

    @classmethod
    def load(cls) -> "Golden":
        counts = json.loads((GOLDEN_DIR / "counts.json").read_text())
        names = {deck for per in counts.values() for deck in per}
        return cls({n: read_csv(GOLDEN_DIR / f"{n}.csv") for n in sorted(names)}, counts)


def golden_signals(waveforms: WaveformSet) -> list[str]:
    names = sorted(waveforms.names)
    stride = max(1, -(-len(names) // GOLDEN_TRACES))
    return names[::stride]


def check_golden(run: DeckRun, workload: str, golden: Golden) -> tuple[bool, float]:
    """≤ loose against the committed CSV, and the exact golden counts."""
    err = deviation(golden.waveforms[run.deck.name], run.waveforms[0])
    want = golden.counts[workload][run.deck.name]
    same_counts = (
        run.stats.accepted_points == want["accepted_points"]
        and run.stats.newton_iterations == want["newton_iterations"]
    )
    return within(err, "loose") and same_counts, err


def write_golden() -> None:
    """Regenerate ``golden/`` from the current code (``wallbench golden``)."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    counts: dict[str, dict] = {}
    for spec in WORKLOADS.values():
        if spec.check != "golden":
            continue
        for deck in make_decks(spec.name, GOLDEN_SEED):
            run = run_deck(deck)
            counts.setdefault(spec.name, {})[deck.name] = {
                "accepted_points": run.stats.accepted_points,
                "newton_iterations": run.stats.newton_iterations,
            }
            if not deck.options:  # the reference is the default-options run
                signals = golden_signals(run.waveforms[0])
                (GOLDEN_DIR / f"{deck.name}.csv").write_text(
                    to_csv_text(run.waveforms[0], signals)
                )
    (GOLDEN_DIR / "counts.json").write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")


# -- one rep -----------------------------------------------------------------------


def _variant_deck(run: DeckRun, k: int) -> Deck:
    """Variant *k* of an ensemble run as its own sequential deck."""
    netlist = parse_netlist(run.deck.text)
    circuit = apply_params(netlist.circuit, run.result.params[k])
    return Deck(run.deck.name, deck_text(circuit, netlist.options, netlist.tran.tstop))


def run_rep(
    spec: WorkloadSpec, decks: list[Deck], golden: Golden | None, rep: int
) -> Sample:
    """One timed pass of every deck, its baseline where there is one, checks.

    A workload whose engine is not the default sequential one runs that
    engine on the same deck right after its own pass: the pair gives
    ``wall_speedup``/``virtual_speedup`` and, for the parallel engines,
    the reference of the accuracy check. An ensemble is compared with
    variant ``rep % K`` (times K), so successive reps cover all variants.
    """
    sample = Sample()
    for deck in decks:
        sample.attempted += 1
        try:
            run = run_deck(deck)
            variants = len(run.waveforms)
            k = rep % variants
            base = None
            if deck.mode or deck.options:
                base_deck = _variant_deck(run, k) if variants > 1 else sequential(deck)
                base = run_deck(base_deck)
            if spec.check == "golden" and golden is not None:
                ok, err = check_golden(run, spec.name, golden)
            elif spec.check == "sequential":
                err = deviation(base.waveforms[0], run.waveforms[k], deck.signals)
                ok = within(err, "lte")
            else:  # quick mode has no golden at its shortened tstop
                ok, err = True, 0.0
        except ReproError:
            sample.failed += 1
            sample.complete = False
            continue
        sample.failed += 0 if ok else 1
        sample.max_rel_err = max(sample.max_rel_err, err)
        sample.wall.append(run.wall_s)
        sample.sim.append(run.sim_s)
        sample.virtual_work += run.virtual_work
        sample.ops += 1
        sample.sims += variants
        if base is not None:
            sample.base.append(variants * base.wall_s)
            sample.base_virtual += variants * base.virtual_work
    return sample


# -- the traced pass ---------------------------------------------------------------


def _median_metrics(rows: list[dict]) -> dict:
    """Per metric, the median over passes (None if any pass lost it)."""
    out = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        out[key] = None if None in values else statistics.median(values)
    return out


def traced_layers(
    spec: WorkloadSpec, decks: list[Deck], untraced: list[Sample], targets=TARGETS
) -> tuple[dict, list[str]]:
    """Per-layer metrics from ``TRACED_PASSES`` traced passes (median per metric).

    *untraced* are the reps already timed with tracing off (for the
    numbers that must not come from a traced pass).
    Returns the metrics and the unresolved trace targets.
    """
    rows, traced, plain, recorded = [], [], [], []
    for _ in range(TRACED_PASSES):
        # an untraced pass beside every traced one: the overhead ratios
        # compare passes that saw the same minute of the host
        plain.append(Sample(wall=[run_deck(deck).wall_s for deck in decks]))
        tracer = Tracer()
        with tracer.installed(targets):
            with tracer.span("wallbench.pass"):
                runs = [run_deck(deck, tracer=tracer) for deck in decks]
        wall = sum(run.wall_s for run in runs)
        rows.append(compute_layer_metrics(tracer, runs, wall))
        traced.append(Sample(wall=[run.wall_s for run in runs]))
        if spec.name == "digital_seq":
            recorded.append(Sample(wall=[
                run_deck(deck, instrument=Recorder(capture_events=False)).wall_s
                for deck in decks
            ]))
    out = _median_metrics(rows)
    iters = sum(getattr(run.stats, "newton_iterations", 0) for run in runs)
    out["trace_overhead_ratio"] = best(traced, "wall") / best(plain, "wall")
    out["engine.us_per_newton_iter"] = 1e6 * best(untraced, "sim") / iters if iters else 0.0
    out["verify.max_rel_err"] = max(s.max_rel_err for s in untraced)
    if recorded:
        out["instrument.recorder_overhead_ratio"] = best(recorded, "wall") / best(plain, "wall")
    if spec.name == "ensemble_mc":
        out.update(_ensemble_k1(decks))
    return out, list(tracer.missing)


def _ensemble_k1(decks: list[Deck]) -> dict:
    """K=1 ensemble against the sequential engine, timed back to back.

    The gate for folding the two engine hierarchies into one is "no K=1
    wall regression"; this is its number.
    """
    k1, seq = [], []
    for _ in range(K1_PAIRS):
        k1.append(Sample(wall=[
            run_deck(Deck(d.name, d.text, {**d.mode, "ensemble": 1}, d.options)).sim_s
            for d in decks
        ]))
        seq.append(Sample(wall=[run_deck(sequential(d)).sim_s for d in decks]))
    return {
        "ensemble.k1_wall_s": best(k1, "wall"),
        "ensemble.k1_over_seq": best(k1, "wall") / best(seq, "wall"),
    }
