"""Command-line interface: ``python -m repro <deck.cir> [options]``.

Runs the analyses a SPICE deck requests (``.op``, ``.dc``, ``.tran``) and
prints results as tables; ``--wavepipe SCHEME`` switches the transient to
waveform pipelining and reports the virtual-clock speedup against the
sequential baseline; ``--ensemble K`` solves K parameter-jittered
variants in one lockstep run. ``--csv FILE`` exports transient
waveforms.

``python -m repro verify`` runs the differential-oracle fuzzing campaign
(:mod:`repro.verify`): random circuits through the full scheme x executor
x reuse lattice, with chaos-scheduled variants.

``python -m repro batch`` runs a batch campaign (:mod:`repro.jobs`):
Monte Carlo / corner / sweep job sets through the cache-aware scheduler,
checkpointed into a campaign store for resume. ``--heartbeat FILE`` /
``--progress`` stream live JSONL heartbeats and a TTY status line while
it runs; ``--serve-metrics PORT`` exposes a Prometheus ``/metrics``
endpoint.

Examples::

    python -m repro lowpass.cir
    python -m repro ring.cir --wavepipe combined --threads 4
    python -m repro grid.cir --csv out.csv --signals "v(out)" "i(V1)"
    python -m repro --experiment table_r2          # bench harness access
    python -m repro verify --trials 25 --seed 0    # equivalence fuzzing
    python -m repro batch --circuit rectifier --montecarlo 16 --seed 7 \\
        --store out/rect-mc --backend process --workers 4 \\
        --heartbeat beats.jsonl --progress
    python -m repro batch --circuit rectifier --montecarlo 16 --ensemble 16
    python -m repro lowpass.cir --ensemble 8 --jitter 0.02 --seed 5
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.api import simulate
from repro.bench.tables import render_table
from repro.core.wavepipe import compare_with_sequential
from repro.errors import ReproError
from repro.mna.compiler import compile_circuit
from repro.mna.system import MnaSystem
from repro.netlist.parser import DcCommand, OpCommand, TranCommand, parse_file
from repro.solver.dcop import solve_operating_point
from repro.utils.units import format_si, parse_value


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """Live-telemetry flags shared by the deck runner and ``batch``."""
    parser.add_argument(
        "--heartbeat", metavar="FILE",
        help="write one JSONL heartbeat record per interval while running",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=5.0, metavar="SECONDS",
        help="wall-clock seconds between heartbeats (default 5)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="live status line on stderr (jobs done/failed/cached, pts/s, ETA)",
    )
    parser.add_argument(
        "--serve-metrics", type=int, metavar="PORT",
        help="serve Prometheus text exposition on http://127.0.0.1:PORT/metrics "
        "for the duration of the run (0 = ephemeral port)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WavePipe-reproduction circuit simulator",
        epilog="Analyses come from the deck's .op/.dc/.tran cards.",
    )
    parser.add_argument("deck", nargs="?", help="SPICE netlist file")
    parser.add_argument(
        "--wavepipe",
        choices=["backward", "forward", "combined"],
        help="run the transient with this waveform-pipelining scheme",
    )
    parser.add_argument(
        "--threads", type=int, default=2, help="thread count for --wavepipe"
    )
    parser.add_argument(
        "--executor",
        choices=["serial", "thread"],
        default="serial",
        help="pipeline runtime (serial = deterministic reference)",
    )
    parser.add_argument(
        "--partitions", type=int, metavar="N",
        help="run the transient with the waveform transmission method, "
        "cutting the circuit into N weakly-coupled partitions "
        "(--wavepipe then pipelines each partition solve)",
    )
    parser.add_argument(
        "--wtm-mode",
        choices=["jacobi", "seidel"],
        default="seidel",
        help="WTM outer iteration: jacobi (concurrent) or seidel "
        "(in-sweep updates, fewer iterations)",
    )
    parser.add_argument(
        "--windows", type=int, default=1, metavar="W",
        help="split the WTM run into W time windows iterated in sequence",
    )
    parser.add_argument(
        "--ensemble", type=int, metavar="K",
        help="run the transient as a K-variant parameter-jittered ensemble "
        "(one lockstep solve; see --jitter/--seed)",
    )
    parser.add_argument(
        "--jitter", type=float, default=0.05, metavar="SIGMA",
        help="lognormal sigma for --ensemble parameter jitter (default 0.05)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for --ensemble jitter draws"
    )
    parser.add_argument("--csv", help="export transient waveforms to this CSV file")
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a transient trace (.json = Chrome trace_event for "
        "Perfetto/chrome://tracing, .jsonl = line-delimited records)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the end-of-run stats summary for transient analyses",
    )
    _add_telemetry_arguments(parser)
    parser.add_argument(
        "--signals", nargs="*", help="trace names for printing/CSV (default: node voltages)"
    )
    parser.add_argument(
        "--samples", type=int, default=20, help="printed sample rows for waveforms"
    )
    parser.add_argument(
        "--experiment",
        help="run a registered evaluation experiment (e.g. table_r2, fig_r1) instead of a deck",
    )
    return parser


def build_verify_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro verify",
        description="Differential-oracle fuzzing: prove scheme x executor x "
        "reuse equivalence on randomly generated circuits",
    )
    parser.add_argument(
        "--trials", type=int, default=10, help="number of random circuits (default 10)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default 0); same seed "
        "reproduces the identical report byte-for-byte"
    )
    parser.add_argument(
        "--threads", type=int, default=3, help="threads for pipelined configs"
    )
    parser.add_argument(
        "--tol", type=float, default=None,
        help="pass/fail bound on worst relative deviation (default: LTE rung, 2e-2)",
    )
    parser.add_argument(
        "--families", nargs="*", default=None,
        help="restrict generation to these circuit families",
    )
    parser.add_argument(
        "--no-chaos", action="store_true",
        help="skip the chaos-scheduled configurations",
    )
    parser.add_argument(
        "--json", metavar="FILE", help="write the full FuzzReport as JSON"
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the verify.* / chaos.* counter snapshot",
    )
    parser.add_argument(
        "--list-families", action="store_true",
        help="list the generator families and exit",
    )
    return parser


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="Batch simulation campaigns: Monte Carlo, PVT corners "
        "and parameter sweeps through the cache-aware job scheduler",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--circuit", help="registry benchmark name")
    source.add_argument("--deck", help="SPICE netlist file")
    source.add_argument(
        "--verify-seed", type=int, metavar="SEED",
        help="draw the circuit from the verify generators with this seed",
    )
    parser.add_argument(
        "--families", nargs="*", default=None,
        help="family restriction for --verify-seed draws",
    )
    generator = parser.add_mutually_exclusive_group()
    generator.add_argument(
        "--montecarlo", type=int, metavar="N",
        help="N Monte Carlo variants with seeded parameter jitter",
    )
    generator.add_argument(
        "--corners", nargs="*", metavar="NAME",
        help="PVT corner set (no names = all stock corners)",
    )
    generator.add_argument(
        "--sweep", nargs="+", metavar=("COMP", "VALUE"),
        help="sweep component COMP over the listed values (SI suffixes ok)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="Monte Carlo seed (default 0)"
    )
    parser.add_argument(
        "--jitter", type=float, default=0.05,
        help="Monte Carlo lognormal sigma (default 0.05 ~ 5%%)",
    )
    parser.add_argument(
        "--analysis", choices=["transient", "wavepipe"], default="transient"
    )
    parser.add_argument("--scheme", choices=["backward", "forward", "combined"])
    parser.add_argument(
        "--threads", type=int, default=1, help="threads per job (wavepipe)"
    )
    parser.add_argument("--tstop", type=parse_value, help="transient stop time")
    parser.add_argument("--tstep", type=parse_value, help="suggested first step")
    parser.add_argument(
        "--store", metavar="DIR",
        help="campaign store directory (manifest + result cache); enables "
        "cache hits and checkpoint/resume",
    )
    parser.add_argument(
        "--backend", choices=["serial", "process", "ensemble"], default="serial"
    )
    parser.add_argument(
        "--ensemble", type=int, metavar="K",
        help="batch same-topology jobs into lockstep ensemble solves, at "
        "most K variants per solve (implies --backend ensemble)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="process-pool size (default 2)"
    )
    parser.add_argument(
        "--timeout", type=float, help="per-job wall-clock limit in seconds"
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts for failed/timed-out/crashed jobs (default 1)",
    )
    parser.add_argument(
        "--backoff", type=float, default=0.0,
        help="base retry delay in seconds (doubles per round)",
    )
    parser.add_argument(
        "--json", metavar="FILE", help="write the campaign report as JSON"
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the campaign stats rollup and jobs.* counters",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write a campaign trace (.jsonl = line-delimited records "
        "with the summary footer `repro explain` consumes, .json = "
        "Chrome trace_event)",
    )
    _add_telemetry_arguments(parser)
    parser.add_argument(
        "--list-circuits", action="store_true",
        help="list the registry benchmark names and exit",
    )
    return parser


def build_explain_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro explain",
        description="Diagnose a traced run: critical-path lane, rejection "
        "cause taxonomy, speculation economics and the solver-phase cost "
        "split — from a JSONL trace written with --trace run.jsonl",
    )
    parser.add_argument(
        "trace", help="JSONL trace file (written by `--trace run.jsonl`)"
    )
    parser.add_argument(
        "--json", metavar="FILE",
        help="write the deterministic JSON report ('-' prints it instead "
        "of the text rendering)",
    )
    parser.add_argument(
        "--html", metavar="FILE",
        help="write a self-contained HTML timeline + diagnosis page",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless the trace is healthy: spans present and "
        "well-formed, a nonempty critical path, every rejection classified",
    )
    return parser


def _run_explain(argv: list[str]) -> int:
    from repro.diagnose import explain_trace, render_html, render_text
    from repro.instrument.exporters import read_jsonl

    args = build_explain_parser().parse_args(argv)
    try:
        events, summary = read_jsonl(args.trace)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(
            f"error: {args.trace} is not a JSONL trace ({exc}); "
            "`repro explain` reads the .jsonl format, not Chrome traces",
            file=sys.stderr,
        )
        return 2
    report = explain_trace(events, summary, source=args.trace)

    if args.json == "-":
        print(report.to_json(), end="")
    else:
        print(render_text(report), end="")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
            print(f"* json report written to {args.json}")
    if args.html:
        page = render_html(events, report, title=f"repro explain: {args.trace}")
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(page)
        if args.json != "-":
            print(f"* html timeline written to {args.html}")

    if args.check:
        failures = []
        if report.spans.get("count", 0) == 0:
            failures.append("no spans in the trace")
        if report.spans.get("malformed", 0):
            failures.append(f"{report.spans['malformed']} malformed span(s)")
        cp = report.critical_path
        populated = cp.get("lanes") or cp.get("slowest_jobs")
        if not populated or cp.get("critical_lane") is None and not cp.get(
            "critical_job"
        ):
            failures.append("empty critical path")
        if report.rejections.get("classified_fraction", 1.0) < 1.0:
            failures.append("unclassified rejections")
        if failures:
            for failure in failures:
                print(f"check failed: {failure}", file=sys.stderr)
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["verify"]:
        return _run_verify(argv[1:])
    if argv[:1] == ["batch"]:
        return _run_batch(argv[1:])
    if argv[:1] == ["explain"]:
        return _run_explain(argv[1:])
    if argv[:1] == ["serve"]:
        return _run_serve(argv[1:])
    if argv[:1] == ["node"]:
        return _run_node(argv[1:])
    if argv[:1] == ["submit"]:
        return _run_submit(argv[1:])
    if argv[:1] == ["trace"]:
        return _run_trace(argv[1:])
    if argv[:1] == ["queue"]:
        return _run_queue(argv[1:])
    if argv[:1] == ["loadgen"]:
        return _run_loadgen(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        if args.experiment:
            return _run_experiment(args.experiment)
        if not args.deck:
            build_parser().print_usage()
            print("error: provide a deck file or --experiment", file=sys.stderr)
            return 2
        return _run_deck(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_verify(argv: list[str]) -> int:
    from repro.instrument import Recorder
    from repro.verify import DEFAULT_TOLERANCE, FAMILIES, run_verification

    args = build_verify_parser().parse_args(argv)
    if args.list_families:
        for name in sorted(FAMILIES):
            print(name)
        return 0
    recorder = Recorder(capture_events=False) if args.metrics else None
    try:
        report = run_verification(
            trials=args.trials,
            seed=args.seed,
            threads=args.threads,
            tolerance=DEFAULT_TOLERANCE if args.tol is None else args.tol,
            chaos=not args.no_chaos,
            families=args.families,
            instrument=recorder,
            on_report=lambda trial: print(trial.summary(), flush=True),
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: unknown family {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"* report written to {args.json}")
    if recorder is not None:
        for name in sorted(recorder.counters):
            print(f"  {name} = {recorder.counters[name]:g}")
    return 0 if report.passed else 1


def _run_batch(argv: list[str]) -> int:
    import contextlib
    import json as json_module

    from repro.instrument import Heartbeat, MetricsServer, Recorder
    from repro.jobs import (
        CircuitRef,
        JobSpec,
        monte_carlo,
        param_sweep,
        pvt_corners,
        run_campaign,
        single,
    )

    args = build_batch_parser().parse_args(argv)
    if args.list_circuits:
        from repro.circuits.registry import benchmark_names

        for name in benchmark_names():
            print(name)
        return 0

    try:
        if args.circuit:
            ref = CircuitRef(kind="registry", name=args.circuit)
        elif args.deck:
            with open(args.deck, encoding="utf-8") as handle:
                ref = CircuitRef(kind="netlist", netlist=handle.read())
        elif args.verify_seed is not None:
            ref = CircuitRef(
                kind="verify", seed=args.verify_seed, families=args.families
            )
        else:
            build_batch_parser().print_usage()
            print(
                "error: provide --circuit, --deck or --verify-seed",
                file=sys.stderr,
            )
            return 2

        base = JobSpec(
            circuit=ref,
            analysis=args.analysis,
            tstop=args.tstop,
            tstep=args.tstep,
            scheme=args.scheme,
            threads=args.threads,
        )
        if args.montecarlo is not None:
            campaign = monte_carlo(
                base, n=args.montecarlo, seed=args.seed, jitter=args.jitter
            )
        elif args.corners is not None:
            campaign = pvt_corners(base, corners=args.corners or None)
        elif args.sweep is not None:
            if len(args.sweep) < 2:
                print(
                    "error: --sweep needs a component name and at least one value",
                    file=sys.stderr,
                )
                return 2
            campaign = param_sweep(
                base, args.sweep[0], [parse_value(v) for v in args.sweep[1:]]
            )
        else:
            campaign = single(base)

        backend = args.backend
        if args.ensemble is not None:
            if args.ensemble < 1:
                print("error: --ensemble needs K >= 1", file=sys.stderr)
                return 2
            from repro.jobs.ensemble import EnsembleBackend

            backend = EnsembleBackend(max_group=args.ensemble)

        telemetry_wanted = (
            args.metrics
            or args.heartbeat
            or args.progress
            or args.serve_metrics is not None
            or args.trace
        )
        recorder = (
            Recorder(capture_events=bool(args.trace)) if telemetry_wanted else None
        )
        heartbeat = None
        if args.heartbeat or args.progress:
            heartbeat = Heartbeat(
                recorder,
                interval=args.heartbeat_interval,
                jsonl=args.heartbeat,
                stream=sys.stderr if args.progress else None,
            )
        with contextlib.ExitStack() as scopes:
            if args.serve_metrics is not None:
                server = scopes.enter_context(
                    MetricsServer(recorder, port=args.serve_metrics)
                )
                print(f"* /metrics on http://127.0.0.1:{server.port}/metrics")
            report = run_campaign(
                campaign,
                store=args.store,
                backend=backend,
                workers=args.workers,
                timeout=args.timeout,
                retries=args.retries,
                backoff=args.backoff,
                instrument=recorder,
                heartbeat=heartbeat,
                on_outcome=lambda outcome: print(
                    f"  [{outcome.status:>7}] {outcome.spec.label}"
                    + (f" ({outcome.error})" if outcome.error else ""),
                    flush=True,
                ),
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(report.summary())
    if args.trace and recorder is not None:
        from repro.instrument import write_trace

        fmt = write_trace(recorder, args.trace)
        print(f"* {fmt} trace written to {args.trace}")
    if args.heartbeat:
        print(f"* heartbeats written to {args.heartbeat}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"* report written to {args.json}")
    if args.metrics:
        print(report.stats.summary())
        for name in sorted(recorder.counters):
            if name.startswith("jobs."):
                print(f"  {name} = {recorder.counters[name]:g}")
    return 0 if report.passed else 1


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the simulation service: an HTTP/JSON front end over "
        "a persistent multi-tenant job queue, optionally with in-process "
        "farm-node workers",
    )
    parser.add_argument(
        "--root", required=True, metavar="DIR",
        help="queue directory shared with the farm nodes",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0 = ephemeral; the actual port is printed "
        "and reported by /healthz)",
    )
    parser.add_argument(
        "--quota", type=int, default=None, metavar="N",
        help="per-tenant active-job cap; submits beyond it get 429s",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3,
        help="claim attempts before a job is marked failed (default 3)",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="in-process farm-node threads (default 0 = accept-only; run "
        "`repro node` processes against the same --root instead)",
    )
    parser.add_argument(
        "--backend", choices=["serial", "process", "ensemble"],
        default="serial", help="backend of the in-process nodes",
    )
    parser.add_argument(
        "--node-workers", type=int, default=1,
        help="process-pool size per in-process node",
    )
    parser.add_argument(
        "--batch", type=int, default=1,
        help="jobs claimed per node transaction (raise for ensemble batching)",
    )
    parser.add_argument(
        "--lease", type=float, default=30.0,
        help="lease seconds per claim (default 30)",
    )
    parser.add_argument(
        "--request-log", metavar="FILE", default=None,
        help="append one structured JSON line per HTTP request (route, "
        "tenant, status, duration_ms, trace_id)",
    )
    return parser


def _run_serve(argv: list[str]) -> int:
    import signal as signal_module
    import threading

    from repro.instrument import Recorder
    from repro.service.server import ServiceServer

    args = build_serve_parser().parse_args(argv)
    stop = threading.Event()
    for signum in (signal_module.SIGTERM, signal_module.SIGINT):
        signal_module.signal(signum, lambda *_: stop.set())
    try:
        server = ServiceServer(
            args.root,
            recorder=Recorder(capture_events=False),
            host=args.host,
            port=args.port,
            quota=args.quota,
            max_attempts=args.max_attempts,
            workers=args.workers,
            backend=args.backend,
            node_workers=args.node_workers,
            batch=args.batch,
            lease_seconds=args.lease,
            request_log=args.request_log,
        ).start()
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"* service on {server.url} (queue {args.root})", flush=True)
    try:
        stop.wait()
    finally:
        server.stop()
    return 0


def build_node_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro node",
        description="Run one farm node: claim jobs from a queue directory by "
        "content hash under a lease, execute them, publish to the shared "
        "result cache; one claim loop per usable CPU by default",
    )
    parser.add_argument("--root", required=True, metavar="DIR")
    parser.add_argument("--id", dest="node_id", help="node identity in leases")
    parser.add_argument(
        "--backend", choices=["serial", "process", "ensemble"], default="serial"
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="concurrent claim loops, each a forked process running one job "
        "at a time on --backend (default: the CPUs this process may use; "
        "1 runs the loop in the node process)",
    )
    parser.add_argument(
        "--batch", type=int, default=1, help="jobs claimed per transaction"
    )
    parser.add_argument(
        "--ensemble", type=int, metavar="K",
        help="lockstep-batch same-topology jobs, at most K per solve "
        "(implies --backend ensemble; pair with --batch >= K)",
    )
    parser.add_argument("--lease", type=float, default=30.0)
    parser.add_argument("--poll", type=float, default=0.05)
    parser.add_argument(
        "--timeout", type=float, help="per-job wall-clock limit in seconds"
    )
    parser.add_argument(
        "--drain", action="store_true",
        help="exit once the queue has no active (pending or leased) work",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the node's service.node.* / jobs.* counters on exit, "
        "summed over its claim loops",
    )
    return parser


def _run_node(argv: list[str]) -> int:
    from repro.instrument import Recorder
    from repro.service.node import run_node

    args = build_node_parser().parse_args(argv)
    backend = args.backend
    if args.ensemble is not None:
        if args.ensemble < 1:
            print("error: --ensemble needs K >= 1", file=sys.stderr)
            return 2
        from repro.jobs.ensemble import EnsembleBackend

        backend = EnsembleBackend(max_group=args.ensemble)
    # Always instrument the node: with a live recorder the scheduler asks
    # workers for telemetry snapshots, which is what puts engine spans
    # into the per-job trace records (--metrics only controls printing).
    recorder = Recorder(capture_events=False)
    try:
        total = run_node(
            args.root,
            node_id=args.node_id,
            backend=backend,
            workers=args.workers,
            batch=args.batch,
            lease_seconds=args.lease,
            poll_interval=args.poll,
            timeout=args.timeout,
            drain=args.drain,
            instrument=recorder,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"* node settled after claiming {total} job(s)")
    if args.metrics:
        for name in sorted(recorder.counters):
            if name.startswith(("service.", "jobs.")):
                print(f"  {name} = {recorder.counters[name]:g}")
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Fetch a campaign's stitched cross-node trace from a "
        "running `repro serve` instance (GET /trace/<campaign>) as a "
        "repro-trace-v1 JSONL dump that `repro explain` consumes",
    )
    parser.add_argument("--url", required=True, help="service base URL")
    parser.add_argument("cid", help="campaign id (from the submit receipt)")
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the JSONL dump here (default: print to stdout)",
    )
    return parser


def _run_trace(argv: list[str]) -> int:
    from repro.service.client import ServiceClient, ServiceError

    args = build_trace_parser().parse_args(argv)
    client = ServiceClient(args.url)
    try:
        body = client.trace(args.cid)
    except ServiceError as exc:
        if exc.status == 404:
            print(f"error: unknown campaign {args.cid!r}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(body)
        lines = body.count("\n")
        print(f"* trace written to {args.out} ({lines} record(s))")
    else:
        print(body, end="")
    return 0


def build_queue_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro queue",
        description="Print a queue directory's store (queue.db) as sorted, "
        "indented JSON: schema version, per-status counts, every job entry "
        "and every campaign record",
    )
    parser.add_argument("root", metavar="DIR", help="queue directory")
    return parser


def _run_queue(argv: list[str]) -> int:
    import contextlib
    import json as json_module

    from repro.service.queue import QUEUE_VERSION, JobQueue

    args = build_queue_parser().parse_args(argv)
    try:
        with contextlib.closing(JobQueue(args.root)) as queue:
            dump = {
                "version": QUEUE_VERSION,
                "counts": queue.counts(),
                "jobs": queue.entries(),
                "campaigns": queue.campaigns(),
            }
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json_module.dumps(dump, sort_keys=True, indent=2))
    return 0


def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit a job or a generated campaign to a running "
        "`repro serve` instance over HTTP",
    )
    parser.add_argument("--url", required=True, help="service base URL")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--circuit", help="registry benchmark name")
    source.add_argument("--deck", help="SPICE netlist file")
    source.add_argument(
        "--verify-seed", type=int, metavar="SEED",
        help="draw the circuit from the verify generators with this seed",
    )
    parser.add_argument(
        "--families", nargs="*", default=None,
        help="family restriction for --verify-seed draws",
    )
    generator = parser.add_mutually_exclusive_group()
    generator.add_argument("--montecarlo", type=int, metavar="N")
    generator.add_argument("--corners", nargs="*", metavar="NAME")
    generator.add_argument("--sweep", nargs="+", metavar=("COMP", "VALUE"))
    generator.add_argument(
        "--ensemble", type=int, metavar="N",
        help="N Monte Carlo variants flagged for lockstep ensemble batching",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jitter", type=float, default=0.05)
    parser.add_argument(
        "--analysis", choices=["transient", "wavepipe"], default="transient"
    )
    parser.add_argument("--scheme", choices=["backward", "forward", "combined"])
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--tstop", type=parse_value)
    parser.add_argument("--tstep", type=parse_value)
    parser.add_argument("--tenant", default=None)
    parser.add_argument("--priority", type=int, default=0)
    parser.add_argument(
        "--wait", action="store_true",
        help="poll until the job/campaign settles; exit 1 on failures",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="(campaigns) print the chunked heartbeat stream while waiting",
    )
    parser.add_argument("--json", metavar="FILE", help="write the receipt JSON")
    return parser


def _run_submit(argv: list[str]) -> int:
    import json as json_module

    from repro.jobs import CircuitRef, JobSpec
    from repro.service.client import Backpressure, ServiceClient, ServiceError

    args = build_submit_parser().parse_args(argv)
    try:
        if args.circuit:
            ref = CircuitRef(kind="registry", name=args.circuit)
        elif args.deck:
            with open(args.deck, encoding="utf-8") as handle:
                ref = CircuitRef(kind="netlist", netlist=handle.read())
        elif args.verify_seed is not None:
            ref = CircuitRef(
                kind="verify", seed=args.verify_seed, families=args.families
            )
        else:
            build_submit_parser().print_usage()
            print(
                "error: provide --circuit, --deck or --verify-seed",
                file=sys.stderr,
            )
            return 2
        base = JobSpec(
            circuit=ref,
            analysis=args.analysis,
            tstop=args.tstop,
            tstep=args.tstep,
            scheme=args.scheme,
            threads=args.threads,
        )
    except (ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    generator = None
    if args.montecarlo is not None:
        generator = {
            "kind": "monte_carlo", "n": args.montecarlo,
            "seed": args.seed, "jitter": args.jitter,
        }
    elif args.ensemble is not None:
        generator = {
            "kind": "ensemble", "n": args.ensemble,
            "seed": args.seed, "jitter": args.jitter,
        }
    elif args.corners is not None:
        generator = {"kind": "pvt_corners", "corners": args.corners or None}
    elif args.sweep is not None:
        if len(args.sweep) < 2:
            print(
                "error: --sweep needs a component name and at least one value",
                file=sys.stderr,
            )
            return 2
        generator = {
            "kind": "param_sweep", "component": args.sweep[0],
            "values": [parse_value(v) for v in args.sweep[1:]],
        }

    client = ServiceClient(args.url, tenant=args.tenant)
    try:
        if generator is None:
            receipt = client.submit_job(base, priority=args.priority)
            print(
                f"* job {receipt['id'][:16]} {receipt['status']}"
                + (" (deduped)" if receipt["deduped"] else "")
            )
        else:
            receipt = client.submit_campaign(
                base, generator, priority=args.priority
            )
            print(
                f"* campaign {receipt['id']}: {len(receipt['jobs'])} job(s), "
                f"{receipt['submitted']} new, {receipt['deduped']} deduped"
            )
            if receipt.get("trace_id"):
                print(f"* trace id {receipt['trace_id']}")
    except Backpressure as exc:
        print(
            f"error: backpressure (429): {exc} "
            f"[queue depth {exc.queue_depth}, tenant depth {exc.tenant_depth}, "
            f"retry after {exc.retry_after:g}s]",
            file=sys.stderr,
        )
        return 3
    except (ServiceError, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(receipt, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if not (args.wait or args.stream):
        return 0

    try:
        if generator is None:
            status = client.wait_job(receipt["id"])
            print(f"* job settled: {status['status']}")
            return 0 if status["status"] == "done" else 1
        if args.stream:
            for record in client.stream(receipt["id"]):
                jobs = record["jobs"]
                print(
                    f"  [stream {record['elapsed']:6.1f}s] "
                    f"{jobs['done']:g}/{jobs['total']} done, "
                    f"{jobs['failed']:g} failed",
                    flush=True,
                )
            rollup = client.campaign(receipt["id"])
        else:
            rollup = client.wait_campaign(receipt["id"])
        print(f"* campaign settled: {rollup['counts']}")
        return 0 if rollup["counts"].get("done", 0) == rollup["jobs"] else 1
    except (ServiceError, ConnectionError, OSError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_loadgen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Drive a deterministic mixed request stream (unique / "
        "duplicate submissions, status polls, campaigns) against a running "
        "service",
    )
    parser.add_argument("--url", required=True, help="service base URL")
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--circuit", default="rcladder20")
    parser.add_argument(
        "--tenants", nargs="*", default=["acme", "bulk", "free"],
        help="tenant rotation for submissions",
    )
    parser.add_argument(
        "--unique", type=int, default=8,
        help="distinct-spec pool size submissions draw from",
    )
    parser.add_argument("--jitter", type=float, default=0.02)
    parser.add_argument("--campaign-every", type=int, default=25)
    parser.add_argument("--campaign-jobs", type=int, default=4)
    parser.add_argument("--tstop", type=parse_value)
    parser.add_argument("--no-wait", action="store_true")
    parser.add_argument("--wait-timeout", type=float, default=300.0)
    parser.add_argument("--no-fetch", action="store_true")
    parser.add_argument("--think", type=float, default=0.0)
    parser.add_argument("--json", metavar="FILE", help="write the LoadReport")
    parser.add_argument(
        "--assert-backpressure", action="store_true",
        help="exit 1 unless at least one 429 was observed",
    )
    parser.add_argument(
        "--assert-drained", action="store_true",
        help="exit 1 unless the queue drained within --wait-timeout",
    )
    return parser


def _run_loadgen(argv: list[str]) -> int:
    import json as json_module

    from repro.service.loadgen import run_load

    args = build_loadgen_parser().parse_args(argv)
    try:
        report = run_load(
            args.url,
            requests=args.requests,
            seed=args.seed,
            circuit=args.circuit,
            tenants=tuple(args.tenants),
            unique=args.unique,
            jitter=args.jitter,
            campaign_every=args.campaign_every,
            campaign_jobs=args.campaign_jobs,
            tstop=args.tstop,
            wait=not args.no_wait,
            wait_timeout=args.wait_timeout,
            fetch_results=not args.no_fetch,
            think=args.think,
        )
    except (ReproError, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"* report written to {args.json}")
    if args.assert_backpressure and report.rejected == 0:
        print("error: expected at least one 429, saw none", file=sys.stderr)
        return 1
    if args.assert_drained and not report.drained:
        print("error: queue failed to drain in time", file=sys.stderr)
        return 1
    return 0


def _run_experiment(exp_id: str) -> int:
    from repro.bench.experiments import run_experiment

    try:
        result = run_experiment(exp_id)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.text)
    return 0


def _run_deck(args) -> int:
    netlist = parse_file(args.deck)
    print(f"* {netlist.title}")
    compiled = compile_circuit(netlist.circuit, netlist.options)
    print(
        f"* {compiled.n} unknowns ({compiled.n_nodes} nodes, "
        f"{compiled.n_branches} branch currents)"
    )

    analyses = netlist.analyses or [OpCommand()]
    for command in analyses:
        if isinstance(command, OpCommand):
            _print_op(compiled, netlist)
        elif isinstance(command, DcCommand):
            _print_dc(compiled, command, args)
        elif isinstance(command, TranCommand):
            _print_tran(compiled, netlist, command, args)
    return 0


def _print_op(compiled, netlist) -> None:
    system = MnaSystem(compiled)
    op = solve_operating_point(system, netlist.options)
    rows = [
        [name, format_si(value, "V" if name.startswith("v") else "A")]
        for name, value in zip(compiled.unknown_names, op.x)
    ]
    print(render_table(["unknown", "value"], rows, title="Operating point"))
    print(f"* strategy: {op.strategy}, {op.iterations} Newton iterations")


def _print_dc(compiled, command: DcCommand, args) -> None:
    count = int(round((command.stop - command.start) / command.step)) + 1
    values = np.linspace(command.start, command.stop, max(count, 2))
    result = simulate(compiled, analysis="dc", source=command.source, values=values)
    signals = args.signals or [n for n in result.curves.names if n.startswith("v")][:4]
    step = max(1, len(values) // args.samples)
    rows = [
        [format_si(v, "")] + [result.curves[s].values[k] for s in signals]
        for k, v in enumerate(values)
        if k % step == 0
    ]
    print(
        render_table(
            [command.source] + signals, rows, title=f"DC sweep of {command.source}"
        )
    )


def _print_tran(compiled, netlist, command: TranCommand, args) -> None:
    import contextlib

    recorder = None
    if args.trace or args.heartbeat or args.progress or args.serve_metrics is not None:
        from repro.instrument import Recorder

        recorder = Recorder(capture_events=bool(args.trace))
    with contextlib.ExitStack() as scopes:
        if args.serve_metrics is not None:
            from repro.instrument import MetricsServer

            server = scopes.enter_context(
                MetricsServer(recorder, port=args.serve_metrics)
            )
            print(f"* /metrics on http://127.0.0.1:{server.port}/metrics")
        if args.heartbeat or args.progress:
            from repro.instrument import heartbeat_for

            scopes.enter_context(
                heartbeat_for(
                    recorder,
                    interval=args.heartbeat_interval,
                    jsonl=args.heartbeat,
                    progress=args.progress,
                )
            )
        ensemble = None
        wtm = None
        if args.partitions:
            report = None
            # WTM partitions the raw netlist circuit before compilation;
            # --wavepipe here selects the per-partition pipelining scheme
            # rather than a monolithic pipelined run.
            wtm = simulate(
                netlist.circuit,
                analysis="wtm",
                tstop=command.tstop,
                tstep=command.tstep,
                options=netlist.options,
                scheme=args.wavepipe,
                threads=args.threads,
                executor=args.executor,
                instrument=recorder,
                partitions=args.partitions,
                mode=args.wtm_mode,
                windows=args.windows,
            )
            result = wtm
        elif args.wavepipe:
            report = compare_with_sequential(
                compiled,
                command.tstop,
                scheme=args.wavepipe,
                threads=args.threads,
                tstep=command.tstep,
                options=netlist.options,
                executor=args.executor,
                instrument=recorder,
            )
            result = report.pipelined
        elif args.ensemble:
            report = None
            # The ensemble facade rebuilds per-variant circuits from the
            # raw netlist circuit, so it bypasses the compiled form.
            ensemble = simulate(
                netlist.circuit,
                tstop=command.tstop,
                tstep=command.tstep,
                options=netlist.options,
                instrument=recorder,
                ensemble=args.ensemble,
                jitter=args.jitter,
                seed=args.seed,
            )
            result = ensemble[0]
        else:
            report = None
            result = simulate(
                compiled,
                analysis="transient",
                tstop=command.tstop,
                tstep=command.tstep,
                options=netlist.options,
                instrument=recorder,
            )
    if report is not None:
        print(f"* wavepipe {report.summary()}")
    elif wtm is not None:
        raw = wtm.raw
        state = "converged" if raw.converged else "NOT CONVERGED"
        scheme_note = f", {args.wavepipe} pipelining" if args.wavepipe else ""
        print(
            f"* wtm: {raw.partitions} partitions ({raw.mode}{scheme_note}), "
            f"{raw.outer_iterations} outer iterations over {raw.windows} "
            f"window(s), {state}; virtual work "
            f"{raw.stats.virtual_total:.0f} vs serial {raw.stats.serial_total:.0f}"
        )
    elif ensemble is not None:
        print(
            f"* ensemble: {ensemble.sims} variants in lockstep, "
            f"{ensemble.stats.accepted_points} shared points, "
            f"{ensemble.stats.rejected_points} rejected, "
            f"{ensemble.stats.newton_iterations} Newton iterations"
        )
    else:
        print(
            f"* transient: {result.stats.accepted_points} points, "
            f"{result.stats.rejected_points} rejected, "
            f"{result.stats.newton_iterations} Newton iterations"
        )
    if args.heartbeat:
        print(f"* heartbeats written to {args.heartbeat}")

    if args.metrics:
        print(result.stats.summary())
    if args.trace and recorder is not None:
        from repro.instrument import write_trace

        fmt = write_trace(recorder, args.trace)
        print(f"* {fmt} trace written to {args.trace}")
        if recorder.dropped_events:
            print(
                f"  trace: {recorder.dropped_events} events dropped "
                f"(raise Recorder max_events for a complete trace)"
            )

    signals = args.signals or [n for n in result.waveforms.names if n.startswith("v")][:4]
    grid = np.linspace(0.0, result.final_time, args.samples)
    rows = [
        [format_si(t, "s")] + [result.waveforms[s].at(t) for s in signals]
        for t in grid
    ]
    title = "Transient samples (variant 0)" if ensemble is not None else "Transient samples"
    print(render_table(["time"] + signals, rows, title=title))

    if ensemble is not None:
        rows = [
            [str(k)] + [variant.waveforms[s].values[-1] for s in signals]
            for k, variant in enumerate(ensemble.variants)
        ]
        print(
            render_table(
                ["variant"] + signals, rows,
                title=f"Ensemble spread at t={format_si(result.final_time, 's')}",
            )
        )

    if args.csv:
        from repro.waveform.export import write_csv

        write_csv(result.waveforms, args.csv, args.signals)
        note = " (variant 0)" if ensemble is not None else ""
        print(f"* waveforms written to {args.csv}{note}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
