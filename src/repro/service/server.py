"""Simulation-as-a-service: the stdlib HTTP/JSON front end of the farm.

:class:`ServiceServer` exposes one :class:`~repro.service.queue.JobQueue`
over HTTP, turning the one-shot batch CLI into a long-lived multi-tenant
service:

========================  =====================================================
``POST /jobs``            submit one :class:`~repro.jobs.spec.JobSpec`; 202
                          with the content-hash id (429 + queue-depth headers
                          when the tenant's quota is full)
``POST /campaigns``       submit a generated campaign (``monte_carlo`` /
                          ``pvt_corners`` / ``param_sweep`` / ``single`` /
                          ``ensemble``), atomically quota-checked
``GET /jobs/{id}``        queue status of one job
``GET /jobs/{id}/result`` the cached deterministic result payload
``GET /jobs/{id}/waveform``  just the times/signals arrays
``GET /campaigns/{id}``   campaign rollup (counts per status, done flag)
``GET /campaigns/{id}/stream``  chunked ``application/x-ndjson`` heartbeat
                          stream (one Heartbeat record per tick) until done
``GET /metrics``          Prometheus exposition + live queue-depth gauges
``GET /healthz``          JSON liveness: actual bound host/port, queue counts
``GET /stats``            queue depths, per-tenant rollups, raw counters
========================  =====================================================

The server itself never runs a simulation: it only writes queue entries
and reads the shared result cache. Any number of
:class:`~repro.service.node.FarmNode` processes (or the in-process worker
threads started with ``workers > 0``) drain the queue — that separation
is what lets a node be SIGKILLed, restarted, or added mid-campaign
without the front end noticing beyond a lease hand-off.
"""

from __future__ import annotations

import io
import json
import logging
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.errors import ReproError, SimulationError
from repro.instrument.exporters import write_jsonl
from repro.instrument.prometheus import CONTENT_TYPE, metric_name, to_prometheus
from repro.instrument.recorder import Recorder, resolve_recorder
from repro.instrument.telemetry import (
    _TENANT_SAFE,
    Heartbeat,
    tenant_counter,
    tenant_rollups,
)
from repro.instrument.tracectx import TraceContext
from repro.jobs.cache import ResultCache
from repro.jobs.campaign import monte_carlo, param_sweep, pvt_corners, single
from repro.jobs.spec import JobSpec
from repro.service.node import RESULTS_DIR, FarmNode
from repro.service.queue import JobQueue, QuotaExceeded
from repro.service.trace import TraceStore, build_campaign_trace

logger = logging.getLogger("repro.service")

#: Campaign generator kinds accepted by ``POST /campaigns``. ``ensemble``
#: is Monte Carlo traffic flagged for lockstep batching: the specs are
#: identical to ``monte_carlo`` output (same topology, jittered params),
#: which is exactly what an ensemble-backend node batches into one
#: vectorised solve after claiming them together.
GENERATOR_KINDS = ("monte_carlo", "pvt_corners", "param_sweep", "single", "ensemble")

#: Default tick of the campaign heartbeat stream, seconds.
STREAM_INTERVAL = 0.5

#: Largest request body read, bytes. The biggest legitimate body is a
#: deck of a few KB inside a spec; a larger ``Content-Length`` is refused
#: with 413 before a byte of it is read.
MAX_BODY_BYTES = 8 * 1024 * 1024

# tenant_counter / _TENANT_SAFE used to live here; they moved to
# repro.instrument.telemetry (the farm nodes meter per-tenant channels
# too, and instrument must not import the service layer). Re-exported
# above for existing importers.


def spec_from_payload(data: dict) -> JobSpec:
    """A JobSpec from a request payload.

    Accepts the full :meth:`JobSpec.to_dict` shape; as a convenience,
    ``circuit`` may be a bare string (a registry benchmark name).
    """
    if not isinstance(data, dict):
        raise SimulationError("job spec must be a JSON object")
    payload = dict(data)
    circuit = payload.get("circuit")
    if isinstance(circuit, str):
        payload["circuit"] = {"kind": "registry", "name": circuit}
    try:
        return JobSpec.from_dict(payload)
    except (KeyError, TypeError) as exc:
        raise SimulationError(f"malformed job spec: {exc!r}") from None


def build_campaign(base: JobSpec, generator: dict):
    """Materialise a campaign from a request's generator payload."""
    if not isinstance(generator, dict):
        raise SimulationError("campaign generator must be a JSON object")
    kind = generator.get("kind")
    if kind not in GENERATOR_KINDS:
        raise SimulationError(
            f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}"
        )
    if kind in ("monte_carlo", "ensemble"):
        campaign = monte_carlo(
            base,
            n=int(generator.get("n", 8)),
            seed=int(generator.get("seed", 0)),
            jitter=float(generator.get("jitter", 0.05)),
            components=generator.get("components"),
        )
        if kind == "ensemble":
            campaign.generator = dict(campaign.generator, kind="ensemble")
        return campaign
    if kind == "pvt_corners":
        return pvt_corners(base, corners=generator.get("corners"))
    if kind == "param_sweep":
        return param_sweep(
            base, generator["component"], generator.get("values") or []
        )
    return single(base)


class CampaignHeartbeat(Heartbeat):
    """Heartbeat whose job-progress bucket tracks one queue campaign.

    The stock :class:`Heartbeat` derives progress from scheduler counters
    — the right view for a single in-process campaign, the wrong one for
    a shared farm where many campaigns interleave on the same recorder.
    This subclass reads the queue's campaign rollup instead, so each
    stream reports only its own campaign's jobs, and annotates every
    record with the full per-status count map.
    """

    def __init__(self, recorder, queue: JobQueue, campaign: str, interval: float):
        super().__init__(recorder, interval=interval)
        self.queue = queue
        self.campaign = campaign
        self._rollup: dict | None = None

    def sample(self, final: bool = False) -> dict:
        self._rollup = self.queue.campaign_status(self.campaign)
        final = final or self.done  # settled campaign => this tick is the last
        record = super().sample(final=final)
        if self._rollup is not None:
            record["campaign"] = {
                key: self._rollup[key]
                for key in ("id", "name", "jobs", "counts", "done")
            }
        return record

    def _job_progress(self, counters: dict) -> dict:
        rollup = self._rollup
        if rollup is None:
            return super()._job_progress(counters)
        counts = rollup["counts"]
        self.total_jobs = rollup["jobs"]  # lets the base ETA derivation run
        return {
            "total": rollup["jobs"],
            "done": counts.get("done", 0),
            "failed": counts.get("failed", 0),
            "cached": 0,
        }

    @property
    def done(self) -> bool:
        return bool(self._rollup and self._rollup["done"])


class ServiceServer:
    """The farm's HTTP front end (queue writer + cache reader).

    Args:
        root: queue directory shared with the farm nodes.
        recorder: Recorder for ``service.*`` counters; a fresh
            event-free one by default.
        host / port: bind address; ``port=0`` takes an ephemeral port
            (read ``server.port`` after :meth:`start`; also reported by
            ``/healthz`` and the startup log line).
        quota: per-tenant active-job cap (None disables 429s).
        max_attempts: claim attempts before a job is failed.
        workers: in-process :class:`FarmNode` threads to start alongside
            the front end (0 = accept-only; run ``repro node``
            separately).
        backend / node_workers / batch / lease_seconds: configuration of
            those in-process nodes.
        request_log: path of a structured JSONL request log (one object
            per metered request: timestamp, method, route, tenant,
            status, duration, trace id), or None to disable.
    """

    def __init__(
        self,
        root,
        recorder=None,
        host: str = "127.0.0.1",
        port: int = 0,
        quota: int | None = None,
        max_attempts: int = 3,
        workers: int = 0,
        backend="serial",
        node_workers: int = 1,
        batch: int = 1,
        lease_seconds: float = 30.0,
        poll_interval: float = 0.05,
        request_log=None,
    ):
        self.root = Path(root)
        self.recorder = (
            recorder if recorder is not None else Recorder(capture_events=False)
        )
        self.host = host
        self._requested_port = port
        self.queue = JobQueue(self.root, quota=quota, max_attempts=max_attempts)
        self.cache = ResultCache(self.root / RESULTS_DIR)
        self.traces = TraceStore(self.root)
        self.request_log_path = Path(request_log) if request_log else None
        self._request_log_handle = None
        self._request_log_lock = threading.Lock()
        self.workers = workers
        self._node_config = {
            "backend": backend,
            "workers": node_workers,
            "batch": batch,
            "lease_seconds": lease_seconds,
            "poll_interval": poll_interval,
        }
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._node_threads: list[threading.Thread] = []
        self._nodes: list[FarmNode] = []
        self._stop_nodes = threading.Event()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        if self._httpd is not None:
            return self
        # Touch the store before binding: a root this version cannot
        # serve (a v1 manifest, a foreign schema) fails the start, not
        # every request.
        self.queue.counts()
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        self._stop_nodes.clear()
        for index in range(self.workers):
            node = FarmNode(
                self.root,
                node_id=f"serve-{self.port}-w{index}",
                instrument=self.recorder,
                **self._node_config,
            )
            thread = threading.Thread(
                target=node.run,
                kwargs={"stop": self._stop_nodes},
                name=f"repro-farm-{index}",
                daemon=True,
            )
            thread.start()
            self._nodes.append(node)
            self._node_threads.append(thread)
        logger.info(
            "service listening on http://%s:%d (queue %s, %d worker node(s))",
            self.host,
            self.port,
            self.root,
            self.workers,
        )
        return self

    def stop(self) -> None:
        self._stop_nodes.set()
        for thread in self._node_threads:
            thread.join()
        for node in self._nodes:
            node.close()
        self._node_threads.clear()
        self._nodes.clear()
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join()
        self.queue.close()
        with self._request_log_lock:
            handle, self._request_log_handle = self._request_log_handle, None
            if handle is not None:
                handle.close()

    def log_request(self, record: dict) -> None:
        """Append one JSONL record to the request log (no-op when off)."""
        if self.request_log_path is None:
            return
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._request_log_lock:
            if self._request_log_handle is None:
                self._request_log_handle = open(
                    self.request_log_path, "a", encoding="utf-8"
                )
            self._request_log_handle.write(line)
            self._request_log_handle.flush()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request-side helpers (called from handler threads) ----------------------

    def submit_job(self, payload: dict, tenant: str, trace=None) -> dict:
        spec = spec_from_payload(payload.get("spec") or {})
        priority = int(payload.get("priority", 0))
        receipt = self.queue.submit(
            spec, tenant=tenant, priority=priority, trace=trace
        )
        rec = resolve_recorder(self.recorder)
        rec.count("service.submitted")
        rec.count(tenant_counter(tenant, "submitted"))
        if receipt.deduped:
            rec.count("service.deduped")
            rec.count(tenant_counter(tenant, "deduped"))
        out = {
            "id": receipt.spec_hash,
            "status": receipt.status,
            "created": receipt.created,
            "deduped": receipt.deduped,
            "queue_depth": receipt.queue_depth,
            "tenant_depth": receipt.tenant_depth,
        }
        if trace is not None:
            out["trace_id"] = trace.trace_id
        return out

    def submit_campaign(self, payload: dict, tenant: str, trace=None) -> dict:
        base = spec_from_payload(payload.get("spec") or {})
        campaign = build_campaign(base, payload.get("generator") or {})
        if payload.get("name"):
            campaign.name = str(payload["name"])
        priority = int(payload.get("priority", 0))
        cid, receipts = self.queue.submit_campaign(
            campaign.name,
            campaign.jobs,
            generator=campaign.generator,
            tenant=tenant,
            priority=priority,
            trace=trace,
        )
        rec = resolve_recorder(self.recorder)
        rec.count("service.campaigns")
        rec.count(tenant_counter(tenant, "campaigns"))
        created = sum(1 for r in receipts if r.created)
        deduped = len(receipts) - created
        # Same metering as /jobs: every accepted member counts as
        # submitted, dedups separately — so farm-wide,
        # service.submitted - service.deduped == jobs actually enqueued.
        rec.count("service.submitted", len(receipts))
        rec.count(tenant_counter(tenant, "submitted"), len(receipts))
        if deduped:
            rec.count("service.deduped", deduped)
            rec.count(tenant_counter(tenant, "deduped"), deduped)
        out = {
            "id": cid,
            "name": campaign.name,
            "generator": campaign.generator,
            "jobs": [r.spec_hash for r in receipts],
            "submitted": created,
            "deduped": deduped,
            "queue_depth": receipts[0].queue_depth,
            "tenant_depth": receipts[0].tenant_depth,
        }
        if trace is not None:
            out["trace_id"] = trace.trace_id
        return out

    def reject(self, exc: QuotaExceeded) -> None:
        rec = resolve_recorder(self.recorder)
        rec.count("service.rejected.quota")
        rec.count(tenant_counter(exc.tenant, "rejected"))

    def metrics_text(self) -> str:
        """Prometheus exposition: recorder state + live queue gauges."""
        text = to_prometheus(self.recorder)
        lines = [text.rstrip("\n")]
        depth_metric = metric_name("service.queue_depth")
        lines.append(f"# HELP {depth_metric} active (pending+leased) jobs")
        lines.append(f"# TYPE {depth_metric} gauge")
        lines.append(f"{depth_metric} {self.queue.depth()}")
        for tenant, depth in sorted(self.queue.depths_by_tenant().items()):
            safe = _TENANT_SAFE.sub("_", tenant)
            lines.append(f'{depth_metric}{{tenant="{safe}"}} {depth}')
        return "\n".join(lines) + "\n"

    def healthz(self) -> dict:
        return {
            "status": "ok",
            "host": self.host,
            "port": self.port,
            "queue": self.queue.counts(),
            "workers": self.workers,
        }

    def stats(self) -> dict:
        snap = self.recorder.snapshot()
        return {
            "queue": self.queue.counts(),
            "depth": self.queue.depth(),
            "depths_by_tenant": self.queue.depths_by_tenant(),
            "tenants": tenant_rollups(snap["counters"]),
            "counters": snap["counters"],
        }


#: route key -> compiled path pattern (GET routes with one capture group).
_GET_ROUTES = [
    ("job_result", re.compile(r"^/jobs/([0-9a-f]{64})/result$")),
    ("job_waveform", re.compile(r"^/jobs/([0-9a-f]{64})/waveform$")),
    ("job_status", re.compile(r"^/jobs/([0-9a-f]{64})$")),
    ("campaign_stream", re.compile(r"^/campaigns/([0-9a-f]+)/stream$")),
    ("campaign_status", re.compile(r"^/campaigns/([0-9a-f]+)$")),
    ("trace", re.compile(r"^/trace/([0-9a-f]+)$")),
]

#: Routes excluded from the request-duration histogram: a campaign
#: stream stays open for the campaign's whole life, so folding it into
#: ``service.request_duration`` would swamp the API-latency signal.
_UNMETERED_DURATION = frozenset({"campaign_stream"})


class _RequestError(Exception):
    """A request refused before it reached the queue (status + message)."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(message)


def _make_handler(server: ServiceServer):
    rec = resolve_recorder(server.recorder)

    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.1 enables chunked transfer coding for /stream responses
        # (every other response carries an explicit Content-Length).
        protocol_version = "HTTP/1.1"

        # -- plumbing --------------------------------------------------------

        def _count(self, route: str) -> None:
            rec.count("service.requests")
            rec.count(f"service.requests.{route}")

        def _observe(
            self, route: str, tenant: str, t0: float, ctx=None
        ) -> None:
            """Per-tenant RED telemetry + request log for one request.

            Rate rides on ``service.requests`` / the per-tenant request
            counter, Errors on any >= 400 response, Duration on the
            log2 histogram pair (global + per-tenant) — except for the
            wall-clock-long stream route, which is counted but not
            duration-observed.
            """
            duration = time.perf_counter() - t0
            status = getattr(self, "_last_code", 0)
            rec.count(tenant_counter(tenant, "requests"))
            if status >= 400:
                rec.count("service.errors")
                rec.count(tenant_counter(tenant, "errors"))
            if route not in _UNMETERED_DURATION:
                rec.observe("service.request_duration", duration)
                rec.observe(
                    tenant_counter(tenant, "request_duration"), duration
                )
            server.log_request(
                {
                    "ts": round(time.time(), 6),
                    "method": self.command,
                    "path": self.path,
                    "route": route,
                    "tenant": tenant,
                    "status": status,
                    "duration_ms": round(duration * 1000.0, 3),
                    "trace_id": ctx.trace_id if ctx is not None else None,
                }
            )

        def _send_json(self, code: int, payload: dict, headers=None) -> None:
            self._last_code = code
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _tenant(self, payload: dict) -> str:
            header = self.headers.get("X-Tenant")
            tenant = payload.get("tenant") or header or "default"
            return str(tenant)

        def _read_body(self) -> dict:
            header = self.headers.get("Content-Length")
            try:
                length = int(header or 0)
            except ValueError:
                length = -1
            if length < 0:
                raise _RequestError(400, f"bad Content-Length {header!r}")
            if length > MAX_BODY_BYTES:
                raise _RequestError(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                )
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return {}
            try:
                payload = json.loads(raw)
            except ValueError as exc:
                raise _RequestError(400, f"bad request body: {exc}") from None
            if not isinstance(payload, dict):
                raise _RequestError(
                    400, "bad request body: request body must be a JSON object"
                )
            return payload

        def _query(self) -> tuple[str, dict]:
            path, _, query = self.path.partition("?")
            out: dict[str, str] = {}
            for part in query.split("&"):
                if "=" in part:
                    key, _, value = part.partition("=")
                    out[key] = value
            return path, out

        # -- verbs -----------------------------------------------------------

        def do_POST(self):  # noqa: N802 (http.server API)
            t0 = time.perf_counter()
            path, _ = self._query()
            tenant = str(self.headers.get("X-Tenant") or "default")
            ctx = None
            if path == "/jobs":
                submit, route = server.submit_job, "jobs_post"
            elif path == "/campaigns":
                submit, route = server.submit_campaign, "campaigns_post"
            else:
                self._count("unknown")
                self._send_json(404, {"error": f"no such endpoint {path}"})
                self._observe("unknown", tenant, t0)
                return
            self._count(route)
            try:
                try:
                    payload = self._read_body()
                except _RequestError as exc:
                    # The body may be unread, so the connection cannot
                    # carry another request.
                    self._send_json(
                        exc.status, {"error": str(exc)},
                        headers={"Connection": "close"},
                    )
                    return
                tenant = self._tenant(payload)
                # Ingress minting: honour a propagated W3C traceparent
                # (the tenant header wins over whatever the context
                # claims), mint a fresh server-origin context otherwise.
                ctx = TraceContext.from_headers(self.headers, tenant=tenant)
                ctx = (
                    ctx.bound(tenant=tenant)
                    if ctx is not None
                    else TraceContext.mint(tenant=tenant, origin="server")
                )
                try:
                    self._send_json(202, submit(payload, tenant, trace=ctx))
                except QuotaExceeded as exc:
                    server.reject(exc)
                    self._send_json(
                        429,
                        {
                            "error": str(exc),
                            "tenant": exc.tenant,
                            "depth": exc.depth,
                            "quota": exc.quota,
                        },
                        headers={
                            "Retry-After": "1",
                            "X-Queue-Depth": str(exc.queue_depth),
                            "X-Tenant-Queue-Depth": str(exc.depth),
                        },
                    )
                except ReproError as exc:
                    self._send_json(400, {"error": str(exc)})
            finally:
                self._observe(route, tenant, t0, ctx)

        def do_GET(self):  # noqa: N802 (http.server API)
            path, query = self._query()
            # Monitoring probes (/metrics, /healthz, /stats) are served
            # but not metered: scrape and drain-poll cadence is wall
            # clock, and letting it leak into service.requests.* would
            # make otherwise-identical workloads count differently.
            if path == "/metrics":
                body = server.metrics_text().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return
            if path == "/healthz":
                self._send_json(200, server.healthz())
                return
            if path == "/stats":
                self._send_json(200, server.stats())
                return
            t0 = time.perf_counter()
            tenant = str(self.headers.get("X-Tenant") or "default")
            for route, pattern in _GET_ROUTES:
                match = pattern.match(path)
                if match:
                    self._count(route)
                    try:
                        getattr(self, f"_get_{route}")(match.group(1), query)
                    finally:
                        self._observe(route, tenant, t0)
                    return
            self._count("unknown")
            self._send_json(404, {"error": f"no such endpoint {path}"})
            self._observe("unknown", tenant, t0)

        # -- GET routes -------------------------------------------------------

        def _get_job_status(self, spec_hash: str, query: dict) -> None:
            status = server.queue.status(spec_hash)
            if status is None:
                self._send_json(404, {"error": f"unknown job {spec_hash}"})
                return
            self._send_json(200, status)

        def _result_or_error(self, spec_hash: str):
            status = server.queue.status(spec_hash)
            if status is None:
                self._send_json(404, {"error": f"unknown job {spec_hash}"})
                return None
            if status["status"] != "done":
                self._send_json(
                    409,
                    {
                        "error": f"result not ready (job is {status['status']})",
                        "status": status["status"],
                        "attempts": status["attempts"],
                        "job_error": status["error"],
                    },
                )
                return None
            result = server.cache.get(spec_hash)
            if result is None:
                self._send_json(
                    404, {"error": f"result bytes for {spec_hash} were evicted"}
                )
                return None
            return result

        def _get_job_result(self, spec_hash: str, query: dict) -> None:
            result = self._result_or_error(spec_hash)
            if result is None:
                return
            rec.count("service.results_served")
            self._send_json(200, result.to_dict())

        def _get_job_waveform(self, spec_hash: str, query: dict) -> None:
            result = self._result_or_error(spec_hash)
            if result is None:
                return
            rec.count("service.results_served")
            self._send_json(
                200,
                {
                    "id": spec_hash,
                    "label": result.label,
                    "final_time": result.final_time,
                    "times": result.times,
                    "signals": result.signals,
                },
            )

        def _get_campaign_status(self, cid: str, query: dict) -> None:
            rollup = server.queue.campaign_status(cid)
            if rollup is None:
                self._send_json(404, {"error": f"unknown campaign {cid}"})
                return
            self._send_json(200, rollup)

        def _get_trace(self, cid: str, query: dict) -> None:
            """Stream the stitched cross-node campaign trace as JSONL.

            The body is a standard ``repro-trace-v1`` dump (header,
            event rows, summary footer) — exactly what ``repro explain``
            and ``repro explain --html`` consume.
            """
            trace_rec = build_campaign_trace(server.queue, server.traces, cid)
            if trace_rec is None:
                self._send_json(404, {"error": f"unknown campaign {cid}"})
                return
            rec.count("service.traces_served")
            buffer = io.StringIO()
            write_jsonl(trace_rec, buffer)
            body = buffer.getvalue().encode("utf-8")
            self._last_code = 200
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _get_campaign_stream(self, cid: str, query: dict) -> None:
            if server.queue.campaign_status(cid) is None:
                self._send_json(404, {"error": f"unknown campaign {cid}"})
                return
            try:
                interval = float(query.get("interval", STREAM_INTERVAL))
            except ValueError:
                interval = STREAM_INTERVAL
            interval = min(max(interval, 0.02), 30.0)
            heartbeat = CampaignHeartbeat(
                server.recorder, server.queue, cid, interval
            ).prime()
            self._last_code = 200
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()

            def chunk(data: bytes) -> None:
                self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
                self.wfile.write(data + b"\r\n")

            try:
                while True:
                    record = heartbeat.sample()
                    chunk(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
                    self.wfile.flush()
                    if record["final"]:
                        break
                    time.sleep(interval)
                self.wfile.write(b"0\r\n\r\n")
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-stream; nothing to clean up

        def log_message(self, *args):  # route logging via `logging`, not stderr
            logger.debug("%s - %s", self.address_string(), args)

    return Handler


def serve(root, **kwargs) -> ServiceServer:
    """Start (and return) a :class:`ServiceServer` over *root*."""
    return ServiceServer(root, **kwargs).start()
