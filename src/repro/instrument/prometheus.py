"""Prometheus text-format exposition of recorder state.

:func:`to_prometheus` renders a recorder (or a portable ``snapshot()``
dict) in the Prometheus text exposition format (version 0.0.4):

* every counter becomes ``repro_<name>_total`` (dots and other invalid
  characters fold to ``_``), e.g. ``newton.iterations`` →
  ``repro_newton_iterations_total``;
* every histogram becomes a native Prometheus histogram: cumulative
  ``_bucket{le="..."}`` lines derived from the recorder's log2 buckets
  (upper bound ``2**(b+1)`` for bucket *b*), plus ``_sum`` and
  ``_count``;
* per-tenant service channels (``service.tenant.<tenant>.<metric>``,
  minted by :func:`~repro.instrument.telemetry.tenant_counter`) fold
  into **labeled** samples of one family per metric —
  ``repro_service_requests_total{tenant="acme"}`` rather than a metric
  name per tenant — so dashboards can aggregate and slice by the
  ``tenant`` label. The unlabeled sample of the same family (the
  all-tenants channel, e.g. ``service.requests``) is emitted first when
  present.

:class:`MetricsServer` serves that rendering on a plain
``http.server``-based ``/metrics`` endpoint — no third-party client
library, scrape-ready — which the CLI exposes as ``--serve-metrics
PORT`` for long campaigns.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

logger = logging.getLogger(__name__)

#: Metric-name prefix for everything the engine exports.
NAMESPACE = "repro"

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")

#: text exposition content type, as scraped by Prometheus.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def metric_name(name: str, namespace: str = NAMESPACE) -> str:
    """Fold a recorder channel name into a valid Prometheus metric name."""
    folded = _INVALID.sub("_", name)
    if folded and folded[0].isdigit():
        folded = "_" + folded
    return f"{namespace}_{folded}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _split_tenant(name: str):
    """``(family_channel, tenant)`` for a per-tenant service channel.

    ``service.tenant.acme.requests`` → ``("service.requests", "acme")``;
    None for every other channel. The tenant segment is dot-free by
    construction (:func:`~repro.instrument.telemetry.tenant_counter`
    sanitizes it), so the first dot after the prefix is the boundary.
    """
    from repro.instrument.telemetry import TENANT_PREFIX

    if not name.startswith(TENANT_PREFIX):
        return None
    tenant, _, metric = name[len(TENANT_PREFIX):].partition(".")
    if not tenant or not metric:
        return None
    return f"service.{metric}", tenant


def _histogram_samples(lines: list, metric: str, data: dict,
                       label: str = "") -> None:
    """Append one histogram's bucket/sum/count samples to *lines*."""
    prefix = f"{label}," if label else ""
    suffix = f"{{{label}}}" if label else ""
    cumulative = 0
    buckets = {int(b): int(n) for b, n in (data.get("buckets") or {}).items()}
    for bucket in sorted(buckets):
        cumulative += buckets[bucket]
        le = 2.0 ** (bucket + 1)
        lines.append(f'{metric}_bucket{{{prefix}le="{le!r}"}} {cumulative}')
    count = int(data.get("count", 0))
    lines.append(f'{metric}_bucket{{{prefix}le="+Inf"}} {count}')
    lines.append(f"{metric}_sum{suffix} {_format_value(float(data.get('total', 0.0)))}")
    lines.append(f"{metric}_count{suffix} {count}")


def to_prometheus(source, namespace: str = NAMESPACE) -> str:
    """Render *source* (Recorder or snapshot dict) as exposition text."""
    snap = source if isinstance(source, dict) else source.snapshot()
    lines: list[str] = []

    plain_counters: dict[str, float] = {}
    tenant_counters: dict[str, dict[str, float]] = {}
    for name, value in (snap.get("counters") or {}).items():
        split = _split_tenant(name)
        if split is None:
            plain_counters[name] = value
        else:
            family, tenant = split
            tenant_counters.setdefault(family, {})[tenant] = value
    for name in sorted(set(plain_counters) | set(tenant_counters)):
        metric = metric_name(name, namespace) + "_total"
        lines.append(f"# HELP {metric} repro counter {name}")
        lines.append(f"# TYPE {metric} counter")
        if name in plain_counters:
            lines.append(f"{metric} {_format_value(plain_counters[name])}")
        for tenant in sorted(tenant_counters.get(name, ())):
            lines.append(
                f'{metric}{{tenant="{tenant}"}} '
                f"{_format_value(tenant_counters[name][tenant])}"
            )

    plain_hists: dict[str, dict] = {}
    tenant_hists: dict[str, dict[str, dict]] = {}
    for name, data in (snap.get("histograms") or {}).items():
        split = _split_tenant(name)
        if split is None:
            plain_hists[name] = data
        else:
            family, tenant = split
            tenant_hists.setdefault(family, {})[tenant] = data
    for name in sorted(set(plain_hists) | set(tenant_hists)):
        metric = metric_name(name, namespace)
        lines.append(f"# HELP {metric} repro histogram {name}")
        lines.append(f"# TYPE {metric} histogram")
        if name in plain_hists:
            _histogram_samples(lines, metric, plain_hists[name])
        for tenant in sorted(tenant_hists.get(name, ())):
            _histogram_samples(
                lines, metric, tenant_hists[name][tenant],
                label=f'tenant="{tenant}"',
            )
    counters = snap.get("counters") or {}
    useful = counters.get("speculate.useful_work")
    wasted = counters.get("speculate.wasted_work")
    if useful is not None or wasted is not None:
        # Derived gauge: fraction of speculative work units that paid off.
        # Only emitted when a pipelined scheme actually speculated, so
        # sequential scrapes stay byte-identical to earlier releases.
        total = float(useful or 0.0) + float(wasted or 0.0)
        efficiency = float(useful or 0.0) / total if total > 0 else 0.0
        metric = f"{namespace}_speculation_efficiency"
        lines.append(f"# HELP {metric} useful fraction of speculative work units")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(efficiency)}")
    dropped = snap.get("dropped_events", 0)
    metric = f"{namespace}_instrument_dropped_events"
    lines.append(f"# HELP {metric} trace events not retained by the recorder")
    lines.append(f"# TYPE {metric} gauge")
    lines.append(f"{metric} {int(dropped)}")
    return "\n".join(lines) + "\n"


class MetricsServer:
    """Background ``/metrics`` endpoint over one recorder.

    ``port=0`` binds an ephemeral port; after :meth:`start` the actual
    one is available as ``server.port``, is logged, and is reported in
    the ``/healthz`` JSON body — so scrapers (and tests) never have to
    guess which port the kernel handed out. Only ``GET /metrics`` (plus
    ``/healthz``) is served; everything else is 404.
    """

    def __init__(self, recorder, port: int = 0, host: str = "127.0.0.1"):
        self.recorder = recorder
        self.host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            return self
        recorder = self.recorder
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (http.server API)
                if self.path.split("?")[0] == "/metrics":
                    body = to_prometheus(recorder).encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", CONTENT_TYPE)
                elif self.path == "/healthz":
                    # The *actual* bound address: with port=0 the kernel
                    # picked an ephemeral port, and health probes are the
                    # one place a client can discover it.
                    payload = {
                        "status": "ok",
                        "host": server.host,
                        "port": server.port,
                    }
                    body = (json.dumps(payload, sort_keys=True) + "\n").encode(
                        "utf-8"
                    )
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                else:
                    body = b"try /metrics\n"
                    self.send_response(404)
                    self.send_header("Content-Type", "text/plain")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence per-request stderr noise
                pass

        self._httpd = ThreadingHTTPServer((self.host, self._requested_port), Handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        logger.info(
            "metrics server listening on http://%s:%d/metrics", self.host, self.port
        )
        return self

    def stop(self) -> None:
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_metrics(recorder, port: int = 0, host: str = "127.0.0.1") -> MetricsServer:
    """Start (and return) a :class:`MetricsServer` for *recorder*."""
    return MetricsServer(recorder, port=port, host=host).start()
