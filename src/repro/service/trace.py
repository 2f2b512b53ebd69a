"""Cross-node trace records and the campaign trace stitcher.

Two halves:

* :class:`TraceStore` — one JSON record per settled job under
  ``<root>/traces/``, written by the farm node that settled it. A record
  carries the wall-clock milestones of the job's life (enqueue, claim,
  settle), the paying submission's trace context, and the worker
  recorder's portable snapshot (counters, histograms, the span-event
  tail). The store is *observability* data: it lives beside — never
  inside — ``<root>/results/``, whose bytes must stay identical no
  matter who asked or which node answered.
* :func:`build_campaign_trace` — the stitcher. It reads the queue
  entries plus the per-job records and synthesizes one span tree per
  campaign: a ``service_request`` root per originating trace id, a
  ``service_job`` per queue entry, and ``queue_wait`` / ``service_solve``
  / ``result_upload`` children whose costs are wall-clock **seconds**
  (the one tier where wall time *is* the quantity being explained: the
  question "where did my request's latency go?" has no virtual-clock
  answer). Worker span snapshots are re-parented under the job's
  ``service_solve`` span, so a single ``repro explain`` walks from the
  request, through the queue, into the Newton iterations of whichever
  node solved it. Dedup-served duplicate submissions appear as zero-cost
  ``service_dedup`` children of the job that paid for the miss.

The synthesized geometry is guaranteed to nest: every parent interval is
computed to envelop its children (with a small explicit margin, since
the span validator's float slack is tight), and a worker tail is only
merged after the enclosing solve span has been widened to contain the
tail's extent. A malformed stitched trace would fail
``repro explain --check`` — the CI gate — so containment is constructed,
not hoped for.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro.instrument.events import (
    QUEUE_WAIT,
    RESULT_UPLOAD,
    SERVICE_DEDUP,
    SERVICE_JOB,
    SERVICE_REQUEST,
    SERVICE_SOLVE,
)
from repro.instrument.recorder import Recorder

#: Subdirectory of the queue root holding per-job trace records.
TRACES_DIR = "traces"

#: Margin (seconds) parents extend past their children's envelope. Far
#: above float slack, far below anything visible at request latency
#: scale.
_PAD = 1e-6

#: Key used to group jobs whose submission carried no trace context.
UNTRACED = "untraced"


class TraceStore:
    """Per-job trace records under ``<root>/traces/`` (atomic writes).

    Records are keyed by spec hash — the same key as the queue entry and
    the result cache — and the latest settle wins: when a re-leased job
    settles on a second node, its record (same trace id, higher attempt
    count) replaces the never-written record of the SIGKILLed first
    claimant.
    """

    def __init__(self, root):
        self.root = Path(root) / TRACES_DIR
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, spec_hash: str) -> Path:
        return self.root / f"{spec_hash}.json"

    def put(self, spec_hash: str, record: dict) -> None:
        """Write one record atomically (temp file + ``os.replace``)."""
        payload = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        tmp = self.path(spec_hash).with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}"
        )
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, self.path(spec_hash))

    def get(self, spec_hash: str) -> dict | None:
        """The record for *spec_hash*, or None (missing/torn → None)."""
        try:
            with open(self.path(spec_hash), encoding="utf-8") as handle:
                return json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None


def _tail_extent(telemetry: dict | None) -> float:
    """Wall-seconds the snapshot's event tail spans (0 when eventless)."""
    rows = (telemetry or {}).get("events_tail") or ()
    if not rows:
        return 0.0
    start = min(row["ts"] for row in rows)
    end = max(row["ts"] + (row.get("dur") or 0.0) for row in rows)
    return max(end - start, 0.0)


def _job_geometry(entry: dict, record: dict | None, t0: float) -> dict | None:
    """Relative span intervals for one queue entry, or None when the job
    has no usable timestamps at all (legacy entries)."""
    enqueued = entry.get("enqueued")
    claimed = (record or {}).get("claimed", entry.get("claimed"))
    settled = (record or {}).get("settled", entry.get("settled"))
    if enqueued is None:
        enqueued = claimed if claimed is not None else settled
    if enqueued is None:
        return None
    enq = enqueued - t0
    if claimed is None:  # still pending / never claimed: a waiting stub
        return {"enq": enq, "claim": None, "settle": None}
    claim = max(claimed - t0, enq)
    settle = max((settled - t0) if settled is not None else claim, claim)
    elapsed = min(max(float((record or {}).get("elapsed") or 0.0), 0.0),
                  settle - claim)
    solve_end = claim + elapsed
    solve_start = claim
    extent = _tail_extent((record or {}).get("telemetry"))
    if extent > elapsed:
        # The worker measured more traced wall time than the lease
        # bookkeeping credits (clock skew between hosts, a settle clamped
        # by a racing reap). Widen the solve span so the re-parented tail
        # still nests; the report ranks by cost, which stays `elapsed`.
        solve_start = solve_end - extent - _PAD
    return {
        "enq": enq,
        "claim": claim,
        "settle": settle,
        "solve_start": solve_start,
        "solve_end": solve_end,
        "elapsed": elapsed,
    }


def build_campaign_trace(queue, store: TraceStore, cid: str) -> Recorder | None:
    """Stitch one campaign's cross-node trace into a fresh Recorder.

    Returns None when the campaign id is unknown. The recorder's event
    log holds the synthesized service-tier tree with worker snapshots
    re-parented beneath it; export it with
    :func:`repro.instrument.exporters.write_jsonl` and feed the dump to
    ``repro explain``.
    """
    campaign = queue.campaign(cid)
    if campaign is None:
        return None
    hashes = list(dict.fromkeys(campaign["jobs"]))
    entries = queue.entries(hashes)
    records = {h: store.get(h) for h in entries}

    # Epoch: the earliest timestamp any member knows about, so every
    # synthesized span lands at a small positive offset.
    anchors = []
    for spec_hash, entry in entries.items():
        record = records[spec_hash] or {}
        for key in ("enqueued", "claimed", "settled"):
            value = entry.get(key, record.get(key))
            if value is not None:
                anchors.append(value)
    t0 = min(anchors) if anchors else 0.0

    rec = Recorder(max_events=max(4096, 128 * max(len(hashes), 1)))

    # Pass 1: geometry per job, grouped by paying trace id.
    geo: dict[str, dict] = {}
    groups: dict[str, list[str]] = {}
    for spec_hash in hashes:
        entry = entries.get(spec_hash)
        if entry is None:
            continue
        g = _job_geometry(entry, records[spec_hash], t0)
        if g is None:
            continue
        geo[spec_hash] = g
        trace = entry.get("trace") or {}
        groups.setdefault(trace.get("trace_id") or UNTRACED, []).append(spec_hash)

    # Pass 2: one request root per trace id, then its jobs beneath it.
    for trace_id in sorted(groups):
        members = groups[trace_id]
        starts, ends, total_cost = [], [], 0.0
        for spec_hash in members:
            g = geo[spec_hash]
            end = g["settle"] if g["settle"] is not None else g["enq"]
            starts.append(min(g["enq"], g.get("solve_start", g["enq"])))
            ends.append(end)
            total_cost += max(end - g["enq"], 0.0)
        req_ts = min(starts) - _PAD
        req_end = max(ends) + _PAD
        first = entries[members[0]].get("trace") or {}
        root = rec.emit_span(
            SERVICE_REQUEST,
            ts=req_ts,
            dur=req_end - req_ts,
            cost=total_cost,
            trace_id=trace_id,
            tenant=first.get("tenant", "default"),
            origin=first.get("origin", "unknown"),
            jobs=len(members),
        )
        for spec_hash in members:
            entry = entries[spec_hash]
            record = records[spec_hash] or {}
            g = geo[spec_hash]
            trace = entry.get("trace") or {}
            if g["claim"] is None:
                rec.emit_span(
                    SERVICE_JOB,
                    ts=g["enq"],
                    dur=0.0,
                    parent=root,
                    cost=0.0,
                    outcome=entry["status"],
                    status=entry["status"],
                    label=entry.get("label", ""),
                    hash=spec_hash[:12],
                    tenant=trace.get("tenant", "default"),
                    trace_id=trace.get("trace_id"),
                )
                continue
            job_ts = min(g["enq"], g["solve_start"]) - _PAD / 2
            job_end = g["settle"] + _PAD / 2
            job = rec.emit_span(
                SERVICE_JOB,
                ts=job_ts,
                dur=job_end - job_ts,
                parent=root,
                cost=max(g["settle"] - g["enq"], 0.0),
                outcome=entry["status"],
                status=entry["status"],
                label=entry.get("label", ""),
                hash=spec_hash[:12],
                tenant=trace.get("tenant", "default"),
                trace_id=trace.get("trace_id"),
                node=record.get("node", entry.get("node")),
                attempts=entry.get("attempts", 0),
                cached=bool(record.get("cached", False)),
            )
            rec.emit_span(
                QUEUE_WAIT,
                ts=g["enq"],
                dur=g["claim"] - g["enq"],
                parent=job,
                cost=g["claim"] - g["enq"],
            )
            solve = rec.emit_span(
                SERVICE_SOLVE,
                ts=g["solve_start"],
                dur=g["solve_end"] - g["solve_start"],
                parent=job,
                cost=g["elapsed"],
                node=record.get("node", entry.get("node")),
                cached=bool(record.get("cached", False)),
            )
            telemetry = record.get("telemetry")
            if telemetry and telemetry.get("events_tail"):
                rec.merge(telemetry, parent=solve, at=g["solve_end"])
            rec.emit_span(
                RESULT_UPLOAD,
                ts=g["solve_end"],
                dur=g["settle"] - g["solve_end"],
                parent=job,
                cost=g["settle"] - g["solve_end"],
            )
            for link in entry.get("trace_links") or ():
                rec.emit_span(
                    SERVICE_DEDUP,
                    ts=g["settle"],
                    dur=0.0,
                    parent=job,
                    cost=0.0,
                    trace_id=(link or {}).get("trace_id"),
                    tenant=(link or {}).get("tenant", "default"),
                    origin=(link or {}).get("origin", "unknown"),
                )
    return rec


__all__ = ["TRACES_DIR", "TraceStore", "UNTRACED", "build_campaign_trace"]
