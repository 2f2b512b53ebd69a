"""W3C-traceparent-style trace context for the simulation farm.

One request to the service fans out across processes and machines: the
client submits over HTTP, the server writes a queue entry, a farm node
claims it, a worker process solves it, and the result is published to
the shared cache. :class:`TraceContext` is the identity that survives
that journey — a 128-bit trace id plus the submitting request's span id,
the tenant, and the submit origin — serialised three ways:

* **HTTP headers** — the W3C ``traceparent`` wire format
  (``00-<trace_id>-<span_id>-01``) plus ``X-Trace-Origin``, so any
  OpenTelemetry-speaking proxy in front of the service keeps the ids.
* **queue records** — :meth:`to_dict` / :meth:`from_dict`, persisted in
  the queue store's entries so a context outlives the process (and the
  node) that minted it.
* **ambient contextvar** — :func:`use_trace` / :func:`current_trace`,
  the in-process hand-off between layers that do not share signatures.

Trace ids never enter a :class:`~repro.jobs.spec.JobSpec` content hash
or a cached result payload: identity is observability metadata, and the
dedup/caching layers must keep producing byte-identical artifacts no
matter who asked.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import os
import re
from dataclasses import dataclass, replace

#: traceparent version emitted (the only one defined by W3C level 1).
TRACEPARENT_VERSION = "00"

#: Wire flag: always "sampled" — the farm records every request.
TRACE_FLAGS = "01"

#: Header names used on the wire.
TRACEPARENT_HEADER = "traceparent"
ORIGIN_HEADER = "X-Trace-Origin"

_TRACEPARENT = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)
_HEX = re.compile(r"^[0-9a-f]+$")


def _hex_field(value, width: int) -> str | None:
    """*value* as a lowercase hex string of exactly *width* chars, or None."""
    if not isinstance(value, str):
        return None
    value = value.lower()
    if len(value) != width or not _HEX.match(value):
        return None
    if value == "0" * width:  # all-zero ids are invalid per W3C
        return None
    return value


@dataclass(frozen=True)
class TraceContext:
    """Identity of one service request, propagated end to end.

    Attributes:
        trace_id: 32 lowercase hex chars shared by every span of the
            request, across every process and node it touches.
        span_id: 16 lowercase hex chars naming the requesting span —
            the parent that worker span trees are stitched under.
        tenant: the tenant the request was submitted as.
        origin: where the context was minted (``client``, ``server``,
            ``cli`` ...), for attribution in the merged trace.
    """

    trace_id: str
    span_id: str
    tenant: str = "default"
    origin: str = "unknown"

    # -- minting -----------------------------------------------------------------

    @classmethod
    def mint(
        cls,
        tenant: str = "default",
        origin: str = "unknown",
        entropy=None,
    ) -> "TraceContext":
        """A fresh context. *entropy* (any printable value) makes the ids
        deterministic — tests and seeded load generators use it so two
        runs of the same traffic mint the same trace ids."""
        if entropy is None:
            raw = os.urandom(24).hex()
        else:
            raw = hashlib.sha256(
                f"{entropy}|{tenant}|{origin}".encode("utf-8")
            ).hexdigest()
        trace_id = raw[:32]
        span_id = raw[32:48]
        if trace_id == "0" * 32:  # pragma: no cover - astronomically unlikely
            trace_id = "1" + trace_id[1:]
        if span_id == "0" * 16:  # pragma: no cover
            span_id = "1" + span_id[1:]
        return cls(trace_id=trace_id, span_id=span_id, tenant=tenant, origin=origin)

    def bound(self, **changes) -> "TraceContext":
        """A copy with the given fields replaced (tenant, origin, ...)."""
        return replace(self, **changes)

    # -- wire format -------------------------------------------------------------

    def to_traceparent(self) -> str:
        return f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-{TRACE_FLAGS}"

    @classmethod
    def from_traceparent(
        cls, header: str | None, tenant: str = "default", origin: str = "unknown"
    ) -> "TraceContext | None":
        """Parse a ``traceparent`` header; None when absent or malformed."""
        if not header:
            return None
        match = _TRACEPARENT.match(header.strip().lower())
        if match is None:
            return None
        _, trace_id, span_id, _ = match.groups()
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return cls(trace_id=trace_id, span_id=span_id, tenant=tenant, origin=origin)

    def to_headers(self) -> dict:
        return {
            TRACEPARENT_HEADER: self.to_traceparent(),
            ORIGIN_HEADER: self.origin,
        }

    @classmethod
    def from_headers(
        cls, headers, tenant: str = "default"
    ) -> "TraceContext | None":
        """Context carried by an HTTP request's headers, or None.

        *headers* is any mapping with ``.get`` (``http.client`` and
        ``http.server`` message objects both qualify).
        """
        ctx = cls.from_traceparent(headers.get(TRACEPARENT_HEADER), tenant=tenant)
        if ctx is None:
            return None
        origin = headers.get(ORIGIN_HEADER)
        if origin:
            ctx = ctx.bound(origin=str(origin))
        return ctx

    # -- persisted form ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "tenant": self.tenant,
            "origin": self.origin,
        }

    @classmethod
    def from_dict(cls, data) -> "TraceContext | None":
        """Rebuild from :meth:`to_dict` output; None for anything invalid.

        Queue stores outlive code revisions, so a record written by a
        different version (or by hand) must degrade to "untraced", never
        raise.
        """
        if not isinstance(data, dict):
            return None
        trace_id = _hex_field(data.get("trace_id"), 32)
        span_id = _hex_field(data.get("span_id"), 16)
        if trace_id is None or span_id is None:
            return None
        return cls(
            trace_id=trace_id,
            span_id=span_id,
            tenant=str(data.get("tenant", "default")),
            origin=str(data.get("origin", "unknown")),
        )


#: Ambient context for layers that do not share call signatures (the
#: worker binds the claimed job's context here so fault hooks and future
#: engine layers can read it without plumbing).
_current_trace = contextvars.ContextVar("repro_trace", default=None)


def current_trace() -> TraceContext | None:
    """The trace context bound to the current scope, or None."""
    return _current_trace.get()


@contextlib.contextmanager
def use_trace(ctx: TraceContext | None):
    """Bind *ctx* as the ambient trace context for the current scope."""
    token = _current_trace.set(ctx)
    try:
        yield ctx
    finally:
        _current_trace.reset(token)


__all__ = [
    "ORIGIN_HEADER",
    "TRACEPARENT_HEADER",
    "TRACEPARENT_VERSION",
    "TraceContext",
    "current_trace",
    "use_trace",
]
