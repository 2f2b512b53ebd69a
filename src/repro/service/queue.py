"""Persistent multi-tenant priority queue with lease/expiry claims.

The :class:`JobQueue` is the shared ground truth of a simulation farm:
one directory, one sqlite database (``queue.db``), any number of
submitting front ends and claiming farm nodes. Three properties carry
the service:

* **Persistent and atomic** — every mutation is one ``BEGIN IMMEDIATE``
  transaction on a WAL-journalled database, so a SIGKILLed node never
  leaves a torn store and a restarted farm resumes from exactly the
  state the last transaction committed. A transaction reads and writes
  only the rows it names; its cost does not grow with the queue's
  history.
* **Content-hash keyed** — a job's id *is* its spec's
  :meth:`~repro.jobs.spec.JobSpec.content_hash`. Identical specs from
  different tenants collapse into one queue entry (each tenant is
  subscribed to the shared job) and one
  :class:`~repro.jobs.cache.ResultCache` entry: the physics is computed
  once, served to everyone.
* **Lease semantics** — a claim marks the entry ``leased`` with a
  wall-clock expiry. Nodes that die mid-job simply stop renewing; the
  next transaction's reap pass returns the entry to ``pending`` (or
  ``failed`` once ``max_attempts`` claims have burned), and another node
  picks it up. Completion is idempotent: a node that lost its lease but
  finished anyway publishes the same deterministic bytes the reclaiming
  node would, so a late ``complete`` is harmless.

Per-tenant quotas bound the number of *active* (pending + leased) jobs a
tenant may hold; a submit beyond the quota raises :class:`QuotaExceeded`,
which the HTTP layer translates into a 429 with queue-depth headers.

An entry is stored as the compact-JSON ``body`` of its ``jobs`` row; the
``status`` / ``priority`` / ``submitted`` / ``lease_expires`` columns and
the ``job_tenants`` rows repeat what the claim, reap and depth queries
select on, and are written together with the body in :meth:`JobQueue._put`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError, SimulationError
from repro.jobs.spec import JobSpec

#: Queue store schema version (bump on incompatible layout changes).
#: Version 1 was a JSON manifest, which :meth:`JobQueue._open` refuses.
QUEUE_VERSION = 2

#: States a queue entry may be in.
ENTRY_STATUSES = ("pending", "leased", "done", "failed")

#: States that count against a tenant's quota (work not yet settled).
ACTIVE_STATUSES = ("pending", "leased")

#: Dedup-served trace contexts retained per entry. The first submission
#: "pays" for the solve and owns ``entry["trace"]``; later duplicate
#: submissions are linked (capped, oldest first) so the trace stitcher
#: can attribute cache hits back to each requester without letting a
#: pathological duplicate storm grow the entry without bound.
TRACE_LINK_LIMIT = 16

#: Seconds a transaction waits for another process's write lock.
BUSY_TIMEOUT = 30.0

#: Bound parameters per ``IN (...)`` list (sqlite's floor is 999).
_IN_CHUNK = 500

_ACTIVE_SQL = "status IN ('pending', 'leased')"

# jobs_by_status serves the claim (pending rows arrive in claim order),
# the reap (the leased rows) and, ending in hash, the depth joins without
# touching a body. job_tenants is keyed hash-first because depth queries
# walk the active jobs, which stay few, not a tenant's history.
_SCHEMA = f"""
BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS meta (version INTEGER NOT NULL, seq INTEGER NOT NULL);
INSERT INTO meta SELECT {QUEUE_VERSION}, 0 WHERE NOT EXISTS (SELECT 1 FROM meta);
CREATE TABLE IF NOT EXISTS jobs (
    hash TEXT PRIMARY KEY,
    status TEXT NOT NULL,
    priority INTEGER NOT NULL,
    submitted INTEGER NOT NULL,
    lease_expires REAL,
    body TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_by_status
    ON jobs (status, priority DESC, submitted, hash);
CREATE TABLE IF NOT EXISTS job_tenants (
    hash TEXT NOT NULL,
    tenant TEXT NOT NULL,
    PRIMARY KEY (hash, tenant)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS campaigns (id TEXT PRIMARY KEY, body TEXT NOT NULL);
COMMIT;
"""


def _trace_dict(trace) -> dict | None:
    """Normalise a trace context (TraceContext or dict) for the store."""
    if trace is None:
        return None
    if hasattr(trace, "to_dict"):
        return trace.to_dict()
    return dict(trace)


def _dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class QuotaExceeded(ReproError):
    """A tenant's active-job quota is full (HTTP layer: 429).

    Attributes:
        tenant: the tenant whose quota is exhausted.
        depth: the tenant's current active-job count.
        quota: the configured per-tenant cap.
        queue_depth: the whole queue's active-job count, read in the
            transaction that refused the submit (None when raised by
            hand).
    """

    def __init__(
        self, tenant: str, depth: int, quota: int, queue_depth: int | None = None
    ):
        self.tenant = tenant
        self.depth = depth
        self.quota = quota
        self.queue_depth = queue_depth
        super().__init__(
            f"tenant {tenant!r} has {depth} active job(s), quota is {quota}"
        )


@dataclass(frozen=True)
class SubmitReceipt:
    """What one submission did to the queue.

    The depths are the active-job counts the submission's own
    transaction committed (every member of one campaign carries the
    same pair), so a reply built from them cannot disagree with the
    receipt when a node claims right after the commit.
    """

    spec_hash: str
    status: str
    created: bool  # a new entry was inserted
    deduped: bool  # an existing entry (any status) absorbed the submit
    queue_depth: int  # active jobs, whole queue
    tenant_depth: int  # active jobs the submitting tenant holds


@dataclass(frozen=True)
class ClaimedJob:
    """One leased unit of work handed to a farm node.

    Carries the observability context along with the work: the paying
    submission's trace context, the subscribed tenants, and how long the
    entry sat pending (``queue_age``, seconds) so the node can record
    staleness at the moment of claim.
    """

    spec: JobSpec
    spec_hash: str
    attempts: int
    lease_expires: float
    trace: dict | None = None
    tenants: tuple = ()
    enqueued: float | None = None
    queue_age: float = 0.0


def _use_wal(conn: sqlite3.Connection) -> None:
    """Switch *conn*'s store to WAL, waiting out a concurrent first open.

    The switch needs the store's exclusive lock, and sqlite answers a
    conflict there with "database is locked" at once instead of through
    the busy timeout; so retry until :data:`BUSY_TIMEOUT`, as any write
    would wait. Once one opener has switched, the others' switch is a
    no-op.
    """
    deadline = time.monotonic() + BUSY_TIMEOUT
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() >= deadline:
                raise
            time.sleep(0.001)


def campaign_id(name: str, job_hashes: list[str]) -> str:
    """Deterministic campaign id: digest of the name + member hashes."""
    payload = _dumps({"name": name, "jobs": list(job_hashes)})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


class JobQueue:
    """One farm's persistent queue (``queue.db`` under *root*).

    A handle owns at most one sqlite connection, opened on first use and
    shared by every thread that calls it (an ``RLock`` serialises them);
    processes exclude each other through sqlite's own write lock. A
    connection is never carried across ``fork``: a child reopens.

    Args:
        root: directory holding ``queue.db`` and its ``-wal`` / ``-shm``
            sidecars (created if missing). Farm nodes and front ends
            sharing a queue pass the same directory.
        quota: max active (pending + leased) jobs per tenant; None
            disables quota enforcement.
        max_attempts: claims an entry may burn (initial + reclaims after
            lease expiry) before it is marked ``failed``.
        clock: wall-clock source; injectable for deterministic tests.
    """

    def __init__(
        self,
        root,
        quota: int | None = None,
        max_attempts: int = 3,
        clock=time.time,
    ):
        if quota is not None and quota < 1:
            raise SimulationError("queue quota must be >= 1 (or None)")
        if max_attempts < 1:
            raise SimulationError("queue max_attempts must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.quota = quota
        self.max_attempts = max_attempts
        self.clock = clock
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = None
        self._pid = 0
        self._reaped_in_txn: list[str] = []

    @property
    def path(self) -> Path:
        return self.root / "queue.db"

    # -- the store ---------------------------------------------------------------

    def _open(self) -> sqlite3.Connection:
        legacy = self.root / "queue.json"
        if legacy.exists() and not self.path.exists():
            raise SimulationError(
                f"{legacy} is a version 1 queue manifest, which this version "
                f"cannot read (the queue store is now {self.path.name}, schema "
                f"version {QUEUE_VERSION}); drain it with the release that "
                "wrote it or start from an empty root"
            )
        try:
            conn = sqlite3.connect(
                self.path,
                timeout=BUSY_TIMEOUT,
                isolation_level=None,  # transactions are explicit
                check_same_thread=False,  # self._lock serialises the threads
            )
            try:
                _use_wal(conn)
                conn.execute("PRAGMA synchronous=NORMAL")
                if conn.execute(
                    "SELECT 1 FROM sqlite_master WHERE name = 'meta'"
                ).fetchone() is None:
                    conn.executescript(_SCHEMA)
                (version,) = conn.execute("SELECT version FROM meta").fetchone()
                if version != QUEUE_VERSION:
                    raise SimulationError(
                        f"queue store {self.path} has schema version "
                        f"{version!r} (expected {QUEUE_VERSION})"
                    )
            except BaseException:
                conn.close()
                raise
        except sqlite3.Error as exc:
            raise SimulationError(
                f"cannot open queue store {self.path}: {exc}"
            ) from None
        return conn

    def close(self) -> None:
        """Close the handle's connection; the next call reopens it."""
        with self._lock:
            conn, self._conn = self._conn, None
            if conn is not None and self._pid == os.getpid():
                conn.close()

    @contextlib.contextmanager
    def _transaction(self, write: bool = True):
        """One sqlite transaction on the handle's connection.

        A write transaction takes the database's write lock up front
        (``BEGIN IMMEDIATE`` waits up to :data:`BUSY_TIMEOUT` for another
        process to commit) and reaps expired leases before the caller's
        statements; an exception rolls everything back. A read
        transaction is one consistent snapshot and never reaps.
        """
        with self._lock:
            if self._conn is None or self._pid != os.getpid():
                self._conn, self._pid = self._open(), os.getpid()
            db = self._conn
            db.execute("BEGIN IMMEDIATE" if write else "BEGIN")
            try:
                if write:
                    self._reaped_in_txn = self._reap(db)
                yield db
            except BaseException:
                if db.in_transaction:  # sqlite rolls back by itself on some errors
                    db.execute("ROLLBACK")
                raise
            db.execute("COMMIT")

    @staticmethod
    def _get(db, spec_hash: str) -> dict | None:
        row = db.execute(
            "SELECT body FROM jobs WHERE hash = ?", (spec_hash,)
        ).fetchone()
        return json.loads(row[0]) if row is not None else None

    @staticmethod
    def _put(db, entry: dict) -> None:
        """Write one entry: its body and the columns that mirror it."""
        lease = entry["lease"]
        db.execute(
            "INSERT INTO jobs VALUES (?, ?, ?, ?, ?, ?) "
            "ON CONFLICT (hash) DO UPDATE SET status = excluded.status, "
            "priority = excluded.priority, lease_expires = excluded.lease_expires, "
            "body = excluded.body",
            (
                entry["hash"],
                entry["status"],
                entry["priority"],
                entry["submitted"],
                lease["expires"] if lease else None,
                _dumps(entry),
            ),
        )

    @staticmethod
    def _column(db, column: str, hashes: list) -> dict:
        """``{hash: column value}`` for the known members of the list *hashes*."""
        out: dict = {}
        for at in range(0, len(hashes), _IN_CHUNK):
            chunk = hashes[at : at + _IN_CHUNK]
            marks = ",".join("?" * len(chunk))
            out.update(
                db.execute(
                    f"SELECT hash, {column} FROM jobs WHERE hash IN ({marks})",
                    chunk,
                )
            )
        return out

    @staticmethod
    def _depth(db, tenant: str | None = None) -> int:
        if tenant is None:
            query, args = f"SELECT COUNT(*) FROM jobs WHERE {_ACTIVE_SQL}", ()
        else:
            # CROSS JOIN pins the loop order: active jobs outside, one
            # (hash, tenant) probe each.
            query, args = (
                "SELECT COUNT(*) FROM jobs CROSS JOIN job_tenants t "
                f"ON t.hash = jobs.hash AND t.tenant = ? WHERE {_ACTIVE_SQL}",
                (tenant,),
            )
        return db.execute(query, args).fetchone()[0]

    # -- lease reaping -----------------------------------------------------------

    def _reap(self, db) -> list[str]:
        """Expire dead leases; returns the touched hashes.

        Runs at the head of every write transaction, so no dedicated
        reaper process is required: any queue activity (a submit, a
        claim, a status poll through :meth:`reap_expired`) collects the
        leases of crashed nodes. Entries that burned ``max_attempts``
        claims go to ``failed`` instead of looping forever.
        """
        rows = db.execute(
            "SELECT body FROM jobs WHERE status = 'leased' AND lease_expires <= ? "
            "ORDER BY hash",
            (self.clock(),),
        ).fetchall()
        touched = []
        for (body,) in rows:
            entry = json.loads(body)
            lease, entry["lease"] = entry["lease"], None
            if entry["attempts"] >= self.max_attempts:
                entry["status"] = "failed"
                entry["error"] = (
                    f"lease expired after {entry['attempts']} claim attempt(s) "
                    f"(last node {lease['node']!r})"
                )
            else:
                entry["status"] = "pending"
            self._put(db, entry)
            touched.append(entry["hash"])
        return touched

    def reap_expired(self) -> list[str]:
        """Explicitly run one reap pass; returns the touched hashes."""
        with self._transaction():
            return list(self._reaped_in_txn)

    # -- submission --------------------------------------------------------------

    def _check_quota(self, db, tenant: str, new_active: int) -> None:
        if self.quota is None:
            return
        depth = self._depth(db, tenant)
        if depth + new_active > self.quota:
            raise QuotaExceeded(
                tenant, depth, self.quota, queue_depth=self._depth(db)
            )

    def _submit_in(
        self, db, spec: JobSpec, tenant: str, priority: int,
        enforce_quota: bool = True, trace: dict | None = None,
    ) -> tuple[str, str, bool]:
        """Enqueue or dedup one spec; returns ``(hash, status, created)``."""
        spec_hash = spec.content_hash()
        entry = self._get(db, spec_hash)
        if entry is not None:
            if tenant not in entry["tenants"]:
                if entry["status"] in ACTIVE_STATUSES and enforce_quota:
                    self._check_quota(db, tenant, 1)
                entry["tenants"] = sorted([*entry["tenants"], tenant])
                db.execute(
                    "INSERT INTO job_tenants VALUES (?, ?)", (spec_hash, tenant)
                )
            entry["priority"] = max(entry["priority"], int(priority))
            if trace is not None:
                if not entry.get("trace"):
                    entry["trace"] = trace
                else:
                    links = entry.setdefault("trace_links", [])
                    if len(links) < TRACE_LINK_LIMIT:
                        links.append(trace)
            if entry["status"] == "failed":
                # Resubmission grants a failed job a fresh set of attempts
                # (and restarts its queue-age clock: the wait being measured
                # is the wait of the submission that revived the entry).
                entry["status"] = "pending"
                entry["attempts"] = 0
                entry["error"] = None
                entry["lease"] = None
                entry["enqueued"] = self.clock()
            self._put(db, entry)
            return spec_hash, entry["status"], False
        if enforce_quota:
            self._check_quota(db, tenant, 1)
        db.execute("UPDATE meta SET seq = seq + 1")
        (seq,) = db.execute("SELECT seq FROM meta").fetchone()
        self._put(
            db,
            {
                "hash": spec_hash,
                "label": spec.label,
                "spec": spec.canonical_dict(),
                "tenants": [tenant],
                "priority": int(priority),
                "status": "pending",
                "attempts": 0,
                "submitted": seq,
                "enqueued": self.clock(),
                "lease": None,
                "error": None,
                "trace": trace,
                "trace_links": [],
            },
        )
        db.execute("INSERT INTO job_tenants VALUES (?, ?)", (spec_hash, tenant))
        return spec_hash, "pending", True

    def _receipts(self, db, tenant: str, submitted) -> list[SubmitReceipt]:
        """Receipts for ``(hash, status, created)`` triples, stamped with
        the depths the open transaction is about to commit."""
        depths = self._depth(db), self._depth(db, tenant)
        return [
            SubmitReceipt(spec_hash, status, created, not created, *depths)
            for spec_hash, status, created in submitted
        ]

    def submit(
        self,
        spec: JobSpec,
        tenant: str = "default",
        priority: int = 0,
        trace=None,
    ) -> SubmitReceipt:
        """Enqueue one spec for *tenant*; dedups by content hash.

        *trace* (a :class:`~repro.instrument.tracectx.TraceContext` or
        its dict form) is persisted with the entry: the first submission
        becomes the entry's paying trace, later duplicates are linked for
        dedup attribution.

        Raises :class:`QuotaExceeded` when the tenant's active-job quota
        is full (the queue is left untouched).
        """
        with self._transaction() as db:
            submitted = self._submit_in(
                db, spec, tenant, priority, trace=_trace_dict(trace)
            )
            return self._receipts(db, tenant, [submitted])[0]

    def submit_campaign(
        self,
        name: str,
        jobs: list[JobSpec],
        generator: dict | None = None,
        tenant: str = "default",
        priority: int = 0,
        trace=None,
    ) -> tuple[str, list[SubmitReceipt]]:
        """Enqueue a whole campaign atomically (all jobs or a 429).

        The quota check is all-or-nothing: either every member fits under
        the tenant's cap or nothing is enqueued. Returns the
        deterministic campaign id and one receipt per member.
        """
        if not jobs:
            raise SimulationError("a campaign needs at least one job")
        hashes = [spec.content_hash() for spec in jobs]
        cid = campaign_id(name, hashes)
        with self._transaction() as db:
            if self.quota is not None:
                unique = list(dict.fromkeys(hashes))
                known = self._column(db, "body", unique)
                new_active = 0
                for spec_hash in unique:
                    entry = json.loads(known[spec_hash]) if spec_hash in known else None
                    if entry is None or (
                        entry["status"] in ACTIVE_STATUSES
                        and tenant not in entry["tenants"]
                    ):
                        new_active += 1
                self._check_quota(db, tenant, new_active)
            ctx = _trace_dict(trace)
            submitted = [
                self._submit_in(db, spec, tenant, priority,
                                enforce_quota=False, trace=ctx)
                for spec in jobs
            ]
            campaign = self._campaign(db, cid)
            if campaign is None:
                campaign = {
                    "id": cid,
                    "name": name,
                    "generator": dict(generator or {}),
                    "jobs": hashes,
                    "tenants": [tenant],
                }
            elif tenant not in campaign["tenants"]:
                campaign["tenants"] = sorted([*campaign["tenants"], tenant])
            db.execute(
                "INSERT OR REPLACE INTO campaigns VALUES (?, ?)",
                (cid, _dumps(campaign)),
            )
            return cid, self._receipts(db, tenant, submitted)

    # -- claiming / settlement ---------------------------------------------------

    def claim(
        self, node: str, lease_seconds: float = 30.0, limit: int = 1
    ) -> list[ClaimedJob]:
        """Lease up to *limit* pending jobs to *node*.

        Selection order is priority (higher first), then submission
        order — a strict total order, so concurrent nodes racing the
        same queue partition the work deterministically given their
        claim interleaving. Expired leases are reaped first, which is
        how work abandoned by a SIGKILLed node migrates to the claimant.
        """
        if limit < 1:
            raise SimulationError("claim limit must be >= 1")
        if lease_seconds <= 0:
            raise SimulationError("lease_seconds must be positive")
        claimed: list[ClaimedJob] = []
        with self._transaction() as db:
            rows = db.execute(
                "SELECT body FROM jobs WHERE status = 'pending' "
                "ORDER BY priority DESC, submitted LIMIT ?",
                (limit,),
            ).fetchall()
            now = self.clock()
            for (body,) in rows:
                entry = json.loads(body)
                entry["status"] = "leased"
                entry["attempts"] += 1
                expires = now + lease_seconds
                entry["lease"] = {"node": node, "expires": expires}
                entry["claimed"] = now
                self._put(db, entry)
                spec = JobSpec.from_dict(
                    dict(entry["spec"], label=entry.get("label", ""))
                )
                enqueued = entry.get("enqueued")
                claimed.append(
                    ClaimedJob(
                        spec,
                        entry["hash"],
                        entry["attempts"],
                        expires,
                        trace=entry.get("trace"),
                        tenants=tuple(entry["tenants"]),
                        enqueued=enqueued,
                        queue_age=(
                            max(now - enqueued, 0.0)
                            if enqueued is not None
                            else 0.0
                        ),
                    )
                )
        return claimed

    def renew(self, spec_hash: str, node: str, lease_seconds: float = 30.0) -> bool:
        """Extend *node*'s lease on an entry; False when the lease is lost."""
        with self._transaction() as db:
            entry = self._get(db, spec_hash)
            if (
                entry is None
                or entry["status"] != "leased"
                or not entry["lease"]
                or entry["lease"]["node"] != node
            ):
                return False
            entry["lease"]["expires"] = self.clock() + lease_seconds
            self._put(db, entry)
            return True

    def complete(self, spec_hash: str, node: str) -> bool:
        """Mark an entry done (idempotent). Returns False on a duplicate.

        Completion is accepted even from a node whose lease expired —
        results are content-addressed and deterministic, so a late
        publisher wrote the same bytes the reclaiming node would.
        """
        with self._transaction() as db:
            entry = self._get(db, spec_hash)
            if entry is None:
                raise SimulationError(f"unknown job {spec_hash!r}")
            if entry["status"] == "done":
                return False
            entry["status"] = "done"
            entry["lease"] = None
            entry["error"] = None
            entry["settled"] = self.clock()
            entry["node"] = node
            self._put(db, entry)
            return True

    def fail(self, spec_hash: str, node: str, error: str) -> str:
        """Record a failed attempt; returns the entry's new status.

        The entry goes back to ``pending`` while claim attempts remain,
        ``failed`` once they are burned. A concurrent completion wins:
        failing a ``done`` entry is a no-op.
        """
        with self._transaction() as db:
            entry = self._get(db, spec_hash)
            if entry is None:
                raise SimulationError(f"unknown job {spec_hash!r}")
            if entry["status"] == "done":
                return "done"
            entry["lease"] = None
            entry["settled"] = self.clock()
            entry["node"] = node
            entry["error"] = error
            entry["status"] = (
                "failed" if entry["attempts"] >= self.max_attempts else "pending"
            )
            self._put(db, entry)
            return entry["status"]

    # -- inspection (read snapshots; never reap) ---------------------------------

    def status(self, spec_hash: str) -> dict | None:
        """JSON-safe status payload for one job, or None when unknown."""
        with self._transaction(write=False) as db:
            entry = self._get(db, spec_hash)
        if entry is None:
            return None
        return {
            "id": entry["hash"],
            "label": entry.get("label", ""),
            "status": entry["status"],
            "tenants": list(entry["tenants"]),
            "priority": entry["priority"],
            "attempts": entry["attempts"],
            "lease": dict(entry["lease"]) if entry["lease"] else None,
            "error": entry["error"],
        }

    @staticmethod
    def _campaign(db, cid: str) -> dict | None:
        row = db.execute(
            "SELECT body FROM campaigns WHERE id = ?", (cid,)
        ).fetchone()
        return json.loads(row[0]) if row is not None else None

    def campaign_status(self, cid: str) -> dict | None:
        """Rollup payload for one campaign, or None when unknown."""
        with self._transaction(write=False) as db:
            campaign = self._campaign(db, cid)
            if campaign is None:
                return None
            known = self._column(db, "status", campaign["jobs"])
        counts: dict[str, int] = {}
        statuses: dict[str, str] = {}
        for spec_hash in campaign["jobs"]:
            status = known.get(spec_hash, "pending")
            statuses[spec_hash] = status
            counts[status] = counts.get(status, 0) + 1
        settled = counts.get("done", 0) + counts.get("failed", 0)
        return {
            "id": cid,
            "name": campaign["name"],
            "generator": dict(campaign["generator"]),
            "tenants": list(campaign["tenants"]),
            "jobs": len(campaign["jobs"]),
            "counts": counts,
            "statuses": statuses,
            "done": settled == len(campaign["jobs"]),
        }

    def entries(self, hashes=None) -> dict[str, dict]:
        """Raw queue entries, keyed by hash.

        Without *hashes* every entry, in hash order; with *hashes* the
        result is restricted to (and ordered like) the known members of
        that list. This is the trace stitcher's read path: it needs the
        enqueue/claim/settle timestamps and persisted trace contexts
        that the shaped :meth:`status` payload omits.
        """
        with self._transaction(write=False) as db:
            if hashes is None:
                return {
                    spec_hash: json.loads(body)
                    for spec_hash, body in db.execute(
                        "SELECT hash, body FROM jobs ORDER BY hash"
                    )
                }
            hashes = list(hashes)
            known = self._column(db, "body", hashes)
        return {h: json.loads(known[h]) for h in hashes if h in known}

    def campaign(self, cid: str) -> dict | None:
        """Raw campaign record, or None when unknown."""
        with self._transaction(write=False) as db:
            return self._campaign(db, cid)

    def campaigns(self) -> dict[str, dict]:
        """Every campaign record, keyed (and ordered) by campaign id."""
        with self._transaction(write=False) as db:
            return {
                cid: json.loads(body)
                for cid, body in db.execute(
                    "SELECT id, body FROM campaigns ORDER BY id"
                )
            }

    def depth(self, tenant: str | None = None) -> int:
        """Active (pending + leased) job count, optionally per tenant."""
        with self._transaction(write=False) as db:
            return self._depth(db, tenant)

    def depths_by_tenant(self) -> dict[str, int]:
        """Active job count per tenant (shared jobs count for each)."""
        with self._transaction(write=False) as db:
            return dict(
                db.execute(
                    "SELECT t.tenant, COUNT(*) FROM jobs CROSS JOIN job_tenants t "
                    f"ON t.hash = jobs.hash WHERE {_ACTIVE_SQL} GROUP BY t.tenant"
                )
            )

    def counts(self) -> dict[str, int]:
        """Entry count per status across the whole queue."""
        with self._transaction(write=False) as db:
            return dict(
                db.execute("SELECT status, COUNT(*) FROM jobs GROUP BY status")
            )

    def job_hashes(self) -> list[str]:
        """Every known job hash, in submission order."""
        with self._transaction(write=False) as db:
            return [
                spec_hash
                for (spec_hash,) in db.execute(
                    "SELECT hash FROM jobs ORDER BY submitted"
                )
            ]
