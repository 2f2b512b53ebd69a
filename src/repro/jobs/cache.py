"""Content-addressed result cache: spec hash -> stored JobResult JSON.

One file per result, named by the job spec's content hash, written
atomically (temp file + ``os.replace``) so a killed campaign never leaves
a torn entry behind — the checkpoint/resume story rests on this: a hash
either resolves to a complete, deterministic result or to nothing.

Because :meth:`~repro.jobs.workers.JobResult.to_dict` excludes all
wall-clock data and the JSON is dumped with sorted keys, a cache entry is
byte-identical no matter which run, worker process, or host produced it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.jobs.workers import JobResult


class ResultCache:
    """Directory of content-addressed job results."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, spec_hash: str) -> Path:
        return self.root / f"{spec_hash}.json"

    def __contains__(self, spec_hash: str) -> bool:
        return self.path(spec_hash).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def get(self, spec_hash: str) -> JobResult | None:
        """The stored result, or None when absent or unreadable.

        A corrupt entry (torn write from a hard kill predating the atomic
        rename, manual tampering) is treated as a miss and removed, so
        the job simply reruns.
        """
        path = self.path(spec_hash)
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            result = JobResult.from_dict(data)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            path.unlink(missing_ok=True)
            return None
        result.cached = True
        return result

    def put(self, result: JobResult) -> Path:
        """Store *result* under its spec hash (atomic, deterministic bytes)."""
        path = self.path(result.spec_hash)
        payload = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, path)
        return path

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for entry in self.root.glob("*.json"):
            entry.unlink()
            removed += 1
        return removed
