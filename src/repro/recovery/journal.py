"""Digest-addressed write-ahead journal for the serve tier.

The shared plan-cache tier (:mod:`repro.serve.shared_cache`) is the
only cross-worker state the sharded serve layer owns, and it lives in
a ``multiprocessing`` manager -- a process.  When that process (or the
whole router) dies, every published plan is gone and the fleet pays
cold solves for keys it had already answered.  This module closes the
gap with classic write-ahead discipline:

* every shared-cache **publish** (and the request-level index entry
  that lets the router serve degraded hits) is appended to a journal
  *before* the caller proceeds,
* each record is one line of canonical JSON carrying its own sha256,
  so a torn or truncated tail (the crash case) is detected and
  tolerated: replay stops at the first bad record instead of erroring,
* replay is **idempotent** -- plans are deterministic and the tier is
  first-publisher-wins, so re-applying a record (or a duplicate
  record) can never change the rebuilt state.

The journal is append-only and multi-writer safe in the way the serve
tier needs: every record is written with a single ``os.write`` to an
``O_APPEND`` descriptor, so concurrent shard workers never interleave
bytes within a record, and a crash mid-write leaves at most one
truncated tail record.

Record wire format (one JSON line)::

    {"kind": "publish", "data": {...}, "sha256": "<hex>"}

where ``sha256`` is the digest of the canonical encoding of the
record *without* its ``sha256`` field.  Record kinds currently
journaled:

* ``publish`` -- ``{"key": <wire key>, "payload": <plan payload>}``
* ``request`` -- ``{"key": <request key>, "digest": <plan digest>}``
* ``replan``  -- a governor replan decision (device, epoch, verdict)

Unknown kinds are preserved by :func:`read_journal` (forward
compatibility) and skipped by :func:`replay_into_cache`.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..digest import canonical_digest, canonical_json
from ..errors import ReproError


@dataclass(frozen=True)
class JournalRecord:
    """One verified journal entry."""

    kind: str
    data: Dict[str, Any]


def encode_record(kind: str, data: Dict[str, Any]) -> str:
    """One journal line (without the newline), self-digested."""
    return canonical_json(
        {
            "kind": kind,
            "data": data,
            "sha256": canonical_digest({"kind": kind, "data": data}),
        }
    )


def decode_record(line: str) -> JournalRecord:
    """Parse and verify one journal line.

    Raises:
        ReproError: unparseable JSON, missing fields, or a sha256 that
            does not match the record body -- the truncated/torn-tail
            signature replay tolerates.
    """
    try:
        raw = json.loads(line)
    except (TypeError, ValueError) as err:
        raise ReproError(f"unparseable journal line: {err}") from err
    if not isinstance(raw, dict):
        raise ReproError("journal record must be a JSON object")
    kind = raw.get("kind")
    data = raw.get("data")
    claimed = raw.get("sha256")
    if not isinstance(kind, str) or not isinstance(data, dict):
        raise ReproError("journal record needs string kind + object data")
    if claimed != canonical_digest({"kind": kind, "data": data}):
        raise ReproError(
            f"journal record sha256 mismatch for kind {kind!r}"
        )
    return JournalRecord(kind=kind, data=data)


class PlanJournal:
    """Append-only journal handle (thread- and process-safe appends).

    The handle is cheap and **picklable** (it carries only the path):
    spawned shard workers each reopen the file ``O_APPEND`` on first
    use, so one journal collects publishes from every worker process.
    """

    def __init__(self, path: str):
        if not path:
            raise ReproError("journal path must be non-empty")
        self.path = str(path)
        self._fd: Optional[int] = None
        self._lock = threading.Lock()

    # -- pickling (the fd and lock are per-process) ------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        return {"path": self.path}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.path = state["path"]
        self._fd = None
        self._lock = threading.Lock()

    def _descriptor(self) -> int:
        if self._fd is None:
            self._fd = os.open(
                self.path,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        return self._fd

    def append(self, kind: str, data: Dict[str, Any]) -> None:
        """Durably append one record (single atomic-append write)."""
        line = encode_record(kind, data).encode("utf-8") + b"\n"
        with self._lock:
            os.write(self._descriptor(), line)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


def read_journal(path: str) -> Tuple[List[JournalRecord], Dict[str, int]]:
    """Every verified record plus read statistics.

    Tolerant by construction: a missing file reads as empty, and the
    scan stops at the first record that fails verification (the
    truncated tail a crash mid-append leaves).  A bad record *followed
    by* good ones still stops the scan -- after a torn write nothing
    downstream of it can be trusted to be complete.

    Returns:
        ``(records, stats)`` where stats counts ``read`` (verified),
        ``dropped_tail`` (lines at/after the first bad record) and
        ``bytes`` (file size).
    """
    records: List[JournalRecord] = []
    stats = {"read": 0, "dropped_tail": 0, "bytes": 0}
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return records, stats
    stats["bytes"] = len(raw)
    lines = raw.split(b"\n")
    for index, line in enumerate(lines):
        text = line.decode("utf-8", errors="replace").strip()
        if not text:
            continue
        try:
            records.append(decode_record(text))
        except ReproError:
            stats["dropped_tail"] = sum(
                1 for rest in lines[index:] if rest.strip()
            )
            break
        stats["read"] += 1
    return records, stats


def replay_into_cache(
    path: str, cache: Any, journal_replans: bool = False
) -> Dict[str, int]:
    """Rebuild a shared-cache tier from a journal.

    Applies ``publish`` and ``request`` records in order through the
    tier's raw (wire-key) surface; payload digests are re-verified by
    the tier itself on publish, so a journal record whose payload was
    tampered with is dropped rather than served.  First-publisher-wins
    makes the whole pass idempotent.

    Returns:
        replay statistics: records ``read``, publishes ``replayed``,
        request-index entries ``requests``, records ``skipped``
        (unknown kind or failed verification) and the journal's
        ``dropped_tail`` count.
    """
    records, stats = read_journal(path)
    replayed = requests = skipped = 0
    for record in records:
        if record.kind == "publish":
            key = record.data.get("key")
            payload = record.data.get("payload")
            if not isinstance(key, str) or not isinstance(payload, dict):
                skipped += 1
                continue
            try:
                cache.publish_raw(key, payload)
            except ReproError:
                skipped += 1  # tampered payload: digest mismatch
                continue
            replayed += 1
        elif record.kind == "request":
            key = record.data.get("key")
            digest = record.data.get("digest")
            if not isinstance(key, str) or not isinstance(digest, str):
                skipped += 1
                continue
            cache.register_request_raw(key, digest)
            requests += 1
        else:
            skipped += 1
    if replayed or requests:
        cache.note_replayed(replayed)
    return {
        "read": stats["read"],
        "dropped_tail": stats["dropped_tail"],
        "replayed": replayed,
        "requests": requests,
        "skipped": skipped,
    }


class JournaledSharedCache:
    """Write-ahead wrapper around a shared-cache tier.

    Journals every publish and request-index registration *before*
    they land in the tier (write-ahead: a crash after the append but
    before the publish loses nothing -- replay re-applies it; a crash
    before the append loses only work that was never acknowledged).
    Lookups pass straight through.

    Picklable whenever the inner tier is, so the router hands one of
    these to every spawned worker and the journal collects publishes
    fleet-wide.
    """

    def __init__(self, inner: Any, journal: PlanJournal):
        self.inner = inner
        self.journal = journal

    # pass-throughs --------------------------------------------------------------

    def lookup(self, key: Tuple) -> Optional[Dict[str, Any]]:
        return self.inner.lookup(key)

    def lookup_request(self, request_key: str) -> Optional[Dict[str, Any]]:
        return self.inner.lookup_request(request_key)

    def stats(self) -> Dict[str, Any]:
        stats = self.inner.stats()
        stats["journal"] = self.journal.path
        return stats

    def note_replayed(self, count: int = 1) -> None:
        self.inner.note_replayed(count)

    # journaled writes -----------------------------------------------------------

    def publish(self, key: Tuple, payload: Dict[str, Any]) -> str:
        from ..serve.shared_cache import wire_key

        wk = wire_key(key)
        self.journal.append(
            "publish", {"key": wk, "payload": dict(payload)}
        )
        return self.inner.publish_raw(wk, payload)

    def publish_raw(self, wk: str, payload: Dict[str, Any]) -> str:
        self.journal.append(
            "publish", {"key": wk, "payload": dict(payload)}
        )
        return self.inner.publish_raw(wk, payload)

    def register_request(self, request_key: str, digest: str) -> None:
        self.journal.append(
            "request", {"key": request_key, "digest": digest}
        )
        self.inner.register_request_raw(request_key, digest)

    def register_request_raw(self, request_key: str, digest: str) -> None:
        self.register_request(request_key, digest)


def journal_replans(
    journal: Optional[PlanJournal], entries: Iterable[Dict[str, Any]]
) -> int:
    """Append governor replan decisions (no-op without a journal)."""
    if journal is None:
        return 0
    count = 0
    for entry in entries:
        journal.append("replan", dict(entry))
        count += 1
    return count
