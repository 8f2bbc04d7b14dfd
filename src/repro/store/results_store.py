"""A sqlite-backed, globally deduplicated store of sweep result rows.

One database file holds every row ever computed, keyed by the run's
deterministic ``run_key``:

``results``
    ``run_key`` (primary key), ``schema_version`` (the payload contract
    version — rows written under a different contract are treated as
    misses, never misread), ``payload`` (the row as JSON, byte-for-byte
    the dict the runner produced), plus provenance: ``sweep_label``,
    ``source`` (``executed`` / ``jsonl-import`` / ...), ``host``,
    ``pid`` and ``created_at``.
``claims``
    Short-lived execution leases: a runner *claims* a key before
    computing it so concurrent runners sharing the store execute each
    key exactly once between them.  A claim names its owner (store
    instance), host, pid and claim time; it is released atomically by
    the ``put`` of its row.
``store_meta``
    The database-layout version, checked on open.

Concurrency model: sqlite's file locking serializes writers across
processes (``busy_timeout`` retries), an instance-level lock serializes
threads sharing one connection, and every multi-statement operation runs
inside ``BEGIN IMMEDIATE`` so check-then-act sequences (claiming, insert
-or-ignore puts) are atomic.  Dedup is **first-writer-wins**: a second
``put`` of an existing key is ignored, which is sound because rows are
pure functions of their spec up to timing fields.

Crash model: every ``put`` commits a transaction, so a runner killed
mid-ingest leaves the database with whole rows only — sqlite's journal
rolls back any half-written transaction on the next open.  Stale claims
left by the dead process are detected (same-host pid liveness, wall
-clock TTL everywhere) and stolen by the next runner; a stolen claim can
at worst recompute a row, never corrupt one.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

#: Version of the row-payload contract.  Rows written under another
#: version are treated as cache misses (and recomputed), never misread.
ROW_SCHEMA_VERSION = 1

#: Database-layout version stored in ``store_meta`` and checked on open.
STORE_LAYOUT_VERSION = 1

#: Default wall-clock lease on a claim.  A claim older than this is
#: considered abandoned and may be stolen even when its owner cannot be
#: proven dead; stealing can at worst recompute a row (first-writer-wins
#: makes that harmless), so the TTL bounds how long a wedged runner can
#: stall its peers.
DEFAULT_CLAIM_TTL_S = 3600.0

#: sqlite bind-parameter budget per ``IN (...)`` query.
_IN_CHUNK = 500


class StoreError(RuntimeError):
    """The store file exists but cannot be used (layout mismatch, ...)."""


@dataclass(frozen=True)
class ClaimInfo:
    """One execution lease as recorded in the ``claims`` table."""

    run_key: str
    owner: str
    host: str
    pid: int
    claimed_at: float

    def age_s(self, now: Optional[float] = None) -> float:
        """Seconds since the claim was taken."""
        return max(0.0, (time.time() if now is None else now) - self.claimed_at)


class ResultsStore:
    """The persistent, shared, deduplicated results database.

    Instances are cheap handles over one sqlite file; open as many as
    needed (one per runner / thread is the intended pattern — sqlite
    coordinates them through file locks).  All methods are safe to call
    from multiple threads of one instance.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        busy_timeout_s: float = 30.0,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._host = socket.gethostname()
        #: Unique identity of this handle — claims it takes are re-entrant
        #: for it and foreign for every other handle, even in-process.
        self.owner_id = f"{self._host}:{os.getpid()}:{uuid.uuid4().hex[:8]}"
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            str(self.path),
            timeout=busy_timeout_s,
            isolation_level=None,  # manual BEGIN IMMEDIATE transactions
            check_same_thread=False,
        )
        try:
            self._conn.execute("PRAGMA busy_timeout = %d" % int(busy_timeout_s * 1000))
            self._enable_wal(busy_timeout_s)
            self._conn.execute("PRAGMA synchronous = FULL")
            self._ensure_layout()
        except BaseException:
            self._conn.close()
            raise

    def _enable_wal(self, busy_timeout_s: float) -> None:
        """Switch the file into WAL mode within the busy timeout.

        WAL lets readers proceed while a writer commits (sqlite falls back
        silently where it is unsupported).  While a peer holds the RESERVED
        lock, sqlite fails the switch at once with ``database is locked``
        instead of calling the busy handler, so the retry happens here.
        """
        deadline = time.monotonic() + busy_timeout_s
        delay = 0.005
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode = WAL")
                return
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() + delay > deadline:
                    raise
            time.sleep(delay)
            delay = min(2 * delay, 0.1)

    # ------------------------------------------------------------------
    # layout

    def _ensure_layout(self) -> None:
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    """
                    CREATE TABLE IF NOT EXISTS store_meta (
                        key TEXT PRIMARY KEY,
                        value TEXT NOT NULL
                    )
                    """
                )
                self._conn.execute(
                    """
                    CREATE TABLE IF NOT EXISTS results (
                        run_key TEXT PRIMARY KEY,
                        schema_version INTEGER NOT NULL,
                        payload TEXT NOT NULL,
                        sweep_label TEXT,
                        source TEXT NOT NULL,
                        host TEXT NOT NULL,
                        pid INTEGER NOT NULL,
                        created_at REAL NOT NULL
                    )
                    """
                )
                self._conn.execute(
                    """
                    CREATE TABLE IF NOT EXISTS claims (
                        run_key TEXT PRIMARY KEY,
                        owner TEXT NOT NULL,
                        host TEXT NOT NULL,
                        pid INTEGER NOT NULL,
                        claimed_at REAL NOT NULL
                    )
                    """
                )
                row = self._conn.execute(
                    "SELECT value FROM store_meta WHERE key = 'layout_version'"
                ).fetchone()
                if row is None:
                    self._conn.execute(
                        "INSERT INTO store_meta (key, value) VALUES (?, ?)",
                        ("layout_version", str(STORE_LAYOUT_VERSION)),
                    )
                elif int(row[0]) > STORE_LAYOUT_VERSION:
                    raise StoreError(
                        f"results store {self.path} has layout version {row[0]}, "
                        f"newer than this code supports ({STORE_LAYOUT_VERSION})"
                    )
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            else:
                self._conn.execute("COMMIT")

    # ------------------------------------------------------------------
    # reads

    def get(self, run_key: str) -> Optional[Dict[str, object]]:
        """The stored row of one run key, or None (misses include rows
        written under a different payload schema version)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE run_key = ? AND schema_version = ?",
                (run_key, ROW_SCHEMA_VERSION),
            ).fetchone()
        if row is None:
            return None
        return json.loads(row[0])

    def get_many(self, run_keys: Sequence[str]) -> Dict[str, Dict[str, object]]:
        """Stored rows for every hit among ``run_keys`` (misses absent)."""
        hits: Dict[str, Dict[str, object]] = {}
        keys = list(run_keys)
        with self._lock:
            for start in range(0, len(keys), _IN_CHUNK):
                chunk = keys[start : start + _IN_CHUNK]
                marks = ",".join("?" for _ in chunk)
                rows = self._conn.execute(
                    f"SELECT run_key, payload FROM results "
                    f"WHERE schema_version = ? AND run_key IN ({marks})",
                    [ROW_SCHEMA_VERSION, *chunk],
                ).fetchall()
                for key, payload in rows:
                    hits[key] = json.loads(payload)
        return hits

    def provenance(self, run_key: str) -> Optional[Dict[str, object]]:
        """Who computed a stored row, when, and under which label."""
        with self._lock:
            row = self._conn.execute(
                "SELECT schema_version, sweep_label, source, host, pid, created_at "
                "FROM results WHERE run_key = ?",
                (run_key,),
            ).fetchone()
        if row is None:
            return None
        return {
            "schema_version": row[0],
            "sweep_label": row[1],
            "source": row[2],
            "host": row[3],
            "pid": row[4],
            "created_at": row[5],
        }

    def run_keys(self) -> List[str]:
        """Every stored run key (current payload schema only)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT run_key FROM results WHERE schema_version = ? "
                "ORDER BY run_key",
                (ROW_SCHEMA_VERSION,),
            ).fetchall()
        return [row[0] for row in rows]

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM results WHERE schema_version = ?",
                (ROW_SCHEMA_VERSION,),
            ).fetchone()
        return int(count)

    def __contains__(self, run_key: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE run_key = ? AND schema_version = ?",
                (run_key, ROW_SCHEMA_VERSION),
            ).fetchone()
        return row is not None

    # ------------------------------------------------------------------
    # writes

    def put(
        self,
        row: Mapping[str, object],
        *,
        sweep_label: Optional[str] = None,
        source: str = "executed",
    ) -> bool:
        """Ingest one completed row; True when this call inserted it.

        First-writer-wins: an existing row for the key is left untouched
        (rows are pure functions of their spec, so the duplicate carries
        no new information beyond timing).  Any claim on the key is
        released in the same transaction, so a crash can never leave a
        stored row still claimed.
        """
        return self.put_many([row], sweep_label=sweep_label, source=source) == 1

    def put_many(
        self,
        rows: Iterable[Mapping[str, object]],
        *,
        sweep_label: Optional[str] = None,
        source: str = "executed",
    ) -> int:
        """Ingest many rows in one crash-safe transaction; count inserted."""
        payloads = []
        for row in rows:
            key = row.get("run_key")
            if not isinstance(key, str) or not key:
                raise ValueError("a result row must carry a string 'run_key'")
            payloads.append((key, json.dumps(row)))
        if not payloads:
            return 0
        now = time.time()
        inserted = 0
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                for key, payload in payloads:
                    cursor = self._conn.execute(
                        "INSERT OR IGNORE INTO results "
                        "(run_key, schema_version, payload, sweep_label, source, "
                        " host, pid, created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            key,
                            ROW_SCHEMA_VERSION,
                            payload,
                            sweep_label,
                            source,
                            self._host,
                            os.getpid(),
                            now,
                        ),
                    )
                    inserted += cursor.rowcount
                    self._conn.execute(
                        "DELETE FROM claims WHERE run_key = ?", (key,)
                    )
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            else:
                self._conn.execute("COMMIT")
        return inserted

    def import_jsonl(
        self,
        jsonl_path: Union[str, Path],
        *,
        sweep_label: Optional[str] = None,
        repair: bool = True,
    ) -> int:
        """Import a legacy per-sweep JSONL result file; count rows inserted.

        Reuses the runner's loader, so a file left torn by a crash is
        repaired on the way in exactly as a resume would repair it: a
        truncated trailing line is dropped (and removed from the file
        when ``repair`` is on), an unterminated-but-parseable final row
        is kept, and garbage lines are skipped with a one-shot warning.
        """
        from ..sweeps.runner import load_completed_rows  # runtime, no cycle

        label = sweep_label if sweep_label is not None else Path(jsonl_path).name
        rows = load_completed_rows(jsonl_path, repair=repair)
        return self.put_many(
            rows.values(), sweep_label=label, source="jsonl-import"
        )

    # ------------------------------------------------------------------
    # claims

    def claim(self, run_key: str, *, ttl_s: float = DEFAULT_CLAIM_TTL_S) -> bool:
        """Try to lease ``run_key`` for execution by this handle.

        False when the row already exists (it needs no execution) or a
        *live* foreign claim holds the key.  A dead claim — same-host
        owner whose pid no longer exists, or any claim older than
        ``ttl_s`` — is stolen.  Re-claiming a key this handle already
        holds returns True.
        """
        now = time.time()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                done = self._conn.execute(
                    "SELECT 1 FROM results WHERE run_key = ? AND schema_version = ?",
                    (run_key, ROW_SCHEMA_VERSION),
                ).fetchone()
                if done is not None:
                    return False
                existing = self._conn.execute(
                    "SELECT owner, host, pid, claimed_at FROM claims "
                    "WHERE run_key = ?",
                    (run_key,),
                ).fetchone()
                if existing is None:
                    self._conn.execute(
                        "INSERT INTO claims (run_key, owner, host, pid, claimed_at) "
                        "VALUES (?, ?, ?, ?, ?)",
                        (run_key, self.owner_id, self._host, os.getpid(), now),
                    )
                    return True
                info = ClaimInfo(run_key, *existing)
                if info.owner == self.owner_id:
                    return True
                if self._claim_is_live(info, ttl_s, now):
                    return False
                self._conn.execute(
                    "UPDATE claims SET owner = ?, host = ?, pid = ?, claimed_at = ? "
                    "WHERE run_key = ?",
                    (self.owner_id, self._host, os.getpid(), now, run_key),
                )
                return True
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            finally:
                if self._conn.in_transaction:
                    self._conn.execute("COMMIT")

    def _claim_is_live(self, info: ClaimInfo, ttl_s: float, now: float) -> bool:
        """Whether a foreign claim still protects its key."""
        if now - info.claimed_at >= ttl_s:
            return False
        if info.host == self._host and info.pid != os.getpid():
            try:
                os.kill(info.pid, 0)
            except ProcessLookupError:
                return False
            except PermissionError:
                pass  # exists, just not ours to signal
        return True

    def claim_info(self, run_key: str) -> Optional[ClaimInfo]:
        """The current lease on a key, if any."""
        with self._lock:
            row = self._conn.execute(
                "SELECT owner, host, pid, claimed_at FROM claims WHERE run_key = ?",
                (run_key,),
            ).fetchone()
        if row is None:
            return None
        return ClaimInfo(run_key, *row)

    def release(self, run_key: str, *, force: bool = False) -> bool:
        """Drop a lease (only this handle's, unless ``force``)."""
        with self._lock:
            if force:
                cursor = self._conn.execute(
                    "DELETE FROM claims WHERE run_key = ?", (run_key,)
                )
            else:
                cursor = self._conn.execute(
                    "DELETE FROM claims WHERE run_key = ? AND owner = ?",
                    (run_key, self.owner_id),
                )
        return cursor.rowcount > 0

    def claim_count(self) -> int:
        """Number of outstanding leases."""
        with self._lock:
            (count,) = self._conn.execute("SELECT COUNT(*) FROM claims").fetchone()
        return int(count)

    # ------------------------------------------------------------------
    # health

    def integrity_ok(self) -> bool:
        """sqlite's own integrity check (used by the crash tests)."""
        with self._lock:
            (verdict,) = self._conn.execute("PRAGMA integrity_check").fetchone()
        return verdict == "ok"

    def stats(self) -> Dict[str, object]:
        """Summary counters (the ``store stats`` CLI verb's payload)."""
        with self._lock:
            (rows,) = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()
            by_source = dict(
                self._conn.execute(
                    "SELECT source, COUNT(*) FROM results GROUP BY source"
                ).fetchall()
            )
        return {
            "path": str(self.path),
            "layout_version": STORE_LAYOUT_VERSION,
            "row_schema_version": ROW_SCHEMA_VERSION,
            "rows": int(rows),
            "claims": self.claim_count(),
            "by_source": by_source,
        }

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultsStore({str(self.path)!r}, owner={self.owner_id!r})"
