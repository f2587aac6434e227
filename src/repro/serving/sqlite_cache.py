"""SQLite-backed disk tier for the plan cache (WAL mode).

The JSON disk tier rewrites the whole file on every store and merges
on flush, which makes *sequential* sibling writers safe but leaves
truly concurrent writers last-merge-wins within the race window.  This
tier replaces the file rewrite with a real database so N serving
threads (or N processes pointed at the same path) can read and write
plans concurrently:

* ``journal_mode=WAL`` — readers never block the single writer and
  vice versa; exactly what a read-mostly plan cache wants (every
  warm request is a read, only optimizer misses write);
* ``synchronous=NORMAL`` — fsync on WAL checkpoints instead of every
  commit: a lost plan costs one re-optimization, never correctness,
  so durability is traded for store latency deliberately;
* ``busy_timeout`` — concurrent writers queue on SQLite's write lock
  instead of failing with ``database is locked``;
* **per-thread connections** — sqlite3 connections are not safely
  shareable across threads mid-transaction, so each thread lazily
  opens its own connection against the same file (kept in a
  :class:`threading.local`); WAL makes this cheap.

Epoch pruning is a single ``DELETE`` statement rather than a
load-filter-rewrite of the whole store.

The tier speaks plain ``(spec_json, cost, metric, epoch)`` row tuples
so :mod:`repro.serving.plan_cache` can drive the JSON and SQLite
backends through one interface and differential tests can compare
them bit-for-bit.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path

#: ``PRAGMA user_version`` stamped on databases this tier creates.
_SCHEMA_VERSION = 1

#: One row per cached plan; the key embeds the template fingerprint +
#: epoch + optimization context (see ``repro.serving.fingerprint``), so
#: ``key`` alone is the primary key and ``epoch`` is denormalized
#: purely to make pruning a single indexed DELETE.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS plans (
    key    TEXT PRIMARY KEY,
    spec   TEXT NOT NULL,
    cost   REAL NOT NULL,
    metric TEXT NOT NULL,
    epoch  TEXT NOT NULL
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS plans_by_epoch ON plans(epoch);
"""

#: A plan-cache disk row: (spec_json, cost, metric, epoch).
PlanRow = tuple[str, float, str, str]


class SQLiteDiskTier:
    """WAL-mode SQLite store of plan-cache entries, one row per key.

    Thread-safe by construction: every mutating statement is a single
    autocommit SQL statement, reads and writes go through per-thread
    connections, and cross-connection contention is absorbed by the
    busy timeout.  A corrupt or foreign file is discarded and
    recreated empty — the same "never let a bad cache file take the
    server down" stance as the JSON tier.
    """

    def __init__(self, path: Path | str, busy_timeout_ms: int = 30_000) -> None:
        if busy_timeout_ms < 0:
            raise ValueError(
                f"busy_timeout_ms must be >= 0, got {busy_timeout_ms}"
            )
        self.path = Path(path)
        self.busy_timeout_ms = busy_timeout_ms
        self._local = threading.local()
        self._connections: list[sqlite3.Connection] = []
        self._registry_lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._connection()
        except sqlite3.DatabaseError:
            self._discard_damaged_file()
            self._connection()

    # -- connections -----------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """This thread's connection, opened (and schema'd) on demand."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            return connection
        # isolation_level=None puts the connection in autocommit mode:
        # each statement is its own transaction, so a store is atomic
        # and never holds the write lock across Python code.
        connection = sqlite3.connect(
            self.path,
            timeout=self.busy_timeout_ms / 1000.0,
            isolation_level=None,
            check_same_thread=False,  # used per-thread; closed centrally
        )
        try:
            connection.execute(f"PRAGMA busy_timeout={int(self.busy_timeout_ms)}")
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            version = connection.execute("PRAGMA user_version").fetchone()[0]
            if version not in (0, _SCHEMA_VERSION):
                raise sqlite3.DatabaseError(
                    f"unknown plan-cache schema version {version}"
                )
            connection.executescript(_SCHEMA)
            if version == 0:
                connection.execute(f"PRAGMA user_version={_SCHEMA_VERSION}")
        except BaseException:
            connection.close()
            raise
        self._local.connection = connection
        with self._registry_lock:
            self._connections.append(connection)
        return connection

    def _discard_damaged_file(self) -> None:
        """Drop a corrupt/foreign database (and its WAL sidecars)."""
        self._local.connection = None
        with self._registry_lock:
            for connection in self._connections:
                try:
                    connection.close()
                except sqlite3.Error:
                    pass
            self._connections.clear()
        for suffix in ("", "-wal", "-shm"):
            try:
                Path(f"{self.path}{suffix}").unlink()
            except OSError:
                pass

    # -- the tier interface ----------------------------------------------

    def get(self, key: str) -> PlanRow | None:
        """The stored row under *key*, or None."""
        row = self._connection().execute(
            "SELECT spec, cost, metric, epoch FROM plans WHERE key = ?",
            (key,),
        ).fetchone()
        if row is None:
            return None
        return (row[0], float(row[1]), row[2], row[3])

    def put(self, key: str, spec_json: str, cost: float, metric: str,
            epoch: str) -> None:
        """Insert or overwrite the row under *key* (one atomic statement)."""
        self._connection().execute(
            "INSERT INTO plans(key, spec, cost, metric, epoch)"
            " VALUES (?, ?, ?, ?, ?)"
            " ON CONFLICT(key) DO UPDATE SET"
            " spec=excluded.spec, cost=excluded.cost,"
            " metric=excluded.metric, epoch=excluded.epoch",
            (key, spec_json, cost, metric, epoch),
        )

    def seed(self, rows: dict[str, PlanRow]) -> int:
        """Import *rows* without overwriting existing keys; returns count.

        The migration path from a JSON-tier file: entries already in
        the database win (they may be newer than the file being
        imported), everything else is folded in within one
        transaction.
        """
        if not rows:
            return 0
        connection = self._connection()
        before = len(self)
        connection.execute("BEGIN IMMEDIATE")
        try:
            connection.executemany(
                "INSERT OR IGNORE INTO plans(key, spec, cost, metric, epoch)"
                " VALUES (?, ?, ?, ?, ?)",
                [
                    (key, spec, cost, metric, epoch)
                    for key, (spec, cost, metric, epoch) in rows.items()
                ],
            )
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise
        return len(self) - before

    def prune(self, epoch: str) -> tuple[str, ...]:
        """Delete every row not stored under *epoch*; returns their keys."""
        connection = self._connection()
        stale = tuple(
            row[0]
            for row in connection.execute(
                "SELECT key FROM plans WHERE epoch != ?", (epoch,)
            )
        )
        if stale:
            connection.execute("DELETE FROM plans WHERE epoch != ?", (epoch,))
        return stale

    def clear(self) -> None:
        """Delete every row."""
        self._connection().execute("DELETE FROM plans")

    def keys(self) -> tuple[str, ...]:
        """Every stored key, sorted (for tests and differentials)."""
        return tuple(
            row[0]
            for row in self._connection().execute(
                "SELECT key FROM plans ORDER BY key"
            )
        )

    def __len__(self) -> int:
        return self._connection().execute(
            "SELECT COUNT(*) FROM plans"
        ).fetchone()[0]

    def close(self) -> None:
        """Checkpoint the WAL and close every connection ever opened."""
        try:
            self._connection().execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.Error:
            pass
        self._local.connection = None
        with self._registry_lock:
            for connection in self._connections:
                try:
                    connection.close()
                except sqlite3.Error:
                    pass
            self._connections.clear()
