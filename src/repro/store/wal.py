"""Write-ahead log stores: framed byte logs with corruption detection.

One record on the medium is::

    [u32 payload length][u32 CRC32(payload)][payload bytes]

(both integers little-endian).  The framing is what makes recovery safe
against the two real-world failure shapes of an append-only log:

- **truncated tail** — the process died mid-append, so the last record's
  header or payload is cut short; and
- **torn write** — payload bytes landed garbled (checksum mismatch).

Reading stops at the first invalid record: everything before it is
trusted, everything from it on is discarded, and the store counts one
truncation event so the owner can surface a ``store.<island>.
wal_truncated`` metric.  A valid record can never be *followed* by more
valid data after a torn one — the log is append-only — so stopping is
the correct (and the only deterministic) policy.

Two backends share the contract:

- :class:`MemWalStore` — a deterministic in-sim medium: the byte buffer
  lives outside any node's volatile state, so it survives a simulated
  crash exactly like a disk survives pulled power.  This is the backend
  the testkit persistence band runs on (no filesystem, no wall clock).
- :class:`SqliteWalStore` — the same framing persisted through stdlib
  ``sqlite3`` (one row per record, header fields as columns), for runs
  that want a real file.  CRCs are verified on read here too: the store
  does not trust the database layer with end-to-end integrity.
"""

from __future__ import annotations

import sqlite3
import struct
import zlib

from repro.errors import FrameworkError

_HEADER = struct.Struct("<II")
HEADER_SIZE = _HEADER.size


class StoreClosedError(FrameworkError):
    """An append/read hit a store whose medium is closed (crashed)."""


def encode_record(payload: bytes) -> bytes:
    """Frame one payload for the medium."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_records(buffer: bytes) -> tuple[list[bytes], bool]:
    """Parse a byte log into ``(valid payloads, truncation detected)``.

    Stops at the first truncated-tail or torn-write record; a clean log
    ends exactly at the buffer boundary with ``False``.
    """
    records: list[bytes] = []
    offset = 0
    size = len(buffer)
    while offset < size:
        if offset + HEADER_SIZE > size:
            return records, True  # header cut short
        length, crc = _HEADER.unpack_from(buffer, offset)
        start = offset + HEADER_SIZE
        end = start + length
        if end > size:
            return records, True  # payload cut short
        payload = bytes(buffer[start:end])
        if zlib.crc32(payload) != crc:
            return records, True  # torn write
        records.append(payload)
        offset = end
    return records, False


class WalStore:
    """Abstract append-only record log with crash/reopen semantics.

    ``close()`` models the owning process dying (or shutting down): the
    medium keeps its bytes but refuses I/O until ``reopen()``.  Appends
    are durable the moment they return — the simulated "write" is
    synchronous, which is what makes replay a pure function of the
    faults' crash points.
    """

    def __init__(self) -> None:
        self.closed = False
        self.records_appended = 0
        self.bytes_appended = 0
        #: Reads that detected a truncated/torn tail (cumulative).
        self.truncations_seen = 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self.closed = True

    def reopen(self) -> None:
        self.closed = False

    def _check_open(self, what: str) -> None:
        if self.closed:
            raise StoreClosedError(f"cannot {what}: store is closed")

    # -- the contract ---------------------------------------------------------

    def append(self, payload: bytes) -> None:
        raise NotImplementedError

    def read_all(self) -> tuple[list[bytes], bool]:
        """All valid payloads in append order, plus a truncation flag."""
        raise NotImplementedError

    def rewrite(self, payloads: list[bytes]) -> None:
        """Atomically replace the whole log (checkpoint compaction)."""
        raise NotImplementedError

    def record_count(self) -> int:
        """Valid records currently on the medium."""
        return len(self.read_all()[0])


class MemWalStore(WalStore):
    """Deterministic in-sim backend: a byte buffer as the durable medium.

    The buffer is owned by the store object, which the test harness keeps
    *outside* the gateway's volatile state — so a simulated node crash
    (which wipes router queues, caches and timers) leaves every appended
    byte intact, exactly like a disk.  Tests simulate a dirty shutdown by
    truncating or garbling ``buffer`` directly (or via :meth:`truncate_tail`
    / :meth:`tear`).
    """

    def __init__(self, initial: bytes = b"") -> None:
        super().__init__()
        self.buffer = bytearray(initial)

    def append(self, payload: bytes) -> None:
        self._check_open("append")
        self.buffer += encode_record(payload)
        self.records_appended += 1
        self.bytes_appended += HEADER_SIZE + len(payload)

    def read_all(self) -> tuple[list[bytes], bool]:
        self._check_open("read")
        records, truncated = decode_records(self.buffer)
        if truncated:
            self.truncations_seen += 1
        return records, truncated

    def rewrite(self, payloads: list[bytes]) -> None:
        self._check_open("rewrite")
        fresh = bytearray()
        for payload in payloads:
            fresh += encode_record(payload)
        self.buffer = fresh

    # -- corruption helpers (tests) -------------------------------------------

    def truncate_tail(self, nbytes: int) -> None:
        """Drop the last ``nbytes`` of the medium (simulated dirty stop)."""
        if nbytes > 0:
            del self.buffer[max(0, len(self.buffer) - nbytes):]

    def tear(self, offset: int) -> None:
        """Flip one payload byte at ``offset`` (simulated torn write)."""
        if 0 <= offset < len(self.buffer):
            self.buffer[offset] ^= 0xFF


class SqliteWalStore(WalStore):
    """Sqlite-backed log: one row per record, CRC re-verified on read.

    ``path`` is a filesystem path (or ``":memory:"`` for tests that only
    need the sqlite codepath without a file — note an in-memory database
    dies with its connection, so ``close()``/``reopen()`` only round-trip
    state for file-backed stores).
    """

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path
        self._conn: sqlite3.Connection | None = None
        self._connect()

    def _connect(self) -> None:
        self._conn = sqlite3.connect(self.path)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS wal ("
            " seq INTEGER PRIMARY KEY AUTOINCREMENT,"
            " length INTEGER NOT NULL,"
            " crc INTEGER NOT NULL,"
            " payload BLOB NOT NULL)"
        )
        self._conn.commit()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.commit()
            self._conn.close()
            self._conn = None
        super().close()

    def reopen(self) -> None:
        super().reopen()
        if self._conn is None:
            self._connect()

    def append(self, payload: bytes) -> None:
        self._check_open("append")
        assert self._conn is not None
        self._conn.execute(
            "INSERT INTO wal (length, crc, payload) VALUES (?, ?, ?)",
            (len(payload), zlib.crc32(payload), payload),
        )
        self._conn.commit()
        self.records_appended += 1
        self.bytes_appended += HEADER_SIZE + len(payload)

    def read_all(self) -> tuple[list[bytes], bool]:
        self._check_open("read")
        assert self._conn is not None
        records: list[bytes] = []
        truncated = False
        rows = self._conn.execute(
            "SELECT length, crc, payload FROM wal ORDER BY seq"
        )
        for length, crc, payload in rows:
            payload = bytes(payload)
            if len(payload) != length or zlib.crc32(payload) != crc:
                truncated = True
                break
            records.append(payload)
        if truncated:
            self.truncations_seen += 1
        return records, truncated

    def rewrite(self, payloads: list[bytes]) -> None:
        self._check_open("rewrite")
        assert self._conn is not None
        with self._conn:
            self._conn.execute("DELETE FROM wal")
            self._conn.executemany(
                "INSERT INTO wal (length, crc, payload) VALUES (?, ?, ?)",
                [(len(p), zlib.crc32(p), p) for p in payloads],
            )
