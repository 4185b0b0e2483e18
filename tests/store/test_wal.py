"""WAL store framing and corruption detection, over both backends.

The property-style tests sweep seeded random truncation points and torn
bytes over a generated log: replay must always stop at the last record
whose frame survives intact, never crash, and never resurrect bytes past
the damage.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.store.wal import (
    HEADER_SIZE,
    MemWalStore,
    SqliteWalStore,
    StoreClosedError,
    decode_records,
    encode_record,
)


def mem_store(tmp_path) -> MemWalStore:
    return MemWalStore()


def sqlite_store(tmp_path) -> SqliteWalStore:
    return SqliteWalStore(str(tmp_path / "wal.db"))


BACKENDS = [mem_store, sqlite_store]


def seeded_payloads(seed: int, count: int) -> list[bytes]:
    rng = random.Random(f"walstore:{seed}")
    return [
        rng.randbytes(rng.randrange(0, 40)) for _ in range(count)
    ]


# -- shared contract ----------------------------------------------------------


@pytest.mark.parametrize("factory", BACKENDS)
def test_roundtrip_preserves_order_and_bytes(factory, tmp_path) -> None:
    store = factory(tmp_path)
    payloads = seeded_payloads(1, 12)
    for payload in payloads:
        store.append(payload)
    records, truncated = store.read_all()
    assert records == payloads
    assert not truncated
    assert store.record_count() == 12
    assert store.records_appended == 12
    assert store.bytes_appended == sum(HEADER_SIZE + len(p) for p in payloads)


@pytest.mark.parametrize("factory", BACKENDS)
def test_closed_store_refuses_io(factory, tmp_path) -> None:
    store = factory(tmp_path)
    store.append(b"alpha")
    store.close()
    assert store.closed
    with pytest.raises(StoreClosedError):
        store.append(b"beta")
    with pytest.raises(StoreClosedError):
        store.read_all()
    with pytest.raises(StoreClosedError):
        store.rewrite([b"gamma"])
    store.reopen()
    assert store.read_all() == ([b"alpha"], False)


@pytest.mark.parametrize("factory", BACKENDS)
def test_close_reopen_survives_like_a_disk(factory, tmp_path) -> None:
    store = factory(tmp_path)
    payloads = seeded_payloads(2, 5)
    for payload in payloads:
        store.append(payload)
    store.close()
    store.reopen()
    assert store.read_all() == (payloads, False)


@pytest.mark.parametrize("factory", BACKENDS)
def test_rewrite_replaces_whole_log(factory, tmp_path) -> None:
    store = factory(tmp_path)
    for payload in seeded_payloads(3, 9):
        store.append(payload)
    store.rewrite([b"checkpoint"])
    assert store.read_all() == ([b"checkpoint"], False)


def test_sqlite_file_survives_process_restart(tmp_path) -> None:
    """A second store object on the same path sees the first one's log —
    the sqlite backend's whole point."""
    path = str(tmp_path / "wal.db")
    first = SqliteWalStore(path)
    first.append(b"persisted")
    first.close()
    second = SqliteWalStore(path)
    assert second.read_all() == ([b"persisted"], False)


# -- framing ------------------------------------------------------------------


def test_decode_empty_log_is_clean() -> None:
    assert decode_records(b"") == ([], False)


def test_decode_stops_at_header_cut() -> None:
    buffer = encode_record(b"ok") + encode_record(b"lost")[: HEADER_SIZE - 1]
    assert decode_records(buffer) == ([b"ok"], True)


def test_decode_stops_at_payload_cut() -> None:
    buffer = encode_record(b"ok") + encode_record(b"lost-payload")[:-3]
    assert decode_records(buffer) == ([b"ok"], True)


def test_decode_stops_at_crc_mismatch() -> None:
    torn = bytearray(encode_record(b"garbled"))
    torn[-1] ^= 0xFF
    buffer = encode_record(b"ok") + bytes(torn) + encode_record(b"after")
    records, truncated = decode_records(buffer)
    assert records == [b"ok"]
    assert truncated


# -- property-style corruption sweeps (satellite: WAL corruption coverage) ----


def frame_boundaries(payloads: list[bytes]) -> list[int]:
    """Cumulative byte offsets of record ends within the framed log."""
    boundaries = []
    offset = 0
    for payload in payloads:
        offset += HEADER_SIZE + len(payload)
        boundaries.append(offset)
    return boundaries


@pytest.mark.parametrize("seed", range(25))
def test_random_tail_truncation_replays_longest_valid_prefix(seed: int) -> None:
    rng = random.Random(f"truncate:{seed}")
    payloads = seeded_payloads(seed, rng.randrange(3, 15))
    store = MemWalStore()
    for payload in payloads:
        store.append(payload)
    total = len(store.buffer)
    cut = rng.randrange(0, total)  # keep bytes [0, cut)
    store.truncate_tail(total - cut)

    boundaries = frame_boundaries(payloads)
    expected = sum(1 for end in boundaries if end <= cut)
    records, truncated = store.read_all()
    assert records == payloads[:expected]
    # A cut exactly on a record boundary is indistinguishable from a
    # shorter clean log; anywhere else the tail damage must be flagged.
    assert truncated == (cut not in [0, *boundaries])
    assert store.truncations_seen == (1 if truncated else 0)


@pytest.mark.parametrize("seed", range(25))
def test_random_torn_byte_replays_prefix_before_the_tear(seed: int) -> None:
    rng = random.Random(f"tear:{seed}")
    # Non-empty payloads: a tear must land on a payload or header byte.
    payloads = [
        rng.randbytes(rng.randrange(1, 40)) for _ in range(rng.randrange(3, 15))
    ]
    store = MemWalStore()
    for payload in payloads:
        store.append(payload)
    offset = rng.randrange(0, len(store.buffer))
    store.tear(offset)

    # Records framed entirely before the torn byte stay trusted.
    boundaries = frame_boundaries(payloads)
    intact = sum(1 for end in boundaries if end <= offset)
    records, truncated = store.read_all()
    assert truncated
    assert store.truncations_seen == 1
    # Flipping a length byte can make the damaged frame claim fewer bytes
    # and "validate" early only if CRC also matched — impossible for a
    # single flipped bit against CRC32 — so the prefix is exact.
    assert records == payloads[:intact]


@pytest.mark.parametrize("seed", range(10))
def test_sqlite_torn_row_detected_by_crc(seed: int, tmp_path) -> None:
    rng = random.Random(f"sqlite-tear:{seed}")
    payloads = [rng.randbytes(rng.randrange(1, 40)) for _ in range(6)]
    store = SqliteWalStore(str(tmp_path / "wal.db"))
    for payload in payloads:
        store.append(payload)
    victim = rng.randrange(1, 7)  # sqlite seq is 1-based
    torn = bytearray(payloads[victim - 1])
    torn[rng.randrange(0, len(torn))] ^= 0xFF
    store._conn.execute(
        "UPDATE wal SET payload = ? WHERE seq = ?", (bytes(torn), victim)
    )
    store._conn.commit()
    records, truncated = store.read_all()
    assert truncated
    assert records == payloads[: victim - 1]
    assert store.truncations_seen == 1
    assert zlib.crc32(bytes(torn)) != zlib.crc32(payloads[victim - 1])
