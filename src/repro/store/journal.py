"""Gateway and directory journals: what gets logged, how it replays.

A journal owns one :class:`~repro.store.wal.WalStore` and gives the
durable-state owners (VSG, event router, rule engines, VSR directory) a
typed logging surface.  Every record is one canonical-JSON object with a
``"t"`` tag; replay is a **pure fold** over the record list into a plain
state dict — no simulation, no live objects — which is what the testkit's
replay-idempotence oracle leans on: folding the same bytes twice must
yield byte-identical snapshots.

Records are state *transitions*, mirroring the router's own moves, so
the fold never stores data twice: a ``flush`` record carries only the
batch id — the events it retained are exactly the queue the fold already
holds for that island, just as :meth:`repro.core.events.Delivery.take_batch`
turns the subscriber's live queue into its retained batch.  The
``evq``/``drain``/``flush``/``ack`` folds restate that record's
transitions on the plain state dict, and
:meth:`~repro.core.events.Delivery.restored` reads them back.

**Checkpoint compaction.**  After ``checkpoint_every`` appends the
journal folds its own log into one ``ckpt`` record and rewrites the
medium as ``[ckpt]``, so replay work is bounded by the checkpoint
interval however long the gateway lives.  A checkpoint is itself just a
record: replay treats it as "replace the whole state", and records after
it fold on top as usual.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any

from repro.obs import NOOP_OBS
from repro.store.wal import WalStore

#: Appends between checkpoint compactions.  Low enough that replay after
#: any crash folds at most this many tail records; high enough that the
#: periodic re-fold (O(records)) stays amortized-constant per append.
DEFAULT_CHECKPOINT_EVERY = 256


#: One shared encoder: ``json.dumps`` rebuilds its encoder on every
#: call, which is measurable on the append hot path (experiment C13
#: gates journaling at <3 % of run wall-clock).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)

#: Strings the JSON encoder would emit verbatim (nothing to escape).
_ESCAPE_FREE = re.compile(r'[^"\\\x00-\x1f]*\Z')


def _encode(record: dict[str, Any]) -> bytes:
    # Fast path for the dominant record shapes (seq/ack/flush/drain/...):
    # a flat dict of scalars with escape-free strings formats directly,
    # skipping the encoder's per-call overhead — which outweighs the
    # byte volume for these ~20-70 byte records.  Anything nested, and
    # any value the formats below wouldn't render exactly as the encoder
    # does, falls through to the canonical encoder.
    parts = []
    for key in sorted(record):
        value = record[key]
        if isinstance(value, str):
            if _ESCAPE_FREE.match(value) is None:
                break
            parts.append(f'"{key}":"{value}"')
        elif value is True:
            parts.append(f'"{key}":true')
        elif value is False:
            parts.append(f'"{key}":false')
        elif value is None:
            parts.append(f'"{key}":null')
        elif isinstance(value, int):
            parts.append(f'"{key}":{value}')
        elif isinstance(value, float) and math.isfinite(value):
            parts.append(f'"{key}":{value!r}')
        else:
            break
    else:
        return ("{" + ",".join(parts) + "}").encode("utf-8")
    return _ENCODER.encode(record).encode("utf-8")


def fresh_gateway_state() -> dict[str, Any]:
    """The empty fold state (also what a brand-new gateway replays to)."""
    return {
        "registered": None,  # [island, location, renewed_at] once registered
        "documents": {},  # service -> WSDL xml (exported by this gateway)
        "local_topics": [],  # topics/patterns this gateway subscribed to
        "remote_gateways": {},  # control location -> island (poll/channel targets)
        "remote_subs": {},  # subscriber island -> sorted topic patterns
        "remote_locations": {},  # subscriber island -> control location
        "sequence": 0,  # publisher event sequence high-water
        "queues": {},  # subscriber island -> undelivered events
        "unacked": {},  # subscriber island -> [batch id, events]
        "batch_seq": {},  # subscriber island -> last batch id issued
        "channel_acks": {},  # control location -> highest delivered batch
        "rules": {},  # engine label -> {seen: [[rule, key]...], last_fired, epoch}
    }


class _JournalBase:
    """Shared plumbing: append/encode, metrics, checkpointing, replay."""

    def __init__(
        self,
        store: WalStore,
        label: str,
        obs: Any = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        self.store = store
        self.label = label
        self.obs = obs if obs is not None else NOOP_OBS
        self.checkpoint_every = checkpoint_every
        self._since_checkpoint = 0
        #: Records and payload bytes this journal appended (no framing).
        self.wal_records = 0
        self.wal_bytes = 0
        self.checkpoints = 0
        self.replays = 0
        #: Truncated/torn tails detected across every replay.
        self.truncations_detected = 0
        self.obs.metrics.track(
            f"store.{label}",
            self,
            "counter",
            {
                "wal_records": "wal_records",
                "wal_bytes": "wal_bytes",
                "checkpoints": "checkpoints",
                "wal_truncated": "truncations_detected",
                "replays": "replays",
            },
        )
        # The medium's own tally, framing included.
        self.obs.metrics.track(
            f"store.{label}", store, "counter", ("records_appended", "bytes_appended")
        )
        #: Running fold of everything appended so far, so a checkpoint
        #: can serialize it directly instead of re-reading and re-folding
        #: the whole medium (``json.loads`` per record costs more than
        #: the append itself).  ``None`` means "not in sync with the
        #: medium" — the next checkpoint rebuilds it with one replay.
        self._folded: dict[str, Any] | None = None
        if not self.store.closed and self.store.record_count() == 0:
            # An empty medium folds to the fresh state: seed the running
            # fold so even the first checkpoint skips the replay.
            self._folded = self._fresh_state()

    # -- appending -------------------------------------------------------------

    def _log(self, record: dict[str, Any]) -> None:
        payload = _encode(record)
        self.store.append(payload)
        self.wal_records += 1
        self.wal_bytes += len(payload)
        if self._folded is not None:
            self._fold(self._folded, record)
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Fold the log into one ``ckpt`` record and compact the medium."""
        if self._folded is None:
            self._folded = self.replay(count_replay=False)
        self.store.rewrite([_encode({"t": "ckpt", "state": self._folded})])
        self._since_checkpoint = 0
        self.checkpoints += 1

    # -- replay ----------------------------------------------------------------

    def _fresh_state(self) -> dict[str, Any]:
        raise NotImplementedError

    def _fold(self, state: dict[str, Any], record: dict[str, Any]) -> None:
        raise NotImplementedError

    def replay(self, count_replay: bool = True) -> dict[str, Any]:
        """Fold the medium's valid records into a state dict.

        Replay stops at the last valid record (the store detects
        truncated tails and torn writes via the length+CRC framing) and
        counts one ``wal_truncated`` when the tail was damaged.
        """
        payloads, truncated = self.store.read_all()
        if truncated:
            self.truncations_detected += 1
        # A replay means something happened to the medium behind this
        # object's back (a crash, a torn tail) — drop the running fold
        # rather than trust it; the next checkpoint rebuilds it.
        self._folded = None
        state = self._fresh_state()
        for payload in payloads:
            record = json.loads(payload.decode("utf-8"))
            if record.get("t") == "ckpt":
                state = record["state"]
            else:
                self._fold(state, record)
        if count_replay:
            self.replays += 1
        return state

    def snapshot_json(self) -> str:
        """Canonical JSON of a fresh replay — the replay-idempotence
        oracle compares two of these byte for byte."""
        return json.dumps(
            self.replay(count_replay=False),
            sort_keys=True,
            separators=(",", ":"),
        )

    def dump(self) -> dict[str, Any]:
        """Diagnostic dump uploaded next to shrunk repros: every valid
        record plus the store's accounting."""
        payloads, truncated = self.store.read_all()
        return {
            "label": self.label,
            "records": [json.loads(p.decode("utf-8")) for p in payloads],
            "truncated_tail": truncated,
            "records_appended": self.store.records_appended,
            "bytes_appended": self.store.bytes_appended,
            "checkpoints": self.checkpoints,
            "replays": self.replays,
        }


class GatewayJournal(_JournalBase):
    """One island gateway's durable record stream.

    The logging surface mirrors the state transitions of the VSG, its
    event router and any rule engines attached to it; the fold rebuilds
    exactly the state :meth:`VirtualServiceGateway.recover` reinstalls.
    """

    def _fresh_state(self) -> dict[str, Any]:
        return fresh_gateway_state()

    # -- VSG lifecycle ---------------------------------------------------------

    def log_register(self, island: str, location: str, renewed_at: float) -> None:
        """Directory registration — ``renewed_at`` is the lease stamp: a
        recovering gateway re-registers, which renews it."""
        self._log({"t": "reg", "island": island, "location": location,
                   "renewed_at": renewed_at})

    def log_unregister(self) -> None:
        self._log({"t": "unreg"})

    def log_export(self, service: str, xml: str) -> None:
        self._log({"t": "exp", "service": service, "xml": xml})

    def log_withdraw(self, service: str) -> None:
        self._log({"t": "wd", "service": service})

    # -- event router ----------------------------------------------------------

    def log_local_topic(self, topic: str) -> None:
        self._log({"t": "lsub", "topic": topic})

    def log_remote_gateway(self, location: str, island: str) -> None:
        self._log({"t": "rgw", "location": location, "island": island})

    def log_remote_sub(self, island: str, topic: str, location: str) -> None:
        self._log({"t": "rsub", "island": island, "topic": topic,
                   "location": location})

    def log_sequence(self, sequence: int) -> None:
        self._log({"t": "seq", "n": sequence})

    def log_queue(self, island: str, event: dict[str, Any]) -> None:
        self._log({"t": "evq", "island": island, "event": event})

    def log_drain(self, island: str) -> None:
        self._log({"t": "drain", "island": island})

    def log_flush(self, island: str, batch: int) -> None:
        self._log({"t": "flush", "island": island, "batch": batch})

    def log_ack(self, island: str, batch: int) -> None:
        self._log({"t": "ack", "island": island, "batch": batch})

    def log_channel_ack(self, location: str, batch: int) -> None:
        self._log({"t": "cack", "location": location, "batch": batch})

    # -- rule engines ----------------------------------------------------------

    def log_rule_epoch(self, engine: str, epoch: float) -> None:
        self._log({"t": "repoch", "engine": engine, "epoch": epoch})

    def log_rule_seen(self, engine: str, rule: str, key: str) -> None:
        self._log({"t": "rseen", "engine": engine, "rule": rule, "key": key})

    def log_rule_fired(self, engine: str, rule: str, at: float) -> None:
        self._log({"t": "rfired", "engine": engine, "rule": rule, "at": at})

    # -- the fold --------------------------------------------------------------

    def _fold(self, state: dict[str, Any], record: dict[str, Any]) -> None:
        tag = record["t"]
        if tag == "reg":
            state["registered"] = [
                record["island"], record["location"], record["renewed_at"]
            ]
        elif tag == "unreg":
            state["registered"] = None
        elif tag == "exp":
            state["documents"][record["service"]] = record["xml"]
        elif tag == "wd":
            state["documents"].pop(record["service"], None)
        elif tag == "lsub":
            if record["topic"] not in state["local_topics"]:
                state["local_topics"].append(record["topic"])
        elif tag == "rgw":
            state["remote_gateways"][record["location"]] = record["island"]
        elif tag == "rsub":
            topics = state["remote_subs"].setdefault(record["island"], [])
            if record["topic"] not in topics:
                topics.append(record["topic"])
            if record["location"]:
                state["remote_locations"][record["island"]] = record["location"]
        elif tag == "seq":
            state["sequence"] = max(state["sequence"], record["n"])
        elif tag == "evq":
            state["queues"].setdefault(record["island"], []).append(record["event"])
        elif tag == "drain":
            # Delivery.fallback_to_poll hands the subscriber everything:
            # the queue and any retained unacked batch are both discharged.
            state["queues"][record["island"]] = []
            state["unacked"].pop(record["island"], None)
        elif tag == "flush":
            island = record["island"]
            state["unacked"][island] = [
                record["batch"], state["queues"].get(island, [])
            ]
            state["queues"][island] = []
            state["batch_seq"][island] = record["batch"]
        elif tag == "ack":
            retained = state["unacked"].get(record["island"])
            if retained is not None and record["batch"] >= retained[0]:
                state["unacked"].pop(record["island"], None)
        elif tag == "cack":
            acks = state["channel_acks"]
            acks[record["location"]] = max(
                acks.get(record["location"], 0), record["batch"]
            )
        elif tag == "repoch":
            self._engine_state(state, record)["epoch"] = record["epoch"]
        elif tag == "rseen":
            self._engine_state(state, record)["seen"].append(
                [record["rule"], record["key"]]
            )
        elif tag == "rfired":
            engine = self._engine_state(state, record)
            engine["last_fired"][record["rule"]] = record["at"]
        # Unknown tags are skipped, not fatal: a journal written by a
        # newer gateway must still replay on an older one.

    @staticmethod
    def _engine_state(state: dict[str, Any], record: dict[str, Any]) -> dict[str, Any]:
        return state["rules"].setdefault(
            record["engine"], {"seen": [], "last_fired": {}, "epoch": None}
        )


class DirectoryJournal(_JournalBase):
    """The VSR directory's durable record stream (documents + registry)."""

    def _fresh_state(self) -> dict[str, Any]:
        return {"documents": {}, "gateways": {}}

    def log_publish(self, service: str, xml: str) -> None:
        self._log({"t": "pub", "service": service, "xml": xml})

    def log_withdraw(self, service: str) -> None:
        self._log({"t": "wd", "service": service})

    def log_register(self, island: str, location: str) -> None:
        self._log({"t": "reg", "island": island, "location": location})

    def log_unregister(self, island: str) -> None:
        self._log({"t": "unreg", "island": island})

    def _fold(self, state: dict[str, Any], record: dict[str, Any]) -> None:
        tag = record["t"]
        if tag == "pub":
            state["documents"][record["service"]] = record["xml"]
        elif tag == "wd":
            state["documents"].pop(record["service"], None)
        elif tag == "reg":
            state["gateways"][record["island"]] = record["location"]
        elif tag == "unreg":
            state["gateways"].pop(record["island"], None)
