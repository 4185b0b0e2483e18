"""The Virtual Service Repository (VSR).

Paper Section 3.3: "a virtual database which has a lot of information of
heterogeneous services such as service locations and service contexts",
implemented in the prototype "with WSDL and UDDI" (Section 4.1).

Three layers here:

- :class:`VsrDirectory` — the directory proper: WSDL documents keyed by
  service name, context-attribute queries, gateway registrations, and
  change listeners.
- :class:`UddiSoapService` — hosts a directory as the SOAP service
  ``UDDI`` on a backbone node, so gateways reach it with ordinary SOAP
  calls (WSDL documents travel as XML strings, as in real UDDI).
- :class:`VsrClient` — the gateway-side client with a small read cache,
  routing every call over the directory plane's hash ring.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from repro.errors import (
    CircuitOpenError,
    DirectoryUnavailableError,
    RepositoryError,
    ServiceNotFoundError,
    SoapFault,
)
from repro.net.simkernel import SimFuture
from repro.net.transport import TransportStack
from repro.obs import NOOP_OBS, TraceContext
from repro.core.resilience import CallPolicy, CircuitBreaker
from repro.soap.client import SoapClient
from repro.soap.http import InterchangeConfig
from repro.soap.server import SoapServer
from repro.soap.wsdl import WsdlDocument

if TYPE_CHECKING:  # shard.py builds on this module
    from repro.core.shard import FederationRouting

UDDI_SERVICE_NAME = "UDDI"

#: The client's per-replica circuit breaker.  Only a replica with a
#: sibling to fail over to gets one (see :meth:`VsrClient._shard_call`).
REPLICA_BREAKER_POLICY = CallPolicy(breaker_threshold=3, breaker_reset_timeout=10.0)

#: Virtual seconds a "no such service" verdict stays negative-cached.
NEGATIVE_TTL = 1.0


def gateway_ring_key(island: str) -> str:
    """Ring key for an island's gateway registration.  Prefixed so the
    gateway namespace can never collide with a service named like an
    island; the federation router, the directory facade and the
    ring-placement oracle must all agree on this mapping."""
    return f"gw:{island}"


class FederatedDocuments(list):
    """The result of a federated scatter-gather ``find``.

    Behaves as a plain list of :class:`WsdlDocument` so every existing
    caller keeps working; ``missed_shards`` names the shards that failed
    to answer within their deadline, and ``degraded`` flags the partial
    result so federation sweeps can distinguish "empty" from "blind"."""

    def __init__(self, documents: Any = (), missed_shards: Any = ()) -> None:
        super().__init__(documents)
        self.missed_shards: tuple[int, ...] = tuple(missed_shards)

    @property
    def degraded(self) -> bool:
        return bool(self.missed_shards)


def too_few_seen(documents: list[WsdlDocument], needed: int) -> DirectoryUnavailableError | None:
    """The error for a caller that needs ``needed`` matches when
    ``documents`` is a degraded ``find`` result holding fewer: the shards
    that did not answer may hold the rest, so the shortfall is no answer
    (on a single directory, a dark directory answers nothing at all).
    ``None`` when the result settles the question."""
    missed = getattr(documents, "missed_shards", ())
    if missed and len(documents) < needed:
        return DirectoryUnavailableError(
            f"directory shard(s) {list(missed)} did not answer; "
            f"{len(documents)} of the {needed} matches needed were seen"
        )
    return None


class VsrDirectory:
    """The authoritative service directory."""

    def __init__(self) -> None:
        self._documents: dict[str, WsdlDocument] = {}
        self._gateways: dict[str, str] = {}  # island -> gateway event/control location
        #: Inverted index over context attributes: ``(key, value) -> set of
        #: service names`` — keeps :meth:`find` from scanning the whole
        #: catalogue per query (the scan is O(documents x filter), fatal at
        #: federation scale; the index intersects per-attribute sets).
        self._context_index: dict[tuple[str, str], set[str]] = {}
        self._listeners: list[Callable[[str, WsdlDocument | None], None]] = []
        #: Durable WAL journal (``repro.store.DirectoryJournal``); ``None``
        #: keeps the historical all-in-memory directory.
        self.journal: Any = None
        self.publishes = 0
        self.queries = 0
        self.cold_crashes = 0
        self.recoveries = 0

    # -- service documents ---------------------------------------------------------

    def publish(self, document: WsdlDocument) -> None:
        """Insert or replace the document for its service name."""
        if not document.service:
            raise RepositoryError("cannot publish a WSDL document without a service name")
        self._store_document(document)
        self.publishes += 1
        if self.journal is not None:
            self.journal.log_publish(
                document.service, document.to_xml().decode("utf-8")
            )
        self._notify(document.service, document)

    def withdraw(self, service: str) -> bool:
        document = self._delete_document(service)
        if document is not None:
            if self.journal is not None:
                self.journal.log_withdraw(service)
            self._notify(service, None)
        return document is not None

    # -- table maintenance (index kept in lockstep) ---------------------------------

    def _store_document(self, document: WsdlDocument) -> None:
        previous = self._documents.get(document.service)
        if previous is not None:
            self._index_remove(previous)
        self._documents[document.service] = document
        self._index_add(document)

    def _delete_document(self, service: str) -> WsdlDocument | None:
        document = self._documents.pop(service, None)
        if document is not None:
            self._index_remove(document)
        return document

    def _index_add(self, document: WsdlDocument) -> None:
        for item in document.context.items():
            self._context_index.setdefault(item, set()).add(document.service)

    def _index_remove(self, document: WsdlDocument) -> None:
        for item in document.context.items():
            names = self._context_index.get(item)
            if names is not None:
                names.discard(document.service)
                if not names:
                    del self._context_index[item]

    def find_by_name(self, service: str) -> WsdlDocument:
        self.queries += 1
        document = self._documents.get(service)
        if document is None:
            raise ServiceNotFoundError(f"VSR has no service named {service!r}")
        return document

    def find(self, context_filter: dict[str, str] | None = None) -> list[WsdlDocument]:
        """All documents whose context contains ``context_filter``.

        Non-empty filters intersect the inverted context index instead of
        scanning every document; :meth:`_find_scan` keeps the reference
        linear scan so the regression test can assert both agree on any
        directory.
        """
        self.queries += 1
        context_filter = context_filter or {}
        if not context_filter:
            return sorted(self._documents.values(), key=lambda d: d.service)
        names: set[str] | None = None
        for item in context_filter.items():
            matches = self._context_index.get(item)
            if not matches:
                return []
            names = set(matches) if names is None else names & matches
            if not names:
                return []
        assert names is not None
        return sorted(
            (self._documents[name] for name in names),
            key=lambda document: document.service,
        )

    def _find_scan(self, context_filter: dict[str, str] | None = None) -> list[WsdlDocument]:
        """Reference implementation of :meth:`find`: the historical linear
        scan, kept (test-only) as the oracle the index is judged against."""
        context_filter = context_filter or {}
        return sorted(
            (
                document
                for document in self._documents.values()
                if all(document.context.get(k) == v for k, v in context_filter.items())
            ),
            key=lambda document: document.service,
        )

    @property
    def service_count(self) -> int:
        return len(self._documents)

    def service_names(self) -> list[str]:
        return sorted(self._documents)

    @property
    def keys_owned(self) -> int:
        return len(self._documents) + len(self._gateways)

    # -- gateway registry --------------------------------------------------------

    def register_gateway(self, island: str, location: str) -> None:
        self._gateways[island] = location
        if self.journal is not None:
            self.journal.log_register(island, location)

    def unregister_gateway(self, island: str) -> bool:
        """Remove an island's gateway registration.  Subscribers notice on
        their next registry read and prune the poll loops / channels they
        keep per registered gateway."""
        removed = self._gateways.pop(island, None) is not None
        if removed and self.journal is not None:
            self.journal.log_unregister(island)
        return removed

    def gateways(self) -> dict[str, str]:
        return dict(self._gateways)

    # -- durable state (cold crash / recovery) -------------------------------------

    def attach_journal(self, journal: Any) -> None:
        """Opt the directory into durable state (``DirectoryJournal``)."""
        self.journal = journal

    def cold_crash(self) -> None:
        """The directory process dies: the store closes where the WAL tail
        stands and the in-memory catalogue is wiped."""
        if self.journal is None:
            return
        self.cold_crashes += 1
        self.journal.store.close()
        self._documents.clear()
        self._context_index.clear()
        self._gateways.clear()

    def cold_recover(self) -> None:
        """Replay the WAL back into the catalogue.  Restoration writes the
        tables directly — no ``_notify`` storm: listeners learned of these
        documents when they were first published, and a restart must not
        replay change notifications it already delivered."""
        if self.journal is None:
            return
        self.recoveries += 1
        self.journal.store.reopen()
        state = self.journal.replay()
        for service, xml in state["documents"].items():
            self._store_document(WsdlDocument.from_xml(xml))
        self._gateways.update(state["gateways"])

    # -- change notification ------------------------------------------------------

    def on_change(self, listener: Callable[[str, WsdlDocument | None], None]) -> None:
        """``listener(service, document_or_None)`` on publish/withdraw."""
        self._listeners.append(listener)

    def _notify(self, service: str, document: WsdlDocument | None) -> None:
        for listener in list(self._listeners):
            listener(service, document)


class UddiSoapService:
    """SOAP facade: mounts a :class:`VsrDirectory` on a SoapServer."""

    def __init__(self, soap_server: SoapServer, directory: VsrDirectory | None = None) -> None:
        self.directory = directory or VsrDirectory()
        self.soap_server = soap_server
        soap_server.register_service(UDDI_SERVICE_NAME, self._dispatch)

    def _dispatch(self, operation: str, args: list[Any]) -> Any:
        if operation == "publish":
            self.directory.publish(WsdlDocument.from_xml(str(args[0])))
            return True
        if operation == "withdraw":
            return self.directory.withdraw(str(args[0]))
        if operation == "find_by_name":
            return self.directory.find_by_name(str(args[0])).to_xml().decode("utf-8")
        if operation == "find_many":
            # Batched find_by_name: names the directory doesn't hold are
            # simply absent from the reply (the client raises per-name).
            self.directory.queries += 1
            reply: dict[str, str] = {}
            for name in list(args[0]):
                document = self.directory._documents.get(str(name))
                if document is not None:
                    reply[str(name)] = document.to_xml().decode("utf-8")
            return reply
        if operation == "find":
            context_filter = dict(args[0]) if args and args[0] else {}
            return [
                document.to_xml().decode("utf-8")
                for document in self.directory.find(context_filter)
            ]
        if operation == "register_gateway":
            self.directory.register_gateway(str(args[0]), str(args[1]))
            return True
        if operation == "unregister_gateway":
            return self.directory.unregister_gateway(str(args[0]))
        if operation == "list_gateways":
            return self.directory.gateways()
        raise RepositoryError(f"UDDI has no operation {operation!r}")


class _ShardCall(NamedTuple):
    """One logical call against a shard (see :meth:`VsrClient._shard_call`)."""

    shard: int
    operation: str
    args: list[Any]
    deadline: float
    trace: TraceContext | None
    started: float
    result: SimFuture


#: An entry's value once the directory answered "no such service".
_NOT_FOUND: Any = object()

#: The gateway listing's key among the client's entries: not a string, so
#: no service name can collide with it.
_GATEWAYS = None


class _Entry:
    """What a :class:`VsrClient` holds for one key: ``value``, the last
    answer it may serve (a :class:`WsdlDocument`, :data:`_NOT_FOUND`, or
    for :data:`_GATEWAYS` the listing; ``None`` before any), ``stamp``,
    the virtual time that answer came, and ``lookup``, the key's lookup in
    flight.  It has no ``__init__``, so making one runs no Python code: its
    maker sets ``value`` and ``lookup``, and ``stamp`` comes with a value."""

    __slots__ = ("value", "stamp", "lookup")


class VsrClient:
    """Gateway-side repository client with a read-through cache.

    The client keeps one :class:`_Entry` per key (a service name, or the
    gateway listing) under one rule: a write through this client, an
    :meth:`invalidate` or :meth:`forget_caches` drops the key's entry, and
    its lookup in flight is *retired*.  A retired lookup's answer may
    predate the write, so it settles the callers already waiting on it,
    stores nothing and takes no new coalescers; a current one stores what
    it learned, and a burst of lookups for one key shares it
    (``coalesced_lookups`` counts the round trips saved).

    A document is served for ``cache_ttl`` virtual seconds, and an
    authoritative "no such service" verdict, which replaces it, for
    :data:`NEGATIVE_TTL` (``negative_hits``); remote writes age out with
    the TTL unless the on_change chain calls :meth:`invalidate`.  When the
    directory itself is unreachable, a current lookup serves its entry's
    document or listing *even past its TTL* (``degraded_reads``), never a
    verdict's old document.  ``lookup_deadline`` bounds each directory
    round trip in virtual time (0 leaves only the transport's own
    timeouts).

    ``routing`` (a :class:`repro.core.shard.FederationRouting`) names
    every shard's replica endpoints; the home's single directory is the
    one-shard, one-replica routing.  Keyed operations (publish/withdraw/
    find_by_name/register_gateway/unregister_gateway) go to the ring
    owner's replicas in order, failing over on connectivity failures
    (``failovers``); a replica with a sibling to fail over to sits behind a
    per-endpoint circuit breaker and is skipped while it is open, without
    consuming any deadline.  ``find``/``list_gateways`` scatter to every
    shard with a per-shard deadline and degrade to partial results (see
    :class:`FederatedDocuments`) instead of failing.  Same-instant
    lookups for *different* names owned by one shard batch onto a single
    ``find_many`` exchange.
    """

    def __init__(
        self,
        stack: TransportStack,
        routing: FederationRouting,
        cache_ttl: float = 30.0,
        lookup_deadline: float = 0.0,
        interchange: InterchangeConfig | None = None,
        obs: Any = None,
        label: str = "",
    ) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.routing = routing
        self.cache_ttl = cache_ttl
        self.lookup_deadline = lookup_deadline
        self.soap = SoapClient(stack, interchange)
        self._entries: dict[str | None, _Entry] = {}
        self._breakers: dict[tuple[int, int], CircuitBreaker] = {}
        self._batch_pending: dict[int, dict[str, SimFuture]] = {}
        self.cache_hits = 0
        self.remote_lookups = 0
        self.coalesced_lookups = 0
        self.degraded_reads = 0
        self.lookup_failures = 0
        self.negative_hits = 0
        self.failovers = 0
        self.replicas_skipped_open = 0
        self.batched_lookups = 0
        self.partial_finds = 0
        self.obs = obs if obs is not None else NOOP_OBS
        self.label = label
        # The directory client gets its own metric namespace so its HTTP
        # traffic never mixes with the gateway's interchange client.
        self.soap.observe(self.obs, f"{label}.vsr" if label else "vsr")
        # ``replicas_skipped_open`` and ``partial_finds`` stay unexported.
        self.obs.metrics.track(
            f"vsr.{label}" if label else "vsr.client",
            self,
            "counter",
            (
                "cache_hits",
                "remote_lookups",
                "coalesced_lookups",
                "degraded_reads",
                "lookup_failures",
                "negative_hits",
                "failovers",
                "batched_lookups",
            ),
        )

    # -- routing --------------------------------------------------------------

    def _shard_breaker(self, shard: int, index: int) -> CircuitBreaker:
        key = (shard, index)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                self.sim, REPLICA_BREAKER_POLICY, f"{self.label or 'vsr'}:s{shard}r{index}"
            )
            self._breakers[key] = breaker
        return breaker

    def _shard_call(
        self,
        shard: int,
        operation: str,
        args: list[Any],
        deadline: float | None = None,
        trace: TraceContext | None = None,
    ) -> SimFuture:
        """One logical call against a shard: try its replicas in order,
        failing over on connectivity failures.  A replica whose breaker is
        open is skipped synchronously — no wire traffic, none of the
        shard's deadline consumed.  A SOAP fault is the shard *answering*
        (an authoritative verdict and a healthy endpoint), so it neither
        trips the breaker nor triggers failover.  ``deadline`` defaults to
        ``lookup_deadline``; every attempt joins ``trace`` (default: the
        caller's ambient span), since a failover runs from a later
        callback.

        The call's state travels in a :class:`_ShardCall` record between
        :meth:`_attempt` and :meth:`_settle` rather than in two closures
        that name each other: such a pair is a reference cycle per call,
        and on a directory with thousands of documents the garbage it
        leaves costs extra full collections."""
        if deadline is None:
            deadline = self.lookup_deadline
        if trace is None and self.obs.tracer.enabled:
            trace = self.obs.tracer.current_context()
        call = _ShardCall(shard, operation, args, deadline, trace, self.sim.now, SimFuture())
        self._attempt(call, 0, None, False)
        return call.result

    def _attempt(
        self, call: _ShardCall, index: int, last: BaseException | None, failover: bool
    ) -> None:
        replicas = self.routing.replicas(call.shard)
        # A breaker only pays off where there is a sibling to fail over
        # to; on a sole replica it would just keep failing lookups fast
        # after the directory is back.
        guarded = len(replicas) > 1
        deadline = call.deadline
        while index < len(replicas):
            endpoint = replicas[index]
            breaker = self._shard_breaker(call.shard, index) if guarded else None
            index += 1
            if breaker is not None:
                try:
                    breaker.admit()
                except CircuitOpenError as exc:
                    self.replicas_skipped_open += 1
                    last = exc
                    continue
            # Checked before anything goes on the wire: a request that can
            # no longer settle the call is neither sent nor counted.  (Both
            # forms: the first replica's timer fires at exactly started +
            # deadline, where rounding may leave the difference an ulp
            # short.)
            remaining = deadline - (self.sim.now - call.started)
            if deadline and (remaining <= 0 or self.sim.now >= call.started + deadline):
                call.result.set_exception(
                    last
                    or DirectoryUnavailableError(
                        f"shard {call.shard} deadline exhausted before "
                        f"{call.operation!r} reached {endpoint.name}"
                    )
                )
                return
            if failover:
                # An earlier replica failed on the wire and this one is
                # actually being tried.
                self.failovers += 1
            raw = self.soap.call(
                endpoint.address,
                UDDI_SERVICE_NAME,
                call.operation,
                call.args,
                port=endpoint.port,
                trace=call.trace,
            )
            if deadline:
                raw = raw.within(
                    self.sim,
                    remaining,
                    lambda name=endpoint.name: DirectoryUnavailableError(
                        f"shard {call.shard} replica {name} did not "
                        f"answer {call.operation!r} in time"
                    ),
                )
            raw.add_done_callback(partial(self._settle, call, index, breaker))
            return
        call.result.set_exception(
            last
            or DirectoryUnavailableError(
                f"no shard {call.shard} replica reachable for {call.operation!r}"
            )
        )

    def _settle(
        self, call: _ShardCall, index: int, breaker: CircuitBreaker | None, future: SimFuture
    ) -> None:
        exc = future.exception()
        if exc is None or isinstance(exc, SoapFault):
            if breaker is not None:
                breaker.record_success()
            if exc is None:
                call.result.set_result(future.result())
            else:
                call.result.set_exception(exc)
            return
        if breaker is not None:
            breaker.record_failure()
        self._attempt(call, index, exc, True)

    def _keyed_call(self, key: str, operation: str, args: list[Any]) -> SimFuture:
        """Route a keyed write/read to the ring owner's shard."""
        return self._shard_call(self.routing.owner(key), operation, args)

    def _lookup_call(self, service: str) -> SimFuture:
        """A ``find_by_name`` round trip.  Distinct names owned by the
        same shard that are requested in the same instant ride one
        ``find_many`` exchange (same-name callers already coalesce on the
        name's entry before reaching here; a lookup retired by a write
        shares the batched request, which has not left yet).  Resolves to
        the raw WSDL XML string."""
        shard = self.routing.owner(service)
        pending = self._batch_pending.get(shard)
        if pending is None:
            pending = self._batch_pending[shard] = {}
            # The request leaves from the flush event, where the caller's
            # ambient span is gone: carry its trace context there.
            tracer = self.obs.tracer
            self.sim.schedule(
                0.0, self._flush_batch, shard, tracer.current_context() if tracer.enabled else None
            )
        elif service in pending:
            return pending[service].relay(SimFuture())
        slot: SimFuture = SimFuture()
        pending[service] = slot
        return slot

    def _flush_batch(self, shard: int, trace: TraceContext | None) -> None:
        pending = self._batch_pending.pop(shard)
        if len(pending) == 1:
            ((service, slot),) = pending.items()
            self._shard_call(shard, "find_by_name", [service], trace=trace).relay(slot)
            return
        names = sorted(pending)
        self.batched_lookups += len(names) - 1

        def fanout(future: SimFuture) -> None:
            exc = future.exception()
            if exc is not None:
                for slot in pending.values():
                    slot.set_exception(exc)
                return
            try:
                reply = dict(future.result())
            except (TypeError, ValueError) as shape_exc:
                bad = RepositoryError(f"malformed find_many reply: {shape_exc}")
                for slot in pending.values():
                    slot.set_exception(bad)
                return
            for service, slot in pending.items():
                xml = reply.get(service)
                if xml is None:
                    slot.set_exception(
                        ServiceNotFoundError(
                            f"no service {service!r} registered in shard {shard}"
                        )
                    )
                else:
                    slot.set_result(xml)

        self._shard_call(shard, "find_many", [names], trace=trace).add_done_callback(fanout)

    # -- repository operations ----------------------------------------------

    def publish(self, document: WsdlDocument) -> SimFuture:
        self.invalidate(document.service)
        xml = document.to_xml().decode("utf-8")
        return self._keyed_call(document.service, "publish", [xml])

    def withdraw(self, service: str) -> SimFuture:
        self.invalidate(service)
        return self._keyed_call(service, "withdraw", [service])

    def find_by_name(self, service: str) -> SimFuture:
        """Resolve to a :class:`WsdlDocument` (cached).

        A directory failure (as opposed to "no such service") falls back to
        the entry's document regardless of age: the degraded read mode that
        keeps resolution alive through a UDDI outage.  It serves nothing
        once the lookup is retired (see the class docstring), or once the
        directory has called the name not found.
        """
        entry = self._entries.get(service)
        if entry is not None:
            value = entry.value
            if value is _NOT_FOUND:
                if self.sim.now - entry.stamp <= NEGATIVE_TTL:
                    # The directory said "no such service" moments ago; a
                    # retry loop gets the same authoritative verdict
                    # without another round trip.
                    self.negative_hits += 1
                    return SimFuture.failed(
                        ServiceNotFoundError(
                            f"no service {service!r} registered (negative-cached)"
                        )
                    )
            elif value is not None and self.sim.now - entry.stamp <= self.cache_ttl:
                self.cache_hits += 1
                return SimFuture.completed(value)
            if entry.lookup is not None:
                # Another caller is already resolving this name: share the
                # round trip instead of issuing a duplicate.
                self.coalesced_lookups += 1
                return entry.lookup.relay(SimFuture())
        else:
            entry = self._entries[service] = _Entry()
            entry.value = None
        self.remote_lookups += 1
        result = entry.lookup = SimFuture()
        self._lookup_call(service).add_done_callback(
            partial(self._answer, service, entry, result)
        )
        return result

    def _answer(
        self, key: str | None, entry: _Entry, result: SimFuture, future: SimFuture
    ) -> None:
        """Settle ``result``, the lookup of ``key``, from the directory's
        reply ``future``.  While ``key`` still maps to ``entry`` the
        lookup is current and stores what it learned; once a write retired
        the entry, the lookup only settles its callers."""
        current = self._entries.get(key) is entry
        if current:
            entry.lookup = None
        exc = future.exception()
        if exc is None:
            try:
                value = future.result()
                if key is not _GATEWAYS:
                    value = WsdlDocument.from_xml(str(value))
            except Exception as parse_exc:
                # A reply that does not parse as WSDL is transport
                # corruption (e.g. a mispaired pipelined response after
                # frame loss), not a directory verdict: treat it like an
                # unreachable directory, degraded reads included.
                exc = parse_exc
            else:
                if current:
                    entry.value, entry.stamp = value, self.sim.now
                result.set_result(value)
                return
        elif isinstance(exc, (SoapFault, ServiceNotFoundError)):
            # The directory answered: its verdict is authoritative.
            if current and (
                isinstance(exc, ServiceNotFoundError)
                or getattr(exc, "detail", "") == "ServiceNotFoundError"
            ):
                entry.value, entry.stamp = _NOT_FOUND, self.sim.now
            result.set_exception(exc)
            return
        self.lookup_failures += 1
        # A degraded read: the current entry's document or listing.
        value = entry.value if current else None
        if value is None or value is _NOT_FOUND:
            result.set_exception(exc)
            return
        self.degraded_reads += 1
        result.set_result(value)

    def find(self, context_filter: dict[str, str] | None = None) -> SimFuture:
        """Resolve to a list of :class:`WsdlDocument` (never cached: used
        for federation sweeps where freshness matters).

        The query scatters to every shard under a per-shard deadline and
        merges: a shard that cannot answer is *skipped*, and the (still
        successful) result is a :class:`FederatedDocuments` naming the
        missed shards — a partial directory beats no directory for a
        sweep.  Callers that decide on a count check the result with
        :func:`too_few_seen`."""
        routing = self.routing
        deadline = routing.config.find_deadline or self.lookup_deadline
        result: SimFuture = SimFuture()
        merged: dict[str, WsdlDocument] = {}
        missed: list[int] = []
        state = {"outstanding": routing.shard_count}

        def settle(shard: int, future: SimFuture) -> None:
            exc = future.exception()
            if exc is not None:
                missed.append(shard)
            else:
                try:
                    for xml in future.result():
                        document = WsdlDocument.from_xml(str(xml))
                        merged[document.service] = document
                except Exception:  # corrupt/mispaired reply: shard is blind
                    missed.append(shard)
            state["outstanding"] -= 1
            if state["outstanding"] == 0:
                if missed:
                    self.partial_finds += 1
                    self.degraded_reads += 1
                documents = sorted(merged.values(), key=lambda d: d.service)
                result.set_result(FederatedDocuments(documents, sorted(missed)))

        for shard in range(routing.shard_count):
            self._shard_call(
                shard, "find", [context_filter or {}], deadline=deadline
            ).add_done_callback(lambda fut, s=shard: settle(s, fut))
        return result

    def register_gateway(self, island: str, location: str) -> SimFuture:
        self._entries.pop(_GATEWAYS, None)
        return self._keyed_call(
            gateway_ring_key(island), "register_gateway", [island, location]
        )

    def unregister_gateway(self, island: str) -> SimFuture:
        """Remove ``island``'s registration.  Like every gateway write, it
        drops this client's gateway listing and retires a listing in
        flight, so a later directory outage cannot resurrect the entry this
        client just removed."""
        self._entries.pop(_GATEWAYS, None)
        return self._keyed_call(
            gateway_ring_key(island), "unregister_gateway", [island]
        )

    def list_gateways(self) -> SimFuture:
        """Resolve to the ``island -> control location`` registry.

        The last successful answer is remembered and served when the
        directory is unreachable (another degraded read), so heartbeating
        keeps working through a UDDI outage.  Concurrent callers share one
        in-flight round trip.
        """
        entry = self._entries.get(_GATEWAYS)
        if entry is None:
            entry = self._entries[_GATEWAYS] = _Entry()
            entry.value = None
        elif entry.lookup is not None:
            self.coalesced_lookups += 1
            return entry.lookup.relay(SimFuture())
        result = entry.lookup = SimFuture()
        self._scatter_gateways().add_done_callback(
            partial(self._answer, _GATEWAYS, entry, result)
        )
        return result

    def _scatter_gateways(self) -> SimFuture:
        """Merge the gateway registry across all shards.  Partial answers
        merge; only a total miss (every shard unreachable or answering
        garbage) surfaces as a failure, which then takes the usual
        degraded-cache path."""
        routing = self.routing
        deadline = routing.config.find_deadline or self.lookup_deadline
        result: SimFuture = SimFuture()
        merged: dict[str, str] = {}
        state: dict[str, Any] = {"outstanding": routing.shard_count, "hits": 0, "last": None}

        def settle(future: SimFuture) -> None:
            exc = future.exception()
            if exc is None:
                try:
                    merged.update(dict(future.result()))
                    state["hits"] += 1
                except (TypeError, ValueError) as shape_exc:
                    # Not an island->location map: a mispaired pipelined
                    # reply, which counts as a miss for this shard.
                    state["last"] = RepositoryError(
                        f"malformed gateway registry reply: {shape_exc}"
                    )
            else:
                state["last"] = exc
            state["outstanding"] -= 1
            if state["outstanding"] == 0:
                if state["hits"] == 0:
                    result.set_exception(state["last"])
                else:
                    result.set_result(merged)

        for shard in range(routing.shard_count):
            self._shard_call(
                shard, "list_gateways", [], deadline=deadline
            ).add_done_callback(settle)
        return result

    def invalidate(self, service: str) -> None:
        """Forget what this client holds about ``service``: the cached
        document or verdict, and the claim of its lookup in flight (see
        the class docstring)."""
        self._entries.pop(service, None)

    def forget_caches(self) -> None:
        """Cold crash of the owning gateway: every entry is process memory
        and dies with it.  Lookups in flight are retired: they settle their
        callers, whose deadlines already bound them, and store nothing."""
        self._entries.clear()
