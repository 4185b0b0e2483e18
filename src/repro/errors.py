"""Shared exception hierarchy for the whole reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch at whatever granularity they need.  Faults that cross a
Virtual Service Gateway are encoded on the wire (e.g. as SOAP Faults) and
re-raised on the calling side as :class:`RemoteServiceError` with the original
fault information preserved.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Simulation / network substrate
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation kernel."""


class NetworkError(ReproError):
    """Base class for simulated-network errors."""


class AddressError(NetworkError):
    """Unknown or malformed node/hardware address."""


class TransportError(NetworkError):
    """Transport-layer failure (connection refused, reset, port in use)."""


class ConnectionClosedError(TransportError):
    """Operation attempted on a closed stream connection."""


class TimeoutError(NetworkError):  # noqa: A001 - deliberate shadow, namespaced
    """A simulated operation did not complete within its virtual deadline."""


class FaultInjectionError(ReproError):
    """A fault plan referenced an unknown target or was malformed."""


# ---------------------------------------------------------------------------
# Protocol substrates
# ---------------------------------------------------------------------------


class ProtocolError(ReproError):
    """Malformed or unexpected protocol data."""


class SoapError(ProtocolError):
    """SOAP envelope construction or parsing failure."""


class SoapFault(SoapError):
    """A SOAP Fault returned by a remote endpoint.

    Attributes mirror the SOAP 1.1 fault structure.
    """

    def __init__(self, faultcode: str, faultstring: str, detail: str = ""):
        super().__init__(f"{faultcode}: {faultstring}")
        self.faultcode = faultcode
        self.faultstring = faultstring
        self.detail = detail


class HttpError(ProtocolError):
    """HTTP request/response violation or non-2xx status."""

    def __init__(self, status: int, reason: str, body: bytes = b""):
        super().__init__(f"HTTP {status} {reason}")
        self.status = status
        self.reason = reason
        self.body = body


class MarshallingError(ProtocolError):
    """Value could not be encoded/decoded by a middleware codec."""


class JiniError(ProtocolError):
    """Jini substrate failure (discovery, lookup, lease, RMI)."""


class LeaseDeniedError(JiniError):
    """The lookup service refused to grant or renew a lease."""


class LeaseExpiredError(JiniError):
    """An operation referenced a lease that has already expired."""


class ServiceNotFoundError(ReproError):
    """No service matched the lookup template / repository query."""


class HaviError(ProtocolError):
    """HAVi substrate failure (bus, messaging, registry, DCM/FCM)."""


class X10Error(ProtocolError):
    """X10 substrate failure (CM11A framing, powerline, codes)."""


class ChecksumError(X10Error):
    """CM11A checksum exchange failed."""


class MailError(ProtocolError):
    """SMTP/mailbox failure."""


class UpnpError(ProtocolError):
    """UPnP substrate failure (SSDP, description, control, eventing)."""


class SipError(ProtocolError):
    """SIP substrate failure (transaction timeout, malformed message)."""


# ---------------------------------------------------------------------------
# Meta-middleware core
# ---------------------------------------------------------------------------


class FrameworkError(ReproError):
    """Base class for meta-middleware framework errors."""


class InterfaceError(FrameworkError):
    """Invalid service interface definition or value/type mismatch."""


class GatewayError(FrameworkError):
    """Virtual Service Gateway failure (unreachable peer, bad route)."""


class RepositoryError(FrameworkError):
    """Virtual Service Repository failure (conflict, stale entry)."""


class DeadlineExceededError(GatewayError):
    """A remote invocation exceeded its :class:`CallPolicy` deadline."""


class CircuitOpenError(GatewayError):
    """Fast failure: the target island's circuit breaker is open."""

    def __init__(self, island: str, retry_at: float):
        super().__init__(
            f"circuit breaker open for island {island!r} (half-open probe at "
            f"t={retry_at:.3f})"
        )
        self.island = island
        self.retry_at = retry_at


class DirectoryUnavailableError(RepositoryError):
    """The VSR directory is unreachable and no cached entry can stand in."""


class ConversionError(FrameworkError):
    """A Protocol Conversion Manager could not convert a call or value."""


class RemoteServiceError(FrameworkError):
    """A bridged call failed on the remote island.

    Carries the neutral fault information that crossed the gateway.
    """

    def __init__(self, code: str, message: str, island: str = ""):
        origin = f" (island {island})" if island else ""
        super().__init__(f"remote fault {code}: {message}{origin}")
        self.code = code
        self.fault_message = message
        self.island = island


class StreamNotBridgeableError(FrameworkError):
    """Multimedia stream setup attempted across a gateway that cannot carry
    isochronous data (the paper's Section 4.2 negative result)."""
