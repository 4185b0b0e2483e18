"""Neutral call/result/fault records crossing the Virtual Service Gateway."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import RemoteServiceError

if TYPE_CHECKING:  # pragma: no cover - type hints only, no runtime import
    from repro.obs.trace import TraceContext


@dataclass
class ServiceCall:
    """One neutral invocation as it crosses the gateway."""

    service: str
    operation: str
    args: list[Any] = field(default_factory=list)
    source_island: str = ""
    call_id: int = 0
    #: Trace context this call belongs to (None when tracing is off).
    #: Deliberately NOT part of the wire dict: across the interchange the
    #: context travels in the ``X-Trace`` HTTP header, never the envelope,
    #: so the 2002 wire format stays byte-identical.
    trace: "TraceContext | None" = None

    def to_wire(self) -> dict[str, Any]:
        return {
            "service": self.service,
            "operation": self.operation,
            "args": self.args,
            "source_island": self.source_island,
            "call_id": self.call_id,
        }

    @staticmethod
    def from_wire(data: dict[str, Any]) -> "ServiceCall":
        return ServiceCall(
            service=str(data.get("service", "")),
            operation=str(data.get("operation", "")),
            args=list(data.get("args", [])),
            source_island=str(data.get("source_island", "")),
            call_id=int(data.get("call_id", 0)),
        )


@dataclass
class ServiceFault:
    """Failure outcome; convertible to/from the local exception."""

    code: str
    message: str
    island: str = ""

    def to_exception(self) -> RemoteServiceError:
        return RemoteServiceError(self.code, self.message, self.island)

    @staticmethod
    def from_exception(exc: BaseException, island: str = "") -> "ServiceFault":
        if isinstance(exc, RemoteServiceError):
            return ServiceFault(exc.code, exc.fault_message, exc.island or island)
        return ServiceFault(type(exc).__name__, str(exc), island)
