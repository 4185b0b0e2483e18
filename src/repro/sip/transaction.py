"""SIP transaction layer over UDP.

Client transactions retransmit with doubling timers (T1 = 0.5 s, giving up
after four attempts with a local 408); server transactions absorb
retransmissions by caching the response per branch id.  This is what makes
SIP usable on plain datagrams where SOAP needed a whole TCP connection —
half of the paper's "SIP may be more suitable" argument.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SipError
from repro.net.addressing import NodeAddress
from repro.net.simkernel import SimFuture
from repro.net.transport import TransportStack
from repro.sip.messages import (
    SipRequest,
    SipResponse,
    parse_message,
)

DEFAULT_SIP_PORT = 5060
T1 = 0.5
MAX_ATTEMPTS = 4
_BRANCH_MAGIC = "z9hG4bK"
_SERVER_CACHE_LIMIT = 256

#: Inbound request handler: returns a SipResponse or a SimFuture of one.
RequestHandler = Callable[[SipRequest, NodeAddress, int], "SipResponse | SimFuture"]


class SipTransactionLayer:
    """One UDP port's worth of SIP transactions."""

    def __init__(self, stack: TransportStack, port: int = DEFAULT_SIP_PORT) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.port = port
        self._socket = stack.udp_socket(port)
        self._socket.on_datagram(self._on_datagram)
        self.on_request: RequestHandler | None = None
        self._branch_counter = 0
        self._cseq_counter = 0
        self._pending: dict[str, dict] = {}
        self._server_cache: dict[str, bytes] = {}
        self.requests_sent = 0
        self.responses_sent = 0
        self.retransmissions = 0

    def close(self) -> None:
        for entry in self._pending.values():
            entry["timer"].cancel()
        self._pending.clear()
        self._socket.close()

    # -- client side ------------------------------------------------------------

    def send_request(
        self, dst: NodeAddress, dst_port: int, request: SipRequest
    ) -> SimFuture:
        """Send with retransmission; resolves to the :class:`SipResponse`
        (or a locally generated 408 on timeout)."""
        self._branch_counter += 1
        self._cseq_counter += 1
        # The branch must be unique across *every* client on the network
        # (RFC 3261's magic-cookie rule): embed our address, or a peer's
        # server-transaction cache would absorb another client's first
        # request as a retransmission of ours.
        local = str(self.stack.local_address()).replace("/", ".")
        branch = f"{_BRANCH_MAGIC}-{local}-{self.port}-{self._branch_counter}"
        request.headers["Via"] = (
            f"SIP/2.0/UDP {self.stack.local_address()}:{self.port};branch={branch}"
        )
        request.headers.setdefault("CSeq", f"{self._cseq_counter} {request.method}")
        data = request.to_bytes()
        future: SimFuture = SimFuture()
        entry = {
            "future": future,
            "data": data,
            "dst": dst,
            "dst_port": dst_port,
            "attempts": 1,
            "timer": None,
        }
        self._pending[branch] = entry
        self.requests_sent += 1
        self._socket.sendto(dst, dst_port, data)
        entry["timer"] = self.sim.schedule(T1, self._retransmit, branch, T1)
        return future

    def _retransmit(self, branch: str, interval: float) -> None:
        entry = self._pending.get(branch)
        if entry is None:
            return
        if entry["attempts"] >= MAX_ATTEMPTS:
            del self._pending[branch]
            entry["future"].set_result(
                SipResponse(status=408, headers={"Branch": branch})
            )
            return
        entry["attempts"] += 1
        self.retransmissions += 1
        self._socket.sendto(entry["dst"], entry["dst_port"], entry["data"])
        entry["timer"] = self.sim.schedule(
            interval * 2, self._retransmit, branch, interval * 2
        )

    # -- datagram dispatch ----------------------------------------------------------

    def _on_datagram(self, src: NodeAddress, src_port: int, data: bytes) -> None:
        try:
            message = parse_message(data)
        except SipError:
            return  # drop garbage, like a real stack
        if isinstance(message, SipResponse):
            self._handle_response(message)
        else:
            self._handle_request(message, src, src_port)

    def _handle_response(self, response: SipResponse) -> None:
        branch = _branch_of(response.header("Via"))
        entry = self._pending.pop(branch, None)
        if entry is None:
            return  # late retransmitted response
        entry["timer"].cancel()
        entry["future"].set_result(response)

    def _handle_request(self, request: SipRequest, src: NodeAddress, src_port: int) -> None:
        branch = _branch_of(request.header("Via"))
        cached = self._server_cache.get(branch)
        if cached is not None:
            self._socket.sendto(src, src_port, cached)  # absorbed retransmission
            return
        if self.on_request is None:
            self._reply(request, src, src_port, SipResponse(status=501), branch)
            return
        try:
            outcome = self.on_request(request, src, src_port)
        except SipError as exc:
            self._reply(
                request, src, src_port, SipResponse(status=400, reason=str(exc)), branch
            )
            return
        except Exception as exc:  # handler bug must not kill the stack
            self._reply(
                request, src, src_port, SipResponse(status=500, reason=str(exc)), branch
            )
            return
        if isinstance(outcome, SimFuture):
            def on_done(future: SimFuture) -> None:
                exc = future.exception()
                if exc is not None:
                    response = SipResponse(status=500, reason=str(exc))
                else:
                    response = future.result()
                self._reply(request, src, src_port, response, branch)

            outcome.add_done_callback(on_done)
        else:
            self._reply(request, src, src_port, outcome, branch)

    def _reply(
        self,
        request: SipRequest,
        src: NodeAddress,
        src_port: int,
        response: SipResponse,
        branch: str,
    ) -> None:
        response.headers.setdefault("Via", request.header("Via"))
        response.headers.setdefault("CSeq", request.header("CSeq"))
        data = response.to_bytes()
        if branch:
            if len(self._server_cache) >= _SERVER_CACHE_LIMIT:
                self._server_cache.clear()
            self._server_cache[branch] = data
        self.responses_sent += 1
        self._socket.sendto(src, src_port, data)


def _branch_of(via: str) -> str:
    _, _, branch = via.partition("branch=")
    return branch.split(";")[0].strip()
