"""Tests for the neutral call/fault records."""

import pytest

from repro.errors import RemoteServiceError
from repro.core.calls import ServiceCall, ServiceFault


class TestServiceCall:
    def test_wire_roundtrip(self):
        call = ServiceCall("Lamp", "dim", [50], source_island="jini", call_id=7)
        restored = ServiceCall.from_wire(call.to_wire())
        assert restored == call

    def test_from_partial_wire_uses_defaults(self):
        call = ServiceCall.from_wire({"service": "S", "operation": "op"})
        assert call.args == []
        assert call.source_island == ""
        assert call.call_id == 0

    def test_wire_form_is_marshallable_everywhere(self):
        from repro.havi.codec import decode as havi_decode, encode as havi_encode
        from repro.jini.marshalling import marshal, unmarshal
        from repro.soap.envelope import build_request, parse_envelope

        call = ServiceCall("S", "op", [1, "x", {"k": True}], "jini", 3)
        wire = call.to_wire()
        assert unmarshal(marshal(wire)) == wire
        assert havi_decode(havi_encode(wire)) == wire
        assert parse_envelope(build_request("invoke", [wire])).args[0] == wire


class TestServiceFault:
    def test_exception_roundtrip(self):
        fault = ServiceFault("HaviError", "zoom out of range", "havi")
        exc = fault.to_exception()
        assert isinstance(exc, RemoteServiceError)
        assert exc.code == "HaviError"
        assert "zoom out of range" in str(exc)
        assert "havi" in str(exc)
        back = ServiceFault.from_exception(exc)
        assert back == fault

    def test_from_arbitrary_exception(self):
        fault = ServiceFault.from_exception(ValueError("nope"), island="x10")
        assert fault.code == "ValueError"
        assert fault.message == "nope"
        assert fault.island == "x10"
