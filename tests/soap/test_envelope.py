"""Tests for SOAP envelopes and the Section-5 value encoding."""

import base64

import pytest
from hypothesis import given, strategies as st

from repro.errors import MarshallingError, SoapError, SoapFault
from repro.soap import envelope, xmlutil
from repro.soap.envelope import build_fault, build_request, build_response, parse_envelope
from tests.xml_writer import XmlWriter


def roundtrip_value(value):
    data = build_request("op", [value])
    message = parse_envelope(data)
    assert message.kind == "request"
    return message.args[0]


# Identifier-like ASCII keys only: SOAP structs become XML element names.
_keys = st.text(alphabet="abcdefghijKLMNOP", min_size=1, max_size=10)

# XML 1.0 cannot carry control characters or unpaired surrogates.
_xml_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs")), max_size=50
)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    _xml_text,
    st.binary(max_size=50),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(_keys, children, max_size=5),
    ),
    max_leaves=20,
)


class TestValueRoundTrips:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -42,
            2**31,
            1.5,
            -0.25,
            "",
            "plain",
            "escapes <&> \"quotes\" 'and' é漢",
            b"",
            b"\x00\xff binary",
            [],
            [1, "two", 3.0, None],
            {},
            {"nested": {"list": [1, [2, [3]]]}},
        ],
    )
    def test_specific_values(self, value):
        result = roundtrip_value(value)
        if isinstance(value, tuple):
            value = list(value)
        assert result == value

    @given(_values)
    def test_arbitrary_values_roundtrip(self, value):
        def normalise(v):
            if isinstance(v, tuple):
                return [normalise(item) for item in v]
            if isinstance(v, list):
                return [normalise(item) for item in v]
            if isinstance(v, dict):
                return {k: normalise(m) for k, m in v.items()}
            if isinstance(v, bytearray):
                return bytes(v)
            return v

        assert roundtrip_value(value) == normalise(value)

    def test_bool_distinct_from_int(self):
        assert roundtrip_value(True) is True
        assert roundtrip_value(1) == 1
        assert not isinstance(roundtrip_value(1), bool)

    def test_unencodable_value_rejected(self):
        with pytest.raises(MarshallingError):
            build_request("op", [object()])

    def test_bad_struct_key_rejected(self):
        with pytest.raises(MarshallingError):
            build_request("op", [{"no spaces allowed": 1}])
        with pytest.raises(MarshallingError):
            build_request("op", [{1: "non-string key"}])


class TestEnvelopes:
    def test_request_shape(self):
        message = parse_envelope(build_request("turnOn", [1, "two"]))
        assert message.kind == "request"
        assert message.operation == "turnOn"
        assert message.args == [1, "two"]

    def test_response_shape(self):
        message = parse_envelope(build_response("turnOn", {"ok": True}))
        assert message.kind == "response"
        assert message.operation == "turnOn"
        assert message.value == {"ok": True}

    def test_void_response(self):
        message = parse_envelope(build_response("reset", None))
        assert message.value is None

    def test_fault_shape_and_raise(self):
        message = parse_envelope(build_fault("SOAP-ENV:Server", "boom", "detail here"))
        assert message.kind == "fault"
        assert message.faultcode == "SOAP-ENV:Server"
        with pytest.raises(SoapFault) as excinfo:
            message.raise_if_fault()
        assert excinfo.value.detail == "detail here"

    def test_request_envelope_is_textual_xml(self):
        data = build_request("op", [42])
        text = data.decode("utf-8")
        assert text.startswith('<?xml version="1.0"')
        assert "SOAP-ENV:Envelope" in text
        assert 'xsi:type="xsd:int"' in text

    def test_bad_operation_name_rejected(self):
        with pytest.raises(SoapError):
            build_request("has space", [])
        with pytest.raises(SoapError):
            build_response("1digit", None)

    @pytest.mark.parametrize(
        "bad",
        [
            b"",
            b"not xml at all",
            b"<wrong/>",
            b'<?xml version="1.0"?><SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/"><SOAP-ENV:Body/></SOAP-ENV:Envelope>',
        ],
    )
    def test_malformed_envelopes_rejected(self, bad):
        with pytest.raises(SoapError):
            parse_envelope(bad)

    def test_xml_payload_size_is_many_times_binary(self):
        """The cost the paper accepts for SOAP's simplicity."""
        from repro.jini.marshalling import marshal

        args = [5, "play", True]
        soap_size = len(build_request("invoke", args))
        binary_size = len(marshal({"op": "invoke", "args": args}))
        assert soap_size > 3 * binary_size


class TestXmlWriter:
    def test_nested_document(self):
        writer = XmlWriter(declaration=False)
        writer.open("a", {"x": "1"})
        writer.leaf("b", text="text")
        writer.leaf("c")
        writer.close()
        assert writer.tostring() == '<a x="1"><b>text</b><c/></a>'

    def test_unclosed_elements_detected(self):
        writer = XmlWriter()
        writer.open("a")
        with pytest.raises(SoapError):
            writer.tostring()

    def test_close_without_open_detected(self):
        writer = XmlWriter()
        with pytest.raises(SoapError):
            writer.close()

    def test_attribute_escaping(self):
        writer = XmlWriter(declaration=False)
        writer.leaf("a", {"v": 'quote " amp & lt <'}, None)
        text = writer.tostring()
        assert "&quot;" in text and "&amp;" in text and "&lt;" in text

    @given(st.text(max_size=100))
    def test_text_escaping_roundtrips_through_parser(self, text):
        import xml.etree.ElementTree as ET

        # Strip control chars XML 1.0 cannot carry at all, and \r which the
        # parser normalises to \n per the XML spec.
        clean = "".join(
            ch for ch in text if ch in "\t\n" or (ord(ch) >= 0x20 and ord(ch) != 0x7F)
        )
        # Also strip surrogates, which cannot be encoded.
        clean = clean.encode("utf-8", errors="ignore").decode("utf-8")
        writer = XmlWriter(declaration=False)
        writer.leaf("t", text=clean)
        parsed = ET.fromstring(writer.tostring())
        assert (parsed.text or "") == clean


class TestTerseEnvelopes:
    """The negotiated compact encoding: same value model, far fewer bytes."""

    def roundtrip_terse(self, value):
        data = envelope.build_request_terse("op", [value])
        message = parse_envelope(data)
        assert message.kind == "request"
        assert message.wire_format == "terse"
        return message.args[0]

    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -42,
            2**31,
            1.5,
            -0.25,
            "",
            "plain",
            "escapes <&> \"quotes\" 'and' é漢",
            b"",
            b"\x00\xffbinary",
            [],
            [1, "two", 3.0],
            {},
            {"a": 1, "b": [True, None]},
            {"nested": {"deep": {"x": b"\x01"}}},
        ],
    )
    def test_examples_roundtrip(self, value):
        assert self.roundtrip_terse(value) == value

    @given(_values)
    def test_any_value_roundtrips(self, value):
        assert self.roundtrip_terse(value) == value

    def test_request_shape(self):
        data = envelope.build_request_terse("setPower", [True, "lamp"])
        assert data.startswith(b"<E><Q n=\"setPower\">")
        message = parse_envelope(data)
        assert message.operation == "setPower"
        assert message.args == [True, "lamp"]

    def test_response_roundtrip(self):
        data = envelope.build_response_terse("getTemp", 21.5)
        message = parse_envelope(data)
        assert message.kind == "response"
        assert message.operation == "getTemp"
        assert message.value == 21.5
        assert message.wire_format == "terse"

    def test_fault_roundtrip(self):
        data = envelope.build_fault_terse("SOAP-ENV:Server", "boom", "Detail")
        message = parse_envelope(data)
        assert message.kind == "fault"
        assert message.faultcode == "SOAP-ENV:Server"
        assert message.faultstring == "boom"
        assert message.detail == "Detail"

    def test_terse_is_much_smaller_than_verbose(self):
        args = [{"reading": 21.5, "unit": "C", "ok": True}, [1, 2, 3], "sensor-7"]
        verbose = build_request("report", args)
        terse = envelope.build_request_terse("report", args)
        assert len(terse) * 2 < len(verbose)

    def test_verbose_messages_still_parse_as_verbose(self):
        message = parse_envelope(build_request("op", [1]))
        assert message.wire_format == "verbose"

    def test_bad_operation_name_rejected(self):
        with pytest.raises(SoapError):
            envelope.build_request_terse("not a name", [])

    def test_bad_struct_key_rejected(self):
        with pytest.raises(MarshallingError):
            envelope.build_request_terse("op", [{"bad key": 1}])


# ---------------------------------------------------------------------------
# Template writers and the terse reader against the general-purpose paths
# ---------------------------------------------------------------------------


def writer_value(writer, tag, value):
    """A value as :class:`XmlWriter` renders it: the reference for
    :func:`envelope.encode_value`."""
    if value is None:
        writer.leaf(tag, {"xsi:nil": "true"})
    elif isinstance(value, bool):
        writer.leaf(tag, {"xsi:type": "xsd:boolean"}, "true" if value else "false")
    elif isinstance(value, int):
        writer.leaf(tag, {"xsi:type": "xsd:int"}, str(value))
    elif isinstance(value, float):
        writer.leaf(tag, {"xsi:type": "xsd:double"}, repr(value))
    elif isinstance(value, str):
        writer.leaf(tag, {"xsi:type": "xsd:string"}, value)
    elif isinstance(value, (bytes, bytearray)):
        writer.leaf(tag, {"xsi:type": "SOAP-ENC:base64"}, base64.b64encode(bytes(value)).decode())
    elif isinstance(value, (list, tuple)):
        writer.open(tag, {"xsi:type": "SOAP-ENC:Array",
                          "SOAP-ENC:arrayType": f"xsd:anyType[{len(value)}]"})
        for item in value:
            writer_value(writer, "item", item)
        writer.close()
    else:
        writer.open(tag, {"xsi:type": "SOAP-ENC:Struct"})
        for key, member in value.items():
            writer_value(writer, key, member)
        writer.close()


def writer_value_terse(writer, value, name=""):
    """The reference for :func:`envelope.encode_value_terse`."""
    attrs = {"n": name} if name else {}
    if value is None:
        writer.leaf("v", {**attrs, "t": "z"})
    elif isinstance(value, bool):
        writer.leaf("v", {**attrs, "t": "b"}, "1" if value else "0")
    elif isinstance(value, int):
        writer.leaf("v", {**attrs, "t": "i"}, str(value))
    elif isinstance(value, float):
        writer.leaf("v", {**attrs, "t": "d"}, repr(value))
    elif isinstance(value, str):
        writer.leaf("v", {**attrs, "t": "s"}, value)
    elif isinstance(value, (bytes, bytearray)):
        writer.leaf("v", {**attrs, "t": "x"}, base64.b64encode(bytes(value)).decode())
    elif isinstance(value, (list, tuple)):
        writer.open("v", {**attrs, "t": "a"})
        for item in value:
            writer_value_terse(writer, item)
        writer.close()
    else:
        writer.open("v", {**attrs, "t": "r"})
        for key, member in value.items():
            writer_value_terse(writer, member, key)
        writer.close()


_ENVELOPE_ATTRS = {
    "xmlns:SOAP-ENV": xmlutil.SOAP_ENV_NS,
    "xmlns:SOAP-ENC": xmlutil.SOAP_ENC_NS,
    "xmlns:xsi": xmlutil.XSI_NS,
    "xmlns:xsd": xmlutil.XSD_NS,
    "SOAP-ENV:encodingStyle": xmlutil.SOAP_ENC_NS,
}


def writer_envelope(fill):
    writer = XmlWriter()
    writer.open("SOAP-ENV:Envelope", _ENVELOPE_ATTRS)
    writer.open("SOAP-ENV:Body")
    fill(writer)
    writer.close()
    writer.close()
    return writer.tobytes()


def writer_request(operation, args, service_ns=envelope.DEFAULT_SERVICE_NS):
    def fill(writer):
        writer.open(f"m:{operation}", {"xmlns:m": service_ns})
        for index, value in enumerate(args):
            writer_value(writer, f"arg{index}", value)
        writer.close()

    return writer_envelope(fill)


def writer_response(operation, value, service_ns=envelope.DEFAULT_SERVICE_NS):
    def fill(writer):
        writer.open(f"m:{operation}Response", {"xmlns:m": service_ns})
        writer_value(writer, "return", value)
        writer.close()

    return writer_envelope(fill)


def writer_fault(faultcode, faultstring, detail=""):
    def fill(writer):
        writer.open("SOAP-ENV:Fault")
        writer.leaf("faultcode", text=faultcode)
        writer.leaf("faultstring", text=faultstring)
        if detail:
            writer.leaf("detail", text=detail)
        writer.close()

    return writer_envelope(fill)


def writer_terse(entry, attrs, values):
    writer = XmlWriter(declaration=False)
    writer.open("E")
    writer.open(entry, attrs)
    for value in values:
        writer_value_terse(writer, value)
    writer.close()
    writer.close()
    return writer.tobytes()


def writer_terse_leaf(entry, attrs):
    writer = XmlWriter(declaration=False)
    writer.open("E")
    writer.leaf(entry, attrs)
    writer.close()
    return writer.tobytes()


_ops = st.text(alphabet="abcdefgXYZ_0123456789", min_size=1, max_size=8).filter(
    xmlutil.is_xml_name
)
# Any text the writers can encode: control characters, \r, \t and \n
# included, which is what attribute values and character data must survive.
_any_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)


class TestTemplateWriters:
    """Every builder renders exactly the bytes the general-purpose
    :class:`XmlWriter` renders for the same message."""

    @given(_ops, st.lists(_values, max_size=3), _any_text)
    def test_verbose_request(self, operation, args, service_ns):
        assert build_request(operation, args, service_ns) == writer_request(
            operation, args, service_ns
        )

    @given(_ops, _values)
    def test_verbose_response(self, operation, value):
        assert build_response(operation, value) == writer_response(operation, value)

    @given(_any_text, _any_text, _any_text)
    def test_verbose_fault(self, code, string, detail):
        assert build_fault(code, string, detail) == writer_fault(code, string, detail)

    @given(_ops, st.lists(_values, max_size=3))
    def test_terse_request(self, operation, args):
        assert envelope.build_request_terse(operation, args) == writer_terse(
            "Q", {"n": operation}, args
        )

    @given(_ops, _values)
    def test_terse_response(self, operation, value):
        assert envelope.build_response_terse(operation, value) == writer_terse(
            "R", {"n": operation}, [value]
        )

    @given(_any_text, _any_text, _any_text)
    def test_terse_fault(self, code, string, detail):
        attrs = {"c": code, "s": string}
        if detail:
            attrs["d"] = detail
        assert envelope.build_fault_terse(code, string, detail) == writer_terse_leaf("F", attrs)

    @given(_any_text, st.integers(), st.floats())
    def test_event_wait(self, island, ack, hold):
        attrs = {"i": island, "a": str(ack), "h": repr(hold)}
        assert envelope.build_event_wait(island, ack, hold) == writer_terse_leaf("W", attrs)

    @given(st.integers(), st.lists(_values, max_size=4))
    def test_event_frame(self, batch, events):
        assert envelope.build_event_frame(batch, events) == writer_terse(
            "V", {"b": str(batch)}, events
        )

    def test_int_and_float_subclasses_render_as_str_and_repr(self):
        import enum

        class Level(enum.IntEnum):
            HIGH = 3

        for value in (Level.HIGH, [Level.HIGH, 2.5e-300], {"k": Level.HIGH}):
            assert build_request("op", [value]) == writer_request("op", [value])
            assert envelope.build_request_terse("op", [value]) == writer_terse(
                "Q", {"n": "op"}, [value]
            )


def outcome(read, data):
    """``read(data)``'s result, or the type of what it raised."""
    try:
        return read(data)
    except Exception as exc:
        return type(exc)


#: Fragments a hostile or foreign peer might put anywhere in an envelope.
HOSTILE = [
    "\r", "\r\n", "\t", "\n", " ", "\x00", "\x01", "\x0b", "\x1f", "\ufffe", "\uffff",
    "&#0;", "&#10;", "&#x41;", "&quot;", "&apos;", "&foo;", "&", "&amp", "&lt", "<", ">",
    "]]>", '"', "'", "<!-- c -->", "<?pi x?>", "<![CDATA[x]]>", "</v>", "<v/>",
    '<v t="s">', '<v t="z"/>', '<v n="k" t="i">1</v>', ' n="dup"', ' t="s"', ' x="1"',
    "</Q>", "</E>", "<E>", "é", "1", "-", "e", "trailing",
]


class TestTerseReader:
    """The terse reader answers exactly as the ElementTree path does: equal
    messages, or the same exception type."""

    def check(self, data, read=parse_envelope, tree=envelope._parse_tree):
        assert outcome(read, data) == outcome(tree, data)

    @given(_ops, st.lists(_values, max_size=4))
    def test_requests(self, operation, args):
        data = envelope.build_request_terse(operation, args)
        if xmlutil.plain_bytes(data):
            assert envelope._read_terse(data) is not None
        self.check(data)

    @given(_ops, _values)
    def test_responses(self, operation, value):
        data = envelope.build_response_terse(operation, value)
        if xmlutil.plain_bytes(data):
            assert envelope._read_terse(data) is not None
        self.check(data)

    @given(_any_text, _any_text, _any_text)
    def test_faults(self, code, string, detail):
        self.check(envelope.build_fault_terse(code, string, detail))

    @given(st.integers(min_value=-(2**63), max_value=2**63), st.lists(_values, max_size=4))
    def test_event_frames(self, batch, events):
        data = envelope.build_event_frame(batch, events)
        if xmlutil.plain_bytes(data) and abs(batch) < 10**18:
            assert envelope._read_event_frame(data) is not None
        self.check(data, envelope.parse_event_frame, envelope._parse_event_frame_tree)

    @given(_any_text, st.integers(), st.floats(allow_nan=False))
    def test_event_waits(self, island, ack, hold):
        data = envelope.build_event_wait(island, ack, hold)
        self.check(data, envelope.parse_event_wait, envelope._parse_event_wait_tree)

    @given(
        st.sampled_from(["request", "response", "fault", "frame", "wait"]),
        _values,
        st.data(),
    )
    def test_hostile_splices(self, shape, value, data):
        read, tree = parse_envelope, envelope._parse_tree
        if shape == "request":
            raw = envelope.build_request_terse("op", [value, "a&b<c>"])
        elif shape == "response":
            raw = envelope.build_response_terse("op", value)
        elif shape == "fault":
            raw = envelope.build_fault_terse("SOAP-ENV:Server", 'x"&<y', "d")
        elif shape == "frame":
            raw = envelope.build_event_frame(4, [value, {"k": value}])
            read, tree = envelope.parse_event_frame, envelope._parse_event_frame_tree
        else:
            raw = envelope.build_event_wait("isl&and", 3, 2.5)
            read, tree = envelope.parse_event_wait, envelope._parse_event_wait_tree
        text = raw.decode("utf-8")
        at = data.draw(st.integers(min_value=0, max_value=len(text)))
        fragment = data.draw(st.sampled_from(HOSTILE))
        self.check((text[:at] + fragment + text[at:]).encode("utf-8"), read, tree)

    @pytest.mark.parametrize(
        "data",
        [
            b'<E><Q n="op"><v t="s">a\rb</v></Q></E>',
            b'<E><Q n="op"><v t="s">a\x01b</v></Q></E>',
            b'<E><Q n="op"><v t="s">&#0;</v></Q></E>',
            b'<E><Q n="op"><v t="s">&nbsp;</v></Q></E>',
            b'<E><Q n="op"><v t="s">&quot;</v></Q></E>',
            b'<E><Q n="op"><v t="i" t="s">1</v></Q></E>',
            b'<E><Q n="op"><v t="i">1</w></Q></E>',
            b'<E><Q n="op"><v t="a"><v t="i">1</v></Q></E>',
            b'<E><Q n="op"> <v t="i">1</v></Q></E>',
            b'<E><Q n="op"><!-- c --><v t="i">1</v></Q></E>',
            b'<E><Q n="op"><v t="i">1</v></Q></E>junk',
            b'<E><Q n="op"><v t="s">\xff</v></Q></E>',
            b'<E><Q n="op"><v t="q">1</v></Q></E>',
            b'<E><Q n="op"><v t="i">one</v></Q></E>',
            b'<E><Q n="op"><v t="i"/></Q></E>',
            b'<E><Q n="op"><v t="z">1</v></Q></E>',
            b'<E><Q n="op"><v t="a">text</v></Q></E>',
            b'<E><Q n="op"><v t="r"><v t="i">1</v></v></Q></E>',
            b'<E><Q n="op"><v t="i" n="k">1</v></Q></E>',
            b'<E><Q n="op"/></E>',
            b'<E><Q n=""></Q></E>',
            b'<E><R n="op"></R></E>',
            b'<E><R n="op"><v t="i">1</v><v t="i">2</v></R></E>',
            b'<E><R n="op"><v t="i">1</v><v t="q">2</v></R></E>',
            b'<E><Q n="op"></Q><Q n="other"></Q></E>',
            b'<E><F c="a\tb" s="x"/></E>',
            b'<E><F c="a\nb" s="x"/></E>',
            b'<E><F s="x" c="y"/></E>',
            b'<E><F c="y"/></E>',
            b'<E><F c="y" s="x" d=""/></E>',
            b'<E></E>',
            b'<E/>',
        ],
    )
    def test_named_hostile_envelopes(self, data):
        self.check(data)

    @pytest.mark.parametrize(
        "data",
        [
            b'<E><V b="1"></V></E>',
            b'<E><V b="+1"></V></E>',
            b'<E><V b="1"><v t="i">1</v></V></E>trailing',
            b'<E><V b="' + b"9" * 5000 + b'"></V></E>',
            b'<E><V b="1"><v t="r"><v t="i">1</v></v></V></E>',
            b'<E><V></V></E>',
        ],
    )
    def test_named_hostile_frames(self, data):
        self.check(data, envelope.parse_event_frame, envelope._parse_event_frame_tree)

    @pytest.mark.parametrize(
        "data",
        [
            b'<E><W i="" a="1" h="2.0"/></E>',
            b'<E><W i="x" a="1" h="e"/></E>',
            b'<E><W i="x" a="' + b"9" * 5000 + b'" h="2.0"/></E>',
            b'<E><W i="x\ty" a="1" h="2.0"/></E>',
            b'<E><W a="1" i="x" h="2.0"/></E>',
            b'<E><W i="x" a="1" h="inf"/></E>',
        ],
    )
    def test_named_hostile_waits(self, data):
        self.check(data, envelope.parse_event_wait, envelope._parse_event_wait_tree)

    def test_deep_nesting_goes_to_the_parser(self):
        value: list = []
        for _ in range(envelope._MAX_DEPTH + 5):
            value = [value]
        data = envelope.build_request_terse("op", [value])
        assert envelope._read_terse(data) is None
        self.check(data)


def verbose(entry):
    """A verbose envelope around ``entry``, as the builders frame it."""
    return (envelope._ENVELOPE_HEAD + entry + envelope._ENVELOPE_TAIL).encode("utf-8")


def short_id(data):
    """A test id: the envelope with the fixed head and tail left out."""
    text = data.decode("utf-8", "replace")
    return text.replace(envelope._ENVELOPE_HEAD, "").replace(envelope._ENVELOPE_TAIL, "")


def verbose_request(values):
    return verbose(f'<m:op xmlns:m="urn:x">{values}</m:op>')


#: One value of each kind the builders write, escapes and nesting included.
_MIXED = [None, True, False, -7, 2.5, "a&b<c>d", "", b"\x00\xff", [1, [None]], {"k": {"j": []}}, {}]


class TestVerboseReader:
    """The verbose reader answers exactly as the ElementTree path does:
    equal messages, or the same exception type."""

    def check(self, data):
        assert outcome(parse_envelope, data) == outcome(envelope._parse_tree, data)

    @given(_ops, st.lists(_values, max_size=4))
    def test_requests(self, operation, args):
        data = build_request(operation, args)
        if xmlutil.plain_bytes(data):
            assert envelope._read_verbose(data) is not None
        self.check(data)

    @given(_ops, _values)
    def test_responses(self, operation, value):
        data = build_response(operation, value)
        if xmlutil.plain_bytes(data):
            assert envelope._read_verbose(data) is not None
        self.check(data)

    @given(_any_text, _any_text, _any_text)
    def test_faults(self, code, string, detail):
        data = build_fault(code, string, detail)
        if xmlutil.plain_bytes(data):
            assert envelope._read_verbose(data) is not None
        self.check(data)

    @given(_ops, _any_text)
    def test_any_service_namespace(self, operation, service_ns):
        self.check(build_request(operation, [1, "x"], service_ns))

    def test_mixed_values_are_read_without_the_parser(self):
        for data in (
            build_request("op", _MIXED),
            build_response("op", _MIXED),
            build_response("op", None),
            build_fault("SOAP-ENV:Client", "bad <input> & more", "d&"),
        ):
            assert envelope._read_verbose(data) == envelope._parse_tree(data)

    @pytest.mark.parametrize(
        "raw",
        [
            build_request("op", [_MIXED[:6], {"k": "x&y"}]),
            build_response("opResponse", {"a": [1, "<>"]}),
            build_fault("SOAP-ENV:Server", 'x"&<y', "d"),
        ],
        ids=["request", "response", "fault"],
    )
    def test_hostile_splices_at_every_offset(self, raw):
        text = raw.decode("utf-8")
        for at in range(len(envelope._ENVELOPE_HEAD) - 2, len(text) + 1):
            for fragment in HOSTILE:
                self.check((text[:at] + fragment + text[at:]).encode("utf-8"))

    @given(st.data())
    def test_hostile_splices_into_the_head(self, data):
        raw = build_request("op", [1])
        at = data.draw(st.integers(min_value=0, max_value=len(envelope._ENVELOPE_HEAD)))
        fragment = data.draw(st.sampled_from(HOSTILE))
        text = raw.decode("utf-8")
        self.check((text[:at] + fragment + text[at:]).encode("utf-8"))

    @pytest.mark.parametrize(
        "data",
        [
            # another attribute order, value or prefix than the builders'
            verbose_request(
                '<arg0 SOAP-ENC:arrayType="xsd:anyType[1]" xsi:type="SOAP-ENC:Array">'
                '<item xsi:type="xsd:int">1</item></arg0>'
            ),
            verbose_request('<arg0 xsi:nil="false"/>'),
            verbose_request('<arg0 xsi:nil="true" xsi:type="xsd:int">1</arg0>'),
            verbose_request('<arg0 xsi:type="foo:int">7</arg0>'),
            verbose_request('<arg0 xsi:type="xsd:long">7</arg0>'),
            verbose_request('<arg0 xsi:type="xsd:int" xsi:type="xsd:int">7</arg0>'),
            verbose_request('<arg0 xsi:type="xsd:string"/>'),
            verbose_request('<arg0>7</arg0>'),
            verbose_request(
                '<arg0 xsi:type="SOAP-ENC:Struct"><m:k xsi:type="xsd:int">1</m:k></arg0>'
            ),
            # whitespace, comments and markup the builders never write
            verbose_request(' <arg0 xsi:type="xsd:int">1</arg0>\n'),
            verbose_request('<!-- c --><arg0 xsi:type="xsd:int">1</arg0>'),
            verbose_request('<arg0 xsi:type="xsd:string">&#x41;</arg0>'),
            verbose_request('<arg0 xsi:type="xsd:string">&#65;&amp;</arg0>'),
            verbose_request('<arg0 xsi:type="xsd:string"><![CDATA[x<y]]></arg0>'),
            verbose_request('<arg0 xsi:type="xsd:string">a]]>b</arg0>'),
            verbose_request('<arg0 xsi:type="xsd:string">a>b</arg0>'),
            verbose_request('<arg0 xsi:type="xsd:string">a\rb</arg0>'),
            verbose_request('<arg0 xsi:type="xsd:string">a\x01b</arg0>'),
            verbose_request('<arg0 xsi:type="xsd:int">&amp;1</arg0>'),
            # tags that do not close as they opened
            verbose_request('<arg0 xsi:type="xsd:int">1</arg1>'),
            verbose_request(
                '<arg0 xsi:type="SOAP-ENC:Struct"><k xsi:type="xsd:int">1</k></arg1>'
            ),
            verbose_request('<arg0 xsi:type="SOAP-ENC:Struct"><k xsi:type="xsd:int">1</k>'),
            verbose_request('</arg0>'),
            verbose_request('<arg0 xsi:type="xsd:int">1<b/></arg0>'),
            verbose_request(
                '<arg0 xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:anyType[0]">x</arg0>'
            ),
            # values: what ElementTree's decode accepts and refuses
            verbose_request('<arg0 xsi:type="xsd:boolean"> true </arg0>'),
            verbose_request('<arg0 xsi:type="xsd:boolean">1</arg0>'),
            verbose_request('<arg0 xsi:type="xsd:boolean">True</arg0>'),
            verbose_request('<arg0 xsi:type="xsd:int"> 7 </arg0>'),
            verbose_request('<arg0 xsi:type="xsd:int">seven</arg0>'),
            verbose_request('<arg0 xsi:type="xsd:double">-inf</arg0>'),
            verbose_request('<arg0 xsi:type="xsd:double">x</arg0>'),
            verbose_request('<arg0 xsi:type="SOAP-ENC:base64">!!!</arg0>'),
            verbose_request('<arg0 xsi:type="SOAP-ENC:base64">QQ</arg0>'),
            verbose_request(
                '<arg0 xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:anyType[9]"></arg0>'
            ),
            verbose_request(
                '<arg0 xsi:type="xsd:int" SOAP-ENC:arrayType="xsd:anyType[1]">1</arg0>'
            ),
            verbose_request(
                '<arg0 xsi:type="SOAP-ENC:Struct"><k xsi:type="xsd:int">1</k>'
                '<k xsi:type="xsd:int">2</k><j xsi:nil="true"/></arg0>'
            ),
            # entries: namespaces, names, counts and what follows them
            verbose('<m:op xmlns:m=""></m:op>'),
            verbose('<m:op xmlns:m="http://www.w3.org/XML/1998/namespace"></m:op>'),
            verbose('<m:op xmlns:m="http://www.w3.org/2000/xmlns/"></m:op>'),
            verbose('<m:op xmlns:m="a}b"></m:op>'),
            verbose('<m:op xmlns:m="a&amp;b&#10;"></m:op>'),
            verbose(f'<m:Fault xmlns:m="{xmlutil.SOAP_ENV_NS}"></m:Fault>'),
            verbose('<m:op xmlns:m="urn:x"></m:op><m:op2 xmlns:m="urn:x"></m:op2>'),
            verbose('<m:op xmlns:m="urn:x"></m:op>') + b"trailing",
            verbose('<m:op xmlns:m="urn:x"></m:opResponse>'),
            verbose('<n:op xmlns:n="urn:x"></n:op>'),
            verbose('<m:op xmlns:m="urn:x"/>'),
            verbose('<m:opResponse xmlns:m="urn:x"></m:opResponse>'),
            verbose('<m:Response xmlns:m="urn:x"><return xsi:type="xsd:int">1</return></m:Response>'),
            verbose(
                '<m:opResponse xmlns:m="urn:x"><return xsi:type="xsd:int">1</return>'
                '<return xsi:type="xsd:int">2</return></m:opResponse>'
            ),
            verbose(
                '<m:opResponse xmlns:m="urn:x"><return xsi:type="xsd:int">1</return>'
                '<return xsi:type="foo">2</return></m:opResponse>'
            ),
            verbose(""),
            verbose("<m:op/>"),
            # faults
            verbose("<SOAP-ENV:Fault><faultstring>s</faultstring></SOAP-ENV:Fault>"),
            verbose(
                "<SOAP-ENV:Fault><faultstring>s</faultstring><faultcode>c</faultcode>"
                "</SOAP-ENV:Fault>"
            ),
            verbose(
                "<SOAP-ENV:Fault><faultcode>c</faultcode><faultstring>s</faultstring>"
                "<detail></detail></SOAP-ENV:Fault>"
            ),
            verbose(
                "<SOAP-ENV:Fault><faultcode>c&#65;</faultcode><faultstring>s</faultstring>"
                "</SOAP-ENV:Fault>"
            ),
            verbose(
                "<SOAP-ENV:Fault><faultcode>c>d</faultcode><faultstring>s</faultstring>"
                "</SOAP-ENV:Fault>"
            ),
            verbose("<SOAP-ENV:Fault></SOAP-ENV:Fault>"),
            # the frame around the entry
            build_request("op", [1]).replace(b"UTF-8", b"utf-8"),
            build_request("op", [1]).replace(b"\n", b"\r\n", 1),
            build_request("op", [1]).replace(b"\n", b" ", 1),
            build_request("op", [1]).replace(b' xmlns:xsd="', b' xmlns:xsd="x', 1),
            build_request("op", [1])[:-1],
            build_request("op", ["\xe9"]).replace(b"\xc3\xa9", b"\xe9"),
        ],
        ids=short_id,
    )
    def test_named_hostile_envelopes(self, data):
        self.check(data)

    def test_deep_nesting_goes_to_the_parser(self):
        value: list = []
        for _ in range(envelope._MAX_DEPTH + 5):
            value = [value]
        data = build_request("op", [value])
        assert envelope._read_verbose(data) is None
        self.check(data)
        shallow = build_request("op", [value[0][0][0][0][0]])
        assert envelope._read_verbose(shallow) == envelope._parse_tree(shallow)


# ---------------------------------------------------------------------------
# The memoised codec
# ---------------------------------------------------------------------------

#: Values a naive memo key would confuse: equal, or equal-hashing, yet
#: rendered differently.
_LOOKALIKES = [
    True, 1, 1.0, False, 0, 0.0, -0.0, float("nan"), float("inf"), "1", b"1", "",
    None, [], {}, [1], (1,), [True], {"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1.0},
]

_memo_values = st.recursive(
    st.one_of(
        _scalars,
        st.sampled_from(_LOOKALIKES),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=12,
)


def _built(args, value):
    """Every memoised builder's output for ``args`` and ``value``, beside
    the unmemoised builder's, and a terse request (parsed afresh)."""
    return [
        (build_request("op", args), envelope._build_request("op", args)),
        (build_response("op", value), envelope._build_response("op", value)),
        (envelope.build_response_terse("op", value), envelope._build_response_terse("op", value)),
        (envelope.build_request_terse("op", args),) * 2,
    ]


class TestCodecMemo:
    def setup_method(self):
        envelope.clear_memos()

    @given(st.lists(_memo_values, max_size=4), _memo_values)
    def test_memoised_codec_equals_the_unmemoised_one(self, args, value):
        for _ in range(2):  # a miss, then a hit
            for memoised, plain in _built(args, value):
                assert memoised == plain
                # repr tells True/1/1.0, -0.0/0.0 and dict order apart
                # (and NaN equals itself there).
                assert repr(parse_envelope(memoised)) == repr(envelope._parse_envelope(plain))

    def test_lookalikes_never_share_a_memo_entry(self):
        for value in _LOOKALIKES * 2:
            for memoised, plain in _built([value], value):
                assert memoised == plain
        assert envelope._request_memo.cache_info().hits > 0

    def test_values_the_key_does_not_cover_bypass_the_memo(self):
        class Text(str):
            pass

        for args in ([bytearray(b"ab")], [Text("x")], [{"k": {"j": bytearray()}}]):
            before = envelope._request_memo.cache_info().currsize
            assert build_request("op", args) == envelope._build_request("op", args)
            assert envelope._request_memo.cache_info().currsize == before
        data = build_request("op", [1])
        message = parse_envelope(bytearray(data))
        assert message.args == [1]
        assert envelope._parse_memo.cache_info().currsize == 0

    def test_only_verbose_envelopes_go_through_the_parse_memo(self):
        terse = envelope.build_request_terse("op", [1, "x"])
        for _ in range(2):
            assert parse_envelope(terse).args == [1, "x"]
        assert envelope._parse_memo.cache_info().currsize == 0
        verbose = build_request("op", [1, "x"])
        for _ in range(2):
            assert parse_envelope(verbose).args == [1, "x"]
        assert envelope._parse_memo.cache_info().hits == 1

    def test_changing_a_parsed_message_leaves_the_next_parse_unchanged(self):
        args = [[1, {"k": [2]}], {"a": {"b": [3]}}, "s"]
        data = build_request("op", args)
        first = parse_envelope(data)
        first.args[0].append("x")
        first.args[0][1]["k"].append(9)
        first.args[1]["a"]["b"].clear()
        first.args[1]["new"] = 1
        first.args.append("extra")
        first.operation = "other"
        second = parse_envelope(data)
        assert second.args == args and second.operation == "op"
        assert second.args is not first.args

        data = build_request("op", [1, "flat"])
        first = parse_envelope(data)
        first.args[0] = 2
        first.args.append("extra")
        assert parse_envelope(data).args == [1, "flat"]

        value = {"list": [1, [2]], "map": {"x": []}}
        data = build_response("op", value)
        first = parse_envelope(data)
        first.value["list"][1].append(3)
        first.value["map"]["x"].append(None)
        first.value["new"] = True
        assert parse_envelope(data).value == value

    def test_failures_are_raised_again_never_remembered(self):
        for _ in range(2):
            with pytest.raises(SoapError):
                build_request("not a name", [1])
            with pytest.raises(SoapError):
                build_response("1bad", True)
            with pytest.raises(SoapError):
                envelope.build_request_terse("not a name", [])
            with pytest.raises(MarshallingError):
                build_request("op", [{1: "non-string key"}])
            with pytest.raises(MarshallingError):
                build_response("op", object())
        assert envelope._request_memo.cache_info().currsize == 0
        assert envelope._response_memo.cache_info().currsize == 0
        bad_int = envelope._build_request("op", [5]).replace(b">5<", b">x<")
        for data in (bad_int, b"<?xml version='1.0'?><not-closed>", b"<E><Q/></E>"):
            for _ in range(2):
                with pytest.raises((SoapError, MarshallingError)):
                    parse_envelope(data)
        assert envelope._parse_memo.cache_info().currsize == 0
