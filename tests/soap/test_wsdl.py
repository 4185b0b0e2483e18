"""Tests for WSDL documents and location strings."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SoapError
from repro.net.addressing import NodeAddress
from repro.soap.wsdl import (
    XSD_TYPES,
    WsdlDocument,
    WsdlOperation,
    WsdlPart,
    make_location,
    parse_location,
)
from repro.soap.xmlutil import WSDL_NS, XmlWriter


def sample_document():
    return WsdlDocument(
        service="Laserdisc",
        location="soap://backbone/2:8080/soap/Laserdisc",
        operations=(
            WsdlOperation("play", (), "boolean"),
            WsdlOperation(
                "goto_chapter", (WsdlPart("arg0", "int"),), "int"
            ),
            WsdlOperation("notify", (WsdlPart("arg0", "string"),), "void", oneway=True),
        ),
        context={"island": "jini", "middleware": "jini"},
    )


class TestDocuments:
    def test_xml_roundtrip(self):
        document = sample_document()
        assert WsdlDocument.from_xml(document.to_xml()) == document

    def test_roundtrip_without_operations_or_context(self):
        document = WsdlDocument(service="S", location="soap://b/1:1/soap/S")
        assert WsdlDocument.from_xml(document.to_xml()) == document

    def test_operation_lookup(self):
        document = sample_document()
        assert document.operation("play").output == "boolean"
        assert document.has_operation("goto_chapter")
        assert not document.has_operation("rewind")
        with pytest.raises(SoapError):
            document.operation("rewind")

    def test_unknown_types_rejected(self):
        with pytest.raises(SoapError):
            WsdlPart("x", "quaternion")
        with pytest.raises(SoapError):
            WsdlOperation("op", (), "quaternion")

    def test_not_wsdl_rejected(self):
        with pytest.raises(SoapError):
            WsdlDocument.from_xml(b"<other/>")

    @given(
        st.text(alphabet="abcdefgh", min_size=1, max_size=10),
        st.lists(
            st.sampled_from(["int", "double", "string", "boolean", "base64", "anyType"]),
            max_size=4,
        ),
        st.sampled_from(["int", "double", "string", "boolean", "void", "anyType"]),
    )
    def test_roundtrip_property(self, name, param_types, output):
        operations = (
            WsdlOperation(
                "op",
                tuple(WsdlPart(f"arg{i}", t) for i, t in enumerate(param_types)),
                output,
            ),
        )
        document = WsdlDocument(
            service=name, location=f"soap://seg/1:8080/soap/{name}", operations=operations
        )
        assert WsdlDocument.from_xml(document.to_xml()) == document


def writer_xml(document: WsdlDocument) -> bytes:
    """The document as the general-purpose :class:`XmlWriter` renders it:
    the reference the template in ``WsdlDocument.to_xml`` must match."""
    writer = XmlWriter()
    writer.open("wsdl:definitions", {"xmlns:wsdl": WSDL_NS, "name": document.service})
    writer.open("wsdl:service", {"name": document.service})
    writer.leaf("wsdl:port", {"location": document.location})
    writer.close()
    writer.open("wsdl:portType", {"name": f"{document.service}PortType"})
    for op in document.operations:
        attrs = {"name": op.name, "output": op.output}
        if op.oneway:
            attrs["oneway"] = "true"
        writer.open("wsdl:operation", attrs)
        for part in op.inputs:
            writer.leaf("wsdl:part", {"name": part.name, "type": part.type})
        writer.close()
    writer.close()
    if document.context:
        writer.open("wsdl:context")
        for key in sorted(document.context):
            writer.leaf("wsdl:attribute", {"name": key, "value": document.context[key]})
        writer.close()
    writer.close()
    return writer.tobytes()


#: Names and values that exercise every escape, plus non-ASCII text.
TEXT = st.text(alphabet=st.sampled_from('ab& <>"\n\'é☃'), max_size=8)
DOCUMENTS = st.builds(
    WsdlDocument,
    service=TEXT,
    location=TEXT,
    operations=st.lists(
        st.builds(
            WsdlOperation,
            name=TEXT,
            inputs=st.lists(
                st.builds(WsdlPart, name=TEXT, type=st.sampled_from(sorted(XSD_TYPES))),
                max_size=3,
            ).map(tuple),
            output=st.sampled_from(sorted(XSD_TYPES)),
            oneway=st.booleans(),
        ),
        max_size=3,
    ).map(tuple),
    context=st.dictionaries(TEXT, TEXT, max_size=3),
)


class TestTemplateSerialiser:
    @given(DOCUMENTS)
    def test_template_matches_writer(self, document):
        assert document.to_xml() == writer_xml(document)

    def test_edge_shapes_match_writer(self):
        documents = [
            WsdlDocument(service="S", location="soap://b/1:1/soap/S"),
            WsdlDocument(
                service='a&b<c>"d"\ne',
                location="soap://b/1:1/soap/é☃?a=1&b=\"2\"",
                operations=(
                    WsdlOperation("fire", (), "void", oneway=True),
                    WsdlOperation('x"y', (WsdlPart("<p>", "string"),), "int"),
                ),
                context={"room": "salle à manger", "q": 'a"&<\n'},
            ),
            sample_document(),
        ]
        for document in documents:
            assert document.to_xml() == writer_xml(document)


class TestLocations:
    def test_roundtrip(self):
        address = NodeAddress("backbone", 7)
        location = make_location(address, 8080, "TV")
        assert parse_location(location) == (address, 8080, "TV")

    @pytest.mark.parametrize(
        "bad",
        [
            "http://x/1:80/soap/S",  # wrong scheme
            "soap://backbone/2/soap/S",  # no port
            "soap://backbone/2:80/other/S",  # wrong path
            "garbage",
        ],
    )
    def test_malformed_locations_rejected(self, bad):
        with pytest.raises(SoapError):
            parse_location(bad)
