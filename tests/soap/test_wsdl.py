"""Tests for WSDL documents and location strings."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SoapError
from repro.net.addressing import NodeAddress
from repro.soap import wsdl
from repro.soap.wsdl import (
    XSD_TYPES,
    WsdlDocument,
    WsdlOperation,
    WsdlPart,
    make_location,
    parse_location,
)
from repro.soap.xmlutil import WSDL_NS
from tests.xml_writer import XmlWriter


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


def outcome(read, data):
    """``read(data)``'s document, or the type of what it raised."""
    try:
        return read(data)
    except Exception as exc:
        return type(exc)


#: Fragments a hostile or foreign peer might put anywhere in a document;
#: each makes the template reader defer, or leaves a shape it reads.
HOSTILE = [
    "\r", "\r\n", "\t", "\n", " ", "\x00", "\x01", "\x1f", "\ufffe", "&#0;", "&#10;",
    "&#x41;", "&foo;", "&", "&amp", "<", ">", '"', "'", "<!-- c -->", "<?pi x?>",
    "<![CDATA[x]]>", "</wsdl:part>", "<wsdl:part/>", ' name="dup"', ' x="1"',
    "<wsdl:operation>", "</wsdl:definitions>", "é", "]]>",
]


class TestTemplateReader:
    """``from_xml`` reads the ``to_xml`` shape without ElementTree and hands
    everything else to it: both must agree on every input."""

    @given(DOCUMENTS)
    def test_reads_every_template_document(self, document):
        data = document.to_xml()
        assert outcome(wsdl._read_template, data.decode("utf-8")) is not None
        assert outcome(WsdlDocument.from_xml, data) == outcome(wsdl._parse_tree, data)

    @given(DOCUMENTS)
    def test_str_and_bytes_read_alike(self, document):
        data = document.to_xml()
        assert outcome(WsdlDocument.from_xml, data.decode("utf-8")) == outcome(
            WsdlDocument.from_xml, data
        )

    @given(DOCUMENTS, st.data())
    def test_hostile_splices_read_as_elementtree_reads_them(self, document, data):
        text = document.to_xml().decode("utf-8")
        at = data.draw(st.integers(min_value=0, max_value=len(text)))
        fragment = data.draw(st.sampled_from(HOSTILE))
        spliced = (text[:at] + fragment + text[at:]).encode("utf-8")
        assert outcome(WsdlDocument.from_xml, spliced) == outcome(wsdl._parse_tree, spliced)

    @pytest.mark.parametrize(
        "old,new",
        [
            ('location="', 'location="a\tb'),  # normalised to a space by the parser
            ('location="', 'location="a\nb'),
            ('location="', 'location="a\rb'),
            ('location="', 'location="&#0;'),
            ('location="', 'location="&nbsp;'),
            ('<wsdl:port location=', '<wsdl:port location="x" location='),
            ("</wsdl:service>", "</wsdl:portType>"),
            ("</wsdl:definitions>", ""),
            ("><wsdl:portType", "><!-- between --><wsdl:portType"),
            ("><wsdl:portType", ">\n  <wsdl:portType"),
            ("</wsdl:definitions>", "</wsdl:definitions>trailing"),
            ('output="int"', 'output="quaternion"'),
            ('oneway="true"', 'oneway="yes"'),
        ],
    )
    def test_named_hostile_inputs(self, old, new):
        text = sample_document().to_xml().decode("utf-8")
        assert old in text
        data = text.replace(old, new, 1).encode("utf-8")
        assert outcome(wsdl._read_template, data.decode("utf-8")) in (None, SoapError)
        assert outcome(WsdlDocument.from_xml, data) == outcome(wsdl._parse_tree, data)

    def test_empty_types_read_as_the_parser_defaults_them(self):
        text = sample_document().to_xml().decode("utf-8")
        text = text.replace('type="int"', 'type=""').replace('output="boolean"', 'output=""')
        document = wsdl._read_template(text)
        assert document == wsdl._parse_tree(text.encode("utf-8"))
        assert document.operation("goto_chapter").inputs[0].type == "anyType"
        assert document.operation("play").output == "void"

    def test_non_utf8_bytes_go_to_the_parser(self):
        data = sample_document().to_xml().replace(b"Laserdisc", b"Laser\xffdisc")
        assert outcome(WsdlDocument.from_xml, data) == outcome(wsdl._parse_tree, data)
        assert outcome(WsdlDocument.from_xml, data) is SoapError

    def test_unencodable_str_fails_as_encoding_it_did(self):
        text = sample_document().to_xml().decode("utf-8").replace("Laserdisc", "L\ud800")
        with pytest.raises(UnicodeEncodeError):
            WsdlDocument.from_xml(text)


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
            "soap://backbone/2:\u0668\u0660/soap/S",  # non-ASCII digits in the port
            "soap://backbone/\u0662:80/soap/S",  # ... and in the host
            "garbage",
        ],
    )
    def test_malformed_locations_rejected(self, bad):
        with pytest.raises(SoapError):
            parse_location(bad)
