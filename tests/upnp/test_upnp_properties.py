"""Property-based tests for UPnP descriptions and URLs."""

from hypothesis import given, strategies as st

from repro.net.addressing import NodeAddress
from repro.upnp.description import (
    ARG_TYPES,
    Action,
    ActionArgument,
    DeviceDescription,
    ServiceDescription,
)
from repro.upnp.urls import make_url, parse_url
from tests.xml_writer import XmlWriter

_name = st.text(alphabet="abcdefghijKLMNOP_", min_size=1, max_size=12)
_xml_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs"),
                           blacklist_characters="\r"),
    min_size=1, max_size=20,
).map(str.strip).filter(bool)

_argument = st.builds(ActionArgument, name=_name, type=st.sampled_from(ARG_TYPES))
_action = st.builds(
    Action,
    name=_name,
    inputs=st.lists(_argument, max_size=3).map(tuple),
    output=st.sampled_from(("",) + ARG_TYPES),
)
_service = st.builds(
    ServiceDescription,
    service_id=_name.map(lambda n: f"urn:x:serviceId:{n}"),
    service_type=_name.map(lambda n: f"urn:x:service:{n}:1"),
    control_path=_name.map(lambda n: f"/control/{n}"),
    event_path=_name.map(lambda n: f"/event/{n}"),
    actions=st.lists(_action, max_size=4).map(tuple),
)
_device = st.builds(
    DeviceDescription,
    friendly_name=_xml_text,
    device_type=_name.map(lambda n: f"urn:x:device:{n}:1"),
    udn=_name.map(lambda n: f"uuid:{n}"),
    services=st.lists(_service, max_size=3),
)

# Any text the writer can encode, escapable characters included.
_any_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
_any_action = st.builds(
    Action,
    name=_any_text,
    inputs=st.lists(
        st.builds(ActionArgument, name=_any_text, type=st.sampled_from(ARG_TYPES)), max_size=3
    ).map(tuple),
    output=st.sampled_from(("",) + ARG_TYPES),
)
_any_device = st.builds(
    DeviceDescription,
    friendly_name=_any_text,
    device_type=_any_text,
    udn=_any_text,
    services=st.lists(
        st.builds(
            ServiceDescription,
            service_id=_any_text,
            service_type=_any_text,
            control_path=_any_text,
            event_path=_any_text,
            actions=st.lists(_any_action, max_size=3).map(tuple),
        ),
        max_size=3,
    ),
)


def writer_description(description: DeviceDescription) -> bytes:
    """A description as :class:`XmlWriter` renders it: the reference for
    the template in :meth:`DeviceDescription.to_xml`."""
    writer = XmlWriter()
    writer.open("root", {"xmlns": "urn:schemas-upnp-org:device-1-0"})
    writer.open("device")
    writer.leaf("deviceType", text=description.device_type)
    writer.leaf("friendlyName", text=description.friendly_name)
    writer.leaf("UDN", text=description.udn)
    writer.open("serviceList")
    for service in description.services:
        writer.open("service")
        writer.leaf("serviceId", text=service.service_id)
        writer.leaf("serviceType", text=service.service_type)
        writer.leaf("controlURL", text=service.control_path)
        writer.leaf("eventSubURL", text=service.event_path)
        writer.open("actionList")
        for action in service.actions:
            writer.open("action", {"name": action.name, "output": action.output})
            for argument in action.inputs:
                writer.leaf("argument", {"name": argument.name, "type": argument.type})
            writer.close()
        writer.close()
        writer.close()
    writer.close()
    writer.close()
    writer.close()
    return writer.tobytes()


class TestTemplateWriter:
    @given(_any_device)
    def test_description_renders_as_the_writer_does(self, description):
        assert description.to_xml() == writer_description(description)


class TestProperties:
    @given(_device)
    def test_description_xml_roundtrip(self, description):
        assert DeviceDescription.from_xml(description.to_xml()) == description

    @given(
        st.text(alphabet="abcdef-", min_size=1, max_size=10),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=65535),
        st.text(alphabet="abcdef/.-_", max_size=20),
    )
    def test_url_roundtrip(self, segment, host, port, path):
        address = NodeAddress(segment, host)
        url = make_url(address, port, "/" + path.lstrip("/"))
        parsed_address, parsed_port, parsed_path = parse_url(url)
        assert (parsed_address, parsed_port) == (address, port)
        assert parsed_path == "/" + path.lstrip("/")
