"""Property-based tests for the SIP grammar."""

from hypothesis import given, strategies as st

from repro.errors import SipError
from repro.net.addressing import NodeAddress
from repro.sip.messages import (
    METHODS,
    SipRequest,
    SipResponse,
    make_uri,
    parse_message,
    parse_uri,
)

_token = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABC0123456789-._", min_size=1, max_size=16)
_header_value = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs")), max_size=40
).map(lambda s: s.replace(":", "").strip())
_segment = st.text(alphabet="abcdefghij-", min_size=1, max_size=12)


class TestProperties:
    @given(
        st.sampled_from(METHODS),
        _token,
        _segment,
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=65535),
        st.dictionaries(_token, _header_value, max_size=5),
        st.binary(max_size=200),
    )
    def test_request_roundtrip(self, method, user, segment, host, port, headers, body):
        headers.pop("Content-Length", None)
        uri = make_uri(user, NodeAddress(segment, host), port)
        request = SipRequest(method=method, uri=uri, headers=dict(headers), body=body)
        parsed = parse_message(request.to_bytes())
        assert isinstance(parsed, SipRequest)
        assert parsed.method == method
        assert parsed.uri == uri
        assert parsed.body == body
        # Lookup is case-insensitive and the first spelling wins, so two
        # spellings of one name (``A`` and ``a``) both read the first value.
        expected: dict[str, str] = {}
        for name, value in headers.items():
            expected.setdefault(name.lower(), value)
        for name in headers:
            assert parsed.header(name) == expected[name.lower()]

    @given(st.integers(min_value=100, max_value=699), st.binary(max_size=200))
    def test_response_roundtrip(self, status, body):
        response = SipResponse(status=status, body=body)
        parsed = parse_message(response.to_bytes())
        assert isinstance(parsed, SipResponse)
        assert parsed.status == status
        assert parsed.body == body

    @given(_token, _segment, st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=1, max_value=65535))
    def test_uri_roundtrip(self, user, segment, host, port):
        uri = make_uri(user, NodeAddress(segment, host), port)
        assert parse_uri(uri) == (user, NodeAddress(segment, host), port)

    @given(st.binary(max_size=120))
    def test_arbitrary_datagrams_never_crash_the_parser(self, junk):
        try:
            parse_message(junk)
        except SipError:
            pass
