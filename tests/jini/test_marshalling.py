"""Tests for the Java-serialization-flavoured codec."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MarshallingError
from repro.jini.marshalling import MAGIC, VERSION, marshal, unmarshal

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=80),
    st.binary(max_size=80),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=10), children, max_size=6),
    ),
    max_leaves=30,
)


def normalise(value):
    if isinstance(value, (list, tuple)):
        return [normalise(item) for item in value]
    if isinstance(value, dict):
        return {key: normalise(member) for key, member in value.items()}
    if isinstance(value, bytearray):
        return bytes(value)
    return value


class TestRoundTrips:
    @given(_values)
    def test_roundtrip(self, value):
        assert unmarshal(marshal(value)) == normalise(value)

    def test_stream_header_is_java_magic(self):
        data = marshal(42)
        assert data[:2] == MAGIC == b"\xac\xed"
        assert data[2:4] == VERSION

    @pytest.mark.parametrize(
        "value",
        [None, True, -1, 0.0, "unicode 漢字", b"\x00\xff", [1, [2, [3]]], {"k": {"n": 1}}],
    )
    def test_specific_values(self, value):
        assert unmarshal(marshal(value)) == value

    def test_bool_not_conflated_with_int(self):
        assert unmarshal(marshal(True)) is True
        result = unmarshal(marshal(1))
        assert result == 1 and not isinstance(result, bool)

    def test_int_range_enforced(self):
        marshal(2**63 - 1)
        with pytest.raises(MarshallingError):
            marshal(2**63)
        with pytest.raises(MarshallingError):
            marshal(-(2**63) - 1)

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(MarshallingError):
            marshal({1: "x"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(MarshallingError):
            marshal(object())


class TestMalformedStreams:
    def test_bad_header(self):
        with pytest.raises(MarshallingError):
            unmarshal(b"\x00\x00\x00\x00\x02")

    def test_truncated_stream(self):
        data = marshal([1, 2, 3])
        with pytest.raises(MarshallingError):
            unmarshal(data[:-2])

    @given(_values)
    def test_every_strict_prefix_is_rejected(self, value):
        # The format is self-delimiting, so a cut stream never reads as a
        # shorter value: each bounds check catches its own cut.
        data = marshal(value)
        for end in range(len(data)):
            with pytest.raises(MarshallingError):
                unmarshal(data[:end])

    def test_trailing_garbage(self):
        with pytest.raises(MarshallingError):
            unmarshal(marshal(1) + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises(MarshallingError):
            unmarshal(MAGIC + VERSION + b"\xfe")

    @given(st.binary(min_size=4, max_size=60))
    def test_arbitrary_bytes_never_crash(self, junk):
        data = MAGIC + VERSION + junk
        try:
            unmarshal(data)
        except MarshallingError:
            pass  # rejection is the expected failure mode
