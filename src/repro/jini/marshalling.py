"""Java-serialization-flavoured binary marshalling.

Jini moves serialized Java objects; our codec is a compact tagged binary
format opening with the real Java serialization magic (``0xAC 0xED``) and
stream version, so monitor traces of the Jini island look plausibly
JRMP-ish.  It is intentionally *binary and compact* — the C1 benchmark
contrasts its sizes against SOAP's XML for identical logical calls.

Supported values: None, bool, int (64-bit signed), float, str, bytes,
list/tuple (decoded as list), and dict with string keys.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.errors import MarshallingError

MAGIC = b"\xac\xed"
VERSION = b"\x00\x05"

_T_NULL = 0x70  # Java TC_NULL
_T_BOOL = 0x01
_T_INT = 0x02
_T_FLOAT = 0x03
_T_STRING = 0x74  # Java TC_STRING
_T_BYTES = 0x05
_T_LIST = 0x06
_T_DICT = 0x07

_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")
_U32 = struct.Struct("!I")

_INT_MIN = -(2**63)
_INT_MAX = 2**63 - 1


def marshal(value: Any) -> bytes:
    """Serialise ``value`` to bytes (with stream header)."""
    out = bytearray(MAGIC + VERSION)
    _write(out, value)
    return bytes(out)


def unmarshal(data: bytes) -> Any:
    """Inverse of :func:`marshal`."""
    if len(data) < 4 or data[:2] != MAGIC or data[2:4] != VERSION:
        raise MarshallingError("bad serialization stream header")
    value, offset = _read(data, 4)
    if offset != len(data):
        raise MarshallingError(f"{len(data) - offset} trailing bytes after value")
    return value


def _write(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_T_NULL)
    elif isinstance(value, bool):
        out.append(_T_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, int):
        if not _INT_MIN <= value <= _INT_MAX:
            raise MarshallingError(f"integer {value} out of 64-bit range")
        out.append(_T_INT)
        out += _I64.pack(value)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(_T_STRING)
        out += _U32.pack(len(encoded))
        out += encoded
    elif isinstance(value, (bytes, bytearray)):
        out.append(_T_BYTES)
        out += _U32.pack(len(value))
        out += bytes(value)
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        out += _U32.pack(len(value))
        for item in value:
            _write(out, item)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += _U32.pack(len(value))
        for key, member in value.items():
            if not isinstance(key, str):
                raise MarshallingError(f"dict keys must be str, got {type(key).__name__}")
            encoded = key.encode("utf-8")
            out += _U32.pack(len(encoded))
            out += encoded
            _write(out, member)
    else:
        raise MarshallingError(f"cannot marshal value of type {type(value).__name__}")


def _read(data: bytes, offset: int) -> tuple[Any, int]:
    # Bounds are checked inline: a call per field would be most of the
    # reader's work on the small values a Jini call carries.
    size = len(data)
    if offset >= size:
        raise MarshallingError("truncated stream: no tag byte")
    tag = data[offset]
    offset += 1
    if tag == _T_NULL:
        return None, offset
    if tag == _T_BOOL:
        if offset >= size:
            raise MarshallingError("truncated stream")
        return data[offset] != 0, offset + 1
    if tag == _T_INT or tag == _T_FLOAT:
        end = offset + 8
        if end > size:
            raise MarshallingError("truncated stream")
        codec = _I64 if tag == _T_INT else _F64
        return codec.unpack_from(data, offset)[0], end
    if tag == _T_STRING or tag == _T_BYTES:
        end = offset + 4
        if end > size:
            raise MarshallingError("truncated stream")
        end += _U32.unpack_from(data, offset)[0]
        if end > size:
            raise MarshallingError("truncated stream")
        raw = data[offset + 4 : end]
        if tag == _T_BYTES:
            return raw, end
        try:
            return raw.decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise MarshallingError("invalid UTF-8 in string") from exc
    if tag == _T_LIST or tag == _T_DICT:
        if offset + 4 > size:
            raise MarshallingError("truncated stream")
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        if tag == _T_LIST:
            items = []
            for _ in range(count):
                item, offset = _read(data, offset)
                items.append(item)
            return items, offset
        result: dict[str, Any] = {}
        for _ in range(count):
            end = offset + 4
            if end > size:
                raise MarshallingError("truncated stream")
            end += _U32.unpack_from(data, offset)[0]
            if end > size:
                raise MarshallingError("truncated stream")
            try:
                key = data[offset + 4 : end].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MarshallingError("invalid UTF-8 in dict key") from exc
            value, offset = _read(data, end)
            result[key] = value
        return result, offset
    raise MarshallingError(f"unknown tag byte 0x{tag:02x}")
