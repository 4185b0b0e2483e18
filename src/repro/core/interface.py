"""Neutral service interfaces — the framework's type system.

A PCM describes every local service as a :class:`ServiceInterface` so any
other island can call it; the VSR stores the same information as WSDL.
Types map 1:1 onto the XSD names WSDL uses and onto the value shapes every
substrate codec supports, which is what makes conversion lossless.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.errors import InterfaceError
from repro.soap.wsdl import WsdlDocument, WsdlOperation, WsdlPart
from repro.soap.xmlutil import is_xml_name


class ValueType(Enum):
    """Neutral value types."""

    INT = "int"
    FLOAT = "double"
    STRING = "string"
    BOOL = "boolean"
    BYTES = "base64"
    ANY = "anyType"  # lists, structs, or anything marshallable
    VOID = "void"

    @property
    def xsd_name(self) -> str:
        return self.value

    @staticmethod
    def from_xsd(name: str) -> "ValueType":
        for member in ValueType:
            if member.value == name:
                return member
        raise InterfaceError(f"unknown XSD type name {name!r}")


@dataclass(frozen=True)
class Parameter:
    """One typed operation parameter."""

    name: str
    type: ValueType

    def __post_init__(self) -> None:
        if not is_xml_name(self.name):
            raise InterfaceError(f"parameter name {self.name!r} is not usable")
        if self.type == ValueType.VOID:
            raise InterfaceError(f"parameter {self.name!r} cannot be void")


@dataclass(frozen=True)
class Operation:
    """One service operation."""

    name: str
    params: tuple[Parameter, ...] = ()
    returns: ValueType = ValueType.VOID
    oneway: bool = False

    def __post_init__(self) -> None:
        if not is_xml_name(self.name):
            raise InterfaceError(f"operation name {self.name!r} is not usable")
        if self.oneway and self.returns != ValueType.VOID:
            raise InterfaceError(f"oneway operation {self.name!r} cannot return a value")
        seen = set()
        for param in self.params:
            if param.name in seen:
                raise InterfaceError(
                    f"operation {self.name!r} has duplicate parameter {param.name!r}"
                )
            seen.add(param.name)


@dataclass(frozen=True)
class ServiceInterface:
    """The complete callable surface of one service."""

    name: str
    operations: tuple[Operation, ...] = ()

    def __post_init__(self) -> None:
        if not is_xml_name(self.name):
            raise InterfaceError(f"service name {self.name!r} is not usable")
        seen = set()
        for operation in self.operations:
            if operation.name in seen:
                raise InterfaceError(
                    f"service {self.name!r} declares operation {operation.name!r} twice"
                )
            seen.add(operation.name)

    def operation(self, name: str) -> Operation:
        for operation in self.operations:
            if operation.name == name:
                return operation
        raise InterfaceError(f"service {self.name!r} has no operation {name!r}")

    def has_operation(self, name: str) -> bool:
        return any(operation.name == name for operation in self.operations)

    # -- WSDL round trip ------------------------------------------------------

    def to_wsdl(self, location: str, context: dict[str, str] | None = None) -> WsdlDocument:
        wsdl_operations = tuple(
            WsdlOperation(
                name=operation.name,
                inputs=tuple(
                    WsdlPart(param.name, param.type.xsd_name) for param in operation.params
                ),
                output=operation.returns.xsd_name,
                oneway=operation.oneway,
            )
            for operation in self.operations
        )
        return WsdlDocument(
            service=self.name,
            location=location,
            operations=wsdl_operations,
            context=dict(context or {}),
        )

    @staticmethod
    def from_wsdl(document: WsdlDocument) -> "ServiceInterface":
        operations = tuple(
            Operation(
                name=wsdl_operation.name,
                params=tuple(
                    Parameter(part.name, ValueType.from_xsd(part.type))
                    for part in wsdl_operation.inputs
                ),
                returns=ValueType.from_xsd(wsdl_operation.output),
                oneway=wsdl_operation.oneway,
            )
            for wsdl_operation in document.operations
        )
        return ServiceInterface(name=document.service, operations=operations)


def simple_interface(name: str, operations: dict[str, tuple[Any, ...]]) -> ServiceInterface:
    """Terse construction helper used heavily in tests and PCMs.

    ``operations`` maps operation name to a tuple of parameter type names,
    optionally ending with ``'->'+return_type``::

        simple_interface("Lamp", {"turn_on": (), "dim": ("int", "->int")})
    """
    built = []
    for op_name, spec in operations.items():
        returns = ValueType.VOID
        params = []
        for index, entry in enumerate(spec):
            if isinstance(entry, str) and entry.startswith("->"):
                returns = ValueType.from_xsd(entry[2:])
            else:
                type_name = entry.value if isinstance(entry, ValueType) else str(entry)
                params.append(Parameter(f"arg{index}", ValueType.from_xsd(type_name)))
        built.append(Operation(op_name, tuple(params), returns))
    return ServiceInterface(name, tuple(built))
