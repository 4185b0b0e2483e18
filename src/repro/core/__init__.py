"""The meta-middleware framework — the paper's contribution (Section 3).

Three components per middleware island, exactly as in Figure 1:

- :class:`~repro.core.vsg.VirtualServiceGateway` (VSG) connects the island
  to every other island over a pluggable interchange protocol
  (:mod:`repro.core.gateway_soap` is the prototype's SOAP binding;
  :mod:`repro.core.gateway_sip` the SIP alternative the paper discusses).
- :class:`~repro.core.pcm.ProtocolConversionManager` (PCM) converts between
  the local middleware and the VSG: its *Client Proxy* side exports local
  services as neutral (VSG) services, its *Server Proxy* side materialises
  remote services as native local ones (Figure 2).
- :class:`~repro.core.vsr.VsrDirectory` (VSR) records service locations,
  interfaces and contexts — WSDL documents in a UDDI-like directory, as in
  the prototype (Section 4.1).

:class:`~repro.core.framework.MetaMiddleware` assembles the pieces.
"""

from repro.core.activation import ActivatableService
from repro.core.calls import ServiceCall, ServiceFault
from repro.core.framework import Island, MetaMiddleware
from repro.core.gateway_soap import SoapGatewayProtocol
from repro.core.streams import StreamMetaMiddleware, StreamSink
from repro.core.interface import (
    Operation,
    Parameter,
    ServiceInterface,
    ValueType,
)
from repro.core.pcm import ProtocolConversionManager
from repro.core.proxygen import ProxyFactory, generate_proxy_class
from repro.core.resilience import (
    CallPolicy,
    CircuitBreaker,
    HeartbeatMonitor,
    ResilientExecutor,
)
from repro.core.vsg import GatewayProtocol, VirtualServiceGateway
from repro.core.vsr import UddiSoapService, VsrClient, VsrDirectory

__all__ = [
    "ActivatableService",
    "CallPolicy",
    "CircuitBreaker",
    "GatewayProtocol",
    "HeartbeatMonitor",
    "ResilientExecutor",
    "Island",
    "MetaMiddleware",
    "Operation",
    "Parameter",
    "ProtocolConversionManager",
    "ProxyFactory",
    "ServiceCall",
    "ServiceFault",
    "ServiceInterface",
    "SoapGatewayProtocol",
    "StreamMetaMiddleware",
    "StreamSink",
    "UddiSoapService",
    "ValueType",
    "VirtualServiceGateway",
    "VsrClient",
    "VsrDirectory",
    "generate_proxy_class",
]
