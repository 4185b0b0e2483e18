"""Link-layer frames exchanged on simulated segments."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addressing import HwAddress


@dataclass(slots=True)
class Frame:
    """One link-layer frame.

    ``protocol`` is a short tag used by nodes to dispatch the frame to the
    right upper-layer handler (playing the role of an EtherType).  ``payload``
    is always bytes: substrates genuinely encode and decode their wire
    formats, which is what makes the payload-size benchmarks meaningful.
    """

    src: HwAddress
    dst: HwAddress
    protocol: str
    payload: bytes
    #: Free-form metadata for monitors/tests (never examined by the stack).
    note: str = field(default="", compare=False)
    #: Constituent metadata for vectored (coalesced) transmissions:
    #: ``(protocol, payload_len)`` per sub-frame, so monitors can account
    #: the constituents identically to the un-coalesced path.  ``None``
    #: for ordinary frames.
    parts: tuple[tuple[str, int], ...] | None = field(default=None, compare=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Frame {self.src}->{self.dst} proto={self.protocol} "
            f"len={len(self.payload)}>"
        )
