"""Wire-level frames and protocol messages.

The protocols of the paper deliberately keep what is *on the air* extremely
simple: in each round a device either broadcasts (a short frame) or stays
silent, and receivers mostly react to channel *activity* rather than frame
contents (Byzantine devices can spoof contents but cannot forge silence).
Frames therefore carry a kind tag, the claimed sender and a small payload;
higher layers (MultiPathRB) define structured control messages which are
serialised to bit strings and streamed one bit at a time by the 1Hop-Protocol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = [
    "FrameKind",
    "Frame",
    "Bits",
    "bits_from_int",
    "int_from_bits",
    "bits_from_bytes",
    "bytes_from_bits",
    "validate_bits",
    "ControlType",
    "ControlMessage",
    "ControlCodec",
]


class FrameKind(enum.IntEnum):
    """What a single-round broadcast represents.

    The distinction only matters for tracing and for the epidemic baseline
    (which puts whole application messages on the air); the Byzantine-tolerant
    protocols never trust the kind tag of a received frame.
    """

    DATA_BIT = 1        # round R1/R3 of the 2Bit-Protocol ("bit1" / "bit2" message)
    ACK = 2             # round R2/R4 acknowledgement ("bitX-response")
    VETO = 3            # round R5/R6 veto
    JAM = 4             # adversarial noise
    PAYLOAD = 5         # full application message (epidemic baseline / dual mode)
    CONTROL = 6         # miscellaneous (used by tests)


@dataclass(frozen=True, slots=True)
class Frame:
    """A single-round broadcast.

    Attributes
    ----------
    kind:
        Nominal type of the frame (see :class:`FrameKind`).
    sender:
        Index of the device that actually transmitted the frame.  Receivers in
        the Byzantine-tolerant protocols never rely on this field (the paper's
        model allows spoofing); it exists for tracing, for the epidemic
        baseline, and to let the channel model attribute transmissions.
    payload:
        Small immutable payload (tuple of ints/strings).  Eg. the bit value for
        ``DATA_BIT`` frames or the application message for ``PAYLOAD`` frames.
    """

    kind: FrameKind
    sender: int
    payload: tuple = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self.kind.name}, from={self.sender}, payload={self.payload})"


#: A message is a sequence of bits (0/1 integers); short alias used in signatures.
Bits = tuple[int, ...]


def validate_bits(bits: Iterable[int]) -> Bits:
    """Validate and normalise a bit sequence into a tuple of 0/1 ints."""
    out = []
    for b in bits:
        ib = int(b)
        if ib not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {b!r}")
        out.append(ib)
    return tuple(out)


def bits_from_int(value: int, width: int) -> Bits:
    """Encode ``value`` as ``width`` bits, most significant bit first."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if width < 0:
        raise ValueError("width must be non-negative")
    if value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def int_from_bits(bits: Sequence[int]) -> int:
    """Decode a most-significant-bit-first bit sequence into an integer."""
    value = 0
    for b in bits:
        ib = int(b)
        if ib not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {b!r}")
        value = (value << 1) | ib
    return value


def bits_from_bytes(data: bytes) -> Bits:
    """Encode a byte string as a bit tuple (MSB first within each byte)."""
    out: list[int] = []
    for byte in data:
        out.extend((byte >> (7 - i)) & 1 for i in range(8))
    return tuple(out)


def bytes_from_bits(bits: Sequence[int]) -> bytes:
    """Decode a bit sequence (length multiple of 8) back into bytes."""
    bits = validate_bits(bits)
    if len(bits) % 8 != 0:
        raise ValueError("bit length must be a multiple of 8 to decode into bytes")
    out = bytearray()
    for i in range(0, len(bits), 8):
        out.append(int_from_bits(bits[i : i + 8]))
    return bytes(out)


class ControlType(enum.IntEnum):
    """Control-message types of the MultiPathRB multi-hop layer."""

    SOURCE = 0
    COMMIT = 1
    HEARD = 2


@dataclass(frozen=True, slots=True)
class ControlMessage:
    """A SOURCE / COMMIT / HEARD control message of MultiPathRB.

    Attributes
    ----------
    mtype:
        The control-message type.
    bit_index:
        1-based index of the application-message bit this control message is
        about.
    bit_value:
        The value of that bit (0 or 1).
    cause:
        For HEARD messages, the schedule slot identifying the node whose COMMIT
        was heard (the "cause" in the paper's terminology).  The paper encodes
        the cause by its relative location in ``O(log R)`` bits; we encode the
        cause's broadcast slot, which identifies it uniquely within any single
        neighborhood because the TDMA schedule never reuses a slot within
        interference range.  ``0`` for SOURCE/COMMIT messages.
    """

    mtype: ControlType
    bit_index: int
    bit_value: int
    cause: int = 0

    def __post_init__(self) -> None:
        if self.bit_index < 1:
            raise ValueError("bit_index is 1-based and must be >= 1")
        if self.bit_value not in (0, 1):
            raise ValueError("bit_value must be 0 or 1")
        if self.cause < 0:
            raise ValueError("cause must be non-negative")
        if self.mtype is not ControlType.HEARD and self.cause != 0:
            raise ValueError("only HEARD messages carry a cause")


#: Decoded frames shared by every :class:`ControlCodec` of one
#: ``(message_length, num_slots)`` shape, keyed by the frame read as an
#: MSB-first integer and filled on first sight (see
#: :meth:`ControlCodec.decode_frame`).
_FRAME_TABLES: dict[tuple[int, int], dict[int, "ControlMessage | None"]] = {}

#: The inverse tables, shared the same way: each valid message of a shape
#: mapped to its encoded bits, filled on first sight (see
#: :meth:`ControlCodec.encode`).
_ENCODE_TABLES: dict[tuple[int, int], dict["ControlMessage", Bits]] = {}


class ControlCodec:
    """Fixed-width bit codec for :class:`ControlMessage`.

    MultiPathRB streams every control message bit-by-bit over the
    1Hop-Protocol, so both sides must agree on a fixed frame layout:

    ``[type: 2 bits][bit_index-1: index_width bits][bit_value: 1 bit][cause: cause_width bits]``

    ``index_width`` is derived from the application message length and
    ``cause_width`` from the number of schedule slots, matching the paper's
    observation that each control message is only ``O(1)`` bits for constant
    ``R``.
    """

    TYPE_WIDTH = 2
    VALUE_WIDTH = 1

    def __init__(self, message_length: int, num_slots: int) -> None:
        if message_length < 1:
            raise ValueError("message_length must be >= 1")
        if num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        self.message_length = message_length
        self.num_slots = num_slots
        self.index_width = max(1, (message_length - 1).bit_length())
        self.cause_width = max(1, (num_slots - 1).bit_length())
        self._frames = _FRAME_TABLES.setdefault((message_length, num_slots), {})
        self._encoded = _ENCODE_TABLES.setdefault((message_length, num_slots), {})

    @property
    def frame_bits(self) -> int:
        """Number of bits in one encoded control message."""
        return self.TYPE_WIDTH + self.index_width + self.VALUE_WIDTH + self.cause_width

    def encode(self, message: ControlMessage) -> Bits:
        """Serialise a control message into its fixed-width bit representation.

        A message is encoded once per codec shape: the bits are kept in a
        table shared like :meth:`decode_frame`'s, and a repeated message
        (MultiPathRB relays a HEARD for every COMMIT it hears) gets the same
        tuple back.  Only a message that passed the range checks enters the
        table, so an out-of-range index or cause raises on every call.
        """
        encoded = self._encoded
        bits = encoded.get(message)
        if bits is not None:
            return bits
        if message.bit_index > self.message_length:
            raise ValueError(
                f"bit_index {message.bit_index} exceeds message length {self.message_length}"
            )
        if message.cause >= self.num_slots and message.mtype is ControlType.HEARD:
            raise ValueError(f"cause slot {message.cause} out of range (< {self.num_slots})")
        bits = (
            bits_from_int(int(message.mtype), self.TYPE_WIDTH)
            + bits_from_int(int(message.bit_index) - 1, self.index_width)
            + bits_from_int(int(message.bit_value), self.VALUE_WIDTH)
            + bits_from_int(int(message.cause), self.cause_width)
        )
        encoded[message] = bits
        return bits

    def decode(self, bits: Sequence[int]) -> ControlMessage | None:
        """Decode a fixed-width bit frame back into a control message.

        Returns ``None`` when the bits do not form a valid control message
        (e.g. a Byzantine device streamed garbage); callers simply drop such
        frames, which is safe because dropping never violates authenticity.
        """
        bits = validate_bits(bits)
        if len(bits) != self.frame_bits:
            return None
        pos = 0
        type_val = int_from_bits(bits[pos : pos + self.TYPE_WIDTH])
        pos += self.TYPE_WIDTH
        index_val = int_from_bits(bits[pos : pos + self.index_width]) + 1
        pos += self.index_width
        value_val = int_from_bits(bits[pos : pos + self.VALUE_WIDTH])
        pos += self.VALUE_WIDTH
        cause_val = int_from_bits(bits[pos : pos + self.cause_width])
        try:
            mtype = ControlType(type_val)
        except ValueError:
            return None
        if index_val > self.message_length:
            return None
        if mtype is not ControlType.HEARD:
            cause_val = 0
        try:
            return ControlMessage(mtype=mtype, bit_index=index_val, bit_value=value_val, cause=cause_val)
        except ValueError:
            return None

    def decode_frame(self, key: int) -> ControlMessage | None:
        """:meth:`decode` of one frame given as an integer, from the shape's shared table.

        ``key`` is a frame of :attr:`frame_bits` bits folded most significant
        bit first (:func:`int_from_bits`): the SoA stream kernel reads a
        completed MultiPathRB frame out of its bit planes in this form, and
        the scalar drain folds its stream slice into it.  A frame seen for
        the first time is decoded by unpacking the integer's bit fields,
        which agrees with :meth:`decode` on every frame; the messages are
        immutable, so every codec of this shape shares them.
        """
        frames = self._frames
        if key in frames:
            return frames[key]
        cause = key & ((1 << self.cause_width) - 1)
        rest = key >> self.cause_width
        bit_value = rest & 1
        rest >>= self.VALUE_WIDTH
        index = (rest & ((1 << self.index_width) - 1)) + 1
        type_val = rest >> self.index_width
        message = None
        if type_val <= ControlType.HEARD and index <= self.message_length:
            mtype = ControlType(type_val)
            message = ControlMessage(mtype, index, bit_value, cause if mtype is ControlType.HEARD else 0)
        frames[key] = message
        return message
