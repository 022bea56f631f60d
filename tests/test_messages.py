"""Unit tests for wire frames, bit codecs and MultiPathRB control messages."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.messages import (
    ControlCodec,
    ControlMessage,
    ControlType,
    Frame,
    FrameKind,
    bits_from_bytes,
    bits_from_int,
    bytes_from_bits,
    int_from_bits,
    validate_bits,
)


class TestBitHelpers:
    def test_validate_bits_normalises(self):
        assert validate_bits([True, 0, 1]) == (1, 0, 1)

    def test_validate_bits_rejects(self):
        with pytest.raises(ValueError):
            validate_bits([0, 2])

    def test_bits_from_int(self):
        assert bits_from_int(5, 4) == (0, 1, 0, 1)
        assert bits_from_int(0, 3) == (0, 0, 0)

    def test_bits_from_int_overflow(self):
        with pytest.raises(ValueError):
            bits_from_int(8, 3)

    def test_bits_from_int_negative(self):
        with pytest.raises(ValueError):
            bits_from_int(-1, 3)

    def test_int_from_bits(self):
        assert int_from_bits((1, 0, 1, 1)) == 11

    def test_int_from_bits_rejects_non_bits(self):
        with pytest.raises(ValueError):
            int_from_bits((1, 3))

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_int_roundtrip(self, value):
        assert int_from_bits(bits_from_int(value, 16)) == value

    def test_bytes_roundtrip(self):
        data = b"\x00\xffAB"
        assert bytes_from_bits(bits_from_bytes(data)) == data

    def test_bytes_from_bits_requires_multiple_of_8(self):
        with pytest.raises(ValueError):
            bytes_from_bits((1, 0, 1))

    @given(st.binary(max_size=32))
    def test_bytes_roundtrip_property(self, data):
        assert bytes_from_bits(bits_from_bytes(data)) == data


class TestFrame:
    def test_frame_fields(self):
        frame = Frame(FrameKind.DATA_BIT, 3, (1,))
        assert frame.kind is FrameKind.DATA_BIT
        assert frame.sender == 3
        assert frame.payload == (1,)

    def test_frame_is_hashable(self):
        assert len({Frame(FrameKind.ACK, 1), Frame(FrameKind.ACK, 1)}) == 1


class TestControlMessage:
    def test_valid_commit(self):
        msg = ControlMessage(ControlType.COMMIT, 2, 1)
        assert msg.cause == 0

    def test_heard_carries_cause(self):
        msg = ControlMessage(ControlType.HEARD, 1, 0, cause=7)
        assert msg.cause == 7

    def test_commit_cannot_carry_cause(self):
        with pytest.raises(ValueError):
            ControlMessage(ControlType.COMMIT, 1, 0, cause=2)

    def test_bit_index_is_one_based(self):
        with pytest.raises(ValueError):
            ControlMessage(ControlType.COMMIT, 0, 0)

    def test_bit_value_validated(self):
        with pytest.raises(ValueError):
            ControlMessage(ControlType.COMMIT, 1, 2)


class TestControlCodec:
    def test_frame_bits_width(self):
        codec = ControlCodec(message_length=4, num_slots=100)
        # 2 (type) + 2 (index) + 1 (value) + 7 (cause) = 12
        assert codec.frame_bits == 12

    def test_roundtrip_all_types(self):
        codec = ControlCodec(message_length=5, num_slots=64)
        messages = [
            ControlMessage(ControlType.SOURCE, 1, 1),
            ControlMessage(ControlType.COMMIT, 5, 0),
            ControlMessage(ControlType.HEARD, 3, 1, cause=63),
        ]
        for msg in messages:
            assert codec.decode(codec.encode(msg)) == msg

    def test_encode_rejects_out_of_range_index(self):
        codec = ControlCodec(message_length=2, num_slots=8)
        with pytest.raises(ValueError):
            codec.encode(ControlMessage(ControlType.COMMIT, 3, 0))

    def test_encode_rejects_out_of_range_cause(self):
        codec = ControlCodec(message_length=2, num_slots=8)
        with pytest.raises(ValueError):
            codec.encode(ControlMessage(ControlType.HEARD, 1, 0, cause=8))

    def test_decode_wrong_length_returns_none(self):
        codec = ControlCodec(message_length=2, num_slots=8)
        assert codec.decode((0, 1, 0)) is None

    def test_decode_invalid_type_returns_none(self):
        codec = ControlCodec(message_length=2, num_slots=8)
        bits = list(codec.encode(ControlMessage(ControlType.COMMIT, 1, 1)))
        bits[0], bits[1] = 1, 1  # type value 3 does not exist
        assert codec.decode(tuple(bits)) is None

    def test_decode_out_of_range_index_returns_none(self):
        codec = ControlCodec(message_length=3, num_slots=8)
        bits = list(codec.encode(ControlMessage(ControlType.COMMIT, 3, 1)))
        # index field is bits [2:4); force it to 3 (=> bit_index 4 > 3)
        bits[2], bits[3] = 1, 1
        assert codec.decode(tuple(bits)) is None

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ControlCodec(message_length=0, num_slots=4)
        with pytest.raises(ValueError):
            ControlCodec(message_length=4, num_slots=0)

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=200),
        st.data(),
    )
    def test_roundtrip_property(self, message_length, num_slots, data):
        codec = ControlCodec(message_length=message_length, num_slots=num_slots)
        mtype = data.draw(st.sampled_from(list(ControlType)))
        index = data.draw(st.integers(min_value=1, max_value=message_length))
        value = data.draw(st.integers(min_value=0, max_value=1))
        cause = data.draw(st.integers(min_value=0, max_value=num_slots - 1)) if mtype is ControlType.HEARD else 0
        msg = ControlMessage(mtype, index, value, cause=cause)
        assert codec.decode(codec.encode(msg)) == msg

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=300),
        st.data(),
    )
    def test_encode_table_round_trips_and_validates_every_call(self, message_length, num_slots, data):
        """``encode`` builds each valid message once per codec shape.

        The bits decode back to the message, a repeated encode (also from a
        fresh codec of the same shape, of an equal message) returns the
        identical tuple, and an out-of-range index or cause raises on every
        call: only a message that passed the range checks enters the table.
        The out-of-range fields below fit their bit widths unless the limit
        is a power of two, so a table filled before the checks would answer
        the second call.
        """
        codec = ControlCodec(message_length=message_length, num_slots=num_slots)
        mtype = data.draw(st.sampled_from(list(ControlType)))
        index = data.draw(st.integers(min_value=1, max_value=message_length))
        value = data.draw(st.integers(min_value=0, max_value=1))
        cause = data.draw(st.integers(min_value=0, max_value=num_slots - 1)) if mtype is ControlType.HEARD else 0
        msg = ControlMessage(mtype, index, value, cause=cause)
        bits = codec.encode(msg)
        assert len(bits) == codec.frame_bits and set(bits) <= {0, 1}
        assert codec.decode_frame(int_from_bits(bits)) == msg
        assert codec.encode(msg) is bits
        fresh = ControlCodec(message_length=message_length, num_slots=num_slots)
        assert fresh.encode(ControlMessage(mtype, index, value, cause=cause)) is bits
        bad_index = ControlMessage(mtype, message_length + 1, value, cause=cause)
        bad_cause = ControlMessage(ControlType.HEARD, index, value, cause=num_slots)
        for bad in (bad_index, bad_cause):
            for _ in range(2):
                with pytest.raises(ValueError):
                    codec.encode(bad)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=12, max_size=12))
    def test_decode_never_crashes(self, bits):
        codec = ControlCodec(message_length=4, num_slots=100)
        result = codec.decode(tuple(bits))
        assert result is None or isinstance(result, ControlMessage)

    @pytest.mark.parametrize(
        "message_length,num_slots",
        [(1, 1), (3, 7), (5, 2), (2, 20), (16, 33)],
    )
    def test_decode_frame_table_matches_decode_on_every_frame(self, message_length, num_slots):
        """The shared table answers every 2^frame_bits frame exactly as ``decode``."""
        codec = ControlCodec(message_length=message_length, num_slots=num_slots)
        width = codec.frame_bits
        type_shift = width - ControlCodec.TYPE_WIDTH
        index_shift = codec.cause_width + ControlCodec.VALUE_WIDTH
        invalid_type = overflow = 0
        for value in range(1 << width):
            frame = bits_from_int(value, width)
            expected = codec.decode(frame)
            # The table is keyed by the frame folded MSB-first; the first
            # lookup fills it, the second answers from it.
            assert int_from_bits(frame) == value
            assert codec.decode_frame(value) == expected
            assert codec.decode_frame(value) == expected
            if value >> type_shift == 3:
                assert expected is None
                invalid_type += 1
            elif ((value >> index_shift) & ((1 << codec.index_width) - 1)) + 1 > message_length:
                assert expected is None
                overflow += 1
            else:
                assert expected is not None
        assert invalid_type == 1 << type_shift
        has_overflow = (1 << codec.index_width) > message_length
        assert (overflow > 0) == has_overflow

    def test_decode_frame_table_is_shared_per_shape(self):
        frame = int_from_bits(
            ControlCodec(message_length=3, num_slots=7).encode(
                ControlMessage(ControlType.HEARD, 2, 1, cause=5)
            )
        )
        first = ControlCodec(message_length=3, num_slots=7).decode_frame(frame)
        assert ControlCodec(message_length=3, num_slots=7).decode_frame(frame) is first
        other = ControlCodec(message_length=3, num_slots=8).decode_frame(frame)
        assert other == first and other is not first
