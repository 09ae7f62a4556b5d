"""Property tests for the hex track format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtcodec.bits import format_track, parse_track

bit_arrays = st.lists(st.integers(0, 1), max_size=300).map(lambda xs: np.array(xs, dtype=np.uint8))


@settings(max_examples=200, deadline=None)
@given(bit_arrays)
def test_parse_inverts_format(bits):
    text = format_track(bits)
    assert text == text.lower()
    out = parse_track(text)
    assert out.dtype == np.uint8 and np.array_equal(out, bits)


@settings(max_examples=100, deadline=None)
@given(bit_arrays)
def test_uppercase_hex_accepted(bits):
    header, payload = format_track(bits).splitlines()
    assert np.array_equal(parse_track(f"{header}\n{payload.upper()}\n"), bits)


@settings(max_examples=100, deadline=None)
@given(bit_arrays.filter(len), st.data())
def test_non_hex_digit_rejected(bits, data):
    header, payload = format_track(bits).splitlines()
    pos = data.draw(st.integers(0, len(payload) - 1))
    bad = data.draw(st.characters(blacklist_characters="0123456789abcdefABCDEF\n\r", min_codepoint=33))
    with pytest.raises(ValueError):
        parse_track(f"{header}\n{payload[:pos]}{bad}{payload[pos + 1:]}\n")


@settings(max_examples=100, deadline=None)
@given(bit_arrays, st.sampled_from([-1, 1]))
def test_wrong_digit_count_rejected(bits, delta):
    header, *rest = format_track(bits).splitlines()
    payload = rest[0] if rest else ""
    payload = payload[:-1] if delta < 0 else payload + "0"
    if delta < 0 and not len(bits):
        return  # an empty payload has no digit to drop
    with pytest.raises(ValueError, match="digits"):
        parse_track(f"{header}\n{payload}\n")


@settings(max_examples=100, deadline=None)
@given(bit_arrays.filter(lambda b: len(b) % 4), st.data())
def test_nonzero_padding_rejected(bits, data):
    header, payload = format_track(bits).splitlines()
    pad = 4 - len(bits) % 4  # bits of the last nibble beyond the declared length
    last = int(payload[-1], 16) | data.draw(st.integers(1, (1 << pad) - 1))
    with pytest.raises(ValueError, match="padding"):
        parse_track(f"{header}\n{payload[:-1]}{last:x}\n")
