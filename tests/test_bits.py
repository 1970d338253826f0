"""The bit helpers against plain scans."""
from hypothesis import example, given, settings, strategies as st

from pathideal.bits import iter_bits


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 1 << 130))
@example(0)
@example(1)
@example(1 << 64)
@example(1 << 63 | 1 << 64 | 1 << 65 | 5)
@example((1 << 200) - 1)
def test_iter_bits_matches_a_bit_scan(mask):
    assert list(iter_bits(mask)) == [b for b in range(mask.bit_length()) if mask >> b & 1]
