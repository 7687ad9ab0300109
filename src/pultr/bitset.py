"""Tiny helpers for vertex sets stored as Python int bitmasks."""


def iter_bits(mask):
    """Yield the set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
