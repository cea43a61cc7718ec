"""Color sets as integer bitmasks.

A color set over the palette {0..q-1} is a plain Python int whose bit c is
set iff color c is a member. Python's arbitrary-precision ints make the same
representation work for any q. Callers use the int operators directly:
``1 << c`` is the set {c}, ``m >> c & 1`` tests membership, ``m.bit_count()``
is the size, ``full_mask(q) & ~m`` the complement, and ``|``, ``&``, ``& ~``
are union, intersection and difference. This module holds only the helpers
that hide a loop or name the palette.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Iterable, Iterator

ColorSet = int

# Width at or below which nth_color stops halving and reads the mask's two
# bytes from the tables below.
_SELECT_WIDTH = 16
# Each byte's popcount, and its members in ascending order.
_BYTE_COUNT = bytes(b.bit_count() for b in range(256))
_BYTE_MEMBERS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
# Size above which members reads the binary digits at C level; below it the
# bit loop is faster (0.45 against 0.90 us at two members, CPython 3.11, x86_64).
_LOOP_MEMBERS = 8
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def full_mask(q: int) -> ColorSet:
    return (1 << q) - 1


def mask_from(colors: Iterable[int]) -> ColorSet:
    m = 0
    for c in colors:
        m |= 1 << c
    return m


def iter_colors(mask: ColorSet) -> Iterator[int]:
    """Yield members in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def members(mask: ColorSet) -> list[int]:
    """Members in ascending order, as a list."""
    if mask.bit_count() <= _LOOP_MEMBERS:
        return list(iter_colors(mask))
    # digit i of the reversed binary string is bit i
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)))


def nth_color(mask: ColorSet, n: int) -> int:
    """n-th member (0-based) in ascending order, in O(log q) int operations.

    Halve the mask while it is wider than _SELECT_WIDTH bits: keep the low
    half while n is below its popcount, else drop those members from n and
    move to the high half. The mask left fits in two bytes; read the member
    from the low byte's table entry, or from the high byte's with the low
    byte's popcount dropped from n. The result equals ``members(mask)[n]``.
    """
    if n < 0 or n >= mask.bit_count():
        raise IndexError(f"no member {n} in a color set of {mask.bit_count()}")
    base = 0
    width = mask.bit_length()
    while width > _SELECT_WIDTH:
        width = (width + 1) >> 1
        low = mask & ((1 << width) - 1)
        below = low.bit_count()
        if n < below:
            mask = low
        else:
            n -= below
            mask >>= width
            base += width
    low = mask & 255
    below = _BYTE_COUNT[low]
    if n < below:
        return base + _BYTE_MEMBERS[low][n]
    return base + 8 + _BYTE_MEMBERS[mask >> 8][n - below]
