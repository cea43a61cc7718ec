"""Color sets as integer bitmasks.

A color set over the palette {0..q-1} is a plain Python int whose bit c is
set iff color c is a member. Python's arbitrary-precision ints make the same
representation work for any q. Callers use the int operators directly:
``1 << c`` is the set {c}, ``m >> c & 1`` tests membership, ``m.bit_count()``
is the size, ``full_mask(q) & ~m`` the complement, and ``|``, ``&``, ``& ~``
are union, intersection and difference. This module holds only the helpers
that hide a loop or name the palette. One of them, ``nth_outside``, is the
one select rule: the n-th color not in a mask, found by popcounts alone,
so a uniform color outside a mask never builds the complement.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Iterable, Iterator

ColorSet = int

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
    # digit i of the reversed binary string is bit i
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)))


def nth_outside(mask: ColorSet, n: int) -> int:
    """The n-th color (0-based, n >= 0) not in mask, in ascending order.

    The answer c is the least fixpoint of c = n + |mask & [0, c]|: the
    colors not in mask up to c number c + 1 - |mask & [0, c]|. The right
    side never falls as c rises, so iterating it from c = n climbs to that
    fixpoint, one popcount per step, and stops there.
    """
    c = n
    while (nxt := n + (mask & ((2 << c) - 1)).bit_count()) != c:
        c = nxt
    return c
