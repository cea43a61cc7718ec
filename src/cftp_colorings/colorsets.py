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

from typing import Iterable, Iterator

ColorSet = int


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
    return list(iter_colors(mask))


def nth_color(mask: ColorSet, n: int) -> int:
    """n-th member (0-based) in ascending order."""
    for i, c in enumerate(iter_colors(mask)):
        if i == n:
            return c
    raise IndexError(f"color set has fewer than {n + 1} members")
