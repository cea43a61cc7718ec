"""Color sets as integer bitmasks.

A color set over the palette {0..q-1} is a plain Python int whose bit c is
set iff color c is a member. Python's arbitrary-precision ints make the same
representation work for any q, with union/intersection/difference as single
bitwise ops and cardinality via int.bit_count().
"""

from __future__ import annotations

from typing import Iterable, Iterator

ColorSet = int


def full_mask(q: int) -> ColorSet:
    return (1 << q) - 1


def bit(color: int) -> ColorSet:
    return 1 << color


def mask_from(colors: Iterable[int]) -> ColorSet:
    m = 0
    for c in colors:
        m |= 1 << c
    return m


def size(mask: ColorSet) -> int:
    return mask.bit_count()


def contains(mask: ColorSet, color: int) -> bool:
    return (mask >> color) & 1 == 1


def complement(mask: ColorSet, q: int) -> ColorSet:
    return mask ^ full_mask(q)


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
