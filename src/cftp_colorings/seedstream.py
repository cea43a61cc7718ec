"""Deterministic, addressable randomness.

Every draw is a pure function of (master_seed, block, update, draw index),
realized as a keyed counter PRNG: the address is absorbed into a 64-bit key
through successive splitmix64 finalizer rounds, and draw j of an update is
the finalizer applied to key + (j+1) * GOLDEN. Replaying an update therefore
needs only its address, never stored random bytes.

Couplings agree on a fixed draw layout per update (documented where each
coupling is implemented), so predict and decode regenerate identical values.
"""

from __future__ import annotations

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TO_DOUBLE = 1.0 / (1 << 53)


def mix64(z: int) -> int:
    """splitmix64 finalizer; bijective on 64 bits with full avalanche."""
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class SeedStream:
    """Splittable randomness source keyed by a 64-bit master seed."""

    __slots__ = ("master_seed", "_root")

    def __init__(self, master_seed: int):
        self.master_seed = master_seed & _M64
        self._root = mix64(self.master_seed)

    def subkey(self, block: int, update: int) -> int:
        h = mix64((self._root + (block + 1) * _GOLDEN) & _M64)
        return mix64((h + (update + 1) * _GOLDEN) & _M64)


def raw64(key: int, draw: int) -> int:
    return mix64((key + (draw + 1) * _GOLDEN) & _M64)


def unit_uniform(key: int, draw: int) -> float:
    """Uniform double in [0, 1) from the top 53 bits of one raw word."""
    return (raw64(key, draw) >> 11) * _TO_DOUBLE


def randint_below(key: int, draw: int, n: int) -> int:
    """Uniform integer in [0, n) via multiply-shift.

    Bias is at most n / 2**64, far below anything resolvable by the
    statistical tests this package runs.
    """
    if n <= 0:
        raise ValueError("randint_below needs n >= 1")
    return (raw64(key, draw) * n) >> 64


def shuffled(key: int, first_draw: int, items: list) -> list:
    """Fisher-Yates permutation of items, consuming len(items)-1 draws."""
    return shuffled_prefix(key, first_draw, items, len(items))


def shuffled_prefix(key: int, first_draw: int, items: list, k: int) -> list:
    """First k elements of shuffled(key, first_draw, items).

    Element i of the permutation is fixed after step i, so a prefix needs
    only its own draws.
    """
    out = list(items)
    m = len(out)
    k = min(k, m)
    for i in range(min(k, m - 1)):
        j = i + randint_below(key, first_draw + i, m - i)
        out[i], out[j] = out[j], out[i]
    return out[:k]
