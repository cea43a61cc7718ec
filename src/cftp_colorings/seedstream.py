"""Deterministic, addressable randomness.

Every draw is a pure function of (master_seed, block, update, draw index),
realized as a keyed counter PRNG. Word j under a key is the splitmix64
finalizer applied to key + (j+1) * GOLDEN (``raw64``). The root key is the
finalizer of the master seed; a block's key is word ``block`` under the
root, an update's key is word ``update`` under its block's key, and draw j
of an update is word j under the update's key. A stream computes each
block key once and reuses it for the block's updates. Replaying an update
therefore needs only its address, never stored random bytes.

Couplings agree on a fixed draw layout per update (documented where each
coupling is implemented), so predict and decode regenerate identical values.
"""

from __future__ import annotations

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TO_DOUBLE = 1.0 / (1 << 53)


def raw64(key: int, draw: int) -> int:
    """Word ``draw`` under ``key``: the splitmix64 finalizer of key + (draw+1)*GOLDEN.

    The finalizer is bijective on 64 bits with full avalanche.
    """
    z = (key + (draw + 1) * _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class SeedStream:
    """Splittable randomness source keyed by a 64-bit master seed.

    Holds the last block asked for with its key, so a run of keys from one
    block hashes the block once. The pair is one tuple, read and replaced
    whole, so a stream shared between threads never pairs a block with
    another block's key.
    """

    __slots__ = ("master_seed", "_root", "_last_block")

    def __init__(self, master_seed: int):
        self.master_seed = master_seed & _M64
        # word 0 under master - GOLDEN is the finalizer of the master seed itself
        self._root = raw64((self.master_seed - _GOLDEN) & _M64, 0)
        self._last_block = (None, 0)

    def subkey(self, block: int, update: int) -> int:
        cached, key = self._last_block
        if block != cached:
            key = raw64(self._root, block)
            self._last_block = (block, key)
        return raw64(key, update)


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
    only its own draws. Step i swaps in ``randint_below(key, first_draw + i,
    m - i)``, written out so each step costs one call.
    """
    out = list(items)
    m = len(out)
    k = min(k, m)
    for i in range(min(k, m - 1)):
        j = i + ((raw64(key, first_draw + i) * (m - i)) >> 64)
        out[i], out[j] = out[j], out[i]
    return out[:k]
