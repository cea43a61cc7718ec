"""Deterministic, addressable randomness.

Every draw is a pure function of (master_seed, block, update, draw index),
realized as a keyed counter PRNG. Word j under a key is the splitmix64
finalizer applied to key + (j+1) * GOLDEN (``raw64``). The root key is the
finalizer of the master seed; a block's key is word ``block`` under the
root, an update's key is word ``update`` under its block's key, and draw j
of an update is word j under the update's key. ``subkey`` computes each
block key once and reuses it for a run of the block's updates. Replaying an
update therefore needs only its address, never stored random bytes.

A key batch is two pieces. ``lane_keys`` computes a run of consecutive
keys under one block key at once, packed: lane i of one int holds the
64-bit key ``start + i`` in bits 128i to 128i+63, and every splitmix64 step
runs on the whole int. Each shift's result and each product are masked
back to the low 64 bits of every lane, so no lane bleeds into the next: a
64x64-bit product fits its 128-bit lane. ``lane_row`` then reads one row
from the packed keys, as a tuple through ``to_bytes`` and one ``struct``
unpack: the keys themselves, or word d under each key, finalized lane-wise
the same way. Rows are independent of each other, so a caller computes
only the rows it reads, in any order. The results equal ``raw64`` lane for
lane, so a batched key is the same key. The lane rule, which graphs take
batches and how wide, and which reader takes which row, is
``bounding.BoundingState``'s; every other draw is hashed from its key with
``raw64``. Every update takes exactly one key, so an update's index is the
number of updates its block applied before it.

Couplings agree on a fixed draw layout per update (documented where each
coupling is implemented), so predict and decode regenerate identical values.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import count, repeat

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

    def subkeys(self, block: int, start: int, lanes: int) -> int:
        """subkey(block, start + i) for i < lanes, packed by lane_keys; read
        them, or the words under them, with lane_row. The block key is
        hashed afresh, one word per batch, and the cache is left alone."""
        return lane_keys(raw64(self._root, block), start, lanes)


def _finalize_lanes(z: int, mr: int) -> int:
    """raw64's finalizer on every 128-bit lane of z; each lane holds < 2**64."""
    z ^= (z >> 30) & mr
    z = (z * 0xBF58476D1CE4E5B9) & mr
    z ^= (z >> 27) & mr
    z = (z * 0x94D049BB133111EB) & mr
    return z ^ ((z >> 31) & mr)


@lru_cache(maxsize=32)
def _lane_constants(lanes: int) -> tuple:
    """Per-lane-count constants: the lane mask, the counter ramp (i+1)*GOLDEN
    in lane i, a 1 in every lane, and the unpack."""
    ones = sum(1 << 128 * i for i in range(lanes))
    ramp = sum(((i + 1) * _GOLDEN & _M64) << 128 * i for i in range(lanes))
    return _M64 * ones, ramp, ones, struct.Struct("<" + "Q8x" * lanes).unpack


@lru_cache(maxsize=64)
def _word_offset(lanes: int, draw: int) -> int:
    """(draw+1)*GOLDEN mod 2**64 in every lane: word draw's counter."""
    return ((draw + 1) * _GOLDEN & _M64) * _lane_constants(lanes)[2]


def lane_keys(block_key: int, start: int, lanes: int) -> int:
    """Keys raw64(block_key, start + i) for i < lanes, packed: key i in
    bits 128i to 128i+63 of one int.

    Lane i's input is (block_key + (start+i+1)*GOLDEN) mod 2**64: the block's
    base (block_key + start*GOLDEN) mod 2**64, copied into every lane, plus
    the ramp.
    """
    mr, ramp, ones, _ = _lane_constants(lanes)
    base = (block_key + start * _GOLDEN) & _M64
    return _finalize_lanes((ramp + base * ones) & mr, mr)


def lane_row(keys: int, lanes: int, draw: int | None) -> tuple:
    """One row of lanes packed keys (lane_keys) as a tuple: the keys when
    draw is None, else raw64(key, draw) under each key."""
    mr, _, _, unpack = _lane_constants(lanes)
    if draw is not None:
        keys = _finalize_lanes((keys + _word_offset(lanes, draw)) & mr, mr)
    return unpack(keys.to_bytes(16 * lanes, "little"))


def unit_from_word(word: int) -> float:
    """Uniform double in [0, 1) from the top 53 bits of one 64-bit word."""
    return (word >> 11) * _TO_DOUBLE


def unit_uniform(key: int, draw: int) -> float:
    """unit_from_word of word draw under key."""
    return unit_from_word(raw64(key, draw))


def randint_below(word: int, n: int) -> int:
    """Uniform integer in [0, n) from one 64-bit word via multiply-shift.

    Callers pass raw64(key, draw), or the same word from a lane_row.
    Bias is at most n / 2**64, far below anything resolvable by the
    statistical tests this package runs.
    """
    if n <= 0:
        raise ValueError("randint_below needs n >= 1")
    return (word * n) >> 64


def shuffle_walk(items, words):
    """Yield the Fisher-Yates permutation of items one element at a time,
    taking step i's word from words only when element i is asked for.

    Step i swaps in ``randint_below(word, m - i)``, written out so each step
    costs one call. Element i is fixed after step i, so a prefix needs only
    its own words, and a whole walk takes len(items) - 1.
    """
    out = list(items)
    m = len(out)
    for i, word in zip(range(m - 1), words):
        j = i + ((word * (m - i)) >> 64)
        out[i], out[j] = out[j], out[i]
        yield out[i]
    if m:
        yield out[-1]


def shuffled(key: int, first_draw: int, items) -> list:
    """Fisher-Yates permutation of items, from draws first_draw on under key."""
    return list(shuffle_walk(items, map(raw64, repeat(key), count(first_draw))))
