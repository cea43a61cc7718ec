"""Deterministic, addressable randomness.

Every draw is a pure function of (master_seed, block, update, draw index),
realized as a keyed counter PRNG. Word j under a key is the splitmix64
finalizer applied to key + (j+1) * GOLDEN (``raw64``). The root key is the
finalizer of the master seed; a block's key is word ``block`` under the
root, an update's key is word ``update`` under its block's key, and draw j
of an update is word j under the update's key. ``subkey`` computes each
block key once and reuses it for a run of the block's updates. Replaying an
update therefore needs only its address, never stored random bytes.

``lane_words`` computes a run of consecutive keys under one block key, and
word 0 and word 2 under each, all at once: lane i of one packed int holds
the 64-bit value for key ``start + i`` in bits 128i to 128i+63, and every
splitmix64 step runs on the whole int. Each shift's result and each
product are masked back to the low 64 bits of every lane, so no lane
bleeds into the next: a 64x64-bit product fits its 128-bit lane. The lanes
are read back through ``to_bytes`` and one ``struct`` unpack. The results
equal ``raw64`` lane for lane, so a batched key is the same key. The lane
rule, which graphs take batches and how wide, is ``bounding.BoundingState``'s.
The batch readers are compress's extra color (word 0), which a built
cleanup reads for its k targets as one run of k keys, a carried compress
update's first shuffle step (word 2), an all-singleton disjoint update's
reserve (word 2), a disjoint update's slot layout, whose slot variate and
reserve are words 0 and 2, and the drift tail, which reads word 2 of each
step's one key straight from the batch; every other draw is hashed from
its key with ``raw64``. Every update takes exactly one key, so an update's
index is the number of updates its block applied before it.

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

    def subkeys(self, block: int, start: int, lanes: int) -> tuple[tuple, tuple, tuple]:
        """subkey(block, start + i) for i < lanes, with word 0 and word 2
        under each key: three tuples from one lane_words batch. The block key
        is hashed afresh, one word per batch, and the cache is left alone."""
        return lane_words(raw64(self._root, block), start, lanes)


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
    in lane i, the offsets of word 0 and word 2 in every lane, and the unpack."""
    ones = sum(1 << 128 * i for i in range(lanes))
    ramp = sum(((i + 1) * _GOLDEN & _M64) << 128 * i for i in range(lanes))
    return (
        _M64 * ones, ramp, ones, _GOLDEN * ones, (3 * _GOLDEN & _M64) * ones,
        struct.Struct("<" + "Q8x" * lanes).unpack,
    )


def lane_words(block_key: int, start: int, lanes: int) -> tuple[tuple, tuple, tuple]:
    """Keys raw64(block_key, start + i) for i < lanes, and raw64(key, 0) and
    raw64(key, 2) under each, as three tuples.

    Lane i's input is (block_key + (start+i+1)*GOLDEN) mod 2**64: the block's
    base (block_key + start*GOLDEN) mod 2**64, copied into every lane, plus
    the ramp.
    """
    mr, ramp, ones, word0, word2, unpack = _lane_constants(lanes)
    size = 16 * lanes
    base = (block_key + start * _GOLDEN) & _M64
    keys = _finalize_lanes((ramp + base * ones) & mr, mr)
    w0 = _finalize_lanes((keys + word0) & mr, mr)
    w2 = _finalize_lanes((keys + word2) & mr, mr)
    return tuple(unpack(z.to_bytes(size, "little")) for z in (keys, w0, w2))


def unit_from_word(word: int) -> float:
    """Uniform double in [0, 1) from the top 53 bits of one 64-bit word."""
    return (word >> 11) * _TO_DOUBLE


def unit_uniform(key: int, draw: int) -> float:
    """unit_from_word of word draw under key."""
    return unit_from_word(raw64(key, draw))


def randint_below(word: int, n: int) -> int:
    """Uniform integer in [0, n) from one 64-bit word via multiply-shift.

    Callers pass raw64(key, draw), or the same word from a lane_words batch.
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
