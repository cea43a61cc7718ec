import math
from collections import Counter
from itertools import count, islice, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from cftp_colorings import oracle
from cftp_colorings import seedstream as ss
from cftp_colorings import couplings as cp
from cftp_colorings.bounding import MAX_LANES
from cftp_colorings.colorsets import full_mask, mask_from

STREAM = ss.SeedStream(123456789)


def test_same_address_same_value():
    key = STREAM.subkey(3, 41)
    assert ss.unit_uniform(key, 7) == ss.unit_uniform(key, 7)
    again = ss.SeedStream(123456789).subkey(3, 41)
    assert ss.unit_uniform(again, 7) == ss.unit_uniform(key, 7)


def test_distinct_masters_differ():
    a = ss.SeedStream(1).subkey(1, 0)
    b = ss.SeedStream(2).subkey(1, 0)
    assert ss.unit_uniform(a, 0) != ss.unit_uniform(b, 0)


def test_address_isolation():
    # values at one address are a pure function of that address, so drawing
    # elsewhere first cannot perturb them
    key_a = STREAM.subkey(5, 0)
    before = [ss.unit_uniform(key_a, j) for j in range(16)]
    for j in range(1000):
        ss.unit_uniform(STREAM.subkey(6, j), 0)
    after = [ss.unit_uniform(key_a, j) for j in range(16)]
    assert before == after
    assert before != [ss.unit_uniform(STREAM.subkey(6, 0), j) for j in range(16)]


def test_unit_uniform_ks_and_mean():
    key = STREAM.subkey(1, 0)
    draws = np.array([ss.unit_uniform(key, j) for j in range(1_000_000)])
    stat = sps.kstest(draws, "uniform").statistic
    assert stat < 0.002, stat
    assert abs(draws.mean() - 0.5) < 0.002


def uniform_member(key, draw, colors):
    # the one rule every coupling uses, picking outside the complement of colors
    q = colors.bit_length()
    return cp.outside_color(full_mask(q) & ~colors, q, ss.raw64(key, draw))


def test_uniform_in_set_singleton():
    assert uniform_member(STREAM.subkey(1, 1), 0, mask_from([7])) == 7


def test_uniform_in_set_empty_rejected():
    with pytest.raises(ValueError):
        uniform_member(STREAM.subkey(1, 1), 0, 0)


def test_uniform_in_set_frequencies():
    mask = mask_from([1, 2, 3])
    n = 300_000
    key = STREAM.subkey(2, 0)
    counts = Counter(uniform_member(key, j, mask) for j in range(n))
    sigma = math.sqrt((1 / 3) * (2 / 3) / n)
    for c in (1, 2, 3):
        assert abs(counts[c] / n - 1 / 3) <= 3 * sigma


def test_permutation_singleton():
    assert ss.shuffled(STREAM.subkey(3, 0), 0, [4]) == [4]


def test_permutation_two_elements_balanced():
    n = 100_000
    hits = 0
    for j in range(n):
        key = STREAM.subkey(4, j)
        hits += ss.shuffled(key, 0, [1, 2]) == [1, 2]
    sigma = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) <= 3 * sigma


def test_permutation_three_elements_chi_square():
    n = 60_000
    counts = Counter()
    for j in range(n):
        key = STREAM.subkey(5, j)
        counts[tuple(ss.shuffled(key, 0, [1, 2, 3]))] += 1
    orders = list(permutations([1, 2, 3]))
    assert set(counts) <= set(orders)
    assert oracle.gof_from_counts([counts[o] for o in orders]).pvalue > 0.001


def test_shuffled_prefix_matches_full_shuffle():
    # a walk's first k elements are the full shuffle's, and take only the
    # words of their own steps: at most k, and none for the last element
    items = list(range(9))
    key = STREAM.subkey(8, 0)
    full = ss.shuffled(key, 0, items)
    for k in range(10):
        taken = []
        words = (taken.append(d) or ss.raw64(key, d) for d in count())
        assert list(islice(ss.shuffle_walk(items, words), k)) == full[:k]
        assert taken == list(range(min(k, 8)))


@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**20),
    st.integers(0, 2**20),
    st.integers(0, 2**20),
)
def test_replay_invariance(master, block, update, offset):
    # a key drawn at another block between the two reads must be that block's
    # own key, and must not leak into the second read through the stream's
    # block-key cache
    stream = ss.SeedStream(master)
    other = block + 1 + offset
    k1 = stream.subkey(block, update)
    assert stream.subkey(other, update) == ss.SeedStream(master).subkey(other, update)
    k2 = stream.subkey(block, update)
    assert k1 == k2 == ss.SeedStream(master).subkey(block, update)
    assert [ss.raw64(k1, j) for j in range(4)] == [ss.raw64(k2, j) for j in range(4)]


M64 = 2**64 - 1

# (master, block, update) -> (subkey, raw64(key, 0), raw64(key, 5), unit_uniform(key, 0)),
# computed by an implementation that hashed the block afresh for every key,
# so a finalizer or address slip fails here before any golden sample moves
KNOWN_ANSWERS = {
    (0, 0, 0): (0xA706DD2F4D197E6F, 0x238275BC38FCBE91, 0x50A9C0499F748350, 0.13870941014555427),
    (0, 1, 10**6): (0xAD13FCE09C5486AD, 0x5EA921601D8A5EC9, 0x5755ADF2D506CC52, 0.3697682246834487),
    (0, 2**20, 0): (0xCC8E0AC5C3767843, 0xA95A872C648C04B6, 0xB7F44693CB186655, 0.6615375979786648),
    (M64, 0, 0): (0x968D1EC021FF6814, 0x69C1B92FEA83BD41, 0xEDB4412182C9DAFC, 0.4131122343046759),
    (M64, 1, 0): (0xB1EFC05B7519170F, 0x2B3BBC37E23493C8, 0x705E7664F3F9EFF5, 0.16888023723932322),
    (M64, 2**20, 10**6): (0x30B75FD4679ACED7, 0x9213CCDE4DF671BE, 0x306DF8A1CF5A8BE2, 0.5706146280990312),
    (123456789, 1, 10**6): (0x296995A0A8480D52, 0x2EBCF6BABC45E2A2, 0xB11B9BA10965D875, 0.18257085856409772),
    (2024, 0, 10**6): (0x511872AEF84FAB56, 0x4BE1EE0F8C224D72, 0x6CE9798DB10BF271, 0.29641616706442975),
}


@pytest.mark.parametrize("address", sorted(KNOWN_ANSWERS))
def test_known_answers(address):
    master, block, update = address
    key = ss.SeedStream(master).subkey(block, update)
    assert (key, ss.raw64(key, 0), ss.raw64(key, 5), ss.unit_uniform(key, 0)) == KNOWN_ANSWERS[address]


def test_raw64_is_splitmix64():
    # the first output of the reference splitmix64 generator seeded with 0
    assert ss.raw64(0, 0) == 0xE220A8397B1DCDAF


def test_block_key_cache_isolation():
    # engine.sample builds blocks 1..t then replays t-1..1, the partition is
    # block 0, and gen_random_regular steps through its attempts; one stream
    # queried in a mix of those orders must give every key a fresh stream gives
    stream = ss.SeedStream(987654321)
    for block in (1, 2, 1, 0, 3, 1):
        for update in (0, 1, 7, 10**6):
            assert stream.subkey(block, update) == ss.SeedStream(987654321).subkey(block, update)


@settings(max_examples=50)
@given(st.sets(st.integers(0, 40), min_size=1, max_size=12), st.integers(0, 1000))
def test_permutation_is_permutation(colors, j):
    key = STREAM.subkey(9, j)
    out = ss.shuffled(key, 0, sorted(colors))
    assert sorted(out) == sorted(colors)


# ---------------------------------------------------------------------------
# packed-lane batches
# ---------------------------------------------------------------------------


ROWS = (None, 0, 2)  # the rows a key batch has: the keys, word 0, word 2


def lane_mismatches(master, block, start, lanes):
    """(order, lane) wherever a row of SeedStream.subkeys' packed keys
    differs from subkey and raw64 at the same address, in the key, word 0
    or word 2, with each row computed on its own from the packed keys, the
    rows taken in every order."""
    packed = ss.SeedStream(master).subkeys(block, start, lanes)
    assert isinstance(packed, int)
    fresh = ss.SeedStream(master)
    expected = {None: [], 0: [], 2: []}
    for i in range(lanes):
        key = fresh.subkey(block, start + i)
        expected[None].append(key)
        expected[0].append(ss.raw64(key, 0))
        expected[2].append(ss.raw64(key, 2))
    out = []
    for order in permutations(ROWS):
        rows = {draw: ss.lane_row(packed, lanes, draw) for draw in order}
        assert all(len(row) == lanes for row in rows.values())
        out += [
            (order, i)
            for i in range(lanes)
            if any(rows[draw][i] != expected[draw][i] for draw in ROWS)
        ]
    return out


def wrapping_start(master, block):
    """A start at which lane 0's input wraps: (block_key + start*G) mod 2**64
    lies above 2**64 - G, so adding lane 0's G passes 2**64."""
    block_key = ss.raw64(ss.SeedStream(master)._root, block)
    return next(s for s in range(1, 64) if (block_key + s * ss._GOLDEN) & M64 > 2**64 - ss._GOLDEN)


@pytest.mark.parametrize("address", sorted(KNOWN_ANSWERS))
def test_lane_words_match_raw64_at_every_lane_count(address):
    master, block, update = address
    for start in (update, wrapping_start(master, block), 2**64 - 5):
        for lanes in range(1, MAX_LANES + 1):
            assert lane_mismatches(master, block, start, lanes) == [], (start, lanes)


def finalizer_without_mask(k):
    """A copy of _finalize_lanes with its k-th lane mask dropped, for k < 4;
    with every mask kept when k is None. The fifth mask only keeps each lane
    below 2**64 for the caller, who masks before using a lane again, so no
    lane's low word depends on it."""
    def finalize(z, mr):
        masks = [mr] * 4
        if k is not None:
            masks[k] = -1
        z ^= (z >> 30) & masks[0]
        z = (z * 0xBF58476D1CE4E5B9) & masks[1]
        z ^= (z >> 27) & masks[2]
        z = (z * 0x94D049BB133111EB) & masks[3]
        return z ^ ((z >> 31) & mr)

    return finalize


@pytest.mark.parametrize("k", range(4))
def test_lane_check_catches_a_dropped_mask(monkeypatch, k):
    """Negative control: without any one of these masks a lane bleeds into
    its neighbor, or a lane's high bits reach its own low word."""
    master, block, update = sorted(KNOWN_ANSWERS)[0]
    monkeypatch.setattr(ss, "_finalize_lanes", finalizer_without_mask(None))
    assert lane_mismatches(master, block, update, MAX_LANES) == []
    monkeypatch.setattr(ss, "_finalize_lanes", finalizer_without_mask(k))
    assert lane_mismatches(master, block, update, MAX_LANES)
