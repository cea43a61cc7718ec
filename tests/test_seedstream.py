import math
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from cftp_colorings import oracle
from cftp_colorings import seedstream as ss
from cftp_colorings import couplings as cp
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
    return cp.outside_color(full_mask(q) & ~colors, q, key, draw)


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
    items = list(range(9))
    key = STREAM.subkey(8, 0)
    full = ss.shuffled(key, 0, items)
    for k in range(10):
        assert ss.shuffled_prefix(key, 0, items, k) == full[: min(k, 9)]


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**20), st.integers(0, 2**20))
def test_replay_invariance(master, block, update):
    k1 = ss.SeedStream(master).subkey(block, update)
    k2 = ss.SeedStream(master).subkey(block, update)
    assert [ss.raw64(k1, j) for j in range(4)] == [ss.raw64(k2, j) for j in range(4)]


@settings(max_examples=50)
@given(st.sets(st.integers(0, 40), min_size=1, max_size=12), st.integers(0, 1000))
def test_permutation_is_permutation(colors, j):
    key = STREAM.subkey(9, j)
    out = ss.shuffled(key, 0, sorted(colors))
    assert sorted(out) == sorted(colors)
