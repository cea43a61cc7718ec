import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftp_colorings import colorsets as cs

color_sets = st.frozensets(st.integers(min_value=0, max_value=63), max_size=20)


@given(color_sets)
def test_mask_roundtrip(colors):
    mask = cs.mask_from(colors)
    assert set(cs.members(mask)) == set(colors)
    assert mask.bit_count() == len(colors)


@given(color_sets, color_sets)
def test_bit_ops_match_set_ops(a, b):
    ma, mb = cs.mask_from(a), cs.mask_from(b)
    assert set(cs.members(ma | mb)) == a | b
    assert set(cs.members(ma & mb)) == a & b
    assert set(cs.members(ma & ~mb)) == a - b


@given(color_sets)
def test_complement(colors):
    q = 64
    mask = cs.mask_from(colors)
    assert set(cs.members(cs.full_mask(q) & ~mask)) == set(range(q)) - colors


def test_members_sorted_and_nth():
    mask = cs.mask_from([9, 2, 5])
    assert cs.members(mask) == [2, 5, 9]
    assert [cs.nth_color(mask, i) for i in range(3)] == [2, 5, 9]


@pytest.mark.parametrize("q", [13, 18, 64, 65, 105, 130])
def test_members_matches_iter_colors_at_every_size(q):
    # members reads masks of more than 8 colors from their binary digits;
    # iter_colors, the bit loop, is the independent reference
    rng = random.Random(q)
    for k in range(q + 1):
        masks = [cs.mask_from(rng.sample(range(q), k)) for _ in range(3)]
        masks += [(1 << k) - 1, cs.full_mask(q) & ~((1 << (q - k)) - 1)]
        for mask in masks:
            assert mask.bit_count() == k
            assert cs.members(mask) == list(cs.iter_colors(mask))


def test_nth_color_matches_members_for_every_small_mask():
    # masks up to 17 bits wide cross the width where the select stops halving
    # (16 bits): every mask of at most 16 bits is read from the byte tables
    # alone, and every 17-bit one is halved once into 9-bit halves first
    for mask in range(1 << 17):
        expected = cs.members(mask)
        assert [cs.nth_color(mask, n) for n in range(len(expected))] == expected


wide_masks = st.one_of(
    st.integers(min_value=1, max_value=(1 << 256) - 1),
    st.frozensets(st.integers(0, 255), min_size=1, max_size=40).map(cs.mask_from),
)


@settings(max_examples=300, deadline=None)
@given(wide_masks)
def test_members_matches_iter_colors_on_wide_masks(mask):
    assert cs.members(mask) == list(cs.iter_colors(mask))


@settings(max_examples=300, deadline=None)
@given(wide_masks, st.data())
def test_nth_color_matches_members_on_wide_masks(mask, data):
    expected = cs.members(mask)
    n = data.draw(st.integers(0, len(expected) - 1))
    assert cs.nth_color(mask, n) == expected[n]
    assert cs.nth_color(mask, 0) == expected[0]
    assert cs.nth_color(mask, len(expected) - 1) == expected[-1]


@pytest.mark.parametrize("bit", [0, 63, 64, 104, 255])
def test_nth_color_single_bit(bit):
    assert cs.nth_color(1 << bit, 0) == bit


@pytest.mark.parametrize("q", [13, 31, 105])
def test_nth_color_full_palette(q):
    assert [cs.nth_color(cs.full_mask(q), n) for n in range(q)] == list(range(q))


@pytest.mark.parametrize(
    "mask, n",
    [
        (cs.mask_from([9, 2, 5]), 3),
        (cs.mask_from([9, 2, 5]), -1),
        (0, 0),
        (cs.full_mask(105), 105),
        (cs.full_mask(105), -1),
        (1 << 255, 1),
    ],
)
def test_nth_color_out_of_range_raises(mask, n):
    with pytest.raises(IndexError):
        cs.nth_color(mask, n)
