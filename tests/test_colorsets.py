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
    assert [cs.nth_outside(cs.full_mask(10) & ~mask, i) for i in range(3)] == [2, 5, 9]
    assert [cs.nth_outside(mask, i) for i in range(8)] == [0, 1, 3, 4, 6, 7, 8, 10]


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


def select_mismatches(select, q, masks):
    """(mask, n) pairs, mask inside [q] and n below q - |mask|, at which
    select(mask, n) is not the n-th color of [q] \\ mask."""
    out = []
    for mask in masks:
        expected = cs.members(cs.full_mask(q) & ~mask)
        out += [(mask, n) for n, c in enumerate(expected) if select(mask, n) != c]
    return out


def test_nth_color_matches_members_for_every_small_mask():
    # every mask of every palette up to q = 10, and every n
    for q in range(11):
        assert select_mismatches(cs.nth_outside, q, range(1 << q)) == []


wide_masks = st.one_of(
    st.integers(min_value=1, max_value=(1 << 256) - 1),
    st.frozensets(st.integers(0, 255), min_size=1, max_size=40).map(cs.mask_from),
)


@settings(max_examples=300, deadline=None)
@given(wide_masks)
def test_members_matches_iter_colors_on_wide_masks(mask):
    assert cs.members(mask) == list(cs.iter_colors(mask))


# a mask inside a palette of up to 130 colors, so up to three 64-bit words
palette_masks = st.integers(1, 130).flatmap(
    lambda q: st.tuples(
        st.just(q),
        st.one_of(
            st.integers(0, cs.full_mask(q)),
            st.frozensets(st.integers(0, q - 1), max_size=q).map(cs.mask_from),
        ),
    )
)


@settings(max_examples=300, deadline=None)
@given(palette_masks)
def test_nth_color_matches_members_on_wide_masks(q_mask):
    q, mask = q_mask
    assert select_mismatches(cs.nth_outside, q, [mask]) == []


def stops_one_step_early(mask, n):
    """nth_outside's fixpoint iteration, returning the step before the last."""
    prev = c = n
    while (nxt := n + (mask & ((2 << c) - 1)).bit_count()) != c:
        prev, c = c, nxt
    return prev


def test_select_check_catches_a_fixpoint_stopped_one_step_early():
    """Negative control for the two checks above."""
    assert select_mismatches(stops_one_step_early, 10, range(1 << 10))
    rng = random.Random(130)
    masks = [rng.getrandbits(130) for _ in range(20)]
    assert select_mismatches(stops_one_step_early, 130, masks)


@pytest.mark.parametrize("bit", [0, 63, 64, 104, 255])
def test_nth_color_single_bit(bit):
    # the one color outside a palette less one color, and the colors around
    # a one-color mask
    assert cs.nth_outside(cs.full_mask(256) & ~(1 << bit), 0) == bit
    assert [cs.nth_outside(1 << bit, n) for n in range(bit + 2)] == [
        c for c in range(bit + 3) if c != bit
    ]


@pytest.mark.parametrize("q", [13, 31, 105])
def test_nth_color_full_palette(q):
    # no color is taken, so the n-th color not in the mask is n
    assert [cs.nth_outside(0, n) for n in range(q)] == list(range(q))
