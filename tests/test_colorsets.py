from hypothesis import given
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
