from collections import Counter

import numpy as np
import pytest

from cftp_colorings import bounding as bd
from cftp_colorings import couplings as cp
from cftp_colorings import engine
from cftp_colorings.colorsets import full_mask, mask_from, members
from cftp_colorings.errors import CouplingRegimeError, EngineError
from cftp_colorings.graphs import build_graph, gen_complete, gen_complete_bipartite, gen_cycle
from cftp_colorings.seedstream import SeedStream, raw64, unit_uniform


def star(center_degree):
    # vertex 0 joined to 1..d
    return build_graph(center_degree + 1, [(0, i + 1) for i in range(center_degree)])


def flags(n, vertices=()):
    """The per-vertex preserved flags cleanup reads: byte v is 1 for v in vertices."""
    preserved = bytearray(n)
    for v in vertices:
        preserved[v] = 1
    return preserved


def make_state(g, q, lists=None, seed=0):
    state = bd.BoundingState(g, q, SeedStream(seed), block=1)
    if lists:
        for v, colors in lists.items():
            state.lists[v] = mask_from(colors)
    return state


# ---------------------------------------------------------------------------
# neighborhood color sets
# ---------------------------------------------------------------------------


def test_slack_full_lists():
    g = star(3)
    state = make_state(g, 5)
    assert bd.neighborhood_slack(state, 0) == full_mask(5)


def test_slack_no_neighbors():
    g = build_graph(2, [])
    state = make_state(g, 5)
    assert bd.neighborhood_slack(state, 0) == 0


def test_slack_union():
    g = star(2)
    state = make_state(g, 6, {1: [1, 2], 2: [2, 3]})
    assert members(bd.neighborhood_slack(state, 0)) == [1, 2, 3]


def neighbor_lists(state, g, v):
    return [state.lists[u] for u in g.adjacency[v]]


def test_singleton_colors():
    # the disjoint update's singleton colors, those of 1-color neighbor lists,
    # are never E colors and are left out of the pair slots' share
    g = star(2)
    state = make_state(g, 10, {1: [4], 2: [5, 1]})
    params = cp.disjoint_params_from_lists(10, 2, neighbor_lists(state, g, 0))
    assert params.e_mask == 0 and params.p_pair == 1 / (10 - 1 - 1)
    state = make_state(g, 10, {1: [4], 2: [4]})
    params = cp.disjoint_params_from_lists(10, 2, neighbor_lists(state, g, 0))
    assert params.e_mask == 0 and params.leftover == 1
    state = make_state(g, 10, {1: [2, 3], 2: [5, 1]})
    assert cp.disjoint_params_from_lists(10, 2, neighbor_lists(state, g, 0)).p_pair == 1 / 8


def test_disjoint_pair_scan_two_separate_pairs():
    g = star(2)
    state = make_state(g, 8, {1: [1, 2], 2: [3, 4]})
    union, pinned, pair_mask, pairs = cp.disjoint_pair_scan(neighbor_lists(state, g, 0))
    assert members(union) == [1, 2, 3, 4]
    assert pinned == 0
    assert members(pair_mask) == [1, 2, 3, 4]
    assert pairs == [mask_from([1, 2]), mask_from([3, 4])]


def test_disjoint_pair_scan_overlap_disqualifies():
    g = star(3)
    # overlapping 2-lists, identical 2-lists, and a 2-list meeting a 3-list
    state = make_state(g, 10, {1: [1, 2], 2: [2, 3], 3: [5, 6]})
    assert cp.disjoint_pair_scan(neighbor_lists(state, g, 0))[3] == [mask_from([5, 6])]
    state = make_state(g, 10, {1: [1, 2], 2: [1, 2], 3: [5, 6]})
    assert cp.disjoint_pair_scan(neighbor_lists(state, g, 0))[3] == [mask_from([5, 6])]
    state = make_state(g, 10, {1: [6, 7, 8], 2: [5, 6], 3: [1, 2]})
    assert cp.disjoint_pair_scan(neighbor_lists(state, g, 0))[3] == [mask_from([1, 2])]


def test_disjoint_pair_scan_single_neighbor():
    g = star(1)
    state = make_state(g, 8, {1: [1, 2]})
    assert cp.disjoint_pair_scan(neighbor_lists(state, g, 0))[3] == [mask_from([1, 2])]


# ---------------------------------------------------------------------------
# greedy reference set
# ---------------------------------------------------------------------------


def test_greedy_empty_slack_lowest_colors():
    assert members(bd.greedy_reference_set(9, 3, [])) == [0, 1, 2]


def test_greedy_phase1_trace():
    assert members(bd.greedy_reference_set(9, 3, [mask_from([5, 7])])) == [0, 5, 7]


def test_greedy_phase2_trace():
    # two identical entangled lists {1,2} and one disjoint pair {8,9}
    kept = [mask_from(s) for s in ([1, 2], [1, 2], [8, 9])]
    assert members(bd.greedy_reference_set(10, 3, kept)) == [1, 2, 8]


def test_greedy_phase1_prefers_whole_lists():
    # capacity 2: the 3-color list cannot fit whole, so its first two colors
    # go in one by one; the disjoint pair {8,9} fits whole, but is held back
    # until every non-pair color has had its turn
    kept = [mask_from([3, 4, 5]), mask_from([8, 9])]
    assert members(bd.greedy_reference_set(12, 2, kept)) == [3, 4]


def test_greedy_exact_size_delta():
    kept = [mask_from(s) for s in ([1], [2, 3], [4, 5], [6])]
    assert bd.greedy_reference_set(11, 4, kept).bit_count() == 4


def test_greedy_covers_small_slack_entirely():
    kept = [mask_from([7]), mask_from([2, 3])]
    a = bd.greedy_reference_set(11, 4, kept)
    assert members(mask_from([7, 2, 3]) & a) == [2, 3, 7]
    assert a.bit_count() == 4


def test_greedy_stays_inside_large_slack():
    kept = [mask_from(s) for s in ([1, 2, 3], [4, 5, 6], [7, 8])]
    a = bd.greedy_reference_set(12, 3, kept)
    slack = mask_from(range(1, 9))
    assert a.bit_count() == 3
    assert a & ~slack == 0


def kept_list_sets(n_sets=400, seed=29):
    """Random sets of 0 to 12 kept lists of 1 to 3 colors. Half draw from 8
    colors, so lists often share a lowest color; every third set adds {c}
    and {c, d} beside a list whose lowest color is c, whose member lists
    are prefixes of one another."""
    rng = np.random.default_rng(seed)
    for i in range(n_sets):
        q = 8 if i % 2 else 70
        lists = [
            mask_from(int(c) for c in rng.choice(q, rng.integers(1, 4), replace=False))
            for _ in range(rng.integers(0, 13))
        ]
        c = (lists[0] & -lists[0]).bit_length() - 1 if lists else q
        if i % 3 == 0 and c < q - 1:
            lists += [1 << c, 1 << c | 1 << int(rng.integers(c + 1, q))]
            rng.shuffle(lists)
        yield lists


def test_member_order_matches_sorting_by_members(monkeypatch):
    """_fill merges whole lists in sorted(lists, key=members) order, so the
    reference set does not depend on the order the kept lists come in."""

    def reorders(lists):
        yield lists[::-1]
        for k in range(1, len(lists)):
            yield lists[k:] + lists[:k]

    def order_mismatches():
        return [
            (delta, lists, other)
            for lists in kept_list_sets()
            for delta in (1, 2, 3, 5, 8)
            for other in reorders(lists)
            if bd.greedy_reference_set(70, delta, other) != bd.greedy_reference_set(70, delta, lists)
        ]

    assert order_mismatches() == []
    # member order puts [1, 2] and [1, 5] before [5, 6, 7], whichever comes first
    kept = [mask_from(colors) for colors in ([5, 6, 7], [1, 2], [1, 5])]
    for lists in (kept, kept[::-1]):
        assert members(bd.greedy_reference_set(12, 3, lists)) == [1, 2, 5]
    # negative control: a fill that takes the lists in input order
    monkeypatch.setattr(bd, "members", lambda m: 0)
    assert members(bd.greedy_reference_set(12, 3, kept)) == [5, 6, 7]
    assert order_mismatches()


def union_of(lists):
    union = 0
    for m in lists:
        union |= m
    return union


def greedy_spec(q, delta, kept):
    """greedy_reference_set's rule as its four fills and the palette fill,
    with no short cut: whole non-pair lists in member order, their single
    colors ascending, whole disjoint pairs, their single colors, and then
    the lowest colors not yet in A. A disjoint pair is a 2-list that meets
    no other kept list."""
    pairs = [
        m
        for i, m in enumerate(kept)
        if m.bit_count() == 2 and not any(m & o for j, o in enumerate(kept) if j != i)
    ]
    others = [m for m in kept if m not in pairs]
    a = 0
    for lists in (others, pairs):
        for m in sorted(lists, key=members):
            if (a | m).bit_count() <= delta:
                a |= m
        for c in members(union_of(lists) & ~a):
            if a.bit_count() == delta:
                break
            a |= 1 << c
    for c in range(q):
        if a.bit_count() == delta:
            break
        a |= 1 << c
    return a


def split_lists(colors, rng, sizes=(1, 2, 3)):
    """colors cut into consecutive lists of the given sizes, shuffled; a
    2-list is repeated when 2 is not among the sizes, so it is no pair."""
    lists, i = [], 0
    while i < len(colors):
        k = int(rng.choice(sizes))
        m = mask_from(colors[i : i + k])
        lists += [m, m] if m.bit_count() == 2 and 2 not in sizes else [m]
        i += k
    rng.shuffle(lists)
    return lists


def edge_kept_sets(seed=31):
    """(q, delta, kept) at the short cut's edges, at delta 3, 8 and 32 (q
    = 105 there, so masks pass 64 bits): unions of exactly delta and
    delta + 1 colors, and non-pair colors that fit beside disjoint pairs
    that take the union past delta."""
    rng = np.random.default_rng(seed)
    for delta in (3, 8, 32):
        q = 3 * delta + 9
        for _ in range(10):
            for size in (delta, delta + 1):
                colors = [int(c) for c in rng.permutation(q)[:size]]
                yield q, delta, split_lists(colors, rng)
            colors = [int(c) for c in rng.permutation(q)]
            n_other = int(rng.integers(0, delta + 1))
            n_pairs = (delta - n_other) // 2 + 1 + int(rng.integers(0, 3))
            pair_colors = colors[n_other : n_other + 2 * n_pairs]
            kept = split_lists(colors[:n_other], rng, sizes=(1, 3))
            kept += [mask_from(pair_colors[i : i + 2]) for i in range(0, 2 * n_pairs, 2)]
            rng.shuffle(kept)
            yield q, delta, kept


GREEDY_CASES = [(70, delta, lists) for lists in kept_list_sets() for delta in (1, 2, 3, 5, 8)]
GREEDY_CASES += list(edge_kept_sets())


def greedy_branch(q, delta, kept):
    """The path an input takes through greedy_reference_set: "union" when
    the union fits and the short cut answers. Past it, the outcome of
    _fill's union check at the first stage: "non-pair" when the non-pair
    lists' colors overflow A, and "pairs" when they merge whole and the
    pairs' stage goes on from their union."""
    union = union_of(kept)
    if union.bit_count() <= delta:
        return "union"
    if (union & ~cp.disjoint_pair_scan(kept)[2]).bit_count() > delta:
        return "non-pair"
    return "pairs"


def greedy_mismatches(reference_set):
    return [
        (q, delta, kept)
        for q, delta, kept in GREEDY_CASES
        if reference_set(q, delta, kept) != greedy_spec(q, delta, kept)
    ]


def test_greedy_union_shortcut_matches_the_fill_order(monkeypatch):
    branches = Counter(greedy_branch(*case) for case in GREEDY_CASES)
    assert branches == {"union": 631, "non-pair": 1312, "pairs": 147}
    edge_sizes = Counter(
        union_of(kept).bit_count() - delta for _, delta, kept in edge_kept_sets()
    )
    assert edge_sizes[0] == 30 and edge_sizes[1] == 33
    # the short cut runs no pair scan, the rule exactly one
    scans = []
    real_scan = cp.disjoint_pair_scan

    def counted_scan(kept):
        scans.append(kept)
        return real_scan(kept)

    monkeypatch.setattr(cp, "disjoint_pair_scan", counted_scan)
    for case in GREEDY_CASES:
        scans.clear()
        bd.greedy_reference_set(*case)
        assert len(scans) == (greedy_branch(*case) != "union"), case
    monkeypatch.undo()
    assert greedy_mismatches(bd.greedy_reference_set) == []


def test_greedy_check_catches_a_shortcut_one_color_wide():
    """Negative control: the short cut taken at a union of delta + 1 colors."""

    def one_wide(q, delta, kept):
        a = union_of(kept)
        if a.bit_count() <= delta + 1:
            for c in range(q):
                if a.bit_count() >= delta:
                    break
                a |= 1 << c
            return a
        return bd.greedy_reference_set(q, delta, kept)

    caught = greedy_mismatches(one_wide)
    assert caught and all(union_of(k).bit_count() == d + 1 for _, d, k in caught)


# ---------------------------------------------------------------------------
# keys and their words
# ---------------------------------------------------------------------------

M64 = 2**64 - 1
# (master, block) -> (key, word 0, word 2) at update 0; the keys and words 0
# are test_seedstream's KNOWN_ANSWERS at the same addresses
FIRST_KEY_WORDS = {
    (0, 0): (0xA706DD2F4D197E6F, 0x238275BC38FCBE91, 0x47200E1D9780FA44),
    (M64, 1): (0xB1EFC05B7519170F, 0x2B3BBC37E23493C8, 0x93830616B26D12EC),
}


@pytest.mark.parametrize("n, lanes", [(20, 0), (400, 25)])
@pytest.mark.parametrize("master, block", sorted(FIRST_KEY_WORDS))
def test_next_key_words_gives_the_key_and_its_words_0_and_2(n, lanes, master, block):
    # n = 20 takes one key at a time; n = 400 takes batches of 25 keys, and
    # 60 indices cross two batch boundaries (idx 25 and idx 50 are taken
    # here), with next_key, next_word and next_words02 taking some indices
    # in between
    state = bd.BoundingState(gen_cycle(n), 5, SeedStream(master), block)
    assert state._lanes == lanes
    assert state.next_key_words() == FIRST_KEY_WORDS[master, block]
    assert state.updates == 1
    fresh = SeedStream(master)
    for idx in range(1, 60):
        key = fresh.subkey(block, idx)
        if idx % 7 == 3:
            assert state.next_key() == key
        elif idx % 7 == 5:
            assert state.next_word(2) == raw64(key, 2)
        elif idx % 7 == 6:
            assert state.next_words02() == (raw64(key, 0), raw64(key, 2))
        else:
            assert state.next_key_words() == (key, raw64(key, 0), raw64(key, 2))
        assert state.updates == idx + 1


# ---------------------------------------------------------------------------
# updates and cleanup
# ---------------------------------------------------------------------------


def test_apply_compress_postcondition():
    g = star(3)
    q = 9
    state = make_state(g, q, seed=5)
    a = mask_from([0, 1, 2])
    # a kept list of max-degree colors is the reference set itself
    bd.apply_compress(state, [a], [1])
    assert state.lists[1].bit_count() == 4
    assert a & state.lists[1] == a
    assert state.updates == 1
    assert [state.lists[v] for v in (0, 2, 3)] == [full_mask(q)] * 3


def test_apply_seeding_postcondition():
    # slack {1,2,3,4} at delta 3, q 12: the law is sizes 1 or 2, P(1) = 5/9
    g = star(3)
    lists = {1: [1, 2], 2: [2, 3], 3: [4]}
    law = cp.seeding_size_law(4, 3, 12)
    assert (law.lo, law.hi, law.p_lo) == (1, 2, pytest.approx(5 / 9))
    sizes = set()
    for seed in range(20):
        state = make_state(g, 12, lists, seed=seed)
        bd.apply_seeding(state, 0)
        sizes.add(state.lists[0].bit_count())
    assert sizes == {law.lo, law.hi}


def test_apply_disjoint_postcondition():
    g = star(4)
    state = make_state(g, 10, {1: [1, 2], 2: [3, 4], 3: [5], 4: [6]}, seed=7)
    bd.apply_disjoint(state, 0)
    assert state.lists[0].bit_count() in (1, 2)


# (leaf colors of a star, q, an isolated vertex beside it); every leaf list
# is the singleton of its color
SINGLETON_STARS = [
    ((1, 2, 3, 4), 5, False),  # q = delta + 1: one color outside the slack
    ((7, 7, 7, 7), 10, False),
    ((60, 63, 64, 66, 66, 0), 70, False),
    (tuple(range(0, 96, 3)), 105, False),
    ((3, 3, 9, 40, 40, 40, 104) * 4 + (5, 6, 7, 8), 105, False),
    ((64, 100, 129), 130, True),
    ((0, 1), 6, True),
]

# (leaf lists of a star, q, an isolated vertex beside it); lists of 1 to 3
# colors, not all singletons
MIXED_STARS = [
    (((1, 2), (3, 4), (5,), (6,)), 10, False),  # two pairs: pair and D slots
    (((1, 2), (2, 3), (4, 5), (6,)), 10, True),  # entangled 2-lists: E colors
    (((0, 1, 2), (0, 1, 3), (6, 7), (8,)), 11, False),  # 3-lists beside a pair
    (((1,), (2,), (1, 2), (2, 3), (3,)), 9, False),  # mixed one-slot
    (((0, 1), (1, 2), (3, 4), (4, 5)), 8, False),  # slot mass 3/2: infeasible
    # 32 leaves, so the state takes its keys in batches: 8 pinned colors,
    # 8 pairs, 8 overlapping 3-lists and 8 2-lists that meet a pinned color
    (
        tuple((c,) for c in range(8))
        + tuple((40 + 2 * i, 41 + 2 * i) for i in range(8))
        + tuple((60 + i, 61 + i, 62 + i) for i in range(8))
        + tuple((i, 80 + i) for i in range(8)),
        105,
        True,
    ),
    # 32 leaves whose 2-lists hold pinned colors only: a batched one-slot layout
    (tuple((c,) for c in range(16)) + tuple((c, (c + 1) % 16) for c in range(16)), 105, False),
]


def star_case(leaves, q, isolated, seed):
    """The star's state, a carried coloring that gives each leaf one color
    of its list, and the vertices to update: the center, and the vertex of
    degree 0 when there is one."""
    d = len(leaves)
    g = build_graph(d + 1 + isolated, [(0, i + 1) for i in range(d)])
    rng = np.random.default_rng(seed)
    # an updated vertex's own carried color is never read
    coloring = [0, *(int(rng.choice(colors)) for colors in leaves)] + [0] * isolated
    state = make_state(g, q, {i + 1: colors for i, colors in enumerate(leaves)}, seed=seed)
    return g, state, coloring, [0] + [d + 1] * isolated


def singleton_star(leaf_colors, q, isolated, seed):
    return star_case(tuple((c,) for c in leaf_colors), q, isolated, seed)


def full_layout_walk(g, q, lists, v, key, coloring):
    """v's new list, decoded color and slot kind with the slot layout built
    and draws 0, 1 and 2 all taken."""
    params = cp.disjoint_params_from_lists(q, g.max_degree, [lists[u] for u in g.adjacency[v]])
    reserve = cp.outside_color(params.s_mask, q, raw64(key, 2))
    predicted, slot = cp.disjoint_slot(params, unit_uniform(key, 0), reserve)
    draw_1 = unit_uniform(key, 1)
    draw = cp.DisjointDraw(*slot, lambda: draw_1, reserve)
    blocked = mask_from(coloring[u] for u in g.adjacency[v])
    if not params.total:
        kind = "one-slot"
    elif draw.pair:
        kind = "pair"
    elif draw.color >= 0:
        kind = "D" if draw.in_d else "E"
    else:
        kind = "leftover"
    return predicted, cp.disjoint_decode(params, draw, blocked), kind


def star_mismatches(apply_disjoint, cases, n_seeds=25):
    """(leaves, q, v, seed) wherever apply_disjoint, on a built state and on
    one carrying a coloring, differs from the full layout walk at the same
    key: in the new list, the carried color or the update count, which is
    the key index. An infeasible layout must raise CouplingRegimeError from both
    states before any key is taken, leaving every list as it was. Returns
    the mismatches and a count of the key paths and slot kinds met."""
    out, kinds = [], Counter()
    for leaves, q, isolated in cases:
        for seed in range(n_seeds):
            g, state, coloring, updated = star_case(leaves, q, isolated, seed)
            for v in updated:
                key = make_state(g, q, seed=seed).next_key()
                plain = make_state(g, q, seed=seed)
                plain.lists = list(state.lists)
                carried = bd.BoundingState(g, q, SeedStream(seed), block=1, coloring=coloring)
                carried.lists = list(state.lists)
                kinds["batched" if plain._lanes else "per-key"] += 1
                try:
                    expected = full_layout_walk(g, q, state.lists, v, key, coloring)
                except CouplingRegimeError:
                    kinds["infeasible"] += 1
                    for s in (plain, carried):
                        try:
                            apply_disjoint(s, v)
                        except CouplingRegimeError:
                            if s.lists == state.lists and s.updates == 0:
                                continue
                        out.append((leaves, q, v, seed))
                    continue
                kinds[expected[2]] += 1
                apply_disjoint(plain, v)
                apply_disjoint(carried, v)
                got = (plain.lists[v], carried.coloring[v])
                counts = (plain.updates, carried.updates)
                if carried.lists[v] != plain.lists[v] or got != expected[:2] or counts != (1, 1):
                    out.append((leaves, q, v, seed))
    return out, kinds


def singleton_star_mismatches(apply_disjoint):
    cases = [(tuple((c,) for c in colors), q, iso) for colors, q, iso in SINGLETON_STARS]
    return star_mismatches(apply_disjoint, cases)[0]


def test_apply_disjoint_all_singletons_matches_full_layout_walk():
    assert singleton_star_mismatches(bd.apply_disjoint) == []


def test_singleton_star_check_catches_reserve_from_draw_0(monkeypatch):
    """Negative control: the reserve drawn at draw 0 in place of draw 2."""
    real = bd.BoundingState.next_word

    def reserve_from_draw_0(state, v):
        with monkeypatch.context() as m:
            m.setattr(bd.BoundingState, "next_word", lambda self, draw: real(self, 0))
            bd.apply_disjoint(state, v)

    assert singleton_star_mismatches(reserve_from_draw_0)


def test_apply_disjoint_mixed_stars_match_full_layout_walk():
    # a built update computes only the new list, a carried one decodes too;
    # both must match the walk with every draw taken, on both key paths
    mismatches, kinds = star_mismatches(bd.apply_disjoint, MIXED_STARS)
    assert mismatches == []
    for kind in ("batched", "per-key", "pair", "D", "E", "leftover", "one-slot", "infeasible"):
        assert kinds[kind] > 0, kind


def test_mixed_star_check_catches_slot_variate_from_word_2(monkeypatch):
    """Negative control: the slot variate read from word 2 in place of word 0,
    by a built update (next_words02) or by a carried one (next_key_words)."""
    real_built, real_carried = bd.BoundingState.next_words02, bd.BoundingState.next_key_words

    def built_slot_from_word_2(self):
        _, w2 = real_built(self)
        return w2, w2

    def carried_slot_from_word_2(self):
        key, _, w2 = real_carried(self)
        return key, w2, w2

    for name, fn in [
        ("next_words02", built_slot_from_word_2), ("next_key_words", carried_slot_from_word_2)
    ]:
        with monkeypatch.context() as m:
            m.setattr(bd.BoundingState, name, fn)
            assert star_mismatches(bd.apply_disjoint, MIXED_STARS)[0], name


@pytest.mark.parametrize("leaf_colors", [(0, 1, 2, 3), (0, 1, 1, 2)])
def test_apply_disjoint_all_singletons_raises_at_q_delta(leaf_colors):
    # q = delta leaves no disjoint regime, however many colors the slack
    # holds; the schedule then falls back to compress
    g, state, _, _ = singleton_star(leaf_colors, 4, False, seed=0)
    with pytest.raises(CouplingRegimeError, match="q > delta"):
        bd.apply_disjoint(state, 0)
    assert state.lists[0] == full_mask(4)
    assert state.updates == 0


def test_cleanup_noop_when_neighbors_preserved():
    g = star(3)
    state = make_state(g, 9, seed=8)
    bd.cleanup(state, 0, flags(g.n, {1, 2, 3}))
    assert state.updates == 0
    assert state.lists == [full_mask(9)] * g.n


def test_cleanup_single_target_trace():
    g = gen_complete(4)
    state = make_state(g, 9, seed=9)
    bd.cleanup(state, 0, flags(g.n, {1, 2}))
    assert state.updates == 1
    assert [v for v in range(g.n) if state.lists[v] != full_mask(9)] == [3]
    assert state.lists[3].bit_count() == 4


def test_cleanup_reference_set_shared():
    g = star(3)
    state = make_state(g, 9, seed=10)
    a = bd.greedy_reference_set(9, 3, [])
    bd.cleanup(state, 0, flags(g.n))
    assert state.updates == 3
    for w in (1, 2, 3):
        # one shared reference set plus one extra color each
        assert a & state.lists[w] == a
        assert (state.lists[w] & ~a).bit_count() == 1


@pytest.mark.parametrize("q,delta", [(13, 3), (31, 8), (105, 32), (130, 40)])
def test_cleanup_complement_gives_outside_color(q, delta):
    # every update of one cleanup indexes the complement built once for it,
    # and gets the extra color outside_color draws from A at its own key
    g = star(delta)
    state = make_state(g, q, seed=q)
    a = bd.greedy_reference_set(q, delta, [])
    bd.cleanup(state, 0, flags(g.n))
    for i, w in enumerate(g.adjacency[0]):
        key = state.stream.subkey(state.block, i)
        assert state.lists[w] == a | 1 << cp.outside_color(a, q, raw64(key, 0))


# (lanes, n, max degree, preserved leaves, keys taken before the cleanup):
# a star of that many leaves, padded with isolated vertices to n
CLEANUP_CASES = [
    (0, 13, 12, 4, 5),  # one key at a time
    (25, 400, 31, 11, 0),  # the 20 targets take keys 0-19, inside one batch
    (25, 400, 31, 11, 20),  # keys 20-39 straddle the batch boundary at 25
    (25, 400, 31, 0, 24),  # keys 24-54 straddle two boundaries, at 25 and 50
    (2, 41, 40, 7, 1),  # a boundary after every other target
]


def cleanup_mismatches(lanes, n, delta, n_preserved, start):
    """Run cleanup at a star's center, after start keys were taken, and
    check it against a test-side spec: the i-th key's target gets A plus
    cp.outside_color(A, q, word 0 of key i), and the cleanup takes one key
    per target. Returns the fields of the state that differ from the spec."""
    g = build_graph(n, [(0, i + 1) for i in range(delta)])
    q = 3 * delta + 2
    rng = np.random.default_rng(n + start)
    preserved = {int(u) + 1 for u in rng.choice(delta, n_preserved, replace=False)}
    kept = {
        u: mask_from(int(c) for c in rng.choice(q, 1 + u % 3, replace=False)) for u in preserved
    }
    state = bd.BoundingState(g, q, SeedStream(start), block=3)
    assert state._lanes == lanes
    for u, m in kept.items():
        state.lists[u] = m
    for _ in range(start):
        state.next_word(0)
    bd.cleanup(state, 0, flags(n, preserved))
    a = bd.greedy_reference_set(q, delta, [kept[u] for u in g.adjacency[0] if u in preserved])
    lists = [full_mask(q)] * n
    for u, m in kept.items():
        lists[u] = m
    fresh = SeedStream(start)
    targets = [w for w in g.adjacency[0] if w not in preserved]
    for i, w in enumerate(targets, start):
        lists[w] = a | 1 << cp.outside_color(a, q, raw64(fresh.subkey(3, i), 0))
    # the keys taken before the cleanup count as updates too
    spec = {"lists": lists, "updates": start + len(targets)}
    return [field for field, want in spec.items() if getattr(state, field) != want]


@pytest.mark.parametrize(
    "case", CLEANUP_CASES, ids=["one-key", "one-batch", "straddle", "two-boundaries", "two-lanes"]
)
def test_built_cleanup_matches_its_targets_run_one_by_one(case):
    assert cleanup_mismatches(*case) == []


def test_cleanup_check_catches_words_read_one_key_late(monkeypatch):
    """Negative control: the cleanup's run of words 0 starts one key late."""
    real = bd.BoundingState.next_words0

    def one_late(self, k):
        words = real(self, k + 1)[1:]
        self.updates -= 1
        return words

    monkeypatch.setattr(bd.BoundingState, "next_words0", one_late)
    for case in CLEANUP_CASES:
        assert cleanup_mismatches(*case) == ["lists"]


# ---------------------------------------------------------------------------
# containment through the re-run, and replay determinism
# ---------------------------------------------------------------------------


def random_proper_start(g, q, rng):
    """Color the vertices in order, each with a random color its colored
    neighbors do not use."""
    coloring = []
    for v in range(g.n):
        used = {coloring[w] for w in g.adjacency[v] if w < v}
        free = [c for c in range(q) if c not in used]
        coloring.append(free[rng.integers(len(free))])
    return tuple(coloring)


def co_simulate(g, q, master_seed, n_trajectories=100, rng_seed=0):
    """Replay one block from many random proper colorings.

    The re-run checks every decoded color against the list just predicted
    for its vertex and raises EngineError if a trajectory escapes, so
    containment holds whenever this returns. A coalesced block must map
    every start to its coalescence value.
    """
    cfg = engine.SamplerConfig(q=q, master_seed=master_seed, force=True, t2_override=30)
    stream = SeedStream(master_seed)
    schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
    block = engine.construct_block(schedule, 1, stream)
    rng = np.random.default_rng(rng_seed)
    starts = [random_proper_start(g, q, rng) for _ in range(n_trajectories)]
    outs = [engine.replay(schedule, 1, stream, s) for s in starts]
    assert all(engine.is_proper(g, out) for out in outs)
    if block.phi is not None:
        assert set(outs) == {block.phi}
    return block, outs


def test_containment_co_simulation_k4():
    block, _ = co_simulate(gen_complete(4), 13, master_seed=21)
    assert block.phi is not None


def test_containment_co_simulation_bipartite():
    co_simulate(gen_complete_bipartite(3), 16, master_seed=22)


# (graph, q, master seed, t2, proper start, whether block 1 falls back)
K3232_START = tuple(v % 3 if v < 32 else 3 + v % 5 for v in range(64))
REPLAY_CASES = [
    # keys one at a time
    (gen_complete(4), 13, 33, None, (0, 1, 2, 3), False),
    # keys in batches of 4, and Phase I runs
    (gen_complete_bipartite(32), 105, 10, 128, K3232_START, False),
    # seeding and disjoint updates fall back to compress
    (gen_complete_bipartite(32), 66, 0, 50, K3232_START, True),
    (gen_complete_bipartite(32), 66, 3, 50, K3232_START, True),
]


def test_replay_reconstructs_final_lists():
    for g, q, seed, t2, start, falls_back in REPLAY_CASES:
        cfg = engine.SamplerConfig(q=q, master_seed=seed, force=True, t2_override=t2)
        stream = SeedStream(seed)
        schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
        block = engine.construct_block(schedule, 1, stream)
        plain = bd.BoundingState(g, q, stream, 1)
        engine.run_schedule(plain, schedule)
        assert plain.updates == block.updates
        assert plain.seeding_fallbacks == block.seeding_fallbacks
        assert plain.disjoint_fallbacks == block.disjoint_fallbacks
        assert (plain.seeding_fallbacks > 0 and plain.disjoint_fallbacks > 0) == falls_back
        # carrying a coloring leaves the bounding chain exactly as built,
        # through every compress batch and fallback
        carried = bd.BoundingState(g, q, stream, 1, coloring=start)
        engine.run_schedule(carried, schedule)
        assert carried.lists == plain.lists
        assert carried.updates == plain.updates
        assert carried.seeding_fallbacks == plain.seeding_fallbacks
        assert carried.disjoint_fallbacks == plain.disjoint_fallbacks
        assert all((m >> c) & 1 for m, c in zip(carried.lists, carried.coloring))
        if block.phi is not None:
            assert plain.phi == block.phi == tuple(carried.coloring)


class RecordingState(bd.BoundingState):
    """Bounding state that records the list size at every carried update."""

    __slots__ = ("sizes",)

    def carry(self, v, color):
        super().carry(v, color)
        self.sizes.append(self.lists[v].bit_count())


def test_lists_never_empty_through_block():
    g = gen_complete_bipartite(3)
    q = 16
    cfg = engine.SamplerConfig(q=q, master_seed=44)
    stream = SeedStream(44)
    schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
    rng = np.random.default_rng(3)
    for _ in range(5):
        # distinct colors on all six vertices: a proper start
        start = [int(c) for c in rng.permutation(q)[: g.n]]
        state = RecordingState(g, q, stream, 1, coloring=start)
        state.sizes = []
        engine.run_schedule(state, schedule)
        # every update's list held the color decoded into it
        assert len(state.sizes) == state.updates > 0
        assert min(state.sizes) >= 1


def test_replay_rejects_color_escaping_its_list(monkeypatch):
    # negative control for the inline containment check: a disjoint decode
    # that returns a color outside the predicted set must stop the re-run
    def escaping_decode(params, draw, blocked):
        inside = {draw.reserve, draw.color, *members(draw.pair)}
        return min(c for c in range(params.q) if c not in inside)

    g = gen_complete(4)
    cfg = engine.SamplerConfig(q=13, master_seed=45)
    stream = SeedStream(45)
    schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
    assert engine.replay(schedule, 1, stream, (0, 1, 2, 3))
    monkeypatch.setattr(cp, "disjoint_decode", escaping_decode)
    with pytest.raises(EngineError, match="escaped its bounding list"):
        engine.replay(schedule, 1, stream, (0, 1, 2, 3))
