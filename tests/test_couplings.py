import random
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftp_colorings import bounding as bd
from cftp_colorings import couplings as cp
from cftp_colorings import oracle
from cftp_colorings import seedstream as ss
from cftp_colorings import verification as vf
from cftp_colorings.colorsets import mask_from, members
from cftp_colorings.errors import CouplingRegimeError, EngineError
from cftp_colorings.graphs import build_graph
from cftp_colorings.seedstream import SeedStream, raw64, shuffled, unit_uniform

STREAM = SeedStream(99)


# ---------------------------------------------------------------------------
# compress
# ---------------------------------------------------------------------------


def unread():
    raise AssertionError("the decode read draw 1")


def test_compress_hand_trace_blocked_extra():
    # x' is blocked, so the decode walks the permutation: 2 blocked, 3 free,
    # and never reads u'
    draw = cp.CompressDraw(pi=(2, 3, 1), x_prime=5, u_prime=unread)
    out = cp.compress_decode(mask_from([1, 2, 3]), 6, draw, mask_from([2, 5]))
    assert out == 3


def test_compress_hand_trace_accepts_extra():
    # empty blocked set accepts x' exactly when u' < (q - delta) / q
    a = mask_from([1, 2, 3])
    lo = cp.CompressDraw(pi=(1, 2, 3), x_prime=4, u_prime=lambda: 0.49)
    hi = cp.CompressDraw(pi=(1, 2, 3), x_prime=4, u_prime=lambda: 0.51)
    assert cp.compress_decode(a, 6, lo, 0) == 4
    assert cp.compress_decode(a, 6, hi, 0) == 1


def test_compress_rejects_extra_at_the_threshold():
    # u' = alpha = 0.5 rejects: on the k / 2**53 grid of unit_uniform, u' < alpha
    # accepts with chance exactly alpha, as the other decodes compare
    draw = cp.CompressDraw(pi=(1, 2, 3), x_prime=5, u_prime=lambda: 0.5)
    assert cp.compress_accept(6, 3, 0) == 0.5
    assert cp.compress_decode(mask_from([1, 2, 3]), 6, draw, 0) == 1


def test_compress_predicted_size_is_delta_plus_one():
    a = mask_from([0, 2, 4])
    outside = cp.compress_outside(a, 9)
    words = [raw64(STREAM.subkey(1, j), 0) for j in range(200)]
    predicted = cp.compress_predict(a, outside, words)
    assert len(predicted) == len(words)
    for w, m in zip(words, predicted):
        assert m.bit_count() == 4
        assert not a >> cp.compress_extra_color(outside, w) & 1


def test_compress_q_delta_plus_one_forces_full_palette():
    a = mask_from([0, 1, 2])
    outside = cp.compress_outside(a, 4)
    words = [raw64(STREAM.subkey(2, j), 0) for j in range(50)]
    assert cp.compress_predict(a, outside, words) == [mask_from([0, 1, 2, 3])] * 50


def test_compress_extra_color_uniform():
    a = mask_from([1, 2, 3])
    q, n = 8, 100_000
    outside = cp.compress_outside(a, q)
    counts = Counter(
        cp.compress_extra_color(outside, raw64(STREAM.subkey(3, j), 0)) for j in range(n)
    )
    free = [c for c in range(q) if not a >> c & 1]
    assert oracle.gof_from_counts([counts[c] for c in free]).pvalue > 0.001


@pytest.mark.parametrize("q", [105, 200])
def test_outside_color_uniform_on_wide_palettes(q):
    # 32 blocked colors spread over every 64-bit word of the palette, so the
    # select's fixpoint climbs past blocked colors in several steps
    mask = mask_from(range(1, q, q // 32)[:32])
    free = [c for c in range(q) if not mask >> c & 1]
    n = 200 * len(free)
    counts = Counter(
        cp.outside_color(mask, q, raw64(STREAM.subkey(11, j), 2)) for j in range(n)
    )
    assert set(counts) <= set(free)
    assert oracle.gof_from_counts([counts[c] for c in free]).pvalue > 1e-3


def test_compress_draw_matches_predict():
    a = mask_from([4, 5, 6])
    outside = cp.compress_outside(a, 11)
    for j in range(100):
        key = STREAM.subkey(4, j)
        predicted = cp.compress_predict(a, outside, [raw64(key, 0)])
        draw = cp.compress_draw(a, outside, key, raw64(key, 0), raw64(key, 2))
        assert draw.x_prime == cp.compress_extra_color(outside, raw64(key, 0))
        assert predicted == [a | 1 << draw.x_prime]
        assert sorted(draw.pi) == [4, 5, 6]
        # u' is draw 1, hashed when the decode calls for it
        assert draw.u_prime() == unit_uniform(key, 1)


@pytest.mark.parametrize("a_colors", [[], [7], [4, 5, 6], list(range(0, 64, 2))])
def test_compress_draw_shuffle_is_shuffled_from_draw_2(a_colors):
    # step 0 of the shuffle reads the given word 2 and the later steps hash
    # words 3.. from the key: the permutation shuffled(key, 2, A) gives
    a = mask_from(a_colors)
    outside = cp.compress_outside(a, 70)
    for j in range(200):
        key = STREAM.subkey(21, j)
        draw = cp.compress_draw(a, outside, key, raw64(key, 0), raw64(key, 2))
        assert tuple(draw.pi) == tuple(shuffled(key, 2, a_colors))


def recorded_shuffle_words(monkeypatch):
    """The draw indices of the shuffle words (draws 3 on) that couplings or
    seedstream hash from now on; a SeedStream's keys are words too, so a
    caller clears the record after taking a key."""
    drawn = []

    def recorded(key, draw):
        if draw >= 3:
            drawn.append(draw)
        return raw64(key, draw)

    monkeypatch.setattr(cp, "raw64", recorded)
    monkeypatch.setattr(ss, "raw64", recorded)
    return drawn


# A = 32 even colors, at the regular-d32 workload's degree
LAZY_A = list(range(0, 64, 2))
LAZY_Q = 105


def test_compress_decode_hashes_no_shuffle_word_when_it_accepts_x_prime(monkeypatch):
    a = mask_from(LAZY_A)
    outside = cp.compress_outside(a, LAZY_Q)
    drawn = recorded_shuffle_words(monkeypatch)
    accepted = 0
    for j in range(200):
        key = STREAM.subkey(22, j)
        drawn.clear()
        draw = cp.compress_draw(a, outside, key, raw64(key, 0), raw64(key, 2))
        # x' free, and A's first two colors blocked
        out = cp.compress_decode(a, LAZY_Q, draw, mask_from(LAZY_A[:2]))
        if out == draw.x_prime:
            accepted += 1
            assert drawn == []
    assert accepted > 100


@pytest.mark.parametrize("i", [0, 1, 2, 15, 30, 31])
def test_compress_decode_hashes_the_shuffle_only_up_to_the_color_it_reads(monkeypatch, i):
    # x' and the shuffle's first i colors blocked: the decode reads color i,
    # and the walk hashes the words of steps 1..min(i, delta - 2) alone
    a = mask_from(LAZY_A)
    delta = len(LAZY_A)
    outside = cp.compress_outside(a, LAZY_Q)
    drawn = recorded_shuffle_words(monkeypatch)
    for j in range(20):
        key = STREAM.subkey(23, j)
        full = shuffled(key, 2, LAZY_A)
        x_prime = cp.compress_extra_color(outside, raw64(key, 0))
        drawn.clear()
        draw = cp.compress_draw(a, outside, key, raw64(key, 0), raw64(key, 2))
        assert drawn == []
        out = cp.compress_decode(a, LAZY_Q, draw, mask_from(full[:i]) | 1 << x_prime)
        assert out == full[i]
        assert drawn == [2 + step for step in range(1, min(i, delta - 2) + 1)]
        walk = cp.compress_draw(a, outside, key, raw64(key, 0), raw64(key, 2)).pi
        assert list(islice(walk, i + 1)) == full[: i + 1]


def test_compress_walk_read_whole_hashes_every_shuffle_step(monkeypatch):
    # negative control: the count sees the walk's words when it takes them
    a = mask_from(LAZY_A)
    outside = cp.compress_outside(a, LAZY_Q)
    drawn = recorded_shuffle_words(monkeypatch)
    key = STREAM.subkey(24, 0)
    drawn.clear()
    draw = cp.compress_draw(a, outside, key, raw64(key, 0), raw64(key, 2))
    assert drawn == []
    walked = tuple(draw.pi)
    # steps 0..delta-2, step 0 on the given word 2
    assert drawn == list(range(3, 3 + len(LAZY_A) - 2))
    assert walked == tuple(shuffled(key, 2, LAZY_A))


# (q, |A|) at the benchmark workloads' palettes, and one wider than two words
PALETTES = [(13, 3), (31, 8), (105, 32), (130, 40)]


@pytest.mark.parametrize("q,a_size", PALETTES)
def test_compress_outside_list_gives_outside_color(q, a_size):
    # one cleanup builds [q] \ A once; indexing it must give the color that
    # outside_color draws from the mask at the same key and draw index
    rng = random.Random(q)
    a = mask_from(rng.sample(range(q), a_size))
    outside = cp.compress_outside(a, q)
    assert outside == [c for c in range(q) if not a >> c & 1]
    for j in range(2000):
        key = STREAM.subkey(20, j)
        color = cp.outside_color(a, q, raw64(key, 0))
        assert cp.compress_extra_color(outside, raw64(key, 0)) == color
        assert cp.compress_predict(a, outside, [raw64(key, 0)]) == [a | 1 << color]


def index_words(m, i):
    """The least and the greatest 64-bit word w with randint_below(w, m) == i."""
    return -(-(i << 64) // m), -(-((i + 1) << 64) // m) - 1


@pytest.mark.parametrize("q,a_size", PALETTES)
def test_compress_extra_color_is_outside_color_at_every_index(q, a_size):
    # at both ends of each index's range of words, so every color of
    # [q] \ A, and both rules step to the next color at the same word
    rng = random.Random(-q)
    for a in (mask_from(range(a_size)), mask_from(rng.sample(range(q), a_size))):
        outside = cp.compress_outside(a, q)
        m = len(outside)
        for i, color in enumerate(outside):
            for word in index_words(m, i):
                assert ss.randint_below(word, m) == i
                assert cp.outside_color(a, q, word) == color
                assert cp.compress_extra_color(outside, word) == color


@pytest.mark.parametrize("q", [13, 70, 105])
def test_compress_predict_is_compress_extra_color_word_by_word(q):
    # a built compress batch takes its k new lists from one call: each must
    # be A plus the color compress_extra_color gives at its word, at the
    # ends of the word range, at both ends of every index's words, and at
    # random words
    rng = random.Random(q)
    words = [0, 2**64 - 1] + [rng.getrandbits(64) for _ in range(500)]
    for a_size in (3, q // 2, q - 1):
        a = mask_from(rng.sample(range(q), a_size))
        outside = cp.compress_outside(a, q)
        edges = [w for i in range(len(outside)) for w in index_words(len(outside), i)]
        for ws in (words, edges):
            expected = [a | 1 << cp.compress_extra_color(outside, w) for w in ws]
            assert cp.compress_predict(a, outside, ws) == expected
    assert cp.compress_predict(a, outside, []) == []


@pytest.mark.parametrize("q", [1, 13, 31, 64, 65, 105, 130])
def test_outside_color_raises_on_a_mask_covering_the_palette(q):
    for word in (0, raw64(STREAM.subkey(21, q), 0), 2**64 - 1):
        with pytest.raises(ValueError):
            cp.outside_color((1 << q) - 1, q, word)


def test_compress_outside_needs_a_free_color():
    with pytest.raises(CouplingRegimeError):
        cp.compress_outside(mask_from([0, 1, 2]), 3)


def test_compress_blocked_larger_than_reference_rejected():
    a = mask_from([0, 1])
    key = STREAM.subkey(5, 0)
    draw = cp.compress_draw(a, cp.compress_outside(a, 6), key, raw64(key, 0), raw64(key, 2))
    with pytest.raises(EngineError):
        cp.compress_decode(a, 6, draw, mask_from([2, 3, 4]))


@settings(max_examples=150, deadline=None)
@given(
    blocked=st.frozensets(st.integers(0, 8), max_size=3),
    j=st.integers(0, 5000),
)
def test_compress_containment_and_availability(blocked, j):
    a = mask_from([0, 1, 2])
    key = STREAM.subkey(6, j)
    draw = cp.compress_draw(a, cp.compress_outside(a, 9), key, raw64(key, 0), raw64(key, 2))
    blocked_mask = mask_from(blocked)
    out = cp.compress_decode(a, 9, draw, blocked_mask)
    assert not blocked_mask >> out & 1
    assert (a | 1 << draw.x_prime) >> out & 1


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

TRACE_LAW = cp.SizeLaw(2, 3, 0.5)


def seeding_trace_alpha():
    # |S| = 5, q = 8, C = {1,2}: P_C = 0.4 r2 + 0.1 r3, Q_C = 1/2
    p_c = 0.4 * 0.5 + 0.1 * 0.5
    q_c = (8 - 5) / (8 - 2)
    return (1 - q_c) / (1 - p_c)


def test_seeding_hand_trace_both_branches():
    s_mask = mask_from([1, 2, 3, 4, 5])
    alpha = seeding_trace_alpha()
    c_mask = mask_from([1, 2])
    low = cp.SeedingDraw(prefix=(4,), c0=7, u_prime=alpha - 0.01)
    high = cp.SeedingDraw(prefix=(4,), c0=7, u_prime=alpha + 0.01)
    assert cp.seeding_decode(s_mask, TRACE_LAW, 8, low, c_mask) == 4
    assert cp.seeding_decode(s_mask, TRACE_LAW, 8, high, c_mask) == 7


def test_seeding_acceptance_matches_trace():
    assert cp.seeding_acceptance(5, TRACE_LAW, 8, 2) == pytest.approx(
        seeding_trace_alpha(), abs=1e-12
    )


def test_seeding_prefix_swallowed_by_blocked_returns_free_color():
    s_mask = mask_from([1, 2, 3, 4, 5])
    draw = cp.SeedingDraw(prefix=(1,), c0=6, u_prime=0.0)
    assert cp.seeding_decode(s_mask, TRACE_LAW, 8, draw, mask_from([1, 2])) == 6


def test_seeding_predict_structure():
    s_mask = mask_from((1, 2, 3, 4, 5))
    law = cp.seeding_size_law(5, 3, 12)
    for j in range(500):
        predicted, draw = cp.seeding_predict(s_mask, law, 12, STREAM.subkey(7, j))
        assert predicted.bit_count() == len(draw.prefix) + 1
        assert len(draw.prefix) + 1 in (law.lo, law.hi)
        assert draw.c0 >= 0 and not s_mask >> draw.c0 & 1
        assert all(s_mask >> c & 1 for c in draw.prefix)


def test_seeding_rejects_full_palette_slack():
    with pytest.raises(CouplingRegimeError):
        cp.seeding_predict(mask_from(range(8)), TRACE_LAW, 8, STREAM.subkey(8, 0))


def test_seeding_decode_rejects_colors_outside_slack():
    s_mask = mask_from([1, 2])
    draw = cp.SeedingDraw(prefix=(1,), c0=5, u_prime=0.5)
    with pytest.raises(EngineError):
        cp.seeding_decode(s_mask, TRACE_LAW, 8, draw, mask_from([3]))


def test_seeding_empty_slack_emits_free_color():
    predicted, draw = cp.seeding_predict(0, TRACE_LAW, 6, STREAM.subkey(8, 1))
    assert predicted.bit_count() == 1
    assert cp.seeding_decode(0, TRACE_LAW, 6, draw, 0) == draw.c0


@settings(max_examples=150, deadline=None)
@given(
    blocked=st.frozensets(st.sampled_from([1, 2, 3, 4, 5]), max_size=3),
    j=st.integers(0, 5000),
)
def test_seeding_containment(blocked, j):
    s_mask = mask_from((1, 2, 3, 4, 5))
    predicted, draw = cp.seeding_predict(s_mask, TRACE_LAW, 8, STREAM.subkey(9, j))
    c_mask = mask_from(blocked)
    out = cp.seeding_decode(s_mask, TRACE_LAW, 8, draw, c_mask)
    assert predicted >> out & 1
    assert not c_mask >> out & 1


def test_draw_size_point_masses():
    # draw 0 picks the target size; a point mass always wins
    for j in range(100):
        key = STREAM.subkey(6, j)
        assert cp._draw_size(cp.SizeLaw(2, 2, 1.0), key) == 2
        assert cp._draw_size(cp.SizeLaw(2, 3, 0.0), key) == 3


def test_size_law_rejects_invalid_weights():
    with pytest.raises(ValueError):
        cp.SizeLaw(2, 3, 1.1)
    with pytest.raises(ValueError):
        cp.SizeLaw(2, 3, -0.1)


def test_size_law_rejects_inverted_sizes():
    with pytest.raises(ValueError):
        cp.SizeLaw(3, 2, 0.5)


# ---------------------------------------------------------------------------
# disjoint
# ---------------------------------------------------------------------------


def fixture_params(name="paired"):
    q, delta, raw = vf.DISJOINT_FIXTURES[name]
    return cp.disjoint_params_from_lists(q, delta, [mask_from(s) for s in raw])


def test_disjoint_fixture_classification():
    p = fixture_params("paired")
    assert p.pairs == (mask_from([1, 2]), mask_from([3, 4]))
    assert p.e_mask == 0
    assert p.leftover == pytest.approx(2 / 3, abs=1e-12)


def test_disjoint_entangled_classification():
    p = fixture_params("entangled")
    assert p.pairs == (mask_from([4, 5]),)
    assert members(p.e_mask) == [1, 2, 3]
    # 1 - (|S| - |Q|) / (q - delta) + (|D|/2) / (q - |Q| - |D|/2)
    assert p.leftover == pytest.approx(1 - 5 / 6 + 1 / 8, abs=1e-12)


def test_disjoint_overlapping_pairs_disqualified():
    params = cp.disjoint_params_from_lists(
        10, 2, [mask_from([1, 2]), mask_from([2, 3])]
    )
    assert params.pairs == ()


def test_disjoint_all_singletons_always_coalesces():
    lists = [mask_from([c]) for c in (0, 1, 2, 3)]
    params = cp.disjoint_params_from_lists(10, 4, lists)
    assert params.leftover == pytest.approx(1.0, abs=1e-12)
    blocked = mask_from([0, 1, 2, 3])
    for j in range(300):
        key = STREAM.subkey(10, j)
        predicted, draw = cp.disjoint_predict(params, key, raw64(key, 0), raw64(key, 2))
        assert predicted.bit_count() == 1
        out = cp.disjoint_decode(params, draw, blocked)
        assert predicted >> out & 1 and not blocked >> out & 1


def test_disjoint_bound_improves_with_pairing():
    # same slack, one fixture with disjoint pairs and one without
    with_pairs = cp.disjoint_params_from_lists(
        12, 4, [mask_from(s) for s in ({1, 2}, {3, 4}, {5}, {6})]
    )
    without = cp.disjoint_params_from_lists(
        12, 4, [mask_from(s) for s in ({1, 2}, {1, 2}, {5}, {6})]
    )
    assert with_pairs.leftover > without.leftover - 1e-12


def test_disjoint_infeasible_configuration_raises():
    # q < 2.5 delta with a fully entangled neighborhood: slot mass > 1
    lists = [mask_from(s) for s in ({0, 1}, {1, 2}, {3, 4}, {4, 5})]
    with pytest.raises(CouplingRegimeError):
        cp.disjoint_params_from_lists(8, 4, lists)


def test_disjoint_decode_unrealizable_pair_blocked_state_raises():
    params = fixture_params("paired")
    _, draw = next(
        (cp.disjoint_predict(params, key, raw64(key, 0), raw64(key, 2)))
        for key in (STREAM.subkey(11, j) for j in range(200))
        if cp.disjoint_predict(params, key, raw64(key, 0), raw64(key, 2))[1].pair
    )
    both = draw.pair | mask_from([5, 6])
    with pytest.raises(EngineError):
        cp.disjoint_decode(params, draw, both)
    # neither member blocked is just as unrealizable
    with pytest.raises(EngineError):
        cp.disjoint_decode(params, draw, mask_from([5, 6]))


def test_disjoint_decode_reads_draw_1_only_on_an_open_color_slot():
    # lists {1,2}, {2,3}, {4,5}, {6}: E colors 1, 2, 3 beside the pair {4, 5}
    params = fixture_params("entangled")
    blocked = mask_from([1, 3, 4, 6])
    read = Counter()
    for j in range(400):
        key = STREAM.subkey(13, j)
        _, draw = cp.disjoint_predict(params, key, raw64(key, 0), raw64(key, 2))
        if draw.color < 0 or blocked >> draw.color & 1:
            cp.disjoint_decode(params, draw._replace(v=unread), blocked)
            read["unread"] += 1
        else:
            assert draw.v() == unit_uniform(key, 1)
            read["read"] += 1
    assert read["unread"] > 0 and read["read"] > 0


@settings(max_examples=120, deadline=None)
@given(j=st.integers(0, 20000), pick=st.tuples(st.booleans(), st.booleans()))
def test_disjoint_containment_on_realizable_sets(j, pick):
    params = fixture_params("paired")
    blocked = mask_from([1 if pick[0] else 2, 3 if pick[1] else 4, 5, 6])
    key = STREAM.subkey(12, j)
    predicted, draw = cp.disjoint_predict(params, key, raw64(key, 0), raw64(key, 2))
    assert predicted.bit_count() in (1, 2)
    out = cp.disjoint_decode(params, draw, blocked)
    assert predicted >> out & 1
    assert not blocked >> out & 1


def singleton_layouts(n_cases=90, seed=16):
    """(q, delta, neighbor lists) built from singletons, 2-lists and (delta+1)-lists.

    A third of the cases hold only singletons and 2-lists of singleton
    colors, so every slack color is pinned (one-slot layouts). A third add
    one 2-list with a color no singleton holds, so their E set is not empty.
    The rest draw lists of 1, 2 or delta+1 random colors. q runs up to 70,
    past one 64-bit word, with every fifth case above 64.
    """
    rng = random.Random(seed)
    out = []
    for i in range(n_cases):
        delta = rng.randint(2, 6)
        q = rng.randint(65, 70) if i % 5 == 0 else rng.randint(3 * delta + 2, 70)
        if i % 3 == 2:
            lists = [
                mask_from(rng.sample(range(q), rng.choice((1, 2, delta + 1))))
                for _ in range(rng.randint(1, delta))
            ]
        else:
            pinned = rng.sample(range(q), rng.randint(1, delta - (i % 3)))
            lists = [1 << c for c in pinned]
            while len(lists) < delta - (i % 3):
                lists.append(mask_from(rng.sample(pinned, min(2, len(pinned)))))
            if i % 3 == 1:
                free = rng.choice([c for c in range(q) if c not in pinned])
                lists.append(1 << rng.choice(pinned) | 1 << free)
            rng.shuffle(lists)
        out.append((q, delta, lists))
    return out


def full_walk(params, key):
    """The slot walk with every draw taken: u, v and the reserve."""
    reserve = cp.outside_color(params.s_mask, params.q, raw64(key, 2))
    predicted, slot = cp.disjoint_slot(params, unit_uniform(key, 0), reserve)
    v = unit_uniform(key, 1)
    return predicted, cp.DisjointDraw(*slot, lambda: v, reserve)


def apply_mismatches(n_keys=200):
    """(q, lists, key index) wherever bd.apply_disjoint, at the center of a
    star whose leaves hold lists and carry one color each, gives a new list
    or a carried color other than the full walk's; with the number of
    one-slot and of E-holding layouts."""
    rng = random.Random(61)
    out, one_slot, with_e = [], 0, 0
    for q, delta, lists in singleton_layouts():
        try:
            params = cp.disjoint_params_from_lists(q, delta, lists)
        except CouplingRegimeError:
            continue
        one_slot += params.leftover == 1
        with_e += params.e_mask != 0
        # center 0, leaves 1..k, and a second star of delta leaves so that
        # the max degree is delta
        k = len(lists)
        edges = [(0, i + 1) for i in range(k)] + [(k + 1, k + 2 + i) for i in range(delta)]
        g = build_graph(k + delta + 2, edges)
        for j in range(n_keys):
            # the center's own carried color is never read
            coloring = [0, *(rng.choice(members(m)) for m in lists), 1] + [0] * delta
            state = bd.BoundingState(g, q, STREAM, j, coloring=coloring)
            state.lists[1 : k + 1] = lists
            bd.apply_disjoint(state, 0)
            predicted, draw = full_walk(params, STREAM.subkey(j, 0))
            blocked = mask_from(coloring[1 : k + 1])
            if state.lists[0] != predicted or state.coloring[0] != cp.disjoint_decode(
                params, draw, blocked
            ):
                out.append((q, lists, j))
    return out, one_slot, with_e


def test_apply_disjoint_matches_full_walk():
    mismatches, one_slot, with_e = apply_mismatches()
    assert mismatches == []
    assert one_slot >= 20 and with_e >= 20


def test_full_walk_check_catches_a_shortcut_with_e_colors(monkeypatch):
    """Negative control: take the one-slot shortcut whenever no pair is left,
    E colors or not."""
    real = cp.disjoint_predict

    def shortcut_without_pairs(params, key, w0, w2):
        if params.pairs:
            return real(params, key, w0, w2)
        reserve = cp.outside_color(params.s_mask, params.q, w2)
        return 1 << reserve, cp.DisjointDraw(0, -1, params.leftover, False, 0.0, reserve)

    monkeypatch.setattr(cp, "disjoint_predict", shortcut_without_pairs)
    assert apply_mismatches()[0]


def test_disjoint_pair_scan_pins_the_singleton_colors():
    for _, _, lists in singleton_layouts():
        q_mask = 0
        for m in lists:
            if m.bit_count() == 1:
                q_mask |= m
        assert cp.disjoint_pair_scan(lists)[1] == q_mask


# ---------------------------------------------------------------------------
# verification suites at a reduced budget
# ---------------------------------------------------------------------------


def test_compress_suite_passes():
    assert all(r.passed for r in vf.compress_suite(n_draws=6000, master_seed=3))


def test_seeding_suite_passes():
    assert all(r.passed for r in vf.seeding_suite(n_draws=6000, master_seed=4))


def test_seeding_suite_rejects_a_repeated_prefix_color():
    """Negative control: a prefix that repeats its first color fails the draw check."""

    def repeating_predict(s_mask, law, q, key):
        predicted, draw = cp.seeding_predict(s_mask, law, q, key)
        return predicted, draw._replace(prefix=draw.prefix[:1] * len(draw.prefix))

    results = vf.seeding_suite(n_draws=200, master_seed=4, predict=repeating_predict)
    check = next(r for r in results if "prefix distinct" in r.name)
    assert not check.passed


def test_disjoint_suites_pass():
    for fixture in ("paired", "entangled"):
        assert all(
            r.passed for r in vf.disjoint_suite(fixture, n_draws=6000, master_seed=5)
        )


def test_size_law_suite_passes():
    # one point on sizes {2, 3} and one on sizes {1, 2}, P(1) = 1/3
    for point, sizes in (((24, 12, 30), "{2,3}"), ((8, 4, 16), "{1,2}")):
        results = vf.size_law_suite(*point, n_draws=6000, master_seed=6)
        assert all(r.passed for r in results)
        assert f"sizes in {sizes}" in results[0].name
