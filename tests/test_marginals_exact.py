"""Exact-arithmetic marginal oracles for the three couplings.

Monte Carlo chi-square checks (elsewhere in the suite) validate the code
paths end to end; these tests instead add up the shipped decode functions
(``cp.compress_decode``, ``cp.seeding_decode``, ``cp.disjoint_decode``) over
every structural draw in exact rational arithmetic and compare the resulting
marginal to Uniform([q] \\ blocked) with ``==``. Passing q as a Fraction
makes every acceptance threshold exact. A continuous acceptance variate
enters twice, just below and just above the shipped threshold, weighted by
the threshold and its complement, so the decode's own comparison decides
which side each lands on. Every decoded color must also lie in the predicted
set and outside the blocked set.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftp_colorings import couplings as cp
from cftp_colorings.colorsets import full_mask, mask_from, members
from cftp_colorings.errors import CouplingRegimeError

# far below any gap between two thresholds of the small fixtures here
EPS = Fraction(1, 10**30)


def _split(alpha, decode_at):
    """Law of decode_at(u) for u ~ Uniform[0, 1) and acceptance threshold alpha.

    A side of zero mass is not probed: at alpha = 1 it would sit at u = 1,
    which unit_uniform never draws.
    """
    alpha = min(max(alpha, 0), 1)
    sides = ((alpha - EPS, alpha), (alpha + EPS, 1 - alpha))
    return tuple((decode_at(u), p) for u, p in sides if p > 0)


def _tally(mass, weight, predicted, blocked, outcomes):
    for c, p in outcomes:
        assert predicted >> c & 1 and not blocked >> c & 1, (c, members(predicted))
        mass[c] = mass.get(c, 0) + weight * p


def non_uniform_colors(mass, q, blocked):
    """Colors whose exact mass differs from Uniform([q] \\ blocked)."""
    avail = members(full_mask(q) & ~blocked)
    bad = [c for c, m in mass.items() if not isinstance(m, Fraction)]
    assert not bad, f"inexact masses at {bad}"
    return [
        c for c in range(q)
        if mass.get(c, 0) != (Fraction(1, len(avail)) if c in avail else 0)
    ]


# ---------------------------------------------------------------------------
# compress: (permutation of A) x (x') x (u' threshold)
# ---------------------------------------------------------------------------


def compress_marginal(a_colors, q, blocked):
    qf = Fraction(q)
    a_mask = mask_from(a_colors)
    outside = members(full_mask(q) & ~a_mask)
    perms = list(itertools.permutations(sorted(a_colors)))
    weight = Fraction(1, len(outside) * len(perms))
    alpha = cp.compress_accept(qf, len(a_colors), blocked.bit_count())
    mass = {}
    for x_prime in outside:
        for pi in perms:
            outcomes = _split(alpha, lambda u: cp.compress_decode(
                a_mask, qf, cp.CompressDraw(pi, x_prime, lambda: u), blocked))
            _tally(mass, weight, a_mask | 1 << x_prime, blocked, outcomes)
    return mass


@pytest.mark.parametrize("q,a_colors", [(6, (1, 2, 3)), (7, (0, 2, 5)), (5, (0, 1, 2, 3))])
def test_compress_exact_uniform_marginal(q, a_colors):
    for r in range(len(a_colors) + 1):
        for blocked in itertools.combinations(range(q), r):
            mask = mask_from(blocked)
            assert not non_uniform_colors(compress_marginal(a_colors, q, mask), q, mask), blocked


# ---------------------------------------------------------------------------
# seeding: (K) x (ordered prefix of S) x (c0) x (u' threshold)
# ---------------------------------------------------------------------------


def seeding_marginal(s_colors, law, q, c_mask):
    qf = Fraction(q)
    s_mask = mask_from(s_colors)
    t_colors = members(full_mask(q) & ~s_mask)
    alpha = cp.seeding_acceptance(len(s_colors), law, qf, c_mask.bit_count())
    mass = {}
    for k, p in law.terms:
        prefixes = list(itertools.permutations(sorted(s_colors), k - 1))
        weight = p / (len(prefixes) * len(t_colors))
        for prefix in prefixes:
            for c0 in t_colors:
                outcomes = _split(alpha, lambda u: cp.seeding_decode(
                    s_mask, law, qf, cp.SeedingDraw(prefix, c0, u), c_mask))
                _tally(mass, weight, mask_from(prefix) | 1 << c0, c_mask, outcomes)
    return mass


@pytest.mark.parametrize(
    "s_colors,q,law",
    [
        ((1, 2, 3, 4, 5), 8, cp.SizeLaw(2, 2, Fraction(1))),
        ((1, 2, 3, 4, 5), 8, cp.SizeLaw(2, 3, Fraction(1, 2))),
        ((1, 2, 3, 4, 5), 8, cp.SizeLaw(2, 3, Fraction(2, 5))),
        # the shipped law at delta = 3, one point per region of the slack:
        # delta < |S| <= q - delta mixes sizes 1 and 2, (1/3, 2/3) here
        ((1, 2, 3, 4), 9, cp.seeding_size_law(4, 3, Fraction(9))),
        # |S| > q - delta mixes sizes 2 and 3
        ((1, 2, 3, 4, 5), 7, cp.seeding_size_law(5, 3, Fraction(7))),
        # |S| <= delta binds row |S| - 1, on sizes 1 and 2 or on 2 and 3
        ((1, 2, 3), 9, cp.seeding_size_law(3, 3, Fraction(9))),
        ((1, 2, 3), 4, cp.seeding_size_law(3, 3, Fraction(4))),
    ],
)
def test_seeding_exact_uniform_marginal(s_colors, q, law):
    delta = 3
    assert not cp.verify_full_lp(cp.LPInstance(len(s_colors), delta, q), law)
    for r in range(delta + 1):
        for c_set in itertools.combinations(s_colors, r):
            c_mask = mask_from(c_set)
            mass = seeding_marginal(s_colors, law, q, c_mask)
            assert not non_uniform_colors(mass, q, c_mask), (law, c_set)


def test_size_one_mixture_is_the_lp_optimum_at_small_slack():
    inst = cp.LPInstance(s_size=4, delta=3, q=9)
    law = cp.seeding_size_law(4, 3, Fraction(9))
    assert (law.lo, law.hi, law.p_lo) == (1, 2, Fraction(1, 3))
    best = min(v.expected_size for v in cp.relaxed_lp_vertices(inst))
    assert float(law.expected_size) == pytest.approx(best, abs=1e-12)


def test_seeding_alpha_matches_exact_fraction():
    # P_C = 1/2 * 2/5 + 1/2 * 1/10 = 1/4, Q_C = 3/6, alpha = (1 - Q_C) / (1 - P_C)
    exact = cp.SizeLaw(2, 3, Fraction(1, 2))
    assert cp.seeding_acceptance(5, exact, Fraction(8), 2) == Fraction(2, 3)
    law = cp.SizeLaw(2, 3, 0.5)
    assert cp.seeding_acceptance(5, law, 8, 2) == pytest.approx(2 / 3, abs=1e-12)


# ---------------------------------------------------------------------------
# disjoint: (slot layout) x (acceptance variate) x (reserve color)
# ---------------------------------------------------------------------------


def disjoint_marginal(q, delta, neighbor_lists, blocked):
    """Walk the shipped slot layout exactly, one slot per step of u."""
    params = cp.disjoint_params_from_lists(Fraction(q), delta, neighbor_lists)
    t_colors = members(full_mask(q) & ~params.s_mask)
    n_blocked = blocked.bit_count()
    mass = {}
    for reserve in t_colors:
        u = Fraction(0)
        while u < 1:
            predicted, slot = cp.disjoint_slot(params, u, reserve)
            draw = cp.DisjointDraw(*slot, None, reserve)
            # the slot spans exactly [u, u + slot_prob)
            assert cp.disjoint_slot(params, u + draw.slot_prob - EPS, reserve) == (predicted, slot)
            # and is exactly one kind: a pair, a color, or the leftover
            if draw.pair:
                assert draw.pair.bit_count() == 2 and draw.color == -1
                assert predicted == draw.pair
            elif draw.color >= 0:
                assert predicted == 1 << draw.color | 1 << reserve
            else:
                assert draw.color == -1 and predicted == 1 << reserve
            alpha = cp.disjoint_needed(params, draw, n_blocked) / draw.slot_prob
            outcomes = _split(alpha, lambda v: cp.disjoint_decode(
                params, draw._replace(v=lambda: v), blocked))
            _tally(mass, draw.slot_prob / len(t_colors), predicted, blocked, outcomes)
            u += draw.slot_prob
    return mass


def disjoint_failures(q, delta, raw_lists, max_blocked_sets=None):
    """(blocked set, non-uniform colors) for each realizable blocked set that fails."""
    neighbor_lists = [mask_from(s) for s in raw_lists]
    combos = itertools.product(*[sorted(s) for s in raw_lists])
    out = []
    for combo in itertools.islice(combos, max_blocked_sets):
        blocked = mask_from(combo)
        bad = non_uniform_colors(disjoint_marginal(q, delta, neighbor_lists, blocked), q, blocked)
        if bad:
            out.append((combo, bad))
    return out


FIXTURE_LISTS = [
    (10, 4, ({1, 2}, {3, 4}, {5}, {6})),
    (10, 4, ({1, 2}, {2, 3}, {4, 5}, {6})),
    (10, 4, ({1, 2}, {1, 2}, {3}, {4})),
    (12, 4, ({0, 1}, {2, 3}, {4, 5}, {6, 7})),
    (9, 3, ({0, 1}, {0, 1}, {2, 3})),
    (8, 3, ({5}, {5}, {6})),
    # conversion-stage shape: two big compressed lists plus small ones
    (13, 4, ({0, 1, 2, 3, 4}, {0, 1, 2, 3, 5}, {6, 7}, {8})),
]


@pytest.mark.parametrize("q,delta,raw_lists", FIXTURE_LISTS)
def test_disjoint_exact_uniform_marginal(q, delta, raw_lists):
    assert disjoint_failures(q, delta, raw_lists) == []


def test_exact_oracle_catches_a_perturbed_pair_correction(monkeypatch):
    """Negative control: scale the pair term of the shipped threshold by 0.99."""
    shipped = cp.disjoint_needed

    def perturbed(params, draw, n_blocked):
        return shipped(params, draw, n_blocked) + (params.p_pair / 100 if draw.in_d else 0)

    monkeypatch.setattr(cp, "disjoint_needed", perturbed)
    failing = [f for f in FIXTURE_LISTS if disjoint_failures(*f)]
    assert failing


@pytest.mark.parametrize("q,delta,raw_lists", FIXTURE_LISTS)
def test_disjoint_implementation_matches_exact_oracle(q, delta, raw_lists):
    """The exact slot layout has the closed-form masses and singleton chance."""
    neighbor_lists = [mask_from(s) for s in raw_lists]
    params = cp.disjoint_params_from_lists(Fraction(q), delta, neighbor_lists)
    b = len(params.pairs)
    q_size = len(set().union(*(s for s in raw_lists if len(s) == 1)))
    if b:
        assert params.p_pair == Fraction(1, q - q_size - b)
    assert params.s_e == Fraction(1, q - delta)
    expected_leftover = 1 - (
        b * params.p_pair + 2 * b * params.s_d + params.e_mask.bit_count() * params.s_e
    )
    assert params.leftover == expected_leftover
    # the singleton probability equals the quoted bound exactly
    s_size, d_size = params.s_mask.bit_count(), 2 * b
    bound = 1 - Fraction(s_size - q_size, q - delta) + Fraction(b, q - q_size - b)
    assert params.leftover == bound


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_disjoint_exact_marginal_on_random_configurations(data):
    q = data.draw(st.integers(8, 14))
    delta = data.draw(st.integers(2, 4))
    n_lists = data.draw(st.integers(1, delta))
    raw_lists = []
    for _ in range(n_lists):
        sz = data.draw(st.integers(1, 2))
        colors = data.draw(
            st.sets(st.integers(0, q - 2), min_size=sz, max_size=sz)
        )
        raw_lists.append(frozenset(colors))
    neighbor_lists = [mask_from(s) for s in raw_lists]
    try:
        cp.disjoint_params_from_lists(q, delta, neighbor_lists)
    except CouplingRegimeError:
        return  # infeasible layouts are rejected, nothing to check
    assert disjoint_failures(q, delta, raw_lists, max_blocked_sets=8) == []
