import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftp_colorings import couplings as cp
from cftp_colorings import verification as vf
from cftp_colorings.errors import CouplingRegimeError


def z_top(inst, k):
    """Row delta's coefficient of size k: its left side for a point mass on k."""
    return cp.lp_row(inst.s_size, cp.SizeLaw(k, k, 1), inst.q, inst.delta)[0]


def test_lhs_point_mass_on_one_is_one():
    inst = cp.LPInstance(s_size=5, delta=3, q=9)
    law = cp.SizeLaw(1, 1, 1.0)
    for j in range(1, 4):
        assert cp.lp_row(inst.s_size, law, inst.q, j)[0] == 1.0


def test_lhs_binomial_evaluation():
    # C(3,2)/C(5,2) = 3/10 for a point mass on size 3 at row j = 3
    inst = cp.LPInstance(s_size=5, delta=3, q=9)
    law = cp.SizeLaw(3, 3, 1.0)
    assert cp.lp_row(inst.s_size, law, inst.q, 3)[0] == pytest.approx(0.3, abs=1e-15)


def test_top_row_equals_relaxed_moment():
    inst = cp.LPInstance(s_size=7, delta=4, q=12)
    law = cp.SizeLaw(2, 3, 0.25)
    top, _ = cp.lp_row(inst.s_size, law, inst.q, inst.delta)
    relaxed = sum(p * z_top(inst, k) for k, p in law.terms)
    assert top == pytest.approx(relaxed, abs=1e-15)


def test_seeding_size_law_matches_relaxed_solution():
    # (delta, |S|, q) = (12, 24, 30): direct evaluation of the two-point
    # formula gives r3 = 6 * 23 / 216 = 23/36
    inst = cp.LPInstance(s_size=24, delta=12, q=30)
    law = cp.seeding_size_law(24, 12, 30)
    r3 = Fraction(6 * 23, 216)
    assert law.r(3) == pytest.approx(float(r3), abs=1e-12)
    assert law.r(2) == pytest.approx(float(1 - r3), abs=1e-12)
    # the moment constraint is tight, and no relaxed vertex does better
    moment = sum(p * z_top(inst, k) for k, p in law.terms)
    _, w = cp.lp_row(inst.s_size, law, inst.q, inst.delta)
    assert moment == pytest.approx(w, abs=1e-12)
    best = min(v.expected_size for v in cp.relaxed_lp_vertices(inst))
    assert law.expected_size == pytest.approx(best, abs=1e-12)


def test_seeding_size_law_clamps_to_two():
    # |S| = q - delta makes size 2 exactly feasible alone: r1 = 0
    law = cp.seeding_size_law(9, 3, 12)
    assert law.r(1) == 0.0 and law.r(2) == 1.0 and law.r(3) == 0.0
    assert law.expected_size == 2.0


def test_seeding_size_law_mixes_one_and_two_below_q_minus_delta():
    # |S| + delta < q: row delta binds r1 = (q - |S| - delta) / (q - delta) = 1/6
    law = cp.seeding_size_law(5, 3, 9)
    assert (law.lo, law.hi) == (1, 2)
    assert law.p_lo == 1 / 6
    assert cp.seeding_size_law(5, 3, Fraction(9)).p_lo == Fraction(1, 6)
    assert law.expected_size == pytest.approx(11 / 6, abs=1e-15)


def test_seeding_size_law_expected_size_at_most_three():
    law = cp.seeding_size_law(24, 12, 30)
    assert 2.0 <= law.expected_size <= 3.0


def test_seeding_size_law_out_of_regime_raises():
    # q = 6, slack 6 = 2 * delta: raw r3 exceeds 1
    with pytest.raises(CouplingRegimeError):
        cp.seeding_size_law(6, 3, 6)


@pytest.mark.parametrize(
    "s_size, delta, q, error",
    [
        (3, 0, 8, ValueError),
        (9, 0, 8, ValueError),
        (8, 1, 8, ValueError),
        (20, 8, 20, CouplingRegimeError),
    ],
)
def test_seeding_size_law_rejects_bad_parameters(s_size, delta, q, error):
    # delta = 0 and |S| = q are malformed; at (20, 8, 20) r3 > 1 is the
    # fallback trigger, which must stay a CouplingRegimeError
    with pytest.raises(error):
        cp.seeding_size_law(s_size, delta, q)


def test_verify_full_lp_flags_infeasible_point_mass():
    # point mass on size 1 with |S| > q - delta: every row has lhs = 1 > bound
    inst = cp.LPInstance(s_size=6, delta=3, q=8)
    violations = cp.verify_full_lp(inst, cp.SizeLaw(1, 1, 1.0))
    assert violations
    assert [v[0] for v in violations] == [0, 1, 2, 3]


def test_verify_full_lp_checks_row_zero():
    # with nothing blocked the decode never emits the free color after a
    # size-1 draw, so a point mass on 1 breaks row 0: lhs 1 > bound 8/9;
    # row 1 reads 1 <= 1
    inst = cp.LPInstance(s_size=1, delta=3, q=9)
    assert cp.lp_row(1, cp.SizeLaw(1, 1, 1.0), 9, 0) == (1.0, 8 / 9)
    assert cp.verify_full_lp(inst, cp.SizeLaw(1, 1, 1.0)) == [(0, 1.0, 8 / 9)]


def test_unusable_size_is_refused_by_the_row():
    # size 4 needs 3 slack colors; with 2 the row function refuses it, and
    # verify_full_lp passes its error on rather than report a row
    inst = cp.LPInstance(s_size=2, delta=3, q=8)
    law = cp.SizeLaw(4, 4, 1)
    for j in (1, 2):
        with pytest.raises(CouplingRegimeError, match="size 4 unusable"):
            cp.lp_row(inst.s_size, law, inst.q, j)
    with pytest.raises(CouplingRegimeError, match="size 4 unusable"):
        cp.verify_full_lp(inst, law)


def test_verify_full_lp_top_row_point_mass_on_delta():
    # lhs at row delta for a point mass on delta with |S| = delta + 1 is
    # C(d, d-1) / C(d+1, d-1) = 2 / (d+1)
    for delta in (3, 5, 8):
        inst = cp.LPInstance(s_size=delta + 1, delta=delta, q=3 * delta)
        law = cp.SizeLaw(delta, delta, 1.0)
        lhs, bound = cp.lp_row(inst.s_size, law, inst.q, delta)
        assert lhs == pytest.approx(2 / (delta + 1), abs=1e-12)
        feasible = not cp.verify_full_lp(inst, law)
        assert feasible == (lhs <= bound + 1e-9)


def test_closed_form_matches_vertex_enumeration_spot():
    inst = cp.LPInstance(s_size=6, delta=4, q=8)
    law = cp.seeding_size_law(6, 4, 8)
    best = min(v.expected_size for v in cp.relaxed_lp_vertices(inst))
    assert law.expected_size == pytest.approx(best, abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(
    delta=st.integers(3, 14),
    s_extra=st.integers(1, 14),
    q_extra=st.integers(0, 20),
)
def test_relaxed_solution_tight_and_optimal(delta, s_extra, q_extra):
    s_size = delta + min(s_extra, delta)
    q = math.ceil(7 * delta / 3) + q_extra
    if s_size >= q:
        return
    inst = cp.LPInstance(s_size, delta, q)
    law = cp.seeding_size_law(s_size, delta, q)
    # tight for the relaxed program: |S| > delta, so row delta binds
    moment = sum(p * z_top(inst, k) for k, p in law.terms)
    _, w = cp.lp_row(inst.s_size, law, inst.q, inst.delta)
    assert moment == pytest.approx(w, abs=1e-12)
    # optimal among polytope vertices
    assert law.expected_size <= min(v.expected_size for v in cp.relaxed_lp_vertices(inst)) + 1e-9


def test_lp_grid_suite_fails_on_an_empty_grid():
    # 10:8 is an inverted range (LO > HI), so the grid has no point
    feasible, _ = vf.lp_grid_suite(10, 8)
    assert "0 grid points" in feasible.name
    assert not feasible.passed


def test_seeding_size_law_on_the_lp_grid():
    # the sampler's law over every grid point lpaudit prints: feasible, and
    # as small in expectation as the best vertex of the relaxed program
    points = list(vf.lp_grid(3, 16))
    assert len(points) == 1081
    for delta, s_size, q in points:
        inst = cp.LPInstance(s_size, delta, q)
        law = cp.seeding_size_law(s_size, delta, q)
        assert not cp.verify_full_lp(inst, law), (delta, s_size, q)
        assert (law.lo, law.hi) == ((1, 2) if s_size <= q - delta else (2, 3))
        best = min(v.expected_size for v in cp.relaxed_lp_vertices(inst))
        assert law.expected_size == pytest.approx(best, abs=1e-12), (delta, s_size, q)


def _row_lhs(s_size, law, j):
    """LP row j's left side for a law with Fraction masses, in the rationals."""
    return sum(
        p * Fraction(math.comb(j, k - 1), math.comb(s_size, k - 1)) for k, p in law.terms if p
    )


def _row_bound(s_size, q, j):
    return Fraction(q - s_size, q - j)


def test_seeding_size_law_is_the_exact_closed_form():
    # every law seeding_size_law builds at a Fraction q for delta <= 16 and
    # delta < q <= 4 delta + 2, checked against every row in the rationals;
    # the sampler itself runs no LP
    regions = {"|S| <= delta": 0, "delta < |S| <= q - delta": 0, "|S| > q - delta": 0}
    raised = controls = 0
    for delta in range(1, 17):
        for q in range(delta + 1, 4 * delta + 3):
            for s_size in range(1, q):
                top = min(delta, s_size - 1)  # the binding row J
                try:
                    law = cp.seeding_size_law(s_size, delta, Fraction(q))
                except CouplingRegimeError:
                    # no law on sizes <= 3 holds row J: size 3 alone breaks it
                    point3 = cp.SizeLaw(3, 3, Fraction(1))
                    assert _row_lhs(s_size, point3, top) > _row_bound(s_size, q, top)
                    raised += 1
                    continue
                if s_size <= delta:
                    regions["|S| <= delta"] += 1
                elif s_size <= q - delta:
                    regions["delta < |S| <= q - delta"] += 1
                else:
                    regions["|S| > q - delta"] += 1
                # the int q law is the same rational, rounded once
                float_law = cp.seeding_size_law(s_size, delta, q)
                assert (float_law.lo, float_law.hi) == (law.lo, law.hi)
                if law.lo == 1:
                    assert s_size + top <= q
                    assert float_law.p_lo == float(law.p_lo), (delta, s_size, q)
                else:
                    assert (law.lo, law.hi) == (2, 3) and s_size + top > q
                    assert float_law.p_lo == 1 - float(1 - law.p_lo), (delta, s_size, q)
                for j in range(min(delta, s_size) + 1):
                    lhs = _row_lhs(s_size, law, j)
                    assert lhs <= _row_bound(s_size, q, j), (delta, s_size, q, j)
                assert _row_lhs(s_size, law, top) == _row_bound(s_size, q, top)
                # negative control: moving mass to the low size breaks row J
                shifted = cp.SizeLaw(law.lo, law.hi, law.p_lo + Fraction(1, 1000))
                assert _row_lhs(s_size, shifted, top) > _row_bound(s_size, q, top)
                controls += 1
    assert regions == {
        "|S| <= delta": 4677, "delta < |S| <= q - delta": 3720, "|S| > q - delta": 2580
    }
    assert (raised, controls) == (1143, 10977)
