import math
import os
import subprocess
import sys

import click
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from cftp_colorings import cli, oracle
from cftp_colorings import couplings as cp
from cftp_colorings.colorsets import mask_from, members
from cftp_colorings.errors import CouplingRegimeError, EnumerationBudgetError
from cftp_colorings.graphs import build_graph, gen_complete, gen_cycle


def falling_factorial(q, n):
    out = 1
    for i in range(n):
        out *= q - i
    return out


def cycle_count(q, n):
    return (q - 1) ** n + (-1) ** n * (q - 1)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_k4_q13():
    g = gen_complete(4)
    got = oracle.enumerate_colorings(g, 13)
    assert len(got) == 17160 == falling_factorial(13, 4)


def test_enumerate_triangle_q3():
    assert len(oracle.enumerate_colorings(gen_cycle(3), 3)) == 6


def test_enumerate_single_edge_q2():
    g = build_graph(2, [(0, 1)])
    assert len(oracle.enumerate_colorings(g, 2)) == 2


def test_enumerate_matches_complete_graph_polynomial():
    for n in range(2, 6):
        for q in range(n, 8):
            g = gen_complete(n)
            assert len(oracle.enumerate_colorings(g, q)) == falling_factorial(q, n)


def test_enumerate_matches_cycle_polynomial():
    for n in range(3, 8):
        for q in range(2, 7):
            g = gen_cycle(n)
            assert len(oracle.enumerate_colorings(g, q)) == cycle_count(q, n)


def test_enumerate_matches_tree_polynomial():
    # path and star on n vertices: q * (q-1)^(n-1)
    for n in range(2, 8):
        for q in range(2, 7):
            path = build_graph(n, [(i, i + 1) for i in range(n - 1)])
            star = build_graph(n, [(0, i) for i in range(1, n)])
            expected = q * (q - 1) ** (n - 1)
            assert len(oracle.enumerate_colorings(path, q)) == expected
            assert len(oracle.enumerate_colorings(star, q)) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 7), st.integers(2, 6), st.integers(0, 10_000))
def test_enumerate_random_trees_match_polynomial(n, q, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    g = build_graph(n, edges)
    assert len(oracle.enumerate_colorings(g, q)) == q * (q - 1) ** (n - 1)


def test_enumeration_budget_refused_with_estimate():
    g = build_graph(30, [(i, i + 1) for i in range(29)])
    with pytest.raises(EnumerationBudgetError, match="q\\^n"):
        oracle.enumerate_colorings(g, 10)


def test_enumeration_budget_refused_on_small_graphs():
    # 10^8 assignments on only 8 vertices is past the budget too
    with pytest.raises(EnumerationBudgetError):
        oracle.enumerate_colorings(build_graph(8, []), 10)


def test_all_enumerated_are_proper():
    g = gen_cycle(5)
    for c in oracle.enumerate_colorings(g, 3):
        assert all(c[u] != c[v] for u, v in g.edges)


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------


def test_gof_exact_uniform_multiset():
    g = gen_cycle(3)
    universe = oracle.enumerate_colorings(g, 3)
    samples = [c for c in universe for _ in range(10)]
    res = oracle.goodness_of_fit(samples, universe)
    assert res.chi2 == 0.0 and res.tv == 0.0 and res.pvalue == 1.0


def test_gof_point_mass_tv():
    g = gen_cycle(3)
    universe = oracle.enumerate_colorings(g, 3)
    samples = [universe[0]] * 600
    res = oracle.goodness_of_fit(samples, universe)
    assert res.tv == pytest.approx(5 / 6, abs=1e-12)
    assert res.pvalue < 1e-12


@pytest.mark.parametrize(
    "counts",
    [
        [10, 10, 10],
        [600, 0, 0, 0, 0, 0],
        [1, 2],
        [3, 7, 1, 9, 0, 4, 12],
        np.random.default_rng(3).multinomial(20_000, np.full(2000, 1 / 2000)),
    ],
)
def test_gof_pvalues_equal_scipy_stats(counts):
    # gof_from_counts calls the special functions behind these two survival
    # functions directly, so the p-values must agree bit for bit
    res = oracle.gof_from_counts(counts)
    mean, sd = oracle.null_tv_moments(res.n_samples, res.n_cells)
    assert res.pvalue == sps.chi2.sf(res.chi2, res.n_cells - 1)
    assert res.tv_pvalue == sps.norm.sf((res.tv - mean) / sd)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import, once per CLI process
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, cftp_colorings.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_gof_rejects_sample_outside_universe():
    g = gen_cycle(3)
    universe = oracle.enumerate_colorings(g, 3)
    with pytest.raises(AssertionError, match="outside"):
        oracle.goodness_of_fit([(0, 0, 0)], universe)


# ---------------------------------------------------------------------------
# lower-bound instance
# ---------------------------------------------------------------------------


def test_lower_bound_reference_values():
    assert oracle.lower_bound_value(4, 8) == pytest.approx(2.3, abs=1e-12)
    assert oracle.lower_bound_value(6, 13) == pytest.approx(6 / 8 + 3 / 7 + 1, abs=1e-12)
    assert oracle.lower_bound_value(4, 10) == pytest.approx(4 / 7 + 2 / 6 + 1, abs=1e-12)
    assert oracle.lower_bound_value(4, 10) < 2


def test_lower_bound_rejects_bad_parameters():
    with pytest.raises(ValueError, match="even"):
        oracle.lower_bound_value(5, 9)
    with pytest.raises(ValueError):
        oracle.lower_bound_value(4, 5)  # r < 0


def test_lower_bound_crossing():
    # above 2 strictly below the 2.5 * delta - 1 line, at or below 2 from
    # 2.5 * delta upward
    for delta in range(4, 22, 2):
        m = delta // 2
        for q in range(3 * m, 3 * delta):
            val = oracle.lower_bound_value(delta, q)
            if q < 2.5 * delta - 1:
                assert val > 2, (delta, q, val)
            if q >= 2.5 * delta:
                assert val < 2 + 1e-12, (delta, q, val)


def pairing_faults(lists) -> list[str]:
    """How lists break the worst case's pairing: each list holds 2 colors,
    lists 2k and 2k+1 share exactly one, and lists of different pairs are
    disjoint."""
    faults = [f"list {i} holds {m.bit_count()} colors" for i, m in enumerate(lists)
              if m.bit_count() != 2]
    for i, a in enumerate(lists):
        for j in range(i + 1, len(lists)):
            shared = (a & lists[j]).bit_count()
            if shared != (1 if j == i + 1 and i % 2 == 0 else 0):
                faults.append(f"lists {i} and {j} share {shared} colors")
    return faults


def test_build_worst_case_lists():
    lists = oracle.worst_case_lists(4)
    assert [members(m) for m in lists] == [[0, 1], [1, 2], [3, 4], [4, 5]]
    for delta in range(2, 41, 2):
        assert len(oracle.worst_case_lists(delta)) == delta
        assert pairing_faults(oracle.worst_case_lists(delta)) == []
    # the check itself: a third color, a shared color across pairs, two disjoint partners
    assert pairing_faults((0b1011, 0b110)) == ["list 0 holds 3 colors"]
    assert pairing_faults((0b11, 0b110, 0b1100, 0b11000)) == ["lists 1 and 2 share 1 colors"]
    assert pairing_faults((0b11, 0b1100)) == ["lists 0 and 1 share 0 colors"]
    for delta in (0, 3, 5):
        with pytest.raises(ValueError, match="even"):
            oracle.worst_case_lists(delta)


def test_build_worst_case_rejects_too_few_colors():
    with pytest.raises(click.UsageError, match="need q >= 3"):
        cli.parse_gen_spec("worstcase:4,5")
    assert cli.parse_gen_spec("worstcase:4,7").n == 8  # r = 1 is fine


def test_build_worst_case_copies():
    # the worstcase generator's host, each vertex u holding list u % delta:
    # every vertex's neighbor lists pair up
    g = cli.parse_gen_spec("worstcase:4,8,3")
    lists = oracle.worst_case_lists(4)
    assert g.n == 24
    assert all(g.degree(v) == 4 for v in range(24))
    assert all(pairing_faults([lists[u % 4] for u in g.adjacency[v]]) == [] for v in range(24))


def test_audit_coupling_seeding_exceeds_two():
    # a seeding prediction holds exactly its drawn size of colors, so the
    # law's expected size is the coupling's expected new list size
    law = oracle.worst_case_seeding_law(oracle.worst_case_lists(4), 4, 8)[1]
    assert law is not None
    assert law.expected_size == 2.625
    assert law.expected_size >= oracle.lower_bound_value(4, 8)


def test_audit_coupling_disjoint_incompatible_below_threshold():
    with pytest.raises(CouplingRegimeError):
        cp.disjoint_params_from_lists(8, 4, oracle.worst_case_lists(4))


def test_expected_null_tv_scale():
    # the plug-in TV of a perfect sampler concentrates near this value
    assert oracle.null_tv_moments(200_000, 17160)[0] == pytest.approx(0.1167, abs=0.002)


def test_expected_null_tv_is_exact_poisson_mean():
    # Poisson(lambda) mean absolute deviation at integer lambda = 10:
    # 2 e^-10 10^11 / 10!
    mad = 2 * math.exp(-10) * 10**11 / math.factorial(10)
    mean = oracle.null_tv_moments(20_000, 2000)[0]
    assert mean == pytest.approx(2000 * mad / 40_000, rel=1e-12)
    mean, sd = oracle.null_tv_moments(200_000, 17160)
    assert mean == pytest.approx(0.11716, abs=5e-6)
    assert sd == pytest.approx(0.00067, abs=5e-6)


def test_tv_pvalue_calibrated_under_uniform():
    # a uniform source falls below level 0.05 at the nominal rate, within the
    # two-sided 99.9% binomial interval over 1000 independent draws
    n_cells, n_samples, draws, level = 2000, 20_000, 1000, 0.05
    rng = np.random.default_rng(20_511)
    counts = rng.multinomial(n_samples, np.full(n_cells, 1.0 / n_cells), size=draws)
    rejected = sum(oracle.gof_from_counts(c).tv_pvalue < level for c in counts)
    lo, hi = sps.binom.interval(0.999, draws, level)
    assert lo <= rejected <= hi, (rejected, lo, hi)


def test_tv_pvalue_rejects_concentrated_bias_at_criterion_size():
    # criterion 01's N and cell count; a law at TV 0.02 whose excess sits on
    # 1% of the cells must fail the TV gate the criterion applies
    n_cells, n_samples, tv = 17160, 200_000, 0.02
    hot = round(0.01 * n_cells)
    law = np.full(n_cells, (1.0 - tv * n_cells / (n_cells - hot)) / n_cells)
    law[:hot] = (1.0 + tv * n_cells / hot) / n_cells
    assert np.abs(law - 1.0 / n_cells).sum() / 2 == pytest.approx(tv, abs=1e-12)
    rng = np.random.default_rng(2717)
    counts = rng.multinomial(n_samples, law)
    samples = [(int(i),) for i in np.repeat(np.arange(n_cells), counts)]
    res = oracle.goodness_of_fit(samples, [(i,) for i in range(n_cells)])
    assert res.n_samples == n_samples and res.n_cells == n_cells
    assert res.tv_pvalue < 1e-3, res


def test_worst_case_law_meets_the_lower_bound():
    # both exact columns of lowerbound's table for even delta 4-40, q from
    # 1.5 delta to 3 delta: the seeding law holds the full LP wherever it
    # exists, and neither expected size is below the analytic floor
    seeding, disjoint = [], []
    for delta in range(4, 41, 2):
        lists = oracle.worst_case_lists(delta)
        for q in range(3 * delta // 2, 3 * delta + 1):
            bound = oracle.lower_bound_value(delta, q)
            s_mask, law = oracle.worst_case_seeding_law(lists, delta, q)
            if law is not None:
                assert not cp.verify_full_lp(cp.LPInstance(s_mask.bit_count(), delta, q), law)
                seeding.append(law.expected_size - bound)
            size = oracle.worst_case_disjoint_size(lists, delta, q)
            if size is not None:
                disjoint.append(size - bound)
    assert (len(seeding), len(disjoint)) == (627, 228)
    assert min(seeding) >= 0
    assert min(disjoint) >= 0


def test_worst_case_disjoint_size_is_two_at_the_threshold():
    # every slack color of the worst case is an E color, so the layout first
    # fits at q = 2.5 delta, where it fills its mass exactly
    for delta in range(4, 41, 2):
        lists = oracle.worst_case_lists(delta)
        assert oracle.worst_case_disjoint_size(lists, delta, 5 * delta // 2) == 2
        assert oracle.worst_case_disjoint_size(lists, delta, 5 * delta // 2 - 1) is None


def test_worst_case_with_no_relaxed_vertex_is_incompatible():
    # (|S|, delta, q) = (4, 2, 5): every size's row-delta coefficient exceeds
    # the bound, so the relaxed program has no vertex
    lists = (mask_from((0, 1)), mask_from((2, 3)))
    assert cp.relaxed_lp_vertices(cp.LPInstance(4, 2, 5)) == []
    assert oracle.worst_case_seeding_law(lists, 2, 5) == (0b1111, None)
