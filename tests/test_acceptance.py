"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Budgets follow the criteria; the whole module takes
a few minutes.
"""

import math
import time

import numpy as np
import pytest

from cftp_colorings import bounding as bd
from cftp_colorings import couplings as cp
from cftp_colorings import engine, oracle
from cftp_colorings import verification as vf
from cftp_colorings.graphs import gen_complete, gen_complete_bipartite, gen_random_regular
from cftp_colorings.seedstream import SeedStream
from cftp_colorings.verification import sample_many


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'} :: {detail}")


def falling_factorial(q, n):
    out = 1
    for i in range(n):
        out *= q - i
    return out


def test_criterion_01_exact_uniformity_k4():
    g = gen_complete(4)
    q, n_samples = 13, 200_000
    universe = oracle.enumerate_colorings(g, q)
    assert len(universe) == falling_factorial(q, 4) == 17160
    t0 = time.perf_counter()
    results = sample_many(g, engine.SamplerConfig(q=q, master_seed=2717), n_samples)
    elapsed = time.perf_counter() - t0
    gof = oracle.goodness_of_fit([r.coloring for r in results], universe)
    null_mean, null_sd = oracle.null_tv_moments(n_samples, len(universe))
    chi_ok = gof.pvalue > 1e-3
    # The plug-in TV of a perfect sampler floors near 0.117 at 11.7 samples
    # per cell, so it is tested against that null rather than read as a
    # distance: the gate rejects any excess above ~0.002 over the floor.
    tv_ok = gof.tv_pvalue > 1e-3
    time_ok = elapsed < 300
    detail = (
        f"chi2 = {gof.chi2:.1f} (df {gof.n_cells - 1}), p = {gof.pvalue:.4f} "
        f"[{'ok' if chi_ok else 'FAIL'}]; plug-in tv = {gof.tv:.4f} against a "
        f"perfect-sampler null of {null_mean:.4f} +- {null_sd:.4f}, "
        f"tv_p = {gof.tv_pvalue:.4f} [{'ok' if tv_ok else 'FAIL'}]; {elapsed:.0f}s "
        f"[{'ok' if time_ok else 'FAIL'}]"
    )
    report(1, chi_ok and tv_ok and time_ok, detail)
    assert chi_ok, detail
    assert time_ok, detail
    assert tv_ok, detail


def test_criterion_02_coalescence_rate():
    n_blocks = 200
    fractions = {}
    for delta in (6, 8):
        q = math.ceil(engine.regime_threshold(delta)) + 1
        for n in (100, 200):
            g = gen_random_regular(n, delta, seed=1)
            stream = SeedStream(97 + delta + n)
            part = engine.lll_partition(g, stream)
            cfg = engine.SamplerConfig(q=q, master_seed=stream.master_seed)
            schedule = engine.schedule_for(g, cfg, part)
            hits = 0
            for t in range(1, n_blocks + 1):
                block = engine.construct_block(schedule, t, stream)
                hits += block.phi is not None
                assert block.seeding_fallbacks == 0
                assert block.disjoint_fallbacks == 0
            fractions[(delta, n, q)] = hits / n_blocks
    ok = all(f >= 0.40 for f in fractions.values())
    detail = ", ".join(
        f"(d={d}, n={n}, q={q}): {f:.3f}" for (d, n, q), f in fractions.items()
    )
    report(2, ok, f"coalescing fraction over {n_blocks} blocks: {detail}")
    assert ok, detail


def test_criterion_03_seeding_size_law():
    r3 = cp.seeding_size_law(24, 12, 30).r(3)
    assert r3 == pytest.approx(6 * 23 / 216, abs=1e-12)
    results = vf.size_law_suite(24, 12, 30, n_draws=100_000, master_seed=303)
    ok = all(r.passed for r in results)
    detail = "; ".join(f"{r.name}" + (f" [{r.detail}]" if r.detail else "") for r in results)
    report(3, ok, detail)
    assert ok, detail


def test_criterion_04_marginal_correctness_all_couplings():
    n = 100_000
    results = []
    results += vf.compress_suite(n_draws=n, master_seed=404)
    results += vf.seeding_suite(n_draws=n, master_seed=405, label="mixed-law")
    results += vf.seeding_suite(
        law=cp.seeding_size_law(5, 3, 8), n_draws=n, master_seed=406, label="regime-law"
    )
    results += vf.disjoint_suite("paired", n_draws=n, master_seed=407)
    results += vf.disjoint_suite("entangled", n_draws=n, master_seed=408)
    ok = all(r.passed for r in results)
    failures = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    detail = f"{len(results)} checks at {n} decodes each" + (
        f"; failures: {failures}" if failures else ""
    )
    report(4, ok, detail)
    assert ok, detail


def test_criterion_05_phase_invariants(monkeypatch):
    # Record the list size after every seeding and disjoint update, with the
    # slack size read before it. A vertex is preserved right after its own
    # update in its phase, so its phase-end list is the one that update
    # produced.
    sizes = {"seeding": [], "disjoint": []}

    def recording(update, seen):
        def wrapper(state, v):
            slack = bd.neighborhood_slack(state, v).bit_count()
            update(state, v)
            seen.append((v, state.lists[v].bit_count(), slack))

        return wrapper

    monkeypatch.setattr(bd, "apply_seeding", recording(bd.apply_seeding, sizes["seeding"]))
    monkeypatch.setattr(bd, "apply_disjoint", recording(bd.apply_disjoint, sizes["disjoint"]))
    runs = 0
    violations = []
    fixtures = [
        (gen_complete_bipartite(32), 105),
        (gen_random_regular(30, 6, seed=4), math.ceil(engine.regime_threshold(6)) + 1),
    ]
    for g, q in fixtures:
        for seed in range(25):
            stream = SeedStream(500 + seed)
            part = engine.lll_partition(g, stream)
            cfg = engine.SamplerConfig(q=q, master_seed=stream.master_seed)
            for seen in sizes.values():
                seen.clear()
            block = engine.construct_block(engine.schedule_for(g, cfg, part), 1, stream)
            runs += 1
            # a seeded list has one of the two sizes its slack's law draws
            for v, s, slack in sizes["seeding"]:
                law = cp.seeding_size_law(slack, g.max_degree, q)
                if s not in (law.lo, law.hi):
                    violations.append(("seeding", g.max_degree, seed, v, s, slack))
            for v, s, _ in sizes["disjoint"]:
                if s not in (1, 2):
                    violations.append(("disjoint", g.max_degree, seed, v, s))
            if {v for v, _, _ in sizes["seeding"]} != part.members:
                violations.append(("unseeded", g.max_degree, seed))
            # the drift updates any vertex; the conversion every vertex outside S
            if not set(range(g.n)) - part.members <= {v for v, _, _ in sizes["disjoint"]}:
                violations.append(("unconverted", g.max_degree, seed))
            if block.seeding_fallbacks or block.disjoint_fallbacks:
                violations.append(("fallback", g.max_degree, seed))
    ok = not violations
    report(5, ok, f"{runs} seeded runs, violations: {violations[:5] or 'none'}")
    assert ok, violations[:5]


def test_criterion_06_lll_partition_bounds():
    checked = 0
    worst_resamples = 0
    for g, seeds in [
        (gen_random_regular(100, 8, seed=1), range(5)),
        (gen_random_regular(200, 8, seed=2), range(5)),
        (gen_random_regular(400, 8, seed=3), range(3)),
        (gen_random_regular(1600, 8, seed=4), range(2)),
        (gen_random_regular(100, 6, seed=5), range(5)),
        (gen_complete_bipartite(32), range(10)),
        (gen_complete_bipartite(64), range(5)),
    ]:
        budget = math.ceil(10 * g.n / g.max_degree)
        for seed in seeds:
            part = engine.lll_partition(g, SeedStream(600 + seed))
            assert engine.audit_partition(g, part.members)
            assert part.resamples <= budget, (g.n, g.max_degree, part.resamples)
            worst_resamples = max(worst_resamples, part.resamples)
            checked += 1
    report(6, True, f"{checked} partitions audited exactly; max resamples {worst_resamples}")


def test_criterion_07_lp_characterization():
    results = vf.lp_grid_suite(3, 16)
    ok = all(r.passed for r in results)
    detail = "; ".join(f"{r.name}" + ("" if r.passed else f" [{r.detail}]") for r in results)
    report(7, ok, detail)
    assert ok, detail


def test_criterion_08_lower_bound_obstruction():
    bad = []
    for delta in range(4, 21, 2):
        m = delta // 2
        for q in range(3 * m, math.ceil(2.5 * delta - 1)):
            if not q < 2.5 * delta - 1:
                continue
            val = oracle.lower_bound_value(delta, q)
            if not val > 2:
                bad.append((delta, q, val))
    inst = oracle.build_worst_case(4, 8)
    audit = oracle.audit_seeding_at_worst_case(inst, trials=100_000, master_seed=808)
    ci_ok = audit.compatible and audit.ci_lo > 2.0
    ok = not bad and ci_ok
    detail = (
        f"analytic floor > 2 on the full grid ({'ok' if not bad else bad[:3]}); "
        f"seeding at (4, 8): mean {audit.mean:.4f}, 95% CI "
        f"[{audit.ci_lo:.4f}, {audit.ci_hi:.4f}], "
        f"analytic floor {oracle.lower_bound_value(4, 8)}"
    )
    report(8, ok, detail)
    assert ok, detail


def test_criterion_09_disjoint_success_probability():
    results = vf.disjoint_suite("paired", n_draws=100_000, master_seed=909)
    by_name = {r.name: r for r in results}
    rate_check = next(r for name, r in by_name.items() if "singleton rate" in name)
    ok = all(r.passed for r in results)
    report(9, ok, rate_check.detail + " (bound 2/3 per the pairing formula)")
    assert ok, [r.name for r in results if not r.passed]


def test_criterion_10_scaling_sanity():
    delta = 8
    q = math.ceil(engine.regime_threshold(delta)) + 1
    sizes = [100, 200, 400, 800, 1600]
    runs = 5
    mean_updates = []
    all_blocks = []
    for n in sizes:
        g = gen_random_regular(n, delta, seed=10 + n)
        totals = []
        for seed in range(runs):
            r = engine.sample(g, engine.SamplerConfig(q=q, master_seed=1000 + seed))
            totals.append(r.updates)
            all_blocks.append(r.blocks_used)
        mean_updates.append(sum(totals) / runs)
    x = np.array([n * math.log(n) for n in sizes])
    y = np.array(mean_updates)
    c = float((x * y).sum() / (x * x).sum())
    ss_res = float(((y - c * x) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    mean_blocks = sum(all_blocks) / len(all_blocks)
    ok = r2 >= 0.95 and mean_blocks <= 2.5
    detail = (
        f"updates vs n*ln(n): c = {c:.2f}, R^2 = {r2:.4f}; "
        f"mean blocks/sample = {mean_blocks:.2f} over {len(all_blocks)} runs"
    )
    report(10, ok, detail)
    assert ok, detail
