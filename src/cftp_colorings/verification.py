"""Built-in correctness suites.

These drive the couplings and the full sampler against their distributional
contracts: decode marginals uniform over available colors for every blocked
set, decode outputs contained in predicted sets, size laws matching their
closed forms, LP feasibility across the parameter grid, and end-to-end
uniformity against exact enumeration. The CLI's verify command and the
acceptance tests both run these with different sample budgets.

Every chi-square p-value comes from oracle.gof_from_counts. lp_grid is the
one definition of the LP parameter grid; the lpaudit command tabulates the
same points, and a grid with no points fails its check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cache, partial

from . import couplings as cp
from . import engine, oracle
from .colorsets import full_mask, mask_from, members
from .graphs import Graph, gen_cycle
from .seedstream import SeedStream, raw64

P_THRESHOLD = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _subsets_up_to(colors: list[int], k: int):
    for r in range(k + 1):
        yield from itertools.combinations(colors, r)


def _decode_marginals(tag, q, predict, decode, blocked_sets, n_draws, master_seed,
                      per=" decodes"):
    """Decode n_draws predicted draws against every blocked set.

    predict(key) gives (predicted set, draw) and decode(draw, blocked) a
    color. Returns the containment check, the worst chi-square marginal
    check (per follows the draw count in its name), and the (predicted set,
    draw) pairs for suite-specific checks. A decoded color outside the
    available colors gives that blocked set p = 0.
    """
    counts = [dict() for _ in blocked_sets]
    stream = SeedStream(master_seed)
    containment_ok = True
    predictions = []
    for i in range(n_draws):
        predicted, draw = predict(stream.subkey(1, i))
        predictions.append((predicted, draw))
        for j, blocked in enumerate(blocked_sets):
            c = decode(draw, blocked)
            if not predicted >> c & 1 or blocked >> c & 1:
                containment_ok = False
            d = counts[j]
            d[c] = d.get(c, 0) + 1
    worst_p, worst = 1.0, None
    for j, blocked in enumerate(blocked_sets):
        support = members(full_mask(q) & ~blocked)
        if set(counts[j]) - set(support):
            p = 0.0
        else:
            p = oracle.gof_from_counts([counts[j].get(c, 0) for c in support]).pvalue
        if p < worst_p:
            worst_p, worst = p, members(blocked)
    marginals = CheckResult(
        f"{tag} marginals ({len(blocked_sets)} blocked sets x {n_draws}{per})",
        worst_p > P_THRESHOLD,
        f"worst p = {worst_p:.2e} at blocked = {worst}",
    )
    return CheckResult(f"{tag} containment", containment_ok), marginals, predictions


def compress_suite(
    n_draws: int = 20_000,
    master_seed: int = 2024,
    draw=cp.compress_draw,
) -> list[CheckResult]:
    """Exhaustive marginal and containment check for compress; draw has the
    signature of couplings.compress_draw."""
    q, delta = 6, 3
    a_mask = mask_from((1, 2, 3))
    outside = cp.compress_outside(a_mask, q)

    def predict(key):
        # one draw is decoded against every blocked set: walk its shuffle
        # and hash u' once
        d = draw(a_mask, outside, key, raw64(key, 0), raw64(key, 2))
        return a_mask | 1 << d.x_prime, d._replace(pi=tuple(d.pi), u_prime=cache(d.u_prime))

    blocked_sets = [mask_from(s) for s in _subsets_up_to(list(range(q)), delta)]
    containment, marginals, _ = _decode_marginals(
        "compress", q, predict, partial(cp.compress_decode, a_mask, q),
        blocked_sets, n_draws, master_seed,
    )
    return [containment, marginals]


def seeding_suite(
    law: cp.SizeLaw = cp.SizeLaw(2, 3, 0.4),
    n_draws: int = 20_000,
    master_seed: int = 77,
    label: str = "",
    predict=cp.seeding_predict,
) -> list[CheckResult]:
    """Marginals over every blocked subset of the slack set, plus containment.

    predict has the signature of couplings.seeding_predict.
    """
    delta, q = 3, 8
    s_mask = mask_from((1, 2, 3, 4, 5))
    tag = f"seeding[{label}]" if label else "seeding"
    violations = cp.verify_full_lp(cp.LPInstance(s_mask.bit_count(), delta, q), law)
    c_sets = [mask_from(s) for s in _subsets_up_to(members(s_mask), delta)]
    containment, marginals, predictions = _decode_marginals(
        tag, q, partial(predict, s_mask, law, q),
        partial(cp.seeding_decode, s_mask, law, q), c_sets, n_draws, master_seed,
    )
    # the prefix holds distinct slack colors and c0 is free, so the predicted
    # set has the drawn size len(prefix) + 1
    draws_ok = all(
        mask_from(draw.prefix).bit_count() == len(draw.prefix)
        and not mask_from(draw.prefix) & ~s_mask
        and not s_mask >> draw.c0 & 1
        for _, draw in predictions
    )
    return [
        CheckResult(f"{tag} law feasible", not violations, f"violations: {violations[:2]}"),
        containment,
        CheckResult(f"{tag} prefix distinct inside the slack set, c0 outside it", draws_ok),
        marginals,
    ]


DISJOINT_FIXTURES = {
    # all lists either singletons or mutually disjoint pairs
    "paired": (10, 4, ({1, 2}, {3, 4}, {5}, {6})),
    # one triangle of entangled lists alongside a surviving pair
    "entangled": (10, 4, ({1, 2}, {2, 3}, {4, 5}, {6})),
}


def realizable_blocked_sets(neighbor_lists) -> list[int]:
    masks = set()
    for combo in itertools.product(*[members(m) for m in neighbor_lists]):
        masks.add(mask_from(combo))
    return sorted(masks)


def disjoint_suite(
    fixture: str = "paired",
    n_draws: int = 20_000,
    master_seed: int = 5,
) -> list[CheckResult]:
    """Marginals over every realizable blocked set of a small fixture."""
    q, delta, raw_lists = DISJOINT_FIXTURES[fixture]
    neighbor_lists = [mask_from(s) for s in raw_lists]
    params = cp.disjoint_params_from_lists(q, delta, neighbor_lists)
    tag = f"disjoint[{fixture}]"

    def predict(key):
        return cp.disjoint_predict(params, key, raw64(key, 0), raw64(key, 2))

    containment, marginals, predictions = _decode_marginals(
        tag, q, predict, partial(cp.disjoint_decode, params),
        realizable_blocked_sets(neighbor_lists), n_draws, master_seed, per="",
    )
    sizes = [predicted.bit_count() for predicted, _ in predictions]
    frac = sizes.count(1) / n_draws
    bound = params.leftover
    sigma = math.sqrt(max(bound * (1 - bound), 1e-12) / n_draws)
    return [
        containment,
        CheckResult(f"{tag} predicted sizes in {{1,2}}", all(k in (1, 2) for k in sizes)),
        CheckResult(
            f"{tag} singleton rate >= bound - 3 sigma",
            frac >= bound - 3 * sigma,
            f"rate = {frac:.4f}, bound = {bound:.4f}",
        ),
        marginals,
    ]


def size_law_suite(
    s_size: int, delta: int, q: int, n_draws: int = 20_000, master_seed: int = 31
) -> list[CheckResult]:
    """Empirical size frequencies of the seeding coupling against its law."""
    law = cp.seeding_size_law(s_size, delta, q)
    s_mask = full_mask(s_size)
    stream = SeedStream(master_seed)
    sizes = [
        cp.seeding_predict(s_mask, law, q, stream.subkey(1, i))[0].bit_count()
        for i in range(n_draws)
    ]
    lo, hi, p_lo = law.lo, law.hi, law.p_lo
    sigma = math.sqrt(p_lo * (1 - p_lo) / n_draws)
    frac = sizes.count(lo) / n_draws
    tag = f"seeding size law at |S|={s_size}, delta={delta}, q={q}"
    return [
        CheckResult(
            f"{tag}: sizes in {{{lo},{hi}}} ({n_draws} draws)",
            all(k in (lo, hi) for k in sizes),
        ),
        CheckResult(
            f"{tag}: size-{lo} frequency within 3 sigma",
            abs(frac - p_lo) <= 3 * sigma,
            f"freq = {frac:.5f}, law P({lo}) = {p_lo:.5f}, sigma = {sigma:.5f}",
        ),
    ]


def lp_grid(delta_lo: int, delta_hi: int):
    """The (delta, s_size, q) points of the size-law LP grid.

    delta_lo..delta_hi, delta < |S| <= 2 delta and 7 delta / 3 <= q <= 3 delta,
    with |S| < q.
    """
    for delta in range(delta_lo, delta_hi + 1):
        for s_size in range(delta + 1, 2 * delta + 1):
            for q in range(max(math.ceil(7 * delta / 3), s_size + 1), 3 * delta + 1):
                yield delta, s_size, q


def lp_grid_suite(delta_lo: int = 3, delta_hi: int = 16) -> list[CheckResult]:
    """The sampler's law, seeding_size_law, across the parameter grid.

    At every point it must satisfy every row of the full LP, and its expected
    size must equal the optimum found by enumerating relaxed_lp_vertices. An
    empty grid fails: it checks nothing.
    """
    points = list(lp_grid(delta_lo, delta_hi))
    infeasible = []
    suboptimal = []
    for delta, s_size, q in points:
        inst = cp.LPInstance(s_size, delta, q)
        law = cp.seeding_size_law(s_size, delta, q)
        violations = cp.verify_full_lp(inst, law)
        if violations:
            infeasible.append((delta, s_size, q, violations[:1]))
        best = min(v.expected_size for v in cp.relaxed_lp_vertices(inst))
        if abs(law.expected_size - best) > 1e-12:
            suboptimal.append((delta, s_size, q, law.expected_size, best))
    return [
        CheckResult(
            f"seeding_size_law satisfies all rows on {len(points)} grid points",
            bool(points) and not infeasible,
            f"violations: {infeasible[:3]}",
        ),
        CheckResult(
            "seeding_size_law matches vertex-enumeration optimum",
            not suboptimal,
            f"suboptimal: {suboptimal[:3]}",
        ),
    ]


def sample_many(g: Graph, base_config: engine.SamplerConfig, n: int):
    """Independent samples with per-index derived master seeds."""
    out = []
    for i in range(n):
        cfg = replace(base_config, master_seed=raw64(base_config.master_seed, i))
        out.append(engine.sample(g, cfg))
    return out


def uniformity_suite(
    n_samples: int = 4000,
    master_seed: int = 99,
) -> list[CheckResult]:
    """End-to-end uniformity of the sampler on a cycle, against enumeration."""
    g = gen_cycle(3)
    q = 6
    universe = oracle.enumerate_colorings(g, q)
    cfg = engine.SamplerConfig(q=q, master_seed=master_seed, force=True)
    results = sample_many(g, cfg, n_samples)
    gof = oracle.goodness_of_fit([r.coloring for r in results], universe)
    return [
        CheckResult(
            f"sampler uniformity on C3, q=6 ({n_samples} samples, {gof.n_cells} cells)",
            gof.pvalue > P_THRESHOLD,
            f"chi2 = {gof.chi2:.1f}, p = {gof.pvalue:.4f}, "
            f"tv = {gof.tv:.4f} (uniform-null p = {gof.tv_pvalue:.4f})",
        )
    ]


def default_verify(full: bool = False) -> list[CheckResult]:
    n = 100_000 if full else 20_000
    out = []
    out += compress_suite(n_draws=n)
    out += seeding_suite(n_draws=n, label="mixed-law")
    out += seeding_suite(law=cp.seeding_size_law(5, 3, 8), n_draws=n, label="regime-law")
    out += disjoint_suite("paired", n_draws=n)
    out += disjoint_suite("entangled", n_draws=n)
    out += size_law_suite(24, 12, 30, n_draws=n)
    out += size_law_suite(8, 4, 16, n_draws=n)
    out += uniformity_suite(n_samples=8000 if full else 3000)
    return out
