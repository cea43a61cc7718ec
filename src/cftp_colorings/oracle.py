"""Ground-truth machinery: exact enumeration, distribution tests, and the
worst-case configuration that blocks two-to-one list contraction."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import couplings as cp
from .colorsets import ColorSet, mask_from
from .errors import CouplingRegimeError, EnumerationBudgetError
from .graphs import Graph, build_graph, gen_complete_bipartite
from .seedstream import SeedStream

ENUMERATION_BUDGET = 10_000_000


def enumerate_colorings(g: Graph, q: int) -> list[tuple[int, ...]]:
    """All proper colorings by backtracking over vertices in index order."""
    if q**g.n > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"about q^n = {q**g.n:.3g} assignments; refusing beyond {ENUMERATION_BUDGET:.3g}"
        )
    earlier = [tuple(u for u in g.adjacency[v] if u < v) for v in range(g.n)]
    out: list[tuple[int, ...]] = []
    coloring = [0] * g.n

    def extend(v: int) -> None:
        if v == g.n:
            out.append(tuple(coloring))
            return
        used = {coloring[u] for u in earlier[v]}
        for c in range(q):
            if c not in used:
                coloring[v] = c
                extend(v + 1)

    extend(0)
    return out


@dataclass(frozen=True)
class GofResult:
    chi2: float
    pvalue: float
    tv: float
    tv_pvalue: float
    n_samples: int
    n_cells: int


def goodness_of_fit(samples, universe) -> GofResult:
    """Pearson chi-square and plug-in total variation against uniform.

    Any sample outside the universe means the sampler emitted an improper
    coloring and is reported as a hard failure.
    """
    index = {c: i for i, c in enumerate(universe)}
    counts = [0] * len(universe)
    for s in samples:
        i = index.get(tuple(s))
        if i is None:
            raise AssertionError(f"sample {s!r} is outside the enumerated universe")
        counts[i] += 1
    return gof_from_counts(counts)


def gof_from_counts(counts) -> GofResult:
    """The statistics of `goodness_of_fit`, from per-cell counts.

    `tv` is the plug-in distance, which a perfectly uniform source keeps well
    above zero when cells are sparsely sampled; `tv_pvalue` is the one-sided
    probability, under that uniform source, of a plug-in TV at least as large.

    numpy and scipy load here, on the first call, not when the module is
    imported: the sampler, ``verification.sample_many`` and the CLI run
    without them, and importing them costs more than a small sample's set-up.
    """
    import numpy as np
    from scipy.special import chdtrc, ndtr

    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    m = len(counts)
    expected = n / m
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # the chi-square and normal survival functions, without loading scipy.stats
    pvalue = float(chdtrc(m - 1, chi2))
    tv = float(np.abs(counts / n - 1.0 / m).sum() / 2.0)
    mean, sd = null_tv_moments(n, m)
    tv_pvalue = float(ndtr(-(tv - mean) / sd))
    return GofResult(
        chi2=chi2, pvalue=pvalue, tv=tv, tv_pvalue=tv_pvalue, n_samples=n, n_cells=m
    )


def null_tv_moments(n_samples: int, n_cells: int) -> tuple[float, float]:
    """Mean and standard deviation of the plug-in TV of a uniform source.

    Each cell count is taken as Poisson with mean lambda = n/m, whose mean
    absolute deviation is 2 e^-lambda lambda^(f+1) / f! with f = floor(lambda)
    and whose absolute deviation has variance lambda - MAD^2. The TV is the
    sum of the m deviations over 2n; treating it as normal with these
    moments is a large-m approximation.
    """
    lam = n_samples / n_cells
    f = math.floor(lam)
    mad = 2.0 * math.exp(-lam + (f + 1) * math.log(lam) - math.lgamma(f + 1))
    mean = n_cells * mad / (2.0 * n_samples)
    sd = math.sqrt(n_cells * (lam - mad * mad)) / (2.0 * n_samples)
    return mean, sd


# ---------------------------------------------------------------------------
# Worst-case two-to-one obstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerBoundInstance:
    graph: Graph
    lists: tuple[ColorSet, ...]
    delta: int
    q: int


def lower_bound_value(delta: int, q: int) -> float:
    """Analytic floor on the expected updated-list size at a worst-case vertex.

    With delta = 2m and q = 3m + r, the floor is 2m/(m+r+1) + m/(m+r) + 1;
    it exceeds 2 exactly in the color range where two-to-one contraction is
    impossible.
    """
    if delta < 2 or delta % 2 != 0:
        raise ValueError(f"construction needs an even degree >= 2; try {delta + 1}")
    m = delta // 2
    r = q - 3 * m
    if r < 0:
        raise ValueError(f"need q >= 3 * delta / 2 = {3 * m}, got {q}")
    return 2.0 * m / (m + r + 1) + 1.0 * m / (m + r) + 1.0


def build_worst_case(delta: int, q: int, copies: int = 1) -> LowerBoundInstance:
    """Disjoint copies of the complete bipartite host with triangle lists.

    Vertices 2k, 2k+1 of each side form pair k+1 and receive the 0-indexed
    lists {3k, 3k+1} and {3k+1, 3k+2}, so every vertex's neighborhood splits
    into pairs whose lists overlap in exactly one color.
    """
    lower_bound_value(delta, q)  # validates delta and q
    if copies < 1:
        raise ValueError("need at least one copy")
    m = delta // 2
    base = gen_complete_bipartite(delta)
    edges = []
    for c in range(copies):
        off = 2 * delta * c
        edges.extend((u + off, v + off) for u, v in base.edges)
    graph = build_graph(2 * delta * copies, edges)
    side_lists = []
    for k in range(m):
        side_lists.append(mask_from((3 * k, 3 * k + 1)))
        side_lists.append(mask_from((3 * k + 1, 3 * k + 2)))
    lists = tuple(side_lists[i % delta] for i in range(graph.n))
    inst = LowerBoundInstance(graph=graph, lists=lists, delta=delta, q=q)
    if not audit_worst_case(inst):
        raise AssertionError("worst-case instance failed its triangle audit")
    return inst


def audit_worst_case(inst: LowerBoundInstance) -> bool:
    """Every vertex's neighborhood must split into triangle pairs."""
    g = inst.graph
    for v in range(g.n):
        lists = [inst.lists[u] for u in g.adjacency[v]]
        if any(m_.bit_count() != 2 for m_ in lists):
            return False
        if not _triangle_matching(lists):
            return False
    return True


def _triangle_matching(lists) -> bool:
    if len(lists) % 2 != 0:
        return False
    if not lists:
        return True
    first = lists[0]
    rest = lists[1:]
    for i, other in enumerate(rest):
        if (first | other).bit_count() == 3:
            if _triangle_matching(rest[:i] + rest[i + 1 :]):
                return True
    return False


@dataclass(frozen=True)
class CouplingAudit:
    mean: float
    ci_lo: float
    ci_hi: float
    compatible: bool


def worst_case_seeding_law(inst: LowerBoundInstance) -> tuple[ColorSet, cp.SizeLaw | None]:
    """Vertex 0's slack set, and the size law the seeding audit draws from.

    The law is the least-expected-size vertex of relaxed_lp_vertices, not
    seeding_size_law: the worst case can need sizes above 3, where the
    sampler's law raises. It is None when the relaxed program has no vertex
    or its optimum breaks a row of the full LP.
    """
    s_mask = cp.disjoint_pair_scan([inst.lists[u] for u in inst.graph.adjacency[0]])[0]
    try:
        inst_lp = cp.LPInstance(s_mask.bit_count(), inst.delta, inst.q)
        law = min(cp.relaxed_lp_vertices(inst_lp), key=lambda v: v.expected_size, default=None)
        if law is not None and cp.verify_full_lp(inst_lp, law):
            law = None
    except (CouplingRegimeError, ValueError):
        law = None
    return s_mask, law


def audit_seeding_at_worst_case(
    inst: LowerBoundInstance,
    trials: int = 100_000,
    master_seed: int = 0,
) -> CouplingAudit:
    """Monte Carlo estimate of the seeding coupling's predicted-set size at a
    worst-case vertex, under worst_case_seeding_law.

    A slack set with no such law is reported as incompatible rather than
    failing.
    """
    s_mask, law = worst_case_seeding_law(inst)
    if law is None:
        return CouplingAudit(math.nan, math.nan, math.nan, False)

    stream = SeedStream(master_seed)
    total = 0
    total_sq = 0
    for i in range(trials):
        predicted, _ = cp.seeding_predict(s_mask, law, inst.q, stream.subkey(1, i))
        s = predicted.bit_count()
        total += s
        total_sq += s * s
    mean = total / trials
    var = max(0.0, total_sq / trials - mean * mean)
    half = 1.96 * math.sqrt(var / trials)
    return CouplingAudit(mean, mean - half, mean + half, True)
