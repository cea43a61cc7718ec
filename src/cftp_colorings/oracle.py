"""Ground-truth machinery: exact enumeration, distribution tests, and the
worst-case configuration that blocks two-to-one list contraction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import couplings as cp
from .colorsets import ColorSet
from .errors import CouplingRegimeError, EnumerationBudgetError
from .graphs import Graph

if TYPE_CHECKING:
    from fractions import Fraction

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


def worst_case_lists(delta: int) -> tuple[ColorSet, ...]:
    """The lists on vertex 0's delta neighbors in the worst case, for any q.

    Neighbors 2k and 2k+1 form pair k+1 and hold the 0-indexed lists
    {3k, 3k+1} and {3k+1, 3k+2}, so the neighborhood splits into pairs whose
    lists share exactly one color, and lists of different pairs are disjoint.
    The host is K_{delta,delta}, each side holding these lists in this order.
    """
    if delta < 2 or delta % 2 != 0:
        raise ValueError(f"construction needs an even degree >= 2; try {delta + 1}")
    return tuple(pair << 3 * k for k in range(delta // 2) for pair in (0b011, 0b110))


def lower_bound_value(delta: int, q: int) -> float:
    """Analytic floor on the expected updated-list size at a worst-case vertex.

    With delta = 2m and q = 3m + r, the floor is 2m/(m+r+1) + m/(m+r) + 1;
    it exceeds 2 exactly in the color range where two-to-one contraction is
    impossible.
    """
    worst_case_lists(delta)  # validates delta
    m = delta // 2
    r = q - 3 * m
    if r < 0:
        raise ValueError(f"need q >= 3 * delta / 2 = {3 * m}, got {q}")
    return 2.0 * m / (m + r + 1) + 1.0 * m / (m + r) + 1.0


def worst_case_seeding_law(
    lists: tuple[ColorSet, ...], delta: int, q: int
) -> tuple[ColorSet, cp.SizeLaw | None]:
    """The slack set of a vertex whose neighbors hold lists, and the seeding
    size law of least expected size there.

    A seeding prediction holds exactly as many colors as its drawn size, so
    the law's expected_size is the coupling's expected new list size at the
    vertex. The law is the least-expected-size vertex of
    relaxed_lp_vertices, not seeding_size_law: the worst case can need sizes
    above 3, where the sampler's law raises. It is None when the relaxed
    program has no vertex or its optimum breaks a row of the full LP.
    """
    s_mask = cp.disjoint_pair_scan(lists)[0]
    try:
        inst_lp = cp.LPInstance(s_mask.bit_count(), delta, q)
        law = min(cp.relaxed_lp_vertices(inst_lp), key=lambda v: v.expected_size, default=None)
        if law is not None and cp.verify_full_lp(inst_lp, law):
            law = None
    except (CouplingRegimeError, ValueError):
        law = None
    return s_mask, law


def worst_case_disjoint_size(lists: tuple[ColorSet, ...], delta: int, q: int) -> Fraction | None:
    """The exact expected new list size, under the shipped disjoint coupling,
    of a vertex whose neighbors hold lists, or None where its layout raises
    CouplingRegimeError.

    A pair slot and a color slot each predict two colors and the leftover
    one, so the mean is 2 - leftover; a Fraction q keeps the layout exact.
    fractions loads here, not on import: ``verification.sample_many``
    imports this module and runs without it.
    """
    from fractions import Fraction

    try:
        params = cp.disjoint_params_from_lists(Fraction(q), delta, lists)
    except CouplingRegimeError:
        return None
    return 2 - params.leftover
