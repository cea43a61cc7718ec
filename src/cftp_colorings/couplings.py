"""Local grand couplings for single-site recoloring updates.

Each coupling turns one addressed seed into (a) a predicted bounding set for
the updated vertex, valid for every neighbor configuration consistent with
the current bounding lists, and (b) a decode rule that, given the realized
set of blocked colors, returns a color with marginal Uniform([q] \\ blocked).

Three constructions are provided:

* compress: predicted set is a fixed reference set A (|A| = max degree)
  plus one uniform extra color; always available, never shrinks lists
  below |A| + 1. compress_predict gives a whole batch's predicted sets,
  one per word 0; a carried update reads its set from compress_draw.
* seeding: predicted set is a short random prefix of a permutation of the
  neighborhood slack plus one free color; its size law is two-point
  (SizeLaw(lo, hi, p_lo)), the closed-form optimum of a small linear
  program (seeding_size_law); the program only checks it, and the decode's
  acceptance is its row |C|, read through lp_row as the checks read it.
* disjoint: predicted set has size 1 or 2; exploits neighbors whose 2-color
  lists are disjoint from everything else, whose realized color always
  blocks exactly one of the two. When every neighbor list is a singleton,
  the layout has one slot and bounding.apply_disjoint draws only its
  reserve color (draw 2), without building the layout. An update that
  carries no coloring reads only draws 0 and 2 (disjoint_new_list); draw 1
  is read only by a carried color slot's decode.

Every color set a coupling takes or returns is an int mask (colorsets), the
disjoint pairs included; only a drawn permutation or prefix is ordered,
since its order is the draw. Each coupling draws one color uniformly outside
a mask (compress's extra color, seeding's free color, disjoint's reserve),
and outside_color is the one rule for it; compress applies the same rule to
the member list of [q] \\ A that one batch of compress updates builds for
all of them.

A kernel may leave out a draw that cannot change its output: draws are
addressed by index under the update's key, so a draw left untaken moves no
other draw. The acceptance variates of compress and disjoint (u' and v,
both draw 1) sit in their draw records as zero-argument callables, hashed
only when a decode reaches its acceptance test.

Every per-update record (CompressDraw, SeedingDraw, DisjointParams,
DisjointDraw) is a NamedTuple: as immutable as a frozen dataclass and several
times cheaper to build.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, count, islice, repeat
from math import comb
from typing import NamedTuple

from .colorsets import ColorSet, full_mask, iter_colors, mask_from, members, nth_outside
from .errors import CouplingRegimeError, EngineError
from .seedstream import randint_below, raw64, shuffle_walk, unit_from_word, unit_uniform

# Slack a feasibility row may exceed its bound by, for float rounding: the float
# seeding law exceeds an exact row by up to 5.4e-17 at 434 of the 1081
# lp_grid(3, 16) points, where fl(r1) > r1 (265 on {1, 2}) or fl(1 - fl(r3)) >
# 1 - r3 (169 on {2, 3}). So the check can be exact only once the low size's
# mass is rounded down or drawn exactly.
_LP_TOL = 1e-9


def outside_color(mask: ColorSet, q: int, word: int) -> int:
    """Uniform color of [q] outside mask, from one word (raw64(key, draw)):
    the randint_below(word, q - |mask|)-th color not in mask.

    mask must lie inside [q], since its size counts the colors it takes
    from [q]. A mask covering all of [q] raises ValueError."""
    return nth_outside(mask, randint_below(word, q - mask.bit_count()))


# ---------------------------------------------------------------------------
# Size laws and the feasibility LP
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SizeLaw:
    """Two-point law on bounding-set sizes: P(lo) = p_lo, P(hi) = 1 - p_lo.

    A point mass on k is SizeLaw(k, k, 1). With a Fraction p_lo, r,
    expected_size and seeding_acceptance stay exact.
    """

    lo: int
    hi: int
    p_lo: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"size law needs lo <= hi, got {self.lo} > {self.hi}")
        if not 0 <= self.p_lo <= 1:
            raise ValueError(f"size law needs 0 <= p_lo <= 1, got {self.p_lo}")

    @property
    def terms(self):
        """(size, mass) of lo, then of hi."""
        return (self.lo, self.p_lo), (self.hi, 1 - self.p_lo)

    def r(self, k: int) -> float:
        return (self.p_lo if k == self.lo else 0) + (1 - self.p_lo if k == self.hi else 0)

    @property
    def expected_size(self) -> float:
        return self.lo * self.p_lo + self.hi * (1 - self.p_lo)


@dataclass(frozen=True, slots=True)
class LPInstance:
    """Parameters of the size-law feasibility program, whose rows are lp_row's."""

    s_size: int
    delta: int
    q: int

    def __post_init__(self):
        if not (0 < self.delta < self.q):
            raise ValueError("need 0 < delta < q")
        if not (0 <= self.s_size < self.q):
            raise ValueError("need 0 <= |S| < q")


def lp_row(s_size: int, law: SizeLaw, q, j: int) -> tuple[float, float]:
    """Feasibility row j for a slack of s_size colors: (lhs, bound), held iff lhs <= bound.

    lhs = sum_k r_k C(j, k-1) / C(|S|, k-1), the chance that a drawn prefix of
    k-1 slack colors lies inside a fixed set of j of them, and bound =
    (q - |S|) / (q - j). The seeding decode's acceptance is row |C|, so lhs is
    summed in its float order; exact for a Fraction q and law.
    """
    lhs = 0
    for k, p in law.terms:
        if p > 0.0:
            den = comb(s_size, k - 1)
            if den == 0:
                raise CouplingRegimeError(f"size {k} unusable with slack of {s_size} colors")
            lhs += p * comb(j, k - 1) / den
    return lhs, (q - s_size) / (q - j)


def verify_full_lp(inst: LPInstance, law: SizeLaw) -> list[tuple[int, float, float]]:
    """Violated feasibility rows as (j, lhs, bound) triples; empty iff feasible.

    Rows 0..min(delta, |S|) can arise: row 0 is the update with nothing blocked,
    which binds a law with mass on size 1, and blocked colors inside the slack
    set number at most |S|. A law on a size the slack cannot hold raises
    lp_row's CouplingRegimeError.
    """
    violations = []
    for j in range(min(inst.delta, inst.s_size) + 1):
        lhs, bound = lp_row(inst.s_size, law, inst.q, j)
        if lhs > bound + _LP_TOL:
            violations.append((j, lhs, bound))
    return violations


def relaxed_lp_vertices(inst: LPInstance):
    """All vertices of the program relaxed to row delta, on sizes 1..delta, as size laws.

    Vertices are point masses on feasible sizes plus two-point mixtures that
    make row delta tight. The minimum expected size among them is an optimum
    found independently of seeding_size_law's closed form.
    """
    zs = {}
    for k in range(1, inst.delta + 1):
        zs[k], w = lp_row(inst.s_size, SizeLaw(k, k, 1), inst.q, inst.delta)
    out = []
    for k, zk in zs.items():
        if zk <= w + 1e-15:
            out.append(SizeLaw(k, k, 1.0))
    ks = sorted(zs)
    for a in ks:
        for b in ks:
            if a >= b or abs(zs[a] - zs[b]) < 1e-15:
                continue
            r_a = (w - zs[b]) / (zs[a] - zs[b])
            if 0.0 <= r_a <= 1.0:
                out.append(SizeLaw(a, b, r_a))
    return out


# ---------------------------------------------------------------------------
# Compress
# ---------------------------------------------------------------------------
#
# Draw layout at an update key: draw 0 selects the extra color x' from
# [q] \ A, draw 1 is the acceptance variate u' (hashed only when the
# decode finds x' unblocked), draws 2.. drive the
# Fisher-Yates shuffle of A (ascending order). The caller supplies words 0
# and 2 (bounding.BoundingState reads them from its key batch when it has
# one). The shuffle is a walk: step i >= 1 hashes word 2 + i from the key
# only when the decode asks for color i.
# Every compress update of one batch (a cleanup's targets, or a fallback's
# v) shares A, so bounding.apply_compress builds [q] \ A once
# (compress_outside) and each update indexes it: a built batch for all its
# words in one compress_predict call, a carried one draw by draw
# (compress_draw), whose x' gives the new list.


class CompressDraw(NamedTuple):
    # shuffled(key, 2, A): compress_draw's one-pass walk, or any sequence
    pi: Iterable[int]
    x_prime: int
    u_prime: Callable[[], float]  # draw 1; the decode calls it only when x' is unblocked


def compress_outside(a_mask: ColorSet, q: int) -> list[int]:
    """Members of [q] \\ A in ascending order: the range of the extra color."""
    if a_mask.bit_count() >= q:
        raise CouplingRegimeError("compress needs at least one color outside A")
    return members(full_mask(q) & ~a_mask)


def compress_extra_color(outside: list[int], word: int) -> int:
    """Word 0 (raw64(key, 0)) indexes compress_outside's list; the color
    equals outside_color(A, q, word), since the list's i-th member is
    nth_outside(A, i)."""
    return outside[randint_below(word, len(outside))]


def compress_draw(
    a_mask: ColorSet, outside: list[int], key: int, w0: int, w2: int
) -> CompressDraw:
    """The whole draw at key, given its words 0 and 2 (raw64(key, 0) and
    raw64(key, 2)); a carried update's new list is A + {draw.x_prime}.

    pi walks shuffled(key, 2, A): step 0 reads w2, step i >= 1 hashes word
    2 + i when color i is asked for. To decode a draw twice, tuple pi first.
    """
    x_prime = compress_extra_color(outside, w0)
    pi = shuffle_walk(iter_colors(a_mask), chain((w2,), map(raw64, repeat(key), count(3))))
    return CompressDraw(pi=pi, x_prime=x_prime, u_prime=partial(unit_uniform, key, 1))


def compress_predict(a_mask: ColorSet, outside: list[int], words: list[int]) -> list[ColorSet]:
    """Predicted bounding sets A + {x'}, one per word 0 (raw64(key, 0)),
    without the permutation: a built compress batch's new lists in one call.
    x' is compress_extra_color's, its multiply-shift (randint_below's)
    written out; outside is never empty (compress_outside)."""
    n = len(outside)
    return [a_mask | 1 << outside[(w * n) >> 64] for w in words]


def compress_accept(q, delta: int, n_blocked: int):
    """Chance of emitting an unblocked x' given |C| blocked; exact for a Fraction q."""
    return (q - delta) / (q - n_blocked)


def compress_decode(a_mask: ColorSet, q: int, draw: CompressDraw, blocked: ColorSet) -> int:
    """Color for the realized blocked set; uniform on [q] \\ blocked."""
    delta = a_mask.bit_count()
    n_blocked = blocked.bit_count()
    if n_blocked > delta:
        raise EngineError(f"blocked set of size {n_blocked} exceeds |A| = {delta}")
    if not blocked >> draw.x_prime & 1:
        if draw.u_prime() < compress_accept(q, delta, n_blocked):
            return draw.x_prime
    for y in draw.pi:
        if not blocked >> y & 1:
            return y
    raise EngineError("compress decode found no available color; blocked set impossible")


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------
#
# Draw layout: draw 0 samples the target size K from the size law, draw 1
# picks the free color c0 outside the slack set, draw 2 is the acceptance
# variate u', draws 3.. drive the shuffle of the slack set (only the first
# K-1 positions are ever materialized).


class SeedingDraw(NamedTuple):
    prefix: tuple[int, ...]  # the drawn size K is len(prefix) + 1
    c0: int
    u_prime: float


def seeding_size_law(s_size: int, delta: int, q) -> SizeLaw:
    """The feasibility LP's optimum for a slack set of s_size colors; exact for a Fraction q.

    Rows j <= min(delta, |S|) arise. Row |S|, when |S| <= delta, reads 1 <= 1
    for any law, so the binding row is J = min(delta, |S|-1), and J < |S|.

    Sizes 1 or 2, when |S|+J <= q: P(1) = r1 = (q-|S|-J) / (q-J). For a law on
    {1, 2}, row j < |S| holds iff r1 <= (q-|S|-j) / (q-j) = 1 - |S|/(q-j),
    a bound that falls as j grows, so row J is tight and rows j < J hold.

    Sizes 2 or 3, otherwise: P(3) = r3 = (|S|-1)(|S|+J-q) / (J(q-J)) makes
    row J tight. With c = r3 / (|S|-1), row j holds iff (|S|-j) phi(j) >= 0,
    phi(j) = q-|S|-j + c j (q-j): phi is concave with phi(0) = q-|S| > 0 and
    phi(J) = 0, so phi >= 0 on [0, J].

    Optimal: relaxed to row J alone, the program weighs size k by
    z(k) = C(J, k-1) / C(|S|, k-1), decreasing and convex in k since J < |S|,
    so its optimum sits on the two consecutive sizes around the bound w.
    z(1) = 1 > w, z(2) <= w iff |S|+J <= q, and z(3) <= w iff r3 <= 1. The
    law above is that optimum, and it holds every row. So the sampler runs no
    LP; the checks do. r3 > 1 raises CouplingRegimeError, and the caller
    falls back to compress.
    """
    if q <= delta:
        raise CouplingRegimeError("seeding needs q > delta")
    if s_size > 0 and delta <= 0:
        raise ValueError(f"seeding needs 0 < delta: |S|={s_size}, delta={delta}, q={q}")
    top = min(delta, s_size - 1)  # J, the binding row
    if s_size + top <= q:
        return SizeLaw(1, 2, (q - s_size - top) / (q - top))
    # int by int, rounded once: r3 > 1 iff the rational is, for (q-J) J < 2**52
    r3 = (s_size + top - q) * (s_size - 1) / ((q - top) * top)
    if r3 > 1:
        raise CouplingRegimeError(
            f"seeding size law infeasible: r3 = {float(r3):.4f} for |S|={s_size}, "
            f"delta={delta}, q={q}"
        )
    if s_size >= q:
        raise ValueError(f"seeding needs |S| < q: |S|={s_size}, delta={delta}, q={q}")
    return SizeLaw(2, 3, 1 - r3)


def _draw_size(law: SizeLaw, key: int) -> int:
    return law.lo if unit_uniform(key, 0) < law.p_lo else law.hi


def seeding_predict(
    s_mask: ColorSet, law: SizeLaw, q: int, key: int
) -> tuple[ColorSet, SeedingDraw]:
    s_size = s_mask.bit_count()
    if s_size >= q:
        raise CouplingRegimeError("seeding needs a free color outside the slack set")
    c0 = outside_color(s_mask, q, raw64(key, 1))
    u_prime = unit_uniform(key, 2)
    if s_size == 0:
        return 1 << c0, SeedingDraw(prefix=(), c0=c0, u_prime=u_prime)
    k = _draw_size(law, key)
    if k - 1 > s_size:
        raise EngineError(f"size law asks for {k - 1} slack colors, only {s_size} exist")
    words = map(raw64, repeat(key), count(3))
    prefix = tuple(islice(shuffle_walk(members(s_mask), words), k - 1))
    draw = SeedingDraw(prefix=prefix, c0=c0, u_prime=u_prime)
    return mask_from(prefix) | 1 << c0, draw


def seeding_acceptance(s_size: int, law: SizeLaw, q: int, n_blocked: int) -> float:
    """Acceptance probability for emitting a slack color given |C| blocked:
    (1 - bound) / (1 - lhs) of LP row |C|, so it is <= 1 exactly where that row holds."""
    p_c, q_c = lp_row(s_size, law, q, n_blocked)
    if p_c >= 1.0:
        return 1
    return (1 - q_c) / (1 - p_c)


def seeding_decode(
    s_mask: ColorSet,
    law: SizeLaw,
    q: int,
    draw: SeedingDraw,
    c_mask: ColorSet,
) -> int:
    """Color for blocked colors C inside the slack set; uniform on [q] \\ C."""
    if c_mask & ~s_mask:
        raise EngineError("blocked colors outside the slack set reached seeding decode")
    s_size = s_mask.bit_count()
    for y in draw.prefix:
        if not c_mask >> y & 1:
            if draw.u_prime < seeding_acceptance(s_size, law, q, c_mask.bit_count()):
                return y
            break
    return draw.c0


# ---------------------------------------------------------------------------
# Disjoint
# ---------------------------------------------------------------------------
#
# The seed selects one slot from a fixed layout: one slot per disjoint
# neighbor pair, one per remaining slack color, and a leftover region.
# A pair slot always emits the pair member the realized configuration
# left available (exactly one, by disjointness). A color slot emits its
# color with a C-dependent acceptance tuned so every available color ends
# with mass exactly 1/(q - |C|); rejections and the leftover region emit a
# reserve color drawn uniformly outside the slack set. Every slot's image
# over realizable configurations has at most two colors, so the predicted
# bounding set always has size 1 or 2.
#
# Draw layout: draw 0 selects the slot, draw 1 is the acceptance variate,
# draw 2 picks the reserve color. The caller supplies words 0 and 2
# (bounding.BoundingState.next_words02, or next_key_words with the key,
# reads them from its key batch when it has one). Draw 1, which no batch
# carries, is read only by the decode of a color slot whose color is
# unblocked: disjoint_predict puts it in the draw as a callable that
# hashes it from the key, and an update that carries no coloring calls
# disjoint_new_list, which takes no key and builds no draw. disjoint_slot is the one walk over the layout for both.
# The layout (disjoint_params_from_lists) holds the walk's running sum at
# the end of each section, added slot by slot as the walk adds them, so
# the walk returns the leftover as soon as u >= total, starts each section
# from where the ones before it end, and sorts the pairs only when u falls
# among them. A one-slot layout (every slack color held by a singleton
# list, so no pairs and no D or E colors) has total 0: it is all leftover,
# and its predicted set is {reserve} whatever draw 0 says. Its scan
# (disjoint_pair_scan) skips the pair pass. When every neighbor list is a
# singleton, bounding.apply_disjoint draws the reserve alone. Each draw is
# addressed by its index, so a draw left untaken moves no other draw.

class DisjointParams(NamedTuple):
    q: int
    delta: int
    s_mask: ColorSet
    pairs: tuple[ColorSet, ...]  # 2-color masks, in neighbor order
    d_mask: ColorSet
    e_mask: ColorSet
    p_pair: float
    s_d: float
    s_e: float
    leftover: float  # exact probability that the predicted set is a singleton
    # the walk's running sum after the pairs, after the D colors, after the E colors
    pairs_end: float
    d_end: float
    total: float


class DisjointDraw(NamedTuple):
    # the slot: pair != 0 for a pair, color >= 0 for a color, neither for the leftover
    pair: ColorSet  # the slot's pair mask, or 0
    color: int  # the slot's color, or -1
    slot_prob: float
    in_d: bool  # a D color's slot; False on pair and leftover slots
    v: Callable[[], float]  # draw 1; only a color slot's decode calls it
    reserve: int


def disjoint_pair_scan(lists) -> tuple[ColorSet, ColorSet, ColorSet, list[ColorSet]]:
    """Union of the lists, union of the 1-lists (the pinned colors Q), union
    of the pairs, and the pairs: the 2-lists that meet no other list.

    One pass over lists, which may be any iterable: ``shared`` collects every
    color seen in two or more lists of two or more colors, so a 2-list is a
    disjoint pair iff it misses ``shared`` and Q. When the union is Q, every
    color of a 2-list is also in a 1-list, so there are no pairs and the
    pair pass is skipped. Pairs come back in input order.
    """
    seen = shared = pinned = 0
    twos = []
    for m in lists:
        if m & (m - 1):
            shared |= seen & m
            seen |= m
            if m.bit_count() == 2:
                twos.append(m)
        else:
            pinned |= m
    if not seen & ~pinned:
        return seen | pinned, pinned, 0, []
    shared |= pinned
    pairs = [m for m in twos if not m & shared]
    pair_mask = 0
    for m in pairs:
        pair_mask |= m
    return seen | pinned, pinned, pair_mask, pairs


@lru_cache(maxsize=1024, typed=True)
def _pair_masses(q: int, delta: int, q_size: int, b: int) -> tuple:
    """(p_pair, s_d, s_e, pair mass, pairs_end, d_end, room for E colors)
    of a layout with q_size pinned colors and b pairs: the slot masses, the
    mass of the pair and D slots, and the walk's running sum after the
    pairs and after the D colors, added slot by slot as the walk adds them.
    Raises CouplingRegimeError when q <= delta or the slack leaves no
    reserve color. Cached, since these depend only on the counts, and at
    most (delta + 1)(delta + 2) / 2 of them arise for one q; typed, so a
    Fraction q never meets a float result."""
    if q <= delta:
        raise CouplingRegimeError("disjoint needs q > delta")
    e_room = q - q_size - 2 * b
    if e_room <= 0:
        raise CouplingRegimeError("disjoint needs a reserve color outside the slack set")
    p_pair = 1 / (q - q_size - b) if b else 0
    s_e = 1 / (q - delta)
    s_d = max(0, s_e - p_pair)
    acc = 0
    for _ in range(b):
        acc += p_pair
    pairs_end = acc
    for _ in range(2 * b):
        acc += s_d
    return p_pair, s_d, s_e, b * p_pair + 2 * b * s_d, pairs_end, acc, e_room


def disjoint_params_from_lists(q: int, delta: int, neighbor_lists) -> DisjointParams:
    """Slot layout for the given neighbor bounding lists (any iterable).

    A 2-color list qualifies as a disjoint pair when it intersects no other
    neighbor list of any size; its colors then block exactly one of the two
    in every realizable configuration. Raises CouplingRegimeError when the
    slot masses exceed 1, which cannot happen when every neighbor list has
    at most two colors and q >= 2.5 * delta; larger lists are tolerated as
    long as the mass check passes. When every slack color is pinned (in Q),
    the layout has one slot, the leftover, of mass exactly 1, and total is 0.

    pairs_end, d_end and total are the walk's running sum at the end of
    each section, added slot by slot in the walk's order, so comparing u
    with them picks the section the walk would; a product such as
    b * p_pair could differ from that sum in its last bit.
    """
    s_mask, q_mask, d_mask, pairs = disjoint_pair_scan(neighbor_lists)
    q_size = q_mask.bit_count()
    p_pair, s_d, s_e, pair_mass, pairs_end, d_end, e_room = _pair_masses(
        q, delta, q_size, len(pairs)
    )
    e_mask = s_mask & ~q_mask & ~d_mask
    e_size = e_mask.bit_count()
    if e_size >= e_room:
        raise CouplingRegimeError("disjoint needs a reserve color outside the slack set")
    mass = pair_mass + e_size * s_e
    leftover = 1 - mass
    if leftover < -1e-9:
        raise CouplingRegimeError(
            f"disjoint coupling infeasible: slot mass {float(mass):.6f} exceeds 1 "
            f"(|S|={s_mask.bit_count()}, |Q|={q_size}, pairs={len(pairs)}, q={q}, delta={delta})"
        )
    total = d_end
    for _ in range(e_size):
        total += s_e
    return DisjointParams(
        q, delta, s_mask, tuple(pairs), d_mask, e_mask, p_pair, s_d, s_e,
        leftover if leftover > 0 else 0, pairs_end, d_end, total,
    )


def disjoint_predict(
    params: DisjointParams, key: int, w0: int, w2: int
) -> tuple[ColorSet, DisjointDraw]:
    """Predicted set and draw at key, given its words w0 = raw64(key, 0) and
    w2 = raw64(key, 2): slot u from w0, reserve from w2, and v, draw 1 under
    key, hashed only if the decode calls it."""
    reserve = outside_color(params.s_mask, params.q, w2)
    predicted, slot = disjoint_slot(params, unit_from_word(w0), reserve)
    return predicted, DisjointDraw(*slot, partial(unit_uniform, key, 1), reserve)


def disjoint_new_list(params: DisjointParams, w0: int, w2: int) -> ColorSet:
    """disjoint_predict's predicted set alone, for an update that decodes no
    coloring: it needs only words 0 and 2, never the key or draw 1."""
    reserve = outside_color(params.s_mask, params.q, w2)
    return disjoint_slot(params, unit_from_word(w0), reserve)[0]


def disjoint_slot(params: DisjointParams, u, reserve: int) -> tuple[ColorSet, tuple]:
    """Predicted set and slot of the slot u falls in: pairs, D, E colors,
    leftover. The slot is (pair, color, slot_prob, in_d), DisjointDraw's
    first fields.

    u is compared with the layout's running sums, never with arithmetic on
    u, which could differ at a boundary: u >= total is the leftover, and a
    section's walk starts from the sum the sections before it end at. Pairs
    are ordered by lowest color, and sorted only when u falls among them.
    """
    if u < params.total:
        if u < params.pairs_end:
            acc = 0
            p = params.p_pair
            for pair in sorted(params.pairs, key=lambda m: m & -m):
                acc += p
                if u < acc:
                    return pair, (pair, -1, p, False)
        if u < params.d_end:
            acc, s, mask, in_d = params.pairs_end, params.s_d, params.d_mask, True
        else:
            acc, s, mask, in_d = params.d_end, params.s_e, params.e_mask, False
        for c in iter_colors(mask):
            acc += s
            if u < acc:
                return 1 << c | 1 << reserve, (0, c, s, in_d)
    return 1 << reserve, (0, -1, params.leftover, False)


def disjoint_needed(params: DisjointParams, draw: DisjointDraw, n_blocked: int):
    """Mass a color slot emits its color with, so that with a D color's pair
    mass every available color ends with 1/(q - |C|); exact for a Fraction q."""
    return 1 / (params.q - n_blocked) - (params.p_pair if draw.in_d else 0)


def disjoint_decode(params: DisjointParams, draw: DisjointDraw, blocked: ColorSet) -> int:
    n_blocked = blocked.bit_count()
    if n_blocked > params.delta:
        raise EngineError(
            f"blocked set of size {n_blocked} exceeds delta = {params.delta}"
        )
    if draw.pair:
        open_colors = draw.pair & ~blocked
        if open_colors.bit_count() != 1:
            raise EngineError(
                f"blocked set not realizable: pair {members(draw.pair)} has "
                f"{2 - open_colors.bit_count()} members blocked"
            )
        return open_colors.bit_length() - 1
    c = draw.color
    if c >= 0 and not blocked >> c & 1:
        needed = disjoint_needed(params, draw, n_blocked)
        if needed > 0.0 and draw.v() * draw.slot_prob < needed:
            return c
    return draw.reserve
