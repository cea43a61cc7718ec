"""Bounding lists and the update machinery that shrinks them.

The bounding state tracks, per vertex, a superset of the colors any coupled
trajectory may carry, as an int mask that updates pass to the couplings.
Every update draws from a seed addressed by (block, update index), which
only the state hands out, so re-running a block's schedule reproduces its
lists exactly. A state may also carry one proper coloring: each update then
decodes it with the parameters and draw its bounding update has just
computed, and checks that the decoded color lies in the vertex's new list.

Every compress update, in either phase, runs in ``apply_compress``: a
cleanup's targets against the preserved neighbors' lists, and a
fallback's v against all of v's. It takes the reference set from one
rule, ``greedy_reference_set``; when the lists' union has at most
max-degree colors, the rule's answer is that union plus the lowest colors
outside it, found without running its fills. A built block gets all the
targets' new lists from one couplings call (``compress_predict``), and a
carried block decodes them one by one. Both drifts sweep their vertices
in order, one key per step, and ``drift_tail`` runs the Phase II steps
after every list is a singleton in one loop that walks the same sweep.
"""

from __future__ import annotations

from itertools import islice

from . import couplings as cp
from .colorsets import ColorSet, full_mask, iter_colors, members, nth_outside
from .errors import EngineError
from .graphs import Graph
from .seedstream import SeedStream, lane_row, raw64

MAX_LANES = 32  # the widest key batch (see BoundingState)


class BoundingState:
    """Bounding lists for one block of one graph, optionally carrying a coloring.

    A block is a pure function of (master seed, block index): ``next_key``
    hands out the key at (block, update index) and advances the index,
    ``next_word(d)`` hands out word d of that key in its place,
    ``next_key_words`` hands out the key with its words 0 and 2,
    ``next_words02`` its words 0 and 2 alone, and ``next_words0(k)`` and
    ``drift_words(k)`` hand out word 0 and word 2 of the next k keys.
    Every update takes exactly one key, and nothing else takes one, so one
    counter, ``updates``, is both the index of the next key and the number
    of updates applied; only these readers advance it. The schedule counts
    its seeding and disjoint fallbacks here. A built block has no other
    record: the sampler reads these counts and ``phi`` from its state.

    On a graph of n >= 32 vertices the state takes its keys in batches of
    min(MAX_LANES, n // 16) consecutive keys, packed in one int
    (``SeedStream.subkeys``); below that it asks ``SeedStream.subkey`` for
    one key at a time and hashes each word on demand. Both give the same
    keys and words. Batches pay only on long blocks, and a small graph's
    block is short while its peak memory is small enough that fixed 32-lane
    buffers would about triple it.

    A batch computes each of its rows, the unpacked keys, word 0 or word
    2 (``seedstream.lane_row``), only when a reader first asks for it, and
    keeps it until the next batch. Each reader asks for the rows it reads:
    a built compress batch's extra colors (``next_words0``: k for a
    cleanup's k targets, 1 for a fallback) take word 0; an all-singleton
    disjoint update's reserve (``next_word(2)``) and the drift tail
    (``drift_words``) take word 2; a built disjoint update's slot variate
    and reserve (``next_words02``) take words 0 and 2; only seeding updates
    (``next_key``) and carried compress and disjoint updates
    (``next_key_words``) take the key row. So a batch read only by the tail
    hashes its keys and word 2, and a built block's Phase II never unpacks
    a key. Every word 0 or 2 that a compress or disjoint update reads comes
    from the state, and nothing in this module hashes one. A seeding update
    is the exception: ``couplings.seeding_predict`` hashes its size variate
    (word 0) and u' (word 2) from the key, because taking them from
    ``next_key_words`` makes Phase I's batches compute word 2's row too,
    which ran slower on a random 32-regular graph and used more memory.
    Carried decodes hash their other draws (draw 1, a shuffle's later
    steps) from the key.
    """

    __slots__ = (
        "g", "q", "stream", "block", "lists", "coloring", "updates",
        "seeding_fallbacks", "disjoint_fallbacks",
        "_lanes", "_base", "_end", "_packed", "_rows",
    )

    def __init__(self, g: Graph, q: int, stream: SeedStream, block: int, coloring=None):
        self.g = g
        self.q = q
        self.stream = stream
        self.block = block
        self.lists: list[ColorSet] = [full_mask(q)] * g.n
        self.coloring: list[int] | None = None if coloring is None else list(coloring)
        self.updates = 0
        self.seeding_fallbacks = 0
        self.disjoint_fallbacks = 0
        lanes = min(MAX_LANES, g.n // 16)
        self._lanes = lanes if lanes >= 2 else 0
        # the batch holds keys _base .. _end - 1, packed in _packed, and
        # the rows computed from them so far, by draw (None: the keys)
        self._base = self._end = 0
        self._packed = 0
        self._rows: dict[int | None, tuple] = {}

    def _refill(self, idx: int) -> None:
        self._packed = self.stream.subkeys(self.block, idx, self._lanes)
        self._rows = {}
        self._base, self._end = idx, idx + self._lanes

    def _row(self, draw: int | None) -> tuple:
        """Row draw of the batch (None: the keys), computed on first ask."""
        row = self._rows.get(draw)
        if row is None:
            row = self._rows[draw] = lane_row(self._packed, self._lanes, draw)
        return row

    def next_key(self) -> int:
        idx = self.updates
        self.updates = idx + 1
        if not self._lanes:
            return self.stream.subkey(self.block, idx)
        if idx >= self._end:
            self._refill(idx)
        return self._row(None)[idx - self._base]

    def next_word(self, draw: int) -> int:
        """raw64(self.next_key(), draw) for draw 0 or 2, read from the batch
        when the state takes its keys in batches."""
        idx = self.updates
        self.updates = idx + 1
        if not self._lanes:
            return raw64(self.stream.subkey(self.block, idx), draw)
        if idx >= self._end:
            self._refill(idx)
        return self._row(draw)[idx - self._base]

    def next_key_words(self) -> tuple[int, int, int]:
        """(key, raw64(key, 0), raw64(key, 2)) for key = self.next_key(),
        read from the batch when the state takes its keys in batches."""
        idx = self.updates
        self.updates = idx + 1
        if not self._lanes:
            key = self.stream.subkey(self.block, idx)
            return key, raw64(key, 0), raw64(key, 2)
        if idx >= self._end:
            self._refill(idx)
        i = idx - self._base
        row = self._row
        return row(None)[i], row(0)[i], row(2)[i]

    def next_words02(self) -> tuple[int, int]:
        """next_key_words() without the key: a batch unpacks no key row."""
        idx = self.updates
        self.updates = idx + 1
        if not self._lanes:
            key = self.stream.subkey(self.block, idx)
            return raw64(key, 0), raw64(key, 2)
        if idx >= self._end:
            self._refill(idx)
        i = idx - self._base
        row = self._row
        return row(0)[i], row(2)[i]

    def next_words0(self, k: int) -> list[int]:
        """[raw64(key, 0) for the next k keys], read from the batch when the
        state takes its keys in batches. The index advances past all k."""
        if not self._lanes:
            return [self.next_word(0) for _ in range(k)]
        idx = self.updates
        stop = self.updates = idx + k
        words: list[int] = []
        while idx < stop:
            if idx >= self._end:
                self._refill(idx)
            # islice, not a tuple slice, which would build one more tuple
            end = min(self._end, stop)
            words.extend(islice(self._row(0), idx - self._base, end - self._base))
            idx = end
        return words

    def drift_words(self, k: int):
        """Yield raw64(key, 2) for the next k keys, the drift tail's words,
        read from the batch when the state takes its keys in batches. Unlike
        next_words0 it holds no list, since a tail runs thousands of steps.
        The index, and so the update count, advances past all k when the
        first word is read."""
        idx = self.updates
        stop = self.updates = idx + k
        if not self._lanes:
            subkey, block = self.stream.subkey, self.block
            for idx in range(idx, stop):
                yield raw64(subkey(block, idx), 2)
            return
        while idx < stop:
            if idx >= self._end:
                self._refill(idx)
            end = min(self._end, stop)
            yield from islice(self._row(2), idx - self._base, end - self._base)
            idx = end

    def all_singletons(self) -> bool:
        """Whether every list is a singleton: the lists are one coloring."""
        for m in self.lists:
            if m.bit_count() != 1:
                return False
        return True

    @property
    def phi(self) -> tuple[int, ...] | None:
        """The coalesced coloring if every list is a singleton, else None."""
        if self.all_singletons():
            return tuple(m.bit_length() - 1 for m in self.lists)
        return None

    def blocked(self, v: int) -> ColorSet:
        """Colors the carried coloring puts on the neighbors of v."""
        w = self.coloring
        m = 0
        for u in self.g.adjacency[v]:
            m |= 1 << w[u]
        return m

    def carry(self, v: int, color: int) -> None:
        """Set v's carried color; it must lie in v's new bounding list."""
        if not (self.lists[v] >> color) & 1:
            raise EngineError(
                f"carried color {color} at vertex {v} escaped its bounding list "
                f"{members(self.lists[v])}"
            )
        self.coloring[v] = color


# ---------------------------------------------------------------------------
# Neighborhood color sets
# ---------------------------------------------------------------------------


def neighborhood_slack(state: BoundingState, v: int) -> ColorSet:
    m = 0
    for u in state.g.adjacency[v]:
        m |= state.lists[u]
    return m


# ---------------------------------------------------------------------------
# Greedy reference set
# ---------------------------------------------------------------------------


def _member_order(lists: list[ColorSet]) -> list[ColorSet]:
    """lists in the order sorted(lists, key=members) gives, without building
    member lists when it can: when no two lists share a lowest color, that
    color alone decides, and only otherwise are the members compared."""
    if len(lists) < 2:
        return lists
    lows = [m & -m for m in lists]
    if len(set(lows)) == len(lows):
        return [m for _, m in sorted(zip(lows, lists))]
    return sorted(lists, key=members)


def _fill_atomic(a: ColorSet, cap: int, lists) -> ColorSet:
    # whole lists first, smallest-sorted-members order
    for m in _member_order(lists):
        merged = a | m
        if merged.bit_count() <= cap:
            a = merged
    return a


def _fill_singles(a: ColorSet, cap: int, pool: ColorSet) -> ColorSet:
    for c in iter_colors(pool & ~a):
        if a.bit_count() >= cap:
            break
        a |= 1 << c
    return a


def greedy_reference_set(q: int, delta: int, kept: list[ColorSet]) -> ColorSet:
    """Reference set of exactly delta colors for compress updates.

    When the kept lists' union has at most delta colors, A is that union
    plus the palette fill. The rule below only ever adds colors, and only
    while |A| <= delta, so on such lists every whole-list merge succeeds:
    it would take every list whole, reach the union, and leave the rest to
    the palette fill. One OR loop and one popcount decide this case, with
    no pair scan and no sort.

    Otherwise the rule runs, one rule for both phases, read from the kept
    neighbor lists alone. Colors outside the disjoint pairs go in first:
    whole non-pair lists when they fit, then their single colors ascending.
    Pairs come next, whole then color by color. The same argument holds per
    stage: when the non-pair colors fit, every non-pair list merges whole;
    when they do not, their single colors fill A and no pair is reached.
    Pairs are held back because the compressed neighbors' lists are A plus
    one extra color each: a kept 2-list inside A meets every one of them,
    so it stops being a disjoint pair for the update at v. The palette
    fill is the lowest delta - |A| colors not in A, that is every color up
    to the (delta - |A| - 1)-th one not in A (nth_outside); only a union
    of fewer than delta colors leaves it any.
    """
    if q < delta:
        raise ValueError(f"cannot build a reference set of {delta} colors from {q}")
    a = 0
    for m in kept:
        a |= m
    if a.bit_count() > delta:
        sp_mask, _, dp_mask, dp_pairs = cp.disjoint_pair_scan(kept)
        non_pair = sp_mask & ~dp_mask
        if non_pair.bit_count() > delta:
            # pair colors live only in their own list, so non-pair lists
            # are exactly the ones disjoint from dp_mask
            a = _fill_atomic(0, delta, [m for m in kept if not (m & dp_mask)])
            a = _fill_singles(a, delta, non_pair)
        else:
            # every non-pair list merges whole, and together they are non_pair
            a = _fill_atomic(non_pair, delta, dp_pairs)
            a = _fill_singles(a, delta, dp_mask)
    need = delta - a.bit_count()
    return a | ((2 << nth_outside(a, need - 1)) - 1) if need else a


# ---------------------------------------------------------------------------
# Updates
# ---------------------------------------------------------------------------


def apply_compress(state: BoundingState, kept: list[ColorSet], targets: list[int]) -> None:
    """Compress every vertex of targets, in order, against one reference set
    A, the one greedy_reference_set gives for the kept lists: the one
    compress update, for a cleanup's targets and a fallback's v alike.

    Each target takes one key. A built block takes word 0 of its k keys in
    one state.next_words0(k) and the k new lists A + {x'} from one
    cp.compress_predict call. A carried block decodes the targets one by
    one, since each decode reads the colors of neighbors that earlier
    targets took: it takes each key with its words 0 and 2, and the new
    list is A plus the draw's x'.
    """
    q, lists = state.q, state.lists
    a_mask = greedy_reference_set(q, state.g.max_degree, kept)
    outside = cp.compress_outside(a_mask, q)
    if state.coloring is None:
        words = state.next_words0(len(targets))
        for w, m in zip(targets, cp.compress_predict(a_mask, outside, words)):
            lists[w] = m
        return
    for w in targets:
        draw = cp.compress_draw(a_mask, outside, *state.next_key_words())
        lists[w] = a_mask | 1 << draw.x_prime
        state.carry(w, cp.compress_decode(a_mask, q, draw, state.blocked(w)))


def apply_seeding(state: BoundingState, v: int) -> None:
    """Seeding update at v using the current neighborhood slack.

    Raises CouplingRegimeError when no feasible two-point size law exists
    for the current slack; callers decide whether to fall back.
    """
    s_mask = neighborhood_slack(state, v)
    law = cp.seeding_size_law(s_mask.bit_count(), state.g.max_degree, state.q)
    key = state.next_key()
    state.lists[v], draw = cp.seeding_predict(s_mask, law, state.q, key)
    if state.coloring is not None:
        state.carry(v, cp.seeding_decode(s_mask, law, state.q, draw, state.blocked(v)))


def apply_disjoint(state: BoundingState, v: int) -> None:
    """Disjoint update at v; raises CouplingRegimeError when infeasible,
    before any key is taken.

    When every neighbor list is a singleton, the slot layout has one slot,
    the leftover, so the new list is the reserve color (draw 2) and the
    carried color is that color; no layout is built. The reserve is
    cp.outside_color's select written out, as in drift_tail: nth_outside
    at (w2 * (q - |S|)) >> 64, where q > max_degree >= |S|.

    Otherwise the layout reads the key's words 0 and 2 from the state: a
    built block computes only the new list from them (``next_words02``,
    which unpacks no key), and a carried coloring's decode also takes the
    key, for draw 1.
    """
    lists = state.lists
    g = state.g
    q = state.q
    s_mask = 0
    for u in g.adjacency[v]:
        m = lists[u]
        if m.bit_count() != 1:
            break
        s_mask |= m
    else:
        if q > g.max_degree:  # else the layout below raises CouplingRegimeError
            w2 = state.next_word(2)
            color = nth_outside(s_mask, (w2 * (q - s_mask.bit_count())) >> 64)
            lists[v] = 1 << color
            if state.coloring is not None:
                state.carry(v, color)
            return
    params = cp.disjoint_params_from_lists(q, g.max_degree, map(lists.__getitem__, g.adjacency[v]))
    if state.coloring is None:
        lists[v] = cp.disjoint_new_list(params, *state.next_words02())
        return
    key, w0, w2 = state.next_key_words()
    lists[v], draw = cp.disjoint_predict(params, key, w0, w2)
    state.carry(v, cp.disjoint_decode(params, draw, state.blocked(v)))


def drift_tail(state: BoundingState, steps: int) -> None:
    """The last steps of the Phase II drift of a built block, run once every
    list is a singleton and q > max_degree, from the start of a sweep.

    Each step is apply_disjoint's all-singleton update at the sweep's next
    vertex, 0, 1, ..., n - 1, 0, ...: the color is cp.outside_color of the
    neighbors' colors m with word 2 of the step's key, and the lists stay
    singletons. A step writes that rule out, as apply_disjoint does, as
    the one select rule nth_outside at the multiply-shift index
    (w2 * (q - |m|)) >> 64; q - |m| >= q - max_degree > 0, so the index is
    never drawn from an empty range. The steps take the same keys as the
    same drift steps run one by one (``state.drift_words``, which reads
    only word 2 of each batch), which counts them as the same updates. A
    block that reaches the tail coalesces, and the sampler replays only
    blocks that did not, so the tail never carries a coloring
    (engine.block_steps).
    """
    lists, q = state.lists, state.q
    n, adjacency = state.g.n, state.g.adjacency
    words = state.drift_words(steps)
    for _ in range(0, steps, n):
        # zip takes v before its word, so it stops at a sweep's end with
        # the next sweep's first word untaken
        for v, nbrs, w2 in zip(range(n), adjacency, words):
            m = 0
            for u in nbrs:
                m |= lists[u]
            lists[v] = 1 << nth_outside(m, (w2 * (q - m.bit_count())) >> 64)


def cleanup(state: BoundingState, v: int, preserved: bytearray) -> None:
    """Compress every non-preserved neighbor of v (apply_compress) against
    the reference set the preserved neighbors' lists give; preserved holds
    one flag per vertex, nonzero where the vertex is seeded or converted
    (engine.block_steps)."""
    lists = state.lists
    kept, targets = [], []
    for u in state.g.adjacency[v]:
        if preserved[u]:
            kept.append(lists[u])
        else:
            targets.append(u)
    if targets:
        apply_compress(state, kept, targets)
