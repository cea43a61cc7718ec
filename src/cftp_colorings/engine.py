"""Coupling-from-the-past sampler for uniform proper colorings.

A sample is produced by building independent randomness blocks indexed
t = 1, 2, ... Each block runs a two-phase update schedule over bounding
lists initialized to the full palette; if the lists all collapse to
singletons the block's coalescence value is defined, and the final sample
is that value pushed forward through all more recent blocks, oldest first.
A block's updates are a pure function of (master seed, block index,
schedule), so nothing is stored to push a coloring through it: the block's
schedule is run again with the coloring carried alongside its bounding
lists.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from itertools import cycle, islice
from typing import NamedTuple

from . import bounding as bd
from .errors import CouplingRegimeError, EngineError, NoCoalescenceError
from .graphs import Graph
from .seedstream import SeedStream, unit_uniform

PARTITION_BLOCK = 0  # block index reserved for the vertex-partition randomness


def eta_for(delta: int) -> float:
    """Imbalance slack in the regime threshold, 2 * sqrt((ln d + 1) / d)."""
    if delta < 1:
        return float("inf")
    return 2.0 * math.sqrt((math.log(delta) + 1.0) / delta)


def regime_threshold(delta: int) -> float:
    """Colors needed to run without --force: (2.5 + eta) * delta."""
    if delta < 1:
        return 0.0
    return (2.5 + eta_for(delta)) * delta


@dataclass(frozen=True)
class SeedVertexSet:
    members: frozenset[int]
    resamples: int

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SamplerConfig:
    q: int
    master_seed: int
    max_blocks: int = 64
    t2_override: int | None = None
    force: bool = False


@dataclass
class SampleResult:
    coloring: tuple[int, ...]
    q: int
    master_seed: int
    blocks_used: int
    updates: int
    degraded_blocks: int
    phase_stats: dict
    wall_ms: float
    partition_resamples: int


def balanced(g: Graph, v: int, inside: int, eta: float) -> bool:
    """Both balance bounds at v, given how many neighbors of v are in the set.

    At most half the max degree inside, and at most (1/2 + eta) of it
    outside; the second bound binds only when eta < 1/2.
    """
    delta = g.max_degree
    if 2 * inside > delta:
        return False
    return 0.5 + eta >= 1.0 or g.degree(v) - inside <= (0.5 + eta) * delta


def audit_partition(g: Graph, members) -> bool:
    """Exact check of both neighborhood balance bounds."""
    eta = eta_for(g.max_degree)
    return all(
        balanced(g, v, sum(1 for u in g.adjacency[v] if u in members), eta)
        for v in range(g.n)
    )


def lll_partition(g: Graph, stream: SeedStream) -> SeedVertexSet:
    """Balanced seeding set via independent inclusion plus local resampling.

    Each vertex joins with probability p0 = max(0, 1/2 - eta/2), which is 0
    for 1 <= delta <= 14 (eta >= 1): no coin can put a vertex in the set,
    and the empty set meets both bounds, so no coin is drawn there. At
    delta = 0 there are no bounds to meet and p0 = 1/2. Any vertex whose
    neighborhood violates a balance bound triggers a resample of its
    neighbors' bits. The queue-driven repair terminates quickly because the
    bounds hold with overwhelming margin per neighborhood.
    """
    delta = g.max_degree
    eta = eta_for(delta)
    p0 = 0.5 if delta < 1 else max(0.0, 0.5 - eta / 2.0)
    members, resamples = frozenset(), 0
    if p0 > 0.0:
        members, resamples = _repaired_coins(g, stream, p0, eta)
    if not audit_partition(g, members):
        raise EngineError("vertex partition failed its own audit")
    return SeedVertexSet(members=members, resamples=resamples)


def _repaired_coins(g: Graph, stream: SeedStream, p0: float, eta: float):
    """The set the p0 coins give, after the repair; with its resample count."""
    n, delta = g.n, g.max_degree
    key0 = stream.subkey(PARTITION_BLOCK, 0)
    in_s = [unit_uniform(key0, v) < p0 for v in range(n)]
    budget = max(16, math.ceil(10 * n / max(delta, 1)))
    resamples = 0
    queue = deque(range(n))
    queued = [True] * n
    while queue:
        v = queue.popleft()
        queued[v] = False
        if balanced(g, v, sum(1 for u in g.adjacency[v] if in_s[u]), eta):
            continue
        resamples += 1
        if resamples > budget:
            raise EngineError(
                f"vertex partition exceeded {budget} resamples; bounds may be infeasible"
            )
        key = stream.subkey(PARTITION_BLOCK, resamples)
        for i, u in enumerate(g.adjacency[v]):
            in_s[u] = unit_uniform(key, i) < p0
        affected = set(g.adjacency[v])
        affected.add(v)
        for u in g.adjacency[v]:
            affected.update(g.adjacency[u])
        for w in affected:
            if not queued[w]:
                queue.append(w)
                queued[w] = True
    return frozenset(v for v in range(n) if in_s[v]), resamples


def default_t1(seed_set_size: int) -> int:
    if seed_set_size <= 1:
        return 0
    return math.ceil(5.0 * seed_set_size * math.log(seed_set_size))


def default_t2(n: int, q: int, delta: int) -> int:
    """The paper's Phase II drift length, 2(q - delta) n ln n / (q - 2.5 delta).

    The paper proves its coalescence bound for that many random-scan
    updates. The drift here sweeps the vertices in order (block_steps), and
    for the sweep at this length coalescence is measured, not proven.
    Exactness rests on neither: any schedule fixed before the draws keeps
    the output exact, and only how often a block coalesces depends on t2.
    """
    if n <= 1:
        return 0
    if q <= 2.5 * delta:
        raise ValueError(
            f"the drift length formula needs q > 2.5 * max_degree = {2.5 * delta:g}, "
            f"got q = {q}; pass t2_override (--t2) to set the drift length"
        )
    return math.ceil(2.0 * (q - delta) * n * math.log(n) / (q - 2.5 * delta))


def check_config(g: Graph, config: SamplerConfig) -> None:
    """Raise ValueError unless config can run on g.

    Needs q >= max_degree + 2, q at or above the regime threshold unless
    forced, max_blocks >= 1, a nonnegative t2_override, and, without
    t2_override, a q the drift length formula accepts.
    """
    delta = g.max_degree
    if config.max_blocks < 1:
        raise ValueError(f"need max_blocks (--max-blocks) >= 1, got {config.max_blocks}")
    if config.q < delta + 2:
        raise ValueError(f"need q >= max_degree + 2 = {delta + 2}, got {config.q}")
    if config.q < regime_threshold(delta) and not config.force:
        raise ValueError(
            f"q = {config.q} is below the regime threshold "
            f"{regime_threshold(delta):.2f} for max degree {delta}; "
            f"pass force=True (--force) to run anyway"
        )
    if config.t2_override is None:
        default_t2(g.n, config.q, delta)
    elif config.t2_override < 0:
        raise ValueError(f"need t2_override (--t2) >= 0, got {config.t2_override}")


class Schedule(NamedTuple):
    """What every block of one sample runs: the graph, q, the seeding set S
    in ascending order, and the Phase I and Phase II drift lengths t1, t2.

    A schedule is fixed before any kernel draw, and each of its steps
    applies an exact single-site kernel, so every schedule this record can
    hold keeps the output exact (Propp and Wilson 1996); only how often a
    block coalesces depends on it.
    """

    g: Graph
    q: int
    seeded: tuple[int, ...]
    t1: int
    t2: int


def schedule_for(g: Graph, config: SamplerConfig, seed_set: SeedVertexSet) -> Schedule:
    """A sample's schedule from its partition: S sorted, t1 =
    default_t1(|S|), and t2 = t2_override, else default_t2."""
    seeded = tuple(sorted(seed_set.members))
    t2 = config.t2_override
    if t2 is None:
        t2 = default_t2(g.n, config.q, g.max_degree)
    return Schedule(g, config.q, seeded, default_t1(len(seeded)), t2)


def block_steps(state: bd.BoundingState, schedule: Schedule):
    """Yield one block's steps in order, as (phase, v, preserved).

    Both drifts are sweeps in order. Phase 1 seeds each vertex of
    schedule.seeded (S), then drifts S for schedule.t1 steps, drift step i
    updating S[i mod |S|]; phase 2 converts the other vertices, then drifts
    all n for schedule.t2 steps, drift step i updating vertex i mod n. An
    empty S runs no phase 1 drift, and an empty graph no drift at all. A
    step cleans up v against preserved (the vertices already seeded or
    converted), then runs its phase's update at v; preserved is None in the
    phase 2 drift, which runs no cleanup. Run each step before asking for the next. Key facts: every
    update, a fallback included, takes exactly one key, and nothing else
    takes one; a cleanup with k targets takes k consecutive keys. So
    state.updates is both the update count and the key index, and after
    each step it depends only on the schedule, never on a draw.

    The drift tail: at the start of each sweep of a built block, if every
    list is a singleton (and q > max_degree), every later drift update would
    be apply_disjoint's all-singleton one, so this generator runs all the
    remaining drift steps itself, in bounding.drift_tail, and yields no
    more, with the same keys, draws and update count as the steps run one
    by one. Such a block coalesces, and sample() replays only blocks that
    did not; a carried run of one runs the same steps one by one.
    """
    n, q = state.g.n, state.q
    seeded, t2 = schedule.seeded, schedule.t2
    preserved: set[int] = set()
    for v in seeded:
        yield 1, v, preserved
        preserved.add(v)
    for v in islice(cycle(seeded), schedule.t1):
        yield 1, v, preserved
    for v in range(n):
        if v not in preserved:
            yield 2, v, preserved
            preserved.add(v)
    # sweeps of n steps, each after a look for the drift tail (at
    # q <= max_degree its updates would fall back); no vertex, no drift
    tail = state.coloring is None and q > state.g.max_degree
    for start in range(0, t2 if n else 0, max(n, 1)):
        if tail and state.all_singletons():
            bd.drift_tail(state, t2 - start)
            return
        for v in range(min(n, t2 - start)):
            yield 2, v, None


def run_schedule(state: bd.BoundingState, schedule: Schedule) -> None:
    """Run the steps block_steps yields for schedule on state, to
    completion; the drift tail, which block_steps runs itself, is every
    remaining step.

    A seeding or disjoint update whose parameter regime is infeasible falls
    back, by one rule in both phases, to compressing v against the
    reference set of all v's neighbor lists (bd.apply_compress), and state
    counts the fallback under the update it replaced.
    Swapping the coupling is safe because the choice depends only on the
    bounding lists, never on any trajectory, so every composed step still
    applies an exact single-site kernel; cutting the schedule short would
    not be, since stopping is correlated with the very draws being
    replayed, and replaying such a conditioned prefix measurably biases the
    output.
    """
    for phase, v, preserved in block_steps(state, schedule):
        if preserved is not None:
            bd.cleanup(state, v, preserved)
        try:
            (bd.apply_seeding if phase == 1 else bd.apply_disjoint)(state, v)
        except CouplingRegimeError:
            bd.apply_compress(state, [state.lists[u] for u in state.g.adjacency[v]], [v])
            state.seeding_fallbacks += phase == 1
            state.disjoint_fallbacks += phase == 2


def construct_block(schedule: Schedule, block_index: int, stream: SeedStream) -> bd.BoundingState:
    """Build a block: its steps (block_steps) on full lists; returns its state."""
    state = bd.BoundingState(schedule.g, schedule.q, stream, block_index)
    run_schedule(state, schedule)
    phi = state.phi
    if phi is not None and not is_proper(schedule.g, phi):
        raise EngineError("coalesced configuration is not a proper coloring")
    return state


def is_proper(g: Graph, coloring) -> bool:
    return all(coloring[u] != coloring[v] for u, v in g.edges)


def replay(schedule: Schedule, block_index: int, stream: SeedStream, omega) -> tuple[int, ...]:
    """Push a proper coloring through every update of a block.

    Runs the block's schedule again with omega carried alongside the
    bounding lists. Raises EngineError if a carried color leaves the list
    its update predicted, which sound couplings never allow.
    """
    if not is_proper(schedule.g, omega):
        raise ValueError("replay requires a proper input coloring")
    state = bd.BoundingState(schedule.g, schedule.q, stream, block_index, coloring=omega)
    run_schedule(state, schedule)
    return tuple(state.coloring)


def sample(g: Graph, config: SamplerConfig) -> SampleResult:
    """Draw one exactly-uniform proper coloring.

    Builds blocks until one coalesces, then replays the newer blocks on top
    of the coalesced configuration, oldest first. Raises NoCoalescenceError
    (with run statistics attached) if max_blocks is exhausted.
    """
    t0 = time.perf_counter()
    check_config(g, config)
    stream = SeedStream(config.master_seed)
    seed_set = lll_partition(g, stream)
    schedule = schedule_for(g, config, seed_set)
    updates = degraded = 0
    phase_stats = {"seeding_fallbacks": 0, "disjoint_fallbacks": 0}
    for t in range(1, config.max_blocks + 1):
        block = construct_block(schedule, t, stream)
        updates += block.updates
        degraded += bool(block.seeding_fallbacks or block.disjoint_fallbacks)
        phase_stats["seeding_fallbacks"] += block.seeding_fallbacks
        phase_stats["disjoint_fallbacks"] += block.disjoint_fallbacks
        omega = block.phi
        # free this block's lists before the next block builds its own
        del block
        if omega is not None:
            for s in range(t - 1, 0, -1):
                omega = replay(schedule, s, stream, omega)
            if not is_proper(g, omega):
                raise EngineError("sampler produced an improper coloring")
            break
    # one record of the run statistics, for the result or the error alike
    stats = {
        "blocks_used": t,
        "updates": updates,
        "degraded_blocks": degraded,
        "phase_stats": phase_stats,
        "wall_ms": (time.perf_counter() - t0) * 1e3,
        "partition_resamples": seed_set.resamples,
    }
    if omega is None:
        raise NoCoalescenceError(
            f"no coalescence within {config.max_blocks} blocks", stats=stats
        )
    return SampleResult(coloring=omega, q=config.q, master_seed=config.master_seed, **stats)
