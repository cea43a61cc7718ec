import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cftp_colorings import bounding as bd
from cftp_colorings import couplings as cp
from cftp_colorings import engine
from cftp_colorings.colorsets import nth_outside
from cftp_colorings.errors import CouplingRegimeError, NoCoalescenceError
from cftp_colorings.graphs import (
    build_graph,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_random_regular,
    gen_single_vertex,
)
from cftp_colorings.oracle import enumerate_colorings, goodness_of_fit
from cftp_colorings.seedstream import SeedStream, raw64
from cftp_colorings.verification import sample_many


def test_eta_reference_value():
    # 2 * sqrt((ln 8 + 1) / 8)
    assert engine.eta_for(8) == pytest.approx(2 * math.sqrt((math.log(8) + 1) / 8))
    assert engine.regime_threshold(8) == pytest.approx(29.93, abs=0.01)


def test_t_schedules(monkeypatch):
    assert engine.default_t1(0) == 0 and engine.default_t1(1) == 0
    assert engine.default_t1(10) == math.ceil(50 * math.log(10))
    assert engine.default_t2(1, 13, 3) == 0
    assert engine.default_t2(100, 25, 6) == math.ceil(2 * 19 * 100 * math.log(100) / 10)
    with pytest.raises(ValueError):
        engine.default_t2(10, 7, 3)  # q <= 2.5 * delta needs an override
    # schedule_for applies them to the partition and the config
    g = gen_complete_bipartite(32)
    part = engine.lll_partition(g, SeedStream(11))
    assert len(part) > 0
    for t2 in (None, 300):
        cfg = engine.SamplerConfig(q=105, master_seed=11, t2_override=t2)
        schedule = engine.schedule_for(g, cfg, part)
        assert schedule.g is g and schedule.q == 105
        assert schedule.seeded == tuple(sorted(part.members))
        assert schedule.t1 == engine.default_t1(len(part))
        assert schedule.t2 == (engine.default_t2(g.n, 105, 32) if t2 is None else t2)
    # one schedule per sample, which every block reads: the golden case
    # forced-d6-q18-t60-s19 builds 3 blocks and replays 2
    built, read = [], []
    schedule_for, run_schedule = engine.schedule_for, engine.run_schedule

    def building(*args):
        built.append(schedule_for(*args))
        return built[-1]

    def reading(state, schedule):
        read.append(schedule)
        run_schedule(state, schedule)

    monkeypatch.setattr(engine, "schedule_for", building)
    monkeypatch.setattr(engine, "run_schedule", reading)
    cfg = engine.SamplerConfig(q=18, master_seed=19, force=True, t2_override=60)
    assert engine.sample(gen_random_regular(20, 6, seed=5), cfg).blocks_used == 3
    assert len(built) == 1 and len(read) == 5
    assert all(schedule is built[0] for schedule in read)


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def test_partition_small_degree_is_empty(monkeypatch):
    # eta >= 1 for degrees 1 to 14, so the inclusion probability clamps to
    # 0: the coins and their repair give the empty set with no resample, so
    # lll_partition draws no coin
    for degree in (1, 6, 14):
        g = gen_random_regular(40, degree, seed=1)
        assert engine.eta_for(degree) >= 1
        coins = engine._repaired_coins(g, SeedStream(3), 0.0, engine.eta_for(degree))
        assert coins == (frozenset(), 0)
        with monkeypatch.context() as m:
            m.setattr(engine, "unit_uniform", None)
            part = engine.lll_partition(g, SeedStream(3))
        assert len(part) == 0 and part.resamples == 0
        assert engine.audit_partition(g, part.members)


def test_partition_k66_bounds():
    g = gen_complete_bipartite(6)
    part = engine.lll_partition(g, SeedStream(4))
    for v in range(g.n):
        assert sum(1 for u in g.adjacency[v] if u in part.members) <= 3


def test_partition_empty_graph_coin_flips():
    g = build_graph(40, [])
    part = engine.lll_partition(g, SeedStream(5))
    assert 0 < len(part) < 40  # p0 = 1/2 coins, bounds vacuous
    assert engine.audit_partition(g, part.members)


def test_partition_nontrivial_degree_audits():
    g = gen_complete_bipartite(32)
    for seed in range(5):
        part = engine.lll_partition(g, SeedStream(seed))
        assert engine.audit_partition(g, part.members)
        assert part.resamples <= max(16, math.ceil(10 * g.n / 32))


def test_partition_deterministic():
    g = gen_complete_bipartite(16)
    a = engine.lll_partition(g, SeedStream(9))
    b = engine.lll_partition(g, SeedStream(9))
    assert a.members == b.members


def test_partition_repair_loop_converges(monkeypatch):
    # scaling every coin by p0 / 0.42 makes a vertex join with chance 0.42,
    # which forces violations of the real balance bounds; the resampling
    # repair must fix them while staying within budget
    g = gen_complete_bipartite(16)
    p0 = 0.5 - engine.eta_for(16) / 2
    unit = engine.unit_uniform
    monkeypatch.setattr(engine, "unit_uniform", lambda key, i: unit(key, i) * p0 / 0.42)
    hit = 0
    for seed in range(20):
        part = engine.lll_partition(g, SeedStream(40 + seed))
        assert engine.audit_partition(g, part.members)
        hit += part.resamples > 0
    assert hit > 0  # the repair path actually ran


def test_partition_budget_exceeded_raises(monkeypatch):
    # with every coin 0.0 every vertex joins, so each vertex has 16 neighbors
    # inside where at most 8 are allowed; the repair cannot converge and must
    # stop at its budget
    g = gen_complete_bipartite(16)
    monkeypatch.setattr(engine, "unit_uniform", lambda key, i: 0.0)
    with pytest.raises(engine.EngineError, match="resamples"):
        engine.lll_partition(g, SeedStream(41))


# ---------------------------------------------------------------------------
# block construction
# ---------------------------------------------------------------------------


def record_list_sizes(monkeypatch, name):
    """Wrap bounding.<name> to record (vertex, new list size, slack size) per
    call; the slack is read before the update."""
    seen = []
    update = getattr(bd, name)

    def recording(state, v):
        slack = bd.neighborhood_slack(state, v).bit_count()
        update(state, v)
        seen.append((v, state.lists[v].bit_count(), slack))

    monkeypatch.setattr(bd, name, recording)
    return seen


def test_block_phase_invariants_k3232(monkeypatch):
    # every seeding update leaves a list of one of the two sizes its slack's
    # law draws, and every disjoint update one of 1 or 2; a vertex is
    # preserved right after its own update in its phase, so these are also
    # the phase-end sizes
    seeding = record_list_sizes(monkeypatch, "apply_seeding")
    disjoint = record_list_sizes(monkeypatch, "apply_disjoint")
    g = gen_complete_bipartite(32)
    cfg = engine.SamplerConfig(q=105, master_seed=11)
    stream = SeedStream(11)
    part = engine.lll_partition(g, stream)
    block = engine.construct_block(engine.schedule_for(g, cfg, part), 1, stream)
    assert len(part) > 0
    assert {v for v, _, _ in seeding} == part.members
    assert set(range(g.n)) - part.members <= {v for v, _, _ in disjoint}
    for _, size, slack in seeding:
        law = cp.seeding_size_law(slack, g.max_degree, cfg.q)
        assert size in (law.lo, law.hi), (size, slack, law)
    assert {s for _, s, _ in disjoint} <= {1, 2}
    assert block.seeding_fallbacks == 0


def test_block_runs_no_lp(monkeypatch):
    # seeding_size_law is a closed form; the LP only checks it, off the hot path
    def no_lp(*args):
        raise AssertionError("the sampler ran the size-law LP")

    calls = []
    size_law = cp.seeding_size_law

    def counting(*args):
        calls.append(args)
        return size_law(*args)

    g = gen_complete_bipartite(32)
    cfg = engine.SamplerConfig(q=105, master_seed=11)
    stream = SeedStream(11)
    part = engine.lll_partition(g, stream)
    assert len(part) > 0
    monkeypatch.setattr(cp, "LPInstance", no_lp)
    monkeypatch.setattr(cp, "verify_full_lp", no_lp)
    monkeypatch.setattr(cp, "seeding_size_law", counting)
    engine.construct_block(engine.schedule_for(g, cfg, part), 1, stream)
    assert len(calls) > 0


def built_block_hashes(monkeypatch):
    """Calls to couplings.raw64, couplings.unit_uniform and bounding.raw64
    while construct_block builds block 1 of a graph with no seeding set and
    n >= 32, whose state takes its keys in batches; with the number of
    disjoint updates that built a slot layout."""
    g = gen_random_regular(64, 8, seed=3)
    cfg = engine.SamplerConfig(q=31, master_seed=5)
    stream = SeedStream(5)
    part = engine.lll_partition(g, stream)
    assert len(part) == 0 and bd.BoundingState(g, cfg.q, stream, 1)._lanes > 0
    schedule = engine.schedule_for(g, cfg, part)
    calls = Counter()

    def counted(label, fn):
        def counting(*args):
            calls[label] += 1
            return fn(*args)

        return counting

    for owner, name in ((cp, "raw64"), (cp, "unit_uniform"), (bd, "raw64")):
        label = f"{owner.__name__}.{name}"
        monkeypatch.setattr(owner, name, counted(label, getattr(owner, name)))
    monkeypatch.setattr(cp, "disjoint_new_list", counted("layouts", cp.disjoint_new_list))
    engine.construct_block(schedule, 1, stream)
    layouts = calls.pop("layouts", 0)
    return calls, layouts


def test_built_block_reads_every_word_from_the_key_batch(monkeypatch):
    # a built Phase II update reads words 0 and 2 only, and the batch holds
    # both; no draw 1, which no batch carries, is hashed
    calls, layouts = built_block_hashes(monkeypatch)
    assert layouts > 0
    assert sum(calls.values()) == 0, calls


def test_built_block_hash_check_catches_draw_1(monkeypatch):
    """Negative control: every layout update hashes draw 1, as a decode would."""
    real = bd.BoundingState.next_words02

    def with_draw_1(self):
        key = self.stream.subkey(self.block, self.updates)
        words = real(self)
        cp.unit_uniform(key, 1)
        return words

    monkeypatch.setattr(bd.BoundingState, "next_words02", with_draw_1)
    calls, layouts = built_block_hashes(monkeypatch)
    assert calls["cftp_colorings.couplings.unit_uniform"] == layouts > 0


def test_seeding_fallback_block_replays(monkeypatch):
    # at q = 66 on K32,32 the slack of a seeded vertex is often too wide for
    # the size law, so seeding falls back to compress; a carried coloring must
    # stay in its lists through those updates, the same way on every replay
    g = gen_complete_bipartite(32)
    cfg = engine.SamplerConfig(q=66, master_seed=0, force=True, t2_override=50)
    stream = SeedStream(0)
    schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
    block = engine.construct_block(schedule, 1, stream)
    assert block.seeding_fallbacks > 0
    replayed = []
    run_schedule = engine.run_schedule

    def recording(state, schedule):
        run_schedule(state, schedule)
        replayed.append(state)

    monkeypatch.setattr(engine, "run_schedule", recording)
    start = tuple(v % 3 if v < 32 else 3 + v % 5 for v in range(g.n))
    assert engine.is_proper(g, start)
    # replay raises EngineError if a carried color leaves its bounding list
    out = engine.replay(schedule, 1, stream, start)
    assert engine.replay(schedule, 1, stream, start) == out
    assert engine.is_proper(g, out)
    # both replays carried the coloring through the block's fallbacks
    assert [s.seeding_fallbacks for s in replayed] == [block.seeding_fallbacks] * 2


def test_seeding_fallback_compresses_against_all_neighbor_lists(monkeypatch):
    # a fallback reads every neighbor list of v, the compressed ones too, by
    # the same rule as cleanup; the block is test_seeding_fallback_block_replays'
    g = gen_complete_bipartite(32)
    cfg = engine.SamplerConfig(q=66, master_seed=0, force=True, t2_override=50)
    stream = SeedStream(0)
    schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
    pending = []
    checked = 0
    apply_seeding, apply_compress = bd.apply_seeding, bd.apply_compress

    def seeding(state, v):
        try:
            apply_seeding(state, v)
        except CouplingRegimeError:
            pending.append(([v], [state.lists[u] for u in g.adjacency[v]]))
            raise

    def compress(state, kept, targets):
        nonlocal checked
        if pending:
            # the compress batch right after a failed seeding update is its
            # fallback: v alone, against every neighbor list of v
            assert (targets, kept) == pending.pop()
            checked += 1
        apply_compress(state, kept, targets)

    monkeypatch.setattr(bd, "apply_seeding", seeding)
    monkeypatch.setattr(bd, "apply_compress", compress)
    block = engine.construct_block(schedule, 1, stream)
    assert checked == block.seeding_fallbacks > 0


def schedule_updates(schedule):
    """The updates one block of schedule makes, from the schedule alone: a
    seeding, Phase I drift or conversion step at v makes one update per
    neighbor of v not yet preserved (its cleanup), then v's own; a Phase II
    drift step makes one."""
    g, seeded = schedule.g, schedule.seeded
    drift = [seeded[i % len(seeded)] for i in range(schedule.t1)] if seeded else []
    preserved, total = set(), 0
    for v in [*seeded, *drift, *(v for v in range(g.n) if v not in seeded)]:
        total += 1 + sum(u not in preserved for u in g.adjacency[v])
        preserved.add(v)
    return total + (schedule.t2 if g.n else 0)


def test_block_update_budget():
    g = gen_random_regular(60, 6, seed=2)
    q = math.ceil(engine.regime_threshold(6)) + 1
    cfg = engine.SamplerConfig(q=q, master_seed=12)
    stream = SeedStream(12)
    schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
    block = engine.construct_block(schedule, 1, stream)
    # each conversion step makes at most delta + 1 updates (cleanup
    # compresses the neighbors, then the vertex itself), and exactly the
    # count its preserved neighbors give; a Phase II drift step makes one
    assert schedule_updates(schedule) <= g.n * (6 + 1) + schedule.t2
    assert block.updates == schedule_updates(schedule)


# K32,32 with its partition's seeding set: at q = 66 seeding and disjoint
# updates fall back to compress
K3232_SCHEDULES = [(105, 128, 10), (66, 50, 3)]


@pytest.mark.parametrize("q, t2, master", K3232_SCHEDULES, ids=["q105", "q66-fallbacks"])
def test_every_block_of_a_schedule_makes_the_same_updates(q, t2, master):
    # every update takes one key and nothing else does, and a step's
    # updates follow from the schedule, so no draw, fallback or drift tail
    # moves the count: built blocks 1-4 and a carried run of block 1 agree
    g = gen_complete_bipartite(32)
    cfg = engine.SamplerConfig(q=q, master_seed=master, force=True, t2_override=t2)
    stream = SeedStream(master)
    schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
    assert schedule.seeded and schedule.t1 > 0
    blocks = [engine.construct_block(schedule, t, stream) for t in range(1, 5)]
    start = tuple(v % 3 if v < 32 else 3 + v % 5 for v in range(g.n))
    carried = bd.BoundingState(g, q, stream, 1, coloring=start)
    engine.run_schedule(carried, schedule)
    assert any(b.seeding_fallbacks for b in blocks) == (q == 66)
    assert [s.updates for s in [*blocks, carried]] == [schedule_updates(schedule)] * 5


def test_phase_1_drift_sweeps_the_seeding_set_in_order(monkeypatch):
    # seeding updates visit S in order, then drift step i visits S[i mod |S|]
    g = gen_complete_bipartite(32)
    cfg = engine.SamplerConfig(q=105, master_seed=10, t2_override=128)
    stream = SeedStream(10)
    schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
    seeded = schedule.seeded
    assert 1 < len(seeded) < schedule.t1
    updated, apply_seeding = [], bd.apply_seeding

    def recorded(state, v):
        updated.append(v)
        apply_seeding(state, v)

    monkeypatch.setattr(bd, "apply_seeding", recorded)
    engine.construct_block(schedule, 1, stream)
    assert updated == [*seeded, *(seeded[i % len(seeded)] for i in range(schedule.t1))]


def test_empty_seeding_set_runs_no_phase_1_drift():
    # a schedule built directly with t1 > 0 and no seeded vertex drifts
    # nothing in Phase I, as a graph with no vertex drifts nothing in Phase II
    g = gen_complete(4)
    stream = SeedStream(17)
    built = [
        engine.construct_block(engine.Schedule(g, 13, (), t1, 8), 1, stream) for t1 in (0, 5)
    ]
    assert built[0].lists == built[1].lists
    assert built[0].updates == built[1].updates == 4 + 3 + 2 + 1 + 8


# ---------------------------------------------------------------------------
# a built block's peak memory
# ---------------------------------------------------------------------------

MEMORY_BOUND = 3  # peak traced bytes over the bytes the final lists hold


def block_peak_over_lists(master_seed):
    """tracemalloc's peak while block 1 of a random 8-regular graph (n = 400,
    q = 31, graph seed 11) builds, over the bytes its final lists hold: the
    list and each distinct mask object. A warm-up block is built first, so
    lazy set-up is not counted."""
    g = gen_random_regular(400, 8, seed=11)
    stream = SeedStream(master_seed)
    cfg = engine.SamplerConfig(q=31, master_seed=master_seed)
    schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
    engine.construct_block(schedule, 1, stream)
    tracemalloc.start()
    try:
        state = engine.construct_block(schedule, 1, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    masks = {id(m): m for m in state.lists}.values()
    return peak / (sys.getsizeof(state.lists) + sum(map(sys.getsizeof, masks)))


@pytest.mark.parametrize("master_seed", [1, 2, 3])
def test_built_block_peak_memory_stays_near_its_lists(master_seed):
    # a block holds one flag per vertex beyond its lists (block_steps), so
    # its peak is about 1.9 times what the lists hold; a per-vertex set
    # held through the block reads over 5 times
    assert block_peak_over_lists(master_seed) <= MEMORY_BOUND


def test_block_memory_check_catches_a_vertex_set_held_through_the_block(monkeypatch):
    """Negative control: a set of all n vertices lives as long as the steps."""
    inner = engine.block_steps

    def holding(state, schedule):
        held = set(range(state.g.n))
        yield from inner(state, schedule)
        del held

    monkeypatch.setattr(engine, "block_steps", holding)
    assert block_peak_over_lists(1) > MEMORY_BOUND


# ---------------------------------------------------------------------------
# the drift tail
# ---------------------------------------------------------------------------

# (graph, q, t2, parity of the tail's first key): 20 vertices take one key
# at a time; 35 and 34 vertices take batches of 2 keys, which start at even
# keys, so a tail starting at an odd key (key 175, after two sweeps) reads
# its first word from the last lane of a batch taken before the tail and
# its second from a new batch, and one starting at an even key (key 170)
# starts at a batch's first lane; 40 vertices at q = 70 take batches of 2
# keys too, and their neighbor masks and draw ranges pass 64 bits
TAIL_FIXTURES = [
    (gen_random_regular(20, 4, seed=1), 17, 300, None),
    (gen_random_regular(35, 4, seed=1), 17, 400, 1),
    (gen_random_regular(34, 4, seed=1), 17, 400, 0),
    (gen_random_regular(40, 6, seed=1), 70, 400, 0),
]
TAIL_IDS = ["one-key", "batch-odd-start", "batch-even-start", "batch-wide-palette"]


def tail_run(monkeypatch, graph, q, t2, omega):
    """Block 1 at master seed 3, built, or replayed from the proper coloring
    omega: the keys at which the tail started, and the state's lists,
    coloring and update count (the key index) at the end."""
    cfg = engine.SamplerConfig(q=q, master_seed=3, t2_override=t2)
    stream = SeedStream(3)
    schedule = engine.schedule_for(graph, cfg, engine.lll_partition(graph, stream))
    starts, tail = [], bd.drift_tail

    def recorded(state, steps):
        starts.append(state.updates)
        tail(state, steps)

    monkeypatch.setattr(bd, "drift_tail", recorded)
    state = bd.BoundingState(graph, q, stream, 1, coloring=omega)
    engine.run_schedule(state, schedule)
    return starts, (state.lists, state.coloring, state.updates)


def tail_mismatches(monkeypatch, graph, q, t2):
    """The tail's start keys in a built run of the block, and the fields of
    the final state in which the run with the tail differs from it run with
    the tail turned off."""
    with monkeypatch.context() as m:
        starts, on = tail_run(m, graph, q, t2, None)
    with monkeypatch.context() as m:
        m.setattr(bd.BoundingState, "all_singletons", lambda self: False)
        no_starts, off = tail_run(m, graph, q, t2, None)
    assert no_starts == []
    names = ("lists", "coloring", "updates")
    return starts, [name for name, a, b in zip(names, on, off) if a != b]


@pytest.mark.parametrize("carried", [False, True], ids=["built", "carried"])
@pytest.mark.parametrize("graph, q, t2, parity", TAIL_FIXTURES, ids=TAIL_IDS)
def test_drift_tail_matches_the_steps_run_one_by_one(monkeypatch, graph, q, t2, parity, carried):
    if not carried:
        starts, mismatches = tail_mismatches(monkeypatch, graph, q, t2)
        assert len(starts) == 1
        assert parity is None or starts[0] % 2 == parity
        assert mismatches == []
        return
    # a replay of the block from block 2's coalesced coloring starts no
    # tail: it runs the same steps one by one, and ends where the built
    # run, which took the tail, ends, carrying the built block's phi
    cfg = engine.SamplerConfig(q=q, master_seed=3, t2_override=t2)
    stream = SeedStream(3)
    schedule = engine.schedule_for(graph, cfg, engine.lll_partition(graph, stream))
    omega = engine.construct_block(schedule, 2, stream).phi
    assert omega is not None
    with monkeypatch.context() as m:
        starts, (lists, coloring, updates) = tail_run(m, graph, q, t2, omega)
    with monkeypatch.context() as m:
        built_starts, (built_lists, _, built_updates) = tail_run(m, graph, q, t2, None)
    assert starts == [] and len(built_starts) == 1
    assert (lists, updates) == (built_lists, built_updates)
    assert tuple(coloring) == engine.construct_block(schedule, 1, stream).phi


@pytest.mark.parametrize("graph, q, t2, parity", TAIL_FIXTURES, ids=TAIL_IDS)
def test_phase_2_drift_sweeps_the_vertices_in_order(monkeypatch, graph, q, t2, parity):
    # a carried run yields every drift step, so apply_disjoint sees drift
    # step i at vertex i mod n, on both key paths; the seeding set is
    # empty, so the convert pass before it takes 0 .. n - 1 too
    n = graph.n
    cfg = engine.SamplerConfig(q=q, master_seed=3, t2_override=t2)
    stream = SeedStream(3)
    schedule = engine.schedule_for(graph, cfg, engine.lll_partition(graph, stream))
    assert schedule.seeded == ()
    omega = engine.construct_block(schedule, 2, stream).phi
    assert omega is not None
    updated, apply_disjoint = [], bd.apply_disjoint

    def recorded(state, v):
        updated.append(v)
        apply_disjoint(state, v)

    with monkeypatch.context() as m:
        m.setattr(bd, "apply_disjoint", recorded)
        starts, (lists, _, updates) = tail_run(m, graph, q, t2, omega)
    assert starts == []
    assert updated == list(range(n)) + [i % n for i in range(t2)]
    # a built run takes the tail once, at a sweep's start (its steps take
    # one key each), and ends where the carried run does
    with monkeypatch.context() as m:
        built_starts, (built_lists, _, built_updates) = tail_run(m, graph, q, t2, None)
    assert len(built_starts) == 1
    assert (t2 - (built_updates - built_starts[0])) % n == 0
    assert (lists, updates) == (built_lists, built_updates)


def test_every_block_that_takes_the_tail_coalesces(monkeypatch):
    # why the tail needs no carried mode: a block's lists stay singletons
    # once they all are, so a block that takes the tail coalesces, and
    # sample() replays only blocks that did not
    tailed, tail = [], bd.drift_tail

    def recorded(state, steps):
        tailed.append(state)
        tail(state, steps)

    monkeypatch.setattr(bd, "drift_tail", recorded)
    # the forced-d6 graph of the golden cases with a drift of three sweeps,
    # where 45 of the 200 blocks fail to coalesce, then the tail fixtures
    fixtures = [(gen_random_regular(20, 6, seed=5), 18, 60, 200)]
    fixtures += [(graph, q, t2, 40) for graph, q, t2, _ in TAIL_FIXTURES]
    took_tail = failed = 0
    for graph, q, t2, blocks in fixtures:
        cfg = engine.SamplerConfig(q=q, master_seed=5, force=True, t2_override=t2)
        stream = SeedStream(5)
        schedule = engine.schedule_for(graph, cfg, engine.lll_partition(graph, stream))
        for t in range(1, blocks + 1):
            tailed.clear()
            block = engine.construct_block(schedule, t, stream)
            assert tailed in ([], [block])
            assert not tailed or block.phi is not None
            took_tail += bool(tailed)
            failed += block.phi is None
    assert took_tail > 100 and failed > 10


def sweep_tail(first, draw, short):
    """A drift tail that starts its sweep at vertex first, reads word draw
    of each step's key and draws its color's index below q - |m| - short,
    for the neighbor colors m; first 0, draw 2 and short 0 is the shipped
    rule."""

    def tail(state, steps):
        lists, g = state.lists, state.g
        for i in range(steps):
            v = (first + i) % g.n
            m = 0
            for u in g.adjacency[v]:
                m |= lists[u]
            word = raw64(state.next_key(), draw)
            lists[v] = 1 << nth_outside(m, (word * (state.q - m.bit_count() - short)) >> 64)

    return tail


MISREAD = (0, 1, 3)  # one key at a time, a batch, a wide palette


@pytest.mark.parametrize(
    "graph, q, t2, parity",
    [TAIL_FIXTURES[i] for i in MISREAD],
    ids=[TAIL_IDS[i] for i in MISREAD],
)
def test_tail_check_catches_a_misread_sweep(monkeypatch, graph, q, t2, parity):
    """Negative control: tails that take the same keys but start their
    sweep at vertex 1, read word 0 or draw below q - |m| - 1 must fail the
    check; the same loop with the shipped rule passes it."""
    found = {}
    for first, draw, short in [(0, 2, 0), (1, 2, 0), (0, 0, 0), (0, 2, 1)]:
        with monkeypatch.context() as m:
            m.setattr(bd, "drift_tail", sweep_tail(first, draw, short))
            starts, found[first, draw, short] = tail_mismatches(m, graph, q, t2)
        assert len(starts) == 1
    assert found == {
        (0, 2, 0): [], (1, 2, 0): ["lists"], (0, 0, 0): ["lists"], (0, 2, 1): ["lists"]
    }


# ---------------------------------------------------------------------------
# replay and sampling
# ---------------------------------------------------------------------------


def coalescing_block(schedule, stream, tries=50):
    """(index, block) of the first coalescing block."""
    for t in range(1, 1 + tries):
        block = engine.construct_block(schedule, t, stream)
        if block.phi is not None:
            return t, block
    raise AssertionError("no coalescing block found")


def test_replay_empty_composition_is_identity():
    # an empty graph has an empty schedule
    g = build_graph(0, [])
    cfg = engine.SamplerConfig(q=13, master_seed=14)
    stream = SeedStream(14)
    schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
    assert engine.construct_block(schedule, 1, stream).updates == 0
    assert engine.replay(schedule, 1, stream, ()) == ()


def test_empty_graph_drift_updates_nothing():
    # a drift length with no vertex to sweep takes no key and no update
    g = build_graph(0, [])
    cfg = engine.SamplerConfig(q=13, master_seed=14, t2_override=5)
    result = engine.sample(g, cfg)
    assert result.coloring == () and result.updates == 0


def test_replay_rejects_improper_input():
    g = gen_complete(4)
    cfg = engine.SamplerConfig(q=13, master_seed=15)
    stream = SeedStream(15)
    schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
    with pytest.raises(ValueError):
        engine.replay(schedule, 1, stream, (0, 0, 1, 2))


@pytest.mark.parametrize("seeded", [False, True], ids=["partition", "seeded-0-1"])
def test_coalescence_soundness_replay_from_many_starts(monkeypatch, seeded):
    # at delta = 3 the partition is empty, so Phase I runs only in a
    # schedule built directly; any schedule fixed before the draws is exact
    g = gen_complete(4)
    q = 13
    cfg = engine.SamplerConfig(q=q, master_seed=16)
    stream = SeedStream(16)
    schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
    assert schedule.seeded == ()
    if seeded:
        schedule = schedule._replace(seeded=(0, 1), t1=engine.default_t1(2))
    t, block = coalescing_block(schedule, stream)
    assert block.seeding_fallbacks == 0
    seeding = record_list_sizes(monkeypatch, "apply_seeding")
    universe = enumerate_colorings(g, q)
    rng = np.random.default_rng(0)
    for i in rng.integers(0, len(universe), 50):
        seeding.clear()
        assert engine.replay(schedule, t, stream, universe[i]) == block.phi
        assert len(seeding) == len(schedule.seeded) + schedule.t1
    assert len(seeding) == (9 if seeded else 0)


def test_replay_preserves_properness():
    g = gen_cycle(5)
    q = 9
    cfg = engine.SamplerConfig(q=q, master_seed=17, force=True)
    stream = SeedStream(17)
    schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
    block = engine.construct_block(schedule, 1, stream)
    universe = enumerate_colorings(g, q)
    rng = np.random.default_rng(1)
    for i in rng.integers(0, len(universe), 30):
        out = engine.replay(schedule, 1, stream, universe[i])
        assert engine.is_proper(g, out)


def test_stationarity_one_block_push():
    # uniform in, uniform out: fresh block and fresh uniform start per trial
    g = gen_cycle(3)
    q = 6
    universe = enumerate_colorings(g, q)
    rng = np.random.default_rng(2)
    outs = []
    for t in range(6000):
        cfg = engine.SamplerConfig(q=q, master_seed=1000 + t, force=True)
        stream = SeedStream(cfg.master_seed)
        schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
        start = universe[rng.integers(0, len(universe))]
        outs.append(engine.replay(schedule, 1, stream, start))
    assert goodness_of_fit(outs, universe).pvalue > 0.001


def test_sample_single_vertex_uniform():
    g = gen_single_vertex()
    cfg = engine.SamplerConfig(q=3, master_seed=18)
    results = sample_many(g, cfg, 30_000)
    counts = Counter(r.coloring[0] for r in results)
    sigma = math.sqrt((1 / 3) * (2 / 3) / 30_000)
    for c in range(3):
        assert abs(counts[c] / 30_000 - 1 / 3) <= 3 * sigma


def test_sample_deterministic():
    g = gen_complete(4)
    cfg = engine.SamplerConfig(q=13, master_seed=19)
    a = engine.sample(g, cfg)
    b = engine.sample(g, cfg)
    assert a.coloring == b.coloring
    assert (a.blocks_used, a.updates) == (b.blocks_used, b.updates)


def test_sample_output_proper():
    g = gen_random_regular(30, 4, seed=3)
    q = math.ceil(engine.regime_threshold(4)) + 1
    for seed in range(10):
        r = engine.sample(g, engine.SamplerConfig(q=q, master_seed=seed))
        assert engine.is_proper(g, r.coloring)


def test_mean_blocks_small_in_regime():
    g = gen_random_regular(30, 4, seed=3)
    q = math.ceil(engine.regime_threshold(4)) + 1
    cfg = engine.SamplerConfig(q=q, master_seed=24)
    results = sample_many(g, cfg, 100)
    mean_blocks = sum(r.blocks_used for r in results) / len(results)
    assert mean_blocks <= 2.5
    assert all(r.degraded_blocks == 0 for r in results)


def test_check_config_rejects_bad_budgets():
    g = gen_complete(4)
    with pytest.raises(ValueError, match="max_blocks"):
        engine.check_config(g, engine.SamplerConfig(q=13, master_seed=1, max_blocks=0))
    with pytest.raises(ValueError, match="t2_override"):
        engine.check_config(g, engine.SamplerConfig(q=13, master_seed=1, t2_override=-1))


def test_sample_requires_enough_colors():
    g = gen_complete(4)
    with pytest.raises(ValueError, match="max_degree"):
        engine.sample(g, engine.SamplerConfig(q=4, master_seed=20))


def test_sample_below_threshold_needs_force():
    g = gen_complete(4)
    with pytest.raises(ValueError, match="force"):
        engine.sample(g, engine.SamplerConfig(q=8, master_seed=21))


def test_sample_no_coalescence_reports_stats():
    # q = delta + 2 on K5 coalesces essentially never within one block
    g = gen_complete(5)
    cfg = engine.SamplerConfig(
        q=6, master_seed=22, max_blocks=2, force=True, t2_override=50
    )
    with pytest.raises(NoCoalescenceError) as err:
        engine.sample(g, cfg)
    assert err.value.stats["blocks_used"] == 2
    # the exit-2 JSON's keys, in order: the run statistics a SampleResult holds
    assert list(err.value.stats) == [
        "blocks_used", "updates", "degraded_blocks", "phase_stats", "wall_ms",
        "partition_resamples",
    ]
    # the same fallback counts a SampleResult reports
    phase_stats = err.value.stats["phase_stats"]
    assert set(phase_stats) == {"seeding_fallbacks", "disjoint_fallbacks"}
    assert all(isinstance(n, int) and n >= 0 for n in phase_stats.values())
    # every degraded block fell back at least once
    assert sum(phase_stats.values()) >= err.value.stats["degraded_blocks"]


def test_sample_uniform_on_even_cycle_forced():
    # triangle-free structure below the regime threshold; exactness must
    # hold whenever the sampler halts
    g = gen_cycle(4)
    q = 6
    universe = enumerate_colorings(g, q)
    assert len(universe) == (q - 1) ** 4 + (q - 1)
    cfg = engine.SamplerConfig(q=q, master_seed=61, force=True, max_blocks=256)
    results = sample_many(g, cfg, 6300)
    assert goodness_of_fit([r.coloring for r in results], universe).pvalue > 0.001


def test_sample_uniform_with_isolated_vertices():
    g = build_graph(3, [(0, 1)])
    q = 3
    universe = enumerate_colorings(g, q)
    assert len(universe) == 6 * 3  # edge colorings times the free vertex
    cfg = engine.SamplerConfig(q=q, master_seed=62, force=True, t2_override=30)
    results = sample_many(g, cfg, 9000)
    assert goodness_of_fit([r.coloring for r in results], universe).pvalue > 0.001


def test_distinct_seeds_give_distinct_runs():
    g = gen_complete(4)
    colorings = {
        engine.sample(g, engine.SamplerConfig(q=13, master_seed=s)).coloring
        for s in range(12)
    }
    assert len(colorings) > 1


def test_sample_proper_on_random_small_graphs():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(3, 10),
        extra=st.integers(0, 8),
        seed=st.integers(0, 10_000),
    )
    def run(n, extra, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        for _ in range(extra):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = build_graph(n, edges)
        q = math.ceil(engine.regime_threshold(g.max_degree)) + 1
        r = engine.sample(g, engine.SamplerConfig(q=q, master_seed=seed))
        assert engine.is_proper(g, r.coloring)
        again = engine.sample(g, engine.SamplerConfig(q=q, master_seed=seed))
        assert again.coloring == r.coloring

    run()


def test_forced_subthreshold_run_still_exact():
    # correctness does not depend on the regime, only termination does
    g = gen_cycle(3)
    q = 5  # threshold for delta 2 is about 8.7, and q = 2.5 * delta exactly
    universe = enumerate_colorings(g, q)
    cfg = engine.SamplerConfig(
        q=q, master_seed=23, force=True, max_blocks=256, t2_override=40
    )
    results = sample_many(g, cfg, 4000)
    assert goodness_of_fit([r.coloring for r in results], universe).pvalue > 0.001


@pytest.mark.parametrize(
    "code",
    [
        # a cycle of 32 vertices takes its keys in batches
        pytest.param(
            "from cftp_colorings import bounding, engine, graphs\n"
            "g = graphs.gen_cycle(32)\n"
            "assert bounding.BoundingState(g, 9, None, 1)._lanes > 1\n"
            "engine.sample(g, engine.SamplerConfig(q=9, master_seed=1))\n"
            "assert not loaded(), loaded()\n",
            id="engine-sample-batch",
        ),
        # the CLI and sample_many load neither; the first goodness-of-fit
        # call loads both
        pytest.param(
            "import cftp_colorings.cli\n"
            "from cftp_colorings import engine, graphs, oracle, verification\n"
            "g = graphs.gen_complete(4)\n"
            "runs = verification.sample_many(g, engine.SamplerConfig(q=13, master_seed=1), 20)\n"
            "assert not loaded(), loaded()\n"
            "universe = oracle.enumerate_colorings(g, 13)\n"
            "gof = oracle.goodness_of_fit([r.coloring for r in runs], universe)\n"
            "assert gof.n_samples == 20, gof\n"
            "assert loaded() == ['numpy', 'scipy'], loaded()\n",
            id="cli-sample-many-then-gof",
        ),
    ],
)
def test_sample_leaves_numpy_unloaded(code):
    # importing numpy takes longer than the whole set-up of a small sample,
    # so the sampler, its key batches included, runs on plain ints, and
    # numpy and scipy load only when a statistic is computed
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    prelude = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted({'numpy', 'scipy'} & set(sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", prelude + code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
