"""perfbench's layer tracer times library functions by their attribute names.

A target the library no longer has reads 0 calls without any error, so a
renamed function would silently drop out of the per-layer metrics.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from cftp_colorings import bounding, couplings, engine, seedstream, verification
from cftp_colorings.errors import CouplingRegimeError
from cftp_colorings.graphs import gen_complete_bipartite, gen_random_regular

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# removed from the library with the composition log; the tracer still lists it
STALE = {"bounding.decode_entry"}
LIB = SimpleNamespace(
    engine=engine,
    bounding=bounding,
    couplings=couplings,
    seedstream=seedstream,
    verification=verification,
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves_to_a_library_function():
    targets = load_tracer().layer_targets(LIB)
    assert targets
    missing = [
        label
        for label, owner, attr in targets
        if label not in STALE and not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_traced_sample_counts_every_engine_call():
    # the tracer wraps engine's attributes, so a call that sample() made
    # through an alias bound at import time would read 0 calls; the golden
    # case forced-d6-q18-t60-s19 builds 3 blocks and replays the older 2
    tracer = load_tracer()
    graph = gen_random_regular(20, 6, seed=5)
    config = engine.SamplerConfig(q=18, master_seed=19, force=True, t2_override=60)
    with tracer.LayerTracer(tracer.layer_targets(LIB)) as traced:
        assert engine.sample(graph, config).blocks_used == 3
    calls = [traced.calls[f"engine.{fn}"] for fn in ("lll_partition", "construct_block", "replay")]
    assert calls == [1, 3, 2]


def test_traced_built_block_predicts_each_compress_batch_in_one_call():
    # every compress update runs in bounding.apply_compress, and a built
    # block predicts each batch's lists in one couplings.compress_predict
    # call, so the compress layer counts every built batch and no draw;
    # block 1 of forced-d6-q18-t60-s19 has cleanups and no fallback
    tracer = load_tracer()
    graph = gen_random_regular(20, 6, seed=5)
    config = engine.SamplerConfig(q=18, master_seed=19, force=True, t2_override=60)
    stream = seedstream.SeedStream(config.master_seed)
    schedule = engine.schedule_for(graph, config, engine.lll_partition(graph, stream))
    with tracer.LayerTracer(tracer.layer_targets(LIB)) as traced:
        engine.construct_block(schedule, 1, stream)
    calls = traced.calls
    assert calls["couplings.compress_predict"] == calls["bounding.apply_compress"] > 0
    assert calls["couplings.compress_draw"] == 0


def key_index_mismatches(monkeypatch, graph, schedule, stream):
    """Wrap engine.block_steps to predict the key index from the steps alone:
    +k for a cleanup's k targets and +1 for the update.
    Returns the built block's state, the step count, the predicted index
    after the last yielded step, and the steps at whose start or end
    state.updates differs from the prediction. The drift tail's steps are
    not yielded, so they are not counted here."""
    inner = engine.block_steps
    steps, expected, mismatches = 0, 0, []

    def checked(state, schedule):
        nonlocal steps, expected
        for phase, v, preserved in inner(state, schedule):
            if state.updates != expected:
                mismatches.append((steps, "start"))
            if preserved is not None:
                expected += sum(not preserved[u] for u in graph.adjacency[v])
            expected += 1
            yield phase, v, preserved
            if state.updates != expected:
                mismatches.append((steps, "update"))
            steps += 1

    monkeypatch.setattr(engine, "block_steps", checked)
    state = engine.construct_block(schedule, 1, stream)
    return state, steps, expected, mismatches


FIXTURES = [
    # 20 vertices: keys one at a time through SeedStream.subkey; the drift
    # of two sweeps ends before a sweep could start the tail
    (gen_random_regular(20, 6, seed=5), 18, 40, False, False),
    # 64 vertices, so keys come in batches; the seeding phase runs, so its
    # keys are counted too, and no tail starts in the drift's two sweeps
    (gen_complete_bipartite(32), 105, 128, False, False),
    # seeding and disjoint updates fall back to compress, so the fallbacks'
    # keys are too
    (gen_complete_bipartite(32), 66, 50, True, False),
    # every list is a singleton 100 keys in, after the convert pass and one
    # sweep, so the drift's last 260 steps run in the tail, one key at a time
    (gen_random_regular(20, 4, seed=1), 17, 300, False, True),
    # 33 vertices take batches of 2 keys; the tail starts after one sweep,
    # at key 132, and reads its 367 words across 184 batches
    (gen_random_regular(33, 4, seed=1), 17, 400, False, True),
]


def unpacked_keys(packed, lanes):
    """The keys of a batch packed by SeedStream.subkeys: key i is bits
    128i to 128i+63."""
    return [packed >> 128 * i & (2**64 - 1) for i in range(lanes)]


def record_stream_keys(monkeypatch, stream, block):
    """Wrap SeedStream.subkey and its batch, SeedStream.subkeys; returns the
    list of (update index, key) that they compute on stream for block, in
    order. A batch's keys are unpacked here, whichever rows its state
    reads."""
    computed = []
    one, batch = seedstream.SeedStream.subkey, seedstream.SeedStream.subkeys

    def counted(self, b, update):
        key = one(self, b, update)
        if self is stream and b == block:
            computed.append((update, key))
        return key

    def counted_batch(self, b, start, lanes):
        out = batch(self, b, start, lanes)
        if self is stream and b == block:
            computed.extend(zip(range(start, start + lanes), unpacked_keys(out, lanes)))
        return out

    monkeypatch.setattr(seedstream.SeedStream, "subkey", counted)
    monkeypatch.setattr(seedstream.SeedStream, "subkeys", counted_batch)
    return computed


def key_faults(state, computed, master):
    """Ways the computed keys fail to be the block's keys 0 .. state.updates - 1,
    each computed once, in order, at its own address. A batch may run past
    the block's last key, by less than one batch."""
    faults = []
    indices = [idx for idx, _ in computed]
    if indices != list(range(len(indices))):
        faults.append("indices out of order or repeated")
    if not state.updates <= len(indices) < state.updates + max(state._lanes, 1):
        faults.append(f"{len(indices)} keys computed for index {state.updates}")
    fresh = seedstream.SeedStream(master)
    faults += [idx for idx, key in computed if key != fresh.subkey(state.block, idx)]
    return faults


def test_fixtures_take_both_key_paths():
    lanes = [bounding.BoundingState(g, q, None, 1)._lanes for g, q, *_ in FIXTURES]
    assert lanes[0] == lanes[3] == 0 and lanes[1] > 1 and lanes[4] > 1


@pytest.mark.parametrize(
    "graph, q, t2, seeding_falls_back, reaches_tail", FIXTURES,
    ids=[
        "regular-d6", "k3232-phase1", "k3232-fallback", "regular-d4-tail", "regular-d4-batch-tail",
    ],
)
def test_every_block_key_goes_through_subkey(
    monkeypatch, graph, q, t2, seeding_falls_back, reaches_tail
):
    # perfbench's seed-stream layer times the seed stream by wrapping its
    # methods, so its figures hold only while no key bypasses subkey and
    # its batch subkeys
    config = engine.SamplerConfig(q=q, master_seed=3, force=True, t2_override=t2)
    stream = seedstream.SeedStream(config.master_seed)
    schedule = engine.schedule_for(graph, config, engine.lll_partition(graph, stream))
    computed = record_stream_keys(monkeypatch, stream, 1)
    tails, tail = [], bounding.drift_tail

    def counted_tail(state, steps):
        tails.append(steps)
        tail(state, steps)

    monkeypatch.setattr(bounding, "drift_tail", counted_tail)
    state, steps, expected, mismatches = key_index_mismatches(
        monkeypatch, graph, schedule, stream
    )
    assert state.updates > 0 and steps > 0
    assert (state.seeding_fallbacks > 0) == seeding_falls_back
    assert bool(tails) == reaches_tail
    assert key_faults(state, computed, config.master_seed) == []
    # block_steps' key facts: the index after every step follows from the
    # steps alone, fallbacks included, and the tail took one key per step
    assert mismatches == []
    assert state.updates == expected + sum(tails)


def test_key_check_catches_a_batch_one_key_late(monkeypatch):
    """Negative control: every batch starts one key past the index asked for."""
    graph, q, t2, *_ = FIXTURES[1]
    config = engine.SamplerConfig(q=q, master_seed=3, force=True, t2_override=t2)
    stream = seedstream.SeedStream(config.master_seed)
    schedule = engine.schedule_for(graph, config, engine.lll_partition(graph, stream))
    real = seedstream.SeedStream.subkeys
    monkeypatch.setattr(
        seedstream.SeedStream, "subkeys",
        lambda self, b, start, lanes: real(self, b, start + 1, lanes),
    )
    computed = record_stream_keys(monkeypatch, stream, 1)
    state = engine.construct_block(schedule, 1, stream)
    assert key_faults(state, computed, config.master_seed)


def test_key_index_check_catches_a_fallback_that_takes_an_extra_key(monkeypatch):
    """Negative control: a failed update takes a key before it raises, so
    its fallback's compress update takes a second one."""
    graph, q, t2, *_ = FIXTURES[2]
    config = engine.SamplerConfig(q=q, master_seed=3, force=True, t2_override=t2)
    stream = seedstream.SeedStream(config.master_seed)
    schedule = engine.schedule_for(graph, config, engine.lll_partition(graph, stream))
    for name in ("apply_seeding", "apply_disjoint"):
        real = getattr(bounding, name)

        def keyed_then_raises(state, v, real=real):
            try:
                real(state, v)
            except CouplingRegimeError:
                state.next_key()
                raise

        monkeypatch.setattr(bounding, name, keyed_then_raises)
    state, _, _, mismatches = key_index_mismatches(monkeypatch, graph, schedule, stream)
    assert state.seeding_fallbacks > 0 and state.disjoint_fallbacks > 0
    assert mismatches


# (graph, q, force, t2): blocks with no seeding set that take their keys in
# batches and reach the drift tail; the first is regular-d4-batch-tail's
ROW_FIXTURES = [
    (FIXTURES[4][0], FIXTURES[4][1], True, FIXTURES[4][2]),
    (gen_random_regular(400, 8, seed=1), 31, False, None),
]
ROW_IDS = ["regular-d4-batch-tail", "regular-d8"]


def rows_by_batch(monkeypatch, graph, q, force, t2):
    """Build block 1 at master seed 3 and record the rows computed from each
    key batch. Returns the key at which the drift tail started and
    {batch start: draws of the rows computed from its keys, in order}, the
    keys row as None."""
    config = engine.SamplerConfig(q=q, master_seed=3, force=force, t2_override=t2)
    stream = seedstream.SeedStream(config.master_seed)
    schedule = engine.schedule_for(graph, config, engine.lll_partition(graph, stream))
    assert schedule.seeded == ()
    starts, rows, tail_starts = {}, {}, []
    batch, row, tail = seedstream.SeedStream.subkeys, bounding.lane_row, bounding.drift_tail

    def counted_batch(self, b, start, lanes):
        packed = batch(self, b, start, lanes)
        starts[packed] = start
        rows[start] = []
        return packed

    def counted_row(packed, lanes, draw):
        rows[starts[packed]].append(draw)
        return row(packed, lanes, draw)

    def counted_tail(state, steps):
        tail_starts.append(state.updates)
        tail(state, steps)

    monkeypatch.setattr(seedstream.SeedStream, "subkeys", counted_batch)
    monkeypatch.setattr(bounding, "lane_row", counted_row)
    monkeypatch.setattr(bounding, "drift_tail", counted_tail)
    state = engine.construct_block(schedule, 1, stream)
    assert state._lanes > 1 and len(tail_starts) == 1
    return tail_starts[0], rows


def row_faults(tail_start, rows):
    """Ways the rows computed fail the rule that each reader computes only
    the rows it reads: a row computed twice from one batch, a keys row in a
    built Phase II, or a batch taken after the tail started (read by the
    tail alone) that computed any row but word 2."""
    faults = []
    for start, draws in rows.items():
        if len(set(draws)) != len(draws):
            faults.append((start, "row computed twice"))
        if None in draws:
            faults.append((start, "keys row"))
        if start >= tail_start and draws != [2]:
            faults.append((start, "tail batch read other rows"))
    return faults


@pytest.mark.parametrize("graph, q, force, t2", ROW_FIXTURES, ids=ROW_IDS)
def test_each_key_batch_computes_only_the_rows_its_readers_take(monkeypatch, graph, q, force, t2):
    tail_start, rows = rows_by_batch(monkeypatch, graph, q, force, t2)
    assert row_faults(tail_start, rows) == []
    # the rule is not met vacuously: batches before the tail computed word
    # 0 (cleanups and layouts), and some batches were the tail's alone
    assert any(0 in draws for start, draws in rows.items() if start < tail_start)
    assert sum(start >= tail_start for start in rows) > 1


def keyed_tail(state, steps):
    """The drift tail with each step's word 2 read through next_key_words,
    which takes the key row and word 0 as well."""
    lists, adjacency, n = state.lists, state.g.adjacency, state.g.n
    for i in range(steps):
        m = 0
        for u in adjacency[i % n]:
            m |= lists[u]
        lists[i % n] = 1 << couplings.outside_color(m, state.q, state.next_key_words()[2])


@pytest.mark.parametrize("graph, q, force, t2", ROW_FIXTURES, ids=ROW_IDS)
def test_row_check_catches_a_tail_that_reads_the_keys(monkeypatch, graph, q, force, t2):
    """Negative control: a tail reading next_key_words computes the keys
    row and word 0 of each batch it takes."""
    monkeypatch.setattr(bounding, "drift_tail", keyed_tail)
    tail_start, rows = rows_by_batch(monkeypatch, graph, q, force, t2)
    faults = row_faults(tail_start, rows)
    assert faults and {kind for _, kind in faults} == {"keys row", "tail batch read other rows"}
