"""perfbench's layer tracer times library functions by their attribute names.

A target the library no longer has reads 0 calls without any error, so a
renamed function would silently drop out of the per-layer metrics.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from cftp_colorings import bounding, couplings, engine, seedstream, verification
from cftp_colorings.graphs import gen_complete_bipartite, gen_random_regular

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# removed from the library with the composition log; the tracer still lists it
STALE = {"bounding.decode_entry"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves_to_a_library_function():
    lib = SimpleNamespace(
        engine=engine,
        bounding=bounding,
        couplings=couplings,
        seedstream=seedstream,
        verification=verification,
    )
    targets = load_tracer().layer_targets(lib)
    assert targets
    missing = [
        label
        for label, owner, attr in targets
        if label not in STALE and not callable(getattr(owner, attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize(
    "graph, q, t2, seeding_falls_back",
    [
        (gen_random_regular(20, 6, seed=5), 18, 140, False),
        # the seeding phase runs, so its keys are counted too
        (gen_complete_bipartite(32), 105, 300, False),
        # seeding updates fall back to compress, so the fallbacks' keys are too
        (gen_complete_bipartite(32), 66, 50, True),
    ],
    ids=["regular-d6", "k3232-phase1", "k3232-fallback"],
)
def test_every_block_key_goes_through_subkey(monkeypatch, graph, q, t2, seeding_falls_back):
    # perfbench's seedstream.subkey layer times the seed stream by wrapping
    # this one method, so its figures hold only while no key bypasses it
    config = engine.SamplerConfig(q=q, master_seed=3, force=True, t2_override=t2)
    stream = seedstream.SeedStream(config.master_seed)
    seed_set = engine.lll_partition(graph, stream)
    calls = 0
    inner = seedstream.SeedStream.subkey

    def counted(self, block, update):
        nonlocal calls
        calls += 1
        return inner(self, block, update)

    monkeypatch.setattr(seedstream.SeedStream, "subkey", counted)
    state = engine.construct_block(graph, seed_set, config, 1, stream)
    assert state.updates > 0
    assert (state.seeding_fallbacks > 0) == seeding_falls_back
    assert calls == state._index
