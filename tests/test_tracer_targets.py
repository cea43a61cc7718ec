"""perfbench's layer tracer times library functions by their attribute names.

A target the library no longer has reads 0 calls without any error, so a
renamed function would silently drop out of the per-layer metrics.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from cftp_colorings import bounding, couplings, engine, seedstream, verification

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
