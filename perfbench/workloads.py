"""The benchmark's workloads and the seed derivation that makes their inputs.

Every input of a run (graph, per-sample master seeds) is a pure function
of (workload name, --seed, purpose, index), so one seed gives one set of
inputs and another seed gives an independent set. The warm-up call and a
``fixed_graph`` depend on the workload name alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str  # "complete" (K_n) or "regular" (random degree-regular, seeded)
    # True: one random graph for every --seed, drawn from the workload name
    # alone; only the master seeds change with --seed.
    fixed_graph: bool
    n: int
    degree: int
    q: int
    force: bool
    t2: int | None  # drift length override; None keeps the sampler's formula
    # Samples per library call: above 1 the workload goes through
    # verification.sample_many, otherwise through engine.sample.
    chunk: int
    # Samples in the traced pass and in the golden digest of every run.
    fixed_samples: int

    @property
    def fixed_units(self) -> int:
        return -(-self.fixed_samples // self.chunk)

    def params(self) -> dict:
        return asdict(self)


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 01's traffic shape: tiny samples whose fixed per-sample
        # cost (partition, schedule set-up, result) is a large share.
        Workload("k4-many", "complete", False, 4, 3, 13, False, None, chunk=200, fixed_samples=2000),
        # Main scaling regime: empty seeding set, one block per sample, no replay.
        Workload("regular-d8", "regular", False, 400, 8, 31, False, None, chunk=1, fixed_samples=4),
        # The only regime with a live seeding phase (|S| around 50-60).
        Workload("regular-d32", "regular", False, 400, 32, 105, False, None, chunk=1, fixed_samples=2),
        # Forced below the threshold (23.2 at degree 6) with a drift too
        # short to coalesce every time: about one block in four fails, so
        # samples take one to six blocks and replay and the composition-log
        # decode path run. At q = 17 disjoint updates also fall back to
        # compress, but how often blocks fail then varies so much between
        # graphs (samples/s from 11 to 37 over eight graphs at n = 20) and,
        # on one graph, between sets of master seeds (samples/s spread 0.15
        # over six seeds) that no run length here gives steady figures; at
        # q = 18 the failures come from the drift length alone. The graph
        # is fixed so that graph-to-graph variation does not swamp the
        # figures, and n = 20 keeps a sample near 8 ms, so one run holds
        # over a thousand of them.
        Workload("forced-d6", "regular", True, 20, 6, 18, True, 140, chunk=1, fixed_samples=200),
    )
}


def derive(*parts) -> int:
    """64-bit value determined by the parts; independent of the sampler's own RNG."""
    text = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little")
