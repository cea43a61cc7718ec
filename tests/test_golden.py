"""Golden outputs: fixed (graph, config) pairs must reproduce their samples bit for bit.

``golden_outputs.json`` holds, for every case below, the coloring, block
count, update count, degraded-block count and fallback counts that the
sampler produced when the file was written. A refactor that is meant to
keep every output bit must pass this test unchanged. Rewrite the file
(``PYTHONPATH=src python tests/test_golden.py``) only in a change that
alters outputs on purpose, says so, and re-passes every statistical gate.
"""

import json
from pathlib import Path

import pytest

from cftp_colorings import engine
from cftp_colorings.graphs import (
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_random_regular,
)

GOLDEN = Path(__file__).with_name("golden_outputs.json")

# name -> (graph spec, q, master seed, force, t2 override)
# At the default drift no K4 or C5 seed below 20000 needs a second block,
# so the cases that replay one run two sweeps: K4 at t2 = 8, seeds 16 and
# 37, and C5 at t2 = 10, seeds 30 and 129, each need a second block.
CASES = {}
for _s in (0, 1, 2, 3, 49, 83):
    CASES[f"k4-q13-s{_s}"] = ("complete:4", 13, _s, False, None)
for _s in (16, 37):
    CASES[f"k4-q13-t8-s{_s}"] = ("complete:4", 13, _s, False, 8)
for _s in (0, 1, 29, 65):
    CASES[f"c5-q9-forced-s{_s}"] = ("cycle:5", 9, _s, True, None)
for _s in (30, 129):
    CASES[f"c5-q9-forced-t10-s{_s}"] = ("cycle:5", 9, _s, True, 10)
# the seeding phase runs (|S| about 10); at t2 = 300, seeds 3, 8 and 29
# take one block
for _s in range(2):
    CASES[f"k3232-q105-s{_s}"] = ("bipartite:32", 105, _s, False, None)
for _s in (3, 8, 29):
    CASES[f"k3232-q105-t300-s{_s}"] = ("bipartite:32", 105, _s, False, 300)
# a drift of two sweeps leaves older blocks to replay, so Phase I seeding
# updates are decoded: 324 decodes over 3 blocks at seed 84 (97 of size-1
# draws), whose coloring changes when the seeding acceptance is scaled by
# 0.7, and 126 over 2 at seed 125 (32 of size 1) and 126 over 2 at seed 195
# (29 of size 1), whose colorings change when it is scaled by 0.7 and
# when it is scaled by 0.9
for _s in (84, 125, 195):
    CASES[f"k3232-q105-t128-s{_s}"] = ("bipartite:32", 105, _s, False, 128)
CASES["regular-d8-n400-q31"] = ("regular:400,8,1", 31, 7, False, None)
CASES["regular-d32-n400-q105"] = ("regular:400,32,1", 105, 7, False, None)
# forced below the threshold: at t2 = 140, the forced-d6 workload's drift,
# each seed takes one block; with a drift of three sweeps, seeds 19, 34
# and 41 need three blocks, so two older blocks are replayed, and seed 28
# needs two
for _s in (0, 3, 10, 12, 16):
    CASES[f"forced-d6-q18-s{_s}"] = ("regular:20,6,5", 18, _s, True, 140)
for _s in (19, 28, 34, 41):
    CASES[f"forced-d6-q18-t60-s{_s}"] = ("regular:20,6,5", 18, _s, True, 60)
# at q = 17 disjoint updates fall back to compress, in built and in
# replayed blocks alike: seed 0 takes one block with a fallback, and
# seeds 12 and 14 replay an older block that fell back
for _s in (0, 5, 10, 12, 14):
    CASES[f"forced-d6-q17-s{_s}"] = ("regular:20,6,5", 17, _s, True, 140)


def build(spec):
    kind, _, args = spec.partition(":")
    nums = [int(x) for x in args.split(",")]
    if kind == "complete":
        return gen_complete(*nums)
    if kind == "cycle":
        return gen_cycle(*nums)
    if kind == "bipartite":
        return gen_complete_bipartite(*nums)
    if kind == "regular":
        n, d, seed = nums
        return gen_random_regular(n, d, seed=seed)
    raise ValueError(f"unknown graph spec {spec!r}")


def run_case(name):
    spec, q, seed, force, t2 = CASES[name]
    cfg = engine.SamplerConfig(q=q, master_seed=seed, force=force, t2_override=t2)
    r = engine.sample(build(spec), cfg)
    return {
        "coloring": list(r.coloring),
        "blocks_used": r.blocks_used,
        "updates": r.updates,
        "degraded_blocks": r.degraded_blocks,
        "phase_stats": r.phase_stats,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, golden):
    assert run_case(name) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: run_case(name) for name in sorted(CASES)}, indent=1) + "\n")
