"""Cost of replaying one block against building it, and how much of the
compress shuffle a replay's decodes read.

    PYTHONPATH=src python scripts/replay_cost.py --gen regular:400,32,1 --q 105 --seeds 1,2

For each master seed the script builds block --block, then replays it from
a greedy proper coloring (each vertex in turn takes the lowest color its
earlier neighbors leave free), and prints the seconds of each. A replay
carries the coloring through every update, so each compress update of the
replay decodes its draw; the script counts the colors each decode reads
from the shuffle of A, in a second replay that is not timed. It prints the
share of those decodes that read the shuffle at all, and the mean number
of colors read per decode. Runs are forced, so q may lie below the regime
threshold; --t2 sets the drift length, else the sampler's formula does.
Each seed's row starts with the schedule it ran: the size of the seeding
set (seeded) and the drift lengths t1 and t2.
"""

import argparse
import sys
import time

import click

from cftp_colorings import couplings as cp
from cftp_colorings import engine
from cftp_colorings.cli import parse_gen_spec
from cftp_colorings.seedstream import SeedStream


def greedy_coloring(g, q):
    coloring = []
    for v in range(g.n):
        used = {coloring[u] for u in g.adjacency[v] if u < v}
        coloring.append(min(c for c in range(q) if c not in used))
    return coloring


def counted_decodes(decode, reads):
    """decode (compress_decode) that appends to reads how many colors of
    draw.pi each call reads."""

    def counted(a_mask, q, draw, blocked):
        read = 0

        def walk():
            nonlocal read
            for c in draw.pi:
                read += 1
                yield c

        out = decode(a_mask, q, draw._replace(pi=walk()), blocked)
        reads.append(read)
        return out

    return counted


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--gen", required=True, help="generator spec, e.g. regular:400,32,1")
    ap.add_argument("--q", type=int, required=True)
    ap.add_argument("--t2", type=int, default=None, help="drift length (default: formula)")
    ap.add_argument("--block", type=int, default=2, help="block index (>= 1)")
    ap.add_argument("--seeds", default="1,2", help="comma-separated master seeds")
    args = ap.parse_args()
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        seeds = []
    if args.block < 1 or not seeds:
        ap.error("need --block >= 1 and at least one integer seed in --seeds")
    try:
        g = parse_gen_spec(args.gen)
        engine.check_config(g, engine.SamplerConfig(args.q, 0, force=True, t2_override=args.t2))
    except (click.UsageError, ValueError) as exc:
        ap.error(str(exc))
    omega = greedy_coloring(g, args.q)
    print(f"graph={args.gen} n={g.n} max_degree={g.max_degree} q={args.q} block={args.block}")
    for seed in seeds:
        cfg = engine.SamplerConfig(q=args.q, master_seed=seed, force=True, t2_override=args.t2)
        stream = SeedStream(seed)
        schedule = engine.schedule_for(g, cfg, engine.lll_partition(g, stream))
        t0 = time.perf_counter()
        block = engine.construct_block(schedule, args.block, stream)
        built_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        engine.replay(schedule, args.block, stream, omega)
        carried_s = time.perf_counter() - t0
        reads, decode = [], cp.compress_decode
        cp.compress_decode = counted_decodes(decode, reads)
        try:
            engine.replay(schedule, args.block, stream, omega)
        finally:
            cp.compress_decode = decode
        decodes = len(reads)
        share = sum(r > 0 for r in reads) / decodes if decodes else 0.0
        mean = sum(reads) / decodes if decodes else 0.0
        print(
            f"seed={seed} seeded={len(schedule.seeded)} t1={schedule.t1} t2={schedule.t2} "
            f"coalesced={block.phi is not None} built_s={built_s:.3f} "
            f"carried_s={carried_s:.3f} compress_decodes={decodes} "
            f"read_pi={share:.3f} mean_colors_read={mean:.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
