"""Small uniformity demonstration: exact enumeration vs sampler frequencies."""

import argparse
import sys

from cftp_colorings import engine, oracle
from cftp_colorings.graphs import gen_complete, gen_cycle
from cftp_colorings.verification import sample_many

GRAPHS = {
    "k4": (lambda: gen_complete(4), 13),
    "c3": (lambda: gen_cycle(3), 6),
    "c5": (lambda: gen_cycle(5), 9),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", choices=sorted(GRAPHS), default="c3")
    ap.add_argument("--samples", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    if args.samples < 1:
        ap.error(f"--samples must be at least 1, got {args.samples}")

    build, q = GRAPHS[args.graph]
    g = build()
    universe = oracle.enumerate_colorings(g, q)
    cfg = engine.SamplerConfig(q=q, master_seed=args.seed, force=True)
    results = sample_many(g, cfg, args.samples)
    gof = oracle.goodness_of_fit([r.coloring for r in results], universe)
    null_mean, null_sd = oracle.null_tv_moments(gof.n_samples, gof.n_cells)
    print(f"graph={args.graph} q={q} cells={gof.n_cells} samples={gof.n_samples}")
    print(f"chi2={gof.chi2:.1f} p={gof.pvalue:.4f}")
    print(
        f"tv={gof.tv:.4f} (plug-in; a perfect sampler gives {null_mean:.4f} +- {null_sd:.4f}) "
        f"tv_p={gof.tv_pvalue:.4f}"
    )
    mean_blocks = sum(r.blocks_used for r in results) / len(results)
    print(f"mean blocks/sample = {mean_blocks:.2f}")
    return 0 if gof.pvalue > 1e-3 else 1


if __name__ == "__main__":
    sys.exit(main())
