"""Command-line surface: sample, verify, bench, partition, lowerbound, lpaudit.

Exit codes: 0 success, 1 verification failure, 2 no coalescence within the
block budget, 64 usage error. For lowerbound, exit 1 means that an expected
list size on the worst-case instance fell below the analytic floor.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import secrets
import subprocess
import sys
from types import SimpleNamespace

import click

from . import couplings as cp
from . import engine, oracle, verification
from .colorsets import iter_colors, mask_from, members
from .errors import (
    EngineError,
    GenerationFailedError,
    GraphParseError,
    NoCoalescenceError,
)
from .graphs import (
    Graph,
    build_graph,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_random_regular,
    gen_single_vertex,
    parse_edge_list,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NO_COALESCENCE = 2
EXIT_USAGE = 64


def git_describe() -> str:
    """git describe of the checkout this package is loaded from, not of the
    caller's working directory; "unknown" when git fails or hangs."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def parse_gen_spec(spec: str) -> Graph:
    """Generator specs: k4, single, complete:N, cycle:N, bipartite:D,
    regular:N,D[,SEED], worstcase:DELTA,Q[,COPIES]."""
    name, _, rest = spec.partition(":")
    args = [a for a in rest.split(",") if a] if rest else []
    try:
        if name == "k4" and not args:
            return gen_complete(4)
        if name == "single" and not args:
            return gen_single_vertex()
        if name == "complete" and len(args) == 1:
            return gen_complete(int(args[0]))
        if name == "cycle" and len(args) == 1:
            return gen_cycle(int(args[0]))
        if name == "bipartite" and len(args) == 1:
            return gen_complete_bipartite(int(args[0]))
        if name == "regular" and len(args) in (2, 3):
            seed = int(args[2]) if len(args) == 3 else 0
            return gen_random_regular(int(args[0]), int(args[1]), seed)
        if name == "worstcase" and len(args) in (2, 3):
            # copies of the worst case's host K_{delta,delta}, 2 delta vertices apart
            delta, q = int(args[0]), int(args[1])
            copies = int(args[2]) if len(args) == 3 else 1
            oracle.lower_bound_value(delta, q)  # validates delta and q
            if copies < 1:
                raise ValueError("need at least one copy")
            base = gen_complete_bipartite(delta).edges
            off = range(0, 2 * delta * copies, 2 * delta)
            return build_graph(2 * delta * copies, [(u + o, v + o) for o in off for u, v in base])
    except (ValueError, GenerationFailedError) as exc:
        raise click.UsageError(f"bad generator spec {spec!r}: {exc}") from None
    raise click.UsageError(f"unknown generator spec {spec!r}")


def load_graph(graph_file, gen_spec) -> Graph:
    if (graph_file is None) == (gen_spec is None):
        raise click.UsageError("provide exactly one graph source: --graph or --gen")
    if graph_file is not None:
        try:
            return parse_edge_list(graph_file.read())
        except GraphParseError as exc:
            raise click.UsageError(str(exc)) from None
    return parse_gen_spec(gen_spec)


def degree_range(minimum: int = 0):
    """Click callback parsing a LO:HI degree range into (lo, hi), minimum <= lo <= hi."""

    def parse(ctx, param, value) -> tuple[int, int]:
        try:
            lo, hi = (int(x) for x in value.split(":"))
        except ValueError:
            raise click.BadParameter(f"expected LO:HI, got {value!r}") from None
        if lo > hi:
            raise click.BadParameter(f"LO = {lo} is above HI = {hi}")
        if lo < minimum:
            raise click.BadParameter(f"the minimum degree is {minimum}, got LO = {lo}")
        return lo, hi

    return parse


def run_meta(seed: int, **config) -> dict:
    return {"git_describe": git_describe(), "master_seed": seed, "config": config}


def csv_text(meta: dict, header, rows) -> str:
    """CSV text: a ``# {meta}`` comment line, the header, then the rows, all ending in LF."""
    buf = io.StringIO()
    buf.write(f"# {json.dumps(meta)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def resolve_out(ctx, param, value):
    """Click callback: --out, under $CFTP_COLORINGS_OUTDIR when relative; refused
    before any work if it is empty, names a directory or its directory is missing."""
    if value is None:
        return None
    if not value:
        raise click.BadParameter("an empty path names no file")
    value = os.path.join(os.environ.get("CFTP_COLORINGS_OUTDIR", ""), value)
    if os.path.isdir(value):
        raise click.BadParameter(f"{value!r} is a directory")
    if not os.path.isdir(os.path.dirname(value) or "."):
        raise click.BadParameter(f"the directory of {value!r} does not exist")
    return value


def emit(text: str, out_path) -> None:
    if out_path is None:
        click.echo(text, nl=False)
        return
    with open(out_path, "w") as fh:
        fh.write(text)


@click.group()
def cli():
    """Perfect sampler for uniform proper q-colorings via bounding chains."""


@cli.command("sample")
@click.option("--graph", "graph_file", type=click.File("r"), default=None)
@click.option("--gen", "gen_spec", default=None, help="generator spec, e.g. regular:200,8")
@click.option("--q", type=int, required=True)
@click.option("--n", "n_samples", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=None, help="master seed (default: OS entropy)")
@click.option("--max-blocks", type=int, default=64, show_default=True)
@click.option("--t2", "t2_override", type=int, default=None)
@click.option("--force", is_flag=True, help="run below the regime threshold")
@click.option("--out", "out_path", type=click.Path(), callback=resolve_out)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def cmd_sample(graph_file, gen_spec, q, n_samples, seed, max_blocks, t2_override,
               force, out_path, fmt):
    """Draw uniform proper colorings and emit them with run statistics."""
    g = load_graph(graph_file, gen_spec)
    if seed is None:
        seed = secrets.randbits(63)
    cfg = engine.SamplerConfig(
        q=q, master_seed=seed, max_blocks=max_blocks, t2_override=t2_override, force=force,
    )
    try:
        engine.check_config(g, cfg)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    meta = run_meta(seed, command="sample", q=q, n=n_samples, graph_n=g.n,
                    graph_m=g.m, max_degree=g.max_degree, max_blocks=max_blocks,
                    t2=t2_override, force=force,
                    gen=gen_spec, format=fmt)
    try:
        results = verification.sample_many(g, cfg, n_samples)
    except NoCoalescenceError as exc:
        payload = {"meta": meta, "error": str(exc), "stats": exc.stats}
        emit(json.dumps(payload, indent=2) + "\n", out_path)
        sys.exit(EXIT_NO_COALESCENCE)
    if fmt == "json":
        payload = {
            "meta": meta,
            "samples": [
                {
                    "coloring": list(r.coloring),
                    "q": r.q,
                    "master_seed": r.master_seed,
                    "blocks_used": r.blocks_used,
                    "updates": r.updates,
                    "phase_stats": r.phase_stats,
                    "wall_ms": round(r.wall_ms, 3),
                }
                for r in results
            ],
        }
        emit(json.dumps(payload, indent=2) + "\n", out_path)
    else:
        rows = (
            [i, r.blocks_used, r.updates, round(r.wall_ms, 3), " ".join(map(str, r.coloring))]
            for i, r in enumerate(results)
        )
        header = ["sample", "blocks_used", "updates", "wall_ms", "coloring"]
        emit(csv_text(meta, header, rows), out_path)


def _unshuffled_compress_draw(a_mask, outside, key, w0, w2):
    """compress_draw with the shuffle of A left in ascending order."""
    return cp.compress_draw(a_mask, outside, key, w0, w2)._replace(pi=tuple(iter_colors(a_mask)))


def _unshuffled_seeding_predict(s_mask, law, q, key):
    """seeding_predict with the slack prefix taken in ascending order."""
    _, draw = cp.seeding_predict(s_mask, law, q, key)
    prefix = tuple(members(s_mask)[:len(draw.prefix)])
    return mask_from(prefix) | 1 << draw.c0, draw._replace(prefix=prefix)


@cli.command("verify")
@click.option("--full", is_flag=True, help="run the full-size sample budgets")
@click.option("--lp", "lp_only", is_flag=True, help="run only the LP grid check")
# below degree 3 the relaxed size-law program has grid points with no vertex
@click.option("--delta", "delta_range", default="3:16", show_default=True,
              callback=degree_range(3), help="LP grid degree range LO:HI")
@click.option("--inject-fault", type=click.Choice(["biased-permutation"]), default=None,
              help="deliberately corrupt the permutation draws (self-test)")
def cmd_verify(full, lp_only, delta_range, inject_fault):
    """Run the marginal, containment, size-law, LP, and uniformity suites."""
    if lp_only and inject_fault:
        raise click.UsageError("'--inject-fault' tests the coupling suites, which '--lp' skips")
    lo, hi = delta_range
    results = []
    if lp_only:
        results += verification.lp_grid_suite(lo, hi)
    elif inject_fault == "biased-permutation":
        results += verification.compress_suite(draw=_unshuffled_compress_draw)
        results += verification.seeding_suite(predict=_unshuffled_seeding_predict)
    else:
        results += verification.default_verify(full=full)
        results += verification.lp_grid_suite(lo, hi)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name}"
        if r.detail and not r.passed:
            line += f" :: {r.detail}"
        click.echo(line)
        ok &= r.passed
    sys.exit(EXIT_OK if ok else EXIT_FAIL)


@cli.command("lpaudit")
@click.option("--delta", "delta_range", default="3:16", show_default=True,
              callback=degree_range(), help="degree range LO:HI")
@click.option("--out", "out_path", type=click.Path(), callback=resolve_out)
def cmd_lpaudit(delta_range, out_path):
    """Emit the two-point size law over the parameter grid as CSV."""
    lo, hi = delta_range
    rows = []
    for delta, s_size, q in verification.lp_grid(lo, hi):
        # the sampler's closed form, checked against the full LP; it exists at
        # every grid point, where |S| < q and r3 < 1
        law = cp.seeding_size_law(s_size, delta, q)
        feasible = not cp.verify_full_lp(cp.LPInstance(s_size, delta, q), law)
        rows.append([
            delta, s_size, q,
            round(law.r(1), 9),
            round(law.r(2), 9),
            round(law.r(3), 9),
            round(law.expected_size, 9),
            int(feasible),
        ])
    meta = run_meta(0, command="lpaudit", delta_range=[lo, hi])
    header = ["delta", "s_size", "q", "r1", "r2", "r3", "expected_size", "full_lp_feasible"]
    emit(csv_text(meta, header, rows), out_path)


def _bench_config(n, d, q, seed, max_blocks) -> engine.SamplerConfig:
    # sub-threshold sweeps are legitimate experiments: force the run and
    # substitute a finite drift length where the schedule formula blows up
    t2 = None
    if q <= 2.5 * d:
        t2 = math.ceil(4.0 * (q - d) * n * max(math.log(n), 1.0))
    return engine.SamplerConfig(
        q=q, master_seed=seed, max_blocks=max_blocks, force=True, t2_override=t2
    )


def _bench_one(args):
    n, d, q, seed, max_blocks = args
    g = gen_random_regular(n, d, seed)
    cfg = _bench_config(n, d, q, seed, max_blocks)
    try:
        run, coalesced = engine.sample(g, cfg), 1
    except NoCoalescenceError as exc:
        # the error carries the result's run statistics under the same names
        run, coalesced = SimpleNamespace(**exc.stats), 0
    return {
        "n": n, "delta": d, "q": q, "seed": seed, "blocks": run.blocks_used,
        "updates": run.updates, "coalesced": coalesced,
        "wall_ms": run.wall_ms, "resamples": run.partition_resamples,
    }


@cli.command("bench")
@click.option("--delta", type=int, default=8, show_default=True)
@click.option("--n-list", default="100,200,400", show_default=True)
@click.option("--q", type=int, default=None, help="default: ceil(threshold) + 1")
@click.option("--runs", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--max-blocks", type=int, default=64, show_default=True)
@click.option("--out", "out_path", type=click.Path(), callback=resolve_out)
def cmd_bench(delta, n_list, q, runs, seed, workers, max_blocks, out_path):
    """Sweep sizes, recording blocks, updates, coalescence fraction, wall time."""
    try:
        sizes = [int(x) for x in n_list.split(",") if x]
    except ValueError:
        raise click.UsageError(f"bad --n-list {n_list!r}") from None
    if not sizes:
        raise click.BadParameter(f"{n_list!r} holds no size", param_hint="'--n-list'")
    if len(set(sizes)) < len(sizes):
        raise click.BadParameter(f"{n_list!r} repeats a size", param_hint="'--n-list'")
    if q is None:
        q = math.ceil(engine.regime_threshold(delta)) + 1
    if seed is None:
        seed = secrets.randbits(31)
    for n in sizes:
        try:
            g = gen_random_regular(n, delta, seed)
            engine.check_config(g, _bench_config(n, delta, q, seed, max_blocks))
        except ValueError as exc:
            raise click.UsageError(f"--delta {delta}, n = {n}, --q {q}: {exc}") from None
    jobs = [
        (n, delta, q, seed + 1000 * i + j, max_blocks)
        for i, n in enumerate(sizes)
        for j in range(runs)
    ]
    if workers > 1:
        # its only use, so no other command pays for the import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_one, jobs))
    else:
        rows = [_bench_one(j) for j in jobs]
    meta = run_meta(seed, command="bench", delta=delta, q=q, runs=runs,
                    n_list=sizes, max_blocks=max_blocks)
    header = [
        "n", "delta", "q", "runs", "coalesce_fraction", "mean_blocks",
        "mean_updates", "mean_wall_ms", "max_resamples",
    ]
    table = []
    for n in sizes:
        sub = [r for r in rows if r["n"] == n]
        blocks = [r["blocks"] for r in sub]
        table.append([
            n, delta, q, len(sub),
            round(sum(r["coalesced"] for r in sub) / sum(blocks), 4),
            round(sum(blocks) / len(sub), 3),
            round(sum(r["updates"] for r in sub) / len(sub), 1),
            round(sum(r["wall_ms"] for r in sub) / len(sub), 1),
            max(r["resamples"] for r in sub),
        ])
    emit(csv_text(meta, header, table), out_path)


@cli.command("partition")
@click.option("--graph", "graph_file", type=click.File("r"), default=None)
@click.option("--gen", "gen_spec", default=None)
@click.option("--seed", type=int, default=None)
def cmd_partition(graph_file, gen_spec, seed):
    """Compute and audit the balanced seeding set."""
    g = load_graph(graph_file, gen_spec)
    if seed is None:
        seed = secrets.randbits(63)
    stream = engine.SeedStream(seed)
    try:
        part = engine.lll_partition(g, stream)
    except EngineError as exc:
        click.echo(json.dumps({"error": str(exc), "master_seed": seed}))
        sys.exit(EXIT_FAIL)
    payload = {
        "meta": run_meta(seed, command="partition", graph_n=g.n, max_degree=g.max_degree),
        "eta": engine.eta_for(g.max_degree),
        "size": len(part),
        "members": sorted(part.members),
        "resamples": part.resamples,
        # lll_partition raises unless audit_partition passes
        "bounds_ok": True,
    }
    click.echo(json.dumps(payload, indent=2))
    sys.exit(EXIT_OK)


@cli.command("lowerbound")
@click.option("--delta-range", default="4:20", show_default=True, callback=degree_range(),
              help="even degrees LO:HI")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", "out_path", type=click.Path(), callback=resolve_out)
def cmd_lowerbound(delta_range, fmt, out_path):
    """Tabulate the two-to-one obstruction floor beside the seeding and
    disjoint couplings' expected list sizes on the worst-case instance,
    computed, not sampled."""
    lo, hi = delta_range
    # the worst-case construction needs an even degree >= 2
    degrees = range(max(2, lo + lo % 2), hi + 1, 2)
    if not degrees:
        msg = f"{lo}:{hi} holds no even degree >= 2"
        raise click.BadParameter(msg, param_hint="'--delta-range'")
    rows = []
    failed = False
    for delta in degrees:
        m = delta // 2
        lists = oracle.worst_case_lists(delta)
        for q in range(3 * m, 3 * delta + 1):
            bound = oracle.lower_bound_value(delta, q)
            law = oracle.worst_case_seeding_law(lists, delta, q)[1]
            sizes = {
                "seeding": None if law is None else law.expected_size,
                "disjoint": oracle.worst_case_disjoint_size(lists, delta, q),
            }
            row = {"delta": delta, "q": q, "m": m, "r": q - 3 * m, "bound": round(bound, 6)}
            for name, size in sizes.items():
                row[name] = "" if size is None else round(float(size), 6)
                failed |= size is not None and size < bound
            rows.append(row)
    meta = run_meta(0, command="lowerbound", delta_range=[lo, hi])
    if fmt == "json":
        emit(json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n", out_path)
    else:
        header = list(rows[0])
        emit(csv_text(meta, header, (list(r.values()) for r in rows)), out_path)
    sys.exit(EXIT_FAIL if failed else EXIT_OK)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_FAIL
    except NoCoalescenceError as exc:
        click.echo(f"no coalescence: {exc}", err=True)
        return EXIT_NO_COALESCENCE
    except SystemExit as exc:
        return int(exc.code or 0)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
