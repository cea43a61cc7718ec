"""Benchmark of the exact coloring sampler, driven through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the sampler is imported from
``src/`` beside this directory, and nothing needs to be installed.

``--trace 0`` prints the end-to-end metrics. The measuring time is split
over PROCESSES interpreters run one after another, this one and fresh
children, because CPython's speed differs by a few percent from process to
process. Each process sets up (import, graph, one warm-up call; set-up time
is the median of the processes') and then samples for its share of
``--seconds`` with tracing off. Times are calibrated to a fixed machine
speed (see calibrate.py). Finally the samples of median work are re-run
under ``tracemalloc`` for peak memory. The tier-1 test suite's wall time is
not a metric of this benchmark; ``k4-many`` stands in for the traffic of
the suite's slowest test, acceptance criterion 01.

``--trace 1`` runs the workload's fixed sample set once untraced and twice
with every layer function wrapped (see tracer.py) and prints the per-layer
metrics, with call counts and self times.

Every coloring is checked for properness against the graph's edge list,
independently of the sampler. Re-runs must reproduce their samples
exactly: the memory pass re-runs samples, and the traced passes repeat the
untraced one, including every per-layer call count. Before the result line
the run prints its provenance and a digest of the colorings and counts of
the workload's first ``fixed_samples`` samples, which depends only on the
workload, the seed and the sampler's output bits.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import calibrate
from calibrate import SpeedProbe
from tracer import LayerTracer, layer_targets
from workloads import WORKLOADS, Workload, derive

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cftp_colorings"
PROCESSES = 3
# Calibrated library time per round; throughput is the median over rounds,
# which ignores the few rounds that a pause on the host landed in.
ROUND_S = 0.4
MEM_SAMPLES = 9
MEM_BUDGET_S = 2.0
clock = time.perf_counter


def import_library(with_verification: bool) -> SimpleNamespace:
    """Import the sampler from this checkout's src/, never from elsewhere.

    ``verification`` (which imports scipy) only when the run calls it.
    """
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: sampler sources not found at {PACKAGE}")
    sys.path.insert(0, str(SRC))
    import cftp_colorings

    if Path(cftp_colorings.__file__).resolve().parent != PACKAGE:
        sys.exit(f"perfbench: imported {cftp_colorings.__file__}, not {PACKAGE}")
    from cftp_colorings import bounding, couplings, engine, errors, graphs, seedstream

    lib = SimpleNamespace(
        engine=engine,
        bounding=bounding,
        couplings=couplings,
        errors=errors,
        graphs=graphs,
        seedstream=seedstream,
        verification=None,
    )
    if with_verification:
        from cftp_colorings import verification

        lib.verification = verification
    return lib


def graph_seed(wl: Workload, seed: int) -> int:
    parts = (wl.name, "graph") if wl.fixed_graph else (wl.name, seed, "graph")
    return derive(*parts) & 0x7FFFFFFF


def build_graph(lib, wl: Workload, seed: int):
    if wl.graph == "complete":
        return lib.graphs.gen_complete(wl.n)
    return lib.graphs.gen_random_regular(wl.n, wl.degree, graph_seed(wl, seed))


def is_proper(g, q: int, coloring) -> bool:
    """Properness against the edge list, independent of the sampler's own check."""
    if len(coloring) != g.n or any(not 0 <= c < q for c in coloring):
        return False
    return all(coloring[u] != coloring[v] for u, v in g.edges)


@dataclass
class Pass:
    """Outputs and timings of consecutive library calls.

    ``records`` holds one row per sample, (part, unit, master seed,
    coloring, blocks, updates, fallbacks), or (part, unit, "failed",
    exception) per failed call. ``calls`` holds (start, end, raw seconds of
    each sample, samples done, updates) per call. ``calibrate`` turns
    them into calibrated ``sample_s`` and ``rounds`` of (seconds, samples
    done, updates).
    """

    records: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    sample_s: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    improper: int = 0
    updates: int = 0
    blocks: int = 0
    fallbacks: int = 0

    COUNTS = ("attempted", "failed", "improper", "updates", "blocks", "fallbacks")

    def calibrate(self, probe: SpeedProbe) -> None:
        t = n = u = 0
        for a, b, parts, done, updates in self.calls:
            if parts:
                self.sample_s += probe.split(a, b, parts)
            t += probe.calibrated(a, b)
            n += done
            u += updates
            if t >= ROUND_S:
                self.rounds.append((t, n, u))
                t = n = u = 0
        if n:
            self.rounds.append((t, n, u))
        self.calls.clear()

    def calibrated_s(self) -> float:
        return sum(t for t, _, _ in self.rounds)

    def round_median(self, per_round) -> float:
        """Median of per_round(seconds, samples, updates) over full rounds."""
        full = [r for r in self.rounds if r[0] >= ROUND_S] or self.rounds
        return statistics.median(per_round(*r) for r in full)

    def summary(self) -> dict:
        """Everything a child process hands back."""
        out = {k: getattr(self, k) for k in self.COUNTS}
        return {**out, "records": self.records, "sample_s": self.sample_s, "rounds": self.rounds}

    def merge(self, summary: dict) -> None:
        for k in self.COUNTS:
            setattr(self, k, getattr(self, k) + summary[k])
        self.records += [tuple(r) for r in summary["records"]]
        self.sample_s += summary["sample_s"]
        self.rounds += [tuple(r) for r in summary["rounds"]]


class Runner:
    """Draws the workload's samples through the public API, unit by unit.

    A unit is one library call: engine.sample for one sample, or
    verification.sample_many for ``chunk`` samples. The inputs of unit u of
    process part p depend only on (workload, seed, p, u); part 0 begins
    with the fixed sample set.
    """

    def __init__(self, lib, wl: Workload, g, seed: int, part: int = 0):
        self.lib, self.wl, self.g, self.seed, self.part = lib, wl, g, seed, part
        self.failures = (lib.errors.NoCoalescenceError, lib.errors.EngineError)

    def config(self, master_seed: int):
        wl = self.wl
        return self.lib.engine.SamplerConfig(
            q=wl.q, master_seed=master_seed, force=wl.force, t2_override=wl.t2
        )

    def unit(self, u, acc: Pass) -> None:
        wl = self.wl
        cfg = self.config(derive(wl.name, self.seed, "unit", self.part, u))
        a = clock()
        try:
            if wl.chunk > 1:
                results = self.lib.verification.sample_many(self.g, cfg, wl.chunk)
            else:
                results = [self.lib.engine.sample(self.g, cfg)]
        except self.failures as exc:
            acc.calls.append((a, clock(), [], 0, 0))
            acc.attempted += wl.chunk
            acc.failed += wl.chunk
            acc.records.append((self.part, u, "failed", type(exc).__name__))
            return
        b = clock()
        # sample_many times each sample itself; a single call is timed here
        parts = [r.wall_ms / 1e3 for r in results] if wl.chunk > 1 else [b - a]
        acc.calls.append((a, b, parts, len(results), sum(r.updates for r in results)))
        for res in results:
            self.record(res, u, acc)

    def record(self, res, u, acc: Pass) -> None:
        fallbacks = res.phase_stats["seeding_fallbacks"] + res.phase_stats["disjoint_fallbacks"]
        acc.attempted += 1
        if not is_proper(self.g, self.wl.q, res.coloring):
            acc.improper += 1
            acc.failed += 1
        acc.updates += res.updates
        acc.blocks += res.blocks_used
        acc.fallbacks += fallbacks
        acc.records.append((
            self.part, u, res.master_seed, list(res.coloring),
            res.blocks_used, res.updates, fallbacks,
        ))

    def run(self, seconds: float = 0.0) -> Pass:
        """Part 0's fixed sample set, then more units until ``seconds`` have passed."""
        acc = Pass()
        fixed = self.wl.fixed_units if self.part == 0 else 0
        start = clock()
        u = 0
        while u < fixed or clock() - start < seconds:
            self.unit(u, acc)
            u += 1
        return acc


def set_up(wl: Workload, seed: int, with_verification: bool):
    """Import, graph generation and one warm-up call.

    Returns (library, graph, raw start and end of the set-up).
    """
    t0 = clock()
    lib = import_library(with_verification)
    g = build_graph(lib, wl, seed)
    # The same warm-up call for every seed, so set-up time varies only
    # with the graph.
    Runner(lib, wl, g, seed=None, part=-1).unit(0, Pass())
    return lib, g, (t0, clock())


def sample_part(wl: Workload, seed: int, part: int, seconds: float):
    """Set up and sample for ``seconds`` under a speed probe.

    Returns (runner, pass, calibrated set-up seconds, raw set-up seconds).
    """
    with SpeedProbe() as probe:
        lib, g, (t0, t1) = set_up(wl, seed, wl.chunk > 1)
        runner = Runner(lib, wl, g, seed, part=part)
        acc = runner.run(seconds)
    acc.calibrate(probe)
    return runner, acc, probe.calibrated(t0, t1), t1 - t0


def run_part(wl: Workload, seed: int, part: int, seconds: float) -> dict:
    """Set up and sample in a fresh interpreter; returns its summary."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
           "--seed", str(seed), "--seconds", repr(seconds), "--part", str(part)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def part_main(wl: Workload, args) -> dict:
    _, acc, setup, raw_setup = sample_part(wl, args.seed, args.part, args.seconds)
    return {"setup_s": setup, "raw_setup_s": raw_setup, **acc.summary()}


def digest(records) -> str:
    text = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_describe() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout; source_sha256 identifies it
        return "unavailable"
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def provenance(wl: Workload, args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_describe": git_describe(),
        "source_sha256": source_digest(),
        "workload": wl.params(),
        "seed": args.seed,
        "graph_seed": graph_seed(wl, args.seed) if wl.graph == "regular" else None,
        "seconds": args.seconds,
        "trace": args.trace,
        "probe": {
            "interval_s": calibrate.INTERVAL_S,
            "piece_iterations": calibrate.PIECE_ITERATIONS,
            "nominal_piece_s": calibrate.NOMINAL_PIECE_S,
        },
    }


def golden(wl: Workload, acc: Pass) -> dict:
    """Digest of the fixed sample set's outputs: equal across runs of one seed."""
    head = [r for r in acc.records if r[0] == 0 and r[1] < wl.fixed_units]
    return {"samples": wl.fixed_samples, "sha256": digest(head)}


def tail_percentile(n: int) -> int:
    """Highest of p90, p75 with at least ten samples beyond it; else the median."""
    for p in (90, 75):
        if n * (100 - p) >= 1000:
            return p
    return 50


def peak_memory_mb(runner: Runner, acc: Pass) -> tuple[float, bool]:
    """Median peak traced memory over re-runs of the samples of median work.

    Re-runs start at the median sample by update count, over the samples of
    every process, and widen outwards until MEM_SAMPLES are done or
    MEM_BUDGET_S has passed. Returns the median peak in MB and whether
    every re-run reproduced its sample.
    """
    done = sorted((r for r in acc.records if r[2] != "failed"), key=lambda r: (r[5], r[0], r[1]))
    mid = (len(done) - 1) // 2
    order = sorted(range(len(done)), key=lambda i: (abs(i - mid), i))[:MEM_SAMPLES]
    peaks = []
    same = True
    start = clock()
    for i in order:
        _, _, master_seed, coloring, blocks, updates, _ = done[i]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = runner.lib.engine.sample(runner.g, runner.config(master_seed))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        same &= (list(res.coloring), res.blocks_used, res.updates) == (coloring, blocks, updates)
        if clock() - start >= MEM_BUDGET_S:
            break
    return statistics.median(peaks) / 1e6, same


def declared(kind: str) -> list[str]:
    """Names of the ``kind`` metrics in BENCHMARK.json, in its order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench[kind]]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl: Workload, args) -> tuple[dict, Pass, dict, bool]:
    share = args.seconds / PROCESSES
    runner, acc, setup, raw_setup = sample_part(wl, args.seed, 0, share)
    head = golden(wl, acc)
    setups, raw_setups = [setup], [raw_setup]
    for part in range(1, PROCESSES):
        summary = run_part(wl, args.seed, part, share)
        setups.append(summary.pop("setup_s"))
        raw_setups.append(summary.pop("raw_setup_s"))
        acc.merge(summary)
    mem_mb, repeated = peak_memory_mb(runner, acc)
    ok_samples = acc.attempted - acc.failed
    p = tail_percentile(len(acc.sample_s))
    tail = statistics.quantiles(acc.sample_s, n=100, method="inclusive")[p - 1]
    metrics = {
        "samples_per_s": metric(acc.round_median(lambda t, n, u: n / t), "1/s"),
        "us_per_update": metric(acc.round_median(lambda t, n, u: t / u * 1e6), "us"),
        "sample_s_p50": metric(statistics.median(acc.sample_s), "s"),
        "sample_s_p90": metric(tail, "s"),
        "peak_mem_mb": metric(mem_mb, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
        "success_frac": metric(ok_samples / acc.attempted, "fraction"),
    }
    report = {
        "golden": head,
        "samples": acc.attempted,
        "updates": acc.updates,
        "blocks": acc.blocks,
        "fallbacks": acc.fallbacks,
        "improper": acc.improper,
        "sample_s_p90_is": f"p{p}",
        "rounds": len(acc.rounds),
        "raw_setup_s": raw_setups,
        "peak_mem_samples_repeated": repeated,
    }
    return metrics, acc, report, acc.improper == 0 and repeated


def traced_pass(runner: Runner) -> tuple[Pass, LayerTracer, float]:
    """The fixed sample set with every layer function wrapped.

    Probe pieces count as child spans, so no layer's self time holds them.
    Returns the pass, the tracer and the pass's mean speed factor.
    """
    with LayerTracer(layer_targets(runner.lib)) as tr, SpeedProbe(tr.exclude) as probe:
        a = clock()
        acc = runner.run()
        b = clock()
    acc.calibrate(probe)
    return acc, tr, probe.factor(a, b)


def per_layer(wl: Workload, args) -> tuple[dict, Pass, dict, bool]:
    lib, g, _ = set_up(wl, args.seed, True)
    runner = Runner(lib, wl, g, args.seed)
    with SpeedProbe() as probe:
        plain = runner.run()
    plain.calibrate(probe)
    (a, tr_a, fa), (b, tr_b, fb) = traced_pass(runner), traced_pass(runner)
    checks = {
        "traced_outputs_match_untraced": a.records == plain.records == b.records,
        "traced_calls_repeat": tr_a.calls == tr_b.calls
        and tr_a.coalesced_blocks == tr_b.coalesced_blocks,
    }

    def calibrated(times: str, label: str) -> float:
        """Mean over the two traced passes, each scaled by its own speed factor."""
        return (getattr(tr_a, times)[label] * fa + getattr(tr_b, times)[label] * fb) / 2

    metrics = {}
    for label in tr_a.calls:
        metrics[f"{label}.calls"] = metric(tr_a.calls[label], "count")
        metrics[f"{label}.self_s"] = metric(calibrated("self_s", label), "s")
    built = tr_a.calls["engine.construct_block"]
    ok_samples = plain.attempted - plain.failed
    attempts = tr_a.calls["bounding.apply_seeding"] + tr_a.calls["bounding.apply_disjoint"]
    replay_share = calibrated("total_s", "engine.replay") / calibrated("total_s", "engine.sample")
    metrics.update({
        "bounding.fallback_rate": metric(a.fallbacks / attempts if attempts else 0.0, "ratio"),
        "engine.blocks_per_sample": metric(built / ok_samples, "count"),
        "engine.updates_per_sample": metric(a.updates / ok_samples, "count"),
        "engine.coalesce_rate": metric(tr_a.coalesced_blocks / built, "ratio"),
        "engine.replay_share": metric(replay_share, "ratio"),
        "trace_overhead": metric(
            (a.calibrated_s() + b.calibrated_s()) / 2 / plain.calibrated_s(), "ratio"
        ),
    })
    report = {
        "layers": metrics,
        "golden": golden(wl, plain),
        "samples": plain.attempted,
        "updates": plain.updates,
        "blocks": plain.blocks,
        "fallbacks": plain.fallbacks,
        "improper": plain.improper,
        **checks,
    }
    correct = plain.improper == 0 and all(checks.values())
    return metrics, plain, report, correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.part:
        print(json.dumps(part_main(wl, args)))
        return 0
    measure, kind = (per_layer, "per_layer") if args.trace else (end_to_end, "end_to_end")
    metrics, acc, report, correct = measure(wl, args)
    print(json.dumps({"provenance": provenance(wl, args)}))
    print(json.dumps({"outputs": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": acc.attempted,
        "failed": acc.failed,
        "metrics": {name: metrics[name] for name in declared(kind)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
