import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

from cftp_colorings import cli, engine
from cftp_colorings import couplings as cp
from cftp_colorings.errors import NoCoalescenceError
from cftp_colorings.graphs import gen_complete_bipartite


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cftp_colorings.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_sample_deterministic_and_proper():
    a = run_cli("sample", "--gen", "k4", "--q", "13", "--n", "10", "--seed", "7")
    b = run_cli("sample", "--gen", "k4", "--q", "13", "--n", "10", "--seed", "7")
    assert a.returncode == 0, a.stderr
    pa, pb = json.loads(a.stdout), json.loads(b.stdout)
    assert [s["coloring"] for s in pa["samples"]] == [s["coloring"] for s in pb["samples"]]
    assert len(pa["samples"]) == 10
    for s in pa["samples"]:
        c = s["coloring"]
        assert len(set(c)) == 4  # proper on K4 means all distinct
    assert pa["meta"]["master_seed"] == 7
    assert "git_describe" in pa["meta"]


def test_sample_missing_graph_source_exits_64():
    r = run_cli("sample", "--q", "13")
    assert r.returncode == 64


def test_sample_two_graph_sources_exits_64(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("3 3\n0 1\n1 2\n0 2\n")
    r = run_cli("sample", "--graph", str(p), "--gen", "k4", "--q", "13")
    assert r.returncode == 64


def test_sample_subthreshold_demands_force():
    # (2.5 + eta) * 8 with eta = 2 sqrt((ln 8 + 1)/8) is about 29.9, so q = 26
    # is refused without --force
    r = run_cli("sample", "--gen", "regular:200,8", "--q", "26", "--seed", "1")
    assert r.returncode == 64
    assert "force" in r.stderr


def test_sample_drift_formula_out_of_range_names_t2():
    # q = 20 = 2.5 * 8: the drift length formula has no value there
    r = run_cli("sample", "--gen", "regular:40,8", "--q", "20", "--force", "--seed", "1")
    assert r.returncode == 64
    assert "--t2" in r.stderr
    assert "Traceback" not in r.stderr


def test_sample_graph_file_and_csv(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    out = tmp_path / "out.csv"
    r = run_cli(
        "sample", "--graph", str(p), "--q", "13", "--seed", "3",
        "--format", "csv", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# {")  # metadata comment
    assert lines[1].split(",")[0] == "sample"


def test_sample_bad_gen_spec_exits_64():
    r = run_cli("sample", "--gen", "mystery:3", "--q", "13")
    assert r.returncode == 64


def test_verify_lp_grid_small():
    r = run_cli("verify", "--lp", "--delta", "3:5")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "[PASS]" in r.stdout


def test_verify_injected_fault_fails():
    r = run_cli("verify", "--inject-fault", "biased-permutation")
    assert r.returncode == 1
    assert "[FAIL]" in r.stdout


def test_partition_audits_and_reports():
    r = run_cli("partition", "--gen", "bipartite:32", "--seed", "5")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["bounds_ok"] is True
    assert payload["meta"]["master_seed"] == 5


def test_lowerbound_table():
    r = run_cli("lowerbound", "--delta-range", "4:6")
    assert r.returncode == 0, r.stderr
    lines = [ln for ln in r.stdout.splitlines() if ln and not ln.startswith("#")]
    header, *rows = lines
    assert header.split(",") == ["delta", "q", "m", "r", "bound", "seeding", "disjoint"]
    table = {(int(x[0]), int(x[1])): x for x in (r.split(",") for r in rows)}
    assert float(table[(4, 8)][4]) == 2.3
    # the theorem's range: two-to-one contraction is impossible below 2.5 delta - 1
    assert all(float(x[4]) > 2 for (d, q), x in table.items() if q < 2.5 * d - 1)
    # the disjoint layout first fits at 2.5 delta
    assert table[(4, 9)][6] == ""
    assert float(table[(4, 10)][6]) == 2.0


# sha256 of `lowerbound --delta-range 4:40`'s stdout after its `# {meta}`
# line: the header and 646 rows, each ending in LF
LOWERBOUND_4_40_SHA256 = "79fabc61609ee04f1c756dd13307870de7f8fca8004181cfc210f9301e6cffec"


def test_lowerbound_table_matches_its_recorded_digest():
    r = run_cli("lowerbound", "--delta-range", "4:40")
    assert r.returncode == 0, r.stderr
    meta, body = r.stdout.split("\n", 1)
    assert meta.startswith("# {")
    assert body.count("\n") == 647 and body.endswith("\n")
    assert hashlib.sha256(body.encode()).hexdigest() == LOWERBOUND_4_40_SHA256


def test_worstcase_gen_spec_builds_disjoint_bipartite_copies():
    g = cli.parse_gen_spec("worstcase:4,8,2")
    assert g.n == 16
    assert all(g.degree(v) == 4 for v in range(16))
    # copy c is K_{4,4} on vertices 8c..8c+3 and 8c+4..8c+7
    assert g.edges == {(u + o, v + o) for o in (0, 8) for u in range(4) for v in range(4, 8)}
    assert cli.parse_gen_spec("worstcase:4,8") == gen_complete_bipartite(4)


@pytest.mark.parametrize(
    "spec,needle",
    [
        ("worstcase:3,8", "even degree"),
        ("worstcase:4,5", "need q >= 3"),
        ("worstcase:4,8,0", "at least one copy"),
    ],
)
def test_worstcase_gen_spec_bad_parameters_exit_64(spec, needle, capsys):
    assert cli.main(["partition", "--gen", spec, "--seed", "1"]) == 64
    assert needle in capsys.readouterr().err


def test_lowerbound_exits_1_when_an_exact_size_falls_below_the_floor(monkeypatch):
    # every E color's slot mass cut by 0.9 leaves the disjoint size at
    # q = 2.5 delta at 1.9, below the floor there (1.905 at delta = 4)
    args = ["lowerbound", "--delta-range", "4:8"]
    assert cli.main(args) == 0
    real = cp._pair_masses

    def cut_e_mass(*counts):
        p_pair, s_d, s_e, *rest = real(*counts)
        return (p_pair, s_d, 0.9 * s_e, *rest)

    monkeypatch.setattr(cp, "_pair_masses", cut_e_mass)
    assert cli.main(args) == 1


def test_sample_no_coalescence_exits_2():
    # K5 at q = delta + 2 with a single block essentially never coalesces
    r = run_cli(
        "sample", "--gen", "complete:5", "--q", "6", "--seed", "3",
        "--force", "--max-blocks", "1", "--t2", "40",
    )
    assert r.returncode == 2
    assert "no coalescence" in (r.stdout + r.stderr)


def test_lpaudit_reference_row():
    r = run_cli("lpaudit", "--delta", "12:12")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[1] == "delta,s_size,q,r1,r2,r3,expected_size,full_lp_feasible"
    rows = {tuple(ln.split(",")[:3]): ln.split(",") for ln in lines[2:]}
    row = rows[("12", "24", "30")]
    assert float(row[3]) == 0
    assert abs(float(row[5]) - 23 / 36) < 1e-6
    assert row[7] == "1"
    # |S| + delta <= q: the law mixes sizes 1 and 2, r1 = (28 - 13 - 12) / (28 - 12)
    assert rows[("12", "13", "28")][3:6] == ["0.1875", "0.8125", "0"]


def test_lpaudit_fills_every_cell_and_holds_the_lp():
    # seeding_size_law never raises on lp_grid, so no row has an empty cell
    r = run_cli("lpaudit", "--delta", "0:24")
    assert r.returncode == 0, r.stderr
    rows = [ln.split(",") for ln in r.stdout.splitlines()[2:]]
    assert rows
    assert all(len(row) == 8 and all(row) for row in rows)
    assert all(row[7] == "1" for row in rows)


def test_bench_workers_match_sequential():
    seq = run_cli("bench", "--delta", "6", "--n-list", "30", "--runs", "2",
                  "--seed", "11")
    par = run_cli("bench", "--delta", "6", "--n-list", "30", "--runs", "2",
                  "--seed", "11", "--workers", "2")

    def rows_without_wall_time(out):
        rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")]
        return [r[:7] + r[8:] for r in rows]

    assert rows_without_wall_time(seq.stdout) == rows_without_wall_time(par.stdout)


def test_bench_reads_wall_time_from_the_run_statistics(monkeypatch):
    # mark the wall time the run statistics carry, for a coalesced run and for
    # an exhausted one; bench must report the mark, not a clock of its own
    real = engine.sample

    def marked(g, config):
        try:
            return dataclasses.replace(real(g, config), wall_ms=-1.0)
        except NoCoalescenceError as exc:
            exc.stats["wall_ms"] = -2.0
            raise

    monkeypatch.setattr(engine, "sample", marked)
    assert cli._bench_one((30, 6, 25, 11, 64))["wall_ms"] == -1.0
    exhausted = cli._bench_one((12, 4, 8, 2, 2))
    assert exhausted["coalesced"] == 0 and exhausted["wall_ms"] == -2.0


def test_bench_subthreshold_reports_low_fraction():
    # exploratory mode: at q well below the threshold, blocks essentially
    # never coalesce and the fraction column reflects that
    r = run_cli(
        "bench", "--delta", "4", "--n-list", "12", "--runs", "1",
        "--q", "8", "--seed", "2", "--max-blocks", "2",
    )
    assert r.returncode == 0, r.stderr
    lines = [ln for ln in r.stdout.splitlines() if ln and not ln.startswith("#")]
    frac = float(lines[1].split(",")[4])
    assert frac <= 0.5
    # no run coalesces, so the resample count comes from NoCoalescenceError.stats
    row = lines[1].split(",")
    assert row[:7] + row[8:] == ["12", "4", "8", "1", "0.0", "2.0", "1028.0", "0"]


def test_bench_csv_columns():
    r = run_cli(
        "bench", "--delta", "6", "--n-list", "30,60", "--runs", "2", "--seed", "11"
    )
    assert r.returncode == 0, r.stderr
    lines = [ln for ln in r.stdout.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    assert header[:6] == ["n", "delta", "q", "runs", "coalesce_fraction", "mean_blocks"]
    assert len(lines) == 3
    frac = float(lines[1].split(",")[4])
    assert 0 <= frac <= 1
    # every column but mean_wall_ms is a function of the seed
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[:7] + r[8:] for r in rows] == [
        ["30", "6", "25", "2", "1.0", "1.0", "508.0", "0"],
        ["60", "6", "25", "2", "1.0", "1.0", "1174.0", "0"],
    ]


K4 = ("sample", "--gen", "k4", "--q", "13", "--seed", "1")


@pytest.mark.parametrize(
    "args,needle",
    [
        (("bench", "--delta", "4", "--n-list", "10", "--q", "5", "--runs", "1", "--seed", "1"),
         "q >= max_degree + 2"),
        (("bench", "--delta", "8", "--n-list", "5", "--runs", "1", "--seed", "1"), "d < n"),
        (("bench", "--delta", "3", "--n-list", "11", "--runs", "1", "--seed", "1"),
         "must be even"),
        (("verify", "--lp", "--delta", "5:3"), "'--delta'"),
        (("verify", "--lp", "--delta", "2:2"), "'--delta': the minimum degree is 3"),
        (("lpaudit", "--delta", "5:3"), "'--delta'"),
        (("lowerbound", "--delta-range", "8:4"), "'--delta-range'"),
        ((*K4, "--t2", "-5"), "--t2"),
        ((*K4, "--max-blocks", "0"), "--max-blocks"),
        ((*K4, "--n", "0"), "'--n'"),
        (("lowerbound", "--delta-range", "3:3"), "'--delta-range'"),
        (("bench", "--delta", "4", "--n-list", "10", "--runs", "0", "--seed", "1"), "'--runs'"),
        (("bench", "--delta", "4", "--n-list", "", "--runs", "1", "--seed", "1"), "'--n-list'"),
        (("lowerbound", "--delta-range", "4:4", "--audit"), "'--audit'"),
        (("bench", "--delta", "4", "--n-list", "10,10", "--runs", "1", "--seed", "1",
          "--q", "12"), "'--n-list'"),
        (("bench", "--delta", "4", "--n-list", "10", "--runs", "1", "--seed", "1",
          "--workers", "0"), "'--workers'"),
    ],
)
def test_bench_bad_inputs_exit_64(args, needle):
    r = run_cli(*args)
    assert r.returncode == 64
    assert needle in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("sample", "--gen", "k4", "--q", "13", "--n", "3", "--seed", "3", "--format", "csv"),
        ("bench", "--delta", "6", "--n-list", "30", "--runs", "1", "--seed", "11"),
        ("lowerbound", "--delta-range", "4:6"),
        ("lpaudit", "--delta", "3:4"),
    ],
)
def test_csv_lines_end_in_lf_only(args):
    # read bytes: text mode would turn CRLF into LF before the check
    r = subprocess.run(
        [sys.executable, "-m", "cftp_colorings.cli", *args], capture_output=True, timeout=600
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith(b"# {")
    assert r.stdout.count(b"\n") > 2
    assert b"\r" not in r.stdout


OUT_COMMANDS = [
    K4,
    ("bench", "--delta", "4", "--n-list", "10", "--runs", "1", "--seed", "1"),
    ("lowerbound", "--delta-range", "4:4"),
    ("lpaudit", "--delta", "3:3"),
]


@pytest.mark.parametrize("args", OUT_COMMANDS, ids=[a[0] for a in OUT_COMMANDS])
@pytest.mark.parametrize("bad_out", ["missing-dir/out.txt", "."])
def test_bad_out_path_exits_64(args, bad_out, tmp_path):
    # a missing directory or a directory is refused before the command's work
    r = run_cli(*args, "--out", str(tmp_path / bad_out))
    assert r.returncode == 64
    assert "'--out'" in r.stderr
    assert "Traceback" not in r.stderr


def test_out_path_resolves_against_outdir(tmp_path):
    (tmp_path / "sub").mkdir()
    env = {**os.environ, "CFTP_COLORINGS_OUTDIR": str(tmp_path)}

    def lpaudit(out):
        return subprocess.run(
            [sys.executable, "-m", "cftp_colorings.cli", "lpaudit", "--delta", "3:3", "--out", out],
            capture_output=True, text=True, timeout=600, env=env,
        )

    assert lpaudit("table.csv").returncode == 0
    assert (tmp_path / "table.csv").read_text().startswith("# {")
    # relative paths are checked where they will be written: under the output directory
    r = lpaudit("sub")
    assert r.returncode == 64 and "is a directory" in r.stderr
    r = lpaudit("missing-dir/table.csv")
    assert r.returncode == 64 and "does not exist" in r.stderr
