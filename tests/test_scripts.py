"""Smoke tests for the scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )


def test_uniformity_demo_runs():
    r = run_script("uniformity_demo.py", "--graph", "c3", "--samples", "300", "--seed", "7")
    assert r.returncode == 0, r.stderr
    assert "chi2=" in r.stdout


def test_uniformity_demo_rejects_no_samples():
    for n in ("0", "-5"):
        r = run_script("uniformity_demo.py", "--samples", n)
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr
        assert "--samples" in r.stderr


def test_replay_cost_rejects_seeds_that_are_not_integers():
    for seeds in ("1,x", "", "2.5"):
        r = run_script("replay_cost.py", "--gen", "complete:4", "--q", "13", "--seeds", seeds)
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr
        assert "--seeds" in r.stderr


def test_replay_cost_runs():
    r = run_script(
        "replay_cost.py", "--gen", "regular:20,6,5", "--q", "18", "--t2", "140", "--seeds", "1,3"
    )
    assert r.returncode == 0, r.stderr
    rows = [line for line in r.stdout.splitlines() if line.startswith("seed=")]
    assert len(rows) == 2
    for row in rows:
        fields = dict(f.split("=") for f in row.split())
        # below delta = 15 the seeding set is empty
        assert (fields["seeded"], fields["t1"], fields["t2"]) == ("0", "0", "140")
        assert float(fields["built_s"]) > 0 and float(fields["carried_s"]) > 0
        assert int(fields["compress_decodes"]) > 0
        assert 0 < float(fields["read_pi"]) <= 1
        assert float(fields["read_pi"]) <= float(fields["mean_colors_read"]) <= 6
