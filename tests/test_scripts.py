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
