"""Smoke test of the scripts in demos/: each runs to completion and prints."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nmfcluster

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert [demo.name for demo in DEMOS] == [
        "01_factorize_blocks.py",
        "02_penalty_trend.py",
        "03_graph_partition.py",
        "04_baseline_comparison.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs(demo, tmp_path):
    # a fresh interpreter that imports nmfcluster from where this test did
    src = str(Path(nmfcluster.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
