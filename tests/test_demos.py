"""The quick demos run to completion against the current sources.

`diverse_generation.py` is left out: it trains two models and takes several
seconds more than the rest together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["subgraph_walkthrough.py", "metrics_tour.py",
                                  "overfit_single_model.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
