"""tools/exactness.py: one command prints the digests of training and
decoding, and two runs of the same sources give the same digests."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_two_runs_of_the_same_sources_give_equal_digests():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "exactness.py"), "--tiny",
                           "--compare", str(ROOT)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    digests, verdict = map(json.loads, done.stdout.splitlines())
    assert len(digests) == 39 and all(len(d) == 64 for d in digests.values())
    assert {key.split("/")[-1] for key in digests} == {
        "params", "log", "moe", "beam", "truncated", "nucleus", "kg"}
    assert verdict == {"keys": 39, "differ": []}
