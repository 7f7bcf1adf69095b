"""The benchmark's seed-0 digests as a test: one pass of the small-exact
and greedy workloads, whose every command's stdout must match the digest
pinned in sepbench/digests.json. The runner counts a mismatch, a failed
verification or an exception as a failed command, and prints its JSON
result as the last line of stdout."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["small-exact", "greedy"])
def test_seed0_digests_match(workload):
    out = subprocess.run(
        [sys.executable, "sepbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0, out.stdout
