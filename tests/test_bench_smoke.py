"""The benchmark harness at its smallest sizes, so that it cannot rot.

`bench/run.py --smoke` runs every workload once through the real CLI, checks
each operation's outputs against the independent numpy references in
`bench/checks.py` and every metric name and unit against BENCHMARK.json.
No timing is asserted.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
    assert "smoke ok" in result.stdout
