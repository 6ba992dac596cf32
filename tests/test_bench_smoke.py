"""The benchmark harness at its smallest sizes, so that it cannot rot.

`bench/run.py --smoke` runs every workload once through the real CLI, checks
each operation's outputs against the independent numpy references in
`bench/checks.py` and every metric name and unit against BENCHMARK.json.
No timing is asserted.
"""

import importlib
import importlib.util
import inspect
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


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_timed_names_are_public_functions():
    """Every function the benchmark times by name is one the tracer can wrap.

    The tracer wraps public module-level functions only, so a renamed,
    private or moved function would read as zero time without an error.
    """
    run, tracing = bench_module("run"), bench_module("tracing")
    names = set(run.FULL_STAT_FUNCS) | set(run.TIMED_FUNCS) | set(tracing.SETUP_FUNCS)
    for name in sorted(names):
        layer, attr = name.split(".")
        module = importlib.import_module(f"nsmild.{layer}")
        obj = getattr(module, attr, None)
        assert not attr.startswith("_") and inspect.isfunction(obj), name
        assert obj.__module__ == module.__name__, name
