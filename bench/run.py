"""Benchmark of the nsmild CLI: one fresh process per operation.

    python3 bench/run.py --workload snap2d --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout; the package is imported from src/.
Operations run one after another from this process, each child with one
BLAS/OpenMP thread, until --seconds is used up (at least MIN_OPS of them).
This process imports the package before the first one, so that the first
operation finds its files cached and compiled like the others. Operation k
of a run gets the CLI seed OP_SEEDS * seed + k, so that a run's medians
average over several initial fields. Every operation's outputs are checked
(checks.py) and a failed check or an unexpected exit code counts as a
failed operation.

--trace 0 reports the end-to-end metrics, medians over the operations.
--trace 1 alternates untraced and traced operations and reports the
per-layer metrics from the traced ones, plus the tracing overhead (traced
minus untraced median wall time). Every run writes result.json, and a
traced run trace.json with every span, under .bench_out/. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 3
OP_SEEDS = 1000  # operation k of a run with seed s gets the CLI seed OP_SEEDS * s + k
MIN_TRACED_PAIRS = 2
DEADLINE_S = 160.0  # every run must end within 180 s; ops still running then are killed
LOC_BASELINE = 2379
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# -- metric names -------------------------------------------------------------

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("output_mb", "MiB"),
    ("ok_frac", "frac"),
)
FUNC_STATS = (("calls", "count"), ("s", "s"), ("self_s", "s"), ("p50_ms", "ms"), ("tail_ms", "ms"))
FULL_STAT_FUNCS = (
    "operators.nonlinear_F", "operators.advect", "solver.exp_euler_step",
    "solver.compute_diagnostics", "operators.lp_norm", "operators.frac_norm",
    "grid.random_divfree_field",
)
TIMED_FUNCS = (
    "operators.heat_semigroup", "operators.phi1", "operators.leray_project",
    "solver.march", "io.write_diagnostics_csv", "io.write_manifest", "io.write_report_json",
    "grid.make_grid", "grid.embed",
    "cli.load_config", "cli.build_grid", "cli.build_solver_config", "cli.build_forcing",
    "cli.build_initial",
    "verification.run_verification_suite",
    "verification.check_operator_identities", "verification.check_resolvent_divfree",
    "verification.check_semigroup", "verification.check_frac_power_composition",
    "verification.check_energy_orthogonality", "verification.check_gradient_identity",
    "verification.estimate_bilinear_constant", "verification.estimate_norm_equivalence",
    "verification.taylor_green_residual", "verification.compare_oracle",
    "verification.check_gradient_orthogonality", "verification.diagonal_dependence_scan",
    "verification.estimate_hoelder", "verification.check_assumption_F",
    "verification.existence_time_trend",
)
LAYERS = ("cli", "grid", "operators", "solver", "verification", "io", "fft", "import", "other")


def per_layer_specs() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    specs = [(f"{f}.{stat}", unit) for f in FULL_STAT_FUNCS for stat, unit in FUNC_STATS]
    specs += [(f"{f}.s", "s") for f in TIMED_FUNCS]
    specs += [
        ("grid.inverse_transform.calls", "count"), ("grid.inverse_transform.s", "s"),
        ("io.write_snapshot.calls", "count"), ("io.write_snapshot.s", "s"),
        ("io.write_snapshot.bytes", "B"), ("solver.trajectory_mb", "MiB"),
        ("solver.picard_solve.calls", "count"), ("solver.picard_solve.s", "s"),
        ("solver.picard_solve.self_s", "s"), ("solver.picard_solve.iterations", "count"),
        ("solver.picard.useful_ratio", "frac"), ("verification.checks_failed", "count"),
        ("fft.calls", "count"), ("fft.transforms", "count"), ("fft.points", "count"),
        ("fft.s", "s"), ("fft.flops_computed", "flop"), ("fft.bytes_computed", "B"),
        ("import.s", "s"),
    ]
    specs += [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    specs += [("trace.overhead_s", "s"), ("trace.wall_s", "s"), ("trace.spans", "count")]
    return specs


# -- environment --------------------------------------------------------------


def environment() -> dict:
    import numpy

    sources = sorted((SRC / "nsmild").rglob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        loc += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() if done.returncode == 0 else None
    return {
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "thread_pinning": {var: "1" for var in THREAD_VARS} | {"cpu_affinity": "not set"},
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_loc": loc,
        "src_loc_delta": loc - LOC_BASELINE,
    }


# -- one operation ------------------------------------------------------------


class Run:
    """Shared state of one benchmark run: workload, paths, child environment."""

    def __init__(self, workload, seed: int, out: Path):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.start = time.perf_counter()
        self.config_path = out / "config.json"
        self.config_path.write_text(json.dumps(workload.config, indent=1))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        env.update({var: "1" for var in THREAD_VARS})
        self.env = env


def _output_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_op(run: Run, op_id: int, kind: str) -> dict:
    """One child process; kind is "plain" or "traced"."""
    import checks

    op_dir = run.out / f"op{op_id:03d}"
    record_path = run.out / f"op{op_id:03d}.record.json"
    seed = OP_SEEDS * run.seed + op_id
    argv = [sys.executable, str(BENCH / "child.py"), str(record_path), kind,
            run.workload.command, "--config", str(run.config_path), "--out", str(op_dir),
            "--seed", str(seed), "--quiet"]
    limit = max(1.0, DEADLINE_S - (time.perf_counter() - run.start))
    with open(run.out / f"op{op_id:03d}.stderr", "w") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(argv, env=run.env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(limit, proc.kill)
        watchdog.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - began
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped by waitpid above

    op = {"id": op_id, "kind": kind, "seed": seed, "wall_s": wall, "exit": code,
          "problems": [], "checks_failed": 0}
    try:
        record = json.loads(record_path.read_text())
        op["setup_s"] = record["setup_s"]
        op["peak_rss_mb"] = record["peak_rss_mb"]
        op["output_mb"] = _output_bytes(op_dir) / 2**20
        if run.workload.command == "verify":
            op["problems"], op["checks_failed"] = checks.check_verify(op_dir, code)
        elif code != 0:
            op["problems"].append(f"exit code {code}")
        else:
            op["problems"] = checks.check_snapshots(op_dir, run.workload.config, seed)
        if kind == "traced":
            names = record["names"]
            op["spans"] = [[names[n], begin, end, parent] for n, begin, end, parent in record["spans"]]
            op["counters"] = record["counters"]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        op["problems"].append(f"{type(exc).__name__}: {exc}")
    return _finish(op, op_dir, record_path)


def _finish(op: dict, op_dir: Path, record_path: Path) -> dict:
    shutil.rmtree(op_dir, ignore_errors=True)
    record_path.unlink(missing_ok=True)
    op["failed"] = bool(op["problems"])
    return op


def measure(run: Run, seconds: float, trace: bool) -> list:
    """Run operations until `seconds` is used up, in groups.

    Untraced, a group is one operation; traced, one untraced and one traced
    operation, in alternating order. No group starts that is predicted to
    end after the time is up, once the minimum count of operations is reached.
    """
    deadline = run.start + seconds
    ops = []
    longest = 0.0
    groups = 0
    while True:
        if trace:
            kinds = ("plain", "traced") if groups % 2 == 0 else ("traced", "plain")
        else:
            kinds = ("plain",)
        began = time.perf_counter()
        for kind in kinds:
            op = run_op(run, len(ops), kind)
            ops.append(op)
            print(_op_line(op), flush=True)
        longest = max(longest, time.perf_counter() - began)
        groups += 1
        minimum = MIN_TRACED_PAIRS if trace else MIN_OPS
        if groups >= minimum and time.perf_counter() + longest > deadline:
            return ops


def _op_line(op: dict) -> str:
    kind = {"plain": "untraced", "traced": "traced  "}[op["kind"]]
    status = "ok" if not op["failed"] else "FAILED: " + "; ".join(op["problems"])
    return (f"op {op['id']:3d} {kind} seed {op['seed']} wall {op['wall_s']:.3f} s  setup "
            f"{op.get('setup_s', float('nan')):.3f} s  "
            f"rss {op.get('peak_rss_mb', float('nan')):.1f} MiB  "
            f"out {op.get('output_mb', float('nan')):.2f} MiB  exit {op['exit']}  {status}")


# -- metrics ------------------------------------------------------------------


def end_to_end_metrics(ops: list) -> dict:
    """Medians over the operations that passed (over all when none did)."""
    good = [op for op in ops if not op["failed"]] or ops
    values = {}
    for name in ("wall_s", "setup_s", "peak_rss_mb", "output_mb"):
        values[name] = statistics.median(op.get(name, float("nan")) for op in good)
    values["ok_frac"] = sum(not op["failed"] for op in ops) / len(ops)
    return values


def span_stats(spans: list) -> dict:
    """Per span name: calls, inclusive and self seconds, per-call durations."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        entry["durations"].append(end - start)
    return stats


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def tail_percentile(durations: list) -> tuple:
    """(percentile, value): the highest whole percentile with >= 10 samples above it.

    Nearest-rank percentiles; with 10 samples or fewer there is none, and
    the median is reported in its place as percentile 50.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return 50, statistics.median(ordered) if ordered else 0.0
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))
    return pct, ordered[rank - 1]


def op_layer_values(op: dict, stats: dict) -> dict:
    """Per-layer values of one traced operation (times in s, counts)."""
    counters = op["counters"]
    values = {}
    for name, entry in stats.items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.s"] = entry["s"]
        values[f"{name}.self_s"] = entry["self_s"]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, entry in stats.items():
        layer_self[_layer_of(name)] += entry["self_s"]
    layer_self["other"] = op["wall_s"] - sum(layer_self.values())
    for layer, seconds in layer_self.items():
        values[f"layer.{layer}.self_s"] = seconds
    fft = [entry for name, entry in stats.items() if _layer_of(name) == "fft"]
    values["fft.calls"] = sum(e["calls"] for e in fft)
    values["fft.s"] = sum(e["s"] for e in fft)
    for key in ("transforms", "points", "flops_computed", "bytes_computed"):
        values[f"fft.{key}"] = counters.get(f"fft.{key}", 0)
    values["io.write_snapshot.bytes"] = counters.get("io.write_snapshot.bytes", 0)
    values["solver.trajectory_mb"] = counters.get("solver.trajectory_bytes", 0) / 2**20
    iterations = counters.get("picard.iterations", 0)
    values["solver.picard_solve.iterations"] = iterations
    # no Picard iterations at all means none were wasted
    values["solver.picard.useful_ratio"] = (
        counters.get("picard.converged_iterations", 0) / iterations if iterations else 1.0)
    values["verification.checks_failed"] = op["checks_failed"]
    values["import.s"] = stats["import"]["s"]
    values["trace.spans"] = len(op["spans"])
    return values


def per_layer_metrics(ops: list) -> tuple:
    """Per-layer metrics (medians over traced operations) and the trace summary."""
    traced = [op for op in ops if "spans" in op]
    if not traced:
        raise SystemExit("no traced operation left a trace record")
    untraced = [op for op in ops if op["kind"] == "plain"]
    stats = [span_stats(op["spans"]) for op in traced]
    per_op = [op_layer_values(op, op_stats) for op, op_stats in zip(traced, stats)]
    durations = {}
    for op_stats in stats:
        for name, entry in op_stats.items():
            durations.setdefault(name, []).extend(entry["durations"])
    traced_wall = statistics.median(op["wall_s"] for op in traced)
    untraced_wall = statistics.median(op["wall_s"] for op in untraced)

    functions = {}
    for name, samples in sorted(durations.items()):
        pct, tail = tail_percentile(samples)
        functions[name] = {
            "calls": statistics.median(v.get(f"{name}.calls", 0) for v in per_op),
            "s": statistics.median(v.get(f"{name}.s", 0.0) for v in per_op),
            "self_s": statistics.median(v.get(f"{name}.self_s", 0.0) for v in per_op),
            "share_of_wall": statistics.median(
                v.get(f"{name}.s", 0.0) / op["wall_s"] for v, op in zip(per_op, traced)),
            "p50_ms": 1e3 * statistics.median(samples),
            "tail_pct": pct, "tail_ms": 1e3 * tail, "samples": len(samples),
        }

    values = {}
    for name, _ in per_layer_specs():
        func, _, stat = name.rpartition(".")
        if name == "trace.overhead_s":
            values[name] = traced_wall - untraced_wall
        elif name == "trace.wall_s":
            values[name] = traced_wall
        elif stat in functions.get(func, ()):
            values[name] = functions[func][stat]
        else:
            # derived values, and functions this workload never calls (0)
            values[name] = statistics.median(v.get(name, 0) for v in per_op)
    layers = {
        layer: statistics.median(v[f"layer.{layer}.self_s"] / op["wall_s"]
                                 for v, op in zip(per_op, traced))
        for layer in LAYERS
    }
    summary = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
               "overhead_s": traced_wall - untraced_wall,
               "layer_self_share_of_wall": layers, "functions": functions}
    return values, summary


def write_trace_dump(path: Path, ops: list, header: dict) -> None:
    """Every span of every traced operation, times in ns from the op's first span."""
    traced = [op for op in ops if "spans" in op]
    names = sorted({span[0] for op in traced for span in op["spans"]})
    index = {name: i for i, name in enumerate(names)}
    spans = []
    for op in traced:
        origin = op["spans"][0][1]
        spans += [[index[n], round(1e9 * (begin - origin)), round(1e9 * (end - origin)),
                   parent, op["id"]] for n, begin, end, parent in op["spans"]]
    path.write_text(json.dumps(header | {
        "names": names,
        "span_fields": ["name index", "start ns", "end ns", "parent index", "op id"],
        "spans": spans,
    }))


# -- entry points -------------------------------------------------------------


def benchmark(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    import checks  # noqa: F401  imports nsmild, so its bytecode is compiled before any timed child
    import workloads

    workload = workloads.make(name, seed, smoke)
    out = OUT / f"{'smoke-' if smoke else ''}{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = Run(workload, seed, out)
    ops = measure(run, seconds, trace)
    failed = sum(op["failed"] for op in ops)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"failed_frac {failed}/{len(ops)} = {failed / len(ops):.3f}")
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
              "config": workload.config,
              "ops": [{k: v for k, v in op.items() if k not in ("spans", "counters")}
                      for op in ops]}
    if trace:
        values, summary = per_layer_metrics(ops)
        units = dict(per_layer_specs())
        write_trace_dump(out / "trace.json", ops, {"workload": name, "seed": seed, "env": env,
                                                   "summary": summary})
        shares = summary["layer_self_share_of_wall"]
        print("layer self time share of traced wall: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in
            sorted(shares.items(), key=lambda item: -item[1])))
        print(f"tracing overhead {summary['overhead_s']:.3f} s "
              f"(traced {summary['traced_wall_s']:.3f} s, "
              f"untraced {summary['untraced_wall_s']:.3f} s); spans in {out / 'trace.json'}")
        result["trace_summary"] = summary
    else:
        values = end_to_end_metrics(ops)
        units = dict(END_TO_END)
    metrics = {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()}
    result["metrics"] = metrics
    (out / "result.json").write_text(json.dumps(result, indent=1))
    for metric, entry in metrics.items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def smoke() -> int:
    """Every workload once at the smallest grids; every metric emitted with its unit."""
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key, specs in ((False, "end_to_end", END_TO_END), (True, "per_layer", per_layer_specs())):
        wanted = {m["name"]: m["unit"] for m in declared[key]}
        if wanted != dict(specs):
            problems.append(f"BENCHMARK.json {key} differs from the metrics this script emits")
        for name in workloads.NAMES:
            result = benchmark(name, 0, 0.0, trace, smoke=True)
            got = {m: entry["unit"] for m, entry in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(set(got) ^ set(wanted))}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} failed operations")
    for problem in problems:
        print("SMOKE FAIL " + problem)
    print("smoke " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at the smallest grids and check the metric names")
    args = parser.parse_args()
    if not (SRC / "nsmild" / "__init__.py").is_file():
        print(f"no nsmild sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {name: benchmark(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        for name, r in results.items():
            print(f"== {name}: {r['failed']}/{r['attempted']} failed  " + "  ".join(
                f"{metric} {e['value']:.6g} {e['unit']}" for metric, e in r["metrics"].items()))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": e for name, r in results.items()
                        for metric, e in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
