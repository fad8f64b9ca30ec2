"""Benchmark for the bicayley toolkit: four workloads, exact checks, per-layer tracing.

    python3 perfbench/run.py --workload {census,analyze,verify} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a checkout; the library is imported from the
checkout's own ``src/``.  Each workload runs in fresh interpreters with every
numpy/BLAS thread pool pinned to one thread:

* ``--trace 0``: several set-up-only processes, then one process that sets
  up and measures.  Prints the end-to-end metrics.
* ``--trace 1``: one process that measures untraced, then traced.  Prints the
  per-layer metrics and writes the spans under ``.perfbench_out/``.

The line before the last is a full report (machine facts, failures, every
metric with its unit); the last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # set-up measurements per untraced run, the measuring process included
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

SPEC = ROOT / "BENCHMARK.json"


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_frac", "_per_search")):
        return "ratio"
    return "count"


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class BenchError(Exception):
    pass


def spawn(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--t0", repr(t0), "--root", str(ROOT)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=str(ROOT), capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"{mode} worker exceeded the time limit") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples above it.

    Returns (value, percentile, samples above); with fewer than eleven
    samples no such percentile exists and the maximum is returned.
    """
    xs = sorted(values)
    idx = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs) - idx - 1


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(args: argparse.Namespace, numpy_version: str | None) -> dict:
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads_per_workload": 1,
        "seed": args.seed,
        "git_commit": git_commit(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args: argparse.Namespace, declared: dict, deadline: float) -> tuple[dict, dict]:
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUPS - 1)]
    res = spawn(args, "measure", deadline)
    setups.append(res["setup_s"])
    wall = statistics.median(res["pass_s"])
    tail_ms, tail_pct, beyond = tail(res["call_ms"])
    full = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(wall, "s"),
        "op_p50_ms": metric(statistics.median(res["call_ms"]), "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        "fail_frac": metric(res["failed"] / res["attempted"], "ratio"),
        "op_tail_percentile": metric(tail_pct, "%"),
        "op_tail_samples_beyond": metric(beyond, "count"),
        "op_samples": metric(len(res["call_ms"]), "count"),
        "passes": metric(len(res["pass_s"]), "count"),
        f"{res['unit'].replace(' ', '_')}_per_pass": metric(res["units"] / len(res["pass_s"]), "count"),
    }
    if args.workload == "census":
        full["pairs_per_s"] = metric(res["units"] / sum(res["pass_s"]), "1/s")
    summary = {m["name"]: full[m["name"]] for m in declared["end_to_end"]}
    report = {"setup_runs_s": setups, "pass_s": res["pass_s"], "failures": res["failures"],
              "calls_per_pass": res["calls_per_pass"]}
    return res, {"summary": summary, "full": full, "extra": report}


def trace(args: argparse.Namespace, declared: dict, deadline: float) -> tuple[dict, dict]:
    res = spawn(args, "trace", deadline)
    plain, traced = res["untraced"], res["traced"]
    layers = dict(res["layers"])
    layers["trace.overhead_s"] = statistics.median(traced["pass_s"]) - statistics.median(plain["pass_s"])
    full = {k: metric(v, layer_unit(k)) for k, v in layers.items()}
    summary = {m["name"]: full[m["name"]] for m in declared["per_layer"]}
    merged = {"attempted": plain["attempted"] + traced["attempted"],
              "failed": plain["failed"] + traced["failed"],
              "failures": plain["failures"] + traced["failures"],
              "numpy": res["numpy"]}
    extra = {"untraced_pass_s": plain["pass_s"], "traced_pass_s": traced["pass_s"],
             "span_stats": res["span_stats"], "spans_path": res["spans_path"],
             "span_count": res["span_count"], "spans_dropped": res["spans_dropped"],
             "failures": merged["failures"]}
    return merged, {"summary": summary, "full": full, "extra": extra}


def main(argv: list[str] | None = None) -> int:
    declared = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="census, analyze, verify or canon")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "bicayley" / "__init__.py").is_file():
        print(f"error: no bicayley sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res, out = (trace if args.trace else measure)(args, declared, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "machine": machine_facts(args, res.get("numpy")),
        "metrics": out["full"],
        **out["extra"],
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": out["summary"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
