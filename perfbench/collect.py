"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads census,analyze] \
        [--seconds 15] [--out perfbench/baseline.json]

For every workload and every metric of the report line it records the median
over the seeds and the spread: the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median, next
to the bound for the metrics BENCHMARK.json bounds.  Runs go one after
another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    out: dict = {"seconds": args.seconds, "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        units: dict[str, str] = {}
        for seed in seeds(args.seeds):
            report, summary = run_once(workload, seed, args.seconds)
            out["machine"] = {k: v for k, v in report["machine"].items() if k != "seed"}
            attempted += summary["attempted"]
            failed += summary["failed"]
            for name, m in report["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(workload, seed, {k: round(v["value"], 4) for k, v in summary["metrics"].items()},
                  file=sys.stderr, flush=True)
        metrics = {}
        for name, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            metrics[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0,
                             "bound": bounds.get(name), "unit": units[name], "values": xs}
        out["workloads"][workload] = {"seeds": seeds(args.seeds), "attempted": attempted,
                                      "failed": failed, "metrics": metrics}
    text = json.dumps(out, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
