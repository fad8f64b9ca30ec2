"""One workload in one fresh interpreter: set up, then a closed loop of calls.

Started by run.py; prints one JSON object as its last stdout line.

    worker.py --workload W --seed N --seconds S --mode {setup,measure,trace}
              --t0 T --root DIR [--smoke]

`--t0` is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC, shared by all processes on Linux), so setup_s covers
interpreter start, importing bicayley and building the seeded inputs.

One client makes every call in turn and sends the next only after the
previous answer is back and checked.  After one untimed warm-up call the
run makes the workload's passes, their number set by `--seconds` (see
workloads.pass_count).  In trace mode an untraced phase runs first, then the
same passes with the tracer installed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import workloads
from tracer import Tracer


def run_passes(wl: workloads.Workload, tracer: Tracer | None = None, first_call_id: int = 0) -> dict:
    """Make every pass; per-call times, pass times and failures."""
    pass_s: list[float] = []
    call_ms: list[float] = []
    failures: list[str] = []
    attempted = 0
    units = 0
    for calls in wl.passes:
        p0 = time.perf_counter()
        wl.begin_pass()
        for call in calls:
            attempted += 1
            if tracer is not None:
                tracer.call_id = first_call_id + attempted
            c0 = time.perf_counter()
            try:
                if tracer is not None:
                    result = tracer.span("workload.call", call.fn)
                else:
                    result = call.fn()
            except Exception as exc:  # a raising call counts as failed; the loop goes on
                call_ms.append((time.perf_counter() - c0) * 1e3)
                failures.append(f"{call.label}: raised {exc!r}")
                traceback.print_exc(file=sys.stderr)
                continue
            call_ms.append((time.perf_counter() - c0) * 1e3)
            problem = call.check(result, call.expect)
            if problem is not None:
                failures.append(f"{call.label}: {problem}")
            units += call.units
        pass_s.append(time.perf_counter() - p0)
    return {"pass_s": pass_s, "call_ms": call_ms, "attempted": attempted,
            "failed": len(failures), "failures": failures[:20], "units": units}


def layer_metrics(tr: Tracer, passes: int) -> dict:
    """Per-layer metrics, per pass, from a traced phase."""
    def per(x):
        return x / passes

    searches = tr.calls("search.canon") + tr.calls("search.auto")
    labellings = tr.counts["families.census_labellings"]
    cert_s = tr.stats["families.cert"][1]
    return {
        "metacyclic.mul_calls": per(tr.counts["metacyclic.mul_calls"]),
        "metacyclic.closure_calls": per(tr.calls("metacyclic.closure")),
        "metacyclic.closure_s": per(tr.self_s("metacyclic.closure")),
        "bicay.build_calls": per(tr.calls("bicay.build")),
        "bicay.build_s": per(tr.self_s("bicay.build")),
        "bicay.maps_s": per(tr.self_s("bicay.maps")),
        "graphs.g6_encode_calls": per(tr.calls("graphs.g6_encode")),
        "graphs.g6_encode_s": per(tr.self_s("graphs.g6_encode")),
        "graphs.g6_encode_bytes": per(tr.counts["graphs.g6_encode_bytes"]),
        "graphs.g6_decode_s": per(tr.self_s("graphs.g6_decode")),
        "graphs.g6_decode_bytes": per(tr.counts["graphs.g6_decode_bytes"]),
        "refine.calls": per(tr.calls("refine")),
        "refine.s": per(tr.self_s("refine")),
        "search.canon_calls": per(tr.calls("search.canon")),
        "search.canon_self_s": per(tr.self_s("search.canon")),
        "search.auto_calls": per(tr.calls("search.auto")),
        "search.auto_self_s": per(tr.self_s("search.auto")),
        "search.self_s": per(tr.self_s("search.canon") + tr.self_s("search.auto")),
        "search.autos_found": per(tr.counts["search.autos_found"]),
        "search.refines_per_search": tr.calls("refine") / searches if searches else 0.0,
        "permgroup.order_calls": per(tr.calls("permgroup.order")),
        "permgroup.order_s": per(tr.self_s("permgroup.order")),
        "permgroup.order_incl_s": per(tr.stats["permgroup.order"][1]),
        "permgroup.orbits_s": per(tr.self_s("permgroup.orbits")),
        "permgroup.contains_calls": per(tr.calls("permgroup.contains")),
        "permgroup.compose_calls": per(tr.calls("permgroup.compose")),
        "permgroup.compose_s": per(tr.self_s("permgroup.compose")),
        "classify.calls": per(tr.calls("classify")),
        "classify.self_s": per(tr.self_s("classify")),
        "classify.orbit_tuple_s": per(tr.self_s("classify.orbit_tuple")),
        "families.census_labellings": per(labellings),
        "families.census_classes": per(tr.counts["families.census_classes"]),
        "families.census_useful_ratio": tr.counts["families.census_classes"] / labellings if labellings else 0.0,
        "families.cert_s": per(cert_s),
        "families.full_aut_frac": tr.inclusive_under("classify", "families.cert") / cert_s if cert_s else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import bicayley
    import numpy

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(bicayley.__file__).startswith(src + os.sep):
        print(f"bicayley was imported from {bicayley.__file__}, not from {src}", file=sys.stderr)
        return 2
    scratch = os.path.join(args.root, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    passes = workloads.pass_count(args.workload, args.seconds)
    wl = workloads.build(args.workload, args.seed, passes, args.smoke, scratch)
    setup_s = time.monotonic() - args.t0
    out: dict = {"setup_s": setup_s, "numpy": numpy.__version__, "calls_per_pass": len(wl.passes[0]),
                 "unit": wl.unit}
    try:
        if args.mode != "setup":
            # one untimed call first, so lazy set-up is not charged to the passes
            wl.begin_pass()
            try:
                wl.passes[0][0].fn()
            except Exception:  # the same call raises again in the passes, where it is counted
                pass
        if args.mode == "measure":
            out.update(run_passes(wl))
        elif args.mode == "trace":
            plain = run_passes(wl)
            tracer = Tracer()
            tracer.install()
            traced = run_passes(wl, tracer, first_call_id=plain["attempted"])
            tracer.uninstall()
            spans_path = os.path.join(scratch, f"spans-{args.workload}-seed{args.seed}.json")
            tracer.write_spans(spans_path)
            out.update({
                "untraced": plain,
                "traced": traced,
                "layers": layer_metrics(tracer, len(traced["pass_s"])),
                "span_stats": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2]}
                               for k, v in sorted(tracer.stats.items())},
                "spans_path": os.path.relpath(spans_path, args.root),
                "span_count": len(tracer.spans),
                "spans_dropped": tracer.dropped,
            })
    finally:
        wl.close()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
