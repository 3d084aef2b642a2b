"""One workload process: set up, then either stop, verify, or measure.

Started by run.py, never by hand.  The last line of standard output is one
JSON object with what the parent needs.

roles:
  setup    make the inputs, warm up, report the clock at the first timed item
  verify   compare the program's stage outputs with the numpy reference
  measure  setup, then a closed loop for --seconds: one client starts the
           next item only once the previous one is done and checked; with
           --trace 1 the first half runs untraced and the second half with
           every wrapper installed
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("setup", "verify", "measure"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None, help="JSONL file for the traced spans")
    return p.parse_args()


def run_loop(workload, state, tracer, seconds: float, first: int, keep_spans: bool,
             min_items: int = 1) -> dict:
    """Closed loop from item `first` until `seconds` have passed and at
    least `min_items` items ran.

    Returns (item, latency, report fields) per item, the failures, and the
    wall and CPU time of the loop, which includes each item's check.  Spans
    and report fields are kept only when keep_spans is set.
    """
    items, failed, problems = [], 0, []
    clock = time.perf_counter
    t0, c0 = clock(), time.process_time()
    i = first
    while True:
        tracer.begin(i)
        start = clock()
        try:
            out = workload.run_item(state, i)
            latency = clock() - start
            bad = workload.check(state, out, tracer, i)
        except Exception as e:  # an item that raises is a failed item, not a failed run
            latency, out, bad = clock() - start, None, [f"{type(e).__name__}: {e}"]
        fields = workload.report_fields(out) if keep_spans and out is not None else {}
        if bad:
            failed += 1
            problems.extend(f"item {i}: {b}" for b in bad[:3])
        items.append((i, latency, fields))
        if keep_spans:
            # spans pile up over a traced run; frozen, they stop making each
            # collection slower, so pauses stay as long as in untraced runs
            gc.freeze()
        else:
            tracer.clear()
        i += 1
        if clock() - t0 >= seconds and len(items) >= min_items:
            break
    return {"items": items, "failed": failed, "problems": problems[:20],
            "wall_s": clock() - t0, "cpu_s": time.process_time() - c0}


def _blas() -> dict:
    import ctypes

    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")
    for path in glob.glob(libdir):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        fn = getattr(lib, "scipy_openblas_get_num_threads64_", None) or \
            getattr(lib, "openblas_get_num_threads", None)
        if fn is not None:
            threads = int(fn())
    return {"blas": f"{info.get('name')} {info.get('version')}", "blas_threads": threads}


def _measure(args, workload, state, checker) -> dict:
    from layers import item_metrics, summarize
    from tracer import Tracer, self_times
    from workloads import TARGETS

    first = workload.warmup
    if not args.trace:
        return run_loop(workload, state, checker, args.seconds, first, keep_spans=False)

    plain = run_loop(workload, state, checker, args.seconds / 2, first, keep_spans=False)
    checker.uninstall()
    start = first + len(plain["items"])
    with Tracer(TARGETS) as tracer:
        traced = run_loop(workload, state, tracer, args.seconds / 2, start, keep_spans=True)
    selfs = self_times(tracer.spans)
    per_item, coverage = [], []
    for i, latency, fields in traced["items"]:
        per_item.append(item_metrics(tracer, selfs, i, fields))
        coverage.append(sum(selfs[j] for j, _ in tracer.item_spans(i)) / latency)
    if args.spans:
        with open(args.spans, "w") as f:
            for j, s in enumerate(tracer.spans):
                f.write(json.dumps(s.to_doc(j)) + "\n")
    ips = [len(r["items"]) / r["wall_s"] for r in (plain, traced)]
    layers = summarize(per_item, tracer.missing)
    layers.update({
        "trace.overhead_ratio": {"value": ips[0] / ips[1], "unit": "ratio"},
        "trace.items_per_s_untraced": {"value": ips[0], "unit": "items/s"},
        "trace.items_per_s_traced": {"value": ips[1], "unit": "items/s"},
        "trace.latency_ms_p50": {"value": 1e3 * statistics.median(
            lat for _, lat, _ in traced["items"]), "unit": "ms"},
        "trace.self_coverage_min": {"value": min(coverage), "unit": "fraction"},
        "trace.self_coverage_median": {"value": statistics.median(coverage), "unit": "fraction"},
    })
    return {"items": plain["items"] + traced["items"],
            "failed": plain["failed"] + traced["failed"],
            "problems": plain["problems"] + traced["problems"],
            "wall_s": plain["wall_s"] + traced["wall_s"],
            "cpu_s": plain["cpu_s"] + traced["cpu_s"],
            "per_layer": layers, "missing": sorted(tracer.missing)}


def main() -> int:
    args = _args()
    root = Path(__file__).resolve().parent.parent
    import tokcomp
    if not Path(tokcomp.__file__).resolve().is_relative_to(root / "src"):
        print(f"tokcomp imported from {tokcomp.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS, check_targets

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed, Path(args.workdir))
    if args.role == "verify":
        from reference import verify
        problems = verify(workload, state)
        print(json.dumps({"problems": problems, "digest": state.get("digest")}))
        return 0

    checker = Tracer(check_targets()).install()
    warm = run_loop(workload, state, checker, 0.0, 0, keep_spans=False,
                    min_items=workload.warmup)
    setup_done = time.monotonic()
    result = {"setup_done": setup_done, "warmup_failed": warm["failed"],
              "warmup_problems": warm["problems"], "digest": state.get("digest")}
    if args.role == "measure":
        import numpy as np
        result.update(_measure(args, workload, state, checker))
        result["items"] = [lat for _, lat, _ in result["items"]]
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["missing_checks"] = sorted(checker.missing)
        result.update(_blas(), python=platform.python_version(), numpy=np.__version__)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
