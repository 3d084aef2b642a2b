"""tokcomp benchmark: end-to-end metrics per workload, or a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload demo_stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads: demo_stream, hires_pipeline, toolkit_ops (perfbench/README.md says
why each was chosen).  Every workload runs in processes of its own, started
here from child.py with tokcomp imported from this checkout's src/ and BLAS
threads pinned to the CPUs this process may use:

  * one verify process checks the program's numerics against the numpy
    reference in reference.py;
  * with --trace 0, eight set-up processes (four before the measuring one,
    four after) each import, build inputs and warm up, then stop; the
    measuring process does the same and then runs the closed loop.
    setup_s is the median of the nine set-up times;
  * with --trace 1, the measuring process runs half the time untraced and
    half with every layer wrapped, and reports per-layer metrics.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The full record with provenance goes to
.bench_run/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("demo_stream", "hires_pipeline", "toolkit_ops")
SETUP_PROBES = 8
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 150
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {"items_per_s": "items/s", "latency_ms_p50": "ms", "latency_ms_tail": "ms",
             "cpu_ms_per_item": "ms", "peak_rss_mb": "MB", "setup_s": "s",
             "pass_rate": "fraction"}


class ChildFailed(RuntimeError):
    pass


def blas_threads() -> int:
    """At most the CPUs this process may run on, or fewer if already asked."""
    nproc = len(os.sched_getaffinity(0))
    asked = [int(os.environ[v]) for v in BLAS_VARS if os.environ.get(v, "").isdigit()]
    return max(1, min([nproc] + asked))


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_child(role: str, args, workdir: Path, extra=()) -> tuple[float, dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({v: str(blas_threads()) for v in BLAS_VARS})
    cmd = [sys.executable, str(HERE / "child.py"), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), *extra]
    started = time.monotonic()
    timeout = CHILD_TIMEOUT_S + (args.seconds if role == "measure" else 0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise ChildFailed(f"{role} process ran past {timeout} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{role} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return started, json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND items
    above it; the maximum (percentile 100) when there are too few items."""
    ordered = sorted(latencies)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_workload(args) -> dict:
    workroot = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = ROOT / ".bench_run" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        _, verified = run_child("verify", args, workroot / "verify")
        setups, digests, warm_failed = [], [verified["digest"]], 0

        def probe(role, extra=()):
            nonlocal warm_failed
            started, out = run_child(role, args, workroot / f"{role}{len(setups)}", extra)
            setups.append(out["setup_done"] - started)
            digests.append(out["digest"])
            warm_failed += out["warmup_failed"]
            return out

        # set-up probes on both sides of the timed run, so that setup_s
        # samples the same stretch of time as the other metrics
        probes = 0 if args.trace else SETUP_PROBES
        for _ in range(probes // 2):
            probe("setup")
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(results / f"{stem}.spans.jsonl")]
        m = probe("measure", extra)
        for _ in range(probes - probes // 2):
            probe("setup")
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    latencies = [1e3 * s for s in m["items"]]
    attempted, failed = len(latencies), m["failed"]
    tail_ms, tail_pct = tail(latencies)
    problems = verified["problems"] + m["warmup_problems"] + m["problems"]
    if len(set(digests)) > 1:
        problems.append("processes given the same seed produced different outputs")
    e2e = {
        "items_per_s": (attempted - failed) / m["wall_s"],
        "latency_ms_p50": statistics.median(latencies),
        "latency_ms_tail": tail_ms,
        "cpu_ms_per_item": 1e3 * m["cpu_s"] / attempted,
        "peak_rss_mb": m["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(setups),
        "pass_rate": (attempted - failed) / attempted,
    }
    if args.trace:
        metrics = m["per_layer"]
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    record = {
        "correct": not problems and failed == 0 and warm_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    provenance = {
        "git_sha": git_sha(), "python": m["python"], "numpy": m["numpy"],
        "blas": m["blas"], "blas_threads": m["blas_threads"],
        "blas_threads_env": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "items": {"attempted": attempted, "failed": failed, "warmup_failed": warm_failed},
        "error_rate": failed / attempted,
        "latency_ms_tail_percentile": tail_pct, "latency_ms_tail_beyond": TAIL_BEYOND,
        "setup_samples_s": setups, "missing_spans": m.get("missing", []),
        "missing_check_spans": m["missing_checks"], "problems": problems[:50],
    }
    (results / f"{stem}.json").write_text(json.dumps(
        {**record, "end_to_end": e2e, "provenance": provenance}, indent=2) + "\n")
    return {"record": record, "e2e": e2e, "provenance": provenance}


def print_summary(name: str, out: dict, trace: bool) -> None:
    p, e2e = out["provenance"], out["e2e"]
    print(f"# {name}: seed {p['seed']}, {p['items']['attempted']} items, "
          f"{p['items']['failed']} failed, git {p['git_sha']}, python {p['python']}, "
          f"numpy {p['numpy']}, {p['blas']} x{p['blas_threads']} threads, nproc {p['nproc']}")
    if trace:
        for k, v in out["record"]["metrics"].items():
            value = v["value"] if isinstance(v["value"], str) else f"{v['value']:.6g}"
            print(f"{name:15s} {k:34s} {value:>14s} {v['unit']}")
        return
    rows = dict(e2e, error_rate=p["error_rate"])
    units = dict(E2E_UNITS, error_rate="fraction")
    for k, v in rows.items():
        note = f"  (p{p['latency_ms_tail_percentile']:.1f}, {p['items']['attempted']} samples)" \
            if k == "latency_ms_tail" else ""
        print(f"{name:15s} {k:34s} {v:14.6g} {units[k]}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tokcomp" / "__init__.py").is_file():
        print(f"no tokcomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outs = {}
    try:
        for name in names:
            outs[name] = run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
            print_summary(name, outs[name], bool(args.trace))
    except ChildFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(outs[names[0]]["record"]))
    else:
        records = [o["record"] for o in outs.values()]
        print(json.dumps({
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{n}.{k}": v for n, o in outs.items()
                        for k, v in o["record"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
