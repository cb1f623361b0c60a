"""mzvkit benchmark launcher.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Runs repetitions of one workload, each in a fresh single-threaded process
(job.py) with cold memo tables, until ``--seconds`` are used up, then prints
a summary and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` traced and untraced repetitions
alternate and the metrics are the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("numeric", "exact", "verify", "rank", "algebra", "eval")
CHILD_TIMEOUT_S = 120
# BLAS threads would compete with the job for the second core (np.dot in
# the T/S series); a fixed hash seed keeps set and dict layouts identical
# between repetitions.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    pass


def run_child(args, trace: int, setup_only: bool = False) -> dict:
    """Start job.py, time its set-up up to the ready line, and return its result."""
    cmd = [
        sys.executable,
        str(HERE / "job.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(trace),
        "--src", str(SRC),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **CHILD_ENV}
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        except BaseException:
            proc.kill()
            raise
        finally:
            watchdog.cancel()
    wall_s = time.perf_counter() - start
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"job process failed (exit {proc.returncode}): {' '.join(cmd)}")
    if setup_only:
        return {"setup_s": setup_s, "wall_s": wall_s}
    result = json.loads(rest.strip().splitlines()[-1])
    result.update(setup_s=setup_s, wall_s=wall_s)
    return result


def repeat(args) -> list:
    """Repetitions until the next one would overrun --seconds (at least one of each kind)."""
    run_child(args, 0, setup_only=True)  # compiles bytecode and warms the file cache, untimed
    kinds = (0, 1) if args.trace else (0,)
    reps: list = []
    start = time.perf_counter()
    while True:
        trace = kinds[len(reps) % len(kinds)]
        reps.append((trace, run_child(args, trace)))
        if len(reps) < len(kinds):
            continue
        following = kinds[len(reps) % len(kinds)]
        next_wall = statistics.median(r["wall_s"] for t, r in reps if t == following)
        if time.perf_counter() - start + next_wall > args.seconds:
            return reps


def summary(values: list) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def _terminate(signum, frame):
    # SystemExit unwinds through run_child, which kills and reaps the job
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "mzvkit" / "__init__.py").is_file():
        print(f"error: no mzvkit sources under {SRC}", file=sys.stderr)
        return 2
    try:
        reps = repeat(args)
    except (BenchError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [r for t, r in reps if t == 0]
    traced = [r for t, r in reps if t == 1]
    attempted = sum(r["attempted"] for _, r in reps)
    failures = sorted({name for _, r in reps for name in r["failed"]})
    failed = sum(len(r["failed"]) for _, r in reps)
    digests = {r["digest"] for _, r in reps}
    if len(digests) != 1:
        failures.append("inputs differ between repetitions of one seed")
        failed += 1

    first = reps[0][1]
    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
        f"{len(plain)} untraced and {len(traced)} traced repetitions"
    )
    print(f"inputs sha256 {first['digest']}")
    print(
        f"machine {platform.machine()} {platform.system()} {platform.release()}, "
        f"nproc {len(os.sched_getaffinity(0))}, "
        f"Python {first['versions']['python']}, numpy {first['versions']['numpy']}"
    )

    metrics: dict = {}
    if not args.trace:
        for name, unit in END_TO_END.items():
            s = summary([r[name] for r in plain])
            metrics[name] = {"value": s["median"], "unit": unit}
            print(
                f"  {name:<14} {s['median']:.6g} {unit}  "
                f"(median of {s['n']}; quartiles {s['q1']:.6g} .. {s['q3']:.6g})"
            )
    else:
        layers = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
        for name, values in layers.items():
            metrics[name] = {"value": statistics.median(values), "unit": _layer_unit(name)}
        overhead = statistics.median(r["job_s"] for r in traced) - statistics.median(r["job_s"] for r in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
        spans = traced[0]["spans"]
        print("  self time by span (first traced repetition):")
        for name, (calls, self_s) in sorted(spans.items(), key=lambda kv: -kv[1][1]):
            print(f"    {name:<22} {calls:>8} calls {self_s:10.4f} s")
        if traced[0]["missing"]:
            print(f"  not found, so not traced: {', '.join(traced[0]['missing'])}")
    print(f"  fail_frac      {failed / attempted:.6g}  ({failed} of {attempted} checks failed)")
    for name in failures[:20]:
        print(f"  FAILED {name}")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mib", "MiB"), ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    if name.endswith("ns_per_term") or name.endswith("ns_per_pair"):
        return "ns"
    if name.endswith("_ratio") or name.endswith("_margin"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
