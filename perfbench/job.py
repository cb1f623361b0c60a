"""One timed repetition of a workload, in a fresh process with cold caches.

Started by run.py, never by hand.  Protocol on stdout: the line ``ready``
once mzvkit is imported and the seeded inputs are built (the launcher times
set-up up to this line), then one JSON line with the job time, peak RSS,
check results, input digest and, when traced, the layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True, help="directory that holds the mzvkit package")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    import mzvkit
    import mzvkit.cli  # not imported by the package itself

    if not os.path.realpath(mzvkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"mzvkit was imported from {mzvkit.__file__}, not from {src}")

    from workloads import WORKLOADS

    make_inputs, job, check = WORKLOADS[args.workload]
    inputs = make_inputs(random.Random(args.seed))
    digest = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(mzvkit)
        tracer.install()
        start = time.perf_counter()
        try:
            with tracer.root():
                outputs = job(mzvkit, inputs)
        finally:
            tracer.uninstall()
    else:
        start = time.perf_counter()
        outputs = job(mzvkit, inputs)
    job_s = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = check(inputs, outputs)
    result = {
        "job_s": job_s,
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(checks),
        "failed": [name for name, passed in checks if not passed],
        "digest": digest,
        "versions": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
        },
    }
    if tracer is not None:
        layers = tracer.metrics(outputs.get("observed", {}))
        gap = abs(layers["trace.self_sum_s"] - layers["trace.job_s"])
        result["attempted"] += 1
        if gap > 1e-9 * max(1.0, layers["trace.job_s"]):
            result["failed"].append("trace.self_times_sum_to_job")
        result["layers"] = layers
        result["spans"] = tracer.span_table()
        result["missing"] = tracer.missing
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
