"""Benchmark command: train one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload seq-qsgd4-mpi-k4 --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Every metric is printed as ``name value unit``; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when a correctness check fails and 2 when the program cannot be
imported.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# BLAS must be pinned before numpy loads: its default second thread
# doubles CPU time for no wall-time gain and oversubscribes the cores
# under the process engine.  Spawned workers inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
# the compiled kernel cache stays inside the checkout
os.environ["REPRO_KERNELS_CACHE"] = str(ROOT / ".bench_build" / "repro-kernels")
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json
    import math
    from multiprocessing import resource_tracker

    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        from repro.quantization import kernels
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from perfbench.bench import host_fingerprint, measure

    # metric names and units are the ones BENCHMARK.json declares
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # build (or load) the compiled kernels before anything is timed
    kernels.active()
    print(json.dumps({"host": host_fingerprint()}))
    workload = WORKLOADS[args.workload]
    spans_path = ROOT / ".bench_build" / "traces" / (
        f"{workload.name}-seed{args.seed}.jsonl"
    )
    result = measure(
        workload, args.seed, args.seconds, bool(args.trace), spans_path
    )
    # the process engine's shared memory starts multiprocessing's
    # resource tracker, a child of this process too: stop it and wait
    resource_tracker._resource_tracker._stop()

    metrics = result["metrics"]
    print(
        f"workload {workload.name} seed {args.seed} runs {result['runs']} "
        f"setups {result['setups']} timed_steps {result['timed_steps']} "
        f"failed_share {result['failed_share']:.6g}"
    )
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {m["name"]: metrics.get(m["name"], math.nan) for m in wanted}
    for metric in wanted:
        name = metric["name"]
        print(f"{name} {values[name]:.6g} {metric['unit']}")
    if args.trace:
        print(f"spans {spans_path.relative_to(ROOT)}")
    for check, passed, detail in result["checks"]:
        if not passed:
            print(f"FAILED check {check}: {detail}", file=sys.stderr)
    # a declared metric that no run measured is a failed check too
    unmeasured = [name for name, v in values.items() if not math.isfinite(v)]
    for name in unmeasured:
        print(f"FAILED check measured: {name}", file=sys.stderr)
    failed = result["failed"] + len(unmeasured)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"] + len(unmeasured),
        "failed": failed,
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]],
                "unit": metric["unit"],
            }
            for metric in wanted
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
