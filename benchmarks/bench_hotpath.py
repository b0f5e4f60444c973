"""Hot-path throughput and allocation benchmark with a regression gate.

Measures the quantized aggregation step (encode -> exchange -> fused
decode-accumulate -> mean) on the paper's primary low-precision cell —
QSGD 4-bit over the NCCL ring with K=4 ranks.  Encode/decode scratch,
packed words and the running aggregate all live in the exchange's
reused :class:`EncodeWorkspace` arena, and the exchange folds each
rank's decode straight into the accumulator
(``Quantizer.sum_decoder``); the report keeps this row under the
``workspace`` key.

Two metrics, measured in separate passes so instrumentation never
pollutes the timing:

* ``steps_per_sec`` — wall-clock rate of full aggregation steps over a
  five-layer AlexNet-like parameter inventory.
* ``alloc_bytes_per_step`` — tracemalloc peak-delta per step (the
  bytes of fresh Python-heap allocation one step performs).

A third pass guards the telemetry instrumentation: the per-call cost
of the disabled (``NULL_TRACER``) span sites the hot path now crosses
is measured directly and projected onto one step; the run fails if
that projection exceeds 2% of the measured step time.

The run happens under one *kernel backend* (``--backend`` forces
``cext``/``numpy``; the default is the registry's auto-selection, see
:mod:`repro.quantization.kernels`).  Two extra report sections compare
backends directly: ``backends`` re-times the step under every backend
available in the environment, and ``kernel_micro`` times the four hot
kernels (bucketize, quantize, pack/unpack, fused decode-accumulate) in
isolation on the dominant fc1 layer.

The JSON report is written to ``BENCH_hotpath.json``.  With ``--gate
BASELINE.json`` the script exits non-zero when the step's steps/sec
regresses more than ``--gate-tolerance`` (default 20%) below the
checked-in baseline — CI runs this as a smoke gate on every push.

Run with: PYTHONPATH=src python benchmarks/bench_hotpath.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import tracemalloc

import numpy as np

from repro.core.algorithm import SynchronousStep
from repro.core.config import TrainingConfig
from repro.core.trainer import ParallelTrainer
from repro.data import make_image_dataset
from repro.models import tiny_alexnet
from repro.quantization import EncodeWorkspace, bitpack, kernels
from repro.quantization.bucketing import bucket_plan
from repro.quantization.qsgd import Qsgd
from repro.telemetry import NULL_TRACER

#: AlexNet-like layer inventory (rows, cols) — conv kernels flattened
#: the way the exchanges see them.  fc1 dominates, as in the paper's
#: AlexNet where the fully connected layers hold most of the traffic.
PARAM_SHAPES = {
    "conv1": (32, 75),
    "conv2": (64, 800),
    "conv3": (128, 1152),
    "fc1": (256, 2048),
    "fc2": (10, 256),
}

WORLD_SIZE = 4


class _Param:
    """Minimal stand-in for nn.Parameter: name/shape/size/kind."""

    def __init__(self, name: str, shape: tuple[int, int]):
        self.name = name
        self.shape = shape
        self.size = int(np.prod(shape))
        self.kind = "param"


def build_step() -> SynchronousStep:
    config = TrainingConfig(
        scheme="qsgd4",
        exchange="nccl",
        world_size=WORLD_SIZE,
        batch_size=16,
        seed=0,
    )
    params = [_Param(n, s) for n, s in PARAM_SHAPES.items()]
    return SynchronousStep(config, params)


def make_grads() -> dict[str, list[np.ndarray]]:
    rngs = [np.random.default_rng(100 + r) for r in range(WORLD_SIZE)]
    return {
        name: [
            rngs[r].normal(size=shape).astype(np.float32)
            for r in range(WORLD_SIZE)
        ]
        for name, shape in PARAM_SHAPES.items()
    }


def run_steps(step: SynchronousStep, grads, n: int) -> None:
    for _ in range(n):
        for name in PARAM_SHAPES:
            step.aggregate(name, grads[name])


def measure_step(steps: int, warmup: int) -> dict:
    grads = make_grads()

    # timing pass (no instrumentation)
    step = build_step()
    run_steps(step, grads, warmup)
    t0 = time.perf_counter()
    run_steps(step, grads, steps)
    elapsed = time.perf_counter() - t0

    # allocation pass: tracemalloc slows execution, so it runs
    # separately and only the byte counts are kept
    step = build_step()
    run_steps(step, grads, warmup)  # arenas reach steady state first
    tracemalloc.start()
    alloc_steps = max(1, min(steps, 10))
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    run_steps(step, grads, alloc_steps)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "steps_per_sec": steps / elapsed,
        "step_ms": 1e3 * elapsed / steps,
        "alloc_bytes_per_step": int(
            max(0, peak - before) / alloc_steps
        ),
    }


def measure_backends(steps: int, warmup: int) -> dict:
    """Step throughput under every available kernel backend."""
    rows = {}
    for name in kernels.available_backends():
        with kernels.use_backend(name):
            rows[name] = measure_step(steps, warmup)
        print(
            f"backend {name:7s} {rows[name]['steps_per_sec']:8.2f} steps/s"
        )
    return rows


def measure_kernel_micro(repeats: int) -> dict:
    """Per-kernel timings on the dominant fc1 layer, per backend.

    Times the hot kernels in isolation — the fused quantize+pack and
    unpack+decode-accumulate the step actually runs, plus the unfused
    bucketize / quantize / pack / unpack / decode-accumulate stages —
    using the same workspace buffers the training step uses, so the
    numbers decompose the per-step cost directly.
    """
    codec = Qsgd(4)
    shape = PARAM_SHAPES["fc1"]
    grad = np.random.default_rng(0).normal(size=shape).astype(np.float32)
    bucket_size = codec.effective_bucket(grad.size)
    plan = bucket_plan(grad.size, bucket_size)
    lanes = (plan.n_buckets, bucket_size)

    def timed(fn) -> float:
        fn()  # warm (compile/allocate) outside the timed region
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        return 1e3 * (time.perf_counter() - t0) / repeats

    sections = {}
    for name in kernels.available_backends():
        with kernels.use_backend(name):
            backend = kernels.active()
            ws = EncodeWorkspace()
            buckets = ws.array("qsgd.buckets", lanes)
            scales = ws.array("qsgd.scales", plan.n_buckets)
            rand = np.random.default_rng(1).random(lanes)
            codes = ws.array("qsgd.codes", lanes, np.uint32)
            words = np.empty(
                bitpack.packed_words(plan.padded, codec.bits), np.uint32
            )
            acc = ws.zeros("sumdec.bucket_acc", lanes)
            out = np.empty(shape, dtype=np.float32)

            backend.bucketize(grad, buckets)
            backend.absmax_scales(buckets, scales, ws)
            backend.quantize_sign(
                buckets, scales, codec.bits, rand, codes, ws
            )
            flat_codes = codes.reshape(-1)

            sections[name] = {
                # the fused paths the training step actually runs
                "quantize_pack_ms": timed(
                    lambda: backend.quantize_sign_packed(
                        buckets, scales, codec.bits, rand, words, ws
                    )
                ),
                "unpack_decode_acc_ms": timed(
                    lambda: backend.dequantize_sign_packed(
                        words, scales, codec.bits, acc, True, ws
                    )
                ),
            }
            sections[name] |= {
                "bucketize_ms": timed(
                    lambda: backend.bucketize(grad, buckets)
                ),
                "quantize_ms": timed(
                    lambda: (
                        backend.absmax_scales(buckets, scales, ws),
                        backend.quantize_sign(
                            buckets, scales, codec.bits, rand, codes, ws
                        ),
                    )
                ),
                "pack_ms": timed(
                    lambda: bitpack.pack_into(
                        flat_codes, codec.bits, words,
                        workspace=ws, check=False,
                    )
                ),
                "unpack_ms": timed(
                    lambda: bitpack.unpack_into(
                        words, plan.padded, codec.bits, workspace=ws
                    )
                ),
                "decode_acc_ms": timed(
                    lambda: backend.dequantize_sign(
                        codes, scales, codec.bits, acc, True, ws
                    )
                ),
                "unbucketize_ms": timed(
                    lambda: backend.unbucketize(acc, shape, out, False)
                ),
            }
            line = "  ".join(
                f"{k.removesuffix('_ms')} {v:6.3f}ms"
                for k, v in sections[name].items()
            )
            print(f"kernels {name:7s} {line}")
    return sections


def measure_null_tracer_overhead(step_seconds: float) -> dict:
    """Projected share of one step spent in disabled tracing sites.

    Measures the real per-call cost of the shared null span, then
    multiplies by the instrumentation points one step crosses (the
    NCCL path opens an encode and a decode span per rank per
    parameter; doubled to also bound the counter None-checks).
    """
    span = NULL_TRACER.span
    iterations = 200_000
    t0 = time.perf_counter()
    for _ in range(iterations):
        with span("encode", 0):
            pass
    per_span = (time.perf_counter() - t0) / iterations
    spans_per_step = 2 * 2 * WORLD_SIZE * len(PARAM_SHAPES)
    overhead_seconds = per_span * spans_per_step
    return {
        "null_span_ns": per_span * 1e9,
        "spans_per_step": spans_per_step,
        "overhead_fraction_of_step": overhead_seconds / step_seconds,
    }


#: the comm-bound headline cell for the adaptive-policy comparison:
#: NCCL ring, K=4, link paced slow enough that wire time dominates
POLICY_CELL = dict(exchange="nccl", world_size=4, link_gbps=0.02)

#: static schemes the adaptive policy is raced against
POLICY_STATIC_SCHEMES = ("32bit", "qsgd8", "qsgd4", "terngrad")

#: a static run within this much final accuracy of the adaptive run
#: counts as "equal accuracy" for the epoch-time comparison
POLICY_ACCURACY_TOLERANCE = 0.02


def measure_adaptive_policy(quick: bool) -> dict:
    """Epoch time of the adaptive bit-width policy vs every static scheme.

    Trains the same comm-bound cell (:data:`POLICY_CELL`, real
    ``link_gbps`` pacing, so wall-clock epoch time is dominated by
    encoded payload bytes) once per static scheme and once with
    ``policy="adaptive"``, then reports the epoch-time win over the
    *best static at equal final accuracy* — the fastest static run
    whose accuracy is within :data:`POLICY_ACCURACY_TOLERANCE` of the
    adaptive run's (falling back to the most accurate static when none
    reaches that bar, i.e. when adaptive wins accuracy outright).
    """
    epochs = 2 if quick else 3
    dataset = make_image_dataset(
        num_classes=4, train_samples=96, test_samples=48,
        image_size=8, noise=0.8, seed=0,
    )

    def train(scheme: str, policy: str) -> dict:
        config = TrainingConfig(
            scheme=scheme, policy=policy, batch_size=16, seed=0,
            **POLICY_CELL,
        )
        model = tiny_alexnet(num_classes=4, image_size=8, seed=1)
        with ParallelTrainer(model, config) as trainer:
            history = trainer.fit(
                dataset.train_x, dataset.train_y,
                dataset.test_x, dataset.test_y, epochs=epochs,
            )
        walls = [epoch.wall_seconds for epoch in history.epochs]
        row = {
            "scheme": scheme,
            "policy": policy,
            "final_accuracy": history.final_test_accuracy,
            "epoch_seconds": sum(walls) / len(walls),
            "comm_megabytes": history.total_comm_bytes / 1e6,
        }
        print(
            f"policy {policy:8s} {scheme:9s} "
            f"acc={row['final_accuracy']:.3f} "
            f"epoch={row['epoch_seconds']:.3f}s"
        )
        return row

    statics = [train(s, "static") for s in POLICY_STATIC_SCHEMES]
    adaptive = train("qsgd8", "adaptive")

    bar = adaptive["final_accuracy"] - POLICY_ACCURACY_TOLERANCE
    candidates = [s for s in statics if s["final_accuracy"] >= bar]
    if not candidates:
        # no static matches the adaptive accuracy; race the closest one
        top = max(s["final_accuracy"] for s in statics)
        candidates = [s for s in statics if s["final_accuracy"] == top]
    best_static = min(candidates, key=lambda s: s["epoch_seconds"])
    win = best_static["epoch_seconds"] / adaptive["epoch_seconds"]
    print(
        f"adaptive epoch-time win {win:.2f}x vs best static at equal "
        f"accuracy ({best_static['scheme']}, "
        f"acc {best_static['final_accuracy']:.3f})"
    )
    return {
        "cell": dict(POLICY_CELL),
        "epochs": epochs,
        "accuracy_tolerance": POLICY_ACCURACY_TOLERANCE,
        "static": statics,
        "adaptive": adaptive,
        "best_static_at_equal_accuracy": best_static["scheme"],
        "epoch_time_win": win,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--steps", type=int, default=50, help="timed steps per mode"
    )
    parser.add_argument(
        "--warmup", type=int, default=5, help="untimed warmup steps"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer steps (15 timed, 3 warmup)",
    )
    parser.add_argument(
        "--backend",
        choices=kernels.BACKEND_ORDER,
        default=None,
        help="force a kernel backend for the whole run "
        "(default: registry auto-selection)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_hotpath.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--gate",
        default=None,
        metavar="BASELINE",
        help="baseline JSON; exit 1 if workspace steps/sec regresses",
    )
    parser.add_argument(
        "--gate-tolerance",
        type=float,
        default=0.2,
        help="allowed fractional slowdown vs the baseline (default 0.2)",
    )
    parser.add_argument(
        "--policy",
        choices=["adaptive", "none"],
        default="adaptive",
        help="measure the adaptive bit-width policy axis (comm-bound "
        "link-paced training runs) or skip it with 'none'",
    )
    parser.add_argument(
        "--policy-gate",
        type=float,
        default=None,
        metavar="WIN",
        help="exit 1 unless the adaptive policy's epoch-time win over "
        "the best equal-accuracy static scheme reaches WIN (e.g. 1.15)",
    )
    args = parser.parse_args(argv)
    steps = 15 if args.quick else args.steps
    warmup = 3 if args.quick else args.warmup

    if args.backend is not None:
        kernels.set_backend(args.backend)
    print(f"kernel backend: {kernels.backend_name()}")

    ws = measure_step(steps, warmup)
    results = {"workspace": ws}
    print(
        f"workspace   {ws['steps_per_sec']:8.2f} steps/s  "
        f"{ws['alloc_bytes_per_step']:>12,d} B/step"
    )

    backend_rows = measure_backends(steps, warmup)
    micro = measure_kernel_micro(repeats=20 if args.quick else 100)

    policy_section = None
    if args.policy == "adaptive":
        policy_section = measure_adaptive_policy(args.quick)

    tracer_overhead = measure_null_tracer_overhead(
        ws["step_ms"] / 1e3
    )
    fraction = tracer_overhead["overhead_fraction_of_step"]
    print(
        f"null tracer {tracer_overhead['null_span_ns']:8.0f} ns/span  "
        f"{fraction:.3%} of a step"
    )

    report = {
        "bench": "hotpath",
        "cell": {
            "scheme": "qsgd4",
            "exchange": "nccl",
            "world_size": WORLD_SIZE,
            "params": {k: list(v) for k, v in PARAM_SHAPES.items()},
        },
        "steps": steps,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernels.backend_name(),
        "results": results,
        "backends": backend_rows,
        "kernel_micro": micro,
        "null_tracer": tracer_overhead,
    }
    if policy_section is not None:
        report["adaptive_policy"] = policy_section
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")

    if fraction > 0.02:
        print(
            f"TRACER FAIL: disabled tracing costs {fraction:.2%} of a "
            f"step (limit 2%)"
        )
        return 1

    if args.gate is not None:
        with open(args.gate) as fh:
            baseline = json.load(fh)
        base = baseline["results"]["workspace"]["steps_per_sec"]
        floor = base * (1.0 - args.gate_tolerance)
        got = ws["steps_per_sec"]
        if got < floor:
            print(
                f"GATE FAIL: workspace {got:.2f} steps/s is below "
                f"{floor:.2f} ({base:.2f} baseline - "
                f"{args.gate_tolerance:.0%} tolerance)"
            )
            return 1
        print(
            f"gate ok: {got:.2f} steps/s >= {floor:.2f} "
            f"(baseline {base:.2f})"
        )

    if args.policy_gate is not None:
        if policy_section is None:
            print("POLICY GATE FAIL: --policy-gate requires --policy "
                  "adaptive")
            return 1
        win = policy_section["epoch_time_win"]
        if win < args.policy_gate:
            print(
                f"POLICY GATE FAIL: adaptive epoch-time win {win:.2f}x "
                f"is below the required {args.policy_gate:.2f}x"
            )
            return 1
        print(
            f"policy gate ok: {win:.2f}x >= {args.policy_gate:.2f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
