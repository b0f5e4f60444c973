"""One benchmark invocation: repeated, checked runs of one workload.

A run constructs a fresh ``ParallelTrainer`` on a copy of the seed's
model and trains one ``fit`` epoch.  Runs repeat until the time budget
is used; every run is checked, and runs of one seed must agree.
Without tracing, each run is followed by set-up probes: one-step runs
that only add samples to ``setup_s``.  With tracing, untraced and
traced runs alternate: end-to-end numbers only ever come from untraced
runs, layer numbers from traced ones, and the gap between the two is
the tracing overhead.
"""

from __future__ import annotations

import copy
import gc
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from multiprocessing import shared_memory

from .stats import percentile, tail_supported
from .trace import (
    Recorder,
    instrument,
    layer_metrics,
    merge_worker_spans,
    wrap_train_step,
    write_spans,
)

#: leading steps of every run left out of the step-time figures (the
#: first one is set-up)
WARMUP_STEPS = 2
#: final steps of a run whose mean loss is ``train_loss``
LOSS_WINDOW = 16
#: runs per invocation at the least: their digests are compared
MIN_RUNS = 3
#: set-up-only runs (construction and one step) after each run of an
#: untraced invocation; ``setup_s`` is the median over runs and probes
SETUP_PROBES = 1
#: an invocation stops after this long even if short of tail samples
MAX_SECONDS = 150.0


@dataclass
class RunResult:
    traced: bool
    recorder: Recorder
    setup_s: float = math.nan
    digest: str = ""
    test_accuracy: float = math.nan
    paced_bytes: int = 0
    forward_share: float | None = None
    tracer_events: list = field(default_factory=list)
    #: (check, passed, detail) of every correctness check of the run
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def timed_steps(self):
        return self.recorder.steps[WARMUP_STEPS:]


def host_fingerprint() -> dict:
    import numpy as np
    from repro.quantization import kernels

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    return {
        "nproc": os.cpu_count(),
        "kernel_backend": kernels.backend_name(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": blas,
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> int | None:
    """The thread count numpy's bundled OpenBLAS runs with, read from it."""
    import ctypes
    import glob

    import numpy as np

    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"):
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            return get()
    return None


def _replicas_identical(engine) -> tuple[bool, str]:
    """Every live replica's parameters equal the reference's, bit for bit.

    On the process engine ``engine.workers`` are the coordinator's shadow
    replicas, which mirror the workers after every committed step.
    """
    live = [engine.workers[rank] for rank in engine.live_ranks]
    reference = live[0]
    for worker in live[1:]:
        for mine, theirs in zip(reference.parameters, worker.parameters):
            if mine.data.tobytes() != theirs.data.tobytes():
                return False, f"rank {worker.rank} differs at {mine.name}"
    return True, f"{len(live)} live replicas"


def _forward_share(model, loss_fn, x, y, repeats: int = 5) -> float:
    """Forward's share of forward+backward, replayed on a replica copy.

    The process engine's workers cannot be wrapped from the benchmark
    process; this replays one shard on a copy of the coordinator's
    shadow replica to split the workers' measured compute spans.
    """
    replica = copy.deepcopy(model)
    shares = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        logits = replica.forward(x, training=True)
        t1 = time.perf_counter_ns()
        _, dlogits = loss_fn(logits, y)
        t2 = time.perf_counter_ns()
        replica.backward(dlogits)
        t3 = time.perf_counter_ns()
        shares.append((t1 - t0) / ((t1 - t0) + (t3 - t2)))
    return statistics.median(shares)


def _segment_leaked(name: str) -> bool:
    """Whether the shared-memory segment ``name`` still exists (and unlink it)."""
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    segment.unlink()
    return True


def run_once(workload, dataset, model, seed: int, traced: bool) -> RunResult:
    """Construct a trainer, train an epoch of ``dataset``, check, close."""
    from repro import ParallelTrainer
    from repro.telemetry import Tracer

    recorder = Recorder()
    result = RunResult(traced=traced, recorder=recorder)
    checks = result.checks
    # the process engine's workers are only observable through the
    # spans its own tracer merges back from them
    tracer = Tracer() if traced and workload.engine == "process" else None
    config = workload.config(seed, tracer)
    replica = copy.deepcopy(model)
    expected_steps = len(dataset.train_x) // workload.batch_size
    arena_name = None
    # the previous run's trainer is garbage by now: collect it here, not
    # inside this run's timed steps
    gc.collect()
    with instrument(recorder) if traced else nullcontext():
        start = time.perf_counter_ns()
        trainer = ParallelTrainer(replica, config)
        try:
            wrap_train_step(trainer, recorder)
            try:
                history = trainer.fit(
                    dataset.train_x,
                    dataset.train_y,
                    dataset.test_x,
                    dataset.test_y,
                    epochs=1,
                )
            except Exception as exc:  # noqa: BLE001 - counted as failed
                history = None
                checks.append(("fit", False, repr(exc)))
            engine = trainer.engine
            arena = getattr(engine, "_arena", None)
            arena_name = None if arena is None else arena.name
            if recorder.steps:
                result.setup_s = (recorder.steps[0].end - start) / 1e9
            if history is not None:
                result.digest = history.digest()
                if history.epochs:
                    result.test_accuracy = history.epochs[-1].test_accuracy
                checks.append((
                    "no_worker_failures",
                    not history.failures,
                    "; ".join(str(f) for f in history.failures),
                ))
            checks.append((
                "all_steps_ran",
                len(recorder.steps) == expected_steps,
                f"{len(recorder.steps)} of {expected_steps}",
            ))
            checks.append(("replicas_identical", *_replicas_identical(engine)))
            result.paced_bytes = engine.per_rank_payload_nbytes * len(
                engine.live_ranks
            )
            if tracer is not None:
                result.tracer_events = tracer.events()
                shard = workload.batch_size // workload.world_size
                result.forward_share = _forward_share(
                    engine.reference_worker.model,
                    trainer.loss_fn,
                    dataset.train_x[:shard],
                    dataset.train_y[:shard],
                )
        finally:
            # the wrapper closes over the trainer: break the cycle
            del trainer.train_step
            try:
                trainer.close()
            except Exception as exc:  # noqa: BLE001 - counted as failed
                traceback.print_exc(file=sys.stderr)
                checks.append(("close", False, repr(exc)))
            else:
                checks.append(("close", True, ""))
            if arena_name is not None:
                checks.append((
                    "no_leaked_segment",
                    not _segment_leaked(arena_name),
                    arena_name,
                ))
    return result


def peak_rss_mb(workload) -> float:
    """Peak resident memory of this process plus its engine's workers.

    The kernel keeps the peak of the largest reaped child only, so each
    worker process is counted at that peak (the ranks are symmetric).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = workload.world_size if workload.engine == "process" else 0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def _enough(runs, trace: bool) -> bool:
    if len(runs) < MIN_RUNS:
        return False
    return trace or tail_supported(sum(len(r.timed_steps()) for r in runs), 95)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan


def measure(
    workload, seed: int, seconds: float, trace: bool, spans_path=None
) -> dict:
    """Run ``workload`` for ``seconds`` and return metrics and checks.

    With ``trace``, the traced runs' spans are written to ``spans_path``
    (when given) once every run has ended.  A metric that no step
    measured is NaN, next to the failed check that explains it.
    """
    dataset, model = workload.inputs(seed)
    batch = workload.batch_size
    # one global batch to train and to evaluate: a set-up probe's epoch
    probe_set = replace(
        dataset,
        train_x=dataset.train_x[:batch],
        train_y=dataset.train_y[:batch],
        test_x=dataset.test_x[:batch],
        test_y=dataset.test_y[:batch],
    )
    runs: list[RunResult] = []
    probes: list[RunResult] = []
    start = time.monotonic()
    while True:
        traced = trace and len(runs) % 2 == 1
        runs.append(run_once(workload, dataset, model, seed, traced))
        if not trace:
            probes += [
                run_once(workload, probe_set, model, seed, False)
                for _ in range(SETUP_PROBES)
            ]
        elapsed = time.monotonic() - start
        if elapsed >= MAX_SECONDS or (
            elapsed >= seconds and _enough(runs, trace)
        ):
            break

    plain = [run for run in runs if not run.traced]
    timed = [s for run in plain for s in run.timed_steps()]
    walls_ms = [s.wall_ns / 1e6 for s in timed]
    checks = [c for run in runs + probes for c in run.checks]
    digests = {run.digest for run in runs}
    checks.append((
        "digest_equal", len(digests) == 1, f"{len(digests)} distinct digests"
    ))
    steps = [s for run in runs + probes for s in run.recorder.steps]
    # every step of every run moves the same counted bytes
    wire = {s.wire_bytes for s in steps}
    checks.append((
        "wire_bytes_constant", len(wire) == 1, f"per-step bytes {sorted(wire)}"
    ))
    if not trace:
        checks.append((
            "tail_samples",
            tail_supported(len(walls_ms), 95),
            f"{len(walls_ms)} timed steps for p95",
        ))
    bad_steps = sum(1 for s in steps if not math.isfinite(s.loss))
    attempted = len(steps) + len(checks)
    failed = bad_steps + sum(1 for _, ok, _ in checks if not ok)

    setups = [run.setup_s for run in plain + probes]
    window = [s.loss for s in runs[0].recorder.steps[-LOSS_WINDOW:]]
    metrics = {
        "samples_per_s": sum(s.samples for s in timed)
        / (sum(s.wall_ns for s in timed) / 1e9)
        if timed
        else math.nan,
        "step_ms_p50": percentile(walls_ms, 50) if walls_ms else math.nan,
        "step_ms_p95": percentile(walls_ms, 95) if walls_ms else math.nan,
        "setup_s": statistics.median(setups) if setups else math.nan,
        "peak_rss_mb": peak_rss_mb(workload),
        "train_loss": _mean(window),
        "test_accuracy": runs[0].test_accuracy,
    }
    if trace:
        metrics.update(_layer_figures(runs, metrics["step_ms_p50"]))
        if spans_path is not None:
            write_spans(
                spans_path, [run.recorder for run in runs if run.traced]
            )
    return {
        "metrics": metrics,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "runs": len(runs),
        "setups": len(setups),
        "timed_steps": len(timed),
        "failed_share": failed / attempted,
    }


def _layer_figures(runs, untraced_p50: float) -> dict:
    """Per-layer numbers: the median over the invocation's traced runs."""
    per_run = []
    traced_walls = []
    for run in runs:
        if not run.traced or not run.timed_steps():
            continue
        recorder = run.recorder
        merge_worker_spans(recorder, run.tracer_events)
        figures = layer_metrics(recorder, WARMUP_STEPS)
        if "nn.forward_ms" not in figures:
            share = run.forward_share
            figures["nn.forward_ms"] = figures["nn.compute_ms"] * share
            figures["nn.backward_ms"] = figures["nn.compute_ms"] * (1 - share)
        figures["runtime.paced_bytes"] = run.paced_bytes
        figures["runtime.bytes_counted_over_paced"] = (
            figures["comm.wire_bytes"] / run.paced_bytes
        )
        per_run.append(figures)
        traced_walls += [s.wall_ns / 1e6 for s in run.timed_steps()]
    if not per_run:
        return {}
    merged = {
        name: statistics.median(f[name] for f in per_run)
        for name in per_run[0]
    }
    merged["telemetry.overhead_share"] = (
        percentile(traced_walls, 50) / untraced_p50 - 1.0
    )
    return merged
