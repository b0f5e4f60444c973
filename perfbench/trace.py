"""Spans around the calls into each layer of the program, from outside it.

The benchmark never edits the program: :func:`instrument` swaps the
public methods of each layer's classes for timing wrappers for the
length of one traced run and puts the originals back afterwards.  Each
wrapped call records one :class:`Span` (name, thread, start, end,
parent span, step id) in memory; nothing is written until the run ends.

A call nested in an open span of the same name records nothing of its
own (``Sequential.forward`` calling each layer's ``forward``, a sum
decoder calling ``decode_into``), so a layer's time is never counted
twice.  :func:`layer_metrics` turns the spans of a run into per-step
layer numbers; a layer's self time is its span's duration minus the
union of its children's.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from .stats import self_ns, union_ns

MAIN_THREAD = threading.main_thread().ident


class Span:
    """One wrapped call: ``name`` on ``thread`` from ``start`` to ``end`` ns."""

    __slots__ = ("name", "thread", "start", "end", "parent", "step")

    def __init__(self, name, thread, start, parent, step):
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        self.parent = parent
        self.step = step

    @property
    def interval(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass
class StepRecord:
    """One ``ParallelTrainer.train_step`` call as the benchmark saw it."""

    index: int
    start: int
    end: int
    cpu_s: float
    samples: int
    loss: float
    wire_bytes: int

    @property
    def wall_ns(self) -> int:
        return self.end - self.start


@dataclass
class Recorder:
    """Steps, spans and counts of one run, kept in memory."""

    steps: list[StepRecord] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    counts: dict[tuple[int, str], float] = field(
        default_factory=lambda: defaultdict(float)
    )
    #: index of the step in progress; ``None`` between steps
    step: int | None = None
    _local: threading.local = field(default_factory=threading.local)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, between_steps: bool = False) -> Span | None:
        """Open a span, or return ``None`` when it must not be recorded."""
        step = self.step
        if step is None:
            if not between_steps:
                return None
            step = len(self.steps)
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent.name == name:
            return None
        span = Span(
            name, threading.get_ident(), time.perf_counter_ns(), parent, step
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()

    def count(self, span: Span, key: str, value: float) -> None:
        self.counts[(span.step, key)] += value

    def add_span(self, name, thread, start, end, step) -> None:
        """Record a span measured elsewhere (a worker process's tracer)."""
        span = Span(name, thread, start, None, step)
        span.end = end
        self.spans.append(span)


def _timed(recorder: Recorder, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        if span is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if on_result is not None:
            on_result(span, args, result)
        return result

    return wrapper


def _subclasses(base: type) -> list[type]:
    found, stack = [], [base]
    while stack:
        cls = stack.pop()
        if cls not in found:
            found.append(cls)
            stack.extend(cls.__subclasses__())
    return found


def _timed_batches(recorder: Recorder, original):
    """``iterate_minibatches`` whose every training batch is a data span."""

    @functools.wraps(original)
    def batches(x, y, batch_size, rng=None, drop_last=False):
        it = original(x, y, batch_size, rng=rng, drop_last=drop_last)
        if rng is None:  # evaluation batches are not training data
            yield from it
            return
        while True:
            span = recorder.begin("data.batch", between_steps=True)
            try:
                item = next(it)
            except StopIteration:
                if span is not None:
                    recorder.end(span)
                    recorder.spans.remove(span)
                return
            if span is not None:
                recorder.end(span)
            yield item

    return batches


def _targets(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Every (owner, attribute, replacement) the traced run installs."""
    import repro.core.trainer as trainer_mod
    import repro.models  # noqa: F401 - registers the block Modules
    import repro.runtime.engine as engine_mod
    from repro.comm.base import GradientExchange
    from repro.core.algorithm import SynchronousStep
    from repro.nn.module import Module
    from repro.quantization.base import Quantizer, SumDecoder
    from repro.runtime.barrier import StepBarrier
    from repro.runtime.buckets import BucketReadiness
    from repro.runtime.process_engine import ProcessStepBarrier
    from repro.runtime.worker import RankWorker

    def on_encode(span, args, message):
        recorder.count(span, "encode_calls", 1)
        recorder.count(span, "encoded_bytes", message.nbytes)
        recorder.count(span, "input_bytes", 4 * args[1].size)

    def on_exchange(span, args, result):
        recorder.count(span, "exchange_calls", 1)

    methods = [(cls, attr, name, None) for cls, attr, name in (
        (SynchronousStep, "aggregate_bucket", "core.aggregate"),
        (RankWorker, "compute", "nn.compute"),
        (RankWorker, "apply_updates", "optim.apply"),
        (StepBarrier, "wait", "runtime.barrier"),
        (BucketReadiness, "wait", "runtime.barrier"),
        (ProcessStepBarrier, "gather", "runtime.barrier"),
        (engine_mod.ExecutionEngine, "_pace_transmit", "runtime.pace"),
    )]
    for cls in _subclasses(Module):
        for attr in ("forward", "backward"):
            if attr in vars(cls):
                methods.append((cls, attr, f"nn.{attr}", None))
    for cls in _subclasses(Quantizer):
        if "encode_into" in vars(cls):
            methods.append(
                (cls, "encode_into", "quantization.encode", on_encode)
            )
        if "decode_into" in vars(cls):
            methods.append(
                (cls, "decode_into", "quantization.decode", None)
            )
    for cls in _subclasses(SumDecoder):
        for attr in ("add", "result"):
            if attr in vars(cls):
                methods.append((cls, attr, "quantization.decode", None))
    for cls in _subclasses(GradientExchange):
        if "exchange" in vars(cls):
            methods.append((cls, "exchange", "comm.exchange", on_exchange))

    targets = [
        (cls, attr, _timed(recorder, name, vars(cls)[attr], hook))
        for cls, attr, name, hook in methods
    ]
    targets.append((
        trainer_mod,
        "iterate_minibatches",
        _timed_batches(recorder, trainer_mod.iterate_minibatches),
    ))
    targets.append((
        engine_mod,
        "split_among_ranks",
        _timed(recorder, "data.batch", engine_mod.split_among_ranks),
    ))
    return targets


@contextmanager
def instrument(recorder: Recorder):
    """Wrap every layer's public calls for the duration of the block."""
    targets = _targets(recorder)
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    for owner, attr, replacement in targets:
        setattr(owner, attr, replacement)
    try:
        yield recorder
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def wrap_train_step(trainer, recorder: Recorder) -> None:
    """Time every ``train_step`` that ``fit`` makes on this instance.

    Always installed, traced or not: it is the end-to-end step clock,
    and it reads the loss and the counted wire bytes of every step.
    """
    original = trainer.train_step

    def train_step(x, y):
        bytes_before = trainer.step_engine.exchange.traffic.total_bytes
        recorder.step = index = len(recorder.steps)
        cpu0 = time.process_time()
        start = time.perf_counter_ns()
        loss = float("nan")
        try:
            loss, acc = original(x, y)
        finally:
            end = time.perf_counter_ns()
            recorder.step = None
            recorder.steps.append(StepRecord(
                index=index,
                start=start,
                end=end,
                cpu_s=time.process_time() - cpu0,
                samples=int(x.shape[0]),
                loss=float(loss),
                wire_bytes=trainer.step_engine.exchange.traffic.total_bytes
                - bytes_before,
            ))
        return loss, acc

    trainer.train_step = train_step


def write_spans(path, recorders) -> None:
    """Write the spans of traced runs as JSON lines, one span per line.

    ``parent`` is the line number (0-based, within the same run) of the
    enclosing span, or ``null``.
    """
    import json

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for run, recorder in enumerate(recorders):
            index = {id(span): i for i, span in enumerate(recorder.spans)}
            for span in recorder.spans:
                out.write(json.dumps({
                    "run": run,
                    "step": span.step,
                    "name": span.name,
                    "thread": span.thread,
                    "start_ns": span.start,
                    "end_ns": span.end,
                    "parent": (
                        None if span.parent is None
                        else index[id(span.parent)]
                    ),
                }) + "\n")


def merge_worker_spans(recorder: Recorder, events) -> None:
    """Fold a process engine's merged worker spans into the run's spans.

    Each worker records two ``compute`` spans per step: forward and
    backward first, then the apply of the aggregated update.  Its
    ``transfer`` spans are the paced upload.  Spans are assigned to the
    step whose wall interval contains their start.
    """
    steps = recorder.steps
    seen: dict[tuple[int, int], int] = defaultdict(int)
    for event in sorted(events, key=lambda e: e.start_ns):
        if event.track < 0 or event.name not in ("compute", "transfer"):
            continue
        step = next(
            (s.index for s in steps if s.start <= event.start_ns <= s.end),
            None,
        )
        if step is None:
            continue
        if event.name == "transfer":
            name = "runtime.pace"
        else:
            nth = seen[(step, event.track)]
            seen[(step, event.track)] += 1
            name = "nn.compute" if nth == 0 else "optim.apply"
        recorder.add_span(
            name,
            -(event.track + 1),
            event.start_ns,
            event.start_ns + event.duration_ns,
            step,
        )


def layer_metrics(recorder: Recorder, skip_steps: int) -> dict[str, float]:
    """Per-step layer numbers of one traced run, past its warm-up steps.

    Times are milliseconds per step, summed over ranks and threads.
    ``nn.forward_ms`` / ``nn.backward_ms`` are left to the caller when
    no forward span was recorded (the process engine's workers).
    """
    steps = recorder.steps[skip_steps:]
    kept = {s.index for s in steps}
    n = len(steps)
    if n == 0:
        raise ValueError("no traced steps past the warm-up")
    spans = [s for s in recorder.spans if s.step in kept]
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span.interval)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    main_wait = 0
    for span in spans:
        duration = span.end - span.start
        total[span.name] += duration
        self_total[span.name] += self_ns(span.interval, children[id(span)])
        if span.name == "runtime.barrier" and span.thread == MAIN_THREAD:
            main_wait += duration
    counts: dict[str, float] = defaultdict(float)
    for (step, key), value in recorder.counts.items():
        if step in kept:
            counts[key] += value

    by_step: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        by_step[span.step].append(span.interval)
    wall = sum(s.wall_ns for s in steps)
    uncovered = 0
    for s in steps:
        inside = [
            (max(a, s.start), min(b, s.end))
            for a, b in by_step[s.index]
            if b > s.start and a < s.end
        ]
        uncovered += s.wall_ns - union_ns(inside)

    def ms(value_ns: float) -> float:
        return value_ns / 1e6 / n

    metrics = {
        "data.batch_ms": ms(total["data.batch"]),
        "nn.compute_ms": ms(total["nn.compute"]),
        "optim.apply_ms": ms(total["optim.apply"]),
        "quantization.encode_ms": ms(total["quantization.encode"]),
        "quantization.decode_ms": ms(total["quantization.decode"]),
        "quantization.encode_calls": counts["encode_calls"] / n,
        "quantization.encoded_bytes": counts["encoded_bytes"] / n,
        "quantization.compression_ratio": (
            counts["input_bytes"] / counts["encoded_bytes"]
            if counts["encoded_bytes"] else 1.0
        ),
        "comm.exchange_ms": ms(total["comm.exchange"]),
        "comm.self_ms": ms(self_total["comm.exchange"]),
        "comm.exchange_calls": counts["exchange_calls"] / n,
        "comm.wire_bytes": sum(s.wire_bytes for s in steps) / n,
        "core.aggregate_ms": ms(total["core.aggregate"]),
        "core.self_ms": ms(self_total["core.aggregate"]),
        "runtime.barrier_wait_ms": ms(total["runtime.barrier"]),
        "runtime.coordinator_busy_share": 1.0 - main_wait / wall,
        "runtime.cpu_ms": 1e3 * sum(s.cpu_s for s in steps) / n,
        "runtime.uncovered_ms": ms(uncovered),
        "runtime.covered_share": 1.0 - uncovered / wall,
    }
    if total["nn.forward"]:
        metrics["nn.forward_ms"] = ms(total["nn.forward"])
        metrics["nn.backward_ms"] = ms(total["nn.backward"])
    return metrics
