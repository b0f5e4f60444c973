"""Span recording and per-layer figures, on hand-made spans."""

import json

from perfbench.trace import (
    Recorder,
    StepRecord,
    instrument,
    layer_metrics,
    write_spans,
)


def _step(index, start, end, wire_bytes=100):
    return StepRecord(index, start, end, cpu_s=0.001, samples=8, loss=1.0,
                      wire_bytes=wire_bytes)


def test_no_span_outside_a_step_unless_asked():
    recorder = Recorder()
    assert recorder.begin("nn.forward") is None
    span = recorder.begin("data.batch", between_steps=True)
    recorder.end(span)
    assert span.step == 0 and recorder.spans == [span]


def test_same_name_nesting_records_one_span():
    recorder = Recorder()
    recorder.step = 0
    outer = recorder.begin("nn.forward")
    assert recorder.begin("nn.forward") is None
    child = recorder.begin("nn.backward")
    recorder.end(child)
    recorder.end(outer)
    assert recorder.spans == [outer, child]
    assert child.parent is outer


def test_layer_self_time_and_uncovered_wall():
    recorder = Recorder()
    recorder.steps = [_step(0, 0, 1_000_000), _step(1, 1_000_000, 3_000_000)]
    recorder.step = 1
    for name, start, end, parent in (
        ("core.aggregate", 1_000_000, 2_000_000, None),
        ("comm.exchange", 1_100_000, 1_900_000, "core.aggregate"),
        ("quantization.encode", 1_200_000, 1_500_000, "comm.exchange"),
        ("quantization.decode", 1_400_000, 1_600_000, "comm.exchange"),
        ("optim.apply", 2_000_000, 2_500_000, None),
    ):
        recorder.add_span(name, 1, start, end, 1)
        span = recorder.spans[-1]
        span.parent = next(
            (s for s in recorder.spans if s.name == parent), None
        )
    figures = layer_metrics(recorder, skip_steps=1)
    assert figures["core.aggregate_ms"] == 1.0
    assert figures["core.self_ms"] == 0.2
    assert figures["comm.exchange_ms"] == 0.8
    # encode and decode overlap for 0.1 ms: subtracted once
    assert abs(figures["comm.self_ms"] - 0.4) < 1e-12
    assert figures["optim.apply_ms"] == 0.5
    assert figures["runtime.uncovered_ms"] == 0.5
    assert figures["runtime.covered_share"] == 0.75
    assert figures["comm.wire_bytes"] == 100


def test_instrument_puts_every_method_back():
    from repro.runtime.worker import RankWorker
    from repro.core import trainer

    compute = RankWorker.__dict__["compute"]
    batches = trainer.iterate_minibatches
    with instrument(Recorder()):
        assert RankWorker.__dict__["compute"] is not compute
        assert trainer.iterate_minibatches is not batches
    assert RankWorker.__dict__["compute"] is compute
    assert trainer.iterate_minibatches is batches


def test_written_spans_name_their_parent_by_line(tmp_path):
    recorder = Recorder()
    recorder.step = 0
    outer = recorder.begin("core.aggregate")
    recorder.end(recorder.begin("comm.exchange"))
    recorder.end(outer)
    path = tmp_path / "spans.jsonl"
    write_spans(path, [recorder])
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["name"] for line in lines] == ["core.aggregate", "comm.exchange"]
    assert lines[0]["parent"] is None and lines[1]["parent"] == 0
    assert lines[1]["end_ns"] >= lines[1]["start_ns"] >= lines[0]["start_ns"]
