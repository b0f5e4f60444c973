"""Every exchange against a test-local reference built from the codec.

The exchanges encode into their arena and fuse each rank's decode into
one running sum.  The reference below spells the paper's Algorithm 1
out with the codec's allocating ``encode``/``decode``: per rank, in rank
order, ``zeros + decode(encode(tensor))`` (per column range, then the
broadcast, for MPI).  The exchange must match it bit for bit — aggregate,
per-rank round-trip images for error-feedback codecs, and wire bytes.
``decoded_local`` is present if and only if the codec needs error
feedback.
"""

import numpy as np
import pytest

from repro.comm import EXCHANGE_NAMES, make_exchange
from repro.comm.nccl import DEFAULT_SLICE_BYTES
from repro.comm.topology import partition_ranges
from repro.quantization import FullPrecision, make_quantizer

SCHEMES = ["32bit", "qsgd4", "qsgd2", "1bit", "1bit*", "aqsgd4"]
WORLD = 4


def _tensors(shape=(32, 20)):
    return [
        np.random.default_rng(100 + r).normal(size=shape).astype(np.float32)
        for r in range(WORLD)
    ]


def _roundtrips(parts, codec, rng):
    """Per-rank (image, nbytes) through the allocating codec, rank order."""
    out = []
    for part in parts:
        message = codec.encode(part, rng)
        out.append((codec.decode(message), message.nbytes))
    return out


def _rank_sum(images, shape):
    total = np.zeros(shape, dtype=np.float32)
    for image in images:
        total += image
    return total


def _ring_bytes(payload):
    chunk = -(-payload // WORLD)
    chunk = -(-chunk // DEFAULT_SLICE_BYTES) * DEFAULT_SLICE_BYTES
    return WORLD * chunk * 2 * (WORLD - 1)


def _reference_nccl(tensors, codec, rng):
    shape = tensors[0].shape
    if isinstance(codec, FullPrecision):
        # NCCL's native sum: exact, nothing is encoded
        return _rank_sum(tensors, shape), None, _ring_bytes(
            codec.encoded_nbytes(shape)
        )
    trips = _roundtrips(tensors, codec, rng)
    images = [image for image, _ in trips]
    return _rank_sum(images, shape), images, _ring_bytes(trips[-1][1])


def _reference_alltoall(tensors, codec, rng):
    trips = _roundtrips(tensors, codec, rng)
    images = [image for image, _ in trips]
    wire = sum(nbytes for _, nbytes in trips) * (WORLD - 1)
    return _rank_sum(images, tensors[0].shape), images, wire


def _reference_mpi(tensors, codec, rng):
    shape = tensors[0].shape
    matrices = [t.reshape(shape[0], -1) for t in tensors]
    aggregate = np.empty_like(matrices[0])
    images = [np.empty_like(m) for m in matrices]
    wire = 0
    for owner, (lo, hi) in enumerate(
        partition_ranges(matrices[0].shape[1], WORLD)
    ):
        if lo == hi:
            continue
        trips = _roundtrips([m[:, lo:hi] for m in matrices], codec, rng)
        for rank, (image, nbytes) in enumerate(trips):
            images[rank][:, lo:hi] = image
            wire += 0 if rank == owner else nbytes
        owner_sum = _rank_sum(
            [image for image, _ in trips], (shape[0], hi - lo)
        )
        if isinstance(codec, FullPrecision):
            aggregate[:, lo:hi] = owner_sum
            nbytes = codec.encoded_nbytes(owner_sum.shape)
        else:
            # re-quantized broadcast; a fresh exchange's aggregator-side
            # residual is zero, so error feedback corrects by +0
            if codec.requires_error_feedback:
                owner_sum = owner_sum + np.zeros_like(owner_sum)
            message = codec.encode(owner_sum, rng)
            aggregate[:, lo:hi] = codec.decode(message)
            nbytes = message.nbytes
        wire += nbytes * (WORLD - 1)
    return aggregate, images, wire


REFERENCES = {
    "nccl": _reference_nccl,
    "alltoall": _reference_alltoall,
    "mpi": _reference_mpi,
}


def _run(exchange_name, scheme):
    exchange = make_exchange(exchange_name, WORLD)
    codec = make_quantizer(scheme)
    result = exchange.exchange(
        "w", _tensors(), codec, np.random.default_rng(5)
    )
    return codec, exchange, result


def _reference(exchange_name, scheme):
    return REFERENCES[exchange_name](
        _tensors(), make_quantizer(scheme), np.random.default_rng(5)
    )


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("exchange_name", sorted(EXCHANGE_NAMES))
class TestFusedMatchesAllocating:
    def test_aggregate_bit_identical(self, exchange_name, scheme):
        _, _, got = _run(exchange_name, scheme)
        ref_aggregate, _, _ = _reference(exchange_name, scheme)
        np.testing.assert_array_equal(
            np.asarray(got.aggregate), ref_aggregate
        )
        assert got.aggregate.tobytes() == ref_aggregate.tobytes()

    def test_wire_bytes_unchanged(self, exchange_name, scheme):
        _, exchange, _ = _run(exchange_name, scheme)
        _, _, ref_wire = _reference(exchange_name, scheme)
        assert exchange.traffic.total_bytes == ref_wire

    def test_decoded_local_contract(self, exchange_name, scheme):
        codec, _, got = _run(exchange_name, scheme)
        if not codec.requires_error_feedback:
            # fused decode-accumulate: no per-rank tensors materialized
            assert got.decoded_local is None
            return
        # the trainer's residual update needs them: bit-identical
        _, ref_images, _ = _reference(exchange_name, scheme)
        assert len(got.decoded_local) == WORLD
        for mine, theirs in zip(got.decoded_local, ref_images):
            assert mine.shape == theirs.shape
            assert np.asarray(mine).tobytes() == theirs.tobytes()


@pytest.mark.parametrize("exchange_name", sorted(EXCHANGE_NAMES))
def test_workspace_reuse_across_repeated_exchanges(exchange_name):
    """Steady state: repeated exchanges stop allocating arena buffers."""
    exchange = make_exchange(exchange_name, WORLD)
    codec = make_quantizer("qsgd4")
    tensors = _tensors()
    exchange.exchange("w", tensors, codec, np.random.default_rng(0))
    misses = exchange.workspace.misses
    for step in range(1, 4):
        exchange.exchange(
            "w", tensors, codec, np.random.default_rng(step)
        )
    assert exchange.workspace.misses == misses, "exchange allocated after warmup"


@pytest.mark.parametrize("exchange_name", sorted(EXCHANGE_NAMES))
def test_aggregate_aliases_the_arena_until_the_next_exchange(exchange_name):
    exchange = make_exchange(exchange_name, WORLD)
    codec = make_quantizer("qsgd4")
    first = exchange.exchange(
        "w", _tensors(), codec, np.random.default_rng(0)
    ).aggregate
    kept = first.copy()
    second = exchange.exchange(
        "w", [t * 3 for t in _tensors()], codec, np.random.default_rng(1)
    ).aggregate
    assert np.shares_memory(first, second)
    assert not np.array_equal(first, kept)
