"""Bit-identity and registry tests for the kernel backend layer.

The compiled backend (the C extension) exists purely for speed: its
contract is that every byte it produces — packed code words,
scale vectors, decoded tensors, fused accumulations — is identical to
the pure-numpy reference, including the stochastic-rounding decisions
(the uniform draws are made by the caller and passed in, so all
backends consume the same RNG stream).  These tests enforce that
contract over the full scheme×bits×bucket×shape grid against the
compiled backend when it loads in this environment, and pin the
selection rules of the registry itself.
"""

import numpy as np
import pytest

from repro.quantization import bitpack, kernels
from repro.quantization.base import EncodedTensor
from repro.quantization.kernels import _numpy as ref_backend
from repro.quantization.qsgd import Qsgd
from repro.quantization.workspace import EncodeWorkspace

BACKENDS = kernels.available_backends()
#: compiled backends to check against the reference; a skip marker
#: stands in so the grid reports as skipped (not silently absent) in
#: environments without a C compiler
COMPILED = [name for name in BACKENDS if name != "numpy"] or [
    pytest.param(
        "numpy", marks=pytest.mark.skip(reason="no compiled backend")
    )
]

SHAPES = [
    (1,),
    (7,),
    (128,),
    (513,),
    (1, 1),
    (3, 5),
    (37, 53),
    (64, 64),
    (2, 3, 4),
]


def _gradient(shape, seed, zero_run=False):
    grad = (
        np.random.default_rng(seed)
        .normal(scale=2.0, size=shape)
        .astype(np.float32)
    )
    if zero_run and grad.size:
        # zero a prefix long enough to produce all-zero buckets, the
        # branch where scale == 0 and every code must collapse to 0
        flat = grad.reshape(-1)
        flat[: max(1, flat.size // 2)] = 0.0
    return grad


def _bits_equal(a, b):
    """Bit-pattern equality for float32 arrays (catches signed zeros)."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint32), b.view(np.uint32)
    )


def _roundtrip(backend, variant, norm, bits, shape, bucket, zero_run):
    """Encode/decode/sum-decode one gradient under ``backend``."""
    with kernels.use_backend(backend):
        codec = Qsgd(bits, bucket_size=bucket, norm=norm, variant=variant)
        ws = EncodeWorkspace()
        grad = _gradient(shape, seed=17, zero_run=zero_run)

        message = codec.encode_into(grad, np.random.default_rng(23), ws)
        words = message.payload["words"].copy()
        scales = message.payload["scales"].copy()
        decoded = np.empty(shape, dtype=np.float32)
        codec.decode_into(message, decoded, workspace=ws)

        decoder = codec.sum_decoder(shape, ws)
        for seed in (1, 2, 3):
            decoder.add(
                codec.encode_into(grad, np.random.default_rng(seed), ws)
            )
        summed = decoder.result().copy()
    return words, scales, decoded, summed


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("variant", ["sign", "grid"])
@pytest.mark.parametrize("norm", ["inf", "l2"])
@pytest.mark.parametrize("bits", [2, 4, 8, 16])
@pytest.mark.parametrize("bucket", [None, 64])
@pytest.mark.parametrize("zero_run", [False, True])
def test_qsgd_grid_bit_identity(backend, variant, norm, bits, bucket, zero_run):
    """Words, scales, decode and sum-decode match numpy on every cell."""
    for shape in SHAPES:
        got = _roundtrip(backend, variant, norm, bits, shape, bucket, zero_run)
        want = _roundtrip("numpy", variant, norm, bits, shape, bucket, zero_run)
        assert np.array_equal(got[0], want[0]), (shape, "words")
        assert _bits_equal(got[1], want[1]), (shape, "scales")
        assert _bits_equal(got[2], want[2]), (shape, "decode")
        assert _bits_equal(got[3], want[3]), (shape, "sum-decode")


@pytest.mark.parametrize("backend", COMPILED)
def test_pack_unpack_bit_identity(backend):
    rng = np.random.default_rng(3)
    for width in range(1, 33):
        for count in (0, 1, 7, 31, 32, 33, 100):
            codes = rng.integers(
                0, 1 << width, size=count, dtype=np.uint64
            )
            with kernels.use_backend("numpy"):
                want_words = bitpack.pack(codes, width)
            with kernels.use_backend(backend):
                words = bitpack.pack(codes, width)
                recovered = bitpack.unpack(words, count, width)
            assert np.array_equal(words, want_words), (width, count)
            assert np.array_equal(recovered, codes), (width, count)


@pytest.mark.parametrize("backend", COMPILED)
def test_subnormal_scales_stay_bit_identical(backend):
    # a subnormal inf-norm makes the grid step underflow to zero while
    # the scale stays positive: the safe-step substitution must match
    # the numpy reference exactly
    grad = np.full((300,), 1e-41, dtype=np.float32)
    grad[::3] *= -1.0
    for variant in ("sign", "grid"):
        codec = Qsgd(4, variant=variant)
        with kernels.use_backend("numpy"):
            want = codec.decode(codec.encode(grad, np.random.default_rng(5)))
        with kernels.use_backend(backend):
            got = codec.decode(codec.encode(grad, np.random.default_rng(5)))
        assert _bits_equal(got, want), variant


@pytest.mark.parametrize("backend", COMPILED)
def test_fused_accumulate_matches_zeros_then_add(backend):
    # BucketSumDecoder's fused decode-accumulate path must equal the
    # materialize-then-add path bit for bit, first add included
    codec = Qsgd(4)
    shape = (48, 30)
    grad = _gradient(shape, seed=9)
    messages = [
        codec.encode(grad, np.random.default_rng(r)) for r in range(3)
    ]
    with kernels.use_backend(backend):
        acc = None
        for message in messages:
            acc = codec._decode_acc_into(message, acc)
        want = np.zeros_like(acc)
        for message in messages:
            want += codec._decode_values(message)
    assert _bits_equal(acc, want)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", ["sign", "grid"])
# bucket sizes word-aligned for every slot (64), aligned only for the
# wider slots (24), and never aligned (7) — the last two force the
# fused kernels' composed fallback
@pytest.mark.parametrize("bucket_size", [64, 24, 7])
def test_fused_packed_kernels_match_composition(backend, variant, bucket_size):
    """quantize_*_packed / dequantize_*_packed == unfused compose, bitwise.

    The fused entry points exist so compiled backends can skip
    materializing the code plane; the reference defines them as the
    exact composition of quantize+pack and unpack+dequantize, so every
    backend's fused output must match its own composed output bit for
    bit (zero-scale buckets and the accumulate variant included).
    """
    bits = 4
    slot = bitpack.slot_width(bits)
    lanes = (6, bucket_size)
    buckets = np.random.default_rng(11).normal(size=lanes).astype(np.float32)
    buckets[2, :] = 0.0  # zero-scale bucket
    scales = np.abs(buckets).max(axis=1)
    rand = np.random.default_rng(12).random(lanes)
    n_words = bitpack.packed_words(lanes[0] * lanes[1], bits)

    with kernels.use_backend(backend) as kern:
        ws = EncodeWorkspace()
        codes = np.empty(lanes, dtype=np.uint32)
        if variant == "sign":
            kern.quantize_sign(buckets, scales, bits, rand, codes, ws)
        else:
            kern.quantize_grid(buckets, scales, bits, rand, codes, ws)
        want_words = np.empty(n_words, dtype=np.uint32)
        kern.pack(codes.reshape(-1), slot, want_words, ws)

        words = np.empty(n_words, dtype=np.uint32)
        if variant == "sign":
            kern.quantize_sign_packed(buckets, scales, bits, rand, words, ws)
        else:
            kern.quantize_grid_packed(buckets, scales, bits, rand, words, ws)
        assert np.array_equal(words, want_words)

        want = np.empty(lanes, dtype=np.float32)
        out = np.empty(lanes, dtype=np.float32)
        if variant == "sign":
            kern.dequantize_sign(codes, scales, bits, want, False, ws)
            kern.dequantize_sign_packed(words, scales, bits, out, False, ws)
        else:
            kern.dequantize_grid(codes, scales, bits, want, False, ws)
            kern.dequantize_grid_packed(words, scales, bits, out, False, ws)
        assert _bits_equal(out, want)

        want_acc = np.zeros(lanes, dtype=np.float32)
        acc = np.zeros(lanes, dtype=np.float32)
        for _ in range(2):
            if variant == "sign":
                kern.dequantize_sign(codes, scales, bits, want_acc, True, ws)
                kern.dequantize_sign_packed(
                    words, scales, bits, acc, True, ws
                )
            else:
                kern.dequantize_grid(codes, scales, bits, want_acc, True, ws)
                kern.dequantize_grid_packed(
                    words, scales, bits, acc, True, ws
                )
        assert _bits_equal(acc, want_acc)


def test_qsgd_decode_rejects_wrong_word_count():
    codec = Qsgd(4)
    message = codec.encode(
        _gradient((16, 16), seed=3), np.random.default_rng(0)
    )
    bad = EncodedTensor(
        scheme=message.scheme,
        shape=message.shape,
        payload={
            "scales": message.payload["scales"],
            "words": message.payload["words"][:-1],
        },
        meta=message.meta,
    )
    with pytest.raises(ValueError, match="packed words"):
        codec.decode(bad)


def test_bucket_sum_decoder_rejects_mismatched_geometry():
    codec = Qsgd(4)
    decoder = codec.sum_decoder((8, 8))
    rng = np.random.default_rng(0)
    decoder.add(codec.encode(_gradient((8, 8), seed=1), rng))
    other = codec.encode(_gradient((100,), seed=2), rng)
    with pytest.raises(ValueError, match="geometry"):
        decoder.add(other)


class TestRegistry:
    def test_numpy_backend_always_available(self):
        assert "numpy" in kernels.available_backends()

    def test_active_is_cached(self):
        assert kernels.active() is kernels.active()

    def test_use_backend_pins_and_restores(self):
        before = kernels.backend_name()
        with kernels.use_backend("numpy") as module:
            assert module.name == "numpy"
            assert kernels.backend_name() == "numpy"
        assert kernels.backend_name() == before

    def test_set_backend_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("cuda")

    def test_forced_unknown_backend_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "cuda")
        with pytest.raises(ValueError, match="unknown backend"):
            kernels._select()

    def test_forced_valid_backend_is_selected(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert kernels._select().name == "numpy"

    def test_forced_numba_is_an_unknown_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numba")
        with pytest.raises(
            ValueError, match=r"unknown backend \(choose from cext, numpy\)"
        ):
            kernels._select()

    def test_forced_unavailable_backend_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "cext")

        def unavailable(name):
            kernels._load_errors[name] = ImportError("not installed")
            return None

        monkeypatch.setattr(kernels, "_try_load", unavailable)
        with pytest.raises(RuntimeError, match="cext"):
            kernels._select()

    def test_set_backend_unavailable_raises(self, monkeypatch):
        def unavailable(name):
            kernels._load_errors[name] = ImportError("not installed")
            return None

        monkeypatch.setattr(kernels, "_try_load", unavailable)
        with pytest.raises(RuntimeError, match="not available"):
            kernels.set_backend("cext")

    def test_auto_selection_falls_back_to_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)

        def numpy_only(name):
            if name == "numpy":
                return ref_backend
            kernels._load_errors[name] = ImportError("not installed")
            return None

        monkeypatch.setattr(kernels, "_try_load", numpy_only)
        assert kernels._select().name == "numpy"
