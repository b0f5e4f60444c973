"""Collective-exchange interface shared by the MPI and NCCL paths.

A :class:`GradientExchange` implements line 4-8 of the paper's
Algorithm 1 for one gradient tensor: every rank contributes its local
gradient, and every rank receives the identical aggregated (summed)
gradient.  Implementations differ in data movement (and therefore in
the bytes recorded on each link) and in where quantization is applied.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..quantization.base import EncodedTensor, Quantizer
from ..quantization.workspace import EncodeWorkspace
from ..telemetry.tracer import NULL_TRACER

from .message import LinkTraffic

__all__ = ["ExchangeResult", "GradientExchange"]


@dataclass
class ExchangeResult:
    """Outcome of one collective gradient exchange.

    Attributes:
        aggregate: the summed gradient, identical at every rank (the
            synchronous-SGD invariant; tests assert it).  It aliases
            the exchange's arena and is valid until the next
            :meth:`GradientExchange.exchange` call on the same
            exchange — consume (or copy) it before then.
        decoded_local: per rank, what that rank's own contribution
            looked like after its quantization round-trip, present if
            and only if ``codec.requires_error_feedback`` (the trainer
            updates the residuals from it; arena-backed like
            ``aggregate``).  Otherwise ``None``: the round-trip images
            are folded straight into the aggregate (fused decode-
            accumulate) and never materialized.
    """

    aggregate: np.ndarray
    decoded_local: list[np.ndarray] | None


class GradientExchange(abc.ABC):
    """One collective pattern (MPI reduce-and-broadcast, NCCL ring...).

    Instances are stateful only where the real system is stateful
    (e.g. the MPI path's aggregator-side error feedback); all traffic
    is recorded into :attr:`traffic`.  Each exchange owns one
    :class:`EncodeWorkspace` (:attr:`workspace`): every encode, decode
    and sum runs in its reused buffers, so a steady-state exchange
    allocates nothing.  The arena is not thread-safe — drive one
    exchange from one thread.
    """

    name: str = "exchange"

    def __init__(self, world_size: int):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.traffic = LinkTraffic()
        self.workspace = EncodeWorkspace()
        # telemetry handle, installed by SynchronousStep when tracing
        # is on; the default null tracer makes every span a shared
        # no-op, so untraced exchanges pay only the call sites
        self.tracer = NULL_TRACER

    def _count_encode(self, nbytes: int, key: str = "") -> None:
        """Mirror one codec encode into the tracer's typed counters.

        A non-empty ``key`` (the gradient stream / parameter name)
        attributes the call to that layer's measured encode-cost
        profile, which the adaptive bit-width policy consumes.
        """
        sink = self.tracer.counter_sink
        if sink is not None:
            sink.count_encode(nbytes, key or None)

    def _count_decode(self, nbytes: int, key: str = "") -> None:
        """Mirror one codec decode into the tracer's typed counters."""
        sink = self.tracer.counter_sink
        if sink is not None:
            sink.count_decode(nbytes, key or None)

    def _encode(
        self,
        key: str,
        rank: int,
        tensor: np.ndarray,
        codec: Quantizer,
        rng: np.random.Generator,
    ) -> EncodedTensor:
        """Encode one rank's contribution into the arena (traced, counted).

        The message aliases arena buffers: decode it before the next
        encode.
        """
        with self.tracer.span("encode", rank):
            message = codec.encode_into(tensor, rng, self.workspace)
        self._count_encode(message.nbytes, key)
        return message

    def _decode(
        self,
        key: str,
        rank: int,
        message: EncodedTensor,
        codec: Quantizer,
        total,
        image: np.ndarray | None = None,
    ) -> None:
        """Fold one rank's message into the running sum ``total``.

        Without ``image``, ``total`` is the codec's
        :class:`~repro.quantization.base.SumDecoder` (fused decode-
        accumulate).  With ``image``, the message first decodes into
        that buffer — the rank's round-trip image — and ``total`` is an
        array the image is then added to (``None``: added nowhere).
        Both fold the same operands in the same order, so they sum
        bit-identically to ``zeros + decode(message_r)`` in rank order.
        """
        with self.tracer.span("decode", rank):
            if image is None:
                total.add(message)
            else:
                codec.decode_into(message, image, workspace=self.workspace)
                if total is not None:
                    total += image
        self._count_decode(message.nbytes, key)

    def _reduce(
        self,
        key: str,
        parts: list[np.ndarray],
        codec: Quantizer,
        rng: np.random.Generator,
        send,
        images: list[np.ndarray] | None = None,
    ) -> np.ndarray:
        """Encode every rank's part and decode-sum them in rank order.

        ``send(rank, nbytes)`` records each message's traffic.  With
        ``images`` (one buffer per rank, kept for error feedback) the
        round-trips land there and are summed in a zeroed arena array;
        without, they fold into the codec's fused sum decoder.  The
        returned sum aliases the arena.
        """
        shape = parts[0].shape
        if images is None:
            total = codec.sum_decoder(shape, self.workspace)
        else:
            total = self.workspace.zeros((self.name, "sum"), shape)
        for rank, part in enumerate(parts):
            message = self._encode(key, rank, part, codec, rng)
            send(rank, message.nbytes)
            self._decode(
                key, rank, message, codec, total,
                None if images is None else images[rank],
            )
        return total if images is not None else total.result()

    def _local_images(
        self, codec: Quantizer, shape: tuple[int, ...]
    ) -> list[np.ndarray] | None:
        """Per-rank round-trip buffers, kept only for error feedback."""
        if not codec.requires_error_feedback:
            return None
        return [
            self.workspace.array((self.name, "local", rank), shape)
            for rank in range(self.world_size)
        ]

    @abc.abstractmethod
    def exchange(
        self,
        key: str,
        tensors: list[np.ndarray],
        codec: Quantizer,
        rng: np.random.Generator,
    ) -> ExchangeResult:
        """Aggregate one gradient tensor across all ranks.

        Every rank's contribution is encoded and decode-summed in rank
        order in this exchange's arena; the returned arrays alias it
        until the next ``exchange()`` call on this object.

        Args:
            key: stable stream identifier (parameter name); collectives
                with aggregator-side state key it by this.
            tensors: one gradient per rank, all of identical shape.
            codec: the quantizer applied on the wire.
            rng: randomness source for stochastic quantizers.
        """

    def _check_inputs(self, tensors: list[np.ndarray]) -> tuple[int, ...]:
        if len(tensors) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} rank tensors, got {len(tensors)}"
            )
        shape = tensors[0].shape
        for rank, tensor in enumerate(tensors):
            if tensor.shape != shape:
                raise ValueError(
                    f"rank {rank} tensor shape {tensor.shape} != {shape}"
                )
        return shape

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of any aggregator-side numeric state (empty if stateless).

        Checkpoints persist this, and the engines' retry snapshots
        restore it, so exchanges with server-side error feedback (the
        MPI path's re-quantized broadcast) survive both.
        """
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        if state:
            raise ValueError(
                f"{self.name} exchange is stateless but received "
                f"{len(state)} state entries"
            )

    def reset(self) -> None:
        """Clear traffic records (and any aggregator state)."""
        self.traffic.reset()
