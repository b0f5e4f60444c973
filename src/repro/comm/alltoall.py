"""Literal Algorithm 1 exchange: broadcast every message to every peer.

This is the reference semantics of the paper's Algorithm 1 (each rank
broadcasts its encoded gradient M^i to all peers; every peer decodes
all K messages and sums).  It moves ``K (K-1)`` messages per tensor, so
it is never the fastest pattern — the optimized MPI and NCCL exchanges
are verified against it in the integration tests.
"""

from __future__ import annotations

import numpy as np

from ..quantization.base import Quantizer
from .base import ExchangeResult, GradientExchange

__all__ = ["AllToAllBroadcast"]


class AllToAllBroadcast(GradientExchange):
    """Every rank broadcasts its quantized gradient to every peer."""

    name = "alltoall"

    def exchange(
        self,
        key: str,
        tensors: list[np.ndarray],
        codec: Quantizer,
        rng: np.random.Generator,
    ) -> ExchangeResult:
        shape = self._check_inputs(tensors)

        def broadcast(rank: int, nbytes: int) -> None:
            for peer in range(self.world_size):
                self.traffic.record(rank, peer, nbytes, tag=key)

        decoded_local = self._local_images(codec, shape)
        aggregate = self._reduce(
            key,
            [np.asarray(t, dtype=np.float32) for t in tensors],
            codec, rng, send=broadcast, images=decoded_local,
        )
        return ExchangeResult(aggregate=aggregate, decoded_local=decoded_local)
