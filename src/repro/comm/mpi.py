"""MPI reduce-and-broadcast gradient exchange (paper Section 2.4.1).

The gradient matrix is range-partitioned over its columns (CNTK sends
each gradient matrix separately and assigns each processor a contiguous
range).  Each rank quantizes every range and sends it to the range's
owner; the owner decodes and sums all contributions, optionally
*re-quantizes* the aggregate (CNTK's 1bitSGD does, keeping a second
error-feedback residual on the aggregator), and broadcasts it back.

Because quantization happens per range, the wire carries quantized
bytes in both the reduce and the broadcast phase — this is the data
path whose cost model produces the paper's Figures 6, 8, 10.
"""

from __future__ import annotations

import numpy as np

from ..quantization.base import ErrorFeedback, Quantizer
from ..quantization.fullprec import FullPrecision
from .base import ExchangeResult, GradientExchange
from .topology import partition_ranges

__all__ = ["MpiReduceBroadcast"]


class MpiReduceBroadcast(GradientExchange):
    """Reduce-and-broadcast over host-staged MPI, quantization-aware."""

    name = "mpi"

    def __init__(self, world_size: int, requantize_broadcast: bool = True):
        super().__init__(world_size)
        #: whether aggregated ranges are re-quantized before broadcast
        #: (CNTK behaviour for biased schemes); unbiased schemes and
        #: full precision broadcast the exact aggregate.
        self.requantize_broadcast = requantize_broadcast
        self._fullprec = FullPrecision()
        # aggregator-side error feedback, one residual per (key, owner)
        self._broadcast_feedback: dict[int, ErrorFeedback] = {}
        # residuals restored from a checkpoint before the codec is
        # known; adopted lazily the first time each owner's feedback
        # wrapper is built
        self._restored_residuals: dict[int, dict[str, np.ndarray]] = {}

    def _broadcast_codec(self, codec: Quantizer, owner: int):
        """Encode/decode pair used for the broadcast phase."""
        if not self.requantize_broadcast or isinstance(codec, FullPrecision):
            return None
        if codec.requires_error_feedback:
            feedback = self._broadcast_feedback.get(owner)
            if feedback is None:
                feedback = ErrorFeedback(codec)
                feedback._residuals.update(
                    self._restored_residuals.pop(owner, {})
                )
                self._broadcast_feedback[owner] = feedback
            return feedback
        return codec

    def exchange(
        self,
        key: str,
        tensors: list[np.ndarray],
        codec: Quantizer,
        rng: np.random.Generator,
    ) -> ExchangeResult:
        shape = self._check_inputs(tensors)
        rows = shape[0] if shape else 1
        matrices = [
            np.asarray(t, dtype=np.float32).reshape(rows, -1) for t in tensors
        ]
        ranges = partition_ranges(matrices[0].shape[1], self.world_size)
        decoded_local = self._local_images(codec, matrices[0].shape)
        aggregate = self.workspace.array("mpi.agg", matrices[0].shape)

        for owner, (lo, hi) in enumerate(ranges):
            if lo == hi:
                continue
            # reduce phase: every rank ships its quantized range to the
            # owner, which folds each decode into the running sum
            owner_sum = self._reduce(
                key,
                [matrix[:, lo:hi] for matrix in matrices],
                codec, rng,
                send=lambda rank, nbytes: self.traffic.record(
                    rank, owner, nbytes, tag=key
                ),
                images=(
                    None
                    if decoded_local is None
                    else [local[:, lo:hi] for local in decoded_local]
                ),
            )

            # broadcast phase: owner ships the aggregated range back
            broadcast_codec = self._broadcast_codec(codec, owner)
            target = aggregate[:, lo:hi]
            if broadcast_codec is None:
                target[...] = owner_sum
                nbytes = self._fullprec.encoded_nbytes(owner_sum.shape)
            else:
                if isinstance(broadcast_codec, ErrorFeedback):
                    with self.tracer.span("encode", owner):
                        message = broadcast_codec.encode(
                            f"{key}/range{owner}", owner_sum, rng,
                            workspace=self.workspace,
                        )
                    self._count_encode(message.nbytes, key)
                    broadcast_codec = broadcast_codec.quantizer
                else:
                    message = self._encode(
                        key, owner, owner_sum, broadcast_codec, rng
                    )
                self._decode(
                    key, owner, message, broadcast_codec, None, image=target
                )
                nbytes = message.nbytes
            for rank in range(self.world_size):
                self.traffic.record(owner, rank, nbytes, tag=key)

        return ExchangeResult(
            aggregate=aggregate.reshape(shape),
            decoded_local=(
                None
                if decoded_local is None
                else [local.reshape(shape) for local in decoded_local]
            ),
        )

    def state_dict(self) -> dict[str, np.ndarray]:
        """Aggregator-side broadcast residuals as ``"owner|stream"`` keys."""
        state = {
            f"{owner}|{stream}": residual.copy()
            for owner, feedback in self._broadcast_feedback.items()
            for stream, residual in feedback._residuals.items()
        }
        # restored-but-not-yet-adopted residuals round-trip unchanged
        for owner, residuals in self._restored_residuals.items():
            for stream, residual in residuals.items():
                state[f"{owner}|{stream}"] = residual.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self._broadcast_feedback.clear()
        self._restored_residuals.clear()
        for key, residual in state.items():
            owner_text, _, stream = key.partition("|")
            owner = int(owner_text)
            self._restored_residuals.setdefault(owner, {})[stream] = (
                np.array(residual, dtype=np.float32)
            )

    def reset(self) -> None:
        super().reset()
        self._broadcast_feedback.clear()
        self._restored_residuals.clear()
