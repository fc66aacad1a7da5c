"""Precision policies (FP32 vs FP16 mixed precision).

Mixed-precision training (Micikevicius et al., 2018 — paper §V-C.4) keeps
FP32 master weights while computing and communicating in FP16: kernels run
on the tensor cores, activations/gradients halve, and gradient allreduce
volume halves — "less communication overhead for synchronizing the model
replicas among the GPUs" as the paper puts it.  A small per-step overhead
accounts for loss scaling and the FP16<->FP32 casts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..devices.gpu import Precision
from ..workloads.layers import ModelGraph

__all__ = ["PrecisionPolicy", "FP32_POLICY", "AMP_POLICY"]


@dataclass(frozen=True)
class PrecisionPolicy:
    """How a training run uses numeric precision."""

    name: str
    compute: Precision
    #: Precision of gradients on the wire (allreduce volume).
    communication: Precision
    #: Whether FP32 master weights are kept alongside FP16 model weights.
    master_weights: bool
    #: Extra per-step time fraction for loss scaling / casts.
    step_overhead: float = 0.0

    def gradient_bytes(self, model: ModelGraph) -> float:
        return model.gradient_bytes(self.communication)


#: Plain FP32 training.
FP32_POLICY = PrecisionPolicy(
    name="fp32",
    compute=Precision.FP32,
    communication=Precision.FP32,
    master_weights=False,
)

#: NVIDIA-style automatic mixed precision (FP16 + FP32 master weights).
AMP_POLICY = PrecisionPolicy(
    name="amp-fp16",
    compute=Precision.FP16,
    communication=Precision.FP16,
    master_weights=True,
    step_overhead=0.03,
)
