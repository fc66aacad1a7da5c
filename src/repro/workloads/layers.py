"""Layer primitives with exact parameter / FLOP / activation accounting.

Each :class:`Layer` records, per sample:

- ``params`` — trainable parameter count,
- ``forward_flops`` — forward-pass floating-point operations
  (2 x multiply-accumulates, the standard convention),
- ``activation_bytes`` — output activation footprint at FP32
  (halved automatically for FP16 by the model-level accessors),
- ``weighted`` — whether the layer counts toward the architecture
  "depth" reported in the paper's Table II (conv/linear layers, the
  convention used by e.g. ResNet-50 = 50).

A :class:`ModelGraph` is an ordered collection of layers with aggregate
accessors used by the training engine: forward FLOPs, gradient bytes
for allreduce, weight and activation memory, and the
per-sample HBM traffic estimate that drives the roofline kernel model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..devices.gpu import Precision

__all__ = [
    "Layer",
    "ModelGraph",
    "conv2d",
    "batchnorm2d",
    "linear",
    "layernorm",
    "embedding",
    "multihead_attention",
    "pooling",
    "activation",
]

#: Bytes per element at FP32.
FP32_BYTES = 4
FP16_BYTES = 2


@dataclass(frozen=True)
class Layer:
    """One layer's static cost model (per input sample)."""

    name: str
    params: int
    forward_flops: float
    activation_bytes: float
    weighted: bool = True

    def __post_init__(self) -> None:
        if self.params < 0 or self.forward_flops < 0 \
                or self.activation_bytes < 0:
            raise ValueError(f"layer {self.name!r} has negative costs")


# ---------------------------------------------------------------------------
# Layer constructors.  Spatial sizes are (H, W) of the *output* feature map
# unless noted.  FLOPs use the 2*MAC convention.
# ---------------------------------------------------------------------------

def conv2d(name: str, in_ch: int, out_ch: int, kernel: int,
           out_hw: tuple[int, int], groups: int = 1,
           bias: bool = False) -> Layer:
    """A 2-D convolution with ``kernel x kernel`` filters."""
    if in_ch % groups != 0:
        raise ValueError(f"{name}: in_ch {in_ch} not divisible by "
                         f"groups {groups}")
    h, w = out_hw
    weights = kernel * kernel * (in_ch // groups) * out_ch
    params = weights + (out_ch if bias else 0)
    macs = weights * h * w
    return Layer(
        name=name,
        params=params,
        forward_flops=2.0 * macs,
        activation_bytes=float(out_ch * h * w * FP32_BYTES),
    )


def batchnorm2d(name: str, channels: int, out_hw: tuple[int, int]) -> Layer:
    """BatchNorm: scale+shift params, cheap elementwise math."""
    h, w = out_hw
    elements = channels * h * w
    return Layer(
        name=name,
        params=2 * channels,
        forward_flops=2.0 * elements,
        activation_bytes=float(elements * FP32_BYTES),
        weighted=False,
    )


def linear(name: str, in_features: int, out_features: int,
           tokens: int = 1, bias: bool = True) -> Layer:
    """A fully connected layer applied to ``tokens`` positions."""
    params = in_features * out_features + (out_features if bias else 0)
    macs = in_features * out_features * tokens
    return Layer(
        name=name,
        params=params,
        forward_flops=2.0 * macs,
        activation_bytes=float(out_features * tokens * FP32_BYTES),
    )


def layernorm(name: str, features: int, tokens: int = 1) -> Layer:
    elements = features * tokens
    return Layer(
        name=name,
        params=2 * features,
        forward_flops=5.0 * elements,  # mean, var, normalize, scale, shift
        activation_bytes=float(elements * FP32_BYTES),
        weighted=False,
    )


def embedding(name: str, vocab: int, features: int,
              tokens: int = 1) -> Layer:
    """Lookup table; negligible FLOPs, large parameter count."""
    return Layer(
        name=name,
        params=vocab * features,
        forward_flops=0.0,
        activation_bytes=float(features * tokens * FP32_BYTES),
        weighted=False,
    )


def multihead_attention(name: str, hidden: int, heads: int,
                        tokens: int) -> Layer:
    """Multi-head self-attention (QKV + output projections + scores).

    Parameters are the four hidden x hidden projections; FLOPs include the
    O(tokens^2 * hidden) score and context computations that dominate at
    long sequence lengths (the paper's BERT runs use 384).
    """
    if hidden % heads != 0:
        raise ValueError(f"{name}: hidden {hidden} not divisible by "
                         f"heads {heads}")
    proj_params = 4 * (hidden * hidden + hidden)
    proj_macs = 4 * hidden * hidden * tokens
    attn_macs = 2 * tokens * tokens * hidden   # QK^T and softmax(V)
    act_bytes = (tokens * hidden * 4            # Q, K, V, context
                 + heads * tokens * tokens      # attention probabilities
                 ) * FP32_BYTES
    return Layer(
        name=name,
        params=proj_params,
        forward_flops=2.0 * (proj_macs + attn_macs),
        activation_bytes=float(act_bytes),
    )


def pooling(name: str, channels: int, out_hw: tuple[int, int]) -> Layer:
    h, w = out_hw
    elements = channels * h * w
    return Layer(
        name=name,
        params=0,
        forward_flops=float(elements),
        activation_bytes=float(elements * FP32_BYTES),
        weighted=False,
    )


def activation(name: str, elements: float) -> Layer:
    """Elementwise nonlinearity (ReLU/ReLU6/SiLU/GELU)."""
    return Layer(
        name=name,
        params=0,
        forward_flops=float(elements),
        activation_bytes=float(elements * FP32_BYTES),
        weighted=False,
    )


class ModelGraph:
    """An ordered layer collection with aggregate cost accessors."""

    def __init__(self, name: str, layers: Optional[Iterable[Layer]] = None,
                 family: str = "generic"):
        self.name = name
        self.family = family
        self._layers: list[Layer] = list(layers or [])

    # -- construction ----------------------------------------------------
    def add(self, layer: Layer) -> "ModelGraph":
        self._layers.append(layer)
        return self

    @property
    def layers(self) -> tuple[Layer, ...]:
        return tuple(self._layers)

    # -- aggregates -------------------------------------------------------
    @property
    def params(self) -> int:
        """Total trainable parameters."""
        return sum(l.params for l in self._layers)

    @property
    def depth(self) -> int:
        """Number of weighted (conv/linear/attention) layers."""
        return sum(1 for l in self._layers if l.weighted)

    @property
    def forward_flops_per_sample(self) -> float:
        return sum(l.forward_flops for l in self._layers)

    def activation_bytes_per_sample(
            self, precision: Precision = Precision.FP32) -> float:
        scale = FP16_BYTES / FP32_BYTES \
            if precision is Precision.FP16 else 1.0
        return scale * sum(l.activation_bytes for l in self._layers)

    def weight_bytes(self, precision: Precision = Precision.FP32) -> float:
        per = FP16_BYTES if precision is Precision.FP16 else FP32_BYTES
        return float(self.params * per)

    def gradient_bytes(self, precision: Precision = Precision.FP32) -> float:
        """Bytes exchanged per replica per step by gradient allreduce."""
        per = FP16_BYTES if precision is Precision.FP16 else FP32_BYTES
        return float(self.params * per)

    def hbm_bytes_per_sample(self, precision: Precision = Precision.FP32
                             ) -> float:
        """Approximate HBM traffic per sample for the roofline model.

        Each layer reads its input activation, reads its weights, and
        writes its output ~= 2x activations + weights; the backward pass
        roughly doubles it again.
        """
        act = self.activation_bytes_per_sample(precision)
        weights = self.weight_bytes(precision)
        return 2.0 * (2.0 * act + weights)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ModelGraph {self.name} params={self.params / 1e6:.1f}M "
                f"depth={self.depth}>")
