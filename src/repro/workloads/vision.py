"""Computer-vision model builders: ResNet-50, MobileNetV2, YOLOv5-L.

Each builder constructs a :class:`~repro.workloads.layers.ModelGraph`
layer by layer from the published architecture, so parameter counts,
per-sample FLOPs, and activation footprints are *derived*, not hardcoded —
they land on the paper's Table II values (ResNet-50 25.6M / depth 50,
MobileNetV2 3.4M / depth 53, YOLOv5-L 47M) because the architectures do.

Conventions:

- depth counts weighted layers only; projection/downsample shortcuts are
  excluded per the standard "ResNet-50 has 50 layers" convention;
- FLOPs are 2 x MACs at the input resolution used by the paper's runs
  (224 for ImageNet models, 640 for YOLOv5 on COCO).
"""

from __future__ import annotations

from dataclasses import replace

from .layers import (
    Layer,
    ModelGraph,
    activation,
    batchnorm2d,
    conv2d,
    linear,
    pooling,
)

__all__ = ["resnet50", "mobilenet_v2", "yolov5l"]


def _unweighted(layer: Layer) -> Layer:
    """Exclude a layer from the depth count (e.g. projection shortcuts)."""
    return replace(layer, weighted=False)


def _conv_bn(graph: ModelGraph, name: str, in_ch: int, out_ch: int,
             kernel: int, hw: tuple[int, int], groups: int = 1,
             weighted: bool = True) -> None:
    conv = conv2d(name, in_ch, out_ch, kernel, hw, groups=groups)
    graph.add(conv if weighted else _unweighted(conv))
    graph.add(batchnorm2d(f"{name}.bn", out_ch, hw))
    graph.add(activation(f"{name}.act", out_ch * hw[0] * hw[1]))


# ---------------------------------------------------------------------------
# ResNet-50
# ---------------------------------------------------------------------------

def resnet50(num_classes: int = 1000,
             input_hw: tuple[int, int] = (224, 224)) -> ModelGraph:
    """ResNet-50 v1 for ImageNet classification (He et al., 2016)."""
    g = ModelGraph("ResNet-50", family="cnn")
    h, w = input_hw
    h, w = h // 2, w // 2                      # stem stride 2
    _conv_bn(g, "stem.conv", 3, 64, 7, (h, w))
    h, w = h // 2, w // 2                      # maxpool stride 2
    g.add(pooling("stem.maxpool", 64, (h, w)))

    in_ch = 64
    stages = [  # (bottleneck width, blocks, stride)
        (64, 3, 1),
        (128, 4, 2),
        (256, 6, 2),
        (512, 3, 2),
    ]
    for s, (width, blocks, stride) in enumerate(stages):
        out_ch = width * 4
        for b in range(blocks):
            if b == 0 and stride == 2:
                h, w = h // 2, w // 2
            name = f"layer{s + 1}.{b}"
            _conv_bn(g, f"{name}.conv1", in_ch, width, 1, (h, w))
            _conv_bn(g, f"{name}.conv2", width, width, 3, (h, w))
            # conv3 has BN but its ReLU comes after the residual add.
            g.add(conv2d(f"{name}.conv3", width, out_ch, 1, (h, w)))
            g.add(batchnorm2d(f"{name}.conv3.bn", out_ch, (h, w)))
            if b == 0:
                # Projection shortcut: real conv, not counted in depth.
                g.add(_unweighted(
                    conv2d(f"{name}.downsample", in_ch, out_ch, 1, (h, w))))
                g.add(batchnorm2d(f"{name}.downsample.bn", out_ch, (h, w)))
            g.add(activation(f"{name}.relu", out_ch * h * w))
            in_ch = out_ch

    g.add(pooling("avgpool", in_ch, (1, 1)))
    g.add(linear("fc", in_ch, num_classes))
    return g


# ---------------------------------------------------------------------------
# MobileNetV2
# ---------------------------------------------------------------------------

#: (expansion t, output channels c, repeats n, first stride s)
_MBV2_CONFIG = (
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
)


def mobilenet_v2(num_classes: int = 1000,
                 input_hw: tuple[int, int] = (224, 224)) -> ModelGraph:
    """MobileNetV2 (Sandler et al., 2018): inverted residuals + linear
    bottlenecks."""
    g = ModelGraph("MobileNetV2", family="cnn")
    h, w = input_hw
    h, w = h // 2, w // 2
    _conv_bn(g, "stem", 3, 32, 3, (h, w))

    in_ch = 32
    for stage, (t, c, n, s) in enumerate(_MBV2_CONFIG):
        for b in range(n):
            stride = s if b == 0 else 1
            if stride == 2:
                h, w = h // 2, w // 2
            name = f"block{stage}.{b}"
            hidden = in_ch * t
            if t != 1:
                _conv_bn(g, f"{name}.expand", in_ch, hidden, 1, (h, w))
            _conv_bn(g, f"{name}.dw", hidden, hidden, 3, (h, w),
                     groups=hidden)
            # Linear bottleneck: conv + BN, no activation.
            g.add(conv2d(f"{name}.project", hidden, c, 1, (h, w)))
            g.add(batchnorm2d(f"{name}.project.bn", c, (h, w)))
            in_ch = c

    _conv_bn(g, "head.conv", in_ch, 1280, 1, (h, w))
    g.add(pooling("head.avgpool", 1280, (1, 1)))
    g.add(linear("classifier", 1280, num_classes))
    return g


# ---------------------------------------------------------------------------
# YOLOv5-L
# ---------------------------------------------------------------------------

def _c3(g: ModelGraph, name: str, in_ch: int, out_ch: int, n: int,
        hw: tuple[int, int]) -> None:
    """CSP bottleneck with 3 convolutions (Ultralytics C3 module)."""
    hidden = out_ch // 2
    _conv_bn(g, f"{name}.cv1", in_ch, hidden, 1, hw)
    _conv_bn(g, f"{name}.cv2", in_ch, hidden, 1, hw)
    for i in range(n):
        _conv_bn(g, f"{name}.m{i}.cv1", hidden, hidden, 1, hw)
        _conv_bn(g, f"{name}.m{i}.cv2", hidden, hidden, 3, hw)
    _conv_bn(g, f"{name}.cv3", 2 * hidden, out_ch, 1, hw)


def _sppf(g: ModelGraph, name: str, channels: int,
          hw: tuple[int, int]) -> None:
    """Spatial pyramid pooling - fast."""
    hidden = channels // 2
    _conv_bn(g, f"{name}.cv1", channels, hidden, 1, hw)
    for i in range(3):
        g.add(pooling(f"{name}.pool{i}", hidden, hw))
    _conv_bn(g, f"{name}.cv2", 4 * hidden, channels, 1, hw)


def yolov5l(num_classes: int = 80,
            input_hw: tuple[int, int] = (640, 640)) -> ModelGraph:
    """YOLOv5-L (Ultralytics, depth/width multiple 1.0) on COCO."""
    g = ModelGraph("YOLOv5-L", family="detector")
    h, w = input_hw

    # Backbone (CSPDarknet).
    p1 = (h // 2, w // 2)
    _conv_bn(g, "b0.conv", 3, 64, 6, p1)            # P1/2
    p2 = (h // 4, w // 4)
    _conv_bn(g, "b1.conv", 64, 128, 3, p2)          # P2/4
    _c3(g, "b2.c3", 128, 128, 3, p2)
    p3 = (h // 8, w // 8)
    _conv_bn(g, "b3.conv", 128, 256, 3, p3)         # P3/8
    _c3(g, "b4.c3", 256, 256, 6, p3)
    p4 = (h // 16, w // 16)
    _conv_bn(g, "b5.conv", 256, 512, 3, p4)         # P4/16
    _c3(g, "b6.c3", 512, 512, 9, p4)
    p5 = (h // 32, w // 32)
    _conv_bn(g, "b7.conv", 512, 1024, 3, p5)        # P5/32
    _c3(g, "b8.c3", 1024, 1024, 3, p5)
    _sppf(g, "b9.sppf", 1024, p5)

    # Head (PANet).
    _conv_bn(g, "h10.conv", 1024, 512, 1, p5)
    _c3(g, "h13.c3", 1024, 512, 3, p4)              # after upsample+concat
    _conv_bn(g, "h14.conv", 512, 256, 1, p4)
    _c3(g, "h17.c3", 512, 256, 3, p3)
    _conv_bn(g, "h18.conv", 256, 256, 3, p4)        # downsample P3->P4
    _c3(g, "h20.c3", 512, 512, 3, p4)
    _conv_bn(g, "h21.conv", 512, 512, 3, p5)        # downsample P4->P5
    _c3(g, "h23.c3", 1024, 1024, 3, p5)

    # Detect: 1x1 convs to 3 anchors x (classes + 5) per scale.
    out = 3 * (num_classes + 5)
    g.add(conv2d("detect.p3", 256, out, 1, p3, bias=True))
    g.add(conv2d("detect.p4", 512, out, 1, p4, bias=True))
    g.add(conv2d("detect.p5", 1024, out, 1, p5, bias=True))
    return g
