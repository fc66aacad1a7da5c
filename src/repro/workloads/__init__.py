"""DL workload models: layer math, architectures, datasets, registry.

Architectures are built layer by layer so parameter counts and FLOPs are
derived from the published designs (they reproduce the paper's Table II);
datasets are synthetic descriptors carrying per-sample byte and CPU
preprocessing costs.
"""

from .datasets import COCO, IMAGENET, SQUAD_V11, DatasetSpec
from .layers import (
    Layer,
    ModelGraph,
    activation,
    batchnorm2d,
    conv2d,
    embedding,
    layernorm,
    linear,
    multihead_attention,
    pooling,
)
from .nlp import BERT_VOCAB_SIZE, bert, bert_base, bert_large
from .registry import BENCHMARKS, Benchmark, benchmark_names, get_benchmark
from .vision import mobilenet_v2, resnet50, yolov5l

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
    "resnet50",
    "mobilenet_v2",
    "yolov5l",
    "bert",
    "bert_base",
    "bert_large",
    "BERT_VOCAB_SIZE",
    "DatasetSpec",
    "IMAGENET",
    "COCO",
    "SQUAD_V11",
    "Benchmark",
    "BENCHMARKS",
    "get_benchmark",
    "benchmark_names",
]
