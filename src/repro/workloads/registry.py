"""Benchmark registry: the paper's five DL benchmarks (Table II).

Bundles a model builder, a dataset, the paper's run parameters (batch
size, epochs, sequence length), and calibrated sustained-efficiency
figures for V100-class GPUs.  Efficiencies are the fraction of *peak*
FLOP/s a training step sustains; conv nets reach a small fraction of the
FP16 tensor-core peak (memory-bound depthwise/pointwise kernels), while
transformer encoders with large GEMMs reach a much larger fraction —
this is what makes the NLP benchmarks "GPU compute and GPU memory bound"
(paper §V-C.2).

Calibration sanity anchors (published V100 throughputs, FP16 + DDP):
ResNet-50 ~400 img/s/GPU, MobileNetV2 ~1500 img/s/GPU, YOLOv5-L ~40
img/s/GPU at 640px, BERT-base ~130 seq/s/GPU and BERT-large ~35 seq/s/GPU
at sequence length 384.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..devices.gpu import Precision
from .datasets import COCO, IMAGENET, SQUAD_V11, DatasetSpec
from .layers import ModelGraph
from .nlp import bert_base, bert_large
from .vision import mobilenet_v2, resnet50, yolov5l

__all__ = ["Benchmark", "BENCHMARKS", "get_benchmark", "benchmark_names"]


@dataclass(frozen=True)
class Benchmark:
    """One paper benchmark: model + dataset + run parameters."""

    key: str
    display_name: str
    domain: str
    model_builder: Callable[[], ModelGraph]
    dataset: DatasetSpec
    #: Effective global (all-GPU) batch size.  For the torchvision-style
    #: classification scripts the paper's Table gives the *per-process*
    #: batch flag (64 / 128), so the 8-GPU global batch is 8x; for the
    #: memory-bound YOLOv5 and BERT runs the reported figure is already
    #: the global batch (e.g. BERT-large 48 = 6 per 16 GB V100, the
    #: batch the sharded optimizer later lifts to 10 — paper §V-C.4).
    global_batch: int
    #: Batch-size figure exactly as reported in the paper's text.
    paper_batch_size: int
    epochs: int
    #: Sustained fraction of peak FLOP/s by precision.
    efficiency: dict[Precision, float]
    #: Depth figure as reported in the paper's Table II (its convention
    #: differs per family: ResNet counts weighted layers, BERT counts
    #: encoder blocks, YOLOv5 counts framework modules).
    paper_depth: int
    #: Parameter count reported in Table II (millions), for comparison.
    paper_params_m: float
    seq_len: int = 0
    #: Storage reads per logical sample (YOLOv5's mosaic augmentation
    #: composes each training image from four source images).
    disk_read_factor: float = 1.0

    def build(self) -> ModelGraph:
        """Construct the model graph."""
        return self.model_builder()


BENCHMARKS: dict[str, Benchmark] = {
    "mobilenetv2": Benchmark(
        key="mobilenetv2",
        display_name="MobileNetV2",
        domain="vision",
        model_builder=mobilenet_v2,
        dataset=IMAGENET,
        global_batch=512,
        paper_batch_size=64,
        epochs=10,
        efficiency={Precision.FP16: 0.010, Precision.FP32: 0.055},
        paper_depth=53,
        paper_params_m=3.4,
    ),
    "resnet50": Benchmark(
        key="resnet50",
        display_name="ResNet-50",
        domain="vision",
        model_builder=resnet50,
        dataset=IMAGENET,
        global_batch=1024,
        paper_batch_size=128,
        epochs=20,
        efficiency={Precision.FP16: 0.080, Precision.FP32: 0.45},
        paper_depth=50,
        paper_params_m=25.6,
    ),
    "yolov5l": Benchmark(
        key="yolov5l",
        display_name="YOLOv5-L",
        domain="vision",
        model_builder=yolov5l,
        dataset=COCO,
        global_batch=88,
        paper_batch_size=88,
        epochs=20,
        efficiency={Precision.FP16: 0.105, Precision.FP32: 0.50},
        paper_depth=392,
        paper_params_m=47.0,
        disk_read_factor=4.0,
    ),
    "bert-base": Benchmark(
        key="bert-base",
        display_name="BERT",
        domain="nlp",
        model_builder=bert_base,
        dataset=SQUAD_V11,
        global_batch=96,
        paper_batch_size=96,
        epochs=2,
        efficiency={Precision.FP16: 0.220, Precision.FP32: 0.55},
        paper_depth=12,
        paper_params_m=110.0,
        seq_len=384,
    ),
    "bert-large": Benchmark(
        key="bert-large",
        display_name="BERT-L",
        domain="nlp",
        model_builder=bert_large,
        dataset=SQUAD_V11,
        global_batch=48,
        paper_batch_size=48,
        epochs=2,
        efficiency={Precision.FP16: 0.220, Precision.FP32: 0.55},
        paper_depth=24,
        paper_params_m=340.0,
        seq_len=384,
    ),
}


def get_benchmark(key: str) -> Benchmark:
    """Look up a benchmark by key (raises KeyError with suggestions)."""
    try:
        return BENCHMARKS[key]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {key!r}; available: "
            f"{', '.join(sorted(BENCHMARKS))}") from None


def benchmark_names() -> list[str]:
    """Benchmark keys in the paper's Table II order."""
    return ["mobilenetv2", "resnet50", "yolov5l", "bert-base", "bert-large"]
