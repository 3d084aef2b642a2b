"""Analytic FLOPs accounting and compression-ratio bookkeeping.

A transformer layer over n tokens of width d is costed at its leading-order
n^2*d + n*d^2 (attention plus feed-forward; constant factors dropped since
only ratios are reported).  Reduction ratios compare the layer-averaged
visual token count of a compressed run against the same run without
compression.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import FormatError
from .tokens import read_json_doc, strict_index

REPORT_SCHEMA = 1


@dataclass(frozen=True)
class LayerCount:
    """Token population of one layer: what ran vs what would have run."""

    stage: str  # "encoder" | "llm"
    layer: int
    visual: int
    text: int
    base_visual: int

    def __post_init__(self):
        if self.stage not in ("encoder", "llm"):
            raise ValueError(f"unknown stage {self.stage!r}")
        for name in ("layer", "visual", "text", "base_visual"):
            object.__setattr__(self, name, strict_index(getattr(self, name)))
        if min(self.layer, self.visual, self.text, self.base_visual) < 0:
            raise ValueError("layer counts must be non-negative")


def layer_flops(n: int, d: int) -> int:
    """Leading-order cost of one layer: n^2*d + n*d^2."""
    if n < 0 or d < 1:
        raise ValueError(f"bad layer_flops args n={n} d={d}")
    return n * n * d + n * d * d


def pipeline_flops(trace: list[LayerCount] | tuple[LayerCount, ...], d: int) -> tuple[int, int]:
    """(base, compressed) totals over a per-layer trace.

    The base run replays the trace with every layer at its uncompressed
    visual count; text tokens are identical in both.
    """
    base = sum(layer_flops(e.base_visual + e.text, d) for e in trace)
    compressed = sum(layer_flops(e.visual + e.text, d) for e in trace)
    return base, compressed


def reduction_ratio(trace: list[LayerCount] | tuple[LayerCount, ...]) -> tuple[float, float]:
    """(retention, pruning) from layer-averaged visual counts.

    retention = mean(visual) / mean(base_visual); pruning is its complement.
    A run with no visual tokens at all retains trivially everything.
    """
    if not trace:
        raise ValueError("trace is empty")
    l_p = float(np.mean([e.visual for e in trace]))
    l_o = float(np.mean([e.base_visual for e in trace]))
    retention = 1.0 if l_o == 0 else l_p / l_o
    return retention, 1.0 - retention


@dataclass(frozen=True)
class CompressionReport:
    """Everything one pipeline run reports; serializes to a stable JSON doc."""

    per_layer_counts: tuple[LayerCount, ...]
    flops_base: int
    flops_compressed: int
    retention_ratio: float
    pruning_ratio: float
    similarity_ops: int
    timings_ms: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("flops_base", "flops_compressed", "similarity_ops"):
            object.__setattr__(self, name, strict_index(getattr(self, name)))
        if not abs(self.retention_ratio + self.pruning_ratio - 1.0) <= 1e-9:  # NaN fails
            raise ValueError("retention and pruning ratios must sum to 1")
        if self.flops_compressed > self.flops_base:
            raise ValueError("compressed FLOPs exceed base FLOPs")
        object.__setattr__(self, "per_layer_counts", tuple(self.per_layer_counts))

    def to_doc(self) -> dict:
        return {"schema": REPORT_SCHEMA, **asdict(self)}

    @classmethod
    def from_doc(cls, doc: dict) -> "CompressionReport":
        if not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA:
            raise FormatError("report JSON: missing schema marker")
        try:
            counts = tuple(
                LayerCount(e["stage"], e["layer"], e["visual"], e["text"], e["base_visual"])
                for e in doc["per_layer_counts"]
            )
            return cls(counts, doc["flops_base"], doc["flops_compressed"],
                       float(doc["retention_ratio"]), float(doc["pruning_ratio"]),
                       doc["similarity_ops"], dict(doc.get("timings_ms", {})))
        except (KeyError, TypeError, ValueError) as e:
            raise FormatError(f"report JSON: {e}") from e

    @classmethod
    def load(cls, path) -> "CompressionReport":
        return cls.from_doc(read_json_doc(path, "report JSON"))
