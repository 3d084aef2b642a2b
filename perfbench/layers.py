"""Per-layer metrics of one traced item, and their medians over a run.

`.ms` metrics are the inclusive time of the outermost spans of that name
(a merge_width call made inside merge_height belongs to the height pass);
`.self_ms` subtracts the time spent in wrapped children.  Counts are per
item.  A metric whose spans could not be installed reads ``missing``; one
whose layer the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from tracer import outermost
from workloads import MERGE_SPANS

MB = 2 ** 20

# metric name -> (unit, span names it is computed from)
PER_LAYER = {
    "toymodel.attention.self_ms": ("ms", ("toymodel.attention",)),
    "toymodel.softmax_rows.ms": ("ms", ("toymodel.softmax_rows",)),
    "toymodel.feed_forward.ms": ("ms", ("toymodel.feed_forward",)),
    "toymodel.attention.score_mb_max": ("MB", ("toymodel.attention",)),
    "toymodel.layer_weights.ms": ("ms", ("toymodel.layer_weights",)),
    "toymodel.layer_weights.calls": ("count", ("toymodel.layer_weights",)),
    "merging.merge_width.ms": ("ms", MERGE_SPANS),
    "merging.merge_height.ms": ("ms", MERGE_SPANS),
    "merging.sim_ops": ("count", MERGE_SPANS),
    "merging.tokens_removed": ("count", MERGE_SPANS),
    "spectral.spectral_prune.ms": ("ms", ("spectral.spectral_prune",)),
    "spectral.dft.ms": ("ms", ("spectral.dft",)),
    "spectral.tokens_in": ("count", ("spectral.spectral_prune",)),
    "spectral.keep_share": ("fraction", ("spectral.spectral_prune",)),
    "spectral.pow2_share": ("fraction", ("spectral.dft",)),
    "pipeline.encoder.ms": ("ms", ("pipeline.encoder",)),
    "pipeline.projector.ms": ("ms", ("pipeline.projector",)),
    "pipeline.llm.ms": ("ms", ("pipeline.llm",)),
    "pipeline.baseline_compress.ms": ("ms", ("pipeline.baseline_compress",)),
    "tokens.construct.ms": ("ms", ("tokens.construct",)),
    "tokens.construct.calls": ("count", ("tokens.construct",)),
    "tokens.copy_mb": ("MB", ("tokens.construct",)),
    "tokens.io.ms": ("ms", ("tokens.io",)),
    "tokens.io.mb": ("MB", ("tokens.io",)),
    "images.read.ms": ("ms", ("images.read",)),
    "images.featurize.ms": ("ms", ("images.featurize",)),
    "images.heatmap.ms": ("ms", ("images.heatmap",)),
    "cli.self_ms": ("ms", ("cli.cli_main",)),
    "metrics.flops_ratio": ("ratio", ()),
    "metrics.retention_ratio": ("ratio", ()),
    "metrics.similarity_ops": ("count", ()),
}


def item_metrics(tracer, selfs: list[float], item: int, fields: dict) -> dict:
    """Every PER_LAYER value for one item.  selfs = self_times(tracer.spans)."""
    indexed = tracer.item_spans(item)

    def outer(*names):
        return outermost(tracer.spans, indexed, names)

    def ms(*names):
        return 1e3 * sum(s.duration for s in outer(*names))

    def self_ms(name):
        return 1e3 * sum(selfs[j] for j, s in indexed if s.name == name)

    def total(name, key):
        return sum(s.counts[key] for s in outer(name))

    merges = outer(*MERGE_SPANS)
    dfts = outer("spectral.dft")
    tokens_in = total("spectral.spectral_prune", "tokens_in")
    out = {
        "toymodel.attention.self_ms": self_ms("toymodel.attention"),
        "toymodel.softmax_rows.ms": ms("toymodel.softmax_rows"),
        "toymodel.feed_forward.ms": ms("toymodel.feed_forward"),
        "toymodel.attention.score_mb_max": max(
            (s.counts["score_bytes"] for s in outer("toymodel.attention")), default=0) / MB,
        "toymodel.layer_weights.ms": ms("toymodel.layer_weights"),
        "toymodel.layer_weights.calls": len(outer("toymodel.layer_weights")),
        "merging.merge_width.ms": 1e3 * sum(s.duration for s in merges
                                            if s.name == "merging.merge_width"),
        "merging.merge_height.ms": 1e3 * sum(s.duration for s in merges
                                             if s.name == "merging.merge_height"),
        "merging.sim_ops": sum(s.counts["sim_ops"] for s in merges),
        "merging.tokens_removed": sum(s.counts["removed"] for s in merges),
        "spectral.spectral_prune.ms": ms("spectral.spectral_prune"),
        "spectral.dft.ms": ms("spectral.dft"),
        "spectral.tokens_in": tokens_in,
        "spectral.keep_share": (total("spectral.spectral_prune", "kept_n") / tokens_in
                                if tokens_in else 0.0),
        "spectral.pow2_share": (sum(s.counts["pow2"] for s in dfts) / len(dfts)
                                if dfts else 0.0),
        "pipeline.encoder.ms": ms("pipeline.encoder"),
        "pipeline.projector.ms": ms("pipeline.projector"),
        "pipeline.llm.ms": ms("pipeline.llm"),
        "pipeline.baseline_compress.ms": ms("pipeline.baseline_compress"),
        "tokens.construct.ms": ms("tokens.construct"),
        "tokens.construct.calls": len(outer("tokens.construct")),
        "tokens.copy_mb": total("tokens.construct", "bytes") / MB,
        "tokens.io.ms": ms("tokens.io"),
        "tokens.io.mb": total("tokens.io", "bytes") / MB,
        "images.read.ms": ms("images.read"),
        "images.featurize.ms": ms("images.featurize"),
        "images.heatmap.ms": ms("images.heatmap"),
        "cli.self_ms": self_ms("cli.cli_main"),
    }
    out.update(fields)
    return out


def summarize(items: list[dict], missing: set[str]) -> dict:
    """Median over items of each metric; ``missing`` where a span is gone."""
    result = {}
    for name, (unit, spans) in PER_LAYER.items():
        if missing.intersection(spans):
            value = "missing"
        else:
            value = statistics.median(it[name] for it in items) if items else 0.0
        result[name] = {"value": value, "unit": unit}
    return result
