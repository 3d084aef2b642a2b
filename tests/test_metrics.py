import json
import math

import numpy as np
import pytest

from tokcomp.errors import FormatError
from tokcomp.metrics import (CompressionReport, LayerCount, layer_flops, pipeline_flops,
                             reduction_ratio)


def llm_trace(visual_counts, text=0, base=None):
    base = base if base is not None else max(visual_counts)
    return [LayerCount("llm", i, v, text, base) for i, v in enumerate(visual_counts)]


def test_layer_flops_value():
    assert layer_flops(100, 64) == 1_049_600


def test_layer_flops_zero_tokens():
    assert layer_flops(0, 64) == 0


def test_quadratic_term_scales_4x():
    d = 16
    full = layer_flops(200, d) - 200 * d * d
    half = layer_flops(100, d) - 100 * d * d
    assert full == 4 * half


def test_layer_flops_monotone():
    assert layer_flops(10, 8) < layer_flops(11, 8) < layer_flops(11, 9)


def test_pipeline_flops_constant_trace():
    trace = llm_trace([32, 32, 32], text=4, base=32)
    base, compressed = pipeline_flops(trace, 8)
    assert base == compressed == 3 * layer_flops(36, 8)


def test_pipeline_flops_drop_at_layer():
    trace = llm_trace([64, 64, 0, 0], text=0, base=64)
    base, compressed = pipeline_flops(trace, 4)
    assert base == 4 * layer_flops(64, 4)
    assert compressed == 2 * layer_flops(64, 4)


def test_reduction_no_compression():
    retention, pruning = reduction_ratio(llm_trace([256] * 4, base=256))
    assert retention == 1.0 and pruning == 0.0


def test_reduction_half_average():
    retention, pruning = reduction_ratio(llm_trace([256, 256, 0, 0], base=256))
    assert retention == pytest.approx(0.5)
    assert pruning == pytest.approx(0.5)


def test_reduction_mixed_stage_trace():
    trace = [LayerCount("encoder", 0, 16, 0, 16),
             LayerCount("encoder", 1, 9, 0, 16),
             LayerCount("llm", 0, 9, 4, 16),
             LayerCount("llm", 1, 2, 4, 16)]
    retention, pruning = reduction_ratio(trace)
    # hand-computed: (16 + 9 + 9 + 2) / 4 = 9, base 16
    assert retention == pytest.approx(9 / 16)
    assert pruning == pytest.approx(7 / 16)


def test_counts_must_be_non_negative():
    with pytest.raises(ValueError):
        LayerCount("llm", 0, -1, 0, 4)


def test_counts_and_stages_are_checked_where_they_are_built():
    # a report the library builds is one it can load back: fractional counts
    # and unknown stages are refused by the types, not only by from_doc
    with pytest.raises(TypeError):
        LayerCount("llm", 0, 2.5, 0, 4)
    with pytest.raises(ValueError):
        LayerCount("bogus", 0, 1, 0, 4)
    trace = (LayerCount("llm", 0, 4, 0, 4),)
    for key in ("flops_base", "flops_compressed", "similarity_ops"):
        args = dict(flops_base=10, flops_compressed=5, similarity_ops=0)
        args[key] = 1.5
        with pytest.raises(TypeError):
            CompressionReport(trace, args["flops_base"], args["flops_compressed"],
                              1.0, 0.0, args["similarity_ops"])
    # integer-likes are coerced to int, so the report serializes
    e = LayerCount("encoder", np.int64(1), np.int32(3), 0, np.uint8(4))
    assert (e.layer, e.visual, e.base_visual) == (1, 3, 4)
    assert all(type(v) is int for v in (e.layer, e.visual, e.text, e.base_visual))
    report = CompressionReport((e,), np.int64(8), np.int64(4), 0.75, 0.25, np.int64(2))
    assert CompressionReport.from_doc(json.loads(json.dumps(report.to_doc()))) == report


def report_fixture():
    trace = tuple(llm_trace([8, 4, 0], text=2, base=8))
    base, compressed = pipeline_flops(trace, 4)
    retention, pruning = reduction_ratio(trace)
    return CompressionReport(trace, base, compressed, retention, pruning, 12,
                             {"total_ms": 1.5})


def test_report_round_trip(tmp_path):
    report = report_fixture()
    path = tmp_path / "report.json"
    report.save(path)
    back = CompressionReport.load(path)
    assert back == report


def test_report_validates_ratio_sum():
    with pytest.raises(ValueError):
        CompressionReport((), 10, 5, 0.9, 0.2, 0)
    with pytest.raises(ValueError):
        CompressionReport((), 1, 0, math.nan, math.nan, 0)


def test_report_rejects_flops_inflation():
    with pytest.raises(ValueError):
        CompressionReport((), 5, 10, 0.5, 0.5, 0)


def test_report_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 99}')
    with pytest.raises(FormatError):
        CompressionReport.load(path)
    path.write_bytes(b'{"schema": 1, "stage": "\xff"}')
    with pytest.raises(FormatError):
        CompressionReport.load(path)
    doc = report_fixture().to_doc()
    doc["retention_ratio"] = doc["pruning_ratio"] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        CompressionReport.load(path)
    # counts are integers, never truncated: each is refused at value + 0.5
    for key in ("layer", "visual", "text", "base_visual"):
        doc = report_fixture().to_doc()
        doc["per_layer_counts"][0][key] += 0.5
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            CompressionReport.load(path)
    for key in ("flops_base", "flops_compressed", "similarity_ops"):
        doc = report_fixture().to_doc()
        doc[key] += 0.5
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            CompressionReport.load(path)
    # a JSON boolean is not a count, although operator.index takes it
    for key in ("layer", "visual", "text", "base_visual"):
        doc = report_fixture().to_doc()
        doc["per_layer_counts"][0][key] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="True"):
            CompressionReport.load(path)
    for key in ("flops_base", "flops_compressed", "similarity_ops"):
        doc = report_fixture().to_doc()
        doc["flops_compressed"] = 0  # so that a count of 1 would be a valid report
        doc[key] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="True"):
            CompressionReport.load(path)
