"""Tests of the benchmark itself: its checks, its span arithmetic, and that
its wrappers leave the program's outputs unchanged.

Run from the checkout root with:  python3 -m pytest -q perfbench/tests
"""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import reference
import run
from child import run_loop
from tracer import Span, Tracer, outermost, self_times
from workloads import TARGETS, WORKLOADS, check_targets


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, 0)


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.child", 2.0, 3.0, parent=1),
        _span("b", 5.0, 9.0, parent=0),
        _span("c", 8.0, 11.0, parent=0),  # overlaps b and runs past the root
    ]
    # root: 10 minus the union [1, 4] + [5, 10]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])


def test_outermost_folds_nested_passes_into_the_outer_one():
    spans = [_span("merging.merge_height", 0, 4), _span("merging.merge_width", 1, 3, parent=0),
             _span("merging.merge_width", 5, 6)]
    indexed = list(enumerate(spans))
    names = ("merging.merge_width", "merging.merge_height")
    assert outermost(spans, indexed, names) == [spans[0], spans[2]]
    assert outermost(spans, indexed, ("merging.merge_width",)) == [spans[1], spans[2]]


def test_tail_is_the_highest_percentile_with_ten_items_beyond():
    value, pct = run.tail([float(v) for v in range(20, 0, -1)])
    assert (value, pct) == (10.0, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


class _Corrupting:
    """Delegates to a workload and damages each item's output."""

    def __init__(self, workload, damage):
        self.workload, self.damage = workload, damage

    def __getattr__(self, name):
        return getattr(self.workload, name)

    def run_item(self, state, i):
        return self.damage(self.workload.run_item(state, i))


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    workload = WORKLOADS["demo_stream"]
    return workload, workload.setup(0, tmp_path_factory.mktemp("demo"))


def _loop(workload, state, items=2):
    with Tracer(check_targets()) as checker:
        return run_loop(workload, state, checker, 0.0, 0, keep_spans=False, min_items=items)


def test_intact_pipeline_items_pass(demo):
    loop = _loop(*demo)
    assert (len(loop["items"]), loop["failed"]) == (2, 0), loop["problems"]


@pytest.mark.parametrize("damage", [
    lambda r: replace(r, similarity_ops=r.similarity_ops + 1),
    lambda r: replace(r, flops_compressed=r.flops_compressed - 1),
    lambda r: replace(r, per_layer_counts=r.per_layer_counts[:-1]),
])
def test_a_mutated_report_is_a_failed_item(demo, damage):
    workload, state = demo
    loop = _loop(_Corrupting(workload, damage), state)
    assert loop["failed"] == len(loop["items"]) == 2


def test_a_wrong_kept_set_is_a_failed_item(demo, monkeypatch):
    from tokcomp import pipeline
    workload, state = demo
    real = pipeline.spectral_prune

    def descending_kept(*args, **kwargs):
        pruned, ranking = real(*args, **kwargs)
        return pruned, SimpleNamespace(energies=ranking.energies, kept=ranking.kept[::-1])

    monkeypatch.setattr(pipeline, "spectral_prune", descending_kept)
    loop = _loop(workload, state)
    assert loop["failed"] == 2
    assert any("kept indices" in p for p in loop["problems"])


def test_an_item_that_raises_is_a_failed_item(demo):
    workload, state = demo

    def boom(report):
        raise RuntimeError("boom")

    loop = _loop(_Corrupting(workload, boom), state)
    assert loop["failed"] == 2 and "boom" in loop["problems"][0]


def test_a_corrupted_cli_output_is_a_failed_item(tmp_path):
    workload = WORKLOADS["toolkit_ops"]
    state = workload.setup(0, tmp_path)

    def drop_a_kept_index(out):
        doc = json.loads(out[0][1])
        doc["kept"] = doc["kept"][1:] + [doc["kept"][0]]
        return [(0, json.dumps(doc))] + out[1:]

    assert _loop(workload, state, items=1)["failed"] == 0
    loop = _loop(_Corrupting(workload, drop_a_kept_index), state, items=1)
    assert loop["failed"] == 1


def test_traced_report_equals_untraced(demo):
    from tokcomp import pipeline
    workload, state = demo
    original = pipeline.block_forward

    def doc(report):
        return {k: v for k, v in report.to_doc().items() if k != "timings_ms"}

    plain = doc(workload.run_item(state, 3))
    with Tracer(TARGETS) as tracer:
        tracer.begin(3)
        traced = doc(workload.run_item(state, 3))
    assert traced == plain
    assert len(tracer.spans) > 100 and not tracer.missing
    assert pipeline.block_forward is original


def test_reference_agrees_with_the_program(demo):
    workload, state = demo
    assert reference.verify_pipeline(workload, state, grids=1) == []


def test_reference_catches_a_numerics_change(demo, monkeypatch):
    from tokcomp import toymodel
    workload, state = demo
    real = toymodel.feed_forward
    monkeypatch.setattr(toymodel, "feed_forward", lambda x, lw: real(x, lw) * (1 + 1e-7))
    problems = reference.verify_pipeline(workload, state, grids=1)
    assert any("encoder hidden states" in p for p in problems)


def test_a_missing_name_reads_missing_and_does_not_fail():
    from layers import summarize
    tracer = Tracer([t for t in TARGETS if t.span == "toymodel.softmax_rows"]
                    + [replace(TARGETS[0], attr="no_such_function", span="pipeline.encoder")])
    with tracer:
        pass
    assert tracer.missing == {"pipeline.encoder"}
    layers = summarize([], tracer.missing)
    assert layers["pipeline.encoder.ms"]["value"] == "missing"
    assert layers["toymodel.softmax_rows.ms"]["value"] == 0.0


def test_same_kept_tolerates_only_ties():
    energies = np.array([3.0, 1.0, 2.0, 2.0 * (1 + 1e-12)])
    assert reference.same_kept([0, 2], [0, 3], energies)
    assert not reference.same_kept([0, 1], [0, 3], energies)
