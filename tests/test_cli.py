import builtins
import contextlib
import io
import json
import os
import resource
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import write_grid_json
from tokcomp import merging, tokens
from tokcomp.cli import build_parser, cli_main
from tokcomp.images import load_grid, write_pgm
from tokcomp.pipeline import BASELINE_KINDS
from tokcomp.metrics import CompressionReport
from tokcomp.pipeline import (CompressionSchedule, no_compression_schedule,
                              schedule_to_doc)
from tokcomp.tokens import TokenGrid, read_luvc1, write_luvc1
from tokcomp.toymodel import ToyModelConfig


@pytest.fixture
def grid_file(tmp_path):
    rng = np.random.default_rng(0)
    grid = TokenGrid.from_data(rng.normal(size=(4, 4, 8)))
    path = tmp_path / "grid.luvc"
    write_luvc1(grid, path)
    return path


def run(argv):
    return cli_main([str(a) for a in argv])


def test_spectrum_emits_kept_and_heatmap(grid_file, tmp_path):
    out = tmp_path / "kept.json"
    heat = tmp_path / "heat.pgm"
    code = run(["spectrum", grid_file, "--keep", 5, "--out", out, "--heatmap", heat])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert len(doc["kept"]) == 5
    assert sorted(doc["kept"]) == doc["kept"]
    assert heat.exists()


def test_spectrum_mask_needs_a_heatmap(grid_file, tmp_path, capsys):
    mask = tmp_path / "mask.pgm"
    assert run(["spectrum", grid_file, "--mask", mask]) == 1
    # refused before the input is read, so a missing input changes nothing
    assert run(["spectrum", tmp_path / "absent.luvc", "--mask", mask]) == 1
    assert not mask.exists()
    assert capsys.readouterr().err.count("usage error: --mask needs --heatmap") == 2


def test_spectrum_keep_zero(grid_file, tmp_path, capsys):
    assert run(["spectrum", grid_file, "--keep", 0]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kept"] == []
    assert len(doc["energies"]) == 16


def test_spectrum_accepts_json_grid(tmp_path, capsys):
    grid = TokenGrid.from_data(np.random.default_rng(1).normal(size=(2, 3, 4)))
    path = tmp_path / "grid.json"
    write_grid_json(grid, path)
    assert run(["spectrum", path, "--keep", 2]) == 0
    assert len(json.loads(capsys.readouterr().out)["kept"]) == 2


def test_spectrum_accepts_image(tmp_path, capsys):
    img = np.random.default_rng(2).integers(0, 256, size=(16, 16)).astype(np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    assert run(["spectrum", path, "--patch", 8, "--feat", "dct", "--keep", 2]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 4


def test_spectrum_is_deterministic(grid_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["spectrum", grid_file, "--keep", 7, "--out", a])
    run(["spectrum", grid_file, "--keep", 7, "--out", b])
    assert a.read_bytes() == b.read_bytes()


def small_inputs(tmp_path):
    """One small grid as LUVC1 and as grid JSON, and a 32x32 PGM image."""
    grid = TokenGrid.from_data(np.random.default_rng(7).normal(size=(4, 4, 8)))
    paths = [tmp_path / "in.luvc", tmp_path / "in.json", tmp_path / "in.pgm"]
    write_luvc1(grid, paths[0])
    write_grid_json(grid, paths[1])
    write_pgm(paths[2], np.random.default_rng(8).integers(0, 256, size=(32, 32)).astype(np.uint8))
    return paths


def test_each_input_is_opened_once(tmp_path, monkeypatch):
    paths = small_inputs(tmp_path)
    real, opened = builtins.open, []

    def counting(file, *args, **kwargs):
        opened.append(file)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    for path in paths:
        opened.clear()
        assert run(["spectrum", path]) == 0
        assert opened.count(str(path)) == 1, (path, opened)


def test_piped_inputs_read_like_files(tmp_path, capsys):
    # a pipe can be neither reopened nor rewound, so its bytes must be read in one go
    outs = [tmp_path / "heat.pgm", tmp_path / "mask.pgm", tmp_path / "merged.luvc"]
    commands = [["spectrum", "--heatmap", outs[0], "--mask", outs[1]],
                ["merge", "--m", 1, "--oim-steps", 2, "--out", outs[2]]]
    for path in small_inputs(tmp_path):
        for command in commands:
            results = []
            for piped in (False, True):
                for out in outs:
                    out.unlink(missing_ok=True)
                r, w = os.pipe()
                os.write(w, path.read_bytes())  # well under a pipe's 64 KiB buffer
                os.close(w)
                try:
                    source = f"/dev/fd/{r}" if piped else path
                    code = run(command[:1] + [source] + command[1:])
                finally:
                    os.close(r)
                written = [out.read_bytes() for out in outs if out.exists()]
                results.append((code, capsys.readouterr(), written))
            assert results[0][0] == 0 and results[0][2], (path, command)
            assert results[1] == results[0], (path, command)


def test_merge_holds_at_most_two_grids(tmp_path):
    # each pass holds its input and output grids, never a third
    path, out = tmp_path / "g.luvc", tmp_path / "merged.luvc"
    write_luvc1(TokenGrid.from_data(np.random.default_rng(9).normal(size=(96, 96, 32))), path)
    tracemalloc.start()
    try:
        assert run(["merge", path, "--m", 2, "--oim-steps", 3, "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 96 * 96 * 32 * 8


def test_merge_writes_grid(grid_file, tmp_path, capsys):
    out = tmp_path / "merged.luvc"
    assert run(["merge", grid_file, "--m", 1, "--oim-steps", 1, "--out", out]) == 0
    doc = json.loads(capsys.readouterr().out)
    grid = read_luvc1(out)
    assert (grid.h, grid.w) == (3, 3)
    assert doc["tokens_after"] == 9
    assert doc["retained_fraction"] + doc["removed_fraction"] == pytest.approx(1.0)
    assert grid.sizes.sum() == 16


def test_simulate_no_compression(tmp_path, capsys):
    rng = np.random.default_rng(3)
    grid = TokenGrid.from_data(rng.normal(size=(4, 4, 16)))
    gpath = tmp_path / "g.luvc"
    write_luvc1(grid, gpath)
    cfg = ToyModelConfig(d=16, heads=2, seed=0, text_len=4)
    sched = no_compression_schedule(CompressionSchedule(enc_layers=2, llm_layers=4))
    spath = tmp_path / "sched.json"
    spath.write_text(json.dumps(schedule_to_doc(cfg, sched)))
    rpath = tmp_path / "report.json"
    assert run(["simulate", gpath, "--schedule", spath, "--out", rpath]) == 0
    report = CompressionReport.load(rpath)
    assert report.pruning_ratio == 0.0


def test_simulate_full_schedule(tmp_path):
    rng = np.random.default_rng(4)
    grid = TokenGrid.from_data(rng.normal(size=(8, 8, 16)))
    gpath = tmp_path / "g.luvc"
    write_luvc1(grid, gpath)
    cfg = ToyModelConfig(d=16, heads=2, seed=1, text_len=4)
    sched = CompressionSchedule(enc_layers=2, merge_pairs=((0, 1),), m=1,
                                llm_layers=6, l0=2, l_delta=2)
    spath = tmp_path / "sched.json"
    spath.write_text(json.dumps(schedule_to_doc(cfg, sched)))
    rpath = tmp_path / "report.json"
    assert run(["simulate", gpath, "--schedule", spath, "--out", rpath]) == 0
    report = CompressionReport.load(rpath)
    llm = [e for e in report.per_layer_counts if e.stage == "llm"]
    assert llm[-1].visual == 0


def test_simulate_schedule_overrides(tmp_path):
    rng = np.random.default_rng(5)
    grid = TokenGrid.from_data(rng.normal(size=(8, 8, 16)))
    gpath = tmp_path / "g.luvc"
    write_luvc1(grid, gpath)
    cfg = ToyModelConfig(d=16, heads=2, seed=1, text_len=4)
    sched = CompressionSchedule(enc_layers=0, llm_layers=8, l0=2, l_delta=2,
                                keep_ladder=(40, 20, 0))
    spath = tmp_path / "sched.json"
    spath.write_text(json.dumps(schedule_to_doc(cfg, sched)))
    rpath = tmp_path / "report.json"
    code = run(["simulate", gpath, "--schedule", spath, "--l0", 5, "--l-delta", 2,
                "--sigma-ratio", 0.5, "--out", rpath])
    assert code == 0
    report = CompressionReport.load(rpath)
    llm = [e.visual for e in report.per_layer_counts]
    assert llm[:5] == [64] * 5  # pruning moved to layer 5
    assert llm[-1] == 0


@pytest.mark.parametrize("feat", ["raw", "dct"])
def test_simulate_on_an_image(tmp_path, monkeypatch, feat):
    # image tokens enter the blocks unnormalised (8x8 patches of 0..255
    # pixels), so attention on them takes the exact row-max shift
    from tokcomp import toymodel
    calls = []
    real = toymodel._shift_by_row_max

    def counting(s):
        calls.append(s.shape)
        return real(s)

    monkeypatch.setattr(toymodel, "_shift_by_row_max", counting)
    img = np.random.default_rng(6).integers(0, 256, size=(64, 64)).astype(np.uint8)
    ipath = tmp_path / "img.pgm"
    write_pgm(ipath, img)
    cfg = ToyModelConfig(d=64, heads=4, seed=2, text_len=4)
    sched = CompressionSchedule(enc_layers=2, merge_pairs=((0, 1),), m=1,
                                llm_layers=4, l0=1, l_delta=1)
    spath = tmp_path / "sched.json"
    spath.write_text(json.dumps(schedule_to_doc(cfg, sched)))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert run(["simulate", ipath, "--patch", 8, "--feat", feat,
                    "--schedule", spath, "--out", out]) == 0
    docs = [json.loads(out.read_text()) for out in outs]
    for doc in docs:
        del doc["timings_ms"]  # wall times: the only field that may differ
    assert json.dumps(docs[0]) == json.dumps(docs[1])
    report = CompressionReport.load(outs[0])
    counts = [(e.stage, e.visual) for e in report.per_layer_counts]
    assert counts[:2] == [("encoder", 64), ("encoder", 56)]
    assert [v for stage, v in counts if stage == "llm"][-1] == 0
    assert 0 < report.flops_compressed < report.flops_base
    assert np.isfinite([report.retention_ratio, report.pruning_ratio]).all()
    assert calls


def test_demo_runs_and_toolkit_commands_start_no_thread(tmp_path, capsys):
    # no stage of a 16x16, d=32 run reaches toymodel.POOL_MIN_MACS
    rng = np.random.default_rng(5)
    gpath, spath, ipath = tmp_path / "g.luvc", tmp_path / "sched.json", tmp_path / "i.pgm"
    write_luvc1(TokenGrid.from_data(rng.normal(size=(16, 16, 32))), gpath)
    write_pgm(ipath, rng.integers(0, 256, size=(64, 64)).astype(np.uint8))
    sched = CompressionSchedule(enc_layers=6, merge_pairs=((0, 1), (2, 3), (4, 5)), m=2,
                                llm_layers=12, l0=6, l_delta=3, projector_factor=2)
    spath.write_text(json.dumps(schedule_to_doc(ToyModelConfig(d=32, heads=4, text_len=8), sched)))
    before = threading.active_count()
    for argv in (["simulate", gpath, "--schedule", spath],
                 ["spectrum", gpath, "--heatmap", tmp_path / "heat.pgm"],
                 ["spectrum", ipath, "--feat", "dct", "--patch", 8],
                 ["merge", gpath, "--m", 2, "--oim-steps", 3, "--out", tmp_path / "m.luvc"],
                 ["baseline", gpath, "--kind", "bilinear", "--target-h", 8, "--target-w", 8,
                  "--out", tmp_path / "b.luvc"]):
        assert run(argv) == 0, argv
        assert threading.active_count() == before, argv


def test_baseline_subcommand(grid_file, tmp_path, capsys):
    out = tmp_path / "base.luvc"
    code = run(["baseline", grid_file, "--kind", "random2d",
                "--target-h", 2, "--target-w", 3, "--seed", 5, "--out", out])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pruning_ratio"] == pytest.approx(1 - 6 / 16)
    assert read_luvc1(out).n_tokens == 6


def test_theory_trace_converges(tmp_path):
    out = tmp_path / "trace.csv"
    assert run(["theory", "--n", 64, "--t", 50, "--seed", 0, "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,ratio"
    assert len(lines) == 52
    assert float(lines[-1].split(",")[1]) < 1e-6


def test_bench_exponents(tmp_path):
    out = tmp_path / "bench.json"
    assert run(["bench", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["exponent_2d"] - 1.5) <= 0.15
    assert abs(doc["exponent_1d"] - 2.0) <= 0.1


def one_line_document(text):
    """The document in `text`, which must be one compact JSON line and its newline."""
    assert text.endswith("\n") and text.count("\n") == 1, text[:200]
    doc = json.loads(text)
    assert json.dumps(doc) + "\n" == text
    return doc


def test_json_documents_are_one_line(grid_file, tmp_path, capsys):
    cfg = ToyModelConfig(d=8, heads=2, seed=0, text_len=4)
    sched = CompressionSchedule(enc_layers=2, merge_pairs=((0, 1),), m=1, llm_layers=4,
                                l0=1, l_delta=2)
    spath = tmp_path / "sched.json"
    spath.write_text(json.dumps(schedule_to_doc(cfg, sched)))
    merged = tmp_path / "merged.luvc"
    printed = [["merge", grid_file, "--m", 1, "--out", merged],
               ["baseline", grid_file, "--kind", "bilinear", "--target-h", 2,
                "--target-w", 2, "--out", merged]]
    to_stdout_or_out = [["spectrum", grid_file, "--keep", 5], ["bench", "--sizes", "16,64"],
                        ["simulate", grid_file, "--schedule", spath]]
    for argv in printed + to_stdout_or_out:
        assert run(argv) == 0, argv
        assert one_line_document(capsys.readouterr().out)["schema"] == 1
    for argv in to_stdout_or_out:
        path = tmp_path / f"{argv[0]}.json"
        assert run(argv + ["--out", path]) == 0, argv
        assert one_line_document(path.read_text())["schema"] == 1
    report = CompressionReport.load(tmp_path / "simulate.json")
    written = one_line_document((tmp_path / "simulate.json").read_text())
    assert written == json.loads(json.dumps(report.to_doc()))
    assert capsys.readouterr().out == ""


def test_usage_errors_exit_1(capsys):
    assert run(["unknown-command"]) == 1
    assert run([]) == 1
    assert run(["theory", "--bogus-flag"]) == 1
    assert run(["spectrum", "image.pgm", "--patch", 0]) == 1
    for argv in (["merge", "g.luvc", "--out", "o.luvc", "--m", -1],
                 ["merge", "g.luvc", "--out", "o.luvc", "--oim-steps", -1],
                 ["spectrum", "g.luvc", "--keep", -1],
                 ["baseline", "g.luvc", "--kind", "nearest", "--out", "o.luvc", "--target-h", -1],
                 ["baseline", "g.luvc", "--kind", "nearest", "--out", "o.luvc", "--target-w", -1],
                 ["simulate", "g.luvc", "--schedule", "s.json", "--text-len", -1],
                 ["simulate", "g.luvc", "--schedule", "s.json", "--m", -1],
                 ["simulate", "g.luvc", "--schedule", "s.json", "--seed", -1],
                 ["simulate", "g.luvc", "--schedule", "s.json", "--seed", 2**64],
                 ["simulate", "g.luvc", "--schedule", "s.json", "--l0", -1],
                 ["simulate", "g.luvc", "--schedule", "s.json", "--l-delta", 0],
                 ["baseline", "g.luvc", "--kind", "nearest", "--out", "o.luvc", "--seed", -1],
                 ["theory", "--seed", -1],
                 ["theory", "--n", 0],
                 ["theory", "--t", -1],
                 ["bench", "--sizes", 16],
                 ["bench", "--sizes", "16,16"],
                 ["bench", "--sizes", "1,16"],
                 ["bench", "--sizes", "3,5"],
                 ["bench", "--sizes", "16,20"],
                 ["bench", "--m", -1]):
        assert run(argv) == 1, argv
    for ratio in (0, -1, 2, "nan"):
        for argv in (["spectrum", "g.luvc"], ["simulate", "g.luvc", "--schedule", "s.json"]):
            assert run(argv + ["--sigma-ratio", ratio]) == 1, (argv, ratio)
    assert capsys.readouterr().err != ""


def test_missing_file_exits_2(tmp_path, capsys):
    assert run(["spectrum", tmp_path / "absent.luvc", "--keep", 1]) == 2
    assert "error" in capsys.readouterr().err


def test_corrupt_grid_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.luvc"
    path.write_bytes(b"LUVC\x01garbage")
    assert run(["spectrum", path, "--keep", 1]) == 2
    assert capsys.readouterr().err != ""
    # grid JSON that is not UTF-8, or holds NaN, is a data error
    path.write_bytes(b'{"schema": 1, "h": 1, "w": 2, "d": 1, "data": [1, \xff], "sizes": [1, 1]}')
    assert run(["spectrum", path]) == 2
    assert capsys.readouterr().err.startswith("data error")
    # a JSON boolean is not a dimension, although operator.index takes it
    path.write_text('{"schema": 1, "h": true, "w": 2, "d": 1, "data": [1, 2], "sizes": [1, 1]}')
    assert run(["spectrum", path]) == 2
    assert capsys.readouterr().err.startswith("data error: grid JSON")
    path.write_text('{"schema": 1, "h": 2, "w": 2, "d": 1, "data": [1, NaN, 0, 2], '
                    '"sizes": [1, 1, 1, 1]}')
    assert run(["spectrum", path]) == 2
    assert run(["merge", path, "--m", 1, "--out", tmp_path / "out.luvc"]) == 2
    assert not (tmp_path / "out.luvc").exists()
    assert capsys.readouterr().err.count("data error") == 2
    # a grid that overflows float32 would write a LUVC1 file no reader accepts
    path.write_text('{"schema": 1, "h": 2, "w": 2, "d": 1, "data": [1, 1e39, 0, 2], '
                    '"sizes": [1, 1, 1, 1]}')
    (tmp_path / "out.luvc").write_bytes(b"old output")
    assert run(["merge", path, "--m", 0, "--out", tmp_path / "out.luvc"]) == 2
    assert (tmp_path / "out.luvc").read_bytes() == b"old output"
    assert capsys.readouterr().err.startswith("data error")


def test_corrupt_schedule_exits_2(grid_file, tmp_path, capsys):
    bad = tmp_path / "sched.json"
    bad.write_text("{not json")
    assert run(["simulate", grid_file, "--schedule", bad]) == 2
    bad.write_text(json.dumps({"schema": 1, "schedule": {"merge_pairs": [[0, 5]]}}))
    assert run(["simulate", grid_file, "--schedule", bad]) == 2
    bad.write_bytes(b'{"schema": 1, "schedule": {"filter_mode": "\xff"}}')
    assert run(["simulate", grid_file, "--schedule", bad]) == 2
    for schedule in ({"l0": 1.7}, {"bogus": 3}, {"m": "2"}):
        bad.write_text(json.dumps({"schema": 1, "schedule": schedule}))
        assert run(["simulate", grid_file, "--schedule", bad]) == 2, schedule
    bad.write_text(json.dumps({"schema": 1, "model": {"seed": 0.5}, "schedule": {}}))
    assert run(["simulate", grid_file, "--schedule", bad]) == 2
    # seeds outside [0, 2**64) would alias in-range seeds once masked to 64 bits
    for seed in (-1, 2**64):
        model = {"d": 8, "heads": 2, "seed": seed}
        bad.write_text(json.dumps({"schema": 1, "model": model, "schedule": {}}))
        assert run(["simulate", grid_file, "--schedule", bad]) == 2, seed
    # a JSON boolean is not a count or a ratio, although operator.index takes it
    model = {"d": 8, "heads": 2}
    for m, schedule in (({"d": 8, "heads": True}, {}), (model, {"m": True}),
                        (model, {"enc_layers": False}), (model, {"sigma_ratio": True}),
                        (model, {"merge_pairs": [[False, True]]}),
                        (model, {"keep_ladder": [True, False]})):
        bad.write_text(json.dumps({"schema": 1, "model": m, "schedule": schedule}))
        assert run(["simulate", grid_file, "--schedule", bad]) == 2, (m, schedule)
    err = capsys.readouterr().err
    assert err.count("data error: schedule JSON") == 15


def test_text_len_beyond_any_array_exits_2(grid_file, tmp_path, capsys):
    sched = tmp_path / "sched.json"
    model = {"d": 8, "heads": 2, "text_len": 10**30}
    sched.write_text(json.dumps({"schema": 1, "model": model, "schedule": {}}))
    assert run(["simulate", grid_file, "--schedule", sched]) == 2
    assert "data error: llm attention over 10000000000000000000000000000" in capsys.readouterr().err


def run_limited(argv, limit=700 << 20) -> int:
    """Exit code of cli_main(argv) in a forked child limited to `limit`
    bytes of address space, so that an unbounded read ends there."""
    pid = os.fork()
    if pid == 0:
        code = 99
        try:
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            code = run(argv)
            sys.stderr.flush()
        finally:
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def test_endless_stream_exits_2(monkeypatch, capfd):
    monkeypatch.setattr(tokens, "BYTE_BUDGET", 1 << 20)
    assert run_limited(["spectrum", "/dev/zero"]) == 2
    assert f"more than the {1 << 20}-byte budget" in capfd.readouterr().err


def test_input_past_the_byte_budget_exits_2(grid_file, monkeypatch, capsys):
    size = grid_file.stat().st_size
    for budget, code in ((size - 1, 2), (size, 0)):
        monkeypatch.setattr(tokens, "BYTE_BUDGET", budget)
        assert run(["spectrum", grid_file]) == code, budget
        r, w = os.pipe()
        os.write(w, grid_file.read_bytes())  # well under a pipe's 64 KiB buffer
        os.close(w)
        try:
            assert run(["spectrum", f"/dev/fd/{r}"]) == code, budget
        finally:
            os.close(r)
    err = capsys.readouterr().err
    assert err.count("data error: input ") == 2 and err.count(f"{size - 1}-byte budget") == 2


def test_score_block_past_the_byte_budget_exits_2(tmp_path, monkeypatch, capsys):
    gpath, sched = tmp_path / "g.luvc", tmp_path / "sched.json"
    write_luvc1(TokenGrid.from_data(np.random.default_rng(4).normal(size=(16, 16, 8))), gpath)
    sched.write_text(json.dumps({"schema": 1, "model": {"d": 8, "heads": 2},
                                 "schedule": {"enc_layers": 2, "llm_layers": 2}}))
    argv = ["simulate", gpath, "--schedule", sched, "--text-len"]
    monkeypatch.setattr(tokens, "BYTE_BUDGET", 1 << 20)
    assert run(argv + [100]) == 0
    assert run(argv + [400]) == 2
    err = capsys.readouterr().err
    assert "llm attention over 656 tokens computes 3442688 bytes of scores per head" in err
    monkeypatch.setattr(tokens, "BYTE_BUDGET", 8 * 256 * 256 - 1)
    assert run(argv + [0]) == 2
    assert "encoder attention over 256 tokens" in capsys.readouterr().err
    # at the full budget, 8 * 10256² bytes of scores per head are refused before any layer runs
    monkeypatch.undo()
    tracemalloc.start()
    try:
        assert run(argv + [10_000]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "llm attention over 10256 tokens" in capsys.readouterr().err


@pytest.mark.parametrize("ladder", [None, [4, 0]])
def test_huge_llm_layer_counts_exit_2(tmp_path, capsys, ladder):
    # 10**12 layers are counted, not listed: no tuple of pruning layers is built
    gpath, sched = tmp_path / "g.luvc", tmp_path / "sched.json"
    write_luvc1(TokenGrid.from_data(np.random.default_rng(4).normal(size=(16, 16, 8))), gpath)
    layers = {"enc_layers": 2, "llm_layers": 10**12}
    if ladder is not None:
        layers["keep_ladder"] = ladder
    sched.write_text(json.dumps({"schema": 1, "model": {"d": 8, "heads": 2}, "schedule": layers}))
    tracemalloc.start()
    try:
        assert run(["simulate", gpath, "--schedule", sched]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    steps = len(range(6, 10**12, 3))
    want = (f"256 visual tokens cannot feed {steps} strict pruning steps" if ladder is None
            else f"keep_ladder has 2 entries for {steps} pruning layers")
    assert want in capsys.readouterr().err


def test_semantic_errors_exit_2(grid_file, capsys):
    assert run(["spectrum", grid_file, "--keep", 99]) == 2
    assert run(["merge", grid_file, "--m", 99, "--out", "/dev/null"]) == 2
    capsys.readouterr()


def test_schedule_that_cannot_fit_the_grid_exits_2(grid_file, tmp_path, capsys):
    sched = tmp_path / "sched.json"
    model = {"d": 8, "heads": 2}
    for schedule, message in (
            ({"enc_layers": 0, "llm_layers": 0}, "no encoder or LLM layer"),
            ({"enc_layers": 2, "merge_pairs": [[0, 1]], "m": 3}, "lane of 4 tokens"),
            ({"enc_layers": 2, "merge_pairs": [[0, 1]], "m": 1, "projector_factor": 2},
             "merged grid 3x3")):
        sched.write_text(json.dumps({"schema": 1, "model": model, "schedule": schedule}))
        assert run(["simulate", grid_file, "--schedule", sched]) == 2, schedule
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err, err


def test_internal_errors_exit_3_with_a_traceback(grid_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise TypeError("broken on purpose")

    monkeypatch.setattr("tokcomp.spectral.spectral_prune", broken)
    assert run(["spectrum", grid_file]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError: broken on purpose" in err


def test_a_numpy_error_inside_tokcomp_exits_3(grid_file, tmp_path, monkeypatch, capsys):
    # numpy raises ValueError for its own shape errors: that is a bug, not bad input
    real = merging._unit_rows

    def broken(x, out=None):
        return real(x, out) + np.zeros(x.shape[-1] + 1)

    monkeypatch.setattr(merging, "_unit_rows", broken)
    assert run(["merge", grid_file, "--m", 1, "--out", tmp_path / "out.luvc"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "could not be broadcast" in err
    assert "data error" not in err


FUZZ_FORMATS = ("json", "luvc1", "pgm", "schedule")


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Valid bytes of each input format; every grid is 4x4 tokens of d = 4
    (the image through --patch 2), which the schedule's model takes."""
    rng = np.random.default_rng(26)
    grid = TokenGrid.from_data(rng.normal(size=(4, 4, 4)))
    schedule = {"schema": 1, "model": {"d": 4, "heads": 2, "seed": 3},
                "schedule": {"enc_layers": 2, "merge_pairs": [[0, 1]], "m": 1,
                             "llm_layers": 4, "l0": 1, "l_delta": 1}}
    tmp = tmp_path_factory.mktemp("fuzz")
    write_luvc1(grid, tmp / "luvc1")
    write_pgm(tmp / "pgm", rng.integers(0, 256, size=(8, 8), dtype=np.uint8))
    write_grid_json(grid, tmp / "json")
    # compact, so that a few byte edits cannot lengthen a number (a layer count)
    (tmp / "schedule").write_text(json.dumps(schedule, separators=(",", ":")))
    return {name: (tmp / name).read_bytes() for name in FUZZ_FORMATS}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FUZZ_FORMATS), st.sampled_from(BASELINE_KINDS), st.data())
def test_mutated_inputs_exit_0_or_2_and_outputs_read_back(fuzz_inputs, name, kind, data):
    blob = bytearray(fuzz_inputs[name])
    byte = st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789-.e"))
    for at, value in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), byte),
                                        min_size=1, max_size=4)):
        blob[at] = value
    blob = blob[:data.draw(st.integers(0, len(blob)) | st.just(len(blob)))]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {other: tmp / other for other in FUZZ_FORMATS}
        for other, path in files.items():
            path.write_bytes(bytes(blob) if other == name else fuzz_inputs[other])
        grid = files[name if name != "schedule" else "luvc1"]
        heat, mask, merged, base = (tmp / out for out in ("heat", "mask", "merged", "base"))
        runs = (
            (["spectrum", grid, "--heatmap", heat, "--mask", mask], (heat, mask)),
            (["merge", grid, "--m", 1, "--out", merged], (merged,)),
            (["baseline", grid, "--kind", kind, "--target-h", 2, "--target-w", 3,
              "--out", base], (base,)),
            (["simulate", grid, "--schedule", files["schedule"], "--text-len", 2], ()),
        )
        for argv, written in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv + ["--patch", 2])
            assert code in (0, 2) and "Traceback" not in err.getvalue(), (argv, err.getvalue())
            if code == 0:
                json.loads(out.getvalue())
                for path in written:
                    load_grid(path, 1)


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_parser_is_built_once_and_reused(grid_file, tmp_path, capsys):
    assert build_parser() is build_parser()
    calls = [["theory", "--n", 0],
             ["spectrum", tmp_path / "absent.luvc"],
             ["spectrum", grid_file, "--keep", 5],
             ["merge", grid_file, "--m", 1, "--out", tmp_path / "merged.luvc"],
             ["spectrum", grid_file]]
    first = []
    for argv in calls:
        build_parser.cache_clear()  # each call parsed by a freshly built parser
        code = run(argv)
        first.append((code, capsys.readouterr()))
    assert [code for code, _ in first] == [1, 2, 0, 0, 0]
    for argv, (code, out) in zip(calls + calls, first + first):  # one shared parser
        assert (run(argv), capsys.readouterr()) == (code, out), argv
