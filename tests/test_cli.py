import json

import numpy as np
import pytest

from tokcomp.cli import cli_main
from tokcomp.images import write_pgm
from tokcomp.metrics import CompressionReport
from tokcomp.pipeline import (CompressionSchedule, no_compression_schedule,
                              schedule_to_doc)
from tokcomp.tokens import TokenGrid, read_luvc1, write_grid_json, write_luvc1
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
                 ["bench", "--m", -1]):
        assert run(argv) == 1, argv
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
    err = capsys.readouterr().err
    assert err.count("data error: schedule JSON") == 9


def test_semantic_errors_exit_2(grid_file, capsys):
    assert run(["spectrum", grid_file, "--keep", 99]) == 2
    assert run(["merge", grid_file, "--m", 99, "--out", "/dev/null"]) == 2
    capsys.readouterr()


def test_internal_errors_exit_3_with_a_traceback(grid_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise TypeError("broken on purpose")

    monkeypatch.setattr("tokcomp.spectral.spectral_prune", broken)
    assert run(["spectrum", grid_file]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError: broken on purpose" in err


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
