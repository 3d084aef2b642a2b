"""Print one sha256 per output family over fixed seeded inputs.

Compare its lines across two trees to show that outputs stay bit-identical:
`PYTHONPATH=src python scripts/output_digest.py`.  Families: merge outputs
(many grid sizes, zero tokens, tied features, scales 1e-200 to 1e3);
spectral_prune energies and kept sets; run_experiment reports without
timings_ms (demo and 32x32x64 schedules, seeds 0-4); the documents that
`tokcomp spectrum` prints for the toolkit_ops grid and DCT image, re-dumped
with sorted keys so that only their content counts, and the image's kept
set.
cli.files hashes every file that merge, baseline, spectrum (with heatmap
and mask), simulate, bench and theory write, with the report's wall times
blanked.
Over the same runs as the reports, the model families hash the merged sizes
of encoder_forward, the kept positions of every prune, and the encoder
output with the final LLM hidden states.  toymodel.attention hashes single
calls (d/heads 8/2, 32/4, 64/8 and the hires 64/4; n 1 to 1024) on
normal(0, 1) tokens and on uniform(0, 100) tokens, whose heads take the
exact-shift path, with and without merged sizes.  Its sizes include both
edges of the range in which heads run as two row halves (see
toymodel.BLAS_ONE_THREAD_MACS): n = 241/242 and 340/341 at 32/4, and
175/176 and 248/249 at 64/4.
"""

import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np

from tokcomp import CompressionSchedule, TokenGrid, TokenSequence, pipeline, run_experiment
from tokcomp.cli import cli_main
from tokcomp.images import write_pgm
from tokcomp.merging import merge_flat, merge_step
from tokcomp.spectral import FILTER_MODES, spectral_prune
from tokcomp.tokens import write_luvc1
from tokcomp.toymodel import STAGE_ENCODER, ToyModelConfig, attention, layer_weights

SHAPES = [(2, 2, 1), (3, 5, 3), (4, 4, 8), (7, 6, 4), (16, 16, 32), (32, 32, 64), (96, 96, 32)]
SCHEDULE = CompressionSchedule(enc_layers=6, merge_pairs=((0, 1), (2, 3), (4, 5)), m=2,
                               llm_layers=12, l0=6, l_delta=3, projector_factor=2)


def merge_outputs():
    for seed, (rows, cols, d) in enumerate(SHAPES):
        rng = np.random.default_rng(seed)
        for scale in (1e-200, 1e-3, 1.0, 1e3):  # 1e-200: squares underflow to 0
            data = scale * rng.normal(size=(rows, cols, d))
            data[rng.random((rows, cols)) < 0.1] = 0.0
            ties = np.eye(d)[rng.integers(0, d, (rows, cols))] * rng.integers(-2, 3, (rows, cols, 1))
            sizes = rng.integers(1, 4, size=(rows, cols)).astype(float)
            for feats in (data, ties):
                for m in range(1, min(rows, cols) // 2 + 1, max(1, min(rows, cols) // 8)):
                    out = merge_step(TokenGrid(rows, cols, d, feats, sizes), m)
                    yield out.data.tobytes() + out.sizes.tobytes()
                flat = merge_flat(feats.reshape(-1, d), sizes.reshape(-1), rows * cols // 2)
                yield flat[0].tobytes() + flat[1].tobytes()


def spectral_outputs():
    for n in (1, 2, 3, 7, 16, 100, 1024, 2304):
        seq = TokenSequence.from_data(np.random.default_rng(n).normal(size=(n, 16)))
        for ratio in (0.1, 0.25, 0.5):
            for mode in FILTER_MODES:
                _, ranking = spectral_prune(seq, ratio, n // 2, mode)
                yield ranking.energies.tobytes() + ranking.kept.tobytes()


ATTENTION_SIZES = {(8, 2): (1, 33, 257, 1024),
                   (32, 4): (1, 33, 241, 242, 257, 340, 341, 1024),
                   (64, 8): (1, 33, 257, 1024),
                   (64, 4): (1, 33, 175, 176, 248, 249, 257, 1024)}


def attention_outputs():
    for (d, heads), sizes_n in ATTENTION_SIZES.items():
        lw = layer_weights(ToyModelConfig(d=d, heads=heads, seed=d + heads), STAGE_ENCODER, 1)
        rng = np.random.default_rng(d * heads)
        for n in sizes_n:
            for x in (rng.normal(size=(n, d)), rng.uniform(0, 100, size=(n, d))):
                for sizes in (None, rng.integers(1, 6, size=n).astype(float)):
                    yield attention(x, lw, heads, sizes).tobytes()


@contextlib.contextmanager
def recording(name, keep):
    """Wrap tokcomp.pipeline.<name> so that each call appends keep(result) to a list."""
    real = getattr(pipeline, name)
    calls = []

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(keep(out))
        return out

    setattr(pipeline, name, wrapper)
    try:
        yield calls
    finally:
        setattr(pipeline, name, real)


def model_runs():
    """(report without timings_ms, encoder grid, kept sets, final hidden states) per run."""
    for side, d, text_len in ((16, 32, 8), (32, 64, 16)):
        for seed in range(5):
            grid = TokenGrid.from_data(np.random.default_rng(seed).normal(size=(side, side, d)))
            cfg = ToyModelConfig(d=d, heads=4, seed=seed, text_len=text_len)
            with (recording("spectral_prune", lambda out: out[1].kept) as kept,
                  recording("llm_forward", lambda out: out[0].data) as hidden):
                doc = run_experiment(grid, None, cfg, SCHEDULE).to_doc()
            del doc["timings_ms"]
            yield doc, pipeline.encoder_forward(grid, cfg, SCHEDULE), kept, hidden[0]


def stdout(argv):
    """What `tokcomp <argv>` prints; it must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(argv) == 0, argv
    return buf.getvalue()


def spectrum_stdouts():
    """(grid stdout, DCT image stdout) of `tokcomp spectrum` per seed."""
    with tempfile.TemporaryDirectory() as tmp:
        grid, image = str(Path(tmp, "grid.luvc")), str(Path(tmp, "image.pgm"))
        yy, xx = np.mgrid[0:256, 0:256]
        for seed in range(5):
            rng = np.random.default_rng(seed)
            write_luvc1(TokenGrid.from_data(rng.normal(size=(48, 48, 32))), grid)
            pixels = np.clip(96 + 0.25 * (yy + xx) + rng.normal(0, 24, size=yy.shape), 0, 255)
            write_pgm(image, np.rint(pixels).astype(np.uint8))
            yield stdout(["spectrum", grid]), stdout(["spectrum", image, "--feat", "dct"])


def cli_files():
    """The bytes of every file the CLI writes for a fixed set of commands."""
    with tempfile.TemporaryDirectory() as tmp:
        def path(name):
            return str(Path(tmp, name))

        grid = TokenGrid.from_data(np.random.default_rng(0).normal(size=(16, 16, 32)))
        write_luvc1(grid, path("grid.luvc"))
        cfg = ToyModelConfig(d=32, heads=4, seed=0, text_len=8)
        Path(path("sched.json")).write_text(json.dumps(pipeline.schedule_to_doc(cfg, SCHEDULE)))
        commands = [
            ["merge", path("grid.luvc"), "--m", "2", "--oim-steps", "3", "--out", path("merged")],
            ["baseline", path("grid.luvc"), "--kind", "bilinear", "--target-h", "6",
             "--target-w", "5", "--out", path("baseline")],
            ["spectrum", path("grid.luvc"), "--heatmap", path("heat"), "--mask", path("mask"),
             "--out", path("kept")],
            ["simulate", path("grid.luvc"), "--schedule", path("sched.json"), "--out", path("report")],
            ["bench", "--out", path("bench")],
            ["theory", "--out", path("theory")]]
        for argv in commands:
            stdout(argv)
        for name in ("merged", "baseline", "heat", "mask", "kept", "report", "bench", "theory"):
            # wall times are the only bytes that may differ from run to run
            yield re.sub(rb'"timings_ms": \{[^}]*\}', b'"timings_ms": {}',
                         Path(path(name)).read_bytes())


def canonical(text):
    """A JSON document's content, whatever whitespace it was written with."""
    return json.dumps(json.loads(text), sort_keys=True).encode()


def main():
    runs = list(spectrum_stdouts())
    models = list(model_runs())
    families = {
        "merge": merge_outputs(), "spectral_prune": spectral_outputs(),
        "reports": (json.dumps(doc, sort_keys=True).encode() for doc, *_ in models),
        "cli.spectrum.grid": (canonical(g) for g, _ in runs),
        "cli.spectrum.dct": (canonical(t) for _, t in runs),
        "cli.spectrum.dct.kept": (json.dumps(json.loads(t)["kept"]).encode() for _, t in runs),
        "cli.files": cli_files(),
        "model.sizes": (enc.sizes.tobytes() for _, enc, _, _ in models),
        "model.kept": (k.tobytes() for _, _, kept, _ in models for k in kept),
        "model.hidden": (enc.data.tobytes() + h.tobytes() for _, enc, _, h in models),
        "toymodel.attention": attention_outputs()}
    for name, chunks in families.items():
        print(f"{hashlib.sha256(b''.join(chunks)).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
