"""The three benchmark workloads: inputs, one item, and the item's checks.

Each workload makes its inputs from the workload seed in `setup`; the
program only ever sees those inputs.  `run_item` does one unit of work
through tokcomp's public entry points and `check` returns the problems
found in its output (an empty list means the item passed).

Checks that need to see inside a pipeline item (merge passes, kept sets,
hidden states) read the spans of the wrappers in `CHECK_SPANS`, which are
installed in every run, traced or not.  Everything the checks compare
against is derived here from the schedule alone, never from the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from tokcomp import cli, metrics, pipeline, tokens, toymodel

from tracer import Target, outermost

MERGE_SPANS = ("merging.merge_width", "merging.merge_height")
CHECK_SPANS = MERGE_SPANS + ("spectral.spectral_prune", "pipeline.llm")

# The README / scripts/run_demo.py schedule, shared by both pipeline workloads.
SCHEDULE = dict(enc_layers=6, merge_pairs=((0, 1), (2, 3), (4, 5)), m=2,
                llm_layers=12, l0=6, l_delta=3, projector_factor=2)
HEADS = 4


# ---------------------------------------------------------------------------
# Counters attached to spans.  Each reads the call's arguments and result.

def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _merge_count(axis):
    def count(args, kwargs, out):
        grid, m = _arg(args, kwargs, 0, "grid"), _arg(args, kwargs, 1, "m")
        lanes, lane = (grid.h, grid.w) if axis == "width" else (grid.w, grid.h)
        return {"in_hw": (grid.h, grid.w), "out_hw": (out.h, out.w),
                "sim_ops": lanes * ((lane + 1) // 2) * (lane // 2) if m else 0,
                "removed": grid.n_tokens - out.n_tokens,
                "sizes_in": float(grid.sizes.sum()), "sizes_out": float(out.sizes.sum()),
                "finite": bool(np.isfinite(out.data).all())}
    return count


def _prune_count(args, kwargs, out):
    seq, keep = _arg(args, kwargs, 0, "seq"), _arg(args, kwargs, 2, "keep")
    pruned, ranking = out
    return {"tokens_in": seq.n, "keep": keep, "kept": ranking.kept, "kept_n": len(ranking.kept),
            "finite": bool(np.isfinite(pruned.data).all() and np.isfinite(ranking.energies).all())}


def _dft_count(args, kwargs, out):
    n = _arg(args, kwargs, 0, "seq").n
    return {"pow2": n > 0 and n & (n - 1) == 0}


def _llm_count(args, kwargs, out):
    hidden = out[0]
    return {"n": hidden.n, "finite": bool(np.isfinite(hidden.data).all())}


def _attention_count(args, kwargs, out):
    n = _arg(args, kwargs, 0, "x").shape[0]
    return {"score_bytes": _arg(args, kwargs, 2, "heads") * n * n * 8}


def _construct_count(args, kwargs, out):
    return {"bytes": sum(v.nbytes for v in vars(args[0]).values() if isinstance(v, np.ndarray))}


def _luvc1_bytes(grid):
    return 17 + 4 * grid.n_tokens * grid.d + 4 * grid.n_tokens


def _io_count(args, kwargs, out):
    grid = out if out is not None else _arg(args, kwargs, 0, "grid")
    return {"bytes": _luvc1_bytes(grid)}


_P, _T, _M, _S = "tokcomp.pipeline", "tokcomp.toymodel", "tokcomp.merging", "tokcomp.spectral"
TARGETS = (
    Target(_P, "run_experiment", "pipeline.run_experiment"),
    Target(_P, "_encoder_run", "pipeline.encoder"),
    Target(_P, "projector_pixel_shuffle", "pipeline.projector"),
    Target(_P, "_connect", "pipeline.projector"),
    Target(_P, "make_text_sequence", "pipeline.projector"),
    Target(_P, "llm_forward", "pipeline.llm", _llm_count),
    Target(_P, "baseline_compress", "pipeline.baseline_compress"),
    Target(_P, "block_forward", "toymodel.block_forward"),
    Target(_P, "layer_weights", "toymodel.layer_weights"),
    Target(_T, "attention", "toymodel.attention", _attention_count),
    Target(_T, "softmax_rows", "toymodel.softmax_rows"),
    Target(_T, "feed_forward", "toymodel.feed_forward"),
    Target(_P, "merge_width", "merging.merge_width", _merge_count("width")),
    Target(_P, "merge_height", "merging.merge_height", _merge_count("height")),
    Target(_M, "merge_width", "merging.merge_width", _merge_count("width")),
    Target(_M, "merge_height", "merging.merge_height", _merge_count("height")),
    Target(_P, "spectral_prune", "spectral.spectral_prune", _prune_count),
    Target(_S, "spectral_prune", "spectral.spectral_prune", _prune_count),
    Target(_S, "dft_forward", "spectral.dft", _dft_count),
    Target(_S, "dft_inverse", "spectral.dft", _dft_count),
    Target("tokcomp.tokens.TokenGrid", "__post_init__", "tokens.construct", _construct_count),
    Target("tokcomp.tokens.TokenSequence", "__post_init__", "tokens.construct", _construct_count),
    Target("tokcomp.tokens.ComplexSequence", "__post_init__", "tokens.construct", _construct_count),
    Target("tokcomp.cli", "read_luvc1", "tokens.io", _io_count),
    Target("tokcomp.cli", "write_luvc1", "tokens.io", _io_count),
    Target("tokcomp.images", "read_image", "images.read"),
    Target("tokcomp.images", "featurize_image", "images.featurize"),
    Target("tokcomp.images", "emit_energy_heatmap", "images.heatmap"),
    Target("tokcomp.cli", "cli_main", "cli.cli_main"),
)


def check_targets():
    return [t for t in TARGETS if t.span in CHECK_SPANS]


# ---------------------------------------------------------------------------
# Pipeline workloads.

def keep_ladder(n_visual: int, n_steps: int) -> list[int]:
    """The documented default ladder: a linear ramp to 0, made strict."""
    if n_steps == 0:
        return []
    ladder = [round(n_visual * (n_steps - i) / n_steps) for i in range(1, n_steps + 1)]
    ladder[-1] = 0
    for j in range(n_steps - 2, -1, -1):
        ladder[j] = max(ladder[j], ladder[j + 1] + 1)
    return ladder


def schedule_ledger(side: int, text_len: int, sched: dict) -> dict:
    """Everything a run's counts must be, worked out from the schedule alone."""
    h = w = side
    m, f = sched["m"], sched["projector_factor"]
    width_at = {i for i, _ in sched["merge_pairs"]}
    height_at = {j for _, j in sched["merge_pairs"]}
    counts, passes, sim_ops = [], [], 0
    for layer in range(sched["enc_layers"]):
        counts.append(("encoder", layer, h * w, 0, side * side))
        if layer in width_at:
            passes.append(("merging.merge_width", (h, w), (h, w - m)))
            sim_ops += h * ((w + 1) // 2) * (w // 2)
            w -= m
        elif layer in height_at:
            passes.append(("merging.merge_height", (h, w), (h - m, w)))
            sim_ops += w * ((h + 1) // 2) * (h // 2)
            h -= m
    visual, base = (h // f) * (w // f), (side // f) ** 2
    spu_layers = list(range(sched["l0"], sched["llm_layers"], sched["l_delta"]))
    ladder = keep_ladder(visual, len(spu_layers))
    keep_at = dict(zip(spu_layers, ladder))
    prunes = []
    for layer in range(sched["llm_layers"]):
        if layer in keep_at:
            prunes.append((visual, keep_at[layer]))
            visual = keep_at[layer]
        counts.append(("llm", layer, visual, text_len, base))
    mean_visual = sum(c[2] for c in counts) / len(counts)
    mean_base = sum(c[4] for c in counts) / len(counts)
    return {"counts": tuple(counts), "passes": passes, "prunes": prunes,
            "sim_ops": sim_ops, "final_n": visual + text_len,
            "retention": mean_visual / mean_base}


@dataclass(frozen=True)
class PipelineWorkload:
    """One `run_experiment` per item, on the next grid of a seeded pool."""

    name: str
    side: int
    d: int
    text_len: int
    pool: int
    warmup: int

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        grids = [tokens.TokenGrid.from_data(rng.normal(size=(self.side, self.side, self.d)))
                 for _ in range(self.pool)]
        cfg = toymodel.ToyModelConfig(d=self.d, heads=HEADS, seed=seed, text_len=self.text_len)
        ledger = schedule_ledger(self.side, self.text_len, SCHEDULE)
        flops = metrics.pipeline_flops([metrics.LayerCount(*c) for c in ledger["counts"]], self.d)
        return {"grids": grids, "cfg": cfg, "sched": pipeline.CompressionSchedule(**SCHEDULE),
                "ledger": ledger, "flops": flops}

    def run_item(self, state: dict, i: int):
        return pipeline.run_experiment(state["grids"][i % self.pool], None,
                                       state["cfg"], state["sched"])

    def check(self, state: dict, report, tracer, i: int) -> list[str]:
        ledger, problems = state["ledger"], []
        counts = tuple((e.stage, e.layer, e.visual, e.text, e.base_visual)
                       for e in report.per_layer_counts)
        if counts != ledger["counts"]:
            problems.append("per-layer counts differ from the schedule")
        if (report.flops_base, report.flops_compressed) != state["flops"]:
            problems.append(f"flops {report.flops_base, report.flops_compressed} "
                            f"!= {state['flops']} from the schedule's counts")
        if (abs(report.retention_ratio - ledger["retention"]) > 1e-12
                or abs(report.retention_ratio + report.pruning_ratio - 1.0) > 1e-12):
            problems.append("retention/pruning ratios differ from the schedule")
        if report.similarity_ops != ledger["sim_ops"]:
            problems.append(f"similarity_ops {report.similarity_ops} != schedule {ledger['sim_ops']}")
        return problems + self._check_spans(state, report, tracer, i)

    def _check_spans(self, state, report, tracer, i) -> list[str]:
        ledger, problems = state["ledger"], []
        indexed = tracer.item_spans(i)
        if not tracer.missing & set(MERGE_SPANS):
            passes = outermost(tracer.spans, indexed, MERGE_SPANS)
            got = [(s.name, s.counts["in_hw"], s.counts["out_hw"]) for s in passes]
            if got != ledger["passes"]:
                problems.append(f"merge passes {got} != schedule {ledger['passes']}")
            if any(s.counts["sizes_in"] != s.counts["sizes_out"] for s in passes):
                problems.append("a merge pass did not conserve total size")
            if not all(s.counts["finite"] for s in passes):
                problems.append("a merge pass produced non-finite tokens")
            counted = sum(s.counts["sim_ops"] for s in passes)
            if counted != report.similarity_ops:
                problems.append(f"report similarity_ops {report.similarity_ops} "
                                f"!= counted merging.sim_ops {counted}")
        if "spectral.spectral_prune" not in tracer.missing:
            prunes = outermost(tracer.spans, indexed, ("spectral.spectral_prune",))
            got = [(s.counts["tokens_in"], s.counts["keep"]) for s in prunes]
            if got != ledger["prunes"]:
                problems.append(f"prunes {got} != ladder {ledger['prunes']}")
            for s in prunes:
                kept = np.asarray(s.counts["kept"])
                if (len(kept) != s.counts["keep"] or np.any(np.diff(kept) <= 0)
                        or (kept.size and (kept[0] < 0 or kept[-1] >= s.counts["tokens_in"]))):
                    problems.append("kept indices are not an ascending set of the ladder length")
                if not s.counts["finite"]:
                    problems.append("a prune produced non-finite values")
        if "pipeline.llm" not in tracer.missing:
            llm = outermost(tracer.spans, indexed, ("pipeline.llm",))
            if len(llm) != 1 or llm[0].counts["n"] != ledger["final_n"]:
                problems.append("LLM output has the wrong token count")
            elif not llm[0].counts["finite"]:
                problems.append("LLM hidden states are not finite")
        return problems

    def report_fields(self, report) -> dict:
        return {"metrics.flops_ratio": report.flops_compressed / report.flops_base,
                "metrics.retention_ratio": report.retention_ratio,
                "metrics.similarity_ops": report.similarity_ops}


# ---------------------------------------------------------------------------
# Toolkit workload: four CLI commands per item on files written in set-up.
# LUVC1 files are written and read here rather than with tokcomp.tokens, so
# the checks do not lean on the code under test.

def write_luvc1(path: Path, data: np.ndarray) -> None:
    h, w, d = data.shape
    path.write_bytes(b"LUVC" + struct.pack("<BIII", 1, h, w, d)
                     + data.astype("<f4").tobytes() + np.ones((h, w), "<f4").tobytes())


def read_luvc1(blob: bytes) -> tuple[np.ndarray, np.ndarray]:
    if blob[:5] != b"LUVC\x01" or len(blob) < 17:
        raise ValueError("not a LUVC1 v1 file")
    h, w, d = struct.unpack_from("<III", blob, 5)
    if len(blob) != 17 + 4 * h * w * d + 4 * h * w:
        raise ValueError("LUVC1 length does not match its header")
    data = np.frombuffer(blob, "<f4", h * w * d, 17).reshape(h, w, d)
    sizes = np.frombuffer(blob, "<f4", h * w, 17 + 4 * h * w * d).reshape(h, w)
    return data, sizes


def pgm_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return b"P5\n%d %d\n255\n" % (w, h) + pixels.astype(np.uint8).tobytes()


def topk_ascending(energies: np.ndarray, keep: int) -> np.ndarray:
    return np.sort(np.argsort(-energies, kind="stable")[:keep])


@dataclass(frozen=True)
class ToolkitWorkload:
    """One round of four CLI commands per item, on files written in set-up:
    spectrum with a heatmap (n=2304, Bluestein), spectrum of a DCT-featurized
    image (n=1024, radix-2), three merge steps, and a bilinear baseline."""

    name: str = "toolkit_ops"
    warmup: int = 1
    spectrum_side: int = 48
    image_side: int = 256
    patch: int = 8
    merge_side: int = 96
    d: int = 32
    oim_steps: int = 3
    m: int = 2
    baseline_side: int = 48

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        files = {k: workdir / v for k, v in (
            ("g48", "spectrum.luvc"), ("img", "image.pgm"), ("g96", "merge.luvc"),
            ("heat", "heat.pgm"), ("merged", "merged.luvc"), ("base", "baseline.luvc"))}
        g48 = rng.normal(size=(self.spectrum_side, self.spectrum_side, self.d))
        write_luvc1(files["g48"], g48)
        # smooth gradient plus noise, so DCT features are not white
        yy, xx = np.mgrid[0:self.image_side, 0:self.image_side]
        img = np.clip(96 + 0.25 * (yy + xx) + rng.normal(0, 24, size=yy.shape), 0, 255)
        img = np.rint(img).astype(np.uint8)
        files["img"].write_bytes(pgm_bytes(img))
        write_luvc1(files["g96"], rng.normal(size=(self.merge_side, self.merge_side, self.d)))
        s = {k: str(v) for k, v in files.items()}
        argv = [
            ["spectrum", s["g48"], "--heatmap", s["heat"]],
            ["spectrum", s["img"], "--feat", "dct", "--patch", str(self.patch)],
            ["merge", s["g96"], "--m", str(self.m), "--oim-steps", str(self.oim_steps),
             "--out", s["merged"]],
            ["baseline", s["g96"], "--kind", "bilinear", "--target-h", str(self.baseline_side),
             "--target-w", str(self.baseline_side), "--out", s["base"]],
        ]
        return {"files": files, "argv": argv, "image": img, "digest": None}

    def run_item(self, state: dict, i: int):
        out = []
        for argv in state["argv"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.cli_main(argv)
            out.append((rc, buf.getvalue()))
        return out

    def check(self, state: dict, out, tracer, i: int) -> list[str]:
        files, problems = state["files"], []
        if [rc for rc, _ in out] != [0, 0, 0, 0]:
            return [f"exit codes {[rc for rc, _ in out]}"]
        try:
            docs = [json.loads(text) for _, text in out]
            blobs = {k: files[k].read_bytes() for k in ("heat", "merged", "base")}
        except (ValueError, OSError) as e:
            return [f"unreadable output: {e}"]
        problems += self._check_spectrum(docs[0], self.spectrum_side ** 2)
        problems += self._check_spectrum(docs[1], (self.image_side // self.patch) ** 2)
        side = self.spectrum_side
        header = b"P5\n%d %d\n255\n" % (side, side)
        if not blobs["heat"].startswith(header) or len(blobs["heat"]) != len(header) + side * side:
            problems.append(f"heatmap is not a {side}x{side} PGM")
        merged_side = self.merge_side - self.m * self.oim_steps
        if (docs[2].get("h"), docs[2].get("w"), docs[2].get("tokens_after")) != (
                merged_side, merged_side, merged_side ** 2):
            problems.append(f"merge summary {docs[2]}")
        problems += self._check_grid(blobs["merged"], merged_side, float(self.merge_side ** 2))
        if (docs[3].get("h"), docs[3].get("w")) != (self.baseline_side, self.baseline_side):
            problems.append(f"baseline summary {docs[3]}")
        problems += self._check_grid(blobs["base"], self.baseline_side, float(self.baseline_side ** 2))
        digest = hashlib.sha256()
        for _, text in out:
            digest.update(text.encode())
        for k in ("heat", "merged", "base"):
            digest.update(blobs[k])
        if state["digest"] is None:
            state["digest"] = digest.hexdigest()
        elif digest.hexdigest() != state["digest"]:
            problems.append("outputs differ from the first item's on identical inputs")
        return problems

    @staticmethod
    def _check_spectrum(doc: dict, n: int) -> list[str]:
        keep = n // 2
        kept = np.asarray(doc.get("kept", []), dtype=np.int64)
        energies = np.asarray(doc.get("energies", []), dtype=np.float64)
        if doc.get("n") != n or doc.get("keep") != keep or energies.shape != (n,):
            return [f"spectrum over {n} tokens reported n={doc.get('n')} keep={doc.get('keep')}"]
        if not np.all(np.isfinite(energies)) or np.any(energies < 0):
            return ["spectrum energies are not finite and non-negative"]
        if len(kept) != keep or np.any(np.diff(kept) <= 0):
            return ["kept indices are not an ascending set of the requested length"]
        if not np.array_equal(kept, topk_ascending(energies, keep)):
            return ["kept set is not the top-k of the reported energies"]
        return []

    @staticmethod
    def _check_grid(blob: bytes, side: int, total_size: float) -> list[str]:
        try:
            data, sizes = read_luvc1(blob)
        except ValueError as e:
            return [str(e)]
        if data.shape[:2] != (side, side):
            return [f"grid is {data.shape[:2]}, expected {side}x{side}"]
        if not (np.all(np.isfinite(data)) and np.all(np.isfinite(sizes))):
            return ["grid holds non-finite values"]
        if float(sizes.astype(np.float64).sum()) != total_size or np.any(sizes < 1):
            return ["grid sizes are not conserved"]
        return []

    def report_fields(self, out) -> dict:
        return {"metrics.flops_ratio": 0.0, "metrics.retention_ratio": 0.0,
                "metrics.similarity_ops": 0}


WORKLOADS = {w.name: w for w in (
    PipelineWorkload("demo_stream", side=16, d=32, text_len=8, pool=64, warmup=5),
    PipelineWorkload("hires_pipeline", side=32, d=64, text_len=16, pool=8, warmup=2),
    ToolkitWorkload(),
)}

