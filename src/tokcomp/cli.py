"""Batch command-line interface.

Subcommands: spectrum (spectral pruning of a grid), merge (orthogonal 2D
merging), simulate (full pipeline run from a schedule JSON), baseline
(reference compressors), theory (smoothing-trace CSV), bench (similarity-op
scaling sweep).  Exit codes: 0 success, 1 usage error, 2 data error (bad or
unreadable input), 3 internal error (a bug; the traceback is printed).

Each input is read through one open by images.load_grid and sniffed by its
magic bytes: LUVC1 binary grids, JSON grid fixtures, or PGM/PPM images
(featurized on the fly with --patch/--feat), so pipes and FIFOs work as
inputs.  An input past tokens.BYTE_BUDGET bytes, and a simulate run whose
attention computes more bytes of scores per head than that, are data errors.

The parser is built once per process and reused; every parse starts from a
fresh namespace, so cli_main can be called repeatedly in one process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback
from dataclasses import replace

import numpy as np

from . import images, merging, pipeline, spectral, theory, toymodel
from .metrics import LayerCount, reduction_ratio
from .tokens import overwrite_file, sequence_from_grid
from .tokens import read_luvc1, write_luvc1  # noqa: F401  perfbench traces both names here


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_at_least(low: int, below: int | None = None):
    """argparse type: an integer >= low, and < below when below is given."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low or (below is not None and value >= below):
            bound = f"in [{low}, {below})" if below is not None else f">= {low}"
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer {bound}")
        return value
    return parse


def _sigma_ratio(text: str) -> float:
    """argparse type: a float in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number in (0, 1]")
    return value


def _bench_sizes(text: str) -> list[int]:
    # square sizes >= 2 give positive op counts on a square grid, two distinct
    # ones a defined slope
    sizes = [_int_at_least(2)(s) for s in text.split(",") if s]
    if any(math.isqrt(s) ** 2 != s for s in sizes):
        raise argparse.ArgumentTypeError(f"{text!r} holds a size that is not a perfect square")
    if len(set(sizes)) < 2:
        raise argparse.ArgumentTypeError(f"{text!r} holds fewer than two distinct sizes")
    return sizes


def _emit(text: str, out_path=None) -> None:
    """Write `text` to `out_path`, or to stdout when there is none."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        with overwrite_file(out_path) as f:
            f.write(text.encode())


def _add_input(sub) -> None:
    sub.add_argument("input", help="LUVC1 grid, JSON grid, or PGM/PPM image")
    sub.add_argument("--patch", type=_int_at_least(1), default=8,
                     help="patch size when the input is an image")
    sub.add_argument("--feat", choices=images.FEATURE_MODES, default="raw",
                     help="featurizer when the input is an image")


def _cmd_spectrum(args) -> int:
    if args.mask is not None and args.heatmap is None:
        raise _UsageError("--mask needs --heatmap")
    grid = images.load_grid(args.input, args.patch, args.feat)
    seq = sequence_from_grid(grid)
    keep = args.keep if args.keep is not None else seq.n // 2
    pruned, ranking = spectral.spectral_prune(seq, args.sigma_ratio, keep, args.filter_mode)
    doc = {
        "schema": 1,
        "n": seq.n,
        "keep": keep,
        "sigma_t": spectral.cutoff_from_ratio(seq.n, args.sigma_ratio) if seq.n else 0,
        "filter_mode": args.filter_mode,
        "kept": ranking.kept.tolist(),
        "energies": ranking.energies.tolist(),
    }
    _emit(json.dumps(doc) + "\n", args.out)
    if args.heatmap is not None:
        images.emit_energy_heatmap(grid.h, grid.w, ranking, args.heatmap, args.mask)
    return 0


def _cmd_merge(args) -> int:
    grid = images.load_grid(args.input, args.patch, args.feat)
    before = grid.n_tokens
    for _ in range(args.oim_steps):
        # one pass at a time, so that a pass holds only its input and output
        grid = merging.merge_width(grid, args.m)
        grid = merging.merge_height(grid, args.m)
    write_luvc1(grid, args.out)
    retained = grid.n_tokens / before if before else 1.0
    _emit(json.dumps({"schema": 1, "h": grid.h, "w": grid.w, "tokens_before": before,
                      "tokens_after": grid.n_tokens, "retained_fraction": retained,
                      "removed_fraction": 1.0 - retained}) + "\n")
    return 0


def _cmd_simulate(args) -> int:
    cfg, sched = pipeline.load_run_config(args.schedule)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    overrides = {}
    for field in ("l0", "l_delta", "m", "sigma_ratio", "filter_mode"):
        value = getattr(args, field)
        if value is not None:
            overrides[field] = value
    if "l0" in overrides or "l_delta" in overrides:
        # the pruning-layer set changed, so any explicit ladder is stale
        overrides.setdefault("keep_ladder", None)
    if overrides:
        sched = replace(sched, **overrides)
    grid = images.load_grid(args.input, args.patch, args.feat)
    report = pipeline.run_experiment(grid, args.text_len, cfg, sched)
    _emit(json.dumps(report.to_doc()) + "\n", args.out)
    return 0


def _cmd_baseline(args) -> int:
    grid = images.load_grid(args.input, args.patch, args.feat)
    out = pipeline.baseline_compress(grid, args.kind, args.target_h, args.target_w, args.seed)
    write_luvc1(out, args.out)
    # single-stage summary so ratios are comparable with simulate runs
    trace = [LayerCount("encoder", 0, out.n_tokens, 0, grid.n_tokens)]
    retention, pruning = reduction_ratio(trace)
    _emit(json.dumps({"schema": 1, "kind": args.kind, "h": out.h, "w": out.w,
                      "retention_ratio": retention, "pruning_ratio": pruning}) + "\n")
    return 0


def _cmd_theory(args) -> int:
    trace = theory.smoothing_trace(*theory.random_smoothing_setup(args.n, args.seed), args.t)
    lines = ["t,ratio"] + [f"{t},{r:.17g}" for t, r in enumerate(trace.ratios)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_bench(args) -> int:
    ops2d = [merging.similarity_op_count(n, "2d", args.m) for n in args.sizes]
    ops1d = [merging.similarity_op_count(n, "1d") for n in args.sizes]

    def slope(counts):
        return float(np.polyfit(np.log(args.sizes), np.log(counts), 1)[0])

    _emit(json.dumps({"schema": 1, "sizes": args.sizes, "ops_2d": ops2d, "ops_1d": ops1d,
                      "exponent_2d": slope(ops2d), "exponent_1d": slope(ops1d)}) + "\n", args.out)
    return 0


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="tokcomp", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("spectrum", help="prune a grid's tokens by spectral energy")
    _add_input(p)
    p.add_argument("--sigma-ratio", type=_sigma_ratio, default=0.25)
    p.add_argument("--keep", type=_int_at_least(0), default=None,
                   help="tokens to keep (default n//2)")
    p.add_argument("--filter-mode", choices=spectral.FILTER_MODES, default="as-written")
    p.add_argument("--out", default=None, help="kept-indices JSON (default stdout)")
    p.add_argument("--heatmap", default=None, help="write energy heatmap PGM here")
    p.add_argument("--mask", default=None, help="write kept-token mask PGM here")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("merge", help="run orthogonal merge steps on a grid")
    _add_input(p)
    p.add_argument("--m", type=_int_at_least(0), default=2, help="merges per axis per step")
    p.add_argument("--oim-steps", type=_int_at_least(0), default=1, help="width+height step count")
    p.add_argument("--out", required=True, help="output LUVC1 grid")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("simulate", help="full pipeline run from a schedule JSON")
    _add_input(p)
    p.add_argument("--schedule", required=True, help="run-config JSON path")
    p.add_argument("--text-len", type=_int_at_least(0), default=None)
    p.add_argument("--seed", type=_int_at_least(0, toymodel.SEED_LIMIT), default=None,
                   help="override the model seed")
    p.add_argument("--l0", type=_int_at_least(0), default=None, help="override first pruning layer")
    p.add_argument("--l-delta", type=_int_at_least(1), default=None, help="override pruning interval")
    p.add_argument("--m", type=_int_at_least(0), default=None, help="override merges per axis")
    p.add_argument("--sigma-ratio", type=_sigma_ratio, default=None)
    p.add_argument("--filter-mode", choices=spectral.FILTER_MODES, default=None)
    p.add_argument("--out", default=None, help="report JSON (default stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("baseline", help="run a reference compressor on a grid")
    _add_input(p)
    p.add_argument("--kind", choices=pipeline.BASELINE_KINDS, required=True)
    p.add_argument("--target-h", type=_int_at_least(0), default=0)
    p.add_argument("--target-w", type=_int_at_least(0), default=0)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True, help="output LUVC1 grid")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("theory", help="emit an HC/DC smoothing trace as CSV")
    p.add_argument("--n", type=_int_at_least(1), default=64)
    p.add_argument("--t", type=_int_at_least(0), default=50)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("bench", help="similarity-op scaling sweep")
    p.add_argument("--sizes", type=_bench_sizes, default="64,256,1024,4096")
    p.add_argument("--m", type=_int_at_least(0), default=1)
    p.add_argument("--out", default=None, help="JSON path (default stdout)")
    p.set_defaults(func=_cmd_bench)
    return parser


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except _UsageError as e:  # from the parser or a handler, before any input is read
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except (ValueError, OSError) as e:  # every data error the toolkit raises
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("internal error: this is a bug in tokcomp", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return cli_main(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
