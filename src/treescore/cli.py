"""Command-line entry point wiring the library together.

Commands: gen-model, gen-data, validate, bench, tune, coverage, codegen.
Exit codes: 0 success, 1 usage error, 2 data/model error, 3 environment
error (e.g. no host compiler).  Results go to stdout or ``--out``;
diagnostics and progress go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod, native
from .bench import BenchConfig, export_csv, measure_feature_coverage
from .codegen import (
    CompilationError,
    CompilerNotFoundError,
    SymbolResolutionError,
    compile_and_load,
    emit_source,
)
from .data import DataFormatError, Dataset, read_csv, read_fvec, write_csv, write_fvec
from .evaluators import ALL_STRATEGIES, StrategyKind
from .model import ModelError, load_model, save_model, tree_stats
from .synth import GenConfig, GenerationError, gen_ensemble, gen_leaf_uniform_vectors

DEFAULT_INSTANCES = BenchConfig.instances


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1 (argparse's default is 2, which we reserve for
    # data/model errors).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_strategies(text: str):
    if text == "all":
        return ALL_STRATEGIES, True
    kinds = []
    for name in text.split(","):
        name = name.strip()
        try:
            kinds.append(StrategyKind(name))
        except ValueError:
            raise UsageError(
                f"unknown strategy {name!r} (choose from "
                f"{', '.join(str(k) for k in ALL_STRATEGIES)} or 'all')"
            )
    if not kinds:
        raise UsageError("empty strategy list")
    return tuple(kinds), False


def _parse_int_list(text: str, what: str):
    try:
        values = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"{what} must be a comma-separated list of integers")
    if not values or any(v < 1 for v in values):
        raise UsageError(f"{what} entries must be >= 1")
    return values


def _load_dataset(path, num_features=None) -> Dataset:
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"FVEC":
        ds = read_fvec(path)
    else:
        ds = read_csv(path, num_features)
    if num_features is not None and ds.num_features != num_features:
        raise DataFormatError(
            f"dataset has {ds.num_features} features, model expects {num_features}"
        )
    return ds


def _progress(line: str):
    print(line, file=sys.stderr, flush=True)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_gen_model(args) -> int:
    cfg = GenConfig(depth=args.depth, num_features=args.features, seed=args.seed)
    ensemble = gen_ensemble(cfg, args.trees)
    save_model(ensemble, args.out)
    print(f"wrote {args.out}: {args.trees} tree(s), depth {args.depth}, "
          f"{args.features} features, seed {args.seed}")
    return 0


def _cmd_gen_data(args) -> int:
    ensemble = load_model(args.model)
    dataset = _synthesize_data(ensemble, args.count, args.seed)
    mode = "leaf-uniform" if len(ensemble.trees) == 1 else "uniform"
    if args.csv:
        write_csv(args.out, dataset)
    else:
        write_fvec(args.out, dataset)
    print(f"wrote {args.out}: {args.count} x {ensemble.num_features} ({mode}, "
          f"{'csv' if args.csv else 'fvec'})")
    return 0


def _cmd_validate(args) -> int:
    ensemble = load_model(args.model)
    stats = tree_stats(ensemble)
    print(f"{args.model}: valid. trees={len(ensemble.trees)} "
          f"num_features={ensemble.num_features} avg_depth={stats.avg_depth:.2f} "
          f"max_depth={stats.max_depth} avg_leaves={stats.avg_leaves:.2f}")
    return 0


def _resolve_bench_strategies(args):
    strategies, is_all = _parse_strategies(args.strategies)
    if args.batch is not None:
        batches = _parse_int_list(args.batch, "--batch")
    elif is_all or StrategyKind.VPREDICATED not in strategies:
        batches = bench_mod.DEFAULT_BATCH_SIZES
    else:
        raise UsageError("--batch is required when --strategies names "
                         "vpredicated explicitly")
    return strategies, batches


def _cmd_bench(args) -> int:
    strategies, batches = _resolve_bench_strategies(args)
    if args.trials < 2:
        raise UsageError("--trials must be >= 2")
    instances = DEFAULT_INSTANCES if args.instances is None else args.instances
    if instances < 1:
        raise UsageError("--instances must be >= 1")
    if args.sweep and args.data:
        raise UsageError("--data applies to --model mode, not --sweep")
    if not args.sweep and args.data and args.instances is not None:
        raise UsageError("--instances applies without --data; the "
                         "dataset's rows are the instances")
    # Every strategy is scored through the binding compiled with the layout
    # kernels: without a compiler or the Python headers a report would hold
    # nothing but unavailable rows, so raise CompilerNotFoundError (exit 3).
    native.load_layout_kernels()
    if args.sweep:
        cfg = BenchConfig(strategies=strategies, batch_sizes=batches,
                          instances=instances, trials=args.trials,
                          warmup=not args.no_warmup)
        report = bench_mod.run_sweep(cfg, progress=_progress)
    else:
        ensemble = load_model(args.model)
        if args.data:
            dataset = _load_dataset(args.data, ensemble.num_features)
            data_name = args.data
        else:
            _progress(f"no --data given; generating {instances} vectors "
                      "(seed 0)")
            dataset = _synthesize_data(ensemble, instances)
            data_name = "the generated dataset (--instances)"
        report = bench_mod.run_fixed(ensemble, dataset, strategies=strategies,
                                     batch_sizes=batches, trials=args.trials,
                                     warmup=not args.no_warmup,
                                     progress=_progress, data_name=data_name)
    _emit(export_csv(report), args.out)
    return 0


def _synthesize_data(ensemble, count: int, seed: int = 0) -> Dataset:
    f = ensemble.num_features
    if len(ensemble.trees) == 1:
        tree = ensemble.trees[0][0]
        cfg = GenConfig(depth=tree.depth, num_features=f,
                        num_vectors=count, seed=seed)
        return gen_leaf_uniform_vectors(tree, cfg)
    # Leaf-uniform targeting is defined per tree; for multi-tree models
    # the vectors are plain uniform draws over the domain.
    rng = np.random.default_rng([seed, 1])
    return Dataset(rng.random((count, f), dtype=np.float32))


def _cmd_tune(args) -> int:
    ensemble = load_model(args.model)
    dataset = _load_dataset(args.data, ensemble.num_features)
    batches = _parse_int_list(args.batches, "--batches")
    native.load_layout_kernels()    # exit 3 without it, as in _cmd_bench
    report = bench_mod.run_fixed(ensemble, dataset,
                                 strategies=(StrategyKind.VPREDICATED,),
                                 batch_sizes=batches, progress=_progress)
    for (depth, features), best in sorted(bench_mod.best_batch_sizes(report).items()):
        _progress(f"best batch size for depth={depth} features={features}: {best}")
    _emit(export_csv(report), args.out)
    return 0


def _cmd_coverage(args) -> int:
    ensemble = load_model(args.model)
    dataset = _load_dataset(args.data, ensemble.num_features)
    report = measure_feature_coverage(ensemble, dataset)
    print(f"instances: {report.num_instances}")
    print(f"mean fraction of features examined: {report.mean_fraction:.6f}")
    print(f"variance: {report.variance:.6f}")
    return 0


def _cmd_codegen(args) -> int:
    ensemble = load_model(args.model)
    source = emit_source(ensemble)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    src_path = outdir / "scorer.c"
    src_path.write_text(source, encoding="utf-8")
    print(f"wrote {src_path}")
    if args.compile:
        unit = compile_and_load(source, workdir=outdir)
        print(f"built {unit.lib_path} with {unit.compiler} "
              f"{' '.join(unit.flags)}")
        if not args.keep_sources:
            src_path.unlink()
            print(f"removed {src_path} (pass --keep-sources to retain)")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treescore",
                     description="Tree-ensemble inference strategies, synthetic "
                                 "workloads, and a timing harness.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    default_batches = ",".join(map(str, bench_mod.DEFAULT_BATCH_SIZES))

    p = sub.add_parser("gen-model", help="generate a random complete-tree model")
    p.add_argument("--depth", type=int, required=True, help="tree depth d >= 0")
    p.add_argument("--features", type=int, required=True,
                   help="feature-space size f >= 1")
    p.add_argument("--trees", type=int, default=1,
                   help="number of trees (default 1)")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--out", required=True, help="output model path")
    p.set_defaults(func=_cmd_gen_model)

    p = sub.add_parser("gen-data",
                       help="generate feature vectors for a model "
                            "(leaf-uniform for single-tree models)")
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=int, required=True, help="number of vectors")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", action="store_true",
                   help="write CSV instead of binary FVEC")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("validate", help="parse and validate a model file")
    p.add_argument("model", help="model path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "bench",
        help="benchmark strategies on a model (or a regenerated sweep)",
        description="With --model, times the given model (on --data or "
                    "freshly generated vectors).  With --sweep, regenerates "
                    "a tree and dataset per trial over the default "
                    "depth {3,5,7,9,11} x features {32,128,512} grid.  "
                    "vpredicated scores the rows that do not fill a "
                    "batch one at a time, 8 trees in lockstep (no padding).")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--model", help="model path")
    mode.add_argument("--sweep", action="store_true",
                      help="regenerate model/data per trial across the grid")
    p.add_argument("--data", help="dataset path (FVEC or CSV)")
    p.add_argument("--strategies", default="all",
                   help="comma list of strategies, or 'all' (default)")
    p.add_argument("--batch",
                   help="comma list of batch sizes for vpredicated "
                        f"(default {default_batches} with --strategies all; "
                        "required when vpredicated is named explicitly)")
    p.add_argument("--trials", type=int, default=5,
                   help="timing trials per configuration (default 5)")
    p.add_argument("--instances", type=int,
                   help=f"instances per timed pass, without --data "
                        f"(default {DEFAULT_INSTANCES})")
    p.add_argument("--no-warmup", action="store_true",
                   help="skip the untimed warmup pass (cold-cache timing)")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("tune",
                       help="sweep vpredicated batch sizes on a fixed model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--batches", default=default_batches,
                   help=f"comma list of batch sizes (default {default_batches})")
    p.add_argument("--out", help="write the curve CSV here instead of stdout")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("coverage",
                       help="fraction of features examined per prediction")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("codegen", help="emit (and optionally compile) C source")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--keep-sources", action="store_true",
                   help="retain scorer.c next to the built library")
    p.add_argument("--compile", action="store_true",
                   help="also build scorer.so with the host compiler")
    p.set_defaults(func=_cmd_codegen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"treescore: error: {exc}", file=sys.stderr)
        return 1
    except (ModelError, DataFormatError, GenerationError, ValueError,
            OSError, bench_mod.TimerResolutionError) as exc:
        print(f"treescore: error: {exc}", file=sys.stderr)
        return 2
    except (CompilerNotFoundError, CompilationError,
            SymbolResolutionError) as exc:
        print(f"treescore: error: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
