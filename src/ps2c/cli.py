"""Command-line front end: run, discretize, trie-dump, bench.

The subcommands leave every check to the library; ``main`` is the one
place that turns its errors into exit codes: 0 success, 1 for a usage,
I/O, parse or setting error (one ``error:`` line on stderr), 2 when no
grid cell has a pattern to sample (the message counts the skip reasons).
Each fact goes to one channel: results (``run``'s report, ``bench``'s
rows) to stdout; artifacts (report.json, timings.json, feature CSVs) to
--out, made at its first write; and to stderr only the package's logged
warnings (dropped by ``--quiet``) and ``error:`` lines.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .dataset import load_ucr, znormalize_dataset
from .discretizer import SaxParams, discretize, dump_text
from .pattern_index import PatternIndex
from .pipeline import (
    NoPatternsError,
    PipelineConfig,
    build_report,
    fit_transform,
    run_experiment,
)
from .sampler_trie import fit_sampler
from .synthgen import SynthSpec, generate

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_PATTERNS = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, but this tool
    # reserves 2 for the no-patterns outcome; remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    items = [tok for tok in text.split(",") if tok.strip()]
    try:
        return [int(tok) for tok in items]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _config_from(args, **grid) -> PipelineConfig:
    """The validated settings of the sampler flags plus the given grid fields."""
    return PipelineConfig(l_max=args.lmax, s_min=args.smin, tau=args.tau, **grid)


def _add_sampler_flags(parser: argparse.ArgumentParser, defaults: PipelineConfig) -> None:
    parser.add_argument("--lmax", type=int, default=defaults.l_max, help="longest pattern length")
    parser.add_argument("--smin", type=float, default=defaults.s_min,
                        help="minimum normalized chi-square")
    parser.add_argument("--tau", type=float, default=defaults.tau,
                        help="temperature for weight scaling")


def _add_config_flags(parser: argparse.ArgumentParser, defaults: PipelineConfig) -> None:
    parser.add_argument("--alphas", type=_int_list, default=defaults.alphas,
                        metavar="LIST", help="alphabet sizes, comma-separated")
    parser.add_argument("--omegas", type=_int_list, default=defaults.omegas,
                        metavar="LIST", help="window sizes, comma-separated")
    _add_sampler_flags(parser, defaults)
    parser.add_argument("--k", type=int, default=defaults.k, help="patterns sampled per grid cell")
    parser.add_argument("--seed", type=int, default=defaults.seed, help="master RNG seed")


def cmd_run(args) -> int:
    config = _config_from(args, alphas=args.alphas, omegas=args.omegas, k=args.k, seed=args.seed)
    train = load_ucr(args.train)
    test = load_ucr(args.test)
    out_dir = Path(args.out)

    def emit(i, train_i, test_i, merged):
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.emit_features:
            merged.train.to_csv(out_dir / f"features_train_{i}.csv", labels=train_i.labels)
            merged.test.to_csv(out_dir / f"features_test_{i}.csv", labels=test_i.labels)

    result = run_experiment(
        train, test, config, args.resamples, n_threads=args.threads, on_resample=emit
    )
    report = build_report(config, result, args.resamples)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    (out_dir / "report.json").write_text(text)

    # Wall times vary run to run, so they live in a separate artifact
    # and the report above stays byte-stable for a given invocation.
    # Per-cell seconds are summed across worker threads, so they sit
    # under their own key: with several threads they can exceed the wall.
    timings = dict(result.timings, total_seconds=result.total_seconds)
    timings["cell_seconds"] = result.cell_seconds
    (out_dir / "timings.json").write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_discretize(args) -> int:
    params = SaxParams(args.alpha, args.omega)
    dataset = znormalize_dataset(load_ucr(args.train))
    discretized = discretize(dataset, params)
    sys.stdout.write(dump_text(discretized, dataset.labels) + "\n")
    return EXIT_OK


def cmd_trie_dump(args) -> int:
    params = SaxParams(args.alpha, args.omega)
    config = _config_from(args, alphas=(params.alpha,), omegas=(params.omega,))
    dataset = znormalize_dataset(load_ucr(args.train))
    discretized = discretize(dataset, params)
    index = PatternIndex.build(discretized, config.l_max)
    trie = fit_sampler(discretized, index, dataset.labels, config.l_max, config.s_min, config.tau)
    if trie.is_empty:
        raise NoPatternsError("no discriminative patterns found")
    sys.stdout.write(trie.to_text() + "\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = args.sizes
    lengths = args.lengths
    if not sizes:
        raise ValueError("--sizes must list at least one dataset size")
    if not lengths:
        raise ValueError("--lengths must list at least one series length")
    for n in sizes:
        if n < 4 or n % 2:
            raise ValueError(f"dataset size must be an even number >= 4, got {n}")
    for n in lengths:
        SynthSpec(length=n)

    config = PipelineConfig(seed=args.seed)
    rows = []
    for length in lengths:
        for size in sizes:
            per_class = size // 2
            train = generate(SynthSpec(n_per_class=per_class, length=length, seed=args.seed))
            test = generate(SynthSpec(n_per_class=per_class, length=length, seed=args.seed + 1))
            merged = fit_transform(train, test, config)
            for cell in merged.skipped:
                cell.log_skip()
            # the keys of run's timings.json, less train and total_seconds
            rows.append(dict(merged.timings, cell_seconds=merged.cell_seconds,
                             n_instances=2 * per_class, length=length))

    sys.stdout.write(json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _add_cell_flags(parser: argparse.ArgumentParser) -> None:
    # a required flag has no default for --help to print
    parser.add_argument("train", help="dataset file")
    parser.add_argument("--alpha", type=int, required=True, default=argparse.SUPPRESS,
                        help="alphabet size")
    parser.add_argument("--omega", type=int, required=True, default=argparse.SUPPRESS,
                        help="window size")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ps2c",
        description="Pattern-sampled shapelet classification over symbolic grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    defaults = PipelineConfig()  # every pipeline flag's default is the config field's
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="print no logged warnings, only errors")

    def command(name, func, help):
        cmd = sub.add_parser(name, parents=[common], help=help,
                             formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        cmd.set_defaults(func=func)
        return cmd

    p_run = command("run", cmd_run, "run the full pipeline on a train/test pair")
    p_run.add_argument("train", help="training split file")
    p_run.add_argument("test", help="test split file")
    _add_config_flags(p_run, defaults)
    p_run.add_argument("--resamples", type=int, default=1,
                       help="number of train/test resamples; resample 0 keeps the original split")
    p_run.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="worker threads, one per core by default")
    p_run.add_argument("--out", default="ps2c_out", help="artifact output directory")
    p_run.add_argument("--emit-features", action="store_true",
                       help="also write per-resample feature CSVs")

    _add_cell_flags(command("discretize", cmd_discretize, "print one symbolic string per instance"))

    p_trie = command("trie-dump", cmd_trie_dump,
                     "fit one grid cell's sampler and print the weighted trie")
    _add_cell_flags(p_trie)
    _add_sampler_flags(p_trie, defaults)

    p_bench = command("bench", cmd_bench, "time fit+transform on planted synthetic datasets")
    p_bench.add_argument("--sizes", type=_int_list, required=True, default=argparse.SUPPRESS,
                         metavar="LIST", help="total training instances per run, comma-separated")
    p_bench.add_argument("--lengths", type=_int_list, default=[128], metavar="LIST",
                         help="series lengths per run, comma-separated")
    p_bench.add_argument("--seed", type=int, default=0, help="generator seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # made per call, so it writes to sys.stderr as it is now, and removed
    # after, so repeated in-process calls print each record once
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    handler.setLevel(logging.ERROR if args.quiet else logging.WARNING)
    package = logging.getLogger("ps2c")
    package.addHandler(handler)
    try:
        return args.func(args)
    except NoPatternsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PATTERNS
    except (OSError, ValueError) as exc:  # UcrFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        package.removeHandler(handler)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
