"""Command line front end.

One subcommand per experiment kind; the config file's "kind" must agree with
the chosen subcommand.  Exit codes: 0 success, 2 invalid configuration,
3 completed with per-task failures.
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENT_KINDS, load_config
from .experiments import run
from .runner import THREADS_ENV
from .version import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifshitz-lab",
        description="finite-volume experiments on random divergence-form operators")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run a '{kind}' experiment from a config file")
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker threads (default: ${THREADS_ENV} or 1)")
        p.add_argument("--seed", type=int, default=None,
                       help="base seed override (uint64)")
        p.add_argument("--dry-run", action="store_true",
                       help="validate the config and print diagnostics, no compute")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return 2
    if config.kind != args.command:
        print(f"error: config kind {config.kind!r} does not match "
              f"subcommand {args.command!r}", file=sys.stderr)
        return 2
    result = run(config, out_dir=args.out, threads=args.threads, seed=args.seed,
                 dry_run=args.dry_run)
    for diag in result.diagnostics:
        stream = sys.stderr if diag.severity == "error" else sys.stdout
        print(f"{diag.severity}: {diag.message}", file=stream)
    if result.exit_code == 2:
        print("error: configuration rejected", file=sys.stderr)
        return 2
    if args.dry_run:
        print("dry run ok")
        return 0
    print(f"wrote {', '.join(result.manifest.files)} in {result.out_dir} "
          f"({result.manifest.wall_time_s:.2f}s, threads={result.manifest.threads})")
    if result.manifest.failures:
        for f in result.manifest.failures:
            print(f"task failure: {f}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
