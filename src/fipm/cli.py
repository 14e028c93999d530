"""Command-line front end.

Subcommands:
  run           run one experiment configuration (preset name or file path)
  sweep         rerun one configuration over a list of values for one key
  scan-figure1  raster-scan filter images over the degree-two realizable set
  presets       list the bundled configurations

Exit codes: 0 on success, 2 for configuration/usage errors, 3 when the
solver aborts (breakdown, dual non-convergence, inadmissible states).
"""

from __future__ import annotations

import argparse
import sys

from .config import list_presets, load_config, parse_scan_config, read_config_text, split_assignment
from .errors import ConfigError, FipmError
from .experiment import run_experiment, scan_figure1, sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fipm",
        description="Filtered intrusive moment methods for 1D uncertain conservation laws.",
    )
    # each option is declared once, on a parent parser; subcommands list them in usage order
    config, overrides, dry_run, output_root, swept = (
        argparse.ArgumentParser(add_help=False) for _ in range(5)
    )
    config.add_argument("config", help="bundled preset name or path to a config file")
    overrides.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )
    dry_run.add_argument(
        "--dry-run", action="store_true", help="echo the resolved configuration and exit"
    )
    output_root.add_argument("--output-root", default=None, help="root for artifact directories")
    swept.add_argument("--key", required=True, help="numeric configuration key to vary")
    swept.add_argument("--values", required=True, help="comma-separated list of values for the key")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, parents, handler in [
        ("run", "run one experiment configuration",
         [config, overrides, dry_run, output_root], _cmd_run),
        ("sweep", "run one configuration over several values of a key",
         [config, swept, overrides, output_root], _cmd_sweep),
        ("scan-figure1", "raster-scan filter images over the realizable moment set",
         [config, dry_run, output_root], _cmd_scan),
        ("presets", "list bundled configuration presets", [], _cmd_presets),
    ]:
        sub.add_parser(name, help=help_text, parents=parents).set_defaults(handler=handler)
    return parser


def _echoed(args, cfg) -> bool:
    """Under --dry-run, echo the resolved configuration, itself a valid config file."""
    if args.dry_run:
        sys.stdout.write(cfg.to_text())
    return args.dry_run


def _cmd_run(args) -> int:
    cfg = load_config(args.config, overrides=args.overrides)
    if _echoed(args, cfg):
        return 0
    artifacts = run_experiment(cfg, args.output_root)
    if artifacts.exit_code != 0:
        print(f"run failed: {artifacts.error}", file=sys.stderr)
        print(f"log: {artifacts.out_dir / 'run.log'}", file=sys.stderr)
        return artifacts.exit_code
    print(
        f"wrote {artifacts.out_dir} ({artifacts.n_steps} steps, "
        f"deltaE={artifacts.summary['deltaE']:.6g}, deltaVar={artifacts.summary['deltaVar']:.6g})"
    )
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config, overrides=args.overrides)
    if args.key in (split_assignment(item)[0] for item in args.overrides):
        raise ConfigError(f"the swept key '{args.key}' takes its values from --values, not --set")
    values = [tok.strip() for tok in args.values.split(",") if tok.strip()]
    result = sweep(cfg, args.key, values, args.output_root)
    print("value,deltaE,deltaVar,runtime")
    for row in result.rows:
        print(f"{row.value},{row.deltaE!r},{row.deltaVar!r},{row.runtime:.3f}")
        if row.error is not None:
            print(f"  # {row.value}: {row.error}", file=sys.stderr)
    print(f"wrote {result.table_path}")
    return 0


def _cmd_scan(args) -> int:
    cfg = parse_scan_config(*read_config_text(args.config))
    if _echoed(args, cfg):
        return 0
    artifacts = scan_figure1(cfg, args.output_root)
    for name, strength, inside, escaped in artifacts.rows:
        print(f"{name} strength={strength!r}: {escaped} of {inside} realizable points escaped")
    print(f"wrote {artifacts.out_dir}")
    return 0


def _cmd_presets(args) -> int:
    print(*list_presets(), sep="\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except FipmError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
