"""Command-line front end for the experiment scenarios.

Exit codes: 0 on success, 2 if any scenario cell failed, 64 on a
configuration error (unknown scenario, bad config file or flag values, no
observation times).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .errors import ConfigError
from .experiments import PRESETS, build_spec, run_scenario

EXIT_OK = 0
EXIT_CELL_FAILURE = 2
EXIT_CONFIG = 64


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="dualfilter",
        description="Run dual-process filtering experiment scenarios and "
                    "write long-format CSV results plus a JSON run manifest.")
    parser.add_argument("--scenario", choices=sorted(PRESETS),
                        help="scenario preset to run")
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file overriding preset fields "
                             "(flags take precedence)")
    parser.add_argument("--seed", type=int,
                        help="master seed (default: the config file's, else 1234)")
    parser.add_argument("--particles", metavar="N1,N2,...",
                        help="comma-separated particle counts")
    parser.add_argument("--replicates", type=int, help="number of replicates")
    parser.add_argument("--out-dir", default="results",
                        help="output directory (default ./results)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes, one replicate each (default 1)")
    parser.add_argument("--full", action="store_true",
                        help="use the full-scale preset instead of desk scale")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    try:
        config = None
        if args.config:
            try:
                with open(args.config) as fh:
                    config = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from None
            if not isinstance(config, dict):
                raise ConfigError("config file must hold a JSON object")
        scenario = args.scenario or (config or {}).get("scenario")
        if not scenario:
            raise ConfigError("no scenario given (use --scenario or the config file)")
        if config is not None:
            config.pop("scenario", None)
        particles = None
        if args.particles:
            try:
                particles = [int(v) for v in args.particles.split(",") if v]
            except ValueError:
                raise ConfigError(f"bad --particles value {args.particles!r}") from None
        spec = build_spec(scenario, config, seed=args.seed,
                          particles=particles, replicates=args.replicates,
                          full=args.full)
        return run_scenario(spec, args.out_dir, threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
