"""Command-line entry point.

    starklab spectrum  --config cfg.json [--out DIR] [--seed S]
    starklab localize  --config cfg.json ...
    starklab evolve    --config cfg.json ...
    starklab study     --config cfg.json ...
    starklab report    --config cfg.json ...

spectrum diagonalizes and dumps; localize adds the pinning, decay, and
bootstrap analyses; evolve adds the dynamics stage; study runs everything
plus cross-size drift tables; report regenerates analyses from existing
spectrum dumps without rediagonalizing.

Exit codes: 0 success, 1 config error, 2 stage failure, 3 a theorem check
ran and failed.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import ALL_STAGES, ConfigError, load_config, run

# the stage table runs spectrum, three localization checks, dynamics, study
_SPECTRUM, *_LOCALIZATION, _DYNAMICS, _ = ALL_STAGES
_STAGES_BY_COMMAND = {
    "spectrum": (_SPECTRUM,),
    "localize": (_SPECTRUM, *_LOCALIZATION),
    "evolve": (_SPECTRUM, _DYNAMICS),
    "study": ALL_STAGES,
    "report": ALL_STAGES[:-1],
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # invocation mistakes are config errors (exit 1), not stage failures
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="starklab",
                     description="localization experiments on tilted "
                                 "long-range hopping operators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("spectrum", "diagonalize each configured box and dump spectra"),
            ("localize", "run pinning, uniform-decay, and bootstrap checks"),
            ("evolve", "run wave-packet moments and envelope bounds"),
            ("study", "run all stages plus cross-size drift tables"),
            ("report", "recompute analyses from existing spectrum dumps")):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, metavar="PATH",
                         help="JSON experiment config")
        cmd.add_argument("--out", metavar="DIR", default=None,
                         help="output directory (overrides config)")
        cmd.add_argument("--seed", type=int, default=None, metavar="U64",
                         help="seed override for random perturbations")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"starklab: {exc}", file=sys.stderr)
        return 1

    try:
        config = load_config(args.config)
        if args.out is not None or args.seed is not None:
            config = config.with_overrides(out_dir=args.out, seed=args.seed)
        manifest = run(config, stages=_STAGES_BY_COMMAND[args.command],
                       reuse_spectra=(args.command == "report"))
    except ConfigError as exc:
        print(f"starklab: {exc}", file=sys.stderr)
        return 1

    for rec in manifest.stages:
        line = f"stage {rec.name}: {rec.status}"
        if rec.error:
            line += f" ({rec.error})"
        print(line)
    if manifest.any_stage_failed:
        return 2
    if not manifest.all_checks_passed:
        for failure in manifest.checks["failures"]:
            print(f"check failed: {failure}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
