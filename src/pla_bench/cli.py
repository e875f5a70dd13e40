"""Command line front end.

Subcommands:

  run                  execute an experiment described by a config file
  reproduce            run one of the canned named experiments
  optimize-thresholds  calibrate the two-part acceptance test
  attack-search        grid search over attacker combining exponents

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical
failures (infeasible targets, solver caps).
"""
from __future__ import annotations

import argparse
from dataclasses import asdict, replace
import json
import sys

from .attacks import AttackStrategy
from .channel import ScenarioParams
from .errors import ConfigError, NumericError
from .harness import (
    _SWEEP_FIELDS,
    REPRODUCE_TARGETS,
    AttackerSpec,
    DefenderSpec,
    ExperimentConfig,
    _search_cell,
    emit,
    reproduce,
    run_experiment,
)
from .rng import Rng
from .statdec import optimize_thresholds

_FLAGS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _flag(text: str) -> bool:
    """true/false, yes/no or 1/0, in any case."""
    if text.lower() not in _FLAGS:
        raise ValueError(f"expected true/false, yes/no or 1/0, got {text!r}")
    return _FLAGS[text.lower()]


def _list_of(conv):
    return lambda text: tuple(conv(p.strip()) for p in text.split(",") if p.strip())


def _target_pfa(text: str):
    nums = _list_of(float)(text)
    return nums[0] if len(nums) == 1 else nums


_SCALAR_FIELDS = {
    "n_trials": int,
    "n_datasets": int,
    "seed": int,
    "calibration_trials": int,
    "workers": int,
    "record_timing": _flag,
}
_DEFENDER_FIELDS = {"kind": str, "variant": str, "metric": str, "kernel": str}
_ATTACKER_FIELDS = {"kind": str, "x": float, "y": float, "averaged": _flag}
# every key of the file and the converter of its value
_KEYS = {
    **{key: _list_of(conv) for key, conv in _SWEEP_FIELDS.items()},
    "target_pfa": _target_pfa,
    **_SCALAR_FIELDS,
    **{f"defender.{key}": conv for key, conv in _DEFENDER_FIELDS.items()},
    **{f"attacker.{key}": conv for key, conv in _ATTACKER_FIELDS.items()},
}


def parse_config(text: str) -> ExperimentConfig:
    """Flat key = value format; lists are comma separated.

    Defender and attacker settings use dotted keys, for example
    ``defender.kind = ocnn`` or ``attacker.x = 0.7``.
    """
    values: dict = {}
    defender: dict = {}
    attacker: dict = {}
    sections = {"": values, "defender": defender, "attacker": attacker}
    set_on: dict = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if set_on.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: {key!r} is already set on line {set_on[key]}")
        section, _, name = key.rpartition(".")
        try:
            sections[section][name] = _KEYS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    if "kind" not in defender:
        raise ConfigError("config must set defender.kind")
    strategy_kind = attacker.pop("kind", "simplified")
    averaged = attacker.pop("averaged", False)
    strategy = AttackStrategy(strategy_kind, **attacker)
    return ExperimentConfig(
        defender=DefenderSpec(**defender),
        attacker=AttackerSpec(strategy=strategy, averaged=averaged),
        **values,
    )


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=int, default=None)


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    """The flags optimize-thresholds and attack-search share."""
    p.add_argument("--n", type=int, required=True, help="number of subcarriers")
    p.add_argument("--alpha-I", type=float, default=1.0)
    p.add_argument("--alpha-II", type=float, default=1.0)
    p.add_argument("--snr-I", type=float, default=15.0)
    p.add_argument("--snr-II", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=0)


def _scenario(args, rho_AE: float, rho_EB: float) -> ScenarioParams:
    return ScenarioParams.from_snr(
        n_subcarriers=args.n, snr_I_db=args.snr_I, snr_II_db=args.snr_II,
        alpha_I=args.alpha_I, alpha_II=args.alpha_II, rho_AE=rho_AE, rho_EB=rho_EB,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pla-bench",
        description="channel-based authentication benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    _add_output_args(p_run)

    p_rep = sub.add_parser("reproduce", help="run a canned named experiment")
    p_rep.add_argument("--target", required=True, choices=REPRODUCE_TARGETS)
    p_rep.add_argument("--scale", type=float, default=1.0)
    p_rep.add_argument("--seed", type=int, default=42)
    _add_output_args(p_rep)

    p_opt = sub.add_parser("optimize-thresholds",
                           help="calibrate the two-part acceptance region")
    _add_scenario_args(p_opt)
    p_opt.add_argument("--rho-AE", type=float, default=0.5)
    p_opt.add_argument("--rho-EB", type=float, default=0.5)
    p_opt.add_argument("--target-pfa", type=float, required=True)
    p_opt.add_argument("--n-mc", type=int, default=1_000_000)

    p_att = sub.add_parser("attack-search",
                           help="search attacker combining exponents")
    _add_scenario_args(p_att)
    p_att.add_argument("--rho", type=float, required=True,
                       help="correlation of both adversary links")
    p_att.add_argument("--target-pfa", type=float, default=1e-4)
    p_att.add_argument("--grid-step", type=float, default=0.1)
    p_att.add_argument("--n-mc", type=int, default=20_000)
    p_att.add_argument("--calibration-trials", type=int, default=1_000_000)
    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    overrides = {name: getattr(args, name) for name in ("seed", "workers")
                 if getattr(args, name) is not None}
    config = replace(parse_config(text), **overrides)
    table = run_experiment(config)
    emit(table, args.format, args.out)
    print(f"wrote {len(table.rows)} rows to {args.out}")
    return 0


def _cmd_reproduce(args) -> int:
    table = reproduce(args.target, scale=args.scale, seed=args.seed,
                      workers=args.workers)
    emit(table, args.format, args.out)
    print(f"wrote {len(table.rows)} rows to {args.out}")
    return 0


def _cmd_optimize(args) -> int:
    scn = _scenario(args, args.rho_AE, args.rho_EB)
    thr = optimize_thresholds(scn, args.target_pfa, args.n_mc, Rng(args.seed),
                              AttackerSpec().forger(scn).arrival_law())
    print(json.dumps(asdict(thr)))
    return 0


def _cmd_attack_search(args) -> int:
    scn = _scenario(args, args.rho, args.rho)
    thr, x, y, pmd = _search_cell(scn, args.target_pfa, args.calibration_trials, args.n_mc,
                                  Rng(args.seed), args.grid_step)
    print(json.dumps({
        "x": x, "y": y, "p_md": pmd,
        "theta": thr.theta, "epsilon": thr.epsilon,
    }))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "reproduce": _cmd_reproduce,
        "optimize-thresholds": _cmd_optimize,
        "attack-search": _cmd_attack_search,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
