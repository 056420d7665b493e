"""Command-line entry points for running and inspecting experiments.

Subcommands: ``run``, ``sweep``, ``toy``, ``analyze-ema``, ``forget``,
``checkpoint``. Outputs are CSV (or JSONL behind ``--jsonl``); no plotting.
The ``EMX_SEED`` environment variable overrides the config seed. Exit codes:
0 completed, 2 diverged, 3 invalid config.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import harness
from .ema_weights import dema_weights, ema_weights, mixture_weights, nested_ema_weights
from .checkpoint import CheckpointError, load_state
from .config import (
    ConfigError,
    ExperimentConfig,
    ForgetSpec,
    LrSpec,
    format_config,
    load_config,
    parse_config,
)
from .optimizers import OPTIMIZERS, AdamW

EXIT_OK = 0
EXIT_DIVERGED = 2
EXIT_CONFIG = 3


def _apply_env_seed(cfg: ExperimentConfig) -> ExperimentConfig:
    env = os.environ.get("EMX_SEED")
    if env is None:
        return cfg
    try:
        seed = int(env)
    except ValueError as exc:
        raise ConfigError(f"EMX_SEED must be an integer, got {env!r}") from exc
    return replace(cfg, seed=seed)


def _emit_record(record, path: str | None, jsonl: bool) -> None:
    text = harness.format_record_jsonl(record) if jsonl else harness.format_record_csv(record)
    if path is None:
        sys.stdout.write(text)
    else:
        harness.write_text(path, text)


def _record_exit(record) -> int:
    if record.diverged:
        print(f"diverged at step {record.diverged_step}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _apply_env_seed(load_config(args.config))
    resume = None
    if args.resume:
        with open(args.resume, "rb") as fh:
            resume = load_state(fh.read())
    record = harness.run_experiment(cfg, resume_from=resume)
    _emit_record(record, args.out or cfg.out, args.jsonl)
    return _record_exit(record)


def _parse_grid(specs) -> dict:
    grid = {}
    for item in specs:
        if "=" not in item:
            raise ConfigError(f"--grid expects key=v1,v2,..., got {item!r}")
        key, _, values = item.partition("=")
        from .config import _parse_value  # same value grammar as config files

        parsed = _parse_value(values.strip())
        grid[key.strip()] = parsed if isinstance(parsed, list) else [parsed]
    return grid


def _cmd_sweep(args) -> int:
    cfg = _apply_env_seed(load_config(args.config))
    grid = _parse_grid(args.grid)
    result = harness.run_sweep(cfg, grid)
    text = harness.format_sweep_csv(result)
    if args.out is None:
        sys.stdout.write(text)
    else:
        harness.write_text(args.out, text)
    if any(e.diverged for e in result.entries):
        return EXIT_DIVERGED
    return EXIT_OK


def _toy_config(args) -> ExperimentConfig:
    opt_params = {}
    for name in ("beta1", "beta2", "beta3", "alpha", "weight_decay", "eps",
                 "t_alpha", "t_beta3", "beta_start", "beta"):
        value = getattr(args, name, None)
        if value is not None:
            opt_params[name] = value
    if args.preseed is not None:
        opt_params["preseed"] = [float(v) for v in args.preseed.split(",")]
    testbed_params = {}
    if args.x0 is not None:
        testbed_params["x0"] = [float(v) for v in args.x0.split(",")]
    sections = {
        "testbed": {"kind": args.landscape, **testbed_params},
        "optimizer": {"kind": args.optimizer, **opt_params},
        "lr": {"kind": "constant", "value": args.lr},
        "run": {"steps": args.steps, "seed": args.seed, "cadence": args.cadence},
    }
    if args.clip is not None:
        sections["run"]["clip"] = args.clip
    from .config import config_from_sections

    return config_from_sections(sections)


def _cmd_toy(args) -> int:
    cfg = _apply_env_seed(_toy_config(args))
    record = harness.run_experiment(cfg)
    _emit_record(record, args.out, args.jsonl)
    return _record_exit(record)


def _cmd_analyze_ema(args) -> int:
    horizon = args.horizon
    if args.kind == "single":
        weights = ema_weights(args.beta, horizon)
    elif args.kind == "mixture":
        weights = mixture_weights(
            args.beta1, args.beta3, args.alpha, horizon, normalized=args.normalized
        )
    elif args.kind == "nested":
        weights = nested_ema_weights(args.beta_inner, args.beta_outer, horizon)
    elif args.kind == "dema":
        window = args.window if args.window is not None else horizon
        weights = dema_weights(args.beta, window, horizon)
    else:
        raise ConfigError(f"unknown profile kind {args.kind!r}")
    text = harness.format_profile_csv(weights)
    if args.out is None:
        sys.stdout.write(text)
    else:
        harness.write_text(args.out, text)
    return EXIT_OK


def _cmd_forget(args) -> int:
    cfg = _apply_env_seed(load_config(args.config))
    if args.t_b is not None:
        cfg = replace(cfg, forget=ForgetSpec(t_b=args.t_b))
        cfg = parse_config(format_config(cfg))  # re-validate
    result = harness.run_forgetting_protocol(cfg)
    outdir = args.out_dir
    os.makedirs(outdir, exist_ok=True)
    harness.write_text(
        os.path.join(outdir, "control.csv"), harness.format_record_csv(result.control)
    )
    harness.write_text(
        os.path.join(outdir, "injected.csv"), harness.format_record_csv(result.injected)
    )
    harness.write_text(
        os.path.join(outdir, "heldout_control.csv"),
        harness.format_series_csv(result.control_heldout, ("step", "heldout_loss")),
    )
    harness.write_text(
        os.path.join(outdir, "heldout_injected.csv"),
        harness.format_series_csv(result.injected_heldout, ("step", "heldout_loss")),
    )
    harness.write_text(
        os.path.join(outdir, "normalized.csv"),
        harness.format_series_csv(result.normalized, ("step", "normalized_loss")),
    )
    if result.control.diverged or result.injected.diverged:
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_checkpoint(args) -> int:
    if args.action == "save":
        cfg = _apply_env_seed(load_config(args.config))
        exp = harness.Experiment(cfg)
        record = exp.run(until=args.at_step)
        if record.diverged:
            print(f"diverged at step {record.diverged_step}", file=sys.stderr)
            return EXIT_DIVERGED
        with open(args.out, "wb") as fh:
            fh.write(exp.checkpoint())
        return EXIT_OK
    # load: print a summary for inspection
    with open(args.file, "rb") as fh:
        ck = load_state(fh.read())
    print(f"variant: {ck.hyper.get('variant')}")
    print(f"step: {ck.step}")
    for name in sorted(ck.slots):
        print(f"slot {name}: len {len(ck.slots[name])}")
    for key in sorted(ck.hyper):
        if key != "variant":
            print(f"hyper {key} = {ck.hyper[key]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output path (default: run.out or stdout)")
    p_run.add_argument("--jsonl", action="store_true", help="emit JSONL instead of CSV")
    p_run.add_argument("--resume", help="checkpoint file to resume from")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid sweep over config keys")
    p_sweep.add_argument("config")
    p_sweep.add_argument(
        "--grid", action="append", required=True, metavar="KEY=V1,V2,...",
        help="dotted config key and values; repeatable",
    )
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_toy = sub.add_parser("toy", help="run a 2-D toy landscape without a config file")
    p_toy.add_argument("landscape", choices=["rosenbrock", "valley"])
    p_toy.add_argument("--optimizer", default=AdamW.variant,
                       choices=list(OPTIMIZERS))
    p_toy.add_argument("--steps", type=int, default=1000)
    p_toy.add_argument("--lr", type=float, default=1e-3)
    p_toy.add_argument("--beta1", type=float)
    p_toy.add_argument("--beta2", type=float)
    p_toy.add_argument("--beta3", type=float)
    p_toy.add_argument("--beta", type=float, help="Lion momentum decay")
    p_toy.add_argument("--alpha", type=float)
    p_toy.add_argument("--weight-decay", dest="weight_decay", type=float)
    p_toy.add_argument("--eps", type=float)
    p_toy.add_argument("--t-alpha", dest="t_alpha", type=int)
    p_toy.add_argument("--t-beta3", dest="t_beta3", type=int)
    p_toy.add_argument("--beta-start", dest="beta_start", type=float)
    p_toy.add_argument("--x0", help="start point, e.g. --x0=-3,5")
    p_toy.add_argument("--preseed", help="momentum preseed vector, e.g. --preseed=-3,0")
    p_toy.add_argument("--clip", type=float)
    p_toy.add_argument("--seed", type=int, default=0)
    p_toy.add_argument("--cadence", type=int, default=1)
    p_toy.add_argument("--out")
    p_toy.add_argument("--jsonl", action="store_true")
    p_toy.set_defaults(fn=_cmd_toy)

    p_ema = sub.add_parser("analyze-ema", help="emit a gradient-age weight profile as CSV")
    p_ema.add_argument("--kind", required=True, choices=["single", "mixture", "nested", "dema"])
    p_ema.add_argument("--horizon", type=int, default=10000)
    p_ema.add_argument("--beta", type=float, default=0.9)
    p_ema.add_argument("--beta1", type=float, default=0.9)
    p_ema.add_argument("--beta3", type=float, default=0.9999)
    p_ema.add_argument("--alpha", type=float, default=5.0)
    p_ema.add_argument("--beta-inner", dest="beta_inner", type=float, default=0.9)
    p_ema.add_argument("--beta-outer", dest="beta_outer", type=float, default=0.9)
    p_ema.add_argument("--window", type=int, help="DEMA window (default: horizon)")
    p_ema.add_argument("--normalized", action="store_true",
                       help="normalize the mixture profile to unit mass")
    p_ema.add_argument("--out")
    p_ema.set_defaults(fn=_cmd_analyze_ema)

    p_forget = sub.add_parser("forget", help="held-out batch forgetting protocol")
    p_forget.add_argument("config")
    p_forget.add_argument("--t-b", dest="t_b", type=int,
                          help="injection step (overrides forget.t_b)")
    p_forget.add_argument("--out-dir", dest="out_dir", default="forgetting")
    p_forget.set_defaults(fn=_cmd_forget)

    p_ck = sub.add_parser("checkpoint", help="save or inspect optimizer checkpoints")
    ck_sub = p_ck.add_subparsers(dest="action", required=True)
    p_save = ck_sub.add_parser("save", help="run a config partway and save its state")
    p_save.add_argument("config")
    p_save.add_argument("--at-step", dest="at_step", type=int, required=True)
    p_save.add_argument("--out", required=True)
    p_save.set_defaults(fn=_cmd_checkpoint)
    p_load = ck_sub.add_parser("load", help="load a checkpoint and print a summary")
    p_load.add_argument("file")
    p_load.set_defaults(fn=_cmd_checkpoint)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
