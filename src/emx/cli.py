"""Command-line entry points for running and inspecting experiments.

Subcommands: ``run``, ``sweep``, ``toy``, ``analyze-ema``, ``forget``,
``checkpoint``. Outputs are CSV (or JSONL behind ``--jsonl``); no plotting.
The ``EMX_SEED`` environment variable overrides the config seed. Exit codes:
0 completed, 2 diverged, 3 invalid config or checkpoint (a testbed too large
to build included), a command-line usage error, a file that cannot be read or
written (an ``--out`` path that is empty, a directory or in a missing
directory is refused before the first step), or memory that runs out during a
run. ``toy``'s optimizer flags are the ``optimizer.*`` config keys of
:data:`emx.optimizers.OPTIMIZERS`; ``analyze-ema`` takes its kinds and flags
from :data:`emx.ema_weights.PROFILES`.
"""

from __future__ import annotations

import argparse
import errno
import inspect
import os
import sys
from pathlib import Path
from typing import get_args, get_type_hints

from . import harness
from .ema_weights import PROFILES
from .checkpoint import CheckpointError, load_state
from .config import (
    _INT_RE,
    _OPTIMIZER_KEYS,
    _TESTBED_KEYS,
    ConfigError,
    ExperimentConfig,
    _parse_value,
    config_from_sections,
    load_config,
    with_values,
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
        if not _INT_RE.fullmatch(env):  # a config's integer: no "5_0", no spaces
            raise ValueError(env)
        seed = int(env)
    except ValueError as exc:  # or more digits than int() reads
        raise ConfigError(f"EMX_SEED must be an integer, got {env!r}") from exc
    return with_values(cfg, {"run.seed": seed})  # checked like a config's seed


def _check_out(path: str | None) -> None:
    """Refuse an output ``path`` that is empty, a directory or in a directory
    that does not exist, before any step rather than after the run; nothing
    is created."""
    if path is not None and os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if path is not None and not (path and os.path.isdir(os.path.dirname(path) or ".")):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        harness.write_text(path, text)


def _record_exit(record) -> int:
    if record.diverged:
        print(f"diverged at step {record.diverged_step}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _run(cfg: ExperimentConfig, args) -> int:
    """The body of ``run`` and ``toy``: run ``cfg`` (from ``--resume`` if
    given) and emit its record to ``--out``, ``run.out`` or stdout."""
    cfg = _apply_env_seed(cfg)
    out = args.out if args.out is not None else cfg.out
    _check_out(out)
    resume = load_state(Path(args.resume).read_bytes()) if args.resume else None
    record = harness.run_experiment(cfg, resume_from=resume)
    text = harness.format_record_jsonl(record) if args.jsonl else harness.format_record_csv(record)
    _emit(text, out)
    return _record_exit(record)


def _cmd_run(args) -> int:
    return _run(load_config(args.config), args)


def _parse_grid(specs) -> dict:
    grid = {}
    for item in specs:
        if "=" not in item:
            raise ConfigError(f"--grid expects key=v1,v2,..., got {item!r}")
        key, _, values = item.partition("=")
        key = key.strip()
        if key in grid:
            raise ConfigError(f"duplicate --grid key {key!r}")
        parsed = _parse_value(values.strip())  # same value grammar as config files
        grid[key] = parsed if isinstance(parsed, list) else [parsed]
        for i, value in enumerate(grid[key]):
            if value in grid[key][:i]:
                raise ConfigError(
                    f"--grid {key!r} repeats the value {value!r}: each value is one point, "
                    f"so --grid cannot give a list-valued point"
                )
    return grid


def _cmd_sweep(args) -> int:
    cfg = _apply_env_seed(load_config(args.config))
    grid = _parse_grid(args.grid)
    _check_out(args.out)
    result = harness.run_sweep(cfg, grid)
    _emit(harness.format_sweep_csv(result), args.out)
    if any(e.diverged for e in result.entries):
        return EXIT_DIVERGED
    return EXIT_OK


def _toy_config(args) -> ExperimentConfig:
    sections = {
        "testbed": {"kind": args.landscape},
        "optimizer": {"kind": args.optimizer},
        "lr": {"kind": "constant", "value": args.lr},
        "run": {"steps": args.steps},
    }
    for key, value in vars(args).items():  # the config-key flags given
        section, dot, name = key.partition(".")
        if dot and value is not None:
            sections[section][name] = value
    return config_from_sections(sections)


def _cmd_toy(args) -> int:
    return _run(_toy_config(args), args)


def _cmd_analyze_ema(args) -> int:
    profile = PROFILES[args.kind]
    params = inspect.signature(profile).parameters
    given = {k.removeprefix("profile."): v for k, v in vars(args).items() if k.startswith("profile.")}
    for name in given:  # in command-line order
        if name not in params:
            raise ConfigError(f"--{name.replace('_', '-')} is not a parameter of --kind {args.kind}")
    _check_out(args.out)
    try:
        weights = profile(**given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _emit(harness.format_series_csv(enumerate(weights), ("age", "weight")), args.out)
    return EXIT_OK


def _cmd_forget(args) -> int:
    cfg = _apply_env_seed(load_config(args.config))
    if args.t_b is not None:
        cfg = with_values(cfg, {"forget.t_b": args.t_b})
    harness.forget_step(cfg)  # refuse a config without forget.t_b before making the directory
    os.makedirs(args.out_dir, exist_ok=True)
    result = harness.run_forgetting_protocol(cfg)
    heldout = ("step", "heldout_loss")
    outputs = {
        "control.csv": harness.format_record_csv(result.control),
        "injected.csv": harness.format_record_csv(result.injected),
        "heldout_control.csv": harness.format_series_csv(result.control_heldout, heldout),
        "heldout_injected.csv": harness.format_series_csv(result.injected_heldout, heldout),
        "normalized.csv": harness.format_series_csv(result.normalized, ("step", "normalized_loss")),
    }
    for name, text in outputs.items():
        harness.write_text(os.path.join(args.out_dir, name), text)
    if result.control.diverged or result.injected.diverged:
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_checkpoint(args) -> int:
    if args.action == "save":
        cfg = _apply_env_seed(load_config(args.config))
        if not 0 <= args.at_step <= cfg.steps:
            raise ConfigError(f"--at-step must be in [0, run.steps = {cfg.steps}], "
                              f"got {args.at_step}")
        _check_out(args.out)
        exp = harness.Experiment(cfg)
        record = exp.run(until=args.at_step)
        if record.diverged:
            return _record_exit(record)
        Path(args.out).write_bytes(exp.checkpoint())
        return EXIT_OK
    # load: print a summary for inspection
    ck = load_state(Path(args.file).read_bytes())
    print(f"variant: {ck.hyper.get('variant')}")
    print(f"step: {ck.step}")
    for name in sorted(ck.slots):
        print(f"slot {name}: len {len(ck.slots[name])}")
    for key in sorted(ck.hyper):
        if key != "variant":
            print(f"hyper {key} = {ck.hyper[key]}")
    return EXIT_OK


def _add_profile_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per parameter of the ``PROFILES`` functions: its type is the
    annotation (``X | None`` reads as ``X``, and a ``bool`` is a switch), and
    its help shows the keyword default. A flag given is ``profile.<name>`` in
    ``args``; one not given is absent, so the profile's default applies."""
    params = {}  # name -> (default, annotation, the kinds that take it)
    for kind, profile in PROFILES.items():
        hints = get_type_hints(profile)
        for name, param in inspect.signature(profile).parameters.items():
            params.setdefault(name, (param.default, hints[name], []))[2].append(kind)
    for name, (default, hint, kinds) in params.items():
        hint = next(t for t in get_args(hint) or [hint] if t is not type(None))
        how = {"action": "store_true"} if hint is bool else {"type": hint, "metavar": name.upper()}
        parser.add_argument("--" + name.replace("_", "-"), dest="profile." + name,
                            default=argparse.SUPPRESS, **how,
                            help=f"for {', '.join(kinds)} (default: {default})")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ``config error: ...`` with exit 3: argparse's
    own exit 2 is the documented "diverged" code."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"config error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emx", description=__doc__)
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
    p_toy.add_argument("landscape", choices=[k for k in _TESTBED_KEYS if "x0" in _TESTBED_KEYS[k]])
    p_toy.add_argument("--optimizer", default=AdamW.variant,
                       choices=list(OPTIMIZERS))
    p_toy.add_argument("--steps", type=int, default=1000)
    p_toy.add_argument("--lr", type=float, default=1e-3)
    for key in dict.fromkeys(key for keys in _OPTIMIZER_KEYS.values() for key in keys):
        kinds = [kind for kind, keys in _OPTIMIZER_KEYS.items() if key in keys]
        p_toy.add_argument("--" + key.replace("_", "-"), dest=f"optimizer.{key}", metavar="VALUE",
                           type=_parse_value, help=f"optimizer.{key}, for {', '.join(kinds)}")
    p_toy.add_argument("--x0", dest="testbed.x0", metavar="X0", type=_parse_value,
                       help="start point, e.g. --x0=-3,5")
    for key, kind in (("clip", float), ("seed", int), ("cadence", int)):  # unset: config defaults
        p_toy.add_argument("--" + key, dest=f"run.{key}", metavar=key.upper(), type=kind)
    p_toy.add_argument("--out")
    p_toy.add_argument("--jsonl", action="store_true")
    p_toy.set_defaults(fn=_cmd_toy, resume=None)

    p_ema = sub.add_parser("analyze-ema", help="emit a gradient-age weight profile as CSV")
    p_ema.add_argument("--kind", required=True, choices=list(PROFILES))
    _add_profile_flags(p_ema)
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
    except OSError as exc:  # a config, checkpoint or output path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a run whose arrays outgrow the memory left
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
