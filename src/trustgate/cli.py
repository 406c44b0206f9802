"""Command-line front end: verification suite, landscapes, training runs, duality.

Exit codes: 0 success (for ``verify``: every property passed), 1 runtime
failure, 2 usage or configuration error. Flags override config-file fields;
there are no environment variables. The CLI refuses only what the library
cannot see: an unreadable or non-JSON config, a config that is not a JSON
object, an unknown config field and a malformed ``--r``; every value goes to
the library, whose DomainError message is printed as given.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import trainer
from .core_math import DomainError, _integer, tsallis_entropy
from .landscape import check_grid_size, gradient_landscape
from .objectives import ObjectiveKind
from .trainer import RegimeSpec, TrainConfig, build_task, finetune
from .verification import RULE_MAIN, RULE_PROPER, minimize_risk, reports_to_json, run_property_suite


class ConfigError(ValueError):
    """A config file or flag value violates the expected schema."""


def check_target(path) -> None:
    """Refuse an output path that cannot be written, naming the path as given.

    A directory target raises IsADirectoryError; a target whose parent is
    missing raises FileNotFoundError, or NotADirectoryError when the parent
    is a file.
    """
    path = os.fspath(path)
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def write_atomic(path, text: str) -> None:
    """Write UTF-8 text with LF endings to ``path`` all at once or not at all.

    The text goes to a new temporary file in the target's directory, which
    then replaces the target with ``os.replace``. If anything fails, the
    target keeps its old contents and the temporary file is removed. A
    target that ``check_target`` refuses is refused before any file is made.
    """
    check_target(path)
    directory, name = os.path.split(os.fspath(path))
    temp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    handle = open(temp, "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def _cmd_verify(args: argparse.Namespace) -> int:
    timings: dict[str, float] = {}
    reports = run_property_suite(args.seed, timings=timings)
    if args.timings:
        print(json.dumps(timings), file=sys.stderr)
    print(reports_to_json(reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_landscape(args: argparse.Namespace) -> int:
    check_grid_size(args.p_steps, args.h_steps, args.vocab)
    kind = ObjectiveKind.parse(args.objective)
    check_target(args.out)  # before the grid, not after it
    p_grid = (np.arange(args.p_steps) + 1.0) / (args.p_steps + 1.0)
    max_h = math.log(args.vocab)
    if args.h_steps == 1:
        h_grid = np.array([0.5 * max_h])
    else:
        h_grid = np.linspace(0.0, max_h, args.h_steps)
    grid = gradient_landscape(kind, p_grid, h_grid, args.vocab)
    write_atomic(args.out, grid.to_csv() if args.format == "csv" else grid.to_json())
    print(json.dumps({"out": args.out, "format": args.format, "objective": kind.encode()}))
    return 0


_TRAIN_FIELDS = {field.name for cls in (RegimeSpec, TrainConfig) for field in dataclasses.fields(cls)} | {"task_seed"}


def _load_train_config(path: str, args: argparse.Namespace) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    for key in raw:
        if key not in _TRAIN_FIELDS:
            raise ConfigError(f"unknown config field {key!r}")
    # flags take precedence over config fields; the library checks every value after this
    for key, value in vars(args).items():
        if key in _TRAIN_FIELDS and value is not None:
            raw[key] = value
    return raw


def _fields_set(cfg: dict, cls) -> dict:
    """The config's values for the fields of dataclass ``cls``; fields it leaves out keep their defaults."""
    return {field.name: cfg[field.name] for field in dataclasses.fields(cls) if field.name in cfg}


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_train_config(args.config, args)
    spec = RegimeSpec(**_fields_set(cfg, RegimeSpec))
    objective = ObjectiveKind.parse(cfg.get("objective", "nll"))
    train_cfg = TrainConfig(**{**_fields_set(cfg, TrainConfig), "objective": objective})
    task_seed = _integer(cfg.get("task_seed", train_cfg.seed), "task_seed", 0)
    check_target(args.out)  # before the run, not after it
    started = time.perf_counter()
    task = build_task(spec, task_seed)
    built = time.perf_counter()
    record = finetune(task.model, task.labels, train_cfg, clean_labels=task.clean_labels)
    record.config["regime"] = spec.regime
    tuned = time.perf_counter()
    write_atomic(args.out, json.dumps(record.to_dict(), indent=2) + "\n")
    if args.timings:
        timings = {
            "build_s": built - started,
            "pretrain_steps": task.pretrain_steps,
            "pretrain_chunks": task.pretrain_chunks,
            "finetune_s": tuned - built,
            "emit_s": time.perf_counter() - tuned,
            "workers": trainer.BLOCK_WORKERS,
        }
        print(json.dumps(timings), file=sys.stderr)
    summary = {
        "out": args.out,
        "objective": train_cfg.objective.encode(),
        "steps": train_cfg.steps,
        "quadrants": record.quadrants,
    }
    print(json.dumps(summary))
    return 0


def _cmd_duality(args: argparse.Namespace) -> int:
    try:
        r = np.array([float(part) for part in args.r.split(",")])
    except ValueError as exc:
        raise ConfigError(f"malformed distribution {args.r!r}") from exc
    minimizer, risk = minimize_risk(r, args.alpha, args.rule)
    body = {
        "r": r.tolist(),
        "alpha": args.alpha,
        "rule": args.rule,
        "minimizer": minimizer.tolist(),
        "risk": risk,
        "entropy_order": 1.0 + args.alpha,
        "tsallis_entropy": tsallis_entropy(r, 1.0 + args.alpha),
    }
    payload = json.dumps(body, indent=2)
    if args.out:
        write_atomic(args.out, payload + "\n")
    print(payload)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each ``parse_args`` call starts from its defaults."""
    parser = argparse.ArgumentParser(
        prog="trustgate",
        description="Deformed-log token objectives: property verification, "
        "gradient landscapes, and synthetic fine-tuning runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full numerical property suite")
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument(
        "--timings", action="store_true",
        help="write the wall seconds of each sub-suite as one JSON line on stderr",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_land = sub.add_parser("landscape", help="export a gradient-magnitude grid")
    p_land.add_argument("--objective", required=True, help="nll|linear|alpha:<float>|cayley|deft|eaft")
    p_land.add_argument("--p-steps", type=int, required=True)
    p_land.add_argument("--h-steps", type=int, required=True)
    p_land.add_argument("--vocab", type=int, required=True)
    p_land.add_argument("--out", required=True)
    p_land.add_argument("--format", choices=("csv", "json"), default="csv")
    p_land.set_defaults(func=_cmd_landscape)

    p_train = sub.add_parser(
        "train",
        help="build a synthetic task and fine-tune it per a JSON config "
        "(flags override config fields)",
    )
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--objective", default=None)
    p_train.add_argument("--steps", type=int, default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p_train.add_argument(
        "--timings", action="store_true",
        help="write the wall seconds of build, finetune and emit as one JSON line on stderr",
    )
    p_train.set_defaults(func=_cmd_train)

    p_dual = sub.add_parser("duality", help="search the expected-score minimizer over the simplex")
    p_dual.add_argument("--r", required=True, help="comma-separated probabilities, e.g. 0.8,0.2")
    p_dual.add_argument("--alpha", type=float, required=True)
    p_dual.add_argument("--rule", choices=(RULE_PROPER, RULE_MAIN), default=RULE_PROPER)
    p_dual.add_argument("--out", default=None)
    p_dual.set_defaults(func=_cmd_duality)
    return parser


def parse_and_run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_run(sys.argv[1:]))
