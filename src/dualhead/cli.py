"""Command-line surface: train, eval, gradcheck, ablate, sweep.

Every command is deterministic given (config, seed); result CSVs are
written by a single writer in a fixed order so repeat runs are
byte-identical. ``ablate`` and ``sweep`` run on the calling thread, and
their fits that share a shape (configs that differ only in seed and loss
weights) train together as one group on one tape, each exactly as it
would alone; ``--jobs`` must be at least 1 and selects no code path.
Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import gradcheck as gradcheck_mod
from . import model as model_mod
from . import trainer as trainer_mod
from .config import ConfigError, RunConfig, apply_overrides, config_hash, load_config, serialize_config, validate_config
from .ndgrad import DegenerateRowError, NonFiniteError, ReplicaMismatch, ShapeError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

# Loss-flag rows of the collaborative-effect ablation, in table order.
ABLATION_COMBOS: tuple[tuple[float, float, float], ...] = (
    (1.0, 0.0, 0.0),
    (1.0, 1.0, 0.0),
    (1.0, 0.0, 1.0),
    (0.0, 1.0, 1.0),
    (1.0, 1.0, 1.0),
)

JOBS_HELP = (
    "kept so existing command lines still run; must be >= 1 and selects no code path:"
    " fits run on one thread, since each holds the GIL, and fits that share a shape train together"
)

# Sweep axis -> its config section; values parse as ``--set section.axis=value`` does.
SWEEP_AXES = {"keys_per_class": "keys", "projector_dim": "model", "queue_size": "keys", "tau": "losses"}


def _effective_config(args) -> RunConfig:
    cfg = load_config(args.config)
    apply_overrides(cfg, args.set or [])
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None) is not None:
        cfg.out = args.out
    return validate_config(cfg)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _run_dir(cfg: RunConfig, default: str) -> Path:
    return Path(cfg.out if cfg.out else default)


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    out_dir = _run_dir(cfg, f"runs/train-{config_hash(cfg)[:8]}")
    run = trainer_mod.fit(cfg)
    _write_text(out_dir / "config.ini", serialize_config(cfg))
    _write_text(out_dir / "metrics.csv", "\n".join(trainer_mod.metrics_csv_lines(run)) + "\n")
    model_mod.save_checkpoint(run.params, str(out_dir / "checkpoint.json"))
    summary = {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "iterations": run.iterations,
        "final_val_acc": run.final_val_acc,
        "best_val_acc": run.best_val_acc,
        "wall_seconds": run.wall_seconds,
        "metrics_csv": "metrics.csv",
        "checkpoint": "checkpoint.json",
    }
    _write_text(out_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    print(
        f"train: final val acc {run.final_val_acc:.4f}, best {run.best_val_acc:.4f}, "
        f"{run.iterations} iterations -> {out_dir}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _effective_config(args)
    params = model_mod.load_checkpoint(args.checkpoint)
    if args.split == "all":
        ds = trainer_mod.build_dataset(cfg, trainer_mod.run_streams(cfg)["data"])
    else:
        train, val = trainer_mod.prepare_data(cfg)
        ds = train if args.split == "train" else val
    acc = trainer_mod.evaluate(params, ds)
    print(f"top1_accuracy {_fmt(acc)}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    report = gradcheck_mod.run_gradcheck(instances=args.instances, base_seed=args.seed)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")


def _fit_alone(cfg: RunConfig) -> trainer_mod.TrainRun | NonFiniteError | DegenerateRowError:
    """A lone fit's run, or the numerical error it raised."""
    try:
        return trainer_mod.fit(cfg)
    except (NonFiniteError, DegenerateRowError) as exc:
        return exc


def _fit_many(configs: list[RunConfig]) -> list[trainer_mod.TrainRun]:
    """Run the fits on the calling thread; the runs come back in input order.

    Configs that share a ``trainer.group_key`` train as one
    ``trainer.fit_group``, groups in order of their first config. A fit
    holds the GIL nearly throughout, so fits on threads only wait on each
    other. A group that fails numerically, maybe in a term a member's
    serial fit never computes, or whose replicas stop agreeing in shape,
    is fit again one config at a time. Each config thus gets exactly its
    serial fit's run or error, and the first error in input order is
    raised.
    """
    groups: dict[tuple[str, bool], list[int]] = {}
    for i, cfg in enumerate(configs):
        groups.setdefault(trainer_mod.group_key(cfg), []).append(i)
    outcomes: list = [None] * len(configs)
    for members in groups.values():
        group = [configs[i] for i in members]
        runs = None
        if len(group) > 1:
            try:
                runs = trainer_mod.fit_group(group)
            except (NonFiniteError, DegenerateRowError, ReplicaMismatch):
                pass  # refit below, one config at a time
        if runs is None:
            runs = [_fit_alone(cfg) for cfg in group]
        for i, run in zip(members, runs):
            outcomes[i] = run
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def cmd_ablate(args) -> int:
    _check_jobs(args.jobs)
    base = _effective_config(args)
    out_dir = _run_dir(base, f"runs/ablate-{config_hash(base)[:8]}")
    rates = args.rates
    seeds = args.seeds
    configs: list[RunConfig] = []
    for combo in ABLATION_COMBOS:
        for rate in rates:
            for seed in seeds:
                cfg = copy.deepcopy(base)
                cfg.losses.ce, cfg.losses.cce, cfg.losses.ccl = combo
                cfg.dataset.sampling_rate = rate
                cfg.seed = seed
                configs.append(validate_config(cfg))
    started = time.perf_counter()
    runs = _fit_many(configs)
    accs = np.array([r.final_val_acc for r in runs]).reshape(len(ABLATION_COMBOS), len(rates), len(seeds))
    header = ["ce", "cce", "ccl"]
    for rate in rates:
        header += [f"mean_r{rate:g}", f"std_r{rate:g}"]
    lines = [",".join(header)]
    for ci, combo in enumerate(ABLATION_COMBOS):
        cells = [f"{int(bool(w))}" for w in combo]
        for ri in range(len(rates)):
            vals = accs[ci, ri]
            std = float(np.std(vals, ddof=1)) if len(seeds) > 1 else 0.0
            cells += [_fmt(float(np.mean(vals))), _fmt(std)]
        lines.append(",".join(cells))
    _write_text(out_dir / "ablation.csv", "\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"ablate: {len(configs)} runs in {time.perf_counter() - started:.1f}s -> {out_dir / 'ablation.csv'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    _check_jobs(args.jobs)
    base = _effective_config(args)
    if args.axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {args.axis!r}; choose from {sorted(SWEEP_AXES)}")
    section = SWEEP_AXES[args.axis]
    out_dir = _run_dir(base, f"runs/sweep-{config_hash(base)[:8]}")
    rows: list[tuple[float, int, RunConfig]] = []
    for raw in args.values:
        for seed in args.seeds:
            cfg = copy.deepcopy(base)
            apply_overrides(cfg, [f"{section}.{args.axis}={raw}"])
            cfg.seed = seed
            rows.append((getattr(getattr(cfg, section), args.axis), seed, validate_config(cfg)))
    rows.sort(key=lambda row: row[0])  # stable: seeds keep their order within a value
    runs = _fit_many([cfg for _, _, cfg in rows])
    lines = ["axis,value,seed,final_val_acc,best_val_acc"]
    for (value, seed, _), run in zip(rows, runs):
        lines.append(f"{args.axis},{value},{seed},{_fmt(run.final_val_acc)},{_fmt(run.best_val_acc)}")
    _write_text(out_dir / "sweep.csv", "\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"sweep: {len(rows)} runs -> {out_dir / 'sweep.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualhead", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config_required: bool = False) -> None:
        p.add_argument("--config", default=None, required=config_required, help="INI config file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE", help="config override (repeatable)")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", default=None, help="output directory")

    p_train = sub.add_parser("train", help="run one fit and write metrics/checkpoint/summary")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset spec")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=("all", "train", "val"), default="all")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of every op and loss")
    p_grad.add_argument("--instances", type=int, default=20, help="random instances per check")
    p_grad.add_argument("--seed", type=int, default=0, help="base seed")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_ablate = sub.add_parser("ablate", help="loss-combination ablation across sampling rates and seeds")
    common(p_ablate)
    p_ablate.add_argument("--rates", type=float, nargs="+", default=[0.25, 0.5, 0.75, 1.0])
    p_ablate.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    p_ablate.add_argument("--jobs", type=int, default=1, metavar="N", help=JOBS_HELP)
    p_ablate.set_defaults(func=cmd_ablate)

    p_sweep = sub.add_parser("sweep", help="sensitivity sweep over one hyperparameter axis")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    p_sweep.add_argument("--values", nargs="+", required=True)
    p_sweep.add_argument("--seeds", type=int, nargs="+", default=[0])
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N", help=JOBS_HELP)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NonFiniteError, DegenerateRowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except data_mod.UnreadableFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (data_mod.DataError, ShapeError, IndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
