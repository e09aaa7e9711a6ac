"""The four benchmark workloads and the checks on their outputs.

Every workload calls dualhead through module attributes looked up at
call time (``trainer_mod.fit``, ``cli_mod.main``, ``gradcheck_mod.
run_gradcheck``) so that a traced run's wrappers see the call. All
inputs derive from the benchmark seed: operation ``i`` of a run gets its
own run seed and dataset seed from ``(seed, i)``. A fit's speed can
depend on its seeds, so drawing both afresh per operation keeps one
unlucky draw from setting a whole run's median.

Why these four (see also BENCHMARK.json):

* ``fit_ce``: vanilla fine-tuning, about 15 tape nodes per step, no key
  pool and no twin. It bypasses every contrastive and key-pool change,
  where the prediction is no change.
* ``fit_membank``: the heaviest single fit; per-query ``cce``/``ccl``
  loops and memory-bank reads and writes, no twin forward.
* ``ablate``: the CLI ablation with ``--jobs 2``; the moco path (twin
  forward, momentum update, FIFO writes) and the only user of
  ``cli._fit_many``.
* ``gradcheck``: finite differences; builds many tape nodes forward-only
  and barely runs ``backward``.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dualhead import cli as cli_mod
from dualhead import gradcheck as gradcheck_mod
from dualhead import trainer as trainer_mod
from dualhead.config import RunConfig, validate_config
from dualhead.ndgrad import DegenerateRowError, NonFiniteError

GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_CASES = 19  # 13 op cases and 6 loss cases
ABLATION_ROWS = ("1,0,0", "1,1,0", "1,0,1", "0,1,1", "1,1,1")
ABLATE_JOBS = 2
DATASET_KEY = 1  # distinguishes an operation's dataset seed from its run seed

# Work per operation and the accuracy each fit must reach. The fit floors
# sit well below what these configs reach on any seed tried and well above
# the 1/3 of a constant predictor. An ablation fit gets 100 iterations, too
# few for any floor above chance to hold on every seed (the CE row ranged
# from 0.24 to 0.48), so its table is checked for shape and range only.
SIZES = {
    "full": {
        "fit_ce": {"iterations": 1000, "floor": 0.6},
        "fit_membank": {"iterations": 400, "floor": 0.8},
        "ablate": {"iterations": 100},
        "gradcheck": {"instances": 20},
    },
    "tiny": {
        "fit_ce": {"iterations": 20, "floor": 0.0},
        "fit_membank": {"iterations": 5, "floor": 0.0},
        "ablate": {"iterations": 3},
        "gradcheck": {"instances": 1},
    },
}


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed that is a fixed function of the benchmark seed and ``keys``."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass
class Outcome:
    """One operation: its wall time, the work it did, and its failures."""

    seconds: float
    units: int
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _fail(outcome: Outcome, problem: str) -> Outcome:
    outcome.failed = outcome.attempted
    outcome.problems.append(problem)
    return outcome


def _guarded(call):
    """Run ``call``; an exception from the program is a failed result."""
    started = time.perf_counter()
    try:
        return call(), time.perf_counter() - started, None
    except (NonFiniteError, DegenerateRowError) as exc:
        return None, time.perf_counter() - started, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # the benchmark keeps going and counts it
        traceback.print_exc(file=sys.stderr)
        return None, time.perf_counter() - started, f"{type(exc).__name__}: {exc}"


def rings_cfg(weights, iterations: int) -> RunConfig:
    """The acceptance suite's rings config at 25% sampling; the data seed is set per operation."""
    cfg = RunConfig()
    cfg.dataset.kind = "rings"
    cfg.dataset.classes = 3
    cfg.dataset.per_class = 60
    cfg.dataset.noise = 0.1
    cfg.dataset.sampling_rate = 0.25
    cfg.model.hidden = (32,)
    cfg.model.feature_dim = 16
    cfg.model.projector_dim = 16
    cfg.optimizer.iterations = iterations
    cfg.optimizer.batch_size = 16
    cfg.optimizer.base_lr = 0.003
    cfg.losses.reduction = "mean"
    cfg.losses.ce, cfg.losses.cce, cfg.losses.ccl = weights
    cfg.keys.queue_size = 8
    cfg.keys.keys_per_class = 2
    cfg.keys.momentum = 0.99
    return validate_config(cfg)


def blobs_membank_cfg(iterations: int) -> RunConfig:
    """The acceptance suite's blobs config, memory-bank keys, all three losses."""
    cfg = RunConfig()
    cfg.dataset.kind = "blobs"
    cfg.dataset.classes = 3
    cfg.dataset.per_class = 60
    cfg.dataset.dim = 4
    cfg.dataset.separation = 6.0
    cfg.dataset.noise = 1.0
    cfg.model.hidden = (32,)
    cfg.model.feature_dim = 16
    cfg.model.projector_dim = 16
    cfg.optimizer.iterations = iterations
    cfg.optimizer.batch_size = 16
    cfg.optimizer.base_lr = 0.003
    cfg.optimizer.weight_decay = 1e-3
    cfg.losses.reduction = "mean"
    cfg.keys.generator = "membank"
    cfg.keys.queue_size = 8
    cfg.keys.keys_per_class = 2
    cfg.keys.momentum = 0.99
    return validate_config(cfg)


def _config_args(cfg: RunConfig) -> list[str]:
    """``--set`` overrides reproducing every field that differs from the defaults."""
    defaults = RunConfig()
    args = []
    for section in ("dataset", "model", "keys", "losses", "optimizer"):
        ours, theirs = getattr(cfg, section), getattr(defaults, section)
        for key, value in vars(ours).items():
            if value != getattr(theirs, key):
                text = ",".join(str(v) for v in value) if isinstance(value, tuple) else str(value)
                args += ["--set", f"{section}.{key}={text}"]
    return args


class FitWorkload:
    """One ``trainer.fit`` per operation; throughput is training steps per second."""

    def __init__(self, template: RunConfig, floor: float):
        self.template = template
        self.floor = floor

    def run(self, seed: int, index: int) -> Outcome:
        cfg = copy.deepcopy(self.template)
        cfg.seed = derive_seed(seed, index)
        cfg.dataset.seed = derive_seed(seed, index, DATASET_KEY)
        iterations = cfg.optimizer.iterations
        run, seconds, error = _guarded(lambda: trainer_mod.fit(cfg))
        outcome = Outcome(seconds=seconds, units=iterations, attempted=1)
        if error:
            return _fail(outcome, error)
        enabled = [name for name, w in zip(("ce", "cce", "ccl"), cfg.losses.weights()) if w != 0.0]
        for row in run.metric_log[1:]:
            for name in enabled + ["total"]:
                value = getattr(row, name)
                if value is None or not math.isfinite(value):
                    return _fail(outcome, f"iteration {row.iteration}: {name} logged as {value!r}")
        if run.iterations != iterations:
            return _fail(outcome, f"ran {run.iterations} iterations, asked for {iterations}")
        if not self.floor <= run.final_val_acc <= 1.0:
            return _fail(outcome, f"final accuracy {run.final_val_acc!r} outside [{self.floor}, 1]")
        return outcome


class AblateWorkload:
    """One ``dualhead ablate`` per operation; throughput is fits per second."""

    def __init__(self, template: RunConfig, out_root: Path):
        self.config_args = _config_args(template)
        self.out_root = out_root

    def run(self, seed: int, index: int) -> Outcome:
        out = self.out_root / f"ablate-{seed}-{index}"
        argv = [
            "ablate", *self.config_args, "--set", f"dataset.seed={derive_seed(seed, index, DATASET_KEY)}",
            "--rates", "0.25", "--seeds", str(derive_seed(seed, index)),
            "--jobs", str(ABLATE_JOBS), "--out", str(out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code, seconds, error = _guarded(lambda: cli_mod.main(argv))
        outcome = Outcome(seconds=seconds, units=len(ABLATION_ROWS), attempted=1)
        try:
            if error:
                return _fail(outcome, error)
            if code != 0:
                return _fail(outcome, f"ablate exited with code {code}")
            return self._check_table(outcome, out / "ablation.csv")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_table(self, outcome: Outcome, path: Path) -> Outcome:
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            return _fail(outcome, f"cannot read {path.name}: {exc}")
        if not rows or rows[0] != ["ce", "cce", "ccl", "mean_r0.25", "std_r0.25"]:
            return _fail(outcome, f"bad ablation header {rows[:1]!r}")
        body = rows[1:]
        if [",".join(r[:3]) for r in body] != list(ABLATION_ROWS):
            return _fail(outcome, f"expected the five loss rows, got {[r[:3] for r in body]!r}")
        for r in body:
            try:
                mean, std = float(r[3]), float(r[4])
            except (IndexError, ValueError):
                return _fail(outcome, f"malformed ablation row {r!r}")
            if not (0.0 <= mean <= 1.0 and math.isfinite(std)):
                return _fail(outcome, f"row {','.join(r[:3])}: mean {mean!r}, std {std!r}")
        return outcome


class GradcheckWorkload:
    """One ``run_gradcheck`` per operation; throughput is checks times instances per second."""

    def __init__(self, instances: int):
        self.instances = instances

    def run(self, seed: int, index: int) -> Outcome:
        base = derive_seed(seed, index)
        report, seconds, error = _guarded(
            lambda: gradcheck_mod.run_gradcheck(instances=self.instances, base_seed=base)
        )
        outcome = Outcome(seconds=seconds, units=GRADCHECK_CASES * self.instances, attempted=GRADCHECK_CASES)
        if error:
            return _fail(outcome, error)
        if len(report.results) != GRADCHECK_CASES:
            return _fail(outcome, f"{len(report.results)} checks ran, expected {GRADCHECK_CASES}")
        for r in report.results:
            if not r.max_rel_err <= GRADCHECK_TOLERANCE:
                outcome.failed += 1
                outcome.problems.append(f"{r.kind} {r.name}: max rel err {r.max_rel_err:.3e}")
        return outcome


def build(name: str, size: str, out_root: Path):
    """Build a workload's configs; everything before its first operation."""
    spec = SIZES[size][name]
    if name == "fit_ce":
        return FitWorkload(rings_cfg((1.0, 0.0, 0.0), spec["iterations"]), spec["floor"])
    if name == "fit_membank":
        return FitWorkload(blobs_membank_cfg(spec["iterations"]), spec["floor"])
    if name == "ablate":
        return AblateWorkload(rings_cfg((1.0, 1.0, 1.0), spec["iterations"]), out_root)
    if name == "gradcheck":
        return GradcheckWorkload(spec["instances"])
    raise ValueError(f"unknown workload {name!r}")
