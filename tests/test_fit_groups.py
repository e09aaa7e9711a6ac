"""Fit groups: configs that differ only in seed and loss weights train on one tape, each exactly as it would alone.

``cli._fit_many`` groups configs by everything but the seed and the loss
weights (and by whether a contrastive term is on), and ``trainer.fit_group``
trains each group on the replica axis. Every member's ``metrics.csv``
lines, final parameters, twin, velocity and pool arrays must be
byte-identical to its own ``trainer.fit``, on both key generators and
both warm-ups, under both reductions. A group that fails numerically, or
whose replicas stop agreeing in shape, is fit again one config at a
time, so each config still gets exactly its serial run or its serial
error.
"""

import numpy as np
import pytest

import dualhead.cli as cli_mod
import dualhead.losses as losses_mod
import dualhead.ndgrad as nd
from dualhead import trainer
from dualhead.cli import ABLATION_COMBOS, main
from dualhead.config import REDUCTIONS, RunConfig, validate_config
from step_states import pool_arrays

SEEDS = (0, 1, 2)

POOLS = {
    "moco-prefill": {"keys.generator": "moco", "keys.warmup_mode": "prefill"},
    "moco-defer": {"keys.generator": "moco", "keys.warmup_mode": "defer"},
    "membank-balanced": {"keys.generator": "membank"},
    "membank-uniform": {
        "keys.generator": "membank", "keys.bank_uniform": True, "losses.cce_variant": "per_key",
        "model.classifier_bias": True, "optimizer.weight_decay": 1e-3,
    },
}


def group_cfg(pool: str, reduction: str, weights, seed: int, iterations: int = 40) -> RunConfig:
    """A small fit; rings on queues, blobs in the bank, so both data generators vary with the seed."""
    cfg = RunConfig()
    cfg.seed = seed
    cfg.dataset.kind = "blobs" if pool.startswith("membank") else "rings"
    cfg.dataset.per_class = 30
    cfg.model.hidden = (16,)
    cfg.model.feature_dim = 8
    cfg.model.projector_dim = 8
    cfg.optimizer.iterations = iterations
    cfg.optimizer.batch_size = 12
    cfg.optimizer.base_lr = 3e-3 if reduction == "mean" else 3e-4
    cfg.losses.reduction = reduction
    cfg.losses.ce, cfg.losses.cce, cfg.losses.ccl = weights
    cfg.keys.queue_size = 8
    cfg.keys.momentum = 0.99
    cfg.log_every = 5
    cfg.eval_every = 15
    for key, value in POOLS[pool].items():
        section, name = key.split(".")
        setattr(getattr(cfg, section), name, value)
    return validate_config(cfg)


@pytest.fixture
def spies(monkeypatch):
    """Records each fit's optimizer state, and the configs of each fit and fit group, in call order.

    ``trainer.fit`` is a group of one, so a group's record is kept only for more than one config.
    """
    opts, calls = [], []
    real_init, real_fit, real_group = trainer.init_optimizer, trainer.fit, trainer.fit_group

    def init_optimizer(params, cfg):
        opts.append(real_init(params, cfg))
        return opts[-1]

    def fit(cfg):
        calls.append(("fit", [cfg]))
        return real_fit(cfg)

    def fit_group(cfgs):
        if len(cfgs) > 1:
            calls.append(("fit_group", list(cfgs)))
        return real_group(cfgs)

    monkeypatch.setattr(trainer, "init_optimizer", init_optimizer)
    monkeypatch.setattr(trainer, "fit", fit)
    monkeypatch.setattr(trainer, "fit_group", fit_group)
    return opts, calls


def fingerprint(run: trainer.TrainRun, velocity: np.ndarray) -> dict:
    """Everything a member must share with its serial fit, as bytes."""
    out = {
        "metrics.csv": "\n".join(trainer.metrics_csv_lines(run)).encode(),
        "params": run.params.flat.tobytes(),
        "twin": run.twin.flat.tobytes(),
        "velocity": np.ascontiguousarray(velocity).tobytes(),
    }
    out.update({f"pool.{name}": a.tobytes() for name, a in pool_arrays(run.pool).items()})
    return out


def serial_fingerprints(configs, spies) -> list[dict]:
    opts, calls = spies
    out = []
    for cfg in configs:
        run = trainer.fit(cfg)
        out.append(fingerprint(run, opts[-1].velocity))
    calls.clear()
    opts.clear()
    return out


@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("pool", list(POOLS))
def test_every_member_is_its_serial_fit_byte_for_byte(pool, reduction, spies):
    opts, calls = spies
    configs = [group_cfg(pool, reduction, weights, seed) for weights in ABLATION_COMBOS for seed in SEEDS]
    want = serial_fingerprints(configs, spies)
    runs = cli_mod._fit_many(configs)
    # The CE-only row trains apart from the contrastive ones; both groups mix the three seeds.
    assert [(kind, len(group)) for kind, group in calls] == [("fit_group", 3), ("fit_group", 12)]
    assert [cfg for _, group in calls for cfg in group] == configs
    assert [run.config for run in runs] == configs
    velocities = [row for opt in opts for row in opt.velocity]
    for i, (run, velocity, expected) in enumerate(zip(runs, velocities, want)):
        got = fingerprint(run, velocity)
        assert got.keys() == expected.keys()
        for name in expected:
            where = f"member {i} ({configs[i].losses.weights()}, seed {configs[i].seed})"
            assert got[name] == expected[name], f"{where}: {name}"


def test_a_zero_weight_drops_its_term_out_of_the_total_bit_for_bit():
    # A saturated term is -0.0, and the serial total skips a switched-off term: +0.0 must not stand in for it.
    rng = np.random.default_rng(0)
    for trial in range(200):
        values = rng.choice([-0.0, 0.0, 0.75, 2.5], size=(3, 4))
        weights = rng.choice([0.0, 0.5, 1.0], size=(4, 3))
        weights[weights.sum(axis=1) == 0.0, 0] = 1.0  # every replica keeps a term
        terms = []
        for row in values:
            t = nd.Tensor(row)
            t.stacked = True
            terms.append(t)
        total = losses_mod.joint_total(losses_mod.LossTerms(*terms, weights=tuple(weights.T))).data
        for r in range(4):
            parts = [v if w == 1.0 else v * w for v, w in zip(values[:, r], weights[r]) if w != 0.0]
            serial = parts[0]
            for part in parts[1:]:
                serial = serial + part
            assert total[r].tobytes() == np.float64(serial).tobytes(), f"trial {trial} replica {r}"


def test_a_group_takes_only_configs_that_differ_in_seed_and_loss_weights():
    a = group_cfg("moco-prefill", "mean", (1.0, 1.0, 1.0), 0)
    b = group_cfg("moco-prefill", "mean", (0.0, 1.0, 0.5), 1)
    assert trainer.group_key(a) == trainer.group_key(b)
    other_tau = group_cfg("moco-prefill", "mean", (1.0, 1.0, 1.0), 2)
    other_tau.losses.tau = 0.2
    ce_only = group_cfg("moco-prefill", "mean", (1.0, 0.0, 0.0), 2)  # draws no keys
    for c in (other_tau, ce_only):
        assert trainer.group_key(c) != trainer.group_key(a)
        with pytest.raises(ValueError, match="only in seed and loss weights"):
            trainer.fit_group([a, c])


@pytest.mark.parametrize("iterations", [0, 1, 12])
@pytest.mark.parametrize("size", [1, 3])
def test_every_fit_is_stacked_and_reads_its_terms_once(size, iterations, monkeypatch):
    # A lone fit is a group of one: R = 1 on the replica axis. What each term reads is found once per fit.
    configs = [group_cfg("membank-balanced", "mean", (1.0, 1.0, 0.0), seed, iterations) for seed in SEEDS[:size]]
    shapes, probes = [], []
    real_step, real_reached = trainer.step, trainer._reached

    def step(params, *rest):
        shapes.append((params.stacked, params.flat.shape[0]))
        return real_step(params, *rest)

    monkeypatch.setattr(trainer, "step", step)
    monkeypatch.setattr(trainer, "_reached", lambda *args: probes.append(args) or real_reached(*args))
    if size == 1:
        trainer.fit(configs[0])
    else:
        trainer.fit_group(configs)
    assert shapes == [(True, size)] * iterations
    assert len(probes) == 1


def benchmark_ablate_argv(out) -> list[str]:
    """The benchmark's ablate command line: rings at 25% sampling, one seed, five loss rows."""
    sets = {
        "dataset.kind": "rings", "dataset.per_class": 60, "dataset.noise": 0.1, "dataset.sampling_rate": 0.25,
        "dataset.seed": 1234, "model.hidden": 32, "model.feature_dim": 16, "model.projector_dim": 16,
        "optimizer.iterations": 100, "optimizer.batch_size": 16, "optimizer.base_lr": 0.003,
        "losses.reduction": "mean", "keys.queue_size": 8, "keys.momentum": 0.99,
    }
    argv = ["ablate"]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    return argv + ["--rates", "0.25", "--seeds", "4321", "--jobs", "2", "--out", str(out)]


def test_the_benchmark_ablate_trains_as_one_and_four(tmp_path, spies, monkeypatch):
    _, calls = spies
    seen = []
    real_fit_many = cli_mod._fit_many

    def fit_many(configs):
        runs = real_fit_many(configs)
        seen.append((list(configs), runs))
        return runs

    monkeypatch.setattr(cli_mod, "_fit_many", fit_many)
    assert main(benchmark_ablate_argv(tmp_path / "ab")) == 0
    assert [(kind, [cfg.losses.weights() for cfg in group]) for kind, group in calls] == [
        ("fit", [ABLATION_COMBOS[0]]),
        ("fit_group", list(ABLATION_COMBOS[1:])),
    ]
    ((configs, runs),) = seen
    assert [run.config for run in runs] == configs
    assert [cfg.losses.weights() for cfg in configs] == list(ABLATION_COMBOS)


def test_key_batches_that_disagree_in_shape_fall_back_to_serial_fits(spies):
    # Deferred queues fill only the classes of each seed's first batches, so with two rows a batch
    # the seeds draw from different numbers of classes, and their key blocks cannot be stacked.
    configs = [group_cfg("moco-defer", "mean", (1.0, 1.0, 1.0), seed, iterations=12) for seed in SEEDS]
    for cfg in configs:
        cfg.optimizer.batch_size = 2
    want = serial_fingerprints(configs, spies)
    opts, calls = spies
    mismatches = []
    real_group = trainer.fit_group

    def fit_group(cfgs):
        try:
            return real_group(cfgs)
        except nd.ReplicaMismatch as exc:
            mismatches.append(str(exc))
            raise

    with pytest.MonkeyPatch.context() as m:
        m.setattr(trainer, "fit_group", fit_group)
        runs = cli_mod._fit_many(configs)
    assert len(mismatches) == 1 and mismatches[0].startswith("replicas drew key blocks of shapes")
    assert [kind for kind, _ in calls] == ["fit_group"] + ["fit"] * 3
    for run, opt, expected in zip(runs, opts[1:], want):  # opts[0] is the abandoned group's
        assert fingerprint(run, opt.velocity) == expected


def break_one_replica(monkeypatch, replica: int) -> None:
    """Make a group's row_l2_normalize see a zero row 0 in one replica: a failure no serial fit (R = 1) meets."""
    real = nd.row_l2_normalize

    def patched(a):
        if a.stacked and a.shape[0] > replica:
            a = nd.Tensor(a.data.copy())
            a.data[replica, 0] = 0.0
            a.stacked = True
        return real(a)

    monkeypatch.setattr(nd, "row_l2_normalize", patched)


def test_a_failing_group_whose_serial_fits_succeed_gives_the_serial_runs(spies, monkeypatch):
    configs = [group_cfg("membank-balanced", "mean", weights, 1) for weights in ABLATION_COMBOS[1:]]
    want = serial_fingerprints(configs, spies)
    opts, calls = spies
    break_one_replica(monkeypatch, 2)
    with pytest.raises(nd.DegenerateRowError, match="^replica 2 row 0 "):
        trainer.fit_group(configs)
    calls.clear()
    opts.clear()
    runs = cli_mod._fit_many(configs)
    assert [kind for kind, _ in calls] == ["fit_group"] + ["fit"] * 4
    for run, opt, expected in zip(runs, opts[1:], want):
        assert fingerprint(run, opt.velocity) == expected


def test_ablate_through_a_failing_group_writes_the_serial_table(tmp_path, spies, monkeypatch):
    argv = benchmark_ablate_argv(tmp_path / "plain")
    assert main(argv) == 0
    want = (tmp_path / "plain" / "ablation.csv").read_bytes()
    break_one_replica(monkeypatch, 1)
    _, calls = spies
    calls.clear()
    assert main(argv[:-1] + [str(tmp_path / "broken")]) == 0
    assert [kind for kind, _ in calls] == ["fit", "fit_group"] + ["fit"] * 4
    assert (tmp_path / "broken" / "ablation.csv").read_bytes() == want


def test_ablate_stops_with_the_serial_error(tmp_path, spies, monkeypatch, capsys):
    # The CE-free row fails in its serial fit, and its replica fails the group: exit 2 with the serial message.
    real = losses_mod.objective
    message = "non-finite value produced by masked_nll"

    def objective(h, z, logits, labels, W, keys, cfg, weights=None):
        # One weight row per replica; a float weight is every replica's.
        rows = list(zip(*np.broadcast_arrays(*np.atleast_1d(*(cfg.weights() if weights is None else weights)))))
        if (0.0, 1.0, 1.0) in rows:
            where = "" if len(rows) == 1 else f" in replica {rows.index((0.0, 1.0, 1.0))}"
            raise nd.NonFiniteError(message + where)
        return real(h, z, logits, labels, W, keys, cfg, weights)

    monkeypatch.setattr(losses_mod, "objective", objective)
    assert main(benchmark_ablate_argv(tmp_path / "ab")) == 2
    err = capsys.readouterr().err
    _, calls = spies
    assert [kind for kind, _ in calls] == ["fit", "fit_group"] + ["fit"] * 4
    configs = calls[0][1] + calls[1][1]  # the CE row, then the group: the table's order
    assert [cfg.losses.weights() for cfg in configs] == list(ABLATION_COMBOS)
    with pytest.raises(nd.NonFiniteError) as serial:  # the serial loop's first error, in input order
        for cfg in configs:
            trainer.fit(cfg)
    assert str(serial.value) == message
    assert err == f"numerical failure: {serial.value}\n"
    assert not (tmp_path / "ab" / "ablation.csv").exists()
