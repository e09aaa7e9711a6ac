"""End-to-end training loop joining the model, key pools, and losses.

One training step runs a fixed pipeline:

1. live forward pass (features, projection, logits);
2. key forward pass for the same batch through the momentum twin;
3. one draw from each replica's pool for all its queries
   (``keypool.sample_group``), slot 0 = each query's own keys (its bank
   snapshot, or its twin keys from stage 2);
4. ``losses.objective`` (the enabled terms and their total), backward,
   SGD-with-momentum update of the one parameter vector (weight decay
   folded into the gradient, boosted learning rate for the heads);
5. momentum update of the twin's vector (after the optimizer step, so
   keys always come from the slow weights);
6. the batch's keys join the pool: a queue append (none on the step
   whose keys seeded a deferred queue), or snapshot mixing in
   memory-bank mode.

Keys are sampled before the batch is enqueued, so a batch never contrasts
against its own fresh keys, save the first step of a deferred queue
warm-up, whose keys seed the empty queues ahead of its draw. When every
contrastive term is disabled the step collapses to vanilla fine-tuning:
stage 1 skips the projector, and stages 2, 3, 5 and 6 are skipped
entirely. In memory-bank mode the twin is used only to initialize the
snapshots in the warm-up, which always runs before step 1; afterwards
keys live in the bank and stage 6 mixes in the *live* (detached) query
features.

Determinism: a run's randomness comes from the named substreams of the
run seed in ``run_streams``, so identical config + seed reproduces the
metric log bit for bit.

Fit groups: every fit is a ``fit_group`` (``fit`` is a group of one),
which trains configs that differ only in seed and loss weights on one
tape, one replica each on ``ndgrad``'s replica axis. The parameter
vector, the twin and the velocity are (R x P); each replica keeps its
own data, generators and key pool, and its pool makes its own one draw
each step, so each replica's params, pool and metric log are its serial
fit's bit for bit. What a fit fixes (the loss weights, the elements each
replica's update reaches, the stacked training set) is resolved once.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as data_mod
from . import keypool as keypool_mod
from . import losses as losses_mod
from . import model as model_mod
from . import ndgrad as nd
from .config import LossesConfig, OptimizerConfig, RunConfig
from .keypool import KeyBatch, MemoryBank, MocoQueues
from .model import ModelDims, ModelParams, MomentumTwin
from .ndgrad import NonFiniteError, ReplicaMismatch, Tensor


@dataclass
class OptimizerState:
    """SGD-with-momentum state of one fit group, built from its configs.

    Weight decay is classic (added to the gradient before the velocity
    update). Head parameters (classifier and projector) train at
    base_lr * head_lr_multiplier; encoder parameters at base_lr. Besides
    ``config`` the state holds only what a fit adds: the resolved
    schedule of (iteration, multiplier) decay points, each applied once
    when its iteration starts; a velocity and a per-element learning-rate
    boost (head_lr_multiplier on the heads, 1 on the encoder), both laid
    out like ``ModelParams.flat`` (the boost one row for every replica);
    the loss weights (``_weights``) and the (R x P) mask ``live`` of the
    elements each replica's update reaches (``_reached``); and the running
    learning-rate multiplier.
    """

    config: OptimizerConfig
    schedule: tuple[tuple[int, float], ...] = ()
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(0))
    boost: np.ndarray = field(default_factory=lambda: np.zeros(0))
    weights: tuple = (1.0, 1.0, 1.0)
    live: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    lr_mult: float = 1.0


@dataclass
class MetricRow:
    iteration: int
    ce: float | None = None
    cce: float | None = None
    ccl: float | None = None
    total: float | None = None
    val_acc: float | None = None


@dataclass
class TrainRun:
    """Everything a finished run produced, metric log included; ``wall_seconds`` is its fit group's."""

    config: RunConfig
    seed: int
    iterations: int
    metric_log: list[MetricRow]
    final_val_acc: float
    best_val_acc: float
    wall_seconds: float
    params: ModelParams
    twin: MomentumTwin
    pool: MocoQueues | MemoryBank


def resolve_schedule(spec, iterations: int) -> tuple[tuple[int, float], ...]:
    """'auto' decays x0.1 at 2/3 and 5/6 of the run; 'none' never decays."""
    if spec == "none" or iterations <= 0:
        return ()
    if spec == "auto":
        points = sorted({max(1, (2 * iterations) // 3), max(1, (5 * iterations) // 6)})
        return tuple((p, 0.1) for p in points)
    return tuple(spec)


def _weights(cfgs: Sequence[RunConfig]) -> tuple:
    """Each term's weight in a group: a float where every replica agrees, else an (R,) vector, one per replica."""
    columns = np.array([c.losses.weights() for c in cfgs]).T
    return tuple(float(w[0]) if (w == w[0]).all() else w for w in columns)


def _reached(params: ModelParams, cfg: LossesConfig, weights: tuple) -> np.ndarray:
    """(R x P) bool: in each replica, the elements of the tensors that its nonzero-weighted terms read.

    The tape's structure, not its values, sets what a term reads, so one probe serves a whole fit: each
    term's ``Tensor.leaves()`` for a one-row batch through a layout of ones, keys in slot 0 alone.
    """
    probe = ModelParams(params.dims, params.classifier_b is not None)
    probe.flat[:] = 1.0
    h, z, logits = model_mod.forward_query(probe, Tensor(np.ones((1, params.dims.in_dim))))
    y = np.zeros(1, dtype=np.int64)
    keys = KeyBatch(h.data[:, None], z.data[:, None], y[:, None])
    terms = losses_mod.objective(h, z, logits, y, probe.classifier_W, keys, cfg, (1.0, 1.0, 1.0))
    names = {id(t): name for name, t in probe.named_parameters()}
    live = np.zeros(params.flat.shape, dtype=bool)
    for term, weight in zip((terms.ce, terms.cce, terms.ccl), weights):
        for leaf in term.leaves():
            live[:, params.slices[names[id(leaf)]]] |= np.reshape(weight != 0.0, (-1, 1))
    return live


def init_optimizer(params: ModelParams, cfgs: Sequence[RunConfig]) -> OptimizerState:
    """A fit group's optimizer state: its configs share everything but seed and loss weights."""
    cfg = cfgs[0]
    boost = np.ones(params.flat.shape[-1])
    for name, span in params.slices.items():
        boost[span] = 1.0 if name.startswith("encoder.") else cfg.optimizer.head_lr_multiplier
    schedule = resolve_schedule(cfg.optimizer.schedule, cfg.optimizer.iterations)
    weights = _weights(cfgs)
    live = _reached(params, cfg.losses, weights)
    return OptimizerState(cfg.optimizer, schedule, np.zeros_like(params.flat), boost, weights, live)


def advance_schedule(opt: OptimizerState, iteration: int) -> None:
    for point, mult in opt.schedule:
        if point == iteration:
            opt.lr_mult *= mult


def sgd_apply(params: ModelParams, opt: OptimizerState) -> None:
    """One SGD-momentum update of the stacked parameter vector; consumes and clears gradients.

    Elements outside ``opt.live`` (tensors that no nonzero-weighted term of
    their replica reads) get no decay and no velocity update, mirroring the
    usual deep-learning convention.
    """
    grad = np.zeros_like(params.flat)
    for name, t in params.named_parameters():
        if t.grad is not None:
            grad[:, params.slices[name]] = t.grad.reshape(grad.shape[0], -1)
            t.zero_grad()
    cfg, w, v, live = opt.config, params.flat, opt.velocity, opt.live
    np.copyto(v, v * cfg.sgd_momentum + (grad + cfg.weight_decay * w), where=live)
    np.subtract(w, ((cfg.base_lr * opt.lr_mult) * opt.boost) * v, out=w, where=live)
    if not np.isfinite(w).all():
        name = next(name for name, t in params.named_parameters() if not np.isfinite(t.data).all())
        raise NonFiniteError(f"parameter {name} became non-finite after the optimizer step")


def step(
    params: ModelParams,
    twin: MomentumTwin,
    pools: Sequence[MocoQueues | MemoryBank],
    batch: tuple[np.ndarray, np.ndarray, np.ndarray],
    opt: OptimizerState,
    cfgs: Sequence[RunConfig],
    rngs: Sequence[np.random.Generator],
) -> losses_mod.LossTerms:
    """One optimization step of a fit group over (features, labels, training row numbers).

    The batch arrays carry the replica axis, and ``pools``, ``cfgs`` and
    ``rngs`` hold one pool, config and sampling generator per replica.
    The configs agree on all but seed and loss weights, read from ``opt``.
    """
    x_np, y, ids = batch
    cfg = cfgs[0]
    contrastive = cfg.losses.contrastive
    bank_mode = isinstance(pools[0], MemoryBank)

    x = Tensor(x_np)
    x.stacked = True
    h_q, z_q, logits = model_mod.forward_query(params, x, project=contrastive)  # nothing reads z in a CE-only step

    keys = None
    if contrastive:
        if bank_mode:  # each query's slot-0 keys: the replicas' h blocks, z blocks and labels
            own = tuple(zip(*(p.entry(i) for p, i in zip(pools, ids))))
        else:
            own = (*model_mod.forward_key(twin, x), y)
        seeding = len(pools[0]) == 0 and cfg.keys.warmup_mode == "defer"  # an empty bank has already raised in entry
        if seeding:  # a deferred warm-up: this batch's keys are the pool's first
            keypool_mod.enqueue_group(pools, *own)
        keys = keypool_mod.sample_group(pools, cfg.keys.keys_per_class, *own, rngs)

    terms = losses_mod.objective(h_q, z_q, logits, y, params.classifier_W, keys, cfg.losses, opt.weights)
    terms.total.backward()
    sgd_apply(params, opt)

    if contrastive:
        if bank_mode:
            h_norm = terms.h_norm.data if terms.h_norm is not None else h_q.data / nd.row_norms(h_q.data, "h")
            for p, *rows in zip(pools, ids, h_norm, z_q.data):
                p.update(*rows)
        else:
            model_mod.momentum_update(twin, params)
            if not seeding:
                keypool_mod.enqueue_group(pools, *own)
    return terms


def warmup(twin: MomentumTwin, pool: MocoQueues | MemoryBank, ds: data_mod.Dataset) -> None:
    """Fill the key pool with one gradient-free pass of every row through the twin, 256 rows a forward.

    A bank installs the keys as its snapshots; queues enqueue them in
    dataset order, which leaves each class its newest queue_size keys.
    """
    parts = [model_mod.forward_key(twin, Tensor(ds.features[lo:lo + 256])) for lo in range(0, len(ds), 256)]
    h, z = np.vstack([h for h, _ in parts]), np.vstack([z for _, z in parts])
    if isinstance(pool, MocoQueues):
        pool.enqueue(h, z, ds.labels)
    else:
        pool.initialize(h, z)


def evaluate(params: ModelParams, ds: data_mod.Dataset) -> float:
    """Top-1 accuracy through the classifier path; argmax ties resolve to
    the lowest class index."""
    if len(ds) == 0:
        raise data_mod.DataError("cannot evaluate on an empty dataset")
    _, _, logits = model_mod.forward_query(params, Tensor(ds.features), project=False)
    pred = np.argmax(logits.data, axis=1)
    return float(np.mean(pred == ds.labels))


def run_streams(cfg: RunConfig) -> dict[str, np.random.SeedSequence]:
    """The run's six substreams by name, spawned from the run seed in this fixed order."""
    names = ("data", "split", "subsample", "init", "batch", "sample")
    return dict(zip(names, np.random.SeedSequence(cfg.seed).spawn(len(names))))


def build_dataset(cfg: RunConfig, seed_seq: np.random.SeedSequence) -> data_mod.Dataset:
    """Construct the full dataset named by the config.

    Synthetic generators use dataset.seed when given (fixing the data
    across run seeds), otherwise a substream of the run seed.
    """
    dc = cfg.dataset
    gen_seed = dc.seed if dc.seed is not None else seed_seq
    if dc.kind == "blobs":
        return data_mod.make_blobs(dc.classes, dc.per_class, dc.dim, dc.separation, dc.noise, gen_seed)
    if dc.kind == "rings":
        return data_mod.make_rings(dc.classes, dc.per_class, dc.noise, gen_seed)
    if dc.kind == "file":
        return data_mod.load_delimited(dc.path, dc.delimiter, dc.label_column, dc.has_header)
    raise ValueError(f"unknown dataset kind {dc.kind!r}")


def prepare_data(cfg: RunConfig) -> tuple[data_mod.Dataset, data_mod.Dataset]:
    """Dataset -> stratified split -> per-class subsample of the train side.

    Shared by training and standalone evaluation so both see the same
    split for the same config.
    """
    streams = run_streams(cfg)
    full = build_dataset(cfg, streams["data"])
    train, val = data_mod.split_stratified(full, cfg.dataset.train_fraction, streams["split"])
    if cfg.dataset.sampling_rate != 1.0:
        train = data_mod.subsample_per_class(train, cfg.dataset.sampling_rate, streams["subsample"])
    return train, val


class _Batcher:
    """Shuffled mini-batches, reshuffling at each epoch boundary."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        self.n = n
        self.batch_size = min(batch_size, n)
        self.rng = rng
        self.perm = rng.permutation(n)
        self.pos = 0

    def next(self) -> np.ndarray:
        if self.pos >= self.n:
            self.perm = self.rng.permutation(self.n)
            self.pos = 0
        out = self.perm[self.pos:self.pos + self.batch_size]
        self.pos += self.batch_size
        return out


def group_key(cfg: RunConfig) -> tuple[str, bool]:
    """What a fit group's configs share: every field but the seed and the three loss weights, and ``contrastive``."""
    return repr(replace(cfg, seed=0, losses=replace(cfg.losses, ce=0.0, cce=0.0, ccl=0.0))), cfg.losses.contrastive


def fit(cfg: RunConfig) -> TrainRun:
    """Warm up, train for cfg.optimizer.iterations steps, log, evaluate: a fit group of one."""
    return fit_group([cfg])[0]


def fit_group(cfgs: Sequence[RunConfig]) -> list[TrainRun]:
    """Fit configs that differ only in seed and loss weights on one tape; their runs in input order.

    Each config is one replica, and each run equals its own serial fit
    bit for bit; the configs must share a ``group_key``. A group of one,
    a lone fit, trains the same stacked tape at R = 1. Raises
    ``ReplicaMismatch`` when the replicas' data or key batches stop
    agreeing in shape.
    """
    started = time.perf_counter()
    cfg = cfgs[0]
    if len({group_key(c) for c in cfgs}) > 1:
        raise ValueError("a fit group's configs may differ only in seed and loss weights")
    streams = [run_streams(c) for c in cfgs]
    trains, vals = zip(*(prepare_data(c) for c in cfgs))
    train = trains[0]
    if len({(len(t), t.in_dim, t.class_count) for t in trains}) > 1:
        raise ReplicaMismatch(f"replicas hold training sets of sizes {[len(t) for t in trains]}")

    dims = ModelDims(
        in_dim=train.in_dim,
        hidden=cfg.model.hidden,
        feature_dim=cfg.model.feature_dim,
        class_count=train.class_count,
        projector_dim=cfg.model.projector_dim,
    )
    params = model_mod.stack([
        model_mod.init_params(dims, np.random.default_rng(s["init"]), classifier_bias=cfg.model.classifier_bias)
        for s in streams
    ])
    twin = model_mod.init_twin(params, cfg.keys.momentum)
    if cfg.keys.generator == "membank":
        pools: list[MocoQueues | MemoryBank] = [
            MemoryBank(t.labels, cfg.keys.bank_momentum, cfg.keys.bank_uniform) for t in trains
        ]
    else:
        pools = [MocoQueues(t.class_count, cfg.keys.queue_size) for t in trains]

    if cfg.losses.contrastive and (cfg.keys.warmup_mode == "prefill" or isinstance(pools[0], MemoryBank)):
        for view, pool, t in zip(twin.replicas(), pools, trains):
            warmup(view, pool, t)  # the bank twin never moves, so a deferred bank warm-up is this one

    opt = init_optimizer(params, cfgs)
    batchers = [
        _Batcher(len(t), cfg.optimizer.batch_size, np.random.default_rng(s["batch"])) for t, s in zip(trains, streams)
    ]
    sample_rngs = [np.random.default_rng(s["sample"]) for s in streams]
    features, labels = np.stack([t.features for t in trains]), np.stack([t.labels for t in trains])
    replica = np.arange(len(cfgs))[:, None]  # a batch's picks[r] index replica r's rows
    views = params.replicas()  # each over its row of params.flat, so always current

    def accuracies() -> list[float]:
        return [evaluate(view, val) for view, val in zip(views, vals)]

    logs = [[MetricRow(iteration=0, val_acc=acc)] for acc in accuracies()]
    best = [log[0].val_acc for log in logs]
    iterations = cfg.optimizer.iterations
    for it in range(1, iterations + 1):
        advance_schedule(opt, it)
        picks = np.array([b.next() for b in batchers])
        batch = (features[replica, picks], labels[replica, picks], picks)
        terms = step(params, twin, pools, batch, opt, cfgs, sample_rngs)

        due_log = it % cfg.log_every == 0
        due_eval = it % cfg.eval_every == 0 or it == iterations
        if due_log or due_eval:
            accs = accuracies() if due_eval else [None] * len(cfgs)
            for r, (log, acc) in enumerate(zip(logs, accs)):
                row = MetricRow(iteration=it, **terms.values(r))
                if due_eval:
                    row.val_acc = acc
                    best[r] = max(best[r], acc)
                log.append(row)

    wall = time.perf_counter() - started
    return [
        TrainRun(
            config=c,
            seed=c.seed,
            iterations=iterations,
            metric_log=log,
            final_val_acc=log[-1].val_acc,  # the last iteration always evaluates
            best_val_acc=b,
            wall_seconds=wall,
            params=p,
            twin=tw,
            pool=pool,
        )
        for c, log, b, p, tw, pool in zip(cfgs, logs, best, views, twin.replicas(), pools)
    ]


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def metrics_csv_lines(run: TrainRun) -> list[str]:
    """Deterministic CSV rows: identical runs serialize byte-identically."""
    lines = ["iteration,ce,cce,ccl,total,val_acc"]
    for row in run.metric_log:
        lines.append(
            f"{row.iteration},{_fmt(row.ce)},{_fmt(row.cce)},{_fmt(row.ccl)},{_fmt(row.total)},{_fmt(row.val_acc)}"
        )
    return lines
