"""End-to-end training loop joining the model, key pools, and losses.

One training step runs a fixed pipeline:

1. live forward pass (features, projection, logits);
2. key forward pass for the same batch through the momentum twin;
3. one batched key draw for all queries, slot 0 = each query's own key;
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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from . import losses as losses_mod
from . import model as model_mod
from . import ndgrad as nd
from .config import OptimizerConfig, RunConfig
from .keypool import MemoryBank, MocoQueues
from .model import ModelDims, ModelParams, MomentumTwin
from .ndgrad import NonFiniteError, Tensor


@dataclass
class OptimizerState:
    """SGD-with-momentum state of one run, built from its ``OptimizerConfig``.

    Weight decay is classic (added to the gradient before the velocity
    update). Head parameters (classifier and projector) train at
    base_lr * head_lr_multiplier; encoder parameters at base_lr. Besides
    ``config`` the state holds only what a run adds: the resolved
    schedule of (iteration, multiplier) decay points, each applied once
    when its iteration starts; a velocity and a per-element learning-rate
    boost (head_lr_multiplier on the heads, 1 on the encoder), both laid
    out like ``ModelParams.flat``; and the running learning-rate multiplier.
    """

    config: OptimizerConfig
    schedule: tuple[tuple[int, float], ...] = ()
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(0))
    boost: np.ndarray = field(default_factory=lambda: np.zeros(0))
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
    """Everything a finished run produced, metric log included."""

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


def init_optimizer(params: ModelParams, cfg: RunConfig) -> OptimizerState:
    boost = np.ones_like(params.flat)
    for name, span in params.slices.items():
        boost[span] = 1.0 if name.startswith("encoder.") else cfg.optimizer.head_lr_multiplier
    schedule = resolve_schedule(cfg.optimizer.schedule, cfg.optimizer.iterations)
    return OptimizerState(cfg.optimizer, schedule, np.zeros_like(params.flat), boost)


def advance_schedule(opt: OptimizerState, iteration: int) -> None:
    for point, mult in opt.schedule:
        if point == iteration:
            opt.lr_mult *= mult


def sgd_apply(params: ModelParams, opt: OptimizerState) -> None:
    """One SGD-momentum update of the parameter vector; consumes and clears gradients.

    Parameters whose gradient was never touched this step are masked out
    (no decay, no velocity update), mirroring the usual deep-learning convention.
    """
    grad = np.zeros_like(params.flat)
    live = np.zeros(params.flat.size, dtype=bool)
    for name, t in params.named_parameters():
        if t.grad is not None:
            span = params.slices[name]
            grad[span] = t.grad.reshape(-1)
            live[span] = True
            t.zero_grad()
    cfg, w, v = opt.config, params.flat, opt.velocity
    np.copyto(v, v * cfg.sgd_momentum + (grad + cfg.weight_decay * w), where=live)
    np.subtract(w, ((cfg.base_lr * opt.lr_mult) * opt.boost) * v, out=w, where=live)
    if not np.isfinite(w).all():
        name = next(name for name, t in params.named_parameters() if not np.isfinite(t.data).all())
        raise NonFiniteError(f"parameter {name} became non-finite after the optimizer step")


def step(
    params: ModelParams,
    twin: MomentumTwin,
    pool: MocoQueues | MemoryBank,
    batch: tuple[np.ndarray, np.ndarray, np.ndarray],
    opt: OptimizerState,
    cfg: RunConfig,
    rng: np.random.Generator,
) -> losses_mod.LossTerms:
    """One optimization step over (features, labels, training row numbers)."""
    x_np, y, ids = batch
    _, w_cce, w_ccl = cfg.losses.weights()
    contrastive = w_cce != 0.0 or w_ccl != 0.0
    bank_mode = isinstance(pool, MemoryBank)

    x = Tensor(x_np)
    h_q, z_q, logits = model_mod.forward_query(params, x, project=contrastive)  # nothing reads z in a CE-only step

    keys = None
    if contrastive:
        if bank_mode:
            keys = pool.sample(cfg.keys.keys_per_class, *pool.entry(ids), rng, uniform=cfg.keys.bank_uniform)
        else:
            h_k, z_k = model_mod.forward_key(twin, x)
            seeding = len(pool) == 0 and cfg.keys.warmup_mode == "defer"
            if seeding:  # a deferred warm-up: this batch's keys are the pool's first
                pool.enqueue(h_k, z_k, y)
            keys = pool.sample(cfg.keys.keys_per_class, h_k, z_k, y, rng)

    terms = losses_mod.objective(h_q, z_q, logits, y, params.classifier_W, keys, cfg.losses)
    terms.total.backward()
    sgd_apply(params, opt)

    if contrastive:
        if bank_mode:
            h_norm = terms.h_norm.data if terms.h_norm is not None else h_q.data / nd.row_norms(h_q.data, "h")
            pool.update(ids, h_norm, z_q.data)
        else:
            model_mod.momentum_update(twin, params)
            if not seeding:
                pool.enqueue(h_k, z_k, y)
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


def fit(cfg: RunConfig) -> TrainRun:
    """Warm up, train for cfg.optimizer.iterations steps, log, evaluate."""
    started = time.perf_counter()
    streams = run_streams(cfg)
    train, val = prepare_data(cfg)

    dims = ModelDims(
        in_dim=train.in_dim,
        hidden=cfg.model.hidden,
        feature_dim=cfg.model.feature_dim,
        class_count=train.class_count,
        projector_dim=cfg.model.projector_dim,
    )
    params = model_mod.init_params(dims, np.random.default_rng(streams["init"]), classifier_bias=cfg.model.classifier_bias)
    twin = model_mod.init_twin(params, cfg.keys.momentum)
    if cfg.keys.generator == "membank":
        pool: MocoQueues | MemoryBank = MemoryBank(train.labels, m_bank=cfg.keys.bank_momentum)
    else:
        pool = MocoQueues(train.class_count, cfg.keys.queue_size)

    _, w_cce, w_ccl = cfg.losses.weights()
    contrastive = w_cce != 0.0 or w_ccl != 0.0
    if contrastive and (cfg.keys.warmup_mode == "prefill" or isinstance(pool, MemoryBank)):
        warmup(twin, pool, train)  # the bank twin never moves, so a deferred bank warm-up is this one

    opt = init_optimizer(params, cfg)
    batcher = _Batcher(len(train), cfg.optimizer.batch_size, np.random.default_rng(streams["batch"]))
    sample_rng = np.random.default_rng(streams["sample"])

    log: list[MetricRow] = [MetricRow(iteration=0, val_acc=evaluate(params, val))]
    best = log[0].val_acc
    iterations = cfg.optimizer.iterations
    for it in range(1, iterations + 1):
        advance_schedule(opt, it)
        idx = batcher.next()
        batch = (train.features[idx], train.labels[idx], idx)
        terms = step(params, twin, pool, batch, opt, cfg, sample_rng)

        due_log = it % cfg.log_every == 0
        due_eval = it % cfg.eval_every == 0 or it == iterations
        if due_log or due_eval:
            vals = terms.values()
            row = MetricRow(iteration=it, ce=vals["ce"], cce=vals["cce"], ccl=vals["ccl"], total=vals["total"])
            if due_eval:
                row.val_acc = evaluate(params, val)
                best = max(best, row.val_acc)
            log.append(row)

    return TrainRun(
        config=cfg,
        seed=cfg.seed,
        iterations=iterations,
        metric_log=log,
        final_val_acc=log[-1].val_acc,  # the last iteration always evaluates
        best_val_acc=best,
        wall_seconds=time.perf_counter() - started,
        params=params,
        twin=twin,
        pool=pool,
    )


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
