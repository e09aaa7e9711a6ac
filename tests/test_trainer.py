"""Training-loop semantics: optimizer algebra, step pipeline replay,
warmup audits, determinism, and evaluation."""

import sys

import numpy as np
import pytest

from dualhead.config import OptimizerConfig, RunConfig, validate_config
from dualhead.data import make_blobs
from dualhead.keypool import EmptyPoolError, MemoryBank, MocoQueues
from dualhead.model import ModelDims, ModelParams, forward_key, init_params, init_twin, stack
from dualhead.ndgrad import DegenerateRowError, NonFiniteError, Tensor
from dualhead.trainer import (
    OptimizerState,
    _Batcher,
    advance_schedule,
    evaluate,
    fit,
    init_optimizer,
    metrics_csv_lines,
    prepare_data,
    resolve_schedule,
    sgd_apply,
    step,
    warmup,
)
from unfused import newest_per_class_warmup


def small_cfg(**over):
    cfg = RunConfig()
    cfg.seed = over.pop("seed", 0)
    cfg.dataset.kind = "blobs"
    cfg.dataset.classes = 2
    cfg.dataset.per_class = 12
    cfg.dataset.dim = 3
    cfg.dataset.separation = 5.0
    cfg.dataset.noise = 0.8
    cfg.dataset.seed = 21
    cfg.model.hidden = (6,)
    cfg.model.feature_dim = 5
    cfg.model.projector_dim = 4
    cfg.optimizer.iterations = over.pop("iterations", 20)
    cfg.optimizer.batch_size = 4
    cfg.optimizer.base_lr = over.pop("base_lr", 0.003)
    cfg.losses.reduction = "mean"
    cfg.keys.queue_size = 4
    cfg.keys.keys_per_class = 2
    cfg.keys.momentum = 0.9
    for key, value in over.items():
        section, field = key.split("__")
        setattr(getattr(cfg, section), field, value)
    return validate_config(cfg)


def step_alone(params, twin, pool, batch, opt, cfg, rng):
    """``trainer.step`` for a fit group of one: its pool, config and generator as one-item sequences."""
    return step(params, twin, [pool], batch, opt, [cfg], [rng])


def np_encode_raw(layers, x):
    h = x.copy()
    for i, (w, b) in enumerate(layers):
        h = h @ w + b
        if i != len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h


def np_log_softmax(row):
    shifted = row - row.max()
    return shifted - np.log(np.exp(shifted).sum())


class TestOptimizer:
    def test_head_moves_ten_times_farther(self):
        dims = ModelDims(in_dim=3, hidden=(4,), feature_dim=3, class_count=2, projector_dim=3)
        params = stack([init_params(dims, np.random.default_rng(0))])
        cfg = small_cfg()
        cfg.optimizer.weight_decay = 0.0
        cfg.optimizer.base_lr = 0.05
        opt = init_optimizer(params, [cfg])
        before = {name: t.data.copy() for name, t in params.named_parameters()}
        for _, t in params.named_parameters():
            t.grad = np.ones_like(t.data)
        sgd_apply(params, opt)
        enc_delta = before["encoder.0.weight"] - params.encoder_layers[0][0].data
        head_delta = before["classifier.weight"] - params.classifier_W.data
        np.testing.assert_allclose(enc_delta, 0.05, atol=1e-15)
        np.testing.assert_allclose(head_delta, 0.5, atol=1e-15)
        np.testing.assert_allclose(head_delta.mean() / enc_delta.mean(), 10.0, atol=1e-12)

    def test_weight_decay_enters_gradient_before_momentum(self):
        # Closed-form single-parameter trajectory: v <- mu v + (g + wd * w),
        # w <- w - lr * v, replayed in plain floats.
        dims = ModelDims(in_dim=2, hidden=(), feature_dim=2, class_count=2, projector_dim=2)
        params = stack([init_params(dims, np.random.default_rng(1))])
        cfg = small_cfg()
        cfg.optimizer.weight_decay = 0.1
        cfg.optimizer.sgd_momentum = 0.9
        cfg.optimizer.base_lr = 0.01
        opt = init_optimizer(params, [cfg])
        name = "projector.bias"
        w = params.projector_b.data.copy()
        v = np.zeros_like(w)
        g = 0.5
        for _ in range(5):
            params.projector_b.grad = np.full_like(w, g)
            sgd_apply(params, opt)
            v = 0.9 * v + (g + 0.1 * w)
            w = w - 0.01 * 10.0 * v  # projector is a head parameter
        np.testing.assert_allclose(params.projector_b.data, w, atol=1e-15)

    def test_untouched_parameters_are_skipped(self):
        # CE reads no projector tensor, so a CE-only fit's update never reaches the projector.
        dims = ModelDims(in_dim=2, hidden=(), feature_dim=2, class_count=2, projector_dim=2)
        params = stack([init_params(dims, np.random.default_rng(2))])
        opt = init_optimizer(params, [small_cfg(losses__cce=0.0, losses__ccl=0.0)])
        before = params.projector_w.data.copy()
        params.classifier_W.grad = np.ones_like(params.classifier_W.data)
        sgd_apply(params, opt)
        np.testing.assert_array_equal(params.projector_w.data, before)

    def test_vector_update_is_bitwise_the_per_tensor_loop(self):
        # The per-tensor loop the vector form replaced, as the oracle: the
        # scalar rate base_lr * lr_mult * boost, velocity *= mu then += g.
        dims = ModelDims(in_dim=3, hidden=(4,), feature_dim=3, class_count=2, projector_dim=5)
        params = stack([init_params(dims, np.random.default_rng(4), classifier_bias=True)])
        cfg = small_cfg(base_lr=0.03)
        cfg.optimizer.weight_decay = 1e-3
        opt = init_optimizer(params, [cfg])
        opt.schedule = ((3, 0.1), (5, 0.5))
        data = {name: t.data.copy() for name, t in params.named_parameters()}
        vel = {name: np.zeros_like(d) for name, d in data.items()}
        rng = np.random.default_rng(5)
        for it, skip in enumerate(["", "projector.", "classifier.", "encoder.0.b", "", "projector.w"], start=1):
            advance_schedule(opt, it)
            opt.live[:] = False  # the update reaches exactly the tensors given a gradient
            for name, t in params.named_parameters():
                t.grad = None if skip and name.startswith(skip) else rng.normal(size=t.data.shape)
                if t.grad is None:
                    continue
                opt.live[:, params.slices[name]] = True
                g = t.grad + cfg.optimizer.weight_decay * data[name]
                vel[name] *= cfg.optimizer.sgd_momentum
                vel[name] += g
                boost = 1.0 if name.startswith("encoder.") else cfg.optimizer.head_lr_multiplier
                data[name] -= cfg.optimizer.base_lr * opt.lr_mult * boost * vel[name]
            sgd_apply(params, opt)
            for name, t in params.named_parameters():
                np.testing.assert_array_equal(t.data, data[name])
                np.testing.assert_array_equal(opt.velocity[0, params.slices[name]], vel[name].ravel())
                assert t.grad is None

    @pytest.mark.parametrize("name", ["encoder.0.bias", "classifier.weight", "projector.weight"])
    def test_names_the_parameter_that_went_non_finite(self, name):
        dims = ModelDims(in_dim=2, hidden=(3,), feature_dim=2, class_count=2, projector_dim=2)
        params = stack([init_params(dims, np.random.default_rng(3))])
        cfg = small_cfg(base_lr=1e10)
        opt = init_optimizer(params, [cfg])
        for other, t in params.named_parameters():
            t.grad = np.full_like(t.data, 1e308 if other == name else 1.0)
        with pytest.raises(NonFiniteError, match=f"parameter {name} became non-finite"), np.errstate(over="ignore"):
            sgd_apply(params, opt)

    def test_schedule_resolution_and_advance(self):
        assert resolve_schedule("none", 100) == ()
        assert resolve_schedule("auto", 900) == ((600, 0.1), (750, 0.1))
        assert resolve_schedule(((5, 0.5),), 100) == ((5, 0.5),)
        opt = OptimizerState(OptimizerConfig(base_lr=1.0), schedule=((3, 0.1), (7, 0.5)))
        mults = []
        for it in range(1, 9):
            advance_schedule(opt, it)
            mults.append(opt.lr_mult)
        assert mults == [1.0, 1.0, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05]


class TestStep:
    def setup_run(self, cfg, warm=True):
        """A fit group of one before its first step: stacked params and twin, and a batch with a replica axis of one."""
        train, _ = prepare_data(cfg)
        ss = np.random.SeedSequence(cfg.seed)
        _, _, _, s_init, _, _ = ss.spawn(6)
        dims = ModelDims(
            in_dim=train.in_dim,
            hidden=cfg.model.hidden,
            feature_dim=cfg.model.feature_dim,
            class_count=train.class_count,
            projector_dim=cfg.model.projector_dim,
        )
        params = stack([init_params(dims, np.random.default_rng(s_init))])
        twin = init_twin(params, cfg.keys.momentum)
        if cfg.keys.generator == "membank":
            pool = MemoryBank(train.labels, cfg.keys.bank_momentum, cfg.keys.bank_uniform)
        else:
            pool = MocoQueues(train.class_count, cfg.keys.queue_size)
        if warm:
            warmup(twin.replicas()[0], pool, train)
        opt = init_optimizer(params, [cfg])
        batch = (train.features[None, :4], train.labels[None, :4], np.arange(4)[None])
        return train, params, twin, pool, opt, batch

    def test_ce_only_reduces_to_vanilla_fine_tuning(self):
        import dualhead.losses as losses_mod
        import dualhead.model as model_mod

        cfg = small_cfg(losses__cce=0.0, losses__ccl=0.0)
        _, params, twin, pool, opt, batch = self.setup_run(cfg, warm=False)
        _, _, logits = model_mod.forward_query(params.replicas()[0], Tensor(batch[0][0]))
        expect = losses_mod.ce(logits, batch[1][0], reduction="mean").item()
        terms = step_alone(params, twin, pool, batch, opt, cfg, np.random.default_rng(0))
        assert terms.cce is None and terms.ccl is None
        assert abs(terms.ce.item() - expect) <= 1e-12
        assert abs(terms.total.item() - expect) <= 1e-12
        assert len(pool) == 0  # vanilla fine-tuning touches no key machinery

    def test_ce_only_step_skips_the_projector(self, monkeypatch):
        # Nothing reads z in a CE-only step, so the projector (the step's only normalization) never runs.
        import dualhead.ndgrad as nd

        cfg = small_cfg(losses__cce=0.0, losses__ccl=0.0)
        _, params, twin, pool, opt, batch = self.setup_run(cfg, warm=False)
        real, inputs = nd.row_l2_normalize, []
        monkeypatch.setattr(nd, "row_l2_normalize", lambda t: inputs.append(t) or real(t))
        step_alone(params, twin, pool, batch, opt, cfg, np.random.default_rng(0))
        assert inputs == []

    @pytest.mark.parametrize(
        "over, most",
        [
            (dict(losses__cce=0.0, losses__ccl=0.0), 6),  # linear, relu, linear, logits linear, masked_nll
            # linear, relu, linear, logits and projector linear, z's row_l2_normalize; masked_nll (ce); h's
            # row_l2_normalize, select_rows, row_dot_slab, masked_nll (cce); row_dot_slab, masked_nll (ccl); add, add
            (dict(keys__generator="membank"), 15),
            # The same without cce: the bank update scales h by the plain row rule, off the tape.
            (dict(keys__generator="membank", losses__cce=0.0), 10),
        ],
    )
    def test_tape_nodes_per_step(self, monkeypatch, over, most):
        import dualhead.ndgrad as nd

        cfg = small_cfg(**over)
        _, params, twin, pool, opt, batch = self.setup_run(cfg)
        real, ops = nd._from_op, []
        monkeypatch.setattr(nd, "_from_op", lambda arr, op, *rest: ops.append(op) or real(arr, op, *rest))
        step_alone(params, twin, pool, batch, opt, cfg, np.random.default_rng(0))
        assert len(ops) <= most, ops

    def test_zero_learning_rate_freezes_parameters(self):
        cfg = small_cfg(base_lr=0.0)
        _, params, twin, pool, opt, batch = self.setup_run(cfg)
        before = {name: t.data.copy() for name, t in params.named_parameters()}
        terms = step_alone(params, twin, pool, batch, opt, cfg, np.random.default_rng(0))
        assert terms.total.item() > 0.0
        for name, t in params.named_parameters():
            np.testing.assert_array_equal(t.data, before[name])

    def test_ccl_only_step_leaves_the_classifier_and_its_velocity(self):
        # The classifier sits between the encoder and the projector in the
        # vector; with no gradient it gets no decay and no velocity.
        cfg = small_cfg(losses__ce=0.0, losses__cce=0.0)
        _, params, twin, pool, opt, batch = self.setup_run(cfg)
        before = params.flat.copy()
        rng = np.random.default_rng(0)
        for _ in range(3):
            step_alone(params, twin, pool, batch, opt, cfg, rng)
        for name, span in params.slices.items():
            if name.startswith("classifier."):
                np.testing.assert_array_equal(params.flat[:, span], before[:, span])
                assert not opt.velocity[:, span].any(), name
            else:
                assert (params.flat[:, span] != before[:, span]).all(), name
                assert opt.velocity[:, span].all(), name

    @pytest.mark.parametrize(
        "over, draws",
        [
            (dict(), 1),  # moco, prefilled queues
            (dict(keys__warmup_mode="defer"), 1),  # moco, the first step seeding the empty queues
            (dict(keys__generator="membank"), 1),
            (dict(keys__generator="membank", keys__bank_uniform=True), 1),
            (dict(losses__cce=0.0, losses__ccl=0.0), 0),
        ],
    )
    def test_one_key_draw_per_contrastive_step(self, monkeypatch, over, draws):
        # One draw form for both pools: (keys_per_class, queries, generator), the draw rule the pool's own.
        cfg = small_cfg(**over)
        warm = cfg.losses.contrastive and (cfg.keys.warmup_mode == "prefill" or cfg.keys.generator == "membank")
        _, params, twin, pool, opt, batch = self.setup_run(cfg, warm=warm)
        real, calls = pool._drawn, []
        monkeypatch.setattr(pool, "_drawn", lambda *args: calls.append(args) or real(*args))
        rng = np.random.default_rng(0)
        for n in range(1, 4):
            step_alone(params, twin, pool, batch, opt, cfg, rng)
            assert len(calls) == draws * n
        assert all(args == (cfg.keys.keys_per_class, len(batch[1][0]), rng) for args in calls)

    def test_empty_pool_with_contrastive_terms(self):
        cfg = small_cfg()
        _, params, twin, pool, opt, batch = self.setup_run(cfg, warm=False)
        with pytest.raises(EmptyPoolError):
            step_alone(params, twin, pool, batch, opt, cfg, np.random.default_rng(0))

    def test_deferred_step_seeds_an_empty_queue_once(self):
        # The batch's twin keys are the pool's first and only keys: stage 6 must not enqueue them again.
        cfg = small_cfg(keys__warmup_mode="defer", keys__queue_size=8)
        _, params, twin, pool, opt, batch = self.setup_run(cfg, warm=False)
        h_k, z_k = forward_key(twin.replicas()[0], Tensor(batch[0][0]))
        step_alone(params, twin, pool, batch, opt, cfg, np.random.default_rng(0))
        entries = [e for c in range(pool.class_count) for e in pool.entries(c)]
        by_class = np.argsort(batch[1][0], kind="stable")
        np.testing.assert_array_equal([e.h_key for e in entries], h_k[by_class])
        np.testing.assert_array_equal([e.z_key for e in entries], z_k[by_class])

    def test_bank_mode_degenerate_feature_is_a_numerical_failure(self):
        # cce off, so only the bank update normalizes h; a zero feature row must
        # raise DegenerateRowError (exit code 2) and leave the bank untouched.
        cfg = small_cfg(keys__generator="membank", losses__cce=0.0)
        _, params, twin, pool, opt, batch = self.setup_run(cfg)
        w, b = params.encoder_layers[-1]
        w.data[:] = 0.0
        b.data[:] = 0.0
        before = pool.h_snap.copy(), pool.z_snap.copy()
        with pytest.raises(DegenerateRowError):
            step_alone(params, twin, pool, batch, opt, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(pool.h_snap, before[0])
        np.testing.assert_array_equal(pool.z_snap, before[1])

    def test_step_and_gradcheck_build_the_loss_through_objective(self, monkeypatch):
        import dualhead.losses as losses_mod
        from dualhead.gradcheck import LOSS_CASES

        callers = []
        objective = losses_mod.objective

        def spy(*args, **kwargs):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return objective(*args, **kwargs)

        monkeypatch.setattr(losses_mod, "objective", spy)
        cfg = small_cfg()
        _, params, twin, pool, opt, batch = self.setup_run(cfg)
        assert callers == ["dualhead.trainer"]  # init_optimizer's probe of what each term reads
        callers.clear()
        step_alone(params, twin, pool, batch, opt, cfg, np.random.default_rng(0))
        assert callers == ["dualhead.trainer"]
        for name, build in LOSS_CASES.items():
            callers.clear()
            forward, _ = build(np.random.default_rng(0))
            forward()
            assert callers == ([] if name == "info_nce" else ["dualhead.gradcheck"]), name

    def test_scripted_replay_of_all_stages(self):
        """Independent numpy replay of stages 1-6 on a fixed seed."""
        cfg = small_cfg()
        train, params, twin, pool, opt, batch = self.setup_run(cfg)
        (x,), (y,), (ids,) = batch
        view, twin_view = params.replicas()[0], twin.replicas()[0]  # the one replica's tensors, as arrays
        tau = cfg.losses.tau
        kpc = cfg.keys.keys_per_class

        # Freeze pre-step state for the replay.
        pre_queues = [pool.entries(c) for c in range(train.class_count)]
        pre_params = {name: t.data.copy() for name, t in view.named_parameters()}
        pre_twin_pw = twin_view.projector_w.data.copy()
        enc_layers = [(w.data.copy(), b.data.copy()) for w, b in view.encoder_layers]

        terms = step_alone(params, twin, pool, batch, opt, cfg, np.random.default_rng(321))

        # Stage 1: live forward.
        h = np_encode_raw(enc_layers, x)
        z = h @ pre_params["projector.weight"] + pre_params["projector.bias"]
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        logits = h @ pre_params["classifier.weight"].T
        h_norm = h / np.linalg.norm(h, axis=1, keepdims=True)

        # Stage 2: key forward. The twin still equals the pre-step parameters
        # here (its momentum update happens after the optimizer step).
        hk = np_encode_raw(enc_layers, x)
        zk = hk @ pre_params["projector.weight"] + pre_params["projector.bias"]
        zk /= np.linalg.norm(zk, axis=1, keepdims=True)
        hk_norm = hk / np.linalg.norm(hk, axis=1, keepdims=True)

        # Stage 3: sampling replay with the same generator.
        rng = np.random.default_rng(321)
        banks = []
        for i in range(len(y)):
            rows_h, rows_z, labels = [hk_norm[i]], [zk[i]], [int(y[i])]
            for c in range(train.class_count):
                buf = pre_queues[c]
                if not buf:
                    continue
                idx = rng.integers(0, len(buf), size=kpc)
                for j in idx:
                    rows_h.append(buf[int(j)].h_key)
                    rows_z.append(buf[int(j)].z_key)
                    labels.append(c)
            banks.append((np.array(rows_h), np.array(rows_z), np.array(labels)))

        # Stage 4: loss values.
        b = len(y)
        ce_val = sum(-np_log_softmax(logits[i])[y[i]] for i in range(b)) / b
        cce_val = 0.0
        ccl_val = 0.0
        for i in range(b):
            rows_h, rows_z, labels = banks[i]
            bank = np.vstack([h_norm[i][None, :], rows_h[1:]])
            sims = (bank @ pre_params["classifier.weight"][y[i]]) / tau
            mult = int((labels == y[i]).sum())
            cce_val += mult * -np_log_softmax(sims)[0]
            sims_z = (rows_z @ z[i]) / tau
            lsz = np_log_softmax(sims_z)
            ccl_val += -lsz[labels == y[i]].sum()
        cce_val /= b
        ccl_val /= b

        assert abs(terms.ce.item() - ce_val) <= 1e-12 * max(1.0, abs(ce_val))
        assert abs(terms.cce.item() - cce_val) <= 1e-12 * max(1.0, abs(cce_val))
        assert abs(terms.ccl.item() - ccl_val) <= 1e-12 * max(1.0, abs(ccl_val))
        total = ce_val + cce_val + ccl_val
        assert abs(terms.total.item() - total) <= 1e-12 * max(1.0, abs(total))

        # Stage 5: twin mixed with the POST-update parameters.
        m = cfg.keys.momentum
        expect_twin = m * pre_twin_pw + (1 - m) * view.projector_w.data
        np.testing.assert_allclose(twin_view.projector_w.data, expect_twin, atol=1e-15)
        wrong_twin = m * pre_twin_pw + (1 - m) * pre_params["projector.weight"]
        assert not np.allclose(twin_view.projector_w.data, wrong_twin, atol=1e-12)

        # Stage 6: this batch's keys entered the queues after sampling, so
        # each class buffer now ends with the batch's last key of that class.
        for c in set(int(v) for v in y):
            last = max(j for j in range(len(y)) if y[j] == c)
            np.testing.assert_allclose(pool.entries(c)[-1].h_key, hk_norm[last], atol=1e-15)

    def test_bank_mode_mixes_live_features(self):
        cfg = small_cfg(keys__generator="membank")
        train, params, twin, pool, opt, batch = self.setup_run(cfg)
        (x,), (y,), (ids,) = batch
        pre_snap = pool.h_snap.copy()
        enc_layers = [(w.data.copy(), b.data.copy()) for w, b in params.replicas()[0].encoder_layers]
        step_alone(params, twin, pool, batch, opt, cfg, np.random.default_rng(5))
        h = np_encode_raw(enc_layers, x)
        h_norm = h / np.linalg.norm(h, axis=1, keepdims=True)
        mixed = cfg.keys.bank_momentum * pre_snap[ids] + (1 - cfg.keys.bank_momentum) * h_norm
        mixed /= np.linalg.norm(mixed, axis=1, keepdims=True)
        np.testing.assert_allclose(pool.h_snap[ids], mixed, atol=1e-12)

    @pytest.mark.parametrize("cce_weight", [1.0, 0.0])
    def test_bank_mode_normalizes_features_once(self, monkeypatch, cce_weight):
        # One normalization of z in the forward pass and one of h: objective's
        # when cce is on (the bank update reuses it), the update's own when off.
        import dualhead.ndgrad as nd

        cfg = small_cfg(keys__generator="membank", losses__cce=cce_weight)
        _, params, twin, pool, opt, batch = self.setup_run(cfg)
        real, widths = nd.row_norms, []
        monkeypatch.setattr(nd, "row_norms", lambda x, *rest, **kw: widths.append(x.shape[-1]) or real(x, *rest, **kw))
        step_alone(params, twin, pool, batch, opt, cfg, np.random.default_rng(5))
        assert sorted(widths) == sorted([cfg.model.feature_dim, cfg.model.projector_dim])


class TestWarmup:
    def test_queue_mode_fills_newest_per_class(self):
        cfg = small_cfg(keys__queue_size=2)
        ds = make_blobs(2, 5, dim=3, separation=5.0, noise=0.5, seed=3)
        dims = ModelDims(in_dim=3, hidden=(6,), feature_dim=5, class_count=2, projector_dim=4)
        params = init_params(dims, np.random.default_rng(4))
        twin = init_twin(params, 0.9)
        pool = MocoQueues(2, queue_size=2)
        warmup(twin, pool, ds)
        assert [len(pool.entries(c)) for c in range(2)] == [2, 2]
        # Class blocks are contiguous: newest two of class c are its last rows.
        for c, newest_ids in ((0, [3, 4]), (1, [8, 9])):
            h_t, _ = forward_key(twin, Tensor(ds.features[newest_ids]))
            got = pool.entries(c)
            for row, e in zip(h_t, got):
                np.testing.assert_allclose(e.h_key, row, atol=1e-15)

    @pytest.mark.parametrize("hidden", [(6,), ()])
    @pytest.mark.parametrize("queue_size", [1, 3, 8, 64])
    def test_queue_warmup_matches_the_newest_per_class_pass(self, queue_size, hidden):
        # Every row forwarded 256 at a time, then enqueued, against a forward of only each
        # class's newest rows. A forward's rounding may depend on its batch size, so the
        # keys are compared to 1e-12 relative. 300 rows in shuffled class order span two
        # forwards; queue_size 64 exceeds every class's 50 rows.
        blobs = make_blobs(6, 50, dim=5, separation=5.0, noise=0.8, seed=7)
        ds = blobs.take(np.random.default_rng(8).permutation(len(blobs)))
        dims = ModelDims(in_dim=5, hidden=hidden, feature_dim=5, class_count=6, projector_dim=4)
        twin = init_twin(init_params(dims, np.random.default_rng(9)), 0.9)
        pool, want = MocoQueues(6, queue_size), MocoQueues(6, queue_size)
        warmup(twin, pool, ds)
        newest_per_class_warmup(twin, want, ds)
        for c in range(6):
            got, expect = pool.entries(c), want.entries(c)
            assert len(got) == len(expect) == min(queue_size, 50)
            for part in ("h_key", "z_key"):
                a, b = (np.array([getattr(e, part) for e in entries]) for entries in (got, expect))
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), (c, part)

    def test_bank_mode_snapshots_every_example(self):
        cfg = small_cfg(keys__generator="membank")
        ds = make_blobs(2, 7, dim=3, separation=5.0, noise=0.5, seed=5)
        dims = ModelDims(in_dim=3, hidden=(6,), feature_dim=5, class_count=2, projector_dim=4)
        params = init_params(dims, np.random.default_rng(6))
        twin = init_twin(params, 0.9)
        bank = MemoryBank(ds.labels, m_bank=0.5)
        warmup(twin, bank, ds)
        assert len(bank) == len(ds)
        np.testing.assert_allclose(np.linalg.norm(bank.h_snap, axis=1), 1.0, atol=1e-12)
        first = bank.h_snap.copy()
        warmup(twin, bank, ds)  # re-initialization is idempotent
        np.testing.assert_array_equal(bank.h_snap, first)

    @pytest.mark.parametrize("iterations", [1, 3, 40])
    def test_deferred_queue_takes_each_key_once(self, iterations):
        run = fit(small_cfg(iterations=iterations, keys__warmup_mode="defer", keys__queue_size=8))
        for c in range(run.pool.class_count):
            rows = np.array([e.h_key for e in run.pool.entries(c)])
            assert len(rows) > 0 and len(np.unique(rows, axis=0)) == len(rows), c

    @pytest.mark.parametrize("seed", range(3))
    def test_bank_defer_is_bank_prefill(self, seed):
        # The bank twin never moves, so a bank warms up before step 1 whatever warmup_mode says.
        prefill, defer = (
            fit(small_cfg(seed=seed, iterations=40, keys__generator="membank", keys__warmup_mode=mode))
            for mode in ("prefill", "defer")
        )
        assert metrics_csv_lines(defer) == metrics_csv_lines(prefill)
        for part in ("params.flat", "twin.flat", "pool.h_snap", "pool.z_snap"):
            owner, attr = part.split(".")
            got, want = (getattr(getattr(run, owner), attr) for run in (defer, prefill))
            assert got.tobytes() == want.tobytes(), part


class TestEvaluate:
    def constant_predictor(self, class_count=3, in_dim=2):
        dims = ModelDims(in_dim=in_dim, hidden=(), feature_dim=in_dim, class_count=class_count, projector_dim=2)
        params = ModelParams(dims)
        params.projector_w.data[:] = 1.0
        return params

    def test_constant_class_zero_on_all_zero_labels(self):
        from dualhead.data import Dataset

        params = self.constant_predictor()
        ds = Dataset(np.random.default_rng(0).normal(size=(6, 2)), np.zeros(6, dtype=int), 3)
        assert evaluate(params, ds) == 1.0

    def test_constant_predictor_on_balanced_set(self):
        from dualhead.data import Dataset

        params = self.constant_predictor(class_count=2)
        labels = np.array([0, 1] * 5)
        ds = Dataset(np.random.default_rng(1).normal(size=(10, 2)), labels, 2)
        assert evaluate(params, ds) == 0.5

    def test_hand_built_logits_table(self):
        from dualhead.data import Dataset

        dims = ModelDims(in_dim=2, hidden=(), feature_dim=2, class_count=2, projector_dim=2)
        params = ModelParams(dims)
        params.encoder_layers[0][0].data[:] = np.eye(2)
        params.classifier_W.data[:] = np.eye(2)
        params.projector_w.data[:] = 1.0
        logits_table = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 5.0], [1.0, 0.0]])
        labels = np.array([0, 1, 1, 1])  # predictions: 0, 1, 0 (tie), 0 -> 2/4
        ds = Dataset(logits_table, labels, 2)
        assert evaluate(params, ds) == 0.5

    def test_empty_dataset_rejected(self):
        from dualhead.data import DataError

        with pytest.raises(DataError):
            evaluate(self.constant_predictor(), type("Fake", (), {"__len__": lambda self: 0})())


class TestFit:
    def test_zero_iterations_yields_initial_eval_only(self):
        run = fit(small_cfg(iterations=0))
        assert len(run.metric_log) == 1
        row = run.metric_log[0]
        assert row.iteration == 0 and row.val_acc is not None and row.ce is None

    def test_same_seed_same_metric_log(self):
        r1 = fit(small_cfg(iterations=30))
        r2 = fit(small_cfg(iterations=30))
        assert metrics_csv_lines(r1) == metrics_csv_lines(r2)

    def test_different_seed_differs(self):
        r1 = fit(small_cfg(iterations=30, seed=0))
        r2 = fit(small_cfg(iterations=30, seed=1))
        assert metrics_csv_lines(r1) != metrics_csv_lines(r2)

    def test_deferred_warmup_trains(self):
        cfg = small_cfg(iterations=15, keys__warmup_mode="defer")
        run = fit(cfg)
        assert len(run.pool) > 0
        assert run.metric_log[-1].cce is not None

    def test_fit_leaves_every_tensor_a_view_of_its_vector(self):
        # A run's params and twin are its replica's row of the group's (1 x P) vectors, and their tensors views of it.
        run = fit(small_cfg(iterations=20))
        for p in (run.params, run.twin):
            assert p.flat.base is not None and p.flat.base.shape == (1,) + p.flat.shape
            for name, t in p.named_parameters():
                assert t.data.base is p.flat.base and np.shares_memory(t.data, p.flat[p.slices[name]]), name

    def test_membank_fit_runs(self):
        run = fit(small_cfg(iterations=25, keys__generator="membank"))
        assert run.final_val_acc >= 0.0
        assert len(run.pool) > 0

    def test_csv_lines_format(self):
        # log_every=10, eval_every=100, 10 iterations: rows at 0 and 10 only.
        run = fit(small_cfg(iterations=10))
        lines = metrics_csv_lines(run)
        assert lines[0] == "iteration,ce,cce,ccl,total,val_acc"
        assert lines[1].startswith("0,,,,,")
        assert len(lines) == 3
        final = lines[2].split(",")
        assert final[0] == "10" and final[1] and final[5]

    def test_batcher_covers_all_examples_each_epoch(self):
        rng = np.random.default_rng(0)
        batcher = _Batcher(n=10, batch_size=4, rng=rng)
        seen = np.concatenate([batcher.next() for _ in range(3)])
        assert sorted(seen.tolist()) == list(range(10))
