"""The fused ops ``linear`` and ``masked_nll`` against the unfused chains they replace.

Each fused op repeats the arithmetic of its chain (``tests/unfused.py``)
in the same order and on the same operand layout, so value and every
gradient must agree exactly, not merely to a tolerance. The comparisons
run on random op fixtures, on parameters that are views into
``ModelParams.flat``, and on whole fits.
"""

import numpy as np
import pytest

import dualhead.model as model_mod
import dualhead.ndgrad as nd
import unfused
from dualhead import trainer
from dualhead.config import CCE_VARIANTS, REDUCTIONS, LossesConfig, RunConfig, validate_config
from dualhead.gradcheck import _random_key_batch
from dualhead.losses import objective
from dualhead.model import ModelDims
from dualhead.ndgrad import NonFiniteError, Tensor


def grads_of(out: Tensor, leaves: list[Tensor]) -> tuple[float, list[np.ndarray]]:
    """Backward from ``out``; its value and each leaf's gradient (zeros if none), leaves cleared."""
    out.backward()
    grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in leaves]
    for t in leaves:
        t.zero_grad()
    return out.item(), grads


def assert_bitwise(got, want, what):
    (got_value, got_grads), (want_value, want_grads) = got, want
    assert got_value == want_value, (what, got_value, want_value)
    for i, (g, w) in enumerate(zip(got_grads, want_grads)):
        np.testing.assert_array_equal(g, w, err_msg=f"{what}: gradient {i}")


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("w_rows", [False, True])
def test_linear_is_bitwise_the_matmul_chain(w_rows, bias):
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, i, o = (int(v) for v in rng.integers(1, 9, size=3))
        x = Tensor(rng.normal(size=(n, i)), grad_enabled=True)
        w = Tensor(rng.normal(size=(o, i) if w_rows else (i, o)), grad_enabled=True)
        b = Tensor(rng.normal(size=o), grad_enabled=True) if bias else None
        head = Tensor(rng.normal(size=(n, o)))
        leaves = [x, w] + ([b] if bias else [])
        outs = []
        for op in (nd.linear, unfused.linear):
            out = op(x, w, b, w_rows=w_rows)
            outs.append(out.data.copy())
            outs.append(grads_of(nd.sum(nd.mul(out, head)), leaves))
        np.testing.assert_array_equal(outs[0], outs[2], err_msg=f"seed {seed}")
        assert_bitwise(outs[1], outs[3], f"seed {seed}")


@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("tau", [None, 0.07])
def test_masked_nll_is_bitwise_the_log_softmax_chain(tau, reduction):
    inv_tau = 1.0 if tau is None else 1.0 / tau
    for seed in range(40):
        rng = np.random.default_rng(seed)
        b, n = (int(v) for v in rng.integers(1, 9, size=2))
        scores = Tensor(rng.normal(size=(b, n)), grad_enabled=True)
        mask = [
            np.eye(n)[rng.integers(0, n, size=b)],  # one positive per row, as ce
            rng.integers(0, 7, size=(b, n)).astype(float),  # multiplicities |S_i|, as cce literal
            rng.random((b, n)) < 0.5,  # a boolean positive mask, as ccl
            rng.random((b, n)),  # real weights, which round in every product
        ][seed % 4]
        scale = -1.0 / b if reduction == "mean" else -1.0
        results = []
        for op in (nd.masked_nll, unfused.masked_nll):
            # A weight after the term, as joint_total applies, makes the upstream gradient differ from 1.
            results.append(grads_of(nd.scale_by_scalar(op(scores, mask, scale, inv_tau), 0.3), [scores]))
        assert_bitwise(results[0], results[1], f"seed {seed}")


LOSS_CONFIGS = {
    "ce": dict(cce=0.0, ccl=0.0),
    **{f"cce_{v}": dict(ce=0.0, ccl=0.0, cce_variant=v) for v in CCE_VARIANTS},
    "ccl": dict(ce=0.0, cce=0.0),
    "joint_total": {},
}


def flat_fixture(seed: int, classifier_bias: bool):
    """The gradcheck loss fixture's model and keys, for five queries, with an optional random classifier bias."""
    rng = np.random.default_rng(seed)
    dims = ModelDims(in_dim=3, hidden=(4,), feature_dim=6, class_count=3, projector_dim=5)
    params = model_mod.init_params(dims, rng, classifier_bias=classifier_bias)
    if classifier_bias:
        params.classifier_b.data[:] = rng.normal(size=dims.class_count)
    x = Tensor(rng.normal(size=(5, dims.in_dim)))
    y = rng.integers(0, dims.class_count, size=5)
    keys = _random_key_batch(rng, int(rng.integers(3, 9)), dims.feature_dim, dims.projector_dim, dims.class_count, y)
    return params, x, y, keys


@pytest.mark.parametrize("classifier_bias", [False, True])
@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("loss", LOSS_CONFIGS)
def test_objective_on_flat_vector_views_is_bitwise_the_unfused_tape(loss, reduction, classifier_bias, monkeypatch):
    # Every parameter, the linear maps' weights and biases included, is a view into ModelParams.flat.
    cfg = LossesConfig(reduction=reduction, **LOSS_CONFIGS[loss])
    for seed in range(10):
        params, x, y, keys = flat_fixture(seed, classifier_bias)
        leaves = [t for _, t in params.named_parameters()]
        results = []
        for fused in (True, False):
            with monkeypatch.context() as m:
                if not fused:
                    m.setattr(nd, "linear", unfused.linear)
                    m.setattr(nd, "masked_nll", unfused.masked_nll)
                h, z, logits = model_mod.forward_query(params, x)
                total = objective(h, z, logits, y, params.classifier_W, keys, cfg).total
                results.append(grads_of(total, leaves))
        assert_bitwise(results[0], results[1], f"seed {seed}")


def fit_cfg(kind: str, generator: str, weights: tuple[float, float, float], iterations: int) -> RunConfig:
    cfg = RunConfig()
    cfg.dataset.kind = kind
    cfg.dataset.per_class = 40
    cfg.dataset.seed = 5
    cfg.model.hidden = (16,)
    cfg.model.feature_dim = 8
    cfg.model.projector_dim = 8
    cfg.optimizer.iterations = iterations
    cfg.optimizer.batch_size = 12
    cfg.optimizer.base_lr = 0.003
    cfg.losses.reduction = "mean"
    cfg.losses.ce, cfg.losses.cce, cfg.losses.ccl = weights
    cfg.keys.generator = generator
    cfg.keys.queue_size = 8
    cfg.keys.momentum = 0.99
    cfg.log_every = 5
    cfg.eval_every = 20
    return validate_config(cfg)


FITS = {
    "rings_ce_only": fit_cfg("rings", "moco", (1.0, 0.0, 0.0), 120),
    "blobs_membank_all_three": fit_cfg("blobs", "membank", (1.0, 1.0, 1.0), 60),
    "rings_moco_all_three": fit_cfg("rings", "moco", (1.0, 1.0, 1.0), 60),
}


def fingerprint(cfg: RunConfig) -> tuple[list[str], bytes, bytes]:
    run = trainer.fit(cfg)
    return trainer.metrics_csv_lines(run), run.params.flat.tobytes(), run.twin.flat.tobytes()


@pytest.mark.parametrize("name", FITS)
def test_fit_is_byte_identical_to_the_unfused_tape(name, monkeypatch):
    # A lone fit is stacked, one replica: the chains run on that replica (unfused.lone_*).
    fused = fingerprint(FITS[name])
    monkeypatch.setattr(nd, "linear", unfused.lone_linear)
    monkeypatch.setattr(nd, "masked_nll", unfused.lone_masked_nll)
    assert fingerprint(FITS[name]) == fused


def test_ce_only_fit_is_byte_identical_with_the_projector_run(monkeypatch):
    # A CE-only step skips the projector; forcing it back on changes no bit.
    skipped = fingerprint(FITS["rings_ce_only"])
    forward_query = model_mod.forward_query
    monkeypatch.setattr(model_mod, "forward_query", lambda params, x, project=True: forward_query(params, x))
    assert fingerprint(FITS["rings_ce_only"]) == skipped


class TestNonFiniteNamesTheFusedOp:
    def test_linear(self):
        x = Tensor(np.ones((2, 3)), grad_enabled=True)
        x.data[1, 2] = np.nan  # an in-place write between tapes, as the optimizer makes
        for w_rows, shape in ((False, (3, 2)), (True, (2, 3))):
            with pytest.raises(NonFiniteError, match="produced by linear$"):
                nd.linear(x, Tensor(np.ones(shape)), Tensor(np.ones(2)), w_rows=w_rows)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
    def test_linear_overflow(self):
        with pytest.raises(NonFiniteError, match="produced by linear$"):
            nd.linear(Tensor([[1e200]]), Tensor([[1e200]]))

    def test_masked_nll(self):
        scores = Tensor(np.zeros((2, 3)), grad_enabled=True)
        scores.data[0, 1] = np.nan
        for inv_tau in (1.0, 10.0):
            with pytest.raises(NonFiniteError, match="produced by masked_nll$"):
                nd.masked_nll(scores, np.ones((2, 3)), -1.0, inv_tau)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
    def test_masked_nll_temperature_overflow(self):
        with pytest.raises(NonFiniteError, match="produced by masked_nll$"):
            nd.masked_nll(Tensor([[1e300, 0.0]]), np.ones((1, 2)), -1.0, 1e10)

    def test_masked_nll_mask(self):
        with pytest.raises(NonFiniteError, match="masked_nll mask"):
            nd.masked_nll(Tensor(np.zeros((1, 2))), np.array([[1.0, np.inf]]), -1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: nd.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))),  # inner dims disagree
        lambda: nd.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), w_rows=True),
        lambda: nd.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones(3))),  # bias length
        lambda: nd.linear(Tensor(np.ones(3)), Tensor(np.ones((3, 2)))),
        lambda: nd.masked_nll(Tensor(np.ones((2, 3))), np.ones((3, 2)), -1.0),
        lambda: nd.masked_nll(Tensor(np.ones(3)), np.ones(3), -1.0),
    ],
)
def test_shape_errors(build):
    with pytest.raises(nd.ShapeError):
        build()
