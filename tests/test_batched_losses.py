"""The batched contrastive losses against the per-query loop they replace.

``loop_cce`` and ``loop_ccl`` are the earlier implementation, kept here
as a reference oracle: one small graph per query, with the query's live
feature concatenated into slot 0 of its bank. On the gradcheck loss
fixtures the batched (B x (K+1)) losses must match them in value and in
every parameter gradient.

``_reduce`` is the batch reduction as a separate scale, the form each term
had before the reduction was folded into its one scale. Each term is now
one ``masked_nll`` node; it must equal the unfused chain (the 1/tau scale,
the log-softmax, the mask, the sum, the -1 scale, then ``_reduce``) bit
for bit.
"""

import numpy as np
import pytest

import dualhead.losses as losses_mod
import dualhead.model as model_mod
import dualhead.ndgrad as nd
from dualhead.config import LossesConfig
from dualhead.gradcheck import _loss_fixture, _random_key_batch
from dualhead.keypool import KeyBatch
from dualhead.losses import CCE_VARIANTS, REDUCTIONS, _check_labels, _check_tau, ccl, cce, objective
from dualhead.model import ModelDims
from dualhead.ndgrad import Tensor
from unfused import concat_rows, log_softmax_row, matmul, transpose

MATCH_TOL = 1e-12


def _reduce(loss, reduction, batch):
    """The batch reduction as it stood before it was folded into each term's scale."""
    if reduction not in REDUCTIONS:
        raise ValueError(f"reduction must be one of {REDUCTIONS}, got {reduction!r}")
    if reduction == "mean":
        return nd.scale_by_scalar(loss, 1.0 / batch)
    return loss


def loop_cce(h_q_norm, labels, W, keys, tau, variant="literal", reduction="sum"):
    """Per-query classifier-head loss: prototype against [live h_i; sampled keys]."""
    tau = _check_tau(tau)
    b, _ = h_q_norm.shape
    labels = _check_labels(labels, W.shape[0])
    total = None
    for i in range(b):
        y = int(labels[i])
        assert int(keys.labels[i, 0]) == y
        bank = nd.select_rows(h_q_norm, [i])
        if keys.size:
            bank = concat_rows([bank, Tensor(keys.h_keys[i, 1:])])
        proto = nd.select_rows(W, [y])
        sims = nd.scale_by_scalar(matmul(proto, transpose(bank)), 1.0 / tau)
        logp = log_softmax_row(sims)
        positives = keys.labels[i] == y
        if variant == "literal":
            mask = np.zeros((1, keys.size + 1))
            mask[0, 0] = 1.0
            term = nd.scale_by_scalar(nd.sum(nd.mul(logp, Tensor(mask))), -float(positives.sum()))
        else:
            term = nd.scale_by_scalar(nd.sum(nd.mul(logp, Tensor(positives[None, :].astype(float)))), -1.0)
        total = term if total is None else nd.add(total, term)
    return _reduce(total, reduction, b)


def loop_ccl(z_q, labels, keys, tau, reduction="sum"):
    """Per-query projector-head loss with every same-class key positive."""
    tau = _check_tau(tau)
    b, _ = z_q.shape
    labels = np.asarray(labels, dtype=np.int64)
    total = None
    for i in range(b):
        y = int(labels[i])
        assert int(keys.labels[i, 0]) == y
        q = nd.select_rows(z_q, [i])
        sims = nd.scale_by_scalar(matmul(q, transpose(Tensor(keys.z_keys[i]))), 1.0 / tau)
        logp = log_softmax_row(sims)
        mask = (keys.labels[i] == y)[None, :].astype(float)
        term = nd.scale_by_scalar(nd.sum(nd.mul(logp, Tensor(mask))), -1.0)
        total = term if total is None else nd.add(total, term)
    return _reduce(total, reduction, b)


LOSSES = [("cce", v) for v in CCE_VARIANTS] + [("ccl", None)]


def value_and_grads(params, x, y, keys, tau, loss, variant, reduction, batched):
    h, z, _ = model_mod.forward_query(params, x)
    if loss == "cce":
        fn = cce if batched else loop_cce
        out = fn(nd.row_l2_normalize(h), y, params.classifier_W, keys, tau, variant=variant, reduction=reduction)
    else:
        fn = ccl if batched else loop_ccl
        out = fn(z, y, keys, tau, reduction=reduction)
    out.backward()
    grads = {}
    for name, t in params.named_parameters():
        grads[name] = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        t.zero_grad()
    return out.item(), grads


@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("loss, variant", LOSSES)
def test_batched_matches_loop_on_gradcheck_fixtures(loss, variant, reduction):
    for seed in range(20):
        params, x, y, keys, tau, _ = _loss_fixture(np.random.default_rng(seed))
        got, got_grads = value_and_grads(params, x, y, keys, tau, loss, variant, reduction, batched=True)
        want, want_grads = value_and_grads(params, x, y, keys, tau, loss, variant, reduction, batched=False)
        assert abs(got - want) <= MATCH_TOL * max(1.0, abs(want)), (seed, got, want)
        for name, g in want_grads.items():
            scale = max(1.0, float(np.abs(g).max()))
            assert np.abs(got_grads[name] - g).max() <= MATCH_TOL * scale, (seed, name)


def test_batched_matches_loop_on_a_training_sized_batch():
    # B = 16 queries with K = 6 keys each, duplicate and missing classes included.
    rng = np.random.default_rng(3)
    b, k, d, L, c = 16, 6, 8, 5, 4
    y = rng.integers(0, c, size=b)
    h = rng.normal(size=(b, k + 1, d))
    z = rng.normal(size=(b, k + 1, L))
    keys = KeyBatch(
        h_keys=h / np.linalg.norm(h, axis=2, keepdims=True),
        z_keys=z / np.linalg.norm(z, axis=2, keepdims=True),
        labels=np.concatenate([y[:, None], rng.integers(0, c - 1, size=(b, k))], axis=1),
    )
    h_q = nd.row_l2_normalize(Tensor(rng.normal(size=(b, d))))
    z_q = nd.row_l2_normalize(Tensor(rng.normal(size=(b, L))))
    W = Tensor(rng.normal(size=(c, d)))
    for variant in CCE_VARIANTS:
        got = cce(h_q, y, W, keys, 0.07, variant=variant).item()
        want = loop_cce(h_q, y, W, keys, 0.07, variant=variant).item()
        assert abs(got - want) <= MATCH_TOL * max(1.0, abs(want))
    got, want = ccl(z_q, y, keys, 0.07).item(), loop_ccl(z_q, y, keys, 0.07).item()
    assert abs(got - want) <= MATCH_TOL * max(1.0, abs(want))


def _two_scale_masked_nll(scores, mask, reduction="sum", inv_tau=None):
    """The unfused chain: x(1/tau), log-softmax, mask, sum, x(-1), then the reduction's own x(1/B)."""
    logp = log_softmax_row(scores if inv_tau is None else nd.scale_by_scalar(scores, inv_tau))
    return _reduce(nd.scale_by_scalar(nd.sum(nd.mul(logp, Tensor(mask))), -1.0), reduction, scores.shape[0])


# One enabled term each, so the objective's total is that term itself.
SINGLE_TERMS = {
    "ce": dict(cce=0.0, ccl=0.0),
    "cce_literal": dict(ce=0.0, ccl=0.0, cce_variant="literal"),
    "cce_per_key": dict(ce=0.0, ccl=0.0, cce_variant="per_key"),
    "ccl": dict(ce=0.0, cce=0.0),
}


def batch_fixture(seed, b):
    """A gradcheck-sized model and key batch for b queries (b not a power of two, so 1/b is inexact)."""
    rng = np.random.default_rng(seed)
    dims = ModelDims(in_dim=3, hidden=(4,), feature_dim=6, class_count=3, projector_dim=5)
    params = model_mod.init_params(dims, rng)
    x = Tensor(rng.normal(size=(b, dims.in_dim)))
    y = rng.integers(0, dims.class_count, size=b)
    keys = _random_key_batch(rng, int(rng.integers(3, 9)), dims.feature_dim, dims.projector_dim, dims.class_count, y)
    return params, x, y, keys


def objective_value_and_grads(params, x, y, keys, cfg):
    h, z, logits = model_mod.forward_query(params, x)
    out = objective(h, z, logits, y, params.classifier_W, keys, cfg).total
    out.backward()
    grads = {}
    for name, t in params.named_parameters():
        grads[name] = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        t.zero_grad()
    return out.item(), grads


@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("term", SINGLE_TERMS)
def test_folded_reduction_is_bitwise_the_two_scale_chain(term, reduction, monkeypatch):
    cfg = LossesConfig(reduction=reduction, **SINGLE_TERMS[term])
    for seed, b in enumerate((3, 5, 6, 7, 16) * 4):
        params, x, y, keys = batch_fixture(seed, b)
        got, got_grads = objective_value_and_grads(params, x, y, keys, cfg)
        with monkeypatch.context() as m:
            m.setattr(losses_mod, "_masked_nll", _two_scale_masked_nll)
            want, want_grads = objective_value_and_grads(params, x, y, keys, cfg)
        assert got == want, (seed, got, want)
        for name, g in want_grads.items():
            np.testing.assert_array_equal(got_grads[name], g, err_msg=f"seed {seed}, {name}")


# The node that computes each term's raw scores (the logits, or the similarity matrix), and that node's parents.
SCORES_OP = {
    "ce": ("linear", ["linear", "leaf"]),
    "cce_literal": ("row_dot_slab", ["select_rows", "row_l2_normalize"]),
    "cce_per_key": ("row_dot_slab", ["select_rows", "row_l2_normalize"]),
    "ccl": ("row_dot_slab", ["row_l2_normalize"]),
}


@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("term", SINGLE_TERMS)
def test_each_term_ends_in_one_scale_after_its_sum(term, reduction):
    # The scale after the sum, like the 1/tau scale, the log-softmax and the mask, is inside one masked_nll node.
    params, x, y, keys = batch_fixture(0, 5)
    cfg = LossesConfig(reduction=reduction, **SINGLE_TERMS[term])
    h, z, logits = model_mod.forward_query(params, x)
    out = objective(h, z, logits, y, params.classifier_W, keys, cfg).total
    assert out._op == "masked_nll"
    (scores,) = out._parents
    assert (scores._op, [p._op for p in scores._parents]) == SCORES_OP[term]


class TestKeyChecks:
    def fixture(self):
        params, x, y, keys, tau, _ = _loss_fixture(np.random.default_rng(0))
        h, z, _ = model_mod.forward_query(params, x)
        return nd.row_l2_normalize(h), z, y, params.classifier_W, keys, tau

    def test_slot0_label_mismatch_is_a_value_error(self):
        h, z, y, W, keys, tau = self.fixture()
        keys.labels[1, 0] = (keys.labels[1, 0] + 1) % W.shape[0]
        with pytest.raises(ValueError, match="slot-0 label"):
            cce(h, y, W, keys, tau)
        with pytest.raises(ValueError, match="slot-0 label"):
            ccl(z, y, keys, tau)

    def test_key_dim_mismatch_is_a_shape_error(self):
        h, z, y, W, keys, tau = self.fixture()
        with pytest.raises(nd.ShapeError):
            cce(h, y, W, KeyBatch(keys.h_keys[:, :, 1:], keys.z_keys, keys.labels), tau)
        with pytest.raises(nd.ShapeError):
            ccl(z, y, KeyBatch(keys.h_keys, keys.z_keys[:, :, 1:], keys.labels), tau)

    def test_query_count_mismatch_is_a_shape_error(self):
        h, z, y, W, keys, tau = self.fixture()
        one = KeyBatch(keys.h_keys[:1], keys.z_keys[:1], keys.labels[:1])
        with pytest.raises(nd.ShapeError):
            cce(h, y, W, one, tau)
        with pytest.raises(nd.ShapeError):
            ccl(z, y, one, tau)
