"""Loss values against independent oracles, closed forms, and limits.

The oracles recompute every formula from scratch: plain numpy dot
products fed through an extended-precision (mpmath) softmax, never
touching the tape implementation under test.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import dualhead.ndgrad as nd
from dualhead.gradcheck import LOSS_CASES, worst_relative_error
from dualhead.keypool import KeyBatch
from dualhead.losses import LossTerms, NoEnabledTermError, ccl, cce, ce, info_nce, joint_total
from dualhead.ndgrad import Tensor

TAU = 0.07


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def make_batch(h_rows, z_rows, labels):
    """The keys of one query: a KeyBatch with B = 1."""
    return KeyBatch(
        h_keys=np.asarray(h_rows, dtype=float)[None],
        z_keys=np.asarray(z_rows, dtype=float)[None],
        labels=np.asarray(labels, dtype=np.int64)[None],
    )


def stack(batches):
    """One KeyBatch holding several queries' keys, in order."""
    return KeyBatch(
        h_keys=np.concatenate([kb.h_keys for kb in batches]),
        z_keys=np.concatenate([kb.z_keys for kb in batches]),
        labels=np.concatenate([kb.labels for kb in batches]),
    )


def nll_oracle(logit_row, index, dps=50):
    """Extended-precision -log softmax(logits)[index]."""
    with mp.workdps(dps):
        logits = [mp.mpf(float(v)) for v in logit_row]
        denom = mp.fsum(mp.exp(v) for v in logits)
        return float(-(logits[index] - mp.log(denom)))


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        loss = ce(Tensor(np.zeros((1, 4))), np.array([2]))
        assert abs(loss.item() - math.log(4)) <= 1e-12

    def test_confident_limit_vanishes(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 60.0
        assert ce(Tensor(logits), np.array([1])).item() < 1e-12

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(2, 3)) * 4
        labels = np.array([2, 0])
        expect = sum(nll_oracle(logits[i], labels[i]) for i in range(2))
        got = ce(Tensor(logits), labels).item()
        assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))

    def test_mean_reduction(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 1, 2, 1])
        assert abs(ce(Tensor(logits), labels, reduction="mean").item() * 4 - ce(Tensor(logits), labels).item()) <= 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            ce(Tensor(np.zeros((1, 3))), np.array([3]))


class TestInfoNCE:
    def test_indistinguishable_keys_give_log_k_plus_1(self):
        rng = np.random.default_rng(2)
        q = unit_rows(rng, 1, 5)
        keys = np.tile(q, (4, 1))  # K + 1 = 4 identical keys
        batch = make_batch(np.tile(q, (4, 1)), keys, [0, 0, 0, 0])
        loss = info_nce(Tensor(q), batch, positive_index=2, tau=TAU)
        assert abs(loss.item() - math.log(4)) <= 1e-9

    def test_dominant_positive_vanishes(self):
        # Positive aligned with q; the rest anti-aligned: logit margin 2/tau > 20.
        q = np.array([[1.0] + [0.0] * 4])
        pos = q.copy()
        neg = -q.copy()
        batch = make_batch(np.tile(q, (4, 1)), np.vstack([pos, neg, neg, neg]), [0, 1, 1, 1])
        assert info_nce(Tensor(q), batch, positive_index=0, tau=TAU).item() < 1e-6

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        q = unit_rows(rng, 1, 6)
        z = unit_rows(rng, 4, 6)  # K = 3
        batch = make_batch(unit_rows(rng, 4, 6), z, [0, 1, 0, 2])
        got = info_nce(Tensor(q), batch, positive_index=2, tau=TAU).item()
        expect = nll_oracle((z @ q[0]) / TAU, 2)
        assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))

    def test_positive_index_checked(self):
        rng = np.random.default_rng(4)
        q = unit_rows(rng, 1, 3)
        batch = make_batch(unit_rows(rng, 2, 3), unit_rows(rng, 2, 3), [0, 1])
        with pytest.raises(IndexError):
            info_nce(Tensor(q), batch, positive_index=2, tau=TAU)


def cce_oracle(h_norm, labels, W, keys, tau, variant="literal"):
    """Independent recomputation: live slot 0, extended-precision softmax."""
    total = 0.0
    for i in range(len(labels)):
        y = int(labels[i])
        bank = np.vstack([h_norm[i][None, :], keys.h_keys[i, 1:]])
        sims = (bank @ W[y]) / tau
        positives = keys.labels[i] == y
        if variant == "literal":
            total += positives.sum() * nll_oracle(sims, 0)
        else:
            total += sum(nll_oracle(sims, k) for k in np.flatnonzero(positives))
    return total


def ccl_oracle(z_q, labels, keys, tau):
    total = 0.0
    for i in range(len(labels)):
        sims = (keys.z_keys[i] @ z_q[i]) / tau
        for k in np.flatnonzero(keys.labels[i] == int(labels[i])):
            total += nll_oracle(sims, k)
    return total


class TestCCE:
    def test_query_only_bank_is_zero(self):
        rng = np.random.default_rng(5)
        h = unit_rows(rng, 1, 4)
        W = rng.normal(size=(3, 4))
        batch = make_batch(h.copy(), unit_rows(rng, 1, 2), [1])  # K = 0
        loss = cce(Tensor(h), np.array([1]), Tensor(W), batch, TAU)
        assert abs(loss.item()) <= 1e-12

    def test_indistinguishable_same_class_keys(self):
        rng = np.random.default_rng(6)
        h = unit_rows(rng, 1, 4)
        k = 5
        keys_h = np.tile(h, (k + 1, 1))
        batch = make_batch(keys_h, unit_rows(rng, k + 1, 2), [2] * (k + 1))
        W = rng.normal(size=(3, 4))
        loss = cce(Tensor(h), np.array([2]), Tensor(W), batch, TAU)
        assert abs(loss.item() - (k + 1) * math.log(k + 1)) <= 1e-9

    @pytest.mark.parametrize("variant", ["literal", "per_key"])
    def test_matches_brute_force_oracle(self, variant):
        rng = np.random.default_rng(7)
        b, d, c, k = 2, 5, 3, 4
        h = unit_rows(rng, b, d)
        labels = np.array([1, 0])
        W = rng.normal(size=(c, d))
        keys = stack([
            make_batch(
                np.vstack([unit_rows(rng, 1, d), unit_rows(rng, k, d)]),
                unit_rows(rng, k + 1, 3),
                np.concatenate([[labels[i]], rng.integers(0, c, size=k)]),
            )
            for i in range(b)
        ])
        got = cce(Tensor(h), labels, Tensor(W), keys, TAU, variant=variant).item()
        expect = cce_oracle(h, labels, W, keys, TAU, variant=variant)
        assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))

    def test_literal_is_multiplicity_times_per_query_term(self):
        rng = np.random.default_rng(8)
        d, k = 4, 6
        h = unit_rows(rng, 1, d)
        labels = np.array([0])
        W = rng.normal(size=(2, d))
        kb_labels = np.array([0, 0, 1, 0, 1, 1, 0])
        batch = make_batch(np.vstack([h, unit_rows(rng, k, d)]), unit_rows(rng, k + 1, 3), kb_labels)
        got = cce(Tensor(h), labels, Tensor(W), batch, TAU).item()
        bank = np.vstack([h, batch.h_keys[0, 1:]])
        term = nll_oracle((bank @ W[0]) / TAU, 0)
        assert abs(got - int((kb_labels == 0).sum()) * term) <= 1e-12 * max(1.0, abs(got))

    def test_slot0_label_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        h = unit_rows(rng, 1, 3)
        batch = make_batch(unit_rows(rng, 2, 3), unit_rows(rng, 2, 2), [1, 0])
        with pytest.raises(ValueError):
            cce(Tensor(h), np.array([0]), Tensor(rng.normal(size=(2, 3))), batch, TAU)


class TestCCL:
    def test_singleton_positive_equals_info_nce(self):
        rng = np.random.default_rng(10)
        L, k = 5, 4
        z = unit_rows(rng, 1, L)
        keys = unit_rows(rng, k + 1, L)
        labels = np.array([0, 1, 2, 1, 2])  # only slot 0 is class 0
        batch = make_batch(unit_rows(rng, k + 1, 3), keys, labels)
        got = ccl(Tensor(z), np.array([0]), batch, TAU).item()
        ref = info_nce(Tensor(z), batch, positive_index=0, tau=TAU).item()
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_all_positive_uniform_similarities(self):
        rng = np.random.default_rng(11)
        L, k = 4, 5
        z = unit_rows(rng, 1, L)
        batch = make_batch(unit_rows(rng, k + 1, 3), np.tile(z, (k + 1, 1)), [3] * (k + 1))
        got = ccl(Tensor(z), np.array([3]), batch, TAU).item()
        assert abs(got - (k + 1) * math.log(k + 1)) <= 1e-9

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        L, k = 6, 5
        z = unit_rows(rng, 2, L)
        labels = np.array([1, 0])
        batches = []
        for i in range(2):
            kb_labels = np.concatenate([[labels[i]], [1, 1, 0, 2, 0]])
            batches.append(make_batch(unit_rows(rng, k + 1, 4), unit_rows(rng, k + 1, L), kb_labels))
        keys = stack(batches)
        got = ccl(Tensor(z), labels, keys, TAU).item()
        expect = ccl_oracle(z, labels, keys, TAU)
        assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))


class TestJointTotal:
    def test_ce_only(self):
        logits = Tensor(np.array([[1.0, -1.0]]), grad_enabled=False)
        terms = LossTerms(weights=(1.0, 0.0, 0.0))
        terms.ce = ce(logits, np.array([0]))
        total = joint_total(terms)
        assert total is terms.total
        assert total.item() == terms.ce.item()

    def test_additivity_of_equal_terms(self):
        t = Tensor(np.array([[2.0]]))
        val = nd.sum(t)
        terms = LossTerms()
        terms.ce = val
        terms.cce = nd.sum(t)
        terms.ccl = nd.sum(t)
        assert abs(joint_total(terms).item() - 3 * val.item()) <= 1e-15

    def test_gradient_is_sum_of_per_term_gradients(self):
        builder = LOSS_CASES["joint_total"]
        rng = np.random.default_rng(13)
        forward, wrt = builder(rng)
        loss = forward()
        loss.backward()
        total_grads = [t.grad.copy() for t in wrt]
        for t in wrt:
            t.zero_grad()

        summed = [np.zeros_like(g) for g in total_grads]
        for kind in ("ce", "cce_literal", "ccl"):
            fwd, wrt2 = LOSS_CASES[kind](np.random.default_rng(13))
            fwd().backward()
            for acc, t in zip(summed, wrt2):
                if t.grad is not None:
                    acc += t.grad
                t.zero_grad()
        for got, expect in zip(total_grads, summed):
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_all_disabled_rejected(self):
        with pytest.raises(NoEnabledTermError):
            joint_total(LossTerms(weights=(0.0, 0.0, 0.0)))

    def test_weight_zero_disables(self):
        ce_term = Tensor(np.array(2.0))
        terms = LossTerms(ce=ce_term, weights=(1.0, 0.0, 0.0))
        assert joint_total(terms) is ce_term


class TestInvariants:
    def test_losses_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            b, d, L, c, k = 2, 4, 3, 3, 5
            h = unit_rows(rng, b, d)
            z = unit_rows(rng, b, L)
            labels = rng.integers(0, c, size=b)
            W = rng.normal(size=(c, d))
            keys = stack([
                make_batch(
                    unit_rows(rng, k + 1, d),
                    unit_rows(rng, k + 1, L),
                    np.concatenate([[labels[i]], rng.integers(0, c, size=k)]),
                )
                for i in range(b)
            ])
            logits = rng.normal(size=(b, c))
            assert ce(Tensor(logits), labels).item() >= 0.0
            assert cce(Tensor(h), labels, Tensor(W), keys, TAU).item() >= 0.0
            assert cce(Tensor(h), labels, Tensor(W), keys, TAU, variant="per_key").item() >= 0.0
            assert ccl(Tensor(z), labels, keys, TAU).item() >= 0.0

    def test_ccl_strictly_decreases_as_positive_similarity_rises(self):
        # One-parameter family: q = t * k_pos + fixed orthogonal part, so the
        # positive similarity grows with t while every other one stays put.
        L = 4
        pos = np.array([1.0, 0.0, 0.0, 0.0])
        negs = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        batch = make_batch(
            np.vstack([pos, negs]), np.vstack([pos, negs]), [0, 1, 2]
        )
        offset = np.array([0.0, 0.3, -0.2, 0.5])
        values = []
        for t in (0.1, 0.4, 0.8, 1.2):
            q = (t * pos + offset)[None, :]
            values.append(ccl(Tensor(q), np.array([0]), batch, TAU).item())
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_cce_strictly_decreases_as_prototype_alignment_rises(self):
        d = 3
        w = np.array([[2.0, 0.0, 0.0]])
        keys = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        values = []
        for t in (0.05, 0.2, 0.5, 0.9):
            h = np.array([[t, 0.4, 0.0]])  # unnormalized probe of the formula
            batch = make_batch(np.vstack([h, keys]), np.vstack([h, keys]), [0, 1, 1])
            values.append(cce(Tensor(h), np.array([0]), Tensor(w), batch, TAU).item())
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_high_temperature_uniform_limits(self):
        # At tau = 1e6 the residual from the uniform limit is bounded by
        # multiplicity * 2 * max|sim| / tau, so the probe keeps queries and
        # prototypes at norm 0.1 to put that bound safely under 1e-6.
        rng = np.random.default_rng(15)
        d, L, k = 4, 3, 5
        tau_inf = 1e6
        q = 0.1 * unit_rows(rng, 1, L)
        labels_all = np.array([0, 1, 0, 2, 0, 1])
        batch = make_batch(unit_rows(rng, k + 1, d), unit_rows(rng, k + 1, L), labels_all)
        n_pos = int((labels_all == 0).sum())
        assert abs(info_nce(Tensor(q), batch, 0, tau_inf).item() - math.log(k + 1)) <= 1e-6
        assert abs(ccl(Tensor(q), np.array([0]), batch, tau_inf).item() - n_pos * math.log(k + 1)) <= 1e-6
        h = 0.1 * unit_rows(rng, 1, d)
        W = 0.1 * unit_rows(rng, 3, d)
        assert abs(cce(Tensor(h), np.array([0]), Tensor(W), batch, tau_inf).item() - n_pos * math.log(k + 1)) <= 1e-6

    def test_keys_receive_no_gradient(self):
        rng = np.random.default_rng(16)
        b, d, L, c, k = 2, 4, 3, 3, 4
        h_raw = Tensor(rng.normal(size=(b, d)) + 0.5, grad_enabled=True)
        z_raw = Tensor(rng.normal(size=(b, L)) + 0.5, grad_enabled=True)
        W = Tensor(rng.normal(size=(c, d)), grad_enabled=True)
        labels = rng.integers(0, c, size=b)
        keys = stack([
            make_batch(
                unit_rows(rng, k + 1, d),
                unit_rows(rng, k + 1, L),
                np.concatenate([[labels[i]], rng.integers(0, c, size=k)]),
            )
            for i in range(b)
        ])
        h_keys, z_keys = keys.h_keys.copy(), keys.z_keys.copy()
        terms = LossTerms()
        terms.ce = ce(nd.linear(nd.row_l2_normalize(h_raw), W, w_rows=True), labels)
        terms.cce = cce(nd.row_l2_normalize(h_raw), labels, W, keys, TAU)
        terms.ccl = ccl(nd.row_l2_normalize(z_raw), labels, keys, TAU)
        joint_total(terms).backward()
        assert h_raw.grad is not None and W.grad is not None
        # Keys are plain arrays outside the tape: nothing can write to them.
        assert not isinstance(keys.h_keys, Tensor) and not isinstance(keys.z_keys, Tensor)
        np.testing.assert_array_equal(keys.h_keys, h_keys)
        np.testing.assert_array_equal(keys.z_keys, z_keys)

    @pytest.mark.parametrize("name", sorted(LOSS_CASES))
    def test_loss_gradients_match_finite_differences(self, name):
        worst = 0.0
        for seed in range(3):
            forward, wrt = LOSS_CASES[name](np.random.default_rng(seed))
            worst = max(worst, worst_relative_error(forward, wrt))
        assert worst <= 1e-4
