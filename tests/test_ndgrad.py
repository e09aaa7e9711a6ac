"""Tensor op semantics and backward rules against finite differences."""

import math

import numpy as np
import pytest

import dualhead.ndgrad as nd
from dualhead.gradcheck import LOSS_CASES, OP_CASES, worst_relative_error
from dualhead.ndgrad import (
    DegenerateRowError,
    NonFiniteError,
    ShapeError,
    Tensor,
)
import unfused
from unfused import add_bias, concat_rows, matmul


class TestTensorBasics:
    def test_rejects_nan_at_construction(self):
        with pytest.raises(NonFiniteError):
            Tensor([[1.0, float("nan")]])

    def test_rejects_inf_at_construction(self):
        with pytest.raises(NonFiniteError):
            Tensor([float("inf")])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
    def test_op_output_checked(self):
        big = Tensor([[1e308]], grad_enabled=True)
        with pytest.raises(NonFiniteError):
            nd.mul(big, big)

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([[1.0, 2.0]]).item()

    def test_backward_requires_scalar(self):
        t = Tensor([[1.0, 2.0]], grad_enabled=True)
        with pytest.raises(ShapeError):
            nd.relu(t).backward()


class TestMatmul:
    """``unfused.matmul``, the product the oracle chains build on."""

    def test_identity(self):
        eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
        v = Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(matmul(eye, v).data, [[3.0], [4.0]])

    def test_annihilation(self):
        np.testing.assert_array_equal(matmul(Tensor([[2.0]]), Tensor([[0.0]])).data, [[0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), grad_enabled=True)
        b = Tensor(rng.normal(size=(4, 2)), grad_enabled=True)
        err = unfused.worst_relative_error(lambda: nd.sum(matmul(a, b)), [a, b], floor=1e-3)
        assert err < 1e-6


class TestRowL2Normalize:
    def test_three_four_five(self):
        out = nd.row_l2_normalize(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    def test_already_unit(self):
        out = nd.row_l2_normalize(Tensor([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1.0, 0.0, 0.0]], atol=0)

    def test_norms_are_the_linalg_norm(self):
        # The norms skip np.linalg.norm's Python wrapper; the output must still be bitwise its division.
        rng = np.random.default_rng(0)
        for _ in range(2000):
            n, d = (int(v) for v in rng.integers(1, 9, size=2))
            a = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-8.0, 100.0, size=(n, 1))  # above NORM_EPS
            got = nd.row_l2_normalize(Tensor(a)).data
            np.testing.assert_array_equal(got, a / np.linalg.norm(a, axis=1, keepdims=True))

    def test_zero_row_is_hard_error(self):
        with pytest.raises(DegenerateRowError):
            nd.row_l2_normalize(Tensor([[1.0, 1.0], [0.0, 0.0]]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 5)) + 0.3, grad_enabled=True)
        head = Tensor(rng.normal(size=(2, 5)))
        err = worst_relative_error(lambda: nd.sum(nd.mul(nd.row_l2_normalize(a), head)), [a], floor=1e-3)
        assert err < 1e-5


def log_probs(scores: np.ndarray) -> np.ndarray:
    """Every row log-softmax entry, read through masked_nll with a one-hot mask and scale 1."""
    out = np.zeros_like(scores)
    for idx in np.ndindex(*scores.shape):
        onehot = np.zeros_like(scores)
        onehot[idx] = 1.0
        out[idx] = nd.masked_nll(Tensor(scores), onehot, 1.0).item()
    return out


class TestLogSoftmaxRow:
    """The row log-softmax inside masked_nll."""

    def test_uniform_logits(self):
        np.testing.assert_allclose(log_probs(np.zeros((1, 3))), [[-math.log(3)] * 3], atol=1e-15)

    def test_extreme_logits_no_overflow(self):
        mp = pytest.importorskip("mpmath")
        out = log_probs(np.array([[1000.0, 0.0]]))
        with mp.workdps(60):
            denom = mp.log(mp.exp(mp.mpf(1000)) + 1)
            expect = [float(mp.mpf(1000) - denom), float(-denom)]
        np.testing.assert_allclose(out, [expect], rtol=1e-12, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = log_probs(rng.normal(size=(5, 7)) * 3)
        np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(3, 4)), grad_enabled=True)
        weights = rng.normal(size=(3, 4))
        err = worst_relative_error(lambda: nd.masked_nll(a, weights, 1.0), [a], floor=1e-3)
        assert err < 1e-6


class TestRowDotSlab:
    def test_each_row_meets_its_own_slab(self):
        a = Tensor([[1.0, 2.0], [3.0, -1.0]])
        slab = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]]])
        out = nd.row_dot_slab(a, slab)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0], [6.0, -2.0, 2.0]])

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        b, n, d = (int(v) for v in rng.integers(1, 6, size=3))
        a = Tensor(rng.normal(size=(b, d)), grad_enabled=True)
        slab = rng.normal(size=(b, n, d))
        head = Tensor(rng.normal(size=(b, n)))
        err = worst_relative_error(lambda: nd.sum(nd.mul(nd.row_dot_slab(a, slab), head)), [a])
        assert err <= 1e-4

    def test_slab_receives_no_gradient_and_is_not_modified(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(2, 3)), grad_enabled=True)
        slab = rng.normal(size=(2, 4, 3))
        before = slab.copy()
        nd.sum(nd.row_dot_slab(a, slab)).backward()
        np.testing.assert_allclose(a.grad, slab.sum(axis=1), atol=1e-15)
        np.testing.assert_array_equal(slab, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_slab_rejected(self, bad):
        slab = np.ones((2, 3, 2))
        slab[1, 2, 0] = bad
        with pytest.raises(NonFiniteError):
            nd.row_dot_slab(Tensor(np.ones((2, 2)), grad_enabled=True), slab)

    @pytest.mark.parametrize(
        "a_shape, slab_shape",
        [((2, 3), (2, 4, 2)), ((2, 3), (3, 4, 3)), ((2, 3), (2, 3)), ((6,), (2, 4, 3))],
    )
    def test_mismatched_dims_rejected(self, a_shape, slab_shape):
        with pytest.raises(ShapeError):
            nd.row_dot_slab(Tensor(np.ones(a_shape)), np.ones(slab_shape))

    def test_live0_is_column_0(self):
        a = Tensor([[1.0, 2.0], [3.0, -1.0]])
        live0 = Tensor([[2.0, 1.0], [0.5, 4.0]])
        slab = np.array([[[9.0, 9.0], [0.0, 1.0]], [[np.nan, np.inf], [1.0, 1.0]]])  # slot 0 is never read
        out = nd.row_dot_slab(a, slab, live0=live0)
        np.testing.assert_array_equal(out.data, [[4.0, 2.0], [-2.5, 2.0]])

    @pytest.mark.parametrize("seed", range(20))
    def test_live0_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        b, n, d = (int(v) for v in rng.integers(1, 6, size=3))
        a = Tensor(rng.normal(size=(b, d)), grad_enabled=True)
        live0 = Tensor(rng.normal(size=(b, d)), grad_enabled=True)
        slab = rng.normal(size=(b, n, d))
        head = Tensor(rng.normal(size=(b, n)))
        err = worst_relative_error(lambda: nd.sum(nd.mul(nd.row_dot_slab(a, slab, live0), head)), [a, live0])
        assert err <= 1e-4

    @pytest.mark.parametrize("live0_shape, slots", [((2, 2), 4), ((3, 3), 4), ((2, 3, 1), 4), ((6,), 4), ((2, 3), 0)])
    def test_mismatched_live0_rejected(self, live0_shape, slots):
        with pytest.raises(ShapeError):
            nd.row_dot_slab(Tensor(np.ones((2, 3))), np.ones((2, slots, 3)), live0=Tensor(np.ones(live0_shape)))

    @pytest.mark.parametrize("seed", range(20))
    def test_live0_matches_the_zeroed_slab_and_e0_chain(self, seed):
        # The chain cce built before: it rounds differently (column 0 through a matmul), so to 1e-12, not bitwise.
        rng = np.random.default_rng(seed)
        b, n, d = (int(v) for v in rng.integers(1, 9, size=3))
        a = Tensor(rng.normal(size=(b, d)), grad_enabled=True)
        live0 = Tensor(rng.normal(size=(b, d)), grad_enabled=True)
        slab = rng.normal(size=(b, n, d))
        head = Tensor(rng.normal(size=(b, n)))
        results = []
        for op in (nd.row_dot_slab, unfused.row_dot_slab):
            out = op(a, slab, live0)
            nd.sum(nd.mul(out, head)).backward()
            results.append((out.data, a.grad, live0.grad))
            a.zero_grad()
            live0.zero_grad()
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_gradcheck_checks_it_in_place_of_mean(self):
        # One op case per op form the model and losses run; the ops they replaced, and the forms none runs, are gone.
        assert "row_dot_slab" in OP_CASES and "mean" not in OP_CASES
        assert {"linear", "linear_rows", "masked_nll", "masked_nll_tau", "row_dot_slab_live0"} <= set(OP_CASES)
        for gone in ("mean", "transpose", "log_softmax_row", "concat_rows", "matmul"):
            assert gone not in OP_CASES and not hasattr(nd, gone)
        assert "add_bias" not in OP_CASES
        assert len(OP_CASES) + len(LOSS_CASES) == 19

    def test_every_gradcheck_instance_checks_the_same_coordinates(self):
        # A case's work must not depend on its seed: perfbench compares exact per-case counts across runs.
        for cases in (OP_CASES, LOSS_CASES):
            for name, build in cases.items():
                sizes = {sum(t.data.size for t in build(np.random.default_rng(seed))[1]) for seed in range(8)}
                assert len(sizes) == 1, name


class TestPlumbingOps:
    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nd.add(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2))))
        with pytest.raises(ShapeError):  # no 1-D bias broadcast: linear owns every bias
            nd.add(Tensor(np.ones((2, 2))), Tensor(np.ones(2)))

    def test_relu_values(self):
        out = nd.relu(Tensor([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_sum(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert nd.sum(t).item() == 10.0

    def test_select_rows_with_duplicates(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], grad_enabled=True)
        out = nd.select_rows(t, [2, 0, 2])
        np.testing.assert_array_equal(out.data, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])
        nd.sum(out).backward()
        np.testing.assert_array_equal(t.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])

    def test_select_rows_out_of_range(self):
        with pytest.raises(IndexError):
            nd.select_rows(Tensor(np.ones((2, 2))), [2])

    def test_transpose(self):
        # The rows form of linear multiplies by w.T: with x the identity, out is w.T itself.
        out = nd.linear(Tensor(np.eye(3)), Tensor([[1.0, 2.0, 3.0]]), w_rows=True)
        np.testing.assert_array_equal(out.data, [[1.0], [2.0], [3.0]])

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: (lambda a, b: nd.add(a, b), (3, 4), (3, 4)),
            lambda rng: (lambda a, b: nd.mul(a, b), (2, 5), (2, 5)),
        ],
    )
    def test_binary_op_gradients(self, build):
        rng = np.random.default_rng(4)
        op, sa, sb = build(rng)
        a = Tensor(rng.normal(size=sa), grad_enabled=True)
        b = Tensor(rng.normal(size=sb), grad_enabled=True)
        head = Tensor(rng.normal(size=sa))
        err = worst_relative_error(lambda: nd.sum(nd.mul(op(a, b), head)), [a, b], floor=1e-3)
        assert err < 1e-6


class TestTapeSemantics:
    def test_reused_value_accumulates_both_contributions(self):
        # a feeds two consumers; its gradient is the sum of both paths.
        a = Tensor([[1.0, -2.0]], grad_enabled=True)
        left = nd.relu(a)
        right = nd.scale_by_scalar(a, 3.0)
        nd.sum(nd.add(left, right)).backward()
        np.testing.assert_array_equal(a.grad, [[1.0 + 3.0, 0.0 + 3.0]])

    def test_square_via_self_mul_accumulates(self):
        a = Tensor([[2.0]], grad_enabled=True)
        nd.sum(nd.mul(a, a)).backward()
        np.testing.assert_array_equal(a.grad, [[4.0]])

    def test_grad_disabled_inputs_get_no_gradient(self):
        a = Tensor([[1.0, 2.0]], grad_enabled=True)
        c = Tensor([[5.0, 5.0]])
        nd.sum(nd.mul(a, c)).backward()
        assert c.grad is None
        np.testing.assert_array_equal(a.grad, [[5.0, 5.0]])

    @pytest.mark.parametrize("seed", range(20))
    def test_composite_graph_gradient(self, seed):
        # Random multi-op graphs: every path rule must agree with FD.
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(2, 3)), grad_enabled=True)
        b = Tensor(rng.normal(size=(3, 4)), grad_enabled=True)
        bias = Tensor(rng.normal(size=4), grad_enabled=True)
        head = Tensor(rng.normal(size=(2, 4)))

        def forward():
            h = nd.relu(add_bias(matmul(a, b), bias))
            return nd.masked_nll(nd.add(h, nd.linear(a, b, bias)), head.data, 1.0)

        assert unfused.worst_relative_error(forward, [a, b, bias]) <= 1e-4


class TestGradientOwnership:
    """A leaf's first gradient contribution may be shared or a view; its .grad must be its own copy."""

    @staticmethod
    def check(build, leaves):
        # build() -> (scalar loss, every intermediate node whose grad feeds a leaf)
        loss, nodes = build()
        for t in leaves:
            t.zero_grad()
        loss.backward()
        for i, t in enumerate(leaves):
            assert t.grad is not None
            for g in [n.grad for n in nodes] + [u.grad for j, u in enumerate(leaves) if j != i]:
                assert not np.shares_memory(t.grad, g)
        grads = [t.grad.copy() for t in leaves]
        for t in leaves:
            t.zero_grad()
        assert unfused.worst_relative_error(lambda: build()[0], leaves) <= 1e-6
        return grads

    def test_leaf_consumed_twice_by_add(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), grad_enabled=True)
        head = Tensor(rng.normal(size=(3, 4)))

        def build():
            doubled = nd.add(a, a)  # both parents receive the same g
            return nd.sum(nd.mul(doubled, head)), [doubled]

        (grad,) = self.check(build, [a])
        np.testing.assert_array_equal(grad, 2.0 * head.data)

    @pytest.mark.parametrize("transpose_first", [True, False])
    def test_leaf_reached_via_transpose_and_a_second_path(self, transpose_first):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3)), grad_enabled=True)
        head_t = Tensor(rng.normal(size=(3, 2)))
        head = Tensor(rng.normal(size=(2, 3)))

        def build():
            t = nd.linear(Tensor(np.eye(3)), a, w_rows=True)  # a.T; backward hands a a view: (x.T @ g).T
            via_t = nd.mul(t, head_t)
            direct = nd.mul(nd.relu(a), head)
            terms = [nd.sum(via_t), nd.sum(direct)]
            if not transpose_first:
                terms.reverse()
            return nd.add(*terms), [t, via_t, direct]

        self.check(build, [a])

    def test_parts_of_a_concat_rows(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(2, 3)), grad_enabled=True)
        b = Tensor(rng.normal(size=(1, 3)), grad_enabled=True)
        head = Tensor(rng.normal(size=(5, 3)))

        def build():
            stacked = concat_rows([a, b, a])  # each part gets a slice view of g; a gets two
            return nd.masked_nll(stacked, head.data, 1.0), [stacked]

        self.check(build, [a, b])
