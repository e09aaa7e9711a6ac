"""ndgrad's replica axis: finite differences from one stacked forward per leaf.

The stacked difference quotients must be the coordinate loop's
(``unfused.finite_difference``) bit for bit on every gradcheck case, and
the explicit ``stacked`` mark must keep every op's shape contract: a
replica axis is never guessed from rank, and it never reaches backward.
"""

import numpy as np
import pytest

import dualhead.ndgrad as nd
import unfused
from dualhead.gradcheck import LOSS_CASES, OP_CASES, finite_difference
from dualhead.ndgrad import DegenerateRowError, NonFiniteError, ShapeError, Tensor

CASES = {**OP_CASES, **LOSS_CASES}


def stacked(replicas) -> Tensor:
    """A tensor holding the given replicas on its leading axis, marked as stacked."""
    t = Tensor(replicas)
    t.stacked = True
    return t


@pytest.mark.parametrize("name", list(CASES))
def test_stacked_differences_are_the_loop_bit_for_bit(name):
    for seed in range(20):
        forward, wrt = CASES[name](np.random.default_rng(seed))
        for i, t in enumerate(wrt):
            before = t.data.copy()
            got = finite_difference(forward, t)
            np.testing.assert_array_equal(t.data, before)
            assert not t.stacked
            np.testing.assert_array_equal(got, unfused.finite_difference(forward, t), err_msg=f"seed {seed} leaf {i}")


def test_a_leaf_the_forward_never_reads_gets_zero():
    # linear_rows with its bias unread, as gradcheck draws it on some instances.
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 3)), grad_enabled=True)
    w = Tensor(rng.normal(size=(2, 3)), grad_enabled=True)
    b = Tensor(rng.normal(size=2), grad_enabled=True)
    r = Tensor(rng.normal(size=(2, 2)))

    def forward():
        return nd.sum(nd.mul(nd.linear(x, w, None, w_rows=True), r))

    got = finite_difference(forward, b)
    np.testing.assert_array_equal(got, np.zeros(2))
    np.testing.assert_array_equal(got, unfused.finite_difference(forward, b))


def test_parameter_views_keep_their_storage():
    # Model parameters are views into one vector; the leaf must get that same view back.
    forward, wrt = LOSS_CASES["joint_total"](np.random.default_rng(3))
    views = [t.data for t in wrt]
    for t in wrt:
        finite_difference(forward, t)
    assert all(t.data is v for t, v in zip(wrt, views))


class TestTheMarkIsExplicit:
    @pytest.mark.parametrize("op", [nd.add, nd.mul])
    def test_rank_alone_never_broadcasts(self, op):
        with pytest.raises(ShapeError):
            op(Tensor(np.ones((2, 2))), Tensor(np.ones(2)))
        with pytest.raises(ShapeError):
            op(Tensor(np.ones(2)), Tensor(np.ones((2, 2))))
        with pytest.raises(ShapeError):  # a same-shape unstacked operand is not a replica of each one
            op(stacked(np.ones((2, 2))), Tensor(np.ones((2, 2))))

    @pytest.mark.parametrize("op", [nd.add, nd.mul])
    def test_a_stacked_operand_broadcasts_against_one_replica(self, op):
        a = stacked(np.arange(6.0).reshape(3, 2))
        b = Tensor([10.0, 20.0])
        out = op(a, b)
        assert out.stacked and out.shape == (3, 2)
        for r in range(3):
            np.testing.assert_array_equal(out.data[r], op(Tensor(a.data[r]), b).data)

    def test_backward_on_a_stacked_result_raises(self):
        a = stacked(np.ones((4, 2, 3)))
        out = nd.sum(a)
        assert out.stacked and out.shape == (4,)
        with pytest.raises(ShapeError, match="stacked"):
            out.backward()

    def test_stacked_results_join_no_tape(self):
        w = Tensor(np.ones((3, 2)), grad_enabled=True)
        out = nd.linear(stacked(np.ones((4, 2, 3))), w)
        assert out.stacked and not out.grad_enabled and out._parents == ()


R = 4


class TestFixedRankOpsCheckEachReplica:
    """A stacked operand whose per-replica shape breaks the op's contract raises ShapeError."""

    def test_linear(self):
        w = Tensor(np.ones((3, 2)))
        with pytest.raises(ShapeError):
            nd.linear(stacked(np.ones((R, 3))), w)  # each replica a vector, not rows
        with pytest.raises(ShapeError):
            nd.linear(Tensor(np.ones((2, 3))), stacked(np.ones((R, 3))))
        with pytest.raises(ShapeError):
            nd.linear(stacked(np.ones((R, 2, 4))), w)  # inner dims disagree
        with pytest.raises(ShapeError):
            nd.linear(Tensor(np.ones((2, 3))), w, stacked(np.ones((R, 3))))  # bias of the wrong length
        with pytest.raises(ShapeError):
            nd.linear(Tensor(np.ones((2, 3))), w, stacked(np.ones((R, 1, 2))))  # bias not a vector

    def test_select_rows(self):
        with pytest.raises(ShapeError):
            nd.select_rows(stacked(np.ones((R, 5))), [0, 1])
        with pytest.raises(IndexError):  # the row count is each replica's, not R
            nd.select_rows(stacked(np.ones((R, 2, 3))), [3])

    def test_row_dot_slab(self):
        slab = np.ones((2, 5, 3))
        with pytest.raises(ShapeError):
            nd.row_dot_slab(stacked(np.ones((R, 3))), slab)
        with pytest.raises(ShapeError):
            nd.row_dot_slab(stacked(np.ones((R, 2, 4))), slab)
        with pytest.raises(ShapeError):
            nd.row_dot_slab(Tensor(np.ones((2, 3))), slab, live0=stacked(np.ones((R, 3, 3))))
        with pytest.raises(ShapeError):
            nd.row_dot_slab(Tensor(np.ones((2, 3))), slab, live0=Tensor(np.ones((R, 2, 3))))

    def test_row_l2_normalize(self):
        with pytest.raises(ShapeError):
            nd.row_l2_normalize(stacked(np.ones((R, 3))))

    def test_masked_nll(self):
        with pytest.raises(ShapeError):
            nd.masked_nll(stacked(np.ones((R, 3))), np.ones(3), 1.0)
        with pytest.raises(ShapeError):  # the mask covers one replica, not the stack
            nd.masked_nll(stacked(np.ones((R, 2, 3))), np.ones((R, 2, 3)), 1.0)


class TestFailuresNameTheReplica:
    def test_degenerate_row(self):
        # Lowering coordinate 0 by eps zeroes row 0 in replica 1: the stacked forward names it.
        a = Tensor([[1e-6, 0.0, 0.0], [1.0, 2.0, 3.0]], grad_enabled=True)
        message = "row 0 has norm 0.000e\\+00 < 1e-12 in row_l2_normalize$"
        with pytest.raises(DegenerateRowError, match="^replica 1 " + message):
            finite_difference(lambda: nd.sum(nd.row_l2_normalize(a)), a)
        assert not a.stacked
        with pytest.raises(DegenerateRowError, match="^" + message):
            unfused.finite_difference(lambda: nd.sum(nd.row_l2_normalize(a)), a)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_norm_overflow(self):
        replicas = np.ones((3, 2, 2))
        replicas[2, 1] = 1e200
        with pytest.raises(NonFiniteError, match="^replica 2 row 1 norm overflowed in row_l2_normalize$"):
            nd.row_l2_normalize(stacked(replicas))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_output(self):
        replicas = np.ones((3, 2, 2))
        replicas[1, 0, 1] = 1e300
        with pytest.raises(NonFiniteError, match="^non-finite value produced by linear in replica 1 row 0$"):
            nd.linear(stacked(replicas), Tensor(np.full((2, 2), 1e10)))
        scores = np.zeros((3, 2, 2))
        scores[2, 1, 0] = 1e308
        with pytest.raises(NonFiniteError, match="^non-finite value produced by masked_nll in replica 2 row 1$"):
            nd.masked_nll(stacked(scores), np.ones((2, 2)), 1.0, inv_tau=10.0)
