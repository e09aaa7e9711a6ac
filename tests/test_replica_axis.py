"""ndgrad's replica axis: finite differences from one stacked forward per leaf.

The stacked difference quotients must be the coordinate loop's
(``unfused.finite_difference``) bit for bit on every gradcheck case, and
the explicit ``stacked`` mark must keep every op's shape contract: a
replica axis is never guessed from rank, and it never reaches backward.
Each op has one forward for both forms, so a per-op gate draws random
calls, stacked operands laid out as a gather leaves them, and checks
every replica of the result against the unstacked op, bit for bit.
"""

import types

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
        with pytest.raises(NonFiniteError, match="^replica 2 row 1 has non-finite norm inf in row_l2_normalize$"):
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


def gathered(rng, shape) -> np.ndarray:
    """R random replicas of ``shape`` as a gather leaves them: rows picked with repeats, not C-contiguous."""
    picks = rng.integers(0, shape[0] + 2, size=shape[0])
    picks[-1] = picks[0]
    return rng.normal(size=(R, shape[0] + 2, *shape[1:]))[:, picks]


def near_floor(rng, a: np.ndarray) -> np.ndarray:
    """a, in place, with one random row in each replica scaled to a norm just above NORM_EPS."""
    lead, row = a.shape[:-2], int(rng.integers(a.shape[-2]))
    for r in np.ndindex(*lead):
        v = a[r + (row,)]
        a[r + (row,)] = v / np.linalg.norm(v) * nd.NORM_EPS * (1.0 + 10.0 ** rng.uniform(-9, 0))
    return a


def op_draw(name, rng):
    """One random call of the named op: a function of its tensor operands, and their shapes."""
    b, d, k, n = (int(v) for v in rng.integers(1, 12, size=4))
    if name == "linear":
        w_rows, bias = bool(rng.integers(2)), bool(rng.integers(2))
        shapes = [(b, d), (k, d) if w_rows else (d, k)] + [(k,)] * bias
        return lambda x, w, *c: nd.linear(x, w, *c, w_rows=w_rows), shapes
    if name in ("add", "mul"):
        return getattr(nd, name), [(b, d), (b, d)]
    if name == "scale_by_scalar":
        s = float(rng.normal())
        return lambda a: nd.scale_by_scalar(a, s), [(b, d)]
    if name in ("relu", "sum", "row_l2_normalize"):
        return getattr(nd, name), [(b, d)]
    if name == "select_rows":
        idx = rng.integers(0, b, size=k + 1)
        idx[-1] = idx[0]  # at least one duplicate
        return lambda a: nd.select_rows(a, idx), [(b, d)]
    if name == "row_dot_slab":
        slab = rng.normal(size=(b, n, d))
        if rng.integers(2):
            return lambda a, live0: nd.row_dot_slab(a, slab, live0=live0), [(b, d), (b, d)]
        return lambda a: nd.row_dot_slab(a, slab), [(b, d)]
    if name == "masked_nll":
        mask, scale = (rng.random((b, n)) < 0.5).astype(float), float(rng.normal())
        inv_tau = None if rng.integers(2) else float(rng.uniform(1.0, 20.0))
        return lambda s: nd.masked_nll(s, mask, scale, inv_tau), [(b, n)]
    raise KeyError(name)


OPS = [
    "linear", "add", "mul", "scale_by_scalar", "relu", "sum",
    "select_rows", "row_dot_slab", "row_l2_normalize", "masked_nll",
]


@pytest.mark.parametrize("name", OPS)
def test_each_replica_is_the_unstacked_op_bit_for_bit(name):
    rng = np.random.default_rng(OPS.index(name))
    for trial in range(300):
        op, shapes = op_draw(name, rng)
        flags = rng.integers(2, size=len(shapes)).astype(bool)
        flags[rng.integers(len(shapes))] = True  # at least one operand stacked
        arrays = [gathered(rng, s) if f else rng.normal(size=s) for s, f in zip(shapes, flags)]
        if name == "row_l2_normalize":
            arrays = [near_floor(rng, a) for a in arrays]
        got = op(*(stacked(a) if f else Tensor(a) for a, f in zip(arrays, flags)))
        assert got.stacked and got.shape[0] == R
        for r in range(R):
            want = op(*(Tensor(a[r] if f else a) for a, f in zip(arrays, flags)))
            np.testing.assert_array_equal(got.data[r], want.data, err_msg=f"trial {trial} replica {r}")


def test_every_op_is_gated():
    public = {n for n, f in vars(nd).items() if isinstance(f, types.FunctionType) and f.__module__ == nd.__name__}
    assert {n for n in public if not n.startswith("_")} - {"row_norms"} == set(OPS)


@pytest.mark.parametrize("make", [lambda a: Tensor(a), lambda a: stacked(np.stack([a, -a]))])
def test_select_rows_never_shares_its_operand_memory(make):
    a = make(np.arange(12.0).reshape(4, 3))
    out = nd.select_rows(a, [1, 1, 3])
    assert not np.shares_memory(out.data, a.data)
