"""ndgrad's replica axis: stacked forwards and backwards, and finite differences from one stacked forward.

Every leaf's difference quotients, all from one stacked forward over the
instance's leaves, must be the coordinate loop's
(``unfused.finite_difference``) bit for bit on every gradcheck case, and
that forward builds no tape. The explicit ``stacked`` mark must keep
every op's shape contract: a replica axis is never guessed from rank.
Each op has one forward and one backward for both forms, so per-op gates
draw random calls, stacked operands laid out as a gather leaves them,
and check every replica of the result, and of each stacked operand's
gradient, against the unstacked op on that replica, bit for bit; an
unstacked operand's gradient is the sum of the replicas', in order.
"""

import types

import numpy as np
import pytest

import dualhead.gradcheck as gradcheck_mod
import dualhead.ndgrad as nd
import unfused
from dualhead.gradcheck import LOSS_CASES, OP_CASES, finite_difference, run_gradcheck, worst_relative_error
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
        before = [t.data.copy() for t in wrt]
        got = finite_difference(forward, wrt)
        assert len(got) == len(wrt)
        for i, (t, data, q) in enumerate(zip(wrt, before, got)):
            np.testing.assert_array_equal(t.data, data)
            assert not t.stacked
            np.testing.assert_array_equal(q, unfused.finite_difference(forward, t), err_msg=f"seed {seed} leaf {i}")


def test_a_leaf_the_forward_never_reads_gets_zero():
    # linear_rows with its bias unread, as gradcheck draws it on some instances.
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 3)), grad_enabled=True)
    w = Tensor(rng.normal(size=(2, 3)), grad_enabled=True)
    b = Tensor(rng.normal(size=2), grad_enabled=True)
    r = Tensor(rng.normal(size=(2, 2)))

    def forward():
        return nd.sum(nd.mul(nd.linear(x, w, None, w_rows=True), r))

    got = finite_difference(forward, [x, b, w])  # the unread leaf's block sits between two read ones
    np.testing.assert_array_equal(got[1], np.zeros(2))
    assert not np.signbit(got[1]).any()
    for t, q in zip([x, b, w], got):
        np.testing.assert_array_equal(q, unfused.finite_difference(forward, t))
    # With no leaf read the forward is not stacked at all.
    np.testing.assert_array_equal(finite_difference(forward, [b])[0], np.zeros(2))


def test_parameter_views_keep_their_storage():
    # Model parameters are views into one vector; every leaf must get that same view back.
    forward, wrt = LOSS_CASES["joint_total"](np.random.default_rng(3))
    views = [t.data for t in wrt]
    finite_difference(forward, wrt)
    assert all(t.data is v for t, v in zip(wrt, views))


def test_a_forward_that_raises_gives_every_leaf_its_data_back():
    # a's block starts after b's 6 coordinates; lowering a[0, 0] by eps (replica 12 + 1) zeroes a's row 0.
    b = Tensor(np.arange(1.0, 7.0).reshape(2, 3), grad_enabled=True)
    a = Tensor([[1e-6, 0.0, 0.0], [1.0, 2.0, 3.0]], grad_enabled=True)
    c = Tensor([0.5, -0.5], grad_enabled=True)
    leaves = [b, a, c]
    views = [t.data for t in leaves]
    with pytest.raises(DegenerateRowError, match="^replica 13 row 0 "):
        finite_difference(lambda: nd.add(nd.sum(nd.mul(b, nd.row_l2_normalize(a))), nd.sum(c)), leaves)
    assert all(t.data is v and not t.stacked for t, v in zip(leaves, views))


def test_the_report_is_the_coordinate_loop_s_line_for_line(monkeypatch):
    # The whole printed report, with the coordinate loop as the finite-difference oracle.
    with monkeypatch.context() as m:
        m.setattr(gradcheck_mod, "worst_relative_error", unfused.worst_relative_error)
        want = run_gradcheck(3, 7).lines()
    assert run_gradcheck(3, 7).lines() == want


def test_worst_relative_error_runs_two_forwards_whatever_the_leaf_count():
    for name in ("sum", "linear", "joint_total"):
        forward, wrt = CASES[name](np.random.default_rng(0))
        calls = []

        def spy(forward=forward):
            calls.append(None)
            return forward()

        assert worst_relative_error(spy, wrt) <= 1e-4
        assert len(calls) == 2, f"{name}: {len(wrt)} leaves, {len(calls)} forwards"


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

    def test_backward_on_a_stacked_loss_gives_each_replica_its_own_gradient(self):
        rng = np.random.default_rng(0)
        data, weights = rng.normal(size=(4, 2, 3)), rng.normal(size=(4, 2, 3))
        a = stacked(data)
        a.grad_enabled = True
        out = nd.sum(nd.mul(a, stacked(weights)))
        assert out.stacked and out.shape == (4,)
        out.backward()
        for r in range(4):
            ar = Tensor(data[r], grad_enabled=True)
            nd.sum(nd.mul(ar, Tensor(weights[r]))).backward()
            np.testing.assert_array_equal(a.grad[r], ar.grad)
        with pytest.raises(ShapeError, match="scalar per replica"):
            nd.mul(a, stacked(weights)).backward()

    def test_stacked_results_join_the_tape(self):
        w = Tensor(np.ones((3, 2)), grad_enabled=True)
        x = stacked(np.ones((4, 2, 3)))
        out = nd.linear(x, w)
        assert out.stacked and out.grad_enabled and out._parents == (x, w)
        nd.sum(out).backward()
        np.testing.assert_array_equal(w.grad, np.full((3, 2), 8.0))  # the four replicas' gradients, summed

    @pytest.mark.parametrize("name", list(CASES))
    def test_finite_difference_forwards_build_no_tape(self, name, monkeypatch):
        forward, wrt = CASES[name](np.random.default_rng(0))
        built, real = [], nd._from_op
        monkeypatch.setattr(nd, "_from_op", lambda *args: built.append(real(*args)) or built[-1])
        finite_difference(forward, wrt)
        assert built and all(t.stacked for t in built), name
        assert not any(t.grad_enabled or t._parents for t in built), name
        assert all(t.grad_enabled for t in wrt)


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
        with pytest.raises(ShapeError):  # one index row per replica needs a stacked operand
            nd.select_rows(Tensor(np.ones((2, 3))), np.zeros((R, 2), dtype=int))
        with pytest.raises(ShapeError):
            nd.select_rows(stacked(np.ones((R, 2, 3))), np.zeros((R + 1, 2), dtype=int))

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
        with pytest.raises(ShapeError):  # one slab per replica needs a stacked result
            nd.row_dot_slab(Tensor(np.ones((2, 3))), np.ones((R, 2, 5, 3)))
        with pytest.raises(ShapeError):
            nd.row_dot_slab(stacked(np.ones((R, 2, 3))), np.ones((R + 1, 2, 5, 3)))

    def test_scale_by_scalar(self):
        with pytest.raises(ShapeError):  # one scale per replica needs a stacked operand
            nd.scale_by_scalar(Tensor(np.ones(R)), np.ones(R))
        with pytest.raises(ShapeError):
            nd.scale_by_scalar(stacked(np.ones(R)), np.ones(R + 1))

    def test_row_l2_normalize(self):
        with pytest.raises(ShapeError):
            nd.row_l2_normalize(stacked(np.ones((R, 3))))

    def test_masked_nll(self):
        with pytest.raises(ShapeError):
            nd.masked_nll(stacked(np.ones((R, 3))), np.ones(3), 1.0)
        with pytest.raises(ShapeError):  # the mask covers one replica or each replica, not a wider stack
            nd.masked_nll(stacked(np.ones((R, 2, 3))), np.ones((R + 1, 2, 3)), 1.0)
        with pytest.raises(ShapeError):  # an unstacked score matrix takes no replica axis on its mask
            nd.masked_nll(Tensor(np.ones((2, 3))), np.ones((R, 2, 3)), 1.0)


class TestFailuresNameTheReplica:
    def test_degenerate_row(self):
        # Lowering coordinate 0 by eps zeroes row 0 in replica 1: the stacked forward names it.
        a = Tensor([[1e-6, 0.0, 0.0], [1.0, 2.0, 3.0]], grad_enabled=True)
        message = "row 0 has norm 0.000e\\+00 < 1e-12 in row_l2_normalize$"
        with pytest.raises(DegenerateRowError, match="^replica 1 " + message):
            finite_difference(lambda: nd.sum(nd.row_l2_normalize(a)), [a])
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
        inv_tau = 1.0 if rng.integers(2) else float(rng.uniform(1.0, 20.0))
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


def training_form(name, rng):
    """One random call of an op in a form training runs, constants drawn per replica where training has them.

    Returns ``call(operands, r)``: replica r's unstacked call, or with r None the stacked call; the
    operand shapes; and which operands must be stacked for the per-replica constants.
    """
    b, d, k, n = (int(v) for v in rng.integers(1, 12, size=4))
    if name == "linear":
        w_rows, bias = bool(rng.integers(2)), bool(rng.integers(2))
        shapes = [(b, d), (k, d) if w_rows else (d, k)] + [(k,)] * bias
        return lambda ops, r: nd.linear(*ops, w_rows=w_rows), shapes, []
    if name in ("add", "mul"):
        shape = (b, d) if rng.integers(2) else ()  # the joint total adds one loss per replica
        return lambda ops, r: getattr(nd, name)(*ops), [shape, shape], []
    if name == "scale_by_scalar":
        s = rng.choice([0.0, 1.0, 0.5, float(rng.normal())], size=R)  # loss weights, zeros and ones included
        shape = () if rng.integers(2) else (b, d)
        return lambda ops, r: nd.scale_by_scalar(*ops, s if r is None else s[r]), [shape], [0]
    if name in ("relu", "sum", "row_l2_normalize"):
        return lambda ops, r: getattr(nd, name)(*ops), [(b, d)], []
    if name == "select_rows":
        idx = rng.integers(0, b, size=(R, k + 1))
        idx[:, -1] = idx[:, 0]  # at least one duplicate in each replica
        return lambda ops, r: nd.select_rows(*ops, idx if r is None else idx[r]), [(b, d)], [0]
    if name == "row_dot_slab":
        slab = rng.normal(size=(R, b, n, d))
        live0 = bool(rng.integers(2))
        return (lambda ops, r: nd.row_dot_slab(ops[0], slab if r is None else slab[r], *ops[1:]),
                [(b, d)] * (1 + live0), [])
    if name == "masked_nll":
        mask = (rng.random((R, b, n)) < 0.5) * rng.integers(1, 4, size=(R, b, n)).astype(float)
        scale = float(rng.normal())
        inv_tau = 1.0 if rng.integers(2) else float(rng.uniform(1.0, 20.0))
        return lambda ops, r: nd.masked_nll(*ops, mask if r is None else mask[r], scale, inv_tau), [(b, n)], [0]
    raise KeyError(name)


def grad_bytes(t: Tensor) -> bytes | None:
    return None if t.grad is None else np.ascontiguousarray(t.grad).tobytes()


@pytest.mark.parametrize("name", OPS)
def test_each_replica_s_gradient_is_the_unstacked_backward_bit_for_bit(name):
    rng = np.random.default_rng(100 + OPS.index(name))
    for trial in range(300):
        call, shapes, must = training_form(name, rng)
        flags = rng.integers(2, size=len(shapes)).astype(bool)
        flags[must] = True
        flags[rng.integers(len(shapes))] = True  # at least one operand stacked
        arrays = [gathered(rng, s) if s and f else rng.normal(size=(R, *s) if f else s) for s, f in zip(shapes, flags)]
        if name == "row_l2_normalize":
            arrays = [near_floor(rng, a) for a in arrays]
        operands = []
        for a, f in zip(arrays, flags):
            t = stacked(a) if f else Tensor(a)
            t.grad_enabled = True
            operands.append(t)
        got = call(operands, None)
        assert got.stacked and got.grad_enabled and got.shape[0] == R
        g = rng.normal(size=got.shape)
        got._backward(g)
        shared = [None] * len(operands)
        for r in range(R):
            mine = [Tensor(a[r] if f else a, grad_enabled=True) for a, f in zip(arrays, flags)]
            want = call(mine, r)
            where = f"trial {trial} replica {r}"
            np.testing.assert_array_equal(got.data[r], want.data, err_msg=where)
            want._backward(np.asarray(g[r]))
            for i, (t, t_r, f) in enumerate(zip(operands, mine, flags)):
                if f:
                    assert (None if t.grad is None else t.grad[r].tobytes()) == grad_bytes(t_r), f"{where} operand {i}"
                elif t_r.grad is not None:
                    shared[i] = t_r.grad.copy() if shared[i] is None else shared[i] + t_r.grad
        for i, (t, total) in enumerate(zip(operands, shared)):
            if not flags[i]:  # an unstacked operand gets its replicas' gradients summed in replica order
                assert grad_bytes(t) == (None if total is None else total.tobytes()), f"trial {trial} operand {i}"
