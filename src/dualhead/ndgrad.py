"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (encoder, heads, losses) is expressed through the
small op set in this module, so a single gradient-checking harness covers
the whole computation graph. Design constraints:

* float64 only: the artifact exists to verify formulas, and the gradient
  tolerances used throughout assume double precision;
* every constructed value is validated finite (NaN/Inf is an error at the
  op that produced it, not three modules later);
* the tape is built during the forward pass and torn down by ``backward``,
  so a tensor graph is single-use;
* a value consumed by several downstream ops accumulates (sums) all of
  its gradient contributions.

Tensors are immutable once built except for two sanctioned cases: their
gradient buffer, which belongs to the one tape they participate in, and
in-place value updates applied to leaf parameters *between* tapes (the
optimizer and the momentum twin do this). A tensor owns its gradient
buffer: it never aliases an upstream gradient or another tensor's buffer.

A tensor marked ``stacked`` holds R replicas of one value on a leading
axis: its ``data`` is (R, *shape), and every op applies its rule to
each replica, broadcasting an unstacked operand across them. The mark
is set explicitly (finite differences put the 2n perturbed copies of a
leaf on it), never inferred from rank, and ``_from_op`` carries it to
the result. Each op has one forward expression for both forms
(``...``-indexed gathers, ``...`` einsums, trailing-axis reductions);
the replica axis is forward-only: a stacked result joins no tape and
cannot be backpropagated.

``row_norms`` is the one row rule, shared with the key pool: a row whose
norm is not finite, or is below a floor (``NORM_EPS`` on the tape), is
an error rather than a row to divide by.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

NORM_EPS = 1e-12


class NonFiniteError(ValueError):
    """A tensor value came out NaN or infinite."""


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class DegenerateRowError(ValueError):
    """A row with (near-)zero norm reached a normalization op."""


class Tensor:
    """A dense row-major float64 array, optionally participating in the tape.

    ``grad_enabled`` tensors record how they were produced; calling
    ``backward`` on a scalar result populates ``grad`` on every enabled
    ancestor. Tensors built from raw data are leaves, never ``stacked``.
    """

    __slots__ = ("data", "grad", "grad_enabled", "stacked", "_parents", "_backward", "_op")

    def __init__(self, data, grad_enabled: bool = False):
        arr = np.array(data, dtype=np.float64)
        _check_finite(arr, "constructor")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.grad_enabled = grad_enabled
        self.stacked = False
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-accumulate gradients from this scalar into enabled leaves.

        The traversal visits each tape node exactly once and frees the
        graph afterwards; intermediate results cannot be backpropagated
        twice.
        """
        if self.stacked:
            raise ShapeError(f"backward() on a stacked result {self.shape}: the replica axis is forward-only")
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        visited: set[Tensor] = set()  # Tensor defines no __eq__, so membership is identity
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for parent in node._parents:
                if parent not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        # The tape is single-use: drop the graph so ops cannot re-run and
        # intermediate buffers can be collected.
        for node in topo:
            node._parents = ()
            node._backward = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, grad_enabled={self.grad_enabled}, op={self._op})"


def _non_finite(arr: np.ndarray, op: str, stacked: bool) -> NonFiniteError:
    where = ""
    if stacked:  # name the first bad replica, and its row when each replica is a matrix
        index = np.argwhere(~np.isfinite(arr))[0]
        where = f" in replica {index[0]}" + (f" row {index[1]}" if index.size == 3 else "")
    return NonFiniteError(f"non-finite value produced by {op}{where}")


def _check_finite(arr: np.ndarray, op: str, stacked: bool = False) -> None:
    if not np.isfinite(arr).all():
        raise _non_finite(arr, op, stacked)


def _item_shape(t: Tensor) -> tuple[int, ...]:
    """The shape of one replica: the whole shape of an unstacked tensor."""
    return t.shape[1:] if t.stacked else t.shape


def _from_op(
    arr: np.ndarray, op: str, parents: tuple[Tensor, ...], backward: Callable[[np.ndarray], None] | None
) -> Tensor:
    """The op's result node: stacked if any parent is, and then kept off the tape."""
    stacked = enabled = False
    for p in parents:  # a plain loop: cheaper than any() over a generator for one to three parents
        stacked = stacked or p.stacked
        enabled = enabled or p.grad_enabled
    if not np.isfinite(arr).all():  # _check_finite, inlined: every op's result passes here
        raise _non_finite(arr, op, stacked)
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.grad = None
    out._op = op
    out.stacked = stacked
    if enabled and not stacked:
        out.grad_enabled = True
        out._parents = parents
        out._backward = backward
    else:
        out.grad_enabled = False
        out._parents = ()
        out._backward = None
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.grad_enabled:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)  # an owned copy: g may be shared or a view
    else:
        t.grad += g


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, w_rows: bool = False) -> Tensor:
    """x @ w (+ b) as one node; ``w_rows`` takes w as (out x in) rows, giving x @ w.T.

    w is multiplied in C order, the rows form by a contiguous copy of w.T,
    never by a view in another layout: the two can round differently.
    """
    if x.data.ndim != 2 + x.stacked or w.data.ndim != 2 + w.stacked:
        raise ShapeError(f"linear needs 2-D operands, got {_item_shape(x)} and {_item_shape(w)}")
    wt = w.data.swapaxes(-1, -2).copy() if w_rows else np.ascontiguousarray(w.data)
    if x.shape[-1] != wt.shape[-2]:
        raise ShapeError(f"linear inner dims disagree: {_item_shape(x)} x {wt.shape[-2:]}")
    if b is not None and (b.data.ndim != 1 + b.stacked or b.shape[-1] != wt.shape[-1]):
        raise ShapeError(f"linear bias shape {_item_shape(b)} != ({wt.shape[-1]},)")
    out = x.data @ wt
    if b is not None:
        out = out + b.data[..., None, :]

    def backward(g: np.ndarray) -> None:
        if b is not None:
            _accumulate(b, g.sum(axis=0))
        _accumulate(x, g @ wt.T)
        _accumulate(w, (x.data.T @ g).T if w_rows else x.data.T @ g)

    return _from_op(out, "linear", (x, w) if b is None else (x, w, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of same-shape tensors (the terms of the joint loss)."""
    if (a.shape != b.shape or a.stacked != b.stacked) and _item_shape(a) != _item_shape(b):
        raise ShapeError(f"add shapes disagree: {_item_shape(a)} vs {_item_shape(b)}")

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return _from_op(a.data + b.data, "add", (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors (gradcheck's scalar head weights an op's output)."""
    if (a.shape != b.shape or a.stacked != b.stacked) and _item_shape(a) != _item_shape(b):
        raise ShapeError(f"mul shapes disagree: {_item_shape(a)} vs {_item_shape(b)}")

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _from_op(a.data * b.data, "mul", (a, b), backward)


def scale_by_scalar(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * s)

    return _from_op(a.data * s, "scale_by_scalar", (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * mask)

    return _from_op(np.where(mask, a.data, 0.0), "relu", (a,), backward)


def _c_order_sum(x: np.ndarray, stacked: bool) -> np.ndarray:
    """Sum of all entries (per replica if ``stacked``) in C order, never memory order, which a gather can permute."""
    return np.asarray(np.ascontiguousarray(x).reshape(x.shape[:stacked] + (-1,)).sum(axis=-1))


def sum(a: Tensor) -> Tensor:  # noqa: A001 - spec'd op name
    """Sum of all entries, as a scalar tensor; a stacked operand sums to one value per replica."""

    def backward(g: np.ndarray) -> None:
        _accumulate(a, np.full_like(a.data, float(g)))

    return _from_op(_c_order_sum(a.data, a.stacked), "sum", (a,), backward)


def select_rows(a: Tensor, indices) -> Tensor:
    """Gather rows by index into a new array; duplicate indices are allowed."""
    if a.data.ndim != 2 + a.stacked:
        raise ShapeError(f"select_rows needs a 2-D operand, got {_item_shape(a)}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("select_rows indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[-2]):
        raise IndexError(f"row index out of range for shape {_item_shape(a)}")

    def backward(g: np.ndarray) -> None:
        if a.grad_enabled:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, g)

    return _from_op(a.data[..., idx, :], "select_rows", (a,), backward)


def row_dot_slab(a: Tensor, slab: np.ndarray, live0: Tensor | None = None) -> Tensor:
    """out[b, n] = a[b] . slab[b, n]: each live row against its own constant (B x N x d) slab.

    A live (B x d) ``live0`` stands in for the slab's slot 0, which is not
    read: column 0 is a[b] . live0[b], on the tape for both operands.
    """
    slab = np.asarray(slab, dtype=np.float64)
    if a.data.ndim != 2 + a.stacked or slab.ndim != 3 or slab.shape[0] != a.shape[-2] or slab.shape[2] != a.shape[-1]:
        raise ShapeError(
            f"row_dot_slab needs (B x d) rows and a (B x N x d) slab, got {_item_shape(a)} and {slab.shape}"
        )
    if live0 is not None:
        same = (live0.shape == a.shape and live0.stacked == a.stacked) or _item_shape(live0) == _item_shape(a)
        if not same or slab.shape[1] == 0:
            raise ShapeError(
                f"row_dot_slab live0 needs the rows' shape {_item_shape(a)} and a slot 0, got {_item_shape(live0)}"
            )
        full = np.empty(live0.shape[:-2] + slab.shape)  # each replica's slot 0 ahead of the shared rest
        full[...] = slab
        full[..., 0, :] = live0.data
        slab = full

    def backward(g: np.ndarray) -> None:
        _accumulate(a, np.einsum("bn,bnd->bd", g, slab))
        if live0 is not None:
            _accumulate(live0, g[:, :1] * a.data)

    parents = (a,) if live0 is None else (a, live0)
    return _from_op(np.einsum("...bd,...bnd->...bn", a.data, slab), "row_dot_slab", parents, backward)


def row_norms(x: np.ndarray, where: str, floor: float = NORM_EPS, ids=None) -> np.ndarray:
    """Norms of x's rows (its last axis, kept): the one row rule of the tape and the key pool.

    np.linalg.norm's sum, bit for bit, without its Python wrapper. A
    non-finite norm raises ``NonFiniteError`` and one below ``floor``
    ``DegenerateRowError`` (clamping would hide a collapsed encoder), naming
    the first such row of ``where``: example ``ids[i]`` if given, else row
    i, after its replica in a stack.
    """
    norms = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
    # Two bare reductions, cheaper than isfinite().all() and any(): a NaN carries into the minimum and fails.
    low, high = np.minimum.reduce(norms, axis=None, initial=np.inf), np.maximum.reduce(norms, axis=None, initial=0.0)
    if low >= floor and high < np.inf:
        return norms
    finite = np.isfinite(norms).all()
    *replica, row, _ = index = np.argwhere(norms < floor if finite else ~np.isfinite(norms))[0]
    name = " ".join([f"replica {r}" for r in replica] + [f"example {ids[row]}" if ids is not None else f"row {row}"])
    if not finite:
        raise NonFiniteError(f"{name} has non-finite norm {norms[tuple(index)]:.3e} in {where}")
    raise DegenerateRowError(f"{name} has norm {norms[tuple(index)]:.3e} < {floor} in {where}")


def row_l2_normalize(a: Tensor) -> Tensor:
    """Scale each row to unit Euclidean norm; ``row_norms`` rejects a row it cannot scale."""
    if a.data.ndim != 2 + a.stacked:
        raise ShapeError(f"row_l2_normalize needs a 2-D operand, got {_item_shape(a)}")
    norms = row_norms(a.data, "row_l2_normalize")
    out = a.data / norms

    def backward(g: np.ndarray) -> None:
        # Projection onto the tangent of the unit sphere, scaled by 1/norm.
        inner = (g * out).sum(axis=1, keepdims=True)
        _accumulate(a, (g - out * inner) / norms)

    return _from_op(out, "row_l2_normalize", (a,), backward)


def masked_nll(scores: Tensor, mask: np.ndarray, scale: float, inv_tau: float | None = None) -> Tensor:
    """scale * sum(log_softmax_row(scores * inv_tau) * mask) as one node, the row max shifted out.

    Forward and backward repeat, step for step, the arithmetic of the
    separate scale, log-softmax, mask, sum and scale ops they replace.
    Stacked scores give one value per replica.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if scores.data.ndim != 2 + scores.stacked or mask.shape != _item_shape(scores):
        raise ShapeError(
            f"masked_nll needs 2-D scores and a mask of their shape, got {_item_shape(scores)} and {mask.shape}"
        )
    _check_finite(mask, "masked_nll mask")
    scale = float(scale)
    s = scores.data if inv_tau is None else scores.data * inv_tau
    shifted = s - s.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    _check_finite(logp, "masked_nll", scores.stacked)

    def backward(g: np.ndarray) -> None:
        gl = np.full_like(logp, float(g * scale)) * mask
        gs = gl - np.exp(logp) * gl.sum(axis=1, keepdims=True)
        _accumulate(scores, gs if inv_tau is None else gs * inv_tau)

    return _from_op(_c_order_sum(logp * mask, scores.stacked) * scale, "masked_nll", (scores,), backward)
