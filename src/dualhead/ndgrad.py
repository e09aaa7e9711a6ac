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
is set explicitly (a fit group's parameters, finite differences' 2n
perturbed copies of a leaf), never inferred from rank, and ``_from_op``
carries it to the result. The constant operands of ``select_rows``,
``row_dot_slab`` and ``masked_nll`` (indices, slab, mask) may carry the
replica axis too, one per replica. Each op has one forward and one
backward expression for both forms (``...``-indexed gathers, ``...``
einsums and matmuls, trailing-axis reductions). A stacked result joins
the tape like any other: ``backward`` on an (R,) stacked loss gives
each replica its own gradient, and an unstacked operand of a stacked
result gets the sum of its replicas' gradients. Finite differences keep
their perturbed forwards off the tape by disabling the leaves'
gradients while they run.

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


class ReplicaMismatch(ShapeError):
    """A fit group's replicas stopped agreeing in shape (data or key batches), so they cannot share a tape."""


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
        """Reverse-accumulate gradients from this scalar, or one per replica, into enabled leaves.

        The traversal visits each tape node exactly once and frees the
        graph afterwards; intermediate results cannot be backpropagated
        twice.
        """
        if _item_shape(self) != () and self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar per replica, got shape {_item_shape(self)}")
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

    def leaves(self) -> list[Tensor]:
        """The grad-enabled leaves this result was computed from, each once, while its tape stands."""
        seen: set[Tensor] = set()
        stack, out = [self], []
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(node._parents)
                if node._op == "leaf" and node.grad_enabled:
                    out.append(node)
        return out

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
    """The op's result node: stacked if any parent is, on the tape if any parent is."""
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
    if enabled:
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
    if g.ndim > t.data.ndim:  # an unstacked operand of a stacked result: its replicas' gradients, in order
        g = g.sum(axis=0)
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)  # an owned copy: g may be shared or a view
    else:
        t.grad += g


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, w_rows: bool = False) -> Tensor:
    """x @ w (+ b) as one node; ``w_rows`` takes w as (out x in) rows, giving x @ w.T.

    w is multiplied in C order, the rows form by a contiguous copy of w.T,
    never by a view in another layout: the two can round differently. For
    the same reason the backward multiplies C-order x and g, so a replica's
    gradient never depends on how the stack lays it out.
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
        g = np.ascontiguousarray(g)
        if b is not None:
            _accumulate(b, g.sum(axis=-2))
        if x.grad_enabled:  # an input batch is not, so its product is never formed
            _accumulate(x, g @ wt.swapaxes(-1, -2))
        gw = np.ascontiguousarray(x.data).swapaxes(-1, -2) @ g
        _accumulate(w, gw.swapaxes(-1, -2) if w_rows else gw)

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


def scale_by_scalar(a: Tensor, s) -> Tensor:
    """a * s for a float s, or for one s per replica of a stacked a (the loss weights of a fit group).

    A zero scale gives -0.0, not the signed product: x + (-0.0) is x for
    every x, so a term that a zero weight switches off adds nothing to a
    sum, bit for bit, as if it were never added.
    """
    if np.ndim(s) == 0:
        s = float(s)
    else:
        s = np.asarray(s, dtype=np.float64)
        if not a.stacked or s.shape != a.shape[:1]:
            raise ShapeError(f"scale_by_scalar needs one scale per replica, got {s.shape} for {a.shape}")
        s = s.reshape(s.shape + (1,) * (a.data.ndim - 1))

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * s)

    return _from_op(np.where(s != 0.0, a.data * s, -0.0), "scale_by_scalar", (a,), backward)


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
        _accumulate(a, np.broadcast_to(g.reshape(g.shape + (1,) * (a.data.ndim - g.ndim)), a.shape))

    return _from_op(_c_order_sum(a.data, a.stacked), "sum", (a,), backward)


def select_rows(a: Tensor, indices) -> Tensor:
    """Gather rows by index into a new array; duplicate indices are allowed.

    1-D indices pick the same rows of every replica; a stacked operand
    also takes (R x k) indices, row r picking replica r's rows.
    """
    if a.data.ndim != 2 + a.stacked:
        raise ShapeError(f"select_rows needs a 2-D operand, got {_item_shape(a)}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 and not (a.stacked and idx.shape[:1] == a.shape[:1] and idx.ndim == 2):
        raise ShapeError(f"select_rows indices must be 1-D, or one row per replica, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[-2]):
        raise IndexError(f"row index out of range for shape {_item_shape(a)}")
    where = (..., idx, slice(None)) if idx.ndim == 1 else (np.arange(idx.shape[0])[:, None], idx)

    def backward(g: np.ndarray) -> None:
        if a.grad_enabled:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, where, g)

    return _from_op(a.data[where], "select_rows", (a,), backward)


def row_dot_slab(a: Tensor, slab: np.ndarray, live0: Tensor | None = None) -> Tensor:
    """out[b, n] = a[b] . slab[b, n]: each live row against its own constant (B x N x d) slab.

    A live (B x d) ``live0`` stands in for the slab's slot 0, which is not
    read: column 0 is a[b] . live0[b], on the tape for both operands. A
    stacked result also takes one slab per replica, (R x B x N x d).
    """
    slab = np.asarray(slab, dtype=np.float64)
    lead = a.shape[:1] if a.stacked else live0.shape[:1] if live0 is not None and live0.stacked else ()  # (R,) if stacked
    if a.data.ndim != 2 + a.stacked or slab.shape[:-3] not in ((), lead) or slab.shape[-3::2] != a.shape[-2:]:
        raise ShapeError(
            f"row_dot_slab needs (B x d) rows and a (B x N x d) slab, got {_item_shape(a)} and {slab.shape}"
        )
    if live0 is not None:
        same = (live0.shape == a.shape and live0.stacked == a.stacked) or _item_shape(live0) == _item_shape(a)
        if not same or slab.shape[-2] == 0:
            raise ShapeError(
                f"row_dot_slab live0 needs the rows' shape {_item_shape(a)} and a slot 0, got {_item_shape(live0)}"
            )
        full = np.empty(lead + slab.shape[-3:])  # each replica's slot 0 ahead of its rest
        full[...] = slab
        full[..., 0, :] = live0.data
        slab = full

    def backward(g: np.ndarray) -> None:
        _accumulate(a, np.einsum("...bn,...bnd->...bd", g, slab))
        if live0 is not None:
            _accumulate(live0, g[..., :1] * a.data)

    parents = (a,) if live0 is None else (a, live0)
    return _from_op(np.einsum("...bd,...bnd->...bn", a.data, slab), "row_dot_slab", parents, backward)


def _row_name(pos, ids=None) -> str:
    """'replica r row i' ('row i' unstacked), 'example <id>' for 'row i' given ``ids`` per row or per replica and row."""
    row = f"row {pos[-1]}" if ids is None else f"example {np.asarray(ids)[tuple(pos[-np.ndim(ids):])]}"
    return " ".join([f"replica {r}" for r in pos[:-1]] + [row])


def row_norms(x: np.ndarray, where: str, floor: float = NORM_EPS, ids=None) -> np.ndarray:
    """Norms of x's rows (its last axis, kept): the one row rule of the tape and the key pool.

    np.linalg.norm's sum, bit for bit, without its Python wrapper. A
    non-finite norm raises ``NonFiniteError`` and one below ``floor``
    ``DegenerateRowError`` (clamping would hide a collapsed encoder), naming
    the first such row of ``where`` by ``_row_name``.
    """
    norms = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
    # Two bare reductions, cheaper than isfinite().all() and any(): a NaN carries into the minimum and fails.
    low, high = np.minimum.reduce(norms, axis=None, initial=np.inf), np.maximum.reduce(norms, axis=None, initial=0.0)
    if low >= floor and high < np.inf:
        return norms
    finite = np.isfinite(norms).all()
    index = np.argwhere(norms < floor if finite else ~np.isfinite(norms))[0]
    name = _row_name(index[:-1], ids)
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
        inner = (g * out).sum(axis=-1, keepdims=True)
        _accumulate(a, (g - out * inner) / norms)

    return _from_op(out, "row_l2_normalize", (a,), backward)


def masked_nll(scores: Tensor, mask: np.ndarray, scale: float, inv_tau: float = 1.0) -> Tensor:
    """scale * sum(log_softmax_row(scores * inv_tau) * mask) as one node, the row max shifted out.

    Forward and backward repeat, step for step, the arithmetic of the
    separate scale, log-softmax, mask, sum and scale ops they replace.
    Stacked scores give one value per replica, and take one mask for all
    replicas or one each.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if scores.data.ndim != 2 + scores.stacked or mask.shape not in (_item_shape(scores), scores.shape):
        raise ShapeError(
            f"masked_nll needs 2-D scores and a mask of their shape, got {_item_shape(scores)} and {mask.shape}"
        )
    _check_finite(mask, "masked_nll mask")
    scale = float(scale)
    s = scores.data * inv_tau  # exact at the default 1.0, which ce runs
    shifted = s - s.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    _check_finite(logp, "masked_nll", scores.stacked)

    def backward(g: np.ndarray) -> None:
        gl = (g * scale)[..., None, None] * mask
        gs = gl - np.exp(logp) * gl.sum(axis=-1, keepdims=True)
        _accumulate(scores, gs * inv_tau)

    return _from_op(_c_order_sum(logp * mask, scores.stacked) * scale, "masked_nll", (scores,), backward)
