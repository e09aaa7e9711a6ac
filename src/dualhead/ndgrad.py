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
    ancestor. Tensors built from raw data are leaves.
    """

    __slots__ = ("data", "grad", "grad_enabled", "_parents", "_backward", "_op")

    def __init__(self, data, grad_enabled: bool = False):
        arr = np.array(data, dtype=np.float64)
        _check_finite(arr, "constructor")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.grad_enabled = grad_enabled
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


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite value produced by {op}")


def _from_op(
    arr: np.ndarray,
    op: str,
    parents: tuple[Tensor, ...],
    backward: Callable[[np.ndarray], None],
) -> Tensor:
    _check_finite(arr, op)
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.grad = None
    out._op = op
    if any(p.grad_enabled for p in parents):
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

    The rows form multiplies by a contiguous copy of w.T, never by the
    transposed view: the two can round differently.
    """
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"linear needs 2-D operands, got {x.shape} and {w.shape}")
    wt = w.data.T.copy() if w_rows else w.data
    if x.shape[1] != wt.shape[0]:
        raise ShapeError(f"linear inner dims disagree: {x.shape} x {wt.shape}")
    if b is not None and b.shape != (wt.shape[1],):
        raise ShapeError(f"linear bias shape {b.shape} != ({wt.shape[1]},)")
    out = x.data @ wt
    if b is not None:
        out = out + b.data

    def backward(g: np.ndarray) -> None:
        if b is not None:
            _accumulate(b, g.sum(axis=0))
        _accumulate(x, g @ wt.T)
        _accumulate(w, (x.data.T @ g).T if w_rows else x.data.T @ g)

    return _from_op(out, "linear", (x, w) if b is None else (x, w, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of same-shape tensors (the terms of the joint loss)."""
    if a.shape != b.shape:
        raise ShapeError(f"add shapes disagree: {a.shape} vs {b.shape}")

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return _from_op(a.data + b.data, "add", (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors (gradcheck's scalar head weights an op's output)."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes disagree: {a.shape} vs {b.shape}")

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


def sum(a: Tensor) -> Tensor:  # noqa: A001 - spec'd op name
    """Sum of all entries, as a scalar tensor."""

    def backward(g: np.ndarray) -> None:
        _accumulate(a, np.full_like(a.data, float(g)))

    return _from_op(np.asarray(a.data.sum()), "sum", (a,), backward)


def select_rows(a: Tensor, indices) -> Tensor:
    """Gather rows by index; duplicate indices are allowed."""
    if a.data.ndim != 2:
        raise ShapeError(f"select_rows needs a 2-D operand, got {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("select_rows indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"row index out of range for shape {a.shape}")

    def backward(g: np.ndarray) -> None:
        if a.grad_enabled:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, g)

    return _from_op(a.data[idx].copy(), "select_rows", (a,), backward)


def row_dot_slab(a: Tensor, slab: np.ndarray, live0: Tensor | None = None) -> Tensor:
    """out[b, n] = a[b] . slab[b, n]: each live row against its own constant (B x N x d) slab.

    A live (B x d) ``live0`` stands in for the slab's slot 0, which is not
    read: column 0 is a[b] . live0[b], on the tape for both operands.
    """
    slab = np.asarray(slab, dtype=np.float64)
    if a.data.ndim != 2 or slab.ndim != 3 or slab.shape[0] != a.shape[0] or slab.shape[2] != a.shape[1]:
        raise ShapeError(f"row_dot_slab needs (B x d) rows and a (B x N x d) slab, got {a.shape} and {slab.shape}")
    if live0 is not None:
        if live0.shape != a.shape or slab.shape[1] == 0:
            raise ShapeError(f"row_dot_slab live0 needs the rows' shape {a.shape} and a slot 0, got {live0.shape}")
        slab = np.concatenate([live0.data[:, None], slab[:, 1:]], axis=1)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, np.einsum("bn,bnd->bd", g, slab))
        if live0 is not None:
            _accumulate(live0, g[:, :1] * a.data)

    parents = (a,) if live0 is None else (a, live0)
    return _from_op(np.einsum("bd,bnd->bn", a.data, slab), "row_dot_slab", parents, backward)


def row_l2_normalize(a: Tensor) -> Tensor:
    """Scale each row to unit Euclidean norm.

    A row with norm below ``NORM_EPS`` is a hard error: silently clamping
    would hide a collapsed feature extractor from every downstream check.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"row_l2_normalize needs a 2-D operand, got {a.shape}")
    norms = np.sqrt(np.add.reduce(a.data * a.data, axis=1, keepdims=True))  # np.linalg.norm's sum, bit for bit
    if not np.isfinite(norms).all():
        raise NonFiniteError("row norm overflowed in row_l2_normalize")
    if (norms < NORM_EPS).any():
        row = int(np.argmin(norms))
        raise DegenerateRowError(f"row {row} has norm {norms[row, 0]:.3e} < {NORM_EPS}")
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
    """
    mask = np.asarray(mask, dtype=np.float64)
    if scores.data.ndim != 2 or mask.shape != scores.shape:
        raise ShapeError(f"masked_nll needs 2-D scores and a mask of their shape, got {scores.shape} and {mask.shape}")
    _check_finite(mask, "masked_nll mask")
    scale = float(scale)
    s = scores.data if inv_tau is None else scores.data * inv_tau
    shifted = s - s.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    _check_finite(logp, "masked_nll")

    def backward(g: np.ndarray) -> None:
        gl = np.full_like(logp, float(g * scale)) * mask
        gs = gl - np.exp(logp) * gl.sum(axis=1, keepdims=True)
        _accumulate(scores, gs if inv_tau is None else gs * inv_tau)

    return _from_op(np.asarray((logp * mask).sum()) * scale, "masked_nll", (scores,), backward)
