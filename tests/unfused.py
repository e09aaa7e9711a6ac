"""The unfused op chains behind ``ndgrad``'s fused ops and ``losses.cce``, kept as test oracles.

``matmul``, ``transpose``, ``log_softmax_row`` and ``add_bias``
(``add``'s old 1-D broadcast) are separate ops the fused ones replaced,
and ``concat_rows`` builds the per-query banks of the loop oracles. All
five are built on ndgrad's own node constructor exactly as the library
once defined them. ``linear`` and ``masked_nll`` compose them with
the library's remaining ops node by node, in the order ``model`` and
``losses`` used to, and take the fused ops' signatures, so a test can
monkeypatch them into ``dualhead.ndgrad`` and compare bit for bit.
``row_dot_slab`` is the zeroed-slab and rank-1 ``E0`` chain ``cce`` once
built for a live slot 0; it rounds differently from the fused form, so
tests compare the two to 1e-12, not bitwise.
"""

from typing import Sequence

import numpy as np

import dualhead.ndgrad as nd
from dualhead.ndgrad import ShapeError, Tensor


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} x {b.shape}")

    def backward(g: np.ndarray) -> None:
        nd._accumulate(a, g @ b.data.T)
        nd._accumulate(b, a.data.T @ g)

    return nd._from_op(a.data @ b.data, "matmul", (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D operand, got {a.shape}")

    def backward(g: np.ndarray) -> None:
        nd._accumulate(a, g.T)

    return nd._from_op(a.data.T.copy(), "transpose", (a,), backward)


def log_softmax_row(a: Tensor) -> Tensor:
    """Row-wise log-softmax, stabilized by max subtraction."""
    if a.data.ndim != 2:
        raise ShapeError(f"log_softmax_row needs a 2-D operand, got {a.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def backward(g: np.ndarray) -> None:
        nd._accumulate(a, g - np.exp(out) * g.sum(axis=1, keepdims=True))

    return nd._from_op(out, "log_softmax_row", (a,), backward)


def add_bias(a: Tensor, b: Tensor) -> Tensor:
    """a + b with a 1-D ``b`` added to every row of a 2-D ``a``."""
    if a.data.ndim != 2 or b.shape != (a.shape[1],):
        raise ShapeError(f"add_bias needs (n x d) and (d,), got {a.shape} and {b.shape}")

    def backward(g: np.ndarray) -> None:
        nd._accumulate(a, g)
        nd._accumulate(b, g.sum(axis=0))

    return nd._from_op(a.data + b.data, "add", (a, b), backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack 2-D tensors vertically."""
    if not parts:
        raise ShapeError("concat_rows needs at least one part")
    cols = parts[0].shape[1] if parts[0].data.ndim == 2 else None
    for p in parts:
        if p.data.ndim != 2 or p.shape[1] != cols:
            raise ShapeError("concat_rows parts must be 2-D with equal column counts")
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def backward(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            nd._accumulate(p, g[lo:hi])

    return nd._from_op(np.concatenate([p.data for p in parts], axis=0), "concat_rows", tuple(parts), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, w_rows: bool = False) -> Tensor:
    """matmul (through transpose for the rows form), then add_bias."""
    out = matmul(x, transpose(w) if w_rows else w)
    return out if b is None else add_bias(out, b)


def masked_nll(scores: Tensor, mask: np.ndarray, scale: float, inv_tau: float | None = None) -> Tensor:
    """scale_by_scalar(1/tau), log_softmax_row, mul by the mask, sum, scale_by_scalar."""
    s = scores if inv_tau is None else nd.scale_by_scalar(scores, inv_tau)
    return nd.scale_by_scalar(nd.sum(nd.mul(log_softmax_row(s), Tensor(mask))), scale)


_row_dot_slab = nd.row_dot_slab  # the library's op, kept for when a test patches the chain below over it


def row_dot_slab(a: Tensor, slab: np.ndarray, live0: Tensor | None = None) -> Tensor:
    """With ``live0``: the slab with slot 0 zeroed, plus the rank-1 term (a * live0) @ E0, E0 ones in column 0 only."""
    if live0 is None:
        return _row_dot_slab(a, slab)
    bank = np.array(slab, dtype=np.float64)
    bank[:, 0] = 0.0
    e0 = np.zeros((a.shape[1], bank.shape[1]))
    e0[:, 0] = 1.0
    return nd.add(_row_dot_slab(a, bank), matmul(nd.mul(a, live0), Tensor(e0)))
