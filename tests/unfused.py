"""The unfused op chains behind ``ndgrad.linear`` and ``ndgrad.masked_nll``, kept as test oracles.

``transpose`` and ``log_softmax_row`` are the two separate ops the fused
ones replaced, built on ndgrad's own node constructor exactly as the
library once defined them. ``linear`` and ``masked_nll`` compose them with
the library's remaining ops node by node, in the order ``model`` and
``losses`` used to, and take the fused ops' signatures, so a test can
monkeypatch them into ``dualhead.ndgrad`` and compare bit for bit.
"""

import numpy as np

import dualhead.ndgrad as nd
from dualhead.ndgrad import ShapeError, Tensor


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


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, w_rows: bool = False) -> Tensor:
    """matmul (through transpose for the rows form), then add of the bias."""
    out = nd.matmul(x, transpose(w) if w_rows else w)
    return out if b is None else nd.add(out, b)


def masked_nll(scores: Tensor, mask: np.ndarray, scale: float, inv_tau: float | None = None) -> Tensor:
    """scale_by_scalar(1/tau), log_softmax_row, mul by the mask, sum, scale_by_scalar."""
    s = scores if inv_tau is None else nd.scale_by_scalar(scores, inv_tau)
    return nd.scale_by_scalar(nd.sum(nd.mul(log_softmax_row(s), Tensor(mask))), scale)
