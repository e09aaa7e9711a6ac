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

``finite_difference`` is gradcheck's coordinate loop, two forwards per
coordinate with the leaf perturbed in place; the stacked form must
match it bit for bit. ``worst_relative_error`` runs gradcheck's
comparison over that loop, for forwards built on the 2-D-only chains
above, which cannot take a replica axis.

The key pools' earlier forms are kept the same way: ``RingQueues``, the
per-class ring buffers with a head slot and modular slot arithmetic;
``per_class_bank_sample``, the memory bank's per-class gather; and
``newest_per_class_warmup``, the queue warm-up that forwarded only each
class's newest ``queue_size`` rows.
"""

from typing import Callable, Sequence

import numpy as np

import dualhead.model as model_mod
import dualhead.ndgrad as nd
from dualhead.gradcheck import EPS, REL_FLOOR, analytic_gradients
from dualhead.keypool import KeyEntry, MocoQueues, _check_unit, _draw, _key_rows, _with_queries
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


def finite_difference(forward: Callable[[], Tensor], t: Tensor, eps: float = EPS) -> np.ndarray:
    """Central-difference gradient of forward() w.r.t. one leaf tensor, one coordinate at a time."""
    flat = t.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = forward().item()
        flat[i] = orig - eps
        f_minus = forward().item()
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad.reshape(t.data.shape)


def worst_relative_error(
    forward: Callable[[], Tensor], wrt: Sequence[Tensor], eps: float = EPS, floor: float = REL_FLOOR
) -> float:
    """gradcheck.worst_relative_error with the coordinate loop for its finite differences."""
    worst = 0.0
    for t, ana in zip(wrt, analytic_gradients(forward, wrt)):
        num = finite_difference(forward, t, eps)
        err = np.abs(ana - num) / np.maximum(np.maximum(np.abs(ana), np.abs(num)), floor)
        worst = np.maximum(worst, err.max())
    return float(worst)


class RingQueues(MocoQueues):
    """Per-class ring buffers: a class's oldest key sits at its head slot, the rest follow modulo queue_size."""

    def __init__(self, class_count: int, queue_size: int):
        super().__init__(class_count, queue_size)
        self._head = np.zeros(self.class_count, dtype=np.int64)

    def entries(self, label: int) -> list[KeyEntry]:
        slots = (self._head[label] + np.arange(self._fill[label])) % self.queue_size
        return [KeyEntry(self._h[label, s].copy(), self._z[label, s].copy(), label) for s in slots]

    def enqueue(self, h: np.ndarray, z: np.ndarray, labels: np.ndarray) -> None:
        h, z, labels = _key_rows(h, z, labels)
        outside = labels[(labels < 0) | (labels >= self.class_count)]
        if outside.size:
            raise IndexError(f"label {outside[0]} out of range [0, {self.class_count})")
        _check_unit(h_key=h, z_key=z)
        if self._h is None:
            self._h = np.zeros((self.class_count, self.queue_size, h.shape[1]))
            self._z = np.zeros((self.class_count, self.queue_size, z.shape[1]))
        q = self.queue_size
        for c in np.unique(labels).tolist():
            rows = np.flatnonzero(labels == c)
            total = int(self._fill[c]) + rows.size
            keep = rows[-q:]
            slots = (self._head[c] + total - keep.size + np.arange(keep.size)) % q
            self._h[c, slots] = h[keep]
            self._z[c, slots] = z[keep]
            self._head[c] = (self._head[c] + max(0, total - q)) % q
            self._fill[c] = min(total, q)

    def sample(self, keys_per_class: int, h_query, z_query, labels, rng: np.random.Generator):
        classes = np.flatnonzero(self._fill)
        picks = _draw(rng, len(labels), self._fill[classes], keys_per_class)
        b = picks.shape[0]
        cls = np.broadcast_to(classes[None, :, None], picks.shape).reshape(b, -1)
        slots = ((self._head[classes][None, :, None] + picks) % self.queue_size).reshape(b, -1)
        return _with_queries((h_query, z_query, labels), self._h[cls, slots], self._z[cls, slots], cls)


def per_class_bank_sample(bank, count_per_class: int, h_query, z_query, labels, rng, uniform: bool = False):
    """MemoryBank.sample through per-class member lists, one fancy index per class."""
    members = [np.flatnonzero(bank.labels == c) for c in np.unique(bank.labels)]
    if uniform:
        picks = _draw(rng, len(labels), [bank.labels.shape[0]], count_per_class * len(members))
        idx = picks[:, 0]
    else:
        picks = _draw(rng, len(labels), [m.shape[0] for m in members], count_per_class)
        idx = np.stack([m[picks[:, j]] for j, m in enumerate(members)], axis=1).reshape(picks.shape[0], -1)
    return _with_queries((h_query, z_query, labels), bank.h_snap[idx], bank.z_snap[idx], bank.labels[idx])


def newest_per_class_warmup(twin, pool: MocoQueues, ds) -> None:
    """Forward only the newest queue_size rows of each class, in dataset order, in one pass."""
    newest = [np.flatnonzero(ds.labels == c)[-pool.queue_size:] for c in range(ds.class_count)]
    order = np.sort(np.concatenate(newest))
    pool.enqueue(*model_mod.forward_key(twin, Tensor(ds.features[order])), ds.labels[order])
