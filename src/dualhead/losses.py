"""The four scalar objectives and their joint sum.

All four share one log-ratio skeleton: a temperature-scaled dot-product
softmax followed by negative log-probabilities of designated positives.

* ``ce``: plain classification cross-entropy over the C class logits.
* ``info_nce``: (K+1)-way softmax singling out one positive key.
* ``cce``: the classifier-head contrastive loss. For query i the softmax
  runs along the key-bank dimension: similarities of the *query's class
  prototype* w_{y_i} against the bank rows. Slot 0 of the bank is the
  query's own live normalized feature, so the numerator term is always
  one of the denominator terms; the per-query log-ratio is counted once
  per positive key (multiplicity |S_i| in the default "literal" variant,
  or with per-key numerators in the "per_key" variant).
* ``ccl``: the projector-head contrastive loss, where every key sharing the
  query's class is a positive, slot 0 (the query's own momentum key)
  included, so the positive set is never empty.
* ``joint_total``: the unweighted sum of the enabled terms. Weights
  exist only so an ablation can switch terms off (weight 0); defaults
  are all 1 and no tuning is intended. A fit group weights each replica
  apart: a term on for any replica is computed for all, and a replica's
  zero weight adds -0.0 to its total (bit for bit the serial sum, which
  skips the term) and zeros to its gradients.
* ``objective``: the one place the trained composition is built from a
  ``LossesConfig``: ``ce`` on the logits, ``cce`` on the unit-normalized
  features, ``ccl`` on the projections, then ``joint_total``. The
  training step and the gradient checks both call it.

Batch reduction is a plain sum by default; "mean" divides every term by
the batch size so the three terms stay mutually comparable either way.
Each term ends in one ``ndgrad.masked_nll`` node over its raw scores:
the 1/tau scale (1.0 for ``ce``), the row log-softmax, the mask, the sum
and one scale of that sum, by -1 or by -1/B.
Shapes are read from the trailing axes, so a stacked feature, projection
or prototype matrix (``ndgrad``'s replica axis) gives one loss per
replica; labels and keys may carry the replica axis too, one batch per
replica.
Keys arrive as one ``KeyBatch`` for the whole batch, and each
contrastive loss builds one (B x (K+1)) similarity matrix from it with
``ndgrad.row_dot_slab``. Keys are constant arrays: gradients flow to the
live features and prototypes only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndgrad as nd
from .config import CCE_VARIANTS, REDUCTIONS, LossesConfig
from .keypool import KeyBatch
from .ndgrad import Tensor


class NoEnabledTermError(ValueError):
    """joint_total was asked for with every term disabled."""


@dataclass
class LossTerms:
    """Scalar loss tensors plus the weights selecting which enter the total.

    ``h_norm`` is the unit-normalized feature ``objective`` built for
    ``cce`` (None when ``cce`` is off), so a caller needing it again
    reuses it instead of normalizing twice. A term's weight is a float,
    or for a stacked batch whose replicas weight it differently an (R,)
    vector, one weight per replica.
    """

    ce: Tensor | None = None
    cce: Tensor | None = None
    ccl: Tensor | None = None
    total: Tensor | None = None
    weights: tuple = (1.0, 1.0, 1.0)
    h_norm: Tensor | None = None

    def values(self, replica: int) -> dict[str, float | None]:
        """One replica's value of each term of a stacked batch, None where that replica's weight is 0."""

        def val(t: Tensor | None, w=None) -> float | None:
            if t is None or isinstance(w, np.ndarray) and w[replica] == 0.0:
                return None
            return float(t.data[replica])

        ce, cce, ccl = (val(t, w) for t, w in zip((self.ce, self.cce, self.ccl), self.weights))
        return {"ce": ce, "cce": cce, "ccl": ccl, "total": val(self.total)}


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    return tau


def _check_labels(labels: np.ndarray, class_count: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise IndexError(f"label out of range [0, {class_count})")
    return labels


def _masked_nll(scores: Tensor, mask: np.ndarray, reduction: str = "sum", inv_tau: float = 1.0) -> Tensor:
    """-sum(log_softmax_row(scores * inv_tau) * mask), divided by the batch size under "mean": one node."""
    if reduction not in REDUCTIONS:
        raise ValueError(f"reduction must be one of {REDUCTIONS}, got {reduction!r}")
    scale = -1.0 / scores.shape[-2] if reduction == "mean" else -1.0
    return nd.masked_nll(scores, mask, scale, inv_tau)


def _check_keys(keys: KeyBatch, labels: np.ndarray, b: int, rows: np.ndarray, dim: int, what: str) -> None:
    if keys.labels.shape[-2] != b or labels.shape[-1] != b:
        got = f"{keys.labels.shape[-2]}/{labels.shape[-1]}"
        raise nd.ShapeError(f"need one key row and label per query ({b}), got {got}")
    bad = np.flatnonzero(keys.labels[..., 0] != labels)
    if bad.size:
        *replica, i = where = np.unravel_index(bad[0], labels.shape)
        name = " ".join([f"replica {r}" for r in replica] + [f"query {i}"])
        raise ValueError(f"{name}: slot-0 label {keys.labels[where + (0,)]} != query label {labels[where]}")
    if rows.shape[-1] != dim:
        raise nd.ShapeError(f"key dim {rows.shape[-1]} != {what} dim {dim}")


def ce(logits: Tensor, labels: np.ndarray, reduction: str = "sum") -> Tensor:
    """Cross-entropy over class logits, summed over the batch."""
    b, c = logits.shape[-2:]
    labels = _check_labels(labels, c)
    if labels.shape[-1] != b:
        raise nd.ShapeError(f"{labels.shape[-1]} labels for batch of {b}")
    onehot = np.zeros((labels.size, c))
    onehot[np.arange(labels.size), labels.reshape(-1)] = 1.0
    return _masked_nll(logits, onehot.reshape(labels.shape + (c,)), reduction)


def info_nce(q: Tensor, keys: KeyBatch, positive_index: int, tau: float) -> Tensor:
    """One-positive contrastive loss of unit queries against their K+1 unit keys."""
    tau = _check_tau(tau)
    if q.data.ndim != 2 + q.stacked or q.shape[-2] != keys.labels.shape[0]:
        raise nd.ShapeError(f"need one query row per key row ({keys.labels.shape[0]}), got {q.shape}")
    n = keys.size + 1
    if not 0 <= positive_index < n:
        raise IndexError(f"positive_index {positive_index} out of range [0, {n})")
    mask = np.zeros((q.shape[-2], n))
    mask[:, positive_index] = 1.0
    return _masked_nll(nd.row_dot_slab(q, keys.z_keys), mask, inv_tau=1.0 / tau)


def cce(
    h_q_norm: Tensor,
    labels: np.ndarray,
    W: Tensor,
    keys: KeyBatch,
    tau: float,
    variant: str = "literal",
    reduction: str = "sum",
) -> Tensor:
    """Classifier-head contrastive loss along the key-bank dimension.

    Prototypes w_{y_i} meet the key slab in one (B x (K+1)) matrix whose
    column 0 is the live similarity w_{y_i} . h_i, on the tape for both
    (``row_dot_slab``'s ``live0``). "literal" weights the slot-0 log-ratio
    by |S_i|, "per_key" takes one per positive slot: the variants differ
    only in their mask.
    """
    tau = _check_tau(tau)
    if variant not in CCE_VARIANTS:
        raise ValueError(f"variant must be one of {CCE_VARIANTS}, got {variant!r}")
    b, d = h_q_norm.shape[-2:]
    labels = _check_labels(labels, W.shape[-2])
    _check_keys(keys, labels, b, keys.h_keys, d, "feature")
    sims = nd.row_dot_slab(nd.select_rows(W, labels), keys.h_keys, live0=h_q_norm)
    positives = keys.positive_mask(labels)
    if variant == "literal":
        mask = np.zeros(positives.shape)
        mask[..., 0] = positives.sum(axis=-1)
    else:
        mask = positives.astype(float)
    return _masked_nll(sims, mask, reduction, 1.0 / tau)


def ccl(
    z_q: Tensor,
    labels: np.ndarray,
    keys: KeyBatch,
    tau: float,
    reduction: str = "sum",
) -> Tensor:
    """Projector-head contrastive loss with all same-class keys positive."""
    tau = _check_tau(tau)
    b, L = z_q.shape[-2:]
    labels = np.asarray(labels, dtype=np.int64)
    _check_keys(keys, labels, b, keys.z_keys, L, "projection")
    sims = nd.row_dot_slab(z_q, keys.z_keys)
    return _masked_nll(sims, keys.positive_mask(labels).astype(float), reduction, 1.0 / tau)


def _on(weight) -> bool:
    """Whether a term is enabled: its weight, or any replica's, is nonzero."""
    return bool(weight.any()) if isinstance(weight, np.ndarray) else weight != 0.0


def _unweighted(weight) -> bool:
    """Whether a term enters the total as it is: its weight, or every replica's, is 1."""
    return bool((weight == 1.0).all()) if isinstance(weight, np.ndarray) else weight == 1.0


def joint_total(terms: LossTerms) -> Tensor:
    """Weighted sum of the enabled terms; weight 0 disables a term.

    With the default all-ones weights this is exactly ce + cce + ccl.
    Per-replica weights scale each replica's term by its own weight; a
    zero weight gives -0.0 (``scale_by_scalar``), which adds nothing where
    the serial sum skips the term.
    Sets ``terms.total`` and returns it.
    """
    parts: list[Tensor] = []
    for weight, term, name in zip(terms.weights, (terms.ce, terms.cce, terms.ccl), ("ce", "cce", "ccl")):
        if not _on(weight):
            continue
        if term is None:
            raise ValueError(f"term {name!r} is enabled (weight {weight}) but was not computed")
        parts.append(term if _unweighted(weight) else nd.scale_by_scalar(term, weight))
    if not parts:
        raise NoEnabledTermError("every loss term is disabled")
    total = parts[0]
    for p in parts[1:]:
        total = nd.add(total, p)
    terms.total = total
    return total


def objective(
    h: Tensor,
    z: Tensor | None,
    logits: Tensor,
    labels: np.ndarray,
    W: Tensor,
    keys: KeyBatch | None,
    cfg: LossesConfig,
    weights: tuple | None = None,
) -> LossTerms:
    """The enabled terms of the joint loss and their total, as ``cfg`` weights them.

    ``h`` is the raw feature (``cce`` normalizes it), ``z`` the unit
    projection, ``W`` the classifier prototypes; ``z`` may be None when
    ``ccl`` is off, and ``keys`` when both contrastive terms are off.
    A fit passes ``weights`` in place of cfg's, resolved once for all
    its steps: per term a float where every replica agrees, else an (R,)
    vector with one weight per replica.
    ``terms.total`` is set, and ``terms.h_norm`` when ``cce`` is on.
    """
    terms = LossTerms(weights=cfg.weights() if weights is None else weights)
    w_ce, w_cce, w_ccl = terms.weights
    if _on(w_ce):
        terms.ce = ce(logits, labels, reduction=cfg.reduction)
    if _on(w_cce):
        terms.h_norm = nd.row_l2_normalize(h)
        terms.cce = cce(terms.h_norm, labels, W, keys, cfg.tau, variant=cfg.cce_variant, reduction=cfg.reduction)
    if _on(w_ccl):
        terms.ccl = ccl(z, labels, keys, cfg.tau, reduction=cfg.reduction)
    joint_total(terms)
    return terms
