"""Finite-difference verification of every op and loss gradient.

The oracle is central differences with eps = 1e-6 on float64 values,
compared coordinate by coordinate against the backward pass. A leaf's
2n perturbed copies run as one stacked forward (``ndgrad``'s replica
axis), so each leaf costs one forward, not 2n. The
comparison is relative above a small magnitude floor and absolute below
it (FD noise for a loss of size f is about f * 1e-10 at this eps, so
near-zero true gradients would otherwise drown in cancellation noise).
A NaN or infinite gradient makes the error NaN, which fails its case.

Loss cases differentiate through a real model (encoder, classifier,
projector), so a broken backward rule anywhere in the chain surfaces
here. Every loss case but ``info_nce`` is just a ``LossesConfig`` run
through ``losses.objective``, the function the training step calls, so
the checks cover the objective that is trained, not a copy of it, with
the reduction and the classifier bias drawn per instance. Every case,
one per op form the model and losses run, checks the same coordinates
on every seed. Op and
loss builders call their targets through module attributes, which lets a
test inject a corrupted rule and confirm it is caught.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import losses as losses_mod
from . import model as model_mod
from . import ndgrad as nd
from .config import REDUCTIONS, LossesConfig
from .keypool import KeyBatch
from .model import ModelDims
from .ndgrad import Tensor

EPS = 1e-6
TOLERANCE = 1e-4
REL_FLOOR = 1e-2


def analytic_gradients(forward: Callable[[], Tensor], wrt: Sequence[Tensor]) -> list[np.ndarray]:
    """Run backward once and collect gradients for the given leaves."""
    loss = forward()
    loss.backward()
    grads = []
    for t in wrt:
        grads.append(t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        t.zero_grad()
    return grads


def finite_difference(forward: Callable[[], Tensor], t: Tensor, eps: float = EPS) -> np.ndarray:
    """Central-difference gradient of forward() w.r.t. one leaf tensor, from one stacked forward.

    The leaf's n coordinates become 2n replicas of it on ``ndgrad``'s
    replica axis: replica 2j has coordinate j raised by eps, replica 2j+1
    has it lowered by eps. One forward() then gives all 2n values, and the
    leaf gets its own data back. A forward that never reads the leaf
    returns an unstacked value, and its difference quotient is 0.
    """
    data = t.data
    n = data.size
    flat = data.reshape(-1)
    replicas = np.repeat(flat[None], 2 * n, axis=0)
    j = np.arange(n)
    replicas[2 * j, j] = flat + eps
    replicas[2 * j + 1, j] = flat - eps
    t.data, t.stacked = replicas.reshape((2 * n, *data.shape)), True
    try:
        f = forward()
    finally:
        t.data, t.stacked = data, False
    if not f.stacked:
        return np.zeros_like(data)
    if f.shape != (2 * n,):
        raise nd.ShapeError(f"finite differences need a scalar forward, got {f.shape[1:]} per replica")
    return ((f.data[0::2] - f.data[1::2]) / (2.0 * eps)).reshape(data.shape)


def worst_relative_error(
    forward: Callable[[], Tensor],
    wrt: Sequence[Tensor],
    eps: float = EPS,
    floor: float = REL_FLOOR,
) -> float:
    """Max disagreement between backward and central differences; NaN if either is not finite."""
    analytic = analytic_gradients(forward, wrt)
    worst = 0.0
    for t, ana in zip(wrt, analytic):
        num = finite_difference(forward, t, eps)
        err = np.abs(ana - num) / np.maximum(np.maximum(np.abs(ana), np.abs(num)), floor)
        worst = np.maximum(worst, err.max())  # np.maximum, unlike max, propagates NaN
    return float(worst)


# ---------------------------------------------------------------------------
# op cases: each builds (forward, leaves) over random data; the scalar head
# weights the op output by a fixed random matrix so every entry matters.


def _head(out: Tensor, weights: np.ndarray) -> Tensor:
    return nd.sum(nd.mul(out, Tensor(weights)))


def _linear_case(rows: bool):
    """linear in the (in x out) form with a bias (encoder layers, projector), or over the (out x in)
    prototype rows of the logits, with a bias drawn per instance; an unread bias is still checked."""

    def build(rng):
        x = Tensor(rng.normal(size=(2, 3)), grad_enabled=True)
        w = Tensor(rng.normal(size=(2, 3) if rows else (3, 2)), grad_enabled=True)
        b = Tensor(rng.normal(size=2), grad_enabled=True)
        r = rng.normal(size=(2, 2))
        used = None if rows and rng.integers(2) else b
        return lambda: _head(nd.linear(x, w, used, w_rows=rows), r), [x, w, b]

    return build


def _case_add(rng):
    a = Tensor(rng.normal(size=(3, 4)), grad_enabled=True)
    b = Tensor(rng.normal(size=(3, 4)), grad_enabled=True)
    r = rng.normal(size=(3, 4))
    return lambda: _head(nd.add(a, b), r), [a, b]


def _case_mul(rng):
    a = Tensor(rng.normal(size=(2, 5)), grad_enabled=True)
    b = Tensor(rng.normal(size=(2, 5)), grad_enabled=True)
    r = rng.normal(size=(2, 5))
    return lambda: _head(nd.mul(a, b), r), [a, b]


def _case_scale_by_scalar(rng):
    a = Tensor(rng.normal(size=(3, 3)), grad_enabled=True)
    s = float(rng.normal())
    r = rng.normal(size=(3, 3))
    return lambda: _head(nd.scale_by_scalar(a, s), r), [a]


def _case_relu(rng):
    # Keep inputs away from the kink, where the subgradient is one-sided.
    raw = rng.normal(size=(3, 4))
    raw += np.where(raw >= 0, 0.05, -0.05)
    a = Tensor(raw, grad_enabled=True)
    r = rng.normal(size=(3, 4))
    return lambda: _head(nd.relu(a), r), [a]


def _case_sum(rng):
    a = Tensor(rng.normal(size=(2, 6)), grad_enabled=True)
    return lambda: nd.sum(a), [a]


def _row_dot_slab_case(live0: bool):
    """row_dot_slab over a constant slab, as ccl and info_nce run it, or with a live slot 0 as cce does."""
    b, n, d = (2, 4, 5) if live0 else (3, 5, 4)

    def build(rng):
        a = Tensor(rng.normal(size=(b, d)), grad_enabled=True)
        live = Tensor(rng.normal(size=(b, d)), grad_enabled=True) if live0 else None
        slab = rng.normal(size=(b, n, d))  # each row's own constant keys
        r = rng.normal(size=(b, n))
        return lambda: _head(nd.row_dot_slab(a, slab, live), r), [a] if live is None else [a, live]

    return build


def _case_select_rows(rng):
    a = Tensor(rng.normal(size=(5, 3)), grad_enabled=True)
    idx = rng.integers(0, 5, size=4)  # duplicates exercise accumulation
    r = rng.normal(size=(4, 3))
    return lambda: _head(nd.select_rows(a, idx), r), [a]


def _case_row_l2_normalize(rng):
    a = Tensor(rng.normal(size=(2, 5)) + 0.5, grad_enabled=True)
    r = rng.normal(size=(2, 5))
    return lambda: _head(nd.row_l2_normalize(a), r), [a]


def _masked_nll_case(tau: bool):
    """masked_nll as ce runs it, or with the 1/tau scale first as info_nce, cce and ccl do; a scalar already."""

    def build(rng):
        inv_tau = float(rng.uniform(0.5, 3.0)) if tau else None
        a = Tensor(rng.normal(size=(3, 4)), grad_enabled=True)
        mask = rng.integers(0, 3, size=(3, 4)).astype(float)  # multiplicities, as cce's literal variant weights
        scale = float(rng.normal())
        return lambda: nd.masked_nll(a, mask, scale, inv_tau), [a]

    return build


OP_CASES: dict[str, Callable] = {
    "linear": _linear_case(rows=False),
    "linear_rows": _linear_case(rows=True),
    "add": _case_add,
    "mul": _case_mul,
    "scale_by_scalar": _case_scale_by_scalar,
    "relu": _case_relu,
    "sum": _case_sum,
    "row_dot_slab": _row_dot_slab_case(live0=False),
    "row_dot_slab_live0": _row_dot_slab_case(live0=True),
    "select_rows": _case_select_rows,
    "row_l2_normalize": _case_row_l2_normalize,
    "masked_nll": _masked_nll_case(tau=False),
    "masked_nll_tau": _masked_nll_case(tau=True),
}


# ---------------------------------------------------------------------------
# loss cases: small random model, random unit key batches, gradients taken
# w.r.t. every model parameter.


def _unit_rows(rng, n: int, dim: int) -> np.ndarray:
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _random_key_batch(rng, k: int, d: int, L: int, c: int, slot0_labels: np.ndarray) -> KeyBatch:
    """K random unit keys per query, drawn query by query, behind each slot-0 label."""
    labels, h, z = [], [], []
    for y in slot0_labels:
        labels.append(np.concatenate([[y], rng.integers(0, c, size=k)]))
        h.append(_unit_rows(rng, k + 1, d))
        z.append(_unit_rows(rng, k + 1, L))
    return KeyBatch(h_keys=np.stack(h), z_keys=np.stack(z), labels=np.stack(labels).astype(np.int64))


def _loss_fixture(rng, tau: float = 0.07):
    # Each instance draws whether the logits read the classifier bias; an unread one is still checked.
    dims = ModelDims(in_dim=3, hidden=(4,), feature_dim=6, class_count=3, projector_dim=5)
    params = model_mod.init_params(dims, rng, classifier_bias=True)
    if rng.integers(2):
        params.classifier_b = None
    b = 2
    x = Tensor(rng.normal(size=(b, dims.in_dim)))
    y = rng.integers(0, dims.class_count, size=b).astype(np.int64)
    k = int(rng.integers(3, 9))
    keys = _random_key_batch(rng, k, dims.feature_dim, dims.projector_dim, dims.class_count, y)
    wrt = [t for _, t in params.named_parameters()]
    return params, x, y, keys, tau, wrt


def _case_info_nce(rng):
    params, x, y, keys, tau, wrt = _loss_fixture(rng)
    first = KeyBatch(keys.h_keys[:1], keys.z_keys[:1], keys.labels[:1])  # query 0's keys only

    def forward() -> Tensor:
        _, z, _ = model_mod.forward_query(params, x)
        return losses_mod.info_nce(nd.select_rows(z, [0]), first, positive_index=1, tau=tau)

    return forward, wrt


def _objective_case(cfg: LossesConfig):
    """The training objective itself, with the terms and variant cfg selects; each instance draws the reduction."""

    def build(rng):
        params, x, y, keys, _, wrt = _loss_fixture(rng)
        drawn = replace(cfg, reduction=REDUCTIONS[int(rng.integers(len(REDUCTIONS)))])

        def forward() -> Tensor:
            h, z, logits = model_mod.forward_query(params, x)
            return losses_mod.objective(h, z, logits, y, params.classifier_W, keys, drawn).total

        return forward, wrt

    return build


LOSS_CASES: dict[str, Callable] = {
    "ce": _objective_case(LossesConfig(cce=0.0, ccl=0.0)),
    "info_nce": _case_info_nce,
    "cce_literal": _objective_case(LossesConfig(ce=0.0, ccl=0.0, cce_variant="literal")),
    "cce_per_key": _objective_case(LossesConfig(ce=0.0, ccl=0.0, cce_variant="per_key")),
    "ccl": _objective_case(LossesConfig(ce=0.0, cce=0.0)),
    "joint_total": _objective_case(LossesConfig()),
}


@dataclass
class CheckResult:
    kind: str  # "op" or "loss"
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= TOLERANCE


@dataclass
class GradcheckReport:
    results: list[CheckResult]
    instances: int
    tolerance: float = TOLERANCE

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            out.append(f"{r.kind:4s} {r.name:18s} max rel err {r.max_rel_err:.3e}  {status}")
        verdict = "all gradients verified" if self.passed else "GRADIENT CHECK FAILED"
        out.append(f"{len(self.results)} checks, {self.instances} instances each, tolerance {self.tolerance:g}: {verdict}")
        return out


def run_gradcheck(instances: int = 20, base_seed: int = 0) -> GradcheckReport:
    """Check every op and loss over the given number of random instances (at least one)."""
    if instances < 1:
        raise ValueError(f"gradcheck needs at least one instance per check, got {instances}")
    results: list[CheckResult] = []
    for kind, cases in (("op", OP_CASES), ("loss", LOSS_CASES)):
        for name, builder in cases.items():
            worst = 0.0
            for i in range(instances):
                rng = np.random.default_rng(base_seed + i)
                forward, wrt = builder(rng)
                worst = np.maximum(worst, worst_relative_error(forward, wrt))
            results.append(CheckResult(kind=kind, name=name, max_rel_err=float(worst)))
    return GradcheckReport(results=results, instances=instances)
