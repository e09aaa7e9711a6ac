"""Three-part network: encoder f, classifier head (matrix W), projector head.

The encoder is a small dense MLP standing in for whatever pre-trained
backbone produced the features; the losses are backbone-agnostic, so the
verification story does not depend on its architecture. The classifier is
a bias-free matrix whose rows act as class prototypes. The projector is a
single affine map onto the unit sphere.

A momentum twin shadows the encoder and projector with slowly trailing
copies used exclusively to generate keys; it never sees gradients. The
classifier has no twin: its live rows are the prototypes the contrastive
classifier loss contrasts against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import ndgrad as nd
from .ndgrad import ShapeError, Tensor

CHECKPOINT_FORMAT = "dualhead-checkpoint-v1"


@dataclass
class ModelDims:
    in_dim: int
    hidden: tuple[int, ...] = (64,)
    feature_dim: int = 32
    class_count: int = 2
    projector_dim: int = 128


@dataclass
class ModelParams:
    """All trainable tensors. Encoder weights are stored (in x out)."""

    dims: ModelDims
    encoder_layers: list[tuple[Tensor, Tensor]] = field(default_factory=list)
    classifier_W: Tensor | None = None  # (C x d), rows are class prototypes
    classifier_b: Tensor | None = None  # optional, off by default
    projector_w: Tensor | None = None  # (d x L)
    projector_b: Tensor | None = None  # (L,)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for i, (w, b) in enumerate(self.encoder_layers):
            out.append((f"encoder.{i}.weight", w))
            out.append((f"encoder.{i}.bias", b))
        out.append(("classifier.weight", self.classifier_W))
        if self.classifier_b is not None:
            out.append(("classifier.bias", self.classifier_b))
        out.append(("projector.weight", self.projector_w))
        out.append(("projector.bias", self.projector_b))
        return out

    def head_names(self) -> set[str]:
        """Parameters trained at the boosted head learning rate."""
        return {name for name, _ in self.named_parameters() if not name.startswith("encoder.")}


@dataclass
class MomentumTwin:
    """Trailing copies of the encoder and projector used to produce keys.

    The twin only changes through ``momentum_update``; its tensors are
    grad-disabled, so nothing computed from them joins the tape.
    """

    m: float
    encoder_layers: list[tuple[Tensor, Tensor]]
    projector_w: Tensor
    projector_b: Tensor


def init_params(dims: ModelDims, rng: np.random.Generator, classifier_bias: bool = False) -> ModelParams:
    """Random initialization: He-scaled encoder, 1/sqrt(fan-in) heads.

    Biases draw from a small normal rather than zero so that a relu-dead
    input cannot produce an exactly-zero feature row, which the unit
    normalization downstream treats as a hard error.
    """
    params = ModelParams(dims=dims)
    sizes = [dims.in_dim, *dims.hidden, dims.feature_dim]
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        b = rng.normal(0.0, 0.1, size=fan_out)
        params.encoder_layers.append((Tensor(w, grad_enabled=True), Tensor(b, grad_enabled=True)))
    d, c, proj = dims.feature_dim, dims.class_count, dims.projector_dim
    params.classifier_W = Tensor(rng.normal(0.0, 1.0 / np.sqrt(d), size=(c, d)), grad_enabled=True)
    if classifier_bias:
        params.classifier_b = Tensor(np.zeros(c), grad_enabled=True)
    params.projector_w = Tensor(rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, proj)), grad_enabled=True)
    params.projector_b = Tensor(rng.normal(0.0, 0.1, size=proj), grad_enabled=True)
    return params


def _encode(layers: list[tuple[Tensor, Tensor]], x: Tensor) -> Tensor:
    h = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = nd.add(nd.matmul(h, w), b)
        if i != last:
            h = nd.relu(h)
    return h


def _features_and_logits(params: ModelParams, x: Tensor) -> tuple[Tensor, Tensor]:
    if x.data.ndim != 2 or x.shape[1] != params.dims.in_dim:
        raise ShapeError(f"expected input (b x {params.dims.in_dim}), got {x.shape}")
    h = _encode(params.encoder_layers, x)
    logits = nd.matmul(h, nd.transpose(params.classifier_W))
    if params.classifier_b is not None:
        logits = nd.add(logits, params.classifier_b)
    return h, logits


def _project(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The projector head: affine map onto the unit sphere."""
    return nd.row_l2_normalize(nd.add(nd.matmul(h, w), b))


def forward_query(params: ModelParams, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """Live forward pass: features h, unit projection z, class logits.

    h is left unnormalized (the classifier consumes it raw); z is the
    projector output scaled to the unit sphere. Everything stays on the
    gradient tape.
    """
    h, logits = _features_and_logits(params, x)
    return h, _project(h, params.projector_w, params.projector_b), logits


def forward_logits(params: ModelParams, x: Tensor) -> Tensor:
    """Deployment path: features to logits, skipping the projector."""
    return _features_and_logits(params, x)[1]


def forward_key(twin: MomentumTwin, x: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """Key path through the twin: unit-normalized h and z, as plain arrays.

    Both outputs are scaled to unit rows (keys are compared by dot
    product) and leave as arrays, not tensors, so no gradient can reach
    either the twin or the live parameters.
    """
    h = _encode(twin.encoder_layers, x)
    return nd.row_l2_normalize(h).data, _project(h, twin.projector_w, twin.projector_b).data


def init_twin(params: ModelParams, m: float) -> MomentumTwin:
    """Deep-copy the encoder and projector into a trailing twin."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"momentum coefficient must be in [0, 1], got {m}")
    layers = [
        (Tensor(w.data.copy()), Tensor(b.data.copy()))
        for w, b in params.encoder_layers
    ]
    return MomentumTwin(
        m=float(m),
        encoder_layers=layers,
        projector_w=Tensor(params.projector_w.data.copy()),
        projector_b=Tensor(params.projector_b.data.copy()),
    )


def _twin_pairs(twin: MomentumTwin, params: ModelParams) -> list[tuple[Tensor, Tensor]]:
    pairs: list[tuple[Tensor, Tensor]] = []
    for (wk, bk), (wq, bq) in zip(twin.encoder_layers, params.encoder_layers):
        pairs.append((wk, wq))
        pairs.append((bk, bq))
    pairs.append((twin.projector_w, params.projector_w))
    pairs.append((twin.projector_b, params.projector_b))
    return pairs


def momentum_update(twin: MomentumTwin, params: ModelParams) -> None:
    """Mix each twin tensor toward its live counterpart: m*old + (1-m)*new."""
    m = twin.m
    for tk, tq in _twin_pairs(twin, params):
        if tk.shape != tq.shape:
            raise ShapeError(f"twin shape {tk.shape} != live shape {tq.shape}")
        tk.data *= m
        tk.data += (1.0 - m) * tq.data


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Write parameters as JSON: shapes plus full-precision float64 values.

    Python's JSON float serialization uses shortest round-trip repr, so
    load(save(p)) reproduces every bit.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "dims": {
            "in_dim": params.dims.in_dim,
            "hidden": list(params.dims.hidden),
            "feature_dim": params.dims.feature_dim,
            "class_count": params.dims.class_count,
            "projector_dim": params.dims.projector_dim,
        },
        "classifier_bias": params.classifier_b is not None,
        "tensors": {
            name: {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}
            for name, t in params.named_parameters()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format: {doc.get('format')!r}")
    dims_doc = doc.get("dims", {})
    try:
        dims = ModelDims(
            in_dim=int(dims_doc["in_dim"]),
            hidden=tuple(int(h) for h in dims_doc["hidden"]),
            feature_dim=int(dims_doc["feature_dim"]),
            class_count=int(dims_doc["class_count"]),
            projector_dim=int(dims_doc["projector_dim"]),
        )
    except KeyError as exc:
        raise ValueError(f"checkpoint {path} has no dims key {exc.args[0]!r}") from None
    tensors = doc.get("tensors", {})

    def take(name: str) -> Tensor:
        entry = tensors.get(name, {})
        if "data" not in entry or "shape" not in entry:
            raise ValueError(f"checkpoint {path} has no tensor {name!r} with data and shape")
        arr = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        return Tensor(arr, grad_enabled=True)

    params = ModelParams(dims=dims)
    n_layers = len(dims.hidden) + 1
    for i in range(n_layers):
        params.encoder_layers.append((take(f"encoder.{i}.weight"), take(f"encoder.{i}.bias")))
    params.classifier_W = take("classifier.weight")
    if doc.get("classifier_bias"):
        params.classifier_b = take("classifier.bias")
    params.projector_w = take("projector.weight")
    params.projector_b = take("projector.bias")
    return params
