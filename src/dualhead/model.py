"""Three-part network: encoder f, classifier head (matrix W), projector head.

The encoder is a small dense MLP standing in for whatever pre-trained
backbone produced the features; the losses are backbone-agnostic, so the
verification story does not depend on its architecture. The classifier is
a bias-free matrix whose rows act as class prototypes. The projector is a
single affine map onto the unit sphere.

``parameter_layout`` alone names the trainable tensors, each a view into
one float64 vector, ``ModelParams.flat``.

A momentum twin shadows the encoder and projector with slowly trailing
copies used exclusively to generate keys; it never sees gradients. It is
the same layout over a second vector, so its update is one in-place mix.
Its classifier slots ride along unread: the live rows are the prototypes
the contrastive classifier loss contrasts against.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import ndgrad as nd
from .ndgrad import NonFiniteError, ShapeError, Tensor

CHECKPOINT_FORMAT = "dualhead-checkpoint-v1"


@dataclass
class ModelDims:
    in_dim: int
    hidden: tuple[int, ...] = (64,)
    feature_dim: int = 32
    class_count: int = 2
    projector_dim: int = 128


def parameter_layout(dims: ModelDims, classifier_bias: bool = False) -> list[tuple[str, tuple[int, ...], float]]:
    """(name, shape, initial std) of every trainable tensor, in storage, draw and checkpoint order.

    Encoder weights are (in x out) and He-scaled; the heads 1/sqrt(fan-in).
    Biases draw from a small normal, not zero, so a relu-dead input cannot
    make an exactly-zero feature row, which unit normalization rejects.
    The optional classifier bias (std 0) starts at zero without a draw.
    """
    sizes = [dims.in_dim, *dims.hidden, dims.feature_dim]
    layout = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        layout.append((f"encoder.{i}.weight", (fan_in, fan_out), np.sqrt(2.0 / fan_in)))
        layout.append((f"encoder.{i}.bias", (fan_out,), 0.1))
    d, c, proj = dims.feature_dim, dims.class_count, dims.projector_dim
    layout.append(("classifier.weight", (c, d), 1.0 / np.sqrt(d)))  # rows are class prototypes
    if classifier_bias:
        layout.append(("classifier.bias", (c,), 0.0))
    layout.append(("projector.weight", (d, proj), 1.0 / np.sqrt(d)))
    layout.append(("projector.bias", (proj,), 0.1))
    return layout


class ModelParams:
    """All trainable tensors, zero at first, each a view into the one vector ``flat``.

    A tensor's ``data`` is never rebound: a write to either side shows in
    the other. ``slices`` gives each name's span of ``flat``. With
    ``replicas`` R, ``flat`` is (R x P) and every tensor is stacked: a fit
    group's R layouts on ``ndgrad``'s replica axis.
    """

    grad_enabled = True

    def __init__(self, dims: ModelDims, classifier_bias: bool = False, replicas: int | None = None):
        self.dims = dims
        self.layout = parameter_layout(dims, classifier_bias)
        size = sum(math.prod(shape) for _, shape, _ in self.layout)
        self._bind(np.zeros(size if replicas is None else (replicas, size)))

    def _bind(self, flat: np.ndarray) -> None:
        """Lay the tensors out over ``flat``: (P,), or (R x P) for stacked tensors."""
        self.flat = flat
        lead = flat.shape[:-1]
        self.slices: dict[str, slice] = {}
        self._named: list[tuple[str, Tensor]] = []
        start = 0
        for name, shape, _ in self.layout:
            span = slice(start, start + math.prod(shape))
            view = flat[..., span].reshape(lead + shape)
            t = Tensor(view, grad_enabled=self.grad_enabled)
            t.data, t.stacked = view, bool(lead)  # the constructor copies; the tensor must see flat
            self.slices[name] = span
            self._named.append((name, t))
            start = span.stop
        tensors = [t for _, t in self._named]
        n_enc = 2 * (len(self.dims.hidden) + 1)
        self.encoder_layers = list(zip(tensors[0:n_enc:2], tensors[1:n_enc:2]))
        self.classifier_W, *bias, self.projector_w, self.projector_b = tensors[n_enc:]
        self.classifier_b = bias[0] if bias else None

    @property
    def stacked(self) -> bool:
        return self.flat.ndim == 2

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._named)

    def replicas(self) -> list[ModelParams]:
        """One unstacked layout per replica of a stacked layout, each over its row of ``flat``."""
        out = []
        for row in self.flat:
            view = copy.copy(self)
            view._bind(row)
            out.append(view)
        return out


class MomentumTwin(ModelParams):
    """Trailing copy of the live layout, used only to produce keys.

    Its tensors are grad-disabled and change only through ``momentum_update``,
    so nothing computed from them joins the tape.
    """

    grad_enabled = False

    def __init__(self, params: ModelParams, m: float):
        super().__init__(params.dims, params.classifier_b is not None, params.flat.shape[0] if params.stacked else None)
        self.flat[:] = params.flat
        self.m = float(m)


def stack(replicas: list[ModelParams]) -> ModelParams:
    """One layout stacking the given ones' vectors on the replica axis, a lone one as a stack of one."""
    first = replicas[0]
    params = ModelParams(first.dims, first.classifier_b is not None, len(replicas))
    params.flat[:] = [p.flat for p in replicas]
    return params


def init_params(dims: ModelDims, rng: np.random.Generator, classifier_bias: bool = False) -> ModelParams:
    """Random initialization: each tensor draws N(0, std) in layout order."""
    params = ModelParams(dims, classifier_bias)
    for (_, shape, std), (_, t) in zip(params.layout, params.named_parameters()):
        if std:
            t.data[...] = rng.normal(0.0, std, size=shape)
    return params


def _encode(layers: list[tuple[Tensor, Tensor]], x: Tensor) -> Tensor:
    h = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = nd.linear(h, w, b)
        if i != last:
            h = nd.relu(h)
    return h


def _project(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The projector head: affine map onto the unit sphere."""
    return nd.row_l2_normalize(nd.linear(h, w, b))


def forward_query(params: ModelParams, x: Tensor, project: bool = True) -> tuple[Tensor, Tensor | None, Tensor]:
    """Live forward pass: features h, unit projection z, class logits.

    h is left unnormalized (the classifier consumes it raw); z is the
    projector output scaled to the unit sphere, or None without
    ``project``, the evaluation path. Everything stays on the gradient tape.
    """
    if x.data.ndim != 2 + x.stacked or x.shape[-1] != params.dims.in_dim:
        raise ShapeError(f"expected input (b x {params.dims.in_dim}), got {x.shape}")
    h = _encode(params.encoder_layers, x)
    logits = nd.linear(h, params.classifier_W, params.classifier_b, w_rows=True)
    return h, _project(h, params.projector_w, params.projector_b) if project else None, logits


def forward_key(twin: MomentumTwin, x: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """Key path through the twin: unit-normalized h and z, as plain arrays.

    Both outputs are scaled to unit rows (keys are compared by dot
    product) and leave as arrays, not tensors, so no gradient can reach
    either the twin or the live parameters.
    """
    h = _encode(twin.encoder_layers, x)
    return nd.row_l2_normalize(h).data, _project(h, twin.projector_w, twin.projector_b).data


def init_twin(params: ModelParams, m: float) -> MomentumTwin:
    """Copy the live vector into a trailing twin with momentum m."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"momentum coefficient must be in [0, 1], got {m}")
    return MomentumTwin(params, m)


def momentum_update(twin: MomentumTwin, params: ModelParams) -> None:
    """Mix the twin toward the live parameters in place: m*old + (1-m)*new."""
    if twin.layout != params.layout:
        raise ShapeError("twin layout differs from the live parameter layout")
    twin.flat *= twin.m
    twin.flat += (1.0 - twin.m) * params.flat


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Write parameters as JSON: shapes plus full-precision float64 values.

    Python's JSON float serialization uses shortest round-trip repr, so
    load(save(p)) reproduces every bit.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "dims": asdict(params.dims),
        "classifier_bias": params.classifier_b is not None,
        "tensors": {
            name: {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}
            for name, t in params.named_parameters()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path: str) -> ModelParams:
    """Read a checkpoint back into the layout its dims give, checking every tensor's name and shape."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format: {doc.get('format')!r}")
    dims_doc = doc.get("dims", {})
    try:
        sizes = {key: int(dims_doc[key]) for key in ("in_dim", "feature_dim", "class_count", "projector_dim")}
        dims = ModelDims(hidden=tuple(int(h) for h in dims_doc["hidden"]), **sizes)
    except KeyError as exc:
        raise ValueError(f"checkpoint {path} has no dims key {exc.args[0]!r}") from None
    params = ModelParams(dims, bool(doc.get("classifier_bias")))
    tensors = doc.get("tensors", {})
    unknown = sorted(set(tensors) - set(params.slices))
    if unknown:
        raise ValueError(f"checkpoint {path} has tensor {unknown[0]!r}, which its parameter layout does not name")
    for name, t in params.named_parameters():
        entry = tensors.get(name, {})
        if "data" not in entry or "shape" not in entry:
            raise ValueError(f"checkpoint {path} has no tensor {name!r} with data and shape")
        values = np.array(entry["data"], dtype=np.float64)
        if entry["shape"] != list(t.shape) or values.size != t.data.size:
            raise ValueError(f"checkpoint {path} tensor {name!r} holds {values.size} values of shape {entry['shape']};"
                             f" its dims give shape {list(t.shape)}")
        if not np.isfinite(values).all():
            raise NonFiniteError(f"checkpoint {path} tensor {name!r} holds a non-finite value")
        t.data[...] = values.reshape(t.shape)
    return params
