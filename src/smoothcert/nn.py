"""Dense ReLU multi-layer perceptron: batch forward and gradients, SGD.

All arrays are 64-bit floats.  A model is an immutable stack of weight
matrices; layer ``i`` maps ``dims[i] -> dims[i+1]`` and every layer except
the last is followed by ReLU.  Biases are not separate parameters: callers
that want them append a constant-1 coordinate to their inputs (see
``data.augment``) so the bias column lives inside the first weight matrix.

The ReLU derivative at exactly 0 is taken to be 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import rng

Matrix = np.ndarray


def _as_f64(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {out.shape}")
    return out


def _labelled(model: MlpModel, inputs, labels) -> tuple[np.ndarray, np.ndarray]:
    """Check a labelled set against ``model``: float64 inputs (m, d), m >= 1,
    all finite; ``y = np.asarray(labels)``, uncast, each in [0, k)."""
    X = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("inputs must be (m, d) with matching (m,) labels")
    if X.shape[0] == 0:
        raise ValueError("need at least one example")
    if X.shape[1] != model.in_dim:
        raise ValueError(f"input dim {X.shape[1]} != model input dim {model.in_dim}")
    if not np.isfinite(X).all():
        raise ValueError("inputs have non-finite entries")
    lo, hi = y.min(), y.max()
    if lo < 0 or hi >= model.out_dim:
        bad = hi if hi >= model.out_dim else lo
        raise ValueError(f"label {bad} is not a class of the model: "
                         f"labels must lie in [0, {model.out_dim})")
    return X, y


@dataclass(frozen=True)
class MlpModel:
    """Immutable stack of finite float64 weight matrices, each shaped (out,
    in): the one check of the weights, so no consumer repeats it."""

    layers: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if len(self.layers) < 1:
            raise ValueError("model needs at least one layer")
        prepared = []
        for i, w in enumerate(self.layers):
            w = _as_f64(w).copy()
            if w.shape[0] < 1 or w.shape[1] < 1:
                raise ValueError(f"layer {i} has empty shape {w.shape}")
            if prepared and w.shape[1] != prepared[-1].shape[0]:
                raise ValueError(
                    f"layer {i} input dim {w.shape[1]} != layer {i-1} output dim "
                    f"{prepared[-1].shape[0]}"
                )
            if not np.isfinite(w).all():
                raise ValueError(f"non-finite weights in layer {i}")
            w.flags.writeable = False
            prepared.append(w)
        object.__setattr__(self, "layers", tuple(prepared))

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.layers[0].shape[1],) + tuple(w.shape[0] for w in self.layers)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].shape[0]

    @cached_property
    def row_basis(self) -> tuple[Matrix, Matrix] | None:
        """Orthonormal basis ``Q`` (d, h) of the first layer's row space, and
        ``W0 @ Q`` with one zero column appended, or None when the first
        layer has at least as many rows as columns.

        ``W0 z`` depends on ``z`` only through ``Q.T @ z``; the zero column
        stands for one more direction orthogonal to that space, which ``W0``
        maps to zero.  Computed on first use and kept, since the layers
        never change.
        """
        w = self.layers[0]
        if w.shape[0] >= w.shape[1]:
            return None
        q = np.linalg.qr(w.T)[0]
        p = np.zeros((w.shape[0], q.shape[1] + 1))
        p[:, :-1] = w @ q
        q.flags.writeable = p.flags.writeable = False
        return q, p


def init_model(dims: Sequence[int], seed: int = 0) -> MlpModel:
    """He-style Gaussian init: entries ~ N(0, 2/fan_in), one stream per layer."""
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise ValueError("need at least an input and an output dim")
    layers = []
    for i in range(len(dims) - 1):
        g = rng.stream(seed, rng.PHASE_INIT, i)
        scale = np.sqrt(2.0 / dims[i])
        layers.append(g.standard_normal((dims[i + 1], dims[i])) * scale)
    return MlpModel(tuple(layers))


def forward_batch(model: MlpModel, X: np.ndarray) -> tuple[np.ndarray, tuple[Matrix, ...]]:
    """Logits (m, k) for a batch of row-vector inputs (m, d), and the tuple
    of every layer's input, which ``backward_batch`` takes."""
    Z = np.asarray(X, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != model.in_dim:
        raise ValueError(
            f"input shape {Z.shape} incompatible with model input dim {model.in_dim}"
        )
    inputs = []
    last = model.n_layers - 1
    for i, w in enumerate(model.layers):
        inputs.append(Z)
        A = Z @ w.T
        Z = np.maximum(A, 0.0) if i != last else A
    return Z, tuple(inputs)


def backward_batch(
    model: MlpModel, inputs: Sequence[Matrix], upstream: np.ndarray
) -> tuple[Matrix, ...]:
    """Per-layer gradients of sum_r <upstream[r], logits[r]> over a batch
    (summed), from the layer inputs that ``forward_batch`` returned.

    A hidden unit passes gradient where its ReLU output ``inputs[i]`` is
    positive, which is where its pre-activation is.
    """
    if len(inputs) != model.n_layers:
        raise ValueError("layer inputs do not match the model's layer count")
    delta = np.asarray(upstream, dtype=np.float64)
    if delta.ndim != 2 or delta.shape[1] != model.out_dim:
        raise ValueError(f"upstream shape {delta.shape} incompatible with batch backward")
    grads: list[Matrix] = [None] * model.n_layers  # type: ignore[list-item]
    for i in range(model.n_layers - 1, -1, -1):
        grads[i] = delta.T @ inputs[i]
        if i > 0:
            delta = (delta @ model.layers[i]) * (inputs[i] > 0.0)
    return tuple(grads)


def cross_entropy_batch(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over a batch and the logit gradient of the mean."""
    Z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    if Z.ndim != 2 or y.shape != (Z.shape[0],):
        raise ValueError("logits must be (m, k) with matching (m,) labels")
    if y.size and (y.min() < 0 or y.max() >= Z.shape[1]):
        raise ValueError("label out of range")
    with np.errstate(invalid="ignore", over="ignore"):
        m = Z.max(axis=1, keepdims=True)
        exps = np.exp(Z - m)
        total = exps.sum(axis=1, keepdims=True)
        rows = np.arange(Z.shape[0])
        losses = np.log(total[:, 0]) + m[:, 0] - Z[rows, y]
        grad = exps / total
        grad[rows, y] -= 1.0
        return float(losses.mean()), grad / Z.shape[0]


def sgd_step(
    model: MlpModel,
    grads: Sequence[Matrix],
    velocities: Sequence[Matrix],
    lr: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> MlpModel:
    """One classic momentum-SGD update; returns the updated model.

    v <- momentum*v + g + weight_decay*w ;  w <- w - lr*v.
    ``grads`` and ``velocities`` hold one array per layer; the velocities are
    updated in place.  Non-finite gradients abort with FloatingPointError.
    """
    if len(grads) != model.n_layers or len(velocities) != model.n_layers:
        raise ValueError("gradient/velocity layer count does not match the model")
    new_layers = []
    for i, (w, g, v) in enumerate(zip(model.layers, grads, velocities)):
        if g.shape != w.shape:
            raise ValueError(f"gradient shape {g.shape} != layer shape {w.shape} at layer {i}")
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in layer {i}")
        eff = g if weight_decay == 0.0 else g + weight_decay * w
        v *= momentum
        v += eff
        new_layers.append(w - lr * v)
    return MlpModel(tuple(new_layers))


def plain_step(model: MlpModel, grads: Sequence[Matrix], step_size: float) -> MlpModel:
    """w <- w - step_size * g for every layer (no momentum, no decay)."""
    if len(grads) != model.n_layers:
        raise ValueError("gradient layer count does not match the model")
    for i, g in enumerate(grads):
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in layer {i}")
    return MlpModel(tuple(w - step_size * g for w, g in zip(model.layers, grads)))
