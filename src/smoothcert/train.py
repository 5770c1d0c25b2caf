"""Noise-injected SGD training with a once-per-epoch decorrelation step.

Each minibatch sees fresh Gaussian input noise (variance
``noise_variance``), standard momentum SGD updates the weights, and -- when
the regularizer strength ``alpha`` is positive -- the entrywise L1 norm of
the collapsed-weight cosine matrix is differentiated ONCE per epoch, at the
first minibatch, and applied as a separate plain gradient step at the
current learning rate.  Training is bit-reproducible for a fixed config and
seed: epoch shuffles and per-batch noise come from derived streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import rng
from .nn import (
    MlpModel,
    SgdState,
    backward_batch,
    cross_entropy_batch,
    forward_batch,
    plain_step,
    sgd_step,
)
from .spectral import regularizer_and_gradient


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 256
    lr: float = 0.1
    lr_drops: tuple[tuple[int, float], ...] = ((10, 10.0), (20, 10.0))
    momentum: float = 0.9
    weight_decay: float = 0.0
    noise_variance: float = 0.12
    alpha: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        reals = (self.lr, self.weight_decay, self.noise_variance, self.alpha,
                 *(f for _, f in self.lr_drops))
        if not np.isfinite(reals).all():
            raise ValueError("lr, weight_decay, noise_variance, alpha and lr drop "
                             "divisors must be finite")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0.0 or self.noise_variance < 0.0 or self.alpha < 0.0:
            raise ValueError("weight_decay, noise_variance and alpha must be >= 0")
        if any(e < 1 or f <= 0.0 for e, f in self.lr_drops):
            raise ValueError("lr drops need epoch >= 1 and a positive divisor")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def lr_at(self, epoch: int) -> float:
        """Learning rate for a 1-based epoch: base lr divided by every drop
        whose epoch has been reached."""
        lr = self.lr
        for at, divisor in self.lr_drops:
            if epoch >= at:
                lr /= divisor
        return lr


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    loss: float
    train_acc: float
    reg_value: float
    seconds: float
    lr: float


class TrainingDiverged(RuntimeError):
    """Raised when the loss goes non-finite; carries the last end-of-epoch
    checkpoint and the metrics gathered so far."""

    def __init__(self, epoch: int, model: MlpModel, metrics: list[EpochMetrics]):
        super().__init__(f"training diverged (non-finite loss) in epoch {epoch}")
        self.epoch = epoch
        self.model = model
        self.metrics = metrics


def train(
    model: MlpModel, inputs, labels, cfg: TrainConfig
) -> tuple[MlpModel, list[EpochMetrics]]:
    """Run the full schedule; returns the final model and per-epoch metrics.

    ``inputs`` must already live in the model's input space (bias-augmented
    by the caller if the model expects it).  Per-epoch ``reg_value`` is the
    regularizer evaluated on the END-of-epoch weights, so it matches a fresh
    spectral recomputation on that epoch's checkpoint.  ``train_acc`` is the
    running accuracy over the noisy minibatches the optimizer actually saw.
    """
    X = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("inputs must be (m, d) with matching (m,) labels")
    if X.shape[1] != model.in_dim:
        raise ValueError("training inputs do not match the model's input dim")
    m = X.shape[0]
    if m == 0:
        raise ValueError("need at least one training example")
    sigma = float(np.sqrt(cfg.noise_variance))
    state = SgdState.zeros_like(model)
    metrics: list[EpochMetrics] = []
    checkpoint = model

    for epoch in range(1, cfg.epochs + 1):
        lr = cfg.lr_at(epoch)
        t0 = time.perf_counter()
        perm = rng.stream(cfg.seed, rng.PHASE_SHUFFLE, epoch).permutation(m)
        loss_sum = 0.0
        hit_sum = 0
        for b, start in enumerate(range(0, m, cfg.batch_size)):
            idx = perm[start : start + cfg.batch_size]
            if b == 0 and cfg.alpha > 0.0:
                _, reg_grads = regularizer_and_gradient(model)
                model = plain_step(model, reg_grads, lr * cfg.alpha)
            Xb = X[idx]
            if sigma > 0.0:
                g = rng.stream(cfg.seed, rng.PHASE_TRAIN_NOISE, epoch, b)
                Xb = Xb + sigma * g.standard_normal(Xb.shape)
            logits, cache = forward_batch(model, Xb)
            loss, dlogits = cross_entropy_batch(logits, y[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, checkpoint, metrics)
            grads = backward_batch(model, cache, dlogits)
            model = sgd_step(model, grads, state, lr, cfg.momentum, cfg.weight_decay)
            loss_sum += loss * idx.shape[0]
            hit_sum += int(np.sum(np.argmax(logits, axis=1) == y[idx]))
        reg_value, _ = regularizer_and_gradient(model)
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                loss=loss_sum / m,
                train_acc=hit_sum / m,
                reg_value=reg_value,
                seconds=time.perf_counter() - t0,
                lr=lr,
            )
        )
        checkpoint = model
    return model, metrics


def evaluate(model: MlpModel, inputs, labels) -> float:
    """Plain argmax accuracy (ties to the lowest class index)."""
    X = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    logits, _ = forward_batch(model, X)
    return float(np.mean(np.argmax(logits, axis=1) == y))
