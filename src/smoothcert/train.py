"""Noise-injected SGD training with a once-per-epoch decorrelation step.

Each minibatch sees fresh Gaussian input noise (variance
``noise_variance``), standard momentum SGD updates the weights, and -- when
the regularizer strength ``alpha`` is positive -- the entrywise L1 norm of
the collapsed-weight cosine matrix is differentiated ONCE per epoch, at the
first minibatch, and applied as a separate plain gradient step at the
current learning rate.  Training is bit-reproducible for a fixed config and
seed: epoch ``e``'s shuffle comes from ``stream(seed, PHASE_SHUFFLE, e)``
and its batch ``b``'s noise from ``stream(seed, PHASE_TRAIN_NOISE, e, b)``,
one ``standard_normal`` of the batch's shape added to ``X[idx]``.

Nothing in that input stream depends on the model, so the noisy batches are
drawn ahead of the SGD step.  The calling thread walks the ``(epoch,
batch)`` plan in order, draws each permutation and derives each batch's
generator itself (so every ``rng`` call stays on it); worker threads only
gather ``X[idx]`` and add the noise, at most two batches per thread ahead,
across epoch boundaries; the SGD step takes the batches in plan order.
numpy releases the GIL while it fills and adds the arrays, so on a second
core the draws overlap the forward, backward and SGD work.  The draws, their
order and the arithmetic are those of a serial loop, so the weights are
bit-identical to it.  Small batches stay in that serial loop: see
``_AHEAD_MIN_VALUES``.
"""

from __future__ import annotations

import os
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, starmap

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

# Fewest noise values in one batch for which the batches are drawn ahead on
# a thread pool.  A hand-off costs more than a small draw.  On 2 Xeon cores
# at one BLAS thread, CLI `train` on the default blobs (256x17 = 4352
# values a batch) took about 0.15 s in line and 0.20-0.30 s on the pool,
# while on digits (256x785 = 201k values) the pool cut it from 1.87 to
# 1.17 s.
_AHEAD_MIN_VALUES = 1 << 16


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
    n_batches = -(-m // cfg.batch_size)

    def plan() -> Iterator[tuple]:
        for epoch in range(1, cfg.epochs + 1):
            perm = rng.stream(cfg.seed, rng.PHASE_SHUFFLE, epoch).permutation(m)
            for b, start in enumerate(range(0, m, cfg.batch_size)):
                g = rng.stream(cfg.seed, rng.PHASE_TRAIN_NOISE, epoch, b) if sigma > 0.0 else None
                yield perm[start : start + cfg.batch_size], g

    def noisy_batch(idx: np.ndarray, g: np.random.Generator | None):
        Xb = X[idx]
        if g is not None:
            Xb = Xb + sigma * g.standard_normal(Xb.shape)
        return idx, Xb

    noise_values = min(m, cfg.batch_size) * X.shape[1] if sigma > 0.0 else 0
    threads = _usable_cores() if noise_values >= _AHEAD_MIN_VALUES else 1
    with _ahead(noisy_batch, plan(), threads) as batches:
        for epoch in range(1, cfg.epochs + 1):
            lr = cfg.lr_at(epoch)
            t0 = time.perf_counter()
            loss_sum = 0.0
            hit_sum = 0
            for b in range(n_batches):
                if b == 0 and cfg.alpha > 0.0:
                    _, reg_grads = regularizer_and_gradient(model)
                    model = plain_step(model, reg_grads, lr * cfg.alpha)
                idx, Xb = next(batches)
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


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def _ahead(fn: Callable, items: Iterable[tuple], threads: int) -> Iterator[Iterator]:
    """``map(fn, items)`` in order; with ``threads > 1`` the calls run on a
    pool of that many threads, at most ``2 * threads`` ahead of the consumer.

    ``items`` is advanced on the calling thread only.  Leaving the block
    cancels the calls not yet started and joins every thread.
    """
    if threads <= 1:
        yield starmap(fn, items)
        return
    items = iter(items)
    pool = ThreadPoolExecutor(max_workers=threads)

    def results() -> Iterator:
        pending = deque(pool.submit(fn, *item) for item in islice(items, 2 * threads))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, *item) for item in islice(items, 1))
            yield result

    try:
        yield results()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def evaluate(model: MlpModel, inputs, labels) -> float:
    """Plain argmax accuracy (ties to the lowest class index)."""
    X = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    logits, _ = forward_batch(model, X)
    return float(np.mean(np.argmax(logits, axis=1) == y))
