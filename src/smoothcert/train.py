"""Noise-injected SGD training with a once-per-epoch decorrelation step.

Each minibatch sees fresh Gaussian input noise (variance
``noise_variance``), standard momentum SGD updates the weights, and -- when
the regularizer strength ``alpha`` is positive -- the entrywise L1 norm of
the collapsed-weight cosine matrix is differentiated ONCE per epoch, on the
end-of-epoch weights (and once on the initial ones), and applied before the
next epoch's first minibatch as a separate plain gradient step at that
epoch's learning rate.  Training is bit-reproducible for a fixed config and
seed: epoch ``e``'s shuffle comes from ``stream(seed, PHASE_SHUFFLE, e)``
and its batch ``b``'s noise from ``stream(seed, PHASE_TRAIN_NOISE, e, b)``,
one ``standard_normal`` of the batch's shape added to ``X[idx]``.

Nothing in that input stream depends on the model, so the noisy batches are
drawn ahead of the SGD step.  The calling thread walks the ``(epoch,
batch)`` plan in order, draws each permutation and derives each batch's
generator itself (so every ``rng`` call stays on it); gathering ``X[idx]``
and adding the noise is ``ahead``'s item, run by a helper thread or, when
the SGD step finds its next batch not ready, by the calling thread itself.
At most two batches per thread are drawn ahead of the SGD step, across
epoch boundaries, and the step takes them in plan order.  numpy releases
the GIL while it fills and adds the arrays, so on a second core the draws
overlap the forward, backward and SGD work.  The draws, their order and
the arithmetic are those of a serial loop, so the weights are
bit-identical to it.  Batches of fewer than 2^16 noise values stay in
that serial loop (``_threads``).

``ahead`` is that ordered, bounded map, on ``threads`` threads of which the
calling thread is one: each drawn item goes to a ``ThreadPoolExecutor`` of
``threads - 1`` helpers, and cancelling its future claims it, so that
whichever thread takes an item first runs it.  Its other callers are
``cli``'s ``certify --workers`` (its samples), ``smoothing``'s vote loop
(the vote chunks of ``certify`` and of the margin loss) and
``select_sigma`` (its perturbation blocks).  Training, the vote loop and
the sigma search take their thread count from ``_threads``, which counts
the normal deviates one item draws.  An ``ahead`` called inside an item,
on any thread, runs in line, so a certify call mapped over the cores
(``certify --workers``) starts no threads of its own for its chunks.
"""

from __future__ import annotations

import os
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import Context, ContextVar
from dataclasses import dataclass
from itertools import islice, starmap

import numpy as np

from . import rng
from .nn import (
    MlpModel,
    _labelled,
    backward_batch,
    cross_entropy_batch,
    forward_batch,
    plain_step,
    sgd_step,
)
from .spectral import regularizer_and_gradient

# Fewest normal deviates drawn by one item for which ``_threads`` spreads
# ``ahead``'s items over the cores: while an item's numpy calls run, the
# threads hand the GIL over, so short items lose.  On 2 Xeon cores at one
# BLAS thread, CLI `train` on the default blobs (4,352 normals a batch) took
# 0.15 s in line and 0.20-0.30 s threaded; on digits (201k) threads cut it
# from 1.87 to 1.17 s.  Two threads over the serial time, with the other
# core idle / busy: 17->32^3->3 vote items of 464k normals 0.55-0.60 /
# 0.77-0.92, 119k 0.64-0.69 / 0.90-0.91, certify's 512-vote chunks of 59k
# 0.67-0.73 / 1.01-1.04 (two in flight would also double a certify call's
# arrays); 785->32^3->10 chunks of 71k 0.72-0.79 / 0.96-1.02.
_ITEM_MIN_NORMALS = 1 << 16


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
    """Raised when training overflows or goes non-finite; carries the last
    end-of-epoch checkpoint and the metrics gathered so far."""

    def __init__(self, epoch: int, model: MlpModel, metrics: list[EpochMetrics]):
        super().__init__(f"training diverged (non-finite values) in epoch {epoch}")
        self.epoch = epoch
        self.model = model
        self.metrics = metrics


def train(
    model: MlpModel, inputs, labels, cfg: TrainConfig
) -> tuple[MlpModel, list[EpochMetrics]]:
    """Run the full schedule; returns the final model and per-epoch metrics.

    ``inputs`` must already live in the model's input space (bias-augmented
    by the caller if the model expects it); ``nn._labelled`` checks the set,
    non-finite entries included, before the first epoch.  Per-epoch
    ``reg_value`` is the regularizer evaluated on the END-of-epoch weights,
    so it matches a fresh spectral recomputation on that epoch's checkpoint.
    ``train_acc`` is the running accuracy over the noisy minibatches the
    optimizer actually saw.
    """
    X, y = _labelled(model, inputs, labels)
    m = X.shape[0]
    sigma = float(np.sqrt(cfg.noise_variance))
    velocities = [np.zeros_like(w) for w in model.layers]
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

    normals = min(m, cfg.batch_size) * X.shape[1] if sigma > 0.0 else 0
    threads = _threads(normals, cfg.epochs * n_batches)
    try:
        with np.errstate(over="raise", invalid="raise"), \
                ahead(noisy_batch, plan(), threads) as batches:
            if cfg.alpha > 0.0:
                _, reg_grads = regularizer_and_gradient(model)
            for epoch in range(1, cfg.epochs + 1):
                lr = cfg.lr_at(epoch)
                t0 = time.perf_counter()
                if cfg.alpha > 0.0:
                    model = plain_step(model, reg_grads, lr * cfg.alpha)
                loss_sum = 0.0
                hit_sum = 0
                for _ in range(n_batches):
                    idx, Xb = next(batches)
                    logits, layer_inputs = forward_batch(model, Xb)
                    loss, dlogits = cross_entropy_batch(logits, y[idx])
                    if not np.isfinite(loss):
                        raise TrainingDiverged(epoch, checkpoint, metrics)
                    grads = backward_batch(model, layer_inputs, dlogits)
                    model = sgd_step(model, grads, velocities, lr, cfg.momentum, cfg.weight_decay)
                    loss_sum += loss * idx.shape[0]
                    hit_sum += int(np.sum(np.argmax(logits, axis=1) == y[idx]))
                reg_value, reg_grads = regularizer_and_gradient(model)
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
    except FloatingPointError:
        raise TrainingDiverged(len(metrics) + 1, checkpoint, metrics) from None
    return model, metrics


# True inside ``ahead``'s items, on its helper threads and on the calling
# thread while it runs one, so that an ``ahead`` called there runs in line.
_in_item: ContextVar[bool] = ContextVar("_in_item", default=False)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _threads(normals: int, items: int) -> int:
    """``ahead``'s thread count for ``items`` items of ``normals`` normal
    deviates each: one per usable core and at most one per item once an item
    draws ``_ITEM_MIN_NORMALS``, else the calling thread alone."""
    return min(_usable_cores(), items) if normals >= _ITEM_MIN_NORMALS else 1


@contextmanager
def ahead(fn: Callable, items: Iterable[tuple], threads: int) -> Iterator[Iterator]:
    """``map(fn, items)`` in order, on ``threads`` threads: the calling
    thread and a ``ThreadPoolExecutor`` of ``threads - 1`` helpers.

    ``items`` is advanced on the calling thread only, at most ``2 *
    threads`` items ahead of the consumer, and submits each to the pool.
    When the next result is not ready, the calling thread claims the first
    drawn item no helper has started, by cancelling its future, and runs it
    instead of waiting; it waits only when every drawn item has started.
    An item's error is raised in its turn, a ``BaseException`` of the
    calling thread's own item at once.  The calling thread runs its items
    in a context of their own, as a new thread would, so the consumer's
    ``np.errstate`` reaches no item on any thread.  Leaving the block
    cancels the items not yet started and shuts the pool down.  Called
    inside an item, on any thread, the calls run in line: the outer map
    already has the cores.
    """
    if threads <= 1 or _in_item.get():
        yield starmap(fn, items)
    else:
        yield from _threaded(fn, iter(items), threads)


def _threaded(fn: Callable, items: Iterator[tuple], threads: int) -> Iterator[Iterator]:
    """``ahead`` on threads, kept apart so that the in-line path's frame
    holds none of this state; shuts the pool down when resumed or closed."""
    own = Context()
    own.run(_in_item.set, True)
    # (future, slot) of each item drawn, not taken: the slot holds its args
    # until a thread starts it, then its outcome until taken, then nothing
    pending: deque[tuple[Future, list]] = deque()

    def start(slot: list) -> None:
        # a BaseException leaves: on a helper through its future, else at once
        args = slot.pop()
        try:
            slot.append((fn(*args), None))
        except Exception as e:
            slot.append((None, e))

    def draw(count: int) -> None:
        for args in islice(items, count):
            slot = [args]
            pending.append((pool.submit(start, slot), slot))

    def results() -> Iterator:
        draw(2 * threads)
        while pending:
            for future, slot in pending:
                if pending[0][0].done():
                    break
                # the claim; cancel() is also true of an item claimed before
                if not future.done() and future.cancel():
                    own.run(start, slot)
            future, slot = pending.popleft()
            if not future.cancelled():
                future.result()  # waits for the helper, raises its BaseException
            result, error = slot.pop()
            if error is not None:
                raise error
            draw(1)
            yield result

    pool = ThreadPoolExecutor(threads - 1, initializer=_in_item.set, initargs=(True,))
    try:
        yield results()
    finally:
        pool.shutdown(cancel_futures=True)
