"""Weight-noise tolerance search: the largest variance a model shrugs off.

For each candidate variance on an ascending grid, draw a fixed number of
full weight perturbations ``u ~ N(0, sigma2 I)``, measure the mean drop in
plain (noise-free input) accuracy of the perturbed models on a fixed
evaluation subset, and keep the largest variance whose mean drop stays
within tolerance.  The scan exits early at the first violation by default
(the drop is monotone in practice); a full scan is available via the config.

Perturbation ``j`` of grid point ``gi`` draws from
``stream(base_seed, PHASE_SIGMA, gi, j)``, layer by layer in order, as
``w + sqrt(sigma2) * standard_normal(w.shape)``.  The perturbations run in
blocks of at most ``max(1, _BLOCK_COLS // h0)`` for a first layer of ``h0``
rows: a block's first layers are stacked and applied to the evaluation set
in one product (about twice the rate of ``h0``-column ones on
785->32^3->10), whose columns each perturbation then finishes on its own.
The ``n_samples`` perturbations are cut into the fewest equal blocks (sizes
differ by at most one) whose count is a multiple of the thread count, and
the blocks run over ``train.ahead`` on the threads ``train._threads``
gives for the largest block's normals, one per weight of each perturbation
(16 x 27,488 on 785->32^3->10): 50 perturbations of a 32-row first layer
make 4 blocks of 12 or 13 on two cores, so that no core idles on a short
last block.  A running block, one per thread, holds its stacked first
layers and their product: at most ``(d + m) * max(h0, _BLOCK_COLS)``
floats for ``m`` evaluation examples, 11 MB on 2000 x 785 digits and 8.5
MB on 2048 x 17 blobs.  The threads pay only at one BLAS thread: at
OpenBLAS's default, BLAS runs each wide product on every core.

The calling thread makes every block's generators in draw order, so every
``rng`` call stays on it, as in ``train`` and the margin loss, and scores
blocks itself as the helpers do, one thread per core in all.  Neither the
blocking nor the thread count, nor which thread scores a block, changes the
draws or the arithmetic of any output column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .nn import MlpModel, _labelled, forward_batch
from .train import _threads, ahead

_DROP_EPS = 1e-12
_BLOCK_COLS = 512


@dataclass(frozen=True)
class SigmaSearchConfig:
    """Grid of candidate variances and evaluation budget.

    The grid is over the noise VARIANCE sigma^2: start, stop, step.
    ``tolerance`` is the largest acceptable mean accuracy drop (0.02 for
    MNIST-like data, 0.05 for harder datasets).  ``eval_subset`` caps the
    number of evaluation examples (the first ones, a deterministic choice).
    """

    grid_start: float = 0.01
    grid_stop: float = 1.00
    grid_step: float = 0.01
    n_samples: int = 50
    tolerance: float = 0.02
    eval_subset: int = 2048
    base_seed: int = 0
    full_scan: bool = False

    def __post_init__(self) -> None:
        if not np.isfinite((self.grid_start, self.grid_stop, self.grid_step,
                            self.tolerance)).all():
            raise ValueError("grid_start, grid_stop, grid_step and tolerance must be finite")
        if not 0.0 < self.grid_start <= self.grid_stop:
            raise ValueError("need 0 < grid_start <= grid_stop")
        if self.grid_step <= 0.0:
            raise ValueError("grid_step must be positive")
        if self.n_samples < 1 or self.eval_subset < 1:
            raise ValueError("n_samples and eval_subset must be >= 1")
        if self.tolerance < 0.0:
            raise ValueError("tolerance must be >= 0")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")

    def grid(self) -> np.ndarray:
        return _grid(self.grid_start, self.grid_stop, self.grid_step)


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    """``start + i * step`` up to ``stop`` + 1e-12: the variance and radius grids."""
    values = start + step * np.arange(int(round((stop - start) / step)) + 1)
    return values[values <= stop + 1e-12]


@dataclass(frozen=True)
class SigmaSearchResult:
    """Selected variance, the (sigma2, mean_drop) trace, and a flag that is
    set when no grid point qualified (the grid minimum is returned then)."""

    sigma2: float
    trace: tuple[tuple[float, float], ...]
    flagged_none_qualified: bool
    base_accuracy: float


def select_sigma(model: MlpModel, inputs, labels, cfg: SigmaSearchConfig) -> SigmaSearchResult:
    """Largest grid variance whose mean perturbed-accuracy drop <= tolerance."""
    X, y = _labelled(model, inputs, labels)
    X, y = X[: cfg.eval_subset], y[: cfg.eval_subset]
    base_acc = float(np.mean(np.argmax(forward_batch(model, X)[0], axis=1) == y))

    best: float | None = None
    trace: list[tuple[float, float]] = []
    grid = cfg.grid()
    for gi, sigma2 in enumerate(grid):
        accs = _perturbed_accuracies(model, X, y, float(np.sqrt(sigma2)), gi, cfg)
        drop = max(0.0, base_acc - float(accs.mean()))
        trace.append((float(sigma2), drop))
        if drop <= cfg.tolerance + _DROP_EPS:
            best = float(sigma2)
        elif not cfg.full_scan:
            break
    if best is None:
        return SigmaSearchResult(float(grid[0]), tuple(trace), True, base_acc)
    return SigmaSearchResult(best, tuple(trace), False, base_acc)


def _perturbed_accuracies(model: MlpModel, X: np.ndarray, y: np.ndarray, sig: float,
                          gi: int, cfg: SigmaSearchConfig) -> np.ndarray:
    """Plain accuracy of each of grid point ``gi``'s ``n_samples`` perturbed
    models, in draw order (see the module docstring)."""
    n = cfg.n_samples
    per_block = max(1, _BLOCK_COLS // model.layers[0].shape[0])
    threads = _threads(min(per_block, n) * sum(w.size for w in model.layers), n)
    blocks = -(-n // per_block)
    blocks = -(-blocks // threads) * threads
    cuts = [n * i // blocks for i in range(blocks + 1)]

    def items():
        for start, stop in zip(cuts, cuts[1:]):
            yield model, X, y, sig, [rng.stream(cfg.base_seed, rng.PHASE_SIGMA, gi, j)
                                     for j in range(start, stop)]

    with ahead(_block_accuracies, items(), threads) as results:
        return np.concatenate(list(results))


def _block_accuracies(model: MlpModel, X: np.ndarray, y: np.ndarray, sig: float,
                      gens: list) -> np.ndarray:
    """Accuracies of one block's perturbations, one per generator in
    ``gens``: their first layers stacked into one product with ``X``."""
    w0, rest = model.layers[0], model.layers[1:]
    h0 = w0.shape[0]
    firsts = np.empty((len(gens) * h0, w0.shape[1]))
    rests = []
    for b, g in enumerate(gens):
        rows = firsts[b * h0:(b + 1) * h0]
        g.standard_normal(out=rows)
        rows *= sig
        rows += w0
        rests.append([w + sig * g.standard_normal(w.shape) for w in rest])
    A = X @ firsts.T
    accs = np.empty(len(gens))
    for b, ws in enumerate(rests):
        Z = A[:, b * h0:(b + 1) * h0]
        for w in ws:
            Z = np.maximum(Z, 0.0) @ w.T
        accs[b] = np.mean(np.argmax(Z, axis=1) == y)
    return accs
