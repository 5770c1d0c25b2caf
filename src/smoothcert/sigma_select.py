"""Weight-noise tolerance search: the largest variance a model shrugs off.

For each candidate variance on an ascending grid, draw a fixed number of
full weight perturbations ``u ~ N(0, sigma2 I)``, measure the mean drop in
plain (noise-free input) accuracy of the perturbed models on a fixed
evaluation subset, and keep the largest variance whose mean drop stays
within tolerance.  The scan exits early at the first violation by default
(the drop is monotone in practice); a full scan is available via the config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .nn import MlpModel
from .train import evaluate

_DROP_EPS = 1e-12


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
        n = int(round((self.grid_stop - self.grid_start) / self.grid_step)) + 1
        values = self.grid_start + self.grid_step * np.arange(n)
        return values[values <= self.grid_stop + 1e-12]


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
    X = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("inputs must be (m, d) with matching (m,) labels")
    if X.shape[1] != model.in_dim:
        raise ValueError("evaluation inputs do not match the model's input dim")
    if X.shape[0] == 0:
        raise ValueError("need at least one evaluation example")
    X, y = X[: cfg.eval_subset], y[: cfg.eval_subset]
    base_acc = evaluate(model, X, y)

    best: float | None = None
    trace: list[tuple[float, float]] = []
    for gi, sigma2 in enumerate(cfg.grid()):
        sig = float(np.sqrt(sigma2))
        accs = np.empty(cfg.n_samples)
        for j in range(cfg.n_samples):
            g = rng.stream(cfg.base_seed, rng.PHASE_SIGMA, gi, j)
            perturbed = MlpModel(
                tuple(w + sig * g.standard_normal(w.shape) for w in model.layers)
            )
            accs[j] = evaluate(perturbed, X, y)
        drop = max(0.0, base_acc - float(accs.mean()))
        trace.append((float(sigma2), drop))
        if drop <= cfg.tolerance + _DROP_EPS:
            best = float(sigma2)
        elif not cfg.full_scan:
            break
    if best is None:
        return SigmaSearchResult(float(cfg.grid()[0]), tuple(trace), True, base_acc)
    return SigmaSearchResult(best, tuple(trace), False, base_acc)
