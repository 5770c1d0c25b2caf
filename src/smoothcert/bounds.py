"""Closed-form generalization-bound and robustness-budget formulas.

Everything here is deterministic 64-bit arithmetic on scalars and short
vectors of per-layer norms.  The pieces:

* ``tau_solve`` -- the chi-square quantile tau at probability sqrt(2)/2
  for the (bias-augmented) input dimension.
* ``psi`` -- the weight-noise variance budget implied by a margin ``gamma``,
  an input-norm bound ``B``, ``tau``, the layer count, the hidden width and
  the per-layer spectral norms.  Decreasing in every spectral norm.
* ``phi`` -- a scale-invariant flatness summary: sum of squared
  Frobenius-to-spectral ratios divided by psi normalized by the geometric
  mean of the squared spectral norms.
* ``kl_term`` -- sum of squared Frobenius norms over 2*psi.
* ``generalization_bound`` -- empirical smoothed margin loss plus
  4*sqrt((KL + ln(6m/delta)) / (m-1)).
* ``eps_x`` / input-space budget and its square-root relation to the
  certified radius (``sqrt(eps_x(pa, pb, sigma^2)) == radius(pa, pb, sigma)``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Sequence

from scipy.special import gammaincinv

logger = logging.getLogger(__name__)

_TARGET = math.sqrt(2.0) / 2.0
_PA_CLAMP = 1.0 - 1e-12


def tau_solve(d: int) -> float:
    """The point tau where the chi-square CDF with ``d`` degrees of freedom,
    P(d/2, tau/2), equals sqrt(2)/2.

    Closed form 2 * P^-1(d/2, sqrt(2)/2) through the inverse regularized
    lower incomplete gamma, accurate to a few ulps.
    """
    if d < 1 or d != int(d):
        raise ValueError("degrees of freedom must be a positive integer")
    return float(2.0 * gammaincinv(0.5 * d, _TARGET))


def _check_positive(**kwargs: float) -> None:
    for name, v in kwargs.items():
        if not math.isfinite(v) or v <= 0.0:
            raise ValueError(f"{name} must be positive and finite, got {v}")


def psi(
    gamma: float,
    B: float,
    tau: float,
    n: int,
    h: int,
    per_layer_spectral: Sequence[float],
) -> float:
    """Weight-noise variance budget.

    Mathematically ( sqrt(gamma / (2^8 n sqrt(h ln(8nh)) sqrt(tau)
    prod_i s_i^((n-1)/n)) + B^2/(4 tau)) - B/(2 sqrt(tau)) )^2, evaluated in
    the equivalent cancellation-free form g^2 / (sqrt(a+g) + sqrt(a))^2 with
    a = B^2/(4 tau), which keeps full relative precision when the margin term
    g is tiny.  Strictly increasing in gamma, strictly decreasing in each
    spectral norm, and never negative.
    """
    _check_positive(gamma=gamma, B=B, tau=tau)
    if n < 1 or h < 1:
        raise ValueError("n and h must be positive integers")
    s = [float(v) for v in per_layer_spectral]
    if len(s) != n:
        raise ValueError(f"expected {n} spectral norms, got {len(s)}")
    if any(not math.isfinite(v) or v <= 0.0 for v in s):
        raise ValueError("per-layer spectral norms must be positive and finite")
    expo = (n - 1.0) / n
    prod = 1.0
    for v in s:
        prod *= v**expo
    g = gamma / (256.0 * n * math.sqrt(h * math.log(8.0 * n * h)) * math.sqrt(tau) * prod)
    a = B * B / (4.0 * tau)
    denom = math.sqrt(a + g) + math.sqrt(a)
    return (g / denom) ** 2


def phi(
    per_layer_spectral: Sequence[float],
    per_layer_frobenius: Sequence[float],
    psi_value: float,
) -> float:
    """Scale-invariant flatness summary.

    sum_i (||W_i||_F^2 / ||W_i||_2^2) divided by psi normalized by the
    geometric mean of the squared spectral norms.  psi == 0 yields +inf (with
    a logged diagnostic) rather than an exception.
    """
    s = [float(v) for v in per_layer_spectral]
    f = [float(v) for v in per_layer_frobenius]
    if len(s) != len(f) or not s:
        raise ValueError("need matching, non-empty spectral and Frobenius norm lists")
    if any(not math.isfinite(v) or v <= 0.0 for v in s):
        raise ValueError("spectral norms must be positive and finite")
    if any(not math.isfinite(v) or v < 0.0 for v in f):
        raise ValueError("Frobenius norms must be non-negative and finite")
    if psi_value < 0.0:
        raise ValueError("psi must be non-negative")
    if psi_value == 0.0:
        logger.warning("phi diverges: psi is 0")
        return math.inf
    n = len(s)
    numerator = sum((fi * fi) / (si * si) for fi, si in zip(f, s))
    geo = math.exp((2.0 / n) * sum(math.log(si) for si in s))
    return numerator * geo / psi_value


def kl_term(per_layer_frobenius: Sequence[float], psi_value: float) -> float:
    """sum_i ||W_i||_F^2 / (2 psi)."""
    f = [float(v) for v in per_layer_frobenius]
    if not f:
        raise ValueError("need at least one Frobenius norm")
    if any(not math.isfinite(v) or v < 0.0 for v in f):
        raise ValueError("Frobenius norms must be non-negative and finite")
    _check_positive(psi_value=psi_value)
    return sum(v * v for v in f) / (2.0 * psi_value)


def generalization_bound(empirical_margin_loss: float, kl: float, m: int, delta: float) -> float:
    """empirical loss + 4 sqrt((KL + ln(6m/delta)) / (m-1))."""
    if not 0.0 <= empirical_margin_loss <= 1.0:
        raise ValueError("empirical margin loss must lie in [0, 1]")
    if not math.isfinite(kl) or kl < 0.0:
        raise ValueError("KL must be non-negative and finite")
    if m < 2:
        raise ValueError("need at least 2 training examples")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return empirical_margin_loss + 4.0 * math.sqrt((kl + math.log(6.0 * m / delta)) / (m - 1.0))


def vote_probability_gap(pa: float, pb: float) -> float:
    """-ln(1 - (sqrt(pa) - sqrt(pb))^2) with pa clamped to <= 1 - 1e-12.

    Requires 0 <= pb <= pa <= 1; pa < pb is a hard error.  Zero when pa == pb.
    """
    if not (math.isfinite(pa) and math.isfinite(pb)):
        raise ValueError("vote probabilities must be finite")
    if pb < 0.0 or pa > 1.0 + 1e-15 or pa < pb:
        raise ValueError(f"need 0 <= pb <= pa <= 1, got pa={pa}, pb={pb}")
    pa = min(pa, _PA_CLAMP)
    pb = min(pb, pa)
    gap = math.sqrt(pa) - math.sqrt(pb)
    return -math.log1p(-gap * gap)


def eps_x(pa: float, pb: float, psi_value: float) -> float:
    """Squared input-space robustness budget: gap(pa, pb) * 2 psi."""
    _check_positive(psi_value=psi_value)
    return vote_probability_gap(pa, pb) * 2.0 * psi_value


@dataclass(frozen=True)
class BoundInputs:
    """Inputs for a bound evaluation.

    gamma: margin used by the smoothed margin loss (> 0)
    delta: confidence level in (0, 1)
    m: number of training examples (>= 2)
    B: max L2 norm over the (bias-augmented) training inputs
    n: number of layers
    h: hidden width (max over hidden layers for ragged architectures)
    d: bias-augmented input dimension
    per_layer_spectral / per_layer_frobenius: norms of each weight matrix
    """

    gamma: float
    delta: float
    m: int
    B: float
    n: int
    h: int
    d: int
    per_layer_spectral: tuple[float, ...]
    per_layer_frobenius: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_positive(gamma=self.gamma, B=self.B)
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.n < 1 or self.h < 1 or self.d < 1:
            raise ValueError("n, h, d must be positive")
        if len(self.per_layer_spectral) != self.n or len(self.per_layer_frobenius) != self.n:
            raise ValueError("per-layer norm lists must have length n")


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound; its ``asdict`` is JSON-serializable, keyed by field name."""

    tau: float
    psi: float
    phi: float
    kl_term: float
    empirical_margin_loss: float
    bound_value: float
    vacuous: bool
    eps_x: float | None
    inputs: dict


def _tau_psi(inputs: BoundInputs) -> tuple[float, float]:
    """tau and psi for ``inputs``; a psi that underflows to 0 leaves the KL
    term and the bound undefined, so it raises."""
    tau = tau_solve(inputs.d)
    psi_value = psi(inputs.gamma, inputs.B, tau, inputs.n, inputs.h, inputs.per_layer_spectral)
    if psi_value == 0.0:
        raise ValueError("psi evaluated to 0; KL and bound are undefined")
    return tau, psi_value


def evaluate_bound(
    inputs: BoundInputs,
    empirical_margin_loss: float,
    pa: float | None = None,
    pb: float | None = None,
) -> BoundReport:
    """Assemble the full report: tau, psi, phi, KL, bound, optional eps_x.

    A bound value >= 1 is flagged vacuous.  ``eps_x`` is evaluated only when
    both vote probabilities are supplied.
    """
    tau, psi_value = _tau_psi(inputs)
    phi_value = phi(inputs.per_layer_spectral, inputs.per_layer_frobenius, psi_value)
    kl = kl_term(inputs.per_layer_frobenius, psi_value)
    bound = generalization_bound(empirical_margin_loss, kl, inputs.m, inputs.delta)
    eps = None
    if pa is not None and pb is not None:
        eps = eps_x(pa, pb, psi_value)
    elif (pa is None) != (pb is None):
        raise ValueError("supply both pa and pb, or neither")
    return BoundReport(
        tau=tau,
        psi=psi_value,
        phi=phi_value,
        kl_term=kl,
        empirical_margin_loss=empirical_margin_loss,
        bound_value=bound,
        vacuous=bound >= 1.0,
        eps_x=eps,
        inputs={k: list(v) if isinstance(v, tuple) else v for k, v in asdict(inputs).items()},
    )
