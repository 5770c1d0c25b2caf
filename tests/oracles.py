"""Independent checking machinery: slow, simple implementations used to
validate the fast paths, plus an empirical attack on certified radii.

Only tests call these, so they live with the tests, and mpmath is a
test-only dependency.
Nothing here shares numeric kernels with the modules it checks beyond the
plain float64 array type: eigenvalues come from classical Jacobi rotations
(not the LAPACK SVD), binomial tails from exact extended-precision
summation (not the incomplete beta), output correlations from Monte-Carlo
sampling (not the analytic cosine identity), votes from a fresh full
weight-noise matrix and all d input coordinates per draw (not the projected,
row-space sampler), the joint-noise vote probability of a linear two-class
model by quadrature (not sampling), and certified radii are probed by
exhaustively re-voting on a perturbation grid.  ``grid_attack`` votes
through the public ``sample_under_noise`` on purpose: it attacks the
certificate the package issues, not a re-implementation of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import special, stats

from smoothcert import rng
from smoothcert.nn import Matrix, MlpModel
from smoothcert.smoothing import NoiseConfig, VoteCounts, sample_under_noise


_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


def jacobi_eigs(sym: Matrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by classical Jacobi rotations.

    Sweeps (at most ``_JACOBI_MAX_SWEEPS``) until the off-diagonal Frobenius
    norm falls below ``_JACOBI_TOL`` scaled by the matrix magnitude (floored
    at ``_JACOBI_TOL`` itself for unit-scale input).  Returns eigenvalues in
    ascending order; asymmetric input is an error.
    """
    A = np.array(sym, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {A.shape}")
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    A = (A + A.T) / 2.0
    threshold = _JACOBI_TOL * max(1.0, float(np.linalg.norm(A)))

    def off(M: np.ndarray) -> float:
        od = M.copy()
        np.fill_diagonal(od, 0.0)
        return float(np.linalg.norm(od))

    for _ in range(_JACOBI_MAX_SWEEPS):
        if off(A) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp, cq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
    return np.sort(np.diag(A))


def binomial_tail(k: int, n: int, p: float) -> float:
    """P[Bin(n, p) >= k] by exact extended-precision summation (n <= 1000)."""
    if n < 1 or n > 1000:
        raise ValueError("n must lie in [1, 1000] for exact summation")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}]")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if k == 0:
        return 1.0
    with mp.workdps(50):
        pp = mp.mpf(p)
        total = mp.mpf(0)
        for i in range(k, n + 1):
            total += mp.binomial(n, i) * pp**i * (1 - pp) ** (n - i)
        return float(total)


def reference_votes(
    model: MlpModel, x, num: int, noise: NoiseConfig, g: np.random.Generator
) -> VoteCounts:
    """Vote tally drawn the literal way, one vote at a time.

    Each vote perturbs the input with fresh ``N(0, sigma_input^2 I)`` noise
    and every weight matrix with a fresh full ``N(0, sigma_weight^2)``
    matrix, then takes the argmax (ties to the lowest index) of the
    perturbed network.  Slow, but it draws from the distribution that the
    row-space, projected sampler in ``smoothing`` claims to reproduce.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.in_dim,):
        raise ValueError(f"x must have shape ({model.in_dim},)")
    si, sw = noise.sigma_input, noise.resolved_sigma_weight
    counts = [0] * model.out_dim
    for _ in range(num):
        z = x + si * g.standard_normal(x.shape)
        for i, w in enumerate(model.layers):
            z = (w + sw * g.standard_normal(w.shape)) @ z
            if i < model.n_layers - 1:
                z = np.maximum(z, 0.0)
        counts[int(np.argmax(z))] += 1
    return VoteCounts(counts=tuple(counts), draws=num)


def joint_vote_probability(w: Matrix, x, sigma_input: float, sigma_weight: float) -> float:
    """P(vote 0) of the two-class one-layer linear model ``w`` (2, d) at
    ``x`` under input noise ``sigma_input > 0`` and weight noise
    ``sigma_weight >= 0``, by quadrature.

    With ``dw = w[0] - w[1]``, ``u = dw / |dw|`` and ``a = u.x``, a noisy
    input ``z`` has ``s = u.z = a + sigma_input * g`` and ``|z - s u|^2 =
    sigma_input^2 T``, ``T ~ ncchi2(d - 1, |x - a u|^2 / sigma_input^2)``;
    the two rows' weight noise differ along ``z`` by ``N(0, 2 sigma_weight^2
    |z|^2)``.  So ``P = E[Phi(|dw| s / (sqrt(2) sigma_weight sqrt(s^2 +
    sigma_input^2 T)))]``.  The integrand jumps at ``s = 0`` when the weight
    noise is small (and steps there when it is zero), so ``s`` takes a
    60-point Gauss-Legendre rule on each side of 0 within 12 ``sigma_input``
    of ``a``.  ``T`` is the Poisson(lambda / 2) mixture of ``chi2(d - 1 +
    2 j)``, each term a 60-point generalized Gauss-Laguerre rule.
    """
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if w.shape[0] != 2 or x.shape != (w.shape[1],) or not sigma_input > 0.0:
        raise ValueError("need a (2, d) model, a (d,) input and sigma_input > 0")
    dw = w[0] - w[1]
    norm = np.linalg.norm(dw)
    a = dw @ x / norm
    lam = np.sum((x - a * dw / norm) ** 2) / sigma_input**2
    scale = norm / (math.sqrt(2.0) * sigma_weight) if sigma_weight > 0 else math.inf
    t, wt = np.polynomial.legendre.leggauss(60)
    s, ws = [], []
    for lo, hi in ((a - 12.0 * sigma_input, 0.0), (0.0, a + 12.0 * sigma_input)):
        s.append((hi - lo) / 2.0 * t + (hi + lo) / 2.0)
        ws.append(max(hi - lo, 0.0) / 2.0 * wt)
    s = np.concatenate(s)[:, None]
    ws = np.concatenate(ws) * stats.norm.pdf(s[:, 0], a, sigma_input)
    total = 0.0
    for j in range(int(stats.poisson.isf(1e-15, lam / 2.0)) + 1):
        k = w.shape[1] - 1 + 2 * j
        r, wr = special.roots_genlaguerre(60, k / 2.0 - 1.0)  # chi2(k) = 2 Gamma(k / 2)
        f = special.ndtr(scale * s / np.sqrt(s * s + sigma_input**2 * 2.0 * r))
        total += stats.poisson.pmf(j, lam / 2.0) * (ws @ f @ wr) / special.gamma(k / 2.0)
    return float(total)


def mc_correlation(
    model: MlpModel, n_draws: int, sigma: float, seed: int = 0, x=None
) -> Matrix:
    """Sample Pearson correlation of the LINEARIZED network's outputs under
    input noise ``v ~ N(0, sigma^2 I)``.

    The linearized network applies the layer matrices in sequence with every
    ReLU dropped.  Accumulates first/second moments in chunks, so memory
    stays bounded; deterministic given the seed.
    """
    if n_draws < 2:
        raise ValueError("need at least 2 draws")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    d, k = model.in_dim, model.out_dim
    base = np.zeros(d) if x is None else np.asarray(x, dtype=np.float64)
    if base.shape != (d,):
        raise ValueError(f"x must have shape ({d},)")
    g = rng.stream(seed, rng.PHASE_CORR)
    s1 = np.zeros(k)
    s2 = np.zeros((k, k))
    done = 0
    while done < n_draws:
        b = min(65536, n_draws - done)
        done += b
        Z = base[None, :] + sigma * g.standard_normal((b, d))
        for w in model.layers:
            Z = Z @ w.T
        s1 += Z.sum(axis=0)
        s2 += Z.T @ Z
    mean = s1 / n_draws
    cov = s2 / n_draws - np.outer(mean, mean)
    sd = np.sqrt(np.diag(cov))
    sd = np.where(sd == 0.0, 1.0, sd)
    corr = cov / np.outer(sd, sd)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr


@dataclass(frozen=True)
class AttackReport:
    """Outcome of a grid attack against one certified input."""

    sample_index: int
    certified_class: int
    certified_radius: float
    budget: float
    grid_density: int
    votes_per_probe: int
    n_probes: int
    n_flips: int
    min_flip_norm: float | None
    worst_perturbation: tuple[float, ...] | None


def grid_attack(
    model: MlpModel,
    x,
    certified_class: int,
    certified_radius: float,
    budget: float,
    noise: NoiseConfig,
    grid_density: int = 50,
    votes_per_probe: int = 10_000,
    sample_index: int = 0,
) -> AttackReport:
    """Probe every grid perturbation of norm <= budget and re-vote.

    Exhaustive per-axis grids are only tractable at tiny dimension, so the
    model input dim must be <= 3.  A flip is a probe whose majority vote
    differs from the certified class; the reported worst perturbation is the
    smallest-norm flip (None when the certificate held everywhere).
    """
    x = np.asarray(x, dtype=np.float64)
    d = model.in_dim
    if d > 3:
        raise ValueError("grid_attack is exhaustive; input dim must be <= 3")
    if x.shape != (d,):
        raise ValueError(f"x must have shape ({d},)")
    if budget < 0.0:
        raise ValueError("budget must be >= 0")
    if grid_density < 2:
        raise ValueError("grid_density must be >= 2")
    if votes_per_probe < 1:
        raise ValueError("votes_per_probe must be >= 1")
    if certified_class < 0:
        raise ValueError("certified_class must be a real class index (not ABSTAIN)")
    axis = np.linspace(-budget, budget, grid_density)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    probes = np.stack([a.ravel() for a in grids], axis=1)
    norms = np.linalg.norm(probes, axis=1)
    # a zero budget probes nothing: a zero-radius certificate is vacuously clean
    keep = (norms <= budget + 1e-12) & (budget > 0.0)
    probes, norms = probes[keep], norms[keep]

    n_flips = 0
    min_norm: float | None = None
    worst: tuple[float, ...] | None = None
    for j in range(probes.shape[0]):
        key = (noise.base_seed, rng.PHASE_ATTACK, sample_index, j)
        vote = sample_under_noise(model, x + probes[j], votes_per_probe, noise, key).top()
        if vote != certified_class:
            n_flips += 1
            nj = float(norms[j])
            if min_norm is None or nj < min_norm:
                min_norm = nj
                worst = tuple(float(v) for v in probes[j])
    return AttackReport(
        sample_index=sample_index,
        certified_class=certified_class,
        certified_radius=float(certified_radius),
        budget=float(budget),
        grid_density=grid_density,
        votes_per_probe=votes_per_probe,
        n_probes=int(probes.shape[0]),
        n_flips=n_flips,
        min_flip_norm=min_norm,
        worst_perturbation=worst,
    )
