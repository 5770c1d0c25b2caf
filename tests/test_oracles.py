import math

import numpy as np
import pytest
from scipy.stats import norm

from smoothcert import rng
from smoothcert.nn import MlpModel
from smoothcert.smoothing import NoiseConfig, certify
from smoothcert.spectral import spectral_report

from conftest import joint_noise_case, rand_model
from oracles import (
    binomial_tail,
    grid_attack,
    jacobi_eigs,
    joint_vote_probability,
    mc_correlation,
)


def model_of(*mats):
    return MlpModel(tuple(np.asarray(m, dtype=float) for m in mats))


# ------------------------------------------------------------ jacobi

def test_jacobi_diagonal():
    got = jacobi_eigs(np.diag([5.0, 2.0, 1.0]))
    assert np.allclose(got, [1.0, 2.0, 5.0], atol=1e-12)


def test_jacobi_2x2_quadratic_formula():
    got = jacobi_eigs(np.array([[1.0, 1.0], [1.0, 2.0]]))
    want = [(3.0 - math.sqrt(5.0)) / 2.0, (3.0 + math.sqrt(5.0)) / 2.0]
    assert np.allclose(got, want, atol=1e-12)


def test_jacobi_matches_lapack_on_random_symmetric():
    g = rng.stream(30, 98)
    for n in (2, 5, 9):
        m = g.standard_normal((n, n))
        s = (m + m.T) / 2.0
        got = jacobi_eigs(s)
        want = np.linalg.eigvalsh(s)
        assert np.allclose(got, want, atol=1e-10 * max(1.0, np.abs(want).max()))


def test_jacobi_eigenvalue_sum_is_trace():
    g = rng.stream(31, 98)
    m = g.standard_normal((6, 6))
    s = m @ m.T
    assert jacobi_eigs(s).sum() == pytest.approx(np.trace(s), rel=1e-12)


def test_jacobi_rejects_asymmetric_and_rectangular():
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        jacobi_eigs(np.ones((2, 3)))


# ------------------------------------------------------------ binomial tail

def test_binomial_tail_trivia():
    assert binomial_tail(0, 10, 0.3) == 1.0
    assert binomial_tail(2, 2, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert binomial_tail(2, 3, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_binomial_tail_complement_identity():
    # P[X >= k] + P[X <= k-1] = 1
    for k in (1, 4, 9):
        up = binomial_tail(k, 9, 0.37)
        down = sum(
            math.comb(9, i) * 0.37**i * 0.63 ** (9 - i) for i in range(k)
        )
        assert up + down == pytest.approx(1.0, abs=1e-12)


def test_binomial_tail_validates():
    with pytest.raises(ValueError):
        binomial_tail(1, 0, 0.5)
    with pytest.raises(ValueError):
        binomial_tail(1, 2000, 0.5)
    with pytest.raises(ValueError):
        binomial_tail(3, 2, 0.5)
    with pytest.raises(ValueError):
        binomial_tail(1, 2, 1.5)


# ------------------------------------------------------------ joint noise

def test_joint_vote_probability_matches_nested_quadrature():
    # 0.5081865 is nested scipy.integrate.quad over s (split at s = 0) and T;
    # an 80-node Gauss-Hermite rule over g, unsplit, reads 0.506892
    w, x = joint_noise_case()
    assert abs(joint_vote_probability(w, x, 0.5, 0.3) - 0.5081865) < 1e-6
    dw = w[0] - w[1]
    a = dw @ x / np.linalg.norm(dw)  # no weight noise: Phi(a / sigma_input)
    assert joint_vote_probability(w, x, 0.5, 0.0) == pytest.approx(norm.cdf(a / 0.5), abs=1e-12)


def test_joint_vote_probability_validates():
    with pytest.raises(ValueError):
        joint_vote_probability(np.ones((3, 4)), np.ones(4), 0.5, 0.3)
    with pytest.raises(ValueError):
        joint_vote_probability(np.ones((2, 4)), np.ones(4), 0.0, 0.3)


# ------------------------------------------------------------ mc correlation

def test_mc_correlation_diagonal_is_exactly_one():
    model = rand_model((4, 3), seed=1)
    c = mc_correlation(model, 1000, sigma=1.0, seed=0)
    assert np.array_equal(np.diag(c), np.ones(3))


def test_mc_correlation_matches_analytic_cosines():
    # the defining validation: sampled Pearson correlations of the linear
    # map's outputs estimate the row cosines of the collapsed matrix
    model = rand_model((5, 4, 3), seed=8)
    want = np.asarray(spectral_report(model).cosine_matrix)
    got = mc_correlation(model, 200_000, sigma=0.7, seed=2)
    assert np.abs(got - want).max() < 0.01


def test_mc_correlation_centre_point_irrelevant_for_linear_map():
    # correlations of a linear map do not depend on where the noise centers
    model = rand_model((4, 3), seed=3)
    a = mc_correlation(model, 50_000, sigma=1.0, seed=5)
    b = mc_correlation(model, 50_000, sigma=1.0, seed=5, x=np.ones(4) * 7.0)
    assert np.abs(a - b).max() < 1e-9


def test_mc_correlation_deterministic():
    model = rand_model((4, 3), seed=3)
    a = mc_correlation(model, 5000, sigma=1.0, seed=4)
    b = mc_correlation(model, 5000, sigma=1.0, seed=4)
    assert np.array_equal(a, b)


def test_mc_correlation_validates():
    model = rand_model((4, 3), seed=3)
    with pytest.raises(ValueError):
        mc_correlation(model, 1, sigma=1.0)
    with pytest.raises(ValueError):
        mc_correlation(model, 100, sigma=0.0)
    with pytest.raises(ValueError):
        mc_correlation(model, 100, sigma=1.0, x=np.ones(5))


# ------------------------------------------------------------ grid attack

def certified_2d():
    # linear 2-class model: class 0 wins iff x0 > 0 under symmetric noise
    model = model_of([[1.0, 0.0], [-1.0, 0.0]])
    noise = NoiseConfig(sigma_input=0.25, sigma_weight=0.1, base_seed=0)
    x = np.array([0.8, 0.0])
    res = certify(model, x, noise, n_selection=100, n_estimation=20_000, alpha=0.001)
    assert res.predicted == 0 and res.radius > 0.0
    return model, x, noise, res


def test_grid_attack_zero_budget_is_trivially_clean():
    model, x, noise, res = certified_2d()
    rep = grid_attack(model, x, res.predicted, res.radius, 0.0, noise)
    assert rep.n_probes == 0
    assert rep.n_flips == 0
    assert rep.min_flip_norm is None
    assert rep.worst_perturbation is None


def test_grid_attack_no_flips_inside_certified_radius():
    model, x, noise, res = certified_2d()
    rep = grid_attack(model, x, res.predicted, res.radius, 0.95 * res.radius,
                      noise, grid_density=11, votes_per_probe=400)
    assert rep.n_flips == 0
    assert rep.n_probes > 0


def test_grid_attack_finds_flip_beyond_radius_near_boundary():
    model, x, noise, _ = certified_2d()
    # a barely-certifiable point: small margin, so 2R overshoots the boundary
    xb = np.array([0.10, 0.0])
    res = certify(model, xb, noise, n_selection=100, n_estimation=20_000, alpha=0.001)
    assert res.predicted == 0 and res.radius > 0.0
    rep = grid_attack(model, xb, res.predicted, res.radius, 2.0 * res.radius,
                      noise, grid_density=11, votes_per_probe=400)
    assert rep.n_flips >= 1
    assert rep.min_flip_norm is not None
    assert rep.min_flip_norm > res.radius  # soundness: no flip below R
    assert rep.worst_perturbation is not None
    assert math.hypot(*rep.worst_perturbation) == pytest.approx(rep.min_flip_norm)


def test_grid_attack_respects_budget_ball():
    model, x, noise, res = certified_2d()
    budget = 0.5
    rep = grid_attack(model, x, res.predicted, res.radius, budget, noise,
                      grid_density=9, votes_per_probe=50)
    # probes fill the L2 ball: count matches the 9x9 grid clipped to the disk
    axis = np.linspace(-budget, budget, 9)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    inside = np.hypot(gx, gy) <= budget + 1e-12
    assert rep.n_probes == int(inside.sum())


def test_grid_attack_validates():
    model, x, noise, res = certified_2d()
    with pytest.raises(ValueError):
        grid_attack(model, x, res.predicted, res.radius, -1.0, noise)
    with pytest.raises(ValueError):
        grid_attack(model, x, res.predicted, res.radius, 0.1, noise, grid_density=1)
    with pytest.raises(ValueError):
        grid_attack(model, x, -1, res.radius, 0.1, noise)
    big = rand_model((5, 4, 2), seed=0)
    with pytest.raises(ValueError, match="dim"):
        grid_attack(big, np.zeros(5), 0, 0.1, 0.1, noise)
