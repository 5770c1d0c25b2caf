import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammainc

from smoothcert import rng
from smoothcert.bounds import (
    BoundInputs,
    eps_x,
    evaluate_bound,
    generalization_bound,
    kl_term,
    phi,
    psi,
    tau_solve,
    vote_probability_gap,
)
from smoothcert.smoothing import certified_radius

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


# ------------------------------------------------------- chi-square CDF
# tau_solve inverts the chi-square CDF with d degrees of freedom,
# gammainc(d/2, x/2); these pin that function against closed forms

def test_chi2_cdf_zero():
    assert gammainc(5 / 2, 0.0) == 0.0


def test_chi2_cdf_d2_closed_form():
    # d=2: CDF(x) = 1 - exp(-x/2); at x = 2 ln 2 the value is exactly 1/2
    xs = [0.1, 0.5, 1.0, 2.0, 5.0, 2.0 * math.log(2.0)]
    for x in xs:
        want = 1.0 - math.exp(-x / 2.0)
        assert gammainc(1.0, x / 2) == pytest.approx(want, rel=1e-12)
    assert gammainc(1.0, math.log(2.0)) == pytest.approx(0.5, rel=1e-12)


def test_chi2_cdf_d1_erf_oracle():
    # d=1: CDF(x) = 2 Phi(sqrt x) - 1 = erf(sqrt(x/2))
    for x in (0.25, 1.0, 3.0):
        want = math.erf(math.sqrt(x / 2.0))
        assert gammainc(0.5, x / 2) == pytest.approx(want, rel=1e-12)
    assert gammainc(0.5, 0.5) == pytest.approx(0.6826894921370859, rel=1e-12)


def test_chi2_cdf_monotone_in_x_decreasing_in_d():
    xs = np.linspace(0.1, 30.0, 50)
    vals = [gammainc(4 / 2, x / 2) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert gammainc(3 / 2, 5.0 / 2) > gammainc(4 / 2, 5.0 / 2) > gammainc(5 / 2, 5.0 / 2)


# ------------------------------------------------------------ tau_solve

def test_tau_d2_closed_form():
    want = -2.0 * math.log(1.0 - SQRT2_OVER_2)
    assert tau_solve(2) == pytest.approx(want, abs=1e-10)
    assert want == pytest.approx(2.45589, abs=1e-5)


def test_tau_d1_quantile_oracle():
    # Phi_N(sqrt tau) = (1 + sqrt2/2)/2
    want = stats.norm.ppf((1.0 + SQRT2_OVER_2) / 2.0) ** 2
    assert tau_solve(1) == pytest.approx(float(want), rel=1e-10)


def test_tau_residual_is_target():
    for d in (1, 2, 3, 10, 785, 3000):
        t = tau_solve(d)
        assert gammainc(d / 2, t / 2) == pytest.approx(SQRT2_OVER_2, abs=1e-11)


def test_tau_increases_with_dimension():
    taus = [tau_solve(d) for d in (1, 2, 5, 20, 100, 1000)]
    assert all(b > a for a, b in zip(taus, taus[1:]))


# ------------------------------------------------------------ psi / phi / kl

def golden_psi_inputs():
    return dict(gamma=0.5, B=28.0, tau=tau_solve(785), n=3, h=32,
                per_layer_spectral=[2.0, 1.5, 3.0])


def test_psi_frozen_golden():
    # frozen from the extended-precision (mpmath dps=50) recomputation
    v = psi(**golden_psi_inputs())
    assert v == pytest.approx(1.3583509095887963e-13, rel=1e-12)


def test_psi_decreases_when_any_spectral_norm_grows():
    base = golden_psi_inputs()
    v0 = psi(**base)
    for i in range(3):
        args = dict(base)
        s = list(args["per_layer_spectral"])
        s[i] *= 1.5
        args["per_layer_spectral"] = s
        assert psi(**args) < v0


def test_psi_monotone_grid():
    # strictly decreasing along a geometric scale-up of all spectral norms
    base = golden_psi_inputs()
    vals = []
    for c in (0.5, 1.0, 2.0, 4.0, 8.0):
        args = dict(base)
        args["per_layer_spectral"] = [c * s for s in base["per_layer_spectral"]]
        vals.append(psi(**args))
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_psi_increases_with_gamma():
    base = golden_psi_inputs()
    lo = psi(**{**base, "gamma": 0.1})
    hi = psi(**{**base, "gamma": 1.0})
    assert hi > lo > 0.0


def test_psi_tiny_gamma_keeps_relative_precision():
    # the naive difference-of-square-roots form loses everything here
    args = {**golden_psi_inputs(), "gamma": 1e-8}
    v = psi(**args)
    assert v > 0.0
    # quadratic small-gamma behaviour: psi ~ gamma^2 * const
    v2 = psi(**{**args, "gamma": 2e-8})
    assert v2 / v == pytest.approx(4.0, rel=1e-6)


def test_phi_frozen_golden():
    g = golden_psi_inputs()
    p = psi(**g)
    v = phi(g["per_layer_spectral"], [4.0, 2.0, 5.0], p)
    assert v == pytest.approx(272519705400937.97, rel=1e-12)


def test_phi_grows_with_product_of_spectral_norms():
    g = golden_psi_inputs()
    frob = [4.0, 2.0, 5.0]
    v0 = phi(g["per_layer_spectral"], frob, psi(**g))
    scaled = dict(g)
    scaled["per_layer_spectral"] = [2.0 * s for s in g["per_layer_spectral"]]
    v1 = phi(scaled["per_layer_spectral"], frob, psi(**scaled))
    assert v1 > v0


def test_kl_zero_weights():
    assert kl_term([0.0, 0.0], 1.0) == 0.0


def test_kl_simple_value():
    # sum of squared Frobenius norms 2, psi 1 -> KL = 2 / (2*1) = 1
    assert kl_term([1.0, 1.0], 1.0) == pytest.approx(1.0, abs=0)


def test_kl_frozen_golden():
    g = golden_psi_inputs()
    v = kl_term([4.0, 2.0, 5.0], psi(**g))
    assert v == pytest.approx(165642028441761.53, rel=1e-12)


# ------------------------------------------------------------ bound value

def test_generalization_bound_frozen_golden():
    v = generalization_bound(0.1, 1000.0, 10000, 0.05)
    assert v == pytest.approx(1.373796996095665, rel=1e-12)


def test_generalization_bound_formula_shape():
    # empirical + 4 sqrt((KL + ln(6m/delta)) / (m-1))
    m, delta, kl, emp = 5000, 0.1, 12.0, 0.25
    want = emp + 4.0 * math.sqrt((kl + math.log(6.0 * m / delta)) / (m - 1.0))
    assert generalization_bound(emp, kl, m, delta) == pytest.approx(want, rel=1e-15)


def test_generalization_bound_monotonicity():
    b = generalization_bound(0.1, 10.0, 1000, 0.05)
    assert generalization_bound(0.2, 10.0, 1000, 0.05) > b
    assert generalization_bound(0.1, 20.0, 1000, 0.05) > b
    assert generalization_bound(0.1, 10.0, 4000, 0.05) < b
    assert generalization_bound(0.1, 10.0, 1000, 0.01) > b


def test_generalization_bound_validates():
    with pytest.raises(ValueError):
        generalization_bound(0.1, 1.0, 1, 0.05)  # m must exceed 1
    with pytest.raises(ValueError):
        generalization_bound(0.1, 1.0, 100, 0.0)


# ------------------------------------------------------------ vote gap / eps_x

def test_vote_gap_equal_probs_is_zero():
    assert vote_probability_gap(0.5, 0.5) == 0.0
    assert vote_probability_gap(0.25, 0.25) == 0.0


def test_vote_gap_frozen_golden():
    assert vote_probability_gap(0.75, 0.25) == pytest.approx(
        0.14384103622589042, rel=1e-14)


def test_eps_x_frozen_golden():
    assert eps_x(0.75, 0.25, 0.5) == pytest.approx(0.14384103622589042, rel=1e-14)
    assert eps_x(0.75, 0.25, 1.0) == pytest.approx(2 * 0.14384103622589042, rel=1e-14)


def test_eps_x_equal_probs_zero():
    assert eps_x(0.4, 0.4, 1.0) == 0.0


def test_sqrt_eps_x_equals_certified_radius_across_grid():
    # with Psi = sigma^2 the input-space certified region radius coincides
    for pa in np.linspace(0.51, 0.999, 25):
        pb = 1.0 - pa
        for sigma in (0.25, 1.0, 3.0):
            want = certified_radius(float(pa), float(pb), sigma)
            got = math.sqrt(eps_x(float(pa), float(pb), sigma * sigma))
            assert got == pytest.approx(want, rel=1e-12)


def test_eps_x_validates_probabilities():
    with pytest.raises(ValueError):
        eps_x(1.5, 0.1, 1.0)
    with pytest.raises(ValueError):
        eps_x(0.5, -0.1, 1.0)
    with pytest.raises(ValueError):
        eps_x(0.5, 0.4, 0.0)


# ------------------------------------------------------------ evaluate_bound

def fixed_inputs():
    return BoundInputs(gamma=1.0, delta=0.05, m=10000, B=1.0, n=3, h=32,
                       d=784, per_layer_spectral=(1.0, 1.0, 1.0),
                       per_layer_frobenius=(2.0, 2.0, 2.0))


def test_evaluate_bound_report_is_consistent():
    rep = evaluate_bound(fixed_inputs(), empirical_margin_loss=0.1)
    assert rep.tau == pytest.approx(tau_solve(784), rel=1e-14)
    assert rep.psi == pytest.approx(
        psi(1.0, 1.0, rep.tau, 3, 32, [1.0, 1.0, 1.0]), rel=1e-14)
    assert rep.kl_term == pytest.approx(kl_term([2.0, 2.0, 2.0], rep.psi), rel=1e-14)
    assert rep.bound_value == pytest.approx(
        generalization_bound(0.1, rep.kl_term, 10000, 0.05), rel=1e-14)
    assert rep.empirical_margin_loss == 0.1
    # the report keeps a JSON-friendly echo of every input
    assert rep.inputs["gamma"] == 1.0
    assert rep.inputs["m"] == 10000
    assert rep.inputs["per_layer_frobenius"] == [2.0, 2.0, 2.0]
    assert rep.inputs["d"] == 784


def test_evaluate_bound_vacuous_flag():
    rep = evaluate_bound(fixed_inputs(), empirical_margin_loss=0.1)
    assert rep.vacuous == (rep.bound_value >= 1.0)


def test_evaluate_bound_optional_eps_x():
    rep = evaluate_bound(fixed_inputs(), empirical_margin_loss=0.0,
                         pa=0.75, pb=0.25)
    assert rep.eps_x == pytest.approx(eps_x(0.75, 0.25, rep.psi), rel=1e-14)
    rep2 = evaluate_bound(fixed_inputs(), empirical_margin_loss=0.0)
    assert rep2.eps_x is None


def test_evaluate_bound_zero_psi_raises_without_warning(caplog):
    # four layers at 1e60 make psi underflow to 0: the bound is undefined,
    # and phi's "diverges" diagnostic must not be logged on the way out
    inputs = BoundInputs(gamma=1.0, delta=0.05, m=10000, B=1.0, n=4, h=32, d=784,
                         per_layer_spectral=(1e60,) * 4, per_layer_frobenius=(1e60,) * 4)
    assert psi(1.0, 1.0, tau_solve(784), 4, 32, inputs.per_layer_spectral) == 0.0
    with caplog.at_level("WARNING"), pytest.raises(ValueError, match="psi evaluated to 0"):
        evaluate_bound(inputs, empirical_margin_loss=0.1)
    assert caplog.records == []
