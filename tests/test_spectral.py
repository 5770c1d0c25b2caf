import math

import numpy as np
import pytest

from smoothcert import rng
from smoothcert.nn import MlpModel
from smoothcert.spectral import (
    collapsed_weight,
    gershgorin_bound,
    regularizer_and_gradient,
    spectral_norm,
    spectral_report,
)

from conftest import rand_model, relative_error
from oracles import jacobi_eigs


def model_of(*mats):
    return MlpModel(tuple(np.asarray(m, dtype=float) for m in mats))


def cosines(model):
    return np.asarray(spectral_report(model).cosine_matrix)


# ------------------------------------------------------------ spectral_norm

def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-10)


def test_spectral_norm_vs_jacobi_oracle():
    g = rng.stream(12, 98)
    for _ in range(5):
        m = g.standard_normal((5, 5))
        want = math.sqrt(max(jacobi_eigs(m.T @ m)))
        assert spectral_norm(m) == pytest.approx(want, rel=1e-8)


def test_spectral_norm_deterministic():
    m = rng.stream(13, 98).standard_normal((20, 7))
    assert spectral_norm(m) == spectral_norm(m)


def test_spectral_norm_exact_with_close_top_singular_values():
    # a 0.999 gap between the top two singular values stalls power iteration
    # well short of the true norm; the result must not read low
    g = rng.stream(13, 97)
    u, _ = np.linalg.qr(g.standard_normal((32, 32)))
    v, _ = np.linalg.qr(g.standard_normal((785, 32)))
    s = np.linspace(0.1, 0.999, 32)
    s[-1] = 1.0
    m = (u * s) @ v.T
    assert spectral_norm(m) == pytest.approx(1.0, rel=1e-12)


def test_spectral_norm_rejects_zero_matrix():
    with pytest.raises(ValueError):
        spectral_norm(np.zeros((3, 3)))


def test_spectral_norm_rank_one():
    u = np.array([[1.0], [2.0], [2.0]])  # norm 3
    v = np.array([[2.0, 0.0, 0.0, 1.0]])  # norm sqrt(5)
    assert spectral_norm(u @ v) == pytest.approx(3.0 * math.sqrt(5.0), rel=1e-10)


# ------------------------------------------------------------ collapse

def test_collapsed_identity_layers():
    m = model_of(np.eye(3), np.eye(3))
    assert np.array_equal(collapsed_weight(m), np.eye(3))


def test_collapsed_scalar_chain():
    m = model_of([[3.0]], [[2.0]])
    assert collapsed_weight(m)[0, 0] == 6.0


def test_collapsed_matches_reassociated_product():
    model = rand_model((6, 5, 4, 3), seed=21)
    W1, W2, W3 = model.layers
    left_first = (W3 @ W2) @ W1
    right_first = W3 @ (W2 @ W1)
    got = collapsed_weight(model)
    assert relative_error(got, left_first) < 1e-12
    assert relative_error(got, right_first) < 1e-12


# ------------------------------------------------------------ gershgorin

def test_gershgorin_hand_example():
    m = np.array([[1.0, 0.0], [1.0, 1.0]])
    # m m^T = [[1,1],[1,2]]: inf-norm 3, eigenvalues (3 +- sqrt 5)/2
    assert gershgorin_bound(m) == pytest.approx(3.0, abs=0)
    top = (3.0 + math.sqrt(5.0)) / 2.0
    assert spectral_norm(m) ** 2 == pytest.approx(top, rel=1e-9)
    assert gershgorin_bound(m) >= spectral_norm(m) ** 2


def test_gershgorin_dominates_squared_spectral_fuzz():
    g = rng.stream(14, 98)
    for _ in range(25):
        rows = int(g.integers(1, 7))
        cols = int(g.integers(1, 7))
        m = g.standard_normal((rows, cols)) * float(g.uniform(0.1, 10.0))
        assert gershgorin_bound(m) >= spectral_norm(m) ** 2 * (1.0 - 1e-10)


# ------------------------------------------------------------ correlations

def test_correlation_orthogonal_rows_identity():
    m = np.array([[2.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(cosines(model_of(m)), np.eye(3))


def test_correlation_hand_value():
    m = np.array([[1.0, 0.0], [1.0, 1.0]])
    c = cosines(model_of(m))
    assert c[0, 1] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert c[1, 0] == c[0, 1]
    assert c[0, 0] == 1.0 and c[1, 1] == 1.0


def test_correlation_scale_invariance():
    g = rng.stream(15, 98)
    m = g.standard_normal((6, 9))
    base = cosines(model_of(m))
    # global positive rescale and independent positive row rescales
    assert np.allclose(cosines(model_of(17.5 * m)), base, atol=1e-15)
    scales = g.uniform(0.1, 10.0, size=6)
    assert np.allclose(cosines(model_of(m * scales[:, None])), base, atol=1e-13)


def test_correlation_bounds_and_symmetry():
    m = rng.stream(16, 98).standard_normal((8, 4))
    c = cosines(model_of(m))
    assert np.allclose(c, c.T, atol=0)
    assert np.all(c <= 1.0) and np.all(c >= -1.0)
    assert np.allclose(np.diag(c), 1.0, atol=0)


def test_correlation_zero_row_handling():
    rep = spectral_report(model_of([[1.0, 1.0], [0.0, 0.0]]))
    c = np.asarray(rep.cosine_matrix)
    assert c[1, 1] == 1.0 and c[0, 1] == 0.0 and c[1, 0] == 0.0
    assert rep.degenerate_rows == (1,)


# ------------------------------------------------------------ regularizer

def test_l11_hand_value_and_flatten_oracle():
    # the regularizer's value is the entrywise L1 norm of the collapsed
    # cosine matrix: by hand, rows (1, 0) and (-1, 1) have cosine -1/sqrt(2)
    value, _ = regularizer_and_gradient(model_of([[1.0, 0.0], [-1.0, 1.0]]))
    assert value == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-15)
    model = rand_model((7, 6, 5), seed=17)
    c = cosines(model)
    want = sum(abs(float(v)) for v in c.ravel())
    assert regularizer_and_gradient(model)[0] == pytest.approx(want, rel=1e-15)


def test_l11_identity():
    assert regularizer_and_gradient(model_of(np.eye(4)))[0] == 4.0


def test_regularizer_orthonormal_rows():
    # orthonormal collapsed rows: cosine matrix is I, value k, gradient 0
    q = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    value, grads = regularizer_and_gradient(MlpModel((q,)))
    assert value == pytest.approx(2.0, abs=0)
    assert np.all(grads[0] == 0.0)


def test_regularizer_hand_example_value_and_gradient():
    m = model_of([[1.0, 0.0], [1.0, 1.0]])
    value, grads = regularizer_and_gradient(m)
    assert value == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-15)
    s = math.sqrt(2.0)
    want = np.array([[0.0, s], [s / 2.0, -s / 2.0]])
    assert np.allclose(grads[0], want, rtol=1e-12, atol=1e-15)


def test_regularizer_gradient_finite_difference():
    model = rand_model((5, 4, 4, 3), seed=31)

    def value_at(layers):
        return regularizer_and_gradient(MlpModel(tuple(layers)))[0]

    _, grads = regularizer_and_gradient(model)
    step = 1e-6
    worst = 0.0
    for li in range(len(model.layers)):
        W = model.layers[li]
        fd = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            layers = [L.copy() for L in model.layers]
            layers[li][idx] += step
            up = value_at(layers)
            layers[li][idx] -= 2.0 * step
            down = value_at(layers)
            fd[idx] = (up - down) / (2.0 * step)
        scale = max(np.abs(fd).max(), 1.0)
        worst = max(worst, float(np.abs(grads[li] - fd).max() / scale))
    assert worst < 1e-4


def test_regularizer_gradient_rows_tangent_to_collapsed_rows():
    # the cosine of a row with itself is constant, so moving along the row
    # itself never changes the value: the collapsed-space gradient must be
    # orthogonal to each row
    model = rand_model((6, 5, 4), seed=32)
    W = collapsed_weight(model)
    value, _ = regularizer_and_gradient(model)
    eps = 1e-7
    for i in range(W.shape[0]):
        scaled = W.copy()
        scaled[i] *= 1.0 + eps
        v2, _ = regularizer_and_gradient(MlpModel((scaled,)))
        v1, _ = regularizer_and_gradient(MlpModel((W,)))
        assert abs(v2 - v1) < 1e-9


# ------------------------------------------------------------ report

def test_spectral_report_invariants(tiny_model):
    rep = spectral_report(tiny_model)
    assert rep.product_spectral >= rep.collapsed_spectral >= 0.0
    assert rep.gershgorin >= rep.collapsed_spectral ** 2 * (1.0 - 1e-12)
    c = np.asarray(rep.cosine_matrix)
    assert np.allclose(c, c.T, atol=0)
    assert np.allclose(np.diag(c), 1.0, atol=0)
    assert np.all(np.abs(c) <= 1.0)
    assert math.prod(rep.per_layer_spectral) == pytest.approx(rep.product_spectral, rel=1e-12)
    for s, f in zip(rep.per_layer_spectral, rep.per_layer_frobenius):
        assert f >= s * (1.0 - 1e-12)
    assert rep.degenerate_rows == ()
