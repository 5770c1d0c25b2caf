"""Spectral diagnostics and the row-decorrelation regularizer.

The central objects: the collapsed weight matrix (the product of all layer
matrices, i.e. the linear map the network computes when every ReLU is
dropped), the matrix of cosine similarities between its rows -- which equals
the Pearson correlation matrix of the collapsed map's outputs under any
spherical Gaussian input -- and the entrywise L1 norm of that cosine matrix,
used as a training regularizer.  An upper bound on the squared spectral norm
comes from the infinity norm of the Gram matrix (a Gershgorin-style bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .nn import Matrix, MlpModel, _as_f64


def spectral_norm(m: Matrix) -> float:
    """Largest singular value, from an SVD.

    Exact rather than iterative: ``psi`` falls as a spectral norm rises, so
    an estimate that reads low would make the bound optimistic.
    """
    m = _as_f64(m)
    if not np.any(m):
        raise ValueError("spectral_norm of an all-zero matrix")
    return float(np.linalg.norm(m, 2))


def collapsed_weight(model: MlpModel) -> Matrix:
    """Product of all layer matrices, last-to-first: shape (out_dim, in_dim)."""
    return reduce(lambda acc, w: w @ acc, model.layers[1:], model.layers[0])


def gershgorin_bound(m: Matrix) -> float:
    """Infinity norm of m m^T: max over rows i of sum_j |<w_i, w_j>|.

    Always >= the squared spectral norm of ``m``.
    """
    m = _as_f64(m)
    if not np.any(m):
        raise ValueError("gershgorin_bound of an all-zero matrix")
    gram = m @ m.T
    return float(np.abs(gram).sum(axis=1).max())


def _row_cosines(m: Matrix) -> tuple[Matrix, np.ndarray, Matrix, np.ndarray]:
    """Cosine matrix plus (row norms, unit rows, zero-row indices)."""
    norms = np.linalg.norm(m, axis=1)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    units = m / safe[:, None]
    cos = units @ units.T
    np.clip(cos, -1.0, 1.0, out=cos)
    np.fill_diagonal(cos, 1.0)
    if zero.any():
        cos[zero, :] = 0.0
        cos[:, zero] = 0.0
        cos[zero, zero] = 1.0
    return cos, norms, units, np.flatnonzero(zero)


def mean_abs_offdiag(m) -> float:
    """Mean absolute off-diagonal entry of a square matrix (0 below 2x2)."""
    c = np.asarray(m, dtype=np.float64)
    k = c.shape[0]
    if k < 2:
        return 0.0
    return float(np.abs(c[~np.eye(k, dtype=bool)]).mean())


def regularizer_and_gradient(model: MlpModel) -> tuple[float, tuple[Matrix, ...]]:
    """Entrywise L1 norm of the collapsed-weight cosine matrix, with its
    gradient as one array per layer.

    Value: sum_{i,j} |cos(w_i, w_j)| over rows of the collapsed matrix (the
    diagonal contributes exactly k and carries no gradient).  Gradients are
    chained through the absolute value (subgradient 0 at 0), the cosine
    normalization, the Gram matrix, and the layer product, using cached
    left/right partial products.  Zero rows are excluded from the gradient,
    as ``spectral_report`` does.
    """
    n = model.n_layers
    rights: list[Matrix] = [None] * n  # type: ignore[list-item]
    acc = None
    for i in range(n):  # rights[i] = W_{i-1} ... W_0, identity for i == 0
        rights[i] = acc
        acc = model.layers[i] if acc is None else model.layers[i] @ acc
    W = acc  # the collapsed weight, multiplied in collapsed_weight's order
    cos, norms, units, zero_rows = _row_cosines(W)
    value = float(np.abs(cos).sum())

    sign = np.sign(cos)
    np.fill_diagonal(sign, 0.0)

    # d(value)/d(unit rows) = 2 * sign @ units, then project each row onto the
    # tangent space of its unit sphere and divide by the row norm.
    dU = 2.0 * (sign @ units)
    rowdot = np.einsum("ij,ij->i", dU, units)
    safe = np.where(norms == 0.0, 1.0, norms)
    dW = (dU - units * rowdot[:, None]) / safe[:, None]
    if zero_rows.size:
        dW[zero_rows, :] = 0.0

    # Chain through the product W = L_i @ layer_i @ R_i via the partial
    # products: rights above, lefts below.
    lefts: list[Matrix] = [None] * n  # type: ignore[list-item]
    acc = None
    for i in range(n - 1, -1, -1):  # lefts[i] = W_{n-1} ... W_{i+1}
        lefts[i] = acc
        acc = model.layers[i] if acc is None else acc @ model.layers[i]

    grads = []
    for i in range(n):
        g = dW if lefts[i] is None else lefts[i].T @ dW
        if rights[i] is not None:
            g = g @ rights[i].T
        grads.append(g)
    return value, tuple(grads)


@dataclass(frozen=True)
class SpectralReport:
    """Spectral diagnostics of a model; ``asdict`` of it is JSON-serializable."""

    per_layer_spectral: tuple[float, ...]
    per_layer_frobenius: tuple[float, ...]
    product_spectral: float
    collapsed_spectral: float
    gershgorin: float
    cosine_matrix: tuple[tuple[float, ...], ...]
    degenerate_rows: tuple[int, ...]


def spectral_report(model: MlpModel) -> SpectralReport:
    """Assemble the full spectral diagnostics for a model."""

    def _norm(m: Matrix) -> float:  # all-zero matrices report norm 0 here
        return spectral_norm(m) if np.any(m) else 0.0

    per_spec = tuple(_norm(w) for w in model.layers)
    per_frob = tuple(float(np.linalg.norm(w)) for w in model.layers)
    W = collapsed_weight(model)
    cos, _, _, zero_rows = _row_cosines(W)
    return SpectralReport(
        per_layer_spectral=per_spec,
        per_layer_frobenius=per_frob,
        product_spectral=float(np.prod(per_spec)),
        collapsed_spectral=_norm(W),
        gershgorin=gershgorin_bound(W) if np.any(W) else 0.0,
        cosine_matrix=tuple(tuple(float(v) for v in row) for row in cos),
        degenerate_rows=tuple(int(i) for i in zero_rows),
    )
