"""Monte-Carlo vote sampling under joint weight+input noise, and certification.

A smoothed classifier votes by drawing, per vote, fresh Gaussian noise ``u``
on every weight entry (std ``sigma_weight``) and fresh Gaussian noise ``v``
on the input (std ``sigma_input``), then taking the argmax of the perturbed
network at the perturbed input.  ``certify`` estimates the top class with a
small selection round, lower-bounds its vote probability with an exact
one-sided Clopper-Pearson bound from a large estimation round, and converts
that bound into an L2 radius; if the lower bound does not clear 1/2 it
abstains.

Weight noise is sampled by projection: per layer, add
``sigma_weight * ||z|| * e`` with ``e ~ N(0, I)`` to the layer's output.
Because each weight matrix acts on exactly one vector per forward pass and
``U z | z ~ N(0, sigma^2 ||z||^2 I)`` for an i.i.d. Gaussian matrix ``U``,
this draws from exactly the same output distribution as materializing a
fresh full weight-noise matrix, at a fraction of the random numbers.
``reference_votes`` in the test suite's ``tests/oracles.py`` does the
latter, literally, as an independent check.

Input noise is drawn in the first layer's row space.  That layer sees the
noisy input ``z`` only through ``W0 z`` and ``||z||``, so for a first
layer of ``h < d`` rows a vote needs ``h + 1`` normals (the row-space
coordinates of ``z`` and its coordinate along ``x``'s out-of-span part) and
one chi-square with ``d - h - 1`` degrees of freedom for the squared norm
of the rest: the same joint distribution as ``d`` fresh normals.  Each
chunk's generator draws in this order: those input normals, the
chi-square, then each layer's weight noise.  A first layer with ``h >= d``
rows draws all ``d`` input coordinates directly.

Votes are drawn in chunks of ``_CHUNK`` = 512.  A vote key is
``(base_seed, phase, *indices)`` -- ``PHASE_SELECTION`` and
``PHASE_ESTIMATION`` for ``certify``, ``PHASE_MARGIN`` for the margin loss
-- and chunk ``c`` under a key draws from its own SFC64 generator,
``rng.vote_stream(key, c)``.  Chunks share no draws, and integer tallies
add up exactly.  Sampling is deterministic given the model, input and key:
identical keys reproduce identical votes bit-for-bit.  Non-finite inputs
are rejected rather than voted on, once per call: ``sample_under_noise``
checks its ``x`` and ``empirical_margin_loss`` its set (``nn._labelled``);
``MlpModel`` refuses non-finite weights when it is built.  Ties in the vote
argmax always break to the lowest class index.

The sampler draws a block of inputs at once: ``b`` votes for each row, row
``j``'s from its own generator, stacked in row order, with the products,
norms and ReLUs run once over the whole block.  A generator's draws do not
depend on the block, but BLAS picks its kernel by the product's size, so
the logits of a many-row block can differ from a one-row block's by about
1e-15.

One loop, ``_tallies``, drives the sampler for ``sample_under_noise`` (and
so ``certify``) and for ``empirical_margin_loss``; the two differ only in
how they score a chunk's logits.  The rows go in blocks of ``max(1,
_BLOCK_VOTES // num)``: one row for certify's calls, 20 examples for the
margin loss at 200 votes.  Each item of the loop is chunk ``c`` of one
block, that chunk of every row in the block drawn at once, so a draw holds
at most ``_BLOCK_VOTES`` = 4096 votes.  4,096 votes rather than 1,024 make
the ~60 short numpy calls of a draw, each of which may hand the GIL to
another thread, a quarter as many per vote; the price is memory: a serial
margin loss of 1024 examples on 785->32^3->10 peaks at 2.2 MB of arrays in
4,000-vote blocks, against 0.77 MB in 1,000-vote ones.  The calling
thread builds each block's sampler and each item's generators: block by
block, chunk by chunk, and in row order within a chunk.  The items run
over ``train.ahead`` on the threads ``train._threads`` gives for the
normals one item draws: its rows times its chunk's votes times a vote's
normals, the sampler's input width plus each layer's output dim.  So a
vote draws 139 normals on 785->32^3->10 (33 + 106) and 116 on 17->32^3->3
(17 + 99): certify's 512-vote chunks of the first (71,168 normals) and
the margin loss's 20 x 200-vote items of both run on one thread per core,
the calling thread among them, and certify's chunks of the second
(59,392) on the calling thread.
The integer per-row counts are summed in item order, so the result does
not depend on the thread count.  A call made inside another ``ahead``'s
item, such as a sample of ``certify --workers``, runs its items in line on
that item's thread.

Every vote product goes through ``_product``, which multiplies in equal row
slices small enough that OpenBLAS keeps each dgemm on the calling thread
(``_SERIAL_MNK``).  Its own threads would otherwise wake for each vote
product and compete for the cores with the threads that call the sampler:
the loop's and ``cli``'s ``certify --workers``.

Two 512-vote chunks in flight hold about what one 1024-vote chunk held, but
only with small ufunc buffers: numpy 2.x allocates an 8192-element (64 KB)
iteration buffer for each broadcasting ufunc call, such as ``e *=
scale[:, None]`` in ``_add_weight_noise`` and the ``np.add`` of ``C`` in
``draw``.  So each item is tallied under ``np.setbufsize(_CHUNK_BUFSIZE)``,
and the size is restored after it (the setting is per thread); the logits
do not depend on the buffer size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv

from . import rng
from .bounds import vote_probability_gap
from .nn import MlpModel, _labelled
from .train import _threads, ahead

ABSTAIN = -1

_CHUNK = 512
# Ufunc buffer size, in elements, while an item of the vote loop is tallied
# (see the module docstring).  On 2 Xeon cores at one BLAS thread, a certify
# call on 785->32^3->10 with two 512-vote chunks in flight peaked at 0.670 MB
# of arrays under numpy's default 8192 and at 0.560 MB under 1024, against
# 0.583 MB for one 1024-vote chunk at a time.
_CHUNK_BUFSIZE = 1024
# Most votes in one draw of a block of rows, so that a draw's ~60 numpy
# calls, each of which may hand the GIL to the other thread, are shared by 20
# margin-loss examples at 200 votes instead of 5.  On 2 Xeon cores at one
# BLAS thread, 1024 digits examples x 200 votes took 7,600-8,000 voluntary
# context switches per threaded call in 1,000-vote blocks and 2,800-2,900 in
# 4,000-vote ones; 8,000-vote blocks were a little faster still, at twice
# the memory (see the module docstring).
_BLOCK_VOTES = 4096

# Largest m * n * k of a vote product run as one dgemm.  OpenBLAS 0.3.31
# (scipy-openblas, 2 Xeon cores) runs a dgemm on the calling thread below
# m * n * k = 2^19 and on two threads from there on; a 1024-vote layer of
# 33 -> 32 is 1024 * 33 * 32 = 1.08e6.  Half of that keeps a margin.
_SERIAL_MNK = 1 << 18
# Fewest rows in a slice.  A layer of more than _SERIAL_MNK / _MIN_SLICE_ROWS
# = 2048 weights (64 x 64, say) is multiplied whole: 1024 rows of 64 x 64 in
# 64-row slices took 1.4-1.8x the whole product's time at one BLAS thread.
_MIN_SLICE_ROWS = 128


@dataclass(frozen=True)
class NoiseConfig:
    """Noise levels and base seed.

    ``sigma_weight=None`` means "same as sigma_input".  ``base_seed`` roots
    the per-sample vote keys: sample ``i`` in phase ``p`` votes under
    ``(base_seed, p, i)``, so results never depend on evaluation order.
    """

    sigma_input: float
    sigma_weight: float | None = None
    base_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sigma_input", "sigma_weight"):
            v = getattr(self, name)
            if v is None:
                continue
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")

    @property
    def resolved_sigma_weight(self) -> float:
        return self.sigma_input if self.sigma_weight is None else self.sigma_weight


@dataclass(frozen=True)
class VoteCounts:
    """Vote tally over the classes; counts always sum to draws."""

    counts: tuple[int, ...]
    draws: int

    def top(self) -> int:
        """Most-voted class, ties to the lowest index."""
        return self.counts.index(max(self.counts))


@dataclass(frozen=True)
class CertifyResult:
    predicted: int  # class index, or ABSTAIN
    pa_lower: float
    radius: float
    alpha: float
    selection: VoteCounts
    estimation: VoteCounts

    @property
    def abstained(self) -> bool:
        return self.predicted == ABSTAIN


def _chunk_sampler(model, X, noise: NoiseConfig):
    """``draw(b, gens)``: the logits (r * b, k) of ``b`` votes of the
    jointly-perturbed network at each row of the float64 block ``X`` (r, d),
    row ``j``'s votes drawn from ``gens[j]`` and stacked in row order.
    ``X`` comes checked from the caller, and the model is finite by
    construction.

    With ``(Q, P) = model.row_basis``, row ``x`` has the coordinates
    ``c = (Q.T x, ||x - Q Q.T x||)``, computed one row at a time; a vote
    draws ``Y = c + sigma_input * N(0, I)``, so ``W0 z = P Y`` and
    ``||z||^2 = ||Y||^2 + sigma_input^2 * chi2(d - len(c))``.  Without a
    basis ``c = x`` and ``P = W0``.  The chi-square is drawn only when
    weight noise needs ``||z||``.  Each generator fills its rows' slice of
    the block arrays in a fixed order (input normals, the chi-square, then
    each layer's weight noise in order), so identical generators reproduce
    identical logits.  The products, norms and ReLUs run over the whole
    block at once, the products in ``_product``'s row slices.
    """
    si = float(noise.sigma_input)
    sw = float(noise.resolved_sigma_weight)
    if model.row_basis is None:
        C, p = X, model.layers[0]
    else:
        q, p = model.row_basis
        C = np.empty((X.shape[0], p.shape[1]))
        for x, c in zip(X, C):
            c[:-1] = x @ q
            c[-1] = np.linalg.norm(x - q @ c[:-1])
    r, width = C.shape
    rest = X.shape[1] - width  # chi-square degrees of freedom

    def draw(b: int, gens) -> np.ndarray:
        if si > 0.0:
            Y = _normals((r * b, width), gens)
            Y *= si
            # row j's votes are Y.reshape(r, b, width)[j]; no view outlives
            # the line, so `del Y` below frees the block
            np.add(Y.reshape(r, b, width), C[:, None, :], out=Y.reshape(r, b, width))
        else:
            Y = np.repeat(C, b, axis=0)
        # each block array is freed before the next one of its size is made:
        # Y before layer 0's weight noise, Z before the next layer's
        Z = _product(Y, p)
        if sw > 0.0:
            sq = np.square(Y, out=Y).sum(axis=1)
        del Y
        if sw > 0.0:
            if rest and si > 0.0:
                for g, part in zip(gens, sq.reshape(r, b)):
                    part += si * si * g.chisquare(rest, b)
            _add_weight_noise(Z, sw * np.sqrt(sq), gens)
        for w in model.layers[1:]:
            np.maximum(Z, 0.0, out=Z)
            if sw > 0.0:
                scale = sw * np.sqrt(np.square(Z).sum(axis=1))
            Z = _product(Z, w)
            if sw > 0.0:
                _add_weight_noise(Z, scale, gens)
        return Z

    return draw


def _product(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``A @ w.T``, multiplied in equal row slices of at most
    ``_SERIAL_MNK // w.size`` rows, so that OpenBLAS runs each dgemm on the
    calling thread rather than waking its own threads.

    A product within the budget, or one whose layer is so wide that a slice
    would hold fewer than ``_MIN_SLICE_ROWS`` rows, is multiplied whole.
    The slices are equal (to a row) so that none is a sliver: OpenBLAS sends
    products of a few rows to other kernels, which may round the last bit
    differently.
    """
    m = A.shape[0]
    rows = _SERIAL_MNK // w.size
    if m <= rows or rows < _MIN_SLICE_ROWS:
        return np.matmul(A, w.T)
    out = np.empty((m, w.shape[0]))
    slices = -(-m // rows)
    cuts = [m * i // slices for i in range(slices + 1)]
    for start, stop in zip(cuts, cuts[1:]):
        np.matmul(A[start:stop], w.T, out=out[start:stop])
    return out


def _normals(shape, gens) -> np.ndarray:
    """Standard normals of ``shape``, its rows split into ``len(gens)`` equal
    runs, run ``j`` drawn from ``gens[j]``."""
    out = np.empty(shape)
    for g, part in zip(gens, out.reshape(len(gens), -1, shape[1])):
        g.standard_normal(out=part)
    return out


def _add_weight_noise(A, scale, gens) -> None:
    """A += scale[:, None] * e with e ~ N(0, I), in place: the projected
    weight noise of a layer whose input rows have norms ``scale / sigma``;
    ``e``'s rows are drawn as in ``_normals``."""
    e = _normals(A.shape, gens)
    e *= scale[:, None]
    A += e


def _tallies(model: MlpModel, X: np.ndarray, noise: NoiseConfig, key, num: int,
             score) -> np.ndarray:
    """Integer counts (r, k) scored from ``num`` votes at each row of ``X``
    (r, d): the vote loop of the module docstring.

    Row ``i``'s chunk ``c`` draws from ``rng.vote_stream(key(i), c)``; a
    block's keys are built when the loop reaches it.  ``score(Z, rows, b)``
    turns the logits ``Z`` of one chunk of the block ``X[rows]``, ``b``
    votes per row stacked in row order, into the block's (len(rows), k)
    counts, which may broadcast.
    """
    if num < 1:
        raise ValueError("need at least one draw")
    r = X.shape[0]
    per_block = max(1, _BLOCK_VOTES // num)
    sizes = [min(_CHUNK, num - start) for start in range(0, num, _CHUNK)]

    def items():
        for start in range(0, r, per_block):
            rows = slice(start, min(start + per_block, r))
            draw = _chunk_sampler(model, X[rows], noise)
            keys = [key(i) for i in range(rows.start, rows.stop)]
            for c, b in enumerate(sizes):
                yield rows, b, draw, [rng.vote_stream(k, c) for k in keys]

    def tally(rows: slice, b: int, draw, gens) -> tuple:
        bufsize = np.setbufsize(_CHUNK_BUFSIZE)
        try:
            return rows, score(draw(b, gens), rows, b)
        finally:
            np.setbufsize(bufsize)

    width = model.in_dim if model.row_basis is None else model.row_basis[1].shape[1]
    per_vote = width + sum(w.shape[0] for w in model.layers)
    threads = _threads(min(per_block, r) * sizes[0] * per_vote, -(-r // per_block) * len(sizes))
    counts = np.zeros((r, model.out_dim), dtype=np.int64)
    with ahead(tally, items(), threads) as results:
        for rows, part in results:
            counts[rows] += part
    return counts


def sample_under_noise(
    model: MlpModel, x, num: int, noise: NoiseConfig, key: tuple[int, ...]
) -> VoteCounts:
    """Tally argmax votes of the jointly-perturbed network over ``num`` draws.

    ``key`` is a vote key ``(base_seed, phase, *indices)``; see ``rng``.  Its
    first element is the seed: ``noise.base_seed`` is not read here.  ``x``
    must be a finite vector of the model's input dim.  The votes go through
    the vote loop as a block of one row, each chunk an item (see the module
    docstring).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.in_dim,):
        raise ValueError(f"input shape {x.shape} incompatible with model input dim {model.in_dim}")
    if not np.isfinite(x).all():
        raise ValueError("input has non-finite entries")
    k = model.out_dim
    counts = _tallies(model, x[None], noise, lambda i: key, num,
                      lambda Z, rows, b: np.bincount(np.argmax(Z, axis=1), minlength=k))
    return VoteCounts(counts=tuple(int(c) for c in counts[0]), draws=num)


def lower_conf_bound(successes: int, draws: int, confidence: float) -> float:
    """One-sided Clopper-Pearson lower confidence bound on a binomial p.

    The (1-confidence) quantile of Beta(successes, draws-successes+1), i.e.
    the largest p with P[Bin(draws, p) >= successes] <= 1 - confidence.
    The closed-form inverse can land a few ulps high, so it is stepped down,
    with the step doubling on each try, until the incomplete beta at p is at
    most 1 - confidence: the result never overstates the bound.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if not 0 <= successes <= draws:
        raise ValueError(f"successes must lie in [0, {draws}]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    if successes == 0:
        return 0.0
    alpha = 1.0 - confidence
    a = float(successes)
    b = float(draws - successes + 1)
    p = float(betaincinv(a, b, alpha))
    step = math.ulp(p)
    while p > 0.0 and betainc(a, b, p) > alpha:
        p = max(p - step, 0.0)
        step *= 2.0
    return p


def certified_radius(pa: float, pb: float, sigma: float) -> float:
    """L2 radius sqrt(-2 sigma^2 ln(1 - (sqrt(pa) - sqrt(pb))^2)).

    ``pa`` is a lower bound on the top class's vote probability, ``pb`` an
    upper bound on the runner-up's; pa is clamped to 1 - 1e-12 so the result
    is always finite.  Zero when pa == pb.
    """
    if not np.isfinite(sigma) or sigma < 0.0:
        raise ValueError("sigma must be finite and >= 0")
    return float(sigma * np.sqrt(2.0 * vote_probability_gap(pa, pb)))


def certify(
    model: MlpModel,
    x,
    noise: NoiseConfig,
    n_selection: int = 100,
    n_estimation: int = 100_000,
    alpha: float = 0.001,
    sample_index: int = 0,
) -> CertifyResult:
    """Certify one input: select the top class, bound its vote probability,
    convert to a radius, abstain if the bound does not clear 1/2.

    Selection and estimation draw from the disjoint vote keys
    ``(noise.base_seed, phase, sample_index)``, so results are reproducible
    and independent of processing order.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    sel = sample_under_noise(
        model, x, n_selection, noise, (noise.base_seed, rng.PHASE_SELECTION, sample_index)
    )
    guess = sel.top()
    est = sample_under_noise(
        model, x, n_estimation, noise, (noise.base_seed, rng.PHASE_ESTIMATION, sample_index)
    )
    pa_lower = lower_conf_bound(est.counts[guess], n_estimation, 1.0 - alpha)
    if pa_lower <= 0.5:
        return CertifyResult(ABSTAIN, pa_lower, 0.0, alpha, sel, est)
    radius = certified_radius(pa_lower, 1.0 - pa_lower, noise.sigma_input)
    return CertifyResult(guess, pa_lower, radius, alpha, sel, est)


def empirical_margin_loss(
    model: MlpModel, inputs, labels, gamma: float, noise: NoiseConfig, num: int
) -> float:
    """Fraction of examples misvoted by the gamma-margin smoothed classifier.

    Per draw, the label class scores a vote only when it beats every other
    logit by more than ``gamma``; every other class gets a ``gamma`` head
    start against its own competitors.  The class with the most votes wins
    (ties to the lowest index); an example counts as a loss when the winner
    is not its label.  gamma = 0 with zero noise reduces to the plain 0-1
    error.  Monotone non-decreasing in gamma at fixed seeds.

    Example ``i``'s chunk ``c`` of ``num`` votes draws from
    ``rng.vote_stream((noise.base_seed, PHASE_MARGIN, i), c)``, and the
    examples go through the vote loop of the module docstring, in blocks of
    ``max(1, _BLOCK_VOTES // num)``.  A block's products may round
    differently from one example's, by about 1e-15.
    """
    X, y = _labelled(model, inputs, labels)
    if gamma < 0.0 or not np.isfinite(gamma):
        raise ValueError("gamma must be finite and >= 0")
    k = model.out_dim
    if k == 1:
        return 0.0
    cols = np.arange(k)

    def score(Z: np.ndarray, rows: slice, b: int) -> np.ndarray:
        part = np.partition(Z, -2, axis=1)
        top, second = part[:, -1], part[:, -2]
        am = np.argmax(Z, axis=1)
        max_others = np.where(cols[None, :] == am[:, None], second[:, None], top[:, None])
        ind = Z + gamma > max_others
        votes, label = np.arange(Z.shape[0]), np.repeat(y[rows], b)
        ind[votes, label] = Z[votes, label] > max_others[votes, label] + gamma
        return ind.reshape(-1, b, k).sum(axis=1)

    counts = _tallies(model, X, noise, lambda i: (noise.base_seed, rng.PHASE_MARGIN, i), num,
                      score)
    return int(np.count_nonzero(np.argmax(counts, axis=1) != y)) / X.shape[0]


def certified_accuracy_curve(predicted, radius, labels, radii) -> np.ndarray:
    """Fraction of examples both correct and certified at radius >= r, per r.

    ``predicted`` and ``radius`` hold each example's certified class (or
    ABSTAIN) and radius; ``radii`` is the grid the curve is evaluated on.
    Abstentions count as incorrect at every radius, so the curve at r = 0 is
    the certified (non-abstaining) accuracy.  Non-increasing in r.
    """
    pred = np.asarray(predicted)
    rad = np.asarray(radius, dtype=np.float64)
    y = np.asarray(labels)
    if not pred.shape == rad.shape == y.shape or pred.ndim != 1:
        raise ValueError("predicted, radius and labels must be equal-length vectors")
    if pred.shape[0] == 0:
        raise ValueError("need at least one certification result")
    correct = pred == y
    return np.array([np.mean(correct & (rad >= r)) for r in np.asarray(radii, dtype=np.float64)])
