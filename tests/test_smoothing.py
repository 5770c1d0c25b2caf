import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.special import betainc
from scipy.stats import norm

from smoothcert import rng, smoothing
from smoothcert.nn import MlpModel, forward_batch
from smoothcert.train import ahead
from smoothcert.smoothing import (
    _CHUNK,
    _CHUNK_BUFSIZE,
    _MIN_SLICE_ROWS,
    _SERIAL_MNK,
    ABSTAIN,
    _chunk_sampler,
    _product,
    NoiseConfig,
    VoteCounts,
    certified_accuracy_curve,
    certified_radius,
    certify,
    empirical_margin_loss,
    lower_conf_bound,
    sample_under_noise,
)

from conftest import joint_noise_case, meet_on_two_threads, rand_model, train_module
from oracles import binomial_tail, joint_vote_probability, reference_votes

NO_NOISE = NoiseConfig(sigma_input=0.0, sigma_weight=0.0)


def model_of(*mats):
    return MlpModel(tuple(np.asarray(m, dtype=float) for m in mats))


# ------------------------------------------------------------ vote sampling

def test_zero_noise_votes_equal_plain_argmax():
    g = rng.stream(20, 98)
    for seed in range(5):
        model = rand_model((6, 5, 4), seed=seed)
        x = g.standard_normal(6)
        votes = sample_under_noise(model, x, 32, NO_NOISE, (seed,))
        want = int(np.argmax(forward_batch(model, x[None, :])[0][0]))
        assert votes.counts[want] == 32
        assert sum(votes.counts) == votes.draws == 32


def test_vote_count_conservation_under_noise(tiny_model):
    noise = NoiseConfig(sigma_input=0.8, sigma_weight=0.4)
    votes = sample_under_noise(tiny_model, np.zeros(6), 5001, noise, (3,))
    assert sum(votes.counts) == votes.draws == 5001
    assert all(c >= 0 for c in votes.counts)


def test_top_breaks_ties_to_lowest_index():
    assert VoteCounts(counts=(3, 3, 1), draws=7).top() == 0
    assert VoteCounts(counts=(0, 5, 5), draws=10).top() == 1


def test_identical_streams_reproduce_votes(tiny_model):
    noise = NoiseConfig(sigma_input=0.3, sigma_weight=0.2)
    a = sample_under_noise(tiny_model, np.ones(6), 5000, noise, (7,))
    b = sample_under_noise(tiny_model, np.ones(6), 5000, noise, (7,))
    assert a == b


def test_chunk_tallies_sum_to_the_call_tally():
    # each chunk draws from its own key, so tallying the chunks one by one,
    # last first, gives the call's tally exactly
    model = rand_model((12, 3, 3), seed=3)  # row-space input noise
    x = np.linspace(-1.0, 1.0, 12)
    noise = NoiseConfig(sigma_input=0.5, sigma_weight=0.3)
    key = (4, rng.PHASE_ESTIMATION, 9)
    num = 3 * _CHUNK + 5
    draw = _chunk_sampler(model, x[None, :], noise)
    counts = np.zeros(3, dtype=np.int64)
    for c in reversed(range(4)):
        Z = draw(min(_CHUNK, num - c * _CHUNK), [rng.vote_stream(key, c)])
        counts += np.bincount(np.argmax(Z, axis=1), minlength=3)
    assert sample_under_noise(model, x, num, noise, key).counts == tuple(counts)


@pytest.mark.parametrize("dims", [(12, 3, 3), (4, 6, 3)])  # row-space, and h >= d
@pytest.mark.parametrize("n", [_CHUNK, 2 * _CHUNK + 1])
def test_votes_do_not_depend_on_the_thread_count(monkeypatch, dims, n):
    # the chunks' integer tallies are summed, so spreading the chunks over
    # any number of threads gives the same counts; selection's 100 votes
    # are one chunk.  Threads switch every microsecond, so that they
    # interleave within each chunk.
    monkeypatch.setattr(train_module, "_ITEM_MIN_NORMALS", 0)  # thread these small models
    model = rand_model(dims, seed=10)
    x = rng.stream(30, 98).standard_normal(dims[0])
    noise = NoiseConfig(sigma_input=0.6, sigma_weight=0.4, base_seed=8)
    key = (8, rng.PHASE_ESTIMATION, 0)
    votes, results = set(), set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 3):
            monkeypatch.setattr(train_module, "_usable_cores", lambda: threads)
            votes.add(tuple(sample_under_noise(model, x, num, noise, key) for num in (100, n)))
            results.add(certify(model, x, noise, n_selection=100, n_estimation=n,
                                sample_index=3))
    finally:
        sys.setswitchinterval(interval)
    assert len(votes) == 1 and len(results) == 1
    (res,) = results
    assert sorted(res.estimation.counts)[-2] > 0  # the votes are split


def test_certify_threads_only_estimation_chunks_of_models_of_many_weights(monkeypatch):
    # a 512-vote chunk draws 512 x 28 = 14,336 normals on 12 -> 8 -> 8 -> 3
    # (9 row-space input coordinates and 19 output dims a vote), 512 x 207 =
    # 106k on 12 -> 96 -> 96 -> 3, 512 x 116 = 59,392 on the CLI's default
    # 17 -> 32^3 -> 3 and 512 x 139 = 71,168 on 785 -> 32^3 -> 10;
    # selection's 100 votes are one chunk, on the calling thread either way.
    # The calling thread runs estimation chunks too; threaded, the one helper
    # runs chunks at the same time as it
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 2)
    product = smoothing._product
    for dims, threaded in (((12, 8, 8, 3), False), ((12, 96, 96, 3), True),
                           ((17, 32, 32, 32, 3), False), ((785, 32, 32, 32, 10), True)):
        model = rand_model(dims, seed=3)
        depth = len(model.layers)  # selection's products
        recording, calls = meet_on_two_threads(product, after=depth if threaded else math.inf)
        monkeypatch.setattr(smoothing, "_product", recording)
        certify(model, np.ones(dims[0]), NoiseConfig(sigma_input=0.3), n_selection=100,
                n_estimation=4 * _CHUNK)
        assert calls[:depth] == [threading.get_ident()] * depth
        assert threading.get_ident() in calls[depth:]
        assert len(set(calls[depth:])) == (2 if threaded else 1), dims


def test_certify_joins_its_chunk_threads_also_when_a_chunk_raises(monkeypatch):
    model = rand_model((12, 3, 3), seed=3)
    x = np.linspace(-1.0, 1.0, 12)
    noise = NoiseConfig(sigma_input=0.5, sigma_weight=0.3)
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 2)
    monkeypatch.setattr(train_module, "_ITEM_MIN_NORMALS", 0)
    start = threading.active_count()
    certify(model, x, noise, n_selection=100, n_estimation=6 * _CHUNK)
    assert threading.active_count() == start

    product = smoothing._product
    count = []

    def failing_product(A, w):
        count.append(1)
        if len(count) == 5:  # selection's two products, then the estimation chunks'
            raise RuntimeError("chunk failed")
        return product(A, w)

    # two threads run estimation chunks at once when one of them fails
    recording, calls = meet_on_two_threads(failing_product, after=2)
    monkeypatch.setattr(smoothing, "_product", recording)
    with pytest.raises(RuntimeError, match="chunk failed"):
        certify(model, x, noise, n_selection=100, n_estimation=6 * _CHUNK)
    assert calls[:2] == [threading.get_ident()] * 2
    assert threading.get_ident() in calls[2:] and len(set(calls[2:])) == 2
    assert threading.active_count() == start


def test_certify_on_an_ahead_worker_runs_its_chunks_on_that_worker(monkeypatch):
    # certify --workers maps its samples over train.ahead; a sample's chunks
    # then run on the thread that certifies it, the calling thread or the
    # one helper, so no second map starts threads
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 2)
    monkeypatch.setattr(train_module, "_ITEM_MIN_NORMALS", 0)
    model = rand_model((12, 3, 3), seed=3)
    model.row_basis  # computed before the threads meet it
    X = rng.stream(31, 98).standard_normal((6, 12))
    noise = NoiseConfig(sigma_input=0.5, sigma_weight=0.3)
    want = [certify(model, x, noise, n_estimation=4 * _CHUNK, sample_index=i)
            for i, x in enumerate(X)]
    before = threading.active_count()
    products, alive = [], []
    product = smoothing._product
    sample_thread = threading.local()

    def recording_product(A, w):
        products.append(threading.get_ident() == sample_thread.ident)
        alive.append(threading.active_count())
        return product(A, w)

    def certify_sample(i):
        sample_thread.ident = threading.get_ident()
        return certify(model, X[i], noise, n_estimation=4 * _CHUNK, sample_index=i)

    certify_one, samples = meet_on_two_threads(certify_sample)
    monkeypatch.setattr(smoothing, "_product", recording_product)
    with ahead(certify_one, zip(range(len(X))), 2) as results:
        got = list(results)
    assert got == want
    assert products and all(products)
    assert threading.get_ident() in samples and len(set(samples)) == 2
    assert max(alive) <= before + 1  # the outer map's one helper
    assert threading.active_count() == before


def test_chunk_logits_do_not_depend_on_the_ufunc_buffer_size(monkeypatch):
    # chunks are tallied under small ufunc buffers, which must change no bit;
    # certify's and the margin loss's chunks run under them on every thread,
    # and the caller's buffer size comes back, also when a chunk raises
    noise = NoiseConfig(sigma_input=0.5, sigma_weight=0.3)
    for dims in ((12, 3, 3), (4, 6, 3)):  # row-space, and h >= d
        model = rand_model(dims, seed=5)
        x = np.linspace(-1.0, 1.0, dims[0])
        draw = _chunk_sampler(model, x[None, :], noise)
        logits = []
        for size in (np.getbufsize(), _CHUNK_BUFSIZE):
            before = np.setbufsize(size)
            try:
                logits.append(draw(_CHUNK, [rng.vote_stream((1, rng.PHASE_ESTIMATION, 0), 0)]))
            finally:
                np.setbufsize(before)
        assert np.array_equal(*logits)

    product = smoothing._product
    sizes = []

    def recording_product(A, w):
        sizes.append((threading.get_ident(), np.getbufsize()))
        return product(A, w)

    def failing_product(A, w):
        raise RuntimeError("chunk failed")

    monkeypatch.setattr(train_module, "_ITEM_MIN_NORMALS", 0)  # thread this small model
    X, y = np.stack([x, -x, 0.5 * x]), np.array([0, 1, 2])
    calls = (lambda: sample_under_noise(model, x, 4 * _CHUNK, noise, (1,)),
             lambda: empirical_margin_loss(model, X, y, 0.1, noise, 4 * _CHUNK))
    before = np.setbufsize(4096)  # the caller's own size
    try:
        for cores in (1, 2):  # the calling thread alone, and with a helper
            monkeypatch.setattr(train_module, "_usable_cores", lambda: cores)
            for call in calls:
                sizes.clear()
                recording = (meet_on_two_threads(recording_product)[0] if cores == 2
                             else recording_product)
                monkeypatch.setattr(smoothing, "_product", recording)
                call()
                assert np.getbufsize() == 4096
                assert {size for _, size in sizes} == {_CHUNK_BUFSIZE}
                assert len({thread for thread, _ in sizes}) == cores
                monkeypatch.setattr(smoothing, "_product", failing_product)
                with pytest.raises(RuntimeError, match="chunk failed"):
                    call()
                assert np.getbufsize() == 4096
    finally:
        np.setbufsize(before)


@pytest.mark.parametrize("dims", [(12, 3, 3), (4, 6, 3)])  # row-space, and h >= d
def test_block_rows_draw_as_one_row_blocks(dims):
    # row j of a block draws its votes from gens[j] alone; only the block's
    # products may round differently from a one-row block's
    model = rand_model(dims, seed=8)
    X = rng.stream(24, 98).standard_normal((5, dims[0]))
    noise = NoiseConfig(sigma_input=0.5, sigma_weight=0.3)
    b = 300
    keys = [(2, rng.PHASE_MARGIN, i) for i in range(5)]
    block = _chunk_sampler(model, X, noise)(b, [rng.vote_stream(key, 0) for key in keys])
    assert block.shape == (5 * b, 3)
    for j, key in enumerate(keys):
        row = _chunk_sampler(model, X[j:j + 1], noise)(b, [rng.vote_stream(key, 0)])
        assert np.allclose(block[j * b:(j + 1) * b], row, rtol=1e-12, atol=1e-12)


def _record_matmuls(monkeypatch):
    shapes = []
    matmul = np.matmul

    def spy(a, b, **kw):
        shapes.append((a.shape, b.shape))
        return matmul(a, b, **kw)

    monkeypatch.setattr(np, "matmul", spy)
    return shapes


def test_product_under_the_budget_is_the_whole_product(monkeypatch):
    g = rng.stream(26, 98)
    A, w = g.standard_normal((200, 33)), g.standard_normal((32, 33))
    assert A.shape[0] * w.size <= _SERIAL_MNK
    want = A @ w.T
    shapes = _record_matmuls(monkeypatch)
    assert np.array_equal(_product(A, w), want)
    assert shapes == [((200, 33), (33, 32))]


@pytest.mark.parametrize("m, width", [(1024, 33), (1000, 32), (800, 32), (5000, 17)])
def test_product_over_the_budget_runs_in_equal_slices_under_it(monkeypatch, m, width):
    g = rng.stream(27, 98)
    A, w = g.standard_normal((m, width)), g.standard_normal((32, width))
    assert m * w.size > _SERIAL_MNK
    want = A @ w.T
    shapes = _record_matmuls(monkeypatch)
    got = _product(A, w)
    rows = [a[0] for a, _ in shapes]
    assert len(rows) > 1 and sum(rows) == m
    assert max(rows) - min(rows) <= 1
    assert all(r * w.size <= _SERIAL_MNK for r in rows)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_product_of_a_too_wide_layer_is_one_whole_call(monkeypatch):
    g = rng.stream(28, 98)
    A, w = g.standard_normal((1024, 512)), g.standard_normal((512, 512))
    assert _SERIAL_MNK // w.size < _MIN_SLICE_ROWS
    want = A @ w.T
    shapes = _record_matmuls(monkeypatch)
    assert np.array_equal(_product(A, w), want)
    assert shapes == [((1024, 512), (512, 512))]


def test_symmetric_input_splits_votes_in_binomial_band():
    # both logits are iid normals around 0 -> vote probabilities (1/2, 1/2)
    model = model_of(np.eye(2))
    noise = NoiseConfig(sigma_input=1.0, sigma_weight=0.0)
    num = 100_000
    votes = sample_under_noise(model, np.zeros(2), num, noise, (1,))
    band = 3.0 * math.sqrt(num * 0.25)
    assert abs(votes.counts[0] - num / 2.0) <= band


def _agreement_cases():
    # (4, 4, 3) samples every input coordinate; the 12-input models sample in
    # the first layer's row space, and their x sits as far outside that space
    # as inside it, so the chi-square part of ||z|| carries real weight
    yield rand_model((4, 4, 3), seed=2), 0.3 * np.ones(4)
    for dims, seed in (((12, 3, 3), 3), ((12, 2), 4)):
        model = rand_model(dims, seed=seed)
        w = model.layers[0]
        inside = w[0] - w[1]
        outside = null_space(w)[:, 0]
        yield model, 2.0 * inside / np.linalg.norm(inside) + 2.0 * outside


def test_sampler_modes_agree_statistically():
    # the sampler and a fresh full weight-noise matrix per vote draw from the
    # same distribution: every class's vote share must agree within 5
    # standard errors of a difference of proportions (and 0.05)
    num = 20_000
    for model, x in _agreement_cases():
        for si, sw in ((0.2, 0.2), (1.0, 0.5), (0.0, 0.5), (0.5, 0.0)):
            noise = NoiseConfig(sigma_input=si, sigma_weight=sw)
            fast = sample_under_noise(model, x, num, noise, (5,))
            slow = reference_votes(model, x, num, noise, rng.stream(6))
            assert fast.draws == slow.draws == num
            for a, b in zip(fast.counts, slow.counts):
                pooled = (a + b) / (2.0 * num)
                se = math.sqrt(2.0 * pooled * (1.0 - pooled) / num)
                assert abs(a - b) / num <= min(0.05, 5.0 * se), (model.dims, si, sw)


@pytest.mark.parametrize("si,sw", [(0.5, 0.3), (0.5, 0.0), (0.0, 0.3)])
def test_joint_noise_votes_match_the_exact_probability(si, sw):
    # the law of the row-space, projected sampler against an exact answer:
    # quadrature under joint noise, closed forms when one noise is off
    w, x = joint_noise_case()
    dw = w[0] - w[1]
    a = dw @ x / np.linalg.norm(dw)
    if sw == 0.0:
        p = norm.cdf(a / si)
    elif si == 0.0:
        p = norm.cdf(np.linalg.norm(dw) * a / (math.sqrt(2.0) * sw * np.linalg.norm(x)))
    else:
        p = joint_vote_probability(w, x, si, sw)
    num = 2_000_000
    votes = sample_under_noise(model_of(w), x, num, NoiseConfig(si, sw), (7,))
    assert abs(votes.counts[0] / num - p) <= 4.0 * math.sqrt(p * (1.0 - p) / num)


def test_sample_under_noise_validates():
    model = model_of(np.eye(2))
    with pytest.raises(ValueError):
        sample_under_noise(model, np.zeros(3), 10, NO_NOISE, (0,))
    with pytest.raises(ValueError):
        sample_under_noise(model, np.zeros(2), 0, NO_NOISE, (0,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected_not_voted(bad):
    # an all-NaN logit row would otherwise argmax to class 0 and certify
    model = model_of([[1.0, 0.0], [-1.0, 0.0]])
    noise = NoiseConfig(sigma_input=0.25, sigma_weight=0.1)
    with pytest.raises(ValueError, match="non-finite"):
        sample_under_noise(model, np.array([bad, 0.0]), 10, noise, (0,))
    with pytest.raises(ValueError, match="non-finite"):
        certify(model, np.array([bad, 0.0]), noise, n_selection=10, n_estimation=100)


def test_non_finite_weights_are_rejected_not_voted():
    # no model with a non-finite weight can be built, so none reaches a vote
    with pytest.raises(ValueError, match="non-finite weights in layer 0"):
        model_of([[1.0, np.nan], [-1.0, 0.0]])


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(sigma_input=-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(sigma_input=0.1, sigma_weight=float("nan"))
    with pytest.raises(ValueError):
        NoiseConfig(sigma_input=0.1, base_seed=-1)
    assert NoiseConfig(sigma_input=0.5).resolved_sigma_weight == 0.5
    assert NoiseConfig(sigma_input=0.5, sigma_weight=0.1).resolved_sigma_weight == 0.1


# ------------------------------------------------------------ Clopper-Pearson

def test_lcb_zero_successes():
    assert lower_conf_bound(0, 100, 0.999) == 0.0


def test_lcb_all_successes_closed_form():
    for n in (10, 100, 100_000):
        want = 0.001 ** (1.0 / n)
        assert lower_conf_bound(n, n, 0.999) == pytest.approx(want, abs=1e-10)


def test_lcb_frozen_golden_and_tail_consistency():
    p = lower_conf_bound(90, 100, 0.999)
    assert p == pytest.approx(0.7753298801677749, abs=1e-11)
    # p* is where the upper tail P[Bin(100, p) >= 90] crosses alpha = 0.001
    assert binomial_tail(90, 100, p) == pytest.approx(0.001, abs=1e-9)


def test_lcb_tail_consistency_randomized():
    g = rng.stream(21, 98)
    for _ in range(10):
        n = int(g.integers(2, 1000))
        k = int(g.integers(1, n + 1))
        conf = float(g.uniform(0.9, 0.9999))
        p = lower_conf_bound(k, n, conf)
        assert binomial_tail(k, n, p) == pytest.approx(1.0 - conf, abs=1e-8)


def test_lcb_below_mle_and_monotone():
    assert lower_conf_bound(100, 100, 0.999) < 1.0
    vals = [lower_conf_bound(k, 100, 0.999) for k in (10, 30, 50, 70, 90)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    for k, v in zip((10, 30, 50, 70, 90), vals):
        assert v < k / 100.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 10**6), data=st.data(),
       confidence=st.floats(0.5, 0.99999, exclude_min=True, exclude_max=True))
def test_lcb_closed_form_is_conservative_and_monotone(n, data, confidence):
    k = data.draw(st.integers(0, n), label="k")
    p = lower_conf_bound(k, n, confidence)
    assert 0.0 <= p <= k / n
    if k > 0:
        assert betainc(k, n - k + 1, p) <= 1.0 - confidence
    if k < n:
        assert lower_conf_bound(k + 1, n, confidence) >= p
    if k > 0:
        assert lower_conf_bound(k - 1, n, confidence) <= p


def test_lcb_validates():
    with pytest.raises(ValueError):
        lower_conf_bound(5, 0, 0.999)
    with pytest.raises(ValueError):
        lower_conf_bound(11, 10, 0.999)
    with pytest.raises(ValueError):
        lower_conf_bound(5, 10, 1.0)


# ------------------------------------------------------------ radius formula

def test_certified_radius_frozen_golden():
    assert certified_radius(0.75, 0.25, 1.0) == pytest.approx(
        0.5363600213026516, rel=1e-12)


def test_certified_radius_zero_when_equal():
    assert certified_radius(0.5, 0.5, 1.0) == 0.0


def test_certified_radius_linear_in_sigma():
    r1 = certified_radius(0.9, 0.1, 1.0)
    assert certified_radius(0.9, 0.1, 2.5) == pytest.approx(2.5 * r1, rel=1e-14)


def test_certified_radius_strictly_increasing_in_pa():
    pas = np.linspace(0.501, 0.9999, 60)
    rs = [certified_radius(float(p), float(1.0 - p), 1.0) for p in pas]
    assert all(b > a for a, b in zip(rs, rs[1:]))


def test_certified_radius_finite_at_certainty():
    assert math.isfinite(certified_radius(1.0, 0.0, 1.0))


@pytest.mark.parametrize("sigma", [0.3, 2.5])
def test_certified_radius_is_fixed_share_of_gaussian_radius(sigma):
    # the Renyi radius sigma*sqrt(-2 ln(1 - (sqrt(p) - sqrt(1-p))^2)) is between
    # 0.728 (at p = 1 - 1e-12) and sqrt(2/pi) = 0.798 (as p -> 1/2) of
    # sigma*Phi^-1(p); sigma on both sides of 1 makes a sigma-for-sigma^2 slip
    # fall outside the band
    ps = np.concatenate([0.5 + np.logspace(-8, math.log10(0.49), 60),
                         1.0 - np.logspace(-2, -12, 30)])
    for p in ps:
        ratio = certified_radius(float(p), float(1.0 - p), sigma) / (sigma * norm.ppf(p))
        assert 0.728 <= ratio <= 0.798, (p, ratio)


# ------------------------------------------------------------ certify

def test_certify_unanimous_votes_closed_form():
    # huge margin, no weight noise: every vote goes to class 0
    model = model_of(np.eye(2))
    noise = NoiseConfig(sigma_input=math.sqrt(0.12), sigma_weight=0.0, base_seed=0)
    res = certify(model, np.array([10.0, 0.0]), noise,
                  n_selection=100, n_estimation=100_000, alpha=0.001)
    assert res.predicted == 0
    assert res.estimation.counts[0] == 100_000
    assert res.pa_lower == pytest.approx(0.001 ** (1.0 / 100_000), abs=1e-10)
    assert res.radius == pytest.approx(0.991610204832401, rel=1e-9)
    assert not res.abstained


def test_certify_abstains_on_coin_flip():
    model = model_of(np.eye(2))
    noise = NoiseConfig(sigma_input=1.0, sigma_weight=0.0, base_seed=3)
    res = certify(model, np.zeros(2), noise, n_selection=50,
                  n_estimation=2000, alpha=0.001)
    assert res.predicted == ABSTAIN
    assert res.abstained
    assert res.radius == 0.0
    assert res.pa_lower <= 0.5


def test_certify_deterministic_and_sample_index_sensitive(tiny_model):
    noise = NoiseConfig(sigma_input=0.4, sigma_weight=0.2, base_seed=11)
    x = np.ones(6) * 0.2
    a = certify(tiny_model, x, noise, n_selection=30, n_estimation=500, sample_index=4)
    b = certify(tiny_model, x, noise, n_selection=30, n_estimation=500, sample_index=4)
    assert a == b
    c = certify(tiny_model, x, noise, n_selection=30, n_estimation=500, sample_index=5)
    assert c.estimation.counts != a.estimation.counts


def test_certify_validates_alpha(tiny_model):
    noise = NoiseConfig(sigma_input=0.4)
    with pytest.raises(ValueError):
        certify(tiny_model, np.zeros(6), noise, alpha=0.0)


def test_certify_lower_bound_covers_exact_vote_probability():
    # a two-class linear model under input noise alone votes for class 0 with
    # probability exactly Phi((w0 - w1).x / (sigma ||w0 - w1||)); certify's
    # pa_lower may exceed the guessed class's probability in at most an alpha
    # share of independent seeds (plus 3 binomial SD).  d = 8 > 2 inputs, so
    # the votes are drawn in the first layer's row space.  The plain model
    # puts x in class 0 at distance D from its decision boundary, so a
    # certificate is wrong when it names class 1 or a radius above D; that
    # may also happen in at most an alpha share of the seeds.
    model = rand_model((8, 2), seed=31)
    w = model.layers[0]
    diff = w[0] - w[1]
    sigma, alpha, seeds, n = 0.5, 0.05, 2000, 500
    x = 0.42 * diff / np.linalg.norm(diff) + 1.5 * null_space(w)[:, 0]
    dist = float(diff @ x / np.linalg.norm(diff))
    p0 = float(norm.cdf(diff @ x / (sigma * np.linalg.norm(diff))))
    misses = wrong = class0_votes = 0
    for seed in range(seeds):
        noise = NoiseConfig(sigma_input=sigma, sigma_weight=0.0, base_seed=seed)
        res = certify(model, x, noise, n_selection=10, n_estimation=n, alpha=alpha)
        p_true = p0 if res.selection.top() == 0 else 1.0 - p0
        misses += res.pa_lower > p_true
        class0_votes += res.estimation.counts[0]
        if not res.abstained:
            assert res.radius <= sigma * norm.ppf(res.pa_lower)
            wrong += res.predicted == 1 or res.radius > dist
    limit = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / seeds)
    assert dist == pytest.approx(0.42)
    assert misses / seeds <= limit
    assert wrong / seeds <= limit
    # the vote share itself matches the exact probability within 5 SE
    total = seeds * n
    assert abs(class0_votes / total - p0) <= 5.0 * math.sqrt(p0 * (1.0 - p0) / total)


# ------------------------------------------------------------ margin loss

def margin_fixture():
    model = rand_model((5, 4, 3), seed=13)
    g = rng.stream(22, 98)
    X = g.standard_normal((40, 5))
    logits, _ = forward_batch(model, X)
    y = np.argmax(logits, axis=1)
    y[:10] = (y[:10] + 1) % 3  # force some plain errors
    return model, X, y


def test_margin_loss_gamma_zero_no_noise_is_plain_error():
    model, X, y = margin_fixture()
    plain = np.mean(np.argmax(forward_batch(model, X)[0], axis=1) != y)
    got = empirical_margin_loss(model, X, y, 0.0, NO_NOISE, num=8)
    assert got == pytest.approx(float(plain), abs=0)


def test_margin_loss_monotone_in_gamma():
    model, X, y = margin_fixture()
    noise = NoiseConfig(sigma_input=0.1, sigma_weight=0.05, base_seed=1)
    losses = [empirical_margin_loss(model, X, y, gm, noise, num=50)
              for gm in (0.0, 0.2, 0.5, 1.0, 3.0)]
    assert all(b >= a for a, b in zip(losses, losses[1:]))
    assert losses[-1] >= losses[0]


def test_margin_loss_huge_gamma_fails_everything():
    model, X, y = margin_fixture()
    assert empirical_margin_loss(model, X, y, 1e9, NO_NOISE, num=4) == 1.0


def reference_margin_loss(model, X, y, gamma, noise, num, logits=None):
    # one example at a time: each example's logits come from a one-row block
    # under its own key, and each class's vote is scored against the largest
    # of the other logits; `logits`, if given, collects example i's chunks
    # under key i
    k = model.out_dim
    others = ~np.eye(k, dtype=bool)
    wrong = 0
    for i, x in enumerate(X):
        draw = _chunk_sampler(model, x[None, :], noise)
        key = (noise.base_seed, rng.PHASE_MARGIN, i)
        counts = np.zeros(k, dtype=np.int64)
        for c, start in enumerate(range(0, num, _CHUNK)):
            Z = draw(min(_CHUNK, num - start), [rng.vote_stream(key, c)])
            if logits is not None:
                logits.setdefault(i, []).append(Z)
            for j in range(k):
                best_other = np.max(Z[:, others[j]], axis=1)
                if j == y[i]:
                    counts[j] += np.count_nonzero(Z[:, j] > best_other + gamma)
                else:
                    counts[j] += np.count_nonzero(Z[:, j] + gamma > best_other)
        wrong += int(np.argmax(counts)) != y[i]
    return wrong / len(X)


@pytest.mark.parametrize("dims", [(12, 3, 3), (4, 6, 3)])  # row-space, and h >= d
@pytest.mark.parametrize("num, m", [
    (7, 150),            # one block of all 150 examples (585 would fit)
    (200, 13),           # one block of 13 examples, 2600 votes
    (1024, 4),           # one block of 4 examples, two whole chunks each
    (2049, 3),           # one example per block, five chunks each, the last of 1 vote
    (200, 45),           # blocks of 20 examples, 4000 votes; the last holds 5
    (1500, 5),           # blocks of 2 examples, three chunks each; the last holds 1
])
def test_batched_margin_loss_equals_per_example_loop(monkeypatch, dims, num, m):
    model = rand_model(dims, seed=7)
    g = rng.stream(23, 98)
    X = g.standard_normal((m, dims[0]))
    y = np.argmax(forward_batch(model, X)[0], axis=1)
    y[::3] = (y[::3] + 1) % 3
    # a majority vote seldom turns when votes are drawn from another
    # example's key, so each example's block logits are checked too: the
    # samplers the loss builds record them, the example found by its row
    rows = {x.tobytes(): i for i, x in enumerate(X)}
    got_logits = {}
    sampler = smoothing._chunk_sampler

    def recording_sampler(model, block, noise):
        draw, index = sampler(model, block, noise), [rows[x.tobytes()] for x in block]

        def recording_draw(b, gens):
            Z = draw(b, gens)
            for i, z in zip(index, Z.reshape(len(index), b, -1)):
                got_logits.setdefault(i, []).append(z.copy())
            return Z
        return recording_draw

    monkeypatch.setattr(smoothing, "_chunk_sampler", recording_sampler)
    losses = []
    for sw in (0.4, 0.0):
        noise = NoiseConfig(sigma_input=0.6, sigma_weight=sw, base_seed=5)
        for gamma in (0.0, 0.3):
            got_logits.clear()
            want_logits = {}
            got = empirical_margin_loss(model, X, y, gamma, noise, num)
            want = reference_margin_loss(model, X, y, gamma, noise, num, want_logits)
            assert got == want, (sw, gamma)
            assert got_logits.keys() == want_logits.keys()
            for i, chunks in want_logits.items():
                assert len(got_logits[i]) == len(chunks), i
                for a, b in zip(got_logits[i], chunks):
                    # a many-row block may round differently (module docstring)
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
            losses.append(got)
    assert len(set(losses)) > 1  # the cases tell the noise levels and margins apart


@pytest.mark.parametrize("dims", [(12, 3, 3), (4, 6, 3)])  # row-space, and h >= d
@pytest.mark.parametrize("num, m", [
    (7, 300),            # one block of all 300 examples (585 would fit)
    (200, 13),           # one block of 13 examples, 2600 votes
    (1024, 4),           # one block of 4 examples, two whole chunks each
    (2049, 3),           # three blocks of one example, five chunks each
    (200, 45),           # three blocks of 20, 20 and 5 examples
    (1500, 5),           # three blocks of 2, 2 and 1 examples, three chunks each
])
def test_margin_loss_does_not_depend_on_the_thread_count(monkeypatch, dims, num, m):
    # each chunk of a block is an item, and the items' integer vote counts
    # are summed per example, so spreading them over any number of threads
    # gives the same float
    monkeypatch.setattr(train_module, "_ITEM_MIN_NORMALS", 0)  # thread these small models
    model = rand_model(dims, seed=9)
    g = rng.stream(29, 98)
    X = g.standard_normal((m, dims[0]))
    y = np.argmax(forward_batch(model, X)[0], axis=1)
    y[::3] = (y[::3] + 1) % 3
    for sw in (0.4, 0.0):
        noise = NoiseConfig(sigma_input=0.6, sigma_weight=sw, base_seed=6)
        for gamma in (0.0, 0.3):
            losses = set()
            for threads in (1, 2, 3):
                monkeypatch.setattr(train_module, "_usable_cores", lambda: threads)
                losses.add(empirical_margin_loss(model, X, y, gamma, noise, num))
            assert len(losses) == 1, (sw, gamma, losses)


def test_margin_loss_joins_its_threads_also_when_a_block_raises(monkeypatch):
    model, X, y = margin_fixture()
    noise = NoiseConfig(sigma_input=0.3, sigma_weight=0.2)
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 2)
    monkeypatch.setattr(train_module, "_ITEM_MIN_NORMALS", 0)
    start = threading.active_count()
    empirical_margin_loss(model, X, y, 0.1, noise, num=200)
    assert threading.active_count() == start

    product = smoothing._product
    count = []

    def failing_product(A, w):
        count.append(1)
        if len(count) == 3:  # of the four products in the fixture's two blocks
            raise RuntimeError("block failed")
        return product(A, w)

    # the two blocks run at once, one on the calling thread and one on the
    # helper, when one of them fails
    recording, calls = meet_on_two_threads(failing_product)
    monkeypatch.setattr(smoothing, "_product", recording)
    with pytest.raises(RuntimeError, match="block failed"):
        empirical_margin_loss(model, X, y, 0.1, noise, num=200)
    assert threading.get_ident() in calls and len(set(calls)) == 2
    assert threading.active_count() == start


@pytest.mark.parametrize("hidden, threaded", [(4, False), (5, True), (96, True)])
def test_margin_loss_threads_only_models_of_many_weights(monkeypatch, hidden, threaded):
    # an item of 20 examples x 200 votes draws 4,000 x 16 = 64,000 normals
    # on 12 -> 4 -> 4 -> 3 (5 row-space input coordinates and 11 output dims
    # a vote), 4,000 x 19 = 76,000 on 12 -> 5 -> 5 -> 3 and 4,000 x 207 on
    # 12 -> 96 -> 96 -> 3.  The calling thread scores blocks; threaded, the
    # one helper scores blocks at the same time as it
    model = rand_model((12, hidden, hidden, 3), seed=3)
    X = rng.stream(24, 98).standard_normal((30, 12))
    y = np.argmax(forward_batch(model, X)[0], axis=1)
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 2)
    recording, calls = meet_on_two_threads(smoothing._product,
                                           after=0 if threaded else math.inf)
    monkeypatch.setattr(smoothing, "_product", recording)
    empirical_margin_loss(model, X, y, 0.1, NoiseConfig(sigma_input=0.3), num=200)
    assert threading.get_ident() in calls
    assert len(set(calls)) == (2 if threaded else 1)


def test_margin_loss_of_the_default_blobs_model_runs_on_every_core(monkeypatch):
    # the CLI's default 17 -> 32^3 -> 3 draws 116 normals a vote, so an item
    # of 20 examples x 200 votes draws 464,000: two threads score its three
    # blocks at once, and the loss does not depend on the core count
    model = rand_model((17, 32, 32, 32, 3), seed=4)
    X = rng.stream(26, 98).standard_normal((45, 17))
    y = np.argmax(forward_batch(model, X)[0], axis=1)
    y[::3] = (y[::3] + 1) % 3
    noise = NoiseConfig(sigma_input=0.5, sigma_weight=0.2, base_seed=3)
    product = smoothing._product
    losses = set()
    for cores in (1, 2, 3):
        monkeypatch.setattr(train_module, "_usable_cores", lambda: cores)
        recording, calls = meet_on_two_threads(product, after=0 if cores > 1 else math.inf)
        monkeypatch.setattr(smoothing, "_product", recording)
        losses.add(empirical_margin_loss(model, X, y, 0.1, noise, num=200))
        assert threading.get_ident() in calls
        assert (len(set(calls)) > 1) == (cores > 1), cores
    assert len(losses) == 1
    assert 0.0 < losses.pop() < 1.0


def test_margin_loss_rejects_non_finite_weights_before_any_vote():
    # the margin loss cannot be handed such a model: building it fails
    with pytest.raises(ValueError, match="non-finite weights in layer 1"):
        model_of(np.eye(3), [[1.0, np.inf, 0.0], [-1.0, 0.0, 0.0]])


@pytest.mark.parametrize("bad", [3, -1])
def test_margin_loss_rejects_labels_outside_the_classes(bad):
    model, X, y = margin_fixture()  # 3 classes
    y[7] = bad
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
        empirical_margin_loss(model, X, y, 0.1, NO_NOISE, num=4)


# ------------------------------------------------------------ curves

def test_curve_at_zero_without_abstains_is_accuracy():
    curve = certified_accuracy_curve([0, 1, 0], [0.2, 0.4, 0.1], [0, 1, 1], [0.0])
    assert curve[0] == pytest.approx(2.0 / 3.0)


def test_curve_single_sample_step_shape():
    curve = certified_accuracy_curve([0], [0.5], [0], [0.0, 0.25, 0.5, 0.50001, 1.0])
    assert list(curve) == [1.0, 1.0, 1.0, 0.0, 0.0]


def test_curve_non_increasing():
    g = rng.stream(25, 98)
    predicted = g.integers(0, 2, size=50)
    radius = g.uniform(0, 2, size=50)
    labels = g.integers(0, 2, size=50)
    curve = certified_accuracy_curve(predicted, radius, labels, np.linspace(0, 2.5, 100))
    assert all(b <= a for a, b in zip(curve, curve[1:]))


def test_curve_abstain_counts_as_wrong_everywhere():
    curve = certified_accuracy_curve([ABSTAIN], [0.0], [0], [0.0, 1.0])
    assert list(curve) == [0.0, 0.0]


def test_curve_validates_lengths():
    with pytest.raises(ValueError):
        certified_accuracy_curve([0], [0.1], [0, 1], [0.0])
    with pytest.raises(ValueError):
        certified_accuracy_curve([0, 1], [0.1], [0, 1], [0.0])
    with pytest.raises(ValueError):
        certified_accuracy_curve([], [], [], [0.0])
