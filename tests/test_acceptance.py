"""Top-level acceptance checklist, one test per criterion.

Covers: formula fidelity against extended-precision recomputation,
closed-form goldens, the Monte-Carlo correlation identity, the regularizer's
spectral trend and wall-time overhead on a desk-scale digits problem,
certified-accuracy dominance of the regularized model, attack-based
soundness of the certificates, cross-module invariants, and byte-level
determinism of the certify command.

Each test prints one ``[acceptance] criterion N: PASS|FAIL`` line to the
real terminal (past pytest's capture).  Set SMOOTHCERT_FULL_ORACLES=1 to
run the soundness attack at full probe density / vote count.
"""

import math
import os
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammainc

from conftest import central_diff, rand_model, write_idx_pair
import oracles
from smoothcert import bounds, cli, data, nn, smoothing, spectral
from smoothcert.nn import MlpModel, init_model
from smoothcert.sigma_select import SigmaSearchConfig, select_sigma
from smoothcert.smoothing import NoiseConfig, certify
from smoothcert.train import TrainConfig, _usable_cores, ahead, train

mp.mp.dps = 40


class _Criterion:
    """Collects failed checks and prints the single PASS/FAIL line."""

    def __init__(self, capsys, number):
        self.capsys = capsys
        self.number = number
        self.errs = []

    def check(self, ok, what):
        if not ok:
            self.errs.append(what)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if (self.errs or exc_type is not None) else "PASS"
        with self.capsys.disabled():
            print(f"[acceptance] criterion {self.number}: {status}")
        if exc_type is None and self.errs:
            raise AssertionError(f"criterion {self.number}: " + "; ".join(self.errs))
        return False


@pytest.fixture
def criterion(capsys):
    return lambda number: _Criterion(capsys, number)


def rel(got, ref):
    ref = mp.mpf(ref) if not isinstance(ref, mp.mpf) else ref
    if ref == 0:
        return float(abs(mp.mpf(got)))
    return float(abs((mp.mpf(got) - ref) / ref))


# ----------------------------------------------- extended-precision oracles


def mp_gap(pa, pb):
    pa = min(mp.mpf(pa), 1 - mp.mpf("1e-12"))
    g = mp.sqrt(pa) - mp.sqrt(mp.mpf(pb))
    return -mp.log(1 - g * g)


def mp_radius(pa, pb, sigma):
    return mp.sqrt(2 * mp_gap(pa, pb)) * mp.mpf(sigma)


def mp_eps_x(pa, pb, psi_value):
    return mp_gap(pa, pb) * 2 * mp.mpf(psi_value)


def mp_psi(gamma, B, tau, n, h, s):
    # direct (cancelling) form — safe at 40 digits, unlike in float64
    gamma, B, tau = mp.mpf(gamma), mp.mpf(B), mp.mpf(tau)
    prod = mp.mpf(1)
    for v in s:
        prod *= mp.mpf(v) ** (mp.mpf(n - 1) / n)
    g = gamma / (256 * n * mp.sqrt(h * mp.log(8 * n * h)) * mp.sqrt(tau) * prod)
    a = B * B / (4 * tau)
    return (mp.sqrt(a + g) - mp.sqrt(a)) ** 2


def mp_phi(s, f, psi_value):
    n = len(s)
    num = mp.fsum((mp.mpf(fi) / mp.mpf(si)) ** 2 for si, fi in zip(s, f))
    geo = mp.e ** (mp.mpf(2) / n * mp.fsum(mp.log(mp.mpf(si)) for si in s))
    return num * geo / mp.mpf(psi_value)


def mp_kl(f, psi_value):
    return mp.fsum(mp.mpf(fi) ** 2 for fi in f) / (2 * mp.mpf(psi_value))


def mp_bound(loss, kl, m, delta):
    return mp.mpf(loss) + 4 * mp.sqrt(
        (mp.mpf(kl) + mp.log(6 * mp.mpf(m) / mp.mpf(delta))) / (m - 1))


_CHI2_TARGET = mp.sqrt(2) / 2


def mp_tau(d, seed):
    # Newton polish of the library's answer; the root moves away from the
    # seed if (and only if) the library value is off
    t = mp.mpf(seed)
    half = mp.mpf(d) / 2
    lg = mp.loggamma(half)
    for _ in range(3):
        F = mp.gammainc(half, 0, t / 2, regularized=True) - _CHI2_TARGET
        pdf = mp.e ** ((half - 1) * mp.log(t / 2) - t / 2 - lg) / 2
        t -= F / pdf
    return t


# -------------------------------------------------------------- criterion 1


def test_criterion_1_formula_fidelity(criterion):
    with criterion(1) as c:
        t0 = time.perf_counter()
        g = np.random.default_rng(20260814)
        worst = {}

        def track(family, lib, ref):
            worst[family] = max(worst.get(family, 0.0), rel(lib, ref))

        for _ in range(100):
            # pa bounded away from the abstain boundary, where the
            # sqrt(pa)-sqrt(pb) gap cancels in any float implementation
            pa = g.uniform(0.501, 1.0 - 1e-6)
            pb = g.uniform(0.0, 1.0 - pa)
            sigma = g.uniform(0.05, 2.0)
            psv = g.uniform(1e-8, 10.0)
            track("radius", smoothing.certified_radius(pa, pb, sigma),
                  mp_radius(pa, pb, sigma))
            track("eps_x", bounds.eps_x(pa, pb, psv), mp_eps_x(pa, pb, psv))

        for d in g.integers(1, 3001, size=100):
            lib = bounds.tau_solve(int(d))
            track("tau", lib, mp_tau(int(d), lib))

        for _ in range(100):
            gamma = g.uniform(1e-3, 5.0)
            B = g.uniform(0.5, 50.0)
            tau = g.uniform(0.5, 4000.0)
            n = int(g.integers(1, 6))
            h = int(g.integers(2, 513))
            s = g.uniform(0.2, 5.0, size=n)
            f = s * g.uniform(1.0, 5.0, size=n)
            psv = bounds.psi(gamma, B, tau, n, h, s)
            track("psi", psv, mp_psi(gamma, B, tau, n, h, s))
            track("phi", bounds.phi(s, f, psv), mp_phi(s, f, psv))
            track("kl", bounds.kl_term(f, psv), mp_kl(f, psv))
            loss = g.uniform(0.0, 1.0)
            kl = g.uniform(0.0, 1e6)
            m = int(g.integers(100, 1_000_001))
            delta = g.uniform(1e-4, 0.5)
            track("bound", bounds.generalization_bound(loss, kl, m, delta),
                  mp_bound(loss, kl, m, delta))

        for family, err in worst.items():
            c.check(err <= 1e-12, f"{family} rel err {err:.3e}")
        elapsed = time.perf_counter() - t0
        c.check(elapsed < 1.0, f"took {elapsed:.2f}s")


# -------------------------------------------------------------- criterion 2


def test_criterion_2_closed_form_goldens(criterion):
    with criterion(2) as c:
        for n in (10, 100, 100_000):
            got = smoothing.lower_conf_bound(n, n, 0.999)
            want = 0.001 ** (1.0 / n)
            c.check(rel(got, want) <= 1e-10,
                    f"lower_conf_bound({n},{n},0.999) off by {rel(got, want):.2e}")
        tau2 = bounds.tau_solve(2)
        want = -2.0 * math.log1p(-math.sqrt(2.0) / 2.0)
        c.check(rel(tau2, want) <= 1e-10, f"tau_solve(2) off by {rel(tau2, want):.2e}")
        for x in np.linspace(0.05, 25.0, 60):
            got = float(gammainc(1.0, float(x) / 2.0))  # the chi-square CDF, d = 2
            want = -math.expm1(-float(x) / 2.0)
            c.check(rel(got, want) <= 1e-12, f"chi-square CDF({x:.3f}, 2) off")


# -------------------------------------------------------------- criterion 3


def test_criterion_3_mc_correlation_identity(criterion):
    with criterion(3) as c:
        t0 = time.perf_counter()
        for i, dims in enumerate([(5, 12, 9, 4), (7, 10, 10, 6), (4, 16, 8, 3),
                                  (6, 8, 14, 5), (8, 9, 7, 2)]):
            model = rand_model(dims, seed=10 + i)
            analytic = np.asarray(spectral.spectral_report(model).cosine_matrix)
            mc = oracles.mc_correlation(model, 1_000_000, sigma=0.7, seed=i)
            dev = float(np.max(np.abs(mc - analytic)))
            c.check(dev <= 0.01, f"model {i} ({dims}): max deviation {dev:.4f}")
        elapsed = time.perf_counter() - t0
        c.check(elapsed < 30.0, f"took {elapsed:.1f}s")


# ---------------------------------------------------------- criteria 4 + 5


@pytest.fixture(scope="module")
def digit_train_set():
    ds = data.synth_digits(10, 784, 11_000, seed=2)
    tr = ds.subset(0, 10_000)
    return data.augment(tr.inputs), tr.labels


@pytest.fixture(scope="module")
def digit_trend_runs(digit_train_set):
    """One 10-epoch 784->32x3->10 run per regularizer strength."""
    X, y = digit_train_set
    runs = {}
    t0 = time.perf_counter()
    for alpha in (0.0, 0.1, 0.3):
        cfg = TrainConfig(epochs=10, batch_size=256, lr=0.1,
                          lr_drops=((10, 10.0), (20, 10.0)), momentum=0.9,
                          noise_variance=0.12, alpha=alpha, seed=0)
        model, metrics = train(init_model((785, 32, 32, 32, 10), seed=0), X, y, cfg)
        runs[alpha] = (spectral.spectral_report(model), metrics)
    return runs, time.perf_counter() - t0


def test_criterion_4_spectral_trend(criterion, digit_trend_runs):
    runs, elapsed = digit_trend_runs
    with criterion(4) as c:
        alphas = (0.0, 0.1, 0.3)
        coll = [runs[a][0].collapsed_spectral for a in alphas]
        prod = [runs[a][0].product_spectral for a in alphas]
        offs = [spectral.mean_abs_offdiag(runs[a][0].cosine_matrix) for a in alphas]
        c.check(coll[0] > coll[1] > coll[2],
                f"collapsed spectral norm not strictly decreasing: {coll}")
        c.check(prod[0] > prod[1] > prod[2],
                f"spectral norm product not strictly decreasing: {prod}")
        c.check(offs[0] > offs[1] > offs[2],
                f"mean |off-diagonal cosine| not decreasing: {offs}")
        c.check(elapsed < 600.0, f"training took {elapsed:.0f}s")


def test_criterion_5_regularizer_overhead(criterion, digit_train_set):
    X, y = digit_train_set

    def one_epoch(alpha):
        cfg = TrainConfig(epochs=1, batch_size=256, lr=0.1,
                          lr_drops=((10, 10.0), (20, 10.0)), momentum=0.9,
                          noise_variance=0.12, alpha=alpha, seed=0)
        _, metrics = train(init_model((785, 32, 32, 32, 10), seed=0), X, y, cfg)
        return metrics[0].seconds

    with criterion(5) as c:
        one_epoch(0.0), one_epoch(0.1)  # discarded warm-up
        base, regd = [], []
        # Single-epoch runs interleaved in balanced order so the two arms
        # sample the machine back to back: scheduler drift hits both sides
        # instead of biasing one, and the median ignores stalled epochs.
        for _ in range(10):
            for alpha in (0.0, 0.1, 0.1, 0.0):
                (base if alpha == 0.0 else regd).append(one_epoch(alpha))
        c.check(len(base) >= 5 and len(regd) >= 5, "need >= 5 epochs per run")
        overhead = float(np.median(regd)) / float(np.median(base)) - 1.0
        c.check(overhead < 0.05, f"regularized epochs {overhead:+.1%} vs baseline")


# -------------------------------------------------------------- criterion 6


def test_criterion_6_certified_curve_dominance(criterion):
    with criterion(6) as c:
        t0 = time.perf_counter()
        ds = data.synth_digits(10, 784, 11_000, seed=2,
                               gain_lo=0.3, dropout=0.4, pixel_noise=0.2)
        tr, te = ds.subset(0, 10_000), ds.subset(10_000, 11_000)
        Xtr, Xte = data.augment(tr.inputs), data.augment(te.inputs)
        radii = [i * 0.01 for i in range(201)]
        curves = {}
        for alpha in (0.0, 0.1):
            cfg = TrainConfig(epochs=30, batch_size=256, lr=0.1,
                              lr_drops=((10, 10.0), (20, 10.0)), momentum=0.9,
                              noise_variance=0.12, alpha=alpha, seed=0)
            model, _ = train(init_model((785, 32, 32, 32, 10), seed=0),
                             Xtr, tr.labels, cfg)
            sel = select_sigma(model, Xtr, tr.labels, SigmaSearchConfig())
            c.check(not sel.flagged_none_qualified,
                    f"alpha={alpha}: no weight-noise grid point qualified")
            noise = NoiseConfig(sigma_input=math.sqrt(0.12),
                                sigma_weight=math.sqrt(sel.sigma2), base_seed=0)
            # per-sample keys make the results independent of the threads;
            # the row basis is computed here, once: from Python 3.12 a
            # cached_property takes no lock
            model.row_basis

            def certify_one(i):
                return certify(model, Xte[i], noise, n_selection=100,
                               n_estimation=10_000, alpha=0.001, sample_index=i)

            with ahead(certify_one, zip(range(te.m)), _usable_cores()) as mapped:
                results = list(mapped)
            curves[alpha] = smoothing.certified_accuracy_curve(
                [r.predicted for r in results], [r.radius for r in results], te.labels, radii)
        a0, a1 = curves[0.0], curves[0.1]
        support = (a0 > 0) | (a1 > 0)
        c.check(int(support.sum()) > 0, "empty radius support")
        dominance = float(np.mean(a1[support] >= a0[support]))
        c.check(dominance >= 0.6,
                f"alpha=0.1 curve dominates on only {dominance:.0%} of support")
        elapsed = time.perf_counter() - t0
        c.check(elapsed < 1800.0, f"took {elapsed:.0f}s")


# -------------------------------------------------------------- criterion 7


def test_criterion_7_certificate_soundness(criterion):
    with criterion(7) as c:
        t0 = time.perf_counter()
        full = os.environ.get("SMOOTHCERT_FULL_ORACLES") == "1"
        density = 50 if full else 21
        votes = 100_000 if full else 10_000
        model = MlpModel(layers=(np.array([[1.0, 0.0], [-1.0, 0.0]]),))
        noise = NoiseConfig(sigma_input=0.25, sigma_weight=0.1, base_seed=0)

        for j in range(10):
            x = np.array([0.55 + 0.05 * j, 0.0])
            res = certify(model, x, noise, n_selection=100, n_estimation=1_000_000,
                          alpha=0.001, sample_index=j)
            c.check(res.predicted == 0 and res.radius > 0.0,
                    f"sample {j} not certified (predicted {res.predicted})")
            rep = oracles.grid_attack(model, x, res.predicted, res.radius,
                                      0.95 * res.radius, noise, grid_density=density,
                                      votes_per_probe=votes, sample_index=j)
            c.check(rep.n_flips == 0,
                    f"{rep.n_flips} vote flips inside 0.95R at x1={x[0]:.2f}")

        # near-boundary sample: probing past the certificate must find a flip
        xb = np.array([0.10, 0.0])
        resb = certify(model, xb, noise, n_selection=100, n_estimation=1_000_000,
                       alpha=0.001, sample_index=99)
        c.check(resb.predicted == 0 and resb.radius > 0.0, "boundary sample abstained")
        repb = oracles.grid_attack(model, xb, resb.predicted, resb.radius,
                                   2.0 * resb.radius, noise, grid_density=density,
                                   votes_per_probe=votes, sample_index=99)
        c.check(repb.n_flips >= 1, "attack found no flip within 2R")
        c.check(repb.min_flip_norm is not None and repb.min_flip_norm > resb.radius,
                f"flip at {repb.min_flip_norm} inside certified radius {resb.radius}")
        elapsed = time.perf_counter() - t0
        c.check(elapsed < 600.0, f"took {elapsed:.0f}s")


# -------------------------------------------------------------- criterion 8


def test_criterion_8_invariant_suite(criterion, tmp_path):
    with criterion(8) as c:
        g = np.random.default_rng(8)

        for i in range(20):
            M = g.standard_normal((int(g.integers(2, 9)), int(g.integers(2, 9))))
            c.check(spectral.gershgorin_bound(M) >= spectral.spectral_norm(M) ** 2 - 1e-9,
                    f"gershgorin < spectral^2 on matrix {i}")

        s0 = [2.0, 1.5, 3.0]
        psi0 = bounds.psi(0.5, 28.0, 800.0, 3, 32, s0)
        for i in range(3):
            s_up = list(s0)
            s_up[i] *= 1.7
            c.check(bounds.psi(0.5, 28.0, 800.0, 3, 32, s_up) < psi0,
                    f"psi not decreasing in s[{i}]")
        psis = [bounds.psi(float(gm), 28.0, 800.0, 3, 32, s0)
                for gm in np.linspace(0.1, 3.0, 8)]
        c.check(all(a < b for a, b in zip(psis, psis[1:])), "psi not increasing in gamma")

        f0 = [4.0, 3.0, 6.0]
        phi0 = bounds.phi(s0, f0, 1e-6)
        c.check(bounds.phi(s0, [4.0, 3.0, 9.0], 1e-6) > phi0,
                "phi not increasing in a Frobenius norm")
        c.check(bounds.phi(s0, f0, 2e-6) < phi0, "phi not decreasing in psi")
        c.check(bounds.kl_term(f0, 2e-6) < bounds.kl_term(f0, 1e-6),
                "kl not decreasing in psi")

        mdl = rand_model((4, 8, 3), seed=3)
        X = g.uniform(-1.0, 1.0, size=(40, 4))
        y = g.integers(0, 3, size=40)
        noise = NoiseConfig(sigma_input=0.3, sigma_weight=0.05, base_seed=5)
        losses = [smoothing.empirical_margin_loss(mdl, X, y, gm, noise, 50)
                  for gm in (0.0, 0.3, 1.0, 1e9)]
        c.check(all(a <= b for a, b in zip(losses, losses[1:])),
                f"margin loss not monotone in gamma: {losses}")
        c.check(losses[-1] == 1.0, "margin loss at huge gamma must be 1")

        rows = [(int(g.integers(-1, 3)), float(g.uniform(0.0, 1.0))) for _ in range(60)]
        predicted, radius = zip(*rows)
        curve = smoothing.certified_accuracy_curve(
            predicted, radius, g.integers(0, 3, size=60), np.linspace(0.0, 1.2, 25))
        c.check(all(a >= b for a, b in zip(curve, curve[1:])),
                "certified-accuracy curve increased somewhere")

        votes = smoothing.sample_under_noise(mdl, X[0], 137, noise, (1, 2, 3))
        c.check(sum(votes.counts) == 137, "vote counts do not sum to draws")

        W = g.standard_normal((5, 7))
        C0 = spectral.spectral_report(MlpModel((W,))).cosine_matrix
        D = np.diag(g.uniform(0.5, 3.0, size=5))
        C1 = spectral.spectral_report(MlpModel((2.5 * D @ W,))).cosine_matrix
        c.check(np.allclose(C1, C0, atol=1e-12),
                "correlation matrix not invariant under positive row scaling")
        scaled = MlpModel(layers=(*mdl.layers[:-1], 3.0 * mdl.layers[-1]))
        c.check(int(np.argmax(nn.forward_batch(scaled, X[:1])[0][0])) ==
                int(np.argmax(nn.forward_batch(mdl, X[:1])[0][0])),
                "argmax changed under positive output scaling")

        ck = tmp_path / "model.smcert"
        data.save_checkpoint(ck, mdl, {"k": 3})
        mdl2, meta = data.load_checkpoint(ck)
        c.check(all(np.array_equal(a, b) for a, b in zip(mdl.layers, mdl2.layers))
                and meta == {"k": 3}, "checkpoint round trip not bit-exact")
        pixels = (np.arange(24, dtype=np.uint8).reshape(4, 6) * 10)
        img, lab = write_idx_pair(tmp_path, pixels, [0, 1, 2, 1], rows=2, cols=3)
        ds = data.load_idx(img, lab)
        c.check(ds.m == 4 and np.allclose(ds.inputs, pixels / 255.0)
                and np.array_equal(ds.labels, [0, 1, 2, 1]), "IDX round trip broken")

        reg_value, reg_grads = spectral.regularizer_and_gradient(mdl)
        c.check(reg_value > 0.0, "regularizer value not positive")
        for li in range(len(mdl.layers)):
            def reg(Wl, li=li):
                layers = list(mdl.layers)
                layers[li] = Wl
                return spectral.regularizer_and_gradient(MlpModel(layers=tuple(layers)))[0]
            fd = central_diff(reg, mdl.layers[li].copy(), step=1e-6)
            err = np.max(np.abs(fd - reg_grads[li])) / max(np.max(np.abs(fd)), 1e-12)
            c.check(err < 1e-4, f"regularizer FD mismatch {err:.2e} at layer {li}")

        x0, label = X[:1], np.array([1])
        logits, inputs = nn.forward_batch(mdl, x0)
        _, dlogits = nn.cross_entropy_batch(logits, label)
        net_grads = nn.backward_batch(mdl, inputs, dlogits)
        for li in range(len(mdl.layers)):
            def loss(Wl, li=li):
                layers = list(mdl.layers)
                layers[li] = Wl
                return nn.cross_entropy_batch(
                    nn.forward_batch(MlpModel(layers=tuple(layers)), x0)[0], label)[0]
            fd = central_diff(loss, mdl.layers[li].copy(), step=1e-5)
            err = np.max(np.abs(fd - net_grads[li])) / max(np.max(np.abs(fd)), 1e-12)
            c.check(err < 1e-6, f"network FD mismatch {err:.2e} at layer {li}")


# -------------------------------------------------------------- criterion 9


def test_criterion_9_certify_determinism(criterion, tmp_path):
    with criterion(9) as c:
        dataset = ["--synth-k", "3", "--synth-d", "6", "--synth-m", "120",
                   "--synth-spread", "0.05", "--synth-seed", "1"]
        train_out = tmp_path / "train"
        rc = cli.main(["train", "--out", str(train_out), *dataset,
                       "--hidden", "8", "--epochs", "2", "--seed", "0"])
        c.check(rc == 0, "train command failed")

        def run(out):
            return cli.main(["certify", "--checkpoint",
                             str(train_out / "checkpoint.smcert"), "--out", str(out),
                             *dataset, "--sigma2", "0.05", "--n0", "50", "--n", "1000",
                             "--max-samples", "20", "--seed", "3"])

        c.check(run(tmp_path / "a") == 0, "first certify failed")
        c.check(run(tmp_path / "b") == 0, "second certify failed")
        for name in ("samples.csv", "curve.csv"):
            same = ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())
            c.check(same, f"{name} differs between identical runs")
