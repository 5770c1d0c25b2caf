"""The three workloads, their correctness checks and their metrics.

Every workload is closed-loop in one process (``--workers 1``): the next
operation starts when the previous one has returned.

* ``certify-d785``: ``smoothing.certify`` per held-out sample at n=10^5 on
  the 785->32^3->10 model.  Input-noise draws over 785 dims dominate a vote.
* ``certify-d17``: the same call on the CLI-default blobs with a
  17->32^3->3 model, where layer matmuls, weight noise and the tally
  dominate instead.
* ``pipeline-digits``: ``cli.main`` in-process for train, sigma, certify,
  bound and report on criterion-6 digits stored as IDX files.

The workload seed drives the vote streams (``certify``/``bound --seed``).
Data, model and sigma search keep fixed seeds, so the quality metrics
measure the code rather than a resampled model.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import shutil
import struct
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from smoothcert import cli, data, smoothing
from smoothcert.smoothing import certified_radius

from .spans import Span, Tracer, philox_words, self_time
from .stats import median, tail

SIGMA2 = 0.12
N0, N, ALPHA = 100, 100_000, 0.001
GAMMA = 0.5
# Set-up runs at least SETUPS times (the pipeline: before each pass);
# medians are reported.
SETUPS = 3
# Share of a certify workload's run spent on set-up and bound repeats.
EXTRA_SHARE = 0.3

# Criterion-6 digits: the README's data at a training size that keeps
# set-up short.  The held-out pool is larger than any run can certify.
DIGITS_TRAIN, DIGITS_POOL = 2000, 256
DIGITS_RECIPE = dict(gain_lo=0.3, dropout=0.4, pixel_noise=0.2)
BLOBS_TRAIN, BLOBS_POOL = 1200, 256
PIPELINE_TEST, PIPELINE_N = 20, 10_000
# At least three passes: medians of three per step, and 60 certify calls,
# so the tail percentile is the same from run to run.
PIPELINE_PASSES = 3
# The certify workloads' bound step estimates the margin loss on fewer
# examples than the CLI default of 1024 (kept by the pipeline), so that it
# can repeat several times within its share of the run.
CERTIFY_MARGIN_SUBSET = 256


# The host's speed drifts by about 15% over tens of seconds, moving every
# timing alike.  A fixed numpy kernel shaped like one vote
# chunk is timed between operations, and all times are reported at the
# speed where it takes CALIBRATION_REF_S: seconds x speed, rates / speed.
CALIBRATION_REF_S = 0.05
CALIBRATE_EVERY = 1.0


class CalibrationKernel:
    """2048 noisy 785-dim inputs through a 785->32 layer.  It allocates
    fresh arrays as a vote chunk does: most of the drift is in the cost of
    fresh pages, which preallocated buffers would not see."""

    def __init__(self) -> None:
        self.W = np.random.Generator(np.random.Philox(0)).standard_normal((32, 785))

    def __call__(self) -> float:
        g = np.random.Generator(np.random.Philox(1))
        t0 = time.perf_counter()
        Z = 0.5 + 0.3 * g.standard_normal((2048, 785))
        A = Z @ self.W.T
        A += np.linalg.norm(Z, axis=1)[:, None]
        np.maximum(A, 0.0, out=A)
        return time.perf_counter() - t0


@dataclass
class Run:
    """State of one benchmark run: operation counts, timings, spans."""

    work: Path
    seed: int
    seconds: float
    trace: bool
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    tracer: Tracer = field(default_factory=Tracer)
    timer: Tracer = field(default_factory=Tracer)
    kernel: CalibrationKernel = field(default_factory=CalibrationKernel)
    calibrations: list = field(default_factory=list)
    _calibrated_at: float = -math.inf

    def calibrate(self) -> None:
        """Time the calibration kernel, at most once per ``CALIBRATE_EVERY``;
        call only between timed operations."""
        if time.perf_counter() - self._calibrated_at >= CALIBRATE_EVERY:
            self.calibrations.append(self.kernel())
            self._calibrated_at = time.perf_counter()

    @property
    def speed(self) -> float:
        """How much faster than the reference this run's machine was."""
        return CALIBRATION_REF_S / median(self.calibrations)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


# ------------------------------------------------------------ helpers ---


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_idx(images_path: Path, labels_path: Path, inputs: np.ndarray, labels: np.ndarray) -> None:
    """Store [0, 1] inputs as 28x28 ubyte IDX images plus IDX labels."""
    side = math.isqrt(inputs.shape[1])
    pixels = np.round(inputs * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", data.IMAGE_MAGIC, len(labels), side, side))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", data.LABEL_MAGIC, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def write_digits(work: Path) -> dict:
    """Criterion-6 digits as IDX train and held-out files; returns the paths."""
    ds = data.synth_digits(10, 784, DIGITS_TRAIN + DIGITS_POOL, seed=2, **DIGITS_RECIPE)
    paths = {k: work / f"{k}.idx" for k in
             ("train-images", "train-labels", "test-images", "test-labels")}
    write_idx(paths["train-images"], paths["train-labels"],
              ds.inputs[:DIGITS_TRAIN], ds.labels[:DIGITS_TRAIN])
    write_idx(paths["test-images"], paths["test-labels"],
              ds.inputs[DIGITS_TRAIN:], ds.labels[DIGITS_TRAIN:])
    return paths


def run_cli(run: Run, argv: list[str], artifacts: list[Path]) -> float:
    """One CLI command in-process; checks exit 0 and the artifacts; returns s."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception as e:  # a crashing command is a failed operation
        code = repr(e)
    dt = time.perf_counter() - t0
    run.check(code == 0, f"{argv[0]} exited {code}: {out.getvalue()[-400:]!r}")
    for a in artifacts:
        run.check(a.is_file() and a.stat().st_size > 0, f"{argv[0]} did not write {a.name}")
    return dt


def certify_problems(res, n0: int, n: int, sigma_input: float) -> list[str]:
    """Why a CertifyResult is wrong, or an empty list."""
    bad = []
    for name, tally, draws in (("selection", res.selection, n0),
                               ("estimation", res.estimation, n)):
        if tally.draws != draws or sum(tally.counts) != draws:
            bad.append(f"{name} tally {sum(tally.counts)} over {tally.draws} != {draws}")
    if not (math.isfinite(res.pa_lower) and math.isfinite(res.radius)):
        bad.append("non-finite pa_lower or radius")
    if res.abstained:
        if res.radius != 0.0:
            bad.append("abstained with a non-zero radius")
        return bad
    point = res.estimation.counts[res.predicted] / res.estimation.draws
    if not res.pa_lower > 0.5:
        bad.append(f"certified with pa_lower {res.pa_lower} <= 1/2")
    if not res.pa_lower <= point:
        bad.append(f"pa_lower {res.pa_lower} above the point estimate {point}")
    if res.radius != certified_radius(res.pa_lower, 1.0 - res.pa_lower, sigma_input):
        bad.append("radius differs from certified_radius(pa_lower, 1 - pa_lower, sigma)")
    return bad


def result_tuple(res) -> tuple:
    return (res.predicted, res.pa_lower, res.radius, res.selection.counts, res.estimation.counts)


def quality(predicted, labels, radii) -> tuple[float, float]:
    """Certified accuracy at radius 0 and the mean radius of correct certificates."""
    good = [r for p, y, r in zip(predicted, labels, radii) if p == y]  # ABSTAIN is -1
    return len(good) / len(labels), (sum(good) / len(good) if good else 0.0)


def flops_per_vote(dims) -> int:
    """Computed, not measured: floating-point operations of one vote.

    Input noise scale+add (2d); per layer the matmul (2 in out), the input
    norm (2 in) and the projected weight noise scale+add (3 out).
    """
    total = 2 * dims[0]
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        total += 2 * n_in * n_out + 2 * n_in + 3 * n_out
    return total


# ------------------------------------------------------------ tracing ---


def _observe_votes(span: Span, args, kwargs):
    g = args[4] if len(args) > 4 else kwargs.get("stream")
    num = args[2] if len(args) > 2 else kwargs["num"]
    span.info["votes"] = int(num)
    if not isinstance(g, np.random.Generator):
        return None
    before = g.bit_generator.state

    def after(_):
        span.info["words"] = philox_words(before, g.bit_generator.state)
    return after


def _observe_certify(span: Span, args, kwargs):
    def after(res):
        span.info["abstained"] = res.abstained
        span.info["estimation_votes"] = res.estimation.draws
    return after


def _observe_idx(span: Span, args, kwargs):
    span.info["bytes"] = sum(Path(p).stat().st_size for p in args[:2])


def _observe_save(span: Span, args, kwargs):
    def after(_):
        span.info["bytes"] = Path(args[0]).stat().st_size
    return after


def _observe_train(span: Span, args, kwargs):
    def after(result):
        span.info["epochs"] = len(result[1])
    return after


def _observe_sigma(span: Span, args, kwargs):
    def after(result):
        span.info["grid_points"] = len(result.trace)
    return after


def _observe_margin(span: Span, args, kwargs):
    span.info["examples"] = len(args[1])


def _observe_cli(span: Span, args, kwargs):
    span.info["command"] = args[0][0]


TRACED = {
    "rng.stream": None,
    "data.load_idx": _observe_idx,
    "data.save_checkpoint": _observe_save,
    "data.load_checkpoint": None,
    "nn.forward_batch": None,
    "train.train": _observe_train,
    "spectral.regularizer_and_gradient": None,
    "spectral.spectral_report": None,
    "sigma_select.select_sigma": _observe_sigma,
    "smoothing.certify": _observe_certify,
    "smoothing.sample_under_noise": _observe_votes,
    "smoothing.lower_conf_bound": None,
    "smoothing.certified_radius": None,
    "smoothing.empirical_margin_loss": _observe_margin,
    "bounds.evaluate_bound": None,
    "plot.emit_plot": None,
    "cli.main": _observe_cli,
}


@contextlib.contextmanager
def traced(run: Run, on: bool):
    """Install the full tracer for the duration of the block when ``on``."""
    if on:
        run.tracer.install(TRACED)
    try:
        yield
    finally:
        if on:
            run.tracer.uninstall()


def per_layer(run: Run, op_name: str, dims, op_times: dict) -> dict:
    """Per-layer metrics from the traced spans; ``op_name`` names the spans
    that count as one operation of the workload."""
    tr = run.tracer

    def per_call(name):
        return median(s.duration for s in tr.named(name))

    certs = tr.named("smoothing.certify")
    sel, est = [], []
    for c in certs:
        votes = [s for s in tr.children(c) if s.name == "smoothing.sample_under_noise"]
        if len(votes) == 2:
            sel.append(votes[0])
            est.append(votes[1])
    first = [s for s in tr.children(certs[0]) if "words" in s.info] if certs else []
    words_per_vote = (sum(s.info["words"] for s in first) / sum(s.info["votes"] for s in first)
                      if first else 0.0)
    est_votes = sum(c.info.get("estimation_votes", 0) for c in certs)
    wasted = sum(c.info.get("estimation_votes", 0) for c in certs if c.info.get("abstained"))
    margins = tr.named("smoothing.empirical_margin_loss")
    margin_time = sum(s.duration for s in margins)
    ops = tr.named(op_name)
    sigmas = tr.named("sigma_select.select_sigma")
    evals = [[s for s in tr.children(g) if s.name == "nn.forward_batch"] for g in sigmas]
    commands = tr.named("cli.main")
    untraced, traced_ = op_times["untraced"], op_times["traced"]
    overhead = median(traced_) - median(untraced) if untraced and traced_ else 0.0
    return {
        "smoothing.estimation_s": (median(s.duration for s in est), "s"),
        "smoothing.selection_s": (median(s.duration for s in sel), "s"),
        "smoothing.votes": (sum(s.info["votes"] for s in sel + est), "count"),
        "smoothing.rng_words_per_vote": (words_per_vote, "words"),
        "smoothing.flops_per_vote": (flops_per_vote(dims), "flop"),
        "smoothing.lower_conf_bound_s": (per_call("smoothing.lower_conf_bound"), "s"),
        "smoothing.certified_radius_s": (per_call("smoothing.certified_radius"), "s"),
        "smoothing.abstain_frac": (
            sum(bool(c.info.get("abstained")) for c in certs) / len(certs) if certs else 0.0,
            "fraction"),
        "smoothing.wasted_vote_frac": (wasted / est_votes if est_votes else 0.0, "fraction"),
        "smoothing.margin_loss_s": (per_call("smoothing.empirical_margin_loss"), "s"),
        "smoothing.margin_examples_per_s": (
            sum(s.info["examples"] for s in margins) / margin_time if margin_time else 0.0, "1/s"),
        "rng.stream_calls": (median(sum(1 for d in _descendants(tr, op) if d.name == "rng.stream")
                                    for op in ops), "count"),
        "rng.stream_s": (per_call("rng.stream"), "s"),
        "train.epoch_s": (median(s.duration / s.info["epochs"] for s in tr.named("train.train")),
                          "s"),
        "spectral.regularizer_s": (per_call("spectral.regularizer_and_gradient"), "s"),
        "sigma_select.grid_points": (median(s.info["grid_points"] for s in sigmas), "count"),
        "sigma_select.model_evals": (median(len(e) for e in evals), "count"),
        "sigma_select.eval_s": (median(sum(s.duration for s in e) for e in evals), "s"),
        "spectral.spectral_report_s": (per_call("spectral.spectral_report"), "s"),
        "bounds.evaluate_bound_s": (per_call("bounds.evaluate_bound"), "s"),
        "data.load_idx_s": (per_call("data.load_idx"), "s"),
        "data.idx_bytes": (median(s.info["bytes"] for s in tr.named("data.load_idx")), "bytes"),
        "data.save_checkpoint_s": (per_call("data.save_checkpoint"), "s"),
        "data.load_checkpoint_s": (per_call("data.load_checkpoint"), "s"),
        "data.checkpoint_bytes": (
            median(s.info["bytes"] for s in tr.named("data.save_checkpoint")), "bytes"),
        "plot.emit_plot_s": (per_call("plot.emit_plot"), "s"),
        "cli.self_s": (median(self_time(c, tr.children(c)) for c in commands), "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_frac": (overhead / median(untraced) if untraced else 0.0, "fraction"),
        "trace.spans": (len(tr.spans), "count"),
    }


def _descendants(tr: Tracer, span: Span):
    # spans are stored in start order, so descendants follow their ancestor
    for s in tr.spans[span.sid + 1:]:
        if s.start >= span.end:
            break
        if tr.ancestor(s, span.name) is span:
            yield s


# ------------------------------------------------------ certify-d785/d17 ---


@dataclass
class Model:
    """A trained model, its held-out samples and the selected weight noise."""

    model: object
    X: np.ndarray
    labels: np.ndarray
    sigma_weight2: float
    hashes: dict


def _setup_digits(run: Run) -> tuple[Model, float, float]:
    paths = write_digits(run.work)
    ckpt = run.work / "train" / "checkpoint.smcert"
    idx = ["--images", str(paths["train-images"]), "--labels", str(paths["train-labels"])]
    train_s = run_cli(run, ["train", *idx, "--alpha", "0.1", "--epochs", "30", "--seed", "0",
                            "--out", str(run.work / "train")], [ckpt])
    sigma_s = run_cli(run, ["sigma", "--checkpoint", str(ckpt), *idx, "--seed", "0",
                            "--out", str(run.work / "sigma")], [run.work / "sigma" / "sigma.json"])
    held = data.load_idx(paths["test-images"], paths["test-labels"], k=10)
    return _load_trained(run, held, ckpt), train_s, sigma_s


def _blobs_flags() -> list[str]:
    # CLI-default blobs (k=3, d=16, spread 0.08, seed 1), generated with a
    # held-out tail that training never sees.
    return ["--synth-m", str(BLOBS_TRAIN + BLOBS_POOL), "--max-samples", str(BLOBS_TRAIN)]


def _setup_blobs(run: Run) -> tuple[Model, float, float]:
    ckpt = run.work / "train" / "checkpoint.smcert"
    train_s = run_cli(run, ["train", *_blobs_flags(), "--seed", "0",
                            "--out", str(run.work / "train")], [ckpt])
    sigma_s = run_cli(run, ["sigma", "--checkpoint", str(ckpt), *_blobs_flags(), "--seed", "0",
                            "--out", str(run.work / "sigma")], [run.work / "sigma" / "sigma.json"])
    held = data.synth_blobs(3, 16, BLOBS_TRAIN + BLOBS_POOL, 0.08, 1).subset(
        BLOBS_TRAIN, BLOBS_TRAIN + BLOBS_POOL)
    return _load_trained(run, held, ckpt), train_s, sigma_s


def _load_trained(run: Run, held, ckpt: Path) -> Model:
    model, _ = data.load_checkpoint(ckpt)
    sigma = json.loads((run.work / "sigma" / "sigma.json").read_text())
    run.check(math.isfinite(sigma["sigma2"]) and sigma["sigma2"] > 0, "sigma2 not positive")
    hashes = {name: sha256(p) for name, p in (
        ("checkpoint", ckpt), ("train/config.json", run.work / "train" / "config.json"),
        ("sigma/config.json", run.work / "sigma" / "config.json"))}
    return Model(model, data.augment(held.inputs), held.labels, sigma["sigma2"], hashes)


def _bound_flags(run: Run, kind: str) -> list[str]:
    if kind == "digits":
        return ["--images", str(run.work / "train-images.idx"),
                "--labels", str(run.work / "train-labels.idx")]
    return _blobs_flags()


def certify_workload(run: Run, kind: str, min_samples: int) -> dict:
    setup = _setup_digits if kind == "digits" else _setup_blobs
    setups, trains, sigmas, hashes = [], [], [], []
    bounds, bound_hashes = [], set()
    bound_json = run.work / "bound" / "bound.json"

    def setup_once() -> Model:
        shutil.rmtree(run.work, ignore_errors=True)
        run.work.mkdir(parents=True)
        run.calibrate()
        t0 = time.perf_counter()
        with traced(run, run.trace):
            m, train_s, sigma_s = setup(run)
        setups.append(time.perf_counter() - t0)
        trains.append(train_s)
        sigmas.append(sigma_s)
        hashes.append(m.hashes)
        return m

    def bound_once() -> None:
        run.calibrate()
        with traced(run, run.trace):
            bounds.append(run_cli(run, [
                "bound", "--checkpoint", str(run.work / "train" / "checkpoint.smcert"),
                *_bound_flags(run, kind), "--gamma", str(GAMMA), "--seed", str(run.seed),
                "--margin-subset", str(CERTIFY_MARGIN_SUBSET), "--out", str(run.work / "bound")],
                [bound_json]))
        check_bound(run, bound_json)
        bound_hashes.add(sha256(bound_json))

    m = setup_once()
    noise = smoothing.NoiseConfig(sigma_input=math.sqrt(SIGMA2),
                                  sigma_weight=math.sqrt(m.sigma_weight2), base_seed=run.seed)
    times, results = [], []
    op_times = {"untraced": [], "traced": []}

    def certify_op(i: int):
        run.calibrate()
        on = run.trace and len(times) % 2 == 1
        with traced(run, on):
            t0 = time.perf_counter()
            try:
                res = smoothing.certify(m.model, m.X[i], noise, N0, N, ALPHA, sample_index=i)
            except Exception as e:  # a failed operation is counted, not fatal
                run.check(False, f"certify sample {i} raised {e!r}")
                return None
            dt = time.perf_counter() - t0
        run.check(True, "certify call")
        run.check(not (bad := certify_problems(res, N0, N, noise.sigma_input)), f"sample {i}: {bad}")
        times.append(dt)
        op_times["traced" if on else "untraced"].append(dt)
        return res

    # Set-up and bound repeats are spread over the run, a share of its time,
    # so that a slow spell of the machine does not fall on all of them.
    extras = itertools.cycle((bound_once, setup_once))
    extra_s = 0.0
    start = time.perf_counter()
    while len(results) < len(m.labels) and more(len(results), min_samples, start, run.seconds, times):
        results.append(certify_op(len(results)))
        if extra_s < EXTRA_SHARE * (time.perf_counter() - start):
            t0 = time.perf_counter()
            next(extras)()
            extra_s += time.perf_counter() - t0
    while len(setups) < SETUPS:
        setup_once()
    if not bounds:
        bound_once()
    run.check(all(h == hashes[0] for h in hashes), f"set-up artifacts differ: {hashes}")
    run.check(len(bound_hashes) == 1, "bound.json differs between repeats of one seed")
    bound_s = median(bounds)

    again, peak_alloc = certify_allocations(m.model, m.X[0], noise, N, 0)
    run.check(None not in results and result_tuple(again) == result_tuple(results[0]),
              "re-certifying sample 0 with the same seed gave a different result")
    results = [r for r in results if r is not None]
    run.check(any(not r.abstained for r in results), "certify abstained on every sample")
    run.info["repeats"] = {"setup": len(setups), "bound": len(bounds), "certify": len(times)}

    k = min_samples
    acc, radius = quality([r.predicted for r in results[:k]], m.labels[:k],
                          [r.radius for r in results[:k]])
    run.info["quality_samples"] = k
    run.info["artifact_sha256"] = hashes[0]
    e2e = certify_metrics(run, times, results)
    e2e.update({
        "setup_s": (median(setups), "s"),
        "train_s": (median(trains), "s"),
        "sigma_s": (median(sigmas), "s"),
        "bound_s": (bound_s, "s"),
        "pipeline_s": (median(trains) + median(sigmas) + sum(times[:k]) + bound_s, "s"),
        "certified_acc_r0": (acc, "fraction"),
        "mean_radius": (radius, "l2"),
        "peak_alloc_mb": (peak_alloc, "MB"),
    })
    return {"e2e": e2e, "op": "smoothing.certify", "dims": m.model.dims, "op_times": op_times}


def certify_allocations(model, x, noise, n: int, index: int):
    """Certify once more, untimed, under tracemalloc; returns the result and
    the peak of memory allocated during the call in MB.

    The process's peak RSS is reported in the info line only: across
    identical runs it lands on either of two levels about 25 MB apart, which
    the allocator decides, not the program.
    """
    tracemalloc.start()
    try:
        res = smoothing.certify(model, x, noise, N0, n, ALPHA, sample_index=index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return res, peak / 2**20


def more(count: int, minimum: int, start: float, seconds: float, times: list, ops: int = 1) -> bool:
    """Whether to start another operation: always below ``minimum``, else
    only if ``ops`` more of median length still end within ``seconds``."""
    if count < minimum:
        return True
    return time.perf_counter() - start + ops * median(times) <= seconds


def certify_metrics(run: Run, times: list[float], results: list) -> dict:
    value, pct, count = tail(times)
    run.info["certify_tail"] = {"percentile": pct, "samples": count}
    votes = sum(r.selection.draws + r.estimation.draws for r in results)
    return {
        "certify_votes_per_s": (votes / sum(times), "1/s"),
        "certify_sample_s_p50": (median(times), "s"),
        "certify_sample_s_tail": (value, "s"),
    }


def check_bound(run: Run, path: Path) -> None:
    try:
        b = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        run.check(False, f"bound.json unreadable: {e}")
        return
    keys = ("tau", "psi", "phi", "kl_term", "empirical_margin_loss", "bound_value")
    run.check(all(math.isfinite(b[k]) for k in keys), f"non-finite value in bound.json: {b}")
    run.check(b["vacuous"] == (b["bound_value"] >= 1.0), "bound.json vacuous flag is wrong")


# ---------------------------------------------------- pipeline-digits ---


def _capture_certify(calls: list):
    def observe(span, args, kwargs):
        def after(res):
            calls.append((span, args[2].sigma_input, res))
        return after
    return observe


def pipeline_workload(run: Run) -> dict:
    setups = []

    def setup_once() -> dict:
        run.calibrate()
        t0 = time.perf_counter()
        paths = write_digits(run.work)
        setups.append(time.perf_counter() - t0)
        return paths

    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    paths = setup_once()

    idx = ["--images", str(paths["train-images"]), "--labels", str(paths["train-labels"])]
    test = ["--images", str(paths["test-images"]), "--labels", str(paths["test-labels"]),
            "--max-samples", str(PIPELINE_TEST)]
    d = {k: run.work / k for k in ("train", "sigma", "certify", "bound", "report")}
    ckpt = d["train"] / "checkpoint.smcert"
    steps = {k: [] for k in ("train", "sigma", "certify", "bound", "report", "pass")}
    op_times = {"untraced": [], "traced": []}
    calls: list = []
    passes: list = []
    start = time.perf_counter()
    p = 0
    while more(p, PIPELINE_PASSES, start, run.seconds, steps["pass"]):
        # set-up repeats, rewriting identical files, spread over the run
        for _ in range(SETUPS):
            setup_once()
        for path in d.values():
            shutil.rmtree(path, ignore_errors=True)
        first_call = len(calls)
        on = run.trace and p % 2 == 1
        run.timer.install({"smoothing.certify": _capture_certify(calls)})
        try:
            with traced(run, on):
                op = run.tracer.open("pass") if on else None

                def step(name, argv, artifacts):
                    run.calibrate()
                    steps[name].append(run_cli(run, argv, artifacts))

                step("train", ["train", *idx, "--alpha", "0.1", "--epochs", "30", "--seed", "0",
                               "--out", str(d["train"])], [ckpt, d["train"] / "metrics.csv"])
                step("sigma", ["sigma", "--checkpoint", str(ckpt), *idx, "--seed", "0",
                               "--out", str(d["sigma"])], [d["sigma"] / "sigma.json"])
                sw2 = _read_sigma2(run, d["sigma"] / "sigma.json")
                step("certify", [
                    "certify", "--checkpoint", str(ckpt), *test, "--sigma2", str(SIGMA2),
                    "--sigma-weight2", repr(sw2), "--n0", str(N0), "--n", str(PIPELINE_N),
                    "--alpha", str(ALPHA), "--workers", "1", "--seed", str(run.seed),
                    "--out", str(d["certify"])],
                    [d["certify"] / n for n in ("samples.csv", "curve.csv", "curve.svg")])
                step("bound", ["bound", "--checkpoint", str(ckpt), *idx, "--gamma", str(GAMMA),
                               "--seed", str(run.seed), "--out", str(d["bound"])],
                     [d["bound"] / "bound.json"])
                step("report", ["report", str(d["certify"]), "--out", str(d["report"])],
                     [d["report"] / "combined_curves.csv"])
                if op is not None:
                    run.tracer.close(op)
        finally:
            run.timer.uninstall()
        # calibrations between the steps are not part of the pass
        dt = sum(steps[k][-1] for k in ("train", "sigma", "certify", "bound", "report"))
        steps["pass"].append(dt)
        op_times["traced" if on else "untraced"].append(dt)
        check_bound(run, d["bound"] / "bound.json")
        mine = calls[first_call:]
        for _, sigma_input, res in mine:
            run.check(True, "certify call")
            run.check(not (bad := certify_problems(res, N0, PIPELINE_N, sigma_input)), str(bad))
        run.check(len(mine) == PIPELINE_TEST, f"{len(mine)} certify calls, expected {PIPELINE_TEST}")
        run.check(any(not r.abstained for _, _, r in mine), "certify abstained on every sample")
        passes.append({
            "sha256": {str(path.relative_to(run.work)): sha256(path) for path in (
                ckpt, d["certify"] / "samples.csv", d["certify"] / "curve.csv",
                *(d[k] / "config.json" for k in ("train", "sigma", "certify", "bound")))},
            "results": [result_tuple(r) for _, _, r in mine],
            "quality": _samples_quality(run, d["certify"] / "samples.csv"),
        })
        p += 1
    run.check(all(q == passes[0] for q in passes[1:]),
              "artifacts or certify results differ between passes of one seed")
    model, _ = data.load_checkpoint(ckpt)
    held = data.load_idx(paths["test-images"], paths["test-labels"], k=10)
    noise = smoothing.NoiseConfig(sigma_input=math.sqrt(SIGMA2), sigma_weight=math.sqrt(sw2),
                                  base_seed=run.seed)
    again, peak_alloc = certify_allocations(model, data.augment(held.inputs[:1])[0], noise,
                                            PIPELINE_N, 0)
    run.check(result_tuple(again) == passes[0]["results"][0],
              "library certify of test sample 0 differs from the CLI's result")
    run.info["artifact_sha256"] = passes[0]["sha256"]
    run.info["quality_samples"] = PIPELINE_TEST

    times = [s.duration for s, _, _ in calls]
    e2e = certify_metrics(run, times, [r for _, _, r in calls])
    acc, radius = passes[0]["quality"]
    e2e.update({
        "setup_s": (median(setups), "s"),
        "train_s": (median(steps["train"]), "s"),
        "sigma_s": (median(steps["sigma"]), "s"),
        "bound_s": (median(steps["bound"]), "s"),
        "pipeline_s": (median(steps["pass"]), "s"),
        "certified_acc_r0": (acc, "fraction"),
        "mean_radius": (radius, "l2"),
        "peak_alloc_mb": (peak_alloc, "MB"),
    })
    return {"e2e": e2e, "op": "pass", "dims": model.dims, "op_times": op_times}


def _read_sigma2(run: Run, path: Path) -> float:
    try:
        sw2 = float(json.loads(path.read_text())["sigma2"])
    except (OSError, ValueError, KeyError) as e:
        run.check(False, f"sigma.json unreadable: {e}")
        return SIGMA2
    run.check(math.isfinite(sw2) and sw2 > 0, f"sigma2 {sw2} not positive")
    return sw2


def _samples_quality(run: Run, path: Path) -> tuple[float, float]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    run.check(all(math.isfinite(float(r["pa_lower"])) and math.isfinite(float(r["radius"]))
                  for r in rows), "non-finite value in samples.csv")
    return quality([int(r["predicted"]) for r in rows], [int(r["label"]) for r in rows],
                   [float(r["radius"]) for r in rows])


WORKLOADS = {
    "certify-d785": lambda run: certify_workload(run, "digits", min_samples=4),
    "certify-d17": lambda run: certify_workload(run, "blobs", min_samples=40),
    "pipeline-digits": pipeline_workload,
}
