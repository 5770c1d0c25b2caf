"""Command-line interface: train / sigma / certify / bound / report.

A flat key=value config file (``--config``) is a list of flags, ``key =
value`` for ``--key value`` and ``full_scan = true`` for ``--full-scan``,
parsed ahead of the command line's own flags: those win over the file, and
the file wins over built-in defaults.  ``--seed`` falls back to the
SMOOTHCERT_SEED environment variable, which its argparse ``type`` checks as
it does a flag.  After a command succeeds, ``main`` writes the fully
resolved configuration as ``config.json`` beside its outputs; all outputs
are byte-reproducible for identical resolved configurations, except the
wall-time ``seconds`` column of ``metrics.csv``.

``certify --workers N`` runs the per-sample certify calls on N threads
through ``train.ahead``: the calling thread and N - 1 helpers.  Results
come back in sample order, so the outputs do not depend on N.  With N = 1
a call on a model of many weights spreads its own vote chunks over the
cores; with N > 1 each call's chunks run in line on the thread that
certifies its sample.

Exit codes: 0 success, 1 computational/runtime failure (malformed or empty
data, checkpoint and report input files among them), 2 bad flags, config
values, SMOOTHCERT_SEED, a ``sigma`` variance grid or ``certify`` radius
grid of more than ``MAX_RADII`` points or ``report`` directories sharing a
basename (before any data is read or ``--out`` is created).
Every command creates ``--out`` only once its computation has succeeded,
so a failed run leaves none behind.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import data, plot, smoothing, spectral
from .bounds import BoundInputs, _tau_psi, evaluate_bound
from .nn import _labelled, init_model
from .sigma_select import SigmaSearchConfig, _grid, select_sigma
from .smoothing import ABSTAIN, NoiseConfig
from .train import TrainConfig, ahead, train

SAMPLES_HEADER = ["sample_index", "label", "predicted", "abstain", "pa_lower", "radius", "correct"]
CURVE_HEADER = ["radius", "accuracy"]
METRICS_HEADER = ["epoch", "loss", "train_acc", "reg_value", "seconds"]
TRACE_HEADER = ["sigma2", "mean_drop"]
MAX_RADII = 10**6  # points in a variance or radius grid; the defaults have 100 and 201


# --------------------------------------------------------------- options ---


def _parse_hidden(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def _parse_drops(text: str) -> tuple[tuple[int, float], ...]:
    text = text.strip()
    if not text:
        return ()
    drops = []
    for part in text.split(","):
        epoch, divisor = part.split(":")
        drops.append((int(epoch), float(divisor)))
    return tuple(drops)


def _checked(convert, ok, expected: str):
    """An argparse ``type``: ``convert`` the text, then require ``ok(value)``."""

    def check(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return check


_POS_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_NONNEG_INT = _checked(int, lambda v: v >= 0, "an integer >= 0")
_POS_FLOAT = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_NONNEG_FLOAT = _checked(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
_PROB = _checked(float, lambda v: 0.0 < v < 1.0, "a probability in (0, 1)")
_UNIT = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_MOMENTUM = _checked(float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")
_SYNTH_KIND = _checked(str, lambda v: v in ("blobs", "digits"), "'blobs' or 'digits'")
# text options that hold numbers: checked here, kept as text in config.json
_HIDDEN = _checked(str, lambda t: all(w >= 1 for w in _parse_hidden(t)),
                   "comma-separated widths >= 1")
_LR_DROPS = _checked(str, lambda t: all(e >= 1 and 0.0 < f < math.inf
                                        for e, f in _parse_drops(t)),
                     "epoch:divisor pairs with epoch >= 1 and a finite divisor > 0")


class _Help(argparse.ArgumentDefaultsHelpFormatter):
    """Appends ``(default: ...)`` to every option whose default is not None."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def _read_config(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The flags a file of ``key = value`` lines ('#' comments, values quoted
    or bare) stands for: ``--key value``, or for the switch ``full_scan`` the
    bare ``--full-scan`` if ``true`` and nothing if ``false``."""
    actions = {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as e:
        parser.error(str(e))
    tokens: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, raw = (part.strip() for part in line.partition("="))
        key = key.replace("-", "_")
        where = f"{path}:{lineno}"
        if not eq:
            parser.error(f"{where}: expected 'key = value', got {line!r}")
        if key not in actions:
            parser.error(f"{where}: unknown config key {key!r}")
        if raw[:1] in ("'", '"'):
            raw, end, _ = raw[1:].partition(raw[0])
            if not end:
                parser.error(f"{where}: unterminated string")
        else:
            raw = raw.split("#", 1)[0].strip()
        flag = actions[key].option_strings[0]
        if actions[key].nargs != 0:
            tokens += [flag, raw]
        elif raw.lower() not in ("true", "false"):
            parser.error(f"{where}: {key} expects true or false, got {raw!r}")
        elif raw.lower() == "true":
            tokens.append(flag)
    return tokens


def _dataset_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--images", help="IDX image file (with --labels)")
    p.add_argument("--labels", help="IDX label file (with --images)")
    p.add_argument("--synth-kind", default="blobs", type=_SYNTH_KIND,
                   choices=["blobs", "digits"], help="synthetic data family")
    p.add_argument("--synth-k", default=3, type=_POS_INT, help="synthetic data: classes")
    p.add_argument("--synth-d", default=16, type=_POS_INT, help="synthetic data: input dim")
    p.add_argument("--synth-m", default=1200, type=_POS_INT, help="synthetic data: examples")
    p.add_argument("--synth-spread", default=0.08, type=_NONNEG_FLOAT,
                   help="synthetic data: cluster spread (blobs)")
    p.add_argument("--synth-seed", default=1, type=_NONNEG_INT, help="synthetic data: seed")
    p.add_argument("--max-samples", default=0, type=_NONNEG_INT,
                   help="cap on examples used (0 = all)")


def _seed_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", default=os.environ.get("SMOOTHCERT_SEED", "0"), type=_NONNEG_INT,
                   help="base seed (env SMOOTHCERT_SEED fallback)")


# --------------------------------------------------------------- helpers ---


def _load_dataset(cfg: dict) -> data.Dataset:
    if cfg["images"]:
        ds = data.load_idx(cfg["images"], cfg["labels"])
    elif cfg["synth_kind"] == "blobs":
        ds = data.synth_blobs(cfg["synth_k"], cfg["synth_d"], cfg["synth_m"],
                              cfg["synth_spread"], cfg["synth_seed"])
    else:
        ds = data.synth_digits(cfg["synth_k"], cfg["synth_d"], cfg["synth_m"],
                               cfg["synth_seed"])
    return ds.subset(0, cfg["max_samples"]) if cfg["max_samples"] else ds


def _load_model_and_data(cfg: dict):
    """The dataset, its bias-augmented inputs and the checkpoint's model.

    The whole set goes through ``_labelled``: ``bound --empirical-loss``
    checks its labels nowhere else, and the margin loss sees only a subset."""
    ds = _load_dataset(cfg)
    model, _ = data.load_checkpoint(cfg["checkpoint"])
    X, _ = _labelled(model, data.augment(ds.inputs), ds.labels)
    return ds, X, model


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    """The one JSON artifact format: indent 2, sorted keys, trailing newline."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


# ------------------------------------------------------------- commands ---


def _cmd_train(cfg: dict) -> None:
    ds = _load_dataset(cfg)
    X = data.augment(ds.inputs)
    hidden = _parse_hidden(cfg["hidden"])
    model = init_model((X.shape[1], *hidden, ds.k), seed=cfg["seed"])
    tc = TrainConfig(
        epochs=cfg["epochs"], batch_size=cfg["batch_size"], lr=cfg["lr"],
        lr_drops=_parse_drops(cfg["lr_drops"]), momentum=cfg["momentum"],
        weight_decay=cfg["weight_decay"], noise_variance=cfg["noise_variance"],
        alpha=cfg["alpha"], seed=cfg["seed"],
    )
    model, metrics = train(model, X, ds.labels, tc)
    out = _out_dir(cfg)
    meta = {
        "k": ds.k, "input_dim_raw": ds.d, "augmented": True, "dataset": ds.name,
        "train_config": asdict(tc),  # JSON writes the lr_drops tuples as arrays
    }
    data.save_checkpoint(out / "checkpoint.smcert", model, meta)
    _write_csv(out / "metrics.csv", METRICS_HEADER,
               [(m.epoch, m.loss, m.train_acc, m.reg_value, m.seconds) for m in metrics])
    _write_json(out / "spectral.json", asdict(spectral.spectral_report(model)))
    last = metrics[-1]
    print(f"trained {len(metrics)} epochs: loss {last.loss:.4f}, "
          f"train acc {last.train_acc:.4f}, regularizer {last.reg_value:.4f}")


def _cmd_sigma(cfg: dict) -> None:
    ds, X, model = _load_model_and_data(cfg)
    sc = SigmaSearchConfig(
        grid_start=cfg["grid_start"], grid_stop=cfg["grid_stop"], grid_step=cfg["grid_step"],
        n_samples=cfg["samples"], tolerance=cfg["tolerance"], eval_subset=cfg["eval_subset"],
        base_seed=cfg["seed"], full_scan=cfg["full_scan"],
    )
    result = select_sigma(model, X, ds.labels, sc)
    out = _out_dir(cfg)
    _write_json(out / "sigma.json", {
        "sigma2": result.sigma2,
        "flagged_none_qualified": result.flagged_none_qualified,
        "base_accuracy": result.base_accuracy,
    })
    _write_csv(out / "trace.csv", TRACE_HEADER, result.trace)
    flag = " (flagged: no grid point qualified)" if result.flagged_none_qualified else ""
    print(f"selected sigma2 = {result.sigma2}{flag}")


def _cmd_certify(cfg: dict) -> None:
    ds, X, model = _load_model_and_data(cfg)
    sigma_w = cfg["sigma_weight2"]
    noise = NoiseConfig(
        sigma_input=float(np.sqrt(cfg["sigma2"])),
        sigma_weight=None if sigma_w is None else float(np.sqrt(sigma_w)),
        base_seed=cfg["seed"],
    )
    # computed here, once: from Python 3.12 a cached_property takes no lock,
    # so threads meeting it first would each run the QR
    model.row_basis

    def certify_one(i: int) -> smoothing.CertifyResult:
        return smoothing.certify(model, X[i], noise, cfg["n0"], cfg["n"], cfg["alpha"],
                                 sample_index=i)

    with ahead(certify_one, zip(range(ds.m)), cfg["workers"]) as results:
        rows = [(r.predicted, r.pa_lower, r.radius) for r in results]

    labels = ds.labels
    radii = _grid(0.0, cfg["radius_max"], cfg["radius_step"]).tolist()
    predicted, _, radius = zip(*rows)
    accs = smoothing.certified_accuracy_curve(predicted, radius, labels, radii)
    curve = list(zip(radii, (float(a) for a in accs)))
    out = _out_dir(cfg)
    _write_csv(out / "samples.csv", SAMPLES_HEADER, [
        (i, int(labels[i]), pred, int(pred == ABSTAIN), pa, rad, int(pred == labels[i]))
        for i, (pred, pa, rad) in enumerate(rows)
    ])
    _write_csv(out / "curve.csv", CURVE_HEADER, curve)
    plot.emit_plot(out / "curve.svg", {"certified accuracy": curve},
                   title="Certified accuracy", x_label="radius", y_label="accuracy")
    n_abstain = predicted.count(ABSTAIN)
    print(f"certified {ds.m} samples: accuracy at r=0 is {accs[0]:.4f}, "
          f"{n_abstain} abstentions")


def _cmd_bound(cfg: dict) -> None:
    ds, X, model = _load_model_and_data(cfg)
    report = spectral.spectral_report(model)
    inputs = BoundInputs(  # h: the widest hidden layer, or a one-layer model's output
        gamma=cfg["gamma"], delta=cfg["delta"], m=ds.m,
        B=float(np.linalg.norm(X, axis=1).max()),
        n=model.n_layers, h=max(model.dims[1:-1] or (model.out_dim,)), d=model.in_dim,
        per_layer_spectral=report.per_layer_spectral,
        per_layer_frobenius=report.per_layer_frobenius,
    )
    _, psi_value = _tau_psi(inputs)
    if cfg["empirical_loss"] is not None:
        loss = cfg["empirical_loss"]
    else:
        sig = float(np.sqrt(psi_value))
        noise = NoiseConfig(sigma_input=sig, sigma_weight=sig, base_seed=cfg["seed"])
        subset = min(ds.m, cfg["margin_subset"])
        loss = smoothing.empirical_margin_loss(
            model, X[:subset], ds.labels[:subset], cfg["gamma"], noise, cfg["margin_votes"])
    pa, pb = cfg["pa"], cfg["pb"]
    bound = evaluate_bound(inputs, loss, pa=pa, pb=pb)
    out = _out_dir(cfg)
    _write_json(out / "bound.json", asdict(bound))
    _write_json(out / "spectral.json", asdict(report))
    tag = " (vacuous)" if bound.vacuous else ""
    print(f"bound = {bound.bound_value:.6f}{tag}, kl = {bound.kl_term:.6g}, "
          f"psi = {bound.psi:.6g}")


def _check_grid(sub: argparse.ArgumentParser, start: float, stop: float, step: float,
                flags: str) -> None:
    """Exit 2 unless ``_grid(start, stop, step)`` holds 1 to ``MAX_RADII`` points."""
    steps = (stop - start) / step
    if not (math.isfinite(steps) and steps >= 0.0 and round(steps) + 1 <= MAX_RADII):
        sub.error(f"{flags} must give 1 to {MAX_RADII} grid points")


def _step_interp(points: list[tuple[float, float]], r: float) -> float:
    """Right-continuous step value: accuracy at the largest grid radius <= r."""
    acc = points[0][1]
    for pr, pa in points:
        if pr <= r:
            acc = pa
        else:
            break
    return acc


def _run_name(d: str) -> str:
    """A run's name in the report outputs: its directory's basename."""
    path = Path(d)
    return path.name or str(path)


def _json_object(path: Path) -> dict | None:
    """The JSON object in ``path``, or None when there is no such file."""
    if not path.exists():
        return None
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path} must hold a JSON object")
    return obj


def _json_number(path: Path, obj: dict, key: str) -> float:
    v = obj.get(key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{path}: {key} must be a number")
    return v


def _read_trend(run: Path) -> tuple | None:
    """A run's spectral_trends.csv values, or None without a spectral.json.

    These are spectral.json's collapsed, product and Gershgorin norms, the
    mean |off-diagonal| of its cosine matrix, and sigma.json's sigma2 ("" when
    absent).  Every key and type read is checked here, so a malformed file
    fails before ``--out`` is made.
    """
    sg_path, sp_path = run / "sigma.json", run / "spectral.json"
    sg = _json_object(sg_path) or {}
    sp = _json_object(sp_path)
    sigma2 = _json_number(sg_path, sg, "sigma2") if "sigma2" in sg else ""
    if sp is None:
        return None
    norms = [_json_number(sp_path, sp, k)
             for k in ("collapsed_spectral", "product_spectral", "gershgorin")]
    try:
        cos = np.array(sp.get("cosine_matrix"), dtype=np.float64)
    except (TypeError, ValueError):
        cos = None
    if cos is None or cos.ndim != 2 or cos.shape[0] != cos.shape[1]:
        raise ValueError(f"{sp_path}: cosine_matrix must be a square matrix of numbers")
    return (*norms, spectral.mean_abs_offdiag(cos), sigma2)


def _cmd_report(cfg: dict) -> None:
    runs: dict[str, list[tuple[float, float]]] = {}
    trends = []
    for d in cfg["dirs"]:
        path = Path(d)
        name = _run_name(d)
        curve_path = path / "curve.csv"
        if not curve_path.exists():
            raise ValueError(f"{curve_path} not found")
        with open(curve_path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            if not set(CURVE_HEADER) <= set(reader.fieldnames or ()):
                raise ValueError(f"{curve_path} needs the columns {', '.join(CURVE_HEADER)}")
            pts = []
            for row in reader:
                r, a = row["radius"], row["accuracy"]
                if r is None or a is None:
                    raise ValueError(f"{curve_path}: line {reader.line_num} is short")
                pt = (float(r), float(a))
                if not all(map(math.isfinite, pt)):
                    raise ValueError(f"{curve_path}: line {reader.line_num} is not finite")
                if pt[0] < 0.0 or not 0.0 <= pt[1] <= 1.0:
                    raise ValueError(f"{curve_path}: line {reader.line_num} needs a radius "
                                     ">= 0 and an accuracy in [0, 1]")
                pts.append(pt)
        if not pts:
            raise ValueError(f"{curve_path} has no rows")
        runs[name] = sorted(pts)
        trend = _read_trend(path)
        if trend is not None:
            trends.append((name, *trend))

    out = _out_dir(cfg)
    grids = [tuple(r for r, _ in pts) for pts in runs.values()]
    union = sorted({r for grid in grids for r in grid})
    if any(grid != tuple(union) for grid in grids):
        print("note: radius grids differ across runs; "
              "re-interpolated as right-continuous steps", file=sys.stderr)
    merged = {name: [(r, _step_interp(pts, r)) for r in union] for name, pts in runs.items()}
    _write_csv(out / "combined_curves.csv", ["run"] + CURVE_HEADER,
               [(name, r, a) for name, pts in merged.items() for r, a in pts])
    plot.emit_plot(out / "combined_curves.svg", merged,
                   title="Certified accuracy", x_label="radius", y_label="accuracy")
    if trends:
        _write_csv(out / "spectral_trends.csv",
                   ["run", "collapsed_spectral", "product_spectral", "gershgorin",
                    "mean_abs_offdiag_cosine", "sigma2"], trends)
    print(f"merged {len(runs)} runs over {len(union)} radius grid points")


# ----------------------------------------------------------------- main ---


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothcert",
        description="Train, certify, and bound noise-smoothed majority-vote MLP classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, run) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text, formatter_class=_Help)
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.set_defaults(_run=run, _parser=p)
        return p

    t = command("train", "train an MLP under input noise, optionally regularized", _cmd_train)
    _dataset_opts(t)
    t.add_argument("--out", help="output directory (required)")
    t.add_argument("--hidden", default="32,32,32", type=_HIDDEN,
                   help="comma-separated hidden widths")
    t.add_argument("--epochs", default=30, type=_POS_INT, help="training epochs")
    t.add_argument("--batch-size", default=256, type=_POS_INT, help="minibatch size")
    t.add_argument("--lr", default=0.1, type=_POS_FLOAT, help="initial learning rate")
    t.add_argument("--lr-drops", default="10:10,20:10", type=_LR_DROPS,
                   help="epoch:divisor pairs, e.g. 10:10,20:10")
    t.add_argument("--momentum", default=0.9, type=_MOMENTUM, help="SGD momentum")
    t.add_argument("--weight-decay", default=0.0, type=_NONNEG_FLOAT, help="L2 weight decay")
    t.add_argument("--noise-variance", default=0.12, type=_NONNEG_FLOAT,
                   help="training input-noise variance")
    t.add_argument("--alpha", default=0.0, type=_NONNEG_FLOAT,
                   help="decorrelation regularizer strength")
    _seed_opt(t)

    s = command("sigma", "search the largest weight-noise variance the model tolerates",
                _cmd_sigma)
    _dataset_opts(s)
    s.add_argument("--checkpoint", help="model checkpoint (required)")
    s.add_argument("--out", help="output directory (required)")
    s.add_argument("--grid-start", default=0.01, type=_POS_FLOAT, help="variance grid start")
    s.add_argument("--grid-stop", default=1.00, type=_POS_FLOAT, help="variance grid stop")
    s.add_argument("--grid-step", default=0.01, type=_POS_FLOAT, help="variance grid step")
    s.add_argument("--samples", default=50, type=_POS_INT,
                   help="weight perturbations per grid point")
    s.add_argument("--tolerance", default=0.02, type=_NONNEG_FLOAT,
                   help="max mean accuracy drop")
    s.add_argument("--eval-subset", default=2048, type=_POS_INT, help="evaluation subset size")
    s.add_argument("--full-scan", action="store_true",
                   help="scan the whole grid instead of stopping at the first violation")
    _seed_opt(s)

    c = command("certify", "certify per-sample L2 radii by Monte-Carlo voting", _cmd_certify)
    _dataset_opts(c)
    c.add_argument("--checkpoint", help="model checkpoint (required)")
    c.add_argument("--out", help="output directory (required)")
    c.add_argument("--sigma2", type=_POS_FLOAT, help="noise variance (required)")
    c.add_argument("--sigma-weight2", type=_NONNEG_FLOAT,
                   help="weight-noise variance (defaults to --sigma2)")
    c.add_argument("--n0", default=100, type=_POS_INT, help="selection votes per sample")
    c.add_argument("--n", default=100000, type=_POS_INT, help="estimation votes per sample")
    c.add_argument("--alpha", default=0.001, type=_PROB,
                   help="confidence bound failure probability")
    c.add_argument("--workers", default=1, type=_POS_INT, help="parallel certification workers")
    c.add_argument("--radius-max", default=2.0, type=_NONNEG_FLOAT,
                   help="curve grid maximum radius")
    c.add_argument("--radius-step", default=0.01, type=_POS_FLOAT, help="curve grid step")
    _seed_opt(c)

    b = command("bound", "evaluate the generalization bound for a checkpoint", _cmd_bound)
    _dataset_opts(b)
    b.add_argument("--checkpoint", help="model checkpoint (required)")
    b.add_argument("--out", help="output directory (required)")
    b.add_argument("--gamma", type=_POS_FLOAT, help="margin (required, > 0)")
    b.add_argument("--delta", default=0.05, type=_PROB, help="confidence level")
    b.add_argument("--margin-votes", default=200, type=_POS_INT,
                   help="votes per example for the margin loss")
    b.add_argument("--margin-subset", default=1024, type=_POS_INT,
                   help="examples for the margin loss")
    b.add_argument("--empirical-loss", type=_UNIT,
                   help="skip estimation and use this empirical margin loss")
    b.add_argument("--pa", type=_UNIT, help="vote probability lower bound (with --pb)")
    b.add_argument("--pb", type=_UNIT, help="runner-up upper bound (with --pa)")
    _seed_opt(b)

    r = command("report", "merge certification runs into one plot and table", _cmd_report)
    r.add_argument("dirs", nargs="+", help="certify output directories")
    r.add_argument("--out", help="output directory (required)")

    return parser


_REQUIRED = {
    "train": ("out",),
    "sigma": ("checkpoint", "out"),
    "certify": ("checkpoint", "out", "sigma2"),
    "bound": ("checkpoint", "out", "gamma"),
    "report": ("out",),
}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = parser.parse_args(argv)
    sub: argparse.ArgumentParser = ns._parser
    if ns.config is not None:
        # the file's flags go right after the command name, so the command
        # line's own flags come later and win
        i = argv.index(ns.command) + 1
        ns = parser.parse_args(argv[:i] + _read_config(sub, ns.config) + argv[i:])
    cfg = {k: v for k, v in vars(ns).items() if not k.startswith("_")}
    for key in _REQUIRED[ns.command]:
        if cfg[key] is None:
            sub.error(f"--{key} is required (flag or config file)")
    if bool(cfg.get("images")) != bool(cfg.get("labels")):
        sub.error("--images and --labels must be supplied together")
    if ns.command == "sigma":  # also refuses --grid-start > --grid-stop
        _check_grid(sub, cfg["grid_start"], cfg["grid_stop"], cfg["grid_step"],
                    "(--grid-stop - --grid-start) / --grid-step")
    if ns.command == "certify":
        _check_grid(sub, 0.0, cfg["radius_max"], cfg["radius_step"], "--radius-max / --radius-step")
    if ns.command == "report":
        # runs are keyed by name in every report output
        named: dict[str, str] = {}
        for d in cfg["dirs"]:
            name = _run_name(d)
            if name in named:
                sub.error(f"runs {named[name]} and {d} share the name {name!r}")
            named[name] = d
    if ns.command == "bound":
        if (cfg["pa"] is None) != (cfg["pb"] is None):
            sub.error("--pa and --pb must be supplied together")
        if cfg["pa"] is not None and cfg["pa"] < cfg["pb"]:
            sub.error("--pa must be at least --pb")
    for key in ("images", "labels", "checkpoint"):
        val = cfg.get(key)
        if val and not Path(val).exists():
            sub.error(f"--{key}: no such file: {val}")
    try:
        ns._run(cfg)
        _write_json(Path(cfg["out"]) / "config.json", cfg)
    except (ValueError, OSError, RuntimeError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
