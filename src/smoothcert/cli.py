"""Command-line interface: train / sigma / certify / bound / report.

Every option can also come from a flat key=value config file (``--config``):
explicit command-line flags win over the file, the file wins over built-in
defaults.  ``--seed`` falls back to the SMOOTHCERT_SEED environment variable
when neither the flag nor the file sets it.  Config-file values and
SMOOTHCERT_SEED stay text until the option's own argparse ``type`` converts
and range-checks them, exactly as if the same text were given as a flag.
Each run writes its fully resolved configuration as ``config.json`` beside
its outputs, and all outputs are byte-reproducible for identical resolved
configurations.

Exit codes: 0 success, 1 computational/runtime failure (malformed or empty
data and checkpoint files among them), 2 bad flags, config values or
SMOOTHCERT_SEED (before any data is read or ``--out`` is created).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import data, plot, smoothing, spectral
from .bounds import BoundInputs, evaluate_bound, psi, tau_solve
from .nn import init_model
from .sigma_select import SigmaSearchConfig, select_sigma
from .smoothing import ABSTAIN, NoiseConfig
from .train import TrainConfig, train

SAMPLES_HEADER = ["sample_index", "label", "predicted", "abstain", "pa_lower", "radius", "correct"]
CURVE_HEADER = ["radius", "accuracy"]
METRICS_HEADER = ["epoch", "loss", "train_acc", "reg_value", "seconds"]
TRACE_HEADER = ["sigma2", "mean_drop"]


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
_TRUE_FALSE = _checked(lambda t: {"true": True, "false": False}.get(t.lower()),
                       lambda v: v is not None, "true or false")
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


def _read_config(parser: argparse.ArgumentParser, path: str) -> dict[str, str]:
    """Flat ``key = value`` lines with '#' comments; values are quoted or bare
    text, left for each option's ``type`` to convert."""
    options = {a.dest for a in parser._actions if a.option_strings} - {"help"}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as e:
        parser.error(str(e))
    values: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, raw = (part.strip() for part in line.partition("="))
        key = key.replace("-", "_")
        where = f"{path}:{lineno}"
        if not eq:
            parser.error(f"{where}: expected 'key = value', got {line!r}")
        if key not in options:
            parser.error(f"{where}: unknown config key {key!r}")
        if raw[:1] in ("'", '"'):
            raw, end, _ = raw[1:].partition(raw[0])
            if not end:
                parser.error(f"{where}: unterminated string")
        else:
            raw = raw.split("#", 1)[0].strip()
        if parser._parse_optional(raw) is not None:
            # as a flag's value this text would be read as an option, and
            # the flag would be missing its argument
            parser.error(f"{where}: {key} value {raw!r} would be read as an option")
        values[key] = raw
    return values


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
    """The dataset, its bias-augmented inputs and the checkpoint's model."""
    ds = _load_dataset(cfg)
    model, _ = data.load_checkpoint(cfg["checkpoint"])
    X = data.augment(ds.inputs)
    if X.shape[1] != model.in_dim:
        raise ValueError(
            f"dataset dim {X.shape[1]} (bias-augmented) != model input dim {model.in_dim}")
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


def _cmd_train(cfg: dict) -> int:
    ds = _load_dataset(cfg)
    out = _out_dir(cfg)
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
    meta = {
        "k": ds.k, "input_dim_raw": ds.d, "augmented": True, "dataset": ds.name,
        "train_config": asdict(tc),  # JSON writes the lr_drops tuples as arrays
    }
    data.save_checkpoint(out / "checkpoint.smcert", model, meta)
    _write_csv(out / "metrics.csv", METRICS_HEADER,
               [(m.epoch, m.loss, m.train_acc, m.reg_value, m.seconds) for m in metrics])
    _write_json(out / "spectral.json", asdict(spectral.spectral_report(model)))
    _write_json(out / "config.json", cfg)
    last = metrics[-1]
    print(f"trained {len(metrics)} epochs: loss {last.loss:.4f}, "
          f"train acc {last.train_acc:.4f}, regularizer {last.reg_value:.4f}")
    return 0


def _cmd_sigma(cfg: dict) -> int:
    ds, X, model = _load_model_and_data(cfg)
    out = _out_dir(cfg)
    sc = SigmaSearchConfig(
        grid_start=cfg["grid_start"], grid_stop=cfg["grid_stop"], grid_step=cfg["grid_step"],
        n_samples=cfg["samples"], tolerance=cfg["tolerance"], eval_subset=cfg["eval_subset"],
        base_seed=cfg["seed"], full_scan=cfg["full_scan"],
    )
    result = select_sigma(model, X, ds.labels, sc)
    _write_json(out / "sigma.json", {
        "sigma2": result.sigma2,
        "flagged_none_qualified": result.flagged_none_qualified,
        "base_accuracy": result.base_accuracy,
    })
    _write_csv(out / "trace.csv", TRACE_HEADER, result.trace)
    _write_json(out / "config.json", cfg)
    flag = " (flagged: no grid point qualified)" if result.flagged_none_qualified else ""
    print(f"selected sigma2 = {result.sigma2}{flag}")
    return 0


_WORKER: dict = {}


def _certify_init(payload: dict) -> None:
    _WORKER.update(payload)


def _certify_one(i: int) -> tuple[int, int, float, float]:
    res = smoothing.certify(
        _WORKER["model"], _WORKER["X"][i], _WORKER["noise"],
        _WORKER["n0"], _WORKER["n"], _WORKER["alpha"], sample_index=i,
    )
    return i, res.predicted, res.pa_lower, res.radius


def _cmd_certify(cfg: dict) -> int:
    ds, X, model = _load_model_and_data(cfg)
    out = _out_dir(cfg)
    sigma_w = cfg["sigma_weight2"]
    noise = NoiseConfig(
        sigma_input=float(np.sqrt(cfg["sigma2"])),
        sigma_weight=None if sigma_w is None else float(np.sqrt(sigma_w)),
        base_seed=cfg["seed"],
    )
    payload = {"model": model, "X": X, "noise": noise,
               "n0": cfg["n0"], "n": cfg["n"], "alpha": cfg["alpha"]}
    indices = range(ds.m)
    if cfg["workers"] > 1:
        with ProcessPoolExecutor(
            max_workers=cfg["workers"], initializer=_certify_init, initargs=(payload,)
        ) as ex:
            rows = sorted(ex.map(_certify_one, indices, chunksize=8))
    else:
        _certify_init(payload)
        rows = [_certify_one(i) for i in indices]

    labels = ds.labels
    _write_csv(out / "samples.csv", SAMPLES_HEADER, [
        (i, int(labels[i]), pred, int(pred == ABSTAIN), pa, rad, int(pred == labels[i]))
        for i, pred, pa, rad in rows
    ])
    steps = int(round(cfg["radius_max"] / cfg["radius_step"]))
    radii = [i * cfg["radius_step"] for i in range(steps + 1)]
    _, predicted, _, radius = zip(*rows)
    accs = smoothing.certified_accuracy_curve(predicted, radius, labels, radii)
    curve = list(zip(radii, (float(a) for a in accs)))
    _write_csv(out / "curve.csv", CURVE_HEADER, curve)
    plot.emit_plot(out / "curve.svg", {"certified accuracy": curve},
                   title="Certified accuracy", x_label="radius", y_label="accuracy")
    _write_json(out / "config.json", cfg)
    n_abstain = predicted.count(ABSTAIN)
    print(f"certified {ds.m} samples: accuracy at r=0 is {accs[0]:.4f}, "
          f"{n_abstain} abstentions")
    return 0


def _cmd_bound(cfg: dict) -> int:
    ds, X, model = _load_model_and_data(cfg)
    out = _out_dir(cfg)
    report = spectral.spectral_report(model)
    hidden_dims = model.dims[1:-1]
    h = cfg["h"] if cfg["h"] > 0 else (max(hidden_dims) if hidden_dims else model.out_dim)
    inputs = BoundInputs(
        gamma=cfg["gamma"], delta=cfg["delta"], m=ds.m,
        B=float(np.linalg.norm(X, axis=1).max()),
        n=model.n_layers, h=h, d=model.in_dim,
        per_layer_spectral=report.per_layer_spectral,
        per_layer_frobenius=report.per_layer_frobenius,
    )
    if cfg["empirical_loss"] is not None:
        loss = cfg["empirical_loss"]
    else:
        tau = tau_solve(inputs.d)
        psi_value = psi(inputs.gamma, inputs.B, tau, inputs.n, inputs.h,
                        inputs.per_layer_spectral)
        if psi_value <= 0.0:
            raise ValueError("psi is 0; supply --empirical-loss explicitly")
        sig = float(np.sqrt(psi_value))
        noise = NoiseConfig(sigma_input=sig, sigma_weight=sig, base_seed=cfg["seed"])
        subset = min(ds.m, cfg["margin_subset"])
        loss = smoothing.empirical_margin_loss(
            model, X[:subset], ds.labels[:subset], cfg["gamma"], noise, cfg["margin_votes"])
    pa, pb = cfg["pa"], cfg["pb"]
    bound = evaluate_bound(inputs, loss, pa=pa, pb=pb)
    _write_json(out / "bound.json", asdict(bound))
    _write_json(out / "spectral.json", asdict(report))
    _write_json(out / "config.json", cfg)
    tag = " (vacuous)" if bound.vacuous else ""
    print(f"bound = {bound.bound_value:.6f}{tag}, kl = {bound.kl_term:.6g}, "
          f"psi = {bound.psi:.6g}")
    return 0


def _step_interp(points: list[tuple[float, float]], r: float) -> float:
    """Right-continuous step value: accuracy at the largest grid radius <= r."""
    acc = points[0][1]
    for pr, pa in points:
        if pr <= r:
            acc = pa
        else:
            break
    return acc


def _cmd_report(cfg: dict) -> int:
    runs: dict[str, list[tuple[float, float]]] = {}
    extras: dict[str, dict] = {}
    for d in cfg["dirs"]:
        path = Path(d)
        name = path.name or str(path)
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
                pts.append((float(r), float(a)))
        if not pts:
            raise ValueError(f"{curve_path} has no rows")
        runs[name] = sorted(pts)
        extras[name] = {}
        for extra in ("sigma.json", "spectral.json"):
            p = path / extra
            if p.exists():
                extras[name][extra] = json.loads(p.read_text(encoding="utf-8"))

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

    spectral_rows = []
    for name in runs:
        sp = extras[name].get("spectral.json")
        if sp is None:
            continue
        off = spectral.mean_abs_offdiag(sp["cosine_matrix"])
        sg = extras[name].get("sigma.json", {})
        spectral_rows.append((name, sp["collapsed_spectral"], sp["product_spectral"],
                              sp["gershgorin"], off, sg.get("sigma2", "")))
    if spectral_rows:
        _write_csv(out / "spectral_trends.csv",
                   ["run", "collapsed_spectral", "product_spectral", "gershgorin",
                    "mean_abs_offdiag_cosine", "sigma2"], spectral_rows)
    _write_json(out / "config.json", cfg)
    print(f"merged {len(runs)} runs over {len(union)} radius grid points")
    return 0


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
    # the type converts config-file text; the bare flag stores True
    s.add_argument("--full-scan", action="store_true",
                   help="scan the whole grid instead of stopping at the first violation"
                   ).type = _TRUE_FALSE
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
    b.add_argument("--h", default=0, type=_NONNEG_INT,
                   help="hidden width override (0 = max hidden dim)")
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
    ns = parser.parse_args(argv)
    sub: argparse.ArgumentParser = ns._parser
    if ns.config is not None:
        # config text becomes the defaults; parsing again converts and checks it
        sub.set_defaults(**_read_config(sub, ns.config))
        ns = parser.parse_args(argv)
    cfg = {k: v for k, v in vars(ns).items() if not k.startswith("_")}
    for key in _REQUIRED[ns.command]:
        if cfg[key] is None:
            sub.error(f"--{key} is required (flag or config file)")
    if bool(cfg.get("images")) != bool(cfg.get("labels")):
        sub.error("--images and --labels must be supplied together")
    if ns.command == "sigma" and cfg["grid_start"] > cfg["grid_stop"]:
        sub.error("--grid-start must not exceed --grid-stop")
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
        return ns._run(cfg)
    except (ValueError, OSError, RuntimeError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
