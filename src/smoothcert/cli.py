"""Command-line interface: train / sigma / certify / bound / report.

Every option can also come from a flat key=value config file (``--config``):
explicit command-line flags win over the file, the file wins over built-in
defaults.  ``--seed`` falls back to the SMOOTHCERT_SEED environment variable
when neither the flag nor the file sets it.  Each run writes its fully
resolved configuration as ``config.json`` beside its outputs, and all
outputs are byte-reproducible for identical resolved configurations.

Exit codes: 0 success, 1 computational/runtime failure, 2 bad flags or
config.
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

_SENTINEL = object()

SAMPLES_HEADER = ["sample_index", "label", "predicted", "abstain", "pa_lower", "radius", "correct"]
CURVE_HEADER = ["radius", "accuracy"]
METRICS_HEADER = ["epoch", "loss", "train_acc", "reg_value", "seconds"]
TRACE_HEADER = ["sigma2", "mean_drop"]


# ---------------------------------------------------------------- config ---


def _parse_config_value(raw: str):
    raw = raw.strip()
    if raw.startswith(('"', "'")):
        quote = raw[0]
        end = raw.find(quote, 1)
        if end < 0:
            raise ValueError(f"unterminated string: {raw!r}")
        return raw[1:end]
    raw = raw.split("#", 1)[0].strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _read_config_file(path: str) -> dict:
    """Flat key = value lines; '#' comments; quoted or bare scalar values."""
    values: dict[str, object] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip().replace("-", "_")
        if not key:
            raise ValueError(f"{path}:{lineno}: empty key")
        values[key] = _parse_config_value(raw)
    return values


class _Cmd:
    """A subcommand whose options support the CLI > config > default cascade."""

    def __init__(self, subparsers, name: str, help_text: str):
        self.name = name
        self.parser = subparsers.add_parser(name, help=help_text, description=help_text)
        self.parser.set_defaults(_cmd=self)
        self.defaults: dict[str, object] = {}
        self.types: dict[str, type | None] = {}
        self.opt("--config", default=None, type=str,
                 help="flat key=value config file; flags override it")

    def opt(self, flag: str, *, default, type=str, action=None, choices=None, help=""):
        dest = flag.lstrip("-").replace("-", "_")
        if default is not None:
            help = f"{help} (default: {default})" if help else f"(default: {default})"
        if action == "store_true":
            self.parser.add_argument(flag, dest=dest, action="store_true",
                                     default=_SENTINEL, help=help)
            self.types[dest] = bool
        else:
            self.parser.add_argument(flag, dest=dest, type=type, choices=choices,
                                     default=_SENTINEL, help=help)
            self.types[dest] = type
        self.defaults[dest] = default

    def positional(self, name: str, *, nargs=None, help=""):
        self.parser.add_argument(name, nargs=nargs, help=help)

    def resolve(self, ns: argparse.Namespace) -> dict:
        """Apply the precedence cascade; reject unknown config keys."""
        values = vars(ns)
        config: dict[str, object] = {}
        raw_config = values.get("config")
        if raw_config not in (None, _SENTINEL):
            try:
                config = _read_config_file(raw_config)
            except (OSError, ValueError) as e:
                self.parser.error(str(e))
        unknown = set(config) - set(self.defaults) - {"config"}
        if unknown:
            self.parser.error(f"unknown config key(s): {', '.join(sorted(unknown))}")
        resolved: dict[str, object] = {}
        for dest, default in self.defaults.items():
            if values.get(dest) is not _SENTINEL:
                resolved[dest] = values[dest]
            elif dest in config:
                typ = self.types.get(dest)
                try:
                    v = config[dest]
                    if typ is bool and not isinstance(v, bool):
                        raise ValueError(f"expected true/false for {dest}, got {v!r}")
                    resolved[dest] = typ(v) if typ not in (None, bool) else v
                except (TypeError, ValueError) as e:
                    self.parser.error(f"config key {dest}: {e}")
            else:
                resolved[dest] = default
        for key, value in values.items():
            if key not in resolved and not key.startswith("_") and key != "config":
                resolved[key] = value  # positionals
        return resolved


def _dataset_opts(cmd: _Cmd) -> None:
    cmd.opt("--images", default=None, type=str, help="IDX image file (with --labels)")
    cmd.opt("--labels", default=None, type=str, help="IDX label file (with --images)")
    cmd.opt("--synth-kind", default="blobs", type=str, choices=["blobs", "digits"],
            help="synthetic data family")
    cmd.opt("--synth-k", default=3, type=int, help="synthetic data: classes")
    cmd.opt("--synth-d", default=16, type=int, help="synthetic data: input dim")
    cmd.opt("--synth-m", default=1200, type=int, help="synthetic data: examples")
    cmd.opt("--synth-spread", default=0.08, type=float, help="synthetic data: cluster spread (blobs)")
    cmd.opt("--synth-seed", default=1, type=int, help="synthetic data: seed")
    cmd.opt("--max-samples", default=0, type=int, help="cap on examples used (0 = all)")


def _load_dataset(cfg: dict) -> data.Dataset:
    if cfg.get("images") or cfg.get("labels"):
        if not (cfg.get("images") and cfg.get("labels")):
            raise ValueError("--images and --labels must be supplied together")
        ds = data.load_idx(cfg["images"], cfg["labels"])
    else:
        kind = cfg.get("synth_kind", "blobs")
        if kind == "blobs":
            ds = data.synth_blobs(cfg["synth_k"], cfg["synth_d"], cfg["synth_m"],
                                  cfg["synth_spread"], cfg["synth_seed"])
        elif kind == "digits":
            ds = data.synth_digits(cfg["synth_k"], cfg["synth_d"], cfg["synth_m"],
                                   cfg["synth_seed"])
        else:
            raise ValueError(f"unknown --synth-kind {kind!r} (expected 'blobs' or 'digits')")
    if cfg.get("max_samples", 0) > 0:
        ds = ds.subset(0, cfg["max_samples"])
    return ds


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_config(out: Path, command: str, cfg: dict) -> None:
    payload = {"command": command}
    payload.update({k: v for k, v in cfg.items() if not k.startswith("_")})
    (out / "config.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _env_seed() -> int:
    return int(os.environ.get("SMOOTHCERT_SEED", "0"))


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
    (out / "spectral.json").write_text(
        spectral.spectral_report(model).to_json() + "\n", encoding="utf-8")
    _write_config(out, "train", cfg)
    last = metrics[-1]
    print(f"trained {len(metrics)} epochs: loss {last.loss:.4f}, "
          f"train acc {last.train_acc:.4f}, regularizer {last.reg_value:.4f}")
    return 0


def _cmd_sigma(cfg: dict) -> int:
    ds = _load_dataset(cfg)
    out = _out_dir(cfg)
    model, _ = data.load_checkpoint(cfg["checkpoint"])
    X = data.augment(ds.inputs)
    sc = SigmaSearchConfig(
        grid_start=cfg["grid_start"], grid_stop=cfg["grid_stop"], grid_step=cfg["grid_step"],
        n_samples=cfg["samples"], tolerance=cfg["tolerance"], eval_subset=cfg["eval_subset"],
        base_seed=cfg["seed"], full_scan=bool(cfg["full_scan"]),
    )
    result = select_sigma(model, X, ds.labels, sc)
    (out / "sigma.json").write_text(json.dumps({
        "sigma2": result.sigma2,
        "flagged_none_qualified": result.flagged_none_qualified,
        "base_accuracy": result.base_accuracy,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_csv(out / "trace.csv", TRACE_HEADER, result.trace)
    _write_config(out, "sigma", cfg)
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
    ds = _load_dataset(cfg)
    out = _out_dir(cfg)
    model, _ = data.load_checkpoint(cfg["checkpoint"])
    X = data.augment(ds.inputs)
    if X.shape[1] != model.in_dim:
        raise ValueError(
            f"dataset dim {X.shape[1]} (bias-augmented) != model input dim {model.in_dim}")
    if cfg["sigma2"] <= 0.0:
        raise ValueError("--sigma2 must be positive")
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
    _write_config(out, "certify", cfg)
    n_abstain = predicted.count(ABSTAIN)
    print(f"certified {ds.m} samples: accuracy at r=0 is {accs[0]:.4f}, "
          f"{n_abstain} abstentions")
    return 0


def _cmd_bound(cfg: dict) -> int:
    ds = _load_dataset(cfg)
    out = _out_dir(cfg)
    model, _ = data.load_checkpoint(cfg["checkpoint"])
    X = data.augment(ds.inputs)
    if X.shape[1] != model.in_dim:
        raise ValueError(
            f"dataset dim {X.shape[1]} (bias-augmented) != model input dim {model.in_dim}")
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
    (out / "bound.json").write_text(bound.to_json() + "\n", encoding="utf-8")
    (out / "spectral.json").write_text(report.to_json() + "\n", encoding="utf-8")
    _write_config(out, "bound", cfg)
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
    out = _out_dir(cfg)
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
            pts = [(float(row["radius"]), float(row["accuracy"])) for row in reader]
        if not pts:
            raise ValueError(f"{curve_path} has no rows")
        runs[name] = sorted(pts)
        extras[name] = {}
        for extra in ("sigma.json", "spectral.json"):
            p = path / extra
            if p.exists():
                extras[name][extra] = json.loads(p.read_text(encoding="utf-8"))

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
    _write_config(out, "report", cfg)
    print(f"merged {len(runs)} runs over {len(union)} radius grid points")
    return 0


# ----------------------------------------------------------------- main ---


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothcert",
        description="Train, certify, and bound noise-smoothed majority-vote MLP classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    env_seed = _env_seed()

    t = _Cmd(sub, "train", "train an MLP under input noise, optionally regularized")
    _dataset_opts(t)
    t.opt("--out", default=None, type=str, help="output directory (required)")
    t.opt("--hidden", default="32,32,32", type=str, help="comma-separated hidden widths")
    t.opt("--epochs", default=30, type=int, help="training epochs")
    t.opt("--batch-size", default=256, type=int, help="minibatch size")
    t.opt("--lr", default=0.1, type=float, help="initial learning rate")
    t.opt("--lr-drops", default="10:10,20:10", type=str,
          help="epoch:divisor pairs, e.g. 10:10,20:10")
    t.opt("--momentum", default=0.9, type=float, help="SGD momentum")
    t.opt("--weight-decay", default=0.0, type=float, help="L2 weight decay")
    t.opt("--noise-variance", default=0.12, type=float, help="training input-noise variance")
    t.opt("--alpha", default=0.0, type=float, help="decorrelation regularizer strength")
    t.opt("--seed", default=env_seed, type=int, help="base seed (env SMOOTHCERT_SEED fallback)")
    t.parser.set_defaults(_run=_cmd_train)

    s = _Cmd(sub, "sigma", "search the largest weight-noise variance the model tolerates")
    _dataset_opts(s)
    s.opt("--checkpoint", default=None, type=str, help="model checkpoint (required)")
    s.opt("--out", default=None, type=str, help="output directory (required)")
    s.opt("--grid-start", default=0.01, type=float, help="variance grid start")
    s.opt("--grid-stop", default=1.00, type=float, help="variance grid stop")
    s.opt("--grid-step", default=0.01, type=float, help="variance grid step")
    s.opt("--samples", default=50, type=int, help="weight perturbations per grid point")
    s.opt("--tolerance", default=0.02, type=float, help="max mean accuracy drop")
    s.opt("--eval-subset", default=2048, type=int, help="evaluation subset size")
    s.opt("--full-scan", default=False, action="store_true",
          help="scan the whole grid instead of stopping at the first violation")
    s.opt("--seed", default=env_seed, type=int, help="base seed (env SMOOTHCERT_SEED fallback)")
    s.parser.set_defaults(_run=_cmd_sigma)

    c = _Cmd(sub, "certify", "certify per-sample L2 radii by Monte-Carlo voting")
    _dataset_opts(c)
    c.opt("--checkpoint", default=None, type=str, help="model checkpoint (required)")
    c.opt("--out", default=None, type=str, help="output directory (required)")
    c.opt("--sigma2", default=None, type=float, help="noise variance (required)")
    c.opt("--sigma-weight2", default=None, type=float,
          help="weight-noise variance (defaults to --sigma2)")
    c.opt("--n0", default=100, type=int, help="selection votes per sample")
    c.opt("--n", default=100000, type=int, help="estimation votes per sample")
    c.opt("--alpha", default=0.001, type=float, help="confidence bound failure probability")
    c.opt("--workers", default=1, type=int, help="parallel certification workers")
    c.opt("--radius-max", default=2.0, type=float, help="curve grid maximum radius")
    c.opt("--radius-step", default=0.01, type=float, help="curve grid step")
    c.opt("--seed", default=env_seed, type=int, help="base seed (env SMOOTHCERT_SEED fallback)")
    c.parser.set_defaults(_run=_cmd_certify)

    b = _Cmd(sub, "bound", "evaluate the generalization bound for a checkpoint")
    _dataset_opts(b)
    b.opt("--checkpoint", default=None, type=str, help="model checkpoint (required)")
    b.opt("--out", default=None, type=str, help="output directory (required)")
    b.opt("--gamma", default=None, type=float, help="margin (required, > 0)")
    b.opt("--delta", default=0.05, type=float, help="confidence level")
    b.opt("--h", default=0, type=int, help="hidden width override (0 = max hidden dim)")
    b.opt("--margin-votes", default=200, type=int, help="votes per example for the margin loss")
    b.opt("--margin-subset", default=1024, type=int, help="examples for the margin loss")
    b.opt("--empirical-loss", default=None, type=float,
          help="skip estimation and use this empirical margin loss")
    b.opt("--pa", default=None, type=float, help="vote probability lower bound (with --pb)")
    b.opt("--pb", default=None, type=float, help="runner-up upper bound (with --pa)")
    b.opt("--seed", default=env_seed, type=int, help="base seed (env SMOOTHCERT_SEED fallback)")
    b.parser.set_defaults(_run=_cmd_bound)

    r = _Cmd(sub, "report", "merge certification runs into one plot and table")
    r.positional("dirs", nargs="+", help="certify output directories")
    r.opt("--out", default=None, type=str, help="output directory (required)")
    r.parser.set_defaults(_run=_cmd_report)

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
    cmd: _Cmd = ns._cmd
    cfg = cmd.resolve(ns)
    for key in _REQUIRED[cmd.name]:
        if cfg.get(key) is None:
            cmd.parser.error(f"--{key.replace('_', '-')} is required "
                             f"(flag or config file)")
    if cmd.name == "certify" and not (0.0 < cfg["radius_step"] < math.inf
                                      and 0.0 <= cfg["radius_max"] < math.inf):
        cmd.parser.error("--radius-step must be positive and --radius-max non-negative, "
                         "both finite")
    if bool(cfg.get("images")) != bool(cfg.get("labels")):
        cmd.parser.error("--images and --labels must be supplied together")
    for key in ("images", "labels", "checkpoint"):
        val = cfg.get(key)
        if val and not Path(val).exists():
            cmd.parser.error(f"--{key}: no such file: {val}")
    try:
        return ns._run(cfg)
    except (ValueError, OSError, RuntimeError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
