"""End-to-end CLI runs on tiny synthetic problems.

Everything goes through cli.main(argv) in-process so exit codes and
stdout can be checked directly, and one trained checkpoint is shared
across the subcommand tests.
"""

import argparse
import csv
import json
import os
import shlex
import struct
import subprocess
import sys
import tempfile
import threading
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import with_weight, write_idx_pair
from smoothcert import cli, data, smoothing

# small enough that the whole module runs in a few seconds
DATA_FLAGS = ["--synth-k", "3", "--synth-d", "6", "--synth-m", "150",
              "--synth-spread", "0.05", "--synth-seed", "1"]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-train")
    rc = cli.main(["train", "--out", str(out), *DATA_FLAGS,
                   "--hidden", "8", "--epochs", "2", "--seed", "0"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(train_dir):
    return str(train_dir / "checkpoint.smcert")


def certify_args(checkpoint, out, **over):
    opts = {"sigma2": "0.05", "n0": "20", "n": "200", "alpha": "0.01",
            "max-samples": "12", "radius-max": "1.0", "radius-step": "0.25",
            "seed": "0"}
    opts.update(over)
    argv = ["certify", "--checkpoint", checkpoint, "--out", str(out), *DATA_FLAGS]
    for k, v in opts.items():
        argv += [f"--{k}", v]
    return argv


# ---------------------------------------------------------------- train ---


def test_train_writes_artifacts(train_dir):
    for name in ("checkpoint.smcert", "metrics.csv", "spectral.json", "config.json"):
        assert (train_dir / name).exists(), name
    rows = read_csv(train_dir / "metrics.csv")
    assert len(rows) == 2
    assert list(rows[0]) == cli.METRICS_HEADER
    assert [r["epoch"] for r in rows] == ["1", "2"]
    sp = json.loads((train_dir / "spectral.json").read_text())
    assert sp["gershgorin"] >= sp["collapsed_spectral"] ** 2 - 1e-9


def test_train_config_echo(train_dir):
    cfg = json.loads((train_dir / "config.json").read_text())
    assert cfg["command"] == "train"
    assert cfg["epochs"] == 2
    assert cfg["hidden"] == "8"
    assert cfg["momentum"] == 0.9  # untouched default is recorded too
    assert cfg["noise_variance"] == 0.12
    assert cfg["seed"] == 0


def test_train_checkpoint_meta(checkpoint):
    model, meta = data.load_checkpoint(checkpoint)
    assert model.dims == (7, 8, 3)  # 6 inputs + bias column
    assert meta["k"] == 3
    assert meta["input_dim_raw"] == 6
    assert meta["augmented"] is True
    assert meta["train_config"]["epochs"] == 2


def test_train_stdout(tmp_path, capsys):
    rc = cli.main(["train", "--out", str(tmp_path / "t"), "--synth-k", "2",
                   "--synth-d", "4", "--synth-m", "60", "--hidden", "6",
                   "--epochs", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trained 1 epochs: loss" in out
    assert "regularizer" in out


def test_train_diverged_exits_1(tmp_path, capsys):
    out = tmp_path / "t"
    rc = cli.main(["train", "--out", str(out), *DATA_FLAGS, "--hidden", "8",
                   "--epochs", "2", "--lr", "1e300", "--seed", "0"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: training diverged")
    assert not out.exists()


def test_train_diverged_prints_one_error_line(tmp_path):
    # numpy's overflow warnings must not reach stderr ahead of the error
    out = tmp_path / "t"
    res = subprocess.run([sys.executable, "-m", "smoothcert.cli", "train", "--out", str(out),
                          *DATA_FLAGS, "--hidden", "8", "--epochs", "2", "--lr", "1e300"],
                         capture_output=True, text=True)
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: training diverged"), res.stderr
    assert not out.exists()


def test_train_synth_digits(tmp_path):
    out = tmp_path / "dig"
    rc = cli.main(["train", "--out", str(out), "--synth-kind", "digits",
                   "--synth-k", "2", "--synth-d", "25", "--synth-m", "60",
                   "--hidden", "6", "--epochs", "1"])
    assert rc == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["synth_kind"] == "digits"
    _, meta = data.load_checkpoint(out / "checkpoint.smcert")
    assert meta["input_dim_raw"] == 25
    assert meta["dataset"] == "synth-digits"


# ---------------------------------------------------------------- sigma ---


def test_sigma_cmd(checkpoint, tmp_path, capsys):
    out = tmp_path / "sig"
    rc = cli.main(["sigma", "--checkpoint", checkpoint, "--out", str(out),
                   *DATA_FLAGS, "--grid-start", "0.02", "--grid-stop", "0.06",
                   "--grid-step", "0.02", "--samples", "4",
                   "--eval-subset", "64", "--seed", "0"])
    assert rc == 0
    sig = json.loads((out / "sigma.json").read_text())
    assert set(sig) == {"sigma2", "flagged_none_qualified", "base_accuracy"}
    assert any(abs(sig["sigma2"] - g) < 1e-12 for g in (0.02, 0.04, 0.06))
    rows = read_csv(out / "trace.csv")
    assert list(rows[0]) == cli.TRACE_HEADER
    assert 1 <= len(rows) <= 3
    assert "selected sigma2 = " in capsys.readouterr().out


def test_sigma_flagged_when_nothing_qualifies(checkpoint, tmp_path, capsys):
    # sigma_w^2 = 2.0 wrecks an 8-unit net; with a 1% tolerance no grid
    # point survives, so the search flags and falls back to the grid minimum
    out = tmp_path / "sig"
    rc = cli.main(["sigma", "--checkpoint", checkpoint, "--out", str(out),
                   *DATA_FLAGS, "--grid-start", "2.0", "--grid-stop", "2.1",
                   "--grid-step", "0.05", "--tolerance", "0.01",
                   "--samples", "4", "--eval-subset", "64", "--seed", "0"])
    assert rc == 0
    sig = json.loads((out / "sigma.json").read_text())
    assert sig["flagged_none_qualified"] is True
    assert sig["sigma2"] == 2.0
    assert "flagged" in capsys.readouterr().out


def test_sigma_failure_leaves_no_out(checkpoint, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ValueError("search failed")

    monkeypatch.setattr(cli, "select_sigma", fail)
    out = tmp_path / "sig"
    assert cli.main(["sigma", "--checkpoint", checkpoint, "--out", str(out), *DATA_FLAGS]) == 1
    assert capsys.readouterr().err == "error: search failed\n"
    assert not out.exists()


# -------------------------------------------------------------- certify ---


def test_certify_artifacts(checkpoint, tmp_path, capsys):
    out = tmp_path / "c1"
    rc = cli.main(certify_args(checkpoint, out))
    assert rc == 0
    assert "certified 12 samples" in capsys.readouterr().out

    rows = read_csv(out / "samples.csv")
    assert len(rows) == 12
    assert list(rows[0]) == cli.SAMPLES_HEADER
    for r in rows:
        if r["abstain"] == "1":
            assert r["predicted"] == "-1" and float(r["radius"]) == 0.0
        else:
            assert float(r["pa_lower"]) > 0.5
            assert float(r["radius"]) > 0.0

    curve = read_csv(out / "curve.csv")
    assert [float(r["radius"]) for r in curve] == [0.0, 0.25, 0.5, 0.75, 1.0]
    accs = [float(r["accuracy"]) for r in curve]
    assert all(a >= b for a, b in zip(accs, accs[1:]))  # non-increasing
    ET.fromstring((out / "curve.svg").read_text())  # well-formed XML


def test_certify_rerun_identical_bytes(checkpoint, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(certify_args(checkpoint, a)) == 0
    assert cli.main(certify_args(checkpoint, b)) == 0
    for name in ("samples.csv", "curve.csv", "curve.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_certify_workers_deterministic(checkpoint, tmp_path):
    # the shared checkpoint's first layer (8 rows, 7 inputs) draws every input
    # coordinate; a 4-row first layer draws in its row space
    narrow = tmp_path / "narrow"
    assert cli.main(["train", "--out", str(narrow), *DATA_FLAGS,
                     "--hidden", "4", "--epochs", "2", "--seed", "0"]) == 0
    small = {"max-samples": "8", "n": "100"}
    for i, ckpt in enumerate((checkpoint, str(narrow / "checkpoint.smcert"))):
        a = tmp_path / f"w1-{i}"
        assert cli.main(certify_args(ckpt, a, **small)) == 0
        for workers in ("2", "3"):
            b = tmp_path / f"w{workers}-{i}"
            assert cli.main(certify_args(ckpt, b, workers=workers, **small)) == 0
            for name in ("samples.csv", "curve.csv", "curve.svg"):
                assert (a / name).read_bytes() == (b / name).read_bytes(), (workers, name)


def test_certify_workers_stop_at_a_failing_sample(checkpoint, tmp_path, monkeypatch, capsys):
    calls = []
    real = smoothing.certify

    def certify(*args, sample_index, **kwargs):
        calls.append(sample_index)
        if sample_index == 1:
            raise ValueError("sample 1 failed")
        return real(*args, sample_index=sample_index, **kwargs)

    monkeypatch.setattr(smoothing, "certify", certify)
    before = threading.active_count()
    argv = certify_args(checkpoint, tmp_path / "x", workers="2", **{"max-samples": "60"})
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: sample 1 failed"]
    # the pool stops taking samples, and joins its threads, once one fails
    assert 1 in calls and len(calls) < 60
    assert threading.active_count() == before


def test_certify_failure_leaves_no_out(checkpoint, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ValueError("certify failed")

    monkeypatch.setattr(smoothing, "certify", fail)
    out = tmp_path / "x"
    assert cli.main(certify_args(checkpoint, out)) == 1
    assert capsys.readouterr().err == "error: certify failed\n"
    assert not out.exists()


def test_certify_bad_sigma2_usage_error(checkpoint, tmp_path, capsys):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as e:
        cli.main(certify_args(checkpoint, out, sigma2="-1.0"))
    assert e.value.code == 2
    assert "--sigma2" in capsys.readouterr().err
    assert not out.exists()




def test_certify_missing_sigma2_usage_error(checkpoint, tmp_path):
    with pytest.raises(SystemExit) as e:
        cli.main(["certify", "--checkpoint", checkpoint,
                  "--out", str(tmp_path / "x"), *DATA_FLAGS])
    assert e.value.code == 2


@pytest.mark.parametrize("flags", [
    {"radius-step": "0"}, {"radius-step": "-0.25"}, {"radius-step": "nan"},
    {"radius-max": "-1.0"}, {"radius-max": "inf"}, {"radius-max": "nan"},
    # 1.0 / 1e-6 + 1 points is one over cli.MAX_RADII; 1e300 / 1e-300 overflows
    {"radius-step": "1e-6"}, {"radius-max": "1e300", "radius-step": "1e-300"},
], ids=lambda flags: "-".join(f"{k}-{v}" for k, v in flags.items()))
def test_certify_bad_radius_grid_usage_error(checkpoint, tmp_path, flags):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as e:
        cli.main(certify_args(checkpoint, out, **flags))
    assert e.value.code == 2
    assert not (out / "samples.csv").exists()


def test_certify_non_finite_checkpoint_exits_1(checkpoint, tmp_path, capsys):
    bad = tmp_path / "bad.smcert"
    bad.write_bytes(with_weight(Path(checkpoint).read_bytes(), 0, float("nan")))
    out = tmp_path / "x"
    assert cli.main(certify_args(str(bad), out)) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "samples.csv").exists()


def test_certify_oversized_checkpoint_header_exits_1(checkpoint, tmp_path, capsys):
    # the header promises 8 TiB of weights; the loader must refuse before
    # allocating them, and the CLI must report it as a runtime error
    header = json.dumps({"version": data.CHECKPOINT_VERSION,
                         "dims": [2**20, 2**20], "meta": {}}).encode()
    bad = tmp_path / "huge.smcert"
    bad.write_bytes(data.CHECKPOINT_MAGIC + struct.pack("<I", len(header))
                    + header + bytes(64))
    out = tmp_path / "x"
    assert cli.main(certify_args(str(bad), out)) == 1
    assert "error: truncated checkpoint" in capsys.readouterr().err
    assert not (out / "samples.csv").exists()


# ---------------------------------------------------------------- bound ---


def test_bound_cmd(checkpoint, tmp_path, capsys):
    out = tmp_path / "b"
    rc = cli.main(["bound", "--checkpoint", checkpoint, "--out", str(out),
                   *DATA_FLAGS, "--gamma", "0.5", "--margin-votes", "8",
                   "--margin-subset", "32", "--seed", "0"])
    assert rc == 0
    assert "bound = " in capsys.readouterr().out
    rep = json.loads((out / "bound.json").read_text())
    assert set(rep) == {"tau", "psi", "phi", "kl_term", "empirical_margin_loss",
                        "bound_value", "vacuous", "eps_x", "inputs"}
    assert rep["inputs"]["gamma"] == 0.5
    assert rep["inputs"]["m"] == 150
    assert rep["inputs"]["n"] == 2
    assert rep["inputs"]["h"] == 8
    assert rep["inputs"]["d"] == 7
    assert rep["psi"] > 0.0
    assert 0.0 <= rep["empirical_margin_loss"] <= 1.0
    assert rep["eps_x"] is None
    assert isinstance(rep["vacuous"], bool)
    assert (out / "spectral.json").exists()


def test_bound_explicit_loss_and_eps_x(checkpoint, tmp_path):
    out = tmp_path / "b"
    rc = cli.main(["bound", "--checkpoint", checkpoint, "--out", str(out),
                   *DATA_FLAGS, "--gamma", "0.5", "--empirical-loss", "0.1",
                   "--pa", "0.9", "--pb", "0.05"])
    assert rc == 0
    rep = json.loads((out / "bound.json").read_text())
    assert rep["empirical_margin_loss"] == 0.1
    assert rep["eps_x"] > 0.0


def test_bound_gamma_zero_usage_error(checkpoint, tmp_path, capsys):
    out = tmp_path / "b"
    with pytest.raises(SystemExit) as e:
        cli.main(["bound", "--checkpoint", checkpoint,
                  "--out", str(out), *DATA_FLAGS, "--gamma", "0.0"])
    assert e.value.code == 2
    assert "--gamma" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("loss_flags", [[], ["--empirical-loss", "0.1"]])
def test_bound_psi_underflow_exits_1(checkpoint, tmp_path, capsys, loss_flags):
    # gamma 1e-200 underflows psi to 0: the margin loss and the KL term
    # are both undefined, so an explicit loss changes nothing
    out = tmp_path / "b"
    rc = cli.main(["bound", "--checkpoint", checkpoint, "--out", str(out),
                   *DATA_FLAGS, "--gamma", "1e-200", *loss_flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: psi evaluated to 0; KL and bound are undefined\n"
    assert not out.exists()


def test_bound_scaled_layer_moves_psi_and_phi(checkpoint, tmp_path):
    # doubling one layer raises every spectral norm bound psi sees, so psi
    # shrinks while the Frobenius/spectral mix in phi grows
    model, meta = data.load_checkpoint(checkpoint)
    scaled = type(model)(layers=tuple(
        w * (2.0 if i == 0 else 1.0) for i, w in enumerate(model.layers)))
    ck2 = tmp_path / "scaled.smcert"
    data.save_checkpoint(ck2, scaled, meta)
    outs = []
    for name, ck in (("base", checkpoint), ("scaled", str(ck2))):
        out = tmp_path / name
        rc = cli.main(["bound", "--checkpoint", ck, "--out", str(out),
                       *DATA_FLAGS, "--gamma", "0.5", "--empirical-loss", "0.0"])
        assert rc == 0
        outs.append(json.loads((out / "bound.json").read_text()))
    base, scaled_rep = outs
    assert scaled_rep["psi"] < base["psi"]
    assert scaled_rep["phi"] > base["phi"]


# --------------------------------------------------------------- report ---


@pytest.fixture(scope="module")
def cert_pair(checkpoint, train_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-report")
    dirs = []
    for name, s2 in (("lo", "0.05"), ("hi", "0.3")):
        out = root / name
        rc = cli.main(certify_args(checkpoint, out, sigma2=s2,
                                   **{"max-samples": "10", "n": "150",
                                      "radius-step": "0.5"}))
        assert rc == 0
        # a full run directory also carries the spectral/sigma summaries
        (out / "spectral.json").write_text((train_dir / "spectral.json").read_text())
        dirs.append(out)
    (dirs[0] / "sigma.json").write_text(json.dumps(
        {"sigma2": 0.05, "flagged_none_qualified": False, "base_accuracy": 1.0}))
    return dirs


def test_report_merges_runs(cert_pair, tmp_path, capsys):
    out = tmp_path / "rep"
    rc = cli.main(["report", *(str(d) for d in cert_pair), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "merged 2 runs" in captured.out
    assert "re-interpolated" not in captured.err  # same grid, no note

    rows = read_csv(out / "combined_curves.csv")
    assert list(rows[0]) == ["run"] + cli.CURVE_HEADER
    assert len(rows) == 2 * 3  # two runs on the 0/0.5/1.0 grid
    assert {r["run"] for r in rows} == {"lo", "hi"}
    ET.fromstring((out / "combined_curves.svg").read_text())

    trends = read_csv(out / "spectral_trends.csv")
    assert len(trends) == 2
    lo = next(r for r in trends if r["run"] == "lo")
    hi = next(r for r in trends if r["run"] == "hi")
    assert float(lo["sigma2"]) == 0.05
    assert hi["sigma2"] == ""  # no sigma.json in that run dir


def test_report_single_input_passthrough(cert_pair, tmp_path):
    src = cert_pair[0]
    out = tmp_path / "rep"
    assert cli.main(["report", str(src), "--out", str(out)]) == 0
    merged = read_csv(out / "combined_curves.csv")
    orig = read_csv(src / "curve.csv")
    assert len(merged) == len(orig)
    for mr, orow in zip(merged, orig):
        assert mr["run"] == "lo"
        assert float(mr["radius"]) == float(orow["radius"])
        assert float(mr["accuracy"]) == float(orow["accuracy"])


def test_report_mismatched_grids_note(tmp_path, capsys):
    for name, rows in (("a", [(0.0, 1.0), (1.0, 0.5)]),
                       ("b", [(0.0, 0.8), (0.5, 0.6), (1.0, 0.1)])):
        d = tmp_path / name
        d.mkdir()
        lines = ["radius,accuracy"] + [f"{r},{a}" for r, a in rows]
        (d / "curve.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "rep"
    rc = cli.main(["report", str(tmp_path / "a"), str(tmp_path / "b"),
                   "--out", str(out)])
    assert rc == 0
    assert "re-interpolated" in capsys.readouterr().err
    merged = read_csv(out / "combined_curves.csv")
    a_at_half = next(r for r in merged
                     if r["run"] == "a" and float(r["radius"]) == 0.5)
    assert float(a_at_half["accuracy"]) == 1.0  # right-continuous step


def test_report_empty_dir_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = cli.main(["report", str(empty), "--out", str(tmp_path / "rep")])
    assert rc == 1
    assert "curve.csv" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("text, message", [
    ("r,acc\n0.0,1.0\n", "needs the columns radius, accuracy"),
    ("accuracy\n1.0\n", "needs the columns radius, accuracy"),
    ("radius,accuracy\n0.0,1.0\n0.5\n", "line 3 is short"),
    ("radius,accuracy\n0.0,one\n", "could not convert"),
    ("radius,accuracy\nnan,0.5\n", "line 2 is not finite"),
    ("radius,accuracy\n0.0,1.0\n0.2,inf\n", "line 3 is not finite"),
    ("radius,accuracy\n-inf,1.0\n", "line 2 is not finite"),
    ("radius,accuracy\n-1.0,0.5\n", "line 2 needs a radius >= 0"),
    ("radius,accuracy\n0.0,1.0\n0.5,5.0\n", "line 3 needs a radius >= 0 and an accuracy in [0, 1]"),
])
def test_report_malformed_curve_exits_1(tmp_path, capsys, text, message):
    # every input is read before --out is made: the good first run must not
    # leave an output directory behind when the second one is malformed
    good, bad = tmp_path / "good", tmp_path / "bad"
    for d, body in ((good, "radius,accuracy\n0.0,1.0\n"), (bad, text)):
        d.mkdir()
        (d / "curve.csv").write_text(body)
    out = tmp_path / "rep"
    assert cli.main(["report", str(good), str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("extra, body, message", [
    ("spectral.json", '{"collapsed_spectral": 1.0}', "must be a number"),
    ("spectral.json", "[1, 2]", "must hold a JSON object"),
    ("spectral.json", '{"collapsed_spectral": 1.0, "product_spectral": 1.0, '
                      '"gershgorin": 1.0, "cosine_matrix": [1, 2]}', "cosine_matrix"),
    ("spectral.json", '{"collapsed_spectral": "big", "product_spectral": 1.0, '
                      '"gershgorin": 1.0, "cosine_matrix": [[1.0]]}', "collapsed_spectral"),
    ("spectral.json", "{", "Expecting"),
    ("sigma.json", '"0.1"', "must hold a JSON object"),
    ("sigma.json", '{"sigma2": [0.1]}', "sigma2 must be a number"),
])
def test_report_malformed_extra_exits_1(tmp_path, capsys, extra, body, message):
    good, bad = tmp_path / "good", tmp_path / "bad"
    for d in (good, bad):
        d.mkdir()
        (d / "curve.csv").write_text("radius,accuracy\n0.0,1.0\n")
    (bad / extra).write_text(body)
    out = tmp_path / "rep"
    assert cli.main(["report", str(good), str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and extra in err
    assert not out.exists()


def test_report_rejects_runs_sharing_a_name(tmp_path, capsys):
    # runs are keyed by basename, so a/run and b/run would merge into one
    a, b = tmp_path / "a" / "run", tmp_path / "b" / "run"
    for d in (a, b):
        d.mkdir(parents=True)
        (d / "curve.csv").write_text("radius,accuracy\n0.0,1.0\n")
    out = tmp_path / "rep"
    with pytest.raises(SystemExit) as e:
        cli.main(["report", str(a), str(b), "--out", str(out)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert str(a) in err and str(b) in err
    assert not out.exists()


# ------------------------------------------------ flags, config, errors ---


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--no-such-flag"])
    assert e.value.code == 2


def test_missing_out_usage_error():
    with pytest.raises(SystemExit) as e:
        cli.main(["train"])
    assert e.value.code == 2


def test_missing_dataset_path_usage_error(tmp_path):
    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--out", str(tmp_path / "t"),
                  "--images", str(tmp_path / "nope.idx"),
                  "--labels", str(tmp_path / "nope2.idx")])
    assert e.value.code == 2


def test_images_without_labels_usage_error(tmp_path):
    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--out", str(tmp_path / "t"),
                  "--images", str(tmp_path / "nope.idx")])
    assert e.value.code == 2


def test_missing_checkpoint_usage_error(tmp_path):
    with pytest.raises(SystemExit) as e:
        cli.main(["sigma", "--checkpoint", str(tmp_path / "nope.smcert"),
                  "--out", str(tmp_path / "s")])
    assert e.value.code == 2


def test_bad_synth_kind_usage_error(tmp_path):
    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--out", str(tmp_path / "t"), "--synth-kind", "bogus"])
    assert e.value.code == 2


def test_config_file_precedence(tmp_path):
    out = tmp_path / "run"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# tiny training run\n"
        "epochs = 3\n"
        'hidden = "6"\n'
        "synth-k = 2\n"
        "synth-d = 5\n"
        "synth-m = 80\n"
        f'out = "{out}"\n'
    )
    rc = cli.main(["train", "--config", str(cfg_file), "--epochs", "1"])
    assert rc == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["epochs"] == 1        # flag beats file
    assert cfg["hidden"] == "6"      # file beats default
    assert cfg["synth_m"] == 80      # dashed key normalized
    assert cfg["momentum"] == 0.9    # untouched default
    assert len(read_csv(out / "metrics.csv")) == 1


def test_config_unknown_key_usage_error(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("bogus = 1\n")
    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "t")])
    assert e.value.code == 2


def test_config_bad_value_usage_error(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text('epochs = "three"\n')
    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "t")])
    assert e.value.code == 2


def test_config_bad_value_usage_error_under_overriding_flag(tmp_path):
    # the file is parsed as flags, so its bad value is rejected even though
    # the command line's --epochs wins
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("epochs = 0\n")
    out = tmp_path / "t"
    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--config", str(cfg_file), "--out", str(out), *DATA_FLAGS,
                  "--hidden", "4", "--epochs", "1"])
    assert e.value.code == 2
    assert not out.exists()


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SMOOTHCERT_SEED", "123")
    out = tmp_path / "env"
    rc = cli.main(["train", "--out", str(out), "--synth-k", "2", "--synth-d", "4",
                   "--synth-m", "60", "--hidden", "4", "--epochs", "1"])
    assert rc == 0
    assert json.loads((out / "config.json").read_text())["seed"] == 123

    out2 = tmp_path / "flag"
    rc = cli.main(["train", "--out", str(out2), "--synth-k", "2", "--synth-d", "4",
                   "--synth-m", "60", "--hidden", "4", "--epochs", "1",
                   "--seed", "5"])
    assert rc == 0
    assert json.loads((out2 / "config.json").read_text())["seed"] == 5


def test_module_entry_point_help():
    res = subprocess.run([sys.executable, "-m", "smoothcert.cli", "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    for sub in ("train", "sigma", "certify", "bound", "report"):
        assert sub in res.stdout

    res = subprocess.run([sys.executable, "-m", "smoothcert.cli", "train", "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    # every flag is listed with its default
    for token in ("--noise-variance", "0.12", "--momentum", "0.9",
                  "--batch-size", "256"):
        assert token in res.stdout


# ------------------------------------------ value checks before any work ---


def _valid_argv(command, checkpoint, out):
    """A valid, cheap invocation of ``command``."""
    if command == "certify":
        return certify_args(checkpoint, out)
    return {
        "train": ["train", *DATA_FLAGS, "--hidden", "4", "--epochs", "1"],
        "sigma": ["sigma", "--checkpoint", checkpoint, *DATA_FLAGS, "--grid-stop", "0.02",
                  "--samples", "2", "--eval-subset", "16"],
        "bound": ["bound", "--checkpoint", checkpoint, *DATA_FLAGS, "--gamma", "0.5",
                  "--margin-votes", "4", "--margin-subset", "8"],
    }[command] + ["--out", str(out)]


_DATASET_BAD = [("synth-k", "0"), ("synth-d", "-1"), ("synth-m", "0"),
                ("synth-spread", "-0.1"), ("synth-spread", "inf"), ("synth-seed", "-1"),
                ("max-samples", "-5"), ("seed", "-1")]
_BAD_VALUES = [(cmd, flag, value) for cmd in ("train", "sigma", "certify", "bound")
               for flag, value in _DATASET_BAD] + [
    ("train", "hidden", "8,0"), ("train", "epochs", "0"), ("train", "batch-size", "0"),
    ("train", "lr", "0"), ("train", "lr", "nan"), ("train", "lr-drops", "0:10"),
    ("train", "lr-drops", "10:0"), ("train", "momentum", "1.0"), ("train", "momentum", "-0.1"),
    ("train", "weight-decay", "-1e-4"), ("train", "noise-variance", "-0.12"),
    ("train", "alpha", "-0.1"),
    ("sigma", "grid-start", "0"), ("sigma", "grid-stop", "-1"), ("sigma", "grid-step", "0"),
    ("sigma", "samples", "0"), ("sigma", "tolerance", "-0.01"), ("sigma", "eval-subset", "0"),
    ("certify", "sigma2", "nan"), ("certify", "sigma2", "0"), ("certify", "sigma-weight2", "-0.01"),
    ("certify", "n0", "0"), ("certify", "n", "0"), ("certify", "alpha", "1.5"),
    ("certify", "alpha", "0"), ("certify", "workers", "-3"), ("certify", "workers", "0"),
    ("certify", "radius-max", "-1"), ("certify", "radius-step", "0"),
    ("bound", "gamma", "0"), ("bound", "delta", "1"),
    ("bound", "margin-votes", "0"), ("bound", "margin-subset", "0"),
    ("bound", "empirical-loss", "1.5"), ("bound", "pa", "-0.1"), ("bound", "pb", "2"),
    # relations between options (the valid sigma argv has --grid-stop 0.02);
    # a value holding spaces is several argv words
    ("sigma", "grid-start", "0.5"), ("bound", "pa", "0.2 --pb 0.6"), ("bound", "pa", "0.5"),
    ("bound", "pb", "0.5"),
]


def _subcommands():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_bad_value_table_covers_every_checked_option():
    not_numeric = {None, str, cli._SYNTH_KIND}
    for name, sub in _subcommands().items():
        checked = {a.option_strings[0][2:] for a in sub._actions
                   if a.option_strings and a.type not in not_numeric}
        tabled = {flag for cmd, flag, _ in _BAD_VALUES if cmd == name}
        assert checked == tabled, name


@pytest.mark.parametrize("command,flag,value", _BAD_VALUES)
def test_out_of_range_value_usage_error(checkpoint, tmp_path, capsys, command, flag, value):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as e:
        cli.main([*_valid_argv(command, checkpoint, out), f"--{flag}", *value.split(" ")])
    assert e.value.code == 2
    assert f"--{flag}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_env_seed_usage_error(tmp_path, monkeypatch):
    monkeypatch.setenv("SMOOTHCERT_SEED", "abc")
    out = tmp_path / "t"
    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--out", str(out), *DATA_FLAGS, "--epochs", "1"])
    assert e.value.code == 2
    assert not out.exists()
    # an explicit --seed never consults the environment
    assert cli.main(["train", "--out", str(out), *DATA_FLAGS, "--hidden", "4",
                     "--epochs", "1", "--seed", "1"]) == 0
    for argv in (["--help"], ["train", "--help"]):
        res = subprocess.run([sys.executable, "-m", "smoothcert.cli", *argv],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr


# ------------------------------------------- malformed or empty data files ---


@pytest.mark.parametrize("command", ["train", "sigma", "certify", "bound"])
def test_empty_idx_dataset_exits_1(checkpoint, tmp_path, capsys, command):
    img, lab = write_idx_pair(tmp_path, np.zeros((0, 36), np.uint8), [], 6, 6)
    out = tmp_path / "x"
    argv = _valid_argv(command, checkpoint, out) + ["--images", str(img), "--labels", str(lab)]
    assert cli.main(argv) == 1
    assert "error: empty IDX images" in capsys.readouterr().err
    assert not out.exists()  # no checkpoint.smcert, sigma.json or samples.csv


@pytest.mark.parametrize("command", ["sigma", "certify", "bound"])
def test_dim_mismatch_exits_1(checkpoint, tmp_path, capsys, command):
    # the checkpoint takes 6 inputs plus the bias coordinate; the message
    # gives both dims bias-augmented
    out = tmp_path / "x"
    argv = _valid_argv(command, checkpoint, out)
    argv[argv.index("--synth-d") + 1] = "9"
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: input dim 10 != model input dim 7\n"
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("sigma", []), ("certify", []), ("bound", []),
    # no margin loss runs, so the CLI's check of the whole set is the only one
    ("bound", ["--empirical-loss", "0.1"]),
], ids=["sigma", "certify", "bound", "bound-empirical-loss"])
def test_labels_outside_the_model_classes_exit_1(checkpoint, tmp_path, capsys, command, extra):
    # the checkpoint has 3 classes; 5-class data of the same dim has labels 3 and 4
    out = tmp_path / "x"
    argv = _valid_argv(command, checkpoint, out) + extra
    argv[argv.index("--synth-k") + 1] = "5"
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: label 4 is not a class of the model: labels must lie in [0, 3)")
    assert not out.exists()


def test_certify_non_object_checkpoint_header_exits_1(tmp_path, capsys):
    header = json.dumps([1, 2]).encode()
    bad = tmp_path / "list.smcert"
    bad.write_bytes(data.CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header)
    out = tmp_path / "x"
    assert cli.main(certify_args(str(bad), out)) == 1
    assert "error: corrupt checkpoint header" in capsys.readouterr().err
    assert not (out / "samples.csv").exists()


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


def _run_in(directory, argv, out):
    """Run argv with ``directory`` as the working directory; returns the exit
    code and the run's config.json without its ``config`` entry."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        code = _exit_code(argv)
        cfg_path = Path(out) / "config.json"
        cfg = json.loads(cfg_path.read_text()) if code == 0 else None
    finally:
        os.chdir(cwd)
    if cfg is not None:
        cfg.pop("config")
    return code, cfg


_PROPERTY_KEYS = [(name, a.dest) for name, sub in _subcommands().items()
                  if name != "report"
                  for a in sub._actions if a.option_strings and a.nargs != 0
                  and a.dest not in ("help", "config")]
_TOKENS = ["0", "1", "2", "3", "-3", "0001", "0.5", "1.5", "1e-3", "nan", "inf", "-inf",
           "true", "false", "abc", "", "digits", "blobs", "4,4", "1:2"]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(option=st.sampled_from(_PROPERTY_KEYS), value=st.sampled_from(_TOKENS))
@example(option=("train", "epochs"), value="true")
@example(option=("train", "out"), value="0001")
@example(option=("train", "out"), value="-inf")
@example(option=("certify", "out"), value="-inf")
@example(option=("sigma", "grid_start"), value="0.5")
@example(option=("bound", "pa"), value="0.5")
def test_config_value_matches_flag(checkpoint, option, value):
    # ``--key V`` and a config line ``key = V`` exit alike and, on success,
    # resolve to the same configuration
    command, key = option
    flag = "--" + key.replace("_", "-")
    base = _valid_argv(command, checkpoint, "run")  # checkpoint is an absolute path
    if flag in base:
        i = base.index(flag)
        del base[i:i + 2]
    out = value if key == "out" else "run"
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        Path(b, "run.cfg").write_text(f"{key} = {value}\n", encoding="utf-8")
        by_flag = _run_in(a, [*base, flag, value], out)
        by_file = _run_in(b, [*base, "--config", "run.cfg"], out)
    assert by_flag == by_file


@pytest.mark.parametrize("value,flags", [("true", ["--full-scan"]), ("TRUE", ["--full-scan"]),
                                         ("false", []), ("False", [])])
def test_config_full_scan_matches_switch(checkpoint, value, flags):
    # the one switch: ``true`` stands for the bare flag, ``false`` for none
    base = _valid_argv("sigma", checkpoint, "run")
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        Path(b, "run.cfg").write_text(f"full_scan = {value}\n", encoding="utf-8")
        by_flag = _run_in(a, [*base, *flags], "run")
        by_file = _run_in(b, [*base, "--config", "run.cfg"], "run")
        assert (Path(a, "run", "trace.csv").read_bytes()
                == Path(b, "run", "trace.csv").read_bytes())
    assert by_flag == by_file
    assert by_flag[1]["full_scan"] is bool(flags)


def test_config_full_scan_rejects_other_text(checkpoint, tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# scan it all\nfull_scan = maybe\n")
    out = tmp_path / "s"
    with pytest.raises(SystemExit) as e:
        cli.main([*_valid_argv("sigma", checkpoint, out), "--config", str(cfg_file)])
    assert e.value.code == 2
    assert f"{cfg_file}:2" in capsys.readouterr().err
    assert not out.exists()


def test_readme_quickstart_commands_parse():
    # parse (never run) every command in the README's CLI quickstart, so a
    # renamed or removed flag in the docs fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI quickstart", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [c for c in commands if c]
    assert [c[1] for c in commands] == ["train", "sigma", "certify", "bound", "report"]
    parser = cli._build_parser()
    for c in commands:
        assert c[0] == "smoothcert"
        parser.parse_args(c[1:])
