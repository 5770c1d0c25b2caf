"""Order statistics, metric naming and the per-layer -> end-to-end map."""

from __future__ import annotations

import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TAIL_BEYOND = 10

# Which end-to-end metrics each per-layer metric should move.  Later changes
# cite these names when they claim a gain.  The trace.* metrics describe the
# tracing itself.
LAYER_TO_E2E = {
    "smoothing.estimation_s": ("certify_votes_per_s",),
    "smoothing.votes": ("certify_votes_per_s",),
    "smoothing.rng_words_per_vote": ("certify_votes_per_s",),
    "smoothing.flops_per_vote": ("certify_votes_per_s",),
    "smoothing.selection_s": ("certify_sample_s_p50",),
    "smoothing.lower_conf_bound_s": ("certify_sample_s_p50",),
    "smoothing.certified_radius_s": ("certify_sample_s_p50",),
    "smoothing.abstain_frac": ("certified_acc_r0",),
    "smoothing.wasted_vote_frac": ("certified_acc_r0",),
    "smoothing.margin_loss_s": ("bound_s",),
    "smoothing.margin_examples_per_s": ("bound_s",),
    "rng.stream_calls": ("bound_s", "certify_sample_s_p50"),
    "rng.stream_s": ("bound_s", "certify_sample_s_p50"),
    "train.epoch_s": ("train_s",),
    "spectral.regularizer_s": ("train_s",),
    "sigma_select.grid_points": ("sigma_s",),
    "sigma_select.model_evals": ("sigma_s",),
    "sigma_select.eval_s": ("sigma_s",),
    "spectral.spectral_report_s": ("bound_s",),
    "bounds.evaluate_bound_s": ("bound_s",),
    "data.load_idx_s": ("pipeline_s",),
    "data.idx_bytes": ("pipeline_s",),
    "data.save_checkpoint_s": ("pipeline_s",),
    "data.load_checkpoint_s": ("pipeline_s",),
    "data.checkpoint_bytes": ("pipeline_s",),
    "plot.emit_plot_s": ("pipeline_s",),
    "cli.self_s": ("pipeline_s",),
    "trace.overhead_s": (),
    "trace.overhead_frac": (),
    "trace.spans": (),
}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, count) of the highest percentile that has
    ``TAIL_BEYOND`` samples beyond it: the (n - 10)-th smallest of n.

    With fewer than ``2 * TAIL_BEYOND`` samples that would lie below the
    median, so the maximum is returned as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, n


def at_reference_speed(metrics: dict, speed: float) -> dict:
    """Seconds times ``speed`` and rates over it; other units unchanged."""
    scale = {"s": speed, "1/s": 1.0 / speed}
    return {k: (v * scale.get(u, 1.0), u) for k, (v, u) in metrics.items()}
