"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import stats, workloads  # noqa: E402
from perfbench.spans import Span, Tracer, philox_position, philox_words, self_time  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n, percentile", [
    (1, 100.0), (19, 100.0), (20, 50.0), (40, 75.0), (88, 7800 / 88), (100, 90.0), (1000, 99.0),
])
def test_tail_picks_highest_percentile_with_ten_beyond(n, percentile):
    values = list(range(n, 0, -1))
    value, pct, count = stats.tail(values)
    assert (pct, count) == (percentile, n)
    if pct == 100.0:
        assert value == n
    else:
        assert sum(v > value for v in values) == stats.TAIL_BEYOND


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        stats.tail([])


@pytest.mark.parametrize("chunks", [[0], [1], [3], [4], [5], [3, 1], [3, 2], [4, 4], [1, 7, 9]])
def test_philox_words_counts_doubles_across_buffer_positions(chunks):
    g = np.random.Generator(np.random.Philox(7))
    drawn = 0
    for k in chunks:
        before = g.bit_generator.state
        g.random(k)  # one 64-bit word per double
        assert philox_words(before, g.bit_generator.state) == k
        drawn += k
    assert philox_position(g.bit_generator.state) == drawn


def test_philox_position_carries_across_counter_limbs():
    def state(counter, pos):
        return {"state": {"counter": np.array(counter, dtype=np.uint64)}, "buffer_pos": pos}

    top = 2**64 - 1
    assert philox_words(state([top, 0, 0, 0], 4), state([0, 1, 0, 0], 1)) == 1
    assert philox_position(state([0, 1, 0, 0], 4)) == 4 * 2**64


def test_self_time_subtracts_union_of_clipped_children():
    parent = Span(0, "p", 0.0, 10.0)
    kids = [Span(1, "a", 1.0, 3.0, 0), Span(2, "b", 2.0, 5.0, 0), Span(3, "c", 8.0, 12.0, 0)]
    assert self_time(parent, kids) == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_time(parent, []) == 10.0


def test_tracer_records_and_restores():
    import smoothcert
    from smoothcert import smoothing

    original = smoothing.certified_radius
    tr = Tracer()
    tr.install({"smoothing.certified_radius": None})
    try:
        assert smoothcert.certified_radius is not original
        smoothcert.certified_radius(0.9, 0.1, 1.0)
    finally:
        tr.uninstall()
    assert smoothing.certified_radius is original and smoothcert.certified_radius is original
    (span,) = tr.spans
    assert span.name == "smoothing.certified_radius" and span.end >= span.start


def test_metric_names_match_pattern_and_catalog():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(stats.METRIC_NAME.fullmatch(n) for n in names)
    assert not stats.METRIC_NAME.fullmatch("bad name")
    assert not stats.METRIC_NAME.fullmatch("_leading")
    run = workloads.Run(work=Path("unused"), seed=0, seconds=1.0, trace=True)
    layer = workloads.per_layer(run, "pass", (785, 32, 10), {"untraced": [], "traced": []})
    assert set(layer) == {m["name"] for m in BENCHMARK["per_layer"]} == set(stats.LAYER_TO_E2E)
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert {t for targets in stats.LAYER_TO_E2E.values() for t in targets} <= e2e


def test_reference_speed_scales_seconds_and_rates_only():
    metrics = {"a_s": (2.0, "s"), "r": (10.0, "1/s"), "n": (3, "count")}
    assert stats.at_reference_speed(metrics, 0.5) == {
        "a_s": (1.0, "s"), "r": (20.0, "1/s"), "n": (3, "count")}
