"""Tests of the benchmark's own arithmetic and tracer.

    PYTHONPATH=src python3 -m pytest perfbench
"""
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import su2vol.algebra  # noqa: E402
import su2vol.balls  # noqa: E402
import su2vol.frames  # noqa: E402
from stats import (failed_fraction, percentile, quartile_spread,  # noqa: E402
                   self_times)
from tracer import Tracer  # noqa: E402
from worker import summarize  # noqa: E402
from workloads import Sweep, api, isotropic_ball_volume  # noqa: E402


def test_percentile_interpolates_between_order_statistics():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4], 90) == pytest.approx(3.7)
    assert percentile([1, 2, 3, 4], 0) == 1
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile([7.5], 90) == 7.5
    rng = np.random.default_rng(0)
    xs = list(rng.normal(size=101))
    for q in (10, 50, 90, 99):
        assert percentile(xs, q) == pytest.approx(np.percentile(xs, q))


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 10.1, 9.9, 10.4]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / med)


def test_failed_fraction():
    assert failed_fraction(700, 10) == pytest.approx(10 / 700)
    assert failed_fraction(5, 0) == 0.0
    with pytest.raises(ValueError):
        failed_fraction(0, 0)
    with pytest.raises(ValueError):
        failed_fraction(3, 4)


def test_self_times_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    own = self_times(start, end, parent)
    assert list(own) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert own.sum() == pytest.approx(10.0)


def test_summarize_counts_each_failed_op_once():
    ops = [{"ok": True, "failures": (), "ratios": (2.0, 4.0),
            "low_confidence": False},
           {"ok": False, "failures": ("inverted", "upper_2r_below_lower_r"),
            "ratios": (8.0,), "low_confidence": True},
           {"ok": False, "failures": ("upper_2r_below_lower_r",),
            "ratios": (), "low_confidence": True},
           {"ok": True, "failures": (), "ratios": (), "low_confidence": None}]
    s = summarize(ops)
    assert (s["attempted"], s["invalid"]) == (4, 2)
    assert s["failed_fraction"] == 0.5
    # the known defect alone does not count toward the result line's failed
    assert s["failed"] == 1
    assert s["failures"] == {"inverted": 1, "upper_2r_below_lower_r": 2}
    assert s["bracket_ratio_p50"] == 4.0
    assert s["bracket_decades_mean"] == pytest.approx(
        (math.log10(3.0) + math.log10(5.0) + math.log10(9.0)) / 3.0)
    assert s["low_confidence_fraction"] == pytest.approx(2 / 3)


def _row(lower_r, upper_r, lower_2r, upper_2r, flags=""):
    return {"lower_r": repr(lower_r), "upper_r": repr(upper_r),
            "lower_2r": repr(lower_2r), "upper_2r": repr(upper_2r),
            "flags": flags}


def test_sweep_cell_checks():
    ok = Sweep._check_cell(_row(1.0, 2.0, 3.0, 6.0, "r:low_confidence"))
    assert ok["ok"] and ok["ratios"] == (2.0, 2.0) and ok["low_confidence"]
    mono = Sweep._check_cell(_row(1.0, 2.0, 0.1, 0.5))
    assert mono["failures"] == ("upper_2r_below_lower_r",)
    flat = Sweep._check_cell(_row(1.0, 1.0, 3.0, 6.0))
    assert flat["failures"] == ("zero_width",)
    inverted = Sweep._check_cell(_row(2.0, 1.0, 3.0, 6.0))
    assert inverted["failures"] == ("inverted",)
    nan = float("nan")
    err = Sweep._check_cell(_row(nan, nan, nan, nan, "error:RuntimeError"))
    assert err["failures"] == ("error",) and err["ratios"] == ()


def test_isotropic_quadrature_flat_limit():
    # small balls approach the flat volume pi^3 r^6 / 6
    r = 1e-3
    assert isotropic_ball_volume(r) == pytest.approx(math.pi ** 3 * r ** 6
                                                     / 6.0, rel=1e-5)


def test_tracer_self_times_add_up():
    tr = Tracer()
    inner = tr.wrap("volumes.inner", lambda: time.sleep(0.002))

    def body():
        time.sleep(0.001)
        inner()
        inner()
    outer = tr.wrap("balls.outer", body)
    t0 = time.perf_counter()
    outer()
    inner()
    wall = time.perf_counter() - t0
    layers, consistent = tr.layer_metrics(wall)
    assert consistent
    assert layers["trace.spans"] == 4
    covered = layers["balls.self_s"] + layers["volumes.self_s"]
    assert covered == pytest.approx(wall - layers["trace.remainder_s"])
    assert layers["volumes.self_s"] >= 0.006
    assert 0.001 <= layers["balls.self_s"] < layers["volumes.self_s"]


def test_tracer_install_patches_callers_and_restores():
    originals = (su2vol.balls.mul, su2vol.frames.mul, su2vol.algebra.mul,
                 su2vol.balls.ball_volume, api.ball_volume,
                 su2vol.balls.optimize)
    tr = Tracer()
    tr.install(api)
    try:
        assert su2vol.balls.mul is not originals[0]
        assert su2vol.frames.mul is not originals[1]
        # intra-module calls of algebra stay inside their caller's span
        assert su2vol.algebra.mul is originals[2]
        # sweep calls ball_volume inside balls, so its home is patched
        assert su2vol.balls.ball_volume is not originals[3]
        assert api.ball_volume is su2vol.balls.ball_volume
        g = su2vol.balls.exp_group(su2vol.algebra.AlgebraElement(
            np.arange(6.0)))
        su2vol.balls.mul(g, g)
    finally:
        tr.uninstall()
    assert (su2vol.balls.mul, su2vol.frames.mul, su2vol.algebra.mul,
            su2vol.balls.ball_volume, api.ball_volume,
            su2vol.balls.optimize) == originals
    layers, consistent = tr.layer_metrics(1.0)
    assert consistent
    assert layers["algebra.exp_group.calls"] == 1
    assert layers["algebra.mul.calls"] == 1
