"""Span tracer installed around su2vol from outside the package.

The package imports with ``from .x import f``, so a call from one module
to another goes through the caller's own namespace.  ``Tracer.install``
therefore replaces a function by its wrapper in every su2vol module that
holds it by name, and in the benchmark's ``api`` namespace; nothing under
``src/`` is edited.  A function's home module is patched only where the
per-layer metrics need calls made inside that module (``ball_volume`` and
``word_upper_bound`` are called by ``sweep`` in ``balls`` itself).

Each call records a span (name, start, end, parent span, op id) in
memory; ``write`` saves them when the run ends.
"""
from __future__ import annotations

import collections
import importlib
import types
from array import array
from time import perf_counter

import numpy as np

from stats import percentile, self_times

MODULES = ("algebra", "metrics", "frames", "volumes", "balls", "cli")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_ball_volume(tr, args, kwargs, result):
    tr.counters["balls.ball_volume.samples"] += int(
        _arg(args, kwargs, 2, "n", 100000))
    tr.counters["balls.ball_volume.hexagon_mode"] += result.mode == "hexagon"
    tr.counters["balls.ball_volume.low_confidence"] += (
        "low_confidence" in result.flags)
    if result.upper > 0.0:
        tr.ambiguous_shares.append(result.ambiguous_mass / result.upper)


def _count_points(key, pos, name):
    def count(tr, args, kwargs, result):
        tr.counters[key] += int(np.size(_arg(args, kwargs, pos, name)))
    return count


def _count_sample_hexagon(tr, args, kwargs, result):
    tr.counters["volumes.sample_hexagon.points"] += int(
        _arg(args, kwargs, 1, "n"))


def _count_powell(tr, args, kwargs, result):
    tr.counters["balls.powell.nfev"] += int(result.nfev)


def _count_sweep(tr, args, kwargs, result):
    tr.counters["balls.sweep.cell_errors"] += sum(
        "error:" in row["flags"] for row in result["rows"])


# (home module, function, span name, counter hook, patch the home module)
TARGETS = (
    ("algebra", "exp_group", "algebra.exp_group", None, False),
    ("algebra", "mul", "algebra.mul", None, False),
    ("algebra", "g0_distance_between", "algebra.g0_distance_between", None,
     False),
    ("metrics", "from_parameters", "metrics.from_parameters", None, False),
    ("metrics", "canonicalize", "metrics.canonicalize", None, False),
    ("metrics", "reduce_to_decoupled", "metrics.reduce_to_decoupled", None,
     False),
    ("frames", "euler_quat", "frames.euler_quat",
     _count_points("frames.euler_quat.points", 0, "x1"), False),
    ("frames", "wrap_circle", "frames.wrap_circle", None, False),
    ("frames", "path_length", "frames.path_length", None, False),
    ("frames", "word_factors", "frames.word_factors", None, False),
    ("volumes", "hexagon_area", "volumes.hexagon_area", None, False),
    ("volumes", "hexagon_area_truncated", "volumes.hexagon_area_truncated",
     None, False),
    ("volumes", "sample_hexagon", "volumes.sample_hexagon",
     _count_sample_hexagon, False),
    ("volumes", "hexagon_contains", "volumes.hexagon_contains",
     _count_points("volumes.hexagon_contains.points", 1, "x"), False),
    ("volumes", "vbar_g", "volumes.estimator", None, False),
    ("volumes", "m_rho", "volumes.estimator", None, False),
    ("volumes", "containment_sets", "volumes.estimator", None, False),
    ("volumes", "linear_upper", "volumes.estimator", None, False),
    ("balls", "ball_volume", "balls.ball_volume", _count_ball_volume, True),
    ("balls", "word_upper_bound", "balls.word_upper_bound", None, True),
    ("balls", "distance_bracket", "balls.distance_bracket", None, False),
    ("balls", "sweep", "balls.sweep", _count_sweep, False),
    ("cli", "main", "cli.main", None, False),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.current_op = -1
        self.counters = collections.Counter()
        self.ambiguous_shares = []
        self._patched = []

    def wrap(self, span_name, fn, hook=None):
        key = self._ids.setdefault(span_name, len(self._ids))
        if key == len(self.names):
            self.names.append(span_name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(key)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.current_op)
            self.stack.append(idx)
            self.end.append(0.0)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = perf_counter()
                self.stack.pop()
                self.counters[span_name + ".raised"] += 1
                raise
            self.end[idx] = perf_counter()
            self.stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, namespace, attr, value):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self, api):
        """Patch every calling namespace; api is the benchmark's own."""
        mods = {m: importlib.import_module(f"su2vol.{m}") for m in MODULES}
        namespaces = list(mods.values()) + [api]
        for home, attr, span_name, hook, patch_home in TARGETS:
            original = getattr(mods[home], attr)
            wrapped = self.wrap(span_name, original, hook)
            for ns in namespaces:
                if ns is mods[home] and not patch_home:
                    continue
                if getattr(ns, attr, None) is original:
                    self._patch(ns, attr, wrapped)
        # distance_bracket reaches scipy through the module name `optimize`
        balls = mods["balls"]
        minimize = self.wrap("balls.powell", balls.optimize.minimize,
                             _count_powell)
        self._patch(balls, "optimize", types.SimpleNamespace(
            minimize=minimize))

    def uninstall(self):
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def arrays(self):
        """Copies of the span columns (a view would pin the buffers)."""
        return (np.array(self.name, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.op, dtype=np.int32),
                np.array(self.start, dtype=float),
                np.array(self.end, dtype=float))

    def write(self, path):
        name, parent, op, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, op=op, start=start, end=end)

    def layer_metrics(self, wall_s):
        """Per-layer metrics, plus the split of wall_s into self times.

        Returns (metrics, consistent): consistent is False when the self
        times do not add up to the time covered by root spans, or that
        covered time exceeds wall_s.
        """
        name, parent, _, start, end = self.arrays()
        nn = len(self.names)
        dur = end - start
        own = self_times(start, end, parent)
        calls = np.bincount(name, minlength=nn)
        total = np.bincount(name, weights=dur, minlength=nn)
        self_s = np.bincount(name, weights=own, minlength=nn)
        by = {n: (int(calls[i]), float(total[i]), float(self_s[i]))
              for i, n in enumerate(self.names)}

        def get(span_name, field):
            c, s, own_s = by.get(span_name, (0, 0.0, 0.0))
            return {"calls": c, "s": s, "self_s": own_s}[field]

        cnt = self.counters
        bv_calls = get("balls.ball_volume", "calls")
        samples = cnt["balls.ball_volume.samples"]
        ha_calls = get("volumes.hexagon_area", "calls")
        amb = self.ambiguous_shares
        m = {
            "balls.ball_volume.calls": bv_calls,
            "balls.ball_volume.samples": samples,
            "balls.ball_volume.self_s": get("balls.ball_volume", "self_s"),
            "balls.ball_volume.ns_per_sample": (
                1e9 * get("balls.ball_volume", "self_s") / samples
                if samples else 0.0),
            "balls.ball_volume.hexagon_mode_share": (
                cnt["balls.ball_volume.hexagon_mode"] / bv_calls
                if bv_calls else 0.0),
            "balls.ambiguous_share_p50": percentile(amb, 50) if amb else 0.0,
            "balls.low_confidence_fraction": (
                cnt["balls.ball_volume.low_confidence"] / bv_calls
                if bv_calls else 0.0),
            "balls.word_upper_bound.calls": get("balls.word_upper_bound",
                                                "calls"),
            "balls.word_upper_bound.s": get("balls.word_upper_bound", "s"),
            "balls.distance_bracket.calls": get("balls.distance_bracket",
                                                "calls"),
            "balls.distance_bracket.self_s": get("balls.distance_bracket",
                                                 "self_s"),
            "balls.powell.calls": get("balls.powell", "calls"),
            "balls.powell.nfev": cnt["balls.powell.nfev"],
            "balls.powell.s": get("balls.powell", "s"),
            "balls.powell.failures": cnt["balls.powell.raised"],
            "balls.sweep.self_s": get("balls.sweep", "self_s"),
            "balls.sweep.cell_errors": cnt["balls.sweep.cell_errors"],
            "volumes.hexagon_area.calls": ha_calls,
            "volumes.hexagon_area.s": get("volumes.hexagon_area", "s"),
            "volumes.hexagon_area.us_per_call": (
                1e6 * get("volumes.hexagon_area", "s") / ha_calls
                if ha_calls else 0.0),
            "volumes.hexagon_area_truncated.calls": get(
                "volumes.hexagon_area_truncated", "calls"),
            "volumes.hexagon_area_truncated.s": get(
                "volumes.hexagon_area_truncated", "s"),
            "volumes.sample_hexagon.calls": get("volumes.sample_hexagon",
                                                "calls"),
            "volumes.sample_hexagon.points": cnt[
                "volumes.sample_hexagon.points"],
            "volumes.sample_hexagon.s": get("volumes.sample_hexagon", "s"),
            "volumes.hexagon_contains.points": cnt[
                "volumes.hexagon_contains.points"],
            "volumes.hexagon_contains.s": get("volumes.hexagon_contains",
                                              "s"),
            "volumes.estimator.calls": get("volumes.estimator", "calls"),
            "volumes.estimator.s": get("volumes.estimator", "s"),
            "frames.euler_quat.points": cnt["frames.euler_quat.points"],
            "frames.euler_quat.s": get("frames.euler_quat", "s"),
            "frames.wrap_circle.s": get("frames.wrap_circle", "s"),
            "frames.path_length.calls": get("frames.path_length", "calls"),
            "frames.path_length.s": get("frames.path_length", "s"),
            "frames.word_factors.calls": get("frames.word_factors", "calls"),
            "algebra.exp_group.calls": get("algebra.exp_group", "calls"),
            "algebra.exp_group.s": get("algebra.exp_group", "s"),
            "algebra.mul.calls": get("algebra.mul", "calls"),
            "algebra.mul.s": get("algebra.mul", "s"),
            "algebra.g0_distance_between.calls": get(
                "algebra.g0_distance_between", "calls"),
            "algebra.g0_distance_between.s": get(
                "algebra.g0_distance_between", "s"),
            "metrics.from_parameters.calls": get("metrics.from_parameters",
                                                 "calls"),
            "metrics.from_parameters.s": get("metrics.from_parameters", "s"),
            "metrics.canonicalize.calls": get("metrics.canonicalize",
                                              "calls"),
            "metrics.canonicalize.s": get("metrics.canonicalize", "s"),
            "metrics.reduce_to_decoupled.calls": get(
                "metrics.reduce_to_decoupled", "calls"),
            "metrics.reduce_to_decoupled.s": get(
                "metrics.reduce_to_decoupled", "s"),
            "cli.main.self_s": get("cli.main", "self_s"),
            "cli.report_bytes": cnt["cli.report_bytes"],
        }
        layer_self = {mod: 0.0 for mod in MODULES}
        for n, (_, _, own_s) in by.items():
            layer_self[n.split(".", 1)[0]] += own_s
        for mod in MODULES:
            m[f"{mod}.self_s"] = layer_self[mod]
        covered = float(dur[parent < 0].sum())
        m["trace.spans"] = int(dur.size)
        m["trace.wall_s"] = wall_s
        m["trace.remainder_s"] = wall_s - covered
        tol = 1e-9 * max(1, dur.size) + 1e-9 * covered
        consistent = (abs(sum(layer_self.values()) - covered) <= tol
                      and bool(np.all(own >= -tol))
                      and covered <= wall_s + tol)
        return m, consistent
