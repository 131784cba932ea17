"""The four su2vol workloads: inputs from a seed, ops, output checks.

Each workload runs in batches of a fixed mix of ops: a ``sweep`` pass
(each cell an op), a ``ball`` cycle of ten cells, sixteen ``hexagon``
pairs of full and truncated areas, one ``distance`` call.  A run stops
only at a batch boundary, so every run times the same mix, and an op's
time is its batch's time over the ops in it.  ``evaluate`` runs outside
the timed phase and turns raw batch outputs into one record per op:
whether every check passed, which checks failed, the op's bracket ratios
and whether it was flagged ``low_confidence``.  A failed check never stops
a run.

Known defects, counted on purpose: fallback-mode brackets can miss the
true volume (the fallback upper bound collapses when the torus stratum
gets no hits), and a 99% Monte Carlo bracket misses the true value now
and then.  They show as ``upper_2r < lower_r`` cells in ``sweep`` and as
isotropic brackets that miss the quadrature value in ``ball``.  Such an
op ran and returned a well-formed bracket whose value is wrong, so it
counts against ``ok_fraction`` and ``failed_fraction`` but not toward the
result line's ``failed``, which counts ops that raised or broke any other
check (``KNOWN_DEFECTS``).
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import tempfile
import types
from pathlib import Path

import numpy as np
from scipy import integrate

import su2vol.algebra
import su2vol.balls
import su2vol.cli
import su2vol.frames
import su2vol.metrics
import su2vol.volumes

# Every su2vol function the benchmark calls goes through this namespace, so
# the tracer can wrap the benchmark's own calls as well.
api = types.SimpleNamespace(
    main=su2vol.cli.main,
    ball_volume=su2vol.balls.ball_volume,
    distance_bracket=su2vol.balls.distance_bracket,
    hexagon_area=su2vol.volumes.hexagon_area,
    hexagon_area_truncated=su2vol.volumes.hexagon_area_truncated,
    reduce_to_decoupled=su2vol.metrics.reduce_to_decoupled,
    from_parameters=su2vol.metrics.from_parameters,
    exp_group=su2vol.algebra.exp_group,
    path_length=su2vol.frames.path_length,
)

# checks that compare two computations of one number allow this much
# relative rounding
REL_TOL = 1e-12

# checks whose failure marks a wrong bracket from a known cause (see the
# module docstring) rather than a broken op
KNOWN_DEFECTS = frozenset({"upper_2r_below_lower_r", "misses_quadrature"})


def sub_seed(seed, *key):
    """Independent 31-bit seed for one op, from the run seed and a key."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))
    return int(ss.generate_state(1)[0] >> 1)


def digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def isotropic_ball_volume(r):
    """Reference-measure volume of the a = (1, 1, 1), d = 0 ball.

    The rotation part is the round 3-sphere of radius 2 and the distance
    is the hypot of rotation angle and translation, so slicing by angle
    theta gives 16 pi sin^2(theta/2) times a Euclidean 3-ball of radius
    sqrt(r^2 - theta^2).
    """
    def slab(theta):
        return (16.0 * math.pi * math.sin(theta / 2.0) ** 2
                * (4.0 / 3.0) * math.pi
                * max(r * r - theta * theta, 0.0) ** 1.5)
    val, _ = integrate.quad(slab, 0.0, min(r, 2.0 * math.pi), limit=200,
                            epsabs=0.0, epsrel=1e-12)
    return val


def _op(ok=True, failures=(), ratios=(), low_confidence=None):
    return {"ok": ok, "failures": tuple(failures), "ratios": tuple(ratios),
            "low_confidence": low_confidence}


class Workload:
    name = ""
    ops_per_batch = 1
    # batches always run, whatever the time limit; the digest covers them
    digest_batches = 1

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = Path(work_dir)

    def extra_counters(self, raws):
        return {}

    def evaluate(self, raws):
        """(one record per op, SHA-256 of the digest batches' results).

        A batch that raised fails all of its ops.
        """
        ops = []
        for b, raw in enumerate(raws):
            if isinstance(raw, Exception):
                fail = "raised:" + type(raw).__name__
                ops.extend(_op(False, (fail,))
                           for _ in range(self.ops_per_batch))
            else:
                ops.extend(self.check(b, raw))
        items = []
        for raw in raws[:self.digest_batches]:
            if isinstance(raw, Exception):
                items.append(repr(raw))
            else:
                items.extend(self.digest_items(raw))
        return ops, digest(items)


class Sweep(Workload):
    """In-process ``su2vol sweep`` at 10k samples, a pass per batch.

    The grid is the product of a in {0.1, 1, 10}, d in {0, 100} and r in
    {0.01, 0.1, 1}: ascending a-triples give 60 cells per pass.  The r
    values include r = 0.1 * a2, the hexagon/fallback boundary where the
    known fallback defect appears.
    """
    name = "sweep"
    grid_text = "a_grid=0.1,1,10\nd_grid=0,100\nr_grid=0.01,0.1,1\n"
    ops_per_batch = 60
    digest_batches = 3

    def __init__(self, seed, work_dir, full_grid=False):
        super().__init__(seed, work_dir)
        self.full_grid = full_grid
        if full_grid:
            # the default 700-cell grid, one pass at the given seed
            self.grid_text = ""
            self.ops_per_batch = 700
            self.digest_batches = 1

    def make_inputs(self):
        self.dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.work_dir))
        self.config = self.dir / "sweep.cfg"
        self.config.write_text(self.grid_text + "samples=10000\n")

    def _pass_seed(self, b):
        return self.seed if self.full_grid else sub_seed(self.seed, b)

    def warm_up(self):
        cfg = self.dir / "warm.cfg"
        cfg.write_text("a_grid=1\nd_grid=0\nr_grid=0.1\nsamples=1000\n")
        self._main(["sweep", "--config", str(cfg), "--seed", "0", "--out",
                    str(self.dir / "warm")])

    @staticmethod
    def _main(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return api.main(argv)

    def run_batch(self, b):
        out = self.dir / f"pass-{b}"
        rc = self._main(["sweep", "--config", str(self.config), "--seed",
                         str(self._pass_seed(b)), "--out", str(out)])
        return rc, out

    def extra_counters(self, raws):
        return {"cli.report_bytes": sum(
            f.stat().st_size for raw in raws
            if not isinstance(raw, Exception) for f in raw[1].iterdir())}

    @staticmethod
    def _report_rows(out):
        """Report lines without the `# key=value` config header, which
        embeds the output path."""
        try:
            lines = (out / "sweep_report.csv").read_text().splitlines()
        except OSError:
            return []
        return [ln for ln in lines if not ln.startswith("#")]

    def digest_items(self, raw):
        return self._report_rows(raw[1])

    def check(self, b, raw):
        rc, out = raw
        cells = [self._check_cell(row)
                 for row in csv.DictReader(self._report_rows(out))]
        if len(cells) != self.ops_per_batch:
            return [_op(False, ("row_count",))] * self.ops_per_batch
        if rc != 0 and not any("error" in c["failures"] for c in cells):
            # a nonzero exit with no error cell is a failed summary check
            # (doubling bound), which fails the whole pass
            cells = [_op(False, c["failures"] + ("exit_code",), c["ratios"],
                         c["low_confidence"]) for c in cells]
        return cells

    @staticmethod
    def _check_cell(row):
        fails = []
        if "error:" in row["flags"]:
            fails.append("error")
        lo_r, up_r = float(row["lower_r"]), float(row["upper_r"])
        lo_2r, up_2r = float(row["lower_2r"]), float(row["upper_2r"])
        ratios = []
        for lo, up in ((lo_r, up_r), (lo_2r, up_2r)):
            if lo > up:
                fails.append("inverted")
            elif lo == up:
                fails.append("zero_width")
            if lo > 0.0 and math.isfinite(up / lo):
                ratios.append(up / lo)
        if up_2r < lo_r:
            fails.append("upper_2r_below_lower_r")
        return _op(not fails, fails, ratios,
                   "low_confidence" in row["flags"])


class Ball(Workload):
    """``ball_volume`` at n = 2e5 over a fixed cycle of ten cells.

    Five cells run in hexagon mode and five in fallback mode, so a change
    to one sampling path cannot hide a cost to the other.  The isotropic
    d = 0 cells have an exact reference by quadrature.
    """
    name = "ball"
    samples = 200000
    # (a1, a2, a3, d, r); at the seed commit the first cell of each pair
    # runs in hexagon mode and the second in fallback mode
    cells = (
        (1.0, 1.0, 1.0, 0.0, 0.05), (1.0, 1.0, 1.0, 0.0, 0.2),
        (1.0, 1.0, 1.0, 0.0, 0.1), (1.0, 1.0, 1.0, 0.0, 0.5),
        (0.1, 1.0, 10.0, 1.0, 0.05), (0.1, 1.0, 10.0, 1.0, 0.5),
        (1.0, 2.0, 3.0, 100.0, 0.1), (1.0, 2.0, 3.0, 100.0, 1.0),
        (0.01, 0.1, 1.0, 1e4, 0.001), (0.01, 0.1, 1.0, 1e4, 0.1),
    )
    ops_per_batch = len(cells)

    def make_inputs(self):
        self.metrics = [api.from_parameters(a1, a2, a3, d)
                        for a1, a2, a3, d, _ in self.cells]
        self.exact = [isotropic_ball_volume(r)
                      if (a1, a2, a3, d) == (1.0, 1.0, 1.0, 0.0) else None
                      for a1, a2, a3, d, r in self.cells]

    def warm_up(self):
        api.ball_volume(self.metrics[0], 0.05, 2000, 0)
        api.ball_volume(self.metrics[0], 0.5, 2000, 0)

    def run_batch(self, b):
        return [api.ball_volume(m, cell[4], self.samples,
                                sub_seed(self.seed, b, i))
                for i, (m, cell) in enumerate(zip(self.metrics, self.cells))]

    def digest_items(self, raw):
        return [(vb.lower.hex(), vb.upper.hex(), vb.ambiguous_mass.hex(),
                 vb.mode, vb.flags) for vb in raw]

    def check(self, b, raw):
        ops = []
        for exact, vb in zip(self.exact, raw):
            ordered = 0.0 < vb.lower < vb.upper < math.inf
            fails = [] if ordered else ["bracket_order"]
            if exact is not None and not vb.lower <= exact <= vb.upper:
                fails.append("misses_quadrature")
            ratios = [vb.upper / vb.lower] if ordered else []
            ops.append(_op(not fails, fails, ratios,
                           "low_confidence" in vb.flags))
        return ops


class HexagonAreas(Workload):
    """Scalar ``hexagon_area`` and ``hexagon_area_truncated(., pi/4)``,
    alternating on a pool of hexagons drawn like acceptance criterion 4:
    mu*, nu*, xi* log-uniform on [0.05, 20], d = 0 with probability 1/4,
    else log-uniform on [0.05, 5].
    """
    name = "hexagon"
    pool_size = 1 << 16
    # single calls take one of a few discrete costs (by affine patch count),
    # so a median over single calls jumps between them from seed to seed;
    # batch means of 16 pairs do not
    pairs = 16
    ops_per_batch = 2 * pairs
    digest_batches = 32
    iota = math.pi / 4.0

    def make_inputs(self):
        rng = np.random.default_rng(sub_seed(self.seed, 0))
        n = self.pool_size
        lo, hi = math.log(0.05), math.log(20.0)
        mu, nu, xi = (np.exp(rng.uniform(lo, hi, n)) for _ in range(3))
        d = np.where(rng.random(n) < 0.25, 0.0,
                     np.exp(rng.uniform(math.log(0.05), math.log(5.0), n)))
        hexagon = su2vol.volumes.Hexagon
        self.pool = [hexagon(float(a), float(b), float(c), float(e))
                     for a, b, c, e in zip(mu, nu, xi, d)]

    def warm_up(self):
        for h in self.pool[:2]:
            api.hexagon_area(h)
            api.hexagon_area_truncated(h, self.iota)

    def _hexagons(self, b):
        start = b * self.pairs % self.pool_size
        return self.pool[start:start + self.pairs]

    def run_batch(self, b):
        return [(api.hexagon_area(h), api.hexagon_area_truncated(h, self.iota))
                for h in self._hexagons(b)]

    def digest_items(self, raw):
        return [value.hex() for pair in raw for value in pair]

    def check(self, b, raw):
        ops = []
        for h, (area, trunc) in zip(self._hexagons(b), raw):
            planar = su2vol.volumes.hexagon_planar_area(h)
            area_fails, trunc_fails = [], []
            if (h.x_half_width <= 2.0 * math.pi
                    and abs(area - planar) > REL_TOL * planar):
                area_fails.append("area_not_planar")
            cap = min(planar, 8.0 * math.pi * h.y_half_height)
            if not 0.0 <= area <= cap * (1.0 + REL_TOL):
                area_fails.append("area_above_cap")
            if not 0.0 <= trunc <= area * (1.0 + REL_TOL):
                trunc_fails.append("truncated_above_area")
            # exact areas: a zero-width bracket, ratio 1
            ops += [_op(not area_fails, area_fails, (1.0,)),
                    _op(not trunc_fails, trunc_fails, (1.0,))]
        return ops


class Distance(Workload):
    """``distance_bracket(m, p, budget=2)`` on a seeded pool of inputs.

    Each metric is ``reduce_to_decoupled`` of a random SPD Gram matrix on
    su(2) + R^3, I + A A^T / 32 with A standard normal, so frames are
    rotated and the tilt is nonzero; each target is exp of a normal
    algebra element scaled by 0.8.  The bracket ratio of a call lies
    between 1 and the metric's condition number, so the mild anisotropy
    keeps the run's mean bracket width steady over only ~7 calls.
    """
    name = "distance"
    pool_size = 64
    digest_batches = 2

    def make_inputs(self):
        rng = np.random.default_rng(sub_seed(self.seed, 0))
        self.pool = []
        for _ in range(self.pool_size):
            a = rng.normal(size=(6, 6))
            gram = a @ a.T / 32.0 + np.eye(6)
            m = api.reduce_to_decoupled(su2vol.metrics.MetricTensor(gram))
            p = api.exp_group(su2vol.algebra.AlgebraElement(
                0.8 * rng.normal(size=6)))
            self.pool.append((m, p))

    def warm_up(self):
        api.distance_bracket(*self.pool[0], budget=0)

    def run_batch(self, b):
        m, p = self.pool[b % self.pool_size]
        return api.distance_bracket(m, p, budget=2)

    def digest_items(self, db):
        return [(db.lower.hex(), db.upper.hex())]

    def check(self, b, db):
        m, p = self.pool[b % self.pool_size]
        fails = []
        if not db.lower <= db.upper:
            fails.append("bracket_order")
        if api.path_length(m, db.witness) != db.upper:
            fails.append("witness_length")
        try:
            end, _, _ = su2vol.frames.mc_integrate(m, db.witness)
            if (su2vol.algebra.g0_distance_between(end, p)
                    > 1e-6 * (1.0 + db.upper)):
                fails.append("witness_endpoint")
        except (su2vol.frames.IntegrationError, su2vol.frames.GimbalLock):
            fails.append("witness_integration")
        ratios = [db.upper / db.lower] if db.lower > 0.0 else []
        return [_op(not fails, fails, ratios)]


WORKLOADS = {w.name: w for w in (Sweep, Ball, HexagonAreas, Distance)}
