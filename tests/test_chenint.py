"""Transport contract: path algebra, word series, homotopy, regularization."""

import cmath
import functools
import importlib.util
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from ellbar import _kernels, chenint
from ellbar.barcx import BarElement, shuffle
from ellbar.chenint import (
    ArcSeg,
    EdaggerModel,
    LineSeg,
    P1Model,
    PathSpec,
    _compose_bounded,
    _SegmentTransport,
    _word_table,
    chen_transport,
    compose_paths,
    compose_series,
    eval_bar_element,
    eval_bar_with_result,
    homotopy_certificate,
    line_path,
    loop_pair_library,
    loop_path,
    path_from_json,
    path_to_json,
    regularized_integral_p1,
    reverse_path,
    stokes_defect,
    translate_path,
)
from ellbar.errors import (
    EndpointMismatch,
    GuardViolation,
    QuadratureFailure,
)
from ellbar.kzbword import c_w, canonical_series
from ellbar.logforms import ExtLattice
from ellbar.p1model import MZVIndex, mzv_integral, mzv_series
from ellbar.wlattice import (
    CurveSpec,
    _reduce,
    eta_lambda,
    lattice_from_curve,
    reduce_mod_lattice,
)
from mpref import SigmaReference

ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595942854
ZETA4 = math.pi**4 / 90
Z5 = 1.0369277551433699263


@pytest.fixture(scope="module")
def ext():
    return ExtLattice(lattice_from_curve(CurveSpec(5, 2)), nmax=6)


@pytest.fixture(scope="module")
def model(ext):
    return EdaggerModel(ext)


def _base(ext):
    L = ext.lattice
    return 0.31 * L.omega1 + 0.22 * L.omega2


class TestPathSpec:
    def test_json_roundtrip_edagger(self, ext):
        L = ext.lattice
        z0 = _base(ext)
        g = PathSpec(
            model="edagger",
            segments=(
                LineSeg(z0, z0 + 0.3 * L.omega1, 0.1 + 0.2j, 0.3 - 0.1j),
                ArcSeg(z0 + 0.3 * L.omega1 + 0.1, 0.1, math.pi, 0.0, 0.3 - 0.1j, 0.5j),
            ),
        )
        g2 = path_from_json(path_to_json(g))
        assert g2.model == "edagger"
        assert len(g2.segments) == 2
        for a, b in zip(g.segments, g2.segments):
            assert abs(complex(a.start[0]) - complex(b.start[0])) < 1e-15
            assert abs(complex(a.end[1]) - complex(b.end[1])) < 1e-15

    def test_json_roundtrip_p1(self):
        g = line_path("p1", 0.2 + 0j, 0.8 + 0.1j)
        g2 = path_from_json(path_to_json(g))
        assert isinstance(g2.segments[0], LineSeg)
        assert abs(g2.segments[0].z1 - (0.8 + 0.1j)) < 1e-15

    def test_discontinuous_rejected(self):
        with pytest.raises(ValueError, match="discontinuous"):
            PathSpec(
                model="p1",
                segments=(LineSeg(0.2, 0.5), LineSeg(0.6, 0.8)),
            )

    def test_bad_model_and_kind(self):
        with pytest.raises(ValueError):
            PathSpec(model="weird", segments=(LineSeg(0, 1),))
        with pytest.raises(ValueError):
            path_from_json(json.dumps({"model": "p1", "segments": [{"kind": "spline"}]}))

    def test_arc_endpoints(self):
        a = ArcSeg(1j, 2.0, 0.0, math.pi / 2)
        assert abs(a.start[0] - (2 + 1j)) < 1e-15
        assert abs(a.end[0] - 3j) < 1e-15

    def test_global_parameter(self):
        g = PathSpec(model="p1", segments=(LineSeg(0.1, 0.5), LineSeg(0.5, 0.9)))
        z, s = g.at([0.0, 0.5, 1.0])
        assert abs(z[0] - 0.1) < 1e-15
        assert abs(z[1] - 0.5) < 1e-15
        assert abs(z[2] - 0.9) < 1e-15


class TestPathAlgebra:
    def test_compose_exact(self, ext):
        z0 = _base(ext)
        zm = z0 + 0.1 * ext.lattice.omega1
        z1 = zm + 0.2 * ext.lattice.omega2
        gA = line_path("edagger", z0, zm, 0j, 1j)
        gB = line_path("edagger", zm, z1, 1j, 2j)
        g = compose_paths(gB, gA)
        assert len(g.segments) == 2
        assert g.start == gA.start
        assert g.end == gB.end
        assert g.deck_offset is None

    def test_compose_mod_lattice(self, ext):
        L = ext.lattice
        z0 = _base(ext)
        s0 = 0.4 - 0.1j
        gA = translate_path(L, (1, 0), z0, s0)
        # gB starts back at the original point: congruent, not equal
        gB = line_path("edagger", z0, z0 + 0.1 * L.omega2, s0, s0 + 1j)
        # the later path gets translated by +omega1 onto gA's sheet
        g = compose_paths(gB, gA, lattice=L)
        assert g.deck_offset == (1, 0)
        # the composed path is continuous
        for a, b in zip(g.segments, g.segments[1:]):
            assert abs(a.end[0] - b.start[0]) < 1e-12

    def test_compose_mismatch(self, ext):
        z0 = _base(ext)
        gA = line_path("edagger", z0, z0 + 1.0)
        gB = line_path("edagger", z0 + 0.5j, z0 + 1.5)
        with pytest.raises(EndpointMismatch):
            compose_paths(gB, gA)
        with pytest.raises(EndpointMismatch):
            compose_paths(line_path("p1", 0.2, 0.5), gA)

    def test_reverse(self, ext):
        z0 = _base(ext)
        g = PathSpec(
            model="edagger",
            segments=(LineSeg(z0, z0 + 1, 0j, 1j), LineSeg(z0 + 1, z0 + 1 + 1j, 1j, 0j)),
        )
        r = reverse_path(g)
        assert r.start == g.end
        assert r.end == g.start
        assert len(r.segments) == 2

    def test_loop_deck(self, ext, model):
        # the deck element (m, n) that closes a path in the quotient, from
        # the congruence test that compose_paths uses
        L = ext.lattice
        z0 = _base(ext)

        def deck(g):
            off = model.congruence_offset(g.start, g.end, tol=1e-10)
            return None if off is None else off[2]

        assert deck(loop_path(0j, 0.3 * L.min_period(), s0=0.1j)) == (0, 0)
        assert deck(translate_path(L, (1, -2), z0, 0.2j)) == (1, -2)
        assert deck(line_path("edagger", z0, z0 + 0.3 * L.omega1)) is None


class TestLengthOnePeriods:
    @pytest.mark.parametrize("mn", [(1, 0), (0, 1)])
    def test_translate_periods(self, ext, model, mn):
        L = ext.lattice
        lam = mn[0] * L.omega1 + mn[1] * L.omega2
        g = translate_path(L, mn, _base(ext), 0.4 - 0.1j)
        res = chen_transport(model, g, letters=("nu", "w0"), lmax=1, tol=1e-12)
        assert abs(res.coeff(("w0",)) - lam) < 1e-10
        assert abs(res.coeff(("nu",)) + eta_lambda(L, mn)) < 1e-10


class TestWordSeries:
    def test_composition_rule(self, ext, model):
        L = ext.lattice
        z0 = _base(ext)
        zm = z0 + 0.1 * L.omega1 + 0.2 * L.omega2
        z1 = z0 + 0.4 * L.omega1 + 0.23 * L.omega2
        s0, sm, s1 = 0.4 - 0.1j, 0.1 + 0.2j, -0.3 + 0.05j
        gA = line_path("edagger", z0, zm, s0, sm)
        gB = line_path("edagger", zm, z1, sm, s1)
        letters = ("nu", "w0", "w1")
        tab = _word_table(letters, 3)
        vA = chen_transport(model, gA, letters=letters, lmax=3, tol=1e-12)
        vB = chen_transport(model, gB, letters=letters, lmax=3, tol=1e-12)
        vG = chen_transport(model, compose_paths(gB, gA), letters=letters, lmax=3, tol=1e-12)
        a = np.array([vA.values[w] for w in tab.words])
        b = np.array([vB.values[w] for w in tab.words])
        whole = np.array([vG.values[w] for w in tab.words])
        assert np.max(np.abs(compose_series(b, a, tab) - whole)) < 1e-11

    def test_composed_error_bounds_perturbed_series(self):
        # series perturbed by any delta with |delta| <= e compose within the
        # composed error, up to the rounding of the two compositions: each
        # is within (lmax + 3) u of the sum of its products' moduli (lmax + 1
        # terms, complex products within sqrt(5) u)
        table = _word_table(("a", "b", "c"), 4)
        length1 = table.lengths == 1
        rng = np.random.default_rng(29)
        u = 2.0 ** -53
        for _ in range(20):
            pairs, perturbed = [], []
            for _ in range(2):
                x = (1, 1j) @ rng.normal(size=(2, len(table.words))) * 10.0 ** rng.uniform(-2, 2)
                x[0] = 1.0
                e = np.abs(x) * 10.0 ** rng.uniform(-12, -1, len(x))
                e[0] = 0.0
                delta = e * rng.uniform(0, 1, len(x)) * np.exp(2j * np.pi * rng.uniform(size=len(x)))
                pairs.append((x, e))
                perturbed.append(x + delta)
            value, err = _compose_bounded(*pairs, table)
            assert np.array_equal(value, compose_series(pairs[0][0], pairs[1][0], table))
            assert err[0] == 0.0
            assert np.array_equal(err[length1], pairs[0][1][length1] + pairs[1][1][length1])
            size = compose_series(*(np.abs(x) + e for x, e in pairs), table)
            moved = np.abs(compose_series(*perturbed, table) - value)
            assert np.all(moved <= err + 2 * (table.lmax + 3) * u * size)

    def test_reversal_antipode(self, ext, model):
        L = ext.lattice
        z0 = _base(ext)
        g = line_path(
            "edagger", z0, z0 + 0.3 * L.omega1 + 0.2 * L.omega2, 0.4 - 0.1j, 0.1j
        )
        letters = ("nu", "w0", "w1")
        tab = _word_table(letters, 3)
        fwd = chen_transport(model, g, letters=letters, lmax=3, tol=1e-12)
        bwd = chen_transport(model, reverse_path(g), letters=letters, lmax=3, tol=1e-12)
        for w in tab.words:
            expect = (-1) ** len(w) * fwd.values[w[::-1]]
            assert abs(bwd.values[w] - expect) < 1e-11

    def test_shuffle_identity(self, ext, model):
        L = ext.lattice
        z0 = _base(ext)
        g = PathSpec(
            model="edagger",
            segments=(
                LineSeg(z0, z0 + 0.2 * L.omega1, 0.1j, 0.3),
                LineSeg(z0 + 0.2 * L.omega1, z0 + 0.2 * L.omega1 + 0.25 * L.omega2, 0.3, -0.2j),
            ),
        )
        letters = ("nu", "w0", "w1")
        res = chen_transport(model, g, letters=letters, lmax=4, tol=1e-12)
        pairs = [
            (("nu",), ("w0",)),
            (("w1",), ("w1",)),
            (("nu", "w0"), ("w1",)),
            (("w0", "w1"), ("nu", "w1")),
        ]
        for u, v in pairs:
            lhs = res.values[u] * res.values[v]
            rhs = sum(c * res.values[w] for w, c in shuffle(u, v).items())
            assert abs(lhs - rhs) < 1e-11

    def test_grouplike_empty_word(self, ext, model):
        g = line_path("edagger", _base(ext), _base(ext) + 0.5, 0j, 1j)
        res = chen_transport(model, g, letters=("nu",), lmax=2, tol=1e-10)
        assert res.coeff(()) == 1.0
        with pytest.raises(KeyError):
            res.coeff(("w0", "w0", "w0"))

    def test_result_metadata(self, ext, model):
        g = line_path("edagger", _base(ext), _base(ext) + 0.5, 0j, 1j)
        res = chen_transport(model, g, letters=("nu", "w0"), lmax=2, tol=1e-10)
        assert res.model == "edagger"
        assert set(res.err_by_length) == {0, 1, 2}
        assert len(res.panels_by_segment) == 1
        # a root that its one evaluation accepts costs one panel
        assert res.panels_by_segment[0] >= res.roots[0] == 1


class TestLoops:
    def test_p1_circle(self):
        res = chen_transport(P1Model(), loop_path(0j, 0.3, model="p1"), lmax=2, tol=1e-12)
        assert abs(res.coeff(("om0",)) - 2j * math.pi) < 1e-12
        # om1 is holomorphic inside: integral vanishes
        assert abs(res.coeff(("om1",))) < 1e-12

    def test_loop_residue_w1(self, ext, model):
        # f_1 has residue 1 at each lattice point
        L = ext.lattice
        vals = {}
        for f in (0.25, 0.125):
            lp = loop_path(0j, f * L.min_period(), s0=0.4 - 0.1j)
            r = chen_transport(model, lp, letters=("w1",), lmax=1, tol=1e-12)
            vals[f] = r.coeff(("w1",))
            assert abs(vals[f] - 2j * math.pi) < 1e-10
        rich = 2 * vals[0.125] - vals[0.25]
        assert abs(rich - 2j * math.pi) < 1e-10

    def test_loop_residue_w2_translated(self, ext, model):
        # f_2 has residue -s + eta-shift structure; at the origin with s
        # fixed the residue is -s (second kernel coefficient: t = -s)
        L = ext.lattice
        s0 = 0.4 - 0.1j
        lp = loop_path(0j, 0.2 * L.min_period(), s0=s0)
        r = chen_transport(model, lp, letters=("w2",), lmax=1, tol=1e-12)
        from ellbar.logforms import residue_expected

        expect = 2j * math.pi * residue_expected(2, s0)
        assert abs(r.coeff(("w2",)) - expect) < 1e-10


_DIST_SAMPLES = 4001


@pytest.mark.parametrize("seg", [
    LineSeg(0.2 + 0.1j, 1.5 - 0.7j),
    LineSeg(-1j, 2j),
    LineSeg(0.3 + 0.3j, 0.3 + 0.3j),  # zero length
    ArcSeg(0.5 + 0.2j, 0.8, 0.3, 2.5),
    ArcSeg(0.5 + 0.2j, 0.8, 2.5, 0.3),  # clockwise
    ArcSeg(0j, 1.0, 2.5, 4.0),  # across the branch cut of arg
    ArcSeg(0j, 1.0, -0.5, -3.5),
    ArcSeg(1.0, 0.5, 0.0, 2 * math.pi),  # full circles
    ArcSeg(1.0, 0.5, 1.0, 1.0 - 2 * math.pi),
], ids=repr)
def test_segment_distance_against_dense_sample(seg):
    # the minimum over a dense sample of the segment lies above the distance
    # by at most half the sample spacing, speed / (2 (samples - 1))
    corners = np.array(seg.corners)
    rng = np.random.default_rng(5)
    lo, hi = corners.real.min() - 1, corners.real.max() + 1
    blo, bhi = corners.imag.min() - 1, corners.imag.max() + 1
    pts = rng.uniform(lo, hi, 200) + 1j * rng.uniform(blo, bhi, 200)
    pts = np.concatenate([pts, [seg.start[0], seg.end[0]]])
    if isinstance(seg, ArcSeg):
        pts = np.append(pts, seg.center)
    sample = seg.at(np.linspace(0.0, 1.0, _DIST_SAMPLES))[0]
    ref = np.abs(sample[:, None] - pts).min(axis=0)
    got = seg.distance(pts)
    assert np.all(got <= ref + 1e-12)
    assert np.all(ref - got <= 0.5 * seg.speed / (_DIST_SAMPLES - 1) + 1e-12)
    if isinstance(seg, ArcSeg):
        assert abs(got[-1] - seg.radius) < 1e-15  # the centre


class TestGuardsAndFailure:
    def test_guard_violation(self, ext, model):
        g = line_path("edagger", -0.5 * ext.lattice.omega1, 0.5 * ext.lattice.omega1)
        with pytest.raises(GuardViolation):
            chen_transport(model, g, letters=("w1",), lmax=1, tol=1e-8)

    def test_p1_guard(self):
        g = line_path("p1", -0.5, 0.5)
        with pytest.raises(GuardViolation):
            chen_transport(P1Model(), g, lmax=1, tol=1e-8)

    def test_quadrature_failure_near_pole(self, ext, model):
        # legal approach (outside the guard) but too steep for the allowed
        # subdivision depth: an arc, which transport does not split, that
        # clears omega1 by 3e-3 periods
        L = ext.lattice
        arc = _steep_arc(L, 3e-3)
        g = PathSpec(model="edagger", segments=(arc,))
        assert arc.distance(np.array([L.omega1]))[0] == pytest.approx(3e-3 * L.min_period())
        with pytest.raises(QuadratureFailure):
            chen_transport(model, g, letters=("w1",), lmax=1, tol=1e-13, max_depth=4)
        # the same geometry converges once allowed to subdivide past the
        # depth-5 halves that max_depth 4 reaches
        r = chen_transport(model, g, letters=("w1",), lmax=1, tol=1e-13, max_depth=10)
        assert len(r.panels_by_depth[0]) > 6
        assert r.split_at == (None,) and r.roots == (1,)


class _Recursive:
    """The depth-first recursion over one segment that the level-synchronous
    run replaced: the oracle for its values, error estimates, panel counts
    and failures.  It recurses from each root of each ordinary piece of the
    segment in turn (the segment itself, with the root [0, 1], unless it is
    split), folds a piece's roots left to right, and joins a split
    segment's pieces in t order, its disk piece as the run takes it
    (``_disk_pieces``); every join composes (series, error) pairs by
    ``_compose_bounded``.  Pieces, roots and panels come from the run's own
    split and panel evaluation, one panel at a time, and a failure is
    worded by the run's ``failure``.

    The rule: an interval [a, b] whose panel has largest value M is
    accepted from its one evaluation when the kernel's estimate of its
    worst word plus u M fits the budget tol ((b - a) + 0.01 max(1, M)),
    as (its panel, that estimate); otherwise its halves are evaluated, and
    it is accepted when their composition's distance from its panel plus
    u M fits, as (composed halves, that distance); otherwise, below
    ``max_depth``, each half, already evaluated, is an interval one depth
    down."""

    def __init__(self, model, seg, table, tol, max_depth):
        self.st = _SegmentTransport(model, [seg], table, tol, max_depth)
        self.table, self.tol, self.max_depth = table, tol, max_depth

    @property
    def npanels(self):
        return self.st.npanels[0]

    def panel(self, t0, t1, depth):
        vals, est = self.st.panels(np.array([self.q]), np.array([t0]), np.array([t1]), depth)
        return vals[0], est[0]

    def run(self):
        """The segment's (series, error)."""
        disks = self.st._disk_pieces()
        pair = None
        for kind, self.q in self.st.parts[0]:
            if kind == "disk":
                acc = disks[self.q]
            else:
                acc = None
                for t0, t1 in self.st.piece_roots[self.q]:
                    root = self.interval(t0, t1)
                    acc = root if acc is None else _compose_bounded(root, acc, self.table)
            pair = acc if pair is None else _compose_bounded(acc, pair, self.table)
        return pair

    def interval(self, t0, t1, depth=0, whole=None):
        # ``whole`` is this interval's (panel, estimate) when the parent has
        # already evaluated it as one of its halves
        if whole is None:
            whole = self.panel(t0, t1, depth)
        value, est = whole
        scale = max(1.0, float(np.max(np.abs(value))))
        budget = self.tol * ((t1 - t0) + 0.01 * scale)
        rounding = 2.0 ** -53 * float(np.max(np.abs(value)))
        if np.max(est) + rounding <= budget:
            return value, est
        tm = 0.5 * (t0 + t1)
        left = self.panel(t0, tm, depth + 1)
        right = self.panel(tm, t1, depth + 1)
        comp = compose_series(right[0], left[0], self.table)
        err = np.abs(comp - value)
        if np.max(err) + rounding <= budget:
            return comp, err
        if depth >= self.max_depth:
            raise self.st.failure(self.q, t0, t1, np.max(err), rounding, budget, depth)
        a = self.interval(t0, tm, depth + 1, left)
        b = self.interval(tm, t1, depth + 1, right)
        return _compose_bounded(b, a, self.table)


class _WholeEveryCall(_Recursive):
    """Adaptive transport that evaluates every interval's whole panel itself,
    even when the parent has already evaluated it as a half; ``calls``
    counts the intervals it was asked for."""

    calls = 0

    def interval(self, t0, t1, depth=0, whole=None):
        self.calls += 1
        return super().interval(t0, t1, depth)


def _one_segment(model, seg, table, tol, max_depth):
    """The level-synchronous run over one segment, as a list of one."""
    return _SegmentTransport(model, [seg], table, tol, max_depth)


def _check_depth_counts(by_depth, npanels, roots, rejected):
    """A segment's panels by depth: each root once at depth 0, then the two
    halves of every interval that its one evaluation did not accept; an
    interval whose halves did not match has its halves checked again."""
    assert sum(by_depth) == npanels
    assert list(by_depth[:1]) == ([roots] if roots else [])
    assert all(n % 2 == 0 for n in by_depth[1:])
    assert npanels >= roots + 2 * rejected


class TestHalfPanelReuse:
    @staticmethod
    def _both(model, seg, letters, lmax, tol, max_depth):
        table = _word_table(letters, lmax)
        args = (model, seg, table, tol, max_depth)
        new, old = _one_segment(*args), _WholeEveryCall(*args)
        ((vals_new, err_new),), (vals_old, err_old) = new.run(), old.run()
        assert np.array_equal(vals_new, vals_old)
        assert np.array_equal(err_new, err_old)
        # reuse saves one panel per child call, that is per call but a root's
        assert old.calls > new.roots[0]
        assert new.npanels[0] == old.npanels - (old.calls - new.roots[0])
        return new

    def test_steep_edagger_line(self, ext, model):
        # a line past omega1 at 1/25 of its length, which transport does not
        # split, bisected near the lattice point at tol 2e-14
        L = ext.lattice
        seg = _steep_line(L, 0.04 * 0.8 * abs(L.omega1) / L.min_period())
        st = self._both(model, seg, ("w1", "w2"), 2, 2e-14, 14)
        assert st.split_at == [None] and len(st.panels_by_depth[0]) > 4

    def test_steep_edagger_arc(self, ext, model):
        self._both(model, _steep_arc(ext.lattice, 3e-3), ("w1", "w2"), 2, 1e-10, 14)

    def test_p1_segment_near_zero(self):
        self._both(P1Model(), LineSeg(1e-4, 0.5), ("om0", "om1"), 3, 1e-11, 16)


def _steep_line(L, clearance, point=0, direction=0):
    """A line along a period passing ``clearance`` (in minimum periods) from
    a lattice point, as the benchmark's steep requests draw them."""
    lam = (L.omega1, L.omega2, L.omega1 + L.omega2)[point]
    along = (L.omega1, L.omega2)[direction]
    c = lam + 1j * clearance * L.min_period() * along / abs(along)
    return LineSeg(c - 0.4 * along, c + 0.4 * along)


def _steep_arc(L, clearance, point=0):
    """An arc of radius 0.4 |omega1| bulging toward a lattice point and
    clearing it by ``clearance`` (in minimum periods): steep, and never split."""
    lam = (L.omega1, L.omega2, L.omega1 + L.omega2)[point]
    R = 0.4 * abs(L.omega1)
    u = 1j * L.omega1 / abs(L.omega1)
    a = cmath.phase(-u)
    return ArcSeg(lam + (R + clearance * L.min_period()) * u, R, a - 0.25, a + 0.25)


def _translate_closed_form(L, z0, s0, nmax):
    """I(w_n), n = 0..nmax, along the translate path z0 + t omega1 with s0 -
    t eta(omega1), from sum_n I(w_n) w^n = w e^(c w) (pi cot(pi w / omega1) -
    i pi), c = -eta(omega1) z0 / omega1 - s0, for z0 / omega1 strictly
    between the rows 0 and tau: w pi cot(pi w / omega1) = omega1 -
    2 sum_k zeta(2k) w^2k / omega1^(2k-1), times the series of e^(c w)."""
    with mpmath.workdps(40):
        w1 = mpmath.mpc(L.omega1)
        c = -mpmath.mpc(eta_lambda(L, (1, 0))) * mpmath.mpc(z0) / w1 - mpmath.mpc(s0)
        A = [mpmath.mpc(0)] * (nmax + 1)
        A[0] = w1
        A[1] = -1j * mpmath.pi
        for k in range(1, nmax // 2 + 1):
            A[2 * k] = -2 * mpmath.zeta(2 * k) / w1 ** (2 * k - 1)
        ex = [c ** j / mpmath.factorial(j) for j in range(nmax + 1)]
        return [complex(mpmath.fsum(A[i] * ex[n - i] for i in range(n + 1)))
                for n in range(nmax + 1)]


def _p1_line_reference(z0, z1):
    """I(w) for the words of length <= 2 over om0 and om1 along the line
    z0 -> z1, by mpmath: I(om_b) = log((z1 - b) / (z0 - b)) and I(om_a om_b)
    = int om_a(z) log((z - b) / (z0 - b)), split at the line's closest
    approach to each puncture."""
    with mpmath.workdps(30):
        z0, z1 = mpmath.mpc(z0), mpmath.mpc(z1)
        dz = z1 - z0
        pts = {"om0": 0, "om1": 1}
        cuts = sorted({mpmath.mpf(0), mpmath.mpf(1)}
                      | {min(max(mpmath.re((b - z0) / dz), 0), 1) for b in pts.values()})

        def log_to(t, b):
            return mpmath.log((z0 + t * dz - b) / (z0 - b))

        out = {(): 1}
        for a, pa in pts.items():
            out[(a,)] = log_to(1, pa)
            for b, pb in pts.items():
                out[(a, b)] = mpmath.quad(lambda t: dz / (z0 + t * dz - pa) * log_to(t, pb), cuts)
        return {w: complex(v) for w, v in out.items()}


def _readme_path():
    return path_from_json(json.dumps({
        "model": "edagger",
        "segments": [{"kind": "line", "from": [0.70, 0.57, 0.40, -0.10],
                      "to": [2.97, 0.57, -1.05, -0.10]}],
    }))


@pytest.fixture(scope="module")
def model4():
    return EdaggerModel(ExtLattice(lattice_from_curve(CurveSpec(5, 2)), nmax=4))


class TestLevelSynchronous:
    @staticmethod
    def _against_oracle(model, seg, letters, lmax, tol=1e-10, max_depth=14):
        table = _word_table(tuple(letters), lmax)
        args = (model, seg, table, tol, max_depth)
        new, ref = _one_segment(*args), _Recursive(*args)
        ((vals, err),), (ref_vals, ref_err) = new.run(), ref.run()
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(err, ref_err)
        assert new.npanels == [ref.npanels]
        _check_depth_counts(new.panels_by_depth[0], ref.npanels, new.roots[0], new.rejected[0])
        return new

    def test_readme_integrate_path(self, model4):
        (seg,) = _readme_path().segments
        self._against_oracle(model4, seg, ("nu", "w0"), 2)

    @pytest.mark.parametrize("pair,which,lmax", [(1, 2, 4), (2, 1, 3), (2, 2, 3)])
    def test_loop_pair_library_paths(self, model4, pair, which, lmax):
        # the bulged translate path and the circle and octagon around the
        # origin, the last two only in lines and an arc
        path = loop_pair_library(model4.ext)[pair][which]
        for seg in path.segments:
            self._against_oracle(model4, seg, model4.letters(), lmax)

    @pytest.mark.parametrize("clearance", [1e-2, 3e-3, 1e-3])
    @pytest.mark.parametrize("letters", [("w1",), ("w2",), ("w3",), ("w1", "w3"), ("w2", "w3")])
    def test_steep_lines(self, model4, letters, clearance):
        # split at the closest point: along omega1 the line lies in the disk
        # and is one disk piece; along omega2, 1.49 times longer on this
        # curve, its ends are ordinary pieces from one root each
        L = model4.ext.lattice
        st = self._against_oracle(model4, _steep_line(L, clearance), letters, 2)
        assert st.split_at == [0.5] and st.roots == [0] and st.npanels == [0]
        assert [d[:2] for d in st.disk[0]] == [(0.0, 1.0)]
        st = self._against_oracle(model4, _steep_line(L, clearance, 0, 1), letters, 2)
        ((t0, t1, _),) = st.disk[0]
        assert st.split_at == [0.5] and st.roots == [2] and 0 < t0 < 0.5 < t1

    @pytest.mark.parametrize("clearance", [3e-3, 1e-3, 1e-4])
    @pytest.mark.parametrize("letters", [("w1",), ("w2",), ("w1", "w3")])
    def test_steep_arcs(self, model4, letters, clearance):
        seg = _steep_arc(model4.ext.lattice, clearance)
        st = self._against_oracle(model4, seg, letters, 2)
        assert len(st.panels_by_depth[0]) >= 5  # bisected deep near the pole

    @pytest.mark.parametrize("z0,z1", [
        (1e-4, 0.5),  # deep at the left end
        (0.5, 1e-4),  # deep at the right end
        (1e-4, 1 - 1e-4),  # deep at both ends
    ])
    def test_p1_deep_ends(self, z0, z1):
        # trees that hang off either end: at the right end the last leaf
        # completes every subtree above it at once
        st = self._against_oracle(P1Model(), LineSeg(z0, z1), ("om0", "om1"), 3, 1e-11, 16)
        assert len(st.panels_by_depth[0]) >= 10

    def test_steep_w2_to_w6_lines_converge(self):
        # lines past the lattice point omega1 at clearances down to 1e-5 of
        # the minimum period: each letter against an mpmath quadrature of
        # sigma quotients, and every pair by the shuffle relation
        L = lattice_from_curve(CurveSpec(2, 3))
        assert L.omega1 == L._w1r
        model = EdaggerModel(ExtLattice(L, nmax=6))
        ref = SigmaReference(L, dps=30, nodes=24)
        letters = tuple(f"w{n}" for n in range(2, 7))
        for clearance in (1e-2, 1e-3, 1e-4, 1e-5):
            seg = _steep_line(L, clearance)
            r = chen_transport(model, PathSpec(model="edagger", segments=(seg,)), letters=letters,
                               lmax=2, tol=1e-12)
            want, quad_err = ref.line_integrals(seg.z0, seg.z1, L.omega1, ref.eta1(), 6)
            assert quad_err < 1e-15
            for n in range(2, 7):
                got = r.values[(f"w{n}",)]
                assert abs(got - want[n - 1]) <= r.err_by_length[1] + 1e-12, (clearance, n)
            for u in letters:
                for v in letters:
                    rhs = sum(c * r.values[w] for w, c in shuffle((u,), (v,)).items())
                    assert abs(r.values[(u,)] * r.values[(v,)] - rhs) <= 1e-11, (clearance, u, v)

    def test_max_depth_failure_is_the_leftmost(self, ext, model):
        # an arc clearing omega1 by 3e-3 periods, cut off at each depth short
        # of the 6 it needs
        seg = _steep_arc(ext.lattice, 3e-3)
        table = _word_table(("w1",), 1)
        for max_depth in range(6):
            args = (model, seg, table, 1e-13, max_depth)
            with pytest.raises(QuadratureFailure) as ref:
                _Recursive(*args).run()
            with pytest.raises(QuadratureFailure) as got:
                _one_segment(*args).run()
            assert str(got.value) == str(ref.value)

    def test_one_letter_evaluation_per_depth(self, model4, monkeypatch):
        calls = []
        f_batch = chenint.f_batch
        monkeypatch.setattr(chenint, "f_batch", lambda *a: calls.append(1) or f_batch(*a))
        segs = [_steep_line(model4.ext.lattice, c, 1, 1) for c in (1e-2, 1e-3)]
        segs += list(loop_pair_library(model4.ext)[2][2].segments[:2])
        table = _word_table(("w1", "w2"), 2)
        for seg in segs:
            calls.clear()
            st = _one_segment(model4, seg, table, 1e-10, 14)
            st.run()
            assert len(calls) <= len(st.panels_by_depth[0])  # depth reached + 1
        # and all four segments in one run: one evaluation per depth in all
        calls.clear()
        st = _SegmentTransport(model4, segs, table, 1e-10, 14)
        st.run()
        assert len(calls) <= max(len(d) for d in st.panels_by_depth)

    def test_wide_depths_are_split_leftmost_first(self, model4, monkeypatch):
        # with at most one open interval per batch the walk is depth-first
        # and still the oracle's, two panels per batch at most: a root, or
        # an interval's halves
        nodes = []
        f_batch = chenint.f_batch
        monkeypatch.setattr(chenint, "f_batch", lambda E, z, s: nodes.append(len(z)) or f_batch(E, z, s))
        monkeypatch.setattr(chenint, "_BATCH_ENTRIES", 1)
        seg = _steep_arc(model4.ext.lattice, 1e-3)
        self._against_oracle(model4, seg, ("w1", "w2"), 2)
        path = loop_pair_library(model4.ext)[2][1]
        self._against_oracle(model4, path.segments[0], model4.letters(), 2)
        assert max(nodes) == 2 * 24

    def test_batch_cap(self, model4):
        # about 2^20 word-node entries of halves: 14 intervals at the
        # six-letter table to length 4, the interval cap at small tables
        def cap(letters, lmax):
            table = _word_table(letters, lmax)
            return _one_segment(model4, _readme_path().segments[0], table, 1e-10, 14).cap

        assert len(_word_table(model4.letters(), 4).words) == 1555
        assert cap(model4.letters(), 4) == 14
        assert cap(model4.letters(), 2) == chenint._BATCH_INTERVALS
        assert cap(("om0", "om1"), 8) == 42

    def test_unreachable_tolerance_fails_as_the_oracle(self, model4):
        # every interval fails: the batches stay within the open-interval
        # cap and the leftmost path down to max_depth meets the failure
        (seg,) = _readme_path().segments
        table = _word_table(("w1", "w2"), 2)
        args = (model4, seg, table, 1e-18, 14)
        with pytest.raises(QuadratureFailure) as ref:
            _Recursive(*args).run()
        st = _one_segment(*args)
        with pytest.raises(QuadratureFailure) as got:
            st.run()
        assert str(got.value) == str(ref.value)
        assert "at depth 14" in str(got.value)
        assert st.npanels[0] <= 3 + 14 * 2 * st.cap

    def test_depth_counts_sum_to_panels(self, model4):
        # a plain line and a steep one, which lies in the disk around the
        # lattice point it passes: one panel per root, two per interval that
        # its one evaluation does not accept; the steep line takes none
        L = model4.ext.lattice
        seg = _steep_line(L, 1e-3)
        path = PathSpec("edagger", (LineSeg(seg.z0 - 0.3, seg.z0), seg))
        r = chen_transport(model4, path, letters=("w1", "w2"), lmax=2, tol=1e-10)
        assert len(r.panels_by_depth) == len(r.panels_by_segment) == 2
        for by_depth, n, rejected, roots in zip(
            r.panels_by_depth, r.panels_by_segment, r.rejected_bisections, r.roots
        ):
            _check_depth_counts(by_depth, n, roots, rejected)
        assert r.split_at == (None, 0.5) and r.roots == (1, 0)
        assert r.panels_by_depth[1] == () and r.disk[0] is None
        assert [d[:2] for d in r.disk[1]] == [(0.0, 1.0)]


def _two_line_path(L):
    """A plain line, then a steep line past a lattice point."""
    seg = _steep_line(L, 1e-3)
    return PathSpec("edagger", (LineSeg(seg.z0 - 0.3, seg.z0, 0.1j, 0.2), seg.shifted(0, 0.2)))


class TestManySegments:
    @pytest.mark.parametrize("which", ["octagon", "two-line"])
    def test_path_matches_per_segment_runs(self, model4, which):
        # one run over all the segments gives every segment the values,
        # errors and counts of a run over that segment alone
        if which == "octagon":
            path, letters, lmax = loop_pair_library(model4.ext)[2][2], model4.letters(), 3
        else:
            path, letters, lmax = _two_line_path(model4.ext.lattice), ("w1", "w2"), 2
        table = _word_table(tuple(letters), lmax)
        rest = (table, 1e-10, 14)
        st = _SegmentTransport(model4, path.segments, *rest)
        pairs = st.run()
        acc = None
        for j, seg in enumerate(path.segments):
            one = _SegmentTransport(model4, [seg], *rest)
            ((vals, err),) = one.run()
            assert np.array_equal(pairs[j][0], vals)
            assert np.array_equal(pairs[j][1], err)
            assert st.npanels[j] == one.npanels[0]
            _check_depth_counts(one.panels_by_depth[0], one.npanels[0], one.roots[0],
                                one.rejected[0])
            assert st.panels_by_depth[j] == one.panels_by_depth[0]
            assert st.rejected[j] == one.rejected[0]
            assert st.split_at[j] == one.split_at[0]
            assert st.roots[j] == one.roots[0]
            acc = (vals, err) if acc is None else _compose_bounded((vals, err), acc, table)
        r = chen_transport(model4, path, letters=letters, lmax=lmax, tol=1e-10)
        acc, err = acc
        assert np.array_equal(np.array([r.values[w] for w in table.words]), acc)
        assert r.err_by_length == {
            n: float(np.max(err[table.lengths == n])) for n in range(lmax + 1)}
        assert r.panels_by_segment == tuple(st.npanels)
        assert r.panels_by_depth == tuple(tuple(d) for d in st.panels_by_depth)
        assert r.rejected_bisections == tuple(st.rejected)
        assert r.split_at == tuple(st.split_at)
        assert r.roots == tuple(st.roots)
        assert r.disk == tuple(st.disk)
        if which == "two-line":
            assert r.split_at == (None, 0.5) and r.roots == (1, 0)

    def test_p1_deep_ends_match_per_segment_runs(self):
        # bisection trees deep at the left end, at the right end and at both
        # ends, in one run, each as in a run over that segment alone
        model = P1Model()
        segs = [LineSeg(1e-4, 0.5), LineSeg(0.5, 1 - 1e-4), LineSeg(1e-4, 1 - 1e-4)]
        rest = (_word_table(("om0", "om1"), 3), 1e-11, 16)
        st = _SegmentTransport(model, segs, *rest)
        pairs = st.run()
        for j, seg in enumerate(segs):
            one = _one_segment(model, seg, *rest)
            ((vals, err),) = one.run()
            assert np.array_equal(pairs[j][0], vals)
            assert np.array_equal(pairs[j][1], err)
            assert st.npanels[j] == one.npanels[0]
            assert st.panels_by_depth[j] == one.panels_by_depth[0]
            assert st.rejected[j] == one.rejected[0]

    def test_failure_is_the_leftmost_segment(self, model4):
        # two steep segments cut off short of the depth they need: the run
        # fails on the first, as segment-by-segment runs did
        L = model4.ext.lattice
        a, b = _steep_arc(L, 3e-3), _steep_arc(L, 1e-3, 1)
        table = _word_table(("w1",), 1)
        args = (table, 1e-13, 3)
        alone = {}
        for seg in (a, b):
            with pytest.raises(QuadratureFailure) as ref:
                _one_segment(model4, seg, *args).run()
            alone[seg] = str(ref.value)
        assert alone[a] != alone[b]
        for segs in ((a, b), (b, a)):
            with pytest.raises(QuadratureFailure) as got:
                _SegmentTransport(model4, segs, *args).run()
            assert str(got.value) == alone[segs[0]]

    def test_guard_violation_before_any_transport(self, ext, model, monkeypatch):
        # a later segment through a lattice point stops the run before the
        # first segment is evaluated
        calls = []
        kernel = _kernels.panel_transport
        monkeypatch.setattr(_kernels, "panel_transport", lambda *a: calls.append(1) or kernel(*a))
        z0 = _base(ext)
        path = PathSpec("edagger", (
            LineSeg(z0, 0.5 * ext.lattice.omega1),
            LineSeg(0.5 * ext.lattice.omega1, -0.5 * ext.lattice.omega1),
        ))
        with pytest.raises(GuardViolation):
            chen_transport(model, path, letters=("w1",), lmax=1, tol=1e-8)
        assert calls == []

    def test_punctures_from_one_reduction(self, ext, model):
        # all corners reduced in one array call give the lattice points that
        # a reduction per corner gives, in the same order
        L = ext.lattice

        def per_corner(corners):
            ms, ns = zip(*(reduce_mod_lattice(L, c)[1] for c in corners))
            return [m * L.omega1 + n * L.omega2
                    for m in range(min(ms) - 2, max(ms) + 3)
                    for n in range(min(ns) - 2, max(ns) + 3)]

        segs = [seg for _, g1, g2 in loop_pair_library(ext) for g in (g1, g2) for seg in g.segments]
        rng = np.random.default_rng(17)
        for _ in range(40):
            z0, z1 = rng.uniform(-4, 4, 2) + 1j * rng.uniform(-4, 4, 2)
            a0, a1 = rng.uniform(-7, 7, 2)
            segs += [LineSeg(z0, z1), ArcSeg(z0, abs(z1) / 2, a0, a1)]
        for seg in segs:
            got = model.punctures(seg.corners)
            assert np.array_equal(got, per_corner(seg.corners)), seg


@functools.lru_cache(maxsize=None)
def _split_line_references(curve):
    """Lines past omega1, omega2 and omega1 + omega2, along the shortest
    period (and omega2 along itself), at clearances of 1e-2 to 1e-5 of it,
    each clearance on two curves at least, with each letter's integral by
    mpmath: (model, [(point, clearance, line, values)])."""
    L = lattice_from_curve(CurveSpec(*((2, 3), (5, 2), (1, -3))[curve]))
    model = EdaggerModel(ExtLattice(L, nmax=6))
    ref = SigmaReference(L, dps=30, nodes=24)
    lines = []
    for point in range(3):
        clearance = (1e-2, 1e-3, 1e-4, 1e-5)[(curve + point) % 4]
        lam = (L._w1r, L._w2r, L._w1r + L._w2r)[point]
        along = (L._w1r, L._w2r, L._w1r)[point]
        c = lam + 1j * clearance * abs(L._w1r) * along / abs(along)
        seg = LineSeg(c - 0.4 * along, c + 0.4 * along)
        want, quad_err = ref.line_integrals(seg.z0, seg.z1, lam, ref.eta(lam), 6)
        assert quad_err < 1e-15
        lines.append((point, clearance, seg, want))
    return model, lines


class TestPoleSplit:
    @pytest.mark.parametrize("curve", [0, 1, 2])
    def test_split_lines_match_reference(self, curve):
        # each letter against an mpmath quadrature of sigma quotients, at
        # the default max_depth
        model, lines = _split_line_references(curve)
        letters = tuple(f"w{n}" for n in range(1, 7))
        for point, clearance, seg, want in lines:
            r = chen_transport(model, PathSpec("edagger", (seg,)), letters=letters, lmax=2, tol=1e-12)
            assert r.split_at[0] == pytest.approx(0.5) and r.rejected_bisections == (0,)
            for n in range(1, 7):
                got = r.values[(f"w{n}",)]
                assert abs(got - want[n - 1]) <= r.err_by_length[1] + 1e-13, (point, clearance, n)

    @pytest.mark.parametrize("tol", [1e-10, 1e-14])
    @pytest.mark.parametrize("curve", [0, 1, 2])
    def test_split_lines_match_reference_at_tol(self, curve, tol):
        # the lines of test_split_lines_match_reference at the loosest and
        # the tightest tolerance: the part of each within half a period of
        # the lattice point is one disk piece, whose degree follows tol, so
        # no panel comes nearer than that; only the line along omega2 on
        # (5, 2), 1.49 times the shortest period, leaves the disk, its ends
        # from one root each
        model, lines = _split_line_references(curve)
        letters = tuple(f"w{n}" for n in range(1, 7))
        for point, clearance, seg, want in lines:
            r = chen_transport(model, PathSpec("edagger", (seg,)), letters=letters, lmax=2, tol=tol)
            ((t0, t1, _),) = r.disk[0]
            assert t0 < r.split_at[0] < t1 and r.roots[0] == (t0 > 0) + (t1 < 1)
            assert (t0, t1) == (0.0, 1.0) or (curve, point) == (1, 1)
            for n in range(1, 7):
                got = r.values[(f"w{n}",)]
                assert abs(got - want[n - 1]) <= r.err_by_length[1] + 1e-13, (point, clearance, n)

    @pytest.mark.parametrize("curve", [(2, 3), (5, 2), (1, -3)])
    def test_composed_estimate_covers_split_lines(self, curve):
        # lines past omega1 at clearances 1e-2 to 1e-4 of it, each one disk
        # piece: the error of the words w_n w_n, the disk's tail bound and
        # rounding estimate carried through the antipode and the
        # composition, covers their distance from I(w_n)^2 / 2 (shuffle),
        # I(w_n) by mpmath.  At this tol the rounding dominates.
        L = lattice_from_curve(CurveSpec(*curve))
        model = EdaggerModel(ExtLattice(L, nmax=3))
        ref = SigmaReference(L, dps=30, nodes=24)
        lam, eta = L._w1r, ref.eta(L._w1r)
        letters = ("w1", "w2", "w3")
        for clearance in (1e-2, 1e-3, 1e-4):
            c = lam + 1j * clearance * abs(lam) * lam / abs(lam)
            seg = LineSeg(c - 0.4 * lam, c + 0.4 * lam)
            r = chen_transport(model, PathSpec("edagger", (seg,)), letters=letters, lmax=2,
                               tol=1e-12)
            assert r.split_at[0] == pytest.approx(0.5) and r.rejected_bisections == (0,)
            want, quad_err = ref.line_integrals(seg.z0, seg.z1, lam, eta, 3)
            assert quad_err < 1e-15
            for n, a in enumerate(letters):
                actual = abs(r.values[(a, a)] - want[n] ** 2 / 2)
                assert actual <= r.err_by_length[2], (clearance, a, actual)

    @pytest.mark.parametrize("curve", [(5, 2), (2, 3), (1, -3)])
    def test_estimate_covers_translate_paths(self, curve):
        # z0 + t omega1 from the middle of the strip between two rows of
        # lattice points and from 3% of the row spacing above one (split on
        # two of the curves): every word's estimate covers its distance from
        # the closed form sum_n I(w_n) w^n = w e^(c w) (pi cot(pi w / omega1)
        # - i pi), c = -eta(omega1) z0 / omega1 - s0, beyond the rounding
        # of the letters and panel sums, a few u max(1, |I|), which the
        # estimate does not carry (w0, which every panel integrates exactly,
        # has estimate 0).  At tol 1e-8 a root is accepted from its one
        # evaluation.
        L = lattice_from_curve(CurveSpec(*curve))
        model = EdaggerModel(ExtLattice(L, nmax=6))
        letters = tuple(f"w{n}" for n in range(7))
        table = _word_table(letters, 1)
        one_evaluation = 0
        for u, v, s0 in ((0.3, 0.5, 0.4 - 0.1j), (0.7, 0.03, -0.2 + 0.3j)):
            z0 = u * L.omega1 + v * L.omega2
            want = _translate_closed_form(L, z0, s0, 6)
            path = translate_path(L, (1, 0), z0, s0)
            for tol in (1e-12, 1e-8):
                st = _SegmentTransport(model, path.segments, table, tol, 14)
                ((got, err),) = st.run()
                one_evaluation += st.npanels[0] == st.roots[0]
                for n, a in enumerate(letters):
                    i = table.index[(a,)]
                    actual = abs(got[i] - want[n])
                    rounding = 8 * chenint._U * max(1.0, abs(want[n]))
                    assert actual <= err[i] + rounding, (u, tol, a)
        assert one_evaluation > 0

    def test_estimate_covers_p1_lines(self):
        # genus-zero lines near and far from the punctures: every word of
        # length <= 2 against an mpmath quadrature of om_a log(...), beyond
        # the rounding of the panel sums, which the estimate does not carry;
        # the genus-zero middle piece [1/4, 3/4] is accepted from its one
        # evaluation at tol 1e-8
        table = _word_table(("om0", "om1"), 2)
        lines = [(1e-2, 0.99), (0.25, 0.75), (-0.5 + 1e-3j, 0.5 + 1e-3j),
                 (0.3 + 0.4j, 1.5 - 0.2j), (1e-4, 0.5), (2 + 1j, -1 + 0.05j)]
        for z0, z1 in lines:
            want = _p1_line_reference(z0, z1)
            for tol in (1e-12, 1e-8):
                st = _SegmentTransport(P1Model(), [LineSeg(z0, z1)], table, tol, 16)
                ((got, err),) = st.run()
                if (z0, z1, tol) == (0.25, 0.75, 1e-8):
                    assert st.npanels == [1]
                for w, i in table.index.items():
                    actual = abs(got[i] - want[w])
                    rounding = 8 * chenint._U * max(1.0, abs(want[w]))
                    assert actual <= err[i] + rounding, (z0, z1, tol, w)

    @pytest.mark.parametrize("clearance", [1e-2, 1e-3])
    def test_steep_lines_take_one_evaluation_per_root(self, clearance, monkeypatch):
        # the benchmark's steep lines on the curve (2, 3): past each of three
        # lattice points along either period, one or two letters of w1..w3
        # to length 2 at tol 1e-10.  Either period is shorter than 1.25
        # times the other, so each line lies in the disk around its lattice
        # point: it has no root, and neither the letters nor the panel
        # kernel are evaluated; its error stays far below tol
        calls = []
        kernel, f_batch = _kernels.panel_transport, chenint.f_batch
        monkeypatch.setattr(_kernels, "panel_transport", lambda *a: calls.append(1) or kernel(*a))
        monkeypatch.setattr(chenint, "f_batch", lambda *a: calls.append(1) or f_batch(*a))
        L = lattice_from_curve(CurveSpec(2, 3))
        model = EdaggerModel(ExtLattice(L, nmax=4))
        sets = [(f"w{n}",) for n in (1, 2, 3)] + [("w1", "w2"), ("w1", "w3"), ("w2", "w3")]
        for point in range(3):
            for direction in range(2):
                seg = _steep_line(L, clearance, point, direction)
                for letters in sets:
                    r = chen_transport(model, PathSpec("edagger", (seg,)), letters=letters,
                                       lmax=2, tol=1e-10)
                    assert r.split_at[0] is not None
                    assert [d[:2] for d in r.disk[0]] == [(0.0, 1.0)]
                    assert r.panels_by_segment == r.roots == (0,), (point, direction, letters)
                    assert max(r.err_by_length.values()) <= 0.01 * 1e-10
        assert calls == []

    def test_antipode_on_random_lines(self, model4):
        # reversing a line, split or not, gives the antipode of its series;
        # the antipode of a table's series is the word-by-word identity
        L = model4.ext.lattice
        table = _word_table(("nu", "w1", "w2"), 3)
        rng = np.random.default_rng(23)
        splits = set()
        for k in range(6):
            lam = rng.integers(-1, 2) * L.omega1 + rng.integers(-1, 2) * L.omega2
            clearance = 10.0 ** (0.7 * k - 4) * L.min_period()
            c = lam + clearance * np.exp(2j * np.pi * rng.uniform())
            along = 0.4 * abs(L.omega2) * np.exp(2j * np.pi * rng.uniform())
            s0, s1 = rng.normal(size=2) + 1j * rng.normal(size=2)
            g = line_path("edagger", c - rng.uniform(0.2, 1) * along, c + along, s0, s1)
            fwd = chen_transport(model4, g, letters=table.letters, lmax=3, tol=1e-12)
            bwd = chen_transport(model4, reverse_path(g), letters=table.letters, lmax=3, tol=1e-12)
            splits.add(fwd.split_at[0] is not None)
            a = np.array([fwd.values[w] for w in table.words])
            b = np.array([bwd.values[w] for w in table.words])
            anti = table.antipode(a)
            for i, w in enumerate(table.words):
                assert anti[i] == (-1) ** len(w) * a[table.index[w[::-1]]]
            assert np.all(np.abs(anti - b) <= 1e-10 * np.maximum(1, np.abs(b))), g
        assert splits == {False, True}

    def test_split_at_an_end(self, model4):
        # a line that starts at its closest approach, and its reverse, which
        # ends there: each one disk piece, from and to a point at 1e-3 of a
        # period from omega1, against mpmath; and each other's antipode
        L = model4.ext.lattice
        u = 1j * L.omega1 / abs(L.omega1)
        seg = LineSeg(L.omega1 + 1e-3 * L.min_period() * u, L.omega1 + 0.5 * abs(L.omega1) * u)
        table = _word_table(("w1", "w2"), 2)
        ref = SigmaReference(L, dps=30, nodes=24)
        want, _ = ref.line_integrals(seg.z0, seg.z1, L.omega1, ref.eta(L.omega1), 2)
        pairs = []
        for g, t in ((seg, 0.0), (seg.reversed(), 1.0)):
            st = _SegmentTransport(model4, [g], table, 1e-12, 14)
            ((got, err),) = st.run()
            assert st.split_at == [t] and st.segs == () and st.roots == [0]
            assert [d[:2] for d in st.disk[0]] == [(0.0, 1.0)]
            pairs.append((got, err))
            if t:
                got = table.antipode(got)
            for n in (1, 2):
                i = table.index[(f"w{n}",)]
                assert abs(got[i] - want[n - 1]) <= err[i] + 1e-13
        (fwd, e_fwd), (bwd, e_bwd) = pairs
        rounding = 8 * chenint._U * np.maximum(1, np.abs(bwd))
        assert np.all(np.abs(table.antipode(fwd) - bwd) <= e_fwd[table._reversal] + e_bwd + rounding)

    def test_unsplit_paths_are_plain_runs(self, model4):
        # paths that pass no puncture closer than 1/32 of a line's length,
        # arcs, and genus-zero lines (also steep ones) get the floats of a
        # depth-first recursion from one root per segment
        L = model4.ext.lattice
        runs = [(model4, g, model4.letters(), 3)
                for _, g1, g2 in loop_pair_library(model4.ext) for g in (g1, g2)]
        runs += [(model4, translate_path(L, mn, 0.1 * L.omega1 + 0.1 * L.omega2, 0.2j),
                  model4.letters(), 3) for mn in ((1, 0), (0, 1))]
        runs.append((model4, _readme_path(), ("nu", "w0"), 2))
        p1 = P1Model()
        runs += [(p1, line_path("p1", z0, z1), ("om0", "om1"), 3) for z0, z1 in (
            (-0.5 + 1e-3j, 0.5 + 1e-3j), (1e-4, 0.5), (chenint._DELTA, 1 - chenint._DELTA))]
        for model, path, letters, lmax in runs:
            r = chen_transport(model, path, letters=letters, lmax=lmax, tol=1e-10)
            assert r.split_at == (None,) * len(path.segments)
            assert r.roots == (1,) * len(path.segments)
            table = _word_table(tuple(letters), lmax)
            acc, npanels = None, []
            for seg in path.segments:
                ref = _Recursive(model, seg, table, 1e-10, 14)
                pair = ref.run()
                assert ref.st.piece_roots == (((0.0, 1.0),),)
                acc = pair if acc is None else _compose_bounded(pair, acc, table)
                npanels.append(ref.npanels)
            acc, err = acc
            assert np.array_equal(np.array([r.values[w] for w in table.words]), acc)
            assert r.err_by_length == {
                n: float(np.max(err[table.lengths == n])) for n in range(lmax + 1)}
            assert r.panels_by_segment == tuple(npanels)

    def test_split_failure_is_named_in_the_segment_t(self, model4, monkeypatch):
        # below the attainable tolerance a split line's disk piece fails,
        # its rounding u M above its budget, named in the line's own t, and
        # before any panel of the path is evaluated, as the depth-first
        # oracle fails
        calls = []
        kernel = _kernels.panel_transport
        monkeypatch.setattr(_kernels, "panel_transport", lambda *a: calls.append(1) or kernel(*a))
        L = model4.ext.lattice
        seg = _steep_line(L, 3e-3)
        path = PathSpec("edagger", (LineSeg(seg.z0 - 0.3, seg.z0), seg))
        table = _word_table(("w1",), 1)
        for max_depth in range(5):
            args = (table, 1e-16, max_depth)
            with pytest.raises(QuadratureFailure) as ref:
                _Recursive(model4, seg, *args).run()
            with pytest.raises(QuadratureFailure) as got:
                _SegmentTransport(model4, path.segments, *args).run()
            assert str(got.value) == str(ref.value).replace("segment 0", "segment 1")
            msg = str(got.value)
            assert msg.startswith("segment 1: disk [0.000000, 1.000000] around its split at "
                                  "0.500000 bounded by ")
            assert "(budget 1.0" in msg and "at degree" in msg
        assert calls == []
        # at 1e-15 the same line converges
        r = chen_transport(model4, path, letters=("w1",), lmax=1, tol=1e-15)
        assert r.split_at == (None, 0.5) and r.roots == (1, 0)

    @pytest.mark.parametrize("tol,fails", [(1e-14, True), (2e-14, False)])
    def test_rounding_limits_depth_near_1e_14(self, model4, tol, fails):
        # u max|whole| >= u must fit in tol ((b - a) + 0.01 max|whole|): at
        # tol 1e-14 no panel narrower than about 1.1e-3 is accepted, so an
        # arc or a genus-zero line that needs depth 10 or more fails, and a
        # shallower one converges; from 2e-14 up the width is free
        L = model4.ext.lattice
        deep = [(model4, PathSpec("edagger", (_steep_arc(L, 3e-3),)), ("w1",)),
                (P1Model(), line_path("p1", 1e-4, 0.5), ("om0", "om1"))]
        shallow = [(model4, PathSpec("edagger", (_steep_arc(L, 3e-2),)), ("w1",)),
                   (P1Model(), line_path("p1", 1e-2, 0.99), ("om0", "om1"))]
        for model, path, letters in deep:
            if fails:
                with pytest.raises(QuadratureFailure, match="at depth 14"):
                    chen_transport(model, path, letters=letters, lmax=2, tol=tol)
            else:
                r = chen_transport(model, path, letters=letters, lmax=2, tol=tol)
                assert len(r.panels_by_depth[0]) > 11
        for model, path, letters in shallow:
            r = chen_transport(model, path, letters=letters, lmax=2, tol=tol)
            assert len(r.panels_by_depth[0]) <= 10

    @pytest.mark.parametrize("curve", [(2, 3), (5, 2), (1, -3)])
    def test_disk_bound_covers_a_run_at_twice_the_degree(self, curve):
        # the disk's bound on its cut tails covers its distance from the same
        # disk taken at twice its degree, word by word, beyond the two runs'
        # rounding: lines past omega1 and omega2 with s varying, over the
        # full four-letter alphabet; the degree grows as tol falls
        L = lattice_from_curve(CurveSpec(*curve))
        model = EdaggerModel(ExtLattice(L, nmax=4))
        table = _word_table(tuple(model.letters()), 3)
        degrees = {}
        for tol in (1e-4, 1e-8, 1e-12):
            for point, clearance in ((0, 1e-2), (1, 1e-4)):
                seg = _steep_line(L, clearance, point)
                st = _SegmentTransport(model, [seg.shifted(0, 0.3 - 0.2j)], table, tol, 14)
                ((j, t, t0, t1, *line),) = st.disks
                series, bound, own, D = chenint._disk_piece(model.ext, table, *line, 0.01 * tol)
                twice, _, own2, _ = chenint._disk_piece(model.ext, table, *line, 0, 2 * D)
                assert np.all(np.abs(series - twice) <= bound + own + own2), (tol, point)
                assert bound.max() <= 0.01 * tol
                degrees.setdefault(point, []).append(D)
        assert all(a < b < c for a, b, c in degrees.values())

    @pytest.mark.parametrize("curve", [(2, 3), (5, 2), (1, -3)])
    def test_split_lines_with_varying_s_match_reference(self, curve):
        # s carried linearly along the line, so s = alpha + beta x in the
        # disk with beta != 0: each letter against mpmath, past omega1 along
        # omega1, and past omega2 along omega2, which leaves the disk on
        # (5, 2), whose omega2 is 1.49 times its omega1
        L = lattice_from_curve(CurveSpec(*curve))
        model = EdaggerModel(ExtLattice(L, nmax=4))
        ref = SigmaReference(L, dps=30, nodes=24)
        letters = tuple(f"w{n}" for n in range(1, 5))
        for point, clearance, (sa, sb) in ((0, 1e-3, (0.4 - 0.1j, -0.3 + 0.5j)),
                                            (1, 1e-5, (1.1j, 0.6))):
            lam = (L.omega1, L.omega2)[point]
            seg = _steep_line(L, clearance, point, point)
            seg = LineSeg(seg.z0, seg.z1, sa, sb)
            r = chen_transport(model, PathSpec("edagger", (seg,)), letters=letters, lmax=1,
                               tol=1e-12)
            ((t0, t1, _),) = r.disk[0]
            assert (t0 > 0) == (t1 < 1) == (curve == (5, 2) and point == 1)
            want, quad_err = ref.line_integrals(seg.z0, seg.z1, lam, ref.eta(lam), 4, sa, sb)
            assert quad_err < 1e-15
            for n in range(1, 5):
                got = r.values[(f"w{n}",)]
                assert abs(got - want[n - 1]) <= r.err_by_length[1] + 1e-13, (point, n)

    def test_split_lines_and_their_reverse(self, model4):
        # a split line's series and its reverse's are each other's antipode,
        # up to both errors and the rounding: lines in the disk and leaving
        # it, s varying, the full alphabet to length 3
        L = model4.ext.lattice
        table = _word_table(tuple(model4.letters()), 3)
        disks = set()
        for point, direction, clearance in ((0, 0, 1e-3), (1, 1, 1e-2), (2, 0, 1e-5)):
            seg = _steep_line(L, clearance, point, direction)
            g = line_path("edagger", seg.z0, seg.z1, 0.2 + 0.1j, -0.4j)
            pairs = []
            for path in (g, reverse_path(g)):
                r = chen_transport(model4, path, letters=table.letters, lmax=3, tol=1e-12)
                e = np.array([r.err_by_length[len(w)] for w in table.words])
                pairs.append((np.array([r.values[w] for w in table.words]), e))
                disks.add([d[:2] for d in r.disk[0]] == [(0.0, 1.0)])
            (fwd, e_fwd), (bwd, e_bwd) = pairs
            rounding = 8 * chenint._U * np.maximum(1, np.abs(bwd))
            assert np.all(np.abs(table.antipode(fwd) - bwd) <= e_fwd + e_bwd + rounding)
        assert disks == {False, True}

    @pytest.mark.parametrize("curve", [(2, 3), (5, 2), (1, -3)])
    def test_translate_paths_past_two_lattice_points(self, curve):
        # z0 + t omega1 from just above the lattice point 0 to just above
        # omega1: a disk piece at each end, each in its own lattice point's
        # cell, and one ordinary piece between them; every letter against
        # the closed form, words w_n w_n against I(w_n)^2 / 2 (shuffle).
        # Down to clearance 1e-4 at tol 1e-12 the far end, reached by
        # bisection, failed when only the nearest lattice point was split
        L = lattice_from_curve(CurveSpec(*curve))
        model = EdaggerModel(ExtLattice(L, nmax=4))
        letters = tuple(f"w{n}" for n in range(5))
        for clearance in (1e-3, 1e-5):
            z0 = 1j * clearance * L.min_period() * L.omega1 / abs(L.omega1)
            want = _translate_closed_form(L, z0, 0.3 - 0.2j, 4)
            for tol in (1e-10, 1e-12):
                r = chen_transport(model, translate_path(L, (1, 0), z0, 0.3 - 0.2j),
                                   letters=letters, lmax=2, tol=tol)
                (t0, _, _), (_, t1, _) = r.disk[0]
                assert r.split_at[0] in (0.0, 1.0) and (t0, t1) == (0.0, 1.0)
                assert r.roots == (1,) and r.rejected_bisections == (0,)
                for n, a in enumerate(letters):
                    rounding = 8 * chenint._U * max(1.0, abs(want[n]))
                    assert abs(r.values[(a,)] - want[n]) <= r.err_by_length[1] + rounding
                    actual = abs(r.values[(a, a)] - want[n] ** 2 / 2)
                    assert actual <= r.err_by_length[2] + rounding * max(1.0, abs(want[n]))

    def test_disk_span(self):
        # the part of a line within a radius of 0: the closest approach's t
        # and the span, clipped to the line; None when the line stays outside
        span = chenint._disk_span
        seg = LineSeg(-2 + 0.6j, 2 + 0.6j)
        assert span(seg, 0.5) is None
        t, t0, t1 = span(seg, 1.0)
        assert t == 0.5 and t0 == pytest.approx(0.3) and t1 == pytest.approx(0.7)
        assert span(LineSeg(0.6j, 2 + 0.6j), 1.0) == (0.0, 0.0, pytest.approx(0.4))
        assert span(LineSeg(-0.4 + 0.1j, 0.3 + 0.1j), 1.0) == (pytest.approx(4 / 7), 0.0, 1.0)
        assert span(LineSeg(1 + 0.6j, 2 + 0.6j), 1.0) is None


class TestBarPairing:
    def test_counit_and_empty(self, ext, model):
        g = line_path("edagger", _base(ext), _base(ext) + 0.5, 0j, 0.5j)
        empty = BarElement()
        assert eval_bar_element(model, empty, g) == 0j
        unit = BarElement()
        unit.add_term((), 3)
        assert eval_bar_element(model, unit, g) == 3.0 + 0j

    def test_single_letter_element(self, ext, model):
        L = ext.lattice
        S = canonical_series(3, 2)
        g = translate_path(L, (1, 0), _base(ext), 0.4 - 0.1j)
        # c_"0" = -[nu]; transport of nu along the translate gives -eta1
        val = eval_bar_element(model, c_w(S, "0"), g, tol=1e-12)
        assert abs(val - eta_lambda(L, (1, 0))) < 1e-10

    def test_eval_with_shared_result(self, ext, model):
        S = canonical_series(3, 2)
        xi = c_w(S, "01")
        g = line_path("edagger", _base(ext), _base(ext) + 0.4, 0.1j, 0.7)
        res = chen_transport(model, g, letters=("nu", "w0", "w1"), lmax=2, tol=1e-12)
        direct = eval_bar_element(model, xi, g, tol=1e-12)
        assert abs(eval_bar_with_result(xi, res) - direct) < 1e-12


def _on_both_paths(model, xi, g1, g2, tol=1e-10):
    """The element's values on both paths, which must share endpoints (up to
    a lattice translation in the curve model)."""
    for p, q, name in ((g1.start, g2.start, "start"), (g1.end, g2.end, "end")):
        if model.congruence_offset(p, q) is None:
            raise EndpointMismatch(f"paths differ at {name}: {p} vs {q}")
    return eval_bar_element(model, xi, g1, tol=tol), eval_bar_element(model, xi, g2, tol=tol)


class TestHomotopy:
    def test_curated_pairs_certified(self, ext, model):
        pairs = loop_pair_library(ext)
        assert len(pairs) == 3
        for name, g1, g2 in pairs:
            cert = homotopy_certificate(model, g1, g2)
            assert cert["ok"], f"pair {name} failed its certificate"
            assert cert["min_distance"] > 10 * model.guard

    def test_fold_through_lattice_point_rejected(self, ext, model):
        # g2 doubles back, so the straight-line homotopy passes over the
        # lattice point 0 between the nodes of any coarse grid
        L = ext.lattice
        sc = 0.2 * L.min_period()

        def poly(*xy):
            zs = [sc * ((x - 0.8) + 1j * (y - 0.5)) for x, y in xy]
            return PathSpec("edagger", tuple(LineSeg(a, b) for a, b in zip(zs, zs[1:])))

        g1 = poly((0, 0), (1, 0), (2, 0), (3, 0))
        g2 = poly((0, 0), (1, 2), (0.1, 0.1), (3, 0))
        cert = homotopy_certificate(model, g1, g2)
        assert not cert["ok"]
        assert cert["min_distance"] <= 10 * model.guard

    @staticmethod
    def _sampled_min(g1, g2, dist, n=1001):
        t = np.linspace(0.0, 1.0, n)
        z1, _ = g1.at(t)
        z2, _ = g2.at(t)
        u = t[:, None]
        return float(dist((1 - u) * z1 + u * z2).min())

    def test_bound_below_sampled_distance(self, ext, model):
        L = ext.lattice

        def dist(z):
            # the nearest of the nine lattice points around the reduced point
            z0 = _reduce(z, L._w1r, L._w2r, L._red_inv)[0]
            return np.min([np.abs(z0 - (i * L._w1r + j * L._w2r))
                           for i in (-1, 0, 1) for j in (-1, 0, 1)], axis=0)

        for name, g1, g2 in loop_pair_library(ext):
            cert = homotopy_certificate(model, g1, g2)
            sampled = self._sampled_min(g1, g2, dist)
            assert 10 * model.guard < cert["min_distance"] <= sampled, name

    def test_p1_pairs(self):
        model = P1Model()

        def dist(z):
            return np.minimum(np.abs(z), np.abs(z - 1.0))

        # over and under (0.3, 0.7): the swept region holds no puncture
        over = PathSpec("p1", (ArcSeg(0.5, 0.2, math.pi, 0.0),))
        under = PathSpec("p1", (LineSeg(0.3, 0.5 - 0.2j), LineSeg(0.5 - 0.2j, 0.7)))
        cert = homotopy_certificate(model, over, under)
        assert cert["ok"]
        assert 10 * model.guard < cert["min_distance"] <= self._sampled_min(over, under, dist)
        # over and under 1, from 0.5 to 1.5: the homotopy sweeps across 1
        over = PathSpec("p1", (ArcSeg(1.0, 0.5, math.pi, 0.0),))
        under = PathSpec("p1", (ArcSeg(1.0, 0.5, math.pi, 2 * math.pi),))
        assert not homotopy_certificate(model, over, under)["ok"]

    def test_closed_element_invariant(self, ext, model):
        S = canonical_series(4, 2)
        xi = c_w(S, "01")
        for name, g1, g2 in loop_pair_library(ext):
            v1, v2 = _on_both_paths(model, xi, g1, g2, tol=1e-12)
            assert abs(v1 - v2) < 1e-9, f"pair {name}: {abs(v1 - v2)}"

    def test_non_closed_letter_stokes(self, ext, model):
        name, g1, g2 = loop_pair_library(ext)[0]
        w1 = BarElement()
        w1.add_term(("w1",), 1)
        v1, v2 = _on_both_paths(model, w1, g1, g2, tol=1e-12)
        predicted = stokes_defect(ext, "w1", g1, g2)
        actual = v1 - v2
        assert abs(actual) > 1e-3
        assert abs(actual - predicted) < 1e-8

    def test_mismatched_endpoints_rejected(self, ext, model):
        z0 = _base(ext)
        g1 = line_path("edagger", z0, z0 + 0.5)
        g2 = line_path("edagger", z0, z0 + 0.5j)
        xi = BarElement()
        xi.add_term(("nu",), 1)
        with pytest.raises(EndpointMismatch):
            _on_both_paths(model, xi, g1, g2)


class TestRegularized:
    def test_single_letters_vanish(self):
        assert abs(regularized_integral_p1("0")) < 1e-10
        assert abs(regularized_integral_p1("1")) < 1e-10

    def test_depth_one(self):
        assert abs(regularized_integral_p1("01") + ZETA2) < 1e-10
        assert abs(regularized_integral_p1("001") + ZETA3) < 1e-10
        assert abs(regularized_integral_p1("0001") + ZETA4) < 1e-10

    def test_depth_two(self):
        # om0 om1 om1 is the depth-2 pair (2,1)
        assert abs(regularized_integral_p1("011") - ZETA3) < 1e-10
        v41 = regularized_integral_p1("00011")
        assert abs(v41 - (2 * Z5 - ZETA2 * ZETA3)) < 1e-9

    def test_weight_eight(self):
        v = regularized_integral_p1("01010101")
        assert abs(v - math.pi**8 / math.factorial(9)) < 1e-9

    def test_shuffle_regularization(self):
        # I(0)I(1) = I(01) + I(10) with both single letters regularized to 0
        full = regularized_integral_p1("10", full=True)
        assert abs(full["value"] - ZETA2) < 1e-9
        # I(0) ~ -log eps and I(1) ~ +log eps, so I(10) carries -log^2 eps
        assert abs(full["log_coefficients"][0]) < 1e-8
        assert abs(full["log_coefficients"][1] + 1.0) < 1e-8

    def test_word_forms(self):
        a = regularized_integral_p1("01")
        b = regularized_integral_p1((0, 1))
        c = regularized_integral_p1(("om0", "om1"))
        assert a == b == c
        with pytest.raises(ValueError):
            regularized_integral_p1("02")
        with pytest.raises(ValueError):
            regularized_integral_p1("")


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_regularized_matches_series_on_supported_indices():
    # every supported index, the nine on which the former cutoff fit failed
    # included, against the Hölder series
    indices = _perfbench_workloads().supported_indices()
    assert len(indices) == 63
    for ks in indices:
        assert abs(mzv_integral(ks) - mzv_series(ks, tol=1e-14)) <= 1e-12, ks


def test_tangential_tail_bound():
    # per factor and at both ends, the propagated bound covers the tail that
    # doubling K adds and is within 2x of it; at K = 8 the tails stand far
    # above rounding.  Words of om0 alone have no tail.  At the K used the
    # bound is below 1e-19
    for ks in _perfbench_workloads().supported_indices():
        table = chenint._factor_table(("om0", "om1"), chenint._p1_word(MZVIndex(ks).word()))
        for right in (False, True):
            value, bound = chenint._tangential_series(table, 8, right)
            diff = np.abs(value - chenint._tangential_series(table, 16, right)[0])
            assert np.all(diff <= bound) and np.all(bound <= 2 * diff), (ks, right)
            assert np.all(chenint._tangential_series(table, chenint._K, right)[1] < 1e-19)


def test_regularized_run_statistics():
    full = regularized_integral_p1("0011", full=True)
    table = chenint._factor_table(("om0", "om1"), ("om0", "om0", "om1", "om1"))
    halves = [LineSeg(chenint._DELTA, 0.5), LineSeg(0.5, 1 - chenint._DELTA)]
    st = _SegmentTransport(P1Model(), halves, table, 1e-11, 16)
    st.run()
    assert full["panels"] == sum(st.npanels)
    assert full["rejected_bisections"] == sum(st.rejected)
    # each half of the middle piece is accepted from its one evaluation
    assert st.npanels == [1, 1] and full["rejected_bisections"] == 0
    assert 0 < full["tail_bound"] < 1e-18
    assert full["log_coefficients"] == [0j] * 4
    assert full == regularized_integral_p1("0011", full=True)


@pytest.mark.parametrize("ks,parent_panels", [((2, 2), 3), ((4, 2), 3), ((2, 2, 4), 3)])
def test_regularization_panels_not_above_halves_rule(ks, parent_panels):
    # the middle pieces of weights 4, 6 and 8 took three panels each, one
    # root and its halves, when every root was checked against its halves;
    # transported as its two halves, each accepted from its one evaluation,
    # the middle piece takes two
    full = regularized_integral_p1(MZVIndex(ks).word(), full=True)
    assert full["panels"] <= parent_panels
    assert full["panels"] == 2 and full["rejected_bisections"] == 0
