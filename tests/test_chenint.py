"""Transport contract: path algebra, word series, homotopy, regularization."""

import importlib.util
import json
import math
import sys
from pathlib import Path

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
    _dist_to_lattice,
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
        assert res.panels_by_segment[0] >= 3


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
        # subdivision depth
        L = ext.lattice
        d = 3e-3 * L.min_period()
        c = L.omega1 + 1j * d * L.omega1 / abs(L.omega1)
        g = PathSpec(
            model="edagger",
            segments=(LineSeg(c - 0.4 * L.omega1, c + 0.4 * L.omega1),),
        )
        with pytest.raises(QuadratureFailure):
            chen_transport(model, g, letters=("w1",), lmax=1, tol=1e-13, max_depth=4)
        # the same geometry converges once allowed to subdivide
        r = chen_transport(model, g, letters=("w1",), lmax=1, tol=1e-13, max_depth=10)
        assert r.panels_by_segment[0] > 30


class _Recursive:
    """The depth-first recursion over one segment that the level-synchronous
    run replaced: the oracle for its values, error estimates, panel counts
    and failures.  Panels come one at a time from the run's own panel
    evaluation."""

    def __init__(self, model, seg, table, tol, max_depth):
        self.st = _SegmentTransport(model, [seg], table, tol, max_depth)
        self.table, self.tol, self.max_depth = table, tol, max_depth
        self.err = np.zeros(len(table.words))

    @property
    def npanels(self):
        return self.st.npanels[0]

    def panel(self, t0, t1):
        return self.st.panels(np.array([0]), np.array([t0]), np.array([t1]))[0]

    def run(self, t0=0.0, t1=1.0, depth=0, whole=None):
        # ``whole`` is this interval's panel when the parent has already
        # evaluated it as one of its halves
        if whole is None:
            whole = self.panel(t0, t1)
        tm = 0.5 * (t0 + t1)
        left = self.panel(t0, tm)
        right = self.panel(tm, t1)
        comp = compose_series(right, left, self.table)
        err = np.abs(comp - whole)
        scale = max(1.0, float(np.max(np.abs(whole))))
        budget = self.tol * ((t1 - t0) + 0.01 * scale)
        if np.max(err) <= budget:
            self.err += err
            return comp
        if depth >= self.max_depth:
            raise QuadratureFailure(
                f"panel [{t0:.6f}, {t1:.6f}] still off by {np.max(err):.3e} "
                f"(budget {budget:.3e}) at depth {depth}"
            )
        a = self.run(t0, tm, depth + 1, left)
        b = self.run(tm, t1, depth + 1, right)
        return compose_series(b, a, self.table)


class _WholeEveryCall(_Recursive):
    """Adaptive transport that evaluates every interval's whole panel itself,
    even when the parent has already evaluated it as a half."""

    def run(self, t0=0.0, t1=1.0, depth=0, whole=None):
        return super().run(t0, t1, depth)


def _one_segment(model, seg, table, tol, max_depth):
    """The level-synchronous run over one segment, as a list of one."""
    return _SegmentTransport(model, [seg], table, tol, max_depth)


class TestHalfPanelReuse:
    @staticmethod
    def _both(model, seg, letters, lmax, tol, max_depth):
        table = _word_table(letters, lmax)
        args = (model, seg, table, tol, max_depth)
        new, old = _one_segment(*args), _WholeEveryCall(*args)
        (vals_new,), vals_old = new.run(), old.run()
        assert np.array_equal(vals_new, vals_old)
        assert np.array_equal(new.err[0], old.err)
        # three panels per run call before; reuse saves one per child call
        calls = old.npanels // 3
        assert old.npanels == 3 * calls
        assert calls > 1
        assert new.npanels[0] == old.npanels - (calls - 1)

    def test_steep_edagger_line(self, ext, model):
        L = ext.lattice
        d = 3e-3 * L.min_period()
        c = L.omega1 + 1j * d * L.omega1 / abs(L.omega1)
        seg = LineSeg(c - 0.4 * L.omega1, c + 0.4 * L.omega1)
        self._both(model, seg, ("w1", "w2"), 2, 1e-10, 14)

    def test_p1_segment_near_zero(self):
        self._both(P1Model(), LineSeg(1e-4, 0.5), ("om0", "om1"), 3, 1e-11, 16)


def _steep_line(L, clearance, point=0, direction=0):
    """A line along a period passing ``clearance`` (in minimum periods) from
    a lattice point, as the benchmark's steep requests draw them."""
    lam = (L.omega1, L.omega2, L.omega1 + L.omega2)[point]
    along = (L.omega1, L.omega2)[direction]
    c = lam + 1j * clearance * L.min_period() * along / abs(along)
    return LineSeg(c - 0.4 * along, c + 0.4 * along)


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
        (vals,), ref_vals = new.run(), ref.run()
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(new.err[0], ref.err)
        assert new.npanels == [ref.npanels]
        assert sum(new.panels_by_depth[0]) == ref.npanels
        assert ref.npanels == 3 + 4 * new.rejected[0]
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
        seg = _steep_line(model4.ext.lattice, clearance)
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
        # sigma quotients, and every pair by the shuffle relation.  The
        # depth cap is raised because the node positions, rounded to doubles,
        # make the panel values next to a pole noisy at ~1e-16 |omega1| /
        # clearance relative, which any letter with a pole (w1 too) only
        # gets below tol 1e-12 on panels ~27 bisections deep at 1e-5
        L = lattice_from_curve(CurveSpec(2, 3))
        assert L.omega1 == L._w1r
        model = EdaggerModel(ExtLattice(L, nmax=6))
        ref = SigmaReference(L, dps=30, nodes=24)
        letters = tuple(f"w{n}" for n in range(2, 7))
        for clearance in (1e-2, 1e-3, 1e-4, 1e-5):
            seg = _steep_line(L, clearance)
            r = chen_transport(model, PathSpec(model="edagger", segments=(seg,)), letters=letters,
                               lmax=2, tol=1e-12, max_depth=30)
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
        # the steep geometry of test_quadrature_failure_near_pole, cut off
        # at each depth short of the 6 it needs; two intervals fail at each
        seg = _steep_line(ext.lattice, 3e-3)
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
        # and still the oracle's, three panels per batch at most
        nodes = []
        f_batch = chenint.f_batch
        monkeypatch.setattr(chenint, "f_batch", lambda E, z, s: nodes.append(len(z)) or f_batch(E, z, s))
        monkeypatch.setattr(chenint, "_BATCH_ENTRIES", 1)
        seg = _steep_line(model4.ext.lattice, 1e-3)
        self._against_oracle(model4, seg, ("w1", "w2"), 2)
        path = loop_pair_library(model4.ext)[2][1]
        self._against_oracle(model4, path.segments[0], model4.letters(), 2)
        assert max(nodes) == 3 * 24

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
        L = model4.ext.lattice
        seg = _steep_line(L, 1e-3)
        path = PathSpec("edagger", (LineSeg(seg.z0 - 0.3, seg.z0), seg))
        r = chen_transport(model4, path, letters=("w1", "w2"), lmax=2, tol=1e-10)
        assert len(r.panels_by_depth) == len(r.panels_by_segment) == 2
        for by_depth, n, rejected in zip(
            r.panels_by_depth, r.panels_by_segment, r.rejected_bisections
        ):
            assert sum(by_depth) == n == 3 + 4 * rejected
            assert by_depth[0] == 3 and all(k % 2 == 0 for k in by_depth[1:])
        assert len(r.panels_by_depth[1]) >= 5


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
        series = st.run()
        acc, err = None, np.zeros(len(table.words))
        for j, seg in enumerate(path.segments):
            one = _one_segment(model4, seg, *rest)
            (vals,) = one.run()
            assert np.array_equal(series[j], vals)
            assert np.array_equal(st.err[j], one.err[0])
            assert st.npanels[j] == one.npanels[0]
            assert st.panels_by_depth[j] == one.panels_by_depth[0]
            assert st.rejected[j] == one.rejected[0]
            acc = vals if acc is None else compose_series(vals, acc, table)
            err += one.err[0]
        r = chen_transport(model4, path, letters=letters, lmax=lmax, tol=1e-10)
        assert np.array_equal(np.array([r.values[w] for w in table.words]), acc)
        assert r.err_by_length == {
            n: float(np.max(err[table.lengths == n])) for n in range(lmax + 1)}
        assert r.panels_by_segment == tuple(st.npanels)
        assert r.panels_by_depth == tuple(tuple(d) for d in st.panels_by_depth)
        assert r.rejected_bisections == tuple(st.rejected)
        if which == "two-line":
            assert r.rejected_bisections[1] > r.rejected_bisections[0]

    def test_p1_deep_ends_match_per_segment_runs(self):
        # bisection trees deep at the left end, at the right end and at both
        # ends, in one run, each as in a run over that segment alone
        model = P1Model()
        segs = [LineSeg(1e-4, 0.5), LineSeg(0.5, 1 - 1e-4), LineSeg(1e-4, 1 - 1e-4)]
        rest = (_word_table(("om0", "om1"), 3), 1e-11, 16)
        st = _SegmentTransport(model, segs, *rest)
        series = st.run()
        for j, seg in enumerate(segs):
            one = _one_segment(model, seg, *rest)
            (vals,) = one.run()
            assert np.array_equal(series[j], vals)
            assert np.array_equal(st.err[j], one.err[0])
            assert st.npanels[j] == one.npanels[0]
            assert st.panels_by_depth[j] == one.panels_by_depth[0]
            assert st.rejected[j] == one.rejected[0]

    def test_failure_is_the_leftmost_segment(self, model4):
        # two steep segments cut off short of the depth they need: the run
        # fails on the first, as segment-by-segment runs did
        L = model4.ext.lattice
        a, b = _steep_line(L, 3e-3), _steep_line(L, 1e-3, 1, 1)
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
            return _dist_to_lattice(L, _reduce(z, L._w1r, L._w2r, L._red_inv)[0])

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
    st = _one_segment(P1Model(), LineSeg(chenint._DELTA, 1 - chenint._DELTA), table, 1e-11, 16)
    st.run()
    assert full["panels"] == st.npanels[0]
    assert full["rejected_bisections"] == st.rejected[0]
    # three panels a root, four per bisection
    assert full["panels"] == 3 + 4 * full["rejected_bisections"]
    assert 0 < full["tail_bound"] < 1e-18
    assert full["log_coefficients"] == [0j] * 4
    assert full == regularized_integral_p1("0011", full=True)
