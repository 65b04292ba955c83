"""Tests for the logarithmic form coefficients on the extended curve.

The f_n series routes (the zeta/wp tower, exponentiated, and near lattice
points the sigma product) are played against the direct sigma-quotient
kernel (Fourier coefficient extraction on a circle) and against 40-digit
mpmath sigma quotients, plus the structural identities: s-derivative
ladder, lattice invariance, residues at the origin, holomorphy in z.
"""

import math

import numpy as np
import pytest

from ellbar import CurveSpec, eta_lambda, lattice_from_curve, logforms, wp, wzeta
from ellbar.chenint import EdaggerModel
from ellbar.errors import NearPole, TruncationExceeded
from ellbar.logforms import (
    ExtLattice,
    dga_presentation,
    f_batch,
    f_n,
    kernel_F,
    letters,
    residue_expected,
    two_form_coeff,
    two_form_letters,
)
from ellbar.wlattice import fundamental_points, lattice_from_periods, reduce_mod_lattice
from mpref import SigmaReference

CURVES = [(4, 0), (5, 2)]


@pytest.fixture(scope="module", params=CURVES, ids=lambda ab: f"a{ab[0]}b{ab[1]}")
def ext(request):
    a, b = request.param
    return ExtLattice(lattice_from_curve(CurveSpec(a, b)), nmax=8)


Z0 = 0.31
Z1 = 0.22
S0 = 0.41 - 0.13j


def _zpt(E):
    L = E.lattice
    return Z0 * L.omega1 + Z1 * L.omega2


class TestSeriesAgainstKernel:
    def test_fourier_coefficients_match(self, ext):
        # w e^{-s w} F(z, w) = sum_n f_n w^n; extract by FFT on |w| = r
        L = ext.lattice
        r = 0.20 * L.min_period()
        K = 256
        ws = r * np.exp(2j * np.pi * np.arange(K) / K)
        z0 = _zpt(ext)
        vals = ws * np.exp(-S0 * ws) * kernel_F(ext, z0, ws)
        coeffs = np.fft.fft(vals) / K
        fvals = f_batch(ext, np.array([z0]), np.array([S0]))[:, 0]
        for n in range(ext.nmax + 1):
            cn = coeffs[n] / r**n
            assert abs(cn - fvals[n]) <= 1e-12 * max(1.0, abs(fvals[n]))

    def test_f2_closed_form(self, ext):
        # f_2 = ((zeta - s)^2 - wp) / 2
        L = ext.lattice
        z0 = _zpt(ext)
        t = wzeta(L, z0) - S0
        expect = (t * t - wp(L, z0)[0]) / 2.0
        assert abs(f_n(ext, 2, z0, S0) - expect) < 1e-12

    def test_f0_f1(self, ext):
        L = ext.lattice
        zz = np.array([_zpt(ext), 0.17 * L.omega1 + 0.4 * L.omega2])
        ss = np.array([S0, -0.3 + 0.9j])
        fb = f_batch(ext, zz, ss)
        assert np.max(np.abs(fb[0] - 1.0)) == 0.0
        assert np.max(np.abs(fb[1] - (wzeta(L, zz) - ss))) < 1e-14


class TestKernelF:
    def test_symmetry(self, ext):
        L = ext.lattice
        z0 = _zpt(ext)
        w0 = 0.13 * L.omega1 - 0.27 * L.omega2
        assert abs(kernel_F(ext, z0, w0) - kernel_F(ext, w0, z0)) < 1e-12

    def test_small_w_limit(self, ext):
        L = ext.lattice
        z0 = _zpt(ext)
        w = 1e-5 * L.min_period()
        val = w * kernel_F(ext, z0, w)
        # w F -> 1 with O(w) correction of size zeta(z) w
        assert abs(val - 1.0) < 1e-4

    def test_quasi_periodicity(self, ext):
        # F(z + w1, w) = F(z, w) e^{-eta(w1) w} in this package's eta sign
        L = ext.lattice
        z0 = _zpt(ext)
        w0 = 0.09 * L.omega1 + 0.21 * L.omega2
        eta1 = eta_lambda(L, (1, 0))
        lhs = kernel_F(ext, z0 + L.omega1, w0)
        rhs = kernel_F(ext, z0, w0) * np.exp(-eta1 * w0)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_near_pole_raises(self, ext):
        z0 = _zpt(ext)
        with pytest.raises(NearPole):
            kernel_F(ext, z0, -z0)  # z + w on the lattice


class TestLadderAndInvariance:
    def test_s_derivative_ladder(self, ext):
        z0 = _zpt(ext)
        h = 1e-5
        up = f_batch(ext, np.array([z0]), np.array([S0 + h]))[:, 0]
        dn = f_batch(ext, np.array([z0]), np.array([S0 - h]))[:, 0]
        ds = (up - dn) / (2 * h)
        fv = f_batch(ext, np.array([z0]), np.array([S0]))[:, 0]
        for n in range(1, ext.nmax + 1):
            assert abs(ds[n] + fv[n - 1]) < 1e-8

    def test_lattice_invariance(self, ext):
        L = ext.lattice
        z0 = _zpt(ext)
        fv = f_batch(ext, np.array([z0]), np.array([S0]))[:, 0]
        for (m, n) in [(1, 0), (0, 1), (1, 1), (-1, 2)]:
            lam = m * L.omega1 + n * L.omega2
            eta = eta_lambda(L, (m, n))
            shifted = f_batch(ext, np.array([z0 + lam]), np.array([S0 - eta]))[:, 0]
            assert np.max(np.abs(shifted - fv)) < 1e-12

    def test_holomorphic_in_z(self, ext):
        # Cauchy-Riemann by central differences
        z0 = _zpt(ext)
        h = 1e-6 * ext.lattice.min_period()
        fx = (
            f_batch(ext, np.array([z0 + h]), np.array([S0]))[:, 0]
            - f_batch(ext, np.array([z0 - h]), np.array([S0]))[:, 0]
        ) / (2 * h)
        fy = (
            f_batch(ext, np.array([z0 + 1j * h]), np.array([S0]))[:, 0]
            - f_batch(ext, np.array([z0 - 1j * h]), np.array([S0]))[:, 0]
        ) / (2 * h)
        dbar = 0.5 * (fx + 1j * fy)
        assert np.max(np.abs(dbar[: ext.nmax + 1])) < 1e-6


class TestResidues:
    def test_contour_residues(self, ext):
        L = ext.lattice
        rho = 0.05 * L.min_period()
        K = 128
        zs = rho * np.exp(2j * np.pi * np.arange(K) / K)
        allf = f_batch(ext, zs, np.full(K, S0))
        for n in [1, 2, 3, 5, 8]:
            res = np.mean(allf[n] * zs)
            expect = residue_expected(n, S0)
            assert abs(res - expect) <= 1e-9 * max(1.0, abs(expect))

    def test_residue_values(self):
        assert residue_expected(1, 3.7 + 2j) == 1.0
        assert residue_expected(2, 0.0) == 0.0
        assert residue_expected(3, 2.0) == 2.0  # (-2)^2 / 2!
        with pytest.raises(ValueError):
            residue_expected(0, 1.0)


def _pullback(E, letters, dz, ds):
    """Transport's pullback of the letters at the standard point, one row
    each, for the tangent (dz, ds)."""
    one = np.ones(1, dtype=complex)
    return EdaggerModel(E).phi_rows(letters, _zpt(E) * one, S0 * one, dz * one, ds * one)[:, 0]


class TestPullback:
    def test_basic_letters(self, ext):
        nu, w0 = _pullback(ext, ("nu", "w0"), 2.0, 3.0)
        assert nu == 3.0 and w0 == 2.0

    def test_combination(self, ext):
        # w1 + 2 nu -> (zeta - s) dz + 2 ds
        w1, nu = _pullback(ext, ("w1", "nu"), 1.0, 1.0)
        assert abs(w1 + 2 * nu - (wzeta(ext.lattice, _zpt(ext)) - S0 + 2)) < 1e-12

    def test_truncation_errors(self, ext):
        with pytest.raises(TruncationExceeded):
            f_n(ext, ext.nmax + 1, _zpt(ext), S0)

    def test_two_form_is_minus_fn(self, ext):
        z0 = _zpt(ext)
        fv = f_batch(ext, np.array([z0]), np.array([S0]))[:, 0]
        for n in [0, 1, 3]:
            c = two_form_coeff(ext, f"nu^w{n}", z0, S0)
            assert abs(c[0] + fv[n]) < 1e-14

    def test_near_pole(self, ext):
        with pytest.raises(NearPole):
            f_n(ext, 1, 0.0, S0)


class TestPresentationStructure:
    def test_letters(self):
        assert letters(2) == ("nu", "w0", "w1", "w2")
        assert two_form_letters(1) == ("nu^w0", "nu^w1")

    def test_differential_table(self):
        P = dga_presentation(3)
        from fractions import Fraction

        assert P.diff["w1"] == {"nu^w0": Fraction(-1)}
        assert P.diff["w3"] == {"nu^w2": Fraction(-1)}
        assert "nu" not in P.diff and "w0" not in P.diff

    def test_wedge_table(self):
        P = dga_presentation(2)
        from fractions import Fraction

        assert P.wedge[("nu", "w2")] == {"nu^w2": Fraction(1)}
        assert P.wedge[("w2", "nu")] == {"nu^w2": Fraction(-1)}
        assert ("w1", "w2") not in P.wedge

    def test_omega_wedge_omega_numerically_zero(self, ext):
        # both are multiples of dz at every point, so the wedge vanishes:
        # the w letters have no ds part
        assert np.all(_pullback(ext, ("w0", "w1", "w2", "w5"), 0.0, 1.0) == 0)


class TestFusedTheta:
    """f_batch takes wp, wp' and zeta from one theta pass per node set."""

    @pytest.mark.parametrize("nmax", range(7))
    def test_matches_separate_evaluators(self, ext, nmax, monkeypatch):
        L = ext.lattice
        E = ExtLattice(L, nmax=nmax)
        zz = fundamental_points(L, 16, seed=nmax)
        rng = np.random.default_rng(nmax)
        ss = rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16)
        got = f_batch(E, zz, ss)
        calls = []

        def separate(L_, z, what):
            calls.append(what)
            return (*wp(L_, z), wzeta(L_, z))

        monkeypatch.setattr(logforms, "_wp_zeta", separate)
        ref = f_batch(E, zz, ss)
        assert np.all(got == ref)
        # nmax 0 needs no theta evaluation at all
        assert len(calls) == (0 if nmax == 0 else 1)

    @pytest.mark.parametrize("nmax", [0, 1, 4, 8])
    def test_convolution_matches_the_double_loop(self, ext, nmax):
        # f_n = sum_j (-s)^j / j! g_{n-j} as one convolution gives the floats
        # of the term-by-term loop, theta and sigma-product points alike
        E = ExtLattice(ext.lattice, nmax=nmax)
        zz = np.concatenate([fundamental_points(ext.lattice, 8, seed=nmax), _near_points(E)])
        ss = S0 + 0.2j * np.arange(zz.size)
        g, s = logforms._g_coeffs(E, zz, ss)
        want = np.zeros_like(g)
        spow, fact = np.ones_like(s), 1.0
        for j in range(nmax + 1):
            if j > 0:
                spow, fact = spow * (-s), fact * j
            for n in range(j, nmax + 1):
                want[n] += spow / fact * g[n - j]
        assert np.array_equal(f_batch(E, zz, ss), want)

    def test_point_inside_guard_raises(self, ext):
        L = ext.lattice
        zz = np.concatenate([fundamental_points(L, 4), [L.omega1 + 0.5 * L.guard]])
        with pytest.raises(NearPole):
            f_batch(ext, zz, S0)


def test_eisenstein_coefficients_computed_once(monkeypatch):
    # the G_2k of the even part come from (g2, g3) once per ExtLattice, and
    # every f_batch call gives the same floats as a fresh ExtLattice's first
    L = lattice_from_curve(CurveSpec(5, 2))
    E = ExtLattice(L, nmax=8)
    zs = fundamental_points(L, 12, seed=4)
    s = np.full(12, S0)
    G = logforms.eisenstein_from_invariants(L.g2, L.g3, 8)
    B = logforms.f_batch(E, zs, s)
    calls = []
    real = logforms.eisenstein_from_invariants
    monkeypatch.setattr(logforms, "eisenstein_from_invariants",
                        lambda *a: calls.append(a) or real(*a))
    for _ in range(3):
        assert np.array_equal(logforms.f_batch(E, zs, s), B)
    assert calls == [] and E.eisenstein_coeffs == G
    fresh = ExtLattice(L, nmax=8)
    for _ in range(3):
        assert np.array_equal(logforms.f_batch(fresh, zs, s), B)
    assert len(calls) == 1


# --------------------------------------------------------------------------
# near lattice points: the sigma-product branch


NEAR_CURVES = [(2, 3), (5, 2), (1, -3)]
RADII = (1.5e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5)  # in shortest periods


@pytest.fixture(scope="module", params=NEAR_CURVES, ids=lambda ab: f"a{ab[0]}b{ab[1]}")
def near_ext(request):
    return ExtLattice(lattice_from_curve(CurveSpec(*request.param)), nmax=8)


def _near_points(E, radii=RADII, seed=5):
    a = abs(E.lattice._w1r)
    rng = np.random.default_rng(seed)
    return np.array([r * a * np.exp(2j * np.pi * rng.uniform()) for r in radii])


def _translates(E, z0):
    L = E.lattice
    lams = [(1, 0), (0, 1), (1, 1), (-1, 2), (2, -1), (0, -1)]
    return z0 + np.array([m * L.omega1 + n * L.omega2 for m, n in lams][: len(z0)])


class TestNearLattice:
    def test_against_mpmath(self, near_ext):
        # g_m at reduced points and f_n at their translates, against sigma
        # quotients at 40 digits, each relative to its own size
        E = near_ext
        ref = SigmaReference(E.lattice, dps=40, nodes=64)
        z0 = _near_points(E)
        got = f_batch(E, z0, 0.0)
        for i, z in enumerate(z0):
            want = np.array([complex(v) for v in ref.g(z, E.nmax)])
            assert np.all(np.abs(got[:, i] - want) <= 1e-13 * np.abs(want)), (i, got[:, i], want)
        zt = _translates(E, z0)
        got = f_batch(E, zt, S0)
        for i, z in enumerate(zt):
            want = np.array([complex(v) for v in ref.f(z, S0, E.nmax)])
            assert np.all(np.abs(got[:, i] - want) <= 1e-13 * np.abs(want)), (i, got[:, i], want)

    def test_branches_agree_at_the_switch_radius(self, near_ext):
        E = near_ext
        a = abs(E.lattice._w1r)
        z0 = logforms._RHO * a * np.exp(2j * np.pi * (np.arange(16) + 0.3) / 16)
        near = logforms._g_sigma(E, z0)
        far = logforms._g_theta(E, z0)
        assert np.all(np.abs(near - far) <= 1e-12 * np.abs(far))

    def test_a_point_alone_and_in_a_mixed_batch(self, near_ext):
        E = near_ext
        L = E.lattice
        z0 = _near_points(E)
        zz = np.concatenate([fundamental_points(L, 6, seed=2), z0, _translates(E, z0),
                             fundamental_points(L, 6, seed=3)])
        ss = S0 + 0.1j * np.arange(zz.size)
        batch = f_batch(E, zz, ss)
        for i in range(zz.size):
            assert np.array_equal(f_batch(E, zz[i : i + 1], ss[i : i + 1])[:, 0], batch[:, i]), i

    def test_near_only_batch_makes_no_theta_call(self, near_ext, monkeypatch):
        E = near_ext
        z0 = _near_points(E, RADII[:-1] + (0.45,))  # translates round |z0|
        zz = np.concatenate([z0, _translates(E, z0)])
        want = f_batch(E, zz, S0)

        def no_theta(*args):
            raise AssertionError("theta route called")

        monkeypatch.setattr(logforms, "_wp_zeta", no_theta)
        assert np.array_equal(f_batch(E, zz, S0), want)
        a = abs(E.lattice._w1r)
        far = [z for z in fundamental_points(E.lattice, 20, seed=1)
               if abs(reduce_mod_lattice(E.lattice, z)[0]) > 0.6 * a]
        with pytest.raises(AssertionError, match="theta route"):
            f_batch(E, np.concatenate([zz, far[:1]]), S0)

    @pytest.mark.parametrize("scale", [1e4, 1e-4])
    def test_periods_far_from_one(self, scale):
        # at these scales G_2k for the table's k over- or underflows; the
        # table comes from the invariants scaled by a power of 2, so near
        # points match sigma quotients, and far points keep the theta route
        # with the G_2k of (g2, g3) themselves
        L = lattice_from_periods(scale, scale * (0.5 + 0.87j))
        ref = SigmaReference(L, dps=40, nodes=64)
        s = 0.3 / scale
        far = [z for z in fundamental_points(L, 20, seed=1)
               if abs(reduce_mod_lattice(L, z)[0]) > 0.6 * scale][:3]
        for nmax in (5, 8):
            E = ExtLattice(L, nmax=nmax)
            G = logforms.eisenstein_from_invariants(L.g2, L.g3, max(6, nmax // 2 * 2))
            assert E.eisenstein_coeffs == G
            z0 = _near_points(E)
            zz = np.concatenate([z0, _translates(E, z0), far])
            got = f_batch(E, zz, s)
            for i, z in enumerate(zz):
                want = np.array([complex(v) for v in ref.f(z, s, nmax)])
                assert np.all(np.abs(got[:, i] - want) <= 1e-13 * np.abs(want)), (i, got[:, i], want)
            g, _ = logforms._g_coeffs(E, np.array(far), s)
            assert np.array_equal(g, logforms._g_theta(E, np.array(far)))

    @pytest.mark.parametrize("nmax", [0, 1, 4, 8, 30])
    def test_truncation_bound(self, nmax):
        # the dropped terms c sum_{k>K} C(2k, m)/(2k) rho^(2k-m-1), summed
        # directly far beyond K, are at most the unit roundoff for every m,
        # and K is the smallest order for which that holds
        c = 8.0
        K = logforms._sigma_order(nmax, c)

        def tail(K, m):
            return sum(c * math.comb(2 * k, m) / (2 * k) * logforms._RHO ** (2 * k - m - 1)
                       for k in range(K + 1, K + 4000) if 2 * k > m)

        assert 2 * K > nmax and K >= 2
        assert all(tail(K, m) <= logforms._U for m in range(1, nmax + 1))
        if K > max(2, (nmax + 2) // 2):
            assert any(tail(K - 1, m) > logforms._U for m in range(1, nmax + 1))
