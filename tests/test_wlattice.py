"""Lattice layer: periods, Weierstrass evaluators, quasi-periods, Eisenstein.

The reference ("oracle") route is the truncated lattice sum with exact
Eisenstein tail assists; the primary route is theta-based.  The two share
only the period data, so their agreement is a real cross-check.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellbar import (
    ConvergenceFailure,
    CurveSpec,
    DegenerateCurve,
    LatticeError,
    NearPole,
    eisenstein,
    eta_lambda,
    lattice_from_curve,
    lattice_from_periods,
    latsum_truncation_bound,
    latsum_weierstrass,
    reduce_mod_lattice,
    wp,
    wsigma,
    wzeta,
)
from ellbar import _kernels
from ellbar.logforms import ExtLattice, f_batch
from ellbar.wlattice import (
    _eis_bound,
    _eis_box_size,
    _eis_constants,
    _eisenstein,
    _gauss_reduce,
    _reduce,
    _theta1_block,
    eisenstein_from_invariants,
    fundamental_points,
)

# Gamma(1/4)^2 / (2 sqrt(2 pi)), the lemniscatic period of y^2 = 4x^3 - 4x
LEMNISCATIC = 2.6220575542921198


CURVES = [CurveSpec(4, 0), CurveSpec(0, 4), CurveSpec(5, 2)]

# Every nondegenerate curve with |a|, |b| <= 5
POPULATION = [(a, b) for a in range(-5, 6) for b in range(-5, 6) if a ** 3 != 27 * b ** 2]

# tau = 1/2 + 0.86603i rotated by 0.3 rad: in the reduction loop
# Re(v2 conj v1) / |v1|^2 alternates between +-0.5000000000000001
HEX_TIE = (1.2419374358632878 + 0.3841762686597414j, 0.28826054398424805 + 1.2676432119105536j)


@pytest.fixture(scope="module")
def lattices():
    return [lattice_from_curve(c) for c in CURVES]


def test_lemniscatic_period():
    L = lattice_from_curve(CurveSpec(4, 0))
    assert abs(abs(L.omega1) - LEMNISCATIC) < 1e-12
    assert abs(L.tau - 1j) < 1e-12


def test_equianharmonic_tau():
    L = lattice_from_curve(CurveSpec(0, 4))
    assert abs(L.tau - complex(0.5, math.sqrt(3) / 2)) < 1e-12


def test_degenerate_curve_rejected():
    with pytest.raises(DegenerateCurve):
        CurveSpec(3, 1)
    with pytest.raises(DegenerateCurve):
        CurveSpec(0, 0)


def test_curvespec_exact_rationals():
    c = CurveSpec("1/2", "1/64")
    assert c.discriminant != 0
    with pytest.raises(ValueError):
        CurveSpec(0.5, 1)  # floats are not exact


def test_ode_identity_all_curves(lattices):
    for L in lattices:
        zs = fundamental_points(L, 20, seed=11)
        p, pp = wp(L, zs)
        res = pp * pp - (4 * p ** 3 - L.g2 * p - L.g3)
        scale = np.maximum(1.0, np.abs(pp) ** 2)
        assert np.max(np.abs(res) / scale) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.floats(0.06, 0.94), st.floats(0.06, 0.94))
def test_ode_identity_property(u, v):
    L = lattice_from_curve(CurveSpec(5, 2))
    z = u * L.omega1 + v * L.omega2
    try:
        p, pp = wp(L, z)
    except NearPole:
        return
    res = pp * pp - (4 * p ** 3 - L.g2 * p - L.g3)
    assert abs(res) / max(1.0, abs(pp) ** 2) < 1e-9


def test_theta_vs_lattice_sum_oracle(lattices):
    for L in lattices:
        zs = fundamental_points(L, 20, seed=7)
        po, ppo, zo, so = latsum_weierstrass(L, zs, M=60)
        p, pp = wp(L, zs)
        scale = np.maximum(1.0, np.abs(p))
        assert np.max(np.abs(p - po) / scale) < 1e-8
        assert np.max(np.abs(pp - ppo) / np.maximum(1.0, np.abs(pp))) < 1e-8
        assert np.max(np.abs(wzeta(L, zs) - zo)) < 1e-8
        assert np.max(np.abs(wsigma(L, zs) - so)) < 1e-8


@pytest.mark.parametrize("M", [6, 10, 20])
def test_oracle_truncation_bound_covers_larger_box(lattices, M):
    # the truncation errors at M and at 200 are each within their bound, so
    # the two oracles differ by at most the two bounds plus their rounding
    for L in lattices:
        zs = fundamental_points(L, 20, seed=7)
        ref = latsum_weierstrass(L, zs, M=200)
        got = latsum_weierstrass(L, zs, M=M)
        b_ref = latsum_truncation_bound(L, zs, M=200)
        b_got = latsum_truncation_bound(L, zs, M=M)
        diffs = [np.abs(g - r) for g, r in zip(got[:3], ref[:3])]
        diffs.append(np.abs(np.log(got[3] / ref[3])))
        scales = [np.maximum(1.0, np.abs(r)) for r in ref[:3]] + [1.0]
        for d, bg, br, sc in zip(diffs, b_got, b_ref, scales):
            assert np.all(d <= bg + br + 1e-14 * sc)
        if M == 6:
            # differences well above rounding: the bound is what covers them
            assert np.any(diffs[0] > 1e-13 * scales[0])


def test_oracle_truncation_bound_scalar_and_reach(lattices):
    L = lattices[2]
    z = complex(fundamental_points(L, 1, seed=3)[0])
    scalar = latsum_truncation_bound(L, z, M=20)
    arrays = latsum_truncation_bound(L, np.array([z]), M=20)
    assert all(isinstance(b, float) and b == a[0] for b, a in zip(scalar, arrays))
    # the bound falls like M^-10 for wp and is proven only inside the box
    assert latsum_truncation_bound(L, z, M=40)[0] < scalar[0] * 2.0 ** -9
    with pytest.raises(ConvergenceFailure):
        latsum_truncation_bound(L, 2.0 * L.omega1 + 0.5 * L.omega2, M=1)


def _theta1_block_two_passes(u, cache):
    """Reference: the theta series with k u formed separately for sin and
    cos and fresh temporaries for every term."""
    u = np.asarray(u, dtype=complex)
    ymax = float(np.max(np.abs(u.imag))) / cache.tau.imag if u.size else 0.0
    th = np.zeros(u.shape, dtype=complex)
    d1 = np.zeros(u.shape, dtype=complex)
    d2 = np.zeros(u.shape, dtype=complex)
    d3 = np.zeros(u.shape, dtype=complex)
    for n in range(cache.nterms(ymax)):
        hn = n + 0.5
        coef = 2.0 * (-1) ** n * cmath.exp(cache.ipitau * hn * hn)
        k = (2 * n + 1) * math.pi
        s = np.sin(k * u)
        c = np.cos(k * u)
        th += coef * s
        d1 += coef * k * c
        d2 -= coef * k * k * s
        d3 -= coef * k ** 3 * c
    return th, d1, d2, d3


@pytest.mark.parametrize("nodes", [48, 96, 216])
def test_theta_block_matches_two_pass_series(lattices, nodes):
    # transport-sized node sets on a reduced line: the same floats
    for L in lattices:
        t = np.linspace(0.0, 1.0, nodes)
        z = (0.1 + 0.8 * t) * L.omega1 + (0.15 + 0.7 * t[::-1]) * L.omega2
        u = _reduce(z, L._w1r, L._w2r, L._red_inv)[0] / L._w1r
        for got, want in zip(_theta1_block(u, L._cache), _theta1_block_two_passes(u, L._cache)):
            assert np.array_equal(got, want)
        # a lone point, as a 0-d u (eta_lambda passes its probes as one array)
        for got, want in zip(_theta1_block(u[7], L._cache), _theta1_block_two_passes(u[7], L._cache)):
            assert got == want


def test_zeta_quasi_periodicity(lattices):
    for L in lattices:
        z = 0.23 * L.omega1 + 0.37 * L.omega2
        for (m, n) in [(1, 0), (0, 1), (1, 1), (-2, 1)]:
            lam = m * L.omega1 + n * L.omega2
            lhs = wzeta(L, z + lam)
            rhs = wzeta(L, z) - eta_lambda(L, (m, n))
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_sigma_quasi_periodicity(lattices):
    for L in lattices:
        z = 0.29 * L.omega1 + 0.18 * L.omega2
        for (m, n) in [(1, 0), (0, 1), (1, 1)]:
            lam = m * L.omega1 + n * L.omega2
            eps = -1.0 if (m + n + m * n) % 2 else 1.0
            # sigma(z + lam) = eps * exp(H(lam) (z + lam/2)) sigma(z),
            # with H(lam) = -eta(lam)
            pred = eps * np.exp(-eta_lambda(L, (m, n)) * (z + lam / 2)) * wsigma(L, z)
            got = wsigma(L, z + lam)
            assert abs(got - pred) < 1e-9 * max(1.0, abs(got))


def test_eta_additivity(lattices):
    for L in lattices:
        e11 = eta_lambda(L, (1, 1))
        assert abs(e11 - (L.eta1 + L.eta2)) < 1e-9 * max(1.0, abs(e11))
        e23 = eta_lambda(L, 2 * L.omega1 + 3 * L.omega2)
        assert abs(e23 - (2 * L.eta1 + 3 * L.eta2)) < 1e-9 * max(1.0, abs(e23))


def test_legendre_relation(lattices):
    for L in lattices:
        rel = L.eta1 * L.omega2 - L.eta2 * L.omega1
        assert abs(abs(rel) - 2 * math.pi) < 1e-9
        assert abs(rel - L.legendre_sign * 2j * math.pi) < 1e-9
        assert L.legendre_sign in (-1, 1)


def test_eta_against_contour_integral(lattices):
    # eta(lam) equals the period of the second-kind differential, i.e. the
    # integral of wp along a straight segment of length lam
    x, w = np.polynomial.legendre.leggauss(120)
    t = 0.5 * (x + 1)
    wt = 0.5 * w
    for L in lattices:
        z0 = 0.13 * L.omega1 + 0.41 * L.omega2
        for lam, eta in [(L.omega1, L.eta1), (L.omega2, L.eta2)]:
            p, _ = wp(L, z0 + t * lam)
            contour = np.sum(wt * p) * lam
            assert abs(contour - eta) < 1e-9 * max(1.0, abs(eta))


def test_eisenstein_direct_vs_invariants():
    L = lattice_from_curve(CurveSpec(5, 2))
    g4 = eisenstein(L, 4, tol=2e-7)
    assert abs(60 * g4 - L.g2) < 1e-5
    g6 = eisenstein(L, 6, tol=1e-10)
    assert abs(140 * g6 - L.g3) < 1e-8
    g8 = eisenstein(L, 8, tol=1e-11)
    G = eisenstein_from_invariants(L.g2, L.g3, 8)
    assert abs(g8 - G[8]) < 1e-10


def test_eisenstein_bad_k():
    L = lattice_from_curve(CurveSpec(4, 0))
    for k in (3, 5, 2, 14):
        with pytest.raises(ValueError):
            eisenstein(L, k)


EIS_LATTICES = {
    "curve(5,2)": lambda: lattice_from_curve(CurveSpec(5, 2)),
    "curve(4,0)": lambda: lattice_from_curve(CurveSpec(4, 0)),
    "curve(-3,5)": lambda: lattice_from_curve(CurveSpec(-3, 5)),
    "tau=0.49+3i": lambda: lattice_from_periods(1, 0.49 + 3j),
    "tau=0.5+0.87i": lambda: lattice_from_periods(1, 0.5 + 0.87j),
    "tau=i": lambda: lattice_from_periods(1, 1j),
}


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("k", [4, 6, 8])
@pytest.mark.parametrize("name", EIS_LATTICES)
def test_eisenstein_bound_dominates_error(name, k, tol):
    # at 1e-10 too: the rounding floor sits well below it on these lattices
    L = EIS_LATTICES[name]()
    value, M, bound = _eisenstein(L, k, tol)
    assert (M, bound) == _eis_box_size(L, k, tol)[:2] and bound <= tol
    ref = eisenstein_from_invariants(L.g2, L.g3, 8)[k]
    assert abs(value - ref) <= bound
    if k == 4:
        # the raw box sum alone misses tol: the tail integral carries it
        assert abs(_kernels.eis_sum(L._w1r, L._w2r, M, k) - ref) > tol


def test_eisenstein_box_found_next_to_the_floor():
    # where the bound's minimum over M is only just below tol, the boxes
    # meeting tol are a narrow window away from any power of two
    L = lattice_from_curve(CurveSpec(30000, 0))
    k = 6
    consts = _eis_constants(L._w1r, L._w2r, k)
    bounds = {M: sum(_eis_bound(L._w1r, L._w2r, M, k, consts)[:2]) for M in range(1, 1200)}
    best = min(bounds, key=bounds.get)
    assert 1 < best < 1199 and best & (best - 1) != 0
    M, bound, _ = _eis_box_size(L, k, bounds[best] * (1 + 1e-9))
    assert bound == bounds[M] and bound <= bounds[best] * (1 + 1e-9)
    assert M <= best and bounds[M - 1] > bounds[best] * (1 + 1e-9)
    with pytest.raises(ConvergenceFailure):
        _eis_box_size(L, k, bounds[best] * (1 - 1e-9))


def test_eisenstein_bound_covers_vanishing_g6():
    # G_6 = 0 on Z + iZ by the symmetry lam -> i lam
    value, _, bound = _eisenstein(lattice_from_periods(1, 1j), 6, 1e-8)
    assert abs(value) <= bound


@pytest.mark.parametrize("k", [4, 6, 8])
def test_eisenstein_remainder_is_order_m_minus_k(k):
    L = lattice_from_periods(1, 0.49 + 3j)
    consts = _eis_constants(L._w1r, L._w2r, k)
    for M in (5, 40, 300):
        ratio = _eis_bound(L._w1r, L._w2r, 2 * M, k, consts)[0] / _eis_bound(L._w1r, L._w2r, M, k, consts)[0]
        assert ratio <= 2.0**-k * 1.1


def test_eisenstein_unreachable_tolerance_fails_before_summing(monkeypatch):
    L = lattice_from_curve(CurveSpec(5, 2))

    def no_sum(*args):
        raise AssertionError("box sum started for an unreachable tolerance")

    monkeypatch.setattr(_kernels, "eis_sum", no_sum)
    with pytest.raises(ConvergenceFailure):
        eisenstein(L, 4, tol=1e-18)


def test_eisenstein_box_stays_small_for_criterion_3():
    # work guard: criterion 3's G4/G6 tolerances on (5, 2); the absolute
    # O(M^(2-k)) tail bound this replaced needed M = 7772 for G4
    L = lattice_from_curve(CurveSpec(5, 2))
    scale = 5.0
    assert _eis_box_size(L, 4, 1e-8 * scale / 60)[0] <= 200
    assert _eis_box_size(L, 6, 1e-8 * scale / 140)[0] <= 200


def test_near_pole_guard(lattices):
    L = lattices[0]
    for z in (0.0, L.omega1, 1e-9 * L.omega1, L.omega1 + L.omega2 + 1e-10):
        with pytest.raises(NearPole):
            wp(L, z)
        with pytest.raises(NearPole):
            wsigma(L, z)


def _cell_gap(L):
    """Smallest distance from a lattice point other than 0 to the centred
    cell |x|, |y| <= 1/2 of the reduced basis (points beyond index 3 are
    farther)."""
    w1, w2 = L._w1r, L._w2r
    corners = [0.5 * (w1 + w2), 0.5 * (w2 - w1), -0.5 * (w1 + w2), 0.5 * (w1 - w2)]
    gap = math.inf
    for m in range(-3, 4):
        for n in range(-3, 4):
            if m == 0 and n == 0:
                continue
            p = m * w1 + n * w2
            for a, b in zip(corners, corners[1:] + corners[:1]):
                t = min(1.0, max(0.0, ((p - a) * (b - a).conjugate()).real / abs(b - a) ** 2))
                gap = min(gap, abs(p - a - t * (b - a)))
    return gap


def test_cell_gap_bound():
    # on a Gauss-reduced basis every lattice point other than 0 lies at
    # least (sqrt(3)/4) |w1| from the centred cell, so |z0| below the guard
    # is the distance to the lattice; the hexagonal basis attains the bound
    bound = math.sqrt(3) / 4
    lats = {ab: lattice_from_curve(CurveSpec(*ab)) for ab in POPULATION}
    lats["hexagonal"] = lattice_from_periods(1.0, cmath.exp(1j * math.pi / 3))
    lats["square"] = lattice_from_periods(1.0, 1j)
    lats["hex tie"] = lattice_from_periods(*HEX_TIE)
    lats["Im tau 12"] = lattice_from_periods(1.0, 12j)
    for key, L in lats.items():
        gap = _cell_gap(L) / abs(L._w1r)
        assert gap >= bound * (1 - 1e-12), key
        assert L.guard < bound * abs(L._w1r), key
    assert _cell_gap(lats["hexagonal"]) == pytest.approx(bound, rel=1e-12)


@pytest.mark.parametrize("fn", [
    lambda L, z: wp(L, z),
    lambda L, z: wzeta(L, z),
    lambda L, z: wsigma(L, z),
    lambda L, z: latsum_weierstrass(L, z, M=10),
    lambda L, z: f_batch(ExtLattice(L, nmax=4), z, 0.1),
], ids=["wp", "wzeta", "wsigma", "latsum_weierstrass", "f_batch"])
def test_guard_radius_around_each_lattice_point(lattices, fn):
    # NearPole exactly within the guard of 0, omega1, omega2 and
    # omega1 + omega2, as the nine-point distance test before the reduced
    # |z0| test decided it
    for L in lattices + [lattice_from_periods(*HEX_TIE)]:
        other = 0.3 * L.omega1 + 0.4 * L.omega2
        for lam in (0.0, L.omega1, L.omega2, L.omega1 + L.omega2):
            for t in range(6):
                step = L.guard * cmath.exp(1j * (0.3 + t))
                with pytest.raises(NearPole):
                    fn(L, np.array([lam + (1 - 1e-3) * step, other]))
                fn(L, np.array([lam + (1 + 1e-3) * step, other]))


def test_gauss_reduce_stops_on_the_hexagonal_tie():
    # mu = +-1 would undo itself until the step limit
    w1, w2 = HEX_TIE
    v1, v2 = _gauss_reduce(w1, w2)
    M = np.linalg.solve([[w1.real, w2.real], [w1.imag, w2.imag]],
                        [[v1.real, v2.real], [v1.imag, v2.imag]])
    assert np.allclose(M, np.round(M), atol=1e-9)
    assert abs(round(np.linalg.det(np.round(M)))) == 1
    assert abs(v1) <= abs(v2) * (1 + 1e-15)
    assert abs((v2 * v1.conjugate()).real) <= (0.5 + 1e-15) * abs(v1) ** 2
    assert (v2 / v1).imag > 0
    L = lattice_from_periods(w1, w2)
    assert abs(abs(L.eta1 * L.omega2 - L.eta2 * L.omega1) - 2 * math.pi) < 1e-12


def test_tall_lattice_probes():
    # eta_lambda's probe pairs z -/+ lam/2 stay finite at Im tau = 15 and 20,
    # where the Legendre relation holds, and overflow the theta_1 series at 25
    for height in (15, 20):
        L = lattice_from_periods(1.0, height * 1j)
        assert L.legendre_sign in (1, -1)
        assert abs(abs(L.eta1 * L.omega2 - L.eta2 * L.omega1) - 2 * math.pi) < 1e-12
    with pytest.raises(ConvergenceFailure, match="overflow"):
        lattice_from_periods(1.0, 25j)


def test_reduce_mod_lattice(lattices):
    for L in lattices:
        z0, (m, n) = reduce_mod_lattice(L, L.omega1 + L.omega2)
        assert (m, n) == (1, 1)
        assert abs(z0) < 1e-12 * max(abs(L.omega1), abs(L.omega2))
        rng = np.random.default_rng(3)
        inv = np.linalg.inv(
            np.array(
                [
                    [L.omega1.real, L.omega2.real],
                    [L.omega1.imag, L.omega2.imag],
                ]
            )
        )
        for _ in range(25):
            z = complex(*rng.normal(scale=7.0, size=2))
            z0, (m, n) = reduce_mod_lattice(L, z)
            assert abs(z0 + m * L.omega1 + n * L.omega2 - z) < 1e-9
            u, v = inv @ np.array([z0.real, z0.imag])
            assert -0.5 - 1e-12 <= u < 0.5 + 1e-12
            assert -0.5 - 1e-12 <= v < 0.5 + 1e-12


def test_lattice_from_periods_roundtrip():
    L = lattice_from_periods(LEMNISCATIC, LEMNISCATIC * 1j)
    assert abs(L.g2 - 4.0) < 1e-10
    assert abs(L.g3) < 1e-10
    with pytest.raises(LatticeError):
        lattice_from_periods(1.0, 1j * -2.0)  # wrong orientation
    with pytest.raises(LatticeError):
        lattice_from_periods(1.0, 2.0)  # dependent over R


def test_eta_lambda_rejects_non_lattice(lattices):
    L = lattices[2]
    with pytest.raises(LatticeError):
        eta_lambda(L, 0.5 * L.omega1)


def test_wp_array_shape(lattices):
    L = lattices[1]
    zs = fundamental_points(L, 5, seed=1)
    p, pp = wp(L, zs)
    assert p.shape == (5,) and pp.shape == (5,)
    ps, pps = wp(L, complex(zs[0]))
    assert isinstance(ps, complex)
    assert abs(ps - p[0]) == 0.0
    # a scalar z gives the same floats as the same point in an array, for
    # wp, wp', zeta and sigma on each curve
    for L in lattices:
        zs = fundamental_points(L, 200, seed=3)
        p, pp = wp(L, zs)
        arrays = np.stack([p, pp, wzeta(L, zs), wsigma(L, zs)], axis=1)
        scalars = np.array([(*wp(L, complex(z)), wzeta(L, complex(z)), wsigma(L, complex(z)))
                            for z in zs])
        assert np.array_equal(scalars, arrays)
