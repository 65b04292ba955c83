"""Period lattices and Weierstrass functions for curves y^2 = 4x^3 - a x - b.

The lattice is computed from the curve by the optimal (complex) AGM and
verified by an independent q-series round trip of (g2, g3).  The primary
evaluators for sigma, zeta, wp, wp' go through the Jacobi theta_1 series on a
Gauss-reduced basis; truncated-lattice-sum reference evaluators with exact
Eisenstein tail assists are shipped alongside as oracles.  The Eisenstein
sums G_k are a direct box sum plus the exact integral of its midpoint-rule
tail, with the box sized by a proven O(M^-k) remainder bound; they use
neither theta nor the q-series.

Sign conventions used throughout the package:

* quasi-periods are ``eta(lam) = zeta(z) - zeta(z + lam)`` (the negative of
  the textbook increment), so ``zeta(z + lam) = zeta(z) - eta(lam)``;
* ``eta1*omega2 - eta2*omega1 = legendre_sign * 2*pi*i`` with the sign stored
  on the lattice rather than hard-coded.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .errors import (
    ConvergenceFailure,
    DegenerateCurve,
    LatticeError,
    NearPole,
    ProbeInconsistency,
)

__all__ = [
    "CurveSpec",
    "LatticeData",
    "lattice_from_curve",
    "lattice_from_periods",
    "wp",
    "wzeta",
    "wsigma",
    "eta_lambda",
    "eisenstein",
    "reduce_mod_lattice",
    "latsum_weierstrass",
    "latsum_truncation_bound",
    "eisenstein_from_invariants",
    "fundamental_points",
]


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise ValueError(f"expected an exact rational (int, Fraction or 'p/q' string), got {x!r}")


@dataclass(frozen=True)
class CurveSpec:
    """Exact rational model y^2 = 4x^3 - a x - b."""

    a: Fraction
    b: Fraction

    def __init__(self, a, b):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))
        if self.discriminant == 0:
            raise DegenerateCurve(f"a^3 - 27 b^2 = 0 for a={self.a}, b={self.b}")

    @property
    def discriminant(self) -> Fraction:
        return self.a ** 3 - 27 * self.b ** 2


# --------------------------------------------------------------------------
# AGM and basis reduction


def _agm(a, b):
    """Optimal complex AGM with the standard good-choice branch rule, at
    most 80 steps."""
    a = complex(a)
    b = complex(b)
    if a == 0 or b == 0:
        raise ConvergenceFailure("AGM of zero argument")
    for _ in range(80):
        if abs(a - b) <= 8e-16 * (abs(a) + abs(b)):
            return 0.5 * (a + b)
        am = 0.5 * (a + b)
        gm = cmath.sqrt(a * b)
        # good choice: |am - gm| <= |am + gm|, ties broken by Im(gm/am) > 0
        da, sa = abs(am - gm), abs(am + gm)
        if da > sa or (da == sa and (gm / am).imag <= 0):
            gm = -gm
        a, b = am, gm
    raise ConvergenceFailure("AGM did not converge")


def _gauss_reduce(w1, w2):
    """Reduce a basis: returns a basis (v1, v2) of the same lattice with
    |v1| <= |v2|, |Re(v2 conj v1)| <= |v1|^2 / 2 and Im(v2/v1) > 0."""
    v1, v2 = complex(w1), complex(w2)
    prev = 0
    for _ in range(200):
        if abs(v1) > abs(v2):
            v1, v2 = v2, v1
            prev = 0
        mu = round((v2 * v1.conjugate()).real / abs(v1) ** 2)
        # mu = -prev undoes the previous step: on the tie |Re(v2/v1)| = 1/2
        # the rounded ratio can alternate between +-0.5000000000000001
        if mu == 0 or mu == -prev:
            break
        v2 = v2 - mu * v1
        prev = mu
    else:
        raise LatticeError("basis reduction did not terminate")
    ratio = v2 / v1
    if abs(ratio.imag) < 1e-12:
        raise LatticeError("periods are linearly dependent over R")
    if ratio.imag < 0:
        v2 = -v2
    # deterministic presentation: v1 in the right half plane (or positive
    # imaginary axis); negating both generators keeps tau
    if v1.real < -1e-14 * abs(v1) or (abs(v1.real) <= 1e-14 * abs(v1) and v1.imag < 0):
        v1, v2 = -v1, -v2
    return v1, v2


# --------------------------------------------------------------------------
# theta machinery on the normalized lattice Z + tau Z


class _ThetaCache:
    """Precomputed data for theta_1 on Z + tau Z (Im tau >= sqrt(3)/2 - eps)."""

    def __init__(self, tau):
        self.tau = tau
        self.ipitau = 1j * math.pi * tau
        # theta_1'(0) and the normalized quasi-period increment
        # H(1) = zeta(u+1) - zeta(u) = (pi^2 / 3) E2(tau)
        q = cmath.exp(2j * math.pi * tau)
        e2 = 1.0
        qn = 1.0
        for n in range(1, 64):
            qn *= q
            if abs(qn) < 1e-20:
                break
            e2 -= 24.0 * n * qn / (1.0 - qn)
        self.eta1n = (math.pi ** 2 / 3.0) * e2

    def nterms(self, ymax):
        # series terms needed so the smallest retained term is ~1e-18 relative
        t = math.pi * self.tau.imag
        n = int(math.ceil(abs(ymax) + math.sqrt(45.0 / t))) + 2
        return max(n, 6)


def _theta1_block(u, cache, ymax=None):
    """theta_1 and its first three u-derivatives at u (array-capable)."""
    u = np.asarray(u, dtype=complex)
    if ymax is None:
        ymax = float(np.max(np.abs(u.imag))) / cache.tau.imag if u.size else 0.0
    N = cache.nterms(ymax)
    th = np.zeros(u.shape, dtype=complex)
    d1 = np.zeros(u.shape, dtype=complex)
    d2 = np.zeros(u.shape, dtype=complex)
    d3 = np.zeros(u.shape, dtype=complex)
    for n in range(N):
        hn = n + 0.5
        coef = 2.0 * (-1) ** n * cmath.exp(cache.ipitau * hn * hn)
        k = (2 * n + 1) * math.pi
        # plain products, not out= arrays: for a 0-d u they are numpy scalar
        # products, which round differently from the array loop
        ku = k * u
        s = np.sin(ku)
        c = np.cos(ku)
        th += coef * s
        d1 += coef * k * c
        d2 -= coef * k * k * s
        d3 -= coef * k ** 3 * c
    return th, d1, d2, d3


def _theta1_zero(cache):
    """theta_1'(0) (the series has only odd terms; value at u=0)."""
    N = cache.nterms(0.0)
    acc = 0.0 + 0.0j
    for n in range(N):
        hn = n + 0.5
        acc += 2.0 * (-1) ** n * cmath.exp(cache.ipitau * hn * hn) * (2 * n + 1) * math.pi
    return acc


def _norm_funcs(u, cache):
    """(sigma_n, zeta_n, wp_n, wp'_n) on the normalized lattice at u."""
    th, d1, d2, d3 = _theta1_block(u, cache)
    psi = d1 / th
    psip = d2 / th - psi * psi
    psipp = d3 / th - psi * (d2 / th) - 2.0 * psi * psip
    e1 = cache.eta1n
    sig = np.exp(0.5 * e1 * np.asarray(u, dtype=complex) ** 2) * th / cache.th1p0
    zet = e1 * np.asarray(u, dtype=complex) + psi
    p = -e1 - psip
    pp = -psipp
    return sig, zet, p, pp


def _gseries_invariants(tau, w1):
    """(g2, g3) for the lattice w1*(Z + tau Z) via the E4/E6 q-series."""
    q = cmath.exp(2j * math.pi * tau)
    e4 = 1.0
    e6 = 1.0
    qn = 1.0
    for n in range(1, 64):
        qn *= q
        if abs(qn) < 1e-20:
            break
        t = qn / (1.0 - qn)
        e4 += 240.0 * n ** 3 * t
        e6 -= 504.0 * n ** 5 * t
    g2 = (4.0 / 3.0) * math.pi ** 4 * e4 / w1 ** 4
    g3 = (8.0 / 27.0) * math.pi ** 6 * e6 / w1 ** 6
    return g2, g3


# --------------------------------------------------------------------------
# lattice data


@dataclass
class LatticeData:
    """Periods, quasi-periods and evaluation caches for one lattice."""

    omega1: complex
    omega2: complex
    eta1: complex
    eta2: complex
    tau: complex
    g2: complex
    g3: complex
    legendre_sign: int
    guard: float
    _w1r: complex
    _w2r: complex
    _H1r: complex
    _H2r: complex
    _cache: _ThetaCache
    _pub_inv: np.ndarray  # 2x2 inverse of [[Re w, ...]] for the public basis
    _red_inv: np.ndarray  # same for the reduced basis

    def min_period(self) -> float:
        return min(abs(self.omega1), abs(self.omega2))


def _basis_inverse(w1, w2):
    M = np.array([[w1.real, w2.real], [w1.imag, w2.imag]], dtype=float)
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]], dtype=float) / det


# The guard radius around each lattice point, in minimum periods
_GUARD_SCALE = 1e-6


def _build_lattice(pub1, pub2, g2, g3):
    v1, v2 = _gauss_reduce(pub1, pub2)
    tau_r = v2 / v1
    cache = _ThetaCache(tau_r)
    cache.th1p0 = _theta1_zero(cache)
    # textbook increments H(v1), H(v2) on the reduced basis; the normalized
    # H(tau) follows from the Legendre relation H(1) tau - H(tau) = 2 pi i
    H1r = cache.eta1n / v1
    H2r = (cache.eta1n * tau_r - 2j * math.pi) / v1
    lat = LatticeData(
        omega1=complex(pub1),
        omega2=complex(pub2),
        eta1=0.0,
        eta2=0.0,
        tau=complex(pub2) / complex(pub1),
        g2=g2,
        g3=g3,
        legendre_sign=0,
        guard=_GUARD_SCALE * min(abs(pub1), abs(pub2)),
        _w1r=v1,
        _w2r=v2,
        _H1r=H1r,
        _H2r=H2r,
        _cache=cache,
        _pub_inv=_basis_inverse(complex(pub1), complex(pub2)),
        _red_inv=_basis_inverse(v1, v2),
    )
    lat.eta1 = eta_lambda(lat, (1, 0))
    lat.eta2 = eta_lambda(lat, (0, 1))
    rel = lat.eta1 * lat.omega2 - lat.eta2 * lat.omega1
    sign = round(rel.imag / (2.0 * math.pi))
    if abs(rel - sign * 2j * math.pi) > 1e-8 * (1 + abs(rel)) or abs(sign) != 1:
        raise ConvergenceFailure(f"Legendre relation violated: {rel!r}")
    lat.legendre_sign = int(sign)
    return lat


_CURVE_TOL = 1e-12  # relative q-series round-trip error that accepts a root ordering


def lattice_from_curve(curve: CurveSpec) -> LatticeData:
    """Periods of y^2 = 4x^3 - a x - b by the optimal AGM.

    Root orderings are searched until the q-series round trip recovers
    (a, b) to _CURVE_TOL * max(1, |a|, |b|); the returned basis is
    Gauss-reduced with Im(omega2/omega1) > 0.
    """
    a = float(curve.a)
    b = float(curve.b)
    roots = np.roots([4.0, 0.0, -a, -b]).astype(complex)
    scale = max(1.0, abs(a), abs(b))
    best = None
    for perm in itertools.permutations(range(3)):
        e1, e2, e3 = (roots[i] for i in perm)
        try:
            m_a = _agm(cmath.sqrt(e1 - e3), cmath.sqrt(e1 - e2))
            m_b = _agm(cmath.sqrt(e1 - e3), cmath.sqrt(e2 - e3))
            wa = math.pi / m_a
            wb = math.pi * 1j / m_b
            v1, v2 = _gauss_reduce(wa, wb)
        except (ConvergenceFailure, LatticeError, ZeroDivisionError):
            continue
        g2c, g3c = _gseries_invariants(v2 / v1, v1)
        err = max(abs(g2c - a), abs(g3c - b)) / scale
        if best is None or err < best[0]:
            best = (err, v1, v2)
        if err <= _CURVE_TOL:
            break
    if best is None or best[0] > _CURVE_TOL:
        raise ConvergenceFailure(
            f"no root ordering reproduced (a, b); best relative error {best[0] if best else 'n/a'}"
        )
    _, v1, v2 = best
    return _build_lattice(v1, v2, complex(a), complex(b))


def lattice_from_periods(w1, w2) -> LatticeData:
    """Lattice data for explicitly given generators (Im(w2/w1) > 0 required).

    g2, g3 are recovered from the q-series on the reduced basis.
    """
    w1 = complex(w1)
    w2 = complex(w2)
    if (w2 / w1).imag <= 0:
        raise LatticeError("need Im(omega2/omega1) > 0")
    v1, v2 = _gauss_reduce(w1, w2)
    g2, g3 = _gseries_invariants(v2 / v1, v1)
    return _build_lattice(w1, w2, g2, g3)


# --------------------------------------------------------------------------
# reduction and guards


def _reduce(z, w1, w2, inv):
    z = np.asarray(z, dtype=complex)
    x = inv[0, 0] * z.real + inv[0, 1] * z.imag
    y = inv[1, 0] * z.real + inv[1, 1] * z.imag
    m = np.floor(x + 0.5).astype(np.int64)
    n = np.floor(y + 0.5).astype(np.int64)
    return z - m * w1 - n * w2, m, n


def _cell_shift(L, z):
    """(z0, lam, H, m, n) for the points z: lam = m w1 + n w2, the lattice
    point of the reduced basis that z is reduced by, z0 = z - lam, and
    H = m H1 + n H2 on the same basis, so that zeta(z0 + lam) = zeta(z0) + H
    and eta(lam) = -H.  The one place that reduces a point on the reduced
    basis and pairs its lattice shift with its quasi-period.

    z0 = x w1 + y w2 with |x|, |y| <= 1/2, and every lattice point other
    than 0 lies at least (sqrt(3)/4) |w1| from that cell: on a Gauss-reduced
    basis the angle theta between w1 and w2 has |cos theta| <= 1/2, and the
    part of (m w1 + n w2) - z0 normal to w2 is |m - x| |w1| sin theta, which
    is >= (sqrt(3)/4) |w1| for m != 0; for m = 0 the part normal to w1 is
    |n - y| |w2| sin theta >= (sqrt(3)/4) |w2|.  So below that radius |z0|
    is the distance to the lattice."""
    z0, m, n = _reduce(z, L._w1r, L._w2r, L._red_inv)
    return z0, m * L._w1r + n * L._w2r, m * L._H1r + n * L._H2r, m, n


def _guarded_shift(L, z, what):
    """_cell_shift, and NearPole if some |z0| < L.guard: the guard, 1e-6 of
    the shortest public period, is below (sqrt(3)/4) |w1| unless the public
    basis is some 10^5 times longer than the reduced one."""
    z0, lam, H, m, n = _cell_shift(L, z)
    if np.any(np.abs(z0) < L.guard):
        raise NearPole(f"{what}: point within guard radius {L.guard:g} of the lattice")
    return z0, lam, H, m, n


def reduce_mod_lattice(L: LatticeData, z):
    """(z0, (m, n)) with z = z0 + m omega1 + n omega2, coefficients of z0
    in [-1/2, 1/2) with respect to the public basis."""
    z0, m, n = _reduce(z, L.omega1, L.omega2, L._pub_inv)
    if np.ndim(z0) == 0:
        return complex(z0), (int(m), int(n))
    return z0, (m, n)


# --------------------------------------------------------------------------
# primary evaluators


def _wp_zeta(L, z0):
    """(wp, wp', zeta) at reduced points z0 (arrays) from one theta_1
    evaluation."""
    _, zet, p, pp = _norm_funcs(z0 / L._w1r, L._cache)
    return p / L._w1r ** 2, pp / L._w1r ** 3, zet / L._w1r


def wp(L: LatticeData, z):
    """(wp(z), wp'(z)); scalar in, scalar out, arrays broadcast.  A scalar
    gives the same floats as the same point in an array: it is evaluated as
    one, as numpy's scalar products round differently from its array loops."""
    z0 = _guarded_shift(L, np.atleast_1d(z), "wp")[0]
    p, pp, _ = _wp_zeta(L, z0)
    if np.ndim(z) == 0:
        return complex(p[0]), complex(pp[0])
    return p, pp


def wzeta(L: LatticeData, z):
    """Weierstrass zeta via theta_1, quasi-periodic transport on the
    reduced basis."""
    z0, _, H, _, _ = _guarded_shift(L, np.atleast_1d(z), "wzeta")
    val = _wp_zeta(L, z0)[2] + H
    if np.ndim(z) == 0:
        return complex(val[0])
    return val


def wsigma(L: LatticeData, z):
    """Weierstrass sigma via theta_1/theta_1'(0) with the exponential and
    parity factors for the quasi-periodic transport."""
    z0, lam, H, m, n = _guarded_shift(L, np.atleast_1d(z), "wsigma")
    sig, _, _, _ = _norm_funcs(z0 / L._w1r, L._cache)
    eps = np.where((m + n + m * n) % 2 == 0, 1.0, -1.0)
    val = L._w1r * sig * eps * np.exp(H * (z0 + 0.5 * lam))
    if np.ndim(z) == 0:
        return complex(val[0])
    return val


def _zeta_direct(L, z):
    """zeta without lattice reduction (honest for moderate |Im(z/w1r)|)."""
    u = np.asarray(z, dtype=complex) / L._w1r
    ymax = float(np.max(np.abs((u * 1.0).imag))) / L._cache.tau.imag + 1.0
    th, d1, _, _ = _theta1_block(u, L._cache, ymax=ymax)
    return (L._cache.eta1n * u + d1 / th) / L._w1r


def eta_lambda(L: LatticeData, lam):
    """Quasi-period eta(lam) = zeta(z) - zeta(z + lam) for lam in the lattice.

    lam may be a complex lattice element or an integer pair (m, n) in the
    public basis.  Evaluated from two independent probe points without using
    the quasi-periodic transport; ProbeInconsistency if they disagree by
    more than 1e-9 relative.
    """
    if isinstance(lam, tuple):
        m, n = int(lam[0]), int(lam[1])
    else:
        lamc = complex(lam)
        x = L._pub_inv @ np.array([lamc.real, lamc.imag])
        m, n = round(x[0]), round(x[1])
        if abs(x[0] - m) > 1e-9 or abs(x[1] - n) > 1e-9:
            raise LatticeError(f"{lam!r} is not a lattice element")
    if m == 0 and n == 0:
        return 0.0 + 0.0j
    if max(abs(m), abs(n)) > 3:
        # additivity chain through unit steps
        return m * eta_lambda(L, (1, 0)) + n * eta_lambda(L, (0, 1))
    lamc = m * L.omega1 + n * L.omega2
    probes = np.array([0.331 * L._w1r + 0.207 * L._w2r, -0.274 * L._w1r + 0.412 * L._w2r])
    # each probe's pair z -/+ lam/2, all in one array (a scalar z would round
    # differently in numpy's scalar products): centred on the probe, the
    # pair reaches half as far from it as z and z + lam would
    with np.errstate(over="ignore", invalid="ignore"):
        zeta = _zeta_direct(L, np.concatenate([probes - 0.5 * lamc, probes + 0.5 * lamc]))
    if not np.all(np.isfinite(zeta)):
        raise ConvergenceFailure(f"eta probes: theta_1 overflows at Im tau = {L._cache.tau.imag:.6g}")
    vals = (zeta[:2] - zeta[2:]).tolist()
    scale = max(1.0, abs(vals[0]))
    if abs(vals[0] - vals[1]) > 1e-9 * scale:
        raise ProbeInconsistency(
            f"eta probes disagree: {vals[0]!r} vs {vals[1]!r}"
        )
    return 0.5 * (vals[0] + vals[1])


# --------------------------------------------------------------------------
# Eisenstein values and the lattice-sum reference evaluators


_U = 2.0 ** -53  # unit roundoff of IEEE double
_EIS_CORE = 8  # index box of the directly summed part of sum |lambda|^-k


def _eis_constants(w1, w2, k):
    """(lam_min, K, rel, S) for the basis (w1, w2) and exponent k.

    lam_min is the smallest eigenvalue of the Gram matrix, so that
    |m w1 + n w2|^2 >= lam_min (m^2 + n^2).  K = |w1|^2/12 + |w1||w2|/8 +
    |w2|^2/12 is the midpoint rule's second-order cell constant.  rel bounds
    the relative rounding error of one computed lambda^-k or tail piece: the
    point m w1 + n w2 carries 3u (|m w1| + |n w2|) <= 3u kappa |lambda| with
    kappa^2 = (|w1|^2 + |w2|^2) / lam_min, raised to the power k, plus the
    products and the division.  S >= sum over lambda != 0 of |lambda|^-k:
    the sum over the index box J = _EIS_CORE (each term within rel, the
    sum within 2 (2J+1)^2 u) plus 8 lam_min^-k/2 J^(2-k)/(k-2) for the rings
    max(|m|,|n|) = j > J, each of 8j points with |lambda|^2 >= lam_min j^2.
    """
    g11, g22, g12 = abs(w1) ** 2, abs(w2) ** 2, (w1 * w2.conjugate()).real
    lam = 0.5 * (g11 + g22) - math.hypot(0.5 * (g11 - g22), g12)
    K = g11 / 12.0 + math.sqrt(g11 * g22) / 8.0 + g22 / 12.0
    rel = k * (3.0 * math.sqrt((g11 + g22) / lam) + 8.0) * _U
    J = _EIS_CORE
    idx = np.arange(-J, J + 1)
    r2 = np.abs(idx[:, None] * w1 + idx[None, :] * w2) ** 2
    r2[J, J] = np.inf
    core = float(np.sum(r2 ** (-k / 2.0)))
    S = core * (1.0 + rel + 2 * (2 * J + 1) ** 2 * _U) + 8.0 * lam ** (-k / 2.0) * J ** (2 - k) / (k - 2)
    return lam, K, rel, S


def _eis_tail(w1, w2, M, k, rel):
    """Midpoint-rule tail of G_k beyond the index box M: the integral of
    z^-k over the plane outside the parallelogram (+-(M+1/2)) w1 +
    (+-(M+1/2)) w2, divided by the cell area A = |Im(conj(w1) w2)|.

    By Green's formula the integral is -(1/2i) times the contour integral of
    conj(z) z^-k over the counter-clockwise boundary (on a circle at
    infinity conj(z) = R^2/z, which contributes 0).  On an edge a -> b,
    conj(z) = (conj(a) - r a) + r z with r = conj(b-a)/(b-a), so each edge
    is elementary.  Returns the value and a bound on its rounding error.
    """
    h = M + 0.5
    corners = [h * (w1 + w2), h * (w2 - w1), -h * (w1 + w2), h * (w1 - w2)]
    total = 0j
    mag = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        r = (b - a).conjugate() / (b - a)
        c = a.conjugate() - r * a
        total += c * (b ** (1 - k) - a ** (1 - k)) / (1 - k) + r * (b ** (2 - k) - a ** (2 - k)) / (2 - k)
        mag += abs(c) * (abs(a) ** (1 - k) + abs(b) ** (1 - k)) / (k - 1)
        mag += (abs(a) ** (2 - k) + abs(b) ** (2 - k)) / (k - 2)
    area = abs((w1.conjugate() * w2).imag)
    return -total / (2j * area), rel * mag / (2.0 * area)


def _eis_sum_adds(M):
    """Bound on the additions any one term of eis_sum(M) + tail goes through.

    eis_sum starts from np.sum of the M-term half row and adds in sequence
    the np.sum of each of its ceil(M/32) blocks of at most 32 (2M+1) terms.
    np.sum with no axis is pairwise -- at most 20 additions below 64 complex
    values, one more per halving (at most log2(c/64) + 2) -- within chunks
    of at most B = np.getbufsize() values whose sums are added in sequence;
    a 2-D block reduced row by row adds at most 32 row sums in sequence.
    Then the box sum is added to the tail.  A smooth upper bound, linear in
    M, keeps the box-size bound convex in M.
    """
    B = np.getbufsize()
    pairwise = 22.0 + math.log2(max(B, 64) / 64.0)
    chunks = (64.0 * M + 32.0) / B + 1.0
    return pairwise + chunks + 32.0 + (M / 32.0 + 1.0) + 1.0


def _eis_bound(w1, w2, M, k, consts):
    """(remainder, rounding, tail) for the box M, consts = _eis_constants.

    |G_k - eis_sum(M) - tail| <= remainder + rounding.  The midpoint
    remainder of one cell is at most (k(k+1)/2) K sup|z|^-(k+2) (Taylor to
    second order about the cell centre).  The ring max(|m|,|n|) = j holds 8j
    cells, on which |z|^2 >= lam_min (j-1/2)^2; summing over j > M against
    the integral gives 4(k+1) K lam_min^-(k+2)/2 (M+1)/(M+1/2) (M-1/2)^-k.
    Rounding: each term's relative error rel, plus sqrt(2) gamma_d for the
    real and imaginary sums with d = _eis_sum_adds(M), both against
    sum |lambda|^-k <= S; plus the tail's own rounding,
    whose factor rel >= 32u also covers the tail's addition to the box sum.
    """
    lam, K, rel, S = consts
    tail, tail_rounding = _eis_tail(w1, w2, M, k, rel)
    remainder = 4.0 * (k + 1) * K * lam ** (-(k + 2) / 2.0) * (M + 1.0) / (M + 0.5) * (M - 0.5) ** -k
    nu = _eis_sum_adds(M) * _U
    gamma = nu / (1.0 - nu) if nu < 1.0 else math.inf
    rounding = (math.sqrt(2.0) * gamma * (1.0 + rel) + rel) * S
    return remainder, rounding + tail_rounding, tail


def _eis_box_size(L, k, tol):
    """(M, bound, tail): the smallest box M whose proven bound on
    |G_k - box sum - tail| is <= tol, that bound and the tail.

    The bound is convex in M (a falling remainder plus a rising rounding
    term), so the boxes meeting tol form an interval.  Doubling brackets its
    left end while the bound falls; if the bound stops falling first, a
    ternary search finds its minimum, and ConvergenceFailure is raised only
    when that minimum exceeds tol.  Bisection on the falling side then finds
    the left end.
    """
    w1, w2 = L._w1r, L._w2r
    consts = _eis_constants(w1, w2, k)
    seen = {}

    def bound(M):
        if M not in seen:
            remainder, rounding, tail = _eis_bound(w1, w2, M, k, consts)
            seen[M] = (remainder + rounding, tail)
        return seen[M][0]

    hi = 1
    while bound(hi) > tol and bound(2 * hi) < bound(hi):
        hi *= 2
    lo = hi // 2  # bound(lo) > tol; 0 stands for "no box"
    if bound(hi) > tol:
        # the bound stopped falling between hi and 2 hi: its minimum lies
        # in (hi/2, 2 hi)
        a, b = max(lo, 1), 2 * hi
        while b - a > 2:
            m1, m2 = a + (b - a) // 3, b - (b - a) // 3
            if bound(m1) < bound(m2):
                b = m2 - 1
            else:
                a = m1 + 1
        hi = min(range(a, b + 1), key=bound)
        if bound(hi) > tol:
            raise ConvergenceFailure(
                f"G_{k} to tolerance {tol:g}: the bound is at least {bound(hi):.3g} (box M={hi})"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return (hi,) + seen[hi]


def _eisenstein(L, k, tol):
    """(G_k, box M, bound on |error|) from the box sum plus the exact tail."""
    if k % 2 != 0 or not 4 <= k <= 12:
        raise ValueError("k must be even with 4 <= k <= 12")
    M, bound, tail = _eis_box_size(L, k, tol)
    return complex(_kernels.eis_sum(L._w1r, L._w2r, M, k) + tail), M, bound


def eisenstein(L: LatticeData, k: int, tol: float = 1e-9):
    """G_k to absolute tolerance tol, independent of theta and the q-series.

    k must be even, 4 <= k <= 12 (odd sums vanish by symmetry).  The value
    is the direct sum over an index box plus the exact integral of the
    midpoint-rule tail outside it; the box is the smallest whose proven
    remainder-plus-rounding bound is at most tol, never chosen from
    observed convergence.  ConvergenceFailure if rounding alone exceeds tol.
    """
    return _eisenstein(L, k, tol)[0]


def eisenstein_from_invariants(g2, g3, kmax: int = 12):
    """G_4..G_kmax from (g2, g3) via the classical quadratic recursion."""
    G = {4: g2 / 60.0, 6: g3 / 140.0}
    for k2 in range(8, kmax + 1, 2):
        k = k2 // 2
        s = 0.0
        for j in range(2, k - 1):
            s += (2 * j - 1) * (2 * k - 2 * j - 1) * G[2 * j] * G[2 * k - 2 * j]
        G[k2] = 3.0 * s / ((2 * k + 1) * (k - 3) * (2 * k - 1))
    return G


def latsum_weierstrass(L: LatticeData, z, M: int = 60):
    """Reference values (wp, wp', zeta, sigma) by truncated lattice sums.

    Independent of the theta route: the primed sums over the index box M
    plus exact tail assists through G_4..G_10 (computed from g2, g3, not from
    theta).  The box sums pair each lambda with -lambda over half the box
    and split it per point (see ``_kernels.latsum_eval``): the lambda near z
    are summed directly, and the shells of lambda from the power of two
    above 8 |z|^2 on through a power series in z^2 over their power sums of
    lambda^-2, formed once per call.  ``latsum_truncation_bound`` bounds
    what the box and the cut series leave out.  Returns arrays matching z.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    _guarded_shift(L, zs, "latsum_weierstrass")
    s2, s3, s1, s0, (p4, p6, p8, p10) = _kernels.latsum_eval(zs, L._w1r, L._w2r, M)
    G = eisenstein_from_invariants(L.g2, L.g3, 10)
    t4 = G[4] - p4
    t6 = G[6] - p6
    t8 = G[8] - p8
    t10 = G[10] - p10
    z2 = zs * zs
    z3 = z2 * zs
    p_val = 1.0 / z2 + s2 + 3.0 * z2 * t4 + 5.0 * z2 ** 2 * t6 + 7.0 * z2 ** 3 * t8 + 9.0 * z2 ** 4 * t10
    pp_val = -2.0 / z3 - 2.0 * s3 + 2.0 * (
        3.0 * zs * t4 + 10.0 * z3 * t6 + 21.0 * zs * z2 ** 2 * t8 + 36.0 * zs * z2 ** 3 * t10
    )
    zeta_val = 1.0 / zs + s1 - (z3 * t4 + z3 * z2 * t6 + z3 * z2 ** 2 * t8 + z3 * z2 ** 3 * t10)
    logsig_tail = -(z2 ** 2 * t4 / 4.0 + z2 ** 3 * t6 / 6.0 + z2 ** 4 * t8 / 8.0 + z2 ** 5 * t10 / 10.0)
    sigma_val = zs * np.exp(s0 + logsig_tail)
    if np.ndim(z) == 0:
        return complex(p_val[0]), complex(pp_val[0]), complex(zeta_val[0]), complex(sigma_val[0])
    return p_val, pp_val, zeta_val, sigma_val


def latsum_truncation_bound(L: LatticeData, z, M: int = 60):
    """Bounds on the truncation error of latsum_weierstrass(L, z, M).

    Returns (wp, wp', zeta, log sigma) bounds matching z, each the sum of a
    bound on what the box leaves out and one on what the kernel's cut far
    series leave out.

    Box.  Outside the box, each function's terms expand in powers of
    z/lambda; the assists through G_10 take the even powers k <= 10 exactly
    and the odd ones cancel in +-lambda pairs, so the error is sum over even
    k >= 12 of c_k z^(k-j) T_k, T_k the sum of lambda^-k outside the box,
    with (c_k, j) = (k-1, 2), ((k-1)(k-2), 3), (1, 1), (1/k, 0).  The rings
    max(|m|,|n|) = i > M hold 8i points with |lambda|^2 >= lam_min i^2
    (lam_min from _eis_constants), so |T_k| <= 8 lam_min^-k/2 M^(2-k)/(k-2).
    With a = sqrt(lam_min) M, r = |z|/a and s = r^2, the sums over k
    close to 8 M^2 times a^-2 (11/10) r^10/(1-s), a^-3 r^9 (11-9s)/(1-s)^2,
    a^-1 r^11/(10 (1-s)) and r^12/(120 (1-s)), using 1/(k-2) <= 1/10.
    The expansion needs |z| < a: ConvergenceFailure otherwise.

    Far series (see _latsum_far_bound).  ``_kernels.latsum_eval`` sums the
    pair terms of the far lambda of the half box, those with
    |u| = |z|^2/|lambda|^2 <= q = 1/8, as series in w = z^2 cut after
    k = K (``_kernels._LATSUM_TERMS``).  With x = |u| <= q, each pair term's
    remainder is lambda^-4 times a tail sum_(k>K) c_k x^k <= q^(K+1) A,
    A = sum_(j>=0) c_(K+1+j) q^j, for the coefficients
    c_k = 2k+3 (S2), (2k+3)(k+1) (S3), 1 (S1) and 1/(k+2) (S0):
    A2 = (2K+5)/(1-q) + 2q/(1-q)^2,
    A3 = (2K+5)(K+2)/(1-q) + (4K+9) q/(1-q)^2 + 2q(1+q)/(1-q)^3
    (from (a+2j)(b+j) = ab + (a+2b) j + 2 j^2 and the sums of j q^j and
    j^2 q^j), A1 = 1/(1-q) and A0 = 1/((K+3)(1-q)).  Over the half box
    sum |lambda|^-4 <= T = 4 zeta(3)/lam_min^2, by the same rings (4i points
    each in the half box).  With the series' factors 2|w|, 2|z|, 2|z||w| and
    |w|^2, the remainders of S2, S3, S1 and S0 are at most
    2|w| T q^(K+1) A2, 2|z| T q^(K+1) A3, 2|z||w| T q^(K+1) A1 and
    |w|^2 T q^(K+1) A0.  They enter wp, wp', zeta and log sigma with the
    factors 1, 2, 1 and 1.  The kernel's shell test compares rounded |w|
    and |lambda|^2, which the factor 1 + 2^-48 on q covers.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    lam_min = _eis_constants(L._w1r, L._w2r, 12)[0]
    a = math.sqrt(lam_min) * M
    r = np.abs(zs) / a
    if np.any(r >= 1.0):
        raise ConvergenceFailure(
            f"lattice-sum bound: |z| = {float(np.max(np.abs(zs))):.6g} is not below "
            f"sqrt(lam_min) M = {a:.6g} (box M={M})"
        )
    s = r * r
    c = 8.0 * M * M / (1.0 - s)
    f2, f3, f1, f0 = _latsum_far_bound(zs, lam_min)
    out = (
        c * 1.1 * r ** 10 / a ** 2 + f2,
        c * r ** 9 * (11.0 - 9.0 * s) / ((1.0 - s) * a ** 3) + 2.0 * f3,
        c * r ** 11 / (10.0 * a) + f1,
        c * r ** 12 / 120.0 + f0,
    )
    if np.ndim(z) == 0:
        return tuple(float(b[0]) for b in out)
    return out


def _latsum_far_bound(zs, lam_min):
    """Bounds on the remainders of the far series of ``_kernels.latsum_eval``
    in (S2, S3, S1, S0) at zs, for a basis whose Gram matrix has smallest
    eigenvalue lam_min; the proof is in latsum_truncation_bound."""
    K = _kernels._LATSUM_TERMS
    q = 2.0 ** -_kernels._LATSUM_GAP * (1.0 + 2.0 ** -48)
    p = 1.0 - q
    a2 = (2 * K + 5) / p + 2.0 * q / p ** 2
    a3 = (2 * K + 5) * (K + 2) / p + (4 * K + 9) * q / p ** 2 + 2.0 * q * (1.0 + q) / p ** 3
    a1 = 1.0 / p
    a0 = 1.0 / ((K + 3) * p)
    T = 4.81 / lam_min ** 2 * q ** (K + 1)  # 4 zeta(3) < 4.81
    az = np.abs(zs)
    aw = az * az
    return 2.0 * aw * T * a2, 2.0 * az * T * a3, 2.0 * az * aw * T * a1, aw * aw * T * a0


# --------------------------------------------------------------------------
# deterministic sample points


def fundamental_points(L: LatticeData, count: int, seed: int = 0):
    """Seeded points u*omega1 + v*omega2, u,v in [0.05, 0.95], kept clear
    of the guard radius."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        u, v = rng.uniform(0.05, 0.95, size=2)
        z = u * L.omega1 + v * L.omega2
        if abs(_cell_shift(L, z)[0]) > 50 * L.guard:
            pts.append(z)
    return np.array(pts, dtype=complex)
