"""Logarithmic one-forms on the universal vectorial extension of a curve.

Coordinates are (z, s): z on the universal cover of the curve, s the fiber
coordinate of the extension.  The basic letters are

* ``nu``   = ds,
* ``w0``   = dz,
* ``w{n}`` = f_n(z, s) dz  for n >= 1,

where the f_n come from the sigma-kernel generating series
``w * sigma(z + w) / (sigma(z) sigma(w)) * exp(-s w) = sum_n f_n(z, s) w^n``.
With w F(z, w) = sum_m g_m(z) w^m, f_n = sum_j (-s)^j / j! g_{n-j}.  A point
z = z0 + lam, z0 in the centred cell of the reduced basis, is evaluated at
(z0, s - H), H = -eta(lam): that translation leaves every f_n unchanged.  The
g_m at z0 come from one of two series in w, never from dividing sigmas:

* far from the lattice, g = exp(C(w)) with C from zeta and the wp tower
  (one theta pass) plus the even Eisenstein part;
* for |z0| <= 1/2 of the shortest period, from
  sigma(z) = z exp(-sum_k G_2k z^2k / 2k): w F = (1 + w/z0) exp(R(z0, w)),
  R = -sum_k G_2k / 2k ((z0 + w)^2k - z0^2k - w^2k).  Its coefficients
  r_m(z0) = -sum_k G_2k / 2k C(2k, m) z0^(2k-m) are one product of a table
  with the powers of z0, and g_m = e_m + e_{m-1} / z0 for e = exp(R).  The
  pole is exact, so nothing cancels near the lattice point (the theta route
  there cancels poles of order up to m).  The table stops at the smallest
  K whose dropped terms, bounded through |G_2k| <= sum |lam|^-2k, sum to
  at most the unit roundoff.

The same table, taken as Laurent series at the lattice point 0 with bounds
on their coefficients (``ExtLattice._laurent``), gives the letters along a
line through the disk as rows of series in x = z / t with bounds M(rho)
(``ExtLattice.disk_rows``): the rows of a transport's disk pieces.

The direct sigma quotient ``kernel_F`` is kept separate so the routes can be
played against each other.

Differentials: d(nu) = 0, d(w0) = 0 and d(w{n}) = -nu ^ w{n-1} for n >= 1;
the only nonzero wedges are nu ^ w{n}.  Both statements are encoded exactly
in the presentation returned by :func:`dga_presentation`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .barcx import DGAPresentation
from .errors import TruncationExceeded
from .wlattice import (
    LatticeData,
    _U,
    _eis_constants,
    _guarded_shift,
    _wp_zeta,
    eisenstein_from_invariants,
    wsigma,
)
from .wlattice import wp, wzeta  # noqa: F401  (perfbench/tracing.py wraps them here)

__all__ = [
    "ExtLattice",
    "letters",
    "two_form_letters",
    "f_n",
    "f_batch",
    "kernel_F",
    "residue_expected",
    "two_form_coeff",
    "dga_presentation",
]


@dataclass(frozen=True)
class ExtLattice:
    """A lattice together with the form-series truncation order nmax."""

    lattice: LatticeData
    nmax: int = 8

    def __post_init__(self):
        if not 0 <= self.nmax <= 30:
            raise ValueError("nmax must lie in [0, 30]")

    @cached_property
    def _series(self):
        """(G, a, t, B), all from one eisenstein_from_invariants call up to
        G_2K, K = _sigma_order: G the theta route's even part G_4, G_6, ...
        up to nmax (G_4 and G_6 at least), a the shortest period, t the
        power of 2 in (a/2, a] and B the sigma-product table.

        The call runs on the invariants of the lattice divided by t, whose
        G_2k t^2k stay below a^4 sum |lam|^-4 at any scale, where G_2k alone
        over- or underflows for a far from 1.  Scaling by a power of 2
        commutes with rounding, so G holds the floats of the call on (g2, g3)
        itself wherever those are normal numbers.

        In units of t, t^m r_m(z0) = x^(m mod 2) sum_i B[m, i] y^i with
        x = z0 / t and y = x^2: the term of G_2k has the power 2k - m of x,
        so i = k - ceil(m/2) and B[m, i] = -G_2k t^2k / 2k C(2k, m) for
        2 <= k <= K, 1 <= m <= min(nmax, 2k - 1).  A lattice whose invariants
        are not finite keeps the theta route everywhere (a = 0).
        """
        L = self.lattice
        a = abs(L._w1r)
        e = math.frexp(a)[1] - 1
        t = math.ldexp(1.0, e)
        K = _sigma_order(self.nmax, (a / t) ** 4 * _eis_constants(L._w1r / t, L._w2r / t, 4)[3])
        G = eisenstein_from_invariants(_ldexp(L.g2, 4 * e), _ldexp(L.g3, 6 * e), 2 * K)
        B = np.zeros((self.nmax + 1, K), dtype=complex)
        for k in range(2, K + 1):
            Gk = -G[2 * k] / (2 * k)
            for m in range(1, min(self.nmax, 2 * k - 1) + 1):
                B[m, k - (m + 1) // 2] = Gk * math.comb(2 * k, m)
        kmax = max(6, 2 * (self.nmax // 2))
        theta_part = {k: _ldexp(G[k], -e * k) for k in range(4, kmax + 1, 2)}
        return theta_part, (a if np.all(np.isfinite(B)) else 0.0), t, B

    @property
    def eisenstein_coeffs(self) -> dict:
        """G_4, G_6, ... up to nmax (G_4 and G_6 at least), computed once per
        instance."""
        return self._series[0]

    @cached_property
    def _laurent(self):
        """(c, rho, M): the letters' g_m, as the sigma-product route evaluates
        them (its table B), as series at the lattice point in x = z0 / t, t as
        in ``_series``, and bounds on their coefficients.

        Row m of c holds the coefficients of x^-1, x^0, ..., x^D of t g_m,
        m = 0..nmax, D = _LAURENT_DEGREE: t^(1-m) times those of t^m g_m, the
        form coefficient per dx.  R_m, the coefficients of t^m r_m in x, are
        B's row m at the powers m mod 2 + 2i; E = exp R is formed as series
        in x, by the recursion of ``_exp_series`` with its products cut
        after x^(D+1); then t^m g_m = E_m + E_{m-1} / x.  Only g_1 has a
        pole, 1 / x.

        M[m, i] >= sum_p |c_p| rho_i^p over the regular part of row m, at the
        radii rho = _LAURENT_RADII a / t (a the shortest period, the
        distance to the nearest other lattice point).  The coefficients of E
        are polynomials with positive coefficients in those of R, so they
        are at most those of exp(R^) for R^ with the coefficients |B|, whose
        value at rho follows from ``_exp_series`` on the finite sums
        R^_m(rho).  E_0 = 1 and E_m(0) = 0 for m >= 1, so the regular part
        of E_{m-1} / x is at most E^_{m-1}(rho) / rho for m >= 2, 0 for m = 1.
        """
        _, a, t, B = self._series
        N, D = self.nmax, _LAURENT_DEGREE
        R = np.zeros((N + 1, D + 2), dtype=complex)
        for m in range(1, N + 1):
            p = m % 2 + 2 * np.arange(B.shape[1])
            R[m, p[p <= D + 1]] = B[m, p <= D + 1]
        E = np.zeros((N + 1, D + 2), dtype=complex)
        E[0, 0] = 1.0
        for m in range(1, N + 1):
            E[m] = sum(j * np.convolve(R[j], E[m - j])[:D + 2] for j in range(1, m + 1)) / m
        c = np.zeros((N + 1, D + 2), dtype=complex)
        c[:, 1:] = E[:, :-1]
        c[1:] += E[:-1]
        rho = np.asarray(_LAURENT_RADII) * (a / t)
        Rh = np.abs(B) @ rho[None, :] ** (2 * np.arange(B.shape[1]))[:, None]
        Rh[1::2] *= rho
        M = _exp_series(Rh).real
        M[2:] += M[1:-1] / rho
        scale = t ** (1.0 - np.arange(N + 1))[:, None]
        return c * scale, rho, M * scale

    def disk_rows(self, letters, z0, z1, s0, s1):
        """(x0, x1, radius, rho, phi, M): the letters along the line (z0, s0)
        -> (z1, s1) in the cell of the lattice point 0, as series in x = z / t
        (t as in ``_series``, a power of 2, so x0 and x1, the line's ends,
        are exact) from the table ``_laurent``: radius = _RHO a / t is the
        sigma route's disk (0 where the lattice keeps the theta route), row
        i of phi letter i's coefficients of x^-1 .. x^D per dx (D =
        _LAURENT_DEGREE; nu = beta dx and w0 = t dx along s = alpha + beta
        x), and M[i, k] >= sum_p |phi_p| rho_k^p over its regular part.

        f_n = sum_j (-s)^j / j! g_(n-j) at s = alpha is the lower Toeplitz
        matrix of (-alpha)^j / j! times the t g_m (under half the time of
        ``f_batch``'s convolution on these rows); e^(-beta x w) then adds,
        for each i >= 1, the i-times shifted rows times (-beta x)^i / i!,
        which takes the pole of a row into the regular part."""
        _, a, t, _ = self._series
        c, rho, bound = self._laurent
        x0, x1 = z0 / t, z1 / t
        beta = (s1 - s0) / (x1 - x0)
        alpha = s0 - beta * x0
        N = max((int(name[1:]) for name in letters if name != "nu"), default=0)
        d, lower, fact = _lower_toeplitz(N)
        e = (-alpha) ** np.arange(N + 1) / fact
        phi = (e[d] * lower) @ c[:N + 1]
        M = (np.abs(e)[d] * lower) @ bound[:N + 1]
        if beta:
            shifted, reg, pole = phi.copy(), M.copy(), np.abs(phi[:, 0])
            for i in range(1, N + 1):
                b = (-beta) ** i / fact[i]
                phi[i:, i:] += b * shifted[:N + 1 - i, :-i]
                M[i:] += abs(b) * (rho ** i * reg[:N + 1 - i] + rho ** (i - 1) * pole[:N + 1 - i, None])
        if "nu" in letters:
            phi = np.vstack([phi, np.eye(1, phi.shape[1], 1) * beta])
            M = np.vstack([M, np.full((1, len(rho)), abs(beta))])
        rows = [len(phi) - 1 if name == "nu" else int(name[1:]) for name in letters]
        return x0, x1, _RHO * a / t, rho, phi[rows], M[rows]


def letters(nmax: int):
    """Degree-1 letter names: nu, w0, ..., w{nmax}."""
    return ("nu",) + tuple(f"w{n}" for n in range(nmax + 1))


def two_form_letters(nmax: int):
    return tuple(f"nu^w{n}" for n in range(nmax + 1))


def _ldexp(v, e):
    """v 2^e for complex v: exact where the result is a normal number, inf
    (not OverflowError) past the largest."""
    with np.errstate(over="ignore"):
        return complex(np.ldexp(v.real, e), np.ldexp(v.imag, e))


# --------------------------------------------------------------------------
# the f_n series

# The sigma-product branch takes reduced points within _RHO shortest periods
# of the lattice point 0, and drops terms that sum to at most _U.
_RHO = 0.5

# The Laurent table of the g_m at the lattice point (ExtLattice._laurent)
# keeps the powers of x up to this degree, and bounds the coefficients at
# these fractions of their radius of convergence.
_LAURENT_DEGREE = 128
_LAURENT_RADII = (0.6, 0.7, 0.8, 0.9)


def _sigma_order(N, c):
    """Smallest K >= max(2, (N+1)/2) such that, for m = 1..N,

        c sum_{k > K, 2k > m} C(2k, m) / 2k RHO^(2k-m-1) <= U.

    With a the shortest period, |G_2k| <= sum |lam|^-2k <= c a^-2k for
    c = a^4 sum |lam|^-4.  So for |z0| = x a <= RHO a the terms that the
    table drops from a^m r_m(z0), divided by x, sum to at most the left
    side: the truncation error of e_{m-1} / z0 stays below U a^-m.  The
    ratio of consecutive terms decreases in k, so once it is q < 1 the
    rest sums to at most q / (1 - q) times the last term.
    """
    K = max(2, (N + 2) // 2)
    for m in range(1, N + 1):
        k0 = max(2, m // 2 + 1)
        terms = []
        for k in itertools.count(k0):
            t = c * math.comb(2 * k, m) / (2 * k) * _RHO ** (2 * k - m - 1)
            q = (2 * k + 1) * (2 * k) / ((2 * k + 2 - m) * (2 * k + 1 - m)) * _RHO ** 2
            terms.append(t)
            if q < 1 and t * q / (1 - q) <= _U / 2:
                break
        tail = t * q / (1 - q)
        for k in range(k0 + len(terms) - 1, k0 - 1, -1):
            t = terms[k - k0]
            if tail + t > _U:
                K = max(K, k)
                break
            tail += t
    return K


def _exp_series(C):
    """Coefficients of exp(sum_j C_j w^j), C_0 = 0: E_0 = 1 and
    E_m = (1/m) sum_{j=1}^m j C_j E_{m-j}."""
    N, P = C.shape[0] - 1, C.shape[1]
    g = np.zeros((N + 1, P), dtype=complex)
    g[0] = 1.0
    for m in range(1, N + 1):
        acc = np.zeros(P, dtype=complex)
        for j in range(1, m + 1):
            acc += j * C[j] * g[m - j]
        g[m] = acc / m
    return g


def _g_theta(E: ExtLattice, z0):
    """Coefficients g_m of w F(z0, w) = sum_m g_m(z0) w^m, m <= nmax, at z0.

    F is reconstructed as exp(A(w) + B(w)) with A from zeta and wp
    derivatives at z0, B the z-independent even part with Eisenstein
    coefficients.
    """
    L = E.lattice
    N = E.nmax
    P = z0.shape[0]
    # wp derivative tower p_j = wp^{(j)}, j = 0..N-2
    C = np.zeros((N + 1, P), dtype=complex)  # series exponent coefficients
    if N >= 1:
        p0, p1, C[1] = _wp_zeta(L, z0)
    if N >= 2:
        p = np.zeros((max(N - 1, 2), P), dtype=complex)
        p[0] = p0
        if N - 2 >= 1:
            p[1] = p1
        for j in range(0, N - 3):
            # p_{j+2} = 6 sum_i binom(j, i) p_i p_{j-i}  (j >= 1),
            # p_2 = 6 p_0^2 - g2/2
            if j == 0:
                p[2] = 6.0 * p[0] * p[0] - L.g2 / 2.0
            else:
                acc = np.zeros(P, dtype=complex)
                for i in range(j + 1):
                    acc += math.comb(j, i) * p[i] * p[j - i]
                p[j + 2] = 6.0 * acc
        for k in range(2, N + 1):
            C[k] = -p[k - 2] / math.factorial(k)
    # even universal part: + G_{2k} w^{2k} / (2k)
    if N >= 4:
        G = E.eisenstein_coeffs
        for k2 in range(4, N + 1, 2):
            C[k2] = C[k2] + G[k2] / k2
    return _exp_series(C)


def _g_sigma(E: ExtLattice, z0):
    """g_m at reduced points z0 near 0 from w F = (1 + w/z0) exp(R(z0, w)),
    computed in units of t (see ExtLattice._series)."""
    _, _, t, B = E._series
    x = z0 / t
    Y = np.empty((B.shape[1], x.shape[0]), dtype=complex)  # y^0 .. y^(K-1)
    Y[0] = 1.0
    Y[1] = x * x
    k = 1
    while k < len(Y) - 1:
        # both factors full arrays: a row broadcast against a block would
        # take numpy's scalar-operand loop for one point and its array loop
        # for several, which round differently
        h = min(k, len(Y) - 1 - k)
        Y[k + 1 : k + 1 + h] = Y[1 : 1 + h] * np.repeat(Y[k : k + 1], h, axis=0)
        k += h
    # numpy hands one column to gemv, which rounds differently from gemm
    R = B @ Y if len(x) > 1 else (B @ np.repeat(Y, 2, axis=1))[:, :1]
    for m in range(1, E.nmax + 1, 2):
        R[m] = R[m] * x
    g = _exp_series(R)
    g[1:] += g[:-1] / x
    return g * (t ** -np.arange(E.nmax + 1.0))[:, None]


def _g_coeffs(E: ExtLattice, z, s):
    """(g, s - H): g_m at the reduced points z0 = z - lam from the route
    each takes, and the s to expand them with, s - H = s + eta(lam)."""
    z0, _, H, _, _ = _guarded_shift(E.lattice, z, "f_batch")
    near = np.abs(z0) <= _RHO * E._series[1]
    if near.all():
        return _g_sigma(E, z0), s - H
    if not near.any():
        return _g_theta(E, z0), s - H
    g = np.empty((E.nmax + 1, z.shape[0]), dtype=complex)
    g[:, near] = _g_sigma(E, z0[near])
    g[:, ~near] = _g_theta(E, z0[~near])
    return g, s - H


@functools.lru_cache(maxsize=None)
def _convolution_plan(N):
    """(j, n - j) over the pairs j <= n <= N, j-major, and the column of
    j! for j = 1..N as a running float product.  Shared by every call with
    this N, which only reads them."""
    j, n = np.triu_indices(N + 1)
    return j, n - j, np.cumprod(np.arange(1.0, N + 1))[:, None]


@functools.lru_cache(maxsize=None)
def _lower_toeplitz(N):
    """(k - l clipped at 0, k >= l, the factorials 0!..N!) over the pairs
    (k, l) of 0..N: the layout of (N+1)-square lower Toeplitz matrices of
    u^(k-l) / (k-l)!."""
    k = np.arange(N + 1)
    d = k[:, None] - k[None, :]
    return np.maximum(d, 0), d >= 0, np.cumprod(np.r_[1.0, k[1:]])


def f_batch(E: ExtLattice, z, s):
    """All f_0..f_nmax at (z, s); returns array of shape (nmax+1, len(z))."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    s = np.broadcast_to(np.asarray(s, dtype=complex), z.shape)
    g, s = _g_coeffs(E, z, s)
    N = E.nmax
    # f_n = sum_{j<=n} (-s)^j / j! g_{n-j}: one convolution, every product
    # S_j g_{n-j} (j <= n) in one step, j-major, then added in j order
    j, i, fact = _convolution_plan(N)
    S = np.empty_like(g)
    S[0] = 1.0
    for k in range(1, N + 1):
        S[k] = S[k - 1] * -s
    S[1:] /= fact
    terms = S[j] * g[i]
    out = np.zeros_like(g)
    for k in range(N + 1):
        out[k:] += terms[: N + 1 - k]
        terms = terms[N + 1 - k :]
    return out


def f_n(E: ExtLattice, n: int, z, s):
    """f_n(z, s); scalar in, scalar out."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > E.nmax:
        raise TruncationExceeded(f"n={n} beyond truncation nmax={E.nmax}")
    vals = f_batch(E, z, s)[n]
    if np.ndim(z) == 0:
        return complex(vals[0])
    return vals


def kernel_F(E: ExtLattice, z, w):
    """The sigma kernel F(z, w) = sigma(z+w) / (sigma(z) sigma(w)).

    Direct quotient of primary sigma evaluations; used as the independent
    route against the f_n series.
    """
    L = E.lattice
    return wsigma(L, np.asarray(z) + np.asarray(w)) / (wsigma(L, z) * wsigma(L, w))


def residue_expected(n: int, s) -> complex:
    """Residue of f_n(z, s) dz at z = 0: (-s)^(n-1) / (n-1)! for n >= 1."""
    if n < 1:
        raise ValueError("only the letters w{n}, n >= 1, have a pole")
    return (-complex(s)) ** (n - 1) / math.factorial(n - 1)


def two_form_coeff(E: ExtLattice, name: str, z, s):
    """Coefficient of dz ^ ds for a two-form letter nu^w{n}.

    nu ^ w{n} = ds ^ (f_n dz) = -f_n dz ^ ds.
    """
    if not name.startswith("nu^w"):
        raise ValueError(f"unknown two-form letter {name!r}")
    n = int(name[4:])
    if n > E.nmax:
        raise TruncationExceeded(f"letter {name!r} beyond truncation nmax={E.nmax}")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if n == 0:
        return -np.ones(z.shape, dtype=complex)
    return -f_batch(E, z, s)[n]


# --------------------------------------------------------------------------
# exact presentation of the letter algebra


def dga_presentation(nmax: int) -> DGAPresentation:
    """Exact rational presentation of the (nu, w0..w{nmax}) letter algebra.

    d(w{n}) = -nu^w{n-1} for n >= 1, all other differentials vanish;
    nu ^ w{n} are the only nonzero wedges.
    """
    deg1 = letters(nmax)
    deg2 = two_form_letters(nmax)
    diff = {}
    for n in range(1, nmax + 1):
        diff[f"w{n}"] = {f"nu^w{n - 1}": Fraction(-1)}
    wedge = {}
    for n in range(nmax + 1):
        wedge[("nu", f"w{n}")] = {f"nu^w{n}": Fraction(1)}
        wedge[(f"w{n}", "nu")] = {f"nu^w{n}": Fraction(-1)}
    return DGAPresentation(deg1=deg1, deg2=deg2, diff=diff, wedge=wedge)
