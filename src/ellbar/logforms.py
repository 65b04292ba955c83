"""Logarithmic one-forms on the universal vectorial extension of a curve.

Coordinates are (z, s): z on the universal cover of the curve, s the fiber
coordinate of the extension.  The basic letters are

* ``nu``   = ds,
* ``w0``   = dz,
* ``w{n}`` = f_n(z, s) dz  for n >= 1,

where the f_n come from the sigma-kernel generating series
``w * sigma(z + w) / (sigma(z) sigma(w)) * exp(-s w) = sum_n f_n(z, s) w^n``.
The f_n are computed by a power-series recursion in w (zeta/wp derivatives
plus the even lattice coefficients), never by dividing sigmas; the direct
sigma quotient ``kernel_F`` is kept separate so the two routes can be played
against each other.

Differentials: d(nu) = 0, d(w0) = 0 and d(w{n}) = -nu ^ w{n-1} for n >= 1;
the only nonzero wedges are nu ^ w{n}.  Both statements are encoded exactly
in the presentation returned by :func:`dga_presentation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .barcx import DGAPresentation
from .errors import TruncationExceeded
from .wlattice import LatticeData, _wp_zeta, eisenstein_from_invariants, wsigma
from .wlattice import wp, wzeta  # noqa: F401  (perfbench/tracing.py wraps them here)

__all__ = [
    "ExtLattice",
    "letters",
    "two_form_letters",
    "f_n",
    "f_batch",
    "kernel_F",
    "residue_expected",
    "pullback_coeff",
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
    def eisenstein_coeffs(self) -> dict:
        """G_4, G_6, ... up to nmax from (g2, g3), computed once per instance."""
        return eisenstein_from_invariants(self.lattice.g2, self.lattice.g3, 2 * (self.nmax // 2))


def letters(nmax: int):
    """Degree-1 letter names: nu, w0, ..., w{nmax}."""
    return ("nu",) + tuple(f"w{n}" for n in range(nmax + 1))


def two_form_letters(nmax: int):
    return tuple(f"nu^w{n}" for n in range(nmax + 1))


# --------------------------------------------------------------------------
# the f_n series


def _g_coeffs(E: ExtLattice, z):
    """Coefficients g_m of w F(z, w) = sum_m g_m(z) w^m for m <= nmax.

    F is reconstructed as exp(A(w) + B(w)) with A from zeta and wp
    derivatives at z, B the z-independent even part with Eisenstein
    coefficients.
    """
    L = E.lattice
    N = E.nmax
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    P = z.shape[0]
    # wp derivative tower p_j = wp^{(j)}, j = 0..N-2
    C = np.zeros((N + 1, P), dtype=complex)  # series exponent coefficients
    if N >= 1:
        p0, p1, C[1] = _wp_zeta(L, z, "f_batch")
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
    # exponentiate: E_0 = 1, E_m = (1/m) sum_{j=1}^m j C_j E_{m-j}
    g = np.zeros((N + 1, P), dtype=complex)
    g[0] = 1.0
    for m in range(1, N + 1):
        acc = np.zeros(P, dtype=complex)
        for j in range(1, m + 1):
            acc += j * C[j] * g[m - j]
        g[m] = acc / m
    return g


def f_batch(E: ExtLattice, z, s):
    """All f_0..f_nmax at (z, s); returns array of shape (nmax+1, len(z))."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    s = np.broadcast_to(np.asarray(s, dtype=complex), z.shape)
    g = _g_coeffs(E, z)
    N = E.nmax
    out = np.zeros((N + 1, z.shape[0]), dtype=complex)
    # f_n = sum_{j<=n} (-s)^j / j! g_{n-j}
    spow = np.ones_like(z)
    fact = 1.0
    for j in range(N + 1):
        if j > 0:
            spow = spow * (-s)
            fact *= j
        for n in range(j, N + 1):
            out[n] += spow / fact * g[n - j]
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


# --------------------------------------------------------------------------
# coefficients for pullbacks along paths


def pullback_coeff(E: ExtLattice, form, z, s):
    """Coefficients (cz, cs) with  form = cz dz + cs ds  at (z, s).

    ``form`` is a letter name or a dict {letter: coefficient}; nu
    contributes (0, 1), w{n} contributes (f_n, 0).
    """
    if isinstance(form, str):
        form = {form: 1}
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    cz = np.zeros(z.shape, dtype=complex)
    cs = np.zeros(z.shape, dtype=complex)
    fb = None
    for letter, coeff in form.items():
        c = complex(coeff)
        if letter == "nu":
            cs += c
        elif letter.startswith("w"):
            n = int(letter[1:])
            if n < 0:
                raise ValueError(f"unknown letter {letter!r}")
            if n > E.nmax:
                raise TruncationExceeded(
                    f"letter {letter!r} beyond truncation nmax={E.nmax}"
                )
            if n == 0:
                cz += c
            else:
                if fb is None:
                    fb = f_batch(E, z, s)
                cz += c * fb[n]
        else:
            raise ValueError(f"unknown letter {letter!r}")
    return cz, cs


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
