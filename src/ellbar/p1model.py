"""Genus-zero reference instance: the thrice-punctured line.

Two logarithmic letters om0 = dz/z and om1 = dz/(z - 1), no two-forms, zero
differential: every bar word is closed and every iterated integral between
interior points is a homotopy invariant.  Regularized integrals from the
tangential base at 0 to the tangential base at 1 evaluate to multiple zeta
values

    zeta(k1, ..., kd) = sum_{n1 > ... > nd > 0} n1^{-k1} ... nd^{-kd}

through the standard word dictionary.  The independent oracle for the
integral route is the Hölder convolution at 1/2 (Borwein, Bradley, Broadhurst
and Lisonek): the word's path is split at 1/2 and each half is a power series
in 1/2 with nonnegative coefficients.  The sum is truncated at the smallest
order whose proven bound on truncation and rounding is at most tol/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from mpmath import mp, mpf

from .barcx import DGAPresentation
from .chenint import regularized_integral_p1
from .errors import ConvergenceFailure, NotAdmissible

__all__ = [
    "MZVIndex",
    "p1_dga",
    "mzv_series",
    "mzv_integral",
    "MZV_MAX_DEPTH",
    "MZV_MAX_WEIGHT",
    "INTEGRAL_SIGN_BY_DEPTH",
]

MZV_MAX_DEPTH = 3
MZV_MAX_WEIGHT = 8

# Sign relating the descending-time regularized integral of the word
# om0^{k1-1} om1 ... om0^{kd-1} om1 to the series value.  Fixed once against
# zeta(2) (depth 1: the integral gives -zeta(2)) and zeta(2,1) (depth 2:
# +zeta(3)); the pattern is (-1)^depth.
INTEGRAL_SIGN_BY_DEPTH = {1: -1, 2: 1, 3: -1}

_WORK_DPS = 40


@dataclass(frozen=True)
class MZVIndex:
    """Index (k1, ..., kd) of a multiple zeta value."""

    ks: tuple

    def __post_init__(self):
        ks = tuple(int(k) for k in self.ks)
        if len(ks) < 1:
            raise ValueError("index needs at least one entry")
        if any(k < 1 for k in ks):
            raise ValueError(f"index entries must be positive, got {ks}")
        object.__setattr__(self, "ks", ks)

    @classmethod
    def parse(cls, text: str) -> "MZVIndex":
        parts = [p.strip() for p in str(text).split(",")]
        try:
            ks = tuple(int(p) for p in parts if p != "")
        except ValueError:
            raise ValueError(f"cannot parse MZV index from {text!r}")
        if not ks:
            raise ValueError(f"cannot parse MZV index from {text!r}")
        return cls(ks)

    @property
    def depth(self) -> int:
        return len(self.ks)

    @property
    def weight(self) -> int:
        return sum(self.ks)

    @property
    def admissible(self) -> bool:
        return self.ks[0] >= 2

    def word(self) -> str:
        """Word over 0/1 in descending-time order: om0^{k-1} om1 per entry."""
        return "".join("0" * (k - 1) + "1" for k in self.ks)

    def __str__(self):
        return ",".join(str(k) for k in self.ks)


def p1_dga() -> DGAPresentation:
    """Two letters, no two-forms, zero differential and wedge."""
    return DGAPresentation(deg1=("om0", "om1"), deg2=(), diff={}, wedge={})


# --------------------------------------------------------------------------
# Hölder convolution at 1/2
#
# With om1 = dz/(z - 1) the integral from 0 to z of a word ending in om1 with
# r letters om1 is (-1)^r sum_n g_n z^n, every g_n >= 0: om1 alone gives
# g_n = 1/n, a leading om0 maps g_n to g_n/n and a leading om1 to
# (1/n) sum_{m<n} g_m.  Splitting the path at 1/2 and mapping z to 1 - z on
# its first half gives zeta(k) = (-1)^d sum_{w=uv} (-1)^|u| I(t(u)) I(v),
# all integrals from 0 to 1/2, where t reverses a word and swaps 0 and 1.
# The signs multiply to +1: zeta(k) sums products of positive series.
#
# Bound: g_n <= b_n = H_{n-1}^{r-1} / ((r-1)! n) by induction on the letters
# (H_m^r - H_{m-1}^r >= r H_{m-1}^{r-1} / m).  Past N the terms b_n 2^-n fall
# by at most q = (1 + 1/((N+1) H_N))^{r-1} / 2, at most 0.57 for N >= 15 and
# r <= 8, so the tail is at most b_{N+1} 2^-(N+1) / (1 - q).  For A <= a and
# B <= b a cut product misses at most a e_B + e_A b.  Every term is positive,
# so rounding scales the sum by at most 1 + K u / (1 - K u), u = 2^(1 - prec),
# with K = 2 (L + 1) (N + 1) operations on any path through a word of length
# L.  The factor 1 + 1e-9 covers the float evaluation of the bound itself.

_SWAP = str.maketrans("01", "10")


@lru_cache(maxsize=None)
def _factor_bound(r, N):
    """(size, tail) bounds of a factor with r letters om1, cut after N terms."""
    c = math.factorial(r - 1)
    H = size = 0.0  # H = H_{n-1}
    for n in range(1, N + 1):
        size += H ** (r - 1) / (c * n) * 2.0**-n
        H += 1.0 / n
    q = 0.5 * (1.0 + 1.0 / ((N + 1) * H)) ** (r - 1)
    tail = H ** (r - 1) / (c * (N + 1)) * 2.0 ** -(N + 1) / (1.0 - q)
    return size + tail, tail


def _bound(w, t, N):
    """Bound on the truncation and rounding error of the sum cut after N."""
    L, trunc, size = len(w), 0.0, 0.0
    for k in range(L + 1):
        a, ea = _factor_bound(t[L - k :].count("1"), N) if k else (1.0, 0.0)
        b, eb = _factor_bound(w[k:].count("1"), N) if k < L else (1.0, 0.0)
        trunc += a * eb + ea * b
        size += a * b
    Ku = 2 * (L + 1) * (N + 1) * 2.0 ** (1 - mp.prec)
    return (trunc + size * Ku / (1 - Ku)) * (1 + 1e-9)


def _suffix_series(word, N):
    """sum_{n <= N} g_n 2^-n for every suffix of word, the empty one first."""
    half = [mp.ldexp(1, -n) for n in range(1, N + 1)]
    g = [mpf(1) / n for n in range(1, N + 1)]
    out = [mpf(1), mp.fdot(g, half)]
    for a in reversed(word[:-1]):
        if a == "1":
            g = accumulate(g, initial=mpf(0))  # sum_{m<n} g_m
        g = [c / n for n, c in zip(range(1, N + 1), g)]
        out.append(mp.fdot(g, half))
    return out


def _holder(w, budget):
    """(value, bound) for the word w at the current precision, cut at the
    smallest N from 15 on whose bound is at most budget."""
    t = w[::-1].translate(_SWAP)
    for N in range(15, 512):
        bound = _bound(w, t, N)
        if bound <= budget:
            V, U = _suffix_series(w, N), _suffix_series(t, N)
            return mp.fdot(U, V[::-1]), bound
    raise ConvergenceFailure(f"no truncation meets the error budget {budget:.3e}")


def _checked(idx) -> MZVIndex:
    idx = idx if isinstance(idx, MZVIndex) else MZVIndex(tuple(idx))
    if not idx.admissible:
        raise NotAdmissible("leading entry is 1")
    if idx.depth > MZV_MAX_DEPTH:
        raise ValueError(f"depth {idx.depth} beyond supported {MZV_MAX_DEPTH}")
    if idx.weight > MZV_MAX_WEIGHT:
        raise ValueError(f"weight {idx.weight} beyond supported {MZV_MAX_WEIGHT}")
    return idx


@lru_cache(maxsize=1024)
def _mzv_series(ks: tuple, tol: float):
    """(value, bound) of zeta(ks) as floats, the bound at most tol/2.

    The bound covers the float value: rounding a value below 2 to a float
    takes 2^-52 of the budget tol/2.
    """
    with mp.workdps(_WORK_DPS):
        value, bound = _holder(MZVIndex(ks).word(), tol / 2 - 2.0**-52)
    value = float(value)
    return value, bound + abs(value) * 2.0**-53


def mzv_series(idx, tol: float = 1e-12) -> float:
    """Series value of the multiple zeta function at the index, within tol/2
    by a proven bound (see the comment above ``_factor_bound``)."""
    idx = _checked(idx)
    if not 1e-14 <= tol <= 1e-3:
        raise ValueError("tol must lie in [1e-14, 1e-3]")
    return _mzv_series(idx.ks, tol)[0]


def mzv_integral(idx, tol: float = 1e-9) -> float:
    """Multiple zeta value by the regularized iterated integral route.

    The index maps to the word om0^{k1-1} om1 ... om0^{kd-1} om1 integrated
    from the tangential base at 0 to the tangential base at 1; the frozen
    depth sign converts the integral to the series normalization.
    """
    idx = _checked(idx)
    raw = regularized_integral_p1(idx.word(), tol=tol)
    return INTEGRAL_SIGN_BY_DEPTH[idx.depth] * raw.real
