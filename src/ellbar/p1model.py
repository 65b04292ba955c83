"""Genus-zero reference instance: the thrice-punctured line.

Two logarithmic letters om0 = dz/z and om1 = dz/(z - 1), no two-forms, zero
differential: every bar word is closed and every iterated integral between
interior points is a homotopy invariant.  Regularized integrals from the
tangential base at 0 to the tangential base at 1 evaluate to multiple zeta
values

    zeta(k1, ..., kd) = sum_{n1 > ... > nd > 0} n1^{-k1} ... nd^{-kd}

through the standard word dictionary.  The nested series is summed directly
with Euler-Maclaurin tail acceleration and serves as the independent oracle
for the integral route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf, bernoulli
from mpmath import log as _mplog

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
# nested series with Euler-Maclaurin tails
#
# Working objects are "term dictionaries" {(e, p): c} standing for the
# asymptotic form sum c * n^-e * log(n)^p.  Cumulative sums S(n) =
# sum_{m < n} m^-s log^p m admit such an expansion S(n) = C + terms(n); the
# constant C is calibrated against an exact table, which also absorbs the
# (asymptotic, not convergent) remainder of the Euler-Maclaurin series at
# the calibration point.


def _d_terms(terms):
    out = {}
    for (e, p), c in terms.items():
        out[(e + 1, p)] = out.get((e + 1, p), mpf(0)) - c * e
        if p >= 1:
            out[(e + 1, p - 1)] = out.get((e + 1, p - 1), mpf(0)) + c * p
    return out


def _int_terms(terms):
    out = {}

    def add(e, p, c):
        out[(e, p)] = out.get((e, p), mpf(0)) + c

    def integ(e, p, c):
        if e == 1:
            add(0, p + 1, c / (p + 1))
            return
        add(e - 1, p, -c / (e - 1))
        if p >= 1:
            integ(e, p - 1, c * p / (e - 1))

    for (e, p), c in terms.items():
        integ(e, p, c)
    return out


def _ev_terms(terms, n):
    ln = _mplog(n)
    return sum(c * mpf(n) ** (-mpf(e)) * ln**p for (e, p), c in terms.items())


class _SeriesEngine:
    """One (table size, correction order) configuration of the summator."""

    def __init__(self, ntab: int, jem: int):
        self.ntab = ntab
        self.jem = jem
        self._tables = {}
        self._cums = {}
        self._exps = {}
        self._vals = {}

    def _exact_table(self, s, p):
        key = (s, p)
        if key not in self._tables:
            t = [mpf(0)] * (self.ntab + 1)
            acc = mpf(0)
            for m in range(1, self.ntab + 1):
                acc += mpf(m) ** (-s) * _mplog(m) ** p
                t[m] = acc
            self._tables[key] = t
        return self._tables[key]

    def _cumsum_expansion(self, s, p):
        key = (s, p)
        if key not in self._cums:
            table = self._exact_table(s, p)
            f = {(s, p): mpf(1)}
            terms = dict(_int_terms(f))
            terms[(s, p)] = terms.get((s, p), mpf(0)) - mpf(1) / 2
            g = dict(f)
            for j in range(1, self.jem + 1):
                g = _d_terms(g) if j == 1 else _d_terms(_d_terms(g))
                cj = bernoulli(2 * j) / mp.factorial(2 * j)
                for k, c in g.items():
                    terms[k] = terms.get(k, mpf(0)) + cj * c
            n0 = self.ntab + 1
            C = table[self.ntab] - _ev_terms(terms, n0)
            self._cums[key] = (C, terms)
        return self._cums[key]

    def _inner(self, rest):
        """Expansion and table of sum_{n > m1 > ... } over the tail index."""
        if rest in self._exps:
            return self._exps[rest]
        if not rest:
            tab = [mpf(1)] * (self.ntab + 2)
            res = ({(0, 0): mpf(1)}, tab)
            self._exps[rest] = res
            return res
        k = rest[0]
        inner_terms, inner_tab = self._inner(rest[1:])
        tab = [mpf(0)] * (self.ntab + 2)
        acc = mpf(0)
        for m in range(1, self.ntab + 2):
            tab[m] = acc
            acc += mpf(m) ** (-k) * inner_tab[m]
        terms = {}
        for (e, p), c in inner_terms.items():
            C, tt = self._cumsum_expansion(k + e, p)
            terms[(0, 0)] = terms.get((0, 0), mpf(0)) + c * C
            for kk, cc in tt.items():
                terms[kk] = terms.get(kk, mpf(0)) + c * cc
        n0 = self.ntab + 1
        terms[(0, 0)] = terms.get((0, 0), mpf(0)) + (tab[n0] - _ev_terms(terms, n0))
        self._exps[rest] = (terms, tab)
        return terms, tab

    def value(self, ks: tuple):
        if ks in self._vals:
            return self._vals[ks]
        k = ks[0]
        inner_terms, inner_tab = self._inner(ks[1:])
        head = sum(mpf(n) ** (-k) * inner_tab[n] for n in range(1, self.ntab + 2))
        n1 = self.ntab + 2
        tail = mpf(0)
        for (e, p), c in inner_terms.items():
            _, tt = self._cumsum_expansion(k + e, p)
            # sum_{m >= n1} m^-s log^p m = S(inf) - S(n1) = -terms(n1)
            tail += c * (-_ev_terms(tt, n1))
        v = head + tail
        self._vals[ks] = v
        return v


@lru_cache(maxsize=8)
def _engine(ntab, jem):
    return _SeriesEngine(ntab, jem)


def _check_supported(idx: MZVIndex):
    if idx.depth > MZV_MAX_DEPTH:
        raise ValueError(f"depth {idx.depth} beyond supported {MZV_MAX_DEPTH}")
    if idx.weight > MZV_MAX_WEIGHT:
        raise ValueError(f"weight {idx.weight} beyond supported {MZV_MAX_WEIGHT}")


def mzv_series(idx, tol: float = 1e-12) -> float:
    """Nested-series value of the multiple zeta function at the index.

    Summator configurations of increasing size run until two consecutive
    ones agree within tol; the larger is returned.  Accuracy saturates far
    below any tolerance in the accepted range for supported indices; if no
    two configurations agree, ConvergenceFailure is raised.
    """
    idx = idx if isinstance(idx, MZVIndex) else MZVIndex(tuple(idx))
    if not idx.admissible:
        raise NotAdmissible("leading entry is 1")
    _check_supported(idx)
    if not 1e-14 <= tol <= 1e-3:
        raise ValueError("tol must lie in [1e-14, 1e-3]")
    with mp.workdps(_WORK_DPS):
        prev = None
        for ntab, jem in ((80, 5), (120, 7), (170, 9)):
            v = _engine(ntab, jem).value(idx.ks)
            if prev is not None:
                gap = float(abs(v - prev))
                if gap <= tol / 2:
                    return float(v)
            prev = v
    raise ConvergenceFailure(
        f"zeta({idx}): the two largest summator configurations differ by "
        f"{gap:.3e}, above tol/2 = {tol / 2:.3e}"
    )


def mzv_integral(idx, tol: float = 1e-9) -> float:
    """Multiple zeta value by the regularized iterated integral route.

    The index maps to the word om0^{k1-1} om1 ... om0^{kd-1} om1 integrated
    from the tangential base at 0 to the tangential base at 1; the frozen
    depth sign converts the integral to the series normalization.
    """
    idx = idx if isinstance(idx, MZVIndex) else MZVIndex(tuple(idx))
    if not idx.admissible:
        raise NotAdmissible("leading entry is 1")
    _check_supported(idx)
    raw = regularized_integral_p1(idx.word(), tol=tol)
    return INTEGRAL_SIGN_BY_DEPTH[idx.depth] * raw.real
