"""Formal word algebra over {x0, x1}: the flat connection form and its bar series.

Everything is exact rational.  Words are tuples of 0/1 (CLI syntax: the
string "01" means x0 x1).  The connection form is

    omega = nu (x) x0 + sum_{n >= 0} w{n} (x) ad_{x0}^n(x1),

truncated at n <= min(N, lmax - 1), with letters from the DGA presentation
of logforms.  Flatness d omega + omega ^ omega = 0 is checked word by word
using only the exact structure constants; the canonical bar series

    S = sum_l (-1)^l [omega | ... | omega]   (l factors)

has bar-element coefficients c_w that are closed under the bar differential.
The alternating sign is what makes the coefficients closed with the sign
conventions of the bar differential; the unsigned series is not closed
(hand check at the word x0 x1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .barcx import BarElement
from .errors import TruncationExceeded

__all__ = [
    "NCPoly",
    "FormValuedNC",
    "BarValuedNC",
    "FlatnessReport",
    "parse_word",
    "word_str",
    "ad_power",
    "omega_kzb",
    "flatness_check",
    "canonical_series",
    "c_w",
]


def parse_word(w):
    """Accept a tuple of 0/1 or a string like "011"; return the tuple."""
    if isinstance(w, str):
        if not all(ch in "01" for ch in w):
            raise ValueError(f"word string must be over 0/1, got {w!r}")
        return tuple(int(ch) for ch in w)
    w = tuple(w)
    if not all(x in (0, 1) for x in w):
        raise ValueError(f"word letters must be 0 or 1, got {w!r}")
    return w


def word_str(w) -> str:
    return "".join(str(x) for x in w)


class NCPoly(BarElement):
    """Finite rational combination of words over {x0, x1}: a bar element
    whose words are checked to be over 0/1."""

    __slots__ = ()

    @classmethod
    def gen(cls, i: int) -> "NCPoly":
        return cls({(i,): Fraction(1)})

    def add_term(self, word, coeff):
        super().add_term(parse_word(word), coeff)

    def mul(self, other, lmax=None) -> "NCPoly":
        """Concatenation product, dropping words longer than lmax."""
        out = NCPoly()
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                if lmax is not None and len(wa) + len(wb) > lmax:
                    continue
                out.add_term(wa + wb, ca * cb)
        return out

    def bracket(self, other, lmax=None) -> "NCPoly":
        return self.mul(other, lmax) - other.mul(self, lmax)

    def coeff(self, w) -> Fraction:
        return self.terms.get(parse_word(w), Fraction(0))

    def __repr__(self):
        if not self.terms:
            return "NCPoly(0)"
        bits = [
            f"{c}*{word_str(w) or '1'}"
            for w, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))
        ]
        return "NCPoly(" + " + ".join(bits) + ")"


def ad_power(n: int, lmax=None) -> NCPoly:
    """Word expansion of ad_{x0}^n (x1); homogeneous of length n + 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if lmax is not None and n > lmax - 1:
        raise TruncationExceeded(f"ad power {n} needs words of length {n + 1} > {lmax}")
    x0 = NCPoly.gen(0)
    acc = NCPoly.gen(1)
    for _ in range(n):
        acc = x0.bracket(acc)
    return acc


@dataclass(frozen=True)
class FormValuedNC:
    """Sum of (form letter) tensor (word polynomial)."""

    terms: dict  # letter name -> NCPoly
    N: int
    lmax: int

    def coeff_of_word(self, w) -> dict:
        """Letter -> rational coefficient of the word w."""
        w = parse_word(w)
        out = {}
        for letter, poly in self.terms.items():
            c = poly.terms.get(w, Fraction(0))
            if c != 0:
                out[letter] = c
        return out


@dataclass(frozen=True)
class BarValuedNC:
    """Sum of (bar element) tensor (word); stored as word -> BarElement."""

    terms: dict
    N: int
    lmax: int


@dataclass(frozen=True)
class FlatnessReport:
    """Exact per-word result of d omega + omega ^ omega."""

    n_words_checked: int
    nonzero: tuple  # entries (two-form letter, word string, Fraction)

    @property
    def ok(self) -> bool:
        return not self.nonzero


def _omega_terms(N: int, lmax: int) -> dict:
    terms = {"nu": NCPoly.gen(0)}
    for n in range(0, min(N, lmax - 1) + 1):
        terms[f"w{n}"] = ad_power(n)
    return terms


def omega_kzb(N: int, lmax: int) -> FormValuedNC:
    """The connection form nu (x) x0 + sum w{n} (x) ad^n, n <= min(N, lmax-1).

    Requires N >= lmax so that no ad power needed by the bar series is lost.
    """
    if lmax < 1:
        raise ValueError("lmax must be >= 1")
    if N < lmax:
        raise ValueError(f"need N >= lmax to avoid truncation loss, got N={N} < lmax={lmax}")
    return FormValuedNC(terms=_omega_terms(N, lmax), N=N, lmax=lmax)


def flatness_check(N: int, lmax: int) -> FlatnessReport:
    """Exact word-by-word check of d omega + omega ^ omega = 0.

    No precondition: calling with N < lmax exhibits the truncation boundary
    terms (they involve the top letter w{N} only), reported rather than
    raised.
    """
    terms = _omega_terms(N, lmax)
    ntop = min(N, lmax - 1)
    # d omega: d(w{n}) = -nu^w{n-1}, so two-form letter nu^w{m} picks up
    # -ad^{m+1} for m = 0 .. ntop-1
    two = {}
    for n in range(1, ntop + 1):
        two[f"nu^w{n - 1}"] = ad_power(n).scale(Fraction(-1))
    # omega ^ omega: nu ^ w{n} from both orders, x0 * ad^n - ad^n * x0
    x0 = NCPoly.gen(0)
    for n in range(0, ntop + 1):
        contrib = x0.bracket(terms[f"w{n}"], lmax)
        key = f"nu^w{n}"
        two[key] = two.get(key, NCPoly()) + contrib
    nonzero = []
    nchecked = 0
    for letter in sorted(two, key=lambda t: int(t[4:])):
        poly = two[letter]
        nchecked += 1
        for w, c in sorted(poly.terms.items(), key=lambda t: (len(t[0]), t[0])):
            if len(w) <= lmax and c != 0:
                nonzero.append((letter, word_str(w), c))
    return FlatnessReport(n_words_checked=nchecked, nonzero=tuple(nonzero))


def canonical_series(N: int, lmax: int) -> BarValuedNC:
    """The alternating bar series sum_l (-1)^l [omega|...|omega], length <= lmax."""
    omega = omega_kzb(N, lmax)
    out = {(): BarElement({(): Fraction(1)})}
    # layer l holds the unsigned tensor power [omega|...|omega] (l factors)
    # as word -> BarElement; every form letter carries >= 1 word symbols, so
    # bar length <= word length and the truncation at lmax is exact.
    layer = {(): BarElement({(): Fraction(1)})}
    for ell in range(1, lmax + 1):
        nxt = {}
        for w0, bar0 in layer.items():
            for letter, poly in omega.terms.items():
                for pw, pc in poly.terms.items():
                    w = w0 + pw
                    if len(w) > lmax:
                        continue
                    acc = nxt.setdefault(w, BarElement())
                    for bw, bc in bar0.terms.items():
                        acc.add_term(bw + (letter,), bc * pc)
        layer = {w: e for w, e in nxt.items() if e.terms}
        if not layer:
            break
        sign = Fraction(-1) if ell % 2 else Fraction(1)
        for w, e in layer.items():
            acc = out.setdefault(w, BarElement())
            for bw, bc in e.terms.items():
                acc.add_term(bw, sign * bc)
    out = {w: e for w, e in out.items() if e.terms}
    return BarValuedNC(terms=out, N=N, lmax=lmax)


def c_w(S: BarValuedNC, w) -> BarElement:
    """Coefficient of the word w in the bar series."""
    w = parse_word(w)
    if len(w) > S.lmax:
        raise TruncationExceeded(f"word length {len(w)} exceeds lmax={S.lmax}")
    e = S.terms.get(w)
    return BarElement(e.terms) if e is not None else BarElement()
