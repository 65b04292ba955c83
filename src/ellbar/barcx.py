"""Reduced bar complex of a differential graded algebra in degrees 1 and 2.

Everything here is exact rational arithmetic (fractions.Fraction); no floats
enter.  A presentation lists the degree-1 and degree-2 basis letters, the
differential of the degree-1 letters and the wedge products of degree-1
pairs; products and differentials involving degree-2 letters vanish because
the algebra is zero above degree 2.

Bar elements are finite rational combinations of tensor words in the
letters.  The bar differential on a word [a1|...|an] is

    sum_i (-1)^i [J a1|...|J a_{i-1}| d a_i |a_{i+1}|...|an]
  + sum_i (-1)^{i+1} [J a1|...|J a_{i-1}| a_i ^ a_{i+1} |...|an]

with J a = (-1)^{deg a} a.  For words of degree-1 letters this simplifies to
-sum [..|da_i|..] + sum [..|a_i ^ a_{i+1}|..]; the general form is kept so
that d_B can be iterated (d_B^2 = 0 is tested exactly).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionBound, UnknownSymbol

__all__ = [
    "DGAPresentation",
    "BarElement",
    "bar_degree",
    "bar_differential",
    "h0_basis",
    "shuffle",
    "deconcat",
    "words_upto",
]


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


@dataclass(frozen=True)
class DGAPresentation:
    """Basis letters, differential and wedge table; exact rationals."""

    deg1: tuple
    deg2: tuple
    diff: dict
    wedge: dict

    def __post_init__(self):
        object.__setattr__(self, "deg1", tuple(self.deg1))
        object.__setattr__(self, "deg2", tuple(self.deg2))
        names = set(self.deg1) | set(self.deg2)
        if len(names) != len(self.deg1) + len(self.deg2):
            raise ValueError("letter names must be distinct")
        for a, img in self.diff.items():
            if a not in self.deg1:
                raise ValueError(f"differential given for non-degree-1 letter {a!r}")
            for b in img:
                if b not in self.deg2:
                    raise ValueError(f"d({a}) hits unknown degree-2 letter {b!r}")
        for (a, b), img in self.wedge.items():
            if a not in self.deg1 or b not in self.deg1:
                raise ValueError(f"wedge ({a},{b}) not between degree-1 letters")
            for c in img:
                if c not in self.deg2:
                    raise ValueError(f"{a}^{b} hits unknown degree-2 letter {c!r}")
        # graded antisymmetry on degree-1 letters: a^b = -b^a
        for (a, b), img in self.wedge.items():
            rev = self.wedge.get((b, a), {})
            for c in set(img) | set(rev):
                if img.get(c, Fraction(0)) != -rev.get(c, Fraction(0)):
                    raise ValueError(f"wedge table not antisymmetric at ({a},{b})")

    def degree(self, letter) -> int:
        if letter in self.deg1:
            return 1
        if letter in self.deg2:
            return 2
        raise UnknownSymbol(f"letter {letter!r} not in presentation")

    def d_letter(self, letter) -> dict:
        if letter in self.deg2:
            return {}
        return self.diff.get(letter, {})

    def wedge_letters(self, a, b) -> dict:
        if a in self.deg2 or b in self.deg2:
            return {}
        return self.wedge.get((a, b), {})

    # ------------------------------------------------------------------ JSON

    def to_json(self) -> str:
        payload = {
            "degree1": list(self.deg1),
            "degree2": list(self.deg2),
            "differential": {
                a: {b: _frac_str(c) for b, c in sorted(img.items())}
                for a, img in sorted(self.diff.items())
            },
            "wedge": {
                f"{a}|{b}": {c: _frac_str(q) for c, q in sorted(img.items())}
                for (a, b), img in sorted(self.wedge.items())
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DGAPresentation":
        payload = json.loads(text)
        diff = {
            a: {b: Fraction(c) for b, c in img.items()}
            for a, img in payload.get("differential", {}).items()
        }
        wedge = {}
        for key, img in payload.get("wedge", {}).items():
            a, b = key.split("|")
            wedge[(a, b)] = {c: Fraction(q) for c, q in img.items()}
        return cls(
            deg1=tuple(payload["degree1"]),
            deg2=tuple(payload.get("degree2", ())),
            diff=diff,
            wedge=wedge,
        )


class BarElement:
    """Finite rational combination of tensor words (tuples of letter names)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for w, c in (terms.items() if isinstance(terms, dict) else terms):
                self.add_term(w, c)

    def add_term(self, word, coeff):
        word = tuple(word)
        c = self.terms.get(word, Fraction(0)) + Fraction(coeff)
        if c == 0:
            self.terms.pop(word, None)
        else:
            self.terms[word] = c

    def __add__(self, other):
        out = BarElement(self.terms)
        for w, c in other.terms.items():
            out.add_term(w, c)
        return out

    def __sub__(self, other):
        out = BarElement(self.terms)
        for w, c in other.terms.items():
            out.add_term(w, -c)
        return out

    def scale(self, q):
        q = Fraction(q)
        if q == 0:
            return BarElement()
        return BarElement({w: c * q for w, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, BarElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "BarElement(0)"
        bits = [f"{c}*[{'|'.join(w)}]" for w, c in sorted(self.terms.items())]
        return "BarElement(" + " + ".join(bits) + ")"

    def to_json(self) -> str:
        return json.dumps(
            {
                "terms": [
                    {"word": list(w), "coeff": _frac_str(c)}
                    for w, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))
                ]
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "BarElement":
        payload = json.loads(text)
        out = cls()
        for t in payload["terms"]:
            out.add_term(tuple(t["word"]), Fraction(t["coeff"]))
        return out


def bar_degree(P: DGAPresentation, word) -> int:
    """Bar degree of a word: sum over letters of (deg - 1)."""
    return sum(P.degree(a) - 1 for a in word)


def bar_differential(P: DGAPresentation, xi: BarElement) -> BarElement:
    """The reduced-bar differential; input must be homogeneous of bar
    degree 0 or 1."""
    degs = {bar_degree(P, w) for w in xi.terms}
    if degs - {0, 1}:
        raise ValueError(f"bar degree must be 0 or 1, got degrees {sorted(degs)}")
    if len(degs) > 1:
        raise ValueError("element is not homogeneous")
    out = BarElement()
    for word, coeff in xi.terms.items():
        n = len(word)
        jsign = 1  # product of (-1)^{deg a_j} over the letters before slot i
        for i in range(1, n + 1):
            a = word[i - 1]
            sgn_d = (-1) ** i * jsign
            for b, c in P.d_letter(a).items():
                out.add_term(word[: i - 1] + (b,) + word[i:], sgn_d * coeff * c)
            if i < n:
                sgn_w = (-1) ** (i + 1) * jsign
                for b, c in P.wedge_letters(a, word[i]).items():
                    out.add_term(word[: i - 1] + (b,) + word[i + 1 :], sgn_w * coeff * c)
            jsign *= (-1) ** P.degree(a)
    return out


# --------------------------------------------------------------------------
# words, shuffles, deconcatenation


def words_upto(letters, lmax: int):
    """All words of length <= lmax in graded-lexicographic order."""
    out = [()]
    for n in range(1, lmax + 1):
        out.extend(itertools.product(letters, repeat=n))
    return out


def shuffle(u, v) -> dict:
    """Shuffle product of two words: word -> multiplicity."""
    u, v = tuple(u), tuple(v)
    out = {}

    def rec(x, y, acc):
        if not x:
            w = acc + y
            out[w] = out.get(w, 0) + 1
            return
        if not y:
            w = acc + x
            out[w] = out.get(w, 0) + 1
            return
        rec(x[1:], y, acc + x[:1])
        rec(x, y[1:], acc + y[:1])

    rec(u, v, ())
    return out


def deconcat(w):
    """All splittings w = u . v, including the empty ends."""
    w = tuple(w)
    return [(w[:i], w[i:]) for i in range(len(w) + 1)]


# --------------------------------------------------------------------------
# exact kernel of d_B on bar degree 0


def _subtract(dst: dict, f, src: dict):
    """dst -= f * src on sparse rows, dropping entries that cancel."""
    for c, v in src.items():
        x = dst.get(c, 0) - f * v
        if x:
            dst[c] = x
        else:
            dst.pop(c, None)


def _rref(rows):
    """Exact reduced row echelon form of sparse rows.

    Each row is a dict {column: coefficient} over mutually comparable
    columns; the input rows are not modified.  Returns the nonzero rows of
    the RREF of their span, sorted by pivot: each row's pivot is its
    smallest column, with coefficient 1, and no other row has an entry in
    a pivot column.  The RREF of a span is unique, so the result does not
    depend on the order of the input rows; its length is the rank.
    """
    reduced = {}  # pivot column -> row, kept fully reduced against each other
    for row in rows:
        r = {c: Fraction(v) for c, v in row.items() if v}
        for p in [c for c in r if c in reduced]:
            # reduced rows hold no other pivot column, so r[p] is unchanged
            # until its own turn
            _subtract(r, r[p], reduced[p])
        if not r:
            continue
        p = min(r)
        if r[p] != 1:
            inv = 1 / r[p]
            r = {c: v * inv for c, v in r.items()}
        for other in reduced.values():
            f = other.get(p)
            if f is not None:
                _subtract(other, f, r)
        reduced[p] = r
    return [reduced[p] for p in sorted(reduced)]


def _in_span(basis, target) -> bool:
    """Exact membership of a bar element in the span of bar elements."""
    rows = [el.terms for el in basis]
    return len(_rref(rows + [target.terms])) == len(_rref(rows))


def h0_basis(P: DGAPresentation, lmax: int, dim_bound: int = 50000):
    """Basis of the kernel of d_B on words of degree-1 letters, length <= lmax.

    Deterministic: columns are the degree-0 words in graded-lex order (using
    the presentation's letter order), the kernel basis is returned in reduced
    row echelon form over that column order.  The constraints are eliminated
    as sparse exact rows; d_B preserves the weight and the number of w-type
    letters, so rows never mix those blocks and stay short.
    """
    k = len(P.deg1)
    nwords = lmax + 1 if k == 1 else (k ** (lmax + 1) - 1) // (k - 1)
    if nwords > dim_bound:
        raise DimensionBound(
            f"{nwords} words of length <= {lmax} exceeds bound {dim_bound}"
        )
    cols = words_upto(P.deg1, lmax)
    col_idx = {w: i for i, w in enumerate(cols)}
    # constraint rows: one per degree-1 word appearing in any image
    constraints = {}
    for w in cols[1:]:
        img = bar_differential(P, BarElement({w: Fraction(1)}))
        for rw, c in img.terms.items():
            constraints.setdefault(rw, {})[col_idx[w]] = c
    order = sorted(constraints, key=lambda t: (len(t), t))
    pivot_rows = {min(r): r for r in _rref(constraints[rw] for rw in order)}
    # kernel vector of free column f: e_f - sum over pivots p of row_p[f] e_p
    kernel = {c: {c: Fraction(1)} for c in range(len(cols)) if c not in pivot_rows}
    for p, r in pivot_rows.items():
        for c, v in r.items():
            if c != p:
                kernel[c][p] = -v
    return [
        BarElement({cols[i]: row[i] for i in sorted(row)})
        for row in _rref(kernel.values())
    ]
