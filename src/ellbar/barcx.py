"""Reduced bar complex of a differential graded algebra in degrees 1 and 2.

Everything here is exact rational arithmetic (fractions.Fraction; the
elimination keeps integral entries as int); no floats enter.  A
presentation lists the degree-1 and degree-2 basis letters, the
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
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_str

from .errors import DimensionBound, UnknownSymbol

__all__ = [
    "DGAPresentation",
    "BarElement",
    "bar_differential",
    "h0_basis",
    "shuffle",
    "words_upto",
]


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _nonzero(table: dict) -> dict:
    """key -> tuple of the nonzero (letter, coefficient) pairs of its image;
    keys whose image is zero are left out."""
    out = {}
    for key, img in table.items():
        pairs = tuple((b, c) for b, c in img.items() if c)
        if pairs:
            out[key] = pairs
    return out


@dataclass(frozen=True)
class DGAPresentation:
    """Basis letters, differential and wedge table; exact rationals.

    The letter -> degree table and the tables of nonzero images that
    `bar_differential` and `h0_basis` read are built on first use and cached
    on the instance, so a presentation must not be mutated after it is first
    used.
    """

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

    @cached_property
    def degrees(self) -> dict:
        """Letter -> degree (1 or 2), built once per presentation."""
        deg = dict.fromkeys(self.deg1, 1)
        deg.update(dict.fromkeys(self.deg2, 2))
        return deg

    @cached_property
    def nonzero_diff(self) -> dict:
        """Degree-1 letter -> its differential as (letter, coefficient)
        pairs, zero coefficients left out; letters with d = 0 are absent."""
        return _nonzero(self.diff)

    @cached_property
    def nonzero_wedge(self) -> dict:
        """(a, b) -> a ^ b as (letter, coefficient) pairs, zero coefficients
        left out; pairs with a ^ b = 0 are absent."""
        return _nonzero(self.wedge)

    @cached_property
    def active_letters(self) -> frozenset:
        """Letters with a nonzero differential or the first letter of a
        nonzero wedge: d_B vanishes on a word that holds none of them."""
        return frozenset(self.nonzero_diff).union(a for a, _ in self.nonzero_wedge)

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
    """Finite rational combination of tensor words (tuples of letter names).

    Sums, differences and scalings have the type of the left operand, and
    only elements of one type compare equal.
    """

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
        out = type(self)(self.terms)
        for w, c in other.terms.items():
            out.add_term(w, c)
        return out

    def __sub__(self, other):
        out = type(self)(self.terms)
        for w, c in other.terms.items():
            out.add_term(w, -c)
        return out

    def scale(self, q):
        q = Fraction(q)
        if q == 0:
            return type(self)()
        return type(self)({w: c * q for w, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "BarElement(0)"
        bits = [f"{c}*[{'|'.join(w)}]" for w, c in sorted(self.terms.items())]
        return "BarElement(" + " + ".join(bits) + ")"

    def _graded_terms(self):
        return sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))

    def to_dict(self) -> dict:
        """{"terms": [{"coeff": "p/q", "word": [...]}, ...]}, graded-lex."""
        return {"terms": [{"coeff": _frac_str(c), "word": list(w)} for w, c in self._graded_terms()]}

    def to_json(self) -> str:
        """The bytes of json.dumps(self.to_dict(), sort_keys=True), written
        directly: a coefficient string needs no escaping, and each letter
        goes through the string encoder json.dumps itself uses."""
        return '{"terms": [%s]}' % ", ".join(
            '{"coeff": "%s", "word": [%s]}' % (_frac_str(c), ", ".join(map(_json_str, w)))
            for w, c in self._graded_terms()
        )

    @classmethod
    def from_json(cls, text: str) -> "BarElement":
        payload = json.loads(text)
        out = cls()
        for t in payload["terms"]:
            out.add_term(tuple(t["word"]), Fraction(t["coeff"]))
        return out


def _element(terms) -> BarElement:
    """The bar element of (word, coefficient) pairs with distinct words,
    zeros dropped and coefficients made Fractions."""
    el = BarElement()
    el.terms = {w: Fraction(c) for w, c in terms if c}
    return el


def bar_differential(P: DGAPresentation, xi: BarElement) -> BarElement:
    """The reduced-bar differential; input must be homogeneous of bar
    degree 0 or 1.

    Every word is first checked for unknown letters and its bar degree;
    then only the words that hold a letter of `P.active_letters` are
    expanded, by the presentation's tables of nonzero images (built once
    per presentation and cached on it).
    """
    deg = P.degrees
    try:
        degs = {sum(map(deg.__getitem__, w)) - len(w) for w in xi.terms}
    except KeyError as exc:
        raise UnknownSymbol(f"letter {exc.args[0]!r} not in presentation") from None
    if degs - {0, 1}:
        raise ValueError(f"bar degree must be 0 or 1, got degrees {sorted(degs)}")
    if len(degs) > 1:
        raise ValueError("element is not homogeneous")
    diff, wedge, active = P.nonzero_diff, P.nonzero_wedge, P.active_letters
    out = {}
    for word, coeff in xi.terms.items():
        if active.isdisjoint(word):
            continue
        # s = (-1)^i times coeff times the product of (-1)^{deg a_j} over the
        # letters before slot i (1-based); the wedge at slot i carries -s
        s = -coeff
        for i, a in enumerate(word):
            img = diff.get(a)
            if img:
                for b, c in img:
                    w = word[:i] + (b,) + word[i + 1 :]
                    out[w] = out.get(w, 0) + s * c
            img = wedge.get(word[i : i + 2])
            if img:
                for b, c in img:
                    w = word[:i] + (b,) + word[i + 2 :]
                    out[w] = out.get(w, 0) - s * c
            if deg[a] == 2:
                s = -s
    return _element(out.items()) if out else BarElement()


# --------------------------------------------------------------------------
# words and shuffles


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


# --------------------------------------------------------------------------
# exact kernel of d_B on bar degree 0


def _entry(q):
    """An exact coefficient as elimination rows store it: int if integral."""
    return q.numerator if q.denominator == 1 else q


def _subtract(dst: dict, f, src: dict, holders=None, key=None):
    """dst -= f * src on sparse rows, dropping entries that cancel and
    storing integral entries as int.  With `holders` (column -> keys of the
    rows that hold it), records the columns that row `key` gains or loses."""
    for c, v in src.items():
        x = dst.get(c, 0) - f * v
        if x:
            if holders is not None and c not in dst:
                holders.setdefault(c, set()).add(key)
            dst[c] = x.numerator if x.denominator == 1 else x
        else:
            # f and v are nonzero, so an entry that cancels was in dst
            del dst[c]
            if holders is not None:
                holders[c].discard(key)


def _reduce_row(r: dict, reduced: dict):
    """Eliminates every pivot column of `reduced` from the row r, in place."""
    # reduced rows hold no other pivot column, so r[p] is unchanged until its
    # own turn
    for p in [c for c in r if c in reduced]:
        _subtract(r, r[p], reduced[p])


def _reduce(rows) -> dict:
    """Exact RREF of sparse rows as {pivot column: row}; entries are int
    where integral and Fraction otherwise (see `_rref`)."""
    reduced = {}  # pivot column -> row, kept fully reduced against each other
    holders = {}  # column -> pivots of the reduced rows that hold it
    for row in rows:
        r = {c: _entry(v) for c, v in row.items() if v}
        _reduce_row(r, reduced)
        if not r:
            continue
        p = min(r)
        if r[p] != 1:
            inv = _entry(Fraction(r[p].denominator, r[p].numerator))
            for c, v in r.items():
                r[c] = _entry(v * inv)
        # back-substitute only into the rows that hold the new pivot column
        for q in list(holders.get(p, ())):
            _subtract(reduced[q], reduced[q][p], r, holders, q)
        for c in r:
            holders.setdefault(c, set()).add(p)
        reduced[p] = r
    return reduced


def _rref(rows):
    """Exact reduced row echelon form of sparse rows.

    Each row is a dict {column: coefficient} over mutually comparable
    columns, with int or Fraction coefficients; the input rows are not
    modified.  Returns the nonzero rows of the RREF of their span, sorted by
    pivot: each row's pivot is its smallest column, with coefficient 1, and
    no other row has an entry in a pivot column.  The RREF of a span is
    unique, so the result does not depend on the order of the input rows;
    its length is the rank.

    The elimination keeps a column index (column -> the reduced rows that
    hold it), so a new pivot row is back-substituted only into the rows
    that hold its pivot column.  Integral entries are kept as int, so that
    rows of +-1 entries never build a Fraction; the rows returned hold
    Fractions only.
    """
    reduced = _reduce(rows)
    return [{c: Fraction(v) for c, v in reduced[p].items()} for p in sorted(reduced)]


def _in_span(basis, target) -> bool:
    """Exact membership of a bar element in the span of bar elements: the
    target reduces to zero against the RREF of the basis."""
    r = {w: _entry(c) for w, c in target.terms.items() if c}
    _reduce_row(r, _reduce(el.terms for el in basis))
    return not r


# The most words (columns) h0_basis eliminates over
_DIM_BOUND = 50000


def h0_basis(P: DGAPresentation, lmax: int):
    """Basis of the kernel of d_B on words of degree-1 letters, length <= lmax.

    Deterministic: columns are the degree-0 words in graded-lex order (using
    the presentation's letter order), the kernel basis is returned in reduced
    row echelon form over that column order.  The constraints are eliminated
    as sparse exact rows; d_B preserves the weight and the number of w-type
    letters, so rows never mix those blocks and stay short.  Each word's
    constraint entries are written straight from the presentation's cached
    tables of nonzero images, by
    d_B[a1|...|an] = -sum [..|da_i|..] + sum [..|a_i ^ a_{i+1}|..], and
    words without a letter of `P.active_letters` are skipped.  A column that
    no constraint row touches is free, and its kernel vector e_c is already
    a row of the RREF, so it is returned as its one word with coefficient 1;
    only the kernel vectors of touched free columns are eliminated again.
    The elimination (see `_rref`) works on int entries wherever they are
    integral; the returned elements hold Fraction coefficients.
    DimensionBound past ``_DIM_BOUND`` words.
    """
    k = len(P.deg1)
    nwords = lmax + 1 if k == 1 else (k ** (lmax + 1) - 1) // (k - 1)
    if nwords > _DIM_BOUND:
        raise DimensionBound(
            f"{nwords} words of length <= {lmax} exceeds bound {_DIM_BOUND}"
        )
    cols = words_upto(P.deg1, lmax)
    d = {a: [(b, -_entry(c)) for b, c in img] for a, img in P.nonzero_diff.items()}
    wedge = {ab: [(b, _entry(c)) for b, c in img] for ab, img in P.nonzero_wedge.items()}
    active = P.active_letters
    # constraint rows: one per bar-degree-1 word in any image, holding in
    # column j that word's coefficient in d_B[cols[j]].  Each (word, column)
    # pair is hit once: the degree-2 letter sits at a different slot each time.
    constraints = {}
    for j, w in enumerate(cols):
        if active.isdisjoint(w):
            continue
        for i, a in enumerate(w):
            for b, c in d.get(a, ()):
                constraints.setdefault(w[:i] + (b,) + w[i + 1 :], {})[j] = c
            for b, c in wedge.get(w[i : i + 2], ()):
                constraints.setdefault(w[:i] + (b,) + w[i + 2 :], {})[j] = c
    order = sorted(constraints, key=lambda t: (len(t), t))
    pivot_rows = _reduce(constraints[rw] for rw in order)
    touched = set().union(*constraints.values())
    # kernel vector of a touched free column f: e_f - sum over pivots p of
    # row_p[f] e_p
    kernel = {c: {c: 1} for c in sorted(touched) if c not in pivot_rows}
    for p, r in pivot_rows.items():
        for c, v in r.items():
            if c != p:
                kernel[c][p] = -v
    rows = _reduce(kernel.values())
    basis = {p: _element((cols[c], v) for c, v in sorted(r.items())) for p, r in rows.items()}
    # an untouched column c is free with kernel vector e_c, and no pivot row
    # or other kernel vector holds c: e_c is already a row of the RREF
    one = Fraction(1)
    for c in range(len(cols)):
        if c not in touched:
            basis[c] = el = BarElement()
            el.terms = {cols[c]: one}
    return [basis[p] for p in sorted(basis)]
