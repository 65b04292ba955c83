"""Exact tests for the reduced bar complex layer."""

import json
import random
from fractions import Fraction

import pytest

from ellbar import barcx
from ellbar.barcx import (
    BarElement,
    DGAPresentation,
    _rref,
    bar_differential,
    h0_basis,
    shuffle,
    words_upto,
)
from ellbar.errors import DimensionBound, UnknownSymbol
from ellbar.logforms import dga_presentation
from ellbar.p1model import p1_dga

P1 = DGAPresentation(deg1=("om0", "om1"), deg2=(), diff={}, wedge={})

# explicit zero coefficients and empty images: "d" has no nonzero image
# and starts no nonzero wedge, "a", "b" and "c" each have one
ZEROS = DGAPresentation(
    deg1=("a", "b", "c", "d"),
    deg2=("x", "y"),
    diff={"a": {"x": Fraction(0)}, "b": {}, "c": {"x": Fraction(2, 3), "y": Fraction(0)},
          "d": {"y": Fraction(0)}},
    wedge={
        ("a", "b"): {"x": Fraction(0), "y": Fraction(1)},
        ("b", "a"): {"x": Fraction(0), "y": Fraction(-1)},
        ("a", "c"): {},
        ("c", "a"): {},
        ("d", "a"): {"x": Fraction(0)},
        ("a", "d"): {"x": Fraction(0)},
    },
)

# P1 with one two-form and only zero images: no letter is active
P1_ZEROS = DGAPresentation(
    deg1=("om0", "om1"),
    deg2=("eta",),
    diff={"om0": {"eta": Fraction(0)}, "om1": {}},
    wedge={("om0", "om1"): {"eta": Fraction(0)}, ("om1", "om0"): {}},
)


def _reference_bar_differential(P, xi):
    """d_B by the rule that walks every letter of every word through the
    presentation's own tables, zero coefficients and empty images included."""
    deg = P.degrees
    out = BarElement()
    for word, coeff in xi.terms.items():
        s = -coeff
        for i, a in enumerate(word):
            for b, c in P.diff.get(a, {}).items():
                out.add_term(word[:i] + (b,) + word[i + 1 :], s * c)
            for b, c in P.wedge.get(word[i : i + 2], {}).items():
                out.add_term(word[:i] + (b,) + word[i + 2 :], -s * c)
            if deg[a] == 2:
                s = -s
    return out


def _reference_to_json(e):
    """BarElement.to_json as json.dumps of its payload."""
    terms = sorted(e.terms.items(), key=lambda t: (len(t[0]), t[0]))
    return json.dumps(
        {"terms": [{"word": list(w), "coeff": str(c)} for w, c in terms]}, sort_keys=True
    )


def deconcat(w):
    """All splittings w = u . v, including the empty ends."""
    w = tuple(w)
    return [(w[:i], w[i:]) for i in range(len(w) + 1)]


def shuffle_elements(u: BarElement, v: BarElement) -> BarElement:
    out = BarElement()
    for wu, cu in u.terms.items():
        for wv, cv in v.terms.items():
            for w, mult in shuffle(wu, wv).items():
                out.add_term(w, cu * cv * mult)
    return out


def random_deg0_element(P, rng, nterms=6, maxlen=4):
    xi = BarElement()
    for _ in range(nterms):
        n = rng.randint(1, maxlen)
        w = tuple(rng.choice(P.deg1) for _ in range(n))
        xi.add_term(w, Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
    return xi


def random_deg1_element(P, rng, nterms=6, maxlen=4):
    """Words of degree-1 letters with one degree-2 letter in them."""
    xi = BarElement()
    for _ in range(nterms):
        w = [rng.choice(P.deg1) for _ in range(rng.randint(0, maxlen - 1))]
        w.insert(rng.randint(0, len(w)), rng.choice(P.deg2))
        xi.add_term(w, Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
    return xi


class TestPresentation:
    def test_validation_rejects_bad_wedge(self):
        with pytest.raises(ValueError):
            DGAPresentation(
                deg1=("a", "b"),
                deg2=("c",),
                diff={},
                wedge={("a", "b"): {"c": Fraction(1)}},  # missing -(b,a)
            )

    def test_validation_rejects_unknown_target(self):
        with pytest.raises(ValueError):
            DGAPresentation(
                deg1=("a",), deg2=(), diff={"a": {"zzz": Fraction(1)}}, wedge={}
            )

    def test_json_roundtrip(self):
        P = dga_presentation(4)
        Q = DGAPresentation.from_json(P.to_json())
        assert Q.deg1 == P.deg1
        assert Q.deg2 == P.deg2
        assert Q.diff == P.diff
        assert Q.wedge == P.wedge

    def test_json_fractions_are_exact(self):
        P = DGAPresentation(
            deg1=("a", "b"),
            deg2=("c",),
            diff={"a": {"c": Fraction(2, 3)}},
            wedge={
                ("a", "b"): {"c": Fraction(-7, 5)},
                ("b", "a"): {"c": Fraction(7, 5)},
            },
        )
        Q = DGAPresentation.from_json(P.to_json())
        assert Q.diff["a"]["c"] == Fraction(2, 3)
        assert Q.wedge[("a", "b")]["c"] == Fraction(-7, 5)


class TestDifferential:
    def test_single_letter(self):
        # [a] -> -[da]
        P = dga_presentation(3)
        d = bar_differential(P, BarElement({("w1",): Fraction(1)}))
        assert d == BarElement({("nu^w0",): Fraction(1)})  # d(w1) = -nu^w0

    def test_hand_checked_closed_element(self):
        P = dga_presentation(3)
        xi = BarElement({("nu", "w0"): Fraction(1), ("w1",): Fraction(-1)})
        assert bar_differential(P, xi).is_zero()

    def test_p1_differential_is_zero(self):
        rng = random.Random(0)
        for _ in range(10):
            xi = random_deg0_element(P1, rng)
            assert bar_differential(P1, xi).is_zero()

    def test_dd_zero_exact(self):
        P = dga_presentation(5)
        rng = random.Random(3)
        for _ in range(30):
            xi = random_deg0_element(P, rng)
            dd = bar_differential(P, bar_differential(P, xi))
            assert dd.is_zero()

    def test_linearity(self):
        P = dga_presentation(4)
        rng = random.Random(5)
        u = random_deg0_element(P, rng)
        v = random_deg0_element(P, rng)
        lhs = bar_differential(P, u + v.scale(Fraction(3, 2)))
        rhs = bar_differential(P, u) + bar_differential(P, v).scale(Fraction(3, 2))
        assert lhs == rhs

    def test_unknown_symbol(self):
        P = dga_presentation(2)
        with pytest.raises(UnknownSymbol):
            bar_differential(P, BarElement({("w9",): Fraction(1)}))

    def test_rejects_inhomogeneous(self):
        P = dga_presentation(2)
        xi = BarElement({("nu",): Fraction(1), ("nu^w0",): Fraction(1)})
        with pytest.raises(ValueError):
            bar_differential(P, xi)

    def test_degree_table_built_once(self, monkeypatch):
        # bar_differential reads the presentation's one letter -> degree
        # table and its tables of nonzero images, cached on the presentation
        P = dga_presentation(2)
        assert P.degrees == {**dict.fromkeys(P.deg1, 1), **dict.fromkeys(P.deg2, 2)}
        assert P.degrees is P.degrees
        built = []
        real = barcx._nonzero
        monkeypatch.setattr(barcx, "_nonzero", lambda table: built.append(table) or real(table))
        tables = (P.nonzero_diff, P.nonzero_wedge, P.active_letters)
        for _ in range(3):
            bar_differential(P, random_deg0_element(P, random.Random(1)))
        h0_basis(P, 2)
        assert built == [P.diff, P.wedge]
        assert tables[0] is P.nonzero_diff
        assert tables[1] is P.nonzero_wedge
        assert tables[2] is P.active_letters
        assert dga_presentation(2).nonzero_diff is not P.nonzero_diff

        class Spy(dict):
            reads = 0

            def __getitem__(self, letter):
                Spy.reads += 1
                return super().__getitem__(letter)

        vars(P)["degrees"] = Spy(P.degrees)
        xi = random_deg0_element(P, random.Random(3))
        bar_differential(P, bar_differential(P, xi))
        assert Spy.reads > 0


class TestNonzeroTables:
    def test_tables_drop_zeros(self):
        assert ZEROS.nonzero_diff == {"c": (("x", Fraction(2, 3)),)}
        assert ZEROS.nonzero_wedge == {
            ("a", "b"): (("y", Fraction(1)),),
            ("b", "a"): (("y", Fraction(-1)),),
        }
        assert ZEROS.active_letters == {"a", "b", "c"}
        assert P1_ZEROS.nonzero_diff == {} and P1_ZEROS.nonzero_wedge == {}
        assert P1_ZEROS.active_letters == frozenset()
        P = dga_presentation(3)
        assert P.active_letters == set(P.deg1)

    @pytest.mark.parametrize("P", [ZEROS, P1_ZEROS, dga_presentation(3)], ids=["zeros", "p1-zeros", "edagger3"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_rule(self, P, seed):
        rng = random.Random(seed)
        for _ in range(10):
            xi = random_deg0_element(P, rng)
            assert bar_differential(P, xi) == _reference_bar_differential(P, xi)
            if P.deg2:
                xi = random_deg1_element(P, rng)
                assert bar_differential(P, xi) == _reference_bar_differential(P, xi)

    def test_inactive_words_are_zero(self):
        xi = BarElement({("d",): Fraction(1), ("d", "d", "d"): Fraction(-2, 5)})
        assert bar_differential(ZEROS, xi).is_zero()
        xi.add_term(("d", "c"), Fraction(3))
        assert bar_differential(ZEROS, xi) == BarElement({("d", "x"): Fraction(-2)})

    def test_validation_runs_on_inactive_words(self):
        with pytest.raises(UnknownSymbol):
            bar_differential(p1_dga(), BarElement({("om2",): Fraction(1)}))
        with pytest.raises(UnknownSymbol):
            bar_differential(p1_dga(), BarElement({("om0",): 1, ("om0", "om2"): 1}))
        # p1_dga has no two-form, so every P1 word has bar degree 0;
        # P1_ZEROS adds one with zero images
        with pytest.raises(ValueError):
            bar_differential(P1_ZEROS, BarElement({("om0",): 1, ("eta",): 1}))
        with pytest.raises(ValueError):
            bar_differential(P1_ZEROS, BarElement({("eta", "om1", "eta"): 1}))


class TestKernel:
    def test_p1_dimensions(self):
        for lmax in range(0, 7):
            basis = h0_basis(P1, lmax)
            assert len(basis) == 2 ** (lmax + 1) - 1

    def test_length_zero_dimension_one(self):
        P = dga_presentation(3)
        basis = h0_basis(P, 0)
        assert len(basis) == 1
        assert basis[0] == BarElement({(): Fraction(1)})

    def test_truncation3_length2_contains_hand_element(self):
        P = dga_presentation(3)
        basis = h0_basis(P, 2)
        assert len(basis) >= 7
        target = BarElement({("nu", "w0"): Fraction(1), ("w1",): Fraction(-1)})
        assert _in_span(basis, target, P, 2)

    def test_every_basis_element_closed(self):
        P = dga_presentation(4)
        for lmax in [1, 2, 3]:
            for e in h0_basis(P, lmax):
                assert bar_differential(P, e).is_zero()

    def test_shuffle_closure_exact_membership(self):
        P = dga_presentation(3)
        basis = h0_basis(P, 2)
        rng = random.Random(11)
        singles = [e for e in basis if max(map(len, e.terms), default=0) == 1]
        for _ in range(5):
            u = rng.choice(singles)
            v = rng.choice(singles)
            prod = shuffle_elements(u, v)
            assert bar_differential(P, prod).is_zero()
            assert _in_span(h0_basis(P, 2), prod, P, 2)

    def test_kernel_subcoalgebra_under_deconcat(self):
        # both tensor legs of every splitting of a kernel element are closed
        P = dga_presentation(3)
        for e in h0_basis(P, 2):
            legs = {}
            for w, c in e.terms.items():
                for u, v in deconcat(w):
                    legs.setdefault(u, BarElement()).add_term(v, c)
            for u, acc in legs.items():
                assert bar_differential(P, acc).is_zero() or not acc.terms

    def test_dimension_bound(self):
        with pytest.raises(DimensionBound):
            h0_basis(dga_presentation(8), 6)

    def test_determinism(self):
        P = dga_presentation(3)
        a = h0_basis(P, 2)
        b = h0_basis(P, 2)
        assert a == b

    def test_length4_three_forms(self):
        # 781 columns: too slow for the suite with a dense elimination
        P = dga_presentation(3)
        basis = h0_basis(P, 4)
        assert len(basis) == 31
        for e in basis:
            assert bar_differential(P, e).is_zero()

    @pytest.mark.parametrize(
        "model,N,lmax",
        [("p1", None, ell) for ell in range(9)]
        + [
            ("edagger", N, ell)
            for N, ell in (
                (1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (4, 3), (5, 3), (6, 2), (2, 4), (1, 4)
            )
        ],
    )
    def test_matches_dense_reference(self, model, N, lmax):
        P = p1_dga() if model == "p1" else dga_presentation(N)
        basis = h0_basis(P, lmax)
        assert all(type(c) is Fraction for e in basis for c in e.terms.values())
        assert [e.to_json() for e in basis] == [e.to_json() for e in _dense_h0_basis(P, lmax)]
        # a column whose word d_B sends to zero is touched by no constraint
        # row: its element is that word alone, with coefficient 1
        cols = words_upto(P.deg1, lmax)
        col_idx = {w: i for i, w in enumerate(cols)}
        by_pivot = {min(e.terms, key=col_idx.__getitem__): e for e in basis}
        untouched = [
            w for w in cols
            if _reference_bar_differential(P, BarElement({w: Fraction(1)})).is_zero()
        ]
        for w in untouched:
            assert by_pivot[w].terms == {w: Fraction(1)}
            assert type(by_pivot[w].terms[w]) is Fraction
        if model == "p1":
            assert len(untouched) == len(cols)
        elif (N, lmax) == (1, 4):
            assert 0 < len(untouched) < len(cols)

    @pytest.mark.parametrize("model,N,lmax", [("p1", None, 8), ("edagger", 5, 3)])
    def test_constraints_built_without_bar_differential(self, monkeypatch, model, N, lmax):
        P = p1_dga() if model == "p1" else dga_presentation(N)
        expected = [e.to_json() for e in h0_basis(P, lmax)]

        def forbidden(*args):
            raise AssertionError("h0_basis called bar_differential")

        monkeypatch.setattr(barcx, "bar_differential", forbidden)
        assert [e.to_json() for e in h0_basis(P, lmax)] == expected


def _random_sparse_rows(rng, nrows, ncols):
    """Sparse rows with integer and non-integer rationals, explicit zeros,
    empty rows, duplicates and combinations of earlier rows."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1 or not rows:
            row = {} if rng.random() < 0.5 else {rng.randrange(ncols): Fraction(0)}
        elif kind < 0.2:
            row = dict(rng.choice(rows))
        elif kind < 0.35:
            a, b = rng.choice(rows), rng.choice(rows)
            q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            row = {c: a.get(c, 0) - q * b.get(c, 0) for c in set(a) | set(b)}
        else:
            row = {}
            for c in rng.sample(range(ncols), rng.randint(1, 4)):
                if rng.random() < 0.5:
                    row[c] = Fraction(rng.choice([-2, -1, 1, 1, 3]))
                else:
                    row[c] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        rows.append(row)
    return rows


class TestSparseRref:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_rref(self, seed):
        rng = random.Random(seed)
        ncols = rng.randint(3, 14)
        rows = _random_sparse_rows(rng, rng.randint(1, 20), ncols)
        copies = [dict(r) for r in rows]
        got = _rref(rows)
        assert rows == copies  # the input rows are not modified
        dense = [[r.get(c, Fraction(0)) for c in range(ncols)] for r in rows]
        _dense_rref(dense, ncols)
        assert got == [{c: v for c, v in enumerate(r) if v} for r in dense]
        assert all(type(v) is Fraction for r in got for v in r.values())


def _dense_rref(rows, ncols):
    """In-place RREF of dense Fraction rows; returns pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [ri[j] - f * rr[j] for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    del rows[r:]
    return pivots


def _dense_h0_basis(P, lmax):
    """Reference kernel of d_B: one dense Fraction matrix over all words."""
    cols = words_upto(P.deg1, lmax)
    col_idx = {w: i for i, w in enumerate(cols)}
    constraints = {}
    for w in cols[1:]:
        img = _reference_bar_differential(P, BarElement({w: Fraction(1)}))
        for rw, c in img.terms.items():
            constraints.setdefault(rw, {})[col_idx[w]] = c
    ncols = len(cols)
    rows = []
    for rw in sorted(constraints, key=lambda t: (len(t), t)):
        row = [Fraction(0)] * ncols
        for ci, c in constraints[rw].items():
            row[ci] = c
        rows.append(row)
    pivots = _dense_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis_rows = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -rows[ri][fc]
        basis_rows.append(vec)
    _dense_rref(basis_rows, ncols)
    return [
        BarElement({cols[i]: v for i, v in enumerate(row) if v != 0})
        for row in basis_rows
    ]


def _in_span(basis, target, P, lmax):
    """Exact membership by eliminating against the RREF basis."""
    rem = BarElement(target.terms)
    cols = words_upto(P.deg1, lmax)
    col_idx = {w: i for i, w in enumerate(cols)}
    for e in basis:
        if not e.terms:
            continue
        pivot = min(e.terms, key=lambda w: col_idx[w])
        c = rem.terms.get(pivot)
        if c:
            rem = rem - e.scale(c / e.terms[pivot])
    return rem.is_zero()


class TestHopf:
    def test_shuffle_two_singles(self):
        out = shuffle(("a",), ("b",))
        assert out == {("a", "b"): 1, ("b", "a"): 1}

    def test_shuffle_unit(self):
        out = shuffle(("a", "b"), ())
        assert out == {("a", "b"): 1}

    def test_shuffle_commutative(self):
        u, v = ("a", "b"), ("c", "a")
        assert shuffle(u, v) == shuffle(v, u)

    def test_shuffle_associative(self):
        rng = random.Random(2)
        letters = "abc"
        for _ in range(10):
            u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            lhs = {}
            for t, m in shuffle(u, v).items():
                for r, m2 in shuffle(t, w).items():
                    lhs[r] = lhs.get(r, 0) + m * m2
            rhs = {}
            for t, m in shuffle(v, w).items():
                for r, m2 in shuffle(u, t).items():
                    rhs[r] = rhs.get(r, 0) + m * m2
            assert lhs == rhs

    def test_shuffle_multiplicity(self):
        # (a) shuffled with (a) gives 2 (a a)
        assert shuffle(("a",), ("a",)) == {("a", "a"): 2}

    def test_deconcat_single(self):
        assert deconcat(("a",)) == [((), ("a",)), (("a",), ())]

    def test_deconcat_empty(self):
        assert deconcat(()) == [((), ())]

    def test_deconcat_coassociative(self):
        rng = random.Random(4)
        letters = "abc"
        for _ in range(10):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
            lhs = {}
            for u, v in deconcat(w):
                for x, y in deconcat(u):
                    lhs[(x, y, v)] = lhs.get((x, y, v), 0) + 1
            rhs = {}
            for u, v in deconcat(w):
                for x, y in deconcat(v):
                    rhs[(u, x, y)] = rhs.get((u, x, y), 0) + 1
            assert lhs == rhs


class TestBarElement:
    def test_degree(self):
        # the differential takes bar degree sum(deg - 1) from 0 to 1 and
        # refuses degree 2
        P = dga_presentation(3)
        d = bar_differential(P, BarElement({("nu", "w1"): Fraction(1)}))
        assert d.terms and all(sum(map(P.degrees.get, w)) - len(w) == 1 for w in d.terms)
        with pytest.raises(ValueError):
            bar_differential(P, BarElement({("nu^w0", "nu^w0"): Fraction(1)}))

    def test_json_roundtrip(self):
        e = BarElement({("nu", "w0"): Fraction(1, 3), ("w1",): Fraction(-2)})
        assert BarElement.from_json(e.to_json()) == e

    @pytest.mark.parametrize(
        "terms",
        [
            {},
            {(): Fraction(1)},
            {(): Fraction(-3), ("a",): Fraction(1, 3), ("b", "a"): Fraction(-7, 2)},
            {('q"t',): Fraction(-3), ("back\\slash", "x|y"): Fraction(1, 3)},
            {("ω1", "nu"): Fraction(-7, 2), ("ω",): Fraction(5), ("",): Fraction(2)},
            {("nu", "w0"): Fraction(1), ("w1",): Fraction(-1), ("w0", "nu", "w1"): Fraction(10, 3)},
        ],
        ids=["zero", "empty-word", "coefficients", "escapes", "non-ascii", "edagger"],
    )
    def test_json_bytes_match_reference(self, terms):
        e = BarElement(terms)
        assert e.to_json() == _reference_to_json(e)
        assert json.dumps(e.to_dict(), sort_keys=True) == e.to_json()
        assert BarElement.from_json(e.to_json()) == e

    def test_json_bytes_match_reference_on_bases(self):
        for P, lmax in ((p1_dga(), 4), (dga_presentation(3), 3)):
            for e in h0_basis(P, lmax):
                assert e.to_json() == _reference_to_json(e)

    def test_cancellation(self):
        e = BarElement({("a",): Fraction(1)})
        e.add_term(("a",), Fraction(-1))
        assert e.is_zero()
