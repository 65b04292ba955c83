"""Genus-zero instance: series oracle vs regularized integral route."""

import itertools
import math

import pytest
from mpmath import mp, mpf

from ellbar import p1model

from ellbar.barcx import BarElement, bar_differential, h0_basis, shuffle, words_upto
from ellbar.chenint import (
    ArcSeg,
    P1Model,
    PathSpec,
    chen_transport,
    eval_bar_with_result,
    homotopy_report,
    line_path,
    loop_path,
    regularized_integral_p1,
)
from ellbar.errors import NotAdmissible
from ellbar.p1model import (
    INTEGRAL_SIGN_BY_DEPTH,
    MZV_MAX_DEPTH,
    MZV_MAX_WEIGHT,
    MZVIndex,
    mzv_integral,
    mzv_series,
    p1_dga,
)

ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595942854
ZETA4 = math.pi**4 / 90


class TestIndex:
    def test_parse(self):
        idx = MZVIndex.parse("2,1")
        assert idx.ks == (2, 1)
        assert idx.depth == 2
        assert idx.weight == 3
        assert idx.admissible
        assert str(idx) == "2,1"

    def test_parse_spaces(self):
        assert MZVIndex.parse(" 3 , 1 ").ks == (3, 1)

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            MZVIndex.parse("two,one")
        with pytest.raises(ValueError):
            MZVIndex.parse("")

    def test_validation(self):
        with pytest.raises(ValueError):
            MZVIndex((2, 0))
        with pytest.raises(ValueError):
            MZVIndex(())

    def test_admissibility(self):
        assert not MZVIndex((1, 2)).admissible

    def test_word_encoding(self):
        assert MZVIndex((2,)).word() == "01"
        assert MZVIndex((2, 1)).word() == "011"
        assert MZVIndex((3, 2)).word() == "00101"
        assert MZVIndex((6, 1, 1)).word() == "00000111"


class TestPresentation:
    def test_shape(self):
        P = p1_dga()
        assert P.deg1 == ("om0", "om1")
        assert P.deg2 == ()
        assert not P.diff
        assert not P.wedge

    def test_differential_vanishes(self):
        P = p1_dga()
        xi = BarElement()
        for w in words_upto(P.deg1, 3):
            if w:
                xi.add_term(w, 1)
        assert bar_differential(P, xi).is_zero()

    def test_kernel_dimension(self):
        basis = h0_basis(p1_dga(), 3)
        assert len(basis) == 15


class TestSeries:
    def test_closed_forms(self):
        assert abs(mzv_series((2,)) - ZETA2) < 1e-12
        assert abs(mzv_series((4,)) - ZETA4) < 1e-12
        assert abs(mzv_series((3,)) - ZETA3) < 1e-12

    def test_classical_identities(self):
        assert abs(mzv_series((2, 1)) - mzv_series((3,))) < 1e-10
        assert abs(mzv_series((3, 1)) - math.pi**4 / 360) < 1e-12
        assert abs(mzv_series((2, 1, 1)) - ZETA4) < 1e-12

    def test_stuffle(self):
        # zeta(2)^2 = 2 zeta(2,2) + zeta(4)
        lhs = mzv_series((2,)) ** 2
        rhs = 2 * mzv_series((2, 2)) + mzv_series((4,))
        assert abs(lhs - rhs) < 1e-12

    def test_not_admissible(self):
        with pytest.raises(NotAdmissible, match="leading entry is 1"):
            mzv_series((1, 2))

    def test_support_limits(self):
        with pytest.raises(ValueError, match="depth"):
            mzv_series((2, 1, 1, 1))
        with pytest.raises(ValueError, match="weight"):
            mzv_series((9,))
        with pytest.raises(ValueError, match="tol"):
            mzv_series((2,), tol=1e-20)


# mzv_series values of the Euler-Maclaurin summator that preceded the Hölder
# convolution (40 digits, the same floats at tol 1e-10, 1e-12 and 1e-14).
PINNED = {
    (2,): 1.6449340668482264,
    (3,): 1.2020569031595942,
    (4,): 1.0823232337111381,
    (5,): 1.03692775514337,
    (6,): 1.0173430619844492,
    (7,): 1.008349277381923,
    (8,): 1.0040773561979444,
    (2, 1): 1.2020569031595942,
    (2, 2): 0.8117424252833536,
    (2, 3): 0.7115661975505724,
    (2, 4): 0.6745239140339682,
    (2, 5): 0.6587533875711094,
    (2, 6): 0.6515651637151268,
    (3, 1): 0.27058080842778454,
    (3, 2): 0.22881039760335375,
    (3, 3): 0.21379886822459254,
    (3, 4): 0.2075050146157321,
    (3, 5): 0.20466113696507743,
    (4, 1): 0.09655115998944373,
    (4, 2): 0.08848338245436871,
    (4, 3): 0.08515982253483365,
    (4, 4): 0.08367311301649537,
    (5, 1): 0.04053689727151974,
    (5, 2): 0.03857512434275326,
    (5, 3): 0.03770767298484754,
    (6, 1): 0.018355928317494465,
    (6, 2): 0.01781974041683599,
    (7, 1): 0.008650529099561105,
    (2, 1, 1): 1.0823232337111381,
    (2, 1, 2): 0.7115661975505724,
    (2, 1, 3): 0.6183495605712693,
    (2, 1, 4): 0.5842100993421966,
    (2, 1, 5): 0.5697474122644028,
    (2, 2, 1): 0.22881039760335375,
    (2, 2, 2): 0.19075182412208422,
    (2, 2, 3): 0.17725981736697102,
    (2, 2, 4): 0.17164328717181182,
    (2, 3, 1): 0.07922139756520717,
    (2, 3, 2): 0.07204663432870657,
    (2, 3, 3): 0.06911633766289269,
    (2, 4, 1): 0.03274185114896723,
    (2, 4, 2): 0.031022514023032778,
    (2, 5, 1): 0.014696749558064184,
    (3, 1, 1): 0.09655115998944373,
    (3, 1, 2): 0.07922139756520717,
    (3, 1, 3): 0.07316620928764143,
    (3, 1, 4): 0.07066464156615783,
    (3, 2, 1): 0.03230902899166988,
    (3, 2, 2): 0.029125622289826226,
    (3, 2, 3): 0.027837547794929352,
    (3, 3, 1): 0.013113188206127073,
    (3, 3, 2): 0.01236234638848005,
    (3, 4, 1): 0.005826427060193735,
    (4, 1, 1): 0.017489853169011405,
    (4, 1, 2): 0.015609842106333215,
    (4, 1, 3): 0.014856758330383406,
    (4, 2, 1): 0.0069528481527208865,
    (4, 2, 2): 0.006516981346393803,
    (4, 3, 1): 0.003053160866743654,
    (5, 1, 1): 0.004123165152432535,
    (5, 1, 2): 0.003839260133062643,
    (5, 2, 1): 0.0017863115107142604,
    (6, 1, 1): 0.001107620520681261,
}

TOLS = (1e-10, 1e-12, 1e-14)


class TestSeriesConvergence:
    @staticmethod
    def _supported():
        return [
            ks
            for depth in range(1, MZV_MAX_DEPTH + 1)
            for ks in itertools.product(range(1, MZV_MAX_WEIGHT + 1), repeat=depth)
            if ks[0] >= 2 and sum(ks) <= MZV_MAX_WEIGHT
        ]

    def test_every_supported_index_converges(self):
        indices = self._supported()
        assert len(indices) == 63
        for tol in (1e-10, 1e-14):
            for ks in indices:
                assert math.isfinite(mzv_series(ks, tol=tol))

    def test_pinned_values(self):
        assert sorted(PINNED) == sorted(self._supported())
        for tol in TOLS:
            for ks, old in PINNED.items():
                value, bound = p1model._mzv_series(ks, tol)
                assert value == mzv_series(ks, tol=tol)
                assert abs(value - old) <= bound + math.ulp(old), (ks, tol)

    def test_bound_covers_error(self):
        # the reference is the same sums at 60 digits, bounded by 1e-30
        with mp.workdps(60):
            refs = {}
            for ks in self._supported():
                refs[ks], rbound = p1model._holder(MZVIndex(ks).word(), 1e-30)
                assert rbound <= 1e-30
            for tol in TOLS:
                for ks, ref in refs.items():
                    value, bound = p1model._mzv_series(ks, tol)
                    assert bound <= tol / 2
                    assert abs(mpf(value) - ref) <= bound + 1e-30, (ks, tol)

    def test_single_zeta_against_mpmath(self):
        with mp.workdps(30):
            for k in range(2, 9):
                assert abs(mzv_series((k,), tol=1e-14) - mp.zeta(k)) <= 1e-14, k

    def test_stuffle_all_pairs(self):
        # zeta(a) zeta(b) = zeta(a, b) + zeta(b, a) + zeta(a + b)
        def z(*ks):
            return mpf(mzv_series(ks, tol=1e-14))

        with mp.workdps(30):
            for a in range(2, 7):
                for b in range(2, 9 - a):
                    gap = z(a) * z(b) - z(a, b) - z(b, a) - z(a + b)
                    assert abs(gap) <= 1e-14, (a, b)


class TestIntegralRoute:
    @pytest.mark.parametrize("ks", [(2,), (3,), (4,), (2, 1), (3, 1), (2, 2)])
    def test_dual_route(self, ks):
        a = mzv_integral(ks)
        b = mzv_series(ks)
        assert abs(a - b) < 1e-8, f"{ks}: integral {a} vs series {b}"

    def test_sign_table(self):
        # raw integral of the depth-1 word is negative; the frozen sign
        # restores the series normalization
        raw = regularized_integral_p1("01").real
        assert raw < 0
        assert INTEGRAL_SIGN_BY_DEPTH[1] == -1
        assert abs(mzv_integral((2,)) - ZETA2) < 1e-9

    def test_not_admissible(self):
        with pytest.raises(NotAdmissible):
            mzv_integral((1, 3))


class TestShuffleConsistency:
    def test_zeta2_squared(self):
        # I(01)^2 expands by the shuffle rule into weight-4 admissible words
        terms = shuffle(("om0", "om1"), ("om0", "om1"))
        total = 0.0
        for w, c in terms.items():
            word = "".join("0" if a == "om0" else "1" for a in w)
            total += c * regularized_integral_p1(word).real
        assert abs(total - mzv_series((2,)) ** 2) < 1e-8


class TestHomotopyInterior:
    def test_all_words_invariant(self):
        # straight chord versus upper semicircle between interior points
        g1 = line_path("p1", 0.3, 0.7)
        g2 = PathSpec(model="p1", segments=(ArcSeg(0.5, 0.2, math.pi, 0.0),))
        model = P1Model()
        r1 = chen_transport(model, g1, lmax=4, tol=1e-12)
        r2 = chen_transport(model, g2, lmax=4, tol=1e-12)
        for w in r1.values:
            if not w:
                continue
            assert abs(r1.values[w] - r2.values[w]) < 1e-9, f"word {w}"

    def test_homotopy_report_word(self):
        g1 = line_path("p1", 0.3, 0.7)
        g2 = PathSpec(model="p1", segments=(ArcSeg(0.5, 0.2, math.pi, 0.0),))
        xi = BarElement()
        xi.add_term(("om0", "om1"), 1)
        rep = homotopy_report(P1Model(), xi, g1, g2, tol=1e-12)
        assert rep.difference < 1e-10

    def test_loop_two_pi_i(self):
        res = chen_transport(P1Model(), loop_path(0j, 0.25, model="p1"), lmax=1, tol=1e-12)
        assert abs(res.coeff(("om0",)) - 2j * math.pi) < 1e-11
