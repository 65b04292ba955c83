"""Genus-zero instance: series oracle vs regularized integral route."""

import itertools
import math

import pytest
from mpmath import mpf

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
from ellbar.errors import ConvergenceFailure, NotAdmissible
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

    def test_disagreeing_configurations_raise(self, monkeypatch):
        class Drifting:
            # each larger configuration moves the value by 1e-6
            def __init__(self, ntab):
                self.ntab = ntab

            def value(self, ks):
                return mpf(1) + mpf(self.ntab) * mpf("1e-6")

        monkeypatch.setattr(p1model, "_engine", lambda ntab, jem: Drifting(ntab))
        with pytest.raises(ConvergenceFailure, match="summator configurations"):
            mzv_series((2,), tol=1e-12)
        # agreement within tol/2 returns the larger configuration's value
        assert abs(mzv_series((2,), tol=2e-4) - (1 + 120e-6)) < 1e-15


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
