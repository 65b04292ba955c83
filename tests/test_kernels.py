"""The numpy kernels against plain reference loops: the blocked panel kernel
against the per-word loop, and the lattice sums against array expressions."""

import numpy as np
import pytest

from ellbar import _kernels
from ellbar.chenint import _ref_quad, _word_table


def _panel_transport_numpy(first, suffix, phi, Q, wts):
    """Reference: one word at a time, each word's node values from its first
    letter and its suffix's cumulative integral."""
    W = len(first)
    d = phi.shape[1]
    V = np.empty((W + 1, d), dtype=complex)
    V[0] = 1.0
    out = np.empty(W + 1, dtype=complex)
    out[0] = 1.0
    for wi in range(1, W + 1):
        g = phi[first[wi - 1]] * V[suffix[wi - 1]]
        V[wi] = Q @ g
        out[wi] = wts @ g
    return out


TABLES = (
    [(("a",), lmax) for lmax in range(4)]
    + [(("om0", "om1"), lmax) for lmax in range(9)]
    + [(tuple("abcde"), 3), (tuple("abcdef"), 4)]
)


def _random_phi(rng, nletters, width):
    return rng.standard_normal((nletters, width)) + 1j * rng.standard_normal((nletters, width))


@pytest.mark.parametrize("order", [24, 16])
@pytest.mark.parametrize("letters,lmax", TABLES, ids=lambda v: str(v))
def test_matches_per_word_loop(letters, lmax, order):
    table = _word_table(letters, lmax)
    _, w, Q = _ref_quad(order)
    rng = np.random.default_rng([order, len(letters), lmax])
    phi = _random_phi(rng, len(letters), order)
    ref = _panel_transport_numpy(table.first, table.suffix, phi, Q, w)
    got = _kernels.panel_transport(table.first, table.suffix, phi, Q, w)
    assert ref.shape == (len(table.words),)
    assert got.shape == (1, len(table.words))
    assert np.all(np.abs(got[0] - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))


PANEL_TABLES = [(tuple("abcdef"[:n]), lmax) for n in (1, 3, 6) for lmax in (2, 4)] + [
    (tuple("abcd"), 5)
]


@pytest.mark.parametrize("P", [1, 7, 64])
@pytest.mark.parametrize("letters,lmax", PANEL_TABLES, ids=lambda v: str(v))
def test_panel_axis_matches_per_word_loop(letters, lmax, P):
    # P panels side by side along phi's axis 1: each row of the result is
    # that panel's series, and the same floats as a call for that panel alone
    table = _word_table(letters, lmax)
    _, w, Q = _ref_quad(24)
    rng = np.random.default_rng([P, len(letters), lmax])
    phi = _random_phi(rng, len(letters), 24 * P)
    got = _kernels.panel_transport(table.first, table.suffix, phi, Q, w)
    assert got.shape == (P, len(table.words))
    for p in range(P):
        one = np.ascontiguousarray(phi[:, 24 * p:24 * (p + 1)])
        ref = _panel_transport_numpy(table.first, table.suffix, one, Q, w)
        assert np.all(np.abs(got[p] - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))
        assert np.array_equal(got[p], _kernels.panel_transport(table.first, table.suffix, one, Q, w)[0])


def test_six_letter_table_spans_partial_blocks():
    # at 64 panels of 24 nodes the longest level of the six-letter table
    # fills several word blocks and ends in a partial one, so block edges
    # are exercised above
    block = _kernels._BLOCK_ENTRIES // (64 * 24)
    assert 6**4 > 2 * block
    assert 6**4 % block != 0
    # and at one panel the four-letter table's 1024 longest words would
    # leave a lone word in a last block
    assert 4**5 % (_kernels._BLOCK_ENTRIES // 24) == 1


def test_real_quadrature_matches_prebuilt():
    # _ref_quad hands the kernel complex weights and a Fortran-order complex
    # matrix; plain real arrays must give the same panel
    table = _word_table(("a", "b"), 3)
    _, w, Q = _ref_quad(16)
    assert w.dtype == Q.dtype == np.complex128 and Q.T.flags.c_contiguous
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    got = _kernels.panel_transport(table.first, table.suffix, phi, Q.real.copy(), w.real.copy())
    assert np.array_equal(got, _kernels.panel_transport(table.first, table.suffix, phi, Q, w))


def _latsum_eval_expr(zs, w1, w2, M):
    """Reference: the primed lattice sums written as plain array expressions."""
    m_all = np.arange(-M, M + 1)
    mm, nn = np.meshgrid(m_all, m_all, indexing="ij")
    sel = (mm != 0) | (nn != 0)
    lam = (mm[sel] * w1 + nn[sel] * w2).ravel()
    il = 1.0 / lam
    il2 = il * il
    out = []
    for z in zs:
        d = 1.0 / (z - lam)
        out.append((
            np.sum(d * d - il2),
            np.sum(d * d * d),
            np.sum(d + il + z * il2),
            np.sum(np.log(1.0 - z * il) + z * il + 0.5 * z * z * il2),
        ))
    return [np.array(col) for col in zip(*out)]


def test_latsum_eval_matches_expression_form():
    rng = np.random.default_rng(5)
    zs = rng.uniform(-0.5, 0.5, 12) + 1j * rng.uniform(-0.5, 0.5, 12)
    got = _kernels.latsum_eval(zs, 1.1, 0.3 + 1.2j, 20)
    for g, r in zip(got, _latsum_eval_expr(zs, 1.1, 0.3 + 1.2j, 20)):
        assert np.all(np.abs(g - r) <= 1e-15 * np.maximum(1.0, np.abs(r)))
