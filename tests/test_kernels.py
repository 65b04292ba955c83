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


@pytest.mark.parametrize("order", [24, 16])
@pytest.mark.parametrize("letters,lmax", TABLES, ids=lambda v: str(v))
def test_matches_per_word_loop(letters, lmax, order):
    table = _word_table(letters, lmax)
    _, w, Q = _ref_quad(order)
    rng = np.random.default_rng([order, len(letters), lmax])
    phi = rng.standard_normal((len(letters), order)) + 1j * rng.standard_normal(
        (len(letters), order)
    )
    ref = _panel_transport_numpy(table.first, table.suffix, phi, Q, w)
    got = _kernels.panel_transport(table.first, table.suffix, phi, Q, w)
    assert got.shape == ref.shape == (len(table.words),)
    assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))


def test_six_letter_table_spans_partial_blocks():
    # the longest level of the six-letter table fills several word blocks
    # and ends in a partial one, so block edges are exercised above
    assert 6**4 > 2 * _kernels._WORD_BLOCK
    assert 6**4 % _kernels._WORD_BLOCK != 0


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
