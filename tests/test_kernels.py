"""The blocked panel kernel against the per-word reference loop."""

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
