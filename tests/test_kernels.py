"""The numpy kernels against plain reference loops: the blocked panel kernel
against the per-word loop, and the lattice sums against exact sums."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from ellbar import _kernels, chenint
from ellbar.chenint import _factor_table, _ref_quad, _word_table
from ellbar.wlattice import _eis_constants, _latsum_far_bound


def _panel_transport_numpy(first, suffix, phi, Q, wts, x):
    """Reference: one word at a time, each word's node values from its first
    letter and its suffix's cumulative integral, and its error estimate from
    the last two Legendre coefficients of the polynomial through those node
    values (at the nodes x) and its suffix's estimate."""
    W = len(first)
    d = phi.shape[1]
    V = np.empty((W + 1, d), dtype=complex)
    V[0] = 1.0
    out = np.empty(W + 1, dtype=complex)
    out[0] = 1.0
    err = np.zeros(W + 1)
    l1 = np.abs(phi * wts).sum(axis=1)
    # node values -> the interpolant's Legendre coefficients
    to_legendre = np.linalg.inv(np.polynomial.legendre.legvander(x, d - 1))
    for wi in range(1, W + 1):
        a, v = first[wi - 1], suffix[wi - 1]
        g = phi[a] * V[v]
        V[wi] = Q @ g
        out[wi] = wts @ g
        coef = to_legendre @ g
        err[wi] = 2 * np.sum(np.abs(coef[-2:])) + l1[a] * err[v]
    return out, err


TABLES = (
    [(("a",), lmax) for lmax in range(4)]
    + [(("om0", "om1"), lmax) for lmax in range(9)]
    + [(tuple("abcde"), 3), (tuple("abcdef"), 4)]
)


def _random_phi(rng, nletters, width):
    return rng.standard_normal((nletters, width)) + 1j * rng.standard_normal((nletters, width))


def _blocked_values(first, suffix, phi, Q, wts, sizes):
    """The blocked kernel's values as they were before it gave estimates:
    the reference for their floats, which the estimate's products leave
    unchanged."""
    n, d = phi.shape[0], Q.shape[0]
    P = phi.shape[1] // d
    W = len(first)
    phi = phi.reshape(n, P, d)
    QT = np.ascontiguousarray(Q.T)
    block = max(1, _kernels._BLOCK_ENTRIES // (P * d))
    out = np.empty((W + 1, P), dtype=complex)
    out[0] = 1.0
    V, prev, lo = None, 0, 1
    for size in sizes:
        hi = lo + size
        Vnext = np.empty((size, P, d), dtype=complex)
        b = lo
        while b < hi:
            e = hi if hi - b <= block + 1 else b + block
            G = phi[first[b - 1:e - 1]]
            if V is not None:
                G *= V[suffix[b - 1:e - 1] - prev]
            G = G.reshape(P, 1, d) if size == 1 else G.reshape(-1, d)
            out[b:e] = (G @ wts).reshape(e - b, P)
            if hi <= W:
                Vnext[b - lo:e - lo] = (G @ QT).reshape(e - b, P, d)
            b = e
        V, prev, lo = Vnext, lo, hi
    return out.T


def _check_panel(got, ref):
    """A panel's (values, estimates) against the per-word loop's."""
    (vals, est), (ref_vals, ref_est) = got, ref
    assert np.all(np.abs(vals - ref_vals) <= 1e-15 * np.maximum(1.0, np.abs(ref_vals)))
    assert est[0] == 0.0 and np.all(est[1:] > 0)
    assert np.all(np.abs(est - ref_est) <= 1e-12 * ref_est)


@pytest.mark.parametrize("order", [24, 16])
@pytest.mark.parametrize("letters,lmax", TABLES, ids=lambda v: str(v))
def test_matches_per_word_loop(letters, lmax, order):
    table = _word_table(letters, lmax)
    x, w, Q, tail = _ref_quad(order)
    rng = np.random.default_rng([order, len(letters), lmax])
    phi = _random_phi(rng, len(letters), order)
    ref = _panel_transport_numpy(table.first, table.suffix, phi, Q, w, x)
    got = _kernels.panel_transport(table.first, table.suffix, phi, Q, w, tail, table.sizes)
    assert ref[0].shape == ref[1].shape == (len(table.words),)
    assert got[0].shape == got[1].shape == (1, len(table.words))
    _check_panel((got[0][0], got[1][0]), ref)


PANEL_TABLES = [(tuple("abcdef"[:n]), lmax) for n in (1, 3, 6) for lmax in (2, 4)] + [
    (tuple("abcd"), 5)
]


@pytest.mark.parametrize("P", [1, 7, 64])
@pytest.mark.parametrize("letters,lmax", PANEL_TABLES, ids=lambda v: str(v))
def test_panel_axis_matches_per_word_loop(letters, lmax, P):
    # P panels side by side along phi's axis 1: each row of the result is
    # that panel's series and estimates, and the same floats as a call for
    # that panel alone
    table = _word_table(letters, lmax)
    x, w, Q, tail = _ref_quad(24)
    rng = np.random.default_rng([P, len(letters), lmax])
    phi = _random_phi(rng, len(letters), 24 * P)
    args = (table.first, table.suffix)
    vals, est = _kernels.panel_transport(*args, phi, Q, w, tail, table.sizes)
    assert vals.shape == est.shape == (P, len(table.words))
    assert np.array_equal(vals, _blocked_values(*args, phi, Q, w, table.sizes))
    for p in range(P):
        one = np.ascontiguousarray(phi[:, 24 * p:24 * (p + 1)])
        _check_panel((vals[p], est[p]), _panel_transport_numpy(*args, one, Q, w, x))
        one_vals, one_est = _kernels.panel_transport(*args, one, Q, w, tail, table.sizes)
        assert np.array_equal(vals[p], one_vals[0])
        assert np.array_equal(est[p], one_est[0])


# factor tables of single words: one-word levels throughout (a^6), one-word
# levels between wider ones (a^3 b a^3 has one word of length 7 and two of
# length 6), and mixed level sizes over two and three letters
FACTOR_WORDS = [
    (("a", "b"), "aaaaaa"),
    (("a", "b"), "aaabaaa"),
    (("a", "b"), "abababab"),
    (("a", "b"), "aabbabba"),
    (("a", "b", "c"), "abcacbba"),
]


@pytest.mark.parametrize("P", [1, 7, 64])
@pytest.mark.parametrize("letters,word", FACTOR_WORDS, ids=lambda v: str(v))
def test_factor_tables_match_per_word_loop(letters, word, P):
    table = _factor_table(letters, tuple(word))
    assert sum(table.sizes) == len(table.words) - 1
    x, w, Q, tail = _ref_quad(24)
    rng = np.random.default_rng([P, len(word)])
    phi = _random_phi(rng, len(letters), 24 * P)
    args = (table.first, table.suffix)
    vals, est = _kernels.panel_transport(*args, phi, Q, w, tail, table.sizes)
    assert vals.shape == est.shape == (P, len(table.words))
    assert np.array_equal(vals, _blocked_values(*args, phi, Q, w, table.sizes))
    for p in range(P):
        one = np.ascontiguousarray(phi[:, 24 * p:24 * (p + 1)])
        _check_panel((vals[p], est[p]), _panel_transport_numpy(*args, one, Q, w, x))
        one_vals, one_est = _kernels.panel_transport(*args, one, Q, w, tail, table.sizes)
        assert np.array_equal(vals[p], one_vals[0])
        assert np.array_equal(est[p], one_est[0])


def test_factor_table_shape():
    # the factors of a word, by length and then in the letters' order; the
    # full table keeps its graded-lex order
    table = _factor_table(("a", "b"), tuple("aaba"))
    assert ["".join(w) for w in table.words] == [
        "", "a", "b", "aa", "ab", "ba", "aab", "aba", "aaba"]
    assert table.sizes == (2, 3, 2, 1)
    full = _word_table(("a", "b"), 2)
    assert ["".join(w) for w in full.words] == ["", "a", "b", "aa", "ab", "ba", "bb"]
    assert full.sizes == (2, 4)
    with pytest.raises(ValueError):
        chenint.WordTable(("a", "b"), [(), ("a",), ("a", "b")])


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
    _, w, Q, tail = _ref_quad(16)
    assert w.dtype == Q.dtype == np.complex128 and Q.T.flags.c_contiguous
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    args = (table.first, table.suffix, phi)
    got = _kernels.panel_transport(*args, Q.real.copy(), w.real.copy(), tail, table.sizes)
    want = _kernels.panel_transport(*args, Q, w, tail, table.sizes)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _latsum_exact(zs, w1, w2, M, dps=30):
    """Reference: the primed lattice sums and P4..P10 written as plain
    expressions over the whole index box, in mpmath at dps digits."""
    with mpmath.workdps(dps):
        Z = [mpmath.mpc(z) for z in zs]
        il = [1 / (m * mpmath.mpc(w1) + n * mpmath.mpc(w2))
              for m in range(-M, M + 1) for n in range(-M, M + 1) if (m, n) != (0, 0)]
        out = []
        for z in Z:
            s2 = s3 = s1 = s0 = mpmath.mpc(0)
            for t in il:
                d = 1 / (z - 1 / t)
                s2 += d * d - t * t
                s3 += d * d * d
                s1 += d + t + z * t * t
                s0 += mpmath.log(1 - z * t) + z * t + z * z * t * t / 2
            out.append((s2, s3, s1, s0))
        sums = [np.array([complex(v) for v in col]) for col in zip(*out)]
        partials = [complex(mpmath.fsum(t ** k for t in il)) for k in (4, 6, 8, 10)]
    return sums, partials


def _latsum_points(count, seed=5):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, count) + 1j * rng.uniform(-0.5, 0.5, count)


def test_latsum_eval_matches_expression_form():
    # every sum within 1e-15 max(1, |r|) of the exact box sums
    zs = _latsum_points(12)
    got = _kernels.latsum_eval(zs, 1.1, 0.3 + 1.2j, 20)
    sums, partials = _latsum_exact(zs, 1.1, 0.3 + 1.2j, 20)
    for g, r in zip(got[:4] + tuple(got[4]), sums + partials):
        assert np.all(np.abs(g - r) <= 1e-15 * np.maximum(1.0, np.abs(r)))


def test_latsum_eval_independent_of_point_blocks(monkeypatch):
    zs = _latsum_points(17, seed=8)
    w1, w2, M = 1.1, 0.3 + 1.2j, 60
    whole = _kernels.latsum_eval(zs, w1, w2, M)
    assert _kernels._LATSUM_ENTRIES // (2 * M * (M + 1)) == 2  # two points a block
    ones = [_kernels.latsum_eval(zs[i:i + 1], w1, w2, M) for i in range(len(zs))]
    monkeypatch.setattr(_kernels, "_LATSUM_ENTRIES", 5 * 2 * M * (M + 1))
    fives = _kernels.latsum_eval(zs, w1, w2, M)
    for j in range(4):
        assert np.array_equal(whole[j], np.concatenate([o[j] for o in ones]))
        assert np.array_equal(whole[j], fives[j])
    assert all(np.array_equal(whole[4], o[4]) for o in ones + [fives])


def test_latsum_eval_memory_stays_bounded():
    # the work arrays hold a few blocks of about 2^14 point-lambda entries,
    # whatever the number of points
    zs = _latsum_points(64, seed=9)
    tracemalloc.start()
    try:
        _kernels.latsum_eval(zs, 1.1, 0.3 + 1.2j, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


# The near/far split: a point's near lambda are those with |lambda|^2 below
# 2^(e+3) for |w| in [2^(e-1), 2^e), so every lambda is far when
# |lambda|^2 >= 16 |z|^2 and every lambda is near when |lambda|^2 <= 8 |z|^2.
# Near the box edge the rounding of lambda = m w1 + n w2 is amplified by
# |lambda| / |z - lambda| in the pair terms, with or without the split; on a
# lattice this wide the terms there stay below 1, where the tolerance is
# absolute.
SPLIT_W1, SPLIT_W2, SPLIT_M = 4.4, 1.2 + 4.8j, 3


def _split_box_radii():
    lam = _kernels._half_box(SPLIT_W1, SPLIT_W2, SPLIT_M)
    return float(np.min(np.abs(lam))), float(np.max(np.abs(lam)))


def _far_only_points():
    rng = np.random.default_rng(11)
    r = rng.uniform(0.04, 1.08, 8)
    return r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 8))


def _near_only_points():
    # in the cells at the edge of the box, off their centres (the half
    # periods, where the sums cancel far below their terms)
    cells = [(-3, -3), (-3, 2), (2, -3), (2, 2), (2, 0), (-1, 2), (-3, -1), (0, -3)]
    return np.array([(m + 0.25) * SPLIT_W1 + (n + 0.3) * SPLIT_W2 for m, n in cells])


def _assert_matches_exact(zs):
    got = _kernels.latsum_eval(zs, SPLIT_W1, SPLIT_W2, SPLIT_M)
    sums, partials = _latsum_exact(zs, SPLIT_W1, SPLIT_W2, SPLIT_M)
    diffs = [g - r for g, r in zip(got[:4] + tuple(got[4]), sums + partials)]
    # beyond |z| = |lambda| the S0 pair term is log(1 - u) + u on the
    # principal branch, which can differ from the two logarithms by 2 pi i
    diffs[3] = diffs[3].real + 1j * (np.remainder(diffs[3].imag + np.pi, 2 * np.pi) - np.pi)
    for d, r in zip(diffs, sums + partials):
        assert np.all(np.abs(d) <= 1e-15 * np.maximum(1.0, np.abs(r)))
    return got


def test_latsum_eval_far_part_alone():
    # every lambda of the box is far: the sums are the shell series alone
    zs = _far_only_points()
    shortest, _ = _split_box_radii()
    assert 16.0 * np.max(np.abs(zs)) ** 2 <= shortest ** 2
    _assert_matches_exact(zs)


def test_latsum_eval_near_part_alone():
    # every lambda of the box is near: the sums are the direct pair terms
    zs = _near_only_points()
    _, longest = _split_box_radii()
    assert 8.0 * np.min(np.abs(zs)) ** 2 >= longest ** 2
    _assert_matches_exact(zs)


def test_latsum_eval_mixed_call(monkeypatch):
    # far-only, near-only and split points in one call; each point's floats
    # are those of a call for it alone, also in blocks of two points
    cells = [(0, 0), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -2)]
    mid = np.array([(m + 0.35) * SPLIT_W1 + (n + 0.2) * SPLIT_W2 for m, n in cells])
    rng = np.random.default_rng(12)
    zs = np.concatenate([_far_only_points()[:4], mid, _near_only_points()[:4]])
    zs = zs[rng.permutation(len(zs))]
    got = _assert_matches_exact(zs)
    # a point takes at most 2 M (M + 1) = 24 near entries and 4 (K + 1) = 96 far ones
    monkeypatch.setattr(_kernels, "_LATSUM_ENTRIES", 2 * _kernels._far_coeffs().size)
    small_blocks = _kernels.latsum_eval(zs, SPLIT_W1, SPLIT_W2, SPLIT_M)
    for j in range(4):
        assert np.array_equal(got[j], small_blocks[j])
        for i in range(len(zs)):
            assert got[j][i] == _kernels.latsum_eval(zs[i:i + 1], SPLIT_W1, SPLIT_W2, SPLIT_M)[j][0]


@pytest.mark.parametrize("K", [46, 3])
def test_latsum_far_remainder_bound(monkeypatch, K):
    # K = _LATSUM_TERMS cut against K terms: the sums differ by at most both
    # runs' proven far remainders plus rounding; at K = 3 the difference is
    # well above rounding, so it is the bound that covers it
    w1, w2, M = 1.1, 0.3 + 1.2j, 20
    rng = np.random.default_rng(13)
    zs = rng.uniform(-2.0, 2.0, 40) + 1j * rng.uniform(-2.0, 2.0, 40)
    lam_min = _eis_constants(w1, w2, 12)[0]
    base = _kernels.latsum_eval(zs, w1, w2, M)
    bound = _latsum_far_bound(zs, lam_min)
    monkeypatch.setattr(_kernels, "_LATSUM_TERMS", K)
    other = _kernels.latsum_eval(zs, w1, w2, M)
    other_bound = _latsum_far_bound(zs, lam_min)
    above = False
    for g, o, b, ob in zip(base[:4], other[:4], bound, other_bound):
        rounding = 2e-15 * np.maximum(1.0, np.abs(g))
        diff = np.abs(g - o)
        assert np.all(diff <= b + ob + rounding)
        above |= bool(np.any(diff > 100.0 * rounding))
    assert above == (K == 3)
    assert all(np.array_equal(p, q) for p, q in zip(base[4], other[4]))
