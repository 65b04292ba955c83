"""Hot numerical kernels: direct lattice sums and panel transport.

One numpy implementation per kernel.  ``eis_sum`` walks the index box in
blocks of ``_ROW_BLOCK`` rows.  ``latsum_eval`` gives the primed sums over
the index box, each lambda paired with -lambda, split into near and far
parts: once per call it sorts half the box into shells by the binade of
|lambda|^2 and forms each shell's power sums of lambda^-2; per point, the
shells well beyond |z| enter through a short power series in z^2 over those
sums, and only the few lambda nearer z are summed directly, in pair terms
written without cancellation, for a block of points at a time of at most
``_LATSUM_ENTRIES`` point-lambda entries.  What the box and the cut series
leave out is bounded by ``wlattice.latsum_truncation_bound``.  The panel
kernel builds the word series one word length at a time for a whole row of
panels, in blocks of at most ``_BLOCK_ENTRIES`` word-node entries, with an
error estimate per word from the last two Legendre coefficients of its
integrand; a length may hold any number of words, as long as their suffixes
are in the length below.
"""

import numpy as np

_ROW_BLOCK = 32
_BLOCK_ENTRIES = 1 << 13  # word-node entries per panel-kernel product (128 KiB)
_LATSUM_ENTRIES = 1 << 14  # point-lambda entries per lattice-sum work array (256 KiB)
# The lattice sums' far series keep w^k P_(k+2) for k <= _LATSUM_TERMS, on
# shells lying wholly beyond |lambda|^2 = 2^_LATSUM_GAP |w|, where
# |u| = |w|/|lambda|^2 < 1/8.  K = 23 is the least K at which the proven
# remainder of each of the four series (wlattice.latsum_truncation_bound) is
# below 1/1000 of the unit roundoff times the bound on its k = 0 term; at
# 1/100 (K = 22) it would pass the box's own M^-10 bound for wp on the
# curve (5, 2) at M = 40.
_LATSUM_TERMS = 23
_LATSUM_GAP = 3


def eis_sum(w1, w2, M, k):
    """Partial Eisenstein sum of exponent k over the centered index box M."""
    w1, w2 = complex(w1), complex(w2)
    # sum over the centered index box minus the origin, using the
    # lam -> -lam pairing: 2 * (rows n > 0, plus the half row n = 0, m > 0)
    m_half = np.arange(1, M + 1)
    lam = m_half * w1
    il2 = 1.0 / (lam * lam)
    acc = np.sum(il2 ** (k // 2))
    m_all = np.arange(-M, M + 1)
    for n0 in range(1, M + 1, _ROW_BLOCK):
        nn = np.arange(n0, min(n0 + _ROW_BLOCK, M + 1))
        lam = m_all[None, :] * w1 + nn[:, None] * w2
        il2 = 1.0 / (lam * lam)
        acc += np.sum(il2 ** (k // 2))
    return 2.0 * acc


def _half_box(w1, w2, M):
    """The lattice points of one half of the centered index box M: the half
    row (m > 0, n = 0), then the rows n = 1..M with m = -M..M.  Their
    negatives are the other half, so every primed box sum is a sum of
    +-lambda pair terms over these points."""
    m_all = np.arange(-M, M + 1)
    rows = (m_all[None, :] * w1 + np.arange(1, M + 1)[:, None] * w2).ravel()
    return np.concatenate((np.arange(1, M + 1) * w1, rows))


def _shell_sums(il2, first):
    """Suffix sums over the shells of P_(k+2) = sum lambda^(-2k-4), k = 0..K.

    il2 holds lambda^-2 sorted by shell and ``first`` the index at which
    each nonempty shell starts.  Row i of the result is summed over shell i
    and every shell beyond it; the last row, past the outermost shell, is 0.
    """
    table = np.zeros((len(first) + 1, _LATSUM_TERMS + 1), dtype=np.complex128)
    p = il2 * il2
    for k in range(_LATSUM_TERMS + 1):
        table[:-1, k] = np.add.reduceat(p, first)
        p *= il2
    np.cumsum(table[-2::-1], axis=0, out=table[-2::-1])
    return table


def _far_coeffs():
    """The far series' coefficients of w^k P_(k+2), k = 0..K, for S2, S3,
    S1 and S0 (before their factors 2w, -2z, -2zw and -w^2)."""
    k = np.arange(_LATSUM_TERMS + 1.0)
    return np.array([2.0 * k + 3.0, (2.0 * k + 3.0) * (k + 1.0), np.ones_like(k), 1.0 / (k + 2.0)])


def _picked(cums, count):
    """cums[:, r, count[r] - 1], or 0 where count[r] = 0: of cumulative sums
    along the last axis, each row's sum over its first count[r] entries,
    whatever the width of the block."""
    picked = np.zeros(cums.shape[:-1], dtype=cums.dtype)
    rows = np.flatnonzero(count)
    picked[:, rows] = cums[:, rows, count[rows] - 1]
    return picked


def latsum_eval(zs, w1, w2, M):
    """Primed lattice sums (S2, S3, S1, S0) at each z, and (P4, P6, P8, P10).

    Over the index box M minus the origin, with t = lambda^-1:
    S2 = sum (z-lambda)^-2 - t^2, S3 = sum (z-lambda)^-3,
    S1 = sum (z-lambda)^-1 + t + z t^2,
    S0 = sum log(1 - z t) + z t + z^2 t^2 / 2, and P_k = sum t^k.
    Each lambda is taken together with -lambda, so the sums run over the
    half box; with w = z^2 and u = w t^2 the pair terms are
    S2: 2 w (3 - u) t^4 / (1 - u)^2,  S3: -2 z (3 + u) t^4 / (1 - u)^3,
    S1: -2 z w t^4 / (1 - u),  S0: log(1 - u) + u.

    Near/far split.  The half box is sorted into shells by the binade of
    |lambda|^2, and for each shell and k = 0..K (K = ``_LATSUM_TERMS``) the
    sum P_(k+2) of lambda^(-2k-4) over that shell and every shell beyond it
    is formed once per call.  A point with |w| < 2^e takes the shells from
    |lambda|^2 >= 2^(e + ``_LATSUM_GAP``) on as far, so |u| < 1/8 on them,
    and their pair terms come from the series in u:
    S2: 2 w sum (2k+3) w^k P_(k+2),  S3: -2 z sum (2k+3)(k+1) w^k P_(k+2),
    S1: -2 z w sum w^k P_(k+2),  S0: -w^2 sum w^k P_(k+2) / (k+2),
    over k = 0..K; ``wlattice.latsum_truncation_bound`` bounds the rest.
    The near lambda, inside those shells, keep their pair terms, written
    without cancellation as
    S2: 2 w (3 - u) / (lambda^2 - w)^2,
    S3: -2 z (w + 3 lambda^2) / (lambda^2 - w)^3,
    S1: -2 z w t^2 / (lambda^2 - w),
    S0: the real 1/2 log1p(|u|^2 - 2 Re u) + Re u and the imaginary
    atan2(-Im u, 1 - Re u) + Im u (numpy's complex log1p loses the
    small-u digits).  The S0 pair is the sum of the two logarithms when
    |z| < |lambda|, and has the same exponential always.  So the result
    is still the primed box-M sum, with the far part cut after K terms.
    P4..P10 are 2 P_2..2 P_5 over every shell.

    The near terms of a block of points fill four work arrays, one per sum,
    of at most ``_LATSUM_ENTRIES`` point-lambda entries each, and each
    point's near terms are summed in sequence over its own near lambda, so a
    point's sums are the same floats however the points are grouped.
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    lam2 = _half_box(complex(w1), complex(w2), M)
    lam2 *= lam2
    # |lambda|^2 lies in [2^(shell-1), 2^shell); numpy's stable sort of int16
    # keys is a radix sort
    shell = np.frexp(np.abs(lam2))[1].astype(np.int16)
    order = np.argsort(shell, kind="stable")
    lam2, shell = lam2[order], shell[order]
    keys, first = np.unique(shell, return_index=True)
    il2 = 1.0 / lam2
    table = _shell_sums(il2, first)
    partials = tuple(2.0 * table[0, :4])
    w = zs * zs
    # the first far shell of each point: |lambda|^2 >= 2^(e + gap) > 2^gap |w|
    far = np.searchsorted(keys, np.frexp(np.abs(w))[1] + _LATSUM_GAP + 1)
    count = np.append(first, len(lam2))[far]  # near lambda: a prefix of the shells
    nz = len(zs)
    coeffs = _far_coeffs()
    nmax = int(count.max(initial=0))
    # a point holds nmax entries in each near work array, coeffs.size in the far product
    block = max(1, _LATSUM_ENTRIES // max(nmax, coeffs.size))
    sums = np.empty((4, nz), dtype=np.complex128)
    # one set of work arrays per call: temporaries of this size would each be
    # a fresh mmap (and its page faults) under glibc's default threshold
    shape = (min(block, nz), nmax)
    terms = np.empty((4,) + shape, dtype=np.complex128)  # S2, S1, S3, S0
    for b in range(0, nz, block):
        z, wb, cnt = zs[b:b + block], w[b:b + block], count[b:b + block]
        n = len(z)
        # far part: w^k times the point's far shell sums, per series
        wk = np.empty((n, _LATSUM_TERMS + 1), dtype=np.complex128)
        wk[:, 0] = 1.0
        wk[:, 1:] = wb[:, None]
        np.cumprod(wk, axis=1, out=wk)
        wk *= table[far[b:b + block]]
        f2, f3, f1, f0 = np.sum(wk[:, None, :] * coeffs, axis=2).T
        # near part: each point's own lambda are the first cnt of the block's nb
        nb = int(cnt.max())
        lam2b, il2b = lam2[:nb], il2[:nb]
        wc = wb[:, None]
        t_ = terms[:, :n, :nb]
        t2, t1, t3, t0 = t_
        np.multiply(wc, il2b, out=t2)  # u
        ur, ui, x, y = t2.real, t2.imag, t0.real, t0.imag
        np.multiply(ur, ur, out=x)
        x += np.multiply(ui, ui, out=y)
        x -= np.multiply(2.0, ur, out=y)
        np.log1p(x, out=x)
        x *= 0.5
        x += ur
        np.subtract(1.0, ur, out=y)
        np.arctan2(ui, y, out=y)  # atan2(-Im u, 1 - Re u) = -y
        np.subtract(ui, y, out=y)
        np.divide(1.0, np.subtract(lam2b, wc, out=t1), out=t1)  # (lambda^2 - w)^-1
        np.multiply(3.0, lam2b, out=t3)
        t3 += wc
        t3 *= t1
        t3 *= t1
        t3 *= t1
        np.subtract(3.0, t2, out=t2)
        t2 *= t1
        t2 *= t1
        t1 *= il2b
        np.cumsum(t_, axis=2, out=t_)
        s2, s1, s3, s0 = _picked(t_, cnt)
        sums[0, b:b + n] = 2.0 * wb * (s2 + f2)
        sums[1, b:b + n] = -2.0 * z * (s3 + f3)
        sums[2, b:b + n] = -2.0 * z * wb * (s1 + f1)
        sums[3, b:b + n] = s0 - wb * wb * f0
    return sums[0], sums[1], sums[2], sums[3], partials


def panel_transport(first, suffix, phi, Q, wts, tail, sizes):
    """Iterated integrals of all table words over a row of quadrature panels,
    each with an error estimate taken from the same evaluation.

    first/suffix encode the word table: word i+1 has first letter
    ``first[i]`` and its length-minus-one suffix at table index ``suffix[i]``
    (index 0 is the empty word).  The table lists the words by length, the
    ``sizes[l-1]`` words of length l in one block, so every suffix of a block
    lies in the block before it.  phi[k, p*d + j] is the pulled-back letter
    k at node j of panel p (d = ``Q.shape[0]``), already multiplied by the
    parametrization derivative and panel jacobian; the P panels lie one
    after another along axis 1.  Q is the node-to-node cumulative
    integration matrix, wts the full-panel weights and tail the real (2d, 4)
    matrix that takes a row of node values, viewed as (re, im) pairs, to the
    (re, im) pairs of twice their last two Legendre coefficients.  Returns
    (values, errors), two (P, words) arrays: every panel's value and error
    estimate for every word.

    A word's node values are phi[first] times its suffix's cumulative
    integral; one product per block of words gives the panel values (with
    wts), the tail coefficients (with tail) and the cumulative integrals the
    next length needs (with Q).  The product runs over (words x panels,
    nodes), so all panels share one pass, and a block holds about
    ``_BLOCK_ENTRIES`` word-node entries.

    The estimate of a word w = a v with node values g = phi_a V_v is

        E(w) = 2 (|c_(d-2)| + |c_(d-1)|) + L1(a) E(v),  L1(a) = sum_j |w_j phi_a(t_j)|,

    with E(empty) = 0: the last two Legendre coefficients of g measure how
    far the d-node rule is from resolving it (Trefethen, ATAP ch. 8 and
    19), and E(v), also the error of v's cumulative integral at every node,
    moves the integral by at most L1(a) E(v).
    """
    n = phi.shape[0]
    d = Q.shape[0]
    P = phi.shape[1] // d
    W = len(first)
    phi = np.asarray(phi, dtype=np.complex128).reshape(n, P, d)
    QT = np.ascontiguousarray(np.transpose(Q), dtype=np.complex128)
    wts = np.asarray(wts, dtype=np.complex128)
    # L1 of each word's first letter: sum_j |w_j phi_a(t_j)|, per panel
    l1 = np.abs(phi * wts).sum(axis=2).take(first, axis=0)
    block = max(1, _BLOCK_ENTRIES // (P * d))
    out = np.empty((W + 1, P), dtype=np.complex128)
    out[0] = 1.0
    err = np.empty((W + 1, P))
    err[0] = 0.0
    V = None  # the one-letter words' suffix is the empty word, integral 1
    prev, lo = 0, 1
    for size in sizes:
        hi = lo + size
        longest = hi > W  # no word's suffix: needs no cumulative integral
        Vnext = None if longest else np.empty((size, P, d), dtype=np.complex128)
        b = lo
        while b < hi:
            # Rounding: numpy takes a one-row product as a dot or
            # matrix-vector product, not as a row of a matrix product.  So no
            # block is a lone word of a longer level, and a one-word level
            # keeps one row per panel: every panel's row comes out as the
            # same floats as a call for that panel alone.
            e = hi if hi - b <= block + 1 else b + block
            G = phi.take(first[b - 1:e - 1], axis=0)
            if V is not None:
                G *= V.take(suffix[b - 1:e - 1] - prev, axis=0)
            G = G.reshape(P, 1, d) if size == 1 else G.reshape(-1, d)
            out[b:e] = (G @ wts).reshape(e - b, P)
            c = np.abs((G.view(np.float64) @ tail).view(np.complex128))
            np.add(c[..., 0], c[..., 1], out=err[b:e].reshape(c.shape[:-1]))
            if not longest:
                Vnext[b - lo:e - lo] = (G @ QT).reshape(e - b, P, d)
            b = e
        if V is not None:
            err[lo:hi] += l1[lo - 1:hi - 1] * err.take(suffix[lo - 1:hi - 1], axis=0)
        V, prev, lo = Vnext, lo, hi
    return np.ascontiguousarray(out.T), np.ascontiguousarray(err.T)
