"""Hot numerical kernels: direct lattice sums and panel transport.

One numpy implementation per kernel.  ``eis_sum`` walks the index box in
blocks of ``_ROW_BLOCK`` rows.  ``latsum_eval`` walks half the index box:
each lambda is paired with -lambda in one pair term written without
cancellation, for a block of points at a time of at most
``_LATSUM_ENTRIES`` point-lambda entries; what the box leaves out is bounded
by ``wlattice.latsum_truncation_bound``.  The panel kernel builds the word
series one word length at a time for a whole row of panels, in blocks of at
most ``_BLOCK_ENTRIES`` word-node entries; a length may hold any number of
words, as long as their suffixes are in the length below.
"""

import numpy as np

_ROW_BLOCK = 32
_BLOCK_ENTRIES = 1 << 13  # word-node entries per panel-kernel product (128 KiB)
_LATSUM_ENTRIES = 1 << 14  # point-lambda entries per lattice-sum work array (256 KiB)


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


def latsum_eval(zs, w1, w2, M):
    """Primed lattice sums (S2, S3, S1, S0) at each z, and (P4, P6, P8, P10).

    Over the index box M minus the origin, with t = lambda^-1:
    S2 = sum (z-lambda)^-2 - t^2, S3 = sum (z-lambda)^-3,
    S1 = sum (z-lambda)^-1 + t + z t^2,
    S0 = sum log(1 - z t) + z t + z^2 t^2 / 2, and P_k = sum t^k.
    Each lambda is taken together with -lambda, so the sums run over the
    half box with pair terms free of cancellation (w = z^2, u = w t^2):
    S2: 2 w (3 lambda^2 - w) t^2 / (lambda^2 - w)^2,
    S3: -2 z (w + 3 lambda^2) / (lambda^2 - w)^3,
    S1: -2 z w t^2 / (lambda^2 - w),
    S0: log1p(-u) + u, as the real 1/2 log1p(|u|^2 - 2 Re u) + Re u and
    the imaginary atan2(-Im u, 1 - Re u) + Im u (numpy's complex log1p
    loses the small-u digits).  The S0 pair is the sum of the two
    logarithms when |z| < |lambda|, and has the same exponential always.
    The factors of z are taken out of the sums.

    The points are evaluated in blocks of at most ``_LATSUM_ENTRIES``
    point-lambda entries; each row of a block is summed on its own, so a
    point's sums are the same floats however the points are grouped.
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    lam = _half_box(complex(w1), complex(w2), M)
    lam2 = lam * lam
    il2 = 1.0 / lam2
    three_lam2 = 3.0 * lam2
    partials = tuple(2.0 * np.sum(il2 ** j) for j in (2, 3, 4, 5))
    nz, nl = len(zs), len(lam)
    sums = np.empty((4, nz), dtype=np.complex128)
    block = max(1, _LATSUM_ENTRIES // nl)
    # one set of work arrays per call: temporaries of this size would each be
    # a fresh mmap (and its page faults) under glibc's default threshold
    shape = (min(block, nz), nl)
    d, e, t = (np.empty(shape, dtype=np.complex128) for _ in range(3))
    x, y = np.empty(shape), np.empty(shape)
    for b in range(0, nz, block):
        z = zs[b:b + block]
        w = z * z
        wc = w[:, None]
        n = len(z)
        d_, e_, t_, x_, y_ = d[:n], e[:n], t[:n], x[:n], y[:n]
        np.divide(1.0, np.subtract(lam2, wc, out=d_), out=d_)  # (lambda^2 - w)^-1
        np.multiply(il2, d_, out=e_)
        s1 = np.sum(e_, axis=1)
        np.subtract(three_lam2, wc, out=t_)
        t_ *= e_
        t_ *= d_
        s2 = np.sum(t_, axis=1)
        np.add(three_lam2, wc, out=t_)
        np.multiply(d_, d_, out=e_)
        e_ *= d_
        t_ *= e_
        s3 = np.sum(t_, axis=1)
        np.multiply(wc, il2, out=t_)  # u
        ur, ui = t_.real, t_.imag
        np.multiply(ur, ur, out=x_)
        x_ += np.multiply(ui, ui, out=y_)
        x_ -= np.multiply(2.0, ur, out=y_)
        np.log1p(x_, out=x_)
        x_ *= 0.5
        x_ += ur
        re = np.sum(x_, axis=1)
        np.subtract(1.0, ur, out=y_)
        np.arctan2(np.negative(ui, out=x_), y_, out=x_)
        x_ += ui
        im = np.sum(x_, axis=1)
        sums[0, b:b + n] = 2.0 * w * s2
        sums[1, b:b + n] = -2.0 * z * s3
        sums[2, b:b + n] = -2.0 * z * w * s1
        sums[3, b:b + n].real = re
        sums[3, b:b + n].imag = im
    return sums[0], sums[1], sums[2], sums[3], partials


def panel_transport(first, suffix, phi, Q, wts, sizes):
    """Iterated integrals of all table words over a row of quadrature panels.

    first/suffix encode the word table: word i+1 has first letter
    ``first[i]`` and its length-minus-one suffix at table index ``suffix[i]``
    (index 0 is the empty word).  The table lists the words by length, the
    ``sizes[l-1]`` words of length l in one block, so every suffix of a block
    lies in the block before it.  phi[k, p*d + j] is the pulled-back letter
    k at node j of panel p (d = ``Q.shape[0]``), already multiplied by the
    parametrization derivative and panel jacobian; the P panels lie one
    after another along axis 1.  Q is the node-to-node cumulative
    integration matrix and wts the full-panel weights.  Returns the
    (P, words) array of every panel's value for every word.

    A word's node values are phi[first] times its suffix's cumulative
    integral; one product per block of words gives both the panel values
    (with wts) and the cumulative integrals the next length needs (with Q).
    The product runs over (words x panels, nodes), so all panels share one
    pass, and a block holds about ``_BLOCK_ENTRIES`` word-node entries.
    """
    n = phi.shape[0]
    d = Q.shape[0]
    P = phi.shape[1] // d
    W = len(first)
    phi = np.asarray(phi, dtype=np.complex128).reshape(n, P, d)
    QT = np.ascontiguousarray(np.transpose(Q), dtype=np.complex128)
    wts = np.asarray(wts, dtype=np.complex128)
    block = max(1, _BLOCK_ENTRIES // (P * d))
    out = np.empty((W + 1, P), dtype=np.complex128)
    out[0] = 1.0
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
            G = phi[first[b - 1:e - 1]]
            if V is not None:
                G *= V[suffix[b - 1:e - 1] - prev]
            G = G.reshape(P, 1, d) if size == 1 else G.reshape(-1, d)
            out[b:e] = (G @ wts).reshape(e - b, P)
            if not longest:
                Vnext[b - lo:e - lo] = (G @ QT).reshape(e - b, P, d)
            b = e
        V, prev, lo = Vnext, lo, hi
    return np.ascontiguousarray(out.T)
