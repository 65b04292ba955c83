"""Hot numerical kernels: direct lattice sums and panel transport.

One numpy implementation per kernel.  The lattice sums walk the index box
in blocks of ``_ROW_BLOCK`` rows; the panel kernel builds the word series
one word length at a time for a whole row of panels, in blocks of at most
``_BLOCK_ENTRIES`` word-node entries.
"""

import numpy as np

_ROW_BLOCK = 32
_BLOCK_ENTRIES = 1 << 13  # word-node entries per panel-kernel product (128 KiB)


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


def latsum_partials(w1, w2, M):
    """Partial sums (P4, P6, P8, P10) over the truncation box."""
    w1, w2 = complex(w1), complex(w2)
    m_half = np.arange(1, M + 1)
    lam = m_half * w1
    il2 = 1.0 / (lam * lam)
    p4 = np.sum(il2 * il2)
    p6 = np.sum(il2 ** 3)
    p8 = np.sum(il2 ** 4)
    p10 = np.sum(il2 ** 5)
    m_all = np.arange(-M, M + 1)
    for n0 in range(1, M + 1, _ROW_BLOCK):
        nn = np.arange(n0, min(n0 + _ROW_BLOCK, M + 1))
        lam = m_all[None, :] * w1 + nn[:, None] * w2
        il2 = 1.0 / (lam * lam)
        p4 += np.sum(il2 * il2)
        p6 += np.sum(il2 ** 3)
        p8 += np.sum(il2 ** 4)
        p10 += np.sum(il2 ** 5)
    return 2.0 * p4, 2.0 * p6, 2.0 * p8, 2.0 * p10


def latsum_eval(zs, w1, w2, M):
    """Primed lattice sums (S2, S3, S1, S0) at each z; see the oracle layer."""
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    w1, w2 = complex(w1), complex(w2)
    m_all = np.arange(-M, M + 1)
    mm, nn = np.meshgrid(m_all, m_all, indexing="ij")
    sel = (mm != 0) | (nn != 0)
    lam = (mm[sel] * w1 + nn[sel] * w2).ravel()
    il = 1.0 / lam
    il2 = il * il
    nz = len(zs)
    s2 = np.empty(nz, dtype=complex)
    s3 = np.empty(nz, dtype=complex)
    s1 = np.empty(nz, dtype=complex)
    s0 = np.empty(nz, dtype=complex)
    # one set of work arrays per call: temporaries of this size would each be
    # a fresh mmap (and its page faults) under glibc's default threshold
    d, d2, t = np.empty_like(lam), np.empty_like(lam), np.empty_like(lam)
    for i in range(nz):
        z = zs[i]
        np.divide(1.0, np.subtract(z, lam, out=d), out=d)
        np.multiply(d, d, out=d2)
        s2[i] = np.sum(np.subtract(d2, il2, out=t))
        s3[i] = np.sum(np.multiply(d2, d, out=t))
        np.add(d, il, out=t)
        t += np.multiply(z, il2, out=d2)
        s1[i] = np.sum(t)
        np.multiply(z, il, out=d)
        np.log(np.subtract(1.0, d, out=t), out=t)
        t += d
        t += np.multiply(0.5 * z * z, il2, out=d2)
        s0[i] = np.sum(t)
    return s2, s3, s1, s0


def panel_transport(first, suffix, phi, Q, wts):
    """Iterated integrals of all table words over a row of quadrature panels.

    first/suffix encode the word table: word i+1 has first letter
    ``first[i]`` and its length-minus-one suffix at table index ``suffix[i]``
    (index 0 is the empty word).  The table lists the words by length, the
    n**l words of length l in one block (n = ``phi.shape[0]``), so every
    suffix of a block lies in the block before it.  phi[k, p*d + j] is the
    pulled-back letter k at node j of panel p (d = ``Q.shape[0]``), already
    multiplied by the parametrization derivative and panel jacobian; the P
    panels lie one after another along axis 1.  Q is the node-to-node
    cumulative integration matrix and wts the full-panel weights.  Returns
    the (P, words) array of every panel's value for every word.

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
    prev, lo, size = 0, 1, n
    while lo <= W:
        hi = lo + size
        longest = hi > W  # no word's suffix: needs no cumulative integral
        Vnext = None if longest else np.empty((size, P, d), dtype=np.complex128)
        b = lo
        while b < hi:
            # Rounding: numpy takes a one-row product as a dot or
            # matrix-vector product, not as a row of a matrix product.  So no
            # block is a lone word of a longer level, and a one-word level
            # (one-letter tables) keeps one row per panel: every panel's row
            # comes out as the same floats as a call for that panel alone.
            e = hi if hi - b <= block + 1 else b + block
            G = phi[first[b - 1:e - 1]]
            if V is not None:
                G *= V[suffix[b - 1:e - 1] - prev]
            G = G.reshape(P, 1, d) if size == 1 else G.reshape(-1, d)
            out[b:e] = (G @ wts).reshape(e - b, P)
            if not longest:
                Vnext[b - lo:e - lo] = (G @ QT).reshape(e - b, P, d)
            b = e
        V, prev, lo, size = Vnext, lo, hi, size * n
    return np.ascontiguousarray(out.T)
