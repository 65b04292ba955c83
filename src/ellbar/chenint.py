"""Iterated path integrals by truncated word-series transport.

Paths are piecewise smooth curves, either in C^2 (curve model: coordinates
(z, s) on the universal cover, punctures at z in the period lattice) or in
C (genus-zero model: punctures at 0 and 1).  A transport run computes every
iterated integral

    I(b1 ... bn) = int_{1 >= t1 >= ... >= tn >= 0} phi_1(t1) ... phi_n(tn)

over words of pulled-back one-form letters up to a length cutoff, with the
first letter integrated at the latest time.  Each segment is covered by
Gauss-Legendre panels; a panel contributes the word series of its local
time-ordered expansion and panels/segments combine by the splitting rule

    I_{AB}(w) = sum_{w = uv} I_B(u) I_A(v)        (B later than A)

A panel's evaluation also gives, word by word, an error estimate from the
last two Legendre coefficients of the word's integrand at the nodes
(``_kernels.panel_transport``).  An interval is accepted from that one
evaluation when the estimate, plus the panel's own rounding (u times its
largest value), fits the error budget; otherwise the splitting rule is the
accuracy test: the interval's panel against its composed halves, bisecting
adaptively until the discrepancy plus that rounding fits.  The bisection is
level-synchronous over all the segments of a path at once: every panel of
a depth, in any segment, is evaluated in one batch, one letter evaluation
and one panel-kernel call for all of them (the kernel takes the panels side
by side), and the halves are composed together, as many at a time as keep
the temporaries in cache.  Once the bisection ends, each segment's accepted
panels are folded once, in t order and in its tree's shape, so the floats
are those of depth-first recursion over each segment alone.

Each series carries an error estimate per word: an interval accepted from
its one evaluation carries the kernel's estimate, one accepted from its
halves the composed halves' distance from its panel, a disk piece (below)
the proven bound of its cut series tails plus an estimate of its rounding;
every join (panels in the bisection tree, a split line's pieces, a path's
segments, the genus-zero end pieces) composes (series, error) pairs by one
rule, ``_compose_bounded``.

A curve-model line is split around each lattice point lam that it passes
closer than 1/32 of its length, shifted by (z, s) -> (z - lam, s +
eta(lam)) (``eta_lambda``), which leaves every letter unchanged
(quasi-periodicity).  Its part within half the shortest period of lam,
where each letter is a simple pole plus a power series, is a disk piece:
``ExtLattice.disk_rows`` gives the letters' series along the line, from the
sigma route's table, with bounds on their coefficients; every word's
integral from the tangential base point at lam is a sum of log^k times
power series, so the part is I(lam -> b) I(lam -> a)^-1, two evaluations
composed, with no panel.  The parts outside the disks are transported as
ordinary segments.

A word table need not hold every word up to a length: any word set closed
under taking factors (contiguous subwords) composes and transports, which is
all that one word's series needs.

The genus-zero regularized integrals run between the tangential base
points at 0 and 1.  Their end pieces, [0, 1/4] and [3/4, 1], are the same
log-power series at those points, taken by the disk pieces' recursion
(``_log_power_series``), with a proven bound on the cut tails; only the
middle piece is transported, on the factors of the word, as its two halves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import _kernels
from .barcx import words_upto
from .errors import (
    ConvergenceFailure,
    EndpointMismatch,
    GuardViolation,
    QuadratureFailure,
    UnknownSymbol,
)
from .logforms import ExtLattice, f_batch, letters as form_letters
from .wlattice import LatticeData, _cell_shift, eta_lambda, reduce_mod_lattice

__all__ = [
    "LineSeg",
    "ArcSeg",
    "PathSpec",
    "path_from_json",
    "path_to_json",
    "line_path",
    "translate_path",
    "loop_path",
    "EdaggerModel",
    "P1Model",
    "compose_paths",
    "reverse_path",
    "TransportResult",
    "chen_transport",
    "compose_series",
    "eval_bar_element",
    "eval_bar_with_result",
    "homotopy_certificate",
    "loop_pair_library",
    "surface_difference",
    "stokes_defect",
    "regularized_integral_p1",
]


# --------------------------------------------------------------------------
# path segments


@dataclass(frozen=True)
class LineSeg:
    """Straight segment in (z, s); s is carried linearly."""

    z0: complex
    z1: complex
    s0: complex = 0j
    s1: complex = 0j

    def at(self, t):
        t = np.asarray(t, dtype=float)
        z = self.z0 + t * (self.z1 - self.z0)
        s = self.s0 + t * (self.s1 - self.s0)
        dz = np.full(t.shape, self.z1 - self.z0)
        ds = np.full(t.shape, self.s1 - self.s0)
        return z, dz, s, ds

    @property
    def start(self):
        return (self.z0, self.s0)

    @property
    def speed(self):  # |dz/dt|, constant
        return abs(self.z1 - self.z0)

    @property
    def corners(self):  # points whose convex hull holds the segment
        return (self.z0, self.z1)

    @property
    def end(self):
        return (self.z1, self.s1)

    def nearest(self, p):
        """Parameters of the segment's points nearest to the points p in z."""
        ab = self.z1 - self.z0
        denom = abs(ab) ** 2
        if denom == 0.0:
            return np.zeros(np.shape(p))
        return np.clip(((p - self.z0) * np.conj(ab)).real / denom, 0.0, 1.0)

    def distance(self, p):
        """Distances from the points of the array p to the segment in z."""
        return np.abs(self.z0 + self.nearest(p) * (self.z1 - self.z0) - p)

    def reversed(self):
        return LineSeg(self.z1, self.z0, self.s1, self.s0)

    def shifted(self, dz, ds):
        return LineSeg(self.z0 + dz, self.z1 + dz, self.s0 + ds, self.s1 + ds)


@dataclass(frozen=True)
class ArcSeg:
    """Circular arc around a center; s is carried linearly in the parameter."""

    center: complex
    radius: float
    a0: float
    a1: float
    s0: complex = 0j
    s1: complex = 0j

    def at(self, t):
        t = np.asarray(t, dtype=float)
        ang = self.a0 + t * (self.a1 - self.a0)
        rot = np.exp(1j * ang)
        z = self.center + self.radius * rot
        dz = 1j * self.radius * (self.a1 - self.a0) * rot
        s = self.s0 + t * (self.s1 - self.s0)
        ds = np.full(t.shape, self.s1 - self.s0)
        return z, dz, s, ds

    @property
    def start(self):
        return (self.center + self.radius * np.exp(1j * self.a0), self.s0)

    @property
    def speed(self):  # |dz/dt|, constant
        return self.radius * abs(self.a1 - self.a0)

    @property
    def corners(self):  # the full circle's bounding square
        return tuple(self.center + self.radius * (x + 1j * y) for x in (-1, 1) for y in (-1, 1))

    @property
    def end(self):
        return (self.center + self.radius * np.exp(1j * self.a1), self.s1)

    def distance(self, p):
        """Distances from the points of the array p to the arc: to its circle
        where the angle of p lies in the arc's span, else to the nearer end."""
        v = p - self.center
        ring = np.abs(np.abs(v) - self.radius)
        span = self.a1 - self.a0
        if abs(span) >= 2 * math.pi - 1e-12:
            return ring
        sgn = 1.0 if span >= 0 else -1.0
        delta = ((np.arctan2(v.imag, v.real) - self.a0) * sgn) % (2 * math.pi)
        ends = np.minimum(np.abs(p - self.start[0]), np.abs(p - self.end[0]))
        return np.where(delta <= abs(span), ring, ends)

    def reversed(self):
        return ArcSeg(self.center, self.radius, self.a1, self.a0, self.s1, self.s0)

    def shifted(self, dz, ds):
        return ArcSeg(
            self.center + dz, self.radius, self.a0, self.a1, self.s0 + ds, self.s1 + ds
        )


def _close(p, q, scale=1.0):
    return abs(p[0] - q[0]) + abs(p[1] - q[1]) <= 1e-12 * max(1.0, scale)


@dataclass(frozen=True)
class PathSpec:
    """Ordered piecewise-smooth path; earliest segment first."""

    model: str
    segments: tuple
    deck_offset: tuple = None

    def __post_init__(self):
        if self.model not in ("edagger", "p1"):
            raise ValueError(f"unknown model {self.model!r}")
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("a path needs at least one segment")
        object.__setattr__(self, "segments", segs)
        scale = max(abs(segs[0].start[0]), 1.0)
        for a, b in zip(segs, segs[1:]):
            if not _close(a.end, b.start, scale):
                raise ValueError(
                    f"segments are discontinuous: {a.end} then {b.start}"
                )

    @property
    def start(self):
        return self.segments[0].start

    @property
    def end(self):
        return self.segments[-1].end

    def at(self, t):
        """Point (z, s) at global parameter t in [0, 1]; vectorized."""
        z, _, s, _ = self.at_with_deriv(t)
        return z, s

    def at_with_deriv(self, t):
        """(z, dz/dt, s, ds/dt) at global parameter t; derivatives are with
        respect to the global parameter (segments traversed at equal parameter
        speed)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        m = len(self.segments)
        u = np.clip(t, 0.0, 1.0) * m
        idx = np.minimum(u.astype(int), m - 1)
        frac = u - idx
        z = np.empty(t.shape, dtype=complex)
        s = np.empty(t.shape, dtype=complex)
        dz = np.empty(t.shape, dtype=complex)
        ds = np.empty(t.shape, dtype=complex)
        for j, seg in enumerate(self.segments):
            mask = idx == j
            if np.any(mask):
                zz, dzz, ss, dss = seg.at(frac[mask])
                z[mask] = zz
                s[mask] = ss
                dz[mask] = dzz * m
                ds[mask] = dss * m
        return z, dz, s, ds


def _c2(x) -> complex:
    return complex(x[0], x[1])


def _pair(c) -> list:
    c = complex(c)
    return [c.real, c.imag]


def path_from_json(text: str) -> PathSpec:
    """Parse the documented path schema (complex numbers as [re, im])."""
    payload = json.loads(text) if isinstance(text, str) else text
    model = payload["model"]
    segs = []
    for item in payload["segments"]:
        kind = item["kind"]
        if kind == "line":
            fr, to = item["from"], item["to"]
            if model == "edagger":
                if len(fr) != 4 or len(to) != 4:
                    raise ValueError("curve-model line endpoints are [re,im,re,im]")
                segs.append(LineSeg(_c2(fr[:2]), _c2(to[:2]), _c2(fr[2:]), _c2(to[2:])))
            else:
                if len(fr) != 2 or len(to) != 2:
                    raise ValueError("genus-zero line endpoints are [re,im]")
                segs.append(LineSeg(_c2(fr), _c2(to)))
        elif kind == "arc":
            a0, a1 = item["angles"]
            s0 = s1 = 0j
            if "s" in item and item["s"]:
                sv = item["s"]
                if len(sv) != 4:
                    raise ValueError("arc s-range is [re,im,re,im]")
                s0, s1 = _c2(sv[:2]), _c2(sv[2:])
            segs.append(
                ArcSeg(_c2(item["center"]), float(item["radius"]), float(a0), float(a1), s0, s1)
            )
        else:
            raise ValueError(f"unknown segment kind {kind!r}")
    return PathSpec(model=model, segments=tuple(segs))


def path_to_json(path: PathSpec) -> str:
    items = []
    for seg in path.segments:
        if isinstance(seg, LineSeg):
            if path.model == "edagger":
                items.append(
                    {
                        "kind": "line",
                        "from": _pair(seg.z0) + _pair(seg.s0),
                        "to": _pair(seg.z1) + _pair(seg.s1),
                    }
                )
            else:
                items.append({"kind": "line", "from": _pair(seg.z0), "to": _pair(seg.z1)})
        else:
            item = {
                "kind": "arc",
                "center": _pair(seg.center),
                "radius": seg.radius,
                "angles": [seg.a0, seg.a1],
            }
            if path.model == "edagger":
                item["s"] = _pair(seg.s0) + _pair(seg.s1)
            items.append(item)
    return json.dumps({"model": path.model, "segments": items}, sort_keys=True)


def line_path(model: str, z0, z1, s0=0j, s1=0j) -> PathSpec:
    return PathSpec(model=model, segments=(LineSeg(z0, z1, s0, s1),))


def translate_path(L: LatticeData, mn, z0, s0) -> PathSpec:
    """The straight translate path (z0, s0) -> (z0 + lam, s0 - eta(lam))."""
    m, n = mn
    lam = m * L.omega1 + n * L.omega2
    eta = eta_lambda(L, (m, n))
    return line_path("edagger", z0, z0 + lam, s0, s0 - eta)


def loop_path(center, radius, s0=0j, model="edagger") -> PathSpec:
    """Closed circle around a point at constant s, one turn."""
    return PathSpec(
        model=model,
        segments=(ArcSeg(center, radius, 0.0, 2 * math.pi, s0, s0),),
    )


# --------------------------------------------------------------------------
# ambient models: letters, pullbacks, punctures


class EdaggerModel:
    """Letter evaluation on the extended curve: nu = ds, w{n} = f_n dz."""

    name = "edagger"

    def __init__(self, ext: ExtLattice):
        self.ext = ext
        self.guard = ext.lattice.guard

    def letters(self):
        return form_letters(self.ext.nmax)

    def punctures(self, corners):
        """The lattice points whose indices lie within 2 of the corners'
        reduced indices: every lattice point less than two lattice spacings
        (area over longest period) from the corners' convex hull."""
        L = self.ext.lattice
        _, (m, n) = reduce_mod_lattice(L, np.asarray(corners, dtype=complex))
        ms = np.arange(m.min() - 2, m.max() + 3)
        ns = np.arange(n.min() - 2, n.max() + 3)
        return (ms[:, None] * L.omega1 + ns[None, :] * L.omega2).ravel()

    def pole_shift(self, lam):
        """(dz, ds) = (-lam, eta(lam)) for the lattice point lam: the map
        (z, s) -> (z + dz, s + ds) leaves every f_n unchanged and takes a
        point near lam to one near 0.  Formed on the reduced basis, as
        ``f_batch`` forms it (``_cell_shift``), not by ``eta_lambda``'s
        probes."""
        _, lam, H, _, _ = _cell_shift(self.ext.lattice, lam)
        return -complex(lam), -complex(H)

    def phi_rows(self, letters, z, s, dz, ds):
        rows = np.empty((len(letters), z.shape[0]), dtype=complex)
        fb = None
        for i, letter in enumerate(letters):
            if letter == "nu":
                rows[i] = ds
            elif letter == "w0":
                rows[i] = dz
            else:
                if fb is None:
                    fb = f_batch(self.ext, z, s)
                rows[i] = fb[int(letter[1:])] * dz
        return rows

    def congruence_offset(self, p, q, tol=1e-8):
        """If q = p + (lam, -eta(lam)): return (dz, ds, (m, n)); else None."""
        L = self.ext.lattice
        dz = q[0] - p[0]
        z0r, (m, n) = reduce_mod_lattice(L, dz)
        scale = max(1.0, abs(dz))
        if abs(z0r) > tol * scale:
            return None
        lam = m * L.omega1 + n * L.omega2
        eta = eta_lambda(L, (m, n))
        ds = q[1] - p[1]
        if abs(ds + eta) > tol * max(1.0, abs(ds)):
            return None
        return (lam, -eta, (m, n))


class P1Model:
    """Letters om0 = dz/z and om1 = dz/(z - 1) on C minus {0, 1}."""

    name = "p1"
    guard = 1e-12

    def letters(self):
        return ("om0", "om1")

    def punctures(self, corners):
        """0 and 1, wherever the corners lie."""
        return [0.0, 1.0]

    def phi_rows(self, letters, z, s, dz, ds):
        rows = np.empty((len(letters), z.shape[0]), dtype=complex)
        for i, letter in enumerate(letters):
            rows[i] = dz / z if letter == "om0" else dz / (z - 1.0)
        return rows


# --------------------------------------------------------------------------
# path algebra


def compose_paths(g1: PathSpec, g2: PathSpec, lattice: LatticeData = None) -> PathSpec:
    """The path "g2 first, then g1".

    g1 must start where g2 ends, either exactly or (curve model, when a
    lattice is supplied) up to a lattice translation (lam, -eta(lam)); in
    the latter case g1 is rigidly shifted onto the cover sheet of g2's
    endpoint and the applied deck offset is recorded.
    """
    if g1.model != g2.model:
        raise EndpointMismatch("cannot compose paths from different models")
    p, q = g2.end, g1.start
    scale = max(1.0, abs(p[0]))
    if _close(p, q, scale):
        return PathSpec(model=g1.model, segments=g2.segments + g1.segments)
    if g1.model == "edagger" and lattice is not None:
        model = EdaggerModel(ExtLattice(lattice, nmax=0))
        off = model.congruence_offset(q, p)
        if off is not None:
            # shift by the exact endpoint gap (a float-level lattice
            # translation) so the joined path is continuous to roundoff
            dz, ds = p[0] - q[0], p[1] - q[1]
            mn = off[2]
            shifted = tuple(seg.shifted(dz, ds) for seg in g1.segments)
            return PathSpec(
                model=g1.model, segments=g2.segments + shifted, deck_offset=mn
            )
    raise EndpointMismatch(f"g2 ends at {p} but g1 starts at {q}")


def reverse_path(g: PathSpec) -> PathSpec:
    return PathSpec(
        model=g.model,
        segments=tuple(seg.reversed() for seg in reversed(g.segments)),
    )


# --------------------------------------------------------------------------
# word tables


class WordTable:
    """A word set over a letter alphabet, closed under taking factors
    (contiguous subwords) and listed by length, with the first/suffix
    recursion arrays and the split lists used by the composition rule."""

    def __init__(self, letters, words):
        self.letters = tuple(letters)
        words = tuple(tuple(w) for w in words)
        self.words = words
        self.index = {w: i for i, w in enumerate(words)}
        lengths = [len(w) for w in words]
        if any(a > b for a, b in zip(lengths, lengths[1:])):
            raise ValueError("a word table lists its words by length")
        if any(w[:-1] not in self.index or w[1:] not in self.index for w in words[1:]):
            raise ValueError("a word table holds every factor of its words")
        self.lmax = lengths[-1]
        self.lengths = np.asarray(lengths, dtype=np.int64)
        # words per length 1..lmax, the kernel's level blocks
        self.sizes = tuple(np.bincount(self.lengths, minlength=self.lmax + 1)[1:].tolist())
        letter_idx = {a: i for i, a in enumerate(self.letters)}
        self.first = np.asarray([letter_idx[w[0]] for w in words[1:]], dtype=np.int64)
        self.suffix = np.asarray([self.index[w[1:]] for w in words[1:]], dtype=np.int64)
        # composition splits, CSR layout
        off = [0]
        su, sv = [], []
        for w in words:
            for k in range(len(w) + 1):
                su.append(self.index[w[:k]])
                sv.append(self.index[w[k:]])
            off.append(len(su))
        self.split_u = np.asarray(su, dtype=np.int64)
        self.split_v = np.asarray(sv, dtype=np.int64)
        self.split_off = np.asarray(off, dtype=np.int64)

    def antipode(self, series):
        """The series of the reversed path, I(gamma^-1; w) = (-1)^|w|
        I(gamma; rev w); the table must hold the reverse of each word, as a
        full table does."""
        return np.where(self.lengths % 2, -series[self._reversal], series[self._reversal])

    @cached_property
    def _reversal(self):
        return np.asarray([self.index[w[::-1]] for w in self.words], dtype=np.int64)


@lru_cache(maxsize=32)
def _word_table(letters, lmax) -> WordTable:
    """Every word over the letters up to length lmax, graded-lex."""
    return WordTable(letters, words_upto(letters, lmax))


@lru_cache(maxsize=128)
def _factor_table(letters, word) -> WordTable:
    """The factors of one word (itself and the empty word included), by
    length and then in the letters' order: all that composing the word's
    series needs."""
    order = {a: i for i, a in enumerate(letters)}
    factors = {word[i:j] for i in range(len(word) + 1) for j in range(i, len(word) + 1)}
    return WordTable(letters, sorted(factors, key=lambda w: (len(w), [order[a] for a in w])))


def compose_series(later, earlier, table: WordTable):
    """Series of the concatenated path from the two halves' series; for 2-D
    arrays, of each row pair, as the same floats as one row at a time."""
    prod = later.take(table.split_u, -1) * earlier.take(table.split_v, -1)
    return np.add.reduceat(prod, table.split_off[:-1], -1)


def _compose_bounded(later, earlier, table: WordTable):
    """(series, error) of the concatenated path from the halves' (series,
    error) pairs, the only place where errors combine.

    If B and A are off by at most e_B and e_A word by word, each product
    B(u) A(v) of a split w = uv is off by at most |B(u)| e_A(v) + e_B(u)
    (|A(v)| + e_A(v)), and the error of w sums these over its splits: the
    empty word keeps error 0 (both series hold 1 there), a letter gets
    e_A + e_B.  The series is ``compose_series``'s; the errors take one
    pass over the same splits.
    """
    (b, e_b), (a, e_a) = later, earlier
    u, v = table.split_u, table.split_v
    e_av = e_a.take(v, -1)
    prod = np.abs(b).take(u, -1) * e_av + e_b.take(u, -1) * (np.abs(a).take(v, -1) + e_av)
    return compose_series(b, a, table), np.add.reduceat(prod, table.split_off[:-1], -1)


# --------------------------------------------------------------------------
# Gauss-Legendre panel machinery


@lru_cache(maxsize=8)
def _ref_quad(order):
    """Reference nodes/weights, the node-to-node cumulative matrix and the
    tail projection.

    The cumulative matrix integrates the interpolating polynomial from -1 to
    each node: values -> Legendre coefficients (discrete orthogonality,
    exact at this order) -> antiderivative evaluated at the nodes.  The tail
    projection takes node values to twice the interpolant's last two
    Legendre coefficients, as a real (2 order, 4) matrix acting on the
    values viewed as (re, im) pairs: half the work of a complex product.
    The weights and the cumulative matrix come complex, the matrix in
    Fortran order; these are the layouts ``_kernels.panel_transport`` works
    in, so a panel copies none of them.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    P = np.zeros((order + 1, order))
    P[0] = 1.0
    P[1] = x
    for m in range(1, order):
        P[m + 1] = ((2 * m + 1) * x * P[m] - m * P[m - 1]) / (m + 1)
    norms = 2.0 / (2 * np.arange(order) + 1)
    proj = (P[:order] * w) / norms[:, None]
    anti = np.zeros((order, order))
    anti[:, 0] = x + 1.0
    for m in range(1, order):
        anti[:, m] = (P[m + 1] - P[m - 1]) / (2 * m + 1)
    QT = np.ascontiguousarray((anti @ proj).T, dtype=np.complex128)
    tail = np.zeros((order, 2, 2, 2))
    tail[:, 0, :, 0] = tail[:, 1, :, 1] = 2.0 * proj[-2:].T
    return x, w.astype(np.complex128), QT.T, tail.reshape(2 * order, 4)


# Gauss-Legendre nodes per transport panel
_ORDER = 24

# Open intervals advanced in one batch: their halves' panels hold at most
# _BATCH_ENTRIES word-node entries (about 14 intervals at the 1555-word
# table), and never more than _BATCH_INTERVALS intervals, which bounds the
# letter evaluation of a small table.  Wider depths are split, leftmost part
# first, which keeps the first failure where a depth-first bisection would
# meet it.
_BATCH_ENTRIES = 1 << 20
_BATCH_INTERVALS = 256

# The intervals of a batch are composed in blocks of at most
# _COMPOSE_ENTRIES split products, which keeps the temporaries in cache: a
# block of the 1555-word table is one interval, one of a steep line's table
# a whole batch.
_COMPOSE_ENTRIES = 1 << 13

# A curve-model line whose closest approach to a puncture is below this
# fraction of its length is split there.  The benchmark's steep lines lie
# below 0.0125, its translate and library paths above 0.07.
_SPLIT_RATIO = 1 / 32

# Unit roundoff: a panel's values carry rounding of about this much relative
# to their largest entry, which no bisection removes.
_U = 2.0 ** -53

# The letters of a disk piece carry rounding of a few u relative (the table
# B, eta(lam), and f_n's sum over j, which cancels for n near nmax), and a
# word compounds it once per letter: its error counts this many u per
# letter times the magnitudes its sums add.  Against mpmath on lines in the
# disk (curves (2,3), (5,2), (1,-3), nmax 6, clearances 1e-2 to 1e-5) the
# letters are off by up to 6.8 and the words w_n w_n by up to 3.4 u per
# letter times those magnitudes.
_DISK_ROUNDING = 8


# --------------------------------------------------------------------------
# log-power series at a tangential base point: disk pieces and the genus-zero
# ends
#
# In a coordinate x in which each letter is r / x plus a power series in x,
# per dx, the iterated integral of a word w = a.v from the tangential base
# point at x = 0 (tangent 1) is I_w(x) = sum_k log^k(x) / k! sum_p c[k, p]
# x^p (Borwein, Bradley, Broadhurst and Lisonek, arXiv:math/9910045), and
# prepending a multiplies by the letter and integrates: for p >= 1
#
#     int_0^x y^(p-1) log^j(y) / j! dy = x^p sum_i (-1)^i log^(j-i)(x) / (j-i)! / p^(i+1),
#
# and log^(j+1)(x) / (j+1)! for p = 0.  Powers past D are dropped.  The
# letters' coefficients obey |phi_p| <= M rho^-p, so with q = X / rho, X the
# largest |x| at which the series are evaluated, a bound T[k] >= sum_(p>D)
# |c[k, p]| X^p on what was dropped takes the steps: the integrand's dropped
# part is at most H[j] = |r| T_v[j] + M X / (1 - q) (T_v[j] + sum_(p<=D)
# |c_v[j, p]| X^p q^(D-p)), and integrating sends H[j] to T[j - i] with the
# factor (D+1)^-(i+1).
#
# A disk piece is a split line near a lattice point lam: in lam's cell, x =
# (z - lam) / t, t a power of 2 near the shortest period, with the letters'
# rows and their bounds M at the radii rho from ExtLattice.disk_rows.  The
# genus-zero ends take x = z at 0 (see _DELTA).


def _log_power_series(table, phi, M, X, q, D):
    """(c, T): c[k, w, p] the coefficient of log^k(x) / k! x^p, p <= D, of
    every word's integral from the tangential base point at 0, and T[k, w]
    the bound on what its cut tail moves at |x| <= X (see above), for the
    letters' coefficients phi and bounds M at the radius X / q; one pass
    per word length.

    With the integrand's coefficients d (of log^j(y) / j! y^(p-1)), the
    integration step above is c[k, p] = (d[k, p] - c[k+1, p]) / p for
    p >= 1 and c[k+1, 0] = d[k, 0]; and T[k] = (H[k] + T[k+1]) / (D+1)."""
    A, W = len(table.letters), len(table.words)
    c = np.zeros((table.lmax + 1, W, D + 1), dtype=complex)
    T = np.zeros((table.lmax + 1, W))
    c[0, 0, 0] = 1.0
    # Phi[k, a, p] = phi_a[p - k] (0 for p < k), phi_a = [r, phi_0, ...]: the
    # coefficients of y^(p-1) in (r / y + sum_i phi_i y^i) y^k, letter a's
    # product as a matrix; a view of each row after D + 1 zeros, read
    # backward in k
    padded = np.zeros((A, 2 * D + 2), dtype=complex)
    padded[:, D + 1:] = phi
    s0, s1 = padded.strides
    Phi = np.ndarray((D + 1, A, D + 1), complex, padded, (D + 1) * s1, (-s1, s0, s1)).reshape(D + 1, -1)
    r = np.abs(phi[:, 0])
    MX = M * X / (1 - q)
    wq = X ** np.arange(D + 1) * q ** np.arange(D, -1, -1)
    inv = 1.0 / np.arange(1, D + 1)
    lo, hi = 0, 1
    for n, size in enumerate(table.sizes, 1):
        first, suffix = table.first[hi - 1:hi - 1 + size], table.suffix[hi - 1:hi - 1 + size] - lo
        cv, Tv = c[:n, lo:hi], T[:n, lo:hi]
        H = r[first] * Tv[:, suffix] + MX[first] * (Tv + np.abs(cv) @ wq)[:, suffix]
        d = (cv.reshape(-1, D + 1) @ Phi).reshape(n, hi - lo, A, D + 1)[:, suffix, first]
        lo, hi = hi, hi + size
        c[1:n + 1, lo:hi, 0] = d[:, :, 0]
        for k in range(n - 1, -1, -1):
            c[k, lo:hi, 1:] = (d[k, :, 1:] - c[k + 1, lo:hi, 1:]) * inv
            T[k, lo:hi] = (H[k] + T[k + 1, lo:hi]) / (D + 1)
    return c, T


def _log_power_at(c, T, x, logs):
    """(values, bounds) of every word at the points x from its log-power
    series (c, T) of ``_log_power_series``: sum_k logs[k] sum_p c[k, w, p]
    x^p and sum_k |logs[k]| T[k, w], one column per point, with logs[k, i] =
    log^k(x_i) / k! on the branch taken at x_i."""
    D = c.shape[-1] - 1
    vals = c.reshape(-1, D + 1) @ (x ** np.arange(D + 1)[:, None])
    vals = (vals.reshape(len(logs), -1, len(x)) * logs[:, None]).sum(axis=0)
    return vals, T.T @ np.abs(logs)


def _disk_degree(M, X, rho, target, length=1):
    """(D, i): the smallest degree D whose letter-level bound L q^D, L = M X
    / (1 - q) and q = X / rho_i, meets ``target`` at the radius rho_i that
    needs the fewest, M the letters' bounds there; with ``length`` n > 1,
    that of L max(1, L)^(n-1) q^D, about what a word of n letters makes of
    it.  D is not clipped to the Laurent table."""
    q = X / rho
    lead = np.maximum(M.max(axis=0) * X / (1 - q), 1e-300)  # 0 for nu alone at constant s
    degrees = np.ceil(np.log(target / (lead * np.maximum(1, lead) ** (length - 1))) / np.log(q))
    i = int(np.argmin(degrees))
    return degrees[i], i


def _disk_piece(table, phi, M, rho, xa, xb, aim, degree=None):
    """(series, bound, rounding, degree) of the line xa -> xb in x, within a
    lattice point's disk, with the letters' rows phi, of x^-1 .. x^D per
    dx, and their bounds M at the radii rho (``ExtLattice.disk_rows``):
    I(0 -> b) I(0 -> a)^-1 from the tangential base point at 0.

    The log branch at b continues the one at a along the line: log x_b =
    log x_a + Log(x_b / x_a), the line passing 0 on one side.  The degree D
    is the smallest whose letter-level bound meets aim / 10
    (``_disk_degree``); while the composed bound exceeds aim and D is below
    the rows', D grows by what the excess asks.  A given ``degree`` is
    taken as it is, at the radius that bounds it best.  ``bound`` is the
    cut tails' bound, carried through the antipode and the composition
    (``_compose_bounded``); ``rounding`` is _DISK_ROUNDING u times each
    word's length times the magnitudes its sums add: the terms of both
    ends' series, composed."""
    x = np.array([xa, xb])
    X = max(abs(xa), abs(xb))
    k = np.arange(table.lmax + 1)[:, None]
    logs = (np.log(xa) + np.array([0.0, np.log(xb / xa)])) ** k / np.cumprod(np.maximum(k, 1), axis=0)

    def at(D, i):
        c, T = _log_power_series(table, phi[:, :D + 1], M[:, i], X, X / rho[i], D)
        vals, errs = _log_power_at(c, T, x, logs)
        return (*_compose_bounded((vals[:, 1], errs[:, 1]),
                                  (table.antipode(vals[:, 0]), errs[table._reversal, 0]), table), c, T)

    if degree is None:
        target, D = aim / 10, 0
        while True:
            step, i = _disk_degree(M, X, rho, target)
            step = int(min(max(step, 2), phi.shape[1] - 2))
            if step <= D:
                break
            D = step
            series, bound, c, T = at(D, i)
            if bound.max() <= aim:
                break
            target *= aim / bound.max() / 2
    else:
        D = degree
        series, bound, c, T = at(D, int(np.argmin(M.max(axis=0) * (X / rho) ** D / (1 - X / rho))))
    mags, _ = _log_power_at(np.abs(c), T, np.abs(x), np.abs(logs))
    sums = compose_series(mags[:, 1], mags[table._reversal, 0], table)
    return series, bound, _DISK_ROUNDING * _U * table.lengths * sums, D


def _disk_span(seg, radius):
    """(t, t0, t1): the parameter t of the line's closest approach to 0 and
    the interval [t0, t1] of its points within ``radius`` of 0, or None if
    it has none.  An end of the line less than 1e-9 of it outside the disk
    is taken into it: the series converge well past its edge."""
    d = seg.z1 - seg.z0
    c = -(seg.z0 * np.conj(d)).real / abs(d) ** 2
    h = radius ** 2 - abs(seg.z0 + c * d) ** 2
    if h <= 0:
        return None
    half = math.sqrt(h) / abs(d)
    t0 = 0.0 if c - half < 1e-9 else float(c - half)
    t1 = 1.0 if c + half > 1 - 1e-9 else float(c + half)
    return (0.0 if c <= 0 else min(float(c), 1.0), t0, t1) if t0 < t1 else None


def _line_point(line, u):
    """(z, s) at the parameter u of the line, its own end where u is 0 or 1."""
    if u == 0:
        return line.start
    if u == 1:
        return line.end
    return line.z0 + u * (line.z1 - line.z0), line.s0 + u * (line.s1 - line.s0)


def _disk_split(ext, letters, lmax, seg, tol):
    """(t, t0, t1, disk) of the line seg in a lattice point's cell, shifted
    so that the point is 0: the parameter t of its closest approach, the
    span [t0, t1] of its part in the disk around 0, and ``_disk_piece``'s
    arguments there: the rows, bounds and radii of ``ExtLattice.disk_rows``
    and the span's ends in x; None when it stays outside the disk.  The
    disk's radius, the rows' (0 where the lattice keeps the theta route), is
    halved while the span's bound for words up to lmax letters
    (``_disk_degree``) cannot meet a thousandth of the span's aim, tol times
    its width over 100, within the rows' degree: the letters of high order
    converge slowly near the disk's edge."""
    x0, x1, radius, rho, phi, M = ext.disk_rows(letters, seg.z0, seg.z1, seg.s0, seg.s1)
    line = LineSeg(x0, x1)
    while (span := _disk_span(line, radius)) is not None:
        _, t0, t1 = span
        xa, xb = _line_point(line, t0)[0], _line_point(line, t1)[0]
        X = max(abs(xa), abs(xb))
        if _disk_degree(M, X, rho, 1e-5 * tol * (t1 - t0), lmax)[0] <= phi.shape[1] - 2:
            return (*span, (phi, M, rho, xa, xb))
        radius /= 2
    return None


class _SegmentTransport:
    """Adaptive panel transport over a list of segments, one bisection depth
    at a time for all of them together.

    A segment is transported as pieces in t order: the whole segment from
    the root [0, 1], unless it is a line of a model with a ``pole_shift``
    (the curve model) that passes punctures closer than ``_SPLIT_RATIO``
    of its length and enters the disk of half the shortest period around
    such a puncture lam (the sigma route's disk, where the letters' Laurent
    series at lam converge; smaller for letters of high order,
    ``_disk_split``).  Then it is split: its part in each such disk is one
    disk piece in lam's cell, from the rows of those series along the line
    that ``ExtLattice.disk_rows`` gives (``_disk_piece``), and each part
    outside the disks is an ordinary piece from the root [0, 1], in the
    cell of the nearest such puncture; ``pole_shift`` takes a piece into a
    cell and leaves every letter unchanged.  Disks of distinct lattice
    points do not meet, and no panel of a split segment comes nearer to
    their points than their edges.

    An interval of an ordinary piece is accepted by one of two rules, each
    against the budget tol ((b - a) + 0.01 max(1, M)), M the largest value
    of its panel:
    - from its one evaluation, when the kernel's estimate (the panel's
      Legendre tail, carried through the word recursion) of its worst word
      plus the panel's rounding u M fits; the interval's (series, error) is
      then its panel and that estimate;
    - otherwise from its halves, evaluated at the next depth, when their
      composition's distance from its panel plus u M fits; it is then the
      composed halves and that distance, word by word.
    An interval that fails both is bisected again: each half, already
    evaluated, is checked from its own evaluation one depth down.  A disk
    piece of width w in the segment's t carries the proven bound of its
    cut series tails, its degree aimed at tol w / 100, plus an estimate of
    its rounding (``_DISK_ROUNDING``); it is accepted when that bound plus
    u M fits tol (w + 0.01 max(1, M)).

    ``npanels``, ``panels_by_depth`` (panels of each depth below a root, a
    root's own at depth 0), ``rejected`` (intervals whose halves did not
    match), ``split_at`` (the t of the closest approach to the nearest
    disk's point, or None), ``roots`` (the ordinary pieces, one root each)
    and ``disk`` ((t0, t1, degree) of each disk piece in t order, or None)
    hold one entry per segment, and ``run`` returns one (series, error) pair
    per segment: the same floats and counts as a run over that segment
    alone.  A segment closer than the model's guard to a puncture is refused
    before any is transported; the guard check and the split take one
    distance pass.
    """

    def __init__(self, model, segs, table, tol, max_depth):
        self.model = model
        self.table = table
        self.tol = tol
        self.max_depth = max_depth
        pieces = []  # (segment, (t0, t1) in its owner's t, owner)
        # per segment: its pieces in t order, ("piece", index into pieces) or
        # ("disk", index into disks)
        self.parts = []
        self.disks = []  # (segment index, t, t0, t1, *_disk_piece's arguments) of each disk piece
        self.split_at, self.roots = [], []
        for j, seg in enumerate(segs):
            pts = np.asarray(model.punctures(seg.corners))
            dist = seg.distance(pts)
            k = int(dist.argmin())
            dmin = float(dist[k])
            if dmin < model.guard:
                raise GuardViolation(
                    f"segment passes within {dmin:.3e} of a puncture "
                    f"(guard {model.guard:.3e})"
                )
            splits = []  # (t, t0, t1, disk, line in lam's cell), nearest lam first
            if (hasattr(model, "pole_shift") and isinstance(seg, LineSeg)
                    and dmin < _SPLIT_RATIO * seg.speed):
                near = np.flatnonzero(dist < _SPLIT_RATIO * seg.speed).tolist()
                for i in sorted(near, key=dist.__getitem__):
                    shifted = seg.shifted(*model.pole_shift(pts[i]))
                    split = _disk_split(model.ext, table.letters, table.lmax, shifted, tol)
                    if split is not None:
                        splits.append((*split, shifted))
            if not splits:
                self.split_at.append(None)
                self.parts.append([("piece", len(pieces))])
                pieces.append((seg, (0.0, 1.0), j))
                self.roots.append(1)
                continue
            # the ordinary pieces run in the nearest lattice point's cell, each
            # disk piece in its own point's; disks of distinct lattice points
            # are disjoint (radius at most half the shortest period)
            self.split_at.append(splits[0][0])
            self.parts.append([])
            base = splits[0][-1]
            done, start = 0.0, base.start
            for t, t0, t1, disk, _ in sorted(splits, key=lambda split: split[1]):
                if t0 > done:
                    self.parts[j].append(("piece", len(pieces)))
                    end = _line_point(base, t0)
                    pieces.append((LineSeg(start[0], end[0], start[1], end[1]), (done, t0), j))
                self.parts[j].append(("disk", len(self.disks)))
                self.disks.append((j, t, t0, t1, *disk))
                done, start = t1, _line_point(base, t1)
            if done < 1:
                self.parts[j].append(("piece", len(pieces)))
                pieces.append((LineSeg(start[0], base.z1, start[1], base.s1), (done, 1.0), j))
            self.roots.append(sum(kind == "piece" for kind, _ in self.parts[j]))
        self.disk = [None] * len(segs)  # filled by _disk_pieces
        self.segs = tuple(piece[0] for piece in pieces)
        self.span = tuple(piece[1] for piece in pieces)
        self.owner = np.asarray([piece[2] for piece in pieces], dtype=np.int64)
        self.x, self.w, self.Q, self.tail = _ref_quad(_ORDER)
        m = len(segs)
        self.npanels = [0] * m
        self.panels_by_depth = [[] for _ in range(m)]
        self.rejected = [0] * m
        self.cap = max(1, min(_BATCH_INTERVALS, _BATCH_ENTRIES // (2 * _ORDER * len(table.words))))
        self.block = max(1, _COMPOSE_ENTRIES // len(table.split_u))

    def panels(self, seg, t0, t1, depth):
        """(series, estimates) of the panels [t0[i], t1[i]] of piece seg[i]
        at ``depth``, one row each, seg ascending: one letter evaluation and
        one kernel call for all of them."""
        d = len(self.x)
        jac = 0.5 * (t1 - t0)
        nodes = (t0[:, None] + (self.x + 1.0) * jac[:, None]).ravel()
        jac = np.repeat(jac, d)
        cuts = (np.flatnonzero(np.diff(seg)) + 1).tolist()
        parts = []
        for a, b in zip([0] + cuts, cuts + [len(seg)]):
            self.npanels[self.owner[seg[a]]] += b - a
            parts.append(self.segs[seg[a]].at(nodes[a * d:b * d]))
        for j, n in enumerate(np.bincount(self.owner[seg]).tolist()):
            if n:
                by_depth = self.panels_by_depth[j]
                by_depth += [0] * (depth + 1 - len(by_depth))
                by_depth[depth] += n
        z, dz, s, ds = (np.concatenate(c) for c in zip(*parts))
        phi = self.model.phi_rows(self.table.letters, z, s, dz * jac, ds * jac)
        return _kernels.panel_transport(
            self.table.first, self.table.suffix, phi, self.Q, self.w, self.tail, self.table.sizes
        )

    def _budget(self, a, b, top):
        """The error budget of the intervals [a, b] whose panels' largest
        values are ``top``: per unit parameter, plus a tolerance-proportional
        allowance for roundoff in the panel's own values (keeps deep
        bisection near steep-but-legal regions from chasing noise).  The
        panel's own rounding, u times its largest value, must fit in it too,
        so tolerances below double precision fail as they should."""
        return self.tol * ((b - a) + 0.01 * np.maximum(1.0, top))

    def _open(self, stack, depth, p, a, b, evaluated, leaves):
        """Check the evaluated intervals [a, b] of pieces p at ``depth`` from
        their own evaluation: the accepted become leaves (panel, estimate),
        the rest a group on the stack, whose halves the next batch
        evaluates."""
        vals, est = evaluated
        top = np.abs(vals).max(axis=1)
        ok = est.max(axis=1) + _U * top <= self._budget(a, b, top)
        for q, t0, t1, value, e in zip(p[ok].tolist(), a[ok].tolist(), b[ok].tolist(),
                                       vals[ok], est[ok]):
            leaves[q].append((t0, t1, (value, e)))
        if not ok.all():
            stack.append((depth, p[~ok], a[~ok], b[~ok], vals[~ok]))

    def _disk_pieces(self):
        """(series, error) of every disk piece, in the order of ``disks``,
        the error its tails' bound plus its rounding estimate: each checked
        against its budget, as a panel is (its bound in place of the panel's
        estimate), before any panel is evaluated."""
        out, spans = [], {}
        for j, t, t0, t1, *disk in self.disks:
            series, bound, own, D = _disk_piece(self.table, *disk, 0.01 * self.tol * (t1 - t0))
            top = float(np.abs(series).max())
            worst, rounding = float(bound.max()), _U * top
            budget = self._budget(t0, t1, top)
            if worst + rounding > budget:
                raise QuadratureFailure(
                    f"segment {j}: disk [{t0:.6f}, {t1:.6f}] around its split at "
                    f"{t:.6f} bounded by {worst:.3e} with rounding "
                    f"{rounding:.3e} (budget {budget:.3e}) at degree {D}"
                )
            spans.setdefault(j, []).append((t0, t1, D))
            out.append((series, bound + own))
        self.disk = [tuple(spans[j]) if j in spans else None for j in range(len(self.split_at))]
        return out

    def run(self):
        """(series, error) of every segment.

        The disk pieces come first (``_disk_pieces``).  The roots of the
        ordinary pieces are evaluated in one batch and checked from their
        one evaluation (``_open``).  Every interval open at a depth, in any
        piece, has its halves evaluated in one batch, and the batch's halves
        are composed in blocks of ``_COMPOSE_ENTRIES`` and matched against
        the intervals' panels; the halves of an interval that fails are
        checked from their own evaluation and, failing that, open at the
        next depth.  Intervals are ordered by (piece, t), so by segment and
        within a split segment in t order; a failure is the first in that
        order, named in the segment's own t (``failure``).  Once the
        bisection ends, each piece's accepted intervals are folded in t
        order (``_fold_leaves``), so values, errors and panel counts are
        those of depth-first recursion from each root of each piece alone;
        the pieces of a split segment are joined in t order, errors too
        (``_compose_bounded``).
        """
        table = self.table
        W = len(table.words)
        disks = self._disk_pieces()
        leaves = [[] for _ in self.segs]  # (t0, t1, (series, err)) of accepted intervals
        # groups (depth, piece, t0, t1, whole panels, or None for roots not
        # yet evaluated)
        n = len(self.segs)
        stack = [(0, np.arange(n), np.zeros(n), np.ones(n), None)] if n else []
        while stack:
            depth, p, a, b, whole = stack.pop()
            if len(p) > self.cap:
                c = self.cap
                rest = None if whole is None else whole[c:]
                head = None if whole is None else whole[:c]
                stack += [(depth, p[c:], a[c:], b[c:], rest), (depth, p[:c], a[:c], b[:c], head)]
                continue
            if whole is None:
                self._open(stack, depth, p, a, b, self.panels(p, a, b, depth), leaves)
                continue
            mid = 0.5 * (a + b)
            seg = p.repeat(2)
            lo = np.array((a, mid)).T.ravel()
            hi = np.array((mid, b)).T.ravel()
            vals, est = self.panels(seg, lo, hi, depth + 1)
            halves = vals.reshape(len(p), 2, W)
            comp = np.concatenate([
                compose_series(halves[i:i + self.block, 1], halves[i:i + self.block, 0], table)
                for i in range(0, len(p), self.block)])
            err = np.abs(comp - whole)
            top = np.abs(whole).max(axis=1)
            budget = self._budget(a, b, top)
            worst = err.max(axis=1)
            rounding = _U * top
            ok = worst + rounding <= budget
            for q, t0, t1, value, e in zip(p[ok].tolist(), a[ok].tolist(), b[ok].tolist(),
                                           comp[ok], err[ok]):
                leaves[q].append((t0, t1, (value, e)))
            if ok.all():
                continue
            bad = (~ok).nonzero()[0]
            if depth >= self.max_depth:
                i = bad[0]
                raise self.failure(p[i], a[i], b[i], worst[i], rounding[i], budget[i], depth)
            for j in self.owner[p[bad]].tolist():
                self.rejected[j] += 1
            again = (~ok).repeat(2)  # the halves of the rejected intervals, in t order
            self._open(stack, depth + 1, seg[again], lo[again], hi[again],
                       (vals[again], est[again]), leaves)
        pairs = {"piece": [self._fold_leaves(leaf) for leaf in leaves], "disk": disks}
        out = []
        for parts in self.parts:
            pair = None
            for kind, i in parts:
                later = pairs[kind][i]
                pair = later if pair is None else _compose_bounded(later, pair, table)
            out.append(pair)
        return out

    def failure(self, q, a, b, worst, rounding, budget, depth):
        """The QuadratureFailure of piece q's interval [a, b], which names
        the interval in its segment's own t, and the segment's disks."""
        j = int(self.owner[q])
        where = f"segment {j}"
        ts = [f"{disk[1]:.6f}" for disk in self.disks if disk[0] == j]
        if len(ts) == 1:
            where += f", outside the disk around its split at {ts[0]}"
        elif ts:
            where += f", outside the disks around its splits at {', '.join(ts)}"
        t0, t1 = self.span[q]
        lo, hi = t0 + (t1 - t0) * a, t0 + (t1 - t0) * b
        return QuadratureFailure(
            f"{where}: panel [{lo:.6f}, {hi:.6f}] still off by {worst:.3e} "
            f"with rounding {rounding:.3e} (budget {budget:.3e}) at depth {depth}"
        )

    def _fold_leaves(self, leaves):
        """A piece's (series, error), folded from its accepted intervals' in
        t order.

        A leaf or finished subtree that is a right half (t0 an odd multiple
        of its width, exact for dyadic t) is composed onto the finished
        subtree before it, its left sibling (``_compose_bounded``).  So the
        pairs compose in the bisection tree's shape, and the floats are
        those of a bottom-up fold.
        """
        done = []  # finished subtrees (t0, (series, error)), left to right
        for t0, t1, pair in sorted(leaves, key=lambda leaf: leaf[0]):
            while t0 / (t1 - t0) % 2 == 1:
                t0, left = done.pop()
                pair = _compose_bounded(pair, left, self.table)
            done.append((t0, pair))
        [(_, pair)] = done
        return pair


@dataclass(frozen=True)
class TransportResult:
    """Every iterated integral over the requested alphabet up to lmax."""

    model: str
    letters: tuple
    lmax: int
    values: dict  # word tuple -> complex
    err_by_length: dict  # word length -> largest error estimate of its words
    panels_by_segment: tuple
    panels_by_depth: tuple  # per segment: panels of each depth below a root (a root's at 0)
    rejected_bisections: tuple  # per segment: intervals whose halves did not match, bisected again
    split_at: tuple  # per segment: t of its closest approach to the nearest split puncture, or None
    roots: tuple  # per segment: intervals the bisection starts from, one per ordinary piece
    disk: tuple  # per segment: (t0, t1, series degree) of each disk piece in t order, or None

    def coeff(self, word) -> complex:
        word = tuple(word)
        if word not in self.values:
            raise KeyError(f"word {word!r} not transported")
        return self.values[word]


def chen_transport(
    model,
    path: PathSpec,
    letters=None,
    lmax: int = 3,
    tol: float = 1e-10,
    max_depth: int = 14,
) -> TransportResult:
    """All iterated integrals of the letter alphabet along the path.

    Words are filled to length lmax over the given letters (default: the
    model's full alphabet); a letter outside the model's alphabet raises
    UnknownSymbol before any work.  Panels are 24-node Gauss-Legendre.  A
    panel [a, b] of a segment's parameter (or of a split line's piece), with
    largest value M, is accepted by one of two rules, each when its error
    plus the panel's own rounding, u = 2^-53 times M, is at most
    tol * ((b - a) + 0.01 max(1, M)):
    - from its one evaluation, the error being the kernel's estimate of
      the worst word: twice its integrand's last two Legendre coefficients
      plus what its suffix's estimate moves; the panel and that estimate
      are then the interval's series and error;
    - otherwise from its halves, the error being the worst distance of
      their composition from the panel; the composed halves and that
      distance are then the interval's series and error.
    An interval that fails both is bisected again, its halves each checked
    from their own evaluation first (see ``_SegmentTransport``); an interval
    that fails both at ``max_depth`` raises QuadratureFailure.  Every
    table holds the empty word, so M >= 1, and at tol below 100u (about
    1.1e-14) no panel narrower than (u / tol - 0.01) M is accepted: at tol
    1e-14 that is about 1.1e-3 M, so bisection gains nothing beyond depth 9
    below a root.  From tol 2e-14 up the width is free.

    A curve-model line is split around each lattice point that it passes
    closer than 1/32 of its length: its part within half the shortest
    period of the lattice point is one disk piece, from the letters'
    Laurent series there, and each part outside the disks is transported
    as above (see ``_SegmentTransport``).  A disk piece's degree is aimed
    at a hundredth of tol times its width; its error is the proven bound on
    the cut tails plus an estimate of its rounding (8u per letter times the
    magnitudes its sums add), and the bound plus u M must fit tol (width +
    0.01 max(1, M)), else it raises QuadratureFailure.  So split lines
    converge at tol 1e-14, where panels near their pole could not.  A
    segment within the model's guard of a puncture raises GuardViolation.

    ``err_by_length`` is the largest composed error of each word length.  It
    is not held to tol: every accepted panel may carry an error up to its
    budget, and those budgets sum past tol over a path's panels, so a run
    that succeeds may report an error above tol (``err_est_over_tol_max``
    of the traced benchmark reads up to about 1.8; ROADMAP item 5).
    """
    if path.model != model.name:
        raise ValueError(f"path has model {path.model!r}, transport {model.name!r}")
    if lmax < 0 or lmax > 8:
        raise ValueError("lmax must lie in [0, 8]")
    alphabet = tuple(model.letters())
    letters = tuple(letters) if letters is not None else alphabet
    for letter in letters:
        if letter not in alphabet:
            raise UnknownSymbol(f"letter {letter!r} not in the model alphabet")
    table = _word_table(letters, lmax)
    st = _SegmentTransport(model, path.segments, table, tol, max_depth)
    acc, err = reduce(lambda earlier, later: _compose_bounded(later, earlier, table), st.run())
    starts = np.searchsorted(table.lengths, np.arange(lmax + 1))  # the words sorted by length
    ebl = dict(enumerate(np.maximum.reduceat(err, starts).tolist()))
    return TransportResult(
        model=model.name,
        letters=letters,
        lmax=lmax,
        values=dict(zip(table.words, acc.tolist())),
        err_by_length=ebl,
        panels_by_segment=tuple(st.npanels),
        panels_by_depth=tuple(tuple(d) for d in st.panels_by_depth),
        rejected_bisections=tuple(st.rejected),
        split_at=tuple(st.split_at),
        roots=tuple(st.roots),
        disk=tuple(st.disk),
    )


# --------------------------------------------------------------------------
# bar elements along paths


def _bar_letters(xi) -> tuple:
    seen = []
    for w in xi.terms:
        for a in w:
            if a not in seen:
                seen.append(a)
    return tuple(sorted(seen))


def eval_bar_with_result(xi, result: TransportResult) -> complex:
    out = 0j
    for w, c in xi.terms.items():
        out += complex(Fraction(c)) * result.coeff(w)
    return out


def eval_bar_element(model, xi, path: PathSpec, tol: float = 1e-10) -> complex:
    """Pair a degree-0 bar element with the path: sum of coefficient times
    iterated integral, one transport run."""
    if not xi.terms:
        return 0j
    lmax = max(len(w) for w in xi.terms)
    letters = _bar_letters(xi)
    if not letters:  # only the empty word
        return complex(sum(Fraction(c) for c in xi.terms.values()))
    res = chen_transport(model, path, letters=letters, lmax=lmax, tol=tol)
    return eval_bar_with_result(xi, res)


# --------------------------------------------------------------------------
# homotopy certificates for curated pairs


# The certificate gives up past this depth, or with more cells at one depth.
_CERT_MAX_DEPTH = 24
_CERT_MAX_CELLS = 1 << 12


def homotopy_certificate(model, g1: PathSpec, g2: PathSpec):
    """Prove that H(t, u) = (1 - u) g1(t) + u g2(t) keeps more than 10 guard
    from every puncture.

    Segments run at constant speed, so every point of a cell with centre
    c = (tc, uc) and half-width h lies within r = (L_t + |g2(tc) - g1(tc)|) h
    of H(c), L_t being the largest segment speed times its path's segment
    count.  The cells of one depth are evaluated together: a cell is
    excluded when min_p |H(c) - p| - r, less a rounding allowance, exceeds
    10 guard; a centre within 10 guard of a puncture refutes; any other cell
    splits in four.  The punctures are the model's near the corners of both
    paths' segments, whose convex hull holds the surface.

    Returns ``ok``, ``cells`` (evaluated) and ``min_distance``: if ok, a
    proven lower bound on the surface's distance to the punctures, so the
    loop g1 g2^-1 winds around none; else the distance at the nearest centre.
    """
    floor = 10 * model.guard
    corners = [c for g in (g1, g2) for seg in g.segments for c in seg.corners]
    pts = np.asarray(model.punctures(corners), dtype=complex)[:, None]
    lip = max(len(g.segments) * seg.speed for g in (g1, g2) for seg in g.segments)
    # joins are continuous to 1e-12 of the scale; rounding is far below that
    slack = 2e-12 * max(1.0, float(np.abs(pts).max()), *map(abs, corners))
    t = u = np.array([0.5])
    h, cells, lower, nearest = 0.5, 0, math.inf, math.inf
    for _ in range(_CERT_MAX_DEPTH + 1):
        cells += len(t)
        z1, z2 = g1.at(t)[0], g2.at(t)[0]
        d = np.abs((1 - u) * z1 + u * z2 - pts).min(axis=0)
        nearest = min(nearest, float(d.min()))
        bound = d - (lip + np.abs(z2 - z1)) * h - slack
        split = bound <= floor
        lower = min(lower, float(bound[~split].min(initial=math.inf)))
        if nearest <= floor or 4 * np.count_nonzero(split) > _CERT_MAX_CELLS:
            break
        if not split.any():
            return {"ok": True, "min_distance": lower, "cells": cells}
        t, u, h = t[split], u[split], 0.5 * h
        t = np.concatenate([t - h, t + h, t - h, t + h])
        u = np.concatenate([u - h, u - h, u + h, u + h])
    return {"ok": False, "min_distance": nearest, "cells": cells}


def loop_pair_library(ext: ExtLattice, s0=0.4 - 0.1j):
    """Three curated pairs of paths with matching endpoints, each pair proven
    homotopic by ``homotopy_certificate``.  Used by the homotopy contract
    tests."""
    L = ext.lattice
    w1, w2 = L.omega1, L.omega2
    z0 = 0.31 * w1 + 0.22 * w2
    pairs = []

    # 1: open wiggle, s varying on both routes
    z1 = z0 + 0.25 * w1 + 0.10 * w2
    s1 = s0 + 0.30 + 0.20j
    g1 = line_path("edagger", z0, z1, s0, s1)
    zm = z0 + 0.05 * w1 + 0.18 * w2
    sm = s0 - 0.25 + 0.10j
    g2 = PathSpec(
        model="edagger",
        segments=(LineSeg(z0, zm, s0, sm), LineSeg(zm, z1, sm, s1)),
    )
    pairs.append(("wiggle", g1, g2))

    # 2: translate path omega1 rerouted through a bulge
    eta1 = eta_lambda(L, (1, 0))
    ze, se = z0 + w1, s0 - eta1
    g1 = line_path("edagger", z0, ze, s0, se)
    zm = z0 + 0.5 * w1 + 0.15 * w2
    sm = s0 - 0.5 * eta1 + 0.20 - 0.10j
    g2 = PathSpec(
        model="edagger",
        segments=(LineSeg(z0, zm, s0, sm), LineSeg(zm, ze, sm, se)),
    )
    pairs.append(("translate-bulge", g1, g2))

    # 3: loop around the origin, circle versus octagon, s wandering
    r0 = 0.35 * min(abs(w1), abs(w2))
    start = r0 + 0j
    g1 = loop_path(0j, r0, s0=s0)
    corners = []
    for k in range(9):
        ang = 2 * math.pi * k / 8
        rad = r0 * (1.25 if k % 2 else 1.05)
        corners.append(rad * np.exp(1j * ang))
    corners[0] = corners[8] = start
    svals = [s0 + 0.15 * math.sin(math.pi * k / 8) * (1 + 0.5j) for k in range(9)]
    svals[0] = svals[8] = s0
    segs = tuple(
        LineSeg(corners[k], corners[k + 1], svals[k], svals[k + 1]) for k in range(8)
    )
    g2 = PathSpec(model="edagger", segments=segs)
    # rotate the circle to start at the same point (it already does: angle 0)
    pairs.append(("loop-octagon", g1, g2))
    return pairs


# --------------------------------------------------------------------------
# two-form surface oracle


# Gauss-Legendre nodes per surface panel, in t and in u
_STOKES_ORDER = 32


def surface_difference(ext: ExtLattice, two_form_name: str, g1: PathSpec, g2: PathSpec):
    """Integral of a two-form letter over the straight-line homotopy surface
    between the paths: the Stokes value of int_{g1} a - int_{g2} a for a
    single letter a with d(a) equal to the given two-form combination.

    Independently computed from the transport machinery (2-d quadrature of
    the dz^ds coefficient), so it can serve as the oracle for the failure
    of homotopy invariance of non-closed elements.
    """
    from .logforms import two_form_coeff

    x, w = np.polynomial.legendre.leggauss(_STOKES_ORDER)
    # t-panels aligned to both paths' segment corners so every panel sees a
    # smooth integrand
    breaks = {0.0, 1.0}
    for g in (g1, g2):
        m = len(g.segments)
        breaks.update(k / m for k in range(1, m))
    breaks = sorted(breaks)
    tnodes, twts = [], []
    for a, b in zip(breaks, breaks[1:]):
        tnodes.append(a + (x + 1.0) * 0.5 * (b - a))
        twts.append(w * 0.5 * (b - a))
    t = np.concatenate(tnodes)
    wt = np.concatenate(twts)
    z1, dt1z, s1, dt1s = g1.at_with_deriv(t)
    z2, dt2z, s2, dt2s = g2.at_with_deriv(t)
    uu = 0.5 * (x + 1.0)
    wu = 0.5 * w
    total = 0j
    for iu in range(_STOKES_ORDER):
        u = uu[iu]
        zu = (1 - u) * z1 + u * z2
        su = (1 - u) * s1 + u * s2
        z_t = (1 - u) * dt1z + u * dt2z
        s_t = (1 - u) * dt1s + u * dt2s
        z_u = z2 - z1
        s_u = s2 - s1
        F = two_form_coeff(ext, two_form_name, zu, su)
        jac = z_t * s_u - z_u * s_t
        total += wu[iu] * np.sum(wt * F * jac)
    return complex(total)


def stokes_defect(ext: ExtLattice, letter: str, g1: PathSpec, g2: PathSpec):
    """Predicted int_{g1}[a] - int_{g2}[a] for a single non-closed letter a,
    from the surface integral of its differential over the straight-line
    homotopy between the paths."""
    from .logforms import dga_presentation

    P = dga_presentation(ext.nmax)
    out = 0j
    for name, coef in P.nonzero_diff.get(letter, ()):
        out += complex(Fraction(coef)) * surface_difference(ext, name, g1, g2)
    return out


# --------------------------------------------------------------------------
# genus-zero regularized integrals


def _p1_word(word) -> tuple:
    """Accept "01", (0,1), or ("om0","om1"); return letter-name tuple."""
    if isinstance(word, str):
        if not all(ch in "01" for ch in word):
            raise ValueError(f"genus-zero word string must be over 0/1, got {word!r}")
        return tuple(f"om{ch}" for ch in word)
    out = []
    for a in word:
        if a in (0, 1):
            out.append(f"om{a}")
        elif a in ("om0", "om1"):
            out.append(a)
        elif a in ("0", "1"):
            out.append(f"om{a}")
        else:
            raise ValueError(f"unknown genus-zero letter {a!r}")
    return tuple(out)


# The end pieces are [0, _DELTA] and [1 - _DELTA, 1], each from the
# log-power series at its tangential base point (``_log_power_series``), the
# one at 1 through z -> 1 - z (``_p1_ends``).  In x = z at 0, om0 = dx / x
# is the row (1, 0, ..., 0) and om1 = dx / (x - 1) = -sum_m x^m dx the row
# (0, -1, ..., -1), so |phi_p| <= 1 at rho = 1 (M = 0 and 1), and X = q =
# _DELTA.  Cut after the power _K, the tails stay below 1e-19.
_DELTA = 0.25
_K = 32


@lru_cache(maxsize=128)
def _p1_ends(word):
    """(table, left, right): the factors of the word and of rev swap word,
    swap exchanging om0 and om1, in one table, and for each factor f of the
    word (in its factor table's order) the index of f (left) and of rev
    swap f (right) in it."""
    def mirror(w):
        return tuple("om1" if a == "om0" else "om0" for a in reversed(w))

    words = _factor_table(("om0", "om1"), word).words
    table = WordTable(("om0", "om1"), sorted({*words, *map(mirror, words)}, key=lambda w: (len(w), w)))
    left = np.asarray([table.index[f] for f in words])
    right = np.asarray([table.index[mirror(f)] for f in words])
    return table, left, right


def _p1_end(table, D=_K):
    """(values, bounds) of I(0+; f; _DELTA) for every word f of the
    genus-zero table, from the log-power series cut after the power D: the
    values and proven bounds on what the cut tails move."""
    phi = np.zeros((2, D + 1))
    phi[0, 0], phi[1, 1:] = 1.0, -1.0
    c, T = _log_power_series(table, phi, np.array([0.0, 1.0]), _DELTA, _DELTA, D)
    k = np.arange(table.lmax + 1)[:, None]
    logs = math.log(_DELTA) ** k / np.cumprod(np.maximum(k, 1), axis=0)
    values, bounds = _log_power_at(c, T, np.array([_DELTA]), logs)
    return values[:, 0], bounds[:, 0]


def regularized_integral_p1(word, tol: float = 1e-9, full: bool = False):
    """Regularized iterated integral from the tangential base at 0 to the
    tangential base at 1.

    The path is cut at delta = 1/4 and 1 - delta.  The end pieces come from
    the log-power series at each tangential base point (``_p1_end``, the
    disk pieces' recursion), for every factor (contiguous subword) of the
    word, with a proven bound on their cut tails; the middle piece is
    transported on the same factor table, as its two halves [1/4, 1/2] and
    [1/2, 3/4].  Each half is accepted from its one evaluation where the
    whole middle piece, as one panel, mostly is not (its estimate exceeds
    the budget by a few times on most words), so the middle piece takes one
    batch of two panels.  The three pieces are composed
    (``_compose_bounded``), the middle piece with error 0, so the composed
    error is a proven bound on what the series' cut tails move in the
    value; the middle piece's transport estimate is not part of it.  That
    ``tail_bound`` exceeding tol raises ConvergenceFailure.

    With ``full`` a dict is returned: the value, that ``tail_bound``, the
    middle piece's panels and rejected bisections, and the log coefficients.
    The integral from eps to 1 - eps is exp(L om1) Reg exp(-L om0) +
    O(eps log^n eps) with L = log eps, so the coefficient of L^j, j = 1 .. n,
    sums (-1)^k Reg(v) / (m! k!) over the splittings of the word as
    om1^m v om0^k with m + k = j; each is exactly 0 for admissible words
    (leading om0, trailing om1).
    """
    letters = _p1_word(word)
    if not letters:
        raise ValueError("word must be nonempty")
    table = _factor_table(("om0", "om1"), letters)
    ends, left, right = _p1_ends(letters)
    values, bounds = _p1_end(ends)
    left, e_left = values[left], bounds[left]
    # z -> 1 - z swaps the letters and reverses the path:
    # I(1 - delta; f; 1-) = (-1)^|f| I(0+; rev swap f; delta)
    right, e_right = np.where(table.lengths % 2, -values[right], values[right]), bounds[right]
    halves = [LineSeg(_DELTA, 0.5), LineSeg(0.5, 1 - _DELTA)]
    st = _SegmentTransport(P1Model(), halves, table, min(tol, 1e-11), 16)
    (first, _), (second, _) = st.run()
    mid = compose_series(second, first, table)
    # the middle piece enters with error 0: e_total bounds the cut tails' effect
    inner = _compose_bounded((mid, np.zeros(len(table.words))), (left, e_left), table)
    total, e_total = _compose_bounded((right, e_right), inner, table)
    w = table.index[letters]
    tail_bound = float(e_total[w])
    if tail_bound > tol:
        raise ConvergenceFailure(f"series tail bound {tail_bound:.3e} exceeds tol {tol:.3e}")
    value = complex(total[w])
    if not full:
        return value
    n = len(letters)
    logs = [0j] * n
    for m in range(n + 1):
        for k in range(n + 1 - m):
            if 0 < m + k and set(letters[:m]) <= {"om1"} and set(letters[n - k:]) <= {"om0"}:
                v = table.index[letters[m:n - k]]
                c = (-1) ** k / (math.factorial(m) * math.factorial(k))
                logs[m + k - 1] += c * complex(total[v])
    return {
        "value": value,
        "log_coefficients": logs,
        "tail_bound": tail_bound,
        "panels": sum(st.npanels),
        "rejected_bisections": sum(st.rejected),
    }
