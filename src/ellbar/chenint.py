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

which doubles as the accuracy test: one panel versus its composed halves,
bisecting adaptively until the discrepancy fits the error budget.  The
bisection is level-synchronous over all the segments of a path at once:
every interval still open at a depth, in any segment, is tested in one
batch, one letter evaluation and one panel-kernel call for all their halves
(the kernel takes the panels side by side).  Once the bisection ends, each
segment's accepted panels are folded once, in t order and in its tree's
shape, so the floats are those of depth-first recursion over each segment
alone.

A word table need not hold every word up to a length: any word set closed
under taking factors (contiguous subwords) composes and transports, which is
all that one word's series needs.

The genus-zero regularized integrals run between the tangential base
points at 0 and 1.  Their end pieces, [0, 1/4] and [3/4, 1], come from the
local series in z and log z at those points, with a proven bound on the cut
tails; only the middle piece is transported, on the factors of the word.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from . import _kernels
from .barcx import words_upto
from .errors import (
    ConvergenceFailure,
    EndpointMismatch,
    GuardViolation,
    QuadratureFailure,
)
from .logforms import ExtLattice, f_batch, letters as form_letters
from .wlattice import LatticeData, eta_lambda, reduce_mod_lattice

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

    def distance(self, p):
        """Distances from the points of the array p to the segment in z."""
        ab = self.z1 - self.z0
        denom = abs(ab) ** 2
        if denom == 0.0:
            return np.abs(self.z0 - p)
        t = np.clip(((p - self.z0) * np.conj(ab)).real / denom, 0.0, 1.0)
        return np.abs(self.z0 + t * ab - p)

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
        if m == 0 and n == 0:
            eta = 0j
        else:
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
            if letter == "om0":
                rows[i] = dz / z
            elif letter == "om1":
                rows[i] = dz / (z - 1.0)
            else:
                raise ValueError(f"unknown genus-zero letter {letter!r}")
        return rows

    def congruence_offset(self, p, q, tol=1e-10):
        if abs(q[0] - p[0]) <= tol and abs(q[1] - p[1]) <= tol:
            return (0j, 0j, (0, 0))
        return None


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
    """Series of the concatenated path from the two halves' series."""
    prod = later[table.split_u] * earlier[table.split_v]
    return np.add.reduceat(prod, table.split_off[:-1])


# --------------------------------------------------------------------------
# Gauss-Legendre panel machinery


@lru_cache(maxsize=8)
def _ref_quad(order):
    """Reference nodes/weights plus the node-to-node cumulative matrix.

    The cumulative matrix integrates the interpolating polynomial from -1 to
    each node: values -> Legendre coefficients (discrete orthogonality,
    exact at this order) -> antiderivative evaluated at the nodes.  The
    weights and the matrix come complex, the matrix in Fortran order, which
    is the layout ``_kernels.panel_transport`` works in, so a panel copies
    neither.
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
    return x, w.astype(np.complex128), QT.T


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


class _SegmentTransport:
    """Adaptive panel transport over a list of segments, one bisection depth
    at a time for all of them together.

    ``err``, ``npanels``, ``panels_by_depth`` and ``rejected`` hold one entry
    per segment, and ``run`` returns one series per segment: the same floats
    and counts as a run over that segment alone.  A segment closer than the
    model's guard to a puncture is refused before any is transported.
    """

    def __init__(self, model, segs, table, tol, max_depth):
        self.model = model
        self.segs = tuple(segs)
        self.table = table
        self.tol = tol
        self.max_depth = max_depth
        for seg in self.segs:
            dmin = float(seg.distance(np.asarray(model.punctures(seg.corners))).min())
            if dmin < model.guard:
                raise GuardViolation(
                    f"segment passes within {dmin:.3e} of a puncture "
                    f"(guard {model.guard:.3e})"
                )
        self.x, self.w, self.Q = _ref_quad(_ORDER)
        m = len(self.segs)
        self.err = [np.zeros(len(table.words)) for _ in range(m)]
        self.npanels = [0] * m
        self.panels_by_depth = [[] for _ in range(m)]
        self.rejected = [0] * m
        self.cap = max(1, min(_BATCH_INTERVALS, _BATCH_ENTRIES // (2 * _ORDER * len(table.words))))

    def panels(self, seg, t0, t1):
        """Series of the panels [t0[i], t1[i]] of segment seg[i], one row
        each, seg ascending: one letter evaluation and one kernel call for
        all of them."""
        d = len(self.x)
        jac = 0.5 * (t1 - t0)
        nodes = (t0[:, None] + (self.x + 1.0) * jac[:, None]).ravel()
        jac = np.repeat(jac, d)
        cuts = (np.flatnonzero(np.diff(seg)) + 1).tolist()
        parts = []
        for a, b in zip([0] + cuts, cuts + [len(seg)]):
            self.npanels[seg[a]] += b - a
            parts.append(self.segs[seg[a]].at(nodes[a * d:b * d]))
        z, dz, s, ds = (np.concatenate(c) for c in zip(*parts))
        phi = self.model.phi_rows(self.table.letters, z, s, dz * jac, ds * jac)
        return _kernels.panel_transport(
            self.table.first, self.table.suffix, phi, self.Q, self.w, self.table.sizes
        )

    def run(self):
        """Series of every segment.

        Every interval open at a depth, in any segment, has its halves
        evaluated in one batch (a root its whole panel too).  An interval is
        accepted when its composed halves match its whole panel within
        budget; otherwise its halves open at the next depth, their panels
        serving as their wholes.  Intervals are ordered by (segment, t); a
        failure is the first in that order.  Once the bisection ends, each
        segment's accepted intervals are folded in t order (``_fold_leaves``),
        so values, errors and panel counts are those of depth-first
        recursion over each segment alone.
        """
        table = self.table
        leaves = [[] for _ in self.segs]  # (t0, t1, series, err) of accepted intervals
        # groups (depth, [(seg, t0, t1, whole panel or None for a root)])
        stack = [(0, [(j, 0.0, 1.0, None) for j in range(len(self.segs))])]
        while stack:
            depth, group = stack.pop()
            if len(group) > self.cap:
                stack += [(depth, group[self.cap:]), (depth, group[:self.cap])]
                continue
            seg, t0, t1 = [], [], []
            for j, a, b, whole in group:
                tm = 0.5 * (a + b)
                if whole is None:  # a root, whose whole panel joins its halves
                    seg.append(j)
                    t0.append(a)
                    t1.append(b)
                seg += [j, j]
                t0 += [a, tm]
                t1 += [tm, b]
            vals = iter(self.panels(np.array(seg), np.array(t0), np.array(t1)))
            for j in seg:
                by_depth = self.panels_by_depth[j]
                while len(by_depth) <= depth:
                    by_depth.append(0)
                by_depth[depth] += 1
            opened = []
            for j, a, b, whole in group:
                if whole is None:
                    whole = next(vals)
                left, right = next(vals), next(vals)
                comp = compose_series(right, left, table)
                err = np.abs(comp - whole)
                # budget per unit parameter, plus a tolerance-proportional
                # allowance for roundoff in the panel's own values (keeps deep
                # bisection near steep-but-legal regions from chasing noise;
                # tolerances below double precision still fail as they should)
                scale = max(1.0, float(np.abs(whole).max()))
                budget = self.tol * ((b - a) + 0.01 * scale)
                worst = err.max()
                if worst <= budget:
                    leaves[j].append((a, b, comp, err))
                    continue
                if depth >= self.max_depth:
                    raise QuadratureFailure(
                        f"panel [{a:.6f}, {b:.6f}] still off by "
                        f"{worst:.3e} (budget {budget:.3e}) at depth {depth}"
                    )
                self.rejected[j] += 1
                mid = 0.5 * (a + b)
                opened += [(j, a, mid, left), (j, mid, b, right)]
            if opened:
                stack.append((depth + 1, opened))
        return [self._fold_leaves(j, leaf) for j, leaf in enumerate(leaves)]

    def _fold_leaves(self, j, leaves):
        """Segment j's series folded from its accepted intervals, whose error
        estimates are added to ``err[j]`` left to right.

        The leaves are taken in t order.  A leaf or finished subtree that is
        a right half (t0 an odd multiple of its width, exact for dyadic t)
        is composed onto the finished subtree before it, its left sibling.
        So the series compose in the bisection tree's shape, and the floats
        are those of a bottom-up fold.
        """
        done = []  # finished subtrees (t0, series), left to right
        for t0, t1, value, err in sorted(leaves, key=lambda leaf: leaf[0]):
            self.err[j] += err
            while t0 / (t1 - t0) % 2 == 1:
                t0, left = done.pop()
                value = compose_series(value, left, self.table)
            done.append((t0, value))
        [(_, value)] = done
        return value


@dataclass(frozen=True)
class TransportResult:
    """Every iterated integral over the requested alphabet up to lmax."""

    model: str
    letters: tuple
    lmax: int
    values: dict  # word tuple -> complex
    err_by_length: dict  # word length -> summed panel error estimate
    panels_by_segment: tuple
    panels_by_depth: tuple  # per segment: panels evaluated at each depth
    rejected_bisections: tuple  # per segment: intervals bisected again

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
    model's full alphabet).  Panels are 24-node Gauss-Legendre; error
    control is per panel against the composed-halves series, with budget
    tol per unit of path parameter.  A segment within the model's guard of
    a puncture raises GuardViolation.
    """
    if path.model != model.name:
        raise ValueError(f"path has model {path.model!r}, transport {model.name!r}")
    if lmax < 0 or lmax > 8:
        raise ValueError("lmax must lie in [0, 8]")
    letters = tuple(letters) if letters is not None else tuple(model.letters())
    table = _word_table(letters, lmax)
    st = _SegmentTransport(model, path.segments, table, tol, max_depth)
    series = st.run()
    acc = reduce(lambda earlier, later: compose_series(later, earlier, table), series)
    err = sum(st.err, np.zeros(len(table.words)))
    ebl = {n: float(np.max(err[table.lengths == n])) for n in range(lmax + 1)}
    return TransportResult(
        model=model.name,
        letters=letters,
        lmax=lmax,
        values=dict(zip(table.words, acc.tolist())),
        err_by_length=ebl,
        panels_by_segment=tuple(st.npanels),
        panels_by_depth=tuple(tuple(d) for d in st.panels_by_depth),
        rejected_bisections=tuple(st.rejected),
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
    for name, coef in P.d_letter(letter).items():
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


# Near the tangential base point at 0 (tangent 1), an iterated integral from
# it is a finite sum of log^j z times power series in z (Borwein, Bradley,
# Broadhurst and Lisonek, arXiv:math/9910045; Vollinga and Weinzierl,
# arXiv:hep-ph/0410259).  A word's coefficients c[j, p] follow from its
# suffix's.  Prepending om0 integrates against dt/t:
#
#     int_0^z t^(p-1) log^j t dt = z^p sum_i (-1)^i j!/(j-i)! log^(j-i) z / p^(i+1)
#
# for p >= 1, and log^(j+1) z / (j+1) for p = 0.  Prepending om1 first
# multiplies by t/(t - 1) = -sum_{m>=1} t^m, then does the same.  Powers
# past K are dropped, and a bound T_j >= sum_{p>K} |c[j, p]| delta^p takes
# the same steps: om1 maps T to (delta^(K+1) sum_{p<=K} |c_p| + delta T) /
# (1 - delta), and om0 sends T_j to T_(j-i) with the factor
# j!/(j-i)!/(K+1)^(i+1).

# The end pieces are [0, _DELTA] and [1 - _DELTA, 1]; their local series
# keep the powers up to _K, which leaves tails below 1e-19.
_DELTA = 0.25
_K = 32


def _tangential_series(table, K, right):
    """Values and proven truncation bounds of I(0+; f; delta) for every word
    f of the table, the local series cut after the power K.

    With ``right``, those of I(1 - delta; f; 1-) = (-1)^|f| I(0+; rev swap f;
    delta) instead, swap exchanging om0 and om1: z -> 1 - z swaps the
    letters and reverses the path.  The suffixes of rev swap f are the rev
    swap of f's prefixes, so the one factor table serves both ends.
    """
    p = np.arange(1, K + 1)
    powers = _DELTA ** np.arange(K + 1)
    coeffs, tails = [np.eye(1, K + 1)], [np.zeros(1)]
    for w in table.words[1:]:
        if right:  # rev swap w = swap(w[-1]) . rev swap w[:-1]
            i, om1 = table.index[w[:-1]], w[-1] == "om0"
        else:
            i, om1 = table.index[w[1:]], w[0] == "om1"
        c, T = coeffs[i], tails[i]
        if om1:
            T = (powers[-1] * _DELTA * np.abs(c).sum(axis=1) + _DELTA * T) / (1 - _DELTA)
            c = np.concatenate([np.zeros((len(c), 1)), -np.cumsum(c[:, :-1], axis=1)], axis=1)
        n = len(c)
        c1, T1 = np.zeros((n + 1, K + 1)), np.zeros(n + 1)
        c1[1:, 0] = c[:, 0] / np.arange(1, n + 1)
        e = f = 0.0
        for j in range(n - 1, -1, -1):
            e = c[j, 1:] - (j + 1) * e / p
            f = T[j] + (j + 1) * f / (K + 1)
            c1[j, 1:] = e / p
            T1[j] = f / (K + 1)
        coeffs.append(c1)
        tails.append(T1)
    logd = math.log(_DELTA)
    values = np.array([logd ** np.arange(len(c)) @ (c @ powers) for c in coeffs])
    bounds = np.array([abs(logd) ** np.arange(len(T)) @ T for T in tails])
    return (-1.0) ** table.lengths * values if right else values, bounds


def regularized_integral_p1(word, tol: float = 1e-9, full: bool = False):
    """Regularized iterated integral from the tangential base at 0 to the
    tangential base at 1.

    The path is cut at delta = 1/4 and 1 - delta.  The end pieces come from
    the local series at each tangential base point (``_tangential_series``),
    for every factor (contiguous subword) of the word; the middle piece is
    transported on the same factor table.  The three are composed.  A proven
    bound on what the series' cut tails move in the composed value exceeding
    tol raises ConvergenceFailure.

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
    left, e_left = _tangential_series(table, _K, right=False)
    right, e_right = _tangential_series(table, _K, right=True)
    st = _SegmentTransport(P1Model(), [LineSeg(_DELTA, 1 - _DELTA)], table, min(tol, 1e-11), 16)
    (mid,) = st.run()
    # a composition with cut tails e_A, e_B moves by at most |A| e_B + e_A (|B| + e_B)
    inner = compose_series(mid, left, table)
    e_inner = compose_series(np.abs(mid), e_left, table)
    total = compose_series(right, inner, table)
    e_total = compose_series(np.abs(right), e_inner, table)
    e_total += compose_series(e_right, np.abs(inner) + e_inner, table)
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
