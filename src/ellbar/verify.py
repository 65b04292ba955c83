"""Acceptance verification: twelve numbered checks over the whole stack.

Each criterion function runs one numbered acceptance check and returns a
plain dict: id, name, passed flag, measured residuals against the stated
tolerances, and enough detail to diagnose a failure.  The report assembler
keeps every ordering fixed and excludes wall-clock data so identical
configurations serialize to identical bytes.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

import numpy as np

from .barcx import (
    BarElement,
    _in_span,
    _rref,
    bar_differential,
    h0_basis,
    shuffle,
    words_upto,
)
from .chenint import (
    ArcSeg,
    EdaggerModel,
    PathSpec,
    _word_table,
    chen_transport,
    compose_paths,
    compose_series,
    eval_bar_with_result,
    homotopy_certificate,
    line_path,
    loop_pair_library,
    loop_path,
    reverse_path,
    stokes_defect,
    translate_path,
)
from .errors import EllbarError
from .kzbword import c_w, canonical_series, flatness_check
from .logforms import (
    ExtLattice,
    dga_presentation,
    f_batch,
    kernel_F,
    residue_expected,
)
from .p1model import mzv_integral, mzv_series, p1_dga
from .wlattice import (
    CurveSpec,
    eisenstein,
    eta_lambda,
    fundamental_points,
    lattice_from_curve,
    latsum_truncation_bound,
    latsum_weierstrass,
    wp,
)

__all__ = ["run_criteria", "assemble_report", "report_json", "CRITERIA"]

_THREE_CURVES = (Fraction(4), Fraction(0)), (Fraction(0), Fraction(4)), (Fraction(5), Fraction(2))


def _criterion(cid, name):
    """Registers criterion number cid under name: both its result and the
    error entry that ``run_criteria`` makes when it raises carry them."""

    def register(body):
        head = {"id": cid, "name": name}

        @functools.wraps(body)
        def run(cfg):
            return {**head, **body(cfg)}

        run.head = head
        return run

    return register


def _res(passed, residuals, **extra):
    return {
        "passed": bool(passed),
        "residuals": {k: float(v) for k, v in residuals.items()},
        **extra,
    }


def _curve_lattice(cfg):
    return lattice_from_curve(CurveSpec(cfg["curve_a"], cfg["curve_b"]))


def _quad_tol(cfg):
    return cfg.get("tol") or 1e-10


@_criterion(1, "weierstrass-consistency")
def crit_weierstrass(cfg):
    worst_ode = 0.0
    worst_osc = 0.0
    worst_bound = 0.0
    for a, b in _THREE_CURVES:
        L = lattice_from_curve(CurveSpec(a, b))
        z = fundamental_points(L, 100, seed=7)
        p, pp = wp(L, z)
        lhs = pp**2
        rhs = 4 * p**3 - float(a) * p - float(b)
        scale = np.maximum(np.abs(lhs), 1.0)
        worst_ode = max(worst_ode, float(np.max(np.abs(lhs - rhs) / scale)))
        po, ppo, _, _ = latsum_weierstrass(L, z, M=60)
        bp, bpp, _, _ = latsum_truncation_bound(L, z, M=60)
        sc = np.maximum(np.abs(p), 1.0)
        scp = np.maximum(np.abs(pp), 1.0)
        worst_osc = max(worst_osc, float(np.max(np.abs(p - po) / sc)))
        worst_osc = max(worst_osc, float(np.max(np.abs(pp - ppo) / scp)))
        worst_bound = max(worst_bound, float(np.max(bp / sc)), float(np.max(bpp / scp)))
    ok = worst_ode <= 1e-9 and worst_osc <= 1e-8 and worst_bound <= 1e-10
    return _res(
        ok,
        {
            "ode_relative": worst_ode,
            "lattice_sum_relative": worst_osc,
            "oracle_truncation_bound": worst_bound,
        },
        tolerances={
            "ode_relative": 1e-9,
            "lattice_sum_relative": 1e-8,
            "oracle_truncation_bound": 1e-10,
        },
    )


@_criterion(2, "legendre-relation")
def crit_legendre(cfg):
    worst_leg = 0.0
    worst_add = 0.0
    for a, b in _THREE_CURVES:
        L = lattice_from_curve(CurveSpec(a, b))
        leg = L.eta1 * L.omega2 - L.eta2 * L.omega1
        worst_leg = max(worst_leg, abs(abs(leg) - 2 * math.pi))
        pairs = [((1, 0), (0, 1)), ((1, 1), (1, -1)), ((2, 1), (-1, 2))]
        for mn1, mn2 in pairs:
            lhs = eta_lambda(L, (mn1[0] + mn2[0], mn1[1] + mn2[1]))
            rhs = eta_lambda(L, mn1) + eta_lambda(L, mn2)
            worst_add = max(worst_add, abs(lhs - rhs))
    ok = worst_leg <= 1e-9 and worst_add <= 1e-9
    return _res(
        ok,
        {"legendre": worst_leg, "additivity": worst_add},
        tolerances={"legendre": 1e-9, "additivity": 1e-9},
    )


@_criterion(3, "eisenstein-round-trip")
def crit_eisenstein(cfg):
    a, b = cfg["curve_a"], cfg["curve_b"]
    L = lattice_from_curve(CurveSpec(a, b))
    scale = max(1.0, abs(float(a)), abs(float(b)))
    # sum tolerances sized so the rigorous tail bound covers the target
    g2 = 60 * eisenstein(L, 4, tol=1e-8 * scale / 60)
    g3 = 140 * eisenstein(L, 6, tol=1e-8 * scale / 140)
    worst = max(abs(g2 - float(a)) / scale, abs(g3 - float(b)) / scale)
    ok = worst <= 1e-8
    return _res(
        ok,
        {"round_trip_relative": worst},
        tolerances={"round_trip_relative": 1e-8},
    )


@_criterion(4, "form-identities")
def crit_form_identities(cfg):
    L = _curve_lattice(cfg)
    E = ExtLattice(L, nmax=8)
    mp_ = L.min_period()
    rng = np.random.default_rng(11)
    zs = fundamental_points(L, 5, seed=11)
    ss = 0.4 - 0.1j + 0.3 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
    worst_ladder = 0.0
    worst_inv = 0.0
    worst_gen = 0.0
    h = 1e-5
    fb = f_batch(E, zs, ss)
    fp = f_batch(E, zs, ss + h)
    fm = f_batch(E, zs, ss - h)
    for n in range(1, 6):
        dfd = (fp[n] - fm[n]) / (2 * h)
        worst_ladder = max(worst_ladder, float(np.max(np.abs(dfd + fb[n - 1]))))
    for mn in ((1, 0), (0, 1), (1, 1)):
        lam = mn[0] * L.omega1 + mn[1] * L.omega2
        eta = eta_lambda(L, mn)
        ft = f_batch(E, zs + lam, ss - eta)
        for n in range(1, 6):
            worst_inv = max(worst_inv, float(np.max(np.abs(ft[n] - fb[n]))))
    # residue by circle means at two radii, extrapolated in the radius
    worst_resid = 0.0
    K = 64
    ang = np.exp(2j * math.pi * np.arange(K) / K)
    s0 = 0.41 - 0.13j
    means = {}
    for rho in (0.05 * mp_, 0.025 * mp_):
        zc = rho * ang
        fbc = f_batch(E, zc, np.full(K, s0))
        means[rho] = [np.mean(zc * fbc[n]) for n in range(E.nmax + 1)]
    for n in range(1, 6):
        m1 = means[0.05 * mp_][n]
        m2 = means[0.025 * mp_][n]
        extrap = 2 * m2 - m1
        expect = residue_expected(n, s0)
        worst_resid = max(worst_resid, abs(extrap - expect))
    # generating series against the two-point kernel at small w
    w = 0.02 * mp_ * np.exp(0.3j)
    F = kernel_F(E, zs, np.full(5, w))
    lhs = w * F * np.exp(-ss * w)
    rhs = np.zeros(5, dtype=complex)
    for n in range(E.nmax + 1):
        rhs += fb[n] * w**n
    worst_gen = float(np.max(np.abs(lhs - rhs)))
    # the same at reduced points 0.1-0.4 periods from the lattice point 0,
    # where f_batch takes the sigma-product branch
    zn = mp_ * np.array([0.1, 0.2, 0.3, 0.4]) * np.exp(1j * np.array([0.4, 1.9, 3.3, 5.1]))
    fn = f_batch(E, zn, ss[:4])
    lhs = w * kernel_F(E, zn, np.full(4, w)) * np.exp(-ss[:4] * w)
    rhs = sum(fn[n] * w**n for n in range(E.nmax + 1))
    worst_near = float(np.max(np.abs(lhs - rhs)))
    ok = (
        worst_ladder <= 1e-6
        and worst_inv <= 1e-8
        and worst_resid <= 1e-6
        and worst_gen <= 1e-7
        and worst_near <= 1e-7
    )
    return _res(
        ok,
        {
            "s_ladder": worst_ladder,
            "lattice_invariance": worst_inv,
            "residue": worst_resid,
            "generating_series": worst_gen,
            "generating_series_near_lattice": worst_near,
        },
        tolerances={
            "s_ladder": 1e-6,
            "lattice_invariance": 1e-8,
            "residue": 1e-6,
            "generating_series": 1e-7,
            "generating_series_near_lattice": 1e-7,
        },
    )


@_criterion(5, "bar-exactness")
def crit_bar_exactness(cfg):
    P = dga_presentation(5)
    rng = np.random.default_rng(23)
    dd_zero = True
    words = [w for w in words_upto(P.deg1, 3) if w]
    for _ in range(20):
        xi = BarElement()
        for _ in range(4):
            w = words[rng.integers(len(words))]
            xi.add_term(w, Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))))
        if not bar_differential(P, bar_differential(P, xi)).is_zero():
            dd_zero = False
    p1 = p1_dga()
    dims_ok = True
    for ell in range(7):
        if len(h0_basis(p1, ell)) != 2 ** (ell + 1) - 1:
            dims_ok = False
    basis = h0_basis(dga_presentation(4), 3)
    closure_ok = True
    singles = [el for el in basis if max(len(w) for w in el.terms) == 1]
    for i in range(min(3, len(singles))):
        for j in range(min(3, len(singles))):
            u = singles[i]
            v = singles[j]
            prod = BarElement()
            for wu, cu in u.terms.items():
                for wv, cv in v.terms.items():
                    for w, m in shuffle(wu, wv).items():
                        prod.add_term(w, cu * cv * m)
            if not bar_differential(dga_presentation(4), prod).is_zero():
                closure_ok = False
            if not _in_span(basis, prod):
                closure_ok = False
    ok = dd_zero and dims_ok and closure_ok
    return _res(
        ok,
        {},
        checks={
            "differential_squares_to_zero": dd_zero,
            "p1_dimensions": dims_ok,
            "shuffle_closure": closure_ok,
        },
    )


@_criterion(6, "kzb-flatness")
def crit_kzb_flatness(cfg):
    rep = flatness_check(6, 5)
    ok = rep.ok
    return _res(
        ok,
        {},
        checks={"n_words_checked": rep.n_words_checked, "nonzero_terms": len(rep.nonzero)},
    )


@_criterion(7, "canonical-closedness")
def crit_canonical_closedness(cfg):
    S = canonical_series(5, 4)
    P = dga_presentation(5)
    closed_ok = True
    nwords = 0
    for ln in range(1, 5):
        for bits in range(2**ln):
            w = format(bits, f"0{ln}b")
            nwords += 1
            if not bar_differential(P, c_w(S, w)).is_zero():
                closed_ok = False
    # independence and containment at ell <= 3
    S3 = canonical_series(4, 3)
    elems = []
    for ln in range(0, 4):
        for bits in range(2**ln):
            w = format(bits, f"0{ln}b") if ln else ""
            elems.append(c_w(S3, w))
    P4 = dga_presentation(4)
    kernel = h0_basis(P4, 3)
    contained = all(_in_span(kernel, el) for el in elems)
    indep = len(_rref(el.terms for el in elems)) == len(elems)
    excess = len(kernel) - len(elems)
    ok = closed_ok and contained and indep
    return _res(
        ok,
        {},
        checks={
            "n_words_closed": nwords,
            "closed": closed_ok,
            "independent": indep,
            "contained_in_kernel": contained,
            "kernel_excess": excess,
        },
    )


@_criterion(8, "length-1-periods")
def crit_length1_periods(cfg):
    L = _curve_lattice(cfg)
    E = ExtLattice(L, nmax=4)
    model = EdaggerModel(E)
    tol = _quad_tol(cfg)
    z0 = 0.31 * L.omega1 + 0.22 * L.omega2
    worst = 0.0
    for mn in ((1, 0), (0, 1)):
        lam = mn[0] * L.omega1 + mn[1] * L.omega2
        g = translate_path(L, mn, z0, 0.4 - 0.1j)
        r = chen_transport(model, g, letters=("nu", "w0"), lmax=1, tol=tol)
        worst = max(worst, abs(r.coeff(("w0",)) - lam))
        worst = max(worst, abs(r.coeff(("nu",)) + eta_lambda(L, mn)))
    ok = worst <= 1e-8
    return _res(
        ok,
        {"period_abs": worst},
        tolerances={"period_abs": 1e-8},
    )


@_criterion(9, "homotopy-contract")
def crit_homotopy(cfg):
    L = _curve_lattice(cfg)
    E = ExtLattice(L, nmax=4)
    model = EdaggerModel(E)
    tol = _quad_tol(cfg)
    basis = h0_basis(dga_presentation(4), 3)
    letters = tuple(dga_presentation(4).deg1)
    pairs = loop_pair_library(E)
    worst = 0.0
    cert_ok = True
    for name, g1, g2 in pairs:
        cert = homotopy_certificate(model, g1, g2)
        if not cert["ok"]:
            cert_ok = False
        r1 = chen_transport(model, g1, letters=letters, lmax=3, tol=tol)
        r2 = chen_transport(model, g2, letters=letters, lmax=3, tol=tol)
        for el in basis:
            d = abs(eval_bar_with_result(el, r1) - eval_bar_with_result(el, r2))
            worst = max(worst, d)
    # non-closed control: single letter w1 across the first pair
    name, g1, g2 = pairs[0]
    r1 = chen_transport(model, g1, letters=("w1",), lmax=1, tol=tol)
    r2 = chen_transport(model, g2, letters=("w1",), lmax=1, tol=tol)
    actual = r1.coeff(("w1",)) - r2.coeff(("w1",))
    predicted = stokes_defect(E, "w1", g1, g2)
    stokes_err = abs(actual - predicted)
    stokes_size = abs(actual)
    ok = cert_ok and worst <= 1e-7 and stokes_err <= 1e-5 and stokes_size > 1e-3
    return _res(
        ok,
        {"closed_invariance": worst, "stokes_match": stokes_err},
        tolerances={"closed_invariance": 1e-7, "stokes_match": 1e-5},
        checks={
            "certificates": cert_ok,
            "n_basis_elements": len(basis),
            "stokes_size_exceeds_1e-3": float(stokes_size),
        },
    )


@_criterion(10, "path-algebra")
def crit_path_algebra(cfg):
    L = _curve_lattice(cfg)
    E = ExtLattice(L, nmax=4)
    model = EdaggerModel(E)
    tol = _quad_tol(cfg)
    z0 = 0.31 * L.omega1 + 0.22 * L.omega2
    zm = z0 + 0.1 * L.omega1 + 0.2 * L.omega2
    z1 = z0 + 0.4 * L.omega1 + 0.23 * L.omega2
    s0, sm, s1 = 0.4 - 0.1j, 0.1 + 0.2j, -0.3 + 0.05j
    gA = line_path("edagger", z0, zm, s0, sm)
    gB = line_path("edagger", zm, z1, sm, s1)
    letters = ("nu", "w0", "w1")
    tab3 = _word_table(letters, 3)
    rA = chen_transport(model, gA, letters=letters, lmax=3, tol=tol)
    rB = chen_transport(model, gB, letters=letters, lmax=3, tol=tol)
    rG = chen_transport(model, compose_paths(gB, gA), letters=letters, lmax=3, tol=tol)
    a = np.array([rA.values[w] for w in tab3.words])
    b = np.array([rB.values[w] for w in tab3.words])
    whole = np.array([rG.values[w] for w in tab3.words])
    comp_err = float(np.max(np.abs(compose_series(b, a, tab3) - whole)))
    g = compose_paths(gB, gA)
    rR = chen_transport(model, reverse_path(g), letters=letters, lmax=3, tol=tol)
    rev_err = 0.0
    for w in tab3.words:
        rev_err = max(
            rev_err, abs(rR.values[w] - (-1) ** len(w) * rG.values[w[::-1]])
        )
    r4 = chen_transport(model, g, letters=letters, lmax=4, tol=tol)
    shuf_err = 0.0
    for u in (("nu",), ("w0", "w1"), ("nu", "w1")):
        for v in (("w1",), ("w0",), ("nu", "w0")):
            if len(u) + len(v) > 4:
                continue
            lhs = r4.values[u] * r4.values[v]
            rhs = sum(c * r4.values[w] for w, c in shuffle(u, v).items())
            shuf_err = max(shuf_err, abs(lhs - rhs))
    # loop residue, two radii with extrapolation
    s_loop = 0.4 - 0.1j
    vals = {}
    for f in (0.25, 0.125):
        lp = loop_path(0j, f * L.min_period(), s0=s_loop)
        rr = chen_transport(model, lp, letters=("w1", "w2"), lmax=1, tol=tol)
        vals[f] = (rr.coeff(("w1",)), rr.coeff(("w2",)))
    res_err = 0.0
    for i, n in enumerate((1, 2)):
        rich = 2 * vals[0.125][i] - vals[0.25][i]
        expect = 2j * math.pi * residue_expected(n, s_loop)
        res_err = max(res_err, abs(rich - expect))
    ok = comp_err <= 1e-9 and rev_err <= 1e-9 and shuf_err <= 1e-8 and res_err <= 1e-5
    return _res(
        ok,
        {
            "composition": comp_err,
            "reversal": rev_err,
            "shuffle": shuf_err,
            "loop_residue": res_err,
        },
        tolerances={
            "composition": 1e-9,
            "reversal": 1e-9,
            "shuffle": 1e-8,
            "loop_residue": 1e-5,
        },
    )


@_criterion(11, "mzv-reproduction")
def crit_mzv(cfg):
    # the series oracle at its tightest tol: its proven bound, at most
    # 5e-15, stays far below the integral route's error
    tol = 1e-14
    worst_dual = 0.0
    for ks in ((2,), (3,), (4,), (2, 1), (3, 1), (2, 2)):
        a = abs(mzv_integral(ks))
        b = mzv_series(ks, tol)
        worst_dual = max(worst_dual, abs(a - b))
    closed = max(
        abs(mzv_series((2,), tol) - math.pi**2 / 6),
        abs(mzv_series((4,), tol) - math.pi**4 / 90),
    )
    z21 = abs(mzv_series((2, 1), tol) - mzv_series((3,), tol))
    ok = worst_dual <= 1e-7 and closed <= 1e-10 and z21 <= 1e-8
    return _res(
        ok,
        {"dual_route": worst_dual, "closed_forms": closed, "zeta21_identity": z21},
        tolerances={"dual_route": 1e-7, "closed_forms": 1e-10, "zeta21_identity": 1e-8},
    )


@_criterion(12, "cli-determinism")
def crit_cli_determinism(cfg):
    # rerun a representative fast subset twice and require byte-identical
    # serialization; exercise the exit-code contract through the command
    # functions (the subprocess-level check lives in the acceptance tests)
    sub = {**cfg, "criteria": [2, 5, 11]}
    rep1 = report_json(assemble_report(sub))
    rep2 = report_json(assemble_report(sub))
    identical = rep1 == rep2
    import contextlib
    import io

    from . import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code_pass = cli.main(["periods", "--curve", "4", "0"])
        code_bad = cli.main(["periods", "--curve", "3", "1"])
    codes_ok = code_pass == 0 and code_bad == 2
    ok = identical and codes_ok
    return _res(
        ok,
        {},
        checks={
            "byte_identical_rerun": identical,
            "exit_code_pass": code_pass,
            "exit_code_malformed": code_bad,
        },
    )


CRITERIA = (
    crit_weierstrass,
    crit_legendre,
    crit_eisenstein,
    crit_form_identities,
    crit_bar_exactness,
    crit_kzb_flatness,
    crit_canonical_closedness,
    crit_length1_periods,
    crit_homotopy,
    crit_path_algebra,
    crit_mzv,
    crit_cli_determinism,
)


def _steep_path(L):
    """A legal but steep approach: an arc of radius 0.4 |omega1| bulging
    toward omega1 and clearing it by 3e-3 periods.  Transport does not split
    arcs (a split line's part near the lattice point comes from the series
    there, with no panel), so it reaches the pole by bisection."""
    R = 0.4 * abs(L.omega1)
    u = 1j * L.omega1 / abs(L.omega1)
    a = float(np.angle(-u))
    center = L.omega1 + (R + 3e-3 * L.min_period()) * u
    return PathSpec(model="edagger", segments=(ArcSeg(center, R, a - 0.25, a + 0.25),))


def _quadrature_stress(cfg):
    """Run the steep path at the configured tolerance with a bounded panel
    budget.  At tolerances below the accepted range this must end in
    QuadratureFailure: the budget of a panel next to the pole, tol times its
    width plus a hundredth of its scale, falls below its own rounding, u
    times its largest value (at tol 1e-15, for any panel narrower than a
    tenth of the arc).  The entry records the honest outcome either way."""
    L = _curve_lattice(cfg)
    model = EdaggerModel(ExtLattice(L, nmax=4))
    tol = cfg["tol"]
    try:
        chen_transport(
            model, _steep_path(L), letters=("w1",), lmax=1, tol=tol, max_depth=4
        )
        return {
            "name": "quadrature-stress",
            "passed": True,
            "note": f"steep path converged at tol={tol:g}",
        }
    except EllbarError as exc:
        return {
            "name": "quadrature-stress",
            "passed": False,
            "error": f"{type(exc).__name__}: {exc}",
        }


def _negative_controls(cfg):
    """Deliberate failure paths: each control passes when the expected
    failure occurs."""
    from .errors import QuadratureFailure

    L = _curve_lattice(cfg)
    E = ExtLattice(L, nmax=4)
    model = EdaggerModel(E)
    out = []
    # unattainable tolerance near the steep (but legal) approach: the
    # rounding of the panels next to the pole exceeds their budget
    g = _steep_path(L)
    try:
        chen_transport(model, g, letters=("w1",), lmax=1, tol=1e-15, max_depth=4)
        out.append({"name": "quadrature-failure-exercised", "passed": False})
    except QuadratureFailure:
        out.append({"name": "quadrature-failure-exercised", "passed": True})
    # non-closed element must be visibly non-invariant
    name, g1, g2 = loop_pair_library(E)[0]
    r1 = chen_transport(model, g1, letters=("w1",), lmax=1, tol=1e-10)
    r2 = chen_transport(model, g2, letters=("w1",), lmax=1, tol=1e-10)
    diff = abs(r1.coeff(("w1",)) - r2.coeff(("w1",)))
    out.append(
        {
            "name": "non-closed-element-non-invariant",
            "passed": diff > 1e-3,
            "difference": float(diff),
        }
    )
    return out


def run_criteria(cfg):
    """Run the selected criteria (all twelve by default); exceptions become
    failed entries naming the error."""
    wanted = cfg.get("criteria") or list(range(1, 13))
    results = []
    for fn in CRITERIA:
        if fn.head["id"] not in wanted:
            continue
        try:
            results.append(fn(cfg))
        except EllbarError as exc:
            results.append(
                {
                    **fn.head,
                    "passed": False,
                    "residuals": {},
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
    return results


def assemble_report(cfg):
    results = run_criteria(cfg)
    report = {
        "config": {
            "curve": [str(cfg["curve_a"]), str(cfg["curve_b"])],
            "tol": cfg.get("tol"),
            "criteria": cfg.get("criteria"),
            "negative_controls": bool(cfg.get("negative_controls")),
        },
        "criteria": results,
        "all_passed": all(r["passed"] for r in results),
    }
    tol = cfg.get("tol")
    if tol is not None and tol < 1e-14:
        # below the accepted range: the steep-path stress case must surface
        # the quadrature failure honestly instead of silently passing
        stress = _quadrature_stress(cfg)
        report["stress"] = [stress]
        report["all_passed"] = report["all_passed"] and stress["passed"]
    if cfg.get("negative_controls"):
        controls = _negative_controls(cfg)
        report["negative_controls"] = controls
        report["all_passed"] = report["all_passed"] and all(
            c["passed"] for c in controls
        )
    return report


def report_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
