"""Command-line front end: every computation as a subcommand.

Reports are deterministic: fixed orderings, no wall-clock data, exact
rationals as "p/q" strings, complex numbers as [re, im] pairs.  A human
summary goes to standard output; the full JSON payload goes to the file
named by --json.  Exit codes: 0 pass, 1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .barcx import bar_differential, h0_basis
from .chenint import EdaggerModel, P1Model, _p1_word, chen_transport, path_from_json
from .errors import (
    DegenerateCurve,
    EllbarError,
    EndpointMismatch,
    LatticeError,
    NotAdmissible,
    TruncationExceeded,
    UnknownSymbol,
)
from .kzbword import flatness_check
from .logforms import ExtLattice, dga_presentation, f_batch
from .p1model import MZVIndex, _mzv_series, mzv_integral, mzv_series, p1_dga
from .wlattice import (
    CurveSpec,
    _eisenstein,
    lattice_from_curve,
    lattice_from_periods,
    wp,
    wsigma,
    wzeta,
)

__all__ = ["main"]

# error classes that indicate unusable input rather than a failed check
_INPUT_ERRORS = (
    DegenerateCurve,
    LatticeError,
    UnknownSymbol,
    NotAdmissible,
    TruncationExceeded,
    EndpointMismatch,
)


class _InputError(Exception):
    pass


def _cpair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"bad rational {text!r}: {exc}") from None


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise _InputError(f"bad complex number {text!r}; use RE or RE,IM")


def _validated_tol(tol, default):
    if tol is None:
        return default
    if not 1e-14 <= tol <= 1e-3:
        raise _InputError(f"tolerance {tol:g} outside [1e-14, 1e-3]")
    return tol


def _lattice_from_args(args):
    if getattr(args, "lattice", None):
        w1 = _parse_complex(args.lattice[0])
        w2 = _parse_complex(args.lattice[1])
        return lattice_from_periods(w1, w2), None
    a = _parse_rational(args.curve[0])
    b = _parse_rational(args.curve[1])
    return lattice_from_curve(CurveSpec(a, b)), (a, b)


def _curve_echo(args):
    if getattr(args, "lattice", None):
        return {"lattice": [_cpair(_parse_complex(t)) for t in args.lattice]}
    return {"curve": [str(_parse_rational(t)) for t in args.curve]}


def cmd_periods(args):
    L, ab = _lattice_from_args(args)
    tol = _validated_tol(args.tol, 1e-9)
    tau = L.omega2 / L.omega1
    leg = L.eta1 * L.omega2 - L.eta2 * L.omega1
    leg_err = abs(abs(leg) - 2 * math.pi)
    a_ref = float(ab[0]) if ab else L.g2
    b_ref = float(ab[1]) if ab else L.g3
    # tolerances relative to the curve's scale, as in criterion 3
    scale = max(1.0, abs(a_ref), abs(b_ref))
    g2t, g3t = 1e-7 * scale, 1e-9 * scale
    G4, M4, B4 = _eisenstein(L, 4, g2t)
    G6, M6, B6 = _eisenstein(L, 6, g3t)
    rt4 = abs(60 * G4 - a_ref)
    rt6 = abs(140 * G6 - b_ref)
    passed = leg_err <= tol and rt4 <= 65 * g2t and rt6 <= 150 * g3t
    report = {
        "omega1": _cpair(L.omega1),
        "omega2": _cpair(L.omega2),
        "eta1": _cpair(L.eta1),
        "eta2": _cpair(L.eta2),
        "tau": _cpair(tau),
        "legendre_abs_minus_2pi": leg_err,
        "eisenstein_round_trip": {
            "g2_abs": rt4,
            "g3_abs": rt6,
            "G4": {"box_M": M4, "bound": B4, "tol": g2t},
            "G6": {"box_M": M6, "bound": B6, "tol": g3t},
        },
    }
    human = [
        f"omega1 = {L.omega1:.12g}",
        f"omega2 = {L.omega2:.12g}",
        f"eta1   = {L.eta1:.12g}",
        f"eta2   = {L.eta2:.12g}",
        f"tau    = {tau:.12g}",
        f"| |eta1 omega2 - eta2 omega1| - 2 pi | = {leg_err:.3e}",
        f"|60 G4 - g2| = {rt4:.3e}   |140 G6 - g3| = {rt6:.3e}",
        f"G4: box M = {M4}, bound {B4:.3e}   G6: box M = {M6}, bound {B6:.3e}",
    ]
    return report, human, passed


def cmd_wfun(args):
    L, ab = _lattice_from_args(args)
    z = _parse_complex(args.z)
    p, pp = wp(L, z)
    zeta = wzeta(L, z)
    sigma = wsigma(L, z)
    ode = abs(pp**2 - (4 * p**3 - L.g2 * p - L.g3)) / max(1.0, abs(pp) ** 2)
    passed = ode <= 1e-9
    report = {
        "z": _cpair(z),
        "wp": _cpair(p),
        "wp_prime": _cpair(pp),
        "zeta": _cpair(zeta),
        "sigma": _cpair(sigma),
        "ode_relative_residual": ode,
    }
    human = [
        f"wp(z)    = {p:.12g}",
        f"wp'(z)   = {pp:.12g}",
        f"zeta(z)  = {zeta:.12g}",
        f"sigma(z) = {sigma:.12g}",
        f"ODE relative residual = {ode:.3e}",
    ]
    return report, human, passed


def cmd_forms(args):
    L, ab = _lattice_from_args(args)
    E = ExtLattice(L, nmax=args.N)
    z = _parse_complex(args.z)
    s = _parse_complex(args.s)
    vals = f_batch(E, np.array([z]), np.array([s]))[:, 0]
    report = {
        "z": _cpair(z),
        "s": _cpair(s),
        "nmax": args.N,
        "f": [_cpair(v) for v in vals],
    }
    human = [f"f_{n}(z, s) = {vals[n]:.12g}" for n in range(args.N + 1)]
    return report, human, True


def cmd_bar(args):
    if args.model == "p1":
        P = p1_dga()
    else:
        P = dga_presentation(args.N)
    basis = h0_basis(P, args.ell)
    closed = all(bar_differential(P, el).is_zero() for el in basis)
    report = {
        "model": args.model,
        "nmax": args.N if args.model == "edagger" else None,
        "ell": args.ell,
        "dimension": len(basis),
        "all_closed": closed,
        "basis": [el.to_dict() for el in basis],
    }
    human = [f"kernel dimension at length <= {args.ell}: {len(basis)}"]
    human += [f"  {el!r}" for el in basis]
    human.append(f"closedness certificates: {'all exact' if closed else 'FAILED'}")
    return report, human, closed


def cmd_kzb_flatness(args):
    rep = flatness_check(args.N, args.ell)
    report = {
        "N": args.N,
        "ell": args.ell,
        "n_words_checked": rep.n_words_checked,
        "nonzero_terms": [
            [t, w, str(c)] for (t, w, c) in rep.nonzero
        ],
        "flat": rep.ok,
    }
    human = [
        f"checked {rep.n_words_checked} words at N={args.N}, length <= {args.ell}",
        f"flatness: {'exact' if rep.ok else f'{len(rep.nonzero)} nonzero terms'}",
    ]
    return report, human, rep.ok


def cmd_integrate(args):
    tol = _validated_tol(args.tol, 1e-10)
    with open(args.path) as fh:
        path = path_from_json(fh.read())
    if path.model == "p1":
        model = P1Model()
        word = _p1_word(args.word)
    else:
        L, ab = _lattice_from_args(args)
        model = EdaggerModel(ExtLattice(L, nmax=args.N))
        word = tuple(t for t in args.word.split(",") if t)
    letters = tuple(dict.fromkeys(word)) or tuple(model.letters())[:1]
    r = chen_transport(model, path, letters=letters, lmax=len(word), tol=tol)
    val = r.coeff(word)
    err = r.err_by_length.get(len(word), 0.0)
    report = {
        "model": path.model,
        "word": list(word),
        "value": _cpair(val),
        "error_estimate": float(err),
        "panels_by_segment": list(r.panels_by_segment),
        "panels_by_depth": [list(d) for d in r.panels_by_depth],
        "rejected_bisections": list(r.rejected_bisections),
        "split_at": list(r.split_at),
        "roots": list(r.roots),
        "disk": [None if d is None else [list(span) for span in d] for d in r.disk],
    }
    human = [
        f"word {'|'.join(word) or '(empty)'} along {len(path.segments)} segment(s)",
        f"value = {val:.15g}",
        f"error estimate = {err:.3e}",
        f"panels per segment = {list(r.panels_by_segment)}",
        f"split at per segment = {list(r.split_at)}",
        f"roots per segment = {list(r.roots)}",
        f"disk per segment = {report['disk']}",
    ]
    return report, human, True


def cmd_mzv(args):
    idx = MZVIndex.parse(args.index)
    tol = _validated_tol(args.tol, 1e-9)
    series = mzv_series(idx)
    series_bound = _mzv_series(idx.ks, 1e-12)[1]
    integral = mzv_integral(idx, tol=tol)
    diff = abs(abs(integral) - series)
    passed = diff <= 1e-7
    report = {
        "index": list(idx.ks),
        "word": idx.word(),
        "series": series,
        "series_bound": series_bound,
        "integral": integral,
        "abs_integral": abs(integral),
        "route_difference": diff,
    }
    human = [
        f"zeta({args.index})",
        f"series route   = {series:.15g}",
        f"integral route = {integral:.15g}  (|.| = {abs(integral):.15g})",
        f"route difference = {diff:.3e}",
    ]
    return report, human, passed


def cmd_verify(args):
    from . import verify

    a = _parse_rational(args.curve[0])
    b = _parse_rational(args.curve[1])
    tol = args.tol
    if tol is not None and tol > 1e-3:
        raise _InputError(f"tolerance {tol:g} above 1e-3")
    # below-range tolerances are accepted here on purpose: they are the
    # documented way to exercise the quadrature-failure path
    cfg = {
        "curve_a": a,
        "curve_b": b,
        "tol": tol,
        "negative_controls": args.negative_controls,
    }
    report = verify.assemble_report(cfg)
    human = []
    for r in report["criteria"]:
        status = "pass" if r["passed"] else "FAIL"
        worst = max(r["residuals"].values(), default=None)
        tail = f"worst residual {worst:.3e}" if worst is not None else ""
        if "error" in r:
            tail = r["error"]
        human.append(f"{r['id']:3d} {r['name']:26s} {status}  {tail}")
    for c in report.get("stress", []) + report.get("negative_controls", []):
        status = "pass" if c["passed"] else "FAIL"
        tail = c.get("error", c.get("note", ""))
        human.append(f"  - {c['name']:34s} {status}  {tail}")
    human.append(
        "all criteria passed" if report["all_passed"] else "SOME CRITERIA FAILED"
    )
    return report, human, report["all_passed"]


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="ellbar",
        description="iterated path integrals of logarithmic forms on the "
        "universal vectorial extension of an elliptic curve",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--curve",
            nargs=2,
            metavar=("A", "B"),
            default=["5", "2"],
            help="curve invariants a b as exact rationals p/q",
        )
        p.add_argument(
            "--lattice",
            nargs=2,
            metavar=("W1", "W2"),
            help="explicit periods RE,IM RE,IM instead of a curve",
        )
        p.add_argument("--json", metavar="OUT", help="write the JSON report here")

    p = sub.add_parser("periods", help="periods, quasi-periods, tau, checks")
    common(p)
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("wfun", help="evaluate wp, wp', zeta, sigma at a point")
    common(p)
    p.add_argument("--z", required=True, help="evaluation point RE,IM")
    p.set_defaults(func=cmd_wfun)

    p = sub.add_parser("forms", help="evaluate the form coefficients f_n")
    common(p)
    p.add_argument("--z", required=True, help="evaluation point RE,IM")
    p.add_argument("--s", required=True, help="fiber coordinate RE,IM")
    p.add_argument("--N", type=int, default=5, help="truncation order")
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("bar", help="closed-element basis of the reduced bar complex")
    p.add_argument("--model", choices=["p1", "edagger"], default="edagger")
    p.add_argument("--N", type=int, default=4, help="truncation order (edagger)")
    p.add_argument("--ell", type=int, default=3, help="maximum word length")
    p.add_argument("--json", metavar="OUT", help="write the JSON report here")
    p.set_defaults(func=cmd_bar)

    p = sub.add_parser("kzb-flatness", help="exact flatness of the connection form")
    p.add_argument("--N", type=int, default=6, help="truncation order")
    p.add_argument("--ell", type=int, default=5, help="maximum word length")
    p.add_argument("--json", metavar="OUT", help="write the JSON report here")
    p.set_defaults(func=cmd_kzb_flatness)

    p = sub.add_parser("integrate", help="iterated integral of a word along a path")
    common(p)
    p.add_argument("--path", required=True, metavar="FILE", help="path JSON file")
    p.add_argument(
        "--word",
        required=True,
        help='letters: comma-separated names, or a 0/1 digit string for p1',
    )
    p.add_argument("--N", type=int, default=4, help="truncation order (edagger)")
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("mzv", help="multiple zeta value by both routes")
    p.add_argument("--index", required=True, help='index like "2,1"')
    p.add_argument("--tol", type=float, default=None, help="integral tolerance")
    p.add_argument("--json", metavar="OUT", help="write the JSON report here")
    p.set_defaults(func=cmd_mzv)

    p = sub.add_parser("verify", help="run the numbered acceptance criteria")
    p.add_argument("--curve", nargs=2, metavar=("A", "B"), default=["5", "2"])
    p.add_argument(
        "--tol",
        type=float,
        default=None,
        help="quadrature tolerance; values below 1e-14 exercise failure paths",
    )
    p.add_argument(
        "--negative-controls",
        action="store_true",
        help="also run the deliberate-failure controls",
    )
    p.add_argument("--json", metavar="OUT", help="write the JSON report here")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        report, human, passed = args.func(args)
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except EllbarError as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    payload = {
        "command": args.command,
        "config": _config_echo(args),
        "report": report,
        "passed": bool(passed),
    }
    for line in human:
        print(line)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0 if passed else 1


def _config_echo(args):
    echo = {"command": args.command}
    for key in ("N", "ell", "tol", "z", "s", "word", "index", "model", "path"):
        if hasattr(args, key):
            echo[key] = getattr(args, key)
    if hasattr(args, "curve"):
        echo.update(_curve_echo(args))
    if hasattr(args, "negative_controls"):
        echo["negative_controls"] = bool(args.negative_controls)
    return echo


if __name__ == "__main__":
    sys.exit(main())
