"""Command-line interface: exit codes, JSON reports, determinism."""

import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from ellbar.barcx import BarElement
from ellbar.chenint import LineSeg, PathSpec, loop_path, path_to_json, translate_path
from ellbar.wlattice import CurveSpec, eta_lambda, lattice_from_curve


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "ellbar.cli", *argv],
        capture_output=True,
        text=True,
    )


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestPeriods:
    def test_tau_is_i_for_lemniscatic(self, tmp_path):
        out = tmp_path / "p.json"
        p = run_cli("periods", "--curve", "4", "0", "--json", str(out))
        assert p.returncode == 0
        rep = load_json(out)["report"]
        tau = complex(*rep["tau"])
        assert abs(tau - 1j) <= 1e-9
        assert rep["legendre_abs_minus_2pi"] <= 1e-9

    def test_degenerate_curve_exits_2(self):
        p = run_cli("periods", "--curve", "3", "1")
        assert p.returncode == 2
        assert "DegenerateCurve" in p.stderr

    def test_bad_rational_exits_2(self):
        p = run_cli("periods", "--curve", "x", "2")
        assert p.returncode == 2

    def test_tolerance_range_enforced(self):
        p = run_cli("periods", "--curve", "5", "2", "--tol", "1e-20")
        assert p.returncode == 2

    def test_explicit_lattice(self, tmp_path):
        out = tmp_path / "p.json"
        L = lattice_from_curve(CurveSpec(5, 2))
        w1 = f"{L.omega1.real},{L.omega1.imag}"
        w2 = f"{L.omega2.real},{L.omega2.imag}"
        p = run_cli("periods", "--lattice", w1, w2, "--json", str(out))
        assert p.returncode == 0
        rep = load_json(out)["report"]
        assert rep["legendre_abs_minus_2pi"] <= 1e-9

    def test_hexagonal_tie_lattice(self):
        # tau = 1/2 + 0.86603i rotated by 0.3 rad, on the reduction's tie
        p = run_cli("periods", "--lattice", "1.2419374358632878,0.3841762686597414",
                    "0.28826054398424805,1.2676432119105536")
        assert p.returncode == 0, p.stderr

    def test_tall_lattice_is_a_check_failure(self):
        # eta's probe pairs reach about Im tau from the real axis: tau = 15i
        # and 20i build, 25i overflows theta_1's series
        for height in (15, 20):
            p = run_cli("periods", "--lattice", "1,0", f"0,{height}")
            assert p.returncode == 0, p.stderr
        p = run_cli("periods", "--lattice", "1,0", "0,25")
        assert p.returncode == 1
        assert "ConvergenceFailure" in p.stderr and "overflow" in p.stderr

    @pytest.mark.parametrize(
        "args",
        [("--lattice", "0.5", "0,0.5"), ("--curve", "3000", "0"), ("--curve", "100000", "0")],
    )
    def test_short_periods_pass(self, tmp_path, args):
        # shortest periods 0.5, 0.5 and 0.21: G4 and G6 meet their
        # tolerances, 1e-7 and 1e-9 times the curve's scale, with a proven
        # bound
        out = tmp_path / "p.json"
        p = run_cli("periods", *args, "--json", str(out))
        assert p.returncode == 0, p.stderr
        rt = load_json(out)["report"]["eisenstein_round_trip"]
        assert rt["G4"]["bound"] <= rt["G4"]["tol"] and rt["G6"]["bound"] <= rt["G6"]["tol"]

    @pytest.mark.parametrize("a,b,scale", [("1/2", "1/3", 1.0), ("5", "2", 5.0), ("100000", "0", 1e5)])
    def test_eisenstein_tolerances_scale_with_the_curve(self, tmp_path, a, b, scale):
        # as criterion 3: the tolerances are relative to max(1, |a|, |b|)
        out = tmp_path / "p.json"
        assert run_cli("periods", "--curve", a, b, "--json", str(out)).returncode == 0
        rt = load_json(out)["report"]["eisenstein_round_trip"]
        assert rt["G4"]["tol"] == 1e-7 * scale and rt["G6"]["tol"] == 1e-9 * scale

    def test_lattice_tolerances_scale_with_the_invariants(self, tmp_path):
        L = lattice_from_curve(CurveSpec(5, 2))
        out = tmp_path / "p.json"
        w1 = f"{L.omega1.real},{L.omega1.imag}"
        w2 = f"{L.omega2.real},{L.omega2.imag}"
        assert run_cli("periods", "--lattice", w1, w2, "--json", str(out)).returncode == 0
        rt = load_json(out)["report"]["eisenstein_round_trip"]
        assert abs(rt["G4"]["tol"] / 5e-7 - 1) < 1e-9

    def test_config_echo_keeps_exact_rationals(self, tmp_path):
        out = tmp_path / "p.json"
        run_cli("periods", "--curve", "9/2", "1/3", "--json", str(out))
        cfg = load_json(out)["config"]
        assert cfg["curve"] == ["9/2", "1/3"]


class TestPointEvaluation:
    def test_wfun_values(self, tmp_path):
        out = tmp_path / "w.json"
        p = run_cli("wfun", "--curve", "5", "2", "--z", "0.4,0.3", "--json", str(out))
        assert p.returncode == 0
        rep = load_json(out)["report"]
        assert rep["ode_relative_residual"] <= 1e-9

    def test_wfun_at_pole_exits_1(self):
        p = run_cli("wfun", "--curve", "5", "2", "--z", "0,0")
        assert p.returncode == 1

    def test_forms_f0_is_one(self, tmp_path):
        out = tmp_path / "f.json"
        p = run_cli(
            "forms", "--curve", "5", "2", "--z", "0.4,0.3", "--s", "0.4,-0.1",
            "--N", "3", "--json", str(out),
        )
        assert p.returncode == 0
        rep = load_json(out)["report"]
        assert rep["f"][0] == [1.0, 0.0]
        assert len(rep["f"]) == 4

    def test_forms_bad_nmax_exits_2(self):
        p = run_cli("forms", "--curve", "5", "2", "--z", "0.4,0.3", "--s", "0,0",
                    "--N", "99")
        assert p.returncode == 2

    def test_bad_complex_exits_2(self):
        p = run_cli("wfun", "--curve", "5", "2", "--z", "zebra")
        assert p.returncode == 2

    @pytest.mark.parametrize("argv", [
        ("wfun", "--z", "0.4,0.3"),
        ("forms", "--z", "0.4,0.3", "--s", "0.4,-0.1"),
    ])
    def test_no_tolerance_option(self, tmp_path, argv):
        # neither command has a tolerance to set, so --tol is not accepted
        # and the config echo carries no tol
        p = run_cli(*argv, "--tol", "1e-9")
        assert p.returncode == 2
        assert "unrecognized arguments: --tol" in p.stderr
        out = tmp_path / "r.json"
        assert run_cli(*argv, "--json", str(out)).returncode == 0
        assert "tol" not in load_json(out)["config"]


class TestBarCommand:
    def test_p1_dimension_31(self, tmp_path):
        out = tmp_path / "b.json"
        p = run_cli("bar", "--model", "p1", "--ell", "4", "--json", str(out))
        assert p.returncode == 0
        rep = load_json(out)["report"]
        assert rep["dimension"] == 31
        assert rep["all_closed"] is True

    def test_edagger_length1_letters(self, tmp_path):
        out = tmp_path / "b.json"
        p = run_cli("bar", "--model", "edagger", "--N", "3", "--ell", "1",
                    "--json", str(out))
        assert p.returncode == 0
        words = {
            tuple(t["word"])
            for el in load_json(out)["report"]["basis"]
            for t in el["terms"]
        }
        assert ("nu",) in words and ("w0",) in words

    def test_edagger_contains_canonical_two_letter_element(self, tmp_path):
        # the exact kernel at N=4, ell=2 must contain [nu|w0] - [w1]
        out = tmp_path / "b.json"
        p = run_cli("bar", "--model", "edagger", "--N", "4", "--ell", "2",
                    "--json", str(out))
        assert p.returncode == 0
        basis = [
            BarElement(
                {tuple(t["word"]): Fraction(t["coeff"]) for t in el["terms"]}
            )
            for el in load_json(out)["report"]["basis"]
        ]
        target = BarElement({("nu", "w0"): Fraction(1), ("w1",): Fraction(-1)})
        from ellbar.barcx import _in_span

        assert _in_span(basis, target)

    @pytest.mark.parametrize(
        "argv,sha256",
        [
            (("--model", "edagger", "--N", "4", "--ell", "3"),
             "4e2cc3aa8b0dd4e756126db6e73b044609c2185fc5b1e8190af244cb168bb90e"),
            (("--model", "p1", "--ell", "6"),
             "fd7eef4d2eeb63223431356bc2aabd3bf50ab4732bf01f8da08a114c7ba441f5"),
            # the benchmark's largest sizes, recorded from the kernel that
            # built each constraint row through bar_differential
            (("--model", "edagger", "--N", "5", "--ell", "3"),
             "3b4b996479fd3d993a8ccd591c0a559a2e654ec24fd58f2486ebba21e311e128"),
            (("--model", "p1", "--ell", "8"),
             "190668815f18381ab15fc33fb023078ee17bbb6104eaa06d20747d9fd5db64e6"),
        ],
    )
    def test_report_bytes_pinned(self, tmp_path, argv, sha256):
        # hashes of the report block recorded from the dense-elimination kernel
        out = tmp_path / "b.json"
        assert run_cli("bar", *argv, "--json", str(out)).returncode == 0
        report = json.dumps(load_json(out)["report"], sort_keys=True, indent=2)
        assert hashlib.sha256(report.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "argv,sha256",
        [
            (("--model", "edagger", "--N", "5", "--ell", "3"),
             "466177b2ab11cc5b0c5f8304e8bc21a60b2c5f658e7804cf13c3b1de7d7330a9"),
            (("--model", "p1", "--ell", "8"),
             "55ed6cade64f08afd771618204481afc477c3e22c4e67d93e55575685434ca36"),
        ],
    )
    def test_json_file_bytes_pinned(self, tmp_path, argv, sha256):
        # hashes of the whole --json file, recorded from the kernel that
        # eliminated every column twice and expanded every word in d_B
        out = tmp_path / "b.json"
        assert run_cli("bar", *argv, "--json", str(out)).returncode == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestFlatnessCommand:
    def test_exact(self, tmp_path):
        out = tmp_path / "k.json"
        p = run_cli("kzb-flatness", "--N", "5", "--ell", "4", "--json", str(out))
        assert p.returncode == 0
        rep = load_json(out)["report"]
        assert rep["flat"] is True and rep["nonzero_terms"] == []


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("paths")
    L = lattice_from_curve(CurveSpec(5, 2))
    z0 = 0.31 * L.omega1 + 0.22 * L.omega2
    tr = d / "translate.json"
    tr.write_text(path_to_json(translate_path(L, (1, 0), z0, 0.4 - 0.1j)))
    lp = d / "loop.json"
    lp.write_text(path_to_json(loop_path(0j, 0.25, model="p1")))
    bad = d / "through_pole.json"
    bad.write_text(path_to_json(loop_path(0.5 + 0j, 0.5, model="p1")))
    steep = d / "steep.json"
    steep.write_text(path_to_json(
        PathSpec("p1", (LineSeg(0.5, 0.01), LineSeg(0.01, 0.5 + 0.5j)))
    ))
    c = L.omega1 + 1e-3j * L.min_period()
    near = d / "near_pole.json"
    near.write_text(path_to_json(PathSpec("edagger", (
        LineSeg(c - 0.4 * L.omega1, c + 0.4 * L.omega1), LineSeg(c + 0.4 * L.omega1, z0)))))
    return {"translate": tr, "loop": lp, "bad": bad, "steep": steep, "near": near, "L": L}


class TestIntegrate:
    def test_translate_w0_gives_omega1(self, paths, tmp_path):
        out = tmp_path / "i.json"
        p = run_cli("integrate", "--curve", "5", "2",
                    "--path", str(paths["translate"]), "--word", "w0",
                    "--json", str(out))
        assert p.returncode == 0
        val = complex(*load_json(out)["report"]["value"])
        assert abs(val - paths["L"].omega1) <= 1e-9

    def test_translate_nu_gives_minus_eta(self, paths, tmp_path):
        out = tmp_path / "i.json"
        p = run_cli("integrate", "--curve", "5", "2",
                    "--path", str(paths["translate"]), "--word", "nu",
                    "--json", str(out))
        assert p.returncode == 0
        val = complex(*load_json(out)["report"]["value"])
        assert abs(val + eta_lambda(paths["L"], (1, 0))) <= 1e-9

    def test_p1_loop_gives_2pi_i(self, paths, tmp_path):
        out = tmp_path / "i.json"
        p = run_cli("integrate", "--path", str(paths["loop"]), "--word", "0",
                    "--json", str(out))
        assert p.returncode == 0
        val = complex(*load_json(out)["report"]["value"])
        assert abs(val - 2j * math.pi) <= 1e-9

    def test_panel_counters(self, paths, tmp_path):
        out = tmp_path / "i.json"
        p = run_cli("integrate", "--path", str(paths["steep"]), "--word", "01",
                    "--json", str(out))
        assert p.returncode == 0
        rep = load_json(out)["report"]
        by_seg = rep["panels_by_segment"]
        assert min(rep["rejected_bisections"]) > 0  # both segments bisect
        assert [sum(d) for d in rep["panels_by_depth"]] == by_seg
        # the root costs 1 panel, each interval that its one evaluation does
        # not accept its two halves
        for by_depth, k in zip(rep["panels_by_depth"], rep["rejected_bisections"]):
            assert by_depth[0] == 1 and all(n % 2 == 0 for n in by_depth[1:])
            assert sum(by_depth) >= 1 + 2 * k
        # genus-zero lines are never split
        assert rep["split_at"] == [None, None] and rep["roots"] == [1, 1]
        assert rep["disk"] == [None, None]

    def test_split_near_a_lattice_point(self, paths, tmp_path):
        out = tmp_path / "i.json"
        p = run_cli("integrate", "--curve", "5", "2", "--path", str(paths["near"]),
                    "--word", "w1,w2", "--json", str(out))
        assert p.returncode == 0
        assert "split at per segment = [0.5, None]" in p.stdout
        rep = load_json(out)["report"]
        assert rep["split_at"] == [0.5, None]
        # the steep line lies in the disk around the lattice point: no root,
        # no panel, one disk piece over all of it
        assert rep["roots"] == [0, 1] and rep["panels_by_depth"][0] == []
        assert [d[:2] for d in rep["disk"][0]] == [[0.0, 1.0]] and rep["disk"][1] is None
        assert "disk per segment = [[[0.0, 1.0, " in p.stdout
        assert [sum(d) for d in rep["panels_by_depth"]] == rep["panels_by_segment"]
        assert [d[0] for d in rep["panels_by_depth"][1:]] == rep["roots"][1:]

    def test_guard_violation_exits_1(self, paths):
        p = run_cli("integrate", "--path", str(paths["bad"]), "--word", "0")
        assert p.returncode == 1
        assert "GuardViolation" in p.stderr

    def test_unknown_letter_exits_2(self, paths):
        p = run_cli("integrate", "--curve", "5", "2",
                    "--path", str(paths["translate"]), "--word", "w9")
        assert p.returncode == 2
        assert "UnknownSymbol: letter 'w9' not in the model alphabet" in p.stderr

    def test_missing_path_file_exits_2(self):
        p = run_cli("integrate", "--path", "/nonexistent.json", "--word", "0")
        assert p.returncode == 2


class TestMZV:
    def test_dual_route_report(self, tmp_path):
        out = tmp_path / "m.json"
        p = run_cli("mzv", "--index", "2,1", "--json", str(out))
        assert p.returncode == 0
        rep = load_json(out)["report"]
        assert abs(rep["series"] - 1.2020569031595943) <= 1e-10
        assert rep["route_difference"] <= 1e-7

    def test_series_bound_reported(self, tmp_path):
        # the proven bound of the series route at the default tol 1e-12
        out = tmp_path / "m.json"
        assert run_cli("mzv", "--index", "2,1", "--json", str(out)).returncode == 0
        rep = load_json(out)["report"]
        assert 0 < rep["series_bound"] <= 5e-13
        with mpmath.workdps(30):
            assert abs(rep["series"] - mpmath.zeta(3)) <= rep["series_bound"]

    def test_inadmissible_exits_2(self):
        p = run_cli("mzv", "--index", "1,2")
        assert p.returncode == 2

    def test_json_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("mzv", "--index", "3", "--json", str(a))
        run_cli("mzv", "--index", "3", "--json", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestUsage:
    def test_no_subcommand_exits_2(self):
        p = run_cli()
        assert p.returncode == 2

    def test_unknown_subcommand_exits_2(self):
        p = run_cli("frobnicate")
        assert p.returncode == 2
