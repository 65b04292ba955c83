"""The criteria runner: an entry keeps its criterion's id and name."""

from fractions import Fraction

from ellbar import verify
from ellbar.errors import ProbeInconsistency

CFG = {"curve_a": Fraction(5), "curve_b": Fraction(2), "tol": None, "criteria": [2]}


def test_raising_criterion_keeps_its_id_and_name(monkeypatch):
    (passing,) = verify.run_criteria(CFG)
    assert passing["passed"]

    def fail(*args):
        raise ProbeInconsistency("probes disagree")

    monkeypatch.setattr(verify, "eta_lambda", fail)
    (failing,) = verify.run_criteria(CFG)
    assert (failing["id"], failing["name"]) == (passing["id"], passing["name"]) == (
        2, "legendre-relation")
    assert not failing["passed"]
    assert failing["error"] == "ProbeInconsistency: probes disagree"


def test_ids_follow_the_order():
    assert [fn.head["id"] for fn in verify.CRITERIA] == list(range(1, 13))
    assert len({fn.head["name"] for fn in verify.CRITERIA}) == 12
