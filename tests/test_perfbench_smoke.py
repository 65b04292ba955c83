"""The benchmark's workloads still run on the program: for each workload, the
warm-up, the first complete round of requests with every check passing, and
the known-defect probes, as ``perfbench/run.py`` judges them."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("workloads"), _load("child")


@pytest.mark.parametrize("name", ["transport", "genus0", "lattice", "algebra"])
def test_first_round_and_probes(bench, name):
    workloads, child = bench
    workload = workloads.WORKLOADS[name](SEED)
    workload.warmup()
    for req in workload.requests():
        _, failures = workload.run(req)
        assert failures == [], (req, failures)
        if req.round_end:
            break
    # a probe may still raise its recorded error or no longer raise at all
    for probe in child.probe_defects(workload):
        assert probe["observed"] in (probe["expected"], None), probe
