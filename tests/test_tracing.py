"""The benchmark tracer's per-layer counters against the batched transport.

``perfbench/tracing.py`` wraps module attributes, so transport must look up
``f_batch``, ``compose_series`` and ``_kernels.panel_transport`` through
them at call time.  Its counters must keep their meaning when one call
covers many panels: a kernel call's word-nodes are its words times the
nodes of all its panels, and ``f_batch``'s nodes are those of all panels.
The tracer is read from its file, not edited, and uninstalled afterwards.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ellbar import chenint, logforms, p1model, wlattice

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    wrapped = [(m, a) for m, a, *_ in module.SPANS + module.COUNTERS]
    saved = [(importlib.import_module(m), a) for m, a in wrapped]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr in saved]
    tracer = module.Tracer()
    tracer.install()
    yield module, tracer
    for mod, attr, fn in reversed(saved):
        setattr(mod, attr, fn)


def test_panel_and_node_counters(tracing):
    module, tracer = tracing
    L = wlattice.lattice_from_curve(wlattice.CurveSpec(5, 2))
    model = chenint.EdaggerModel(logforms.ExtLattice(L, nmax=4))
    c = L.omega1 + 1j * 1e-3 * L.min_period() * L.omega1 / abs(L.omega1)
    steep = chenint.line_path("edagger", c - 0.4 * L.omega1, c + 0.4 * L.omega1)
    deep = chenint.loop_pair_library(model.ext)[1][2]
    panels = word_nodes = composes = 0
    splits = []
    for path, letters, lmax in ((steep, ("w1", "w2"), 2), (deep, None, 4)):
        r = chenint.chen_transport(model, path, letters=letters, lmax=lmax, tol=1e-10)
        splits.append(r.split_at)
        words = len(chenint._word_table(r.letters, lmax).words)
        panels += sum(r.panels_by_segment)
        word_nodes += words * 24 * sum(r.panels_by_segment)
        # per segment: its accepted intervals (one per root, one more per
        # rejected interval) fold into one per ordinary piece, and its
        # pieces, disk pieces too, into one; a disk piece composes its two
        # ends' series and their magnitudes; then one per join of segments
        for n, k, disk in zip(r.roots, r.rejected_bisections, r.disk):
            composes += k + n + 3 * len(disk or ()) - 1
        composes += len(path.segments) - 1
        # and the intervals whose halves were evaluated, two panels each
        # past the roots' one, the 1555-word table's composed one at a time;
        # the steep line lies in the disk around omega1: no root, no panel
        if path is steep:
            assert r.panels_by_segment == r.roots == (0,)
            assert [d[:2] for d in r.disk[0]] == [(0.0, 1.0)]
        else:
            composes += sum((p - n) // 2 for p, n in zip(r.panels_by_segment, r.roots))
            depths = max(len(d) for d in r.panels_by_depth)
    assert splits == [(0.5,), (None, None)]  # only the steep line is split
    m, _ = module.summarize(tracer.spans, 1.0)
    assert m["chenint.panels"] == panels
    assert m["kernels.panel_word_nodes"] == word_nodes
    assert m["logforms.f_batch_nodes"] == 24 * panels
    assert m["chenint.compose_splits"] > 0
    assert sum(1 for s in tracer.spans if s[0] == "chenint.compose") == composes
    # one kernel call per bisection depth of the deep path's two segments
    # together, not one per panel
    assert m["kernels.panel_calls"] == depths < panels


@pytest.mark.parametrize("ks", [(2,), (3, 2), (2, 2, 3)])
def test_regularization_counters(tracing, ks):
    # the regularization transports only the middle piece, as its two
    # halves, on the factors of its word, with one kernel call per panel
    # depth
    module, tracer = tracing
    p1model.mzv_integral(ks)
    m, _ = module.summarize(tracer.spans, 1.0)
    letters = chenint._p1_word(p1model.MZVIndex(ks).word())
    table = chenint._factor_table(("om0", "om1"), letters)
    halves = [chenint.LineSeg(chenint._DELTA, 0.5), chenint.LineSeg(0.5, 1 - chenint._DELTA)]
    st = chenint._SegmentTransport(chenint.P1Model(), halves, table, 1e-11, 16)
    st.run()
    assert len(table.words) < len(chenint._word_table(table.letters, len(letters)).words)
    assert m["kernels.panel_word_nodes"] == len(table.words) * 24 * sum(st.npanels)
    assert m["kernels.panel_calls"] == max(len(d) for d in st.panels_by_depth)
