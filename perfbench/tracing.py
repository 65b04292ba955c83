"""Spans around the calls into each ellbar layer, installed from outside.

Each wrapper replaces the module attribute its caller looks up at call
time: ``chenint`` from-imports ``f_batch`` and ``logforms`` from-imports
``wp``/``wzeta``, so those are wrapped in the importing module, while
``_kernels.panel_transport`` and ``_kernels.eis_sum`` are looked up through
``_kernels``.  A span records its name, start, end, parent span and request
id, plus the work counters of the call; spans stay in memory until the run
writes them out.  ``src/`` is not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

import numpy as np


def _words_upto(nletters, lmax):
    return lmax + 1 if nletters == 1 else (nletters ** (lmax + 1) - 1) // (nletters - 1)


def _transport_work(args, kwargs, result):
    tol = kwargs.get("tol", 1e-10)
    return {
        "panels": sum(result.panels_by_segment),
        "err_over_tol": max(result.err_by_length.values()) / tol,
    }


# (module, attribute, span name, work counters from (args, kwargs, result))
SPANS = (
    ("ellbar._kernels", "panel_transport", "kernels.panel",
     lambda a, k, r: {"words": len(a[0]) + 1, "word_nodes": (len(a[0]) + 1) * a[2].shape[1]}),
    ("ellbar.chenint", "f_batch", "logforms.f_batch",
     lambda a, k, r: {"nodes": int(np.size(a[1]))}),
    ("ellbar.logforms", "wp", "wlattice.theta", lambda a, k, r: {"points": int(np.size(a[1]))}),
    ("ellbar.logforms", "wzeta", "wlattice.theta",
     lambda a, k, r: {"points": int(np.size(a[1]))}),
    ("ellbar.wlattice", "wp", "wlattice.theta", lambda a, k, r: {"points": int(np.size(a[1]))}),
    ("ellbar.wlattice", "wzeta", "wlattice.theta",
     lambda a, k, r: {"points": int(np.size(a[1]))}),
    ("ellbar.wlattice", "wsigma", "wlattice.theta",
     lambda a, k, r: {"points": int(np.size(a[1]))}),
    ("ellbar.chenint", "chen_transport", "chenint.transport", _transport_work),
    ("ellbar.chenint", "compose_series", "chenint.compose",
     lambda a, k, r: {"splits": len(a[2].split_u)}),
    ("ellbar.p1model", "regularized_integral_p1", "chenint.regularize", None),
    ("ellbar.wlattice", "eisenstein", "wlattice.eis", None),
    ("ellbar.wlattice", "latsum_weierstrass", "wlattice.latsum",
     lambda a, k, r: {"point_terms": int(np.size(a[1])) * ((2 * k.get("M", 60) + 1) ** 2 - 1)}),
    ("ellbar.barcx", "h0_basis", "barcx.h0",
     lambda a, k, r: {"columns": _words_upto(len(a[0].deg1), a[1]), "kernel_dim": len(r)}),
    ("ellbar.barcx", "bar_differential", "barcx.bar_differential", None),
    ("ellbar.kzbword", "canonical_series", "kzbword.canonical", None),
    ("ellbar.kzbword", "flatness_check", "kzbword.flatness", None),
    ("ellbar.p1model", "mzv_series", "p1model.mzv_series", None),
    ("ellbar.p1model", "mzv_integral", "p1model.mzv_integral", None),
)

# Counters without a span of their own: the work is added to the enclosing
# span.  eis_sum receives the box size M of the Eisenstein sum.
COUNTERS = (
    ("ellbar._kernels", "eis_sum", lambda a, k, r: {"eis_points": (2 * a[2] + 1) ** 2 - 1}),
)

MODULES = ("kernels", "logforms", "wlattice", "chenint", "barcx", "kzbword", "p1model")


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, rid, work]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.rid = -1

    def span(self, name, fn, work):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rid, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if work is not None:
                rec[5] = work(args, kwargs, result)
            return result

        return traced

    def counter(self, fn, work):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if stack:
                rec = spans[stack[-1]]
                rec[5] = {**(rec[5] or {}), **work(args, kwargs, result)}
            return result

        return counted

    def install(self):
        for module, attr, name, work in SPANS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.span(name, getattr(mod, attr), work))
        for module, attr, work in COUNTERS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.counter(getattr(mod, attr), work))

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "columns": ["name", "start", "end", "parent", "request", "work"],
            "spans": [[code[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def summarize(spans, wall):
    """Per-layer metrics from the spans of one traced run of ``wall`` seconds."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    total, self_t, calls, work = {}, {}, {}, {}
    panel_by_words = {}
    h0_by_columns = {}
    err_over_tol = 0.0
    for i, s in enumerate(spans):
        name, dur, counts = s[0], s[2] - s[1], s[5] or {}
        total[name] = total.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        for key, val in counts.items():
            if key == "err_over_tol":
                err_over_tol = max(err_over_tol, val)
                continue
            work[(name, key)] = work.get((name, key), 0) + val
        # per-size timings; a call that raised has no work counters
        for span_name, key, table in (("kernels.panel", "words", panel_by_words),
                                      ("barcx.h0", "columns", h0_by_columns)):
            if name == span_name and key in counts:
                acc = table.setdefault(counts[key], [0, 0.0])
                acc[0] += 1
                acc[1] += dur

    def t(name):
        return total.get(name, 0.0)

    def w(name, key):
        return work.get((name, key), 0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {
        "kernels.panel_s": t("kernels.panel"),
        "kernels.panel_calls": calls.get("kernels.panel", 0),
        "kernels.panel_word_nodes": w("kernels.panel", "word_nodes"),
        "kernels.panel_word_nodes_per_s": rate(w("kernels.panel", "word_nodes"),
                                               t("kernels.panel")),
        "logforms.f_batch_s": t("logforms.f_batch"),
        "logforms.f_batch_nodes": w("logforms.f_batch", "nodes"),
        "wlattice.theta_s": t("wlattice.theta"),
        "wlattice.theta_points": w("wlattice.theta", "points"),
        "chenint.transport_s": t("chenint.transport"),
        "chenint.transport_self_s": self_t.get("chenint.transport", 0.0),
        "chenint.panels": w("chenint.transport", "panels"),
        "chenint.compose_s": t("chenint.compose"),
        "chenint.compose_splits": w("chenint.compose", "splits"),
        "chenint.regularize_s": t("chenint.regularize"),
        "chenint.regularize_self_s": self_t.get("chenint.regularize", 0.0),
        "chenint.err_est_over_tol_max": err_over_tol,
        "wlattice.eis_s": t("wlattice.eis"),
        "wlattice.eis_points": w("wlattice.eis", "eis_points"),
        "wlattice.eis_points_per_s": rate(w("wlattice.eis", "eis_points"), t("wlattice.eis")),
        "wlattice.latsum_s": t("wlattice.latsum"),
        "wlattice.latsum_point_terms": w("wlattice.latsum", "point_terms"),
        "barcx.h0_s": t("barcx.h0"),
        "barcx.h0_columns": w("barcx.h0", "columns"),
        "barcx.h0_kernel_dim": w("barcx.h0", "kernel_dim"),
        "barcx.bar_differential_s": t("barcx.bar_differential"),
        "barcx.bar_differential_calls": calls.get("barcx.bar_differential", 0),
        "kzbword.canonical_s": t("kzbword.canonical"),
        "kzbword.flatness_s": t("kzbword.flatness"),
        "p1model.mzv_series_s": t("p1model.mzv_series"),
        "p1model.mzv_series_calls": calls.get("p1model.mzv_series", 0),
        "p1model.mzv_integral_s": t("p1model.mzv_integral"),
    }
    for mod in MODULES:
        own = sum(v for k, v in self_t.items() if k.split(".")[0] == mod)
        m[f"{mod}.share"] = own / wall
    detail = {
        "panel_by_words": {
            str(k): {"calls": v[0], "mean_ms": 1e3 * v[1] / v[0]}
            for k, v in sorted(panel_by_words.items())
        },
        "h0_by_columns": {
            str(k): {"calls": v[0], "mean_s": v[1] / v[0]} for k, v in sorted(h0_by_columns.items())
        },
        "unattributed_share": 1.0 - sum(m[f"{mod}.share"] for mod in MODULES),
    }
    return m, detail
