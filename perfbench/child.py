"""One benchmark process: set up a workload, then run requests in a closed loop.

Started by run.py with ellbar's ``src`` on PYTHONPATH and the BLAS threads
pinned.  Modes:

* ``setup``  -- set up (inputs, lattices, warm-ups) and report the set-up time;
* ``run``    -- set up, then run requests one at a time until ``--seconds``
  have passed and the current round of the request mix is complete;
* ``replay`` -- set up, then run the listed request ids untraced and report
  their digests and wall time; then probe the workload's known defects.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction
from time import perf_counter

CAL_EVERY_S = 0.1  # least time between two calibrations in the timed loop
SETUP_CALIBRATIONS = 5


def _threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def _execute(workload, req):
    """Run one request and return its record."""
    t0 = perf_counter()
    try:
        dig, failures = workload.run(req)
        error = None
    except Exception as exc:  # a failed request is recorded, never retried
        dig, failures = None, []
        error = {"type": type(exc).__name__, "message": str(exc)[:200]}
    return {"rid": req.rid, "kind": req.kind, "label": workload.label(req),
            "round_end": req.round_end, "seconds": perf_counter() - t0, "digest": dig,
            "failures": failures, "error": error}


def calibrate():
    """Seconds this process takes for a fixed piece of the benchmark's own
    work: a probe of the machine's speed at this moment.

    The work is exact rational arithmetic stored in a dict, object-heavy
    Python like most of ellbar's, which the machine's slow phases slow down
    the way they slow ellbar; it runs no ellbar code.
    """
    t0 = perf_counter()
    table = {}
    for i in range(1, 601):
        table[(i % 97, i)] = Fraction(i, 7) + Fraction(1, i + 1)
    sum(table.values())
    return perf_counter() - t0


def closed_loop(workload, seconds, tracer=None):
    """Run requests until ``seconds`` have passed and a round is complete.

    Untraced, and for a workload whose times are speed-normalized, the loop
    also calibrates before the first request, after the last, and after any
    request that ends at least CAL_EVERY_S after the previous calibration;
    ``cal_before`` of a record indexes the last calibration before it, and
    the next one follows it.
    """
    records, cal = [], []
    calibrating = tracer is None and workload.SPEED_NORMALIZED
    start = last_cal = perf_counter()
    if calibrating:
        cal.append(calibrate())
    for req in workload.requests():
        if tracer is not None:
            tracer.rid = req.rid
        rec = _execute(workload, req)
        rec["cal_before"] = len(cal) - 1
        records.append(rec)
        if req.round_end and perf_counter() - start >= seconds:
            break
        if calibrating and perf_counter() - last_cal >= CAL_EVERY_S:
            cal.append(calibrate())
            last_cal = perf_counter()
    wall = perf_counter() - start
    if calibrating:
        cal.append(calibrate())
    return records, wall, cal


def replay(workload, rids):
    wanted = set(rids)
    records = []
    start = perf_counter()
    for req in workload.requests():
        if req.rid in wanted:
            records.append(_execute(workload, req))
            wanted.discard(req.rid)
            if not wanted:
                break
    return records, perf_counter() - start


def probe_defects(workload):
    """Make each known-defect call once and record what it raises."""
    out = []
    for name, expected, call in workload.defect_probes():
        try:
            call()
            observed = None
        except Exception as exc:
            observed = type(exc).__name__
        out.append({"name": name, "expected": expected.__name__, "observed": observed})
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "replay"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--rids", default="")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--trace-file", default="")
    args = ap.parse_args(argv)

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warmup()
    setup_s = time.monotonic() - args.spawned
    out = {"setup_s": setup_s,
           "setup_cal_s": sorted(calibrate() for _ in range(SETUP_CALIBRATIONS))[
               SETUP_CALIBRATIONS // 2]}
    if args.mode == "run":
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        records, wall, cal = closed_loop(workload, args.seconds, tracer)
        out.update(records=records, wall_s=wall, cal_s=cal,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   threads=_threads())
        if tracer is not None:
            metrics, detail = tracing.summarize(tracer.spans, wall)
            out.update(layer_metrics=metrics, layer_detail=detail, spans=len(tracer.spans))
            if args.trace_file:
                tracer.write(args.trace_file)
    elif args.mode == "replay":
        rids = [int(r) for r in args.rids.split(",") if r]
        records, wall = replay(workload, rids)
        out.update(records=records, wall_s=wall, defects=probe_defects(workload))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
