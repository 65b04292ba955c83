"""ellbar benchmark: one command, four seeded workloads, checked results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload names, metric units and default run length come from
BENCHMARK.json at the repository root, the benchmark's only definition.

Load is a closed loop: one client, one process, one thread; the next
request starts when the previous one has returned.  Every request runs in
a child process started from a fresh interpreter with ellbar's ``src`` on
PYTHONPATH and the BLAS threads pinned to one.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
Set-up time is the median over ten fresh interpreters: four that only set up
before the timed loop, the one that runs it, one that then replays the first
request of each class (whose digests must match the timed run's) and probes
the workload's known defects, and four more that only set up, so the
samples span the whole run.

With ``--trace 1`` the timed loop runs with spans around the calls into each
ellbar layer and reports the per-layer metrics; a second fresh process then
replays every request of the traced run untraced, which both checks that the
digests repeat exactly and gives the tracing overhead, and then probes
the known defects.

The end-to-end times are brought to a reference machine speed: each
request's wall time is scaled by REF_CAL_S over the calibrations
(child.calibrate) made just before and after it, and each set-up time by
REF_CAL_S over calibrations made right after it.  Workloads whose requests
are not interpreter-bound (SPEED_NORMALIZED false) report plain wall time
for their requests.  Every run also prints the wall-clock figures.

No timed request is expected to fail: any request that raises or fails its
check counts as failed and makes the run incorrect, as does a known-defect
probe that raises an error other than the one recorded.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The full
result, and the spans of a traced run, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_PROCESSES = 4  # before the timed loop, and as many again after it
TAIL_BEYOND = 10  # samples beyond the tail percentile
BLAS_THREADS = 1
HELPER_TIMEOUT_S = 60
REF_CAL_S = 4.0e-3  # child.calibrate() time at the reference machine speed


class BenchmarkError(Exception):
    """The benchmark itself could not run."""


def _pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"benchmark failed: cannot read BENCHMARK.json: {exc}") from exc


def _child(mode, args, timeout, **extra):
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned", repr(time.monotonic())]
    for key, val in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(val)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=_child_env(), cwd=str(ROOT))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} process exceeded {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{mode} process exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def environment():
    import numpy

    import mpmath

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": _git_commit(),
        "numba_present": importlib.util.find_spec("numba") is not None,
    }


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=HELPER_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def latency_stats(seconds):
    """Median and the highest percentile with at least ten samples beyond it.

    With ten samples or fewer there is no such percentile, and the tail is
    None.
    """
    ms = sorted(1e3 * s for s in seconds)
    n = len(ms)
    stats = {"p50_ms": statistics.median(ms), "tail_ms": None, "tail_percentile": None,
             "tail_samples_beyond": None, "samples": n}
    if n > TAIL_BEYOND:
        tail_rank = n - TAIL_BEYOND  # 1-based rank of the tail sample
        stats.update(tail_ms=ms[tail_rank - 1], tail_percentile=100.0 * tail_rank / n,
                     tail_samples_beyond=TAIL_BEYOND)
    return stats


def speed_factors(records, cal):
    """Per request, REF_CAL_S over the mean of the calibrations just before
    and just after it: the factor that brings its wall time to the
    reference machine speed."""
    return [2.0 * REF_CAL_S / (cal[r["cal_before"]] + cal[r["cal_before"] + 1])
            for r in records]


def _first_of_each_class(records):
    seen = {}
    for r in records:
        seen.setdefault(r["kind"], r["rid"])
    return sorted(seen.values())


def _compare_digests(records, replayed):
    by_rid = {r["rid"]: r["digest"] for r in records}
    return [f"request {r['rid']}: {by_rid.get(r['rid'])} then {r['digest']}"
            for r in replayed if by_rid.get(r["rid"]) != r["digest"]]


def run(args):
    if not (ROOT / "src" / "ellbar" / "__init__.py").is_file():
        raise BenchmarkError(f"no ellbar sources under {ROOT / 'src'}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    # The timed loop stops at the first round boundary after --seconds, and a
    # traced run's replay repeats the whole loop, so each may run about
    # twice --seconds; the margin covers set-up and the last round.
    child_timeout = 2 * args.seconds + HELPER_TIMEOUT_S
    setup_only = 0 if args.trace else SETUP_ONLY_PROCESSES
    setups = [_child("setup", args, HELPER_TIMEOUT_S) for _ in range(setup_only)]
    trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    main = _child("run", args, child_timeout,
                  **({"trace_file": trace_file} if args.trace else {}))
    records = main["records"]
    rids = [r["rid"] for r in records] if args.trace else _first_of_each_class(records)
    rep = _child("replay", args, child_timeout, rids=",".join(map(str, rids)))
    setups += [main, rep]
    setups += [_child("setup", args, HELPER_TIMEOUT_S) for _ in range(setup_only)]
    setup_wall = [p["setup_s"] for p in setups]
    setup_ref = [p["setup_s"] * REF_CAL_S / p["setup_cal_s"] for p in setups]
    mismatches = _compare_digests(records, rep["records"])

    attempted = len(records)
    failed = [r for r in records if r["error"] or r["failures"]]
    defects = rep["defects"]
    unexpected = [d for d in defects if d["observed"] not in (d["expected"], None)]
    wall_seconds = [r["seconds"] for r in records]
    cal = main["cal_s"]
    factors = speed_factors(records, cal) if cal else [1.0] * attempted
    ref_seconds = [t * f for t, f in zip(wall_seconds, factors)]
    lat = latency_stats(ref_seconds)
    wall_lat = latency_stats(wall_seconds)
    if not args.trace and lat["tail_ms"] is None:
        raise BenchmarkError(f"latency_tail_ms needs more than {TAIL_BEYOND} requests, "
                             f"the run made {attempted}; raise --seconds")
    first_round = records[: next(i for i, r in enumerate(records) if r["round_end"]) + 1]
    correct = not failed and not unexpected and not mismatches

    ok = attempted - len(failed)
    end_to_end = {
        "throughput_rps": ok / sum(ref_seconds),
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": statistics.median(setup_ref),
    }
    wall_clock = {
        "throughput_rps": ok / sum(wall_seconds),
        "latency_p50_ms": wall_lat["p50_ms"],
        "latency_tail_ms": wall_lat["tail_ms"],
        "setup_s": statistics.median(setup_wall),
    }
    result.update(
        attempted=attempted, failed=len(failed), failed_ratio=len(failed) / attempted,
        correct=correct, wall_s=main["wall_s"], latency=lat, end_to_end=end_to_end,
        wall_clock=wall_clock, setup_samples_s=setup_ref, setup_wall_samples_s=setup_wall,
        speed_normalized=bool(cal),
        speed_factor={"median": statistics.median(factors), "min": min(factors),
                      "max": max(factors)},
        threads_at_end=main["threads"],
        by_class=_by_class(records), failures=_failure_summary(failed), known_defects=defects,
        requests=[[r["rid"], r["label"], r["seconds"], f, bool(r["error"] or r["failures"])]
                  for r, f in zip(records, factors)],
        determinism={"replayed": len(rids), "mismatches": mismatches,
                     "first_round_requests": len(first_round),
                     "first_round_hash": _hash(first_round), "run_hash": _hash(records)},
    )
    if args.workload == "genus0":
        seen, repeats = set(), 0
        for r in records:
            repeats += r["label"] in seen
            seen.add(r["label"])
        result["repeated_index_share"] = repeats / attempted
    if args.trace:
        layer = dict(main["layer_metrics"])
        layer["trace.overhead_ratio"] = main["wall_s"] / rep["wall_s"]
        result.update(layer_metrics=layer, layer_detail=main["layer_detail"],
                      spans=main["spans"], untraced_wall_s=rep["wall_s"],
                      trace_file=str(trace_file.relative_to(ROOT)))
    with open(out_dir / f"result-{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def _hash(records):
    return hashlib.sha256("".join(str(r["digest"]) for r in records).encode()).hexdigest()[:16]


def _by_class(records):
    out = {}
    for r in records:
        c = out.setdefault(r["kind"], {"requests": 0, "failed": 0, "seconds": 0.0})
        c["requests"] += 1
        c["failed"] += bool(r["error"] or r["failures"])
        c["seconds"] += r["seconds"]
    return out


def _failure_summary(failed):
    out = {}
    for r in failed:
        why = r["error"]["type"] if r["error"] else "; ".join(r["failures"])
        out.setdefault(r["label"], {"count": 0, "reason": why})["count"] += 1
    return dict(sorted(out.items()))


def report(result, args, units):
    lines = [f"ellbar benchmark: workload {args.workload}, seed {args.seed}, "
             f"{args.seconds:g} s, trace {args.trace}"]
    env = result["environment"]
    lines.append("environment: " + ", ".join(f"{k}={v}" for k, v in env.items())
                 + f", threads_at_end={result['threads_at_end']}")
    lat = result["latency"]
    lines.append(f"requests: {result['attempted']} attempted, {result['failed']} failed, "
                 f"wall {result['wall_s']:.3f} s")
    for kind, c in result["by_class"].items():
        lines.append(f"  class {kind}: {c['requests']} requests, {c['failed']} failed, "
                     f"{c['seconds']:.3f} s")
    if args.trace:
        for name, value in result["layer_metrics"].items():
            lines.append(f"{name} = {value:.6g} {units[name]}")
        detail = result["layer_detail"]
        for words, d in detail["panel_by_words"].items():
            lines.append(f"  panel at {words} words: {d['calls']} calls, {d['mean_ms']:.4f} ms each")
        for cols, d in detail["h0_by_columns"].items():
            lines.append(f"  h0_basis at {cols} columns: {d['calls']} calls, {d['mean_s']:.4f} s each")
        lines.append(f"  unattributed share (benchmark code, checks, path set-up): "
                     f"{detail['unattributed_share']:.4f}")
    else:
        for name, value in result["end_to_end"].items():
            lines.append(f"{name} = {value:.6g} {units[name]}")
        lines.append(f"  latency_tail_ms is p{lat['tail_percentile']:.2f}: "
                     f"{lat['tail_samples_beyond']} of {lat['samples']} samples beyond it")
        lines.append(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in result['setup_samples_s'])}")
        sf = result["speed_factor"]
        if result["speed_normalized"]:
            lines.append(f"  times above are at the reference speed; per-request speed factor "
                         f"median {sf['median']:.4f}, range {sf['min']:.4f}-{sf['max']:.4f}")
        else:
            lines.append("  request times above are wall time; setup_s is at the reference speed")
        lines.append("  wall clock: " + ", ".join(
            f"{name} = {value:.6g} {units[name]}" for name, value in result["wall_clock"].items()))
    lines.append(f"failed_ratio = {result['failed_ratio']:.6g} 1 "
                 f"({result['failed']} of {result['attempted']})")
    for key, f in result["failures"].items():
        lines.append(f"  FAILED: {key} x{f['count']}: {f['reason']}")
    for d in result["known_defects"]:
        seen = d["observed"] or "nothing"
        verdict = {d["expected"]: "defect still present", None: "defect no longer shows"}.get(
            d["observed"], "UNEXPECTED")
        lines.append(f"known defect probe: {d['name']} raised {seen} "
                     f"(recorded: {d['expected']}): {verdict}")
    if "repeated_index_share" in result:
        lines.append(f"repeated_index_share = {result['repeated_index_share']:.4f}")
    det = result["determinism"]
    lines.append(f"determinism: {det['replayed']} requests replayed in a fresh process, "
                 f"{len(det['mismatches'])} mismatches; first-round hash "
                 f"{det['first_round_hash']} ({det['first_round_requests']} requests), "
                 f"run hash {det['run_hash']}")
    for m in det["mismatches"]:
        lines.append(f"  MISMATCH {m}")
    return lines


def final_json(result, args, units):
    metrics = result["layer_metrics"] if args.trace else result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    bench = load_spec()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _pin_blas_threads()
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in report(result, args, units):
        print(line)
    print(json.dumps(final_json(result, args, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
