"""One workload process: import, generate, warm up, then timed passes.

Run from the root of a metricforge checkout; ``run.py`` starts it.  It
imports metricforge only from ``./src``.  After the warm-up it prints
``READY <monotonic seconds> <probe seconds>`` so the parent can time
set-up from outside, at the reference speed (probe.py);
with ``--setup-only`` it exits there.  Otherwise it runs whole passes over
the task pool until ``--seconds`` of task time is spent, checks every task
outside the timed region, and prints one JSON line of raw results.

With ``--trace 1`` it alternates untraced and traced passes; the traced
ones wrap metricforge's public functions (see tracer.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3
MIN_TRACE_PASSES = 2     # one untraced, one traced
HARD_LIMIT_S = 150.0     # stop starting passes after this much wall time
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10
REF_REPEATS = 3
PROBE_EVERY_S = 0.25


def import_checkout(root: str):
    """Put ``root/src`` first on the path and import metricforge from it,
    refusing any other installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "metricforge", "__init__.py")):
        raise SystemExit(f"no metricforge sources under {src}")
    sys.path.insert(0, src)
    import metricforge
    if os.path.dirname(os.path.dirname(os.path.abspath(metricforge.__file__))) \
            != os.path.abspath(src):
        raise SystemExit(f"imported metricforge from {metricforge.__file__}")
    return metricforge


def tail_latency(latencies: list[float]):
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND tasks above it, by the nearest-rank rule."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        beyond = n - math.ceil(p / 100.0 * n)
        if beyond >= TAIL_BEYOND:
            return p, xs[math.ceil(p / 100.0 * n) - 1]
    return 50.0, statistics.median(xs)


def throughput(per_task: list[list[float]]) -> float:
    """Tasks per second of one pass, each task timed at the median of its
    repetitions."""
    return len(per_task) / sum(statistics.median(ts) for ts in per_task)


def _ref_timings(pool) -> dict:
    """numpy/scipy equivalents of the tasks that have one (informational),
    at the reference speed."""
    before = probe.probe_s()
    medians = []
    for task in pool:
        if task.ref is None:
            continue
        reps = []
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            task.ref()
            reps.append(time.perf_counter() - t0)
        medians.append(statistics.median(reps))
    if not medians:
        return {}
    f = probe.factor(before, probe.probe_s())
    return {"ref.tasks_per_s": len(medians) / (f * sum(medians)),
            "ref.task_p50_ms": 1e3 * f * statistics.median(medians)}


def _summary(per_task: list[list[float]]) -> dict:
    timed = [ts for ts in per_task if ts]
    lat = [t for ts in timed for t in ts]
    pct, tail = tail_latency(lat)
    return {"tasks_per_s": throughput(timed),
            "task_p50_ms": 1e3 * statistics.median(lat),
            "task_tail_ms": 1e3 * tail,
            "tail_percentile": pct,
            "untraced_tasks": len(lat)}


def measure(pool, seconds: float, tracer=None, install=None) -> dict:
    """Whole passes over the pool until ``seconds`` of task time is spent.

    A probe runs at least every PROBE_EVERY_S of wall time and at the end
    of each pass; every task time is scaled to the reference speed by the
    probes around it (see probe.py).  Untraced task times feed the
    end-to-end metrics; in trace mode every other pass is traced.
    """
    per_task = [[] for _ in pool]    # reference-speed seconds
    raw_task = [[] for _ in pool]    # as timed
    pass_times = []                  # (traced, reference-speed seconds)
    factors = []
    failures = {}
    digits = []
    band = 0
    attempted = failed = 0
    start = time.monotonic()
    timed = traced_raw = 0.0
    last_probe = probe.probe_s()
    last_at = time.perf_counter()
    while True:
        traced = tracer is not None and len(pass_times) % 2 == 1
        if traced:
            install()
        spent = spent_ref = 0.0
        segment = []
        for i, task in enumerate(pool):
            if traced:
                tracer.task = i
            t0 = time.perf_counter()
            try:
                out, exc = task.run(), None
            except Exception as e:   # judged by the task's oracle
                out, exc = None, e
            dt = time.perf_counter() - t0
            spent += dt
            segment.append((i, dt))
            verdict = task.check(out, exc)
            attempted += 1
            band += verdict.band
            if verdict.ok:
                if verdict.digits is not None:
                    digits.append(verdict.digits)
            else:
                failed += 1
                failures.setdefault(task.id, verdict.reason)
            if i == len(pool) - 1 \
                    or time.perf_counter() - last_at >= PROBE_EVERY_S:
                now = probe.probe_s()
                f = probe.factor(last_probe, now)
                factors.append(f)
                for j, d in segment:
                    spent_ref += d * f
                    if not traced:
                        per_task[j].append(d * f)
                        raw_task[j].append(d)
                segment = []
                last_probe, last_at = now, time.perf_counter()
        if traced:
            tracer.uninstall()
            traced_raw += spent
        pass_times.append((traced, spent_ref))
        timed += spent
        mean_pass = timed / len(pass_times)
        need = MIN_TRACE_PASSES if tracer is not None else MIN_PASSES
        if len(pass_times) >= need and (
                timed + mean_pass / 2.0 > seconds
                or time.monotonic() - start > HARD_LIMIT_S):
            break
    res = {
        **_summary(per_task),
        "raw": {k: v for k, v in _summary(raw_task).items()
                if k != "untraced_tasks"},
        "speed_factor_median": statistics.median(factors),
        "speed_factor_range": [min(factors), max(factors)],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "band_points": band,
        "passes": len(pass_times),
        "pool_size": len(pool),
        "timed_s": timed,
        "fail_ratio": failed / attempted,
        "accuracy_digits": min(digits) if digits else None,
        "kinds_p50_ms": _kind_medians(pool, per_task),
    }
    if tracer is not None:
        untraced = [s for t, s in pass_times if not t]
        traced_s = [s for t, s in pass_times if t]
        res["traced_passes"] = len(traced_s)
        res["traced_s"] = traced_raw
        res["trace.overhead_ratio"] = (statistics.median(traced_s)
                                       / statistics.median(untraced))
    return res


def _kind_medians(pool, per_task) -> dict:
    kinds = {}
    for task, ts in zip(pool, per_task):
        kinds.setdefault(task.kind, []).extend(ts)
    return {k: 1e3 * statistics.median(v) for k, v in sorted(kinds.items()) if v}


def trace_metrics(tracer, res) -> dict:
    """Per-pass calls, self time, failures and n^3 work of every listed
    function, and the check that self times account for the traced time."""
    from tracer import LAYERS
    summary = tracer.summary()
    passes = res["traced_passes"]
    out = {}
    for layer, names in LAYERS.items():
        for name in names:
            row = summary["functions"].get(f"{layer}.{name}", {})
            key = f"{layer}.{name}"
            out[f"{key}.calls"] = row.get("calls", 0) / passes
            out[f"{key}.self_s"] = row.get("self_s", 0.0) / passes
            out[f"{key}.failed"] = row.get("failed", 0) / passes
            if layer == "linalg":
                out[f"{key}.work_n3"] = row.get("work_n3", 0) / passes
    coverage = summary["self_total_s"] / res["traced_s"]
    out["trace.overhead_ratio"] = res["trace.overhead_ratio"]
    out["trace.coverage"] = coverage
    # Time outside every span is the benchmark's own glue; it may not
    # exceed the tracing overhead plus a small allowance.
    slack = max(res["trace.overhead_ratio"] - 1.0, 0.0) + 0.05
    res["trace_check_ok"] = 1.0 - slack <= coverage <= 1.0 + 1e-9
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    metricforge = import_checkout(root)
    import numpy
    import scipy
    import workloads
    out_root = os.path.join(HERE, "out")
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        pool, warm = workloads.build(args.workload, args.seed, workdir)
        for task in warm:
            try:
                task.run()
            except Exception:   # the timed passes check every task
                pass
        ready = time.monotonic()
        print(f"READY {ready!r} {probe.probe_s()!r}", flush=True)
        if args.setup_only:
            return 0
        tracer = install = None
        if args.trace:
            from tracer import LAYERS, Tracer
            tracer = Tracer()
            modules = {layer: getattr(metricforge, layer) for layer in LAYERS}

            def install():
                tracer.install(metricforge, modules)

        res = measure(pool, args.seconds, tracer, install)
        res["versions"] = {"numpy": numpy.__version__,
                           "scipy": scipy.__version__}
        res["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            res["layers"] = trace_metrics(tracer, res)
            spans = os.path.join(
                out_root, f"spans-{args.workload}-seed{args.seed}.json")
            tracer.write(spans)
            res["spans_file"] = os.path.relpath(spans, root)
        else:
            res.update(_ref_timings(pool))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
