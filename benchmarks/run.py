"""metricforge benchmark entry point.

Run from the root of a metricforge checkout:

    python3 benchmarks/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

One workload prints an environment line, a details line and, last, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).  ``--workload all`` runs every
workload in turn and prints each metric by name with its unit.

Each workload runs in fresh worker processes (worker.py) with one BLAS
thread.  ``setup_s`` is the median over seven fresh processes (three
before, the measured one, three after) of the time from process start to
the end of the warm-up.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

THREADS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
               "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(THREADS_ENV)

import probe  # noqa: E402  (after the thread pinning, it imports numpy)

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_BEFORE = 3   # set-up-only processes before the measured one
SETUP_AFTER = 3    # and after it, so the samples span the whole run
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str], root: str, deadline: float):
    """Run one worker; return (set-up seconds at the reference speed, set-up
    seconds as timed, stdout lines).  The set-up is bracketed by a probe
    here and one the worker runs right after its warm-up."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    before = probe.probe_s()
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=root,
                              stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    ready = [ln for ln in lines if ln.startswith("READY ")]
    if not ready:
        raise BenchError("worker never reported READY")
    _, at, after = ready[0].split()
    setup = float(at) - t0
    return setup * probe.factor(before, float(after)), setup, lines


def run_workload(root: str, workload: str, seed: int, seconds: float,
                 trace: int, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    probe.probe_s()   # first call pays numpy's lazy set-up
    extra = 0 if trace else SETUP_BEFORE
    samples = [_spawn(base + ["--setup-only"], root, deadline)[:2]
               for _ in range(extra)]
    *sample, lines = _spawn(base, root, deadline)
    samples.append(sample)
    extra = 0 if trace else SETUP_AFTER
    samples += [_spawn(base + ["--setup-only"], root, deadline)[:2]
                for _ in range(extra)]
    res = json.loads(lines[-1])
    res["setup_s"] = statistics.median(s[0] for s in samples)
    res["raw"]["setup_s"] = statistics.median(s[1] for s in samples)
    res["setup_samples_s"] = [s[0] for s in samples]
    return res


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: str) -> str | None:
    """HEAD of the checkout when it is itself a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    parts = out.stdout.split()
    if out.returncode != 0 or len(parts) != 2 \
            or os.path.realpath(parts[0]) != os.path.realpath(root):
        return None
    return parts[1]


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(root: str, versions: dict) -> dict:
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(root),
        "src_sha256": _source_digest(root),
        "threads_env": THREADS_ENV,
    }


def contract_result(spec: dict, res: dict, trace: int) -> dict:
    source = res["layers"] if trace else res
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = source.get(m["name"])
        if not isinstance(value, (int, float)):
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = res["failed"] == 0 and res.get("trace_check_ok", True)
    return {"correct": bool(correct), "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


REF_UNITS = {"ref.tasks_per_s": "1/s", "ref.task_p50_ms": "ms"}
DETAIL_KEYS = ("raw", "speed_factor_median", "speed_factor_range",
               "passes", "pool_size", "untraced_tasks", "timed_s",
               "tail_percentile", "fail_ratio", "failures", "band_points",
               "setup_samples_s", "kinds_p50_ms", "ref.tasks_per_s",
               "ref.task_p50_ms", "traced_passes", "spans_file",
               "trace_check_ok")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="metricforge benchmark")
    ap.add_argument("--workload", required=True,
                    help="workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "metricforge",
                                       "__init__.py")):
        print("run from the root of a metricforge checkout "
              "(src/metricforge not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in todo):
        print(f"unknown workload {args.workload!r}; known: {names}",
              file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for workload in todo:
        deadline = time.monotonic() + DEADLINE_S
        try:
            res = run_workload(root, workload, args.seed, args.seconds,
                               args.trace, deadline)
            result = contract_result(spec, res, args.trace)
        except BenchError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        env = environment(root, res.pop("versions"))
        details = {k: res[k] for k in DETAIL_KEYS if k in res}
        record = {"workload": workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "env": env,
                  "details": details, "result": result}
        with open(os.path.join(out_dir, f"result-{workload}-seed{args.seed}"
                               f"-trace{args.trace}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        rows.append((workload, details, result))
        if args.workload != "all":
            print("env " + json.dumps(env))
            print("details " + json.dumps(details))
            print(json.dumps(result))
            return 0

    for workload, details, result in rows:
        print(f"== {workload}: {result['attempted']} tasks, "
              f"{result['failed']} failed, "
              f"tail at p{details['tail_percentile']:g} of "
              f"{details['untraced_tasks']} timed tasks")
        metrics = dict(result["metrics"])
        metrics["fail_ratio"] = {"value": details["fail_ratio"],
                                 "unit": "ratio"}
        for key, unit in REF_UNITS.items():
            if key in details:
                metrics[key] = {"value": details[key], "unit": unit}
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
        for tid, reason in details["failures"].items():
            print(f"  FAILED {tid}: {reason}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
