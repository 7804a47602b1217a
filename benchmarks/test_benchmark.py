"""Tests of the benchmark itself: oracles reject wrong results, the tracer
accounts self time, the tail rule and the refusal path of run.py.

    python3 -m pytest benchmarks -q
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402
from metricforge import metric  # noqa: E402


def _rng():
    return np.random.default_rng(7)


def _run_and_check(task):
    out = task.run()
    verdict = task.check(out, None)
    assert verdict.ok, verdict.reason
    return out


def test_warm_up_tasks_pass_their_oracles(tmp_path):
    for name in W.WORKLOADS:
        _, warm = W.build(name, 3, str(tmp_path))
        for task in warm:
            _run_and_check(task)


def test_flipped_metric_sign_fails():
    task = W._jc_full_task("t", W.jc_full_params(_rng(), 2, 0.5))
    pairs, m, report, das, cmp_ = _run_and_check(task)
    flipped = np.array(m.matrix)
    off = ~np.eye(flipped.shape[0], dtype=bool)
    flipped[off] = -flipped[off]
    bad = dataclasses.replace(m, matrix=flipped)
    verdict = task.check((pairs, bad, report, das, cmp_), None)
    assert not verdict.ok and "intertwining" in verdict.reason


def test_shifted_ep_fails():
    family, base, axis, x_star, disc = W._line_jc(_rng())
    grid = [float(x) for x in np.linspace(0.5 * x_star, 1.5 * x_star, 101)]
    task = W._scan_task("t", family, base, axis, x_star, disc, grid)
    diagram, brackets, lo, hi, x = _run_and_check(task)
    verdict = task.check((diagram, brackets, lo, hi, x + 1e-6 * x_star), None)
    assert not verdict.ok and "EP at" in verdict.reason


def test_wrong_label_fails():
    family, base, axis, x_star, disc = W._line_pt(_rng())
    grid = [float(x) for x in np.linspace(0.5 * x_star, 1.5 * x_star, 11)]
    task = W._scan_task("t", family, base, axis, x_star, disc, grid)
    diagram, *rest = _run_and_check(task)
    points = list(diagram.points)
    points[0] = dataclasses.replace(points[0], classification="unbroken")
    bad = dataclasses.replace(diagram, points=points)
    assert not task.check((bad, *rest), None).ok


def test_perturbed_state_fails():
    h, a = W.pseudo_hermitian(_rng(), 4)
    op = metric.MetricOperator(a.conj().T @ a, "analytic")
    psi0 = W._random_state(_rng(), 4)
    times = np.linspace(0.0, 2.0, 5)
    task = W._evolve_task("t", "k", h, psi0, times, op)
    rec, rate = _run_and_check(task)
    states = list(rec.states)
    states[-1] = states[-1] * (1.0 + 1e-6)
    bad = dataclasses.replace(rec, states=states)
    assert not task.check((bad, rate), None).ok


def test_refusal_needs_the_right_error(tmp_path):
    tasks = W._refusal_tasks("t", _rng(), str(tmp_path))
    for task in tasks:
        _run_and_check(task)
    broken = tasks[0]
    wrong_error = (2, "", '{"error": "NotPositive", "exit_code": 2}')
    assert not broken.check(wrong_error, None).ok
    wrong_code = (0, "{}", "")
    assert not broken.check(wrong_code, None).ok


def test_unexpected_exception_fails():
    task = W._dense_task("t", W.pseudo_hermitian(_rng(), 3)[0])
    assert not task.check(None, RuntimeError("boom")).ok


def test_measure_counts_and_lists_failures():
    good = W.Task("good", "k", lambda: 1, lambda out, exc: W.Verdict(True, 12.0))
    bad = W.Task("bad", "k", lambda: 1, lambda out, exc: W.Verdict(False, None, "wrong"))
    res = worker.measure([good, bad], seconds=0.0)
    assert res["attempted"] == 2 * worker.MIN_PASSES
    assert res["failed"] == worker.MIN_PASSES
    assert res["failures"] == {"bad": "wrong"}
    assert res["accuracy_digits"] == 12.0


def test_tail_ladder():
    xs = list(range(1, 101))
    assert worker.tail_latency(xs) == (90.0, 90)
    assert worker.tail_latency(xs[:99])[0] == 50.0
    assert worker.tail_latency(list(range(1, 1001))) == (99.0, 990)


class _FakeModule:
    pass


def test_tracer_self_time_recursion_and_failures():
    layer = _FakeModule()
    package = _FakeModule()

    def leaf(n):
        if n < 0:
            raise ValueError(n)
        return n

    def parent(n):
        return layer.leaf(n) + (layer.parent(n - 1) if n > 0 else 0)

    layer.leaf, layer.parent, package.parent = leaf, parent, parent
    t = tracing.Tracer()
    t.install(package, {"linalg": layer}, {"linalg": ["leaf", "parent"]})
    assert layer.parent is not parent and package.parent is layer.parent
    assert layer.parent(2) == 3
    with pytest.raises(ValueError):
        layer.leaf(-1)
    t.uninstall()
    assert layer.parent is parent and package.parent is parent
    rows = t.summary()["functions"]
    # parent recursion folds into one span; each level's leaf call is a child
    assert rows["linalg.parent"]["calls"] == 1
    assert rows["linalg.leaf"]["calls"] == 4
    assert rows["linalg.leaf"]["failed"] == 1
    spans = t.spans
    total = max(s[2] for s in spans) - min(s[1] for s in spans)
    assert t.summary()["self_total_s"] <= total + 1e-9


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
