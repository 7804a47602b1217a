"""Seeded workloads for the metricforge benchmark.

Each workload is a pool of tasks generated from the seed.  A task carries
three closures: ``run`` calls metricforge on the generated inputs and is
the only timed part; ``check`` compares the result against an oracle that
does not use metricforge (closed forms, numpy, scipy); ``ref`` times the
numpy/scipy equivalent for the informational ``ref.*`` numbers.

The phase of every input is decided before the task runs, from closed-form
discriminants written out here independently of ``metricforge.models``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from metricforge import cli, dynamics, linalg, metric, models, phase

MACHINE_EPS = 2.0 ** -52
# Grid points closer than this (relative) to the closed-form EP may take any
# label or an error; they are counted separately as "band" points.
EP_BAND = 1e-6
INTERTWINING_MAX = 1e-10
SPECTRUM_TOL = 1e-8
METRIC_TOL = 1e-8
STATE_TOL = 1e-8
NORM_TOL = 1e-8
OVERLAP_TOL = 1e-10
GROWTH_TOL = 1e-6
# At an exact EP eigenvalues split like sqrt(delta), so states are only good
# to about sqrt(eps) * ||t H|| (mat_exp may still diagonalize at cond(V)
# up to 1e8).  EP tasks are held to that stated accuracy, not STATE_TOL.
SQRT_EPS = math.sqrt(MACHINE_EPS)
EP_TOL = 1e-10   # find_exceptional's documented bracket-relative width


@dataclass(frozen=True)
class Verdict:
    ok: bool
    digits: float | None = None   # -log10(relative error) of the main output
    reason: str = ""
    band: int = 0                 # near-EP grid points accepted with any label


@dataclass
class Task:
    id: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], Verdict]
    ref: Callable[[], object] | None = None


def digits_of(relerr: float) -> float:
    return -math.log10(max(float(relerr), MACHINE_EPS))


def _fail(reason: str) -> Verdict:
    return Verdict(False, None, reason)


def _unexpected(exc: BaseException) -> Verdict:
    return _fail(f"raised {type(exc).__name__}: {exc}")


def _relerr(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------

def _unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pseudo_hermitian(rng, n: int):
    """(H, A): H = A^-1 K A with K Hermitian, so the spectrum is real and
    A^dag A is a metric.

    Eigenvalues are jittered equispaced in [-1, 1] (gaps >= 0.8 / n) and A
    has singular values geometrically spaced in [1, 10], so the
    conditioning of every input is the same for every seed.
    """
    ev = -1.0 + 2.0 * (np.arange(n) + 0.5 + rng.uniform(-0.3, 0.3, n)) / n
    u = _unitary(rng, n)
    k = (u * ev) @ u.conj().T
    k = (k + k.conj().T) / 2.0
    a = (_unitary(rng, n) * np.geomspace(1.0, 10.0, n)) @ _unitary(rng, n)
    return np.linalg.solve(a, k @ a), a


def _jc_params(rng):
    return {"epsilon": float(rng.uniform(0.2, 0.6)),
            "omega": float(rng.uniform(0.9, 1.3))}


def jc_full_params(rng, levels: int, top: float) -> dict:
    """Unbroken jc_full: rho derived so that the top doublet has
    sin(theta) = top < 1 (every doublet n < levels is then unbroken)."""
    p = _jc_params(rng)
    p["rho"] = top * abs(p["omega"] - p["epsilon"]) / (2.0 * math.sqrt(levels))
    p["levels"] = levels
    return p


def jc_sin_thetas(p: dict) -> list:
    gap = p["omega"] - p["epsilon"]
    return [2.0 * p["rho"] * math.sqrt(n + 1) / gap for n in range(p["levels"])]


def jc_full_matrix(p: dict) -> np.ndarray:
    """The jc_full Hamiltonian written out: -epsilon/2 on the ground state,
    then one doublet block per level (hbar = 1)."""
    dim = 2 * p["levels"] + 1
    h = np.zeros((dim, dim), dtype=complex)
    h[0, 0] = -p["epsilon"] / 2.0
    for n in range(p["levels"]):
        h[1 + 2 * n:3 + 2 * n, 1 + 2 * n:3 + 2 * n] = _doublet_matrix(
            n, p["epsilon"], p["omega"], p["rho"])
    return h


def _doublet_matrix(n, epsilon, omega, rho):
    """The jc_doublet Hamiltonian written out (hbar = 1)."""
    b = rho * math.sqrt(n + 1)
    return np.array([[epsilon / 2 + n * omega, b],
                     [-b, -epsilon / 2 + (n + 1) * omega]], dtype=complex)


def jc_full_metric(p: dict) -> np.ndarray:
    """Closed-form metric: 1 on the ground state, [[1, -s], [-s, 1]] with
    s = 2 rho sqrt(n+1) / (hbar omega - epsilon) on doublet n."""
    dim = 2 * p["levels"] + 1
    m = np.eye(dim, dtype=complex)
    for n, s in enumerate(jc_sin_thetas(p)):
        m[1 + 2 * n, 2 + 2 * n] = m[2 + 2 * n, 1 + 2 * n] = -s
    return m


def numpy_spectral_metric(h: np.ndarray) -> np.ndarray:
    """Sum of |l><l| over unit left eigenvectors (rows of V^-1)."""
    _, v = np.linalg.eig(h)
    left = np.linalg.inv(v).conj().T
    left /= np.linalg.norm(left, axis=0)
    return left @ left.conj().T


# ---------------------------------------------------------------------------
# scan: 1-D phase lines through the 2x2 families
# ---------------------------------------------------------------------------

SCAN_POINTS = 101


def _line_jc(rng):
    n = int(rng.integers(0, 3))
    p = _jc_params(rng)
    gap = p["omega"] - p["epsilon"]
    base = {"n": n, **p}
    return ("jc_doublet", base, "rho", abs(gap) / (2.0 * math.sqrt(n + 1)),
            lambda rho: gap * gap - 4.0 * rho * rho * (n + 1))


def _line_pt(rng):
    r, th = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.3, 1.2))
    s, ph = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, math.pi))
    big_r = r * math.sin(th)
    base = {"r": r, "theta": th, "s": s, "phi": ph}
    return ("pt_matrix", base, "t", big_r * big_r / s,
            lambda t: s * t - big_r * big_r)


def _line_dirac(rng):
    m0, kx = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 1.0))
    base = {"m0": m0, "kx": kx}
    return ("dirac_scalar", base, "v0", math.hypot(kx, m0),
            lambda v0: kx * kx + m0 * m0 - v0 * v0)


def _scan_task(tid, family, base, axis, x_star, disc, grid):
    def run():
        diagram = phase.sweep(family, base, [(axis, grid)])
        brackets = phase.ep_brackets(diagram)
        lo, hi = brackets[0]["lo"], brackets[0]["hi"]
        return diagram, brackets, lo, hi, phase.find_exceptional(
            family, base, axis, lo, hi)

    def check(out, exc):
        if exc is not None:
            return _unexpected(exc)
        diagram, brackets, lo, hi, x = out
        band = 0
        for pt in diagram.points:
            v = pt.params[axis]
            if abs(v - x_star) <= EP_BAND * abs(x_star):
                band += 1
                continue
            want = "unbroken" if disc(v) > 0 else "broken"
            if pt.classification != want:
                return _fail(f"{axis}={v!r} labelled {pt.classification}, "
                             f"discriminant says {want}")
            if want == "unbroken" and not (pt.metric_min_eig or 0.0) > 0.0:
                return _fail(f"{axis}={v!r} unbroken without a positive metric")
        if not any(b["lo"] <= x_star <= b["hi"] for b in brackets):
            return _fail(f"no bracket contains the EP {x_star!r}")
        err = abs(x - x_star)
        if err > EP_TOL * (hi - lo) + 1e-14 * abs(x_star):
            return _fail(f"EP at {x!r}, closed form {x_star!r}")
        return Verdict(True, digits_of(err / abs(x_star)), band=band)

    return Task(tid, f"sweep{len(grid)}.{family}", run, check)


def _overlap_closed_form(theta, eps, sin_theta):
    """Normalized metric overlap of the entangled pair under the 4x4
    discrimination metric (identity plus -sin_theta on the (0, 1) pair):
    ((1-s) c1 c2 + s1 s2) / sqrt(((1-s) c1^2 + s1^2) ((1-s) c2^2 + s2^2))."""
    a1, a2 = theta / 2.0, theta / 2.0 + eps
    c1, c2, s1, s2 = math.cos(a1), math.cos(a2), math.sin(a1), math.sin(a2)
    w = 1.0 - sin_theta
    return (w * c1 * c2 + s1 * s2) / math.sqrt(
        (w * c1 * c1 + s1 * s1) * (w * c2 * c2 + s2 * s2))


def _orthogonality_task(tid, rng):
    sin_theta = float(rng.uniform(-0.8, 0.8))
    eps = float(rng.uniform(0.01, 0.1))
    theta0 = float(rng.uniform(0.0, 1.0))
    thetas = [float(x) for x in np.linspace(theta0, theta0 + 2.0, 41)]

    def run():
        m = dynamics.assemble_discrimination_metric(sin_theta)
        return dynamics.orthogonality_scan(thetas, eps, m)

    def check(out, exc):
        if exc is not None:
            return _unexpected(exc)
        if len(out.rows) != len(thetas):
            return _fail(f"{len(out.rows)} rows for {len(thetas)} angles")
        # (2 - s) cos(eps) / s lies outside [-1, 1] for |s| < 1, so the
        # closed-form overlap has no zero crossing.
        if out.zero_crossings:
            return _fail(f"spurious zero crossings {out.zero_crossings}")
        worst = 0.0
        for row, th in zip(out.rows, thetas):
            std_err = abs(row.standard_overlap - math.cos(eps)) / math.cos(eps)
            want = _overlap_closed_form(th, eps, sin_theta)
            met_err = abs(row.metric_overlap - want) / abs(want)
            if std_err > OVERLAP_TOL or met_err > OVERLAP_TOL:
                return _fail(f"theta={th!r}: overlap errors {std_err:.2e}, "
                             f"{met_err:.2e}")
            worst = max(worst, std_err, met_err)
        return Verdict(True, digits_of(worst))

    return Task(tid, "orthogonality_scan", run, check)


def make_scan(rng, workdir, lines, long_lines, orthogonality):
    """``lines`` sweeps of 101 points and ``long_lines`` of 201 points, the
    families taken in turn, plus ``orthogonality`` theta scans."""
    makers = (_line_jc, _line_pt, _line_dirac)
    tasks = []
    for k in range(lines + long_lines):
        points = SCAN_POINTS if k < lines else 2 * SCAN_POINTS - 1
        family, base, axis, x_star, disc = makers[k % 3](rng)
        # half of every line is unbroken, so lines of one length cost the same
        shift = float(rng.uniform(-0.02, 0.02))
        grid = [float(x) for x in np.linspace(
            (0.5 + shift) * x_star, (1.5 + shift) * x_star, points)]
        tasks.append(_scan_task(f"scan.{family}.{points}.{k}", family, base,
                                axis, x_star, disc, grid))
    for k in range(orthogonality):
        tasks.append(_orthogonality_task(f"scan.orthogonality.{k}", rng))
    return tasks


# ---------------------------------------------------------------------------
# dense: the full metric pipeline on one Hamiltonian, n = 8 .. 64
# ---------------------------------------------------------------------------

def _pipeline(h):
    pairs = linalg.eigendecompose(h)
    sysb = metric.biorthonormalize(pairs)
    m = metric.spectral_metric(sysb)
    return pairs, m, metric.validate_metric(h, m)


def _check_pipeline(h, pairs, m, report):
    """Spectrum against numpy, positivity and intertwining of the metric.
    Returns (failure reason or None, relative spectrum error)."""
    want = np.linalg.eigvals(h)
    want = want[np.lexsort((want.imag, want.real))]
    got = np.array([p.value for p in pairs])
    got = got[np.lexsort((got.imag, got.real))]
    if got.size != want.size:
        return f"{got.size} eigenvalues for n={want.size}", None
    spec_err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    if spec_err > SPECTRUM_TOL:
        return f"spectrum off by {spec_err:.2e}", None
    mat = np.asarray(m.matrix)
    if np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0] <= 0.0 \
            or not report.positive:
        return "metric not positive definite", None
    resid = np.linalg.norm(mat @ h - h.conj().T @ mat) / (
        np.linalg.norm(mat) * np.linalg.norm(h))
    if resid > INTERTWINING_MAX or report.intertwining_residual > INTERTWINING_MAX:
        return (f"intertwining residual {resid:.2e} "
                f"(reported {report.intertwining_residual:.2e})"), None
    return None, spec_err


def _ref_pipeline(h):
    m = numpy_spectral_metric(h)
    np.linalg.eigvalsh(m)
    return np.linalg.norm(m @ h - h.conj().T @ m)


def _dense_task(tid, h):
    def check(out, exc):
        if exc is not None:
            return _unexpected(exc)
        reason, spec_err = _check_pipeline(h, *out)
        if reason:
            return _fail(reason)
        return Verdict(True, digits_of(spec_err))

    return Task(tid, f"dense.n{h.shape[0]}", lambda: _pipeline(h), check,
                lambda: _ref_pipeline(h))


def _jc_full_task(tid, p):
    h = jc_full_matrix(p)
    want = jc_full_metric(p)

    def run():
        inst = models.build("jc_full", p)
        pairs, m, report = _pipeline(inst.hamiltonian)
        das = metric.das_metric(inst.das_data)
        return pairs, m, report, das, metric.compare_metrics(das, m)

    def check(out, exc):
        if exc is not None:
            return _unexpected(exc)
        pairs, m, report, das, cmp_ = out
        reason, spec_err = _check_pipeline(h, pairs, m, report)
        if reason:
            return _fail(reason)
        if cmp_.verdict != "equal":
            return _fail(f"das and spectral routes compare {cmp_.verdict}")
        errs = [spec_err, _relerr(m.matrix, want), _relerr(das.matrix, want)]
        if max(errs[1:]) > METRIC_TOL:
            return _fail(f"metric off the closed form by {max(errs[1:]):.2e}")
        return Verdict(True, digits_of(max(errs)))

    return Task(tid, f"dense.jc_full{p['levels']}", run, check,
                lambda: _ref_pipeline(h))


def make_dense(rng, workdir, sizes, jc_levels):
    """``sizes`` and ``jc_levels`` map a dimension or a level count to the
    number of tasks."""
    tasks = []
    for n, count in sizes.items():
        for k in range(count):
            h, _ = pseudo_hermitian(rng, n)
            tasks.append(_dense_task(f"dense.n{n}.{k}", h))
    for levels, count in jc_levels.items():
        for k in range(count):
            p = jc_full_params(rng, levels, float(rng.uniform(0.3, 0.7)))
            tasks.append(_jc_full_task(f"dense.jc_full{levels}.{k}", p))
    return tasks


# ---------------------------------------------------------------------------
# evolve: metric-norm evolution trajectories
# ---------------------------------------------------------------------------

EVOLVE_STEPS = 16


def _random_state(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _check_states(h, psi0, times, rec, metric_matrix, tol=STATE_TOL):
    """States against scipy expm at every time point; metric norm
    conservation when a positive metric was supplied."""
    if len(rec.states) != len(times):
        return f"{len(rec.states)} states for {len(times)} times", None
    worst = 0.0
    for t, st in zip(times, rec.states):
        want = scipy.linalg.expm(-1j * t * h) @ psi0
        err = float(np.linalg.norm(st - want) / np.linalg.norm(want))
        if err > tol:
            return f"state at t={t:.4g} off by {err:.2e}", None
        worst = max(worst, err)
    if metric_matrix is not None:
        mn = np.asarray(rec.metric_norms)
        want0 = math.sqrt((psi0.conj() @ metric_matrix @ psi0).real)
        drift = float(np.max(np.abs(mn - want0)) / want0)
        if drift > NORM_TOL:
            return f"metric norm drifts by {drift:.2e}", None
    return None, worst


def _ref_evolve(h, psi0, times):
    return [scipy.linalg.expm(-1j * t * h) @ psi0 for t in times]


def _evolve_task(tid, kind, h, psi0, times, metric_op, build=None,
                 growth=None, tol=STATE_TOL):
    """``build`` (family, params) makes the task build its model first and
    evolve under the model's own analytic metric; ``growth`` is the
    closed-form growth rate checked against ``dynamics.growth_rate``."""
    def run():
        m = metric_op
        ham = h
        if build is not None:
            inst = models.build(*build)
            ham, m = inst.hamiltonian, inst.analytic_metric
        rec = dynamics.evolve(ham, psi0, times, metric=m)
        rate = dynamics.growth_rate(rec) if growth is not None else None
        return rec, rate

    mm = None if metric_op is None else np.asarray(metric_op.matrix)
    if build is not None:
        mm = jc_full_metric(build[1])

    def check(out, exc):
        if exc is not None:
            return _unexpected(exc)
        rec, rate = out
        reason, err = _check_states(h, psi0, times, rec, mm, tol)
        if reason:
            return _fail(reason)
        if growth is not None:
            g_err = abs(rate - growth) / growth
            if g_err > GROWTH_TOL:
                return _fail(f"growth rate {rate!r}, closed form {growth!r}")
            err = max(err, g_err)
        return Verdict(True, digits_of(err))

    return Task(tid, kind, run, check, lambda: _ref_evolve(h, psi0, times))


def make_evolve(rng, workdir, jc_levels, sizes, broken, ep):
    """``jc_levels`` and ``sizes`` map a level count or a dimension to the
    number of tasks; ``broken`` and ``ep`` count 2x2 doublet tasks."""
    tasks = []
    for levels, count in jc_levels.items():
        for k in range(count):
            p = jc_full_params(rng, levels, float(rng.uniform(0.3, 0.7)))
            h = jc_full_matrix(p)
            psi0 = _random_state(rng, h.shape[0])
            times = np.linspace(0.0, 10.0, EVOLVE_STEPS)
            tasks.append(_evolve_task(f"evolve.jc_full{levels}.{k}",
                                      f"evolve.jc_full{levels}", h, psi0,
                                      times, None, build=("jc_full", p)))
    for n, count in sizes.items():
        for k in range(count):
            h, a = pseudo_hermitian(rng, n)
            op = metric.MetricOperator(a.conj().T @ a, "analytic")
            psi0 = _random_state(rng, n)
            times = np.linspace(0.0, 10.0, EVOLVE_STEPS)
            tasks.append(_evolve_task(f"evolve.dense.n{n}.{k}",
                                      f"evolve.dense.n{n}", h, psi0, times, op))
    for k in range(broken):
        n = int(rng.integers(0, 3))
        p = _jc_params(rng)
        gap = p["omega"] - p["epsilon"]
        rho = float(rng.uniform(1.2, 2.0)) * abs(gap) / (2.0 * math.sqrt(n + 1))
        g = math.sqrt(4.0 * rho * rho * (n + 1) - gap * gap) / 2.0
        h = _doublet_matrix(n, p["epsilon"], p["omega"], rho)
        times = np.linspace(0.0, 16.0 / g, EVOLVE_STEPS)
        tasks.append(_evolve_task(f"evolve.broken.{k}", "evolve.broken", h,
                                  _random_state(rng, 2), times, None,
                                  growth=g))
    for k in range(ep):
        n = int(rng.integers(0, 3))
        p = _jc_params(rng)
        rho = abs(p["omega"] - p["epsilon"]) / (2.0 * math.sqrt(n + 1))
        h = _doublet_matrix(n, p["epsilon"], p["omega"], rho)
        times = np.linspace(0.0, 10.0, EVOLVE_STEPS)
        tol = SQRT_EPS * np.linalg.norm(h, 2) * times[-1]
        tasks.append(_evolve_task(f"evolve.ep.{k}", "evolve.ep", h,
                                  _random_state(rng, 2), times, None,
                                  tol=tol))
    return tasks


# ---------------------------------------------------------------------------
# cli: in-process cli.main calls
# ---------------------------------------------------------------------------

def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_task(tid, kind, workdir, argv, expect_code=0, expect_errors=(),
              verify=None):
    """A ``cli.main(argv + ["--out", dir])`` call.  ``verify(results)``
    returns (failure reason or None, relative error or None) for a
    successful call; a refusal must exit with expect_code and name one of
    expect_errors on stderr."""
    out_dir = os.path.join(workdir, tid)
    os.makedirs(out_dir, exist_ok=True)
    argv = [*argv, "--out", out_dir]

    def check(out, exc):
        if exc is not None:
            return _unexpected(exc)
        code, stdout, stderr = out
        if code != expect_code:
            return _fail(f"exit {code}, expected {expect_code}: {stderr[:200]}")
        if expect_code != 0:
            try:
                body = json.loads(stderr)
            except json.JSONDecodeError:
                return _fail("stderr is not JSON")
            if body.get("error") not in expect_errors or stdout:
                return _fail(f"refused with {body.get('error')}, expected "
                             f"one of {expect_errors}")
            return Verdict(True)
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return _fail("stdout is not JSON")
        if verify is None:
            return Verdict(True)
        reason, err = verify(doc["results"])
        if reason:
            return _fail(reason)
        return Verdict(True, None if err is None else digits_of(err))

    return Task(tid, kind, lambda: _call_cli(argv), check)


def _kv(params: dict) -> str:
    return ",".join(f"{k}={v!r}" for k, v in params.items())


def _c(pair):
    return complex(pair[0], pair[1])


def _mat(rows):
    return np.array([[_c(x) for x in row] for row in rows])


def _sweep_cli_task(tid, rng, workdir, grid):
    p = _jc_params(rng)
    base = {"n": 0, "omega": p["omega"]}
    # ranges in units of omega: 65 % of the grid is unbroken for every seed
    rho_hi, eps_hi = 0.5 * p["omega"], 0.7 * p["omega"]
    argv = ["sweep", "--model", "jc_doublet", "--params", _kv(base),
            "--axis", f"rho=0:{rho_hi!r}:{grid}", "--axis",
            f"eps=0:{eps_hi!r}:{grid}"]

    def verify(res):
        pts = res["diagram"]["points"]
        if len(pts) != grid * grid:
            return f"{len(pts)} grid points", None
        for pt in pts:
            rho, eps = pt["params"]["rho"], pt["params"]["eps"]
            g = p["omega"] - eps
            disc = g * g - 4.0 * rho * rho
            if abs(disc) <= EP_BAND * max(g * g, 1e-300):
                continue
            want = "unbroken" if disc > 0 else "broken"
            if pt["classification"] != want:
                return f"rho={rho!r}, eps={eps!r} labelled " \
                       f"{pt['classification']}, expected {want}", None
        return None, None

    return _cli_task(tid, "cli.sweep", workdir, argv, verify=verify)


def _matrix_doc(h, path):
    doc = {"matrix": {"h": [[[z.real, z.imag] for z in row] for row in h]}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _metric_in_task(tid, rng, workdir, n):
    h, _ = pseudo_hermitian(rng, n)
    path = os.path.join(workdir, f"{tid}.json")
    _matrix_doc(h, path)

    def verify(res):
        mat = _mat(res["metrics"]["spectral"]["matrix"])
        resid = np.linalg.norm(mat @ h - h.conj().T @ mat) / (
            np.linalg.norm(mat) * np.linalg.norm(h))
        if resid > INTERTWINING_MAX or np.linalg.eigvalsh(mat)[0] <= 0.0:
            return f"metric residual {resid:.2e} or not positive", None
        return None, None

    return _cli_task(tid, "cli.metric_in", workdir,
                     ["metric", "--in", path, "--method", "spectral"],
                     verify=verify)


def _metric_model_task(tid, rng, workdir):
    p = jc_full_params(rng, 1, float(rng.uniform(0.2, 0.8)))
    params = {"n": 0, "epsilon": p["epsilon"], "omega": p["omega"],
              "rho": p["rho"]}
    want = jc_full_metric(p)[1:, 1:]

    def verify(res):
        if res["comparison"]["verdict"] != "equal":
            return f"routes compare {res['comparison']['verdict']}", None
        err = max(_relerr(_mat(res["metrics"][k]["matrix"]), want)
                  for k in ("spectral", "das"))
        if err > METRIC_TOL:
            return f"metric off the closed form by {err:.2e}", None
        return None, err

    return _cli_task(tid, "cli.metric_model", workdir,
                     ["metric", "--model", "jc_doublet", "--params",
                      _kv(params), "--method", "both"], verify=verify)


def _ep_cli_task(tid, rng, workdir):
    n = int(rng.integers(0, 3))
    p = _jc_params(rng)
    x_star = abs(p["omega"] - p["epsilon"]) / (2.0 * math.sqrt(n + 1))
    # an off-centre bracket, so that bisection does not start on the EP
    lo = float(rng.uniform(0.3, 0.7)) * x_star
    hi = float(rng.uniform(1.3, 1.7)) * x_star
    params = {"n": n, **p}

    def verify(res):
        err = abs(res["value"] - x_star)
        if err > EP_TOL * (hi - lo) + 1e-14 * x_star:
            return f"EP at {res['value']!r}, closed form {x_star!r}", None
        return None, err / x_star

    return _cli_task(tid, "cli.ep", workdir,
                     ["ep", "--model", "jc_doublet", "--params", _kv(params),
                      "--param", "rho", "--lo", repr(lo), "--hi", repr(hi)],
                     verify=verify)


def _evolve_cli_task(tid, rng, workdir):
    p = jc_full_params(rng, 1, float(rng.uniform(0.2, 0.8)))
    params = {"n": 0, "epsilon": p["epsilon"], "omega": p["omega"],
              "rho": p["rho"]}

    def verify(res):
        dev = res["max_metric_norm_deviation"]
        if res["classification"] != "unbroken" or dev is None \
                or dev > NORM_TOL:
            return f"classification {res['classification']}, metric norm " \
                   f"deviation {dev}", None
        return None, None

    return _cli_task(tid, "cli.evolve", workdir,
                     ["evolve", "--model", "jc_doublet", "--params",
                      _kv(params)], verify=verify)


def _discriminate_cli_task(tid, rng, workdir):
    sin_theta = float(rng.uniform(-0.8, 0.8))
    eps = float(rng.uniform(0.01, 0.1))

    def verify(res):
        if res["rows"] != 41 or res["zero_crossings"]:
            return f"{res['rows']} rows, crossings {res['zero_crossings']}", None
        return None, None

    return _cli_task(tid, "cli.discriminate", workdir,
                     ["discriminate", "--axis", "theta=0:3:41", "--eps",
                      repr(eps), "--sin-theta", repr(sin_theta)],
                     verify=verify)


def _show_cli_task(tid, rng, workdir):
    m0, kx = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 1.0))
    v0 = float(rng.uniform(0.1, 0.9)) * math.hypot(kx, m0)
    energy = math.sqrt(kx * kx + m0 * m0 - v0 * v0)

    def verify(res):
        got = sorted(_c(e).real for e in res["eigenvalues"])
        err = max(abs(got[0] + energy), abs(got[1] - energy)) / energy
        if res["phase"] != "unbroken" or err > SPECTRUM_TOL:
            return f"phase {res['phase']}, eigenvalues {got}", None
        return None, err

    return _cli_task(tid, "cli.model_show", workdir,
                     ["model", "show", "--model", "dirac_scalar", "--params",
                      _kv({"m0": m0, "kx": kx, "v0": v0})], verify=verify)


def _refusal_tasks(tid, rng, workdir):
    p = _jc_params(rng)
    gap = abs(p["omega"] - p["epsilon"])
    broken = {"n": 0, **p, "rho": float(rng.uniform(1.2, 2.0)) * gap / 2.0}
    jordan = os.path.join(workdir, f"{tid}.jordan.json")
    a = float(rng.uniform(-1.0, 1.0))
    _matrix_doc(np.array([[a, 1.0], [0.0, a]], dtype=complex), jordan)
    return [
        _cli_task(f"{tid}.broken_metric", "cli.refusal", workdir,
                  ["metric", "--model", "jc_doublet", "--params", _kv(broken),
                   "--method", "spectral"], 2, ("BrokenPhase",)),
        _cli_task(f"{tid}.broken_evolve", "cli.refusal", workdir,
                  ["evolve", "--model", "jc_doublet", "--params", _kv(broken)],
                  2, ("BrokenPhase",)),
        _cli_task(f"{tid}.defective", "cli.refusal", workdir,
                  ["metric", "--in", jordan, "--method", "spectral"], 3,
                  ("DefectiveMatrix", "DefectiveSystem")),
        _cli_task(f"{tid}.bad_value", "cli.refusal", workdir,
                  ["metric", "--model", "jc_doublet", "--params", "rho=x"],
                  4, ("InvalidParams",)),
        _cli_task(f"{tid}.bad_family", "cli.refusal", workdir,
                  ["model", "show", "--model", "no_such_family"], 4,
                  ("InvalidParams",)),
    ]


_CLI_MAKERS = {"metric_model": _metric_model_task, "ep": _ep_cli_task,
               "model_show": _show_cli_task, "evolve": _evolve_cli_task,
               "discriminate": _discriminate_cli_task}


def make_cli(rng, workdir, grid, metric_in, counts):
    """One sweep on a grid x grid mesh, ``metric_in`` documents with an
    n = 8 matrix, ``counts[kind]`` calls of each other command, and one of
    each refusal."""
    tasks = [_sweep_cli_task("cli.sweep.0", rng, workdir, grid)]
    for k in range(metric_in):
        tasks.append(_metric_in_task(f"cli.metric_in.{k}", rng, workdir, 8))
    for kind, count in counts.items():
        for k in range(count):
            tasks.append(_CLI_MAKERS[kind](f"cli.{kind}.{k}", rng, workdir))
    tasks.extend(_refusal_tasks("cli.refusal", rng, workdir))
    return tasks


# ---------------------------------------------------------------------------

# Per workload: the maker, the arguments of one pass's pool, and the
# arguments of the warm-up set (every code path of the pool, small sizes).
WORKLOADS = {
    "scan": (make_scan, {"lines": 14, "long_lines": 4, "orthogonality": 2},
             {"lines": 3, "long_lines": 0, "orthogonality": 1}),
    "dense": (make_dense,
              {"sizes": {8: 12, 12: 10, 16: 4, 24: 2, 48: 1, 64: 1},
               "jc_levels": {4: 2, 12: 6}},
              {"sizes": {8: 1}, "jc_levels": {2: 1}}),
    "evolve": (make_evolve,
               {"jc_levels": {2: 34, 4: 3}, "sizes": {4: 2, 8: 10},
                "broken": 4, "ep": 24},
               {"jc_levels": {1: 1}, "sizes": {4: 1}, "broken": 1, "ep": 1}),
    "cli": (make_cli,
            {"grid": 41, "metric_in": 4,
             "counts": {"metric_model": 23, "ep": 3, "model_show": 3,
                        "evolve": 8, "discriminate": 3}},
            {"grid": 5, "metric_in": 1,
             "counts": dict.fromkeys(_CLI_MAKERS, 1)}),
}


def build(workload: str, seed: int, workdir: str):
    """(pool, warm-up tasks) of one workload.  The pool is shuffled with
    the seed so that task kinds are spread over each pass."""
    maker, pool_args, warm_args = WORKLOADS[workload]
    salt = sorted(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, salt])
    tasks = maker(rng, workdir, **pool_args)
    order = rng.permutation(len(tasks))
    warm_dir = os.path.join(workdir, "warm")
    os.makedirs(warm_dir, exist_ok=True)
    warm = maker(rng, warm_dir, **warm_args)
    return [tasks[i] for i in order], warm
