"""Metric-aware time evolution and entangled-state discrimination.

Evolution under a pseudo-Hermitian Hamiltonian is not unitary in the
standard inner product, but it is unitary in the metric inner product
<a|m|b>.  This module tracks both norms along an evolution and implements
the discrimination of two nearly identical entangled states: states that
are non-orthogonal in the standard inner product can have a smaller (even
vanishing) overlap under a suitable metric.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg, phase
from .errors import NotHermitian, NotPositive
from .linalg import STACK_ENTRIES, as_matrix, as_vector
from .metric import MetricOperator, _inner


@dataclass(frozen=True)
class EvolutionRecord:
    times: np.ndarray
    states: np.ndarray  # (T, n), row k at times[k]
    metric_norms: np.ndarray
    standard_norms: np.ndarray

    def to_csv(self) -> str:
        dim = self.states[0].size
        buf = io.StringIO()
        cols = ["t"]
        for k in range(dim):
            cols += [f"re_{k}", f"im_{k}"]
        cols += ["metric_norm", "standard_norm"]
        buf.write(",".join(cols) + "\n")
        for t, psi, mn, sn in zip(self.times, self.states,
                                  self.metric_norms, self.standard_norms):
            row = [format(float(t), ".17g")]
            for k in range(dim):
                row += [format(psi[k].real, ".17g"), format(psi[k].imag, ".17g")]
            row += [format(float(mn), ".17g"), format(float(sn), ".17g")]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()


def evolve(h, psi0, times, *, metric: MetricOperator | None = None,
           hbar: float = 1.0) -> EvolutionRecord:
    """Evolve psi0 under exp(-i H t / hbar) at each requested time.

    H is factored once (``linalg.exp_propagator``) and the propagator gives
    the stack of exp(-i H t / hbar) for all times in one call (one per
    STACK_ENTRIES matrix entries); the states are one batched product with
    psi0, not a step accumulation, so there is no error build-up along the
    sequence.  Norms are recorded against the supplied metric (identity
    when None), as one batched quadratic form, and against the identity.
    psi0, the metric and the dimensions are checked once.  Raises
    ValueError for a non-finite time, a non-finite or non-positive hbar,
    and, naming the first such time, a state or norm that is not finite
    (the evolution overflowed).
    """
    hm = as_matrix(h)
    psi = as_vector(psi0)
    if psi.size != hm.shape[0]:
        raise ValueError("dimension mismatch between H and psi0")
    ts = np.asarray(list(times), dtype=float)
    if ts.size == 0:
        raise ValueError("need at least one time point")
    if not np.all(np.isfinite(ts)):
        raise ValueError("times must be finite")
    if not (math.isfinite(hbar) and hbar > 0.0):
        raise ValueError(f"hbar must be positive and finite, got {hbar!r}")
    mat = (np.eye(psi.size, dtype=complex) if metric is None
           else as_matrix(metric.matrix))
    if mat.shape != (psi.size, psi.size):
        raise ValueError("dimension mismatch between the metric and psi0")
    propagator = linalg.exp_propagator(hm)
    scales = np.array([-1j * t / hbar for t in ts])
    block = max(1, STACK_ENTRIES // psi.size ** 2)  # time points per stack
    with np.errstate(over="ignore", invalid="ignore"):
        states = np.concatenate([
            (propagator(scales[k:k + block]) @ psi[:, None])[..., 0]
            for k in range(0, ts.size, block)])
        quad = (states.conj()[:, None, :] @ mat @ states[:, :, None])[:, 0, 0]
        metric_norms = np.sqrt(np.maximum(quad.real, 0.0))
        standard_norms = np.sqrt(np.sum(np.abs(states) ** 2, axis=1))
    finite = (np.all(np.isfinite(states), axis=1) & np.isfinite(metric_norms)
              & np.isfinite(standard_norms))
    if not finite.all():
        t = float(ts[np.argmin(finite)])
        raise ValueError(f"the state or its norm at t = {t!r} is not finite "
                         "(the evolution overflowed)")
    return EvolutionRecord(times=ts, states=states,
                           metric_norms=metric_norms,
                           standard_norms=standard_norms)


def growth_rate(record: EvolutionRecord) -> float:
    """Asymptotic exponential growth rate of the standard norm.

    For a broken-phase spectrum the norm behaves like
    A e^{g t} (1 + O(e^{-2 g t})), so finite-window secants of log(norm)
    approach g geometrically.  Three secants over equal trailing windows
    are Aitken-extrapolated to remove the leading transient.
    """
    ln = np.log(record.standard_norms)
    t = np.asarray(record.times, dtype=float)
    n = t.size
    if n < 4:
        raise ValueError("need at least 4 time points")
    q = max((n - 1) // 5, 1)
    i0, i1, i2, i3 = n - 1 - 3 * q, n - 1 - 2 * q, n - 1 - q, n - 1
    if i0 < 0:
        i0, i1, i2, i3 = 0, (n - 1) // 3, 2 * (n - 1) // 3, n - 1
    s1 = (ln[i1] - ln[i0]) / (t[i1] - t[i0])
    s2 = (ln[i2] - ln[i1]) / (t[i2] - t[i1])
    s3 = (ln[i3] - ln[i2]) / (t[i3] - t[i2])
    denom = (s2 - s1) - (s3 - s2)
    if denom == 0.0:
        return float(s3)
    return float(s3 + (s3 - s2) ** 2 / denom)


@dataclass(frozen=True)
class EntangledPair:
    """Two spin-oscillator states differing by a small angle offset eps.

    Basis order: |0,+1/2>, |1,-1/2>, |0,-1/2>, |1,+1/2>.
    """

    psi1: np.ndarray
    psi2: np.ndarray
    theta: float
    eps: float


def _entangled_state(angle: float) -> np.ndarray:
    c = math.cos(angle / 2.0) / math.sqrt(2.0)
    s = math.sin(angle / 2.0) / math.sqrt(2.0)
    return np.array([c, c, s, s], dtype=complex)


def build_entangled_pair(theta: float, eps: float) -> EntangledPair:
    """Pair of entangled states at angles theta and theta + 2 eps.

    Their standard overlap is exactly cos(eps), so the squared overlap is
    1 - eps^2 + O(eps^4): nearly indistinguishable for small eps.
    """
    if abs(eps) > 0.1:
        warnings.warn(f"eps = {eps} is not small; the near-identical-state "
                      "regime assumes |eps| <~ 0.1", stacklevel=2)
    return EntangledPair(psi1=_entangled_state(theta),
                         psi2=_entangled_state(theta + 2.0 * eps),
                         theta=theta, eps=eps)


def assemble_discrimination_metric(sin_theta1: float) -> MetricOperator:
    """4x4 metric over the pair basis, assembled from the doublet metrics.

    The basis mixes two doublets and the oscillator partner of the ground
    state: the doublet-0 metric [[1, -sin theta1], [-sin theta1, 1]] acts
    on {|0,+1/2>, |1,-1/2>}; |0,-1/2> carries the ground entry 1; |1,+1/2>
    carries the first diagonal entry (1) of the doublet-1 metric, its
    partner |2,-1/2> lying outside the basis.  The assembly is exposed as
    data precisely so alternatives can be substituted.
    """
    if not -1.0 < sin_theta1 < 1.0:
        raise NotPositive(f"sin_theta1 = {sin_theta1} leaves the metric "
                          "positive-definite domain (-1, 1)")
    m = np.eye(4, dtype=complex)
    m[0, 1] = m[1, 0] = -sin_theta1
    return MetricOperator(matrix=m, method="analytic")


@dataclass(frozen=True)
class DiscriminationReport:
    theta: float  # the pair's; also each row of orthogonality_scan
    standard_overlap: complex
    metric_overlap: complex
    distinguishability_gain: float  # |standard|^2 - |metric|^2


def _normalized_overlap(a: np.ndarray, b: np.ndarray,
                        mat: np.ndarray) -> complex:
    """<a|m|b> / sqrt(<a|m|a> <b|m|b>) of checked vectors and matrix."""
    naa = _inner(a, mat, a).real
    nbb = _inner(b, mat, b).real
    if naa <= 0.0 or nbb <= 0.0:
        raise NotPositive("metric assigns a non-positive norm to a state")
    return _inner(a, mat, b) / math.sqrt(naa * nbb)


def _check_metric(m: MetricOperator, dim: int) -> np.ndarray:
    """The matrix of m; NotPositive unless it is a Hermitian
    positive-definite dim x dim matrix (Hermitian to linalg.HERM_TOL, as
    hermitian_spectrum judges it)."""
    mat = as_matrix(m.matrix)
    if mat.shape[0] != dim:
        raise ValueError("metric dimension does not match the pair's basis")
    try:
        positive = linalg.hermitian_spectrum(mat)[0] > 0.0
    except NotHermitian:
        positive = False
    if not positive:
        raise NotPositive("candidate metric is not Hermitian positive-definite")
    return mat


def _overlaps(pair: EntangledPair, mat: np.ndarray) -> DiscriminationReport:
    """discriminate's record of the pair under the checked metric matrix
    mat: the pair's states are checked once, and both overlaps take the
    same normalized formula."""
    a, b = as_vector(pair.psi1), as_vector(pair.psi2)
    if b.size != a.size:
        raise ValueError("dimension mismatch")
    std = _normalized_overlap(a, b, np.eye(a.size, dtype=complex))
    met = _normalized_overlap(a, b, mat)
    return DiscriminationReport(
        theta=pair.theta,
        standard_overlap=std,
        metric_overlap=met,
        distinguishability_gain=abs(std) ** 2 - abs(met) ** 2,
    )


def discriminate(pair: EntangledPair, m: MetricOperator) -> DiscriminationReport:
    """Overlap of the pair in the standard and the metric inner products.

    The metric is checked first (Hermitian positive-definite, else
    NotPositive).  Both overlaps go through the same normalized formula, so
    the identity metric reproduces the standard overlap bit for bit.
    """
    return _overlaps(pair, _check_metric(m, pair.psi1.size))


@dataclass(frozen=True)
class ScanResult:
    rows: list[DiscriminationReport]  # discriminate's record per theta
    zero_crossings: list[float]  # theta values where Re(metric_overlap) = 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("theta,std_re,std_im,metric_re,metric_im,gain\n")
        for r in self.rows:
            buf.write(",".join(format(x, ".17g") for x in (
                r.theta, r.standard_overlap.real, r.standard_overlap.imag,
                r.metric_overlap.real, r.metric_overlap.imag,
                r.distinguishability_gain)) + "\n")
        return buf.getvalue()


def orthogonality_scan(thetas, eps: float, m: MetricOperator) -> ScanResult:
    """Metric overlap of the pair across a theta grid.

    The metric is checked once, as discriminate checks it; every grid point
    and bisection step then takes discriminate's overlaps (_overlaps), with
    no check of that matrix per product.  Zero crossings
    of the real part of the metric overlap (the overlap is real for these
    real states and metrics) are refined by phase.bisect to
    1e-12 max(|a|, |b|, 1) of their grid cell [a, b].
    """
    mat = _check_metric(m, 4)  # the pair basis
    grid = [float(t) for t in thetas]
    rows = [_overlaps(build_entangled_pair(th, eps), mat) for th in grid]

    def f(th: float) -> float:
        return _overlaps(build_entangled_pair(th, eps), mat).metric_overlap.real

    crossings = []
    for a_row, b_row in zip(rows, rows[1:]):
        fa, fb = a_row.metric_overlap.real, b_row.metric_overlap.real
        if fa == 0.0:
            crossings.append(a_row.theta)
            continue
        if (fa > 0) == (fb > 0) or fb == 0.0:
            continue
        a, b = a_row.theta, b_row.theta
        crossings.append(phase.bisect(f, a, b, fa,
                                      1e-12 * max(abs(a), abs(b), 1.0)))
    if rows and rows[-1].metric_overlap.real == 0.0:
        crossings.append(rows[-1].theta)
    return ScanResult(rows=rows, zero_crossings=crossings)
