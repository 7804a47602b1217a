"""Construction, validation and comparison of positive-definite metric operators.

Two construction routes are implemented:

* the spectral route, summing outer products of the left (adjoint)
  eigenvectors of a biorthonormal system;
* the projector route ("das" in the API), assembling the metric from a
  reference metric q0, eigenstate-generating operators sigma_E and spectral
  projectors P_E (Das & Greenwood, J. Math. Phys. 51 (2010) 042103), where
  a unit phase on a term cancels, so none is stored.

Both produce a Hermitian, positive-definite operator under which the
Hamiltonian is self-adjoint (the intertwining relation m H = H^dagger m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BrokenPhase, DefectiveSystem, NotHermitian, SingularMatrix
from .linalg import EigenPair, adjoint, as_matrix, as_vector, frob

BIORTH_TOL = 1e-10
REAL_TOL = 1e-9
POS_TOL = 1e-12
CMP_TOL = 1e-9


@dataclass(frozen=True)
class BiorthSystem:
    """values[k] with its eigenvector columns right[:, k] and left[:, k];
    left^H right = I from biorthonormalize, the model's own normalization
    in a ModelInstance.analytic_system."""

    values: np.ndarray  # (n,) complex
    right: np.ndarray   # (n, n)
    left: np.ndarray    # (n, n)


@dataclass(frozen=True)
class ValidityReport:
    hermitian_residual: float
    min_metric_eigenvalue: float
    intertwining_residual: float
    positive: bool


@dataclass(frozen=True)
class MetricOperator:
    matrix: np.ndarray
    method: str  # spectral | das | analytic


@dataclass(frozen=True)
class DasConstruction:
    """Model-supplied data for the projector-based metric assembly."""

    reference_metric_q0: np.ndarray
    generators: list[np.ndarray]  # sigma_E
    projectors: list[np.ndarray]  # P_E, same order

    def check(self, biorth_tol: float = BIORTH_TOL) -> None:
        """Raise ValueError unless there is one sigma_E per P_E, each P_E
        is idempotent (||P_E^2 - P_E||_F <= biorth_tol max(||P_E||_F, 1))
        and ||sum_E P_E - I||_F <= biorth_tol max(sum_E ||P_E||_F, n): near
        an EP ||P_E|| and the rounding in the sum grow like 1/|<l_E|r_E>|."""
        if len(self.generators) != len(self.projectors):
            raise ValueError(f"{len(self.generators)} generators for "
                             f"{len(self.projectors)} projectors")
        n = self.reference_metric_q0.shape[0]
        total = np.zeros((n, n), dtype=complex)
        for p in self.projectors:
            if frob(p @ p - p) > biorth_tol * max(frob(p), 1.0):
                raise ValueError("projector is not idempotent")
            total += p
        bound = biorth_tol * max(sum(frob(p) for p in self.projectors), n)
        if frob(total - np.eye(n)) > bound:
            raise ValueError("projectors do not resolve the identity")


def check_pseudo_hermitian(h, s) -> float:
    """Relative residual of the intertwining relation S H = H^dagger S."""
    hm, sm = as_matrix(h), as_matrix(s)
    if hm.shape != sm.shape or hm.shape[0] != hm.shape[1]:
        raise ValueError("H and S must be square and the same size")
    linalg.inverse(sm)  # S must be invertible; raises SingularMatrix
    denom = max(frob(sm) * frob(hm), 1e-300)
    return frob(sm @ hm - adjoint(hm) @ sm) / denom


def biorthonormalize(raw: list[EigenPair], *,
                     defect_tol: float = linalg.DEFECT_TOL) -> BiorthSystem:
    """Rescale eigendecompose's pairs to <left_m|right_n> = delta_mn.

    The right vectors, normalized to unit standard norm, are the columns of
    R, in the order of the pairs (eigendecompose's (Re, Im) order); the left
    vectors are the columns of (R^-1)^H, all from one LU of R.
    With unit right vectors, 1/||left_k|| is the overlap |<l_k|r_k>| of the
    unit pair, so the smallest of them is the defect indicator.
    DefectiveSystem (an exceptional point) is raised when it falls below
    defect_tol, and when R is singular, then carrying
    linalg.defect_indicator of the raw pairs.
    """
    if not raw:
        raise ValueError("empty eigensystem")
    r = np.column_stack([p.right for p in raw])
    r = r / np.sqrt(np.sum(np.abs(r) ** 2, axis=0))
    try:
        lefts = adjoint(linalg.inverse(r))
    except SingularMatrix:
        smin = linalg.defect_indicator(raw)
        raise DefectiveSystem(
            f"eigenvector matrix singular (self-overlap {smin:.3e}): "
            "eigensystem incomplete (exceptional point)",
            indicator=smin,
        ) from None
    smin = float(1.0 / np.max(np.sqrt(np.sum(np.abs(lefts) ** 2, axis=0))))
    if smin < defect_tol:
        raise DefectiveSystem(
            f"self-overlap {smin:.3e} below {defect_tol:.1e}: eigensystem "
            "incomplete (exceptional point)",
            indicator=smin,
        )
    return BiorthSystem(np.array([p.value for p in raw], dtype=complex),
                        r, lefts)


def spectral_metric(sys: BiorthSystem, *, h_scale: float | None = None,
                    real_tol: float = REAL_TOL,
                    unit_lefts: bool = True) -> MetricOperator:
    """Metric as the sum of outer products of the columns of sys.left.

    Any positive per-level rescaling of the terms yields an admissible
    metric; with unit_lefts each left column is normalized to unit
    standard norm.  Pass unit_lefts=False to keep the stored
    normalization (a model's analytic_system, whose sum is the model's
    closed-form metric).

    Refuses complex spectra: in the broken phase no positive metric exists.
    """
    scale = h_scale if h_scale is not None else max(abs(sys.values)) or 1.0
    for value in sys.values:
        if abs(value.imag) > real_tol * scale:
            raise BrokenPhase(
                f"eigenvalue {complex(value)!r} has |Im| > {real_tol:.1e} * scale; "
                "spectrum not real (broken phase)"
            )
    m = np.zeros(sys.left.shape, dtype=complex)
    for v in sys.left.T:  # the columns, in order
        if unit_lefts:
            v = v / np.sqrt(np.sum(np.abs(v) ** 2))
        m += np.outer(v, v.conj())
    m = (m + m.conj().T) / 2.0  # exact Hermiticity against rounding
    return MetricOperator(matrix=m, method="spectral")


def das_metric(construction: DasConstruction, *,
               herm_tol: float = linalg.HERM_TOL,
               biorth_tol: float = BIORTH_TOL) -> MetricOperator:
    """Assemble q = sum_E (sigma_E^dagger)^-1 q0 sigma_E^-1 P_E.

    The construction is checked first (DasConstruction.check; ValueError
    if it fails).  Each sigma_E is inverted once; (sigma_E^dagger)^-1 is the
    adjoint of that inverse.  The raw assembly carries O(ulp) anti-Hermitian
    noise from the projector products; it is symmetrized when that part is
    below herm_tol, otherwise the construction data is inconsistent and
    NotHermitian is raised.
    """
    construction.check(biorth_tol)
    q0 = as_matrix(construction.reference_metric_q0)
    n = q0.shape[0]
    q = np.zeros((n, n), dtype=complex)
    for sigma, proj in zip(construction.generators, construction.projectors):
        sig_inv = linalg.inverse(as_matrix(sigma))
        q += adjoint(sig_inv) @ q0 @ sig_inv @ proj
    anti = frob(q - adjoint(q))
    if anti > herm_tol * max(frob(q), 1e-300):
        raise NotHermitian(
            f"projector assembly has anti-Hermitian part {anti:.3e}; "
            "inconsistent q0/sigma choice"
        )
    q = (q + adjoint(q)) / 2.0
    return MetricOperator(matrix=q, method="das")


def validate_metric(h, m: MetricOperator, *,
                    pos_tol: float = POS_TOL) -> ValidityReport:
    """Hermiticity, positivity and intertwining report for a candidate metric."""
    hm = as_matrix(h)
    mat = as_matrix(m.matrix)
    if hm.shape != mat.shape:
        raise ValueError("dimension mismatch between H and metric")
    herm_res = frob(mat - adjoint(mat)) / max(frob(mat), 1e-300)
    sym = (mat + adjoint(mat)) / 2.0
    eigs = linalg.hermitian_spectrum(sym)
    min_eig = float(eigs[0])
    denom = max(frob(mat) * frob(hm), 1e-300)
    intertwining = frob(mat @ hm - adjoint(hm) @ mat) / denom
    return ValidityReport(
        hermitian_residual=herm_res,
        min_metric_eigenvalue=min_eig,
        intertwining_residual=intertwining,
        positive=min_eig > pos_tol,
    )


def metric_inner_product(a, b, m: MetricOperator) -> complex:
    """<a|m|b>: sesquilinear, conjugate-linear in the first slot."""
    av, bv = as_vector(a), as_vector(b)
    mat = as_matrix(m.matrix)
    if av.size != mat.shape[0] or bv.size != mat.shape[1]:
        raise ValueError("dimension mismatch")
    return complex(av.conj() @ mat @ bv)


@dataclass(frozen=True)
class MetricComparison:
    verdict: str  # equal | proportional | distinct
    factor: float | None = None


def compare_metrics(a: MetricOperator, b: MetricOperator, *,
                    cmp_tol: float = CMP_TOL) -> MetricComparison:
    """equal, proportional (a ~= factor * b, factor real positive) or distinct.

    The factor is oriented so that compare_metrics(das, spectral) reports
    the das-to-spectral ratio.
    """
    am, bm = as_matrix(a.matrix), as_matrix(b.matrix)
    if am.shape != bm.shape:
        raise ValueError("dimension mismatch")
    if frob(am - bm) <= cmp_tol * max(frob(am), 1e-300):
        return MetricComparison(verdict="equal")
    factor = complex(np.trace(adjoint(bm) @ am) / np.trace(adjoint(bm) @ bm))
    if (abs(factor.imag) <= cmp_tol * max(abs(factor), 1e-300)
            and factor.real > 0
            and frob(factor.real * bm - am) <= cmp_tol * max(frob(am), 1e-300)):
        return MetricComparison(verdict="proportional", factor=float(factor.real))
    return MetricComparison(verdict="distinct")
