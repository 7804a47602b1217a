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
from .errors import BrokenPhase, DefectiveSystem, NotHermitian
from .linalg import EigenPair, adjoint, as_matrix, as_vector, frob

BIORTH_TOL = 1e-10
REAL_TOL = 1e-9
POS_TOL = 1e-12
CMP_TOL = 1e-9


@dataclass(frozen=True)
class BiorthSystem:
    """Paired right/left eigenvectors with <left_m|right_n> = delta_mn."""

    pairs: list[EigenPair]
    dim: int

    def right_matrix(self) -> np.ndarray:
        return np.column_stack([p.right for p in self.pairs])

    def left_matrix(self) -> np.ndarray:
        return np.column_stack([p.left for p in self.pairs])

    def gram(self) -> np.ndarray:
        return self.left_matrix().conj().T @ self.right_matrix()

    def completeness_residual(self) -> float:
        s = sum(np.outer(p.right, p.left.conj()) for p in self.pairs)
        return frob(s - np.eye(self.dim))


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
        if len(self.generators) != len(self.projectors):
            raise ValueError(f"{len(self.generators)} generators for "
                             f"{len(self.projectors)} projectors")
        n = self.reference_metric_q0.shape[0]
        total = np.zeros((n, n), dtype=complex)
        for p in self.projectors:
            if frob(p @ p - p) > biorth_tol * max(frob(p), 1.0):
                raise ValueError("projector is not idempotent")
            total += p
        if frob(total - np.eye(n)) > biorth_tol * n:
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
    """Rescale an eigensystem to <left_m|right_n> = delta_mn.

    Right vectors are normalized to unit standard norm first; left vectors
    absorb the biorthonormality factor.  Eigenvalues within
    linalg.CLUSTER_TOL (relative to the largest |eigenvalue|) of each other
    are treated as one cluster and rescaled jointly through the cluster
    Gram matrix.
    """
    if not raw:
        raise ValueError("empty eigensystem")
    dim = raw[0].right.size
    pairs = sorted(raw, key=lambda p: (p.value.real, p.value.imag))
    rights = [p.right / np.sqrt(np.sum(np.abs(p.right) ** 2)) for p in pairs]
    lefts = [p.left / np.sqrt(np.sum(np.abs(p.left) ** 2)) for p in pairs]
    scale = max(abs(p.value) for p in pairs) or 1.0

    out: list[EigenPair] = []
    i = 0
    while i < len(pairs):
        j = i + 1
        while (j < len(pairs) and abs(pairs[j].value - pairs[j - 1].value)
               <= linalg.CLUSTER_TOL * scale):
            j += 1
        r_blk = np.column_stack(rights[i:j])
        l_blk = np.column_stack(lefts[i:j])
        gram = l_blk.conj().T @ r_blk
        # smallest singular direction of the Gram block is the defect indicator
        gg = linalg.hermitian_spectrum(gram.conj().T @ gram, herm_tol=1.0)
        smin = float(np.sqrt(max(gg[0], 0.0)))
        if smin < defect_tol:
            raise DefectiveSystem(
                f"self-overlap {smin:.3e} below {defect_tol:.1e}: eigensystem "
                "incomplete (exceptional point)",
                indicator=smin,
            )
        l_new = l_blk @ adjoint(linalg.inverse(gram))
        for k in range(j - i):
            out.append(EigenPair(pairs[i + k].value, r_blk[:, k], l_new[:, k]))
        i = j
    return BiorthSystem(pairs=out, dim=dim)


def spectral_metric(sys: BiorthSystem, *, h_scale: float | None = None,
                    real_tol: float = REAL_TOL,
                    unit_lefts: bool = True) -> MetricOperator:
    """Metric as the sum of outer products of the left eigenvectors.

    Any positive per-level rescaling of the terms yields an admissible
    metric; with unit_lefts each left eigenvector is normalized to unit
    standard norm, the convention that reproduces the reference matrices
    for the bundled models.  Pass unit_lefts=False to keep the stored
    normalization (used with analytically normalized model eigenvectors).

    Refuses complex spectra: in the broken phase no positive metric exists.
    """
    scale = h_scale if h_scale is not None else max(abs(p.value) for p in sys.pairs) or 1.0
    for p in sys.pairs:
        if abs(p.value.imag) > real_tol * scale:
            raise BrokenPhase(
                f"eigenvalue {p.value!r} has |Im| > {real_tol:.1e} * scale; "
                "spectrum not real (broken phase)"
            )
    m = np.zeros((sys.dim, sys.dim), dtype=complex)
    for p in sys.pairs:
        v = p.left
        if unit_lefts:
            v = v / np.sqrt(np.sum(np.abs(v) ** 2))
        m += np.outer(v, v.conj())
    m = (m + m.conj().T) / 2.0  # exact Hermiticity against rounding
    return MetricOperator(matrix=m, method="spectral")


def das_metric(construction: DasConstruction, *,
               herm_tol: float = linalg.HERM_TOL,
               biorth_tol: float = BIORTH_TOL) -> MetricOperator:
    """Assemble q = sum_E (sigma_E^dagger)^-1 q0 sigma_E^-1 P_E.

    The construction is checked first (one generator per projector,
    idempotent projectors resolving the identity to biorth_tol; ValueError
    otherwise).  Each sigma_E is inverted once; (sigma_E^dagger)^-1 is the
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
    eigs = linalg.hermitian_spectrum(sym, herm_tol=1.0)
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
