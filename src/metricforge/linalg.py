"""Self-contained dense complex linear algebra.

Everything downstream (metric construction, phase classification, time
evolution) runs on the kernels in this module: partial-pivot LU inversion,
a general complex eigensolver (closed form for 2x2, Hessenberg + shifted QR
above that), a cyclic Jacobi eigensolver for Hermitian matrices, and the
matrix exponential.  Matrices are plain ``numpy.ndarray`` of complex128;
``numpy`` supplies storage and elementwise arithmetic only, never its own
factorizations.

All tolerances are relative to the Frobenius norm of the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DefectiveMatrix, NoConvergence, NotHermitian, SingularMatrix

# Default tolerances, an order below expected double-precision QR accuracy
# at n <= 64.
EIG_TOL = 1e-8
HERM_TOL = 1e-10
DEFECT_TOL = 1e-8
EXP_TOL = 1e-12
SINGULAR_TOL = 1e-13
CLUSTER_TOL = 1e-7
COND_MAX = 1e8


def as_matrix(entries) -> np.ndarray:
    """Validate and coerce to a finite square-or-rectangular complex matrix."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex).reshape(-1)
    if m.size < 1:
        raise ValueError("empty vector")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("vector entries must be finite")
    return m


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T.copy()


def frob(m) -> float:
    """Frobenius norm."""
    return float(np.sqrt(np.sum(np.abs(np.asarray(m)) ** 2)))


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its right eigenvector and its left eigenvector
    (eigenvector of the adjoint for the conjugate eigenvalue).  Both are
    computed for this eigenvalue (above 2x2 from one shifted LU of M), so
    they pair by construction."""

    value: complex
    right: np.ndarray
    left: np.ndarray


# ---------------------------------------------------------------------------
# LU factorization and inversion
# ---------------------------------------------------------------------------

def _lu_factor(m: np.ndarray, singular_tol: float = SINGULAR_TOL):
    """Partial-pivot LU. Returns (combined LU, pivot rows).

    Raises SingularMatrix when a pivot falls below singular_tol * ||m||.
    """
    a = m.astype(complex, copy=True)
    n = a.shape[0]
    piv = np.arange(n)
    floor = singular_tol * max(frob(m), 1e-300)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) <= floor:
            raise SingularMatrix(
                f"pivot {abs(a[p, k]):.3e} below threshold at column {k}"
            )
        if p != k:
            a[[k, p]] = a[[p, k]]
            piv[[k, p]] = piv[[p, k]]
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    return a, piv


def _lu_solve(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M x = b from the LU of M; b is (n,) or (n, k)."""
    n = lu.shape[0]
    x = b[piv].astype(complex)
    for k in range(1, n):          # forward, unit lower triangle
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):  # backward
        x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
    return x


def _lu_solve_adjoint(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M^H x = b from the LU of M (P M = L U, so M^H = U^H L^H P)."""
    n = lu.shape[0]
    y = b.astype(complex)
    for k in range(n):              # forward, lower triangle U^H
        y[k] = (y[k] - lu[:k, k].conj() @ y[:k]) / lu[k, k].conjugate()
    for k in range(n - 2, -1, -1):  # backward, unit upper triangle L^H
        y[k] -= lu[k + 1:, k].conj() @ y[k + 1:]
    x = np.empty_like(y)
    x[piv] = y
    return x


def solve(m, b) -> np.ndarray:
    """Solve m @ x = b for one right-hand side."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("solve needs a square matrix")
    lu, piv = _lu_factor(a)
    return _lu_solve(lu, piv, as_vector(b))


def inverse(m) -> np.ndarray:
    """Matrix inverse via partial-pivot LU, all columns in one blocked solve."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("inverse needs a square matrix")
    lu, piv = _lu_factor(a)
    return _lu_solve(lu, piv, np.eye(a.shape[0], dtype=complex))


# ---------------------------------------------------------------------------
# Eigendecomposition
# ---------------------------------------------------------------------------

def _eig2_values(a: np.ndarray):
    """Eigenvalues of a 2x2 via the quadratic formula (stable variant)."""
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = np.sqrt(complex(tr * tr - 4.0 * det))
    # pick the sign that avoids cancellation
    if (tr.conjugate() * disc).real < 0:
        disc = -disc
    l1 = (tr + disc) / 2.0
    l2 = det / l1 if abs(l1) > 0 else tr - l1
    return l1, l2


def _eig2_vector(a: np.ndarray, lam: complex) -> np.ndarray:
    """Right eigenvector of a 2x2 for eigenvalue lam (null vector of a-lam)."""
    b = a - lam * np.eye(2)
    # choose the larger row for stability
    r0 = np.array([b[0, 1], -b[0, 0]])
    r1 = np.array([b[1, 1], -b[1, 0]])
    v = r0 if frob(r0.reshape(1, 2)) >= frob(r1.reshape(1, 2)) else r1
    nv = np.sqrt(np.sum(np.abs(v) ** 2))
    if nv == 0.0:  # a is lam*I
        return np.array([1.0 + 0j, 0.0 + 0j])
    return v / nv


def _hessenberg(m: np.ndarray) -> np.ndarray:
    """Householder reduction to upper Hessenberg form (eigenvalue-preserving)."""
    a = m.astype(complex, copy=True)
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1:, k]
        nx = np.sqrt(np.sum(np.abs(x) ** 2))
        if nx <= 1e-300:
            continue
        alpha = -np.exp(1j * np.angle(x[0])) * nx if x[0] != 0 else -nx
        v = x.copy()
        v[0] -= alpha
        nv = np.sqrt(np.sum(np.abs(v) ** 2))
        if nv <= 1e-300:
            continue
        v /= nv
        # a <- P a P with P = I - 2 v v^H on the trailing block
        a[k + 1:, k:] -= 2.0 * np.outer(v, v.conj() @ a[k + 1:, k:])
        a[:, k + 1:] -= 2.0 * np.outer(a[:, k + 1:] @ v, v.conj())
    return a


def _wilkinson_shift(h: np.ndarray, hi: int) -> complex:
    """Eigenvalue of the trailing 2x2 closest to the corner entry."""
    a, b = h[hi - 1, hi - 1], h[hi - 1, hi]
    c, d = h[hi, hi - 1], h[hi, hi]
    tr = a + d
    det = a * d - b * c
    disc = np.sqrt(complex(tr * tr - 4.0 * det))
    l1 = (tr + disc) / 2.0
    l2 = (tr - disc) / 2.0
    return l1 if abs(l1 - d) <= abs(l2 - d) else l2


def _qr_eigvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues by Wilkinson-shift QR on the Hessenberg form, within a
    budget of 100 n shifted sweeps."""
    n = m.shape[0]
    h = _hessenberg(m)
    scale = max(frob(m), 1e-300)
    eps = 1e-15
    vals = np.empty(n, dtype=complex)
    hi = n - 1
    iters = 0
    stuck = 0
    while hi > 0:
        # deflate negligible subdiagonals
        deflated = False
        for k in range(hi, 0, -1):
            if abs(h[k, k - 1]) <= eps * (abs(h[k - 1, k - 1]) + abs(h[k, k]) + eps * scale):
                h[k, k - 1] = 0.0
                if k == hi:
                    vals[hi] = h[hi, hi]
                    hi -= 1
                    stuck = 0
                    deflated = True
                break
        if deflated or hi == 0:
            continue
        # find the active block [lo, hi]
        lo = hi
        while lo > 0 and h[lo, lo - 1] != 0.0:
            lo -= 1
        if iters >= 100 * n:
            raise NoConvergence(
                f"QR iteration did not converge in {100 * n} sweeps"
            )
        iters += 1
        stuck += 1
        mu = _wilkinson_shift(h, hi)
        if stuck % 12 == 0:  # exceptional shift against rare cycling
            mu = mu + (0.75 + 0.3j) * abs(h[hi, hi - 1])
        # explicit single-shift QR step, confined to the active block:
        # factor (B - mu I) = QR with Givens rotations, then B <- RQ + mu I
        b = h[lo:hi + 1, lo:hi + 1]
        msize = hi - lo + 1
        for k in range(msize):
            b[k, k] -= mu
        rots = []
        for k in range(msize - 1):
            x, y = b[k, k], b[k + 1, k]
            r = math.hypot(abs(x), abs(y))
            if r <= 1e-300:
                c, s = 1.0 + 0j, 0.0 + 0j
            else:
                c, s = x / r, y / r
            rots.append((c, s))
            rk = b[k, k:].copy()
            rk1 = b[k + 1, k:].copy()
            b[k, k:] = c.conjugate() * rk + s.conjugate() * rk1
            b[k + 1, k:] = -s * rk + c * rk1
        for k, (c, s) in enumerate(rots):
            ck = b[:k + 2, k].copy()
            ck1 = b[:k + 2, k + 1].copy()
            b[:k + 2, k] = ck * c + ck1 * s
            b[:k + 2, k + 1] = -ck * s.conjugate() + ck1 * c.conjugate()
        for k in range(msize):
            b[k, k] += mu
    vals[0] = h[0, 0]
    return vals


def _eig2_vectors(m: np.ndarray, vals) -> list[np.ndarray]:
    """Eigenvectors of a 2x2 for its two sorted eigenvalues vals."""
    v1 = _eig2_vector(m, vals[0])
    if abs(vals[0] - vals[1]) <= CLUSTER_TOL * max(frob(m), 1e-300):
        # independent second direction for (near-)degenerate case
        v2 = np.array([-v1[1].conjugate(), v1[0].conjugate()])
        r2 = m @ v2 - vals[1] * v2
        if np.sqrt(np.sum(np.abs(r2) ** 2)) > EIG_TOL * max(frob(m), 1e-300):
            v2 = _eig2_vector(m, vals[1])
        return [v1, v2]
    return [v1, _eig2_vector(m, vals[1])]


def _inverse_iteration(m: np.ndarray, lam: complex, scale: float,
                       right_cluster: list[np.ndarray],
                       left_cluster: list[np.ndarray]):
    """Right and left eigenvectors for lam by inverse iteration with a
    slightly perturbed shift.

    Each attempt factors M - shift I once.  The right vector iterates with
    that LU, the left vector with its adjoint solve, which is inverse
    iteration on M^H at the conjugate shift.  Each side has its own random
    start and its own list of vectors already found for the same eigenvalue
    cluster; those are projected out of every iterate so repeated
    eigenvalues get independent directions.  Raises NoConvergence when no
    attempt yields a vector.
    """
    n = m.shape[0]
    eye = np.eye(n, dtype=complex)
    tol = 1e-12 * max(scale, 1.0)
    # per side: matrix, its eigenvalue, solver, deflation list, random stream
    sides = [(m, lam, _lu_solve, right_cluster, np.random.default_rng(0x5EED ^ n)),
             (m.conj().T, lam.conjugate(), _lu_solve_adjoint, left_cluster,
              np.random.default_rng(0x5EED ^ n))]
    best = [None, None]
    best_res = [np.inf, np.inf]
    for attempt in range(4):
        shift = lam + (1e-12 * scale if scale > 0 else 1e-12) * (1 + attempt * 97)
        try:
            lu, piv = _lu_factor(m - shift * eye, singular_tol=1e-18)
        except SingularMatrix:
            continue
        for i, (a, target, lu_solve, deflate, rng) in enumerate(sides):
            if best_res[i] <= tol:
                continue
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for u in deflate:
                v -= (u.conj() @ v) * u
            v /= np.sqrt(np.sum(np.abs(v) ** 2))
            for _ in range(3 + attempt):
                v = lu_solve(lu, piv, v)
                for u in deflate:
                    v -= (u.conj() @ v) * u
                nv = np.sqrt(np.sum(np.abs(v) ** 2))
                if not np.isfinite(nv) or nv <= 1e-300:
                    break
                v /= nv
            else:
                res = np.sqrt(np.sum(np.abs(a @ v - target * v) ** 2))
                if res < best_res[i]:
                    best[i], best_res[i] = v, res
        if max(best_res) <= tol:
            break
    if best[0] is None or best[1] is None:
        raise NoConvergence(
            f"inverse iteration found no eigenvector for {complex(lam)!r}"
        )
    return best[0], best[1]


def _eigensystem(m: np.ndarray):
    """Eigenvalues sorted by (Re, Im), with right and left eigenvectors in
    the same order."""
    n = m.shape[0]
    if n == 1:
        return np.array([m[0, 0]]), [np.array([1.0 + 0j])], [np.array([1.0 + 0j])]
    if n == 2:
        l1, l2 = _eig2_values(m)
        vals = sorted([l1, l2], key=lambda z: (z.real, z.imag))
        return (np.array(vals), _eig2_vectors(m, vals),
                _eig2_vectors(m.conj().T, [z.conjugate() for z in vals]))
    vals = _qr_eigvalues(m)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    scale = frob(m)
    rights: list[np.ndarray] = []
    lefts: list[np.ndarray] = []
    r_cluster: list[np.ndarray] = []
    l_cluster: list[np.ndarray] = []
    for i, lam in enumerate(vals):
        if i > 0 and abs(lam - vals[i - 1]) > CLUSTER_TOL * max(scale, 1e-300):
            r_cluster, l_cluster = [], []
        r, l = _inverse_iteration(m, lam, scale, r_cluster, l_cluster)
        r_cluster.append(r)
        l_cluster.append(l)
        rights.append(r)
        lefts.append(l)
    return vals, rights, lefts


def eigendecompose(m, *, defect_tol: float = DEFECT_TOL,
                   allow_defective: bool = False) -> list[EigenPair]:
    """Full eigendecomposition with left eigenvectors.

    One Hessenberg + shifted QR run on M gives the eigenvalues (closed form
    for 2x2).  For each eigenvalue, inverse iteration factors M - shift I
    once and takes the right vector from that LU and the left vector from
    its adjoint solve (the LAPACK xHSEIN approach), so pair k holds the
    right and left vectors of eigenvalue k.  Eigenvalues are sorted
    ascending by (Re, Im).  Raises NoConvergence when QR or inverse
    iteration fails, and DefectiveMatrix when a left/right pair is
    numerically orthogonal, unless allow_defective is set (phase
    classification needs the raw overlap).
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("eigendecompose needs a square matrix")
    n = a.shape[0]
    fa = frob(a)
    if fa == 0.0:
        eye = np.eye(n, dtype=complex)
        return [EigenPair(value=0j, right=eye[:, k].copy(),
                          left=eye[:, k].copy()) for k in range(n)]
    # normalize extreme magnitudes (subnormal or huge entries break the
    # fixed absolute thresholds inside the QR/inverse-iteration kernels)
    factor = 1.0
    if fa < 1e-100 or fa > 1e100:
        factor = fa
        a = a / fa
    vals, rights, lefts = _eigensystem(a)
    pairs = [EigenPair(value=complex(lam) * factor, right=r, left=l)
             for lam, r, l in zip(vals, rights, lefts)]
    if not allow_defective:
        for p in pairs:
            if abs(p.left.conj() @ p.right) < defect_tol:
                raise DefectiveMatrix(
                    "left/right eigenvector pair numerically orthogonal "
                    f"at E={p.value!r} (exceptional point?)",
                    indicator=float(abs(p.left.conj() @ p.right)),
                )
    return pairs


def defect_indicator(pairs: list[EigenPair]) -> float:
    """Minimum |<left|right>| over unit-normalized pairs (0 at an EP)."""
    worst = 1.0
    for p in pairs:
        nl = np.sqrt(np.sum(np.abs(p.left) ** 2))
        nr = np.sqrt(np.sum(np.abs(p.right) ** 2))
        worst = min(worst, float(abs(p.left.conj() @ p.right)) / max(nl * nr, 1e-300))
    return worst


# ---------------------------------------------------------------------------
# Hermitian spectrum (cyclic Jacobi)
# ---------------------------------------------------------------------------

def hermitian_spectrum(m, herm_tol: float = HERM_TOL) -> np.ndarray:
    """Real eigenvalues (ascending) of a Hermitian matrix, by cyclic Jacobi.

    Sweeps stop once the off-diagonal Frobenius norm, taken directly from
    the off-diagonal entries, is at most 1e-14 ||M|| (60 sweeps at most).
    Deriving it as ||A||^2 - sum |a_ii|^2 would cancel below about
    sqrt(eps) ||M|| and never resolve that threshold.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("hermitian_spectrum needs a square matrix")
    scale = max(frob(a), 1e-300)
    if frob(a - a.conj().T) > herm_tol * scale:
        raise NotHermitian(
            f"||M - M^H|| = {frob(a - a.conj().T):.3e} exceeds {herm_tol:.1e} * ||M||"
        )
    a = (a + a.conj().T) / 2.0
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])
    for _ in range(60):
        off = frob(a - np.diag(np.diag(a)))
        if off <= 1e-14 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                phase = apq / abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.sqrt(tau * tau + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # unitary J: J[p,p]=c, J[p,q]=s*phase, J[q,p]=-s*conj(phase), J[q,q]=c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * phase.conjugate() * col_q
                a[:, q] = s * phase * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * phase.conjugate() * row_p + c * row_q
    return np.sort(np.diag(a).real)


# ---------------------------------------------------------------------------
# Matrix exponential
# ---------------------------------------------------------------------------

def exp_propagator(m):
    """Factor M once and return ``scale -> exp(scale * M)``.

    The factor step decides the path: diagonalization M = V diag(lam) V^-1
    when the eigenvector matrix is well conditioned (Frobenius condition
    number below COND_MAX) and reconstructs M, otherwise scaling-and-squaring
    with a Taylor series truncated once a term falls below EXP_TOL.  The
    decision does not depend on the scale, so a propagator built once
    serves every time point of a trajectory.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("mat_exp needs a square matrix")
    n = a.shape[0]
    try:
        pairs = eigendecompose(a)
        v = np.column_stack([p.right for p in pairs])
        vinv = inverse(v)
        if frob(v) * frob(vinv) < COND_MAX:
            values = [p.value for p in pairs]
            recon = v @ np.diag(values) @ vinv
            if frob(recon - a) <= 1e-8 * max(frob(a), 1e-300):
                def diagonal(scale: complex) -> np.ndarray:
                    lam = np.array([np.exp(scale * x) for x in values])
                    return v @ (lam[:, None] * vinv)
                return diagonal
    except (SingularMatrix, DefectiveMatrix, NoConvergence):
        pass

    def taylor(scale: complex) -> np.ndarray:
        # scaling and squaring with Taylor
        b = scale * a
        nb = frob(b)
        s = max(0, int(math.ceil(math.log2(nb))) + 1) if nb > 0.5 else 0
        b = b / (2 ** s)
        result = np.eye(n, dtype=complex)
        term = np.eye(n, dtype=complex)
        for k in range(1, 80):
            term = term @ b / k
            result = result + term
            if frob(term) <= EXP_TOL * max(frob(result), 1.0):
                break
        for _ in range(s):
            result = result @ result
        return result
    return taylor


def mat_exp(m, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * M), by a one-off ``exp_propagator(M)``.

    Diagonalization path when the eigenvector matrix is well conditioned;
    otherwise scaling-and-squaring with a truncated Taylor series.  To
    evaluate many scales of one M, build the propagator once instead.
    """
    return exp_propagator(m)(scale)
