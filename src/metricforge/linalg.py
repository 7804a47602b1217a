"""Self-contained dense complex linear algebra.

Everything downstream (metric construction, phase classification, time
evolution) runs on the kernels in this module: partial-pivot LU inversion,
a general complex eigensolver (one complex Schur form for every n, closed
form at 2x2 and Hessenberg + shifted QR above, with eigenvectors by
triangular back-substitution; the 2x2 closed form, _eig2_system, also
takes a stack of matrices, which phase judges in one pass, and gives each
matrix the bits it gives alone), Hermitian spectra by Householder
tridiagonalization and implicit QL, and the matrix exponential
(diagonalization, or Pade-13 scaling and squaring).  The
eigensolver only decomposes; metric.biorthonormalize alone refuses an
incomplete eigensystem.  Matrices are plain ``numpy.ndarray`` of
complex128; ``numpy`` supplies storage and elementwise arithmetic, never
its own factorizations.

All tolerances are relative to the Frobenius norm of the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, SingularMatrix

# Default tolerances, an order below expected double-precision QR accuracy
# at n <= 64.
HERM_TOL = 1e-10
DEFECT_TOL = 1e-8
SINGULAR_TOL = 1e-13
COND_MAX = 1e8
QL_MAX_ITERS = 30  # times n, per tridiagonal QL call (LAPACK xSTEQR)
# matrix entries per stack that one broadcast step holds (16 MB of
# complex128): the propagators of dynamics.evolve, the 2x2 Hamiltonians of
# phase.sweep
STACK_ENTRIES = 1 << 20


def as_matrix(entries) -> np.ndarray:
    """Validate and coerce to a finite square-or-rectangular complex matrix,
    C-ordered (a transposed or Fortran-ordered input is copied, so the
    kernels see one memory layout and return the same bits for it)."""
    m = np.asarray(entries, dtype=complex, order="C")
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex, order="C").reshape(-1)
    if m.size < 1:
        raise ValueError("empty vector")
    if not np.all(np.isfinite(m)):
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
    computed for this eigenvalue from the same Schur form of M, so they pair
    by construction.  eigendecompose's element type, read only by
    metric.biorthonormalize (which returns a metric.BiorthSystem of paired
    columns), defect_indicator, exp_propagator and phase.label_spectrum
    (above 2x2; phase judges a 2x2 from the arrays of _eig2_system)."""

    value: complex
    right: np.ndarray
    left: np.ndarray


# ---------------------------------------------------------------------------
# LU factorization and inversion
# ---------------------------------------------------------------------------

def _lu_factor(m: np.ndarray):
    """Partial-pivot LU. Returns (combined LU, pivot rows).

    Raises SingularMatrix when a pivot falls below SINGULAR_TOL * ||m||.
    """
    a = m.astype(complex, copy=True)
    n = a.shape[0]
    piv = np.arange(n)
    floor = SINGULAR_TOL * max(frob(m), 1e-300)
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

def _cmul(x, y):
    """x * y for two complex scalars or two arrays, rounded as numpy's
    scalar complex product is: two real products, then their difference or
    sum.  The vectorized complex product may fuse a multiply with the add,
    so a stack of matrices would not keep the bits each matrix gives
    alone."""
    if not isinstance(x, np.ndarray):
        return x * y
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _eig2_values(a00, a01, a10, a11):
    """Eigenvalues c +- sqrt(((a00 - a11)/2)^2 + a01 a10) of the 2x2
    matrices [[a00, a01], [a10, a11]], given by their entries (scalars, or
    arrays over a stack), centred on the mean c of the diagonal: a nearly
    scalar diagonal keeps its split to working accuracy, where
    tr^2 - 4 det would cancel."""
    c = (a00 + a11) / 2.0
    half = (a00 - a11) / 2.0
    disc = np.sqrt(_cmul(half, half) + _cmul(a01, a10))
    return c + disc, c - disc


def _eig2_vector(a: np.ndarray, lam) -> np.ndarray:
    """Unit right eigenvectors (..., 2) of the 2x2 matrices a (..., 2, 2)
    for the eigenvalues lam (...): the null vector of a - lam I from its
    larger row, for stability, or e_0 where a = lam I."""
    b = a - np.asarray(lam)[..., None, None] * np.eye(2)
    # row i of b turned a quarter: [b_i1, -b_i0], orthogonal to row i
    rows = np.stack([b[..., :, 1], -b[..., :, 0]], axis=-1)
    norms = np.sqrt(np.sum(np.abs(rows) ** 2, axis=-1))
    first = norms[..., 0] >= norms[..., 1]
    v = np.where(first[..., None], rows[..., 0, :], rows[..., 1, :])
    nv = np.where(first, norms[..., 0], norms[..., 1])
    scalar = nv == 0.0
    if not scalar.any():
        return v / nv[..., None]
    v = v / np.where(scalar, 1.0, nv)[..., None]
    return np.where(scalar[..., None], np.array([1.0 + 0j, 0j]), v)


def _schur2(m: np.ndarray):
    """Complex Schur forms M = Z T Z^H of the 2x2 matrices m (..., 2, 2),
    closed: Z's first column is the eigenvector of the first root from
    _eig2_values, its second column the orthogonal complement, and both
    roots are written on T's diagonal, so equal roots stay bit-equal;
    T_10 is exactly 0.  T_01 = z1^H M z2 is two stacked matrix products,
    which round as the products of one matrix do."""
    l1, l2 = _eig2_values(m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1])
    z1 = _eig2_vector(m, l1)
    z2 = np.stack([-z1[..., 1].conj(), z1[..., 0].conj()], axis=-1)
    t = np.zeros(m.shape, dtype=complex)
    t[..., 0, 0], t[..., 1, 1] = l1, l2
    t[..., 0, 1] = (z1.conj()[..., None, :] @ m @ z2[..., None])[..., 0, 0]
    return t, np.stack([z1, z2], axis=-1)


def _triangular_eigvecs2(t: np.ndarray) -> np.ndarray:
    """_triangular_eigvecs of the 2x2 matrices t (..., 2, 2) whose T_10 is
    zero, closed: X = [[1, x], [0, 1]] with x = -T_01 / d, where the pivot
    d = T_00 - T_11 is floored at eps ||T|| and the column is divided by
    |x| above 1e100."""
    eps = np.finfo(float).eps
    floor = eps * np.maximum(
        np.sqrt(np.sum(np.abs(t) ** 2, axis=(-2, -1))), 1e-300)
    d = t[..., 0, 0] - t[..., 1, 1]
    d = np.where(np.abs(d) < floor, floor, d)
    x = np.zeros(t.shape, dtype=complex)
    x[..., 0, 0] = x[..., 1, 1] = 1.0
    x[..., 0, 1] = -t[..., 0, 1] / d
    size = np.abs(x[..., 0, 1])
    big = size > 1e100
    if big.any():
        col = x[..., :, 1] / np.where(big, size, 1.0)[..., None]
        x[..., :, 1] = np.where(big[..., None], col, x[..., :, 1])
    return x


def _eig2_system(m: np.ndarray):
    """_eigensystem of the finite 2x2 matrices m (..., 2, 2): eigenvalues
    (..., 2), unit right and left eigenvectors (the columns of two
    (..., 2, 2) arrays) and factors (...), each matrix bit for bit the one
    it gives alone, from the closed forms."""
    fa = np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1)))
    zero = fa == 0.0
    extreme = (fa < 1e-100) | (fa > 1e100)
    factor = np.where(extreme, fa, 1.0)
    a = m
    if extreme.any():
        with np.errstate(divide="ignore", invalid="ignore"):  # fa = 0
            scaled = m / factor[..., None, None]
        # H = 0 runs the closed forms as I, whose eigenvalues factor = 0
        # zeroes
        a = np.where(zero[..., None, None], np.eye(2),
                     np.where(extreme[..., None, None], scaled, m))
    t, z = _schur2(a)
    # M = Z T Z^H: right vectors Z X from T; left vectors Z Y from T^H,
    # which is upper triangular after reversing its rows and columns
    x = _triangular_eigvecs2(np.stack(
        [t, np.swapaxes(t.conj(), -1, -2)[..., ::-1, ::-1]], axis=-3))
    rights = z @ x[..., 0, :, :]
    lefts = z @ x[..., 1, ::-1, ::-1]
    rights = rights / np.sqrt(np.sum(np.abs(rights) ** 2, axis=-2, keepdims=True))
    lefts = lefts / np.sqrt(np.sum(np.abs(lefts) ** 2, axis=-2, keepdims=True))
    if zero.any():
        eye = np.eye(2, dtype=complex)
        rights = np.where(zero[..., None, None], eye, rights)
        lefts = np.where(zero[..., None, None], eye, lefts)
    return np.stack([t[..., 0, 0], t[..., 1, 1]], axis=-1), rights, lefts, factor


def _reflector(x: np.ndarray):
    """Unit v with (I - 2 v v^H) x = alpha e_0, |alpha| = ||x||, or None
    when x is numerically zero."""
    nx = np.sqrt(np.sum(np.abs(x) ** 2))
    if nx <= 1e-300:
        return None
    alpha = -np.exp(1j * np.angle(x[0])) * nx if x[0] != 0 else -nx
    v = x.copy()
    v[0] -= alpha
    nv = np.sqrt(np.sum(np.abs(v) ** 2))
    if nv <= 1e-300:
        return None
    return v / nv


def _hessenberg(m: np.ndarray):
    """Householder reduction M = Z H Z^H to upper Hessenberg H, Z unitary.

    Entries below the subdiagonal are left at rounding level; nothing
    downstream reads them.
    """
    a = m.astype(complex, copy=True)
    n = a.shape[0]
    z = np.eye(n, dtype=complex)
    for k in range(n - 2):
        v = _reflector(a[k + 1:, k])
        if v is None:
            continue
        # a <- P a P and z <- z P with P = I - 2 v v^H on the trailing block
        a[k + 1:, k:] -= 2.0 * np.outer(v, v.conj() @ a[k + 1:, k:])
        a[:, k + 1:] -= 2.0 * np.outer(a[:, k + 1:] @ v, v.conj())
        z[:, k + 1:] -= 2.0 * np.outer(z[:, k + 1:] @ v, v.conj())
    return a, z


def _wilkinson_shift(h: np.ndarray, hi: int) -> complex:
    """Eigenvalue of the trailing 2x2 closest to the corner entry."""
    l1, l2 = _eig2_values(h[hi - 1, hi - 1], h[hi - 1, hi], h[hi, hi - 1],
                          h[hi, hi])
    d = h[hi, hi]
    return l1 if abs(l1 - d) <= abs(l2 - d) else l2


def _schur(m: np.ndarray):
    """Complex Schur form M = Z T Z^H by Wilkinson-shift QR on the
    Hessenberg form, within a budget of 100 n shifted sweeps.

    Returns (T, Z): T is upper triangular with the eigenvalues on its
    diagonal (only the entries on and above the diagonal are meaningful)
    and Z is unitary.  Each sweep is an explicit single-shift QR step on
    the active block B: factor B - mu I = QR with Givens rotations, then
    B <- RQ + mu I.  The same rotations also update the rows of H right of
    the block, the columns above it and Z; the arithmetic inside the block
    does not depend on them.

    A 1x1 returns T = M and Z = I; a 2x2 takes the closed form _schur2.
    """
    n = m.shape[0]
    h, z = _hessenberg(m)
    # Z stacked over H, so one column slice carries a rotation through Z
    # and through the rows of H down to the rotated pair
    zh = np.vstack([z, h])
    h = zh[n:]
    scale = max(frob(m), 1e-300)
    eps = 1e-15
    hi = n - 1
    iters = 0
    stuck = 0
    while hi > 0:
        # deflate negligible subdiagonals; once an exceptional shift has
        # not helped either, also accept one at the rounding level of M
        # itself (a nearly defective pair can stall just above the local
        # test)
        stalled = eps * scale if stuck >= 12 else 0.0
        deflated = False
        for k in range(hi, 0, -1):
            sub = abs(h[k, k - 1])
            if (sub <= eps * (abs(h[k - 1, k - 1]) + abs(h[k, k]) + eps * scale)
                    or sub <= stalled):
                h[k, k - 1] = 0.0
                if k == hi:
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
        for k in range(lo, hi + 1):
            h[k, k] -= mu
        rots = []
        for k in range(lo, hi):
            x, y = h[k, k], h[k + 1, k]
            r = math.hypot(abs(x), abs(y))
            if r <= 1e-300:
                c, s = 1.0 + 0j, 0.0 + 0j
            else:
                c, s = x / r, y / r
            rots.append((c, s))
            rk = h[k, k:].copy()
            rk1 = h[k + 1, k:].copy()
            h[k, k:] = c.conjugate() * rk + s.conjugate() * rk1
            h[k + 1, k:] = -s * rk + c * rk1
        for k, (c, s) in zip(range(lo, hi), rots):
            ck = zh[:n + k + 2, k].copy()
            ck1 = zh[:n + k + 2, k + 1].copy()
            zh[:n + k + 2, k] = ck * c + ck1 * s
            zh[:n + k + 2, k + 1] = -ck * s.conjugate() + ck1 * c.conjugate()
        for k in range(lo, hi + 1):
            h[k, k] += mu
    return h, zh[:n]


def _triangular_eigvecs(t: np.ndarray) -> np.ndarray:
    """Right eigenvectors of an upper-triangular T, as the columns of an
    upper-triangular X (LAPACK xTREVC).

    One back-substitution serves every eigenvalue at once: row i of X is
    solved for all columns k > i together.  A pivot T_ii - T_kk smaller
    than eps ||T|| is replaced by eps ||T||, so repeated eigenvalues still
    get finite, independent vectors; a column is rescaled before it can
    overflow.
    """
    n = t.shape[0]
    lam = np.diag(t)
    floor = np.finfo(float).eps * max(frob(np.triu(t)), 1e-300)
    x = np.eye(n, dtype=complex)
    for i in range(n - 2, -1, -1):
        d = t[i, i] - lam[i + 1:]
        d[np.abs(d) < floor] = floor
        row = -(t[i, i + 1:] @ x[i + 1:, i + 1:]) / d
        x[i, i + 1:] = row
        big = np.abs(row) > 1e100
        if big.any():
            x[:, i + 1:][:, big] /= np.abs(row[big])
    return x


def _eigensystem(a: np.ndarray):
    """(values, rights, lefts, factor) of a finite n x n matrix, n != 2,
    from one Schur form: the eigenvalues of M / factor, unsorted, and the
    unit right and left eigenvectors as columns.  The factor is the
    Frobenius norm where that lies outside [1e-100, 1e100] (subnormal or
    huge entries break the fixed absolute thresholds inside the QR
    kernel), else 1.  H = 0 gives the identity pairs and factor 0."""
    n = a.shape[0]
    fa = frob(a)
    if fa == 0.0:
        eye = np.eye(n, dtype=complex)
        return np.ones(n, dtype=complex), eye, eye, 0.0
    factor = 1.0
    if fa < 1e-100 or fa > 1e100:
        factor = fa
        a = a / fa
    t, z = _schur(a)
    # M = Z T Z^H: right vectors Z X from T; left vectors Z Y from T^H,
    # which is upper triangular after reversing its rows and columns
    rights = z @ _triangular_eigvecs(t)
    lefts = z @ _triangular_eigvecs(t.conj().T[::-1, ::-1])[::-1, ::-1]
    rights /= np.sqrt(np.sum(np.abs(rights) ** 2, axis=0))
    lefts /= np.sqrt(np.sum(np.abs(lefts) ** 2, axis=0))
    return np.diag(t), rights, lefts, factor


def eigendecompose(m) -> list[EigenPair]:
    """Full eigendecomposition with left eigenvectors.

    One Schur form M = Z T Z^H (closed at 2x2, where _eig2_system serves a
    stack of matrices too; one Hessenberg + shifted QR run above); for
    every n the right vectors are Z X and the left vectors Z Y, where X and
    Y are the eigenvectors of T and T^H from triangular back-substitution
    over all eigenvalues at once (the LAPACK xTREVC approach), so pair k
    holds the right and left vectors of eigenvalue k, each of unit norm.
    Eigenvalues are sorted ascending by (Re, Im).  Raises NoConvergence
    when QR fails.  At an exceptional point a pair comes back numerically
    orthogonal (see defect_indicator); only metric.biorthonormalize
    refuses it.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("eigendecompose needs a square matrix")
    solve = _eig2_system if a.shape[0] == 2 else _eigensystem
    vals, rights, lefts, factor = solve(a)
    order = np.lexsort((vals.imag, vals.real))
    return [EigenPair(value=complex(vals[k]) * float(factor),
                      right=rights[:, k].copy(), left=lefts[:, k].copy())
            for k in order]


def defect_indicator(pairs: list[EigenPair]) -> float:
    """Minimum |<left|right>| over unit-normalized pairs (0 at an EP)."""
    worst = 1.0
    for p in pairs:
        nl = np.sqrt(np.sum(np.abs(p.left) ** 2))
        nr = np.sqrt(np.sum(np.abs(p.right) ** 2))
        worst = min(worst, float(abs(p.left.conj() @ p.right)) / max(nl * nr, 1e-300))
    return worst


# ---------------------------------------------------------------------------
# Hermitian spectrum (tridiagonalization + implicit QL)
# ---------------------------------------------------------------------------

def _tridiagonal(a: np.ndarray):
    """Householder reduction of a Hermitian matrix to real symmetric
    tridiagonal form: returns the diagonal d and the subdiagonal e.

    The complex subdiagonal entries alpha_k are replaced by |alpha_k|, a
    diagonal unitary similarity that leaves the eigenvalues unchanged.
    """
    a = a.copy()
    n = a.shape[0]
    e = np.empty(n - 1)
    for k in range(n - 2):
        e[k] = frob(a[k + 1:, k])
        v = _reflector(a[k + 1:, k])
        if v is None:
            continue
        # b <- P b P with P = I - 2 v v^H, as a Hermitian rank-2 update
        b = a[k + 1:, k + 1:]
        u = b @ v
        w = u - (v.conj() @ u) * v
        b -= 2.0 * (np.outer(v, w.conj()) + np.outer(w, v.conj()))
    e[n - 2] = abs(a[n - 1, n - 2])
    return np.diag(a).real.copy(), e


def _tridiagonal_ql(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of the symmetric tridiagonal (d, e) by implicit QL with
    Wilkinson shifts (Golub & Van Loan 8.3; EISPACK tql1).

    Raises NoConvergence when the n eigenvalues together need more than
    QL_MAX_ITERS * n iterations: one budget for the call, as in LAPACK
    xSTEQR, since graded input can spend far more than QL_MAX_ITERS on one
    eigenvalue and then few on the rest.
    """
    n = len(d)
    e = e + [0.0]
    eps = np.finfo(float).eps
    iters = 0
    for lo in range(n):
        while True:
            # the first negligible subdiagonal at or below lo ends the block
            m = lo
            while m < n - 1 and abs(e[m]) > eps * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == lo:
                break
            if iters == QL_MAX_ITERS * n:
                raise NoConvergence(
                    f"QL iteration did not converge in {QL_MAX_ITERS * n} steps"
                )
            iters += 1
            g = (d[lo + 1] - d[lo]) / (2.0 * e[lo])
            r = math.hypot(g, 1.0)
            g = d[m] - d[lo] + e[lo] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, lo - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # the rotation split the block: recover
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[lo] -= p
                e[lo] = g
                e[m] = 0.0
    return d


def hermitian_spectrum(m) -> np.ndarray:
    """Real eigenvalues (ascending) of a Hermitian matrix.

    Householder reduction to real symmetric tridiagonal form, then implicit
    QL with Wilkinson shifts.  Raises NotHermitian when ||M - M^H|| exceeds
    HERM_TOL ||M||, and NoConvergence when QL does not converge.  (A + A^H)/2
    is Hermitian bit for bit, so it always passes.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("hermitian_spectrum needs a square matrix")
    scale = max(frob(a), 1e-300)
    if frob(a - a.conj().T) > HERM_TOL * scale:
        raise NotHermitian(
            f"||M - M^H|| = {frob(a - a.conj().T):.3e} exceeds {HERM_TOL:.1e} * ||M||"
        )
    a = (a + a.conj().T) / 2.0
    if a.shape[0] == 1:
        return np.array([a[0, 0].real])
    d, e = _tridiagonal(a)
    return np.sort(_tridiagonal_ql(d.tolist(), e.tolist()))


# ---------------------------------------------------------------------------
# Matrix exponential
# ---------------------------------------------------------------------------

# Pade [13/13] coefficients b_0..b_13 and the 1-norm up to which the
# approximant is accurate to double precision (Higham, SIAM J. Matrix Anal.
# Appl. 26 (2005) 1179, Table 2.3 and eq. (2.2))
PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0,
          670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
          960960.0, 16380.0, 182.0, 1.0)
THETA_13 = 5.371920351148152


def _pade13(a: np.ndarray):
    """``scale -> exp(scale * A)`` by Pade-13 scaling and squaring.

    A^2, A^4 and A^6 are formed once; each scale c then costs three
    products, one LU solve and s squarings, s being the least integer with
    ||c A||_1 / 2^s <= THETA_13 (an infinite or NaN scale gives s = 0 and a
    non-finite result).  An array of scales gives the stack of the
    matrices each scale gives alone.
    """
    b = PADE13
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    norm1 = float(np.max(np.sum(np.abs(a), axis=0)))

    def pade(scale) -> np.ndarray:
        c = complex(scale)
        x = abs(c) * norm1 / THETA_13
        s = math.ceil(math.log2(x)) if 1.0 < x < math.inf else 0
        c1 = c / 2.0 ** s
        c2 = c1 * c1
        c4 = c2 * c2
        c6 = c4 * c2
        x2, x4, x6 = c2 * a2, c4 * a4, c6 * a6
        u = (c1 * a) @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
                        + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
        v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
             + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
        lu, piv = _lu_factor(v - u)
        r = _lu_solve(lu, piv, v + u)
        for _ in range(s):
            r = r @ r
        return r

    def propagator(scale) -> np.ndarray:
        if np.ndim(scale):
            return np.stack([pade(c) for c in scale])
        return pade(scale)
    return propagator


def exp_propagator(m):
    """Factor M once and return ``scale -> exp(scale * M)``.

    The scale is a complex number, giving the (n, n) matrix, or a 1-D array
    of T of them, giving the (T, n, n) stack whose k-th matrix is bit for
    bit the one that scale k alone gives.  The factor step decides the
    path: diagonalization M = V diag(lam) V^-1 when the eigenvector matrix
    is well conditioned (Frobenius condition number below COND_MAX) and
    reconstructs M, otherwise Pade-13 scaling and squaring (Higham 2005).
    The decision does not depend on the scale, so a propagator built once
    serves every time point of a trajectory.  Near an EP, cond_F(V) >=
    sqrt(n) / min_k |<l_k|r_k>| for unit vectors, so an overlap below
    DEFECT_TOL fails COND_MAX; at an exact EP inverse(V) is singular.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("exp_propagator needs a square matrix")
    try:
        pairs = eigendecompose(a)
        v = np.column_stack([p.right for p in pairs])
        vinv = inverse(v)
        if frob(v) * frob(vinv) < COND_MAX:
            values = np.array([p.value for p in pairs])
            recon = v @ np.diag(values) @ vinv
            if frob(recon - a) <= 1e-8 * max(frob(a), 1e-300):
                def diagonal(scale) -> np.ndarray:
                    lam = np.exp(np.multiply.outer(scale, values))
                    return v @ (lam[..., None] * vinv)
                return diagonal
    except (SingularMatrix, NoConvergence):
        pass
    return _pade13(a)
