"""Dense linear-algebra kernels checked against numpy/scipy oracles."""

import math

import numpy as np
import numpy.linalg as npl
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from metricforge import linalg, metric, models
from metricforge.errors import NoConvergence, NotHermitian, SingularMatrix

RNG = np.random.default_rng(20240811)


def random_complex(n, rng=RNG, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def well_conditioned(n, rng=RNG, cond_cap=50.0):
    while True:
        m = random_complex(n, rng)
        if npl.cond(m) < cond_cap:
            return m


finite_floats = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)


@st.composite
def complex_2x2(draw):
    vals = [draw(finite_floats) for _ in range(8)]
    return np.array([[complex(vals[0], vals[1]), complex(vals[2], vals[3])],
                     [complex(vals[4], vals[5]), complex(vals[6], vals[7])]])


# ---------------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_inverse_property(n):
    a = well_conditioned(n)
    assert linalg.frob(a @ linalg.inverse(a) - np.eye(n)) < 1e-10


@pytest.mark.parametrize("n", [64, 128])
def test_inverse_matches_numpy_large(n):
    a = random_complex(n)
    ref = npl.inv(a)
    assert npl.norm(linalg.inverse(a) - ref) <= 1e-13 * npl.cond(a) * npl.norm(ref)


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrix):
        linalg.inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_non_finite_input_rejected():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        linalg.as_vector(np.array([1.0, 0.0, np.inf, 0.0], dtype=complex)[::2])


@pytest.mark.parametrize("n", [2, 5, 8])
def test_non_contiguous_input_matches_c_copy(n):
    # a transposed, Fortran-ordered or strided complex input gives the bits
    # of its C-ordered copy
    rng = np.random.default_rng(300 + n)
    h = random_complex(n, rng)
    for got, want in zip(linalg.eigendecompose(h.T),
                         linalg.eigendecompose(h.T.copy())):
        assert got.value == want.value
        assert np.array_equal(got.right, want.right)
        assert np.array_equal(got.left, want.left)
    assert np.array_equal(linalg.inverse(np.asfortranarray(h)),
                          linalg.inverse(h))
    v = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    assert np.array_equal(linalg.as_vector(v[::2]), v[::2].copy())


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 6, 10, 16])
def test_eigenvalues_match_numpy(n):
    a = random_complex(n)
    pairs = linalg.eigendecompose(a)
    mine = np.array([p.value for p in pairs])
    ref = np.sort_complex(npl.eigvals(a))
    order = np.lexsort((mine.imag, mine.real))
    assert np.allclose(mine[order], np.array(sorted(ref, key=lambda z: (z.real, z.imag))),
                       atol=1e-8 * max(linalg.frob(a), 1.0))


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_eigenvector_residuals(n):
    a = random_complex(n)
    scale = linalg.frob(a)
    for p in linalg.eigendecompose(a):
        assert npl.norm(a @ p.right - p.value * p.right) < 1e-8 * scale
        assert npl.norm(a.conj().T @ p.left - np.conj(p.value) * p.left) < 1e-8 * scale


@settings(max_examples=200, deadline=None)
@given(complex_2x2())
def test_2x2_eigenvalues_property(m):
    ref = list(npl.eigvals(m))
    pairs = linalg.eigendecompose(m)
    scale = max(linalg.frob(m), 1.0)
    # multiset comparison: sort order is unstable under ulp-level ties
    for p in pairs:
        j = min(range(len(ref)), key=lambda k: abs(ref[k] - p.value))
        assert abs(ref[j] - p.value) < 1e-7 * scale
        ref.pop(j)


@pytest.mark.parametrize("n", [32, 64])
def test_left_vectors_match_numpy_inverse(n):
    a = random_complex(n)
    scale = linalg.frob(a)
    pairs = linalg.eigendecompose(a)
    for p in pairs:
        assert npl.norm(a.conj().T @ p.left - np.conj(p.value) * p.left) < 1e-10 * scale
    sysb = metric.biorthonormalize(pairs)
    r, left = sysb.right, sysb.left
    assert linalg.frob(left.conj().T @ r - np.eye(n)) < 1e-10 * n
    ref = npl.inv(r)  # its rows are the biorthonormal left vectors
    assert npl.norm(left.conj().T - ref) <= 1e-12 * npl.cond(r) * npl.norm(ref)


def test_eigendecompose_matches_numpy_n128():
    n = 128
    a = random_complex(n)
    scale = linalg.frob(a)
    pairs = linalg.eigendecompose(a)
    ref = list(npl.eigvals(a))
    for p in pairs:
        j = min(range(len(ref)), key=lambda k: abs(ref[k] - p.value))
        assert abs(ref.pop(j) - p.value) < 1e-12 * scale
        assert npl.norm(a @ p.right - p.value * p.right) < 1e-13 * scale
        assert npl.norm(a.conj().T @ p.left - np.conj(p.value) * p.left) < 1e-13 * scale
    sysb = metric.biorthonormalize(pairs)
    r, left = sysb.right, sysb.left
    inv_r = npl.inv(r)  # its rows are the biorthonormal left vectors
    assert npl.norm(left.conj().T - inv_r) <= 1e-12 * npl.cond(r) * npl.norm(inv_r)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_one_qr_run_per_eigendecompose(monkeypatch, n):
    original = linalg._schur
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "_schur", counted)
    linalg.eigendecompose(random_complex(n))
    assert calls == [(n, n)]


def test_qr_failure_raises(monkeypatch):
    a = random_complex(4)
    # a NaN shift poisons the active block, so no subdiagonal ever deflates
    monkeypatch.setattr(linalg, "_wilkinson_shift", lambda h, hi: complex("nan"))
    with np.errstate(invalid="ignore"):
        with pytest.raises(NoConvergence):
            linalg.eigendecompose(a)
        # exp_propagator takes the Pade path instead of a wrong eigenbasis
        assert np.allclose(linalg.exp_propagator(a)(1.0), scipy.linalg.expm(a),
                           atol=1e-10)


def test_degenerate_spectrum():
    a = np.diag([1.0, 1.0, 2.0]).astype(complex)
    pairs = linalg.eigendecompose(a)
    vals = sorted(p.value.real for p in pairs)
    assert np.allclose(vals, [1.0, 1.0, 2.0], atol=1e-10)


def test_repeated_eigenvalues_non_normal():
    # H = A diag(1, 1, 1, 2, 3) A^-1 is diagonalizable but far from normal:
    # the triple eigenvalue needs three independent right vectors.  Some of
    # these inputs stall the QR iteration on a nearly defective trailing
    # pair until the stall test deflates it.
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_complex(5, rng)
        h = a @ np.diag([1.0, 1.0, 1.0, 2.0, 3.0]).astype(complex) @ npl.inv(a)
        pairs = linalg.eigendecompose(h)
        r = np.column_stack([p.right for p in pairs])
        assert npl.cond(r) < 10.0 * npl.cond(a)
        sysb = metric.biorthonormalize(pairs)
        gram = sysb.left.conj().T @ sysb.right
        assert linalg.frob(gram - np.eye(5)) < 1e-10


def test_defective_matrix_raises():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    pairs = linalg.eigendecompose(jordan)
    assert linalg.defect_indicator(pairs) < 1e-6


def test_accuracy_near_exceptional_point():
    # The pair of [[1, 1], [d, 1]] is 1 +- sqrt(d): it splits like sqrt(d),
    # so a backward-stable eigensolver resolves the split only to about
    # sqrt(eps) ||H||, here stated as the bound for a 6x6 H = Q B Q^H.
    bound_factor = np.sqrt(np.finfo(float).eps)
    rng = np.random.default_rng(20241018)
    q, r = npl.qr(random_complex(6, rng))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    defects = []
    for d in (1e-4, 1e-8, 1e-12):
        block = np.array([[1.0, 1.0], [d, 1.0]], dtype=complex)
        b = np.diag([-2.0, -1.0, 0.0, 0.0, 3.0, 4.0]).astype(complex)
        b[2:4, 2:4] = block
        h = q @ b @ q.conj().T
        for m in (block, h):
            pairs = linalg.eigendecompose(m)
            near = sorted(pairs, key=lambda p: abs(p.value - 1.0))[:2]
            split = abs(near[0].value - near[1].value)
            assert abs(split - 2.0 * np.sqrt(d)) <= bound_factor * linalg.frob(m)
        defects.append(linalg.defect_indicator(pairs))  # those of the 6x6 H
    assert defects[0] > defects[1] > defects[2]


def _reference_eig2(m):
    """The 2x2 eigendecomposition written one matrix at a time with numpy
    scalar arithmetic, as eigendecompose ran it before its closed form took
    stacks: (sorted values, right columns, left columns)."""
    fa = linalg.frob(m)
    if fa == 0.0:
        eye = np.eye(2, dtype=complex)
        return np.zeros(2, dtype=complex), eye, eye
    factor = 1.0
    if fa < 1e-100 or fa > 1e100:
        # the power of two 2^e <= max |m_ij| < 2^(e+1)
        factor = math.ldexp(1.0, math.frexp(float(np.max(np.abs(m))))[1] - 1)
    a = m / factor if factor != 1.0 else m

    def vector(lam):
        b = a - lam * np.eye(2)
        r0 = np.array([b[0, 1], -b[0, 0]])
        r1 = np.array([b[1, 1], -b[1, 0]])
        v = r0 if linalg.frob(r0[None]) >= linalg.frob(r1[None]) else r1
        nv = np.sqrt(np.sum(np.abs(v) ** 2))
        return np.array([1.0 + 0j, 0j]) if nv == 0.0 else v / nv

    c = (a[0, 0] + a[1, 1]) / 2.0
    half = (a[0, 0] - a[1, 1]) / 2.0
    disc = np.sqrt(complex(half * half + a[0, 1] * a[1, 0]))
    l1, l2 = c + disc, c - disc
    z1 = vector(l1)
    z2 = np.array([-z1[1].conjugate(), z1[0].conjugate()])
    t = np.array([[l1, z1.conj() @ a @ z2], [0.0, l2]])
    z = np.column_stack([z1, z2])
    rights = z @ linalg._triangular_eigvecs(t)
    lefts = z @ linalg._triangular_eigvecs(t.conj().T[::-1, ::-1])[::-1, ::-1]
    rights /= np.sqrt(np.sum(np.abs(rights) ** 2, axis=0))
    lefts /= np.sqrt(np.sum(np.abs(lefts) ** 2, axis=0))
    vals = np.diag(t)
    order = np.lexsort((vals.imag, vals.real))
    return (np.array([complex(lam) * factor for lam in vals[order]]),
            rights[:, order], lefts[:, order])


def _two_by_two_inputs():
    rng = np.random.default_rng(2025)
    cases = [random_complex(2, rng) for _ in range(40)]
    cases += [random_complex(2, rng).real + 0j for _ in range(10)]
    cases += [random_complex(2, rng) * 10.0 ** e for e in (-120, 120)]
    cases += [(rng.standard_normal() + 1j) * np.eye(2),      # scalar
              np.array([[1.0, 1.0], [0.0, 1.0]]) * (0.3 - 2j),  # Jordan
              np.array([[1.0, 1.0], [1e-12, 1.0]]),           # near the EP
              np.zeros((2, 2)), np.array([[-0.0, 0.0], [-0.0, -0.0]]),
              np.array([[0.25, 0.125], [-0.0, 0.75]])]
    return [np.asarray(m, dtype=complex) for m in cases]


def _same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def test_one_2x2_path_for_one_matrix_and_a_stack():
    # eigendecompose of a 2x2 keeps the bits of the one-matrix scalar code
    # (so evolve's doublet outputs stay byte-identical), and each matrix of
    # a stack gets the bits it gets alone, signed zeros included
    ms = _two_by_two_inputs()
    stack = linalg._eig2_system(np.array(ms))
    for k, m in enumerate(ms):
        pairs = linalg.eigendecompose(m)
        values, rights, lefts = _reference_eig2(m)
        assert _same_bits([p.value for p in pairs], values)
        assert _same_bits(np.column_stack([p.right for p in pairs]), rights)
        assert _same_bits(np.column_stack([p.left for p in pairs]), lefts)
        t, z = linalg._schur2(m)
        ts, zs = linalg._schur2(m[None])
        assert _same_bits(t, ts[0]) and _same_bits(z, zs[0])
        for alone, stacked in zip(linalg._eig2_system(m), stack):
            assert _same_bits(alone, stacked[k])


# ---------------------------------------------------------------------------
# Hermitian spectra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
def test_hermitian_spectrum_matches_numpy(n):
    a = random_complex(n)
    h = (a + a.conj().T) / 2.0
    assert np.allclose(linalg.hermitian_spectrum(h), npl.eigvalsh(h), atol=1e-10)


def test_hermitian_spectrum_matches_numpy_n64():
    a = random_complex(64)
    h = (a + a.conj().T) / 2.0
    assert np.allclose(linalg.hermitian_spectrum(h), npl.eigvalsh(h),
                       atol=1e-12 * linalg.frob(h))


def test_hermitian_spectrum_matches_numpy_n128():
    a = random_complex(128)
    h = (a + a.conj().T) / 2.0
    assert np.allclose(linalg.hermitian_spectrum(h), npl.eigvalsh(h),
                       rtol=0.0, atol=1e-14 * linalg.frob(h))


@pytest.mark.parametrize("n", [2, 4, 16])
def test_ql_iterations_bounded(monkeypatch, n):
    # with the budget lowered to 4 n per call, every spectrum must converge
    # within it (3 n at most is seen on these inputs; the default is 30 n)
    monkeypatch.setattr(linalg, "QL_MAX_ITERS", 4)
    rng = np.random.default_rng(4000 + n)
    for _ in range(40):
        a = random_complex(n, rng)
        h = (a + a.conj().T) / 2.0
        eigs = linalg.hermitian_spectrum(h)
        assert np.allclose(eigs, npl.eigvalsh(h), rtol=0.0,
                           atol=1e-14 * linalg.frob(h))


@pytest.mark.parametrize("n, s", [(32, 18), (32, 24), (64, 18), (64, 24)])
def test_hermitian_spectrum_graded(n, s):
    # G A G with A = B B^H + n I and G = diag(10^(s j / (2 (n - 1)))): the
    # first eigenvalues can take more than 30 QL sweeps each, the rest few
    rng = np.random.default_rng(100 * n + s)
    b = random_complex(n, rng)
    g = 10.0 ** (s * np.arange(n) / (2.0 * (n - 1)))
    h = g[:, None] * (b @ b.conj().T + n * np.eye(n)) * g
    h = (h + h.conj().T) / 2.0
    assert np.allclose(linalg.hermitian_spectrum(h), npl.eigvalsh(h),
                       rtol=0.0, atol=1e-14 * npl.norm(h, 2))


def test_ql_cap_raises(monkeypatch):
    monkeypatch.setattr(linalg, "QL_MAX_ITERS", 0)
    a = random_complex(4)
    with pytest.raises(NoConvergence):
        linalg.hermitian_spectrum((a + a.conj().T) / 2.0)


def test_hermitian_spectrum_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=100, deadline=None)
@given(complex_2x2())
def test_gram_matrix_psd(m):
    g = m.conj().T @ m
    eigs = linalg.hermitian_spectrum(g)
    assert eigs[0] > -1e-9 * max(linalg.frob(g), 1.0)


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32])
def test_mat_exp_matches_scipy(n):
    a = random_complex(n)
    assert np.allclose(linalg.exp_propagator(a)(1.0), scipy.linalg.expm(a),
                       atol=1e-10)


def test_mat_exp_nilpotent_exact():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert np.allclose(linalg.exp_propagator(a)(1.0), np.eye(2) + a, atol=1e-15)


def test_mat_exp_scale_argument():
    a = random_complex(3)
    assert np.allclose(linalg.exp_propagator(a)(-2j),
                       scipy.linalg.expm(-2j * a), atol=1e-10)


def pade_propagator(monkeypatch, a):
    """exp_propagator(a), checked to have taken the Pade-13 fallback."""
    built = []
    original = linalg._pade13

    def counted(m):
        built.append(m.shape)
        return original(m)

    monkeypatch.setattr(linalg, "_pade13", counted)
    propagator = linalg.exp_propagator(a)
    assert built == [a.shape]
    return propagator


def assert_expm_close(u, want):
    """||u - want|| <= 1e-12 ||want||, the bound that
    test_dynamics.py::test_jordan_block_evolution_matches_expm holds states to."""
    assert npl.norm(u - want) <= 1e-12 * npl.norm(want)


@pytest.mark.parametrize("n", range(2, 10))
def test_pade_jordan_blocks_match_expm(monkeypatch, n):
    j = 0.7 * np.eye(n, dtype=complex) + np.diag(np.ones(n - 1), 1)
    propagator = pade_propagator(monkeypatch, j)
    for t in np.linspace(0.0, 16.0, 33):
        assert_expm_close(propagator(-1j * t), scipy.linalg.expm(-1j * t * j))


@pytest.mark.parametrize("family, params", [
    ("jc_doublet", {"n": 0, "eps": 0.5, "omega": 1, "rho": 0.25}),
    ("dirac_scalar", {"m0": 1, "kx": 0, "v0": 1}),
    ("pt_matrix", {"r": 1, "theta": np.pi / 2, "s": 1, "t": 1, "phi": 0}),
], ids=["jc_doublet", "dirac_scalar", "pt_matrix"])
def test_pade_exact_ep_families_match_expm(monkeypatch, family, params):
    inst = models.build(family, params)
    assert inst.phase == models.PHASE_EXCEPTIONAL
    h = inst.hamiltonian
    propagator = pade_propagator(monkeypatch, h)
    for t in np.linspace(0.0, 16.0, 65):
        assert_expm_close(propagator(-1j * t), scipy.linalg.expm(-1j * t * h))


@pytest.mark.parametrize("kind", ["random8", "pseudo_hermitian8"])
def test_pade_matches_expm_over_scale_norms(kind):
    rng = np.random.default_rng(20241020)
    if kind == "random8":
        a = random_complex(8, rng)
    else:  # real spectrum in [-1, 1], eigenvectors of condition number 10
        q1, q2, q3 = (npl.qr(random_complex(8, rng))[0] for _ in range(3))
        s = (q2 * np.geomspace(1.0, 10.0, 8)) @ q3
        a = npl.solve(s, (q1 * np.linspace(-1.0, 1.0, 8)) @ q1.conj().T @ s)
    a = a / np.max(np.sum(np.abs(a), axis=0))  # ||a||_1 = 1
    propagator = linalg._pade13(a)
    for norm in np.logspace(-3.0, 3.0, 25):  # ||scale a||_1 = norm
        assert_expm_close(propagator(-1j * norm),
                          scipy.linalg.expm(-1j * norm * a))


def test_pade_n64_after_no_convergence(monkeypatch):
    a = random_complex(64, np.random.default_rng(64))

    def no_convergence(m):
        raise NoConvergence("forced")

    monkeypatch.setattr(linalg, "eigendecompose", no_convergence)
    propagator = pade_propagator(monkeypatch, a)
    for scale in (0.125, 1.0, -0.3j, -1j):
        assert_expm_close(propagator(scale), scipy.linalg.expm(scale * a))


@pytest.mark.parametrize("path", ["diagonal", "pade"])
def test_propagator_stack_equals_pointwise(monkeypatch, path):
    if path == "diagonal":
        a = well_conditioned(6, np.random.default_rng(6))
        propagator = linalg.exp_propagator(a)
    else:
        a = 0.7 * np.eye(4, dtype=complex) + np.diag(np.ones(3), 1)
        propagator = pade_propagator(monkeypatch, a)
    scales = [-1j * t / 0.7 for t in np.linspace(0.0, 200.0, 41)] + [0.5, 2 - 3j]
    stack = propagator(np.array(scales))
    assert stack.shape == (len(scales), *a.shape)
    for k, scale in enumerate(scales):
        assert np.array_equal(stack[k], propagator(scale))


@settings(max_examples=50, deadline=None)
@given(complex_2x2(), st.floats(min_value=0.0, max_value=5.0))
def test_exp_of_hermitian_is_unitary(m, t):
    h = (m + m.conj().T) / 2.0
    u = linalg.exp_propagator(h)(-1j * t)
    assert linalg.frob(u.conj().T @ u - np.eye(2)) < 1e-9 * max(linalg.frob(h) * t, 1.0)


def test_adjoint_involution():
    a = random_complex(4)
    assert np.array_equal(linalg.adjoint(linalg.adjoint(a)), a)
