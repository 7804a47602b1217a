"""Metric construction, validation and comparison."""

import math

import numpy as np
import numpy.linalg as npl
import pytest
from hypothesis import given, settings, strategies as st

from metricforge import linalg, metric, models
from metricforge.errors import BrokenPhase, DefectiveSystem, NotHermitian, SingularMatrix

RNG = np.random.default_rng(20240812)


def random_diagonalizable(n, rng=RNG, real_spectrum=True):
    """H = V D V^-1, pseudo-Hermitian wrt (V^-1)^+ V^-1.

    V = Q1 diag(sigma) Q2 with Haar-like unitaries Q and sigma in [1, 10],
    so cond(V) <= 10 at every n; the real parts of D sit on a grid over
    [-3, 3] jittered by at most a quarter step, so eigenvalues stay at least
    half a step apart (0.047 at n = 64).
    """
    def unitary():
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return npl.qr(z)[0]

    v = unitary() @ np.diag(rng.uniform(1.0, 10.0, n)) @ unitary()
    step = 6.0 / n
    d = -3.0 + step * (np.arange(n) + 0.5 + rng.uniform(-0.25, 0.25, n))
    if not real_spectrum:
        d = d + 1j * rng.uniform(0.2, 2.0, n)
    return v @ np.diag(d) @ npl.inv(v), v, d


def gram(sysb):
    return sysb.left.conj().T @ sysb.right


# ---------------------------------------------------------------------------
# pseudo-Hermiticity check
# ---------------------------------------------------------------------------

def test_hermitian_is_pseudo_hermitian_wrt_identity():
    a = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    h = (a + a.conj().T) / 2.0
    assert metric.check_pseudo_hermitian(h, np.eye(3)) < 1e-15


def test_check_pseudo_hermitian_oracle():
    h, v, _ = random_diagonalizable(4)
    s = npl.inv(v).conj().T @ npl.inv(v)
    assert metric.check_pseudo_hermitian(h, s) < 1e-12


def test_check_pseudo_hermitian_requires_invertible_s():
    with pytest.raises(SingularMatrix):
        metric.check_pseudo_hermitian(np.eye(2), np.zeros((2, 2)))


def test_check_pseudo_hermitian_shape_mismatch():
    with pytest.raises(ValueError):
        metric.check_pseudo_hermitian(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# biorthonormalization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 5, 8, 32, 64])
def test_biorthonormalize_gram_and_completeness(n):
    h, _, _ = random_diagonalizable(n, real_spectrum=False)
    sysb = metric.biorthonormalize(linalg.eigendecompose(h))
    assert linalg.frob(gram(sysb) - np.eye(n)) < 1e-10
    assert linalg.frob(sysb.right @ sysb.left.conj().T - np.eye(n)) < 1e-10


def test_biorthonormalize_degenerate_cluster():
    h = np.diag([1.0, 1.0, 3.0]).astype(complex)
    sysb = metric.biorthonormalize(linalg.eigendecompose(h))
    assert linalg.frob(gram(sysb) - np.eye(3)) < 1e-12


def test_biorthonormalize_defective_raises():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    pairs = linalg.eigendecompose(jordan)
    with pytest.raises(DefectiveSystem) as exc:
        metric.biorthonormalize(pairs)
    assert exc.value.indicator is not None and exc.value.indicator < 1e-6


@pytest.mark.parametrize("n", [2, 5, 32])
def test_biorthonormalize_one_lu(monkeypatch, n):
    # the duals are the rows of one inverse of the unit right vectors
    calls = []
    for name in ("inverse", "hermitian_spectrum"):
        def counted(*args, _name=name, _kernel=getattr(linalg, name), **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(linalg, name, counted)
    pairs = linalg.eigendecompose(RNG.standard_normal((n, n))
                                  + 1j * RNG.standard_normal((n, n)))
    sysb = metric.biorthonormalize(pairs)
    assert calls == ["inverse"]
    assert linalg.frob(gram(sysb) - np.eye(n)) < 1e-10


def test_biorthonormalize_defect_indicator_near_and_at_ep():
    # jc_doublet (epsilon 0.5, omega 1, n 0) has its EP at rho = 0.25
    for rho in (0.25 * (1.0 - 1e-12), 0.25):
        h = models.build("jc_doublet", {"n": 0, "epsilon": 0.5, "omega": 1.0,
                                        "rho": rho}).hamiltonian
        pairs = linalg.eigendecompose(h)
        with pytest.raises(DefectiveSystem) as exc:
            metric.biorthonormalize(pairs, defect_tol=1e-5)
        indicator = exc.value.indicator
        assert math.isfinite(indicator) and indicator < 1e-5
        if rho < 0.25:
            ref = linalg.defect_indicator(pairs)
            assert abs(indicator - ref) <= 0.01 * ref


def test_biorthonormalize_empty():
    with pytest.raises(ValueError):
        metric.biorthonormalize([])


# ---------------------------------------------------------------------------
# spectral metric
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 6, 32, 64])
def test_spectral_metric_intertwines_and_is_positive(n):
    h, _, _ = random_diagonalizable(n, real_spectrum=True)
    sysb = metric.biorthonormalize(linalg.eigendecompose(h))
    m = metric.spectral_metric(sysb, h_scale=linalg.frob(h))
    rep = metric.validate_metric(h, m)
    assert rep.hermitian_residual < 1e-14
    assert rep.intertwining_residual < 1e-10
    assert rep.positive and rep.min_metric_eigenvalue > 0


def test_spectral_metric_refuses_complex_spectrum():
    h, _, _ = random_diagonalizable(3, real_spectrum=False)
    sysb = metric.biorthonormalize(linalg.eigendecompose(h))
    with pytest.raises(BrokenPhase):
        metric.spectral_metric(sysb, h_scale=linalg.frob(h))


def test_spectral_metric_identity_for_hermitian():
    a = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    for h in ((a + a.conj().T) / 2.0, 3.0 * np.eye(2, dtype=complex)):
        sysb = metric.biorthonormalize(linalg.eigendecompose(h))
        m = metric.spectral_metric(sysb, h_scale=linalg.frob(h))
        assert linalg.frob(m.matrix - np.eye(h.shape[0])) < 1e-8


# ---------------------------------------------------------------------------
# projector assembly
# ---------------------------------------------------------------------------

def test_das_metric_reproduces_model_metric():
    inst = models.jc_doublet(models.JCParams(rho=0.125))
    q = metric.das_metric(inst.das_data)
    assert linalg.frob(q.matrix - inst.analytic_metric.matrix) < 1e-12


def test_das_metric_rejects_inconsistent_q0():
    inst = models.pt_matrix(models.PTParams(r=0.7, s=2.0, t=0.5,
                                            theta=0.4, phi=0.9))
    bad = metric.DasConstruction(
        reference_metric_q0=np.diag([1.0, 2.0]).astype(complex),
        generators=inst.das_data.generators,
        projectors=inst.das_data.projectors,
    )
    with pytest.raises(NotHermitian):
        metric.das_metric(bad)


def test_das_check_rejects_bad_projectors():
    bad = metric.DasConstruction(
        reference_metric_q0=np.eye(2, dtype=complex),
        generators=[np.eye(2, dtype=complex)],
        projectors=[np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)],
    )
    with pytest.raises(ValueError):
        bad.check()


def test_das_check_rejects_count_mismatch():
    bad = metric.DasConstruction(
        reference_metric_q0=np.eye(2, dtype=complex),
        generators=[np.eye(2, dtype=complex)],
        projectors=[np.diag([1.0, 0.0]).astype(complex),
                    np.diag([0.0, 1.0]).astype(complex)],
    )
    with pytest.raises(ValueError, match="1 generators for 2 projectors"):
        bad.check()


def test_das_metric_factors_each_generator_once(monkeypatch):
    das = models.build("jc_full", {"rho": 0.05, "levels": 3}).das_data
    calls = []
    real_inverse = linalg.inverse

    def counting_inverse(a):
        calls.append(a)
        return real_inverse(a)

    monkeypatch.setattr(linalg, "inverse", counting_inverse)
    metric.das_metric(das)
    assert len(das.generators) == 7
    assert len(calls) == len(das.generators)


# ---------------------------------------------------------------------------
# validation and inner product
# ---------------------------------------------------------------------------

def test_validate_identity_metric():
    rep = metric.validate_metric(np.eye(3), metric.MetricOperator(np.eye(3, dtype=complex), "analytic"))
    assert rep.hermitian_residual == 0.0
    assert rep.intertwining_residual == 0.0
    assert rep.min_metric_eigenvalue == pytest.approx(1.0)
    assert rep.positive


vec3 = st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                min_size=6, max_size=6)


@settings(max_examples=100, deadline=None)
@given(vec3, vec3, st.floats(min_value=-3, max_value=3),
       st.floats(min_value=-3, max_value=3))
def test_inner_product_sesquilinear(a_raw, b_raw, lam_re, lam_im):
    a = np.array(a_raw[:3]) + 1j * np.array(a_raw[3:])
    b = np.array(b_raw[:3]) + 1j * np.array(b_raw[3:])
    lam = complex(lam_re, lam_im)
    m = metric.MetricOperator(np.diag([1.0, 2.0, 0.5]).astype(complex), "analytic")
    lhs = metric.metric_inner_product(a, lam * b, m)
    rhs = lam * metric.metric_inner_product(a, b, m)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))
    conj_sym = metric.metric_inner_product(b, a, m)
    assert abs(np.conj(conj_sym) - metric.metric_inner_product(a, b, m)) < 1e-9


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _mo(m):
    return metric.MetricOperator(np.asarray(m, dtype=complex), "analytic")


def test_compare_equal():
    assert metric.compare_metrics(_mo(np.eye(2)), _mo(np.eye(2))).verdict == "equal"


def test_compare_proportional_orientation():
    cmp_ = metric.compare_metrics(_mo(2.0 * np.eye(2)), _mo(np.eye(2)))
    assert cmp_.verdict == "proportional"
    assert cmp_.factor == pytest.approx(2.0, abs=1e-12)


def test_compare_distinct():
    cmp_ = metric.compare_metrics(_mo(np.diag([1.0, 2.0])),
                                  _mo([[1.0, 0.5], [0.5, 1.0]]))
    assert cmp_.verdict == "distinct"


def test_compare_negative_scale_is_distinct():
    cmp_ = metric.compare_metrics(_mo(-np.eye(2)), _mo(np.eye(2)))
    assert cmp_.verdict == "distinct"


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0))
def test_compare_recovers_factor(factor):
    base = np.array([[1.0, -0.3], [-0.3, 1.0]], dtype=complex)
    cmp_ = metric.compare_metrics(_mo(factor * base), _mo(base))
    if math.isclose(factor, 1.0, rel_tol=1e-9):
        assert cmp_.verdict == "equal"
    else:
        assert cmp_.verdict == "proportional"
        assert cmp_.factor == pytest.approx(factor, rel=1e-9)
