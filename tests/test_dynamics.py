"""Time evolution, norm tracking and entangled-state discrimination."""

import math

import numpy as np
import numpy.linalg as npl
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from metricforge import dynamics, linalg, metric, models
from metricforge.errors import NotPositive

RNG = np.random.default_rng(20240815)

TIMES = np.linspace(0.0, 10.0, 101)


def eigenbasis_propagation(h, psi0, times):
    """Independent oracle: propagate through the numpy eigenbasis."""
    vals, vecs = npl.eig(h)
    c = npl.solve(vecs, psi0)
    return [vecs @ (np.exp(-1j * vals * t) * c) for t in times]


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_hermitian_standard_norm_constant():
    a = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    h = (a + a.conj().T) / 2.0
    psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    rec = dynamics.evolve(h, psi0, TIMES)
    assert np.max(np.abs(rec.standard_norms - 1.0)) < 1e-10


def test_evolve_matches_eigenbasis_oracle():
    inst = models.build("jc_doublet", {"rho": 0.125})
    psi0 = np.array([0.6, 0.8j])
    rec = dynamics.evolve(inst.hamiltonian, psi0, TIMES)
    oracle = eigenbasis_propagation(inst.hamiltonian, psi0, TIMES)
    err = max(npl.norm(a - b) for a, b in zip(rec.states, oracle))
    assert err < 1e-10


def test_metric_norm_conserved_standard_norm_not():
    # sin(theta) = 0.5 doublet; psi0 documented here and reused by the CLI
    inst = models.build("jc_doublet", {"rho": 0.125})
    psi0 = np.array([0.6, 0.8j])
    rec = dynamics.evolve(inst.hamiltonian, psi0, TIMES,
                          metric=inst.analytic_metric)
    metric_dev = np.max(np.abs(rec.metric_norms - rec.metric_norms[0]))
    assert metric_dev <= 1e-8 * rec.metric_norms[0]
    std_dev = np.max(np.abs(rec.standard_norms - rec.standard_norms[0]))
    assert std_dev > 1e-3


def test_broken_phase_growth_rate():
    inst = models.build("jc_doublet", {"rho": 0.3})
    gamma = abs(inst.analytic_eigenvalues[0].imag)
    psi0 = np.array([0.6, 0.8j])
    rec = dynamics.evolve(inst.hamiltonian, psi0, TIMES)
    est = dynamics.growth_rate(rec)
    assert abs(est - gamma) / gamma < 0.01
    # norms grow monotonically once the growing mode dominates
    tail = rec.standard_norms[60:]
    assert np.all(np.diff(tail) > 0)


def test_evolve_rejects_empty_times_and_mismatch():
    with pytest.raises(ValueError):
        dynamics.evolve(np.eye(2), np.array([1.0, 0.0]), [])
    with pytest.raises(ValueError):
        dynamics.evolve(np.eye(2), np.array([1.0, 0.0, 0.0]), [0.0])


@pytest.mark.parametrize("times, hbar", [
    ([0.0, float("nan")], 1.0),
    ([0.0, float("inf")], 1.0),
    ([0.0, 1.0], 0.0),
    ([0.0, 1.0], -1.0),
    ([0.0, 1.0], float("nan")),
    ([0.0, 1.0], float("inf")),
], ids=["nan-time", "inf-time", "hbar-0", "hbar-negative", "hbar-nan",
        "hbar-inf"])
def test_evolve_rejects_non_finite_times_and_bad_hbar(times, hbar):
    with pytest.raises(ValueError):
        dynamics.evolve(np.eye(2), np.array([1.0, 0.0]), times, hbar=hbar)


def test_evolve_refuses_overflow_naming_first_time():
    # growth rate 0.166: at t = 2500 the state is finite (about 1e180) but
    # its squared norm overflows; from t = 5000 the state itself does
    h = models.build("jc_doublet", {"rho": 0.3}).hamiltonian
    with pytest.raises(ValueError, match=r"t = 2500\.0 "):
        dynamics.evolve(h, np.array([0.6, 0.8j]), np.linspace(0.0, 1e4, 5))


def test_evolution_csv():
    rec = dynamics.evolve(np.eye(2), np.array([1.0, 0.0]), [0.0, 1.0])
    lines = rec.to_csv().splitlines()
    assert lines[0] == "t,re_0,im_0,re_1,im_1,metric_norm,standard_norm"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# one factorization per trajectory
# ---------------------------------------------------------------------------

# exact EP of the doublet: 4 rho^2 (n + 1) = (omega - eps)^2
EP_PARAMS = {"rho": 0.25, "epsilon": 0.5, "omega": 1.0, "n": 0}
JORDAN3 = 0.7 * np.eye(3, dtype=complex) + np.diag([1.0, 1.0], 1)


@pytest.mark.parametrize("params, outcome", [
    ({"rho": 0.125}, None),            # diagonalization path
    (EP_PARAMS, None),                 # Pade-13 fallback
], ids=["diagonalizable", "exact_ep"])
def test_evolve_decomposes_h_once(monkeypatch, params, outcome):
    h = models.build("jc_doublet", params).hamiltonian
    original = linalg.eigendecompose
    outcomes = []

    def counted(*args, **kwargs):
        try:
            pairs = original(*args, **kwargs)
        except Exception as exc:
            outcomes.append(type(exc))
            raise
        outcomes.append(None)
        return pairs

    monkeypatch.setattr(linalg, "eigendecompose", counted)
    rec = dynamics.evolve(h, np.array([0.6, 0.8j]), TIMES)
    assert len(rec.states) == TIMES.size == 101
    assert outcomes == [outcome]


def dense_pseudo_hermitian(n, seed):
    """(H, metric): H = S^-1 K S with K Hermitian (spectrum in [-1, 1]) and
    cond(S) = 10, so S^dagger S is a metric of H."""
    rng = np.random.default_rng(seed)
    q1, q2, q3 = (npl.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0] for _ in range(3))
    s = (q2 * np.geomspace(1.0, 10.0, n)) @ q3
    h = npl.solve(s, (q1 * np.linspace(-1.0, 1.0, n)) @ q1.conj().T @ s)
    return h, metric.MetricOperator(s.conj().T @ s, "analytic")


JC_FULL4 = models.build("jc_full", {"levels": 4, "rho": 0.05})
JORDAN5 = 0.7 * np.eye(5, dtype=complex) + np.diag(np.ones(4), 1)


@pytest.mark.parametrize("h, m", [
    (models.build("jc_doublet", {"rho": 0.125}).hamiltonian, None),
    (models.build("jc_doublet", EP_PARAMS).hamiltonian, None),
    (JORDAN3, None),
    (JC_FULL4.hamiltonian, JC_FULL4.analytic_metric),
    dense_pseudo_hermitian(8, 8),
    (JORDAN5, None),
], ids=["diagonalizable", "exact_ep", "jordan3", "jc_full4", "dense8", "jordan5"])
def test_evolve_states_equal_pointwise_mat_exp(h, m):
    hbar = 0.7
    psi0 = np.linspace(1.0, 2.0, h.shape[0]) * np.exp(0.3j * np.arange(h.shape[0]))
    rec = dynamics.evolve(h, psi0, TIMES, metric=m, hbar=hbar)
    eta = m or metric.MetricOperator(np.eye(h.shape[0], dtype=complex), "analytic")
    propagator = linalg.exp_propagator(h)
    for t, state, mn, sn in zip(TIMES, rec.states, rec.metric_norms,
                                rec.standard_norms):
        assert np.array_equal(state, propagator(-1j * t / hbar) @ psi0)
        assert mn == math.sqrt(max(
            metric.metric_inner_product(state, state, eta).real, 0.0))
        assert sn == math.sqrt(float(np.sum(np.abs(state) ** 2)))


@pytest.mark.parametrize("h, m", [
    dense_pseudo_hermitian(8, 9),
    (models.build("jc_doublet", EP_PARAMS).hamiltonian, None),
], ids=["dense8", "exact_ep"])
def test_evolve_blocks_equal_one_stack(monkeypatch, h, m):
    psi0 = np.linspace(1.0, 2.0, h.shape[0]) * np.exp(0.3j * np.arange(h.shape[0]))
    whole = dynamics.evolve(h, psi0, TIMES, metric=m)
    # 7 time points per stack: 101 points in 15 blocks, the last of 3
    monkeypatch.setattr(dynamics, "STACK_ENTRIES", 7 * h.shape[0] ** 2)
    blocks = dynamics.evolve(h, psi0, TIMES, metric=m)
    assert np.array_equal(blocks.states, whole.states)
    assert np.array_equal(blocks.metric_norms, whole.metric_norms)
    assert np.array_equal(blocks.standard_norms, whole.standard_norms)


def test_jordan_block_evolution_matches_expm():
    hbar = 0.7
    psi0 = np.array([0.2, -0.5j, 1.0])
    rec = dynamics.evolve(JORDAN3, psi0, TIMES, hbar=hbar)
    for t, state in zip(TIMES, rec.states):
        ref = scipy.linalg.expm(-1j * t / hbar * JORDAN3) @ psi0
        assert npl.norm(state - ref) <= 1e-12 * npl.norm(ref)


# ---------------------------------------------------------------------------
# entangled pairs
# ---------------------------------------------------------------------------

def test_pair_overlap_is_cos_eps():
    pair = dynamics.build_entangled_pair(math.pi / 3, 0.05)
    ov = complex(np.vdot(pair.psi1, pair.psi2))
    assert abs(ov - math.cos(0.05)) < 1e-14
    assert abs(abs(ov) ** 2 - 0.997502) < 1e-6
    assert abs(npl.norm(pair.psi1) - 1.0) < 1e-14
    assert abs(npl.norm(pair.psi2) - 1.0) < 1e-14


def test_pair_eps_zero_identical():
    pair = dynamics.build_entangled_pair(0.7, 0.0)
    assert np.array_equal(pair.psi1, pair.psi2)


def test_pair_warns_for_large_eps():
    with pytest.warns(UserWarning):
        dynamics.build_entangled_pair(0.3, 0.5)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=math.pi),
       st.floats(min_value=-0.1, max_value=0.1))
def test_pair_overlap_property(theta, eps):
    pair = dynamics.build_entangled_pair(theta, eps)
    ov = complex(np.vdot(pair.psi1, pair.psi2))
    assert abs(ov - math.cos(eps)) < 1e-12


# ---------------------------------------------------------------------------
# discrimination
# ---------------------------------------------------------------------------

def test_identity_metric_reproduces_raw_overlap_bitwise():
    pair = dynamics.build_entangled_pair(1.1, 0.03)
    m = metric.MetricOperator(np.eye(4, dtype=complex), "analytic")
    rep = dynamics.discriminate(pair, m)
    assert rep.metric_overlap == rep.standard_overlap
    assert rep.distinguishability_gain == 0.0


def test_eps_zero_gain_zero():
    pair = dynamics.build_entangled_pair(0.9, 0.0)
    rep = dynamics.discriminate(pair, dynamics.assemble_discrimination_metric(0.5))
    assert abs(abs(rep.metric_overlap) - 1.0) < 1e-12
    assert abs(rep.distinguishability_gain) < 1e-12


def test_gain_positive_somewhere():
    pair = dynamics.build_entangled_pair(math.pi / 3, 0.05)
    gains = {}
    for s in np.arange(0.1, 0.95, 0.1):
        m = dynamics.assemble_discrimination_metric(float(s))
        # independent 4x4 oracle for the normalized metric overlap
        mat = m.matrix
        num = pair.psi1.conj() @ mat @ pair.psi2
        den = math.sqrt((pair.psi1.conj() @ mat @ pair.psi1).real
                        * (pair.psi2.conj() @ mat @ pair.psi2).real)
        rep = dynamics.discriminate(pair, m)
        assert abs(rep.metric_overlap - num / den) < 1e-14
        gains[round(float(s), 1)] = rep.distinguishability_gain
    assert any(g > 0 for g in gains.values())


def test_discriminate_rejects_bad_metric():
    pair = dynamics.build_entangled_pair(0.5, 0.01)
    with pytest.raises(NotPositive):
        dynamics.discriminate(pair, metric.MetricOperator(
            -np.eye(4, dtype=complex), "analytic"))
    with pytest.raises(NotPositive):
        dynamics.assemble_discrimination_metric(1.5)


def test_metric_with_anti_hermitian_part_is_not_positive():
    # the Hermitian part is the identity, but ||M - M^H|| is far above
    # HERM_TOL ||M||; a part below it is symmetrized away, as in
    # linalg.hermitian_spectrum
    pair = dynamics.build_entangled_pair(0.5, 0.01)
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1], skew[1, 0] = 1.0, -1.0
    bad = metric.MetricOperator(np.eye(4) + 1e-6 * skew, "analytic")
    with pytest.raises(NotPositive):
        dynamics.discriminate(pair, bad)
    with pytest.raises(NotPositive):
        dynamics.orthogonality_scan([0.5, 0.6], 0.01, bad)
    near = metric.MetricOperator(np.eye(4) + 1e-13 * skew, "analytic")
    scan = dynamics.orthogonality_scan([0.5], 0.01, near)
    assert scan.rows == [dynamics.discriminate(pair, near)]


def test_discriminate_dimension_mismatch():
    pair = dynamics.build_entangled_pair(0.5, 0.01)
    with pytest.raises(ValueError):
        dynamics.discriminate(pair, metric.MetricOperator(
            np.eye(3, dtype=complex), "analytic"))


# ---------------------------------------------------------------------------
# orthogonality scan
# ---------------------------------------------------------------------------

def test_scan_identity_no_crossings():
    m = metric.MetricOperator(np.eye(4, dtype=complex), "analytic")
    scan = dynamics.orthogonality_scan(np.linspace(0, math.pi / 2, 91), 0.05, m)
    assert len(scan.rows) == 91
    assert scan.zero_crossings == []
    assert all(abs(r.metric_overlap - math.cos(0.05)) < 1e-12 for r in scan.rows)


def test_scan_matches_pointwise_discriminate():
    m = dynamics.assemble_discrimination_metric(0.6)
    thetas = np.linspace(0, math.pi / 2, 7)
    scan = dynamics.orthogonality_scan(thetas, 0.05, m)
    for row in scan.rows:
        rep = dynamics.discriminate(dynamics.build_entangled_pair(row.theta, 0.05), m)
        assert row == rep  # the same record, bit for bit


def test_scan_single_point_reduces_to_discriminate():
    m = dynamics.assemble_discrimination_metric(0.5)
    scan = dynamics.orthogonality_scan([0.8], 0.05, m)
    rep = dynamics.discriminate(dynamics.build_entangled_pair(0.8, 0.05), m)
    assert len(scan.rows) == 1
    assert scan.rows[0].metric_overlap == rep.metric_overlap


def test_scan_finds_constructed_zero_crossing():
    # a metric under which the two states do become orthogonal in theta:
    # weight the two halves of the basis oppositely enough that the real
    # part of the overlap changes sign across the grid
    m = metric.MetricOperator(np.diag([4.0, 4.0, 0.02, 0.02]).astype(complex),
                              "analytic")
    eps = 0.3
    with pytest.warns(UserWarning):
        scan = dynamics.orthogonality_scan(np.linspace(2.0, 3.1, 45), eps, m)
    assert scan.zero_crossings, "expected a zero crossing"
    th = scan.zero_crossings[0]
    with pytest.warns(UserWarning):
        pair = dynamics.build_entangled_pair(th, eps)
    rep = dynamics.discriminate(pair, m)
    assert abs(rep.metric_overlap.real) < 1e-9


def test_scan_csv_header():
    m = dynamics.assemble_discrimination_metric(0.5)
    scan = dynamics.orthogonality_scan([0.1, 0.2], 0.05, m)
    lines = scan.to_csv().splitlines()
    assert lines[0] == "theta,std_re,std_im,metric_re,metric_im,gain"
    assert len(lines) == 3
