"""Acceptance gate: the nine headline guarantees, one test each.

Each test prints a single PASS line on success; a failure reads as the
criterion number in the pytest report.  Tolerances are stated inline and
are part of the contract, not tuning knobs.
"""

import math

import numpy as np
import numpy.linalg as npl
import pytest

from metricforge import dynamics, linalg, metric, models, phase
from metricforge.errors import DefectiveSystem

RNG = np.random.default_rng(987654321)


def _generic_spectral(h):
    pairs = linalg.eigendecompose(h)
    sysb = metric.biorthonormalize(pairs)
    return metric.spectral_metric(sysb, h_scale=linalg.frob(h))


def _model_spectral(inst):
    # spectral sum over the model's closed-form normalized eigenvectors
    return metric.spectral_metric(inst.analytic_system,
                                  h_scale=linalg.frob(inst.hamiltonian),
                                  unit_lefts=False)


def test_criterion_1_jc_metric_reproduction():
    inst = models.build("jc_doublet",
                        {"n": 0, "epsilon": 0.5, "omega": 1.0, "rho": 0.125})
    expected = np.array([[1.0, -0.5], [-0.5, 1.0]])
    spectral = _generic_spectral(inst.hamiltonian)
    das = metric.das_metric(inst.das_data)
    assert np.max(np.abs(spectral.matrix - expected)) < 1e-10
    assert np.max(np.abs(das.matrix - expected)) < 1e-10
    print("PASS criterion 1: JC doublet metric [[1,-0.5],[-0.5,1]] from both routes")


def test_criterion_2_pt_proportionality():
    inst = models.build("pt_matrix",
                        {"r": 1.0, "theta": math.pi / 6, "s": 1.0, "t": 1.0,
                         "phi": 0.0})
    spectral = _generic_spectral(inst.hamiltonian)
    das = metric.das_metric(inst.das_data)
    expected = np.array([[1.0, -0.5j], [0.5j, 1.0]])
    assert np.max(np.abs(spectral.matrix - expected)) < 1e-10
    cmp_ = metric.compare_metrics(das, spectral)
    assert cmp_.verdict == "proportional"
    assert abs(cmp_.factor - 4.0 / 3.0) < 1e-9
    print("PASS criterion 2: PT routes proportional with factor 4/3")


def test_criterion_3_dirac_metric_reproduction():
    inst = models.build("dirac_scalar",
                        {"m0": 1.0, "c": 1.0, "hbar": 1.0, "kx": 0.0,
                         "v0": 0.6})
    expected = np.array([[1.25, 0.75], [0.75, 1.25]])
    spectral = _model_spectral(inst)
    das = metric.das_metric(inst.das_data)
    assert np.max(np.abs(spectral.matrix - expected)) < 1e-10
    assert np.max(np.abs(das.matrix - expected)) < 1e-10
    assert metric.compare_metrics(das, spectral).verdict == "equal"
    print("PASS criterion 3: Dirac metric [[1.25,0.75],[0.75,1.25]], verdict equal")


def _random_unbroken_instances(count):
    per = count // 3
    out = []
    for _ in range(per):
        n = int(RNG.integers(0, 5))
        eps = RNG.uniform(0.1, 0.8)
        omega = RNG.uniform(1.0, 2.0)
        rho = RNG.uniform(0.1, 0.8) * (omega - eps) / (2 * math.sqrt(n + 1))
        out.append(models.build("jc_doublet",
                                {"n": n, "epsilon": eps, "omega": omega,
                                 "rho": rho}))
    for _ in range(per):
        s = RNG.uniform(0.3, 2.0)
        t = RNG.uniform(0.3, 2.0)
        theta = RNG.uniform(0.0, 1.2)
        phi = RNG.uniform(-1.5, 1.5)
        r = RNG.uniform(0.0, 0.8) * math.sqrt(s * t) / max(abs(math.sin(theta)), 1e-2)
        out.append(models.build("pt_matrix",
                                {"r": r, "s": s, "t": t, "theta": theta,
                                 "phi": phi}))
    while len(out) < count:
        m0 = RNG.uniform(0.3, 2.0)
        kx = RNG.uniform(-2.0, 2.0)
        v0 = RNG.uniform(0.0, 0.8) * math.sqrt(kx ** 2 + m0 ** 2)
        out.append(models.build("dirac_scalar",
                                {"m0": m0, "kx": kx, "v0": v0}))
    return out


def test_criterion_4_intertwining_everywhere():
    worst_resid, worst_min = 0.0, float("inf")
    for inst in _random_unbroken_instances(1000):
        m = _generic_spectral(inst.hamiltonian)
        rep = metric.validate_metric(inst.hamiltonian, m)
        worst_resid = max(worst_resid, rep.intertwining_residual)
        worst_min = min(worst_min, rep.min_metric_eigenvalue)
    assert worst_resid <= 1e-10
    assert worst_min > 0.0
    print(f"PASS criterion 4: 1000 instances, worst intertwining "
          f"{worst_resid:.2e}, min eigenvalue {worst_min:.2e}")


def test_criterion_5_exceptional_points():
    cases = [
        ("jc_doublet", {"epsilon": 0.5, "omega": 1.0, "n": 0},
         "rho", 0.0, 0.5, 0.25),
        ("pt_matrix", {"r": 1.0, "theta": math.pi / 2, "t": 1.0, "phi": 0.0},
         "s", 0.5, 2.0, 1.0),
        ("dirac_scalar", {"m0": 1.0, "c": 1.0, "kx": 0.0},
         "v0", 0.0, 2.0, 1.0),
    ]
    for family, base, param, lo, hi, target in cases:
        found = phase.find_exceptional(family, base, param, lo, hi)
        assert abs(found - target) < 1e-8, (family, found)
        at_ep = models.build(family, {**base, param: target})
        pairs = linalg.eigendecompose(at_ep.hamiltonian)
        assert linalg.defect_indicator(pairs) < 1e-8, family
        with pytest.raises(DefectiveSystem):
            metric.biorthonormalize(pairs)
    print("PASS criterion 5: EPs at rho=0.25, s=1, v0=1 to 1e-8; "
          "defective at each")


def _random_broken_instances(count):
    per = count // 3
    out = []
    for _ in range(per):
        n = int(RNG.integers(0, 5))
        eps = RNG.uniform(0.1, 0.8)
        omega = RNG.uniform(1.0, 2.0)
        rho = RNG.uniform(1.2, 3.0) * (omega - eps) / (2 * math.sqrt(n + 1))
        out.append(models.build("jc_doublet",
                                {"n": n, "epsilon": eps, "omega": omega,
                                 "rho": rho}))
    for _ in range(per):
        s = RNG.uniform(0.3, 2.0)
        t = RNG.uniform(0.3, 2.0)
        theta = RNG.uniform(0.5, 1.2)
        phi = RNG.uniform(-1.5, 1.5)
        r = RNG.uniform(1.2, 3.0) * math.sqrt(s * t) / abs(math.sin(theta))
        out.append(models.build("pt_matrix",
                                {"r": r, "s": s, "t": t, "theta": theta,
                                 "phi": phi}))
    while len(out) < count:
        m0 = RNG.uniform(0.3, 2.0)
        kx = RNG.uniform(-2.0, 2.0)
        v0 = RNG.uniform(1.2, 3.0) * math.sqrt(kx ** 2 + m0 ** 2)
        out.append(models.build("dirac_scalar",
                                {"m0": m0, "kx": kx, "v0": v0}))
    return out


def test_criterion_6_broken_phase_spectra():
    inst = models.build("jc_doublet", {"rho": 0.3})
    vals = sorted((p.value for p in linalg.eigendecompose(inst.hamiltonian)),
                  key=lambda z: z.imag)
    assert abs(vals[0] - (0.5 - 0.16583j)) < 1e-5
    assert abs(vals[1] - (0.5 + 0.16583j)) < 1e-5
    for inst in _random_broken_instances(1000):
        pairs = linalg.eigendecompose(inst.hamiltonian)
        spec = [p.value for p in pairs]
        scale = max(max(abs(v) for v in spec), 1.0)
        for v in spec:
            assert min(abs(np.conj(v) - w) for w in spec) < 1e-10 * scale
    print("PASS criterion 6: JC rho=0.3 spectrum 0.5 +/- 0.16583i; "
          "conjugate pairing on 1000 draws")


def test_criterion_7_unitarity_under_metric():
    inst = models.build("jc_doublet", {"rho": 0.125})
    psi0 = np.array([0.6, 0.8j])  # the documented witness state
    rec = dynamics.evolve(inst.hamiltonian, psi0, np.linspace(0.0, 10.0, 101),
                          metric=inst.analytic_metric)
    metric_dev = np.max(np.abs(rec.metric_norms - rec.metric_norms[0]))
    std_dev = np.max(np.abs(rec.standard_norms - rec.standard_norms[0]))
    assert metric_dev <= 1e-8 * rec.metric_norms[0]
    assert std_dev > 1e-4
    print(f"PASS criterion 7: metric-norm deviation {metric_dev:.2e}, "
          f"standard-norm deviation {std_dev:.2e}")


def test_criterion_8_discrimination_demo():
    pair = dynamics.build_entangled_pair(math.pi / 3, 0.05)
    overlap_sq = abs(complex(np.vdot(pair.psi1, pair.psi2))) ** 2
    assert abs(overlap_sq - math.cos(0.05) ** 2) < 1e-12
    gains = []
    for s in np.arange(0.1, 0.95, 0.1):
        m = dynamics.assemble_discrimination_metric(float(s))
        gains.append(dynamics.discriminate(pair, m).distinguishability_gain)
    assert any(g > 0 for g in gains)
    print(f"PASS criterion 8: overlap^2 = cos^2(0.05), max gain "
          f"{max(gains):.3e} > 0")


def test_criterion_9_oracle_equivalence():
    worst = 0.0
    for n in (3, 4):
        for _ in range(100):
            while True:
                v = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
                if npl.cond(v) < 20.0:
                    break
            d = np.sort(RNG.uniform(-3.0, 3.0, n))
            while np.min(np.diff(d)) < 0.1:
                d = np.sort(RNG.uniform(-3.0, 3.0, n))
            h = v @ np.diag(d) @ npl.inv(v)
            m = _generic_spectral(h)
            rep = metric.validate_metric(h, m)
            assert rep.intertwining_residual <= 1e-9 and rep.positive
            vinv = npl.inv(v)  # independent oracle construction
            oracle = metric.MetricOperator(vinv.conj().T @ vinv, "analytic")
            orep = metric.validate_metric(h, oracle)
            assert orep.intertwining_residual <= 1e-9 and orep.positive
            worst = max(worst, rep.intertwining_residual,
                        orep.intertwining_residual)
    print(f"PASS criterion 9: 200 random systems, worst intertwining {worst:.2e}")
