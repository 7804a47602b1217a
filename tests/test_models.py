"""The three model families against closed forms and numeric oracles."""

import math

import numpy as np
import numpy.linalg as npl
import pytest
from hypothesis import given, settings, strategies as st

from metricforge import linalg, metric, models, phase
from metricforge.errors import InvalidParams

RNG = np.random.default_rng(20240813)


def assert_intertwines(inst):
    """S H = H^dagger S to 1e-12 relative, and S S^dagger = c I with c > 0
    to 1e-14 relative, for every instance, broken and exceptional ones too:
    the only check of the families' closed-form S (models.build makes
    none).  The second makes S invertible with condition number 1, as each
    family's S is an involution up to a positive scale."""
    h, s = inst.hamiltonian, inst.similarity
    resid = linalg.frob(s @ h - h.conj().T @ s)
    assert resid < 1e-12 * linalg.frob(s) * linalg.frob(h) or resid == 0.0
    gram = s @ s.conj().T
    c = gram[0, 0].real
    assert c > 0.0
    assert linalg.frob(gram - c * np.eye(len(s))) <= 1e-14 * c


def assert_instance_consistent(inst, atol=1e-9):
    """Oracle checks every unbroken instance must satisfy."""
    assert_intertwines(inst)
    h = inst.hamiltonian
    scale = max(linalg.frob(h), 1.0)
    # eigenvalues against the numpy oracle
    ref = sorted(npl.eigvals(h), key=lambda z: (z.real, z.imag))
    mine = sorted(inst.analytic_eigenvalues, key=lambda z: (complex(z).real, complex(z).imag))
    assert all(abs(a - b) < atol * scale for a, b in zip(mine, ref))
    if inst.analytic_system is not None:
        sysa = inst.analytic_system
        for k, value in enumerate(sysa.values):
            right, left = sysa.right[:, k], sysa.left[:, k]
            assert npl.norm(h @ right - value * right) < atol * scale
            assert npl.norm(h.conj().T @ left - np.conj(value) * left) < atol * scale
    if inst.analytic_metric is not None:
        rep = metric.validate_metric(h, inst.analytic_metric)
        assert rep.hermitian_residual < 1e-12
        assert rep.intertwining_residual < 1e-10
        assert rep.positive
    if inst.das_data is not None:
        # the projector route yields a member of the same metric family:
        # identical up to an overall positive factor (the PT family's printed
        # pair differs by (s+t)^2/4(st - r^2 sin^2 theta))
        q = metric.das_metric(inst.das_data)
        rep = metric.validate_metric(h, q)
        assert rep.intertwining_residual < 1e-10 and rep.positive
        cmp_ = metric.compare_metrics(q, inst.analytic_metric)
        assert cmp_.verdict in ("equal", "proportional")
        if cmp_.verdict == "proportional":
            assert cmp_.factor > 0


# ---------------------------------------------------------------------------
# spin-oscillator doublet
# ---------------------------------------------------------------------------

def test_jc_reference_point():
    inst = models.jc_doublet(models.JCParams(n=0, epsilon=0.5, omega=1.0, rho=0.125))
    assert inst.phase == "unbroken"
    expected = np.array([[1.0, -0.5], [-0.5, 1.0]])
    assert linalg.frob(inst.analytic_metric.matrix - expected) < 1e-12
    root = math.sqrt(0.1875) / 2.0
    assert inst.analytic_eigenvalues == pytest.approx([0.5 - root, 0.5 + root])
    assert inst.extras["sin_theta"] == pytest.approx(0.5)
    assert_instance_consistent(inst)


def test_jc_broken_point():
    inst = models.jc_doublet(models.JCParams(rho=0.3))
    assert inst.phase == "broken"
    assert_intertwines(inst)
    gamma = math.sqrt(0.11) / 2.0
    assert inst.analytic_eigenvalues[0] == pytest.approx(0.5 - 1j * gamma)
    assert inst.analytic_eigenvalues[1] == pytest.approx(0.5 + 1j * gamma)
    # oracle: numeric spectrum agrees
    ref = sorted(npl.eigvals(inst.hamiltonian), key=lambda z: z.imag)
    assert abs(ref[0] - (0.5 - 1j * gamma)) < 1e-12


def test_jc_exceptional_point():
    inst = models.jc_doublet(models.JCParams(rho=0.25))
    assert inst.phase == "exceptional"
    assert inst.analytic_metric is None
    assert_intertwines(inst)


def test_jc_invalid_params():
    with pytest.raises(InvalidParams):
        models.JCParams(omega=-1.0)
    with pytest.raises(InvalidParams):
        models.JCParams(n=-1)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=6),
       st.floats(min_value=0.1, max_value=0.8),
       st.floats(min_value=1.0, max_value=2.0))
def test_jc_random_unbroken(n, eps, omega):
    # rho chosen safely inside the unbroken region (omega > eps keeps the
    # level splitting away from zero)
    rho_c = (omega - eps) / (2.0 * math.sqrt(n + 1))
    rho = 0.5 * rho_c
    inst = models.jc_doublet(models.JCParams(n=n, epsilon=eps, omega=omega, rho=rho))
    assert inst.phase == "unbroken"
    assert_instance_consistent(inst)


def test_jc_full_structure():
    inst = models.jc_full(models.JCParams(rho=0.11), levels=3)
    assert inst.hamiltonian.shape == (7, 7)
    assert inst.phase == "unbroken"
    assert_instance_consistent(inst)
    # the metric determinant factorizes over the doublet blocks
    det = npl.det(inst.analytic_metric.matrix).real
    expected = math.prod(1.0 - s ** 2 for s in inst.extras["sin_thetas"])
    assert det == pytest.approx(expected, rel=1e-10)


def test_jc_full_broken_when_any_doublet_breaks():
    # rho breaks the highest doublet first (rho_c shrinks with n)
    inst = models.jc_full(models.JCParams(rho=0.2), levels=3)
    assert inst.phase == "broken"
    assert_intertwines(inst)


def test_jc_full_needs_levels():
    with pytest.raises(InvalidParams):
        models.jc_full(models.JCParams(), levels=0)


# (family, params, phase): each family unbroken, at an exact EP and broken
_PHASE_POINTS = [
    ("jc_doublet", {"n": 0, "eps": 0.5, "omega": 1, "rho": 0.125}, "unbroken"),
    ("jc_doublet", {"n": 0, "eps": 0.5, "omega": 1, "rho": 0.25}, "exceptional"),
    ("jc_doublet", {"n": 0, "eps": 0.5, "omega": 1, "rho": 0.3}, "broken"),
    *(("jc_full", {"levels": levels, "rho": 0.01}, "unbroken")
      for levels in (1, 2, 12)),
    ("jc_full", {"levels": 4, "eps": 0.5, "omega": 1, "rho": 0.125},
     "exceptional"),
    ("jc_full", {"levels": 3, "eps": 0.5, "omega": 1, "rho": 0.2}, "broken"),
    ("pt_matrix", {"r": 1, "theta": 0.5, "s": 1, "t": 1, "phi": 0.3},
     "unbroken"),
    ("pt_matrix", {"r": 1, "theta": math.pi / 2, "s": 1, "t": 1, "phi": 0},
     "exceptional"),
    ("pt_matrix", {"r": 1, "theta": 1.2, "s": 0.5, "t": 0.5, "phi": 0},
     "broken"),
    ("dirac_scalar", {"m0": 1, "kx": 0.3, "v0": 0.5}, "unbroken"),
    ("dirac_scalar", {"m0": 1, "kx": 0, "v0": 1}, "exceptional"),
    ("dirac_scalar", {"m0": 0, "kx": 1, "v0": 0.9999999999999}, "exceptional"),
    ("dirac_scalar", {"m0": 1, "kx": 0.3, "v0": 1.5}, "broken"),
]


@pytest.mark.parametrize("family, params, want", _PHASE_POINTS, ids=[
    f"{f}-levels{p['levels']}-{w}" if f == "jc_full"
    else f"{f}-massless-{w}" if p.get("m0") == 0 else f"{f}-{w}"
    for f, p, w in _PHASE_POINTS])
def test_build_makes_no_inverse(monkeypatch, family, params, want):
    # a build parses its parameters and evaluates the closed forms: no LU
    # of S, no self-check (the tests prove S H = H^dagger S instead)
    def refused(*args, **kwargs):
        pytest.fail("models.build factored or checked S")

    monkeypatch.setattr(linalg, "inverse", refused)
    monkeypatch.setattr(metric, "check_pseudo_hermitian", refused)
    inst = models.build(family, params)
    assert inst.phase == want
    assert_intertwines(inst)


# ---------------------------------------------------------------------------
# 2x2 PT matrix
# ---------------------------------------------------------------------------

def test_pt_reference_point():
    inst = models.pt_matrix(models.PTParams(r=1.0, s=1.0, t=1.0,
                                            theta=math.pi / 6, phi=0.0))
    expected = np.array([[1.0, -0.5j], [0.5j, 1.0]])
    assert linalg.frob(inst.analytic_metric.matrix - expected) < 1e-12
    q = math.sqrt(0.75)
    assert inst.analytic_eigenvalues == pytest.approx(
        [math.cos(math.pi / 6) - q, math.cos(math.pi / 6) + q])
    assert_instance_consistent(inst)


def test_pt_das_proportional_to_spectral():
    inst = models.pt_matrix(models.PTParams(r=1.0, s=1.0, t=1.0,
                                            theta=math.pi / 6, phi=0.0))
    das = metric.das_metric(inst.das_data)
    cmp_ = metric.compare_metrics(das, inst.analytic_metric)
    assert cmp_.verdict == "proportional"
    # das/spectral ratio (s+t)^2 / (4 (st - r^2 sin^2 theta)) = 4/3 here
    assert cmp_.factor == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_pt_exceptional():
    inst = models.pt_matrix(models.PTParams(r=1.0, s=1.0, t=1.0,
                                            theta=math.pi / 2, phi=0.0))
    assert inst.phase == "exceptional"
    assert_intertwines(inst)


def test_pt_unbroken_with_negative_st():
    # D = diag(1, -1) maps the closed forms at (|s|, |t|) to s, t < 0
    for p in ({"r": 0.1, "s": -1.0, "t": -1.0, "theta": 0.1},
              {"r": 1.0, "s": -1.0, "t": -1.0, "theta": 0.5, "phi": 0.0},
              {"r": 0.7, "s": -2.0, "t": -0.5, "theta": 0.4, "phi": 0.9}):
        inst = models.build("pt_matrix", p)
        assert inst.phase == "unbroken"
        assert_instance_consistent(inst)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.2, max_value=2.0),
       st.floats(min_value=0.2, max_value=2.0),
       st.floats(min_value=0.0, max_value=1.2),
       st.floats(min_value=-1.5, max_value=1.5))
def test_pt_random_unbroken(s, t, theta, phi):
    r = 0.7 * math.sqrt(s * t) / max(abs(math.sin(theta)), 1e-3)
    inst = models.pt_matrix(models.PTParams(r=r, s=s, t=t, theta=theta, phi=phi))
    assert inst.phase == "unbroken"
    assert_instance_consistent(inst)


# ---------------------------------------------------------------------------
# Dirac scalar model
# ---------------------------------------------------------------------------

def test_dirac_reference_point():
    inst = models.dirac_scalar(models.DiracParams(kx=0.0, v0=0.6))
    expected = np.array([[1.25, 0.75], [0.75, 1.25]])
    assert linalg.frob(inst.analytic_metric.matrix - expected) < 1e-12
    assert inst.analytic_eigenvalues == pytest.approx([-0.8, 0.8])
    assert_instance_consistent(inst)


def test_dirac_similarity_intertwines():
    for kx, v0 in [(0.0, 0.6), (0.8, 0.5), (1.5, 0.9), (0.3, 0.0)]:
        assert_intertwines(models.dirac_scalar(models.DiracParams(kx=kx, v0=v0)))


@pytest.mark.parametrize("m0, kx, v0, phase", [
    (1.0, 1.0, 1.0, "unbroken"), (1.0, 1.0, -1.0, "unbroken"),
    (1.0, -1.0, 1.0, "unbroken"), (0.0, 1.0, 1.0, "exceptional")])
def test_dirac_similarity_where_v0_meets_mass_and_momentum(m0, kx, v0, phase):
    # |v0| = m0 c^2 = |c hbar k| (or m0 = 0 and |v0| = |c hbar k|): S is
    # still the free Dirac Hamiltonian, of determinant -(m0^2 + kx^2)
    inst = models.build("dirac_scalar", {"m0": m0, "kx": kx, "v0": v0})
    assert inst.phase == phase
    assert_intertwines(inst)
    assert abs(npl.det(inst.similarity)) >= 1.0
    if phase == "unbroken":
        assert inst.analytic_eigenvalues == pytest.approx([-1.0, 1.0])
        assert_instance_consistent(inst)


def test_dirac_broken_and_exceptional():
    for v0, phase in ((2.0, "broken"), (1.0, "exceptional")):
        inst = models.dirac_scalar(models.DiracParams(kx=0.0, v0=v0))
        assert inst.phase == phase
        assert_intertwines(inst)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.2, max_value=2.0))
def test_dirac_random_unbroken(kx, m0):
    mc2 = m0
    v0 = 0.6 * math.sqrt(kx ** 2 + mc2 ** 2)
    inst = models.dirac_scalar(models.DiracParams(m0=m0, kx=kx, v0=v0))
    assert inst.phase == "unbroken"
    assert_instance_consistent(inst)


def test_dirac_projector_route_near_q0_pole():
    # q0 = diag((cp - v0)/(cp + v0), 1) has a pole at v0 = -cp; within
    # 1e-3 of it the route takes q0 = eta, so the assembly stays at the
    # analytic metric all the way along a log-spaced approach
    for gap in np.logspace(-1.0, -12.0, 23):
        for v0 in (0.5 - gap, 0.5 + gap):
            inst = models.build("dirac_scalar",
                                {"m0": 1.0, "kx": -0.5, "v0": float(v0)})
            eta = inst.analytic_metric.matrix
            q = metric.das_metric(inst.das_data).matrix
            assert linalg.frob(q - eta) <= 1e-13 * linalg.frob(eta), v0


# ---------------------------------------------------------------------------
# generic pipeline vs analytic metric
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,params,verdicts", [
    ("jc_doublet", {"n": 2, "epsilon": 0.4, "omega": 1.1, "rho": 0.06},
     ("equal", "proportional")),
    ("pt_matrix", {"r": 0.7, "s": 2.0, "t": 0.5, "theta": 0.4, "phi": 0.9},
     ("equal", "proportional")),
    # at kx != 0 the unit-normalized spectral sum weights the two levels
    # differently from the relativistically normalized closed form: a
    # different, equally valid member of the metric family
    ("dirac_scalar", {"kx": 0.8, "v0": 0.5},
     ("equal", "proportional", "distinct")),
])
def test_numeric_spectral_vs_analytic(family, params, verdicts):
    inst = models.build(family, params)
    pairs = linalg.eigendecompose(inst.hamiltonian)
    sysb = metric.biorthonormalize(pairs)
    m = metric.spectral_metric(sysb, h_scale=linalg.frob(inst.hamiltonian))
    rep = metric.validate_metric(inst.hamiltonian, m)
    assert rep.intertwining_residual < 1e-10 and rep.positive
    cmp_ = metric.compare_metrics(m, inst.analytic_metric)
    assert cmp_.verdict in verdicts


def test_jc_full_levels_12_metric_accuracy():
    # doublet energies reach about 11 with splittings near 0.2; the Schur
    # route keeps the closed-form metric to a few ulp in the median
    rng = np.random.default_rng(12)
    errors = []
    for _ in range(20):
        eps, omega = rng.uniform(0.2, 0.6), rng.uniform(0.9, 1.3)
        rho = rng.uniform(0.3, 0.9) * (omega - eps) / (2.0 * math.sqrt(12))
        inst = models.build("jc_full", {"levels": 12, "epsilon": eps,
                                        "omega": omega, "rho": rho})
        sysb = metric.biorthonormalize(linalg.eigendecompose(inst.hamiltonian))
        m = metric.spectral_metric(sysb).matrix
        ref = inst.analytic_metric.matrix
        errors.append(linalg.frob(m - ref) / linalg.frob(ref))
    assert np.median(errors) < 3.5e-15


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_build_and_discriminant_agree():
    for family, params in [
        ("jc_doublet", {"rho": 0.1}),
        ("pt_matrix", {"r": 0.5, "s": 1.0, "t": 1.0, "theta": 0.3, "phi": 0.0}),
        ("dirac_scalar", {"kx": 0.4, "v0": 0.2}),
    ]:
        inst = models.build(family, params)
        assert models.discriminant(family, params) == pytest.approx(inst.discriminant)


def test_jc_full_ep_is_where_the_top_doublet_breaks():
    # the top doublet (n = levels - 1) breaks first: 4 rho^2 levels = (omega - eps)^2
    params = {"epsilon": 0.5, "omega": 1.0, "levels": 3}
    ep = phase.find_exceptional("jc_full", params, "rho", 0.0, 0.5)
    assert ep == pytest.approx(0.25 / math.sqrt(3), rel=1e-6)
    assert models.discriminant("jc_full", {**params, "rho": 0.15}) < 0
    for rho, label in ((0.99 * ep, models.PHASE_UNBROKEN),
                       (1.01 * ep, models.PHASE_BROKEN)):
        h = models.build("jc_full", {**params, "rho": rho}).hamiltonian
        assert phase.classify(h).classification == label


_ENERGIES = {"jc_doublet": ("epsilon", "omega", "rho"),
             "jc_full": ("epsilon", "omega", "rho"),
             "pt_matrix": ("r", "s", "t"), "dirac_scalar": ("m0", "kx", "v0")}


def _near_ep_params(family, delta):
    """A point at relative distance delta from the family's EP (unbroken
    for delta > 0)."""
    if family in ("jc_doublet", "jc_full"):
        levels = 12 if family == "jc_full" else 1
        p = {"epsilon": 0.5, "omega": 1.0,
             "rho": 0.25 * (1.0 - delta) / math.sqrt(levels)}
        return {**p, "levels": levels} if family == "jc_full" else p
    if family == "pt_matrix":
        return {"r": 1.0, "theta": 0.5, "t": 1.0, "phi": 0.0,
                "s": math.sin(0.5) ** 2 * (1.0 + delta)}
    return {"m0": 0.0, "kx": 1.0, "v0": 1.0 - delta}


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("family", models.FAMILIES)
def test_intertwines_at_every_scale(family, scale):
    # random points in every phase (jc_full up to 12 levels), points on
    # both sides of the EP band and, for the Dirac model, a grid around
    # |v0| = m0 c^2 = |c hbar k| and m0 = kx = 0 with H = 0 or not, at
    # energies scaled by 1e-6, 1 and 1e6
    rng = np.random.default_rng(20261020)
    points = [_random_params(family, rng) for _ in range(40)]
    if family == "jc_full":
        for p in points:
            p["levels"] = int(rng.integers(1, 13))
    points += [_near_ep_params(family, d)
               for d in (1e-6, 1e-13, 0.0, -1e-13, -1e-6)]
    if family == "dirac_scalar":
        points += [{"m0": 1.0, "kx": kx, "v0": sign * (1.0 + d * 10.0 ** -e)}
                   for kx in (1.0, -1.0) for sign in (1.0, -1.0)
                   for d in (1.0, -1.0) for e in range(4, 14)]
        points += [{"m0": 0.0, "kx": 0.0, "v0": v0} for v0 in (0.0, 0.3)]
    for params in points:
        scaled = {k: v * scale if k in _ENERGIES[family] else v
                  for k, v in params.items()}
        assert_intertwines(models.build(family, scaled))


def _random_params(family, rng):
    if family in ("jc_doublet", "jc_full"):
        p = {"epsilon": rng.uniform(0.0, 1.0), "omega": rng.uniform(0.5, 1.5),
             "rho": rng.uniform(0.0, 0.6)}
        if family == "jc_full":
            p["levels"] = int(rng.integers(1, 7))
        else:
            p["n"] = int(rng.integers(0, 4))
        return p
    if family == "pt_matrix":
        return {"r": rng.uniform(0.0, 2.0), "s": rng.uniform(0.1, 2.0),
                "t": rng.uniform(0.1, 2.0), "theta": rng.uniform(-math.pi, math.pi),
                "phi": rng.uniform(-math.pi, math.pi)}
    return {"m0": rng.uniform(0.0, 2.0), "kx": rng.uniform(-1.0, 1.0),
            "v0": rng.uniform(0.0, 3.0)}


@pytest.mark.parametrize("family", models.FAMILIES)
def test_discriminant_sign_matches_numeric_phase(family):
    # outside the band |disc| <= 1e-4 the analytic sign must agree with the
    # numerical classification of the built Hamiltonian (jc_full: n up to 13)
    rng = np.random.default_rng(20261018)
    checked = 0
    for _ in range(30):
        params = _random_params(family, rng)
        inst = models.build(family, params)
        assert_intertwines(inst)
        disc = models.discriminant(family, params)
        if abs(disc) <= 1e-4:
            continue
        label = phase.classify(inst.hamiltonian).classification
        want = models.PHASE_UNBROKEN if disc > 0 else models.PHASE_BROKEN
        assert label == want, (params, disc)
        checked += 1
    assert checked >= 25


def test_build_alias_and_unknown():
    inst = models.build("jc_doublet", {"eps": 0.6, "rho": 0.1})
    assert inst.params["epsilon"] == pytest.approx(0.6)
    # counts arrive from the CLI as floats; integral ones are accepted
    assert models.build("jc_full", {"levels": 2.0}).hamiltonian.shape == (5, 5)
    with pytest.raises(InvalidParams):
        models.build("nope", {})


@pytest.mark.parametrize("family, params", [
    ("jc_doublet", {"foo": 1.0}),
    ("jc_doublet", {"levels": 2}),
    ("pt_matrix", {"n": 0}),
    ("jc_doublet", {"n": 1.7}),
    ("jc_full", {"levels": 2.5}),
    ("dirac_scalar", {"v0": "x"}),
    ("pt_matrix", {"theta": float("inf")}),
    ("jc_doublet", {"rho": float("nan")}),
    ("jc_full", {"n": 1}),  # jc_full takes levels, not a doublet index
])
def test_bad_params_rejected(family, params):
    for fn in (models.build, models.discriminant):
        with pytest.raises(InvalidParams):
            fn(family, params)
