"""The three bundled pseudo-Hermitian model families.

Each constructor returns a :class:`ModelInstance` carrying the Hamiltonian,
a similarity operator S with S H = H^dagger S, closed-form eigenpairs, the
closed-form metric, and the data for the projector-based metric assembly
(the "das" route).  The closed forms serve as oracles for the generic
machinery.

Normalization conventions:

* analytic left eigenvectors are stored with the normalization that makes
  the spectral sum reproduce the stored closed-form metric (unit norm for
  the spin-oscillator doublet and the 2x2 PT matrix, relativistic spinor
  normalization for the Dirac model);
* the Dirac similarity operator is [[1, v0/m0c^2], [v0/m0c^2, 1]]; note
  that the antisymmetric candidate [[0, -1], [1, 0]] anti-intertwines
  (S H = -H^dagger S) and is not a valid similarity;
* the Dirac reference metric for the projector route is
  diag((c p - v0)/(c p + v0), 1), which maps the reference spinor to its
  adjoint partner at every momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import linalg
from .errors import InvalidParams
from .linalg import EigenPair, adjoint
from .metric import DasConstruction, MetricOperator, check_pseudo_hermitian

PHASE_UNBROKEN = "unbroken"
PHASE_BROKEN = "broken"
PHASE_EXCEPTIONAL = "exceptional"

# relative width of the band around discriminant zero treated as exceptional
_EP_BAND = 1e-12


@dataclass(frozen=True)
class JCParams:
    """Spin-1/2 x oscillator doublet: magnetic splitting epsilon, oscillator
    frequency omega, non-Hermitian coupling rho, doublet index n."""

    n: int = 0
    epsilon: float = 0.5
    omega: float = 1.0
    rho: float = 0.125
    hbar: float = 1.0

    def __post_init__(self):
        if self.omega <= 0 or self.hbar <= 0:
            raise InvalidParams("omega and hbar must be positive")
        if self.n < 0:
            raise InvalidParams("doublet index n must be >= 0")

    def discriminant(self) -> float:
        hw = self.hbar * self.omega
        return (hw - self.epsilon) ** 2 - 4.0 * self.rho ** 2 * (self.n + 1)


@dataclass(frozen=True)
class PTParams:
    """General 2x2 PT-symmetric matrix [[r e^{i theta}, s e^{i phi}],
    [t e^{-i phi}, r e^{-i theta}]]."""

    r: float = 1.0
    s: float = 1.0
    t: float = 1.0
    theta: float = 0.5
    phi: float = 0.0

    def discriminant(self) -> float:
        return self.s * self.t - (self.r * math.sin(self.theta)) ** 2


@dataclass(frozen=True)
class DiracParams:
    """1+1d Dirac particle of mass m0 with scalar non-Hermitian potential v0,
    plane-wave sector of wavenumber kx."""

    m0: float = 1.0
    c: float = 1.0
    hbar: float = 1.0
    kx: float = 0.0
    v0: float = 0.0

    def __post_init__(self):
        if self.m0 < 0 or self.c <= 0 or self.hbar <= 0:
            raise InvalidParams("need m0 >= 0, c > 0, hbar > 0")

    def discriminant(self) -> float:
        return (self.hbar * self.c * self.kx) ** 2 + (self.m0 * self.c ** 2) ** 2 - self.v0 ** 2


@dataclass(frozen=True)
class ModelInstance:
    family: str
    params: dict
    hamiltonian: np.ndarray
    similarity: np.ndarray
    analytic_eigenvalues: list
    phase: str
    discriminant: float
    analytic_pairs: list[EigenPair] | None = None
    analytic_metric: MetricOperator | None = None
    das_data: DasConstruction | None = None
    broken_states: list[np.ndarray] | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        resid = check_pseudo_hermitian(self.hamiltonian, self.similarity)
        if resid > 1e-12:
            raise AssertionError(
                f"model {self.family} violates pseudo-Hermiticity: {resid:.3e}"
            )


def _classify_disc(disc: float, scale: float) -> str:
    if abs(disc) <= _EP_BAND * max(scale, 1.0):
        return PHASE_EXCEPTIONAL
    return PHASE_UNBROKEN if disc > 0 else PHASE_BROKEN


def _duals(pairs: list[EigenPair]) -> list[np.ndarray]:
    """Biorthogonal duals: <dual_n|psi_n> = 1, built from the stored lefts."""
    out = []
    for p in pairs:
        ov = complex(p.left.conj() @ p.right)
        out.append(p.left / np.conj(ov))
    return out


def _das_2x2(pairs: list[EigenPair], q0: np.ndarray, ref: int) -> DasConstruction:
    """Projector-route data for a 2x2 system with reference state pairs[ref].

    The projectors are |psi_E><dual_E| in the order of pairs.  sigma for the
    reference energy is the identity; the other generator is the
    biorthogonal swap |psi_other><dual_ref| + |psi_ref><dual_other| (the
    generalization of the spin-flip used by the doublet model).
    """
    duals = _duals(pairs)
    other = 1 - ref
    projectors = [np.outer(p.right, d.conj()) for p, d in zip(pairs, duals)]
    generators = [None, None]
    generators[ref] = np.eye(2, dtype=complex)
    generators[other] = (np.outer(pairs[other].right, duals[ref].conj())
                         + np.outer(pairs[ref].right, duals[other].conj()))
    return DasConstruction(q0, generators, projectors)


# ---------------------------------------------------------------------------
# Spin-1/2 x oscillator doublet
# ---------------------------------------------------------------------------

def jc_doublet(p: JCParams) -> ModelInstance:
    hw = p.hbar * p.omega
    b = p.rho * math.sqrt(p.n + 1)
    h = np.array([[p.epsilon / 2 + p.n * hw, b],
                  [-b, -p.epsilon / 2 + (p.n + 1) * hw]], dtype=complex)
    s = np.diag([1.0 + 0j, -1.0 + 0j])
    disc = p.discriminant()
    phase = _classify_disc(disc, hw ** 2)
    center = (2 * p.n + 1) * hw / 2.0
    params = {"n": p.n, "epsilon": p.epsilon, "omega": p.omega,
              "rho": p.rho, "hbar": p.hbar}

    if phase == PHASE_BROKEN:
        gap = math.sqrt(-disc) / 2.0
        vals = [center - 1j * gap, center + 1j * gap]
        return ModelInstance("jc_doublet", params, h, s, vals, phase, disc)
    if phase == PHASE_EXCEPTIONAL:
        return ModelInstance("jc_doublet", params, h, s, [center, center],
                             phase, disc)

    root = math.sqrt(disc)
    lam_p, lam_m = center + root / 2.0, center - root / 2.0
    st = 2.0 * b / (hw - p.epsilon)  # sin(theta_{n+1})
    th = math.asin(st)
    cs, sn = math.cos(th / 2.0), math.sin(th / 2.0)
    psi_p = np.array([sn, cs], dtype=complex)
    psi_m = np.array([cs, sn], dtype=complex)
    phi_p = np.array([sn, -cs], dtype=complex)
    phi_m = np.array([cs, -sn], dtype=complex)
    pairs = [EigenPair(lam_m, psi_m, phi_m), EigenPair(lam_p, psi_p, phi_p)]
    eta = np.array([[1.0, -st], [-st, 1.0]], dtype=complex)
    q0 = math.cos(th) * s
    das = _das_2x2(pairs, q0, ref=0)
    return ModelInstance(
        "jc_doublet", params, h, s, [lam_m, lam_p], phase, disc,
        analytic_pairs=pairs,
        analytic_metric=MetricOperator(eta, "analytic"),
        das_data=das,
        extras={"sin_theta": st},
    )


def jc_full(p: JCParams, levels: int) -> ModelInstance:
    """Truncated full model: ground state plus the first `levels` doublets.

    Basis order: |0,-1/2>, then {|n,+1/2>, |n+1,-1/2>} for n = 0..levels-1.
    """
    if levels < 1:
        raise InvalidParams("levels must be >= 1")
    dim = 2 * levels + 1
    h = np.zeros((dim, dim), dtype=complex)
    s_diag = np.empty(dim, dtype=complex)
    h[0, 0] = -p.epsilon / 2.0
    s_diag[0] = -1.0
    blocks = []
    vals: list[complex] = [complex(-p.epsilon / 2.0)]
    for n in range(levels):
        bp = JCParams(n=n, epsilon=p.epsilon, omega=p.omega, rho=p.rho, hbar=p.hbar)
        inst = jc_doublet(bp)
        blocks.append(inst)
        i = 1 + 2 * n
        h[i:i + 2, i:i + 2] = inst.hamiltonian
        s_diag[i], s_diag[i + 1] = 1.0, -1.0
        vals.extend(inst.analytic_eigenvalues)
    s = np.diag(s_diag)
    worst = PHASE_UNBROKEN
    for inst in blocks:
        if inst.phase == PHASE_BROKEN:
            worst = PHASE_BROKEN
            break
        if inst.phase == PHASE_EXCEPTIONAL:
            worst = PHASE_EXCEPTIONAL
    disc = min(inst.discriminant for inst in blocks)
    params = {"epsilon": p.epsilon, "omega": p.omega, "rho": p.rho,
              "hbar": p.hbar, "levels": levels}
    if worst != PHASE_UNBROKEN:
        return ModelInstance("jc_full", params, h, s, vals, worst, disc)

    def embed_vec(block_vec, n):
        v = np.zeros(dim, dtype=complex)
        v[1 + 2 * n:3 + 2 * n] = block_vec
        return v

    def embed_mat(block_mat, n, background):
        m = background.astype(complex, copy=True)
        m[1 + 2 * n:3 + 2 * n, 1 + 2 * n:3 + 2 * n] = block_mat
        return m

    eye = np.eye(dim, dtype=complex)
    zero = np.zeros((dim, dim), dtype=complex)
    ground = np.zeros(dim, dtype=complex)
    ground[0] = 1.0
    pairs = [EigenPair(complex(-p.epsilon / 2.0), ground, ground.copy())]
    metric = np.zeros((dim, dim), dtype=complex)
    metric[0, 0] = 1.0  # phase freedom fixes the ground entry to +1
    q0 = np.zeros((dim, dim), dtype=complex)
    q0[0, 0] = 1.0
    generators = [eye.copy()]
    projectors = [np.outer(ground, ground.conj())]
    for n, inst in enumerate(blocks):
        for pair in inst.analytic_pairs:
            pairs.append(EigenPair(pair.value, embed_vec(pair.right, n),
                                   embed_vec(pair.left, n)))
        metric[1 + 2 * n:3 + 2 * n, 1 + 2 * n:3 + 2 * n] = inst.analytic_metric.matrix
        q0[1 + 2 * n:3 + 2 * n, 1 + 2 * n:3 + 2 * n] = inst.das_data.reference_metric_q0
        for sigma, proj in zip(inst.das_data.generators, inst.das_data.projectors):
            generators.append(embed_mat(sigma, n, eye))
            projectors.append(embed_mat(proj, n, zero))
    das = DasConstruction(q0, generators, projectors)
    return ModelInstance(
        "jc_full", params, h, s, vals, worst, disc,
        analytic_pairs=pairs,
        analytic_metric=MetricOperator(metric, "analytic"),
        das_data=das,
        extras={"sin_thetas": [b.extras["sin_theta"] for b in blocks]},
    )


# ---------------------------------------------------------------------------
# 2x2 PT-symmetric matrix
# ---------------------------------------------------------------------------

def pt_matrix(p: PTParams) -> ModelInstance:
    r, s_, t_, th, ph = p.r, p.s, p.t, p.theta, p.phi
    h = np.array([[r * np.exp(1j * th), s_ * np.exp(1j * ph)],
                  [t_ * np.exp(-1j * ph), r * np.exp(-1j * th)]])
    sim = np.array([[0.0, np.exp(1j * ph)], [np.exp(-1j * ph), 0.0]])
    big_r = r * math.sin(th)
    disc = p.discriminant()
    scale = max(abs(s_ * t_), big_r ** 2, 1.0)
    phase = _classify_disc(disc, scale)
    params = {"r": r, "s": s_, "t": t_, "theta": th, "phi": ph}
    e2, em = np.exp(1j * ph / 2.0), np.exp(-1j * ph / 2.0)

    if phase == PHASE_BROKEN:
        qt = math.sqrt(-disc)
        vals = [r * math.cos(th) - 1j * qt, r * math.cos(th) + 1j * qt]
        broken = None
        denom = (s_ + t_) * big_r + (s_ - t_) * qt
        if denom > 0 and s_ * t_ >= 0:
            # eigenstates in the broken phase, kept for coalescence tests
            pref = 1.0 / math.sqrt(denom)
            psi_e = -1j * pref * np.array([
                1j * np.sqrt(complex(s_ * (big_r - qt))) * e2,
                np.sqrt(complex(t_ * (big_r + qt))) * em])
            psi_eb = 1j * pref * np.array([
                np.sqrt(complex(s_ * (big_r + qt))) * e2,
                -1j * np.sqrt(complex(t_ * (big_r - qt))) * em])
            broken = [psi_e, psi_eb]
        return ModelInstance("pt_matrix", params, h, sim, vals, phase, disc,
                             broken_states=broken)
    if phase == PHASE_EXCEPTIONAL:
        val = complex(r * math.cos(th))
        return ModelInstance("pt_matrix", params, h, sim, [val, val], phase, disc)

    if s_ * t_ <= 0:
        raise InvalidParams("unbroken-phase formulas need s and t of the same sign")
    if s_ < 0:  # flip both signs into the (s>0, t>0) sheet of the quartic roots
        raise InvalidParams("unbroken-phase formulas are stated for s, t > 0")
    q = math.sqrt(disc)
    e_p, e_m = r * math.cos(th) + q, r * math.cos(th) - q
    pref = 1.0 / math.sqrt(s_ + t_)
    st4 = (s_ / t_) ** 0.25
    ts4 = (t_ / s_) ** 0.25
    rp = np.sqrt(complex(q + 1j * big_r))
    rm = np.sqrt(complex(q - 1j * big_r))
    psi_p = pref * np.array([st4 * rp * e2, ts4 * rm * em])
    psi_m = 1j * pref * np.array([st4 * rm * e2, -ts4 * rp * em])
    # adjoint-Hamiltonian eigenvectors: same formulas under theta -> -theta,
    # s <-> t (the s/t-inverted variant is not an eigenvector of H^dagger)
    phi_p = pref * np.array([ts4 * rm * e2, st4 * rp * em])
    phi_m = 1j * pref * np.array([ts4 * rp * e2, -st4 * rm * em])
    pairs = [EigenPair(e_m, psi_m, phi_m), EigenPair(e_p, psi_p, phi_p)]
    eta = (2.0 / (s_ + t_)) * np.array(
        [[t_, -1j * big_r * np.exp(1j * ph)],
         [1j * big_r * np.exp(-1j * ph), s_]])
    q0 = -((s_ + t_) / (2.0 * q)) * sim
    das = _das_2x2(pairs, q0, ref=0)
    return ModelInstance(
        "pt_matrix", params, h, sim, [e_m, e_p], phase, disc,
        analytic_pairs=pairs,
        analytic_metric=MetricOperator(eta, "analytic"),
        das_data=das,
        extras={"q_factor": q},
    )


# ---------------------------------------------------------------------------
# Dirac particle with scalar pseudo-Hermitian potential
# ---------------------------------------------------------------------------

def _dirac_similarity(mc2: float, cp: float, v0: float) -> np.ndarray:
    """A Hermitian S with S H = H^dagger S for the Dirac matrix.

    The one-parameter family alpha (cp+v0) - delta (cp-v0) = 2 m c^2 beta
    (with beta = gamma) contains [[1, v0/mc^2], [v0/mc^2, 1]] for massive
    particles and diag(cp-v0, cp+v0) otherwise; pick whichever is farther
    from singular.
    """
    cands = []
    if mc2 > 0:
        m1 = np.array([[1.0, v0 / mc2], [v0 / mc2, 1.0]], dtype=complex)
        cands.append((abs(1.0 - (v0 / mc2) ** 2), m1))
    m2 = np.array([[cp - v0, 0.0], [0.0, cp + v0]], dtype=complex)
    scale2 = abs(cp) + abs(v0)
    cands.append((abs(cp * cp - v0 * v0) / scale2 ** 2 if scale2 > 0 else 0.0,
                  m2))
    cands.sort(key=lambda kv: -kv[0])
    best_det, best = cands[0]
    if best_det <= 1e-14:
        raise InvalidParams(
            "no invertible similarity operator at these parameters "
            "(exceptional point)"
        )
    return best


def dirac_scalar(p: DiracParams) -> ModelInstance:
    mc2 = p.m0 * p.c ** 2
    cp = p.c * p.hbar * p.kx
    v0 = p.v0
    h = np.array([[mc2, cp + v0], [cp - v0, -mc2]], dtype=complex)
    sim = _dirac_similarity(mc2, cp, v0)
    disc = p.discriminant()
    scale = max(cp ** 2 + mc2 ** 2, 1.0)
    phase = _classify_disc(disc, scale)
    params = {"m0": p.m0, "c": p.c, "hbar": p.hbar, "kx": p.kx, "v0": p.v0}

    if phase == PHASE_BROKEN:
        e = math.sqrt(-disc)
        vals = [-1j * e, 1j * e]
        return ModelInstance("dirac_scalar", params, h, sim, vals, phase, disc)
    if phase == PHASE_EXCEPTIONAL:
        return ModelInstance("dirac_scalar", params, h, sim, [0j, 0j], phase, disc)

    e = math.sqrt(disc)
    big_m = e + mc2
    norm = math.sqrt(big_m / (2.0 * e))
    psi_1 = norm * np.array([1.0, (cp - v0) / big_m], dtype=complex)
    psi_2 = norm * np.array([-(cp + v0) / big_m, 1.0], dtype=complex)
    phi_1 = norm * np.array([1.0, (cp + v0) / big_m], dtype=complex)
    phi_2 = norm * np.array([-(cp - v0) / big_m, 1.0], dtype=complex)
    pairs = [EigenPair(-e + 0j, psi_2, phi_2), EigenPair(e + 0j, psi_1, phi_1)]
    eta = (big_m / (2.0 * e)) * np.array(
        [[1.0 + (cp - v0) ** 2 / big_m ** 2, 2.0 * v0 / big_m],
         [2.0 * v0 / big_m, 1.0 + (cp + v0) ** 2 / big_m ** 2]], dtype=complex)
    if abs(cp + v0) > 1e-12 * max(abs(cp) + abs(v0), 1.0):
        q0 = np.diag([(cp - v0) / (cp + v0), 1.0]).astype(complex)
    else:
        # degenerate reference direction; the metric itself is a valid q0
        # (it maps the reference spinor to its adjoint partner)
        q0 = eta
    das = _das_2x2(pairs, q0, ref=0)
    return ModelInstance(
        "dirac_scalar", params, h, sim, [-e + 0j, e + 0j], phase, disc,
        analytic_pairs=pairs,
        analytic_metric=MetricOperator(eta, "analytic"),
        das_data=das,
        extras={"energy": e},
    )


# ---------------------------------------------------------------------------
# Family registry
# ---------------------------------------------------------------------------

_PARAM_TYPES = {"jc_doublet": JCParams, "jc_full": JCParams,
                "pt_matrix": PTParams, "dirac_scalar": DiracParams}
FAMILIES = tuple(_PARAM_TYPES)
# accepted names: the fields of the family's record, plus the jc_full level count
_PARAM_NAMES = {family: {f.name for f in fields(cls)}
                for family, cls in _PARAM_TYPES.items()}
_PARAM_NAMES["jc_full"].add("levels")
_INT_KEYS = {"n", "levels"}
_ALIASES = {"eps": "epsilon"}


def _check_param_names(family: str, names) -> None:
    """Raise InvalidParams for an unknown family, or for a name (aliases
    allowed) that is not one of the family's parameters."""
    if family not in _PARAM_TYPES:
        raise InvalidParams(f"unknown model family {family!r}")
    known = _PARAM_NAMES[family]
    for key in names:
        if _ALIASES.get(key, key) not in known:
            raise InvalidParams(f"unknown parameter {key!r} for {family}; "
                                f"known: {', '.join(sorted(known))}")


def _parse_params(family: str, params: dict):
    """The family's parameter record and the jc_full level count (default 1)
    from a flat mapping.  Raises InvalidParams for an unknown family, an
    unknown name, a value that is not a finite number, or a non-integer n
    or levels."""
    _check_param_names(family, params)
    kw = {}
    for key, value in params.items():
        k = _ALIASES.get(key, key)
        try:
            x = float(value)
        except (TypeError, ValueError):
            x = math.nan
        if not math.isfinite(x):
            raise InvalidParams(
                f"parameter {key!r} value {value!r} is not a finite number")
        if k in _INT_KEYS:
            if not x.is_integer():
                raise InvalidParams(
                    f"parameter {key!r} value {value!r} is not an integer")
            x = int(x)
        kw[k] = x
    levels = kw.pop("levels", 1)
    return _PARAM_TYPES[family](**kw), levels


def build(family: str, params: dict) -> ModelInstance:
    """Instantiate a model family from a flat parameter mapping."""
    p, levels = _parse_params(family, params)
    if family == "jc_doublet":
        return jc_doublet(p)
    if family == "jc_full":
        return jc_full(p, levels=levels)
    if family == "pt_matrix":
        return pt_matrix(p)
    return dirac_scalar(p)


def discriminant(family: str, params: dict) -> float:
    """Analytic phase discriminant (positive in the unbroken phase).

    For jc_full it is that of the top doublet, n = levels - 1, the first
    to break and the smallest over the doublets (as in its ModelInstance).
    """
    p, levels = _parse_params(family, params)
    if family == "jc_full":
        if levels < 1:
            raise InvalidParams("levels must be >= 1")
        p = replace(p, n=levels - 1)
    return p.discriminant()
