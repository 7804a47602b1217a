"""The three bundled pseudo-Hermitian model families.

Each constructor returns a :class:`ModelInstance` carrying the Hamiltonian,
a similarity operator S with S H = H^dagger S, the closed-form eigensystem
(a metric.BiorthSystem of paired right and left columns), the closed-form
metric, and the data for the projector-based metric assembly
(the "das" route).  The closed forms serve as oracles for the generic
machinery.  That each S intertwines its H is proved by the tests
(tests/test_models.py), not checked at run time.

Each family also writes its Hamiltonian once, as an array function over
float parameter arrays (_jc_h, _jc_full_h, _pt_h, _dirac_h); the
constructors take their H from it at one point, and a sweep builds a whole
grid block with it (hamiltonians), so both get the same bits.  One domain
rule per family (_rule) checks parameter values, for one point or for
arrays of them.

Normalization conventions:

* the left columns of analytic_system are stored with the normalization
  that makes the spectral sum reproduce the stored closed-form metric
  (unit norm for the spin-oscillator doublet and the 2x2 PT matrix,
  relativistic spinor normalization for the Dirac model);
* the Dirac Hamiltonian is H = beta m c^2 + alpha c p + v0 J, with
  beta = diag(1, -1), alpha = [[0, 1], [1, 0]] and J = [[0, 1], [-1, 0]]
  = -J^dagger.  J anticommutes with beta and alpha, so the free Dirac
  Hamiltonian S = beta m c^2 + alpha c p gives S H = S^2 + v0 S J =
  S^2 - v0 J S = H^dagger S for every v0, and S^2 = (m^2 c^4 + c^2 p^2) I;
  where m c^2 = c p = 0, S = beta (_dirac_similarity).  Every family's S
  is thus Hermitian and an involution up to a positive scale.  Note that
  the antisymmetric [[0, -1], [1, 0]] anti-intertwines (S H = -H^dagger S)
  and is not a valid similarity;
* the Dirac reference metric for the projector route is
  diag((c p - v0)/(c p + v0), 1), which maps the reference spinor to its
  adjoint partner at every momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import InvalidParams
from .linalg import _cmul
from .metric import BiorthSystem, DasConstruction, MetricOperator

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
        _refuse("jc_doublet", vars(self))

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
        _refuse("dirac_scalar", vars(self))

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
    analytic_system: BiorthSystem | None = None
    analytic_metric: MetricOperator | None = None
    das_data: DasConstruction | None = None
    extras: dict = field(default_factory=dict)


def _das_2x2(sys: BiorthSystem, q0: np.ndarray) -> DasConstruction:
    """Projector-route data for a 2x2 system, the first column the reference.

    The projectors are |psi_E><dual_E| in the order of the columns, with the
    biorthogonal duals <dual_k|psi_k> = 1 built from the stored lefts.  sigma
    for the reference energy is the identity; the other generator is the
    biorthogonal swap |psi_1><dual_0| + |psi_0><dual_1| (the generalization
    of the spin-flip used by the doublet model).
    """
    psi = sys.right
    ov = [complex(sys.left[:, k].conj() @ psi[:, k]) for k in range(2)]
    duals = sys.left / np.conj(ov)
    projectors = [np.outer(psi[:, k], duals[:, k].conj()) for k in range(2)]
    swap = (np.outer(psi[:, 1], duals[:, 0].conj())
            + np.outer(psi[:, 0], duals[:, 1].conj()))
    return DasConstruction(q0, [np.eye(2, dtype=complex), swap], projectors)


def _two_level(family: str, p, h, s, disc: float, scale: float,
               centre: float, half: float, closed_forms) -> ModelInstance:
    """The instance of a 2x2 family with discriminant disc.

    The eigenvalues are centre -+ half sqrt(|disc|): a complex-conjugate
    pair when broken, equal at the EP (|disc| within _EP_BAND of the family's
    energy scale squared).  Only when unbroken, closed_forms(half sqrt(disc))
    gives the right and left columns (paired with those eigenvalues), the
    closed-form metric, the das reference metric q0 and the extras.
    """
    root = half * math.sqrt(abs(disc))
    params = dict(vars(p))
    if abs(disc) <= _EP_BAND * max(scale, 1.0):
        return ModelInstance(family, params, h, s, [complex(centre)] * 2,
                             PHASE_EXCEPTIONAL, disc)
    if disc < 0:
        vals = [centre - 1j * root, centre + 1j * root]
        return ModelInstance(family, params, h, s, vals, PHASE_BROKEN, disc)
    vals = [complex(centre - root), complex(centre + root)]
    right, left, eta, q0, extras = closed_forms(root)
    system = BiorthSystem(np.array(vals, dtype=complex), right, left)
    return ModelInstance(family, params, h, s, vals, PHASE_UNBROKEN, disc,
                         analytic_system=system,
                         analytic_metric=MetricOperator(eta, "analytic"),
                         das_data=_das_2x2(system, q0), extras=extras)


# ---------------------------------------------------------------------------
# Spin-1/2 x oscillator doublet
# ---------------------------------------------------------------------------

def _matrices(a00, a01, a10, a11) -> np.ndarray:
    """The complex 2x2 matrices [[a00, a01], [a10, a11]] (..., 2, 2) over
    entry arrays of a00's shape (the others broadcast to it)."""
    h = np.empty(np.shape(a00) + (2, 2), dtype=complex)
    h[..., 0, 0], h[..., 0, 1], h[..., 1, 0], h[..., 1, 1] = a00, a01, a10, a11
    return h


def _at(family: str, p, *args) -> np.ndarray:
    """The Hamiltonian of the record p from the family's array form (_H),
    given args and then the record's fields that the form reads, as
    floats: each operation rounds as it does at every position of an array.
    An entry overflows to inf, or inf - inf gives nan, without a warning."""
    names = _H_ARGS[family]
    with np.errstate(over="ignore", invalid="ignore"):
        return _H[family](*args, **{k: float(x) for k, x in vars(p).items()
                                    if k in names})


def _jc_h(n, epsilon, omega, rho, hbar) -> np.ndarray:
    """The doublet Hamiltonians [[eps/2 + n hw, b], [-b, -eps/2 + (n+1) hw]],
    hw = hbar omega and b = rho sqrt(n + 1), over float arrays."""
    hw = hbar * omega
    b = rho * np.sqrt(n + 1)
    return _matrices(epsilon / 2 + n * hw, b, -b, -epsilon / 2 + (n + 1) * hw)


def jc_doublet(p: JCParams) -> ModelInstance:
    hw = p.hbar * p.omega
    b = p.rho * math.sqrt(p.n + 1)
    h = _at("jc_doublet", p)
    s = np.diag([1.0 + 0j, -1.0 + 0j])

    def closed_forms(_root):
        st = 2.0 * b / (hw - p.epsilon)  # sin(theta_{n+1})
        th = math.asin(st)
        cs, sn = math.cos(th / 2.0), math.sin(th / 2.0)
        # right columns psi_-, psi_+ and left columns phi_-, phi_+
        right = np.array([[cs, sn], [sn, cs]], dtype=complex)
        left = np.array([[cs, sn], [-sn, -cs]], dtype=complex)
        eta = np.array([[1.0, -st], [-st, 1.0]], dtype=complex)
        return right, left, eta, math.cos(th) * s, {"sin_theta": st}

    return _two_level("jc_doublet", p, h, s, p.discriminant(), hw ** 2,
                      (2 * p.n + 1) * hw / 2.0, 0.5, closed_forms)


def _direct_sum(first, blocks) -> np.ndarray:
    """The matrices with first at (0, 0) and the 2x2 blocks down the diagonal
    after it, zero elsewhere: blocks (..., k, 2, 2) give (..., 2k+1, 2k+1),
    and first broadcasts over the leading axes."""
    blocks = np.asarray(blocks, dtype=complex)
    k = blocks.shape[-3]
    m = np.zeros(blocks.shape[:-3] + (2 * k + 1, 2 * k + 1), dtype=complex)
    m[..., 0, 0] = first
    # block by block: cheaper than one fancy-indexed copy at a few levels
    for j in range(1, 2 * k, 2):
        m[..., j:j + 2, j:j + 2] = blocks[..., j // 2, :, :]
    return m


def _jc_full_h(levels: int, epsilon, omega, rho, hbar) -> np.ndarray:
    """The jc_full Hamiltonians (..., 2 levels + 1, 2 levels + 1) over float
    arrays: the ground entry -eps/2, then the doublets n = 0..levels-1."""
    blocks = _jc_h(np.arange(levels, dtype=float), *(
        np.asarray(x)[..., None] for x in (epsilon, omega, rho, hbar)))
    return _direct_sum(-epsilon / 2.0, blocks)


def jc_full(p: JCParams, levels: int) -> ModelInstance:
    """Truncated full model: the direct sum of the ground state and the first
    `levels` doublets (p.n is not read; build refuses an n for jc_full).

    Basis order: |0,-1/2>, then {|n,+1/2>, |n+1,-1/2>} for n = 0..levels-1.
    """
    _refuse("jc_full", {**vars(p), "levels": levels})
    doublets = [jc_doublet(replace(p, n=n)) for n in range(levels)]
    ground = -p.epsilon / 2.0
    h = _at("jc_full", p, levels)
    s = _direct_sum(-1.0, [d.similarity for d in doublets])
    vals = [complex(ground), *(v for d in doublets for v in d.analytic_eigenvalues)]
    params = dict(vars(p), levels=levels)
    del params["n"]
    # the top doublet breaks first: its discriminant is the smallest, and
    # its phase the worst
    top = doublets[-1]
    if top.phase != PHASE_UNBROKEN:
        return ModelInstance("jc_full", params, h, s, vals, top.phase,
                             top.discriminant)

    das = [d.das_data for d in doublets]
    # sigma_E and P_E of the ground state (E = 0), then of each doublet
    # energy: the doublet's own 2x2 on its block, the identity (sigma) or
    # zero (P) on the other blocks, and 1 at (0, 0) but for the doublets' P
    energy = np.arange(2 * levels + 1)
    k = energy[1:]
    sigmas = np.broadcast_to(np.eye(2), (energy.size, levels, 2, 2)).astype(complex)
    sigmas[k, (k - 1) // 2] = [g for x in das for g in x.generators]
    projs = np.zeros_like(sigmas)
    projs[k, (k - 1) // 2] = [pr for x in das for pr in x.projectors]
    # the ground state's column and its metric and q0 entries are +1 (its
    # phase freedom fixes the sign)
    system = BiorthSystem(
        np.array(vals, dtype=complex),
        _direct_sum(1.0, [d.analytic_system.right for d in doublets]),
        _direct_sum(1.0, [d.analytic_system.left for d in doublets]))
    return ModelInstance(
        "jc_full", params, h, s, vals, top.phase, top.discriminant,
        analytic_system=system,
        analytic_metric=MetricOperator(
            _direct_sum(1.0, [d.analytic_metric.matrix for d in doublets]),
            "analytic"),
        das_data=DasConstruction(
            _direct_sum(1.0, [x.reference_metric_q0 for x in das]),
            list(_direct_sum(1.0, sigmas)),
            list(_direct_sum(energy == 0, projs))),
        extras={"sin_thetas": [d.extras["sin_theta"] for d in doublets]},
    )


# ---------------------------------------------------------------------------
# 2x2 PT-symmetric matrix
# ---------------------------------------------------------------------------

def _pt_h(r, s, t, theta, phi) -> np.ndarray:
    """[[r e^{i theta}, s e^{i phi}], [t e^{-i phi}, r e^{-i theta}]] over
    float arrays.  Each product is linalg._cmul's, rounded as a scalar
    float times a complex is (a zero imaginary part keeps the sign of
    r sin theta + 0 cos theta where r sin theta underflows)."""
    return _matrices(_cmul(r, np.exp(1j * theta)), _cmul(s, np.exp(1j * phi)),
                     _cmul(t, np.exp(-1j * phi)), _cmul(r, np.exp(-1j * theta)))


def pt_matrix(p: PTParams) -> ModelInstance:
    r, th, ph = p.r, p.theta, p.phi
    h = _at("pt_matrix", p)
    sim = np.array([[0.0, np.exp(1j * ph)], [np.exp(-1j * ph), 0.0]])
    big_r = r * math.sin(th)
    # unbroken means s t > r^2 sin^2 theta >= 0, so s and t share a sign;
    # the closed forms are stated for s, t > 0, and D = diag(1, -1) maps
    # them to s, t < 0, as D H(|s|, |t|) D = H(-|s|, -|t|)
    s_, t_ = abs(p.s), abs(p.t)

    def closed_forms(q):
        e2, em = np.exp(1j * ph / 2.0), np.exp(-1j * ph / 2.0)
        pref = 1.0 / math.sqrt(s_ + t_)
        st4 = (s_ / t_) ** 0.25
        ts4 = (t_ / s_) ** 0.25
        rp = np.sqrt(complex(q + 1j * big_r))
        rm = np.sqrt(complex(q - 1j * big_r))
        # columns E_-, E_+; the left (adjoint-Hamiltonian) eigenvectors are
        # the same formulas under theta -> -theta, s <-> t (the s/t-inverted
        # variant is not an eigenvector of H^dagger)
        prefactor = np.array([1j * pref, pref])  # per column
        right = prefactor * np.array([[st4 * rm * e2, st4 * rp * e2],
                                      [-ts4 * rp * em, ts4 * rm * em]])
        left = prefactor * np.array([[ts4 * rp * e2, ts4 * rm * e2],
                                     [-st4 * rm * em, st4 * rp * em]])
        eta = (2.0 / (s_ + t_)) * np.array(
            [[t_, -1j * big_r * np.exp(1j * ph)],
             [1j * big_r * np.exp(-1j * ph), s_]])
        q0 = -((s_ + t_) / (2.0 * q)) * sim
        if p.s < 0:
            d = np.diag([1.0, -1.0])
            right, left, eta, q0 = d @ right, d @ left, d @ eta @ d, d @ q0 @ d
        return right, left, eta, q0, {"q_factor": q}

    return _two_level("pt_matrix", p, h, sim, p.discriminant(),
                      max(abs(s_ * t_), big_r ** 2), r * math.cos(th), 1.0,
                      closed_forms)


# ---------------------------------------------------------------------------
# Dirac particle with scalar pseudo-Hermitian potential
# ---------------------------------------------------------------------------

def _dirac_similarity(mc2: float, cp: float) -> np.ndarray:
    """S = beta m c^2 + alpha c p, the free Dirac Hamiltonian, or beta where
    m c^2 = c p = 0: S H = H^dagger S for every v0 (module docstring)."""
    if mc2 == 0.0 and cp == 0.0:
        mc2 = 1.0
    return np.array([[mc2, cp], [cp, -mc2]], dtype=complex)


def _dirac_h(m0, c, hbar, kx, v0) -> np.ndarray:
    """[[m c^2, c p + v0], [c p - v0, -m c^2]], p = hbar kx, over float
    arrays.  c^2 is float_power's, which rounds as the scalar c ** 2 does
    at every position of an array (numpy's power need not)."""
    mc2 = m0 * np.float_power(c, 2)
    cp = c * hbar * kx
    return _matrices(mc2, cp + v0, cp - v0, -mc2)


def dirac_scalar(p: DiracParams) -> ModelInstance:
    mc2 = p.m0 * p.c ** 2
    cp = p.c * p.hbar * p.kx
    v0 = p.v0
    h = _at("dirac_scalar", p)

    def closed_forms(e):
        big_m = e + mc2
        norm = math.sqrt(big_m / (2.0 * e))
        # columns: the E = -e spinor, then E = +e
        right = norm * np.array([[-(cp + v0) / big_m, 1.0],
                                 [1.0, (cp - v0) / big_m]], dtype=complex)
        left = norm * np.array([[-(cp - v0) / big_m, 1.0],
                                [1.0, (cp + v0) / big_m]], dtype=complex)
        eta = (big_m / (2.0 * e)) * np.array(
            [[1.0 + (cp - v0) ** 2 / big_m ** 2, 2.0 * v0 / big_m],
             [2.0 * v0 / big_m, 1.0 + (cp + v0) ** 2 / big_m ** 2]],
            dtype=complex)
        if abs(cp + v0) > 1e-3 * max(abs(cp) + abs(v0), 1.0):
            q0 = np.diag([(cp - v0) / (cp + v0), 1.0]).astype(complex)
        else:
            # near the pole of that q0, where the assembly's rounding error
            # grows like 1/|cp + v0|: the metric itself is a valid q0 (it
            # maps the reference spinor to its adjoint partner)
            q0 = eta
        return right, left, eta, q0, {"energy": e}

    return _two_level("dirac_scalar", p, h, _dirac_similarity(mc2, cp),
                      p.discriminant(), cp ** 2 + mc2 ** 2, 0.0, 1.0,
                      closed_forms)


# ---------------------------------------------------------------------------
# Family registry
# ---------------------------------------------------------------------------

_PARAM_TYPES = {"jc_doublet": JCParams, "jc_full": JCParams,
                "pt_matrix": PTParams, "dirac_scalar": DiracParams}
FAMILIES = tuple(_PARAM_TYPES)
# accepted names: the fields of the family's record; jc_full takes its level
# count in place of the doublet index n
_PARAM_NAMES = {family: {f.name for f in fields(cls)}
                for family, cls in _PARAM_TYPES.items()}
_PARAM_NAMES["jc_full"].remove("n")
_PARAM_NAMES["jc_full"].add("levels")
_INT_KEYS = {"n", "levels"}
_ALIASES = {"eps": "epsilon"}
# jc_full levels: its das data holds 2 (2 levels + 1) dense matrices of
# size (2 levels + 1)^2, about 69 MB at 64 levels
MAX_LEVELS = 64


def _check_param_names(family: str, names, how: str = "given") -> None:
    """Raise InvalidParams for an unknown family, for a name (aliases
    allowed) that is not one of the family's parameters, or for a
    parameter that names gives twice (aliases resolved), which the message
    calls given or varied (how) twice."""
    if family not in _PARAM_TYPES:
        raise InvalidParams(f"unknown model family {family!r}")
    known = _PARAM_NAMES[family]
    seen = set()
    for key in names:
        name = _ALIASES.get(key, key)
        if name not in known:
            raise InvalidParams(f"unknown parameter {key!r} for {family}; "
                                f"known: {', '.join(sorted(known))}")
        if name in seen:
            raise InvalidParams(f"parameter {name!r} is {how} twice")
        seen.add(name)


def _without(params: dict, names) -> dict:
    """params less the parameters that names gives (aliases resolved), for
    a caller that sets those itself."""
    drop = {_ALIASES.get(k, k) for k in names}
    return {k: v for k, v in params.items() if _ALIASES.get(k, k) not in drop}


def _check_fixed_params(family: str, params: dict, varied) -> None:
    """Raise InvalidParams for an unknown family, for a name in params or
    varied that is not one of its parameters, for a parameter that params
    or varied names twice (aliases resolved), or for a value in params
    that _parse_params refuses; values that the names in varied override
    are checked only by name.  Builds no model."""
    _check_param_names(family, params)
    _check_param_names(family, varied, "varied")
    _parse_params(family, _without(params, varied))


def _number(value) -> float:
    """A parameter value as a float: nan for a boolean, or for a value that
    float() refuses."""
    if isinstance(value, bool):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _rule(family: str, given, v: dict):
    """The family's domain rule, as (fails, refusal) pairs in the order it
    applies them, over the values v: canonical names mapped to floats, or
    to float arrays over points, with every parameter the rule reads.

    First, for each name in given (as given, aliases allowed), a value that
    is not a finite number, then for n and levels one that is not an
    integer; then jc_full's levels outside 1..MAX_LEVELS; then the record's
    own checks: omega > 0, hbar > 0 and n >= 0 for the doublets, m0 >= 0,
    c > 0 and hbar > 0 for the Dirac model.  A refusal is the message, or
    for a value check the pair (name, what) that _message completes."""
    for key in given:
        name = _ALIASES.get(key, key)
        x = v[name]
        # x - x is 0 exactly where x is finite, for a float or an array
        yield x - x != 0, (key, "is not a finite number")
        if name in _INT_KEYS:
            yield x % 1 != 0, (key, "is not an integer")
    if family == "jc_full":
        yield ((v["levels"] < 1) | (v["levels"] > MAX_LEVELS),
               f"levels must be in 1..{MAX_LEVELS}")
    if family in ("jc_doublet", "jc_full"):
        yield ((v["omega"] <= 0) | (v["hbar"] <= 0),
               "omega and hbar must be positive")
        yield v["n"] < 0, "doublet index n must be >= 0"
    elif family == "dirac_scalar":
        yield ((v["m0"] < 0) | (v["c"] <= 0) | (v["hbar"] <= 0),
               "need m0 >= 0, c > 0, hbar > 0")


def _message(refusal, values: dict) -> str:
    """The text of a refusal of _rule, values holding the given values by
    the names as given."""
    if isinstance(refusal, str):
        return refusal
    key, what = refusal
    return f"parameter {key!r} value {values[key]!r} {what}"


def _refuse(family: str, v: dict, given=(), values=None) -> None:
    """Raise InvalidParams with the first refusal of the family's rule at
    the one point v (values: the given values, for the message)."""
    for fails, refusal in _rule(family, given, v):
        if fails:
            raise InvalidParams(_message(refusal, values))


def _parse_params(family: str, params: dict):
    """The family's parameter record and the jc_full level count (default 1)
    from a flat mapping.  Raises InvalidParams for an unknown family, an
    unknown name, two names of one parameter (eps and epsilon), or a value
    that the family's rule refuses (_rule): one that is not a finite number
    (booleans included), a non-integer n or levels, levels outside
    1..MAX_LEVELS, or a value outside the record's domain."""
    _check_param_names(family, params)
    given = {_ALIASES.get(k, k): _number(x) for k, x in params.items()}
    _refuse(family, {**_DEFAULTS[family], **given}, params, params)
    for k in _INT_KEYS & given.keys():
        given[k] = int(given[k])
    levels = given.pop("levels", 1)
    return _PARAM_TYPES[family](**given), levels


# every parameter's default (jc_full: one level), and the array form of
# each family's Hamiltonian with the parameters it reads
_DEFAULTS = {family: {f.name: f.default for f in fields(cls)}
             for family, cls in _PARAM_TYPES.items()}
_DEFAULTS["jc_full"]["levels"] = 1
_H = {"jc_doublet": _jc_h, "jc_full": _jc_full_h, "pt_matrix": _pt_h,
      "dirac_scalar": _dirac_h}
_H_ARGS = {family: names - {"levels"} for family, names in _PARAM_NAMES.items()}


def largest_size(family: str) -> int:
    """The size of the largest Hamiltonian the family builds: jc_full's at
    MAX_LEVELS levels, else 2."""
    return 2 * MAX_LEVELS + 1 if family == "jc_full" else 2


def hamiltonians(family: str, base: dict, axes: list, at) -> tuple:
    """The Hamiltonians of points of a grid, built as arrays, and the points
    that the family's domain rule refuses.

    The grid is row-major over axes [(name, values), ...], with base giving
    the other parameters; a name on two axes takes the later one's values,
    as in a dict.  at holds the points' indices along each axis
    (np.unravel_index).  Each value is read as _parse_params reads it, and
    _rule runs over all points at once.  Returns (stacks, refused): stacks
    lists (k, hs), hs (len(k), n, n) the Hamiltonians of the points at
    positions k of at, one stack per matrix size (per levels for jc_full);
    refused maps the position of each refused point to the InvalidParams
    that _parse_params raises for that point alone.  Raises InvalidParams
    for an unknown family or name, or a parameter given twice (aliases
    resolved): every point's error.
    """
    last = {name: i for i, (name, _) in enumerate(axes)}
    given = [*base, *last]
    _check_param_names(family, given)
    size = len(at[0])
    v = dict(_DEFAULTS[family])
    for key, x in base.items():
        v[_ALIASES.get(key, key)] = _number(x)
    for key, i in last.items():
        # each value of the axis that a point reads, converted once
        seen, where = np.unique(at[i], return_inverse=True)
        values = axes[i][1]
        v[_ALIASES.get(key, key)] = np.array(
            [_number(values[j]) for j in seen.tolist()])[where]
    first = np.full(size, -1)  # each point's first refusal, or -1
    refusals = []
    with np.errstate(invalid="ignore"):  # inf - inf, or inf % 1
        for fails, refusal in _rule(family, given, v):
            first[(first < 0) & fails] = len(refusals)
            refusals.append(refusal)
    refused = {}
    for k in np.flatnonzero(first >= 0).tolist():
        values = {**base, **{key: axes[i][1][at[i][k]] for key, i in last.items()}}
        refused[k] = InvalidParams(_message(refusals[first[k]], values))
    ok = np.flatnonzero(first < 0)
    args = {name: np.broadcast_to(np.asarray(v[name], dtype=float), (size,))[ok]
            for name in _H_ARGS[family]}
    levels = np.broadcast_to(v.get("levels", 0), (size,))[ok]
    stacks = []
    with np.errstate(over="ignore", invalid="ignore"):  # as in _at
        for n in np.unique(levels).tolist():
            pick = levels == n
            lead = (int(n),) if family == "jc_full" else ()
            stacks.append((ok[pick], _H[family](
                *lead, **{name: x[pick] for name, x in args.items()})))
    return stacks, refused


def build(family: str, params: dict) -> ModelInstance:
    """Instantiate a model family from a flat parameter mapping."""
    p, levels = _parse_params(family, params)
    if family == "jc_full":
        return jc_full(p, levels=levels)
    return {"jc_doublet": jc_doublet, "pt_matrix": pt_matrix,
            "dirac_scalar": dirac_scalar}[family](p)


def discriminant(family: str, params: dict) -> float:
    """Analytic phase discriminant (positive in the unbroken phase).

    For jc_full it is that of the top doublet, n = levels - 1, the first
    to break and the smallest over the doublets (as in its ModelInstance).
    """
    p, levels = _parse_params(family, params)
    if family == "jc_full":
        p = replace(p, n=levels - 1)
    return p.discriminant()
