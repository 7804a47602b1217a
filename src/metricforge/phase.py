"""Spectral-phase classification, exceptional-point location, grid sweeps."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, metric, models
from .errors import DefectiveSystem, InvalidParams, NoBracket
from .linalg import DEFECT_TOL
from .metric import REAL_TOL
from .models import PHASE_BROKEN, PHASE_EXCEPTIONAL, PHASE_UNBROKEN

EP_TOL = 1e-10


@dataclass(frozen=True)
class PhasePoint:
    params: dict
    classification: str
    min_imag_gap: float          # max |Im E| over the spectrum
    defect_indicator: float      # min |<left|right>| before rescaling
    metric_min_eig: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class PhaseDiagram:
    axes: list  # [(name, [values...]), ...]
    points: list  # row-major PhasePoint list

    def to_csv(self) -> str:
        names = [name for name, _ in self.axes]
        buf = io.StringIO()
        buf.write(",".join(names + ["classification", "min_imag_gap",
                                    "metric_min_eig", "defect_indicator"]) + "\n")
        for pt in self.points:
            row = [format(pt.params[n], ".17g") for n in names]
            row.append(pt.classification)
            row.append(format(pt.min_imag_gap, ".17g"))
            row.append("" if pt.metric_min_eig is None
                       else format(pt.metric_min_eig, ".17g"))
            row.append(format(pt.defect_indicator, ".17g"))
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    def to_jsonable(self) -> dict:
        return {
            "axes": [{"name": n, "values": list(v)} for n, v in self.axes],
            "points": [
                {
                    "params": pt.params,
                    "classification": pt.classification,
                    "min_imag_gap": pt.min_imag_gap,
                    "metric_min_eig": pt.metric_min_eig,
                    "defect_indicator": pt.defect_indicator,
                    "error": pt.error,
                }
                for pt in self.points
            ],
        }


def _label_2x2(hs: np.ndarray, *, real_tol: float, defect_tol: float):
    """label_spectrum of each matrix of the stack hs (N, 2, 2), whose
    entries and Frobenius norms are finite, in one broadcast pass over
    linalg._eig2_system (eigendecompose's 2x2 case, bit for bit).

    Returns arrays: the labels, max |Im E|, the defect indicators
    (linalg.defect_indicator's arithmetic), the spectral metrics W W^H and
    their minimum eigenvalues, where W holds the unit left vectors.  The
    labels take label_spectrum's tests in its order.  biorthonormalize is
    not needed: at n = 2 the self-overlap it refuses below defect_tol is
    |det R| of the unit right vectors R, which is the defect indicator, and
    its singular R (an LU pivot at most SINGULAR_TOL ||R||_F) has
    |det R| <= sqrt(2) SINGULAR_TOL, below any defect_tol above that.
    W W^H has the eigenvalues 1 +- |w_0^H w_1|, so
    the smaller is |det W|^2 / (1 + |w_0^H w_1|), without the cancellation
    of 1 - |w_0^H w_1|.
    """
    vals, rights, lefts, factor = linalg._eig2_system(hs)
    scale = np.maximum(linalg.frob(hs, axis=(-2, -1)), 1e-300)
    max_imag = np.max(np.abs(vals.imag), axis=-1) * factor
    # pair k as rows k of two contiguous arrays, so that <l_k|r_k> rounds
    # as linalg.defect_indicator's product of two vectors does, and its
    # modulus as the scalar abs() (np.abs of an array may round otherwise)
    r = np.ascontiguousarray(np.swapaxes(rights, -1, -2))
    w = np.ascontiguousarray(np.swapaxes(lefts, -1, -2))
    overlap = (w.conj()[..., None, :] @ r[..., :, None])[..., 0, 0]
    overlap = np.hypot(overlap.real, overlap.imag)
    norms = (np.sqrt(np.sum(np.abs(w) ** 2, axis=-1))
             * np.sqrt(np.sum(np.abs(r) ** 2, axis=-1)))
    defect = np.minimum(
        np.min(overlap / np.maximum(norms, 1e-300), axis=-1), 1.0)
    labels = np.where(defect < defect_tol, PHASE_EXCEPTIONAL,
                      np.where(max_imag > real_tol * scale, PHASE_BROKEN,
                               PHASE_UNBROKEN))
    w0, w1 = w[..., 0, :], w[..., 1, :]
    gram = np.sum(w0.conj() * w1, axis=-1)
    det = w0[..., 0] * w1[..., 1] - w0[..., 1] * w1[..., 0]
    metrics = np.empty(hs.shape, dtype=complex)
    metrics[..., 0, 0] = np.abs(w0[..., 0]) ** 2 + np.abs(w1[..., 0]) ** 2
    metrics[..., 1, 1] = np.abs(w0[..., 1]) ** 2 + np.abs(w1[..., 1]) ** 2
    metrics[..., 0, 1] = w0[..., 0] * w0[..., 1].conj() + w1[..., 0] * w1[..., 1].conj()
    metrics[..., 1, 0] = metrics[..., 0, 1].conj()
    return labels, max_imag, defect, metrics, np.abs(det) ** 2 / (1.0 + np.abs(gram))


def label_spectrum(h, *, real_tol: float = REAL_TOL,
                   defect_tol: float = DEFECT_TOL):
    """The phase label of a matrix, from one eigendecompose: the judge of a
    CLI matrix input and, through classify and sweep, of each sweep point
    (a CLI model input is judged by its exact discriminant, which can
    differ inside models._EP_BAND).  A 2x2 is judged by _label_2x2, the
    judge of a sweep's stack; a 2x2 whose Frobenius norm overflows, and
    every other size, here.

    Returns (label, max |Im E|, defect indicator, metric).  unbroken: real
    spectrum and a complete biorthogonal system; exceptional: a left/right
    pair is numerically orthogonal (this takes precedence over broken,
    defectiveness being the stronger statement), judged first on the raw
    pairs and then by biorthonormalize; broken: complex-conjugate
    eigenvalues present.  The metric is the spectral metric of an
    unbroken H (h_scale ||H||_F) and None otherwise.
    """
    hm = linalg.as_matrix(h)
    if _stacks(hm):
        labels, max_imag, defect, metrics, _ = _label_2x2(
            hm[None], real_tol=real_tol, defect_tol=defect_tol)
        label = str(labels[0])
        return (label, float(max_imag[0]), float(defect[0]),
                metric.MetricOperator(metrics[0], "spectral")
                if label == PHASE_UNBROKEN else None)
    scale = max(linalg.frob(hm), 1e-300)
    pairs = linalg.eigendecompose(hm)
    max_imag = float(max(abs(p.value.imag) for p in pairs))
    defect = float(linalg.defect_indicator(pairs))
    if defect < defect_tol:
        return PHASE_EXCEPTIONAL, max_imag, defect, None
    if max_imag > real_tol * scale:
        return PHASE_BROKEN, max_imag, defect, None
    try:
        sysb = metric.biorthonormalize(pairs, defect_tol=defect_tol)
    except DefectiveSystem:
        return PHASE_EXCEPTIONAL, max_imag, defect, None
    m = metric.spectral_metric(sysb, h_scale=scale, real_tol=real_tol)
    return PHASE_UNBROKEN, max_imag, defect, m


def _classify_2x2(hs: np.ndarray, params: list, *, real_tol: float,
                  defect_tol: float) -> list:
    """classify of each matrix of the stack hs (N, 2, 2) that _label_2x2
    takes, params[k] being the params of matrix k."""
    labels, max_imag, defect, _, min_eig = _label_2x2(
        hs, real_tol=real_tol, defect_tol=defect_tol)
    return [PhasePoint(params=p, classification=label, min_imag_gap=mi,
                       defect_indicator=d,
                       metric_min_eig=e if label == PHASE_UNBROKEN else None)
            for p, label, mi, d, e in zip(params, labels.tolist(),
                                          max_imag.tolist(), defect.tolist(),
                                          min_eig.tolist())]


def _stacks(hs: np.ndarray) -> np.ndarray:
    """Whether _label_2x2 takes each matrix of hs (..., n, n): 2x2, with
    finite entries and norm."""
    if hs.shape[-2:] != (2, 2):
        return np.zeros(hs.shape[:-2], dtype=bool)
    return np.isfinite(linalg.frob(hs, axis=(-2, -1)))


def classify(h, *, real_tol: float = REAL_TOL,
             defect_tol: float = DEFECT_TOL, params: dict | None = None) -> PhasePoint:
    """Classify the spectral phase of a matrix (label_spectrum), with the
    minimum eigenvalue of the spectral metric at an unbroken point.  A 2x2
    is the one-matrix case of a sweep's stack (_classify_2x2)."""
    hm = linalg.as_matrix(h)
    if _stacks(hm):
        return _classify_2x2(hm[None], [dict(params or {})],
                             real_tol=real_tol, defect_tol=defect_tol)[0]
    label, max_imag, defect, m = label_spectrum(hm, real_tol=real_tol,
                                                defect_tol=defect_tol)
    return PhasePoint(
        params=dict(params or {}),
        classification=label,
        min_imag_gap=max_imag,
        defect_indicator=defect,
        metric_min_eig=(None if m is None
                        else float(linalg.hermitian_spectrum(m.matrix)[0])),
    )


def bisect(f, a: float, b: float, fa: float, width: float) -> float:
    """Sign change of f between a and b (either order; fa = f(a) != 0 and
    f(b) of the other sign): the midpoint once |b - a| <= width, or the
    first midpoint where f is exactly zero."""
    while abs(b - a) > width:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def find_exceptional(family: str, base_params: dict, param: str,
                     lo: float, hi: float, *, ep_tol: float = EP_TOL) -> float:
    """Locate the unbroken/broken transition along one parameter by bisection.

    Bisects on the family's analytic discriminant (models.discriminant)
    until the bracket is narrower than ep_tol * |hi - lo|.  Endpoints must
    straddle the transition, in either order; an unknown family raises
    InvalidParams.
    """
    base = models._without(base_params, [param])

    def disc(value: float) -> float:
        p = dict(base)
        p[param] = value
        return models.discriminant(family, p)

    f_lo, f_hi = disc(lo), disc(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise NoBracket(
            f"classification does not change over [{lo}, {hi}] for {param!r}"
        )
    return bisect(disc, lo, hi, f_lo, ep_tol * abs(hi - lo))


def _error(params: dict, exc: Exception) -> PhasePoint:
    """The record of a point that could not be built or judged."""
    return PhasePoint(params=params, classification="error",
                      min_imag_gap=float("nan"), defect_indicator=float("nan"),
                      error=f"{type(exc).__name__}: {exc}")


def _classify_alone(h, params: dict, **tols) -> PhasePoint:
    """classify of one point, a failure recorded in its point."""
    try:
        return classify(h, params=params, **tols)
    except Exception as exc:  # record, keep sweeping
        return _error(params, exc)


def sweep(family: str, base_params: dict, axes: list, *,
          real_tol: float = REAL_TOL, defect_tol: float = DEFECT_TOL) -> PhaseDiagram:
    """Classify on the full cartesian grid, row-major over the axes.

    The grid is taken in blocks of at most linalg.STACK_ENTRIES matrix
    entries (at the family's largest size), and models.hamiltonians builds
    each block's Hamiltonians as arrays, bit for bit those of models.build.
    A point whose values the family's domain rule refuses records the error
    models.build raises for it, never aborting the sweep.  The 2x2
    Hamiltonians with finite entries and norm are judged together, by
    _classify_2x2; any other point (jc_full, or a 2x2 whose entries or norm
    are not finite) by classify alone, a failure again recorded in the
    point.
    """
    if not axes or any(len(v) == 0 for _, v in axes):
        raise ValueError("grids must be non-empty")
    names = [n for n, _ in axes]
    base = models._without(base_params, names)
    coords = [np.array([float(x) for x in v]) for _, v in axes]
    shape = [len(v) for _, v in axes]
    size = math.prod(shape)
    step = linalg.STACK_ENTRIES // models.largest_size(family) ** 2
    tols = {"real_tol": real_tol, "defect_tol": defect_tol}
    points = []
    for start in range(0, size, step):
        at = np.unravel_index(np.arange(start, min(start + step, size)), shape)
        params = [dict(zip(names, c))
                  for c in zip(*(x[i].tolist() for x, i in zip(coords, at)))]
        judged = [None] * len(params)
        try:
            stacks, refused = models.hamiltonians(family, base, axes, at)
        except InvalidParams as exc:  # a name: every point's error
            stacks, refused = [], dict.fromkeys(range(len(params)), exc)
        for k, exc in refused.items():
            judged[k] = _error(params[k], exc)
        for ks, hs in stacks:
            stacked = _stacks(hs)
            for k, h in zip(ks[~stacked].tolist(), hs[~stacked]):
                judged[k] = _classify_alone(h, params[k], **tols)
            if stacked.any():
                ks = ks[stacked].tolist()
                pts = _classify_2x2(hs[stacked], [params[k] for k in ks], **tols)
                for k, pt in zip(ks, pts):
                    judged[k] = pt
        points += judged
    return PhaseDiagram(axes=[(n, x.tolist()) for n, x in zip(names, coords)],
                        points=points)


def ep_brackets(diagram: PhaseDiagram) -> list:
    """Classification changes between grid neighbours along each axis.

    Any transition among unbroken/broken/exceptional marks a phase boundary
    inside the cell.  A grid point on the boundary is classified exceptional
    when its left/right overlap falls below defect_tol, and then produces
    brackets on both sides; within about one ulp of the boundary the stored
    matrix's own discriminant can instead make it unbroken or broken.
    """
    names = [n for n, _ in diagram.axes]
    shape = [len(v) for _, v in diagram.axes]
    grid = np.array([p.classification for p in diagram.points]).reshape(shape)
    coords = [v for _, v in diagram.axes]
    labels = {PHASE_UNBROKEN, PHASE_BROKEN, PHASE_EXCEPTIONAL}
    out = []
    for ax in range(len(shape)):
        sl = np.moveaxis(grid, ax, -1)
        for idx in np.ndindex(sl.shape[:-1]):
            line = sl[idx]
            for k in range(len(line) - 1):
                a, b = line[k], line[k + 1]
                if a in labels and b in labels and a != b:
                    out.append({
                        "axis": names[ax],
                        "lo": float(coords[ax][k]),
                        "hi": float(coords[ax][k + 1]),
                        "from": a,
                        "to": b,
                    })
    return out
