"""Spectral-phase classification, exceptional-point location, grid sweeps."""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg, metric, models
from .errors import DefectiveSystem, NoBracket
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


def label_spectrum(h, *, real_tol: float = REAL_TOL,
                   defect_tol: float = DEFECT_TOL):
    """The phase label of a matrix, from one eigendecompose: the judge of a
    CLI matrix input and of each sweep point (a CLI model input is judged
    by its exact discriminant, which can differ inside models._EP_BAND).

    Returns (label, max |Im E|, defect indicator, metric).  unbroken: real
    spectrum and a complete biorthogonal system; exceptional: a left/right
    pair is numerically orthogonal (this takes precedence over broken,
    defectiveness being the stronger statement), judged first on the raw
    pairs and then by biorthonormalize; broken: complex-conjugate
    eigenvalues present.  The metric is the spectral metric of an
    unbroken H (h_scale ||H||_F) and None otherwise.
    """
    hm = linalg.as_matrix(h)
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


def classify(h, *, real_tol: float = REAL_TOL,
             defect_tol: float = DEFECT_TOL, params: dict | None = None) -> PhasePoint:
    """Classify the spectral phase of a matrix (label_spectrum), with the
    minimum eigenvalue of the spectral metric at an unbroken point."""
    label, max_imag, defect, m = label_spectrum(h, real_tol=real_tol,
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
    def disc(value: float) -> float:
        p = dict(base_params)
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


def sweep(family: str, base_params: dict, axes: list, *,
          real_tol: float = REAL_TOL, defect_tol: float = DEFECT_TOL) -> PhaseDiagram:
    """Classify on the full cartesian grid, row-major over the axes.

    Per-point failures are recorded in the point, never aborting the sweep.
    """
    if not axes or any(len(v) == 0 for _, v in axes):
        raise ValueError("grids must be non-empty")
    names = [n for n, _ in axes]
    points = []
    for combo in itertools.product(*[v for _, v in axes]):
        p = dict(base_params)
        p.update(dict(zip(names, combo)))
        coords = {n: float(c) for n, c in zip(names, combo)}
        try:
            inst = models.build(family, p)
            pt = classify(inst.hamiltonian, real_tol=real_tol,
                          defect_tol=defect_tol, params=coords)
        except Exception as exc:  # record, keep sweeping
            pt = PhasePoint(params=coords, classification="error",
                            min_imag_gap=float("nan"),
                            defect_indicator=float("nan"),
                            error=f"{type(exc).__name__}: {exc}")
        points.append(pt)
    return PhaseDiagram(axes=[(n, [float(x) for x in v]) for n, v in axes],
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
