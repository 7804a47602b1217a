"""Command-line interface.

Subcommands: metric, validate, compare, sweep, ep, evolve, discriminate,
model show.  Inputs come from ``--in file.json`` or ``--model/--params``;
the summary JSON goes to stdout and ``--out dir`` additionally writes
result.json plus any CSV series.  Output is deterministic: sorted keys,
floats at 17 significant digits, complex numbers as [re, im] pairs.

Exit codes: 0 ok, 1 generic library error, 2 broken-phase / bracketing /
positivity violations, 3 defective (exceptional-point) systems, 4 parse
or parameter errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, dynamics, linalg, metric, models, phase
from .errors import (BrokenPhase, DefectiveSystem, InvalidParams,
                     MetricForgeError)

DEFAULT_TOLS = {
    "herm_tol": linalg.HERM_TOL,
    "defect_tol": linalg.DEFECT_TOL,
    "biorth_tol": metric.BIORTH_TOL,
    "real_tol": metric.REAL_TOL,
    "pos_tol": metric.POS_TOL,
    "cmp_tol": metric.CMP_TOL,
    "ep_tol": phase.EP_TOL,
}
MAX_GRID_POINTS = 10 ** 6  # per --axis and per sweep grid


class AxisError(MetricForgeError):
    """Malformed --axis grid specification."""

    exit_code = 2


# ---------------------------------------------------------------------------
# Deterministic JSON
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    s = format(x, ".17g")
    return s


def dumps_canonical(obj) -> str:
    """JSON with sorted keys and a fixed 17-significant-digit float format."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, complex):
        return dumps_canonical([obj.real, obj.imag])
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps_canonical(v) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        items = [json.dumps(str(k)) + ": " + dumps_canonical(obj[k])
                 for k in sorted(obj, key=str)]
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _entry_from_json(x) -> complex:
    if _is_number(x):
        return complex(x)
    if isinstance(x, list) and len(x) == 2 and all(map(_is_number, x)):
        return complex(x[0], x[1])
    raise InvalidParams(f"matrix entry {x!r} is neither a number nor [re, im]")


def _mat_from_json(rows, what: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise InvalidParams(f"{what} must be a non-empty nested array")
    try:
        m = np.array([[_entry_from_json(x) for x in row] for row in rows],
                     dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"bad {what}: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParams(f"{what} must be square")
    return m


# ---------------------------------------------------------------------------
# Input handling
# ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    """float(text), refusing nan and inf with InvalidParams (exit 4).

    The type of every float flag and the number parser of --axis, --psi0
    and --tol.  Text that is no number raises ValueError, as float() does.
    """
    x = float(text)
    if not math.isfinite(x):
        raise InvalidParams(f"{text.strip()!r} is not a finite number")
    return x


def _positive(text: str) -> float:
    """_finite(text), also refusing zero and negative values (exit 4)."""
    x = _finite(text)
    if x <= 0.0:
        raise InvalidParams(f"{text.strip()!r} is not positive")
    return x


def _parse_kv_params(text: str) -> dict:
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise InvalidParams(f"--params entry {item!r} is not name=value")
        k, v = item.split("=", 1)
        k = k.strip()
        if k in out:
            raise InvalidParams(f"--params gives {k!r} twice")
        try:
            out[k] = float(v)
        except ValueError:
            raise InvalidParams(f"--params value {v!r} is not a number") from None
    return out


def _load_input(args) -> dict:
    """Return the raw input document (model or matrix form)."""
    given_file = getattr(args, "infile", None)
    given_model = getattr(args, "model", None)
    if given_file and given_model:
        raise InvalidParams("give either --in or --model, not both")
    if getattr(args, "params", None) is not None and not given_model:
        raise InvalidParams("--params needs --model")
    if given_file:
        try:
            with open(given_file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise InvalidParams(f"cannot read {given_file}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise InvalidParams(f"{given_file} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise InvalidParams("input document must be a JSON object")
        if ("model" in doc) == ("matrix" in doc):
            raise InvalidParams(
                "input document needs exactly one of 'model' or 'matrix'")
        return doc
    if given_model:
        params = _parse_kv_params(getattr(args, "params", "") or "")
        return {"model": {"family": given_model, "params": params}}
    raise InvalidParams("no input: give --in file.json or --model FAMILY")


class ResolvedInput:
    """Matrices and optional model instance extracted from an input document."""

    def __init__(self, doc: dict, herm_tol: float):
        self.doc = doc
        self.instance = None
        self.das = None
        if "model" in doc:
            spec = _model_spec(doc)
            self.instance = models.build(spec["family"],
                                         spec.get("params", {}) or {})
            self.h = self.instance.hamiltonian
            self.das = self.instance.das_data
        else:
            spec = doc["matrix"]
            if not isinstance(spec, dict) or "h" not in spec:
                raise InvalidParams("'matrix' needs an 'h' entry")
            self.h = _mat_from_json(spec["h"], "matrix.h")
            if spec.get("s") is not None:
                s = _mat_from_json(spec["s"], "matrix.s")
                if s.shape != self.h.shape:
                    raise InvalidParams("matrix.s must match matrix.h in size")
                resid = metric.check_pseudo_hermitian(self.h, s)
                if resid > herm_tol:  # a singular S raised SingularMatrix
                    raise InvalidParams(f"matrix.s does not intertwine "
                                        f"matrix.h: residual {resid:.3e}")
            if "das" in spec:
                self.das = _das_from_json(spec["das"])
                das_mats = [self.das.reference_metric_q0, *self.das.generators,
                            *self.das.projectors]
                if any(m.shape != self.h.shape for m in das_mats):
                    raise InvalidParams("das matrices must match matrix.h in size")


def _model_spec(doc: dict) -> dict:
    """The 'model' entry of an input document, the one reader of it for
    every command: a string 'family' and, optionally, an object 'params'."""
    spec = doc["model"]
    if (not isinstance(spec, dict) or not isinstance(spec.get("family"), str)
            or not isinstance(spec.get("params") or {}, dict)):
        raise InvalidParams("'model' needs a string 'family' and an object "
                            "'params'")
    return spec


def _das_from_json(spec) -> metric.DasConstruction:
    try:
        q0 = _mat_from_json(spec["q0"], "das.q0")
        generators = [_mat_from_json(g["sigma"], "das.sigma")
                      for g in spec["generators"]]
        projectors = [_mat_from_json(p, "das.projector")
                      for p in spec["projectors"]]
    except (KeyError, TypeError) as exc:
        raise InvalidParams(f"bad das block: {exc}") from None
    return metric.DasConstruction(q0, generators, projectors)


def _parse_tols(pairs) -> dict:
    tols = dict(DEFAULT_TOLS)
    for item in pairs or []:
        if "=" not in item:
            raise InvalidParams(f"--tol entry {item!r} is not name=value")
        k, v = item.split("=", 1)
        k = k.strip()
        if k not in tols:
            raise InvalidParams(f"unknown tolerance {k!r}; "
                                f"known: {', '.join(sorted(tols))}")
        try:
            tols[k] = _positive(v)
        except ValueError:
            raise InvalidParams(f"--tol value {v!r} is not a number") from None
    return tols


def _parse_axis(spec: str) -> tuple:
    try:
        name, grid = spec.split("=", 1)
        start_s, stop_s, count_s = grid.split(":")
        start, stop, count = _finite(start_s), _finite(stop_s), int(count_s)
    except ValueError:
        raise AxisError(
            f"--axis {spec!r} is not name=start:stop:count") from None
    if not 1 <= count <= MAX_GRID_POINTS:
        raise AxisError(f"axis count must be in 1..{MAX_GRID_POINTS}")
    if count == 1:
        values = [start]
    else:
        values = [float(x) for x in np.linspace(start, stop, count)]
    return name.strip(), values


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

def _judge(res: ResolvedInput, tols: dict) -> tuple:
    """(phase label, its grounds, spectral metric or None) of an input: the
    one phase judge of metric, validate, compare and evolve.  A model is
    judged by its exact discriminant (ModelInstance.phase, as in model show
    and ep) and served by its closed forms alone, so no metric comes with
    it; a matrix by phase.label_spectrum, with its metric when unbroken."""
    if res.instance is not None:
        return (res.instance.phase,
                f"discriminant {res.instance.discriminant:.6g}", None)
    label, max_imag, defect, m = phase.label_spectrum(
        res.h, real_tol=tols["real_tol"], defect_tol=tols["defect_tol"])
    return label, f"max |Im E| {max_imag:.3e}, self-overlap {defect:.3e}", m


def _refuse(label: str, grounds: str, hint: str = "") -> None:
    """The refusal of every route for an input without a positive metric:
    DefectiveSystem (exit 3) at an exceptional point, BrokenPhase (exit 2)
    in the broken phase.  Returns for an unbroken label."""
    if label == models.PHASE_EXCEPTIONAL:
        raise DefectiveSystem(f"exceptional point ({grounds}): eigensystem "
                              f"incomplete, no positive metric exists{hint}")
    if label == models.PHASE_BROKEN:
        raise BrokenPhase(f"broken phase ({grounds}): spectrum not real, "
                          f"no positive metric exists{hint}")


def _das_from_input(res: ResolvedInput, tols: dict) -> metric.MetricOperator:
    if res.das is None:
        raise InvalidParams(
            "the das method needs a model input or an explicit 'das' block")
    try:
        return metric.das_metric(res.das, herm_tol=tols["herm_tol"],
                                 biorth_tol=tols["biorth_tol"])
    except ValueError as exc:  # DasConstruction.check: inconsistent block
        raise InvalidParams(f"bad das block: {exc}") from None


def _metric_entry(res: ResolvedInput, m: metric.MetricOperator,
                  tols: dict) -> dict:
    rep = metric.validate_metric(res.h, m, pos_tol=tols["pos_tol"])
    return {
        "matrix": m.matrix,
        "method": m.method,
        "report": {
            "hermitian_residual": rep.hermitian_residual,
            "min_metric_eigenvalue": rep.min_metric_eigenvalue,
            "intertwining_residual": rep.intertwining_residual,
            "positive": rep.positive,
        },
    }


def _build_metrics(res: ResolvedInput, method: str, tols: dict) -> dict:
    built = {}
    if res.instance is not None or method != "das":  # a matrix's das: unjudged
        label, grounds, spectral = _judge(res, tols)
        _refuse(label, grounds)
    if method in ("spectral", "both"):  # a model's is its closed-form sum
        built["spectral"] = spectral or metric.spectral_metric(
            res.instance.analytic_system, unit_lefts=False)
    if method in ("das", "both"):
        built["das"] = _das_from_input(res, tols)
    return built


def _comparison(built: dict, tols: dict) -> dict:
    cmp_ = metric.compare_metrics(built["das"], built["spectral"],
                                  cmp_tol=tols["cmp_tol"])
    return {"verdict": cmp_.verdict, "factor": cmp_.factor}


def _default_psi0(dim: int) -> np.ndarray:
    v = np.array([1j ** (k % 4) for k in range(dim)], dtype=complex)
    return v / math.sqrt(dim)


def _parse_psi0(text: str, dim: int) -> np.ndarray:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != dim:
        raise InvalidParams(f"--psi0 needs {dim} entries, got {len(parts)}")
    vals = []
    for p in parts:
        re_s, _, im_s = p.partition(":")
        try:
            vals.append(complex(_finite(re_s), _finite(im_s) if im_s else 0.0))
        except ValueError:
            raise InvalidParams(f"--psi0 entry {p!r} is not re or re:im") from None
    parts = np.array(vals, dtype=complex).view(float)  # re, im interleaved
    big = float(np.max(np.abs(parts)))
    if big == 0.0:
        raise InvalidParams("--psi0 must be nonzero")
    # exact power-of-two scaling: the squares can neither overflow nor underflow
    v = np.ldexp(parts, -math.frexp(big)[1]).view(complex)
    return v / math.sqrt(float(np.sum(np.abs(v) ** 2)))


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (results dict, {filename: csv text},
# the input document whose digest is reported, or None)
# ---------------------------------------------------------------------------

def cmd_metric(args, tols):
    """metric and validate: the two differ only in the --method default."""
    res = ResolvedInput(_load_input(args), tols["herm_tol"])
    built = _build_metrics(res, args.method, tols)
    results = {"metrics": {k: _metric_entry(res, m, tols)
                           for k, m in built.items()}}
    if args.method == "both":
        results["comparison"] = _comparison(built, tols)
    return results, {}, res.doc


def cmd_compare(args, tols):
    res = ResolvedInput(_load_input(args), tols["herm_tol"])
    return ({"comparison": _comparison(_build_metrics(res, "both", tols), tols)},
            {}, res.doc)


def _model_doc(doc: dict, command: str) -> tuple:
    """(family, params) of a model document, for commands that vary the
    parameters themselves and so build no model at the given point."""
    if "model" not in doc:
        raise InvalidParams(f"{command} needs a model input")
    spec = _model_spec(doc)
    return spec["family"], spec.get("params", {})


def cmd_sweep(args, tols):
    family, params = _model_doc(_load_input(args), "sweep")
    axes = [_parse_axis(a) for a in (args.axis or [])]
    if not axes:
        raise AxisError("sweep needs at least one --axis name=start:stop:count")
    if math.prod(len(values) for _, values in axes) > MAX_GRID_POINTS:
        raise AxisError(f"sweep grid exceeds {MAX_GRID_POINTS} points")
    models._check_fixed_params(family, params or {},
                               [name for name, _ in axes])
    diagram = phase.sweep(family, params or {}, axes,
                          real_tol=tols["real_tol"],
                          defect_tol=tols["defect_tol"])
    brackets = phase.ep_brackets(diagram)
    results = {"diagram": diagram.to_jsonable(), "ep_brackets": brackets}
    # the digest covers the model's family and params only
    return (results, {"sweep.csv": diagram.to_csv()},
            {"model": {"family": family, "params": params}})


def cmd_ep(args, tols):
    doc = _load_input(args)
    family, params = _model_doc(doc, "ep")
    # find_exceptional checks family, names and values at its own points
    value = phase.find_exceptional(family, params or {}, args.param,
                                   args.lo, args.hi, ep_tol=tols["ep_tol"])
    return {"param": args.param, "value": value}, {}, doc


def cmd_evolve(args, tols):
    res = ResolvedInput(_load_input(args), tols["herm_tol"])
    if not 2 <= args.steps <= MAX_GRID_POINTS:
        raise InvalidParams(f"--steps must be in 2..{MAX_GRID_POINTS}")
    label, grounds, m = _judge(res, tols)
    if not args.allow_broken:
        _refuse(label, grounds, "; pass --allow-broken to evolve anyway")
    dim = res.h.shape[0]
    psi0 = (_parse_psi0(args.psi0, dim) if args.psi0 else _default_psi0(dim))
    if res.instance is not None:  # its closed form, None unless unbroken
        m = res.instance.analytic_metric
    times = np.linspace(0.0, args.tmax, args.steps)
    try:
        rec = dynamics.evolve(res.h, psi0, times, metric=m, hbar=args.hbar)
    except ValueError as exc:  # an overflowing state or norm
        raise InvalidParams(f"--tmax {args.tmax!r}: {exc}") from None
    metric_dev = float(np.max(np.abs(rec.metric_norms - rec.metric_norms[0]))
                       / max(rec.metric_norms[0], 1e-300))
    std_dev = float(np.max(np.abs(rec.standard_norms - rec.standard_norms[0])))
    results = {
        "classification": label,
        "psi0": psi0,
        "max_metric_norm_deviation": metric_dev if m is not None else None,
        "max_standard_norm_deviation": std_dev,
        "metric_used": m.matrix if m is not None else None,
    }
    if label == models.PHASE_BROKEN:  # at an EP the norm grows like a power of t
        results["growth_rate"] = dynamics.growth_rate(rec)
    return results, {"evolution.csv": rec.to_csv()}, res.doc


def cmd_discriminate(args, tols):
    """sin theta_1 comes from --sin-theta (0.5 by default) or from an n = 0
    jc_doublet input, never from both: the metric's first block is doublet
    0 (dynamics.assemble_discrimination_metric).  Likewise theta comes
    from --theta (pi/3 by default) or --axis, never from both."""
    sin_theta = args.sin_theta
    doc = None
    if args.model or args.infile or args.params is not None:
        doc = _load_input(args)
        if sin_theta is not None:
            raise InvalidParams("give --sin-theta or an input, not both")
        res = ResolvedInput(doc, tols["herm_tol"])
        if (res.instance is None or res.instance.family != "jc_doublet"
                or res.instance.params["n"] != 0):
            raise InvalidParams("discriminate reads sin theta from an n = 0 "
                                "jc_doublet model input only")
        label, grounds, _ = _judge(res, tols)
        _refuse(label, grounds)
        sin_theta = res.instance.extras["sin_theta"]
    elif sin_theta is None:
        sin_theta = 0.5
    m = dynamics.assemble_discrimination_metric(sin_theta)
    results, files = {"sin_theta": sin_theta, "eps": args.eps}, {}
    if args.axis:
        if args.theta is not None:
            raise InvalidParams("give --theta or --axis, not both")
        name, values = _parse_axis(args.axis)
        if name != "theta":
            raise AxisError("discriminate scans only over theta")
        scan = dynamics.orthogonality_scan(values, args.eps, m)
        results.update(zero_crossings=scan.zero_crossings, rows=len(scan.rows))
        files["scan.csv"] = scan.to_csv()
    else:  # the record: theta, both overlaps and the gain
        theta = math.pi / 3 if args.theta is None else args.theta
        pair = dynamics.build_entangled_pair(theta, args.eps)
        results.update(vars(dynamics.discriminate(pair, m)))
    return results, files, doc


def cmd_model_show(args, tols):
    res = ResolvedInput(_load_input(args), tols["herm_tol"])
    if res.instance is None:
        raise InvalidParams("model show needs a model input")
    inst = res.instance
    results = {
        "family": inst.family,
        "params": inst.params,
        "hamiltonian": inst.hamiltonian,
        "similarity": inst.similarity,
        "eigenvalues": inst.analytic_eigenvalues,
        "phase": inst.phase,
        "discriminant": inst.discriminant,
        "metric": (inst.analytic_metric.matrix
                   if inst.analytic_metric is not None else None),
        "extras": inst.extras,
    }
    return results, {}, res.doc


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidParams(message)


def _add_input_flags(p):
    p.add_argument("--in", dest="infile", help="input document (JSON)")
    p.add_argument("--model", help="model family name")
    p.add_argument("--params", help="model parameters name=value,...")
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override a tolerance (repeatable)")
    p.add_argument("--out", help="directory for result.json and CSV files")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="metricforge",
                 description="Positive-definite metric operators for "
                             "pseudo-Hermitian Hamiltonians")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metric", help="construct and validate metric operators")
    _add_input_flags(p)
    p.add_argument("--method", choices=("spectral", "das", "both"),
                   default="both")
    p.set_defaults(handler=cmd_metric)

    p = sub.add_parser("validate", help="validity report for a constructed metric")
    _add_input_flags(p)
    p.add_argument("--method", choices=("spectral", "das", "both"),
                   default="spectral")
    p.set_defaults(handler=cmd_metric)

    p = sub.add_parser("compare", help="compare the two construction routes")
    _add_input_flags(p)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("sweep", help="phase classification over a grid")
    _add_input_flags(p)
    p.add_argument("--axis", action="append", metavar="NAME=START:STOP:COUNT")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("ep", help="bisect for an exceptional point")
    _add_input_flags(p)
    p.add_argument("--param", required=True)
    p.add_argument("--lo", type=_finite, required=True)
    p.add_argument("--hi", type=_finite, required=True)
    p.set_defaults(handler=cmd_ep)

    p = sub.add_parser("evolve", help="time evolution with norm tracking")
    _add_input_flags(p)
    p.add_argument("--tmax", type=_finite, default=10.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--hbar", type=_positive, default=1.0)
    p.add_argument("--psi0", help="initial state re:im,re:im,... (normalized)")
    p.add_argument("--allow-broken", action="store_true",
                   help="evolve even when the spectrum is not real")
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser("discriminate",
                       help="entangled-pair overlap under the metric")
    _add_input_flags(p)
    p.add_argument("--theta", type=_finite, help="default pi/3")
    p.add_argument("--eps", type=_finite, default=0.05)
    p.add_argument("--sin-theta", type=_finite,
                   help="doublet-0 mixing used in the 4x4 metric (default "
                        "0.5), or read from an n = 0 jc_doublet model "
                        "input, the only input discriminate accepts")
    p.add_argument("--axis", metavar="theta=START:STOP:COUNT",
                   help="scan theta instead of a single evaluation")
    p.set_defaults(handler=cmd_discriminate)

    p = sub.add_parser("model", help="model utilities")
    msub = p.add_subparsers(dest="model_command", required=True)
    ps = msub.add_parser("show", help="print a model instance")
    _add_input_flags(ps)
    ps.set_defaults(handler=cmd_model_show)

    return ap


def _run(argv) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    tols = _parse_tols(getattr(args, "tol", None))
    results, files, source = args.handler(args, tols)
    doc = {
        "command": ["metricforge"] + list(argv),
        "input_digest": (None if source is None else hashlib.sha256(
            dumps_canonical(source).encode("utf-8")).hexdigest()),
        "results": results,
        "tolerances": tols,
        "version": __version__,
    }
    text = dumps_canonical(doc)
    out_dir = getattr(args, "out", None)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "result.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(text + "\n")
        for name, content in files.items():
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                fh.write(content)
    sys.stdout.write(text + "\n")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return _run(argv)
    except MetricForgeError as exc:
        body = {
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_code": exc.exit_code,
        }
        sys.stderr.write(dumps_canonical(body) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
