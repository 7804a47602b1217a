"""Phase classification, exceptional-point bisection and grid sweeps."""

import itertools
import math
import warnings

import numpy as np
import numpy.linalg as npl
import pytest
from hypothesis import given, settings, strategies as st

from metricforge import linalg, metric, models, phase
from metricforge.errors import NoBracket

RNG = np.random.default_rng(20240814)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_unbroken():
    inst = models.build("jc_doublet", {"rho": 0.125})
    pt = phase.classify(inst.hamiltonian)
    assert pt.classification == "unbroken"
    assert pt.min_imag_gap < 1e-12
    assert pt.metric_min_eig is not None and pt.metric_min_eig > 0
    # oracle: metric minimum eigenvalue is 1 - sin(theta) = 0.5
    assert pt.metric_min_eig == pytest.approx(0.5, abs=1e-9)


def test_classify_broken():
    inst = models.build("jc_doublet", {"rho": 0.3})
    pt = phase.classify(inst.hamiltonian)
    assert pt.classification == "broken"
    assert pt.min_imag_gap == pytest.approx(math.sqrt(0.11) / 2.0, abs=1e-9)
    assert pt.metric_min_eig is None


def test_classify_exceptional():
    inst = models.build("jc_doublet", {"rho": 0.25})
    pt = phase.classify(inst.hamiltonian)
    assert pt.classification == "exceptional"
    assert pt.defect_indicator < 1e-8


def test_classify_hermitian_is_unbroken():
    a = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    h = (a + a.conj().T) / 2.0
    assert phase.classify(h).classification == "unbroken"


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.45),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_classification_unitary_invariant(rho, seed):
    if abs(rho - 0.25) < 0.02:  # stay clear of the boundary
        return
    inst = models.build("jc_doublet", {"rho": rho})
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = npl.qr(a)  # oracle-side unitary
    h2 = u @ inst.hamiltonian @ u.conj().T
    assert (phase.classify(h2).classification
            == phase.classify(inst.hamiltonian).classification)


# ---------------------------------------------------------------------------
# find_exceptional
# ---------------------------------------------------------------------------

def test_find_exceptional_closed_forms():
    rc = phase.find_exceptional("jc_doublet",
                                {"epsilon": 0.5, "omega": 1.0, "n": 0},
                                "rho", 0.0, 0.5)
    assert abs(rc - 0.25) < 1e-8
    # a reversed bracket is bisected like the ordered one
    rc = phase.find_exceptional("jc_doublet",
                                {"epsilon": 0.5, "omega": 1.0, "n": 0},
                                "rho", 0.45, 0.0)
    assert abs(rc - 0.25) < 1e-8
    sc = phase.find_exceptional("pt_matrix",
                                {"r": 1.0, "theta": math.pi / 2, "t": 1.0,
                                 "phi": 0.0},
                                "s", 0.5, 2.0)
    assert abs(sc - 1.0) < 1e-8
    vc = phase.find_exceptional("dirac_scalar",
                                {"m0": 1.0, "c": 1.0, "kx": 0.0},
                                "v0", 0.0, 2.0)
    assert abs(vc - 1.0) < 1e-8


def test_find_exceptional_no_bracket():
    with pytest.raises(NoBracket):
        phase.find_exceptional("jc_doublet", {"epsilon": 0.5, "omega": 1.0},
                               "rho", 0.0, 0.2)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_1d_labels_and_order():
    grid = [float(x) for x in np.linspace(0.0, 0.5, 11)]
    d = phase.sweep("jc_doublet", {"epsilon": 0.5}, [("rho", grid)])
    assert [p.params["rho"] for p in d.points] == grid
    labels = [p.classification for p in d.points]
    assert labels[0] == "unbroken" and labels[-1] == "broken"
    assert "exceptional" in labels  # rho = 0.25 lies on the grid


def test_sweep_2d_row_major():
    d = phase.sweep("dirac_scalar", {"m0": 1.0},
                    [("kx", [0.0, 1.0]), ("v0", [0.2, 0.8, 1.6])])
    assert len(d.points) == 6
    assert d.points[0].params == {"kx": 0.0, "v0": 0.2}
    assert d.points[2].params == {"kx": 0.0, "v0": 1.6}
    assert d.points[3].params == {"kx": 1.0, "v0": 0.2}


def test_sweep_single_point():
    d = phase.sweep("pt_matrix",
                    {"r": 0.2, "s": 1.0, "t": 1.0, "theta": 0.3, "phi": 0.0},
                    [("r", [0.2])])
    assert len(d.points) == 1
    assert d.points[0].classification == "unbroken"
    assert len(d.to_csv().splitlines()) == 2  # header + one row


def test_sweep_records_errors_without_aborting():
    d = phase.sweep("jc_doublet", {"rho": 0.1}, [("omega", [-1.0, 1.0])])
    assert d.points[0].classification == "error"
    assert "InvalidParams" in d.points[0].error
    assert d.points[1].classification == "unbroken"


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        phase.sweep("jc_doublet", {}, [("rho", [])])


def test_sweep_csv_shape():
    d = phase.sweep("jc_doublet", {}, [("rho", [0.0, 0.3])])
    lines = d.to_csv().splitlines()
    assert lines[0] == ("rho,classification,min_imag_gap,"
                        "metric_min_eig,defect_indicator")
    assert len(lines) == 3
    # broken rows leave the metric column empty
    assert lines[2].split(",")[3] == ""


def test_ep_brackets_locate_boundary():
    grid = [float(x) for x in np.linspace(0.0, 0.5, 51)]
    d = phase.sweep("jc_doublet", {"epsilon": 0.5}, [("rho", grid)])
    brackets = phase.ep_brackets(d)
    assert brackets, "expected at least one bracket"
    for b in brackets:
        assert b["lo"] <= 0.25 + 0.01 and b["hi"] >= 0.25 - 0.01


def test_jsonable_roundtrip_fields():
    d = phase.sweep("jc_doublet", {}, [("rho", [0.1])])
    obj = d.to_jsonable()
    assert obj["axes"][0]["name"] == "rho"
    assert obj["points"][0]["classification"] == "unbroken"


# ---------------------------------------------------------------------------
# the stacked 2x2 judge
# ---------------------------------------------------------------------------

def _numpy_oracle(h):
    """max |Im E| and the least eigenvalue of the sum of the unit left
    eigenvectors' outer products, from numpy alone."""
    _, left = npl.eig(h.conj().T)
    left = left / npl.norm(left, axis=0)
    return (float(np.max(np.abs(npl.eigvals(h).imag))),
            float(npl.eigvalsh(left @ left.conj().T)[0]))


def _per_point(h):
    """The judge before the stack: eigendecompose, the defect indicator,
    biorthonormalize, the spectral metric and its QL spectrum."""
    pairs = linalg.eigendecompose(h)
    max_imag = max(abs(p.value.imag) for p in pairs)
    defect = linalg.defect_indicator(pairs)
    if defect < linalg.DEFECT_TOL:
        return "exceptional", max_imag, defect, None
    if max_imag > metric.REAL_TOL * linalg.frob(h):
        return "broken", max_imag, defect, None
    m = metric.spectral_metric(metric.biorthonormalize(pairs))
    return ("unbroken", max_imag, defect,
            float(linalg.hermitian_spectrum(m.matrix)[0]))


def _sweep_strictly(family, base, axes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return phase.sweep(family, base, axes)


def _assert_judged(family, base, axes, diagram):
    """Each point against the per-point judge (label, max |Im E| and the
    defect indicator bit for bit) and the numpy oracle."""
    grid = [dict(zip([n for n, _ in axes], c))
            for c in np.ndindex(*[len(v) for _, v in axes])]
    for idx, pt in zip(grid, diagram.points):
        params = dict(base, **{n: v[idx[n]] for n, v in axes})
        h = models.build(family, params).hamiltonian
        label, max_imag, defect, min_eig = _per_point(h)
        assert (pt.classification, pt.min_imag_gap, pt.defect_indicator) \
            == (label, max_imag, defect), params
        oracle_imag, oracle_min_eig = _numpy_oracle(h)
        assert abs(pt.min_imag_gap - oracle_imag) <= 1e-7 * linalg.frob(h)
        if label == "unbroken":
            assert abs(pt.metric_min_eig - min_eig) <= 1e-14
            assert abs(pt.metric_min_eig - oracle_min_eig) <= 1e-12
        else:
            assert pt.metric_min_eig is None


# each 2x2 family with its EP: base params, the swept name, its EP value
# and the sign of a step from the EP into the unbroken phase
_EPS = {"jc_doublet": ({"n": 0, "epsilon": 0.5, "omega": 1.0}, "rho", 0.25, -1),
        "dirac_scalar": ({"m0": 1.0, "kx": 0.0}, "v0", 1.0, -1),
        "pt_matrix": ({"r": 1.0, "theta": 0.5, "t": 1.0, "phi": 0.0}, "s",
                      math.sin(0.5) ** 2, 1)}


@pytest.mark.parametrize("family", sorted(_EPS))
def test_stacked_judge_near_exceptional_points(family):
    # the exact EP and delta = 1e-2 ... 1e-12 on both sides of it
    base, name, at, sign = _EPS[family]
    deltas = [10.0 ** -k for k in range(2, 13)]
    grid = [at] + [at * (1 + side * sign * d) for d in deltas for side in (1, -1)]
    d = _sweep_strictly(family, base, [(name, grid)])
    assert [p.classification for p in d.points] \
        == ["exceptional"] + ["unbroken", "broken"] * len(deltas)
    _assert_judged(family, base, [(name, grid)], d)


@pytest.mark.parametrize("scale", [2.0 ** -400, 2.0 ** 400])
def test_stacked_judge_scaled_entries(scale):
    # entries near 1e-120 and 1e120 take the 1e+-100 rescale, a division by
    # a power of two: the matrix judged is an exact multiple of the one at
    # scale 1, so every label and number is that of scale 1, the exact EP
    # at rho = 0.25 included
    grid = [0.0, 0.1, 0.2, 0.25, 0.3]
    axes = [("rho", [x * scale for x in grid])]
    base = {"epsilon": 0.5 * scale, "omega": 1.0 * scale}
    d = _sweep_strictly("jc_doublet", base, axes)
    one = _sweep_strictly("jc_doublet", {"epsilon": 0.5}, [("rho", grid)])
    assert [p.classification for p in d.points] \
        == [p.classification for p in one.points] \
        == ["unbroken", "unbroken", "unbroken", "exceptional", "broken"]
    for pt, ref in zip(d.points, one.points):
        assert (pt.defect_indicator, pt.min_imag_gap, pt.metric_min_eig) \
            == (ref.defect_indicator, ref.min_imag_gap * scale,
                ref.metric_min_eig)
    _assert_judged("jc_doublet", base, axes, d)


def test_extreme_entries_are_decomposed():
    # the squares in ||H||_F no longer under- or overflow: entries near
    # 1e-170 are not H = 0, and entries near 1e300 are judged, not refused
    pairs = linalg.eigendecompose(1e-170 * np.array([[1.0, 1.0], [0.0, 3.0]]))
    assert [p.value for p in pairs] == pytest.approx([1e-170, 3e-170],
                                                     rel=1e-15)
    h = 1e300 * np.array([[0.25, 0.125], [-0.125, 0.75]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pt = phase.classify(h)
        d = phase.sweep("jc_doublet", {"epsilon": 0.5e300, "omega": 1e300},
                        [("rho", [0.125e300, 0.3e300])])
    ref = phase.classify(h / 1e300)
    assert (pt.classification, pt.metric_min_eig) == ("unbroken", pytest.approx(
        ref.metric_min_eig, rel=1e-14))
    assert [p.classification for p in d.points] == ["unbroken", "broken"]


def test_stacked_judge_zero_and_scalar_hamiltonians():
    # H = 0 and H = I have the identity pairs: unbroken, metric I
    d = _sweep_strictly("dirac_scalar", {"m0": 0.0, "kx": 0.0},
                        [("v0", [0.0])])
    s = _sweep_strictly("pt_matrix", {"r": 1.0, "theta": 0.0, "t": 0.0},
                        [("s", [0.0])])
    for pt in (d.points[0], s.points[0]):
        assert (pt.classification, pt.metric_min_eig, pt.defect_indicator,
                pt.min_imag_gap) == ("unbroken", 1.0, 1.0, 0.0)


def test_stacked_judge_records_a_non_finite_point_alone():
    # n = 8.9e307 overflows H's diagonal to inf: that point's error record,
    # and the points beside it as when swept alone
    base = {"omega": 4.0, "rho": 0.1}
    grid = [0.0, 8.9e307, 1.0]
    d = _sweep_strictly("jc_doublet", base, [("n", grid)])
    assert [p.classification for p in d.points] == ["unbroken", "error",
                                                    "unbroken"]
    assert d.points[1].error == "ValueError: matrix entries must be finite"
    for k in (0, 2):
        alone = phase.sweep("jc_doublet", base, [("n", [grid[k]])])
        assert d.points[k] == alone.points[0]


def _record(family, base, point, _build=models.build):
    """The point as the per-point sweep recorded it: models.build, then
    classify, a failure recorded in the point."""
    coords = {n: float(x) for n, x in point.items()}
    try:
        h = _build(family, {**base, **point}).hamiltonian
        return phase.classify(h, params=coords)
    except Exception as exc:
        return phase.PhasePoint(params=coords, classification="error",
                                min_imag_gap=float("nan"),
                                defect_indicator=float("nan"),
                                error=f"{type(exc).__name__}: {exc}")


def _assert_per_point(family, base, axes, diagram):
    """Each point of the diagram is its per-point record, bit for bit (repr
    tells signed zeros and nan apart)."""
    names = [n for n, _ in axes]
    combos = list(itertools.product(*[v for _, v in axes]))
    assert len(combos) == len(diagram.points)
    for combo, pt in zip(combos, diagram.points):
        assert repr(pt) == repr(_record(family, base, dict(zip(names, combo))))


def test_sweep_of_mixed_sizes_keeps_grid_order(monkeypatch):
    # refused points between stacked 2x2 points, and jc_full levels of three
    # sizes between refused ones: one call of the array form per block, one
    # stack per size, no models.build, and each point keeps its place and
    # its own record
    calls = []

    def spy(*args, _inner=models.hamiltonians):
        stacks, refused = _inner(*args)
        calls.append(([hs.shape[1:] for _, hs in stacks], sorted(refused)))
        return stacks, refused

    monkeypatch.setattr(models, "hamiltonians", spy)
    monkeypatch.setattr(models, "build", lambda *a: pytest.fail("built"))
    for family, base, axes, call, labels in [
            ("jc_doublet", {"rho": 0.1}, [("omega", [1.0, -1.0, 1.5, 0.0, 2.0])],
             ([(2, 2)], [1, 3]), ["unbroken", "error"] * 2 + ["unbroken"]),
            ("jc_full", {"rho": 0.05}, [("levels", [2, 0, 1, 65, 2, 3])],
             ([(3, 3), (5, 5), (7, 7)], [1, 3]),
             ["unbroken", "error", "unbroken", "error", "unbroken", "unbroken"])]:
        calls.clear()
        d = _sweep_strictly(family, base, axes)
        assert calls == [call]
        assert [p.classification for p in d.points] == labels
        _assert_per_point(family, base, axes, d)


# each family with the parameters that carry its energies, a base and two
# axes through its EP at energy scale 1
_ENERGY_GRIDS = {
    "jc_doublet": (("epsilon", "omega", "rho"),
                   {"n": 1, "epsilon": 0.5, "omega": 1.0},
                   ("rho", np.linspace(0.0, 0.4, 9)), ("epsilon", [0.25, 0.5])),
    "jc_full": (("epsilon", "omega", "rho"), {"epsilon": 0.5, "omega": 1.0},
                ("rho", np.linspace(0.0, 0.3, 5)), ("epsilon", [0.25, 0.5])),
    "pt_matrix": (("r", "s", "t"), {"r": 1.0, "theta": 0.5, "phi": 0.3, "s": 1.0},
                  ("t", np.linspace(-1.0, 1.0, 9)), ("s", [-1.0, 0.5])),
    "dirac_scalar": (("m0", "kx", "v0"), {"m0": 1.0, "kx": 0.3},
                     ("v0", np.linspace(0.0, 2.0, 9)), ("kx", [0.0, 0.5])),
}


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("family, levels", [
    ("jc_doublet", None), ("pt_matrix", None), ("dirac_scalar", None),
    ("jc_full", 1), ("jc_full", 2), ("jc_full", 12)])
def test_sweep_point_is_classify_of_build(family, levels, scale):
    # the array form and models.build give the same H bits, so each point
    # of a 1-D and a 2-D sweep is classify of the model built there
    energies, base, first, second = _ENERGY_GRIDS[family]
    base = {k: x * scale if k in energies else x for k, x in base.items()}
    if levels is not None:
        base["levels"] = levels
    axes = [(name, [x * scale if name in energies else x for x in values])
            for name, values in (first, second)]
    for grid in (axes[:1], axes):
        d = _sweep_strictly(family, models._without(base, [n for n, _ in grid]),
                            grid)
        _assert_per_point(family, base, grid, d)


@pytest.mark.parametrize("family, base, axes, errors", [
    ("jc_doublet", {"rho": 0.1}, [("omega", [-1.0, 0.0, 1.0]),
                                  ("hbar", [-1.0, 0.0, 1.0])],
     ["InvalidParams: omega and hbar must be positive"]),
    ("jc_doublet", {"rho": 0.1}, [("n", [-1.0, 0.0, 0.5, 1.0])],
     ["InvalidParams: doublet index n must be >= 0",
      "InvalidParams: parameter 'n' value 0.5 is not an integer"]),
    ("dirac_scalar", {"v0": 0.2}, [("m0", [-0.5, 0.0, 0.5]),
                                   ("c", [-1.0, 0.0, 1.0])],
     ["InvalidParams: need m0 >= 0, c > 0, hbar > 0"]),
    ("jc_full", {"rho": 0.05}, [("levels", [0, 1, 65])],
     ["InvalidParams: levels must be in 1..64"]),
    ("pt_matrix", {}, [("s", [math.nan, 1.0]), ("t", [1.0, math.inf])],
     ["InvalidParams: parameter 's' value nan is not a finite number",
      "InvalidParams: parameter 't' value inf is not a finite number"]),
    ("jc_doublet", {"rho": "abc"}, [("omega", [1.0, 2.0])],
     ["InvalidParams: parameter 'rho' value 'abc' is not a finite number"]),
    ("jc_doublet", {"omega": 4.0, "rho": 0.1}, [("n", [0.0, 8.9e307])],
     ["ValueError: matrix entries must be finite"]),
], ids=["omega-hbar", "n", "m0-c", "levels", "nan-inf", "base", "overflow"])
def test_sweep_records_each_refusal(family, base, axes, errors):
    # across each edge of the family's domain, every point's record is the
    # per-point path's, error text included
    d = _sweep_strictly(family, base, axes)
    assert sorted({p.error for p in d.points} - {None}) == errors
    _assert_per_point(family, base, axes, d)


def test_jc_full_sweep_over_levels():
    d = _sweep_strictly("jc_full", {"rho": 0.1}, [("levels", [1, 2, 3])])
    assert [p.classification for p in d.points] == ["unbroken"] * 3
    for n, pt in zip((1, 2, 3), d.points):
        h = models.build("jc_full", {"rho": 0.1, "levels": n}).hamiltonian
        assert pt == phase.classify(h, params={"levels": float(n)})
        label, max_imag, defect, min_eig = _per_point(h)
        assert (pt.min_imag_gap, pt.defect_indicator, pt.metric_min_eig) \
            == (max_imag, defect, min_eig)
