"""Phase classification, exceptional-point bisection and grid sweeps."""

import math

import numpy as np
import numpy.linalg as npl
import pytest
from hypothesis import given, settings, strategies as st

from metricforge import models, phase
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
