"""End-to-end CLI contract: subcommands, exit codes, determinism."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metricforge import cli, linalg, metric, models, phase

JC_ARGS = ["--model", "jc_doublet",
           "--params", "n=0,eps=0.5,omega=1,rho=0.125"]


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def as_complex(pair):
    return complex(pair[0], pair[1])


def as_matrix(rows):
    return np.array([[as_complex(x) for x in row] for row in rows])


# ---------------------------------------------------------------------------
# metric / compare / validate
# ---------------------------------------------------------------------------

def test_metric_jc_both(capsys):
    doc = run_json(capsys, ["metric", *JC_ARGS, "--method", "both"])
    res = doc["results"]
    assert res["comparison"]["verdict"] == "equal"
    expected = np.array([[1.0, -0.5], [-0.5, 1.0]])
    for method in ("spectral", "das"):
        m = as_matrix(res["metrics"][method]["matrix"])
        assert np.max(np.abs(m - expected)) < 1e-10
        assert res["metrics"][method]["report"]["positive"] is True
    assert doc["version"]
    assert len(doc["input_digest"]) == 64


def test_metric_pt_proportional(capsys):
    doc = run_json(capsys, [
        "metric", "--model", "pt_matrix",
        "--params", "r=1,theta=0.5235987755982988,s=1,t=1,phi=0",
        "--method", "both"])
    cmpres = doc["results"]["comparison"]
    assert cmpres["verdict"] == "proportional"
    assert abs(cmpres["factor"] - 4.0 / 3.0) < 1e-9
    spectral = as_matrix(doc["results"]["metrics"]["spectral"]["matrix"])
    assert np.max(np.abs(spectral - np.array([[1, -0.5j], [0.5j, 1]]))) < 1e-10


def test_metric_identity_matrix_input(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"matrix": {"h": [[1, 0], [0, 1]]}}))
    doc = run_json(capsys, ["metric", "--in", str(path), "--method", "spectral"])
    entry = doc["results"]["metrics"]["spectral"]
    assert as_matrix(entry["matrix"]).tolist() == np.eye(2).tolist()
    assert entry["report"]["intertwining_residual"] == 0.0


def test_metric_complex_matrix_input(capsys, tmp_path):
    # PT matrix spelled out with [re, im] entries plus its similarity
    th, s = 0.5, 1.2
    h = [[[math.cos(th), math.sin(th)], [s, 0]],
         [[s, 0], [math.cos(th), -math.sin(th)]]]
    sim = [[0, 1], [1, 0]]
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"matrix": {"h": h, "s": sim}}))
    doc = run_json(capsys, ["metric", "--in", str(path), "--method", "spectral"])
    rep = doc["results"]["metrics"]["spectral"]["report"]
    assert rep["intertwining_residual"] < 1e-10 and rep["positive"]


def test_metric_dirac_near_q0_pole(capsys):
    # 1e-7 from the pole of the diagonal reference metric q0
    doc = run_json(capsys, ["metric", "--model", "dirac_scalar", "--params",
                            "m0=1,kx=-0.5,v0=0.4999999", "--method", "both"])
    assert doc["results"]["comparison"]["verdict"] == "equal"


def test_compare_subcommand(capsys):
    doc = run_json(capsys, ["compare", *JC_ARGS])
    assert doc["results"]["comparison"]["verdict"] == "equal"


def test_validate_subcommand(capsys):
    doc = run_json(capsys, ["validate", *JC_ARGS])
    rep = doc["results"]["metrics"]["spectral"]["report"]
    assert rep["positive"] and rep["intertwining_residual"] < 1e-10


def test_validate_is_metric_with_spectral_default(capsys):
    validated = run_json(capsys, ["validate", *JC_ARGS])
    built = run_json(capsys, ["metric", *JC_ARGS, "--method", "spectral"])
    assert validated.pop("command") != built.pop("command")
    assert validated == built
    assert validated["tolerances"] == {
        "herm_tol": 1e-10, "defect_tol": 1e-8, "biorth_tol": 1e-10,
        "real_tol": 1e-9, "pos_tol": 1e-12, "cmp_tol": 1e-9, "ep_tol": 1e-10}


def test_das_requires_model_or_block(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"matrix": {"h": [[1, 0], [0, 2]]}}))
    code, _, err = run(capsys, ["metric", "--in", str(path), "--method", "das"])
    assert code == 4
    assert json.loads(err)["error"] == "InvalidParams"


def test_explicit_das_block(capsys, tmp_path):
    doc = {"matrix": {
        "h": [[1, 0], [0, 2]],
        "das": {
            "q0": [[1, 0], [0, 1]],
            "generators": [
                {"energy": 1, "sigma": [[1, 0], [0, 1]]},
                {"energy": 2, "sigma": [[0, 1], [1, 0]]},
            ],
            "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "phases": [1, 1],
        },
    }}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    out = run_json(capsys, ["metric", "--in", str(path), "--method", "das"])
    m = as_matrix(out["results"]["metrics"]["das"]["matrix"])
    assert np.allclose(m, np.eye(2))



def test_das_block_energy_and_phases_are_not_read(capsys, tmp_path):
    doc = {"matrix": {
        "h": [[1, 0], [0, 2]],
        "das": {
            "q0": [[1, 0], [0, 1]],
            "generators": [{"sigma": [[1, 0], [0, 1]]},
                           {"sigma": [[0, 1], [1, 0]]}],
            "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "phases": [1, 2],
        },
    }}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    out = run_json(capsys, ["metric", "--in", str(path), "--method", "das"])
    m = as_matrix(out["results"]["metrics"]["das"]["matrix"])
    assert np.allclose(m, np.eye(2))


def test_das_block_count_mismatch_exit_4(capsys, tmp_path):
    doc = {"matrix": {
        "h": [[1, 0], [0, 2]],
        "das": {
            "q0": [[1, 0], [0, 1]],
            "generators": [{"energy": 1, "sigma": [[1, 0], [0, 1]]}],
            "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        },
    }}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["metric", "--in", str(path), "--method", "das"])
    assert code == 4 and out == ""
    body = json.loads(err)
    assert body["error"] == "InvalidParams"
    assert "1 generators for 2 projectors" in body["message"]


def test_das_block_size_mismatch_exit_4(capsys, tmp_path):
    eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    doc = {"matrix": {
        "h": [[1, 0], [0, 2]],
        "das": {"q0": eye3, "generators": [{"energy": 1, "sigma": eye3}],
                "projectors": [eye3]},
    }}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["metric", "--in", str(path), "--method", "das"])
    assert code == 4 and out == ""
    body = json.loads(err)
    assert body["error"] == "InvalidParams"
    assert "match matrix.h in size" in body["message"]


def test_non_intertwining_s_exit_4(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"matrix": {"h": [[1, 0.2], [-0.2, 2]],
                                           "s": [[1, 1], [0, 1]]}}))
    code, out, err = run(capsys, ["metric", "--in", str(path),
                                  "--method", "spectral"])
    assert code == 4 and out == ""
    body = json.loads(err)
    assert body["error"] == "InvalidParams"
    assert "does not intertwine" in body["message"]

def _das_doc(d):
    """Explicit das block whose projectors are idempotent to about d."""
    return {"matrix": {
        "h": [[1, 0], [0, 2]],
        "das": {
            "q0": [[1, 0], [0, 1]],
            "generators": [
                {"energy": 1, "sigma": [[1, 0], [0, 1]]},
                {"energy": 2, "sigma": [[0, 1], [1, 0]]},
            ],
            "projectors": [[[1 + d, 0], [0, 0]], [[-d, 0], [0, 1]]],
        },
    }}


def test_inconsistent_das_block_exit_4(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_das_doc(1.0)))
    code, out, err = run(capsys, ["metric", "--in", str(path), "--method", "das"])
    assert code == 4 and out == ""
    body = json.loads(err)
    assert body["error"] == "InvalidParams"
    assert "not idempotent" in body["message"]


def test_biorth_tol_governs_das_check(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_das_doc(1e-8)))
    argv = ["metric", "--in", str(path), "--method", "das"]
    code, _, err = run(capsys, argv)
    assert code == 4 and json.loads(err)["error"] == "InvalidParams"
    out = run_json(capsys, argv + ["--tol", "biorth_tol=1e-6"])
    assert out["tolerances"]["biorth_tol"] == 1e-6
    m = as_matrix(out["results"]["metrics"]["das"]["matrix"])
    assert np.allclose(m, np.eye(2), atol=1e-7)


def test_das_block_not_resolving_identity_exit_4(capsys, tmp_path):
    # two copies of diag(1, 0): each idempotent, their sum diag(2, 0)
    doc = _das_doc(0.0)
    doc["matrix"]["das"]["projectors"] = [[[1, 0], [0, 0]]] * 2
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["metric", "--in", str(path), "--method", "das"])
    assert code == 4 and out == ""
    body = json.loads(err)
    assert body["error"] == "InvalidParams"
    assert "do not resolve the identity" in body["message"]


# The unbroken side of each 2x2 family's EP at 41 log-spaced relative
# distances delta in [1e-12, 1e-2]: (params at delta, how many of the 41
# points the model calls unbroken, the das-to-spectral verdict).  Near the
# EP the projectors grow like 1/delta^(1/2), and so does the rounding in
# their sum.
NEAR_EP = {
    "jc_doublet": (lambda d: {"n": 0, "epsilon": 0.5, "omega": 1.0,
                              "rho": 0.25 * (1.0 - d)}, 39, "equal"),
    "dirac_scalar": (lambda d: {"m0": 1.0, "kx": 0.0, "v0": 1.0 - d},
                     41, "equal"),
    "pt_matrix": (lambda d: {"r": 1.0, "theta": 0.5, "t": 1.0, "phi": 0.0,
                             "s": math.sin(0.5) ** 2 * (1.0 + d)},
                  38, "proportional"),
}


@pytest.mark.parametrize("family", sorted(NEAR_EP))
def test_compare_near_exceptional_point(capsys, family):
    params_at, count, verdict = NEAR_EP[family]
    points = [params_at(float(d)) for d in np.logspace(-12, -2, 41)]
    points = [p for p in points
              if models.build(family, p).phase == models.PHASE_UNBROKEN]
    assert len(points) == count
    for p in points:
        params = ",".join(f"{k}={v!r}" for k, v in p.items())
        doc = run_json(capsys, ["compare", "--model", family, "--params", params])
        assert doc["results"]["comparison"]["verdict"] == verdict


# ---------------------------------------------------------------------------
# exit codes and error bodies
# ---------------------------------------------------------------------------

_EXIT_OF_PHASE = {"unbroken": 0, "exceptional": 3, "broken": 2}


@pytest.mark.parametrize("family", sorted(NEAR_EP))
def test_one_label_per_model_point(capsys, family):
    # a delta grid that straddles the exact discriminant's exceptional band
    # (dirac_scalar's is narrower, so only |delta| <= 1e-13 falls inside):
    # every route exits as model show's phase says
    params_at = NEAR_EP[family][0]
    for delta in (1e-10, 1e-11, 3e-12, 1e-12, 1e-13, 0.0,
                  -1e-13, -1e-12, -3e-12, -1e-11, -1e-10):
        params = ",".join(f"{k}={v!r}" for k, v in params_at(delta).items())
        model = ["--model", family, "--params", params]
        label = run_json(capsys, ["model", "show", *model])["results"]["phase"]
        codes = [run(capsys, argv)[0] for argv in (
            ["metric", *model, "--method", "spectral"],
            ["metric", *model, "--method", "das"],
            ["compare", *model],
            ["evolve", *model, "--steps", "3"])]
        assert codes == [_EXIT_OF_PHASE[label]] * 4, (delta, label)


def test_broken_phase_exit_2(capsys):
    code, out, err = run(capsys, ["metric", "--model", "jc_doublet",
                                  "--params", "rho=0.3", "--method", "spectral"])
    assert code == 2 and out == ""
    body = json.loads(err)
    assert body["error"] == "BrokenPhase" and body["exit_code"] == 2


def test_defective_system_exit_3(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"matrix": {"h": [[1, 1], [0, 1]]}}))
    code, _, err = run(capsys, ["metric", "--in", str(path),
                                "--method", "spectral"])
    assert code == 3
    assert json.loads(err)["error"] in ("DefectiveMatrix", "DefectiveSystem")


def test_parse_errors_exit_4(capsys):
    for argv in (["metric", "--model", "nope", "--params", "x=1"],
                 ["metric", *JC_ARGS, "--method", "bogus"],
                 ["metric"],
                 ["metric", *JC_ARGS, "--tol", "nope=1"],
                 ["metric", *JC_ARGS, "--tol", "eig_tol=1"],
                 ["metric", "--model", "jc_doublet", "--params", "rho"],
                 ["metric", "--model", "jc_doublet", "--params", "foo=1"],
                 ["metric", "--model", "jc_doublet", "--params", "n=1.7"],
                 ["sweep", "--model", "nope", "--axis", "rho=0:0.5:3"],
                 ["sweep", "--model", "jc_doublet", "--params", "foo=1",
                  "--axis", "rho=0:0.5:3"],
                 ["sweep", "--model", "jc_doublet", "--params", "omega=-1",
                  "--axis", "rho=0:0.5:3"],
                 ["ep", "--model", "nope", "--param", "rho", "--lo", "0",
                  "--hi", "0.5"],
                 ["ep", "--model", "jc_doublet", "--params", "foo=1",
                  "--param", "rho", "--lo", "0", "--hi", "0.5"]):
        code, _, err = run(capsys, argv)
        assert code == 4, argv
        assert json.loads(err)["error"] == "InvalidParams"


_MODEL_ROUTES = {
    "metric": ["metric"], "validate": ["validate"], "compare": ["compare"],
    "evolve": ["evolve"], "model-show": ["model", "show"],
    "sweep": ["sweep", "--axis", "eps=0:0.5:3"],
    "ep": ["ep", "--param", "eps", "--lo", "0", "--hi", "2"],
}
_MATRIX_ROUTES = {"metric": ["metric", "--method", "spectral"],
                  "validate": ["validate"], "evolve": ["evolve"]}
_MALFORMED = [
    pytest.param(doc, argv, id=f"{name}-{route}")
    for name, doc, routes in (
        ("family-list", {"model": {"family": ["jc_doublet"]}}, _MODEL_ROUTES),
        ("params-number", {"model": {"family": "jc_doublet", "params": 5}},
         _MODEL_ROUTES),
        ("param-true", {"model": {"family": "jc_doublet",
                                  "params": {"rho": True}}}, _MODEL_ROUTES),
        ("n-false", {"model": {"family": "jc_doublet",
                               "params": {"n": False}}}, _MODEL_ROUTES),
        ("h-entry-true", {"matrix": {"h": [[True, 0], [0, 1]]}},
         _MATRIX_ROUTES),
        ("h-pair-false", {"matrix": {"h": [[[1, False], 0], [0, 1]]}},
         _MATRIX_ROUTES))
    for route, argv in routes.items()]


@pytest.mark.parametrize("doc, argv", _MALFORMED)
def test_malformed_document_exit_4(capsys, tmp_path, doc, argv):
    # a non-string family or non-object params, and a boolean where a
    # number belongs, are refused on every route, not read as 1 or 0
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, [*argv, "--in", str(path)])
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "InvalidParams"


@pytest.mark.parametrize("argv", [
    ["model", "show", "--model", "jc_full", "--params", "levels=65"],
    ["metric", "--model", "jc_full", "--params", "levels=1000"],
    ["evolve", "--model", "jc_full", "--params", "levels=100000"],
    ["sweep", "--model", "jc_full", "--params", "levels=1000",
     "--axis", "rho=0:0.1:3"],
    ["ep", "--model", "jc_full", "--params", "levels=1000", "--param", "rho",
     "--lo", "0", "--hi", "0.5"],
    ["model", "show", "--model", "jc_full", "--params", "levels=0"],
], ids=["show-65", "metric-1000", "evolve-1e5", "sweep-fixed", "ep", "zero"])
def test_levels_above_cap_exit_4(capsys, monkeypatch, argv):
    # refused before anything is allocated: building more levels than the
    # cap fails the test instead
    jc_full = models.jc_full

    def capped(p, levels):
        if levels > models.MAX_LEVELS:
            pytest.fail(f"built {levels} levels")
        return jc_full(p, levels)

    monkeypatch.setattr(models, "jc_full", capped)
    code, out, err = run(capsys, argv)
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "InvalidParams"
    # the cap itself is accepted
    assert math.isfinite(models.discriminant("jc_full",
                                             {"levels": models.MAX_LEVELS}))


_TWICE = {"same-name": "rho=0.1,rho=0.2", "alias-pair": "eps=0.5,epsilon=0.3"}
_TWICE_ROUTES = {"model-show": ["model", "show"], "metric": ["metric"],
                 "sweep": ["sweep", "--axis", "omega=1:2:3"]}


@pytest.mark.parametrize("route, params", [
    pytest.param(route, params, id=f"{route}-{name}")
    for name, params in _TWICE.items() for route in _TWICE_ROUTES])
def test_parameter_given_twice_exit_4(capsys, tmp_path, route, params):
    # the later value would win silently; refused in --params and, for the
    # alias pair, in an input document
    argv = _TWICE_ROUTES[route]
    given = [["--model", "jc_doublet", "--params", params]]
    if params == _TWICE["alias-pair"]:
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"model": {
            "family": "jc_doublet", "params": {"eps": 0.5, "epsilon": 0.3}}}))
        given.append(["--in", str(path)])
    for source in given:
        code, out, err = run(capsys, [*argv, *source])
        assert code == 4 and out == ""
        assert "twice" in json.loads(err)["message"]


def test_axis_overrides_an_alias_of_itself(capsys):
    # a fixed eps and a swept epsilon name one parameter: the axis sets it,
    # as it sets a fixed value under its own name
    for given in ("eps=0.9", "epsilon=0.9"):
        doc = run_json(capsys, ["sweep", "--model", "jc_doublet", "--params",
                                f"n=0,omega=1,rho=0.1,{given}",
                                "--axis", "epsilon=0.5:0.5:1"])
        point = doc["results"]["diagram"]["points"][0]
        assert point["error"] is None
        assert point["classification"] == "unbroken"
    doc = run_json(capsys, ["ep", "--model", "jc_doublet", "--params",
                            "n=0,omega=1,rho=0.125,eps=0.9",
                            "--param", "epsilon", "--lo", "0", "--hi", "0.9"])
    assert doc["results"]["value"] == pytest.approx(0.75, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["evolve", *JC_ARGS, "--hbar", "0"],
    ["evolve", *JC_ARGS, "--tmax", "nan"],
    ["evolve", *JC_ARGS, "--tmax", "inf"],
    ["evolve", *JC_ARGS, "--psi0", "nan,1"],
    ["discriminate", "--axis", "theta=0:nan:5"],
    ["discriminate", "--theta", "inf"],
    ["sweep", *JC_ARGS, "--axis", "rho=inf:1:3"],
    ["metric", *JC_ARGS, "--tol", "herm_tol=nan"],
    ["metric", *JC_ARGS, "--tol", "defect_tol=-1"],
], ids=["hbar-zero", "tmax-nan", "tmax-inf", "psi0-nan", "axis-nan",
        "theta-inf", "axis-inf", "tol-nan", "tol-negative"])
def test_non_finite_or_non_positive_numbers_exit_4(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "InvalidParams"


@pytest.mark.parametrize("argv", [
    ["metric"], ["validate"], ["compare"], ["evolve", "--steps", "5"],
    ["model", "show"], ["sweep", "--axis", "rho=0:0.5:3"],
    ["ep", "--param", "rho", "--lo", "0", "--hi", "0.5"], ["discriminate"],
], ids=["metric", "validate", "compare", "evolve", "model-show", "sweep",
        "ep", "discriminate"])
def test_params_without_model_exit_4(capsys, tmp_path, argv):
    # --params is read only beside --model: with --in, or alone, it would
    # be accepted and never read
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"model": {"family": "jc_doublet",
                                          "params": {"rho": 0.1}}}))
    for given in (["--in", str(path)], []):
        code, out, err = run(capsys, [*argv, *given, "--params", "rho=0.2"])
        assert code == 4 and out == ""
        body = json.loads(err)
        assert body["error"] == "InvalidParams"
        assert body["message"] == "--params needs --model"


@pytest.mark.parametrize("argv", [
    ["model", "show", "--model", "jc_full", "--params", "levels=1,n=5"],
    ["sweep", "--model", "jc_full", "--params", "levels=1",
     "--axis", "n=0:3:4"],
], ids=["model-show", "sweep"])
def test_jc_full_refuses_doublet_index_exit_4(capsys, argv):
    # jc_full takes levels; an n would be accepted and never read
    code, out, err = run(capsys, argv)
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "InvalidParams"


@pytest.mark.parametrize("axes", [
    ["rho=0:0.1:2", "rho=0.3:0.4:2"],
    ["eps=0:0.5:2", "epsilon=0.6:0.7:2"],
], ids=["same-name", "alias-pair"])
def test_sweep_repeated_axis_exit_4(capsys, monkeypatch, axes):
    # the later axis would override the earlier at every point; refused
    # before any model is built
    monkeypatch.setattr(models, "build", lambda *a, **k: pytest.fail("built"))
    argv = ["sweep", "--model", "jc_doublet"]
    for axis in axes:
        argv += ["--axis", axis]
    code, out, err = run(capsys, argv)
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "InvalidParams"


def test_evolve_steps_above_cap_exit_4(capsys, monkeypatch):
    # --steps is capped like every --axis grid, before the time grid is
    # allocated: a grid above the cap fails the test instead
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 20)
    linspace = np.linspace

    def capped(start, stop, num, *args, **kwargs):
        assert num <= 20, num
        return linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", capped)
    for steps in ("21", "1"):
        code, out, err = run(capsys, ["evolve", *JC_ARGS, "--steps", steps])
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == "InvalidParams"
    # both ends of the range are accepted
    for steps in ("20", "2"):
        run_json(capsys, ["evolve", *JC_ARGS, "--steps", steps])


def test_malformed_axis_exit_2(capsys):
    code, _, err = run(capsys, ["sweep", *JC_ARGS, "--axis", "rho=0:0.5"])
    assert code == 2
    assert json.loads(err)["error"] == "AxisError"


@pytest.mark.parametrize("argv", [
    ["sweep", *JC_ARGS, "--axis", "rho=0:0.5:1000000000000"],
    ["sweep", *JC_ARGS, "--axis", "rho=0:0.5:1001",
     "--axis", "eps=0:0.7:1000"],
    ["discriminate", "--axis", "theta=0:1:1000001"],
], ids=["axis-count", "grid-product", "discriminate-axis"])
def test_grid_above_cap_exit_2(capsys, monkeypatch, argv):
    # refused before anything is allocated: a grid above the cap or any
    # sweep fails the test instead
    linspace = np.linspace

    def capped(start, stop, num, *args, **kwargs):
        assert num <= 10 ** 6, num
        return linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", capped)
    monkeypatch.setattr(phase, "sweep", lambda *a, **k: pytest.fail("swept"))
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "AxisError"


def test_unknown_axis_name_exit_4(capsys):
    code, out, err = run(capsys, ["sweep", "--model", "jc_doublet",
                                  "--axis", "rhoo=0:0.5:3"])
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "InvalidParams"
    # an alias is a known name
    doc = run_json(capsys, ["sweep", "--model", "jc_doublet",
                            "--axis", "eps=0:0.5:3"])
    points = doc["results"]["diagram"]["points"]
    assert len(points) == 3 and all(p["error"] is None for p in points)


# ---------------------------------------------------------------------------
# sweep / ep
# ---------------------------------------------------------------------------

def test_sweep_jc(capsys, tmp_path):
    out_dir = tmp_path / "swp"
    doc = run_json(capsys, ["sweep", "--model", "jc_doublet",
                            "--params", "eps=0.5,omega=1,n=0",
                            "--axis", "rho=0:0.5:51", "--out", str(out_dir)])
    brackets = doc["results"]["ep_brackets"]
    assert brackets
    assert all(b["lo"] <= 0.26 and b["hi"] >= 0.24 for b in brackets)
    csv_lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 52
    assert json.loads((out_dir / "result.json").read_text()) == doc


def test_sweep_model_without_family_exit_4(capsys, tmp_path):
    path = tmp_path / "in.json"
    # no family, no mapping, a base value that is no number
    for model in ({"params": {"rho": 0.1}}, 3,
                  {"family": "jc_doublet", "params": {"omega": "fast"}}):
        path.write_text(json.dumps({"model": model}))
        code, out, err = run(capsys, ["sweep", "--in", str(path),
                                      "--axis", "rho=0:0.5:3"])
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == "InvalidParams"
    # the digest of a valid document covers only the model's family and params
    model = {"family": "jc_doublet", "params": {"rho": 0.1}}
    path.write_text(json.dumps({"model": {**model, "note": 1}, "comment": 2}))
    doc = run_json(capsys, ["sweep", "--in", str(path), "--axis", "rho=0:0.5:3"])
    want = hashlib.sha256(cli.dumps_canonical({"model": model}).encode("utf-8"))
    assert doc["input_digest"] == want.hexdigest()


def test_sweep_dirac_ep_location(capsys, tmp_path):
    doc = run_json(capsys, ["sweep", "--model", "dirac_scalar",
                            "--params", "m0=1,c=1,kx=0",
                            "--axis", "v0=0:2:201"])
    brackets = doc["results"]["ep_brackets"]
    assert brackets
    assert all(abs(0.5 * (b["lo"] + b["hi"]) - 1.0) <= 0.011 for b in brackets)


def test_sweep_single_point(capsys, tmp_path):
    out_dir = tmp_path / "one"
    run_json(capsys, ["sweep", "--model", "jc_doublet", "--params", "rho=0.1",
                      "--axis", "rho=0.1:0.1:1", "--out", str(out_dir)])
    assert len((out_dir / "sweep.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("argv, name, base", [
    (["ep", "--model", "dirac_scalar", "--params", "m0=0,kx=1,v0=1",
      "--param", "kx", "--lo", "0.5", "--hi", "2"], "kx", 1.0),
    (["sweep", "--model", "pt_matrix", "--params",
      "r=1,theta=0.5,s=-1,t=-1,phi=0", "--axis", "s=0.5:1:3"], "s", -1.0),
], ids=["ep", "sweep"])
def test_overridden_base_value_is_not_built(capsys, monkeypatch, argv, name,
                                            base):
    # ep and sweep build or judge the model only at their own values of
    # the varied parameter, never at its base value
    seen = []
    for attr in ("build", "discriminant"):
        def wrapped(family, params, _inner=getattr(models, attr)):
            seen.append(float(params[name]))
            return _inner(family, params)
        monkeypatch.setattr(models, attr, wrapped)
    doc = run_json(capsys, argv)
    assert seen and base not in seen
    if argv[0] == "ep":
        assert doc["results"]["value"] == pytest.approx(1.0, abs=1e-9)
    else:
        assert [p["classification"] for p in doc["results"]["diagram"]["points"]
                ] == ["broken"] * 3


def test_ep_subcommand(capsys):
    doc = run_json(capsys, ["ep", "--model", "jc_doublet",
                            "--params", "eps=0.5,omega=1,n=0",
                            "--param", "rho", "--lo", "0", "--hi", "0.5"])
    assert abs(doc["results"]["value"] - 0.25) < 1e-8


def test_ep_no_bracket_exit_2(capsys):
    code, _, err = run(capsys, ["ep", "--model", "jc_doublet",
                                "--params", "eps=0.5,omega=1",
                                "--param", "rho", "--lo", "0", "--hi", "0.1"])
    assert code == 2
    assert json.loads(err)["error"] == "NoBracket"


# ---------------------------------------------------------------------------
# evolve / discriminate
# ---------------------------------------------------------------------------

def test_evolve_unbroken_summary(capsys, tmp_path):
    out_dir = tmp_path / "evo"
    doc = run_json(capsys, ["evolve", *JC_ARGS, "--psi0", "0.6,0:0.8",
                            "--out", str(out_dir)])
    res = doc["results"]
    assert res["classification"] == "unbroken"
    assert res["max_metric_norm_deviation"] <= 1e-8
    assert res["max_standard_norm_deviation"] > 1e-4
    lines = (out_dir / "evolution.csv").read_text().splitlines()
    assert len(lines) == 102


@pytest.mark.parametrize("psi0", ["1e308,1e308", "1e-320,1e-320"])
def test_psi0_extreme_entries_normalize(capsys, psi0):
    # neither the squares of huge entries overflow nor those of tiny ones
    # underflow: the state is that of --psi0 1,1
    ref = run_json(capsys, ["evolve", *JC_ARGS, "--psi0", "1,1"])
    doc = run_json(capsys, ["evolve", *JC_ARGS, "--psi0", psi0])
    assert doc["results"] == ref["results"]


def test_evolve_broken_requires_override(capsys):
    code, _, err = run(capsys, ["evolve", "--model", "jc_doublet",
                                "--params", "rho=0.3"])
    assert code == 2
    assert json.loads(err)["error"] == "BrokenPhase"


def test_evolve_broken_growth_rate(capsys):
    doc = run_json(capsys, ["evolve", "--model", "jc_doublet",
                            "--params", "rho=0.3", "--allow-broken"])
    gamma = math.sqrt(0.11) / 2.0
    assert abs(doc["results"]["growth_rate"] - gamma) / gamma < 0.01


def test_evolve_no_growth_rate_at_exceptional_point(capsys):
    # at an EP the norm grows like a power of t, so an exponential rate fit
    # to the trailing window would depend only on --tmax
    doc = run_json(capsys, ["evolve", "--model", "jc_doublet", "--params",
                            "n=0,eps=0.5,omega=1,rho=0.25", "--allow-broken",
                            "--steps", "21"])
    assert doc["results"]["classification"] == "exceptional"
    assert "growth_rate" not in doc["results"]


def test_evolve_overflow_exit_4(capsys):
    # the growing mode overflows long before t = 1e4
    code, _, err = run(capsys, ["evolve", "--model", "jc_doublet",
                                "--params", "rho=0.3", "--allow-broken",
                                "--tmax", "1e4", "--steps", "5"])
    assert code == 4
    body = json.loads(err)
    assert body["error"] == "InvalidParams"
    assert "--tmax" in body["message"] and "t = 2500.0 " in body["message"]


def test_discriminate_point(capsys):
    doc = run_json(capsys, ["discriminate", "--theta", "1.0471975511965976",
                            "--eps", "0.05"])
    res = doc["results"]
    assert abs(as_complex(res["standard_overlap"]) - math.cos(0.05)) < 1e-12
    assert res["distinguishability_gain"] != 0.0


def test_discriminate_eps_zero_gain_zero(capsys):
    doc = run_json(capsys, ["discriminate", "--eps", "0"])
    assert doc["results"]["distinguishability_gain"] == 0.0


def test_discriminate_scan(capsys, tmp_path):
    out_dir = tmp_path / "scan"
    doc = run_json(capsys, ["discriminate", "--eps", "0.05",
                            "--axis", "theta=0:1.5707963267948966:91",
                            "--out", str(out_dir)])
    assert doc["results"]["rows"] == 91
    assert len((out_dir / "scan.csv").read_text().splitlines()) == 92


def test_discriminate_sin_theta_from_model(capsys):
    doc = run_json(capsys, ["discriminate", *JC_ARGS])
    assert abs(doc["results"]["sin_theta"] - 0.5) < 1e-12


def test_discriminate_sin_theta_flag(capsys):
    assert run_json(capsys, ["discriminate"])["results"]["sin_theta"] == 0.5
    doc = run_json(capsys, ["discriminate", "--sin-theta", "0.9"])
    assert doc["results"]["sin_theta"] == 0.9


@pytest.mark.parametrize("argv", [
    ["--model", "jc_doublet", "--params", "rho=0.1", "--sin-theta", "0.9"],
    ["--model", "jc_doublet", "--params", "n=2,eps=0.5,omega=1,rho=0.1"],
    ["--in", "h.json", "--sin-theta", "0.9"],
    ["--axis", "theta=0:1:3", "--theta", "0.3"],
], ids=["model-and-flag", "doublet-2", "matrix-and-flag", "theta-and-axis"])
def test_discriminate_one_source_exit_4(capsys, tmp_path, monkeypatch, argv):
    # the metric's first block is doublet 0: its sin theta_1 comes from
    # --sin-theta or from an n = 0 jc_doublet, never from both and never
    # from another doublet (at n = 2 the model's sin theta_3 is 0.693);
    # a scan reads its thetas from --axis, never from --theta as well
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.json").write_text(
        json.dumps({"matrix": {"h": [[1, 0], [0, 2]]}}))
    code, out, err = run(capsys, ["discriminate", *argv])
    assert code == 4 and out == ""
    body = json.loads(err)
    assert body["error"] == "InvalidParams"
    # the message names no model input unless one was given
    assert "model" not in body["message"] or "--model" in argv


@pytest.mark.parametrize("source", ["pt_matrix", "matrix", "jc_full"])
def test_discriminate_other_inputs_exit_4(capsys, tmp_path, source):
    if source == "matrix":
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"matrix": {"h": [[1, 1], [0, 1]]}}))
        given = ["--in", str(path)]
    elif source == "pt_matrix":
        given = ["--model", "pt_matrix",
                 "--params", "r=1,theta=0.5,s=1,t=1,phi=0"]
    else:
        given = ["--model", "jc_full", "--params", "levels=2,rho=0.05"]
    code, _, err = run(capsys, ["discriminate", *given, "--theta", "0.7"])
    assert code == 4
    assert json.loads(err)["error"] == "InvalidParams"


@pytest.mark.parametrize("rho, code, error", [
    ("0.3", 2, "BrokenPhase"),
    ("0.25", 3, "DefectiveSystem"),
], ids=["broken", "exceptional"])
def test_discriminate_refuses_doublet_without_metric(capsys, rho, code, error):
    got, _, err = run(capsys, ["discriminate", "--model", "jc_doublet",
                               "--params", f"n=0,eps=0.5,omega=1,rho={rho}"])
    assert got == code
    assert json.loads(err)["error"] == error


def _matrix_doc(path, n=8):
    """An input document holding H = A diag(1..n) A^-1 (real spectrum)."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = a @ np.diag(np.arange(1.0, n + 1.0)) @ np.linalg.inv(a)
    path.write_text(json.dumps(
        {"matrix": {"h": [[[z.real, z.imag] for z in row] for row in h]}}))
    return str(path)


# kernel calls per command: evolve decomposes a matrix input once for the
# label and the metric, as metric does, and once more in the propagator; a
# model input is judged by its discriminant, never decomposed for its metric
# and never LU-factored for its S; a scan checks its metric once, compare
# validates neither metric, and a sweep judges its 2x2 points in one stack
@pytest.mark.parametrize("argv, counts", [
    (["metric", "--in", None, "--method", "spectral"],
     {"eigendecompose": 1, "inverse": 1, "hermitian_spectrum": 1,
      "biorthonormalize": 1, "spectral_metric": 1, "validate_metric": 1}),
    (["evolve", "--in", None],
     {"eigendecompose": 2, "inverse": 2, "hermitian_spectrum": 0,
      "biorthonormalize": 1, "spectral_metric": 1, "validate_metric": 0}),
    (["evolve", *JC_ARGS],  # judged by its discriminant; the one inverse
     # is the propagator's
     {"eigendecompose": 1, "inverse": 1, "hermitian_spectrum": 0,
      "biorthonormalize": 0, "spectral_metric": 0, "validate_metric": 0}),
    (["metric", *JC_ARGS, "--method", "both"],  # closed forms only; das:
     # one inverse per sigma
     {"eigendecompose": 0, "inverse": 2, "hermitian_spectrum": 2,
      "biorthonormalize": 0, "spectral_metric": 1, "validate_metric": 2}),
    (["discriminate", "--eps", "0.05", "--axis", "theta=0:1.5707963267948966:91"],
     {"eigendecompose": 0, "inverse": 0, "hermitian_spectrum": 1,
      "biorthonormalize": 0, "spectral_metric": 0, "validate_metric": 0}),
    (["compare", *JC_ARGS],  # das: one inverse per sigma
     {"eigendecompose": 0, "inverse": 2, "hermitian_spectrum": 0,
      "biorthonormalize": 0, "spectral_metric": 1, "validate_metric": 0}),
    (["sweep", "--model", "jc_doublet", "--params", "n=0,omega=1",
      "--axis", "rho=0:0.5:11", "--axis", "eps=0:1:5"],  # one stacked judge
     {"eigendecompose": 0, "inverse": 0, "hermitian_spectrum": 0,
      "biorthonormalize": 0, "spectral_metric": 0, "validate_metric": 0}),
    (["sweep", "--model", "jc_full", "--params", "levels=2,eps=0.5,omega=1",
      "--axis", "rho=0:0.1:3"],  # 5x5: the per-point judge
     {"eigendecompose": 3, "inverse": 3, "hermitian_spectrum": 3,
      "biorthonormalize": 3, "spectral_metric": 3, "validate_metric": 0}),
], ids=["metric-in-n8", "evolve-in-n8", "evolve-model", "metric-model",
        "discriminate-axis", "compare", "sweep-2x2", "sweep-jc_full"])
def test_kernel_calls_per_command(capsys, monkeypatch, tmp_path, argv, counts):
    calls = dict.fromkeys(counts, 0)
    for module, names in (
            (linalg, ("eigendecompose", "inverse", "hermitian_spectrum")),
            (metric, ("biorthonormalize", "spectral_metric", "validate_metric"))):
        for name in names:
            def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    argv = [_matrix_doc(tmp_path / "h.json") if a is None else a for a in argv]
    run_json(capsys, argv)
    assert calls == counts


# ---------------------------------------------------------------------------
# model show
# ---------------------------------------------------------------------------

def test_model_show(capsys):
    doc = run_json(capsys, ["model", "show", *JC_ARGS])
    res = doc["results"]
    assert res["family"] == "jc_doublet"
    assert res["phase"] == "unbroken"
    assert as_matrix(res["metric"]).tolist() == [[1.0, -0.5], [-0.5, 1.0]]
    vals = [as_complex(v) for v in res["eigenvalues"]]
    root = math.sqrt(0.1875) / 2.0
    assert abs(vals[0] - (0.5 - root)) < 1e-12


@pytest.mark.parametrize("v0", ["1", "-1"])
def test_model_show_dirac_where_both_candidates_are_singular(capsys, v0):
    # |v0| = m0 c^2 = |c hbar k|: disc = 1, eigenvalues -1 and +1
    doc = run_json(capsys, ["model", "show", "--model", "dirac_scalar",
                            "--params", f"m0=1,kx=1,v0={v0}"])
    res = doc["results"]
    assert res["phase"] == "unbroken"
    assert [as_complex(v) for v in res["eigenvalues"]] == [-1.0, 1.0]


def test_massless_dirac_exceptional_point(capsys):
    # at the EP and inside its band (discriminant 2e-13): the model's
    # discriminant judges every route
    for v0 in ("1", "0.9999999999999"):
        params = ["--model", "dirac_scalar", "--params", f"m0=0,kx=1,v0={v0}"]
        doc = run_json(capsys, ["model", "show", *params])
        assert doc["results"]["phase"] == "exceptional"
        for command in ("metric", "compare", "evolve"):
            code, _, err = run(capsys, [command, *params])
            assert code == 3, (v0, command)
            assert json.loads(err)["error"] == "DefectiveSystem"
        doc = run_json(capsys, ["sweep", "--model", "dirac_scalar", "--params",
                                "m0=0,kx=1", "--axis", f"v0={v0}:{v0}:1"])
        assert doc["results"]["diagram"]["points"][0]["error"] is None


# ---------------------------------------------------------------------------
# determinism and serialization
# ---------------------------------------------------------------------------

def test_identical_invocations_byte_identical(capsys):
    argv = ["metric", "--model", "pt_matrix",
            "--params", "r=0.7,theta=0.4,s=2,t=0.5,phi=0.9",
            "--method", "both"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_tolerances_echoed_and_overridable(capsys):
    doc = run_json(capsys, ["metric", *JC_ARGS, "--method", "spectral",
                            "--tol", "pos_tol=1e-6"])
    assert doc["tolerances"]["pos_tol"] == 1e-6
    assert doc["tolerances"]["real_tol"] == 1e-9


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_serialization_round_trips(x):
    assert json.loads(cli.dumps_canonical(x)) == x


def test_canonical_json_sorted_keys():
    text = cli.dumps_canonical({"b": 1, "a": [2.5, {"z": None, "y": True}]})
    assert text == '{"a": [2.5, {"y": true, "z": null}], "b": 1}'


def test_output_round_trip(capsys):
    doc = run_json(capsys, ["metric", *JC_ARGS, "--method", "both"])
    assert json.loads(cli.dumps_canonical(doc)) == doc
