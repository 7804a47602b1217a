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


@pytest.mark.parametrize("argv", [
    # the base value of kx gives a singular similarity, but ep never uses it
    ["ep", "--model", "dirac_scalar", "--params", "m0=0,kx=1,v0=1",
     "--param", "kx", "--lo", "0.5", "--hi", "2"],
    # s = t = -1 at the base point is refused by pt_matrix; the axis sets s > 0
    ["sweep", "--model", "pt_matrix", "--params", "r=1,theta=0.5,s=-1,t=-1,phi=0",
     "--axis", "s=0.5:1:3"],
], ids=["ep", "sweep"])
def test_overridden_base_value_is_not_built(capsys, argv):
    doc = run_json(capsys, argv)
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
# model input is judged by its discriminant and never decomposed for its
# metric; a scan checks its metric once, and compare validates neither metric
@pytest.mark.parametrize("argv, counts", [
    (["metric", "--in", None, "--method", "spectral"],
     {"eigendecompose": 1, "inverse": 1, "hermitian_spectrum": 1,
      "biorthonormalize": 1, "spectral_metric": 1, "validate_metric": 1}),
    (["evolve", "--in", None],
     {"eigendecompose": 2, "inverse": 2, "hermitian_spectrum": 0,
      "biorthonormalize": 1, "spectral_metric": 1, "validate_metric": 0}),
    (["evolve", *JC_ARGS],  # judged by its discriminant; the model's
     # self-check of S makes one inverse, the propagator the other
     {"eigendecompose": 1, "inverse": 2, "hermitian_spectrum": 0,
      "biorthonormalize": 0, "spectral_metric": 0, "validate_metric": 0}),
    (["metric", *JC_ARGS, "--method", "both"],  # closed forms only
     {"eigendecompose": 0, "inverse": 3, "hermitian_spectrum": 2,
      "biorthonormalize": 0, "spectral_metric": 1, "validate_metric": 2}),
    (["discriminate", "--eps", "0.05", "--axis", "theta=0:1.5707963267948966:91"],
     {"eigendecompose": 0, "inverse": 0, "hermitian_spectrum": 1,
      "biorthonormalize": 0, "spectral_metric": 0, "validate_metric": 0}),
    (["compare", *JC_ARGS],  # das: one inverse per sigma
     {"eigendecompose": 0, "inverse": 3, "hermitian_spectrum": 0,
      "biorthonormalize": 0, "spectral_metric": 1, "validate_metric": 0}),
], ids=["metric-in-n8", "evolve-in-n8", "evolve-model", "metric-model",
        "discriminate-axis", "compare"])
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
