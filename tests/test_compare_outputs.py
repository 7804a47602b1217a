"""scripts/compare_outputs.py: a tree matches itself, and a changed
constant is reported field by field."""

import importlib.util
import math
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = compare_outputs  # dataclasses look the module up
_spec.loader.exec_module(compare_outputs)

# a model input, a 2-D sweep with --out files, a refusal and model show
SUBSET = [cmd for cmd in compare_outputs.COMMANDS
          if cmd[0] in ("readme-metric", "sweep-2d", "exit3-jordan",
                        "model-show-pt_matrix-unbroken")]


def test_tree_matches_itself():
    assert len(SUBSET) == 4
    assert compare_outputs.compare_trees(ROOT, ROOT, SUBSET) == {}


def test_changed_constant_is_reported(tmp_path):
    shutil.copytree(ROOT / "src" / "metricforge",
                    tmp_path / "src" / "metricforge",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "metricforge" / "metric.py"
    text = path.read_text(encoding="utf-8")
    assert text.count("CMP_TOL = 1e-9\n") == 1
    path.write_text(text.replace("CMP_TOL = 1e-9\n", "CMP_TOL = 2e-9\n"),
                    encoding="utf-8")
    differing = compare_outputs.compare_trees(ROOT, tmp_path, SUBSET)
    # every document echoes its tolerances; the refusal's error body does not
    assert sorted(differing) == ["model-show-pt_matrix-unbroken",
                                 "readme-metric", "sweep-2d"]
    change = "tolerances.cmp_tol: largest relative change 5.000e-01"
    assert differing["readme-metric"] == [f"stdout {change}"]
    assert differing["sweep-2d"] == [f"stdout {change}",
                                     f"file result.json {change}"]


def test_experiment_scripts_run_against_each_tree(tmp_path):
    scripts = [cmd for cmd in compare_outputs.COMMANDS
               if cmd[1][0].startswith("scripts/")]
    assert [name for name, _ in scripts] == ["script-run_phase_sweep",
                                             "script-run_discrimination_scan"]
    outcome = compare_outputs.run_command(ROOT, tmp_path, scripts[0][1])
    assert outcome.code == 0
    csvs = ["dirac_scalar_v0.csv", "jc_doublet_rho.csv", "pt_matrix_s.csv"]
    assert sorted(outcome.files) == csvs
    # the change tree's own script and package run: fewer digits in the
    # sweep CSV show in every file it writes and nowhere else
    shutil.copytree(ROOT / "src" / "metricforge",
                    tmp_path / "src" / "metricforge",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "scripts", tmp_path / "scripts",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "metricforge" / "phase.py"
    text = path.read_text(encoding="utf-8")
    assert text.count('format(pt.params[n], ".17g")') == 1
    path.write_text(text.replace('format(pt.params[n], ".17g")',
                                 'format(pt.params[n], ".6g")'),
                    encoding="utf-8")
    differing = compare_outputs.compare_trees(ROOT, tmp_path, scripts[:1])
    assert sorted(differing) == ["script-run_phase_sweep"]
    assert {line.split()[1] for line in differing["script-run_phase_sweep"]} \
        == set(csvs)


def test_nan_to_number_is_reported():
    # a CSV cell that turns from nan into a number, or from inf into -inf,
    # is an infinite change, not none
    parent = b"x,y,z\nnan,inf,1\n"
    change = b"x,y,z\n0,-inf,1\n"
    assert compare_outputs.field_changes(parent, change, "t.csv") == {
        "x[]": math.inf, "y[]": math.inf}
