"""The README's examples run as written: the library quick start prints the
values its comments state, and every CLI line exits 0."""

import ast
import json
import pathlib
import re
import shlex

import numpy as np

from metricforge import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _quick_start() -> dict:
    """Run the quick start; its printed values, in order, go to "printed"."""
    printed = []
    namespace = {"print": printed.append}
    exec(_block("Library quick start", "python"), namespace)
    namespace["printed"] = printed
    return namespace


def test_library_quick_start_outputs():
    source = _block("Library quick start", "python")
    expected = [line.partition("#")[2].strip() for line in source.splitlines()
                if line.startswith("print(")]
    printed = _quick_start()["printed"]
    assert len(printed) == len(expected)
    for value, comment in zip(printed, expected):
        if not comment:
            continue
        if isinstance(value, str):
            assert value == comment
        else:
            assert np.allclose(value, ast.literal_eval(comment),
                               rtol=0.0, atol=1e-12)


def test_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    h = _quick_start()["inst"].hamiltonian
    monkeypatch.chdir(tmp_path)
    (tmp_path / "system.json").write_text(json.dumps(
        {"matrix": {"h": [[[z.real, z.imag] for z in row] for row in h]}}))
    lines = [line for line in _block("CLI", "sh").splitlines()
             if line.startswith("metricforge ")]
    assert lines
    for line in lines:
        code = cli.main(shlex.split(line)[1:])
        err = capsys.readouterr().err
        assert code == 0, (line, err)
