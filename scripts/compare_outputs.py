#!/usr/bin/env python3
"""Run one committed command list against two source trees and compare.

    python scripts/compare_outputs.py --parent DIR --change DIR

Each DIR is a checkout whose ``src`` holds the ``metricforge`` package.
Every command in COMMANDS runs as ``python -m metricforge.cli ARGS`` in a
fresh subprocess, with PYTHONPATH set to that tree's ``src``, one BLAS
thread, and as working directory a per-side folder holding the same input
files (INPUTS), so the echoed command line and the input digests agree.
A command whose first word is ``scripts/NAME.py`` runs that tree's own
experiment script the same way.  The exit code, stdout, stderr and every
file written under ``--out`` are compared byte for byte.  For each
differing JSON field or CSV column the largest relative numeric change is
printed, with list indices folded
(``results.metrics.spectral.matrix[][][]``).  Exits 0 when every command
matches and 1 otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

# the quick-start doublet (eps 0.5, omega 1, rho 0.125) as a matrix input
_JC_H = [[0.25, 0.125], [-0.125, 0.75]]


def _chain(n: int = 8, gamma: float = 0.3) -> list:
    """Open n-site chain, hopping 1, gain and loss +-i gamma at its ends:
    a real spectrum for small gamma, and the exchange matrix intertwines it
    (P H P = H^dagger)."""
    h = [[1.0 if abs(i - j) == 1 else 0.0 for j in range(n)] for i in range(n)]
    h[0][0], h[n - 1][n - 1] = [0.0, gamma], [0.0, -gamma]
    return h


_EXCHANGE = [[1.0 if i + j == 7 else 0.0 for j in range(8)] for i in range(8)]

INPUTS = {
    "system.json": {"matrix": {"h": _JC_H}},
    "chain8.json": {"matrix": {"h": _chain(), "s": _EXCHANGE}},
    "jordan.json": {"matrix": {"h": [[1, 1], [0, 1]]}},
    "das_not_identity.json": {"matrix": {
        "h": [[1, 0], [0, 2]],
        "das": {"q0": [[1, 0], [0, 1]],
                "generators": [{"sigma": [[1, 0], [0, 1]]},
                               {"sigma": [[0, 1], [1, 0]]}],
                "projectors": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]}}},
    "das_not_hermitian.json": {"matrix": {
        "h": [[1, 0], [0, 2]],
        "das": {"q0": [[1, 1], [0, 1]],
                "generators": [{"sigma": [[1, 0], [0, 1]]},
                               {"sigma": [[1, 0], [0, 1]]}],
                "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}}},
    # malformed documents, each refused with exit 4
    "family_list.json": {"model": {"family": ["jc_doublet"]}},
    "params_number.json": {"model": {"family": "jc_doublet", "params": 5}},
    "param_true.json": {"model": {"family": "jc_doublet",
                                  "params": {"rho": True}}},
    "entry_true.json": {"matrix": {"h": [[True, 0], [0, 1]]}},
}

# (family, params) at an unbroken point, an exact exceptional point and a
# broken point; each EP makes the discriminant exactly zero
_POINTS = {
    "jc_doublet": ("n=0,eps=0.5,omega=1,rho=0.125",
                   "n=0,eps=0.5,omega=1,rho=0.25",
                   "n=0,eps=0.5,omega=1,rho=0.3"),
    "jc_full": ("levels=3,eps=0.5,omega=1,rho=0.1",
                "levels=4,eps=0.5,omega=1,rho=0.125",
                "levels=3,eps=0.5,omega=1,rho=0.2"),
    "pt_matrix": ("r=1,theta=0.5,s=1,t=1,phi=0.3",
                  "r=1,theta=1.5707963267948966,s=1,t=1,phi=0",
                  "r=1,theta=1.2,s=0.5,t=0.5,phi=0"),
    "dirac_scalar": ("m0=1,kx=0.3,v0=0.5",
                     "m0=1,kx=0,v0=1",
                     "m0=1,kx=0.3,v0=1.5"),
}


def _near_ep_params(family: str, delta: float) -> str:
    """Each 2x2 family at relative distance delta from its EP, on the
    unbroken side for delta > 0 and the broken side for delta < 0."""
    if family == "jc_doublet":
        return f"n=0,eps=0.5,omega=1,rho={0.25 * (1.0 - delta)!r}"
    if family == "dirac_scalar":
        return f"m0=1,kx=0,v0={1.0 - delta!r}"
    return f"r=1,theta=0.5,t=1,phi=0,s={math.sin(0.5) ** 2 * (1.0 + delta)!r}"


def _commands() -> list:
    cmds = [
        # the README CLI examples
        ("readme-metric", ["metric", "--model", "jc_doublet", "--params",
                           "n=0,eps=0.5,omega=1,rho=0.125", "--method", "both"]),
        ("readme-metric-in", ["metric", "--in", "system.json",
                              "--method", "spectral"]),
        ("readme-sweep", ["sweep", "--model", "dirac_scalar", "--params",
                          "m0=1,kx=0", "--axis", "v0=0:2:201",
                          "--out", "out/readme-sweep"]),
        ("readme-ep", ["ep", "--model", "jc_doublet", "--params",
                       "eps=0.5,omega=1,n=0", "--param", "rho",
                       "--lo", "0", "--hi", "0.5"]),
        ("readme-evolve", ["evolve", "--model", "jc_doublet", "--params",
                           "rho=0.125", "--psi0", "0.6,0:0.8"]),
        ("readme-discriminate", ["discriminate", "--theta", "1.047",
                                 "--eps", "0.05"]),
        ("readme-model-show", ["model", "show", "--model", "pt_matrix",
                               "--params", "r=1,theta=0.5,s=1,t=1,phi=0"]),
    ]
    for family, points in _POINTS.items():
        for label, params in zip(("unbroken", "ep", "broken"), points):
            model = ["--model", family, "--params", params]
            tag = f"{family}-{label}"
            cmds += [
                (f"metric-{tag}", ["metric", *model, "--method", "both"]),
                (f"compare-{tag}", ["compare", *model]),
                (f"evolve-{tag}", ["evolve", *model, "--allow-broken",
                                   "--steps", "21", "--out", f"out/evolve-{tag}"]),
                (f"model-show-{tag}", ["model", "show", *model]),
            ]
    cmds += [
        ("matrix8-metric", ["metric", "--in", "chain8.json",
                            "--method", "spectral"]),
        ("matrix8-evolve", ["evolve", "--in", "chain8.json", "--steps", "21",
                            "--out", "out/matrix8-evolve"]),
        ("jordan-evolve", ["evolve", "--in", "jordan.json", "--allow-broken",
                           "--steps", "21", "--out", "out/jordan-evolve"]),
        ("matrix8-evolve-hbar", ["evolve", "--in", "chain8.json", "--hbar",
                                 "0.7", "--steps", "21",
                                 "--out", "out/matrix8-evolve-hbar"]),
        # the exact EP far out: the Pade fallback squares six times
        ("evolve-jc_doublet-ep-tmax200",
         ["evolve", "--model", "jc_doublet", "--params", _POINTS["jc_doublet"][1],
          "--allow-broken", "--tmax", "200", "--steps", "21",
          "--out", "out/evolve-jc_doublet-ep-tmax200"]),
        ("sweep-2d", ["sweep", "--model", "jc_doublet", "--params", "n=0",
                      "--axis", "rho=0:0.5:21", "--axis", "eps=0:1:11",
                      "--out", "out/sweep-2d"]),
        ("ep-pt", ["ep", "--model", "pt_matrix", "--params",
                   "r=1,theta=0.5,t=1,phi=0", "--param", "s",
                   "--lo", "0.01", "--hi", "1"]),
        ("discriminate-model", ["discriminate", "--model", "jc_doublet",
                                "--params", "rho=0.2", "--theta", "0.7"]),
        ("discriminate-scan", ["discriminate", "--eps", "0.05", "--axis",
                               "theta=0:1.5707963267948966:91",
                               "--out", "out/discriminate-scan"]),
        # one refusal per exit code
        ("exit1-das-not-hermitian", ["metric", "--in", "das_not_hermitian.json",
                                     "--method", "das"]),
        ("exit2-broken", ["metric", "--model", "jc_doublet", "--params",
                          "rho=0.3", "--method", "spectral"]),
        ("exit3-jordan", ["metric", "--in", "jordan.json"]),
        ("exit4-das-not-identity", ["metric", "--in", "das_not_identity.json",
                                    "--method", "das"]),
        ("exit4-family-list", ["metric", "--in", "family_list.json"]),
        ("exit4-params-number", ["model", "show", "--in", "params_number.json"]),
        ("exit4-param-true", ["metric", "--in", "param_true.json"]),
        ("exit4-entry-true", ["metric", "--in", "entry_true.json",
                              "--method", "spectral"]),
        ("exit4-levels-above-cap", ["model", "show", "--model", "jc_full",
                                    "--params", "levels=65"]),
        # the massless Dirac model inside its exceptional band: built,
        # judged exceptional, refused by metric
        ("model-show-dirac-massless-in-band",
         ["model", "show", "--model", "dirac_scalar",
          "--params", "m0=0,kx=1,v0=0.9999999999999"]),
        ("metric-dirac-massless-in-band",
         ["metric", "--model", "dirac_scalar",
          "--params", "m0=0,kx=1,v0=0.9999999999999"]),
        # unbroken next to |v0| = m0 c^2 = |c hbar k|
        ("model-show-dirac-v0-near-mass-momentum",
         ["model", "show", "--model", "dirac_scalar",
          "--params", "m0=1,kx=1,v0=0.9999999999"]),
        ("metric-dirac-v0-near-mass-momentum",
         ["metric", "--model", "dirac_scalar",
          "--params", "m0=1,kx=1,v0=0.9999999999", "--method", "both"]),
        # H = 0 at v0 = 0: the model's discriminant calls it exceptional,
        # while the sweep's numerical judge labels that point unbroken, so
        # ep_brackets reports a bracket on each side of it
        ("model-show-dirac-massless-at-rest",
         ["model", "show", "--model", "dirac_scalar",
          "--params", "m0=0,kx=0,v0=0"]),
        ("metric-dirac-massless-at-rest",
         ["metric", "--model", "dirac_scalar", "--params", "m0=0,kx=0,v0=0"]),
        ("sweep-dirac-massless-at-rest",
         ["sweep", "--model", "dirac_scalar", "--params", "m0=0,kx=0",
          "--axis", "v0=-0.5:0.5:3", "--out", "out/sweep-dirac-massless-at-rest"]),
        # unbroken with s, t < 0
        ("model-show-pt-negative-st",
         ["model", "show", "--model", "pt_matrix",
          "--params", "r=1,theta=0.5,s=-1,t=-1,phi=0"]),
        ("compare-pt-negative-st",
         ["compare", "--model", "pt_matrix",
          "--params", "r=1,theta=0.5,s=-1,t=-1,phi=0"]),
        # exit-4 refusals: a second source of sin theta_1, a doublet other
        # than n = 0 (the discrimination metric's first block is doublet 0),
        # --theta beside --axis, --params beside --in, an n for jc_full, an
        # axis given twice
        ("exit4-discriminate-model-and-sin-theta",
         ["discriminate", "--model", "jc_doublet", "--params", "rho=0.1",
          "--sin-theta", "0.9"]),
        ("exit4-discriminate-doublet-2",
         ["discriminate", "--model", "jc_doublet",
          "--params", "n=2,eps=0.5,omega=1,rho=0.1"]),
        ("exit4-discriminate-axis-and-theta",
         ["discriminate", "--axis", "theta=0:1:3", "--theta", "0.3"]),
        ("exit4-params-without-model",
         ["metric", "--in", "system.json", "--method", "spectral",
          "--params", "rho=7"]),
        ("exit4-jc_full-n", ["model", "show", "--model", "jc_full",
                             "--params", "levels=1,n=5"]),
        ("exit4-sweep-repeated-axis",
         ["sweep", "--model", "jc_doublet", "--axis", "rho=0:0.1:2",
          "--axis", "rho=0.3:0.4:2"]),
        ("exit4-sweep-repeated-axis-alias",
         ["sweep", "--model", "jc_doublet", "--axis", "eps=0:0.5:2",
          "--axis", "epsilon=0.6:0.7:2"]),
        # a parameter given twice in --params, by one name or as an alias
        # pair
        ("exit4-params-repeated",
         ["model", "show", "--model", "jc_doublet",
          "--params", "rho=0.1,rho=0.2"]),
        ("exit4-params-alias-pair",
         ["metric", "--model", "jc_doublet", "--params", "eps=0.5,epsilon=0.3"]),
        # the edges of the stacked 2x2 judge: sizes it does not take (jc_full,
        # 3x3 to 7x7), and energies near 1e-120, which it rescales
        ("sweep-jc_full-levels",
         ["sweep", "--model", "jc_full", "--params", "eps=0.5,omega=1,rho=0.1",
          "--axis", "levels=1:3:3", "--out", "out/sweep-jc_full-levels"]),
        ("sweep-jc_doublet-near-1e-120",
         ["sweep", "--model", "jc_doublet", "--params", "n=0,eps=5e-121,omega=1e-120",
          "--axis", "rho=0:5e-121:11", "--out", "out/sweep-jc_doublet-near-1e-120"]),
        # sweeps built as arrays: points the domain rule refuses between
        # judged ones, and a 2-D grid through s, t < 0
        ("sweep-jc_doublet-omega-through-0",
         ["sweep", "--model", "jc_doublet", "--params", "n=0,eps=0.5,rho=0.1",
          "--axis", "omega=-1:1:5", "--out", "out/sweep-jc_doublet-omega-through-0"]),
        ("sweep-pt-st-through-negative",
         ["sweep", "--model", "pt_matrix", "--params", "r=1,theta=0.5,phi=0.3",
          "--axis", "s=-1:1:5", "--axis", "t=-1:1:5",
          "--out", "out/sweep-pt-st-through-negative"]),
        ("sweep-dirac-m0-through-0",
         ["sweep", "--model", "dirac_scalar", "--params", "kx=0.5,v0=0.2",
          "--axis", "m0=-0.5:0.5:5", "--out", "out/sweep-dirac-m0-through-0"]),
    ]
    # the exact EP at rho = 0.25 s of a doublet with every energy scaled by
    # s = 2^-400 and 2^400: rescaled by a power of two, judged as at s = 1
    for tag, s in (("2pow-400", 2.0 ** -400), ("2pow400", 2.0 ** 400)):
        cmds.append((f"sweep-jc_doublet-ep-at-{tag}",
                     ["sweep", "--model", "jc_doublet",
                      "--params", f"n=0,eps={0.5 * s!r},omega={s!r}",
                      "--axis", f"rho=0:{0.5 * s!r}:5",
                      "--out", f"out/sweep-jc_doublet-ep-at-{tag}"]))
    for family in ("jc_doublet", "dirac_scalar", "pt_matrix"):
        for k in range(41):
            delta = 10.0 ** (-12.0 + k / 4.0)
            cmds.append((f"near-ep-{family}-{k}",
                         ["compare", "--model", family, "--params",
                          _near_ep_params(family, delta)]))
    # inside each family's exceptional band, on both sides of the EP: the
    # model's discriminant judges every route
    for family in ("jc_doublet", "dirac_scalar", "pt_matrix"):
        for side, delta in (("unbroken-side", 1e-13), ("broken-side", -1e-13)):
            model = ["--model", family, "--params",
                     _near_ep_params(family, delta)]
            tag = f"{family}-{side}"
            cmds += [
                (f"in-band-spectral-{tag}",
                 ["metric", *model, "--method", "spectral"]),
                (f"in-band-das-{tag}", ["metric", *model, "--method", "das"]),
                (f"in-band-evolve-{tag}", ["evolve", *model, "--steps", "21"]),
            ]
    # the experiment scripts, each against its own tree
    for script in ("run_phase_sweep", "run_discrimination_scan"):
        cmds.append((f"script-{script}",
                     [f"scripts/{script}.py", "--out", f"out/{script}"]))
    return cmds


COMMANDS = _commands()


@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    files: dict = field(default_factory=dict)  # path under out/ -> bytes


def run_command(tree: str, workdir: str, argv: list) -> Outcome:
    root = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    if argv[0].startswith("scripts/"):
        program = [os.path.join(root, argv[0]), *argv[1:]]
    else:
        program = ["-m", "metricforge.cli", *argv]
    proc = subprocess.run([sys.executable, *program],
                          cwd=workdir, env=env, capture_output=True,
                          timeout=300, check=False)
    files = {}
    if "--out" in argv:
        out_dir = os.path.join(workdir, argv[argv.index("--out") + 1])
        for root, _, names in os.walk(out_dir):
            for name in sorted(names):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, out_dir)] = fh.read()
    return Outcome(proc.returncode, proc.stdout, proc.stderr, files)


def _relative(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|), and inf where only one is NaN or the two
    are not the same infinity."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    rel = abs(a - b) / max(abs(a), abs(b))
    return math.inf if math.isnan(rel) else rel


def _json_leaves(obj, path: str, out: dict) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _json_leaves(value, f"{path}.{key}" if path else key, out)
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            _json_leaves(value, f"{path}[{k}]", out)
    else:
        out[path] = obj


def _fold(path: str) -> str:
    """The field name of a leaf path: list indices become []."""
    return re.sub(r"\[\d+\]", "[]", path)


def _leaves(data: bytes, name: str) -> dict | None:
    """Leaf path -> value of a JSON document or CSV table, None otherwise."""
    text = data.decode("utf-8", errors="replace")
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            return None
        return {f"{col}[{r}]": cell for r, row in enumerate(rows[1:])
                for col, cell in zip(rows[0], row)}
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return None
    out = {}
    _json_leaves(doc, "", out)
    return out


def _number(x):
    if isinstance(x, bool) or x is None:
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def field_changes(a: bytes, b: bytes, name: str) -> dict:
    """Folded field -> largest relative change (None when not numeric)."""
    la, lb = _leaves(a, name), _leaves(b, name)
    if la is None or lb is None:
        return {"(whole text)": None}
    changes: dict = {}
    for path in sorted(set(la) | set(lb)):
        va, vb = la.get(path), lb.get(path)
        if path in la and path in lb and va == vb:
            continue
        key = _fold(path)
        xa, xb = _number(va), _number(vb)
        if path not in la or path not in lb or xa is None or xb is None:
            changes[key] = None
        elif changes.get(key, 0.0) is not None:
            changes[key] = max(changes.get(key, 0.0), _relative(xa, xb))
    return changes


def compare_outcomes(a: Outcome, b: Outcome) -> list:
    """Lines describing every difference between two outcomes."""
    lines = []
    if a.code != b.code:
        lines.append(f"exit code: {a.code} -> {b.code}")
    streams = [("stdout", a.stdout, b.stdout), ("stderr", a.stderr, b.stderr)]
    for name in sorted(set(a.files) | set(b.files)):
        if name not in a.files or name not in b.files:
            lines.append(f"file {name}: only in "
                         f"{'parent' if name in a.files else 'change'}")
        else:
            streams.append((f"file {name}", a.files[name], b.files[name]))
    for what, xa, xb in streams:
        if xa == xb:
            continue
        if not xa or not xb:
            lines.append(f"{what}: {len(xa)} -> {len(xb)} bytes")
            continue
        for key, change in field_changes(xa, xb, what).items():
            shown = "not numeric" if change is None else f"{change:.3e}"
            lines.append(f"{what} {key}: largest relative change {shown}")
    return lines


def _write_inputs(workdir: str) -> None:
    for name, doc in INPUTS.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def compare_trees(parent: str, change: str, commands=None) -> dict:
    """Run commands (default COMMANDS) on both trees: name -> difference
    lines, for the commands whose outputs differ."""
    differing = {}
    with tempfile.TemporaryDirectory() as scratch:
        sides = []
        for side in ("parent", "change"):
            workdir = os.path.join(scratch, side)
            os.makedirs(workdir)
            _write_inputs(workdir)
            sides.append(workdir)
        for name, argv in COMMANDS if commands is None else commands:
            a = run_command(parent, sides[0], argv)
            b = run_command(change, sides[1], argv)
            lines = compare_outcomes(a, b)
            if lines:
                differing[name] = lines
    return differing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent")
    ap.add_argument("--change", required=True, help="checkout of the change")
    args = ap.parse_args(argv)
    differing = compare_trees(args.parent, args.change)
    for name, argv_ in COMMANDS:
        if name in differing:
            shown = "python" if argv_[0].startswith("scripts/") else "metricforge"
            print(f"DIFF {name}: {shown} {' '.join(argv_)}")
            for line in differing[name]:
                print(f"  {line}")
    print(f"{len(COMMANDS)} commands: {len(COMMANDS) - len(differing)} "
          f"identical, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
