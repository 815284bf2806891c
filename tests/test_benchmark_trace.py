"""The benchmark's layer trace must keep finding every boundary it wraps.

``perfbench/tracer.py`` wraps library functions and methods by name from
outside; a renamed or rebound boundary would only show up as failed traced
benchmark runs.  This test installs the tracer in a fresh process, checks that
every boundary it names is wrapped, and runs a tiny CLI call with the banded
semiclassical pulse.  It only reads ``perfbench/``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import importlib, json, os, sys
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
import tracer
from nanorotor import cli

t = tracer.Tracer()
t.install()
unwrapped = []
for _, module, attr in tracer.TARGETS + tracer.COUNTERS:
    obj = importlib.import_module("nanorotor." + module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    if not hasattr(obj, "__wrapped__"):
        unwrapped.append(module + "." + attr)
code = cli.main(["evolve", "--rotor.inertia_ratio", "41.8", "--state.sigma_j_sq", "60",
                 "--pulse.phi", "1.0", "--times.n_points", "8", "--out", OUT])
calls = {name: v["calls"] for name, v in tracer.summarize(t.spans)["layers"].items()}
print(json.dumps({"code": code, "unwrapped": unwrapped, "calls": calls, "counts": t.counts}))
"""


def test_tracer_resolves_every_boundary(tmp_path):
    probe = f"ROOT = {ROOT!r}\nOUT = {str(tmp_path / 'run')!r}\n" + PROBE
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["unwrapped"] == []
    assert result["calls"]["pulse.matrix_build"] > 0
    assert result["counts"]["pulse.banded_apply"] > 0
