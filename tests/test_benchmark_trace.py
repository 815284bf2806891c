"""The benchmark's layer trace must keep finding every boundary it wraps.

``perfbench/tracer.py`` wraps library functions and methods by name from
outside; a renamed or rebound boundary would only show up as failed traced
benchmark runs.  These tests install the tracer in a fresh process, check that
every boundary it names is wrapped, and run tiny CLI calls: one with the banded
semiclassical pulse, and jump Monte Carlo runs whose trajectories resume from
the jump-free skeleton.  They only read ``perfbench/``.
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
code = cli.main(ARGV + ["--out", OUT])
calls = {name: v["calls"] for name, v in tracer.summarize(t.spans)["layers"].items()}
print(json.dumps({"code": code, "unwrapped": unwrapped, "calls": calls, "counts": t.counts}))
"""


def _probe(tmp_path, argv):
    probe = f"ROOT = {ROOT!r}\nOUT = {str(tmp_path / 'run')!r}\nARGV = {argv!r}\n" + PROBE
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["unwrapped"] == []
    return result


def test_tracer_resolves_every_boundary(tmp_path):
    result = _probe(tmp_path, ["evolve", "--rotor.inertia_ratio", "41.8",
                               "--state.sigma_j_sq", "60", "--pulse.phi", "1.0",
                               "--times.n_points", "8"])
    assert result["calls"]["pulse.matrix_build"] > 0
    assert result["counts"]["pulse.banded_apply"] > 0


def test_tracer_sees_the_resumed_trajectories(tmp_path):
    # With gamma > 0, sweep_phi makes two jump-free passes per phi (the
    # ensemble's skeleton and the gamma = 0 vacuum reference), each making
    # the calls of the whole gamma = 0 run; every call beyond twice that
    # comes from the trajectories resumed after their first jump.
    argv = ["sweep_phi", "--rotor.inertia_ratio", "41.8", "--state.sigma_j_sq", "60",
            "--sweep.phi", "[1.0]", "--ensemble.n", "12", "--gamma.dimensionless"]
    jumps = _probe(tmp_path, argv + ["8.0"])["calls"]
    free = _probe(tmp_path, argv + ["0.0"])["calls"]
    assert free["decoherence.jump"] == 0
    assert jumps["decoherence.jump"] > 0
    for layer in ("rotor.propagate", "pulse.apply", "observables.alignment"):
        assert jumps[layer] > 2 * free[layer] > 0, layer
