"""The benchmark's layer trace must keep finding every boundary it wraps.

``perfbench/tracer.py`` wraps library functions and methods by name from
outside; a renamed or rebound boundary would only show up as failed traced
benchmark runs.  These tests install the tracer in a fresh process, check that
every boundary it names is wrapped, and run tiny CLI calls: one with the banded
semiclassical pulse, and jump Monte Carlo runs whose trajectories resume from
the jump-free skeleton, counting that each ensemble runs, and each jump is
applied, once.  They only read ``perfbench/``.
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
    # With gamma > 0, sweep_phi makes one jump-free pass per phi (the
    # ensemble's skeleton, which also gives the vacuum reference), making the
    # calls of the whole gamma = 0 run; every call beyond that comes from the
    # trajectories resumed after their first jump, and at this rate they
    # alone make more calls than the jump-free pass.
    argv = ["sweep_phi", "--rotor.inertia_ratio", "41.8", "--state.sigma_j_sq", "60",
            "--sweep.phi", "[1.0]", "--ensemble.n", "12", "--gamma.dimensionless"]
    jumps = _probe(tmp_path, argv + ["8.0"])["calls"]
    free = _probe(tmp_path, argv + ["0.0"])["calls"]
    assert free["decoherence.jump"] == 0
    assert jumps["decoherence.jump"] > 0
    for layer in ("rotor.propagate", "pulse.apply", "observables.alignment"):
        assert jumps[layer] > 2 * free[layer] > 0, layer


def test_an_ensemble_is_one_pass(tmp_path):
    # decohere writes its first trajectories from the ensemble's own rows, so
    # each jump the histogram counts is applied once ...
    argv = ["decohere", "--rotor.inertia_ratio", "41.8", "--state.sigma_j_sq", "60",
            "--pulse.phi", "1.0", "--times.n_points", "16", "--gamma.dimensionless", "2.0",
            "--ensemble.n", "6"]
    calls = _probe(tmp_path, argv)["calls"]
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    (hist,) = manifest["diagnostics"]["jump_histograms"].values()
    jumps = sum(int(count) * n for count, n in hist.items())
    assert jumps > 0 and calls["decoherence.jump"] == jumps
    # ... and sweep_phi reads its vacuum values from the same ensembles
    argv = ["sweep_phi", "--rotor.inertia_ratio", "41.8", "--state.sigma_j_sq", "60",
            "--sweep.phi", "[0.5,1.0,2.0]", "--ensemble.n", "4", "--gamma.dimensionless", "1.0"]
    assert _probe(tmp_path, argv)["calls"]["decoherence.ensemble"] == 3
    assert (tmp_path / "run_vacuum.csv").exists()
