"""The benchmark's gated workloads must keep writing their reference outputs.

Each gated workload in ``perfbench/workloads.py`` runs its ``simulate``
command in this process, and ``perfbench/check.py`` compares what it wrote
with ``perfbench/reference``, at the benchmark's own 1e-9 tolerance.  A
change that moves a gated output so fails here, before a benchmark run.
These tests only read ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from nanorotor import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
check = _load("check")
GATED = [w for w in workloads.WORKLOADS.values() if w.gated]


@pytest.mark.parametrize("workload", GATED, ids=lambda w: w.name)
def test_gated_workload_writes_its_reference(tmp_path, workload):
    assert cli.main([*workload.cli_args(), "--out", str(tmp_path / "out")]) == 0
    reference = PERFBENCH / "reference" / workload.reference
    assert check.check_outputs(tmp_path, reference) == []
