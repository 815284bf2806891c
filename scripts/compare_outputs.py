#!/usr/bin/env python3
"""Compare the outputs of two source trees, run by run.

Usage: python scripts/compare_outputs.py OLD_SRC NEW_SRC [--only NAME ...]

OLD_SRC and NEW_SRC are directories that hold the ``nanorotor`` package
(``src/`` of two checkouts).  Each run is ``python -m nanorotor.cli`` in a
subprocess with ``PYTHONPATH`` set to one tree, one run at a time: the six
packaged presets and every gated workload of ``perfbench/workloads.py`` (its
``cli_args()``), then two ``decohere`` k0 mixtures, one with jumps and one at
gamma = 0, whose per-trajectory files record the component each trajectory
picked, then two ``fractional`` runs, a gaussian_j state and a sigma_k = 1
mixture, the CLI's path through ``synthesize_beta`` and ``wigner_d_table``,
then an ``evolve`` sigma_k = 1 mixture at b = 0.3 on the asymmetric
spectrum, whose cuts the O(1) test leaves to the pivot sweep down the block
and whose pulse takes the semiclassical m k != 0 correction; or only the
runs ``--only`` names.  It first prints the line count of each tree's
``nanorotor`` modules, in total and by module.  For each run it prints
both exit codes, each side's wall time and CPU time (user + system time of
the child, from ``os.wait4``, so a start-up change shows run by run; still
one process each, so one sample, not a speed claim), how many CSVs are
byte-identical, the largest absolute difference in each CSV body (from its
second line on), whether the manifests are equal apart from ``wall_time_s``
and ``config.output.prefix``, and whether the jump histograms are equal.
It exits 1 if the exit codes of a run differ, a file is missing on one
side or a run's jump histograms differ (a flipped channel pick moves a
trajectory far more than rounding can), else 0: other moved numbers are
reported, not judged.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PRESETS = ["params", "fig1", "fig2a", "fig2b", "fig2c", "fig2d"]
ROTOR = ["--rotor.inertia_ratio", "41.8"]
MIXTURE_STATE = ["--state.mode", "gaussian_beta", "--state.sigma_beta", "0.05",
                 "--state.sigma_k", "1.0"]
MIXTURE = ["decohere", *ROTOR, *MIXTURE_STATE, "--ensemble.n", "8"]


def _runs() -> dict:
    """Run name -> simulate arguments: the presets, the gated workloads, the
    two decohere mixtures, the two fractional runs, then the asymmetric
    mixture."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs = {name: [name] for name in PRESETS}
    runs.update((w.name, w.cli_args()) for w in workloads.WORKLOADS.values() if w.gated)
    runs["decohere_mixture"] = MIXTURE + ["--gamma.dimensionless", "0.5"]
    runs["decohere_mixture_vacuum"] = MIXTURE + ["--gamma.dimensionless", "0"]
    runs["fractional_gaussian_j"] = ["fractional", *ROTOR, "--state.sigma_j_sq", "800"]
    runs["fractional_mixture"] = ["fractional", *ROTOR, *MIXTURE_STATE]
    runs["asymmetric_mixture"] = ["evolve", *ROTOR, "--rotor.b_asym", "0.3",
                                  "--spectrum.method", "asymmetric", *MIXTURE_STATE,
                                  "--pulse.phi", "3.141592653589793", "--times.n_points", "64"]
    return runs


def _line_counts(src: str) -> dict:
    """Module file name -> line count of the ``nanorotor`` package in src."""
    return {path.name: len(path.read_text().splitlines())
            for path in Path(src, "nanorotor").glob("*.py")}


def print_line_counts(old_src: str, new_src: str) -> None:
    old, new = _line_counts(old_src), _line_counts(new_src)
    print(f"src lines: {sum(old.values())} / {sum(new.values())}")
    for name in sorted(old.keys() | new.keys()):
        print(f"  {name}: {old.get(name, 0)} / {new.get(name, 0)}")


def _simulate(src: str, args: list, out_dir: Path) -> tuple[int, float, float]:
    """The exit code, wall time and CPU time of one ``simulate`` process on src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out_dir.mkdir()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "nanorotor.cli", *args,
                             "--out", str(out_dir / "out")], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime


def _max_diff(old: list, new: list) -> str:
    """The largest absolute difference between two CSV bodies' numbers."""
    rows = [(a.split(","), b.split(",")) for a, b in zip(old[1:], new[1:])]
    if len(old) != len(new) or old[:1] != new[:1] or any(len(a) != len(b) for a, b in rows):
        return "shape or header differs"
    worst = max((abs(float(x) - float(y)) for a, b in rows for x, y in zip(a, b)), default=0.0)
    return f"{worst:.3g}"


def _manifest(path: Path) -> dict:
    manifest = json.loads(path.read_text())
    del manifest["wall_time_s"], manifest["config"]["output"]["prefix"]
    return manifest


def compare(name: str, args: list, old_src: str, new_src: str, work: Path) -> bool:
    """Print one run's comparison; whether both sides exited alike, wrote
    the same files and drew the same jump histograms."""
    codes, walls, cpus = zip(*[_simulate(src, args, work / side)
                               for side, src in (("old", old_src), ("new", new_src))])
    old_files = {p.name for p in (work / "old").iterdir()}
    new_files = {p.name for p in (work / "new").iterdir()}
    missing = sorted(old_files ^ new_files)
    csvs = sorted(f for f in old_files & new_files if f.endswith(".csv"))
    bodies = {f: [(work / side / f).read_text().splitlines()[1:] for side in ("old", "new")]
              for f in csvs}
    same = sum(old == new for old, new in bodies.values())
    print(f"{name}: exit {codes[0]} / {codes[1]}; {same}/{len(csvs)} CSVs byte-identical")
    print(f"  wall time: {walls[0]:.3f} s / {walls[1]:.3f} s, cpu time: {cpus[0]:.3f} s / "
          f"{cpus[1]:.3f} s (one sample each, not a benchmark)")
    for f, (old, new) in bodies.items():
        print(f"  {f}: largest |difference| {_max_diff(old, new)}")
    manifests = sorted(f for f in old_files & new_files if f.endswith("_manifest.json"))
    same_hists = True
    for f in manifests:
        old, new = (_manifest(work / side / f) for side in ("old", "new"))
        hists = [m["diagnostics"].get("jump_histograms") for m in (old, new)]
        hists_equal = hists[0] == hists[1]
        same_hists &= hists_equal
        print(f"  {f}: manifests {'equal' if old == new else 'DIFFER'}; "
              f"jump histograms {'equal' if hists_equal else 'DIFFER'}")
    for f in missing:
        print(f"  {f}: MISSING on the {'new' if f in old_files else 'old'} side")
    return codes[0] == codes[1] and not missing and same_hists


def run(argv=None) -> int:
    runs = _runs()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--only", nargs="+", choices=sorted(runs), metavar="NAME",
                        help=f"runs to compare, of: {', '.join(runs)}")
    args = parser.parse_args(argv)
    print_line_counts(args.old_src, args.new_src)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.only or runs:
            work = Path(tmp) / name
            work.mkdir()
            ok &= compare(name, runs[name], args.old_src, args.new_src, work)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(run())
