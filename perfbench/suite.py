"""Run every workload of the nanorotor benchmark and write a results file.

    python3 perfbench/suite.py [--runs 10] [--out FILE] [--append]

Each round runs every workload once, so slow periods of the machine spread
over all workloads.  Then every workload is traced until the results file
holds two traced runs of it, and the suite fails unless their counts repeat.
With ``--append`` the runs are added to an existing results file, so
``--runs 1 --append`` on two checkouts in turn makes alternating pairs.
The results file records the machine, the versions and the git sha;
``compare.py`` compares two of them.
Prints every end-to-end metric by name and unit with its median, quartiles
and sample count, and the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run
from workloads import COUNT_METRICS, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

TRACE_RUNS = 2

# Runs in a child under the caller's environment, so that the BLAS thread
# count reported is the one the measured processes get.
_VERSIONS = r"""
import ctypes, glob, json, os, platform, numpy, scipy
info = {"python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas": "unknown", "blas_threads": None}
blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
info["openblas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                              "numpy.libs", "*openblas*"))
for lib in libs[:1]:
    handle = ctypes.CDLL(lib)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        if hasattr(handle, symbol):
            info["blas_threads"] = getattr(handle, symbol)()
            break
print(json.dumps(info))
"""


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "cpu_model": platform.processor() or "unknown", "git_sha": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                    if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    probe = subprocess.run([sys.executable, "-c", _VERSIONS], capture_output=True,
                           text=True, cwd=run.ROOT)
    if probe.returncode == 0:
        env.update(json.loads(probe.stdout))
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                         cwd=run.ROOT)
    if sha.returncode == 0:
        env["git_sha"] = sha.stdout.strip()
    env["blas_env"] = {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k == "OPENBLAS_CORETYPE"}
    return env


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_tables(results: dict) -> None:
    print(f"{'workload':<20} {'metric':<13} {'unit':<4} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'iqr/med':>8} {'runs':>5} {'procs':>6}")
    for name, runs in results["end_to_end"].items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        for m in END_TO_END:
            values = [r["metrics"][m.name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            print(f"{name:<20} {m.name:<13} {m.unit:<4} {med:>10.4f} {q1:>10.4f} "
                  f"{q3:>10.4f} {(q3 - q1) / med:>8.3f} {len(values):>5} {attempted:>6}")
        print(f"{name:<20} {'failed_frac':<13} {'1':<4} {failed / max(attempted, 1):>10.4f}"
              f" {'':>10} {'':>10} {'':>8} {len(runs):>5} {attempted:>6}")
    traced = results["per_layer"]
    if not traced:
        return
    names = list(traced)
    print()
    print(f"{'per-layer metric':<32} {'unit':<6} " + " ".join(f"{n[:19]:>19}" for n in names))
    for m in PER_LAYER:
        cells = []
        for n in names:
            values = [r["metrics"][m.name]["value"] for r in traced[n]
                      if m.name in r["metrics"]]
            if not values:
                cell = "-"
            elif m.name in COUNT_METRICS:
                cell = "/".join(str(int(v)) for v in dict.fromkeys(values))
            else:
                cell = f"{statistics.median(values):.4f}"
            cells.append(f"{cell:>19}")
        print(f"{m.name:<32} {m.unit:<6} " + " ".join(cells))
    for n in names:
        print(f"{n}: counts repeat across {len(traced[n])} traced runs: "
              f"{'yes' if counts_repeat(traced[n]) else 'NO'}")


def counts_repeat(traced_runs: list[dict]) -> bool:
    counts = [{k: r["metrics"][k]["value"] for k in COUNT_METRICS} for r in traced_runs]
    return all(c == counts[0] for c in counts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=run.WORK / "results.json")
    parser.add_argument("--append", action="store_true",
                        help="add the runs to an existing results file")
    args = parser.parse_args(argv)
    names = list(WORKLOADS)
    results = {"environment": environment(), "seconds": RUN_SECONDS,
               "end_to_end": {n: [] for n in names}, "per_layer": {n: [] for n in names}}
    if args.append and args.out.exists():
        results = json.loads(args.out.read_text())
        for n in names:
            results["end_to_end"].setdefault(n, [])
            results["per_layer"].setdefault(n, [])
    for i in range(args.runs):
        for n in names:
            r = run.run_workload(n, RUN_SECONDS, traced=False)
            results["end_to_end"][n].append(r)
            print(f"round {i + 1}/{args.runs} {n}: wall_s "
                  f"{r['metrics']['wall_s']['value']:.3f} failed {r['failed']}/{r['attempted']}",
                  file=sys.stderr)
    for n in names:
        while len(results["per_layer"][n]) < TRACE_RUNS:
            results["per_layer"][n].append(run.run_workload(n, RUN_SECONDS, traced=True))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    print_tables(results)
    print(f"results: {args.out}")
    correct = all(r["correct"] for group in ("end_to_end", "per_layer")
                  for runs in results[group].values() for r in runs)
    repeat = all(counts_repeat(runs) for runs in results["per_layer"].values())
    return 0 if correct and repeat else 1


if __name__ == "__main__":
    sys.exit(main())
