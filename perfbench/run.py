"""Run one workload of the nanorotor benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measured run of the workload is a
fresh ``python3 perfbench/child.py`` process calling ``nanorotor.cli.main``
(see ``workloads.py``); after one warm-up process, processes run one after
another up to the one that ends nearest to ``--seconds``, each between two
calibration processes.  Each end-to-end metric is the median over them of
the timings scaled to a reference machine speed (see ``measure``).  Every
process's outputs are checked against ``perfbench/reference`` (see
``check.py``).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics of one traced process
for ``--trace 1``.  Outputs go to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import tracer
from workloads import END_TO_END, PER_LAYER, WORKLOADS, Workload, per_layer_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH / "reference"

# Untimed processes before the timed ones: the first process of a run reads
# the interpreter, numpy, scipy and nanorotor from disk into the page cache.
WARMUP = 1
# The wall and CPU time of a calibration process (child.py's ``calibrate``)
# at the machine speed that the timings are scaled to: about their medians on
# a 2-vCPU Intel Xeon virtual machine (see measure()).
CALIBRATION_WALL_S = 1.1
CALIBRATION_CPU_S = 1.5
# Every process is killed once a run has lasted this long.
RUN_LIMIT_S = 170.0


@dataclass
class Proc:
    code: int
    wall_s: float
    setup_s: float | None
    cpu_s: float
    peak_rss_mib: float
    record: dict
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _kill_group(pid: int) -> None:
    """Kill a child and the pool workers it started (its own session)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(mode: str, out_dir: Path, cli_args: list[str], deadline: float) -> Proc:
    """Start one child process, wait for it and account for it alone.

    CPU time and peak memory come from ``wait4`` on this child, which covers
    the child and the pool workers it reaped.  (The parent's RUSAGE_CHILDREN
    keeps a running maximum of ru_maxrss over every earlier child.)
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path = out_dir / "record.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(ROOT), mode,
           str(record_path), *cli_args]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return Proc(-1, 0.0, None, 0.0, 0.0, {}, ["not started: run time limit reached"])
    # The child inherits the caller's environment unchanged.  No BLAS or
    # OpenMP thread variable is set on purpose: pinning OPENBLAS_NUM_THREADS=1
    # moves decoherence_2proc from about 30 s to about 4.6 s, and the
    # benchmark must measure what a user gets by default.
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(remaining, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t_exit = time.monotonic()
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = {}
    ready = record.get("ready")
    result = Proc(code=proc.returncode, wall_s=t_exit - t_spawn,
                  setup_s=None if ready is None else ready - t_spawn,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mib=usage.ru_maxrss / 1024.0, record=record)
    if proc.returncode != 0:
        tail = (out_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        result.problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
    elif ready is None:
        result.problems.append("child wrote no record")
    return result


def run_cli(wl: Workload, out_dir: Path, mode: str, deadline: float,
            same_as: Path | None = None) -> Proc:
    """One checked ``simulate`` run; ``same_as`` names a run whose CSVs it must equal."""
    shutil.rmtree(out_dir, ignore_errors=True)
    p = spawn(mode, out_dir, [*wl.cli_args(), "--out", str(out_dir / "out")], deadline)
    if p.code == 0:
        reference = REFERENCE / wl.reference
        p.problems += check.check_outputs(out_dir, reference)
        if same_as is not None:
            names = [f.name for f in sorted(reference.glob("*.csv"))]
            p.problems += check.check_identical(out_dir, same_as, names)
    print(f"{wl.name} {mode}: wall {p.wall_s:.3f} s, setup {p.setup_s or 0:.3f} s, "
          f"cpu {p.cpu_s:.3f} s, {'ok' if p.ok else 'FAILED'}", file=sys.stderr)
    for problem in p.problems:
        print(f"  {problem}", file=sys.stderr)
    return p


def _serial_twin(wl: Workload) -> Workload | None:
    """The 1-worker workload whose CSVs a pooled workload must reproduce."""
    if wl.threads == 1:
        return None
    return next(w for w in WORKLOADS.values() if w.preset == wl.preset and w.threads == 1)


def measure(wl: Workload, seconds: float) -> tuple[list[Proc], dict]:
    """The --trace 0 run: end-to-end metrics over a closed loop of processes."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    checked: list[Proc] = []
    twin = _serial_twin(wl)
    same_as = None
    if twin is not None:
        same_as = work / "serial"
        checked.append(run_cli(twin, same_as, "run", deadline))
    checked += [run_cli(wl, work / "warmup", "run", deadline, same_as) for _ in range(WARMUP)]
    # The machine's speed swings by up to 1.9x, from one second to the next
    # and from one minute to the next; the same work takes as long either
    # way.  So a calibration process runs before the first timed process and
    # after each one, and each timing is divided by its own speed factor: the
    # mean of the two calibrations around it over the reference calibration.
    # Wall times (wall_s, setup_s) use the calibrations' wall time; cpu_s uses
    # their CPU time, which, like a benchmarked process's, counts the time
    # BLAS threads spin on the second core and so drops when that core is
    # busy elsewhere.  The metrics are seconds at the reference speed, means
    # over the six to eleven processes of a run: the scaled times still vary
    # by 10-20 % from process to process, and over five runs their mean
    # spread from run to run by two thirds of what their median did.
    # Processes run until the one that ends nearest to ``seconds``:
    # another starts while it would end less than half a process past them.
    runs: list[Proc] = []
    calibrations = [spawn("calibrate", work / "calibration", [], deadline)]
    steps: list[float] = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        runs.append(run_cli(wl, work / "run", "run", deadline, same_as))
        calibrations.append(spawn("calibrate", work / "calibration", [], deadline))
        now = time.monotonic()
        steps.append(now - t)
        typical = statistics.median(steps)
        if now - start + typical / 2 > seconds or now + 1.5 * typical > deadline:
            break
    checked += calibrations + runs
    scaled: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "cpu_s": []}
    for p, before, after in zip(runs, calibrations, calibrations[1:]):
        if not (p.ok and before.ok and after.ok):
            continue
        speed = (before.wall_s + after.wall_s) / 2 / CALIBRATION_WALL_S
        cpu_speed = (before.cpu_s + after.cpu_s) / 2 / CALIBRATION_CPU_S
        print(f"  speed factors: wall {speed:.4f}, cpu {cpu_speed:.4f}", file=sys.stderr)
        scaled["wall_s"].append(p.wall_s / speed)
        scaled["setup_s"].append(p.setup_s / speed)
        scaled["cpu_s"].append(p.cpu_s / cpu_speed)
    if not scaled["wall_s"]:  # every process failed: the run is not correct anyway
        scaled = {k: [getattr(p, k) or 0.0 for p in runs] for k in scaled}
    metrics = {k: statistics.mean(v) for k, v in scaled.items()}
    good = [p for p in runs if p.ok] or runs
    metrics["peak_rss_mib"] = statistics.median(p.peak_rss_mib for p in good)
    return checked, metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(wl: Workload, traced: Proc, plain: Proc, forecast_s: float,
                  serial_ensemble_s: float | None) -> dict:
    """Per-layer metrics from one traced process and one untraced twin."""
    summary = tracer.summarize(traced.record.get("spans", []))
    layers = summary["layers"]
    out = {}
    for name in tracer.LAYERS:
        out[f"{name}_s"] = layers[name]["self_s"]
        out[f"{name}_calls"] = layers[name]["calls"]
    grid = layers["angular.grid"]
    out["angular.grid_builds"] = grid["calls"]
    out["angular.grid_reuse"] = _ratio(len(set(grid["notes"])), grid["calls"])
    out["pulse.matrix_builds"] = layers["pulse.matrix_build"]["calls"]
    banded = traced.record.get("counts", {}).get("pulse.banded_apply", 0)
    out["pulse.matrix_reuse"] = 1.0 - out["pulse.matrix_builds"] / banded if banded else 0.0
    out["decoherence.jumps"] = layers["decoherence.jump"]["calls"]
    ensemble_s = layers["decoherence.ensemble"]["total_s"]
    if serial_ensemble_s is not None:
        out["decoherence.parallel_efficiency"] = _ratio(serial_ensemble_s,
                                                        wl.threads * ensemble_s)
    out["cli.bytes_written"] = sum(layers["cli.write"]["notes"])
    out["cli.unattributed_s"] = traced.record.get("main_s", 0.0) - summary["top_level_s"]
    ratio = _ratio(plain.wall_s, forecast_s)
    out["config.forecast_error"] = max(ratio, 1.0 / ratio) if ratio else 0.0
    out["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return {m.name: out[m.name] for m in per_layer_for(wl)}


def trace(wl: Workload) -> tuple[list[Proc], dict]:
    """The --trace 1 run: one untraced and one traced process, plus the forecast.

    A pooled workload's worker spans are lost to the parent, so it also traces
    its 1-worker twin, for the parallel efficiency and the byte-identity check.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    checked: list[Proc] = []
    twin = _serial_twin(wl)
    serial_ensemble_s = None
    same_as = None
    if twin is not None:
        same_as = work / "serial"
        serial = run_cli(twin, same_as, "trace", deadline)
        checked.append(serial)
        spans = tracer.summarize(serial.record.get("spans", []))
        serial_ensemble_s = spans["layers"]["decoherence.ensemble"]["total_s"]
    plain = run_cli(wl, work / "plain", "run", deadline, same_as)
    traced = run_cli(wl, work / "traced", "trace", deadline, work / "plain")
    validate = spawn("run", work / "validate", [*wl.cli_args(), "--validate-only"],
                     deadline)
    forecast_s = 0.0
    if validate.ok:
        forecast_s = json.loads((work / "validate" / "stdout.txt").read_text())["time_forecast_s"]
    checked += [plain, traced, validate]
    return checked, layer_metrics(wl, traced, plain, forecast_s, serial_ensemble_s)


def run_workload(name: str, seconds: float, traced: bool) -> dict:
    wl = WORKLOADS[name]
    checked, metrics = trace(wl) if traced else measure(wl, seconds)
    failed = sum(not p.ok for p in checked)
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    return {"correct": failed == 0, "attempted": len(checked), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    # Every workload runs its preset at the preset's own seed (see
    # workloads.py), so each seed gives the same inputs.
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nanorotor" / "cli.py").is_file():
        print(f"run.py: no nanorotor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
