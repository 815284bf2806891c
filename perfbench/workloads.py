"""Workload and metric definitions of the nanorotor benchmark.

This module is the single source of the benchmark's definition:
``python3 perfbench/workloads.py`` prints the ``BENCHMARK.json`` that sits at
the root of the repository.

Every workload is one ``simulate`` invocation (``nanorotor.cli.main``) run in
a fresh Python process, in a closed loop with one client: the next process
starts only after the previous one has exited.  Fresh processes are the point:
a CLI user pays the cold module caches (``pulse._GRID_CACHE``,
``pulse._MATRIX_CACHE``, ``decoherence._COSINE_CACHE`` and the ``lru_cache``
in ``observables``) on every run, and warm in-process repeats would hide
exactly that rebuild cost.

Every workload runs at its preset's own seed, the one ``simulate <preset>``
uses by default, whatever the benchmark's ``--seed``.  The cost of ``fig2c``
depends on its seed: ``DirectionCosineOperator`` builds a dense block for
every m that some trajectory reaches, so over seeds 1-7 one 1-worker process
of the full preset took 4.9-8.0 s and peaked at 179 or 240 MiB, a spread over
seeds of 0.31 of the median, wider than the largest bound allowed (0.25).
"""

from __future__ import annotations

import json
from dataclasses import dataclass


# The phi values both fig2c workloads run: every other one of the preset's
# first nine, 0 to pi in steps of pi/4.
FIG2C_PHI = "[0.0,0.78539816,1.57079633,2.35619449,3.14159265]"


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: tuple[str, ...]
    reference: str          # directory under perfbench/reference
    why: str                # one line, copied into BENCHMARK.json
    gated: bool = True      # listed in BENCHMARK.json, so changes are judged on it

    def cli_args(self) -> list[str]:
        return [self.preset, *self.overrides]

    @property
    def threads(self) -> int:
        args = list(self.overrides)
        return int(args[args.index("--threads") + 1]) if "--threads" in args else 1


# Each workload is a cut-down preset of 2-4 s a process, so that one run
# holds six to eleven processes and its mean does not follow the machine's
# swings: on a 2-vCPU virtual machine the same process takes anywhere from
# 1x to 1.8x its fastest time, from one process to the next.  The full
# presets (20 s for fig2a at sigma_beta 0.003 and sigma_k 0, 2; 7 s for
# fig2b; 5-8 s for fig2c) gave one to four processes a run, and two sets of
# ten such runs spread by up to 0.38 of their median.  Each cut keeps its
# layer mix (README.md has the traced counts).
WORKLOADS = {w.name: w for w in (
    # The one workload where the quadrature grid, the Wigner-row transforms,
    # mixture preparation (17 k0 sectors), the exact grid pulse and
    # cos^2(beta) assembly do the work.  sigma_beta 0.01 puts the grid at
    # orders 710-778 (0.003 puts it at about 2,400 and takes 20 s); the 18
    # grid builds still take two thirds of main, as in the full preset.  Two
    # observation times: time-series evaluation and the jump step are bypassed.
    Workload(
        name="mixture_exact_pulse", preset="fig2a",
        overrides=("--sweep.sigma_beta", "[0.01]", "--sweep.sigma_k", "[2.0]"),
        reference="mixture_exact_pulse",
        why="fig2a at sigma_beta 0.01, sigma_k 2: grid, Wigner transforms, "
            "17-sector mixture preparation and the exact pulse; no jumps, no series"),
    # The only workload with the asymmetric spectrum and the time-series
    # workload.  One swept b plus the preset's b_include: 2 spectra at
    # jmax ~1250 and 4 series x 522 samples (~2.1 k free_propagate and
    # alignment calls).  gamma = 0: no jumps, no pool.
    Workload(
        name="asymmetry_revival", preset="fig2b", overrides=("--sweep.b_points", "1"),
        reference="asymmetry_revival",
        why="fig2b at 2 asymmetry values: asymmetric spectrum and 4 time series "
            "of propagate-and-observe; gamma 0 bypasses jumps and the ensemble pool"),
    # The only serial workload with jumps: 5 phi (0 to pi in steps of pi/4)
    # x 400 Philox trajectories at jmax 171 plus 5 gamma = 0 vacuum passes.
    # Dense direction-cosine apply, per-trajectory banded pulse, cos^2(beta)
    # assembly and ~650 jumps.  No grid, no asymmetric spectrum, two
    # observation times.
    Workload(
        name="decoherence_serial", preset="fig2c",
        overrides=("--threads", "1", "--sweep.phi", FIG2C_PHI),
        reference="fig2c",
        why="fig2c at 5 phi with 1 worker: jump Monte Carlo, direction-cosine apply "
            "and banded pulse; bypasses the grid and the asymmetric spectrum"),
    # The only workload through run_ensemble's ProcessPoolExecutor.  Run under
    # the caller's default environment: the forked workers' BLAS threads
    # oversubscribe the cores, and that is the defect it must keep showing
    # (parallel_efficiency 0.064 on a 2-core machine).  Not gated: the
    # oversubscription makes its time swing most of all (one full-preset
    # process took 20-38 s, and over five runs its wall_s spread was 0.35,
    # above the largest bound allowed), and each run also needs a 1-worker
    # twin for the byte-identity check.  suite.py runs and checks it.
    Workload(
        name="decoherence_2proc", preset="fig2c",
        overrides=("--threads", "2", "--sweep.phi", FIG2C_PHI),
        reference="fig2c",
        why="fig2c at 5 phi with 2 pool workers: the only run of the "
            "ProcessPoolExecutor path; CSVs must equal decoherence_serial's byte for byte",
        gated=False),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


# Bounds are shares of the parent's median.  The timings get 0.25, the
# largest bound allowed: even scaled to the reference speed (see run.py's
# measure()), the runs of a 2-vCPU virtual machine spread by up to half of it
# in a noisy hour, and setup_s must have the largest bound.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),       # spawn to exit: what a user waits
    Metric("setup_s", "s", "lower", 0.25),      # spawn until cli.main is callable
    Metric("cpu_s", "s", "lower", 0.25),        # user + sys of the tree, pool included
    Metric("peak_rss_mib", "MiB", "lower", 0.1),  # largest process of the tree
)

# Per-layer metrics of the traced run (README.md has the boundaries).  '_s'
# is self time; the counts are exact for a fixed input.
PER_LAYER = (
    Metric("angular.grid_s", "s", "lower"),
    Metric("angular.grid_builds", "count", "lower"),
    Metric("angular.grid_reuse", "ratio", "higher"),       # distinct orders / builds
    Metric("angular.transform_s", "s", "lower"),
    Metric("angular.transform_calls", "count", "lower"),
    Metric("angular.cos2_s", "s", "lower"),
    Metric("angular.cos2_calls", "count", "lower"),
    Metric("angular.cosine_apply_s", "s", "lower"),
    Metric("angular.cosine_apply_calls", "count", "lower"),
    Metric("rotor.prepare_s", "s", "lower"),
    Metric("rotor.spectrum_s", "s", "lower"),
    Metric("rotor.spectrum_calls", "count", "lower"),
    Metric("rotor.propagate_s", "s", "lower"),
    Metric("rotor.propagate_calls", "count", "lower"),
    Metric("pulse.apply_s", "s", "lower"),
    Metric("pulse.apply_calls", "count", "lower"),
    Metric("pulse.exact_s", "s", "lower"),
    Metric("pulse.exact_calls", "count", "lower"),
    Metric("pulse.matrix_build_s", "s", "lower"),
    Metric("pulse.matrix_builds", "count", "lower"),
    Metric("pulse.matrix_reuse", "ratio", "higher"),       # 1 - builds / banded applies
    Metric("observables.alignment_s", "s", "lower"),
    Metric("observables.alignment_calls", "count", "lower"),
    Metric("decoherence.ensemble_s", "s", "lower"),
    Metric("decoherence.ensemble_calls", "count", "lower"),
    Metric("decoherence.jump_s", "s", "lower"),
    Metric("decoherence.jumps", "count", "lower"),
    Metric("decoherence.parallel_efficiency", "ratio", "higher"),
    Metric("cli.write_s", "s", "lower"),
    Metric("cli.bytes_written", "count", "lower"),
    Metric("cli.unattributed_s", "s", "lower"),            # main minus top-level spans
    Metric("config.forecast_error", "ratio", "lower"),     # max(r, 1/r), r = wall_s / forecast
    Metric("trace.overhead_s", "s", "lower"),              # traced minus untraced wall_s
)

COUNT_METRICS = tuple(m.name for m in PER_LAYER if m.unit == "count")

# Metrics that only a pooled workload measures; with one worker they read 1.
POOL_METRICS = ("decoherence.parallel_efficiency",)


def per_layer_for(wl: Workload) -> tuple[Metric, ...]:
    """The per-layer metrics a traced run of ``wl`` reports."""
    return tuple(m for m in PER_LAYER if wl.threads > 1 or m.name not in POOL_METRICS)


# One run measures this long: about ten processes of each workload on a
# 2-vCPU machine, with their calibrations, after one warm-up process.  A run
# so takes about 40 s, so the 70 runs of a benchmark pass take about 2,800 of
# their 3,420 s.
RUN_SECONDS = 36


def benchmark_spec() -> dict:
    """The contents of BENCHMARK.json: the gated workloads and what they report."""
    gated = [w for w in WORKLOADS.values() if w.gated]
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in gated],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER if any(m in per_layer_for(w) for w in gated)],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_spec(), indent=2))
