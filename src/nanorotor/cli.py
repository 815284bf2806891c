"""Experiment runner CLI.

``simulate <scenario|preset|config.json> [--key.path value ...] --out PREFIX``

Presets (fig1, fig2a, fig2b, fig2c, fig2d, params) ship as JSON configs in
``nanorotor/presets``.  Every run writes a JSON manifest with the fully
resolved config; re-running a manifest reproduces its outputs byte for byte.
Exit codes: 0 success, 2 config validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import importlib.resources
import json
import math
import os
import sys
import time as _time

import numpy as np

from . import __version__
from . import config as cfgmod
from . import decoherence, observables, pulse, rotor
from .angular import AngularGrid
from .errors import ConfigError, SimulationError


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def prepare_state(s: cfgmod.StateConfig) -> rotor.Mixture:
    if s.sigma_k > 0:
        return rotor.prepare_mixture(s.sigma_beta, s.sigma_k, jmax=s.jmax)
    param = s.sigma_j_sq if s.mode == "gaussian_j" else s.sigma_beta
    return rotor.Mixture.pure(rotor.prepare_aligned_state(s.mode, param, s.k0, jmax=s.jmax))


class OutputWriter:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.manifest_path = prefix + "_manifest.json"
        self.files: list[str] = []
        directory = os.path.dirname(prefix)
        if directory:
            os.makedirs(directory, exist_ok=True)

    def write_csv(self, suffix: str, header: list[str], columns: list[np.ndarray]) -> str:
        path = f"{self.prefix}{suffix}.csv"
        with open(path, "w") as fh:
            self.files.append(path)
            fh.write(f"# manifest: {os.path.basename(self.manifest_path)}\n")
            fh.write(",".join(header) + "\n")
            for row in zip(*columns):
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        return path

    def write_manifest(self, payload: dict) -> str:
        payload = dict(payload)
        payload["outputs"] = [os.path.basename(f) for f in self.files]
        with open(self.manifest_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return self.manifest_path


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _ensemble_series(state, spectrum, cfg, gamma, phi, tgrid, diagnostics, point=None):
    """Ensemble alignment series at one phi, each component padded for the
    pulses.  Where gamma > 0 the jump histogram goes into
    ``diagnostics["jump_histograms"]`` under ``point``, the sweep point's tag
    (default: the phi tag); without jumps it would read {0: n}."""
    spec = pulse.PulseSpec(phi=phi, schedule=tuple(cfg.pulse.schedule_t),
                           method=cfg.pulse.method)
    prepared = state.map(lambda c: pulse.prepare_for_pulses(c, spec))
    tc = decoherence.TrajectoryConfig(gamma=gamma, observation_times=tuple(tgrid),
                                      seed=cfg.ensemble.seed, pulse=spec)
    res = decoherence.run_ensemble(prepared, spectrum, tc, cfg.ensemble.n)
    if gamma > 0:
        diagnostics.setdefault("jump_histograms", {})[point or cfgmod.value_tag(phi)] = \
            {str(k): v for k, v in sorted(res.jump_count_histogram.items())}
    return res


def _state_and_extent(cfg, s, phis):
    """The mixture the state section ``s`` prepares, and the jmax and kmax
    its spectrum must cover to take the scheduled pulses at every phi."""
    state = prepare_state(s)
    jmax = state.jmax + pulse.pulse_headroom(phis, len(cfg.pulse.schedule_t))
    return state, jmax, state.kmax


def _state_and_spectrum(cfg, s, model, phis):
    state, jmax, kmax = _state_and_extent(cfg, s, phis)
    return state, rotor.rotational_energies(jmax, kmax, model, cfg.spectrum.method)


# Each scenario takes the config, its validation report (the resolved rotor
# model, pulse phases and jump rate), the output writer and the diagnostics
# dict that goes into the manifest.

def scenario_params(cfg, report, writer, diagnostics):
    model = report.model
    diagnostics.update({
        "mass_amu": model.mass_amu if model.mass else None,
        "t_rev_ms": model.t_rev * 1e3,
        "b_asym": abs(model.b_asym),
        "inertia_ratio": model.ratio,
        "inertia_kg_m2": model.inertia,
        "jmax_estimate": report.jmax_estimate,
        "grid_order": report.grid_order,
        "memory_bytes": report.memory_bytes,
    })
    if report.variant is not None:
        diagnostics["variant_b_asym"] = abs(report.variant.b_asym)
        diagnostics["variant_mass_amu"] = report.variant.mass_amu
    return 0


def scenario_evolve(cfg, report, writer, diagnostics, per_trajectory=False):
    gamma, phis = report.gamma, report.phis
    state, spectrum = _state_and_spectrum(cfg, cfg.state, report.model, phis)
    tgrid = cfgmod.build_time_grid(cfg.times)
    multi = len(phis) > 1
    for phi in phis:
        res = _ensemble_series(state, spectrum, cfg, gamma, phi, tgrid, diagnostics)
        suffix = f"_phi{cfgmod.value_tag(phi)}" if multi else ""
        cols = [tgrid, res.mean_alignment]
        header = ["t_over_Trev", "value"]
        if gamma > 0 and cfg.ensemble.n > 1:
            cols.append(res.stderr)
            header.append("stderr")
        writer.write_csv(suffix, header, cols)
        if per_trajectory:
            for i, series in enumerate(res.trajectories[:8]):
                writer.write_csv(f"{suffix}_traj{i}", ["t_over_Trev", "value"],
                                 [tgrid, series])
    return 0


def scenario_fractional(cfg, report, writer, diagnostics):
    state, spectrum = _state_and_spectrum(cfg, cfg.state, report.model, [])
    grid = AngularGrid.gauss_legendre(report.grid_order)  # >= FRACTIONAL_GRID_ORDER
    fractions = (0.125, 0.25, 0.5)
    halfwidths = {0.125: math.pi / 16, 0.25: math.pi / 8, 0.5: math.pi / 4}
    window_rows = []
    for frac in fractions:
        evolved = state.map(lambda c: rotor.free_propagate(c, frac, spectrum))
        prob = evolved.mean(lambda c: observables.beta_distribution(c, grid))
        writer.write_csv(f"_beta_t{cfgmod.value_tag(frac)}", ["beta", "prob"],
                         [grid.nodes, prob])
        centers = {0.125: [1, 3, 5, 7], 0.25: [2, 6], 0.5: [4]}[frac]
        hw = halfwidths[frac]
        for c in centers:
            center = c * math.pi / 8.0
            mass = grid.window_mass(prob / np.sin(grid.nodes),
                                    center - hw, center + hw)
            window_rows.append((frac, center, mass))
        diagnostics[f"alignment_t{frac}"] = evolved.mean(observables.alignment)
    writer.write_csv("_windows", ["t_over_Trev", "window_center", "mass"],
                     [np.array([r[i] for r in window_rows]) for i in range(3)])
    return 0


def scenario_sweep_phi(cfg, report, writer, diagnostics):
    gamma = report.gamma
    phis = cfgmod.sweep_values(cfg, "phi")
    state, spectrum = _state_and_spectrum(cfg, cfg.state, report.model, phis)
    tgrid = np.array([0.0, 1.0])
    values, errors, vacuum = [], [], []
    for phi in phis:
        res = _ensemble_series(state, spectrum, cfg, gamma, phi, tgrid, diagnostics)
        values.append(res.mean_alignment[-1])
        errors.append(res.stderr[-1])
        if gamma > 0:
            vacuum.append(res.jump_free[-1])
    phis_arr = np.array(phis)
    cols = [phis_arr, np.array(values)]
    header = ["phi", "value"]
    if gamma > 0 and cfg.ensemble.n > 1:
        cols.append(np.array(errors))
        header.append("stderr")
    writer.write_csv("", header, cols)
    if vacuum:
        writer.write_csv("_vacuum", ["phi", "value"], [phis_arr, np.array(vacuum)])
    a, b, rms = observables.fit_interference_curve(phis_arr, np.array(values))
    diagnostics["interference_fit"] = {"amplitude": a, "offset": b, "rms_residual": rms}
    return 0


def scenario_sweep_sigma(cfg, report, writer, diagnostics):
    phi = report.phis[0]
    sigma_ks = cfgmod.sweep_values(cfg, "sigma_k")
    tgrid = np.array([0.0, 1.0])
    for sb in cfgmod.sweep_values(cfg, "sigma_beta"):
        values = []
        for sk in sigma_ks:
            point = dataclasses.replace(cfg.state, mode="gaussian_beta",
                                        sigma_beta=sb, sigma_k=sk)
            state, spectrum = _state_and_spectrum(cfg, point, report.model, [phi])
            res = _ensemble_series(state, spectrum, cfg, report.gamma, phi, tgrid, diagnostics,
                                   f"sb{cfgmod.value_tag(sb)}_sk{cfgmod.value_tag(sk)}")
            values.append(res.mean_alignment[-1])
        writer.write_csv(f"_sb{cfgmod.value_tag(sb)}", ["sigma_k", "value"],
                         [np.array(sigma_ks, dtype=float), np.array(values)])
    return 0


def scenario_sweep_asymmetry(cfg, report, writer, diagnostics):
    model = report.model
    sw = cfg.sweep
    bs = sorted(set(np.logspace(sw.b_log10_min, sw.b_log10_max, sw.b_points))
                | set(sw.b_include))
    phis = report.phis
    base_state, jmax_total, kmax = _state_and_extent(cfg, cfg.state, phis)
    peak_rows = {phi: [] for phi in phis}
    tpeaks = []
    min_dominant, widened = 1.0, 0
    for b in bs:
        model_b = rotor.inertia_from_parameters(model.ratio, b, t_rev=model.t_rev)
        spectrum = rotor.rotational_energies(jmax_total, kmax, model_b, cfg.spectrum.method)
        min_dominant = min(min_dominant, float(spectrum.dominant_weight.min()))
        widened = max(widened, spectrum.widened_j)
        tgrid = cfgmod.revival_time_grid(b)
        for phi in phis:
            res = _ensemble_series(base_state, spectrum, cfg, 0.0, phi, tgrid, diagnostics,
                                   f"b{cfgmod.value_tag(b)}_phi{cfgmod.value_tag(phi)}")
            series = observables.TimeSeries(tgrid, res.mean_alignment)
            t_peak, value = observables.find_revival_peak(series, *observables.revival_window(b))
            peak_rows[phi].append(value)
            if phi == phis[0]:
                tpeaks.append(t_peak)
    bs_arr = np.array(bs)
    for phi in phis:
        writer.write_csv(f"_phi{cfgmod.value_tag(phi)}", ["b_asym", "value"],
                         [bs_arr, np.array(peak_rows[phi])])
    writer.write_csv("_tpeak", ["b_asym", "t_peak"], [bs_arr, np.array(tpeaks)])
    diagnostics["min_dominant_weight"] = min_dominant
    diagnostics["spectrum_widened_j"] = widened
    return 0


SCENARIO_RUNNERS = {
    "params": scenario_params,
    "evolve": scenario_evolve,
    "decohere": functools.partial(scenario_evolve, per_trajectory=True),
    "fractional": scenario_fractional,
    "sweep_phi": scenario_sweep_phi,
    "sweep_sigma": scenario_sweep_sigma,
    "sweep_asymmetry": scenario_sweep_asymmetry,
}


def _report_problems(report: cfgmod.ValidationReport) -> int:
    for p in report.problems:
        print(f"config error: {p}", file=sys.stderr)
    return 2


def run(cfg: cfgmod.ExperimentConfig) -> int:
    """Validate the config once and execute it; returns the exit code."""
    report = cfgmod.validate(cfg)
    if not report.ok:
        return _report_problems(report)
    t_start = _time.time()
    diagnostics: dict = {}
    writer = None
    try:  # the writer's files are the only ones a run opens
        writer = OutputWriter(cfg.output.prefix)
        code = SCENARIO_RUNNERS[cfg.scenario](cfg, report, writer, diagnostics)
        writer.write_manifest({
            "config": cfg.to_dict(),
            "version": __version__,
            "seed": cfg.ensemble.seed,
            "diagnostics": diagnostics,
            "wall_time_s": _time.time() - t_start,
        })
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except OSError as exc:
        print(f"config error: output.prefix: cannot write {cfg.output.prefix!r}: {exc}",
              file=sys.stderr)
        code = 2
    except SimulationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = 3
    # a failed run leaves no CSV without its manifest
    for path in writer.files if writer else ():
        with contextlib.suppress(OSError):
            os.remove(path)
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _preset_path(name: str):
    res = importlib.resources.files("nanorotor").joinpath(f"presets/{name}.json")
    return res if res.is_file() else None


def _coerce(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Nanorotor alignment interferometry simulator")
    parser.add_argument("scenario", help="scenario name, preset name, config or manifest path")
    parser.add_argument("--out", help="output path prefix")
    parser.add_argument("--threads", type=int,
                        help="accepted for old command lines and ignored: ensembles run serially")
    parser.add_argument("--seed", type=int, help="master RNG seed")
    parser.add_argument("--validate-only", action="store_true",
                        help="validate and report estimates without running")
    args, rest = parser.parse_known_args(argv)
    overrides = {}
    i = 0
    while i < len(rest):
        tok = rest[i]
        if not tok.startswith("--") or i + 1 >= len(rest):
            raise ConfigError(f"expected --key.path value pairs, got {tok!r}")
        overrides[tok[2:]] = _coerce(rest[i + 1])
        i += 2
    return args, overrides


def main(argv=None) -> int:
    try:
        args, overrides = parse_args(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        preset = _preset_path(args.scenario)
        if preset is not None:
            cfg = cfgmod.config_from_dict(json.loads(preset.read_text()))
        elif os.path.exists(args.scenario):
            cfg = cfgmod.load_config(args.scenario)
        elif args.scenario in cfgmod.SCENARIOS:
            cfg = cfgmod.ExperimentConfig(scenario=args.scenario)
        else:
            print(f"config error: scenario: unknown scenario or preset "
                  f"{args.scenario!r}", file=sys.stderr)
            return 2
        if args.out:
            overrides["output.prefix"] = args.out
        if args.seed is not None:
            overrides["ensemble.seed"] = args.seed
        cfg = cfgmod.apply_overrides(cfg, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"config error: scenario: cannot read {args.scenario!r}: {exc}", file=sys.stderr)
        return 2
    if not args.validate_only:
        return run(cfg)
    report = cfgmod.validate(cfg)
    if not report.ok:
        return _report_problems(report)
    print(json.dumps({
        "ok": True, "jmax_estimate": report.jmax_estimate,
        "grid_order": report.grid_order,
        "memory_bytes": report.memory_bytes,
        "time_forecast_s": report.time_forecast_s}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
