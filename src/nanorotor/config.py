"""Experiment configuration: dataclasses, JSON I/O, validation, estimates.

Configs are plain JSON with a fixed schema; CLI flags override file keys by
dotted path (``--pulse.phi 3.14159``).  ``validate`` performs static checks,
runs the resolvers and makes resource estimates; it never runs physics.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
import types
import typing
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from . import angular, decoherence, observables
from . import pulse as pulse_mod
from . import rotor as rotor_mod
from .errors import ConfigError, DomainError

SCENARIOS = ("evolve", "sweep_phi", "sweep_sigma", "sweep_asymmetry",
             "decohere", "fractional", "params")

# the most time samples one series may take
MAX_TIME_SAMPLES = 1_000_000
# time samples are rounded to this many decimals, so no two may lie closer
TIME_DECIMALS = 12
# the most trajectories one ensemble may average
MAX_TRAJECTORIES = 100_000
# the most jumps a trajectory may expect, gamma t_end: each costs a
# direction-cosine apply, and a few already decohere the state
MAX_EXPECTED_JUMPS = 10_000
# the most log-spaced b values one asymmetry sweep may take: each costs an
# asymmetric spectrum and a propagate-and-observe series per phase
MAX_B_POINTS = 1_000
EIGHTH = 0.125
# the fig2b sample spacing: 521 points over [0.95, 1.08]
REVIVAL_STEP = (1.08 - 0.95) / 520
# the smallest grid order fractional reads its window masses on, which are
# sensitive to edge cells
FRACTIONAL_GRID_ORDER = 1201

# what a sweep list left at None stands for: the values of the paper's figures
SWEEP_DEFAULTS = {
    "phi": [i * math.pi / 8 for i in range(17)],
    "sigma_beta": [0.003, 0.03, 0.1],
    "sigma_k": [0.0, 1.0, 2.0, 4.0],
}


# No config class is compared, hashed or printed, so none generates __eq__ or __repr__:
# building those methods is start-up time that every process pays.
@dataclass(repr=False, eq=False)
class RotorConfig:
    semi_axes_nm: list[float] | None = None
    density_kg_m3: float | None = None
    inertia_ratio: float | None = None
    b_asym: float | None = None
    t_rev_s: float | None = None
    # params scenario: also report the asymmetry of a variant with this minor
    # semi-axis (nm), e.g. the nominally round rod after a fabrication deviation
    variant_minor_axis_nm: float | None = None


@dataclass(repr=False, eq=False)
class StateConfig:
    mode: str = "gaussian_j"
    sigma_j_sq: float | None = None
    sigma_beta: float | None = None
    sigma_k: float = 0.0
    k0: int = 0
    jmax: int | None = None


@dataclass(repr=False, eq=False)
class LaserConfig:
    power_w: float = 0.0
    waist_m: float = 0.0
    duration_s: float = 0.0
    delta_alpha: float = 0.0


@dataclass(repr=False, eq=False)
class PulseConfig:
    phi: float | list[float] | None = None
    laser: LaserConfig | None = None
    schedule_t: list[float] = field(default_factory=lambda: [0.125])
    method: str = "semiclassical"


@dataclass(repr=False, eq=False)
class GammaConfig:
    hz: float | None = None
    dimensionless: float | None = None


@dataclass(repr=False, eq=False)
class TimesConfig:
    t_end: float = 1.05
    n_points: int = 512
    refine_factor: int = 8
    refine_halfwidth: float = 0.02


@dataclass(repr=False, eq=False)
class EnsembleConfig:
    n: int = 1
    seed: int = 12345
    threads: int | None = None


@dataclass(repr=False, eq=False)
class SweepConfig:
    phi: list[float] | None = None
    sigma_k: list[float] | None = None
    sigma_beta: list[float] | None = None
    b_log10_min: float = -6.0
    b_log10_max: float = -4.0
    b_points: int = 7
    b_include: list[float] = field(default_factory=list)


@dataclass(repr=False, eq=False)
class SpectrumConfig:
    method: str = "symmetric"
    kmax: int | None = None  # no reader: old manifests carry null, validate rejects a value


@dataclass(repr=False, eq=False)
class OutputConfig:
    prefix: str = "run"
    format: str = "csv"  # no reader: old manifests carry "csv", validate rejects another


@dataclass(repr=False, eq=False)
class ExperimentConfig:
    scenario: str = "evolve"
    rotor: RotorConfig = field(default_factory=RotorConfig)
    state: StateConfig = field(default_factory=StateConfig)
    pulse: PulseConfig = field(default_factory=PulseConfig)
    gamma: GammaConfig = field(default_factory=GammaConfig)
    times: TimesConfig = field(default_factory=TimesConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    spectrum: SpectrumConfig = field(default_factory=SpectrumConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def to_dict(self) -> dict:
        return asdict(self)


def _is_a(value, tp) -> bool:
    if typing.get_origin(tp) is list:
        return isinstance(value, list) and all(_is_a(v, typing.get_args(tp)[0]) for v in value)
    if tp in (int, float) and isinstance(value, bool):
        return False
    if tp is float:  # finite, and an int within float range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, tp)


@angular.memo("_hints")
def _hints(cls: type) -> dict:
    """The field annotations of a config class, resolved once (read-only use)."""
    return typing.get_type_hints(cls)


def _typed(key: str, value, hint):
    """``value`` checked against the field annotation ``hint``; a JSON object
    given for a config section becomes that section."""
    for tp in typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,):
        if dataclasses.is_dataclass(tp) and isinstance(value, dict):
            section = tp()
            hints = _hints(tp)
            for sub, subval in value.items():
                path = f"{key}.{sub}" if key else sub
                if sub not in hints:
                    raise ConfigError(f"{path}: unknown key")
                setattr(section, sub, _typed(path, subval, hints[sub]))
            return section
        if _is_a(value, tp):
            return value
    expected = hint.__name__ if isinstance(hint, type) else str(hint)
    raise ConfigError(f"{key or 'config'}: expected {expected}, got {value!r}")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a JSON dict; accepts a run manifest ({"config": ...})."""
    if isinstance(data, dict) and "config" in data and "scenario" not in data:
        data = data["config"]
    return _typed("", data, ExperimentConfig)


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def apply_overrides(cfg: ExperimentConfig, overrides: dict[str, Any]) -> ExperimentConfig:
    """Apply dotted-path overrides (``pulse.phi`` -> cfg.pulse.phi)."""
    cfg = copy.deepcopy(cfg)
    for path, value in overrides.items():
        *parents, name = path.split(".")
        target = cfg
        for part in parents:
            target = getattr(target, part, None)
        hints = _hints(type(target)) if dataclasses.is_dataclass(target) else {}
        if name not in hints:
            raise ConfigError(f"{path}: unknown key")
        setattr(target, name, _typed(path, value, hints[name]))
    return cfg


def sweep_values(cfg: ExperimentConfig, name: str) -> list[float]:
    """The sweep list ``cfg.sweep.<name>``, or its default when not given."""
    values = getattr(cfg.sweep, name)
    return SWEEP_DEFAULTS[name] if values is None else values


def value_tag(value: float) -> str:
    """The label of a swept value in output file names and manifest keys:
    6 significant digits, with '-' as 'm' and '.' as 'p'."""
    return f"{value:.6g}".replace("-", "m").replace(".", "p")


def build_time_grid(times: TimesConfig) -> np.ndarray:
    """Uniform sampling plus dense refinement around multiples of 1/8.

    Multiples of 1/8 inside the range are always exact sample points, so
    revival values are read at the revival, not next to it.  Raises
    ConfigError, naming the key that drives it, before it builds a grid of
    more than MAX_TIME_SAMPLES samples (counted before duplicates merge) or
    one whose uniform samples would lie closer than the rounding step.
    """
    too_many = f"the time grid would hold more than {MAX_TIME_SAMPLES:,} samples"
    if times.n_points > MAX_TIME_SAMPLES:
        raise ConfigError(f"times.n_points: {too_many}")
    # every refinement centre adds at least 3 samples
    if 3 * (times.t_end / EIGHTH + 1) > MAX_TIME_SAMPLES:
        raise ConfigError(f"times.t_end: {too_many}")
    spacing = times.t_end / max(times.n_points - 1, 1)
    if spacing < 10.0 ** -TIME_DECIMALS:
        raise ConfigError(f"times.t_end: its samples would lie closer than "
                          f"1e-{TIME_DECIMALS}, the step they are rounded to")
    n8 = int(math.floor(times.t_end / EIGHTH + 1e-9))
    centers = EIGHTH * np.arange(0, n8 + 1)
    lo = np.maximum(centers - times.refine_halfwidth, 0.0)
    hi = np.minimum(centers + times.refine_halfwidth, times.t_end)
    try:
        factor = float(times.refine_factor)
    except OverflowError:  # a refine_factor beyond float range
        factor = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        counts = np.maximum(np.rint((hi - lo) / spacing * factor), 2.0)
    if not times.n_points + np.sum(counts + 1.0) <= MAX_TIME_SAMPLES:
        raise ConfigError(f"times.refine_factor: {too_many}")
    # np.linspace(lo, hi, n) of every window at once, in linspace's arithmetic
    counts = counts.astype(np.int64)
    ends = np.cumsum(counts)
    offset = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    windows = offset * np.repeat((hi - lo) / (counts - 1), counts) + np.repeat(lo, counts)
    windows[ends - 1] = hi
    parts = [np.linspace(0.0, times.t_end, times.n_points), windows,
             centers[centers <= times.t_end]]
    # sorted and deduplicated as np.unique would, which would import numpy.ma
    # (10-20 ms, 1 MiB) into runs that read no time grid
    grid = np.sort(np.round(np.concatenate(parts), TIME_DECIMALS))
    return grid[np.concatenate([[True], grid[1:] != grid[:-1]])]


def revival_time_grid(b: float) -> np.ndarray:
    """The sweep_asymmetry samples at asymmetry b: t = 0, then every point
    0.95 + i REVIVAL_STEP (to 12 digits) with 0 <= i <= 520 or in b's revival
    window.  ``observables.revival_window`` admits |b| < 0.095 only, whose
    window lies inside (0, 3.9), so the grid holds at most 15,600 samples."""
    centre, halfwidth = observables.revival_window(b)
    lo, hi = centre - halfwidth, centre + halfwidth
    i = np.arange(math.floor(min((lo - 0.95) / REVIVAL_STEP, 0.0)),
                  math.ceil(max((hi - 0.95) / REVIVAL_STEP, 520.0)) + 1)
    t = np.round(i * REVIVAL_STEP + 0.95, TIME_DECIMALS)
    keep = (i >= 0) & (i <= 520) | (t >= lo) & (t <= hi)
    return np.concatenate([[0.0], t[keep]])


def resolve_phi_list(cfg: ExperimentConfig) -> list[float]:
    p = cfg.pulse
    if p.phi is not None and p.laser is not None:
        raise ConfigError("pulse: give exactly one of phi or laser, not both")
    if p.laser is not None:
        ls = p.laser
        try:
            return [pulse_mod.phase_from_laser(ls.power_w, ls.waist_m,
                                               ls.duration_s, ls.delta_alpha)]
        except DomainError as exc:
            raise ConfigError(f"pulse.laser: {exc}") from exc
    if p.phi is None:
        return [0.0]
    if isinstance(p.phi, (int, float)):
        return [float(p.phi)]
    if not p.phi:
        raise ConfigError("pulse.phi: the list must not be empty")
    return [float(x) for x in p.phi]


def resolve_inertia(cfg: ExperimentConfig) -> rotor_mod.InertiaModel:
    r = cfg.rotor
    try:
        if r.semi_axes_nm is not None:
            axes = tuple(a * 1e-9 for a in r.semi_axes_nm)
            return rotor_mod.inertia_from_ellipsoid(axes, r.density_kg_m3)
        return rotor_mod.inertia_from_parameters(r.inertia_ratio, r.b_asym or 0.0,
                                                 t_rev=r.t_rev_s)
    except DomainError as exc:
        key = "rotor.semi_axes_nm" if r.semi_axes_nm is not None else "rotor"
        raise ConfigError(f"{key}: {exc}") from exc


def resolve_variant(cfg: ExperimentConfig) -> rotor_mod.InertiaModel | None:
    """The params scenario's variant: the rotor's geometry with one minor
    semi-axis set to ``rotor.variant_minor_axis_nm``."""
    r = cfg.rotor
    if r.variant_minor_axis_nm is None or not r.semi_axes_nm:
        return None
    axes = sorted(r.semi_axes_nm, reverse=True)  # [long, minor, minor]
    try:
        return rotor_mod.inertia_from_ellipsoid(
            (axes[1] * 1e-9, r.variant_minor_axis_nm * 1e-9, axes[0] * 1e-9),
            r.density_kg_m3)
    except DomainError as exc:
        raise ConfigError(f"rotor.variant_minor_axis_nm: {exc}") from exc


def resolve_gamma(cfg: ExperimentConfig, model: rotor_mod.InertiaModel) -> float:
    """The jump rate per revival time; ``gamma.hz`` needs the rotor's T_rev.
    A rate at which a trajectory would expect more than MAX_EXPECTED_JUMPS
    jumps is rejected."""
    g = cfg.gamma
    if g.hz is not None and g.dimensionless is not None:
        raise ConfigError("gamma: give one of hz or dimensionless, not both")
    if g.dimensionless is not None:
        key, gamma = "gamma.dimensionless", float(g.dimensionless)
    elif g.hz is not None:
        t_rev = model.t_rev if model.mass else cfg.rotor.t_rev_s
        if not t_rev:
            raise ConfigError("gamma.hz needs a physical rotor (t_rev) to convert")
        key, gamma = "gamma.hz", decoherence.gamma_dimensionless(float(g.hz), t_rev)
    else:
        return 0.0
    # a trajectory runs to times.t_end, or to t = 1 in the phase and width sweeps
    t_last = 1.0 if cfg.scenario in ("sweep_phi", "sweep_sigma") else cfg.times.t_end
    if not gamma * t_last <= MAX_EXPECTED_JUMPS:
        raise ConfigError(f"{key}: a trajectory would expect more than "
                          f"{MAX_EXPECTED_JUMPS:,} jumps")
    return gamma


@dataclass(repr=False, eq=False)
class ValidationReport:
    """Problems found, and for a valid config what the run needs: the rotor
    models, the pulse phases, the jump rate and the resource estimates."""

    problems: list[str]
    model: rotor_mod.InertiaModel | None = None
    variant: rotor_mod.InertiaModel | None = None
    phis: list[float] | None = None
    gamma: float | None = None
    jmax_estimate: int | None = None
    grid_order: int | None = None
    memory_bytes: int | None = None
    time_forecast_s: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def validate(cfg: ExperimentConfig) -> ValidationReport:
    """Static validation, the resolvers and a resource forecast; runs no physics."""
    problems: list[str] = []
    if cfg.scenario not in SCENARIOS:
        problems.append(f"scenario: unknown value {cfg.scenario!r}")

    r = cfg.rotor
    geom = r.semi_axes_nm is not None or r.density_kg_m3 is not None
    direct = r.inertia_ratio is not None or r.b_asym is not None or r.t_rev_s is not None
    if geom and direct:
        problems.append("rotor: give either geometry (semi_axes_nm, density_kg_m3) "
                        "or direct parameters, not both")
    elif geom:
        if r.semi_axes_nm is None or len(r.semi_axes_nm) != 3 or min(r.semi_axes_nm) <= 0:
            problems.append("rotor.semi_axes_nm: need three positive values")
        if r.density_kg_m3 is None or r.density_kg_m3 <= 0:
            problems.append("rotor.density_kg_m3: must be positive")
    elif direct:
        if r.inertia_ratio is None or r.inertia_ratio <= 1:
            problems.append("rotor.inertia_ratio: must exceed 1 (prolate)")
        if r.t_rev_s is not None and r.t_rev_s <= 0:
            problems.append("rotor.t_rev_s: must be positive")
    else:
        problems.append("rotor: missing specification")

    s = cfg.state
    if s.mode not in ("gaussian_j", "gaussian_beta"):
        problems.append(f"state.mode: unknown value {s.mode!r}")
    if s.mode == "gaussian_j":
        if s.sigma_j_sq is None or s.sigma_j_sq <= 0:
            problems.append("state.sigma_j_sq: must be positive")
    else:
        if s.sigma_beta is None or s.sigma_beta <= 0:
            problems.append("state.sigma_beta: must be positive (degenerate Gaussian rejected)")
    if s.sigma_k < 0:
        problems.append("state.sigma_k: must be >= 0")
    if s.sigma_k > 0 and s.mode != "gaussian_beta":
        problems.append("state.sigma_k: a k0 mixture needs state.mode gaussian_beta")
    # the widest k0 mixture the run prepares spans |k0| <= k_cutoff(sigma_k)
    sigma_ks = sweep_values(cfg, "sigma_k") if cfg.scenario == "sweep_sigma" else [s.sigma_k]
    sigma_k_max = max(sigma_ks, default=0.0)
    if s.k0 != 0 and sigma_k_max > 0:
        problems.append("state.k0: must be 0 in a k0 mixture (sigma_k > 0)")
    # the |k0| the run prepares (the sweep's widths) or estimates (the state's)
    for key, k in (("state.k0", abs(s.k0)), ("state.sigma_k", rotor_mod.k_cutoff(s.sigma_k)),
                   ("sweep.sigma_k", rotor_mod.k_cutoff(sigma_k_max))):
        if k > rotor_mod.J_SPAN_LIMIT:
            problems.append(f"{key}: takes |k0| to {k}, beyond {rotor_mod.J_SPAN_LIMIT}")
            break
    kmax = max(rotor_mod.k_cutoff(sigma_k_max), abs(s.k0))
    if s.jmax is not None and s.jmax < kmax:
        problems.append(f"state.jmax: must be >= {kmax}, the largest |k0| the run prepares")
    if s.jmax is not None and s.jmax > rotor_mod.J_SPAN_LIMIT:
        problems.append(f"state.jmax: must not exceed {rotor_mod.J_SPAN_LIMIT}")

    p = cfg.pulse
    for t in p.schedule_t:
        if not 0.0 <= t <= 8.0:
            problems.append(f"pulse.schedule_t: {t} outside [0, 8]")
    if p.method not in ("exact", "semiclassical"):
        problems.append(f"pulse.method: unknown value {p.method!r}")
    if p.method == "semiclassical":
        for key, val in (("pulse.phi", p.phi), ("sweep.phi", cfg.sweep.phi)):
            if any(v < 0 for v in (val if isinstance(val, list) else [val or 0.0])):
                problems.append(f"{key}: must be >= 0 with the semiclassical pulse")
    if cfg.scenario == "sweep_sigma" and isinstance(p.phi, list) and len(p.phi) > 1:
        problems.append("pulse.phi: sweep_sigma runs one phase, not a list of several")
    if cfg.scenario in ("fractional", "sweep_phi"):
        unread = ("fractional applies no pulse" if cfg.scenario == "fractional"
                  else "sweep_phi takes its phases from sweep.phi")
        for key, val in (("pulse.phi", p.phi), ("pulse.laser", p.laser)):
            if val is not None:
                problems.append(f"{key}: {unread}; must be null")

    g = cfg.gamma
    for name, val in (("gamma.hz", g.hz), ("gamma.dimensionless", g.dimensionless)):
        if val is not None and val < 0:
            problems.append(f"{name}: must be >= 0")
        elif val and cfg.scenario in ("sweep_asymmetry", "fractional"):
            problems.append(f"{name}: {cfg.scenario} runs without jumps; must be 0 or null")

    t = cfg.times
    if t.t_end <= 0:
        problems.append("times.t_end: must be positive")
    if t.n_points < 2:
        problems.append("times.n_points: must be >= 2")
    if t.refine_halfwidth < 0:
        problems.append("times.refine_halfwidth: must be >= 0")
    elif t.t_end > 0 and t.n_points >= 2:
        try:
            build_time_grid(t)
        except ConfigError as exc:
            problems.append(str(exc))
    if cfg.ensemble.n < 1:
        problems.append("ensemble.n: must be >= 1")
    elif cfg.ensemble.n > MAX_TRAJECTORIES:
        problems.append(f"ensemble.n: must not exceed {MAX_TRAJECTORIES:,}")
    if cfg.ensemble.seed < 0:
        problems.append("ensemble.seed: must be >= 0")
    sw = cfg.sweep
    for name in SWEEP_DEFAULTS:
        if getattr(sw, name) == []:
            problems.append(f"sweep.{name}: the list must not be empty")
    if sw.b_points < 0:
        problems.append("sweep.b_points: must be >= 0")
    elif sw.b_points > MAX_B_POINTS:
        problems.append(f"sweep.b_points: must not exceed {MAX_B_POINTS:,}")
    if cfg.scenario == "sweep_asymmetry" and sw.b_points == 0 and not sw.b_include:
        problems.append("sweep.b_points: 0 with an empty sweep.b_include sweeps no b")
    elif cfg.scenario == "sweep_asymmetry" and sw.b_points >= 0:
        log_ends = [("sweep.b_log10_min", sw.b_log10_min), ("sweep.b_log10_max", sw.b_log10_max)]
        # the b values that bound the sweep's |b|, 10^x capped to stay in float range
        swept = [("sweep.b_include", b) for b in sw.b_include] + [
            (key, 10.0 ** min(x, 308.0)) for key, x in log_ends[:sw.b_points]]
        for key, b in swept:
            try:
                observables.revival_window(b)
            except DomainError as exc:
                problems.append(f"{key}: {exc}")
                break
    if any(v <= 0 for v in sw.sigma_beta or ()):
        problems.append("sweep.sigma_beta: every entry must be positive")
    if any(v < 0 for v in sw.sigma_k or ()):
        problems.append("sweep.sigma_k: every entry must be >= 0")
    # each value's tag names its output file or manifest entry
    for key, values in (("pulse.phi", p.phi), ("sweep.phi", sw.phi),
                        ("sweep.sigma_beta", sw.sigma_beta), ("sweep.sigma_k", sw.sigma_k)):
        tags = [value_tag(v) for v in values] if isinstance(values, list) else []
        if len(set(tags)) < len(tags):
            problems.append(f"{key}: two entries share an output tag (6 significant digits)")
    if cfg.spectrum.method not in ("symmetric", "asymmetric"):
        problems.append(f"spectrum.method: unknown value {cfg.spectrum.method!r}")
    elif cfg.scenario == "sweep_asymmetry" and cfg.spectrum.method != "asymmetric":
        problems.append("spectrum.method: sweep_asymmetry sweeps the asymmetric spectrum; "
                        "set it to 'asymmetric'")
    if cfg.spectrum.kmax is not None:
        problems.append("spectrum.kmax: must be null; the spectrum covers the state's "
                        "largest |k0|")
    if cfg.output.format != "csv":
        problems.append(f"output.format: must be 'csv', the one format written; "
                        f"got {cfg.output.format!r}")

    report = ValidationReport(problems=problems)
    if problems:
        return report
    try:
        report.model = resolve_inertia(cfg)
        report.variant = resolve_variant(cfg)
        report.gamma = resolve_gamma(cfg, report.model)
    except ConfigError as exc:
        problems.append(str(exc))
    try:
        report.phis = resolve_phi_list(cfg)
    except ConfigError as exc:
        problems.append(str(exc))
    if cfg.scenario == "sweep_sigma":
        for sb in sweep_values(cfg, "sigma_beta"):
            try:
                rotor_mod.estimate_jmax("gaussian_beta", sb)
            except DomainError as exc:
                problems.append(f"sweep.sigma_beta: {exc}")
    if problems:
        return report

    # resource estimates from the truncation rule plus pulse headroom
    kcut = rotor_mod.k_cutoff(s.sigma_k)
    key, param = (("state.sigma_j_sq", s.sigma_j_sq) if s.mode == "gaussian_j"
                  else ("state.sigma_beta", s.sigma_beta))
    try:
        base_jmax = rotor_mod.estimate_jmax(s.mode, param, max(kcut, abs(s.k0)))
    except DomainError as exc:
        problems.append(f"{key}: {exc}")
        return report
    # the phases the run pulses with: a sweep_phi run takes them from sweep.phi
    if cfg.scenario == "sweep_phi":
        phi_key, phis = "sweep.phi", sweep_values(cfg, "phi")
    else:
        phi_key, phis = ("pulse.laser" if p.laser is not None else "pulse.phi"), report.phis
    try:
        jmax = (s.jmax or base_jmax) + pulse_mod.pulse_headroom(phis, len(p.schedule_t))
    except DomainError as exc:
        problems.append(f"{phi_key}: {exc}")
        return report
    if jmax > rotor_mod.J_SPAN_LIMIT:
        problems.append(f"{phi_key}: the pulse headroom takes jmax to {jmax}, "
                        f"beyond {rotor_mod.J_SPAN_LIMIT}")
        return report
    report.jmax_estimate = base_jmax
    # the largest quadrature grid the run builds: a gaussian_beta state's, at
    # its own jmax, or fractional's; a gaussian_j evolution builds none
    state_order = angular.AngularGrid.order_for(s.jmax or base_jmax)
    if cfg.scenario == "fractional":
        report.grid_order = max(state_order, FRACTIONAL_GRID_ORDER)
    elif s.mode == "gaussian_beta":
        report.grid_order = state_order
    nsec = 2 * kcut + 1
    report.memory_bytes = int(nsec * (jmax + 1) * 16 * 4 + (report.grid_order or 0) * 16 * 6)
    n_eval = t.n_points * (1 + t.refine_factor * 0.2) * max(cfg.ensemble.n, 1) * nsec
    report.time_forecast_s = float(n_eval * jmax * 2e-8 + 0.5)
    return report
