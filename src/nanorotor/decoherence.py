"""Collisional decoherence: quantum-jump Monte Carlo.

Gas collisions diffuse the rotor angular momentum through the three
direction-cosine operators c_x, c_y, c_z of the symmetry axis.  Because
``sum_l c_l^2 = 1`` the total jump rate is state independent, so the pure-jump
unraveling needs no non-Hermitian drift: jump times are a homogeneous Poisson
process, and between jumps the normalized state evolves freely.

Per-trajectory randomness comes from counter-based Philox streams keyed by
(seed, trajectory index), so a trajectory's result does not depend on when it
runs; an ensemble is one loop over the trajectories in index order, and is
reproducible bit for bit.  The generator choice (numpy Philox via
``SeedSequence(seed, spawn_key=(index,))``) and the order of the draws from
each stream are part of the output contract and fixed per release.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import angular, observables, rotor
from .errors import DomainError, TruncationError
from .pulse import PulseSpec, apply_pulse, boundary_weight
from .rotor import Mixture, RotorState, SpectrumModel, free_propagate, mirror_state

__all__ = [
    "TrajectoryConfig",
    "EnsembleResult",
    "GAMMA_GAS_PRESET_HZ",
    "GAMMA_GAS_PRESET_PRESSURE_MBAR",
    "gamma_dimensionless",
    "sample_jump_times",
    "apply_jump",
    "run_ensemble",
]

# nitrogen gas at 5e-9 mbar, room temperature (named preset; the collision-rate
# formula itself lives outside this package)
GAMMA_GAS_PRESET_HZ = 20.7
GAMMA_GAS_PRESET_PRESSURE_MBAR = 5e-9

_BOUNDARY_TOL = 1e-6
# free-flight phase vectors one pass keeps, least recently used out
_PHASE_MEMO = 16
# draw sets kept across ensembles: the phases of a sweep share the last one
_DRAW_MEMO = 1


def gamma_dimensionless(gamma_hz: float, t_rev: float) -> float:
    """Convert a collision rate in Hz to jumps per revival time."""
    return gamma_hz * t_rev


@dataclass(frozen=True)
class TrajectoryConfig:
    """Monte Carlo run description; gamma is the jump rate in units of 1/T_rev."""

    gamma: float
    t_end: float
    observation_times: tuple[float, ...]
    seed: int = 0
    pulse: PulseSpec | None = None

    def __post_init__(self):
        if self.gamma < 0:
            raise DomainError("gamma must be >= 0")
        times = np.asarray(self.observation_times)
        if times.size and (np.any(np.diff(times) < 0) or times[0] < 0
                           or times[-1] > self.t_end):
            raise DomainError("observation times must be sorted within [0, t_end]")


@dataclass(frozen=True)
class EnsembleResult:
    """Trajectory-averaged alignment with standard errors, each trajectory's
    series in index order, and the weighted sum of each component's
    jump-free series.  ``trajectories`` is made by ``make_trajectories`` on
    first read."""

    times: np.ndarray
    mean_alignment: np.ndarray
    stderr: np.ndarray
    jump_count_histogram: dict[int, int]
    jump_free: np.ndarray
    make_trajectories: Callable[[], list] = field(repr=False)

    @functools.cached_property
    def trajectories(self) -> list:
        return self.make_trajectories()


def _trajectory_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def sample_jump_times(gamma: float, t_end: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson process of rate gamma on [0, t_end].

    Valid because the no-jump weight is state independent (sum_l c_l^2 = 1):
    the normalized state between jumps is exactly the freely evolved one.
    """
    if gamma < 0:
        raise DomainError("gamma must be >= 0")
    n = rng.poisson(gamma * t_end)
    return np.sort(rng.random(n)) * t_end


def jump_probabilities(state: RotorState) -> np.ndarray:
    """Channel probabilities (<c_x^2>, <c_y^2>, <c_z^2>) of a pure component,
    formed without applying any channel.

    <c_z^2> is the alignment <cos^2 beta>, and <c_x^2> + <c_y^2> is the
    norm less <c_z^2>, since sum_l c_l^2 = 1.  The split is
    <c_x^2 - c_y^2> = 2 Re <B^2>, with B the dm = +1 part of c_x without its
    coefficient (``angular.cosine_xy_difference``).  The three differ from the
    squared norms of the truncated products c_l psi only by terms in the
    amplitudes at jmax, which the jump guard keeps below 1e-6 in weight.
    """
    total = 0.0
    for vec in state.sectors.values():
        total += float(np.sum(np.abs(vec) ** 2))
    p_z = observables.alignment(state)
    p_xy = total - p_z
    split = angular.cosine_xy_difference(state.sectors, state.jmax, state.k0)
    return np.array([0.5 * (p_xy + split), 0.5 * (p_xy - split), p_z])


def apply_jump(state: RotorState, u: float) -> RotorState:
    """One collisional jump on a pure component: pick l with probability
    <c_l^2> from the uniform ``u`` in [0, 1), apply c_l alone and
    renormalize.  Conserves k0 exactly; m changes by at most 1.
    """
    for vec in state.sectors.values():
        if boundary_weight(vec, 1) > _BOUNDARY_TOL:  # c_l couple j to j +- 1
            raise TruncationError(
                "state weight at the j truncation boundary exceeds tolerance; "
                "raise jmax before sampling jumps")
    probs = jump_probabilities(state)
    pick = min(int(np.searchsorted(np.cumsum(probs), u * probs.sum())), 2)
    new_sectors = angular.DirectionCosineOperator(
        "xyz"[pick], state.jmax, state.k0).apply(state.sectors)
    weights = {m: float(np.sum(np.abs(v) ** 2)) for m, v in new_sectors.items()}
    norm = math.sqrt(sum(weights.values()))
    return replace(state, sectors={m: v / norm for m, v in new_sectors.items()
                                   if weights[m] > 1e-32 * norm ** 2},
                   diagnostics=dict(state.diagnostics))


def _merge(jumps, events: list) -> list:
    """(time, uniform) jumps merged into time-ordered (t, kind, arg) events:
    a jump (kind 0) carries the uniform that picks its channel, an
    observation (2) its output index, a pulse (1) nothing.  Order at equal
    times: jumps, then pulses, then observations; events of one kind keep
    their order."""
    merged = [(t, 0, u) for t, u in jumps] + events
    merged.sort(key=lambda e: (e[0], e[1]))
    return merged


def _schedule(config: TrajectoryConfig) -> list:
    """The jump-free events: the scheduled pulses and the observations."""
    events = []
    if config.pulse is not None and config.pulse.phi != 0.0:
        events += [(t, 1, None) for t in config.pulse.schedule]
    events += [(t, 2, i) for i, t in enumerate(config.observation_times)]
    return _merge((), events)


def _run_events(state: RotorState, spectrum: SpectrumModel, config: TrajectoryConfig,
                events: list, out: np.ndarray, keep: dict | None = None) -> np.ndarray:
    """Run time-ordered events from state: free flight up to each event, then
    the jump (with the uniform it carries), pulse or observation (written to
    ``out[arg]``).  ``keep`` maps event positions to the state reached
    before them (before the free flight; position ``len(events)`` is the
    final state) and is filled in place.  The pass keeps the phase vector of
    its last ``_PHASE_MEMO`` distinct (|k0|, jmax, dt) steps, so a step that
    repeats multiplies by the vector its first occurrence computed."""
    phase = functools.lru_cache(maxsize=_PHASE_MEMO)(
        functools.partial(rotor.free_phase, spectrum))
    for n, (t, kind, arg) in enumerate(events):
        if keep is not None and n in keep:
            keep[n] = state
        if t > state.time:
            dt = t - state.time
            state = free_propagate(state, dt, spectrum, phase(abs(state.k0), state.jmax, dt))
        if kind == 0:
            state = apply_jump(state, arg)
        elif kind == 1:
            state = apply_pulse(state, config.pulse)
        else:
            out[arg] = observables.alignment(state)
    if keep is not None and len(events) in keep:
        keep[len(events)] = state
    return out


@functools.lru_cache(maxsize=_DRAW_MEMO)
def _draws(seed: int, gamma: float, t_end: float, weights: tuple, n: int) -> tuple:
    """The random inputs of trajectories 0..n-1 as (component index, jump
    times, channel uniforms), read-only, each in its stream's order: the
    component (drawn by weight only when there are several), the jump times,
    then one uniform per jump (``rng.random(n)`` gives the bits of n scalar
    draws).  Deterministic given the arguments, so the phases of a sweep,
    which differ only in padding and pulse, share one set.  With gamma = 0
    and one component every draw is (0, no jump, no uniform), and no stream
    is made."""
    if gamma == 0.0 and len(weights) == 1:
        none = np.empty(0)
        none.flags.writeable = False
        return ((0, none, none),) * n
    w = np.array(weights)
    p = w / w.sum()
    draws = []
    for index in range(n):
        rng = _trajectory_rng(seed, index)
        pick = int(rng.choice(len(w), p=p)) if len(w) > 1 else 0
        jumps = sample_jump_times(gamma, t_end, rng)
        uniforms = rng.random(jumps.size)
        jumps.flags.writeable = uniforms.flags.writeable = False
        draws.append((pick, jumps, uniforms))
    return tuple(draws)


def _is_mirror(state: RotorState, twin: RotorState) -> bool:
    """Whether ``state`` is the mirror of ``twin`` bit for bit."""
    mirrored = mirror_state(twin)
    return (state.k0 == mirrored.k0 and state.jmax == mirrored.jmax
            and state.time == mirrored.time and state.sectors.keys() == mirrored.sectors.keys()
            and all(vec.tobytes() == mirrored.sectors[m].tobytes()
                    for m, vec in state.sectors.items()))


def run_ensemble(initial: Mixture, spectrum: SpectrumModel,
                 config: TrajectoryConfig, n: int) -> EnsembleResult:
    """Average n trajectories (mixture weights included), in one pass.

    The random draws are made once for the last (seed, gamma, t_end,
    weights, n).  Each component runs one jump-free pass, except one that is
    the mirror of an earlier one (``rotor.mirror_state``): every kernel gives
    a mirrored state the bits it gives the original, so it reads its twin's
    pass.  Until its first jump a trajectory is a function of its component
    alone, so it runs, in index order, from the state its pass reached before
    the first event at or after that jump (mirrored for a twin); a trajectory
    that makes no jump is its pass's series itself, read-only.
    With gamma = 0 no trajectory jumps: the mean is the weighted sum of each
    component's jump-free series, for any n, and the draws, which only pick
    each trajectory's component, are made when ``trajectories`` is first read.
    """
    if n < 1:
        raise DomainError("n must be >= 1")

    def draws():
        return [(initial.components[c], jumps, uniforms) for c, jumps, uniforms in _draws(
            config.seed, config.gamma, config.t_end, tuple(initial.weights), n)]

    taken = draws() if config.gamma != 0.0 else []
    events = _schedule(config)
    times = [t for t, _, _ in events]
    passes, source = {}, {}  # k0 of a pass -> component; k0 -> k0 of the pass it reads
    for c in initial.components:
        twin = passes.get(-c.k0)
        source[c.k0] = twin.k0 if twin is not None and _is_mirror(c, twin) else c.k0
        passes.setdefault(source[c.k0], c)
    starts: dict[int, dict] = {k0: {} for k0 in passes}  # pass -> {position: state}
    for component, jumps, _ in taken:
        if len(jumps):
            starts[source[component.k0]][bisect.bisect_left(times, jumps[0])] = None
    series = {}
    for k0, c in passes.items():
        series[k0] = _run_events(c, spectrum, config, events,
                                 np.empty(len(config.observation_times)), keep=starts[k0])
        series[k0].flags.writeable = False
    rows = []
    for component, jumps, uniforms in taken:
        k0_pass = source[component.k0]
        out = series[k0_pass]
        if len(jumps):
            start = bisect.bisect_left(times, jumps[0])
            state = starts[k0_pass][start]
            if k0_pass != component.k0:
                state = mirror_state(state)
            out = _run_events(state, spectrum, config,
                              _merge(zip(jumps, uniforms), events[start:]), out.copy())
        rows.append(out)
    jump_free = initial.mean(lambda c: series[source[c.k0]])
    if config.gamma == 0.0:
        mean, stderr, hist = jump_free, np.zeros_like(jump_free), {0: n}

        def trajectories():
            return [series[source[c.k0]] for c, _, _ in draws()]
    else:
        data = np.vstack(rows)
        mean = data.mean(axis=0)
        stderr = data.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
        hist = dict(Counter(len(jumps) for _, jumps, _ in taken))

        def trajectories():
            return rows
    return EnsembleResult(times=np.asarray(config.observation_times), mean_alignment=mean,
                          stderr=stderr, jump_count_histogram=hist, jump_free=jump_free,
                          make_trajectories=trajectories)
