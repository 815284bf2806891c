import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

import oracles
from nanorotor import decoherence as dec
from nanorotor import angular, cli, config, observables, philox, pulse, rotor
from nanorotor.errors import DomainError


@pytest.fixture(scope="module")
def small_state():
    return rotor.prepare_aligned_state("gaussian_j", 3.0, jmax=16)


@pytest.fixture(scope="module")
def small_mixture(small_state):
    return rotor.Mixture.pure(small_state)


@pytest.fixture(scope="module")
def small_spectrum(small_state):
    model = rotor.inertia_from_parameters(41.8, 0.0)
    return rotor.rotational_energies(small_state.jmax, 0, model, "symmetric")


# ---------------------------------------------------------------------------
# jump-time sampling
# ---------------------------------------------------------------------------

def test_zero_rate_no_jumps():
    rng = dec._trajectory_rng(0, 0)
    assert dec.sample_jump_times(0.0, 5.0, rng).size == 0


def test_jump_count_mean():
    counts = [len(dec.sample_jump_times(0.29, 1.0, dec._trajectory_rng(1, i)))
              for i in range(10000)]
    sigma = math.sqrt(0.29 / 10000)
    assert np.mean(counts) == pytest.approx(0.29, abs=3 * sigma)


def test_jump_counts_poisson_distributed():
    lam = 0.8
    counts = np.array([len(dec.sample_jump_times(lam, 1.0, dec._trajectory_rng(2, i)))
                       for i in range(8000)])
    kmax = 6
    observed = np.array([(counts == k).sum() for k in range(kmax)]
                        + [(counts >= kmax).sum()], dtype=float)
    pmf = [math.exp(-lam) * lam ** k / math.factorial(k) for k in range(kmax)]
    expected = np.array(pmf + [1.0 - sum(pmf)]) * counts.size
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    p = 1.0 - sps.chi2.cdf(chi2, df=kmax)
    assert p > 0.01


def test_times_sorted_within_range():
    rng = dec._trajectory_rng(3, 0)
    t = dec.sample_jump_times(5.0, 2.0, rng)
    assert np.all(np.diff(t) >= 0)
    assert t[0] >= 0 and t[-1] <= 2.0


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
def test_jump_times_refuse_a_count_that_is_negative_or_not_finite(lam):
    # numpy's poisson raised ValueError at nan; the multiplication method
    # would return 0 jumps at nan or below 0
    with pytest.raises(DomainError, match="gamma \\* t_end"):
        dec.sample_jump_times(1.0, lam, dec._trajectory_rng(0, 0))


def _numpy_stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def _every_draw(rng) -> dict:
    """Each kind of draw the Monte Carlo makes, through both Poisson branches."""
    draws = {"doubles": [rng.random() for _ in range(9)]}  # 9 doubles span 3 Philox blocks
    draws["after lam = 0"] = [rng.poisson(0.0), rng.random()]  # lam = 0 draws nothing
    for lam in (1e-3, 0.33, 9.999999, 10.0, 17.3, config.MAX_EXPECTED_JUMPS):
        draws[lam] = [rng.poisson(lam) for _ in range(20)]
    draws["choice"] = [int(rng.choice(3, p=np.array([0.0, 0.3, 0.7]))) for _ in range(40)]
    draws["arrays"] = [rng.random(5).tobytes(), rng.random(0).tobytes()]
    draws["jump times"] = [dec.sample_jump_times(gamma, t_end, rng).tobytes() for gamma, t_end
                           in ((0.4, 1.0), (17.3 / 2, 2.0), (config.MAX_EXPECTED_JUMPS / 2, 2.0))]
    return draws


@pytest.mark.parametrize("index", [0, 1, 2 ** 32 + 1])
@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 128 + 7],
                         ids=["0", "2^32-1", "2^32", "2^128+7"])
def test_stream_draws_what_numpy_draws(seed, index):
    # the streams reproduce numpy's Philox4x64-10 under SeedSequence and its
    # Poisson and choice algorithms; 2^128 + 7 has more words than the pool
    ours, reference = dec._trajectory_rng(seed, index), _numpy_stream(seed, index)
    draws = _every_draw(ours)
    assert draws == _every_draw(reference)
    assert set(draws["choice"]) == {1, 2}  # the zero weight is never picked
    assert type(ours.random()) is float
    none = ours.random(0)
    assert none.dtype == np.float64 and none.shape == (0,)


class _Doubles(philox.Stream):
    """A stream whose doubles are the given ones, in order."""

    __slots__ = ("_doubles",)

    def __init__(self, doubles):
        self._doubles = iter(doubles)

    def random(self, size=None):
        return next(self._doubles)


def test_ptrs_rejects_a_zero_us_and_takes_log_of_zero_as_minus_infinity():
    # PTRS at lam >= 10 draws pairs (U + 0.5, V).  U = -0.5 makes us = 0,
    # where C's floor(-inf) gives k < 0: rejected, not a ZeroDivisionError.
    # V = 0 with us < 0.07 reaches log(V), which C takes as -inf: accepted.
    lam, u = 17.3, 0.95 - 0.5
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    us = 0.5 - u
    k = math.floor((2 * a / us + b) * u + lam + 0.43)
    assert k >= 0 and us < 0.07
    assert _Doubles([0.95, 0.0]).poisson(lam) == k
    doubles = _Doubles([0.0, 0.3, 0.95, 0.0, 0.5])
    assert doubles.poisson(lam) == k
    assert next(doubles._doubles) == 0.5  # two pairs drawn: the rejected one, then k's


def test_ptrs_log_gamma_is_log_gamma():
    # a wrong series coefficient flips a PTRS draw only where its comparison
    # falls within that error, which the parity test's draws may never meet
    for x in (1.0, 2.0, 3.0, 6.5, 7.0, 18.0, 10_001.0):
        assert philox._loggam(x) == pytest.approx(math.lgamma(x), rel=1e-14, abs=1e-14)


# ---------------------------------------------------------------------------
# jump application
# ---------------------------------------------------------------------------

def _probabilities(state):
    """``jump_probabilities`` with the squared norm that ``apply_jump`` sums."""
    return dec.jump_probabilities(
        state, sum(float(np.sum(np.abs(v) ** 2)) for v in state.sectors.values()))


def test_channel_probabilities_sum_to_one(small_state):
    probs = _probabilities(small_state)
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)
    # z-channel probability is the alignment itself
    assert probs[2] == pytest.approx(observables.alignment(small_state), abs=1e-10)


def test_z_jump_keeps_m_and_sharpens_alignment(small_state):
    applied = angular.DirectionCosineOperator("z", small_state.jmax, 0).apply(
        small_state.sectors)
    p = sum(float(np.sum(np.abs(v) ** 2)) for v in applied.values())
    jumped = small_state.copy()
    jumped.sectors = {m: v / math.sqrt(p) for m, v in applied.items()}
    assert list(jumped.sectors) == [0]
    assert observables.alignment(jumped) >= observables.alignment(small_state)


def test_jump_conserves_k0_and_norm(small_state):
    for u in (0.1, 0.25, 0.9):  # the x, y and z channels (p = 0.167, 0.167, 0.666)
        out = dec.apply_jump(small_state, u)
        assert out.k0 == 0
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        assert all(abs(m) <= 1 for m in out.sectors)


def test_jump_rejects_boundary_weight():
    state = rotor.prepare_aligned_state("gaussian_j", 3.0, jmax=16)
    vec = np.zeros(17, dtype=complex)
    vec[16] = 1.0
    state.sectors[0] = vec
    with pytest.raises(Exception):
        dec.apply_jump(state, 0.5)


def _random_state(rng, k0: int, ms, jmax: int = 24) -> rotor.RotorState:
    """A normalized component with random amplitudes in the m sectors
    ``ms``, zero below max(|m|, |k0|) and in the top two j levels."""
    sectors = {}
    for m in ms:
        vec = np.zeros(jmax + 1, dtype=complex)
        j0 = max(abs(m), abs(k0))
        vec[j0:jmax - 1] = rng.normal(size=jmax - 1 - j0) + 1j * rng.normal(size=jmax - 1 - j0)
        sectors[m] = vec
    norm = math.sqrt(sum(float(np.sum(np.abs(v) ** 2)) for v in sectors.values()))
    return rotor.RotorState(k0=k0, sectors={m: v / norm for m, v in sectors.items()})


@pytest.mark.parametrize("k0", [-3, -1, 0, 2])
def test_probabilities_equal_the_applied_norms(k0):
    # off the boundary the channel probabilities formed without applying any
    # channel are the squared norms of the three truncated products, here on
    # states with several m sectors and m, m + 2 pairs
    rng = np.random.default_rng(40 + k0)
    for ms in ([0], [-1, 1], [-2, 0, 2], [-2, -1, 0, 1, 2], [1, 3, 4]):
        state = _random_state(rng, k0, ms)
        applied, _ = oracles.jump_probabilities_applied(state)
        probs = _probabilities(state)
        assert np.max(np.abs(probs - applied)) <= 1e-14, ms
        assert applied.sum() == pytest.approx(1.0, abs=1e-14)


def test_xy_split_needs_sectors_two_apart():
    # c_x^2 - c_y^2 moves m by +-2: from one sector, or from sectors one
    # apart, x and y are equally likely
    rng = np.random.default_rng(7)
    for ms in ([0], [0, 1], [-3, -2]):
        state = _random_state(rng, 1, ms)
        assert angular.cosine_xy_difference(state.sectors, state.jmax, 1) == 0.0
        p_x, p_y, _ = _probabilities(state)
        assert p_x == p_y


def _ties(probs) -> list[float]:
    """Uniforms u with u * sum(probs) equal to p_x or to p_x + p_y exactly."""
    total = probs.sum()
    ties = []
    for edge in np.cumsum(probs)[:2]:
        u = edge / total
        for _ in range(8):
            u = np.nextafter(u, 0.0)
        for _ in range(16):
            if u * total == edge:
                ties.append(float(u))
            u = np.nextafter(u, 1.0)
    return ties


def test_jump_picks_the_searchsorted_channel(monkeypatch):
    # the pick from floats is the oracle's searchsorted rule on the same
    # probabilities, ties included: u * sum equal to p_x picks x, equal to
    # p_x + p_y picks y
    picked = []

    class Recording(angular.DirectionCosineOperator):
        def __init__(self, axis, jmax, k):
            picked.append("xyz".index(axis))
            super().__init__(axis, jmax, k)

    monkeypatch.setattr(angular, "DirectionCosineOperator", Recording)
    rng = np.random.default_rng(11)
    states = [rotor.prepare_aligned_state("gaussian_j", 3.0, jmax=16)]
    states += [_random_state(rng, k0, ms) for k0 in (0, 2) for ms in ([-2, 0, 2], [1, 3])]
    tied = set()
    for state in states:
        probs = np.array(_probabilities(state))
        ties = _ties(probs)
        for u in ties + [0.0, 1.0 - 2.0 ** -53, *rng.random(20)]:
            dec.apply_jump(state, u)
            assert picked[-1] == oracles.channel_pick(probs, u), (u, probs)
            if u in ties:
                tied.add(picked[-1])
    assert tied == {0, 1}


def test_channel_uniforms_are_the_scalar_draws():
    # the stream order: component (when there are several), jump times, then
    # one uniform per jump; rng.random(n) gives the bits of n scalar draws
    mix = rotor.prepare_mixture(0.3, 1.0)
    cfg = dec.TrajectoryConfig(gamma=3.0, observation_times=(1.0,), seed=12)
    draws = dec._draws(cfg.seed, cfg.gamma, cfg.observation_times[-1], tuple(mix.weights), 60)
    assert len({pick for pick, _, _ in draws}) > 2
    assert max(len(jumps) for _, jumps, _ in draws) >= 5
    for index, (pick, jumps, uniforms) in enumerate(draws):
        component, ref_jumps, rng = oracles.draw(mix, cfg, index)
        scalar = np.array([rng.random() for _ in range(len(ref_jumps))])
        assert component is mix.components[pick]
        assert jumps.tobytes() == ref_jumps.tobytes()
        assert uniforms.tobytes() == scalar.tobytes()
        assert not jumps.flags.writeable and not uniforms.flags.writeable


# ---------------------------------------------------------------------------
# trajectories and ensembles
# ---------------------------------------------------------------------------

def test_gamma_zero_matches_deterministic(small_mixture, small_spectrum):
    tobs = tuple(np.linspace(0.0, 1.0, 11))
    cfg = dec.TrajectoryConfig(gamma=0.0, observation_times=tobs,
                               seed=5, pulse=pulse.PulseSpec(phi=math.pi))
    tr = oracles.run_trajectory(small_mixture, small_spectrum, cfg)
    ens = dec.run_ensemble(small_mixture, small_spectrum, cfg, 7)
    assert np.array_equal(tr, ens.mean_alignment)
    assert ens.jump_count_histogram == {0: 7}


def test_trajectory_deterministic_per_index(small_mixture, small_spectrum):
    tobs = tuple(np.linspace(0.0, 1.0, 9))
    cfg = dec.TrajectoryConfig(gamma=0.7, observation_times=tobs, seed=9)
    a = oracles.run_trajectory(small_mixture, small_spectrum, cfg, index=5)
    b = oracles.run_trajectory(small_mixture, small_spectrum, cfg, index=5)
    assert np.array_equal(a, b)


def test_jumped_trajectory_degrades_revival(small_mixture, small_spectrum):
    tobs = (0.0, 1.0)
    cfg0 = dec.TrajectoryConfig(gamma=0.0, observation_times=tobs, seed=1)
    clean = oracles.run_trajectory(small_mixture, small_spectrum, cfg0)
    assert clean[1] == pytest.approx(clean[0], abs=1e-10)
    # find a seed whose trajectory has at least one mid-flight jump
    cfg = dec.TrajectoryConfig(gamma=1.0, observation_times=tobs, seed=2)
    for idx in range(20):
        rng = dec._trajectory_rng(2, idx)
        jumps = dec.sample_jump_times(1.0, 1.0, rng)
        if jumps.size and 0.1 < jumps[0] < 0.9:
            series = oracles.run_trajectory(small_mixture, small_spectrum, cfg, idx)
            assert series[1] < clean[1] - 0.01
            return
    pytest.fail("no jumping trajectory found in 20 indices")


# ---------------------------------------------------------------------------
# the jump-free skeleton: trajectories resume from their first jump
# ---------------------------------------------------------------------------

_RESUME_TOBS = (0.1, 0.25, 0.5, 0.75, 1.0)

_RESUME_CASES = {
    # name: (jump times, pulse schedule, sigma_k mixture)
    "jump_before_first_observation": ((0.05,), (0.125,), False),
    "jump_at_pulse_time": ((0.125,), (0.125,), False),
    "jump_at_observation_time": ((0.5,), (0.125,), False),
    "two_jumps_after_last_pulse": ((0.6, 0.8), (0.125,), False),
    "two_pulses": ((0.3, 0.375), (0.125, 0.375), False),
    "mixture_nonzero_k0": ((0.2, 0.5), (0.125,), True),
}


@pytest.mark.parametrize("method", ["semiclassical", "exact"])
@pytest.mark.parametrize("case", sorted(_RESUME_CASES))
def test_resumed_run_equals_full_pass(case, method, monkeypatch):
    jumps, schedule, mixture = _RESUME_CASES[case]
    spec = pulse.PulseSpec(phi=math.pi / 2, schedule=schedule, method=method)
    base = (rotor.prepare_mixture(0.3, 1.0) if mixture
            else rotor.Mixture.pure(rotor.prepare_aligned_state("gaussian_j", 3.0, jmax=16)))
    state = base.map(lambda c: pulse.prepare_for_pulses(c, spec))
    k0 = 2 if mixture else 0
    spectrum = rotor.rotational_energies(
        state.jmax, state.kmax, rotor.inertia_from_parameters(41.8, 0.0), "symmetric")
    cfg = dec.TrajectoryConfig(gamma=1.0, observation_times=_RESUME_TOBS,
                               pulse=spec)
    # the full pass from t = 0 on the pure k0 component, events ordered by
    # (time, kind) with jumps, then pulses, then observations at equal times
    (component,) = [c for c in state.components if c.k0 == k0]
    uniforms = dec._trajectory_rng(21, 0).random(len(jumps))
    events = sorted([(t, 0, u) for t, u in zip(jumps, uniforms)]
                    + [(t, 1, None) for t in schedule]
                    + [(t, 2, i) for i, t in enumerate(_RESUME_TOBS)],
                    key=lambda e: (e[0], e[1]))
    full = dec._run_events(component, spectrum, cfg, events, np.empty(len(_RESUME_TOBS)),
                           phase=dec._phase_memo(spectrum))
    jump_free = dec._run_events(component, spectrum, cfg, [e for e in events if e[1]],
                                np.empty(len(_RESUME_TOBS)), phase=dec._phase_memo(spectrum))

    # the ensemble of that one component, given its one read-only draw
    draw = (0, np.array(jumps), uniforms)
    draw[1].flags.writeable = draw[2].flags.writeable = False
    monkeypatch.setattr(dec, "_draws", lambda *args: (draw,))
    res = dec.run_ensemble(rotor.Mixture.pure(component), spectrum, cfg, 1)
    assert res.trajectories[0].tobytes() == full.tobytes()
    assert res.jump_free.tobytes() == jump_free.tobytes()
    assert not np.array_equal(full, jump_free)  # the jumps change the series


def test_ensemble_is_index_ordered_mean_of_trajectories():
    # gamma > 0 on a sigma_k mixture with two scheduled pulses: the ensemble
    # (one skeleton shared by all trajectories) equals the mean of
    # trajectories each run on its own, so no trajectory depends on another
    spec = pulse.PulseSpec(phi=math.pi / 2, schedule=(0.125, 0.375))
    state = rotor.prepare_mixture(0.3, 1.0).map(lambda c: pulse.prepare_for_pulses(c, spec))
    spectrum = rotor.rotational_energies(
        state.jmax, state.kmax, rotor.inertia_from_parameters(41.8, 0.0), "symmetric")
    cfg = dec.TrajectoryConfig(gamma=1.5, observation_times=tuple(np.linspace(0.0, 1.0, 6)),
                               seed=31, pulse=spec)
    n = 16
    rows = np.vstack([oracles.run_trajectory(state, spectrum, cfg, i) for i in range(n)])
    draws = [oracles.draw(state, cfg, i) for i in range(n)]
    counts = [len(jumps) for _, jumps, _ in draws]
    assert len({c.k0 for c, _, _ in draws}) > 1 and 0 in counts and max(counts) > 1

    res = dec.run_ensemble(state, spectrum, cfg, n)
    assert res.mean_alignment.tobytes() == rows.mean(axis=0).tobytes()
    assert res.stderr.tobytes() == (rows.std(axis=0, ddof=1) / math.sqrt(n)).tobytes()
    assert res.jump_count_histogram == {c: counts.count(c) for c in set(counts)}
    # the ensemble returns the series it averaged, each the trajectory's own
    assert len(res.trajectories) == n
    for i, row in enumerate(rows):
        assert res.trajectories[i].tobytes() == row.tobytes(), i
    assert res.mean_alignment.tobytes() == np.vstack(res.trajectories).mean(0).tobytes()


def test_jump_free_series_is_the_gamma_zero_mean():
    # a gamma > 0 ensemble's jump_free is the weighted sum of each component's
    # jump-free series, the same bits as the gamma = 0 ensemble's mean, even
    # where the draws leave a component out
    spec = pulse.PulseSpec(phi=math.pi / 2, schedule=(0.125,))
    state = rotor.prepare_mixture(0.3, 1.0).map(lambda c: pulse.prepare_for_pulses(c, spec))
    spectrum = rotor.rotational_energies(
        state.jmax, state.kmax, rotor.inertia_from_parameters(41.8, 0.0), "symmetric")
    tobs = tuple(np.linspace(0.0, 1.0, 6))
    free = dec.run_ensemble(state, spectrum, dec.TrajectoryConfig(
        gamma=0.0, observation_times=tobs, seed=8, pulse=spec), 2)
    jumpy = dec.run_ensemble(state, spectrum, dec.TrajectoryConfig(
        gamma=1.2, observation_times=tobs, seed=8, pulse=spec), 2)
    assert len(state.components) > 2  # two trajectories cannot draw every component
    assert jumpy.jump_free.tobytes() == free.mean_alignment.tobytes()
    assert free.jump_free.tobytes() == free.mean_alignment.tobytes()
    assert not np.array_equal(jumpy.mean_alignment, jumpy.jump_free)


def test_rows_without_jumps_share_the_skeleton_series(small_mixture, small_spectrum):
    # a trajectory without jumps is its component's jump-free series itself,
    # read-only, so a gamma = 0 ensemble holds one array per component
    cfg = dec.TrajectoryConfig(gamma=0.0, observation_times=tuple(np.linspace(0.0, 1.0, 5)))
    res = dec.run_ensemble(small_mixture, small_spectrum, cfg, 4)
    first = res.trajectories[0]
    assert all(row is first for row in res.trajectories)
    assert not first.flags.writeable
    assert first.tobytes() == res.mean_alignment.tobytes()


@pytest.mark.parametrize("method", ["exact", "semiclassical"])
def test_folded_ensemble_equals_unfolded_oracle(method, monkeypatch):
    # gamma > 0 on a sigma_k mixture with two pulses: one jump-free pass per
    # +-k0 pair, -k0 trajectories that jump resume from mirrored states, and
    # each jump applies one channel with a uniform drawn ahead, yet every
    # series and the histogram equal those of the generator path, where each
    # trajectory runs on its own from t = 0, draws each pick as it jumps from
    # the three applied channels, and each component runs its own pass
    spec = pulse.PulseSpec(phi=math.pi / 2, schedule=(0.125, 0.375), method=method)
    state = rotor.prepare_mixture(0.1, 1.0).map(lambda c: pulse.prepare_for_pulses(c, spec))
    spectrum = rotor.rotational_energies(
        state.jmax, state.kmax, rotor.inertia_from_parameters(41.8, 0.0), "symmetric")
    cfg = dec.TrajectoryConfig(gamma=1.5, observation_times=tuple(np.linspace(0.0, 1.0, 6)),
                               seed=17, pulse=spec)
    n = 24
    draws = [oracles.draw(state, cfg, i) for i in range(n)]
    assert any(c.k0 < 0 and len(jumps) for c, jumps, _ in draws)
    rows, mean, stderr, jump_free, hist = oracles.reference_ensemble(state, spectrum, cfg, n)

    passes = []
    real = dec._run_events
    monkeypatch.setattr(dec, "_run_events", lambda s, *a, **kw: (
        passes.append(s.k0) if kw.get("keep") is not None else None, real(s, *a, **kw))[1])
    res = dec.run_ensemble(state, spectrum, cfg, n)
    # components come in ascending k0, so each pair's pass is its -|k0| one
    assert passes == [c.k0 for c in state.components if c.k0 <= 0]
    assert [r.tobytes() for r in res.trajectories] == [r.tobytes() for r in rows]
    assert res.mean_alignment.tobytes() == mean.tobytes()
    assert res.stderr.tobytes() == stderr.tobytes()
    assert res.jump_free.tobytes() == jump_free.tobytes()
    assert res.jump_count_histogram == hist


def test_ensemble_with_many_jumps_equals_the_generator_path(monkeypatch):
    # at gamma = 4 trajectories make three jumps and more, so the x/y split
    # meets sectors m and m + 2 side by side
    spec = pulse.PulseSpec(phi=math.pi / 2, schedule=(0.125,))
    state = pulse.prepare_for_pulses(rotor.prepare_aligned_state("gaussian_j", 3.0, jmax=16),
                                     spec)
    spectrum = rotor.rotational_energies(
        state.jmax, 0, rotor.inertia_from_parameters(41.8, 0.0), "symmetric")
    cfg = dec.TrajectoryConfig(gamma=4.0, observation_times=tuple(np.linspace(0.0, 1.0, 6)),
                               seed=23, pulse=spec)
    mixture, n = rotor.Mixture.pure(state), 12
    seen, real = [], dec.apply_jump
    monkeypatch.setattr(dec, "apply_jump", lambda s, u: (seen.append(set(s.sectors)),
                                                         real(s, u))[1])
    res = dec.run_ensemble(mixture, spectrum, cfg, n)
    assert max(res.jump_count_histogram) >= 3
    assert any(m + 2 in ms for ms in seen for m in ms)
    rows, mean, stderr, jump_free, hist = oracles.reference_ensemble(mixture, spectrum, cfg, n)
    assert [r.tobytes() for r in res.trajectories] == [r.tobytes() for r in rows]
    assert res.mean_alignment.tobytes() == mean.tobytes()
    assert res.stderr.tobytes() == stderr.tobytes()
    assert res.jump_free.tobytes() == jump_free.tobytes()
    assert res.jump_count_histogram == hist


def test_a_phase_sweep_draws_each_trajectory_once(tmp_path, monkeypatch):
    # the phases of a sweep differ only in padding and pulse, so their
    # ensembles share one set of draws: n streams, not one per phase
    n, made, real = 6, [], dec._trajectory_rng
    monkeypatch.setattr(dec, "_trajectory_rng", lambda seed, index: (made.append(index),
                                                                     real(seed, index))[1])
    angular.memo_clear()
    code = cli.main(["sweep_phi", "--rotor.inertia_ratio", "41.8", "--state.sigma_j_sq", "60",
                     "--sweep.phi", "[0.0,0.5,1.0,2.0,3.0]", "--ensemble.n", str(n),
                     "--gamma.dimensionless", "1.0", "--out", str(tmp_path / "run")])
    assert code == 0
    assert made == list(range(n))


def test_the_draws_memo_is_bounded_and_read_only(monkeypatch):
    angular.memo_clear()
    stats = angular.MEMO_STATS["_draws"]
    for seed in range(3):
        draws = dec._draws(seed, 2.0, 1.0, (0.5, 0.5), 4)
        for _, jumps, uniforms in draws:
            assert not jumps.flags.writeable and not uniforms.flags.writeable
            with pytest.raises(ValueError):
                uniforms[...] = 0.0
    assert dec._draws(2, 2.0, 1.0, (0.5, 0.5), 4) is draws  # the last one is kept
    assert (stats.hits, stats.misses, stats.evictions) == (1, 3, 0)
    # the byte budget bounds the draw sets: under a zero budget one is evicted at once
    angular.memo_clear()
    monkeypatch.setattr(angular, "MEMO_BUDGET", 0)
    evicted = dec._draws(2, 2.0, 1.0, (0.5, 0.5), 4)
    assert (stats.misses, stats.evictions, stats.bytes) == (1, 1, 0)
    assert dec._draws(2, 2.0, 1.0, (0.5, 0.5), 4) is not evicted
    assert stats.misses == 2


def test_a_component_that_is_no_mirror_runs_its_own_pass(monkeypatch):
    # the fold checks the bits: a -k0 component that differs from the mirror
    # of its +k0 twin keeps a pass of its own, while +1 reads the -1 pass
    spec = pulse.PulseSpec(phi=math.pi / 2)
    mix = rotor.prepare_mixture(0.1, 0.3).map(lambda c: pulse.prepare_for_pulses(c, spec))
    other = rotor.free_propagate(mix.components[0], 0.01, rotor.rotational_energies(
        mix.jmax, mix.kmax, rotor.inertia_from_parameters(41.8, 0.0), "symmetric"))
    other = replace(other, time=0.0)
    mix = rotor.Mixture((other, *mix.components[1:]), mix.weights)
    spectrum = rotor.rotational_energies(
        mix.jmax, mix.kmax, rotor.inertia_from_parameters(41.8, 0.0), "symmetric")
    cfg = dec.TrajectoryConfig(gamma=0.0, observation_times=(0.0, 0.5, 1.0),
                               pulse=spec)
    passes, real = [], dec._run_events

    def record(s, *args, **kw):  # a gamma = 0 ensemble runs only its passes
        out = real(s, *args, **kw)
        passes.append((s.k0, out))
        return out

    monkeypatch.setattr(dec, "_run_events", record)
    dec.run_ensemble(mix, spectrum, cfg, 1)
    series, k0 = dict(passes), mix.components[0].k0
    assert [k for k, _ in passes] == [-2, -1, 0, 2] and k0 == -2
    assert k0 in series and -k0 in series
    assert not np.array_equal(series[k0], series[-k0])


@pytest.mark.parametrize("method", ["exact", "semiclassical"])
def test_mixture_is_weighted_sum_of_components(method):
    # at gamma = 0 a sigma_k mixture's series is the weighted sum of its
    # components' series, accumulated from zero in ascending k0, byte for byte
    spec = pulse.PulseSpec(phi=math.pi / 2, method=method)
    mix = rotor.prepare_mixture(0.1, 1.0).map(lambda c: pulse.prepare_for_pulses(c, spec))
    spectrum = rotor.rotational_energies(
        mix.jmax, mix.kmax, rotor.inertia_from_parameters(41.8, 0.0), "symmetric")
    cfg = dec.TrajectoryConfig(gamma=0.0, observation_times=tuple(np.linspace(0.0, 1.0, 9)),
                               pulse=spec)
    k0s = [c.k0 for c in mix.components]
    assert len(k0s) > 1 and k0s == sorted(k0s)
    expected = 0.0
    for w, comp in zip(mix.weights, mix.components):
        one = dec.run_ensemble(rotor.Mixture.pure(comp), spectrum, cfg, 1)
        expected += w * one.mean_alignment
    res = dec.run_ensemble(mix, spectrum, cfg, 3)
    assert res.mean_alignment.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# the per-pass phase memo
# ---------------------------------------------------------------------------

def _revival_pass():
    """A fig2b pass on a small state: the revival lattice of b = 1e-4 (526
    samples) with a pi pulse at T_rev/8, on the asymmetric spectrum."""
    spec = pulse.PulseSpec(phi=math.pi, schedule=(0.125,))
    state = pulse.prepare_for_pulses(rotor.prepare_aligned_state("gaussian_beta", 0.1), spec)
    spectrum = rotor.rotational_energies(
        state.jmax, 0, rotor.inertia_from_parameters(41.8, 1e-4), "asymmetric")
    times = tuple(config.revival_time_grid(1e-4))
    return state, spectrum, dec.TrajectoryConfig(
        gamma=0.0, observation_times=times, pulse=spec)


def _refined_pass():
    """A fig1 pass: the refined time grid with a pi/2 pulse at T_rev/8."""
    spec = pulse.PulseSpec(phi=math.pi / 2, schedule=(0.125,))
    state = pulse.prepare_for_pulses(
        rotor.prepare_aligned_state("gaussian_j", 20.0), spec)
    spectrum = rotor.rotational_energies(
        state.jmax, 0, rotor.inertia_from_parameters(41.8, 0.0), "symmetric")
    times = tuple(config.build_time_grid(config.TimesConfig(
        t_end=1.05, n_points=512, refine_factor=8, refine_halfwidth=0.02)))
    return state, spectrum, dec.TrajectoryConfig(
        gamma=0.0, observation_times=times, pulse=spec)


def _count_phases(monkeypatch) -> list:
    """Record the (|k0|, jmax, dt) of every phase vector computed."""
    calls, real = [], rotor.free_phase
    monkeypatch.setattr(rotor, "free_phase", lambda sp, *key: (calls.append(key),
                                                               real(sp, *key))[1])
    return calls


@pytest.mark.parametrize("make", [_revival_pass, _refined_pass])
def test_memo_pass_equals_the_per_step_pass(make, monkeypatch):
    # a step that repeats reuses the vector of its first occurrence, which is
    # the vector it would compute again, so every series keeps its bits
    state, spectrum, cfg = make()
    events, n = dec._schedule(cfg), len(cfg.observation_times)
    steps = len({t for t, _, _ in events if t > 0.0})
    calls = _count_phases(monkeypatch)
    memo = dec._run_events(state, spectrum, cfg, events, np.empty(n),
                           phase=dec._phase_memo(spectrum))
    assert 0 < len(calls) < steps / 4  # the memo is hit
    per_step = oracles.run_events_per_step(state, spectrum, cfg, events, np.empty(n))
    assert memo.tobytes() == per_step.tobytes()


def test_memo_ensemble_equals_the_per_step_ensemble(monkeypatch):
    # gamma > 0 on a sigma_k mixture: the skeleton passes, and trajectories
    # that resume from its states (mirrored for -k0) after their first jump
    spec = pulse.PulseSpec(phi=math.pi / 2, schedule=(0.125, 0.375))
    state = rotor.prepare_mixture(0.1, 1.0).map(lambda c: pulse.prepare_for_pulses(c, spec))
    spectrum = rotor.rotational_energies(
        state.jmax, state.kmax, rotor.inertia_from_parameters(41.8, 0.0), "symmetric")
    cfg = dec.TrajectoryConfig(gamma=1.5, observation_times=tuple(np.linspace(0.0, 1.0, 41)),
                               seed=17, pulse=spec)
    n = 24
    assert any(c.k0 < 0 and len(jumps) for c, jumps, _ in
               (oracles.draw(state, cfg, i) for i in range(n)))
    res = dec.run_ensemble(state, spectrum, cfg, n)
    monkeypatch.setattr(dec, "_run_events", oracles.run_events_per_step)
    per_step = dec.run_ensemble(state, spectrum, cfg, n)
    assert ([r.tobytes() for r in res.trajectories]
            == [r.tobytes() for r in per_step.trajectories])
    assert res.mean_alignment.tobytes() == per_step.mean_alignment.tobytes()
    assert res.stderr.tobytes() == per_step.stderr.tobytes()
    assert res.jump_free.tobytes() == per_step.jump_free.tobytes()


def test_revival_pass_computes_few_phase_vectors(monkeypatch):
    # fig2b's lattice steps by one of a few rounded floats
    state, spectrum, cfg = _revival_pass()
    assert len(cfg.observation_times) >= 500
    calls = _count_phases(monkeypatch)
    dec._run_events(state, spectrum, cfg, dec._schedule(cfg),
                    np.empty(len(cfg.observation_times)), phase=dec._phase_memo(spectrum))
    assert 0 < len(calls) <= 8
    assert len(set(calls)) == len(calls)


def test_memo_holds_at_most_its_bound_and_lives_one_pass(small_state, small_spectrum,
                                                         monkeypatch):
    # 100 distinct random steps: the vectors still alive while a pass runs
    # are those its memo holds, and none outlives the pass
    rng = np.random.default_rng(5)
    times = tuple(np.cumsum(rng.permutation(np.arange(1, 101)) * 1e-4))
    cfg = dec.TrajectoryConfig(gamma=0.0, observation_times=times)
    alive, held, real = [], [], rotor.free_phase

    def tracked(sp, *key):
        held.append(sum(ref() is not None for ref in alive))
        vec = real(sp, *key)
        assert not vec.flags.writeable
        alive.append(weakref.ref(vec))
        return vec

    monkeypatch.setattr(rotor, "free_phase", tracked)
    dec._run_events(small_state, small_spectrum, cfg, dec._schedule(cfg), np.empty(100),
                    phase=dec._phase_memo(small_spectrum))
    assert len(held) == 100
    assert max(held) == dec._PHASE_MEMO
    assert all(ref() is None for ref in alive)


def test_gamma_zero_pure_state_makes_no_stream(monkeypatch, small_mixture, small_spectrum):
    # every draw is (0, no jump, no uniform); only a jump rate or a mixture
    # needs a Philox stream
    made = []
    real = dec._trajectory_rng

    def recording(seed, index):
        made.append(index)
        return real(seed, index)

    monkeypatch.setattr(dec, "_trajectory_rng", recording)
    tobs = (0.0, 0.5, 1.0)
    for gamma, streams in ((0.0, []), (0.5, [0, 1, 2, 3])):
        angular.memo_clear()
        cfg = dec.TrajectoryConfig(gamma=gamma, observation_times=tobs, seed=5)
        dec.run_ensemble(small_mixture, small_spectrum, cfg, 4)
        assert made == streams
    angular.memo_clear()
    rng = real(5, 0)
    no_jump, no_uniform = dec.sample_jump_times(0.0, 1.0, rng), rng.random(0)
    for pick, jumps, uniforms in dec._draws(5, 0.0, 1.0, (1.0,), 4):
        assert pick == 0
        for got, want in ((jumps, no_jump), (uniforms, no_uniform)):
            assert got.dtype == want.dtype and got.shape == want.shape == (0,)
            assert not got.flags.writeable


def test_gamma_zero_mixture_draws_only_when_trajectories_are_read(monkeypatch):
    # the mean, jump_free and histogram need no draw; on first read each
    # trajectory is the series of the component its stream picks
    made, real = [], dec._trajectory_rng
    monkeypatch.setattr(dec, "_trajectory_rng", lambda seed, index: (made.append(index),
                                                                     real(seed, index))[1])
    mix = rotor.prepare_mixture(0.1, 1.0)
    spectrum = rotor.rotational_energies(
        mix.jmax, mix.kmax, rotor.inertia_from_parameters(41.8, 0.0), "symmetric")
    cfg = dec.TrajectoryConfig(gamma=0.0, observation_times=(0.0, 0.3, 1.0),
                               seed=9)
    n = 12
    angular.memo_clear()
    res = dec.run_ensemble(mix, spectrum, cfg, n)
    assert made == [] and res.jump_count_histogram == {0: n}
    assert res.mean_alignment.tobytes() == res.jump_free.tobytes()
    rows = res.trajectories
    assert made == list(range(n)) and res.trajectories is rows
    picks = [pick for pick, _, _ in dec._draws(cfg.seed, cfg.gamma, cfg.observation_times[-1],
                                                 tuple(mix.weights), n)]
    assert len(set(picks)) >= 2
    for row, pick in zip(rows, picks):
        alone = dec.run_ensemble(rotor.Mixture.pure(mix.components[pick]), spectrum, cfg, 1)
        assert row.tobytes() == alone.mean_alignment.tobytes()


# ---------------------------------------------------------------------------
# Lindblad oracle
# ---------------------------------------------------------------------------

def test_oracle_gamma_zero_is_unitary(small_state, small_spectrum):
    tobs = np.linspace(0.0, 0.5, 6)
    align, trace, min_eig = oracles.lindblad_oracle(small_state, small_spectrum,
                                                    0.0, 0.5, tobs)
    expected = [observables.alignment(
        rotor.free_propagate(small_state, float(t), small_spectrum)) for t in tobs]
    assert np.max(np.abs(align - np.array(expected))) < 1e-8
    assert np.max(np.abs(trace - 1.0)) < 1e-8
    assert min_eig > -1e-8


@pytest.mark.slow
def test_unraveling_matches_oracle(small_state, small_mixture, small_spectrum):
    tobs = tuple(np.linspace(0.0, 1.0, 21))
    gamma = 0.5
    align, trace, min_eig = oracles.lindblad_oracle(small_state, small_spectrum,
                                                    gamma, 1.0, tobs)
    assert np.max(np.abs(trace - 1.0)) < 1e-8
    assert min_eig > -1e-8
    cfg = dec.TrajectoryConfig(gamma=gamma, observation_times=tobs, seed=77)
    ens = dec.run_ensemble(small_mixture, small_spectrum, cfg, 500)
    z = (ens.mean_alignment[1:] - align[1:]) / ens.stderr[1:]
    assert np.max(np.abs(z)) < 3.5


@pytest.mark.slow
def test_monte_carlo_error_scales_inverse_sqrt_n(small_state, small_mixture, small_spectrum):
    # a single ensemble pair gives a noisy ratio (few effective dof across
    # correlated checkpoints); average the RMS error over independent batches
    tobs = tuple(np.linspace(0.0, 1.0, 21))
    gamma = 0.5
    align, _, _ = oracles.lindblad_oracle(small_state, small_spectrum, gamma, 1.0, tobs)

    def rms(n, seed):
        cfg = dec.TrajectoryConfig(gamma=gamma, observation_times=tobs, seed=seed)
        ens = dec.run_ensemble(small_mixture, small_spectrum, cfg, n)
        return float(np.sqrt(np.mean((ens.mean_alignment[1:] - align[1:]) ** 2)))

    e500 = np.mean([rms(500, 500 + i) for i in range(8)])
    e2000 = np.mean([rms(2000, 600 + i) for i in range(2)])
    ratio = e500 / e2000
    print(f"\nerror ratio n=500 vs n=2000: {ratio:.3f}")
    assert 1.6 <= ratio <= 2.4


def test_config_validation():
    with pytest.raises(DomainError):
        dec.TrajectoryConfig(gamma=-1.0, observation_times=(0.0,))
    with pytest.raises(DomainError):
        dec.TrajectoryConfig(gamma=0.0, observation_times=(0.5, 0.2))
    with pytest.raises(DomainError):  # a trajectory ends at its last observation
        dec.TrajectoryConfig(gamma=0.0, observation_times=())


def test_gamma_conversion_preset():
    m = rotor.inertia_from_ellipsoid(rotor.SILICON_NANOROD_SEMI_AXES,
                                     rotor.SILICON_DENSITY)
    g = dec.gamma_dimensionless(dec.GAMMA_GAS_PRESET_HZ, m.t_rev)
    assert g == pytest.approx(0.29, abs=0.01)


def test_ensemble_n1_equals_first_trajectory(small_mixture, small_spectrum):
    tobs = tuple(np.linspace(0.0, 1.0, 7))
    cfg = dec.TrajectoryConfig(gamma=0.8, observation_times=tobs, seed=13)
    single = oracles.run_trajectory(small_mixture, small_spectrum, cfg, index=0)
    ens = dec.run_ensemble(small_mixture, small_spectrum, cfg, 1)
    assert np.array_equal(single, ens.mean_alignment)
    assert np.all(ens.stderr == 0.0)
