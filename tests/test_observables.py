import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from nanorotor import observables, rotor
from nanorotor.errors import DomainError, PeakError


def test_isotropic_alignment_is_one_third():
    state = rotor.RotorState(k0=0, sectors={0: np.array([1.0 + 0j])})
    assert observables.alignment(state) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_tight_state_alignment():
    state = rotor.prepare_aligned_state("gaussian_beta", 0.003)
    assert observables.alignment(state) >= 0.99


def test_antialigned_packet():
    st0 = rotor.prepare_aligned_state("gaussian_j", 800.0)
    model = rotor.inertia_from_parameters(41.8, 0.0)
    sp = rotor.rotational_energies(st0.jmax, 0, model, "symmetric")
    anti = rotor.free_propagate(st0, 0.5, sp)
    assert observables.alignment(anti) <= 0.05


@given(st.integers(0, 5))
def test_alignment_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=31) + 1j * rng.normal(size=31)
    vec /= np.linalg.norm(vec)
    state = rotor.RotorState(k0=0, sectors={0: vec})
    a = observables.alignment(state)
    assert -1e-12 <= a <= 1.0 + 1e-12


def test_time_series_invariants():
    with pytest.raises(DomainError):
        observables.TimeSeries(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        observables.TimeSeries(np.array([1.0, 0.0]), np.array([1.0, 2.0]))


def test_peak_finder_exact_on_parabola():
    t = np.linspace(0.9, 1.1, 41)
    v = -3.0 * (t - 1.0137) ** 2 + 0.8
    series = observables.TimeSeries(t, v)
    t_peak, value = observables.find_revival_peak(series, 1.0, 0.1)
    assert t_peak == pytest.approx(1.0137, abs=1e-12)
    assert value == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("t_true", [1.0000123, 1.00101, 1.00234])
def test_peak_finder_exact_on_a_sharp_revival(t_true):
    # a revival-like peak 2.5e-4 apart at t ~ 1 (curvature 3e5): a parabola
    # fitted in absolute t cancelled its terms and was off by up to 1.5e-10
    t = np.round(np.linspace(0.99, 1.01, 81), 12)
    series = observables.TimeSeries(t, 0.9 - 3e5 * (t - t_true) ** 2)
    t_peak, value = observables.find_revival_peak(series, 1.0, 0.01)
    assert abs(t_peak - t_true) <= 1e-14
    assert abs(value - 0.9) <= 1e-15


def test_peak_finder_edge_error():
    t = np.linspace(0.9, 1.1, 41)
    series = observables.TimeSeries(t, t.copy())
    with pytest.raises(PeakError):
        observables.find_revival_peak(series, 1.05, 0.05)


def test_peak_finder_needs_samples():
    t = np.linspace(0.9, 1.1, 5)
    series = observables.TimeSeries(t, -(t - 1.0) ** 2)
    with pytest.raises(PeakError):
        observables.find_revival_peak(series, 1.0, 0.01)


def test_symmetric_revival_peak_at_one():
    st0 = rotor.prepare_aligned_state("gaussian_j", 800.0)
    model = rotor.inertia_from_parameters(41.8, 0.0)
    sp = rotor.rotational_energies(st0.jmax, 0, model, "symmetric")
    ts = np.linspace(0.95, 1.05, 201)
    vals = np.array([observables.alignment(rotor.free_propagate(st0, float(t), sp))
                     for t in ts])
    series = observables.TimeSeries(ts, vals)
    t_peak, _ = observables.find_revival_peak(series, 1.0, 0.05)
    assert t_peak == pytest.approx(1.0, abs=ts[1] - ts[0])


def test_overlap_identity_and_orthogonality():
    a = rotor.prepare_aligned_state("gaussian_j", 100.0)
    assert abs(oracles.overlap(a, a)) == pytest.approx(1.0, abs=1e-12)
    b = rotor.prepare_aligned_state("gaussian_beta", 0.05, k0=2)
    assert oracles.overlap(a, b) == 0.0


def test_fidelity_of_identical_mixtures():
    mix = rotor.prepare_mixture(0.05, 1.0)
    assert oracles.fidelity(mix, mix) == pytest.approx(1.0, abs=1e-10)


def test_interference_curve_fit():
    phis = np.linspace(0, 2 * math.pi, 17)
    values = 0.9 * np.cos(phis / 2) ** 2 + 0.04
    a, b, rms = observables.fit_interference_curve(phis, values)
    assert a == pytest.approx(0.9, abs=1e-12)
    assert b == pytest.approx(0.04, abs=1e-12)
    assert rms < 1e-12


def test_mixture_beta_distribution_normalized():
    from nanorotor import angular
    mix = rotor.prepare_mixture(0.05, 1.5)
    grid = angular.AngularGrid.for_jmax(mix.jmax)
    prob = mix.mean(lambda c: observables.beta_distribution(c, grid))
    total = float(np.sum(grid.weights * prob / np.sin(grid.nodes)))
    assert total == pytest.approx(1.0, abs=1e-8)
