import cmath
import math

import numpy as np
import pytest

import oracles
from nanorotor import angular, eightstate, rotor
from nanorotor.errors import DomainError


def test_m_matrix_unitary():
    M, _ = eightstate.m_matrix()
    assert np.max(np.abs(M @ M.conj().T - np.eye(7))) < 1e-15


def test_half_revival_row_is_pure_packet():
    M, _ = eightstate.m_matrix()
    assert np.allclose(M[3], [0, 0, 0, 1, 0, 0, 0])


def test_first_row_equal_weights():
    M, _ = eightstate.m_matrix()
    assert np.allclose(M[0], [0.5, 0, 0.5, 0, 0.5, 0, 0.5])


def test_eighth_step_properties():
    U = eightstate.eighth_step_unitary()
    assert np.max(np.abs(U @ U.conj().T - np.eye(8))) < 1e-14
    closure = np.linalg.matrix_power(U, 8)
    assert np.max(np.abs(closure - np.eye(8))) < 1e-10


def test_pulse_gate():
    G = eightstate.pulse_gate(0.0)
    assert np.allclose(G, np.eye(8))
    phi = 0.77
    G = eightstate.pulse_gate(phi)
    assert np.max(np.abs(G @ G.conj().T - np.eye(8))) < 1e-14
    # arctic (xi_1) vs tropic (xi_3) phase difference is exactly phi
    d = np.angle(G[1, 1]) - np.angle(G[3, 3])
    assert d == pytest.approx(phi, rel=1e-12)


@pytest.mark.parametrize("phi", [0.0, math.pi / 4, math.pi / 2, math.pi,
                                 3 * math.pi / 2, 2 * math.pi])
def test_interfere_reproduces_two_beam_amplitudes(phi):
    aligned, anti = eightstate.interfere(phi)
    assert abs(aligned - math.cos(phi / 2)) < 1e-10
    assert abs(anti - math.sin(phi / 2)) < 1e-10


# ---------------------------------------------------------------------------
# resummation of the cosine propagator branch
# ---------------------------------------------------------------------------

def test_resum_half_revival():
    locs, _ = oracles.resum_check(0.5, 0.02)
    assert len(locs) == 1
    assert locs[0] == pytest.approx(math.pi / 2, abs=0.04)


def test_resum_quarter_revival():
    locs, _ = oracles.resum_check(0.25, 0.02)
    assert len(locs) == 2
    assert np.allclose(locs, [math.pi / 4, 3 * math.pi / 4], atol=0.04)


def test_resum_eighth_revival_locations_and_weights():
    eta = 0.02
    locs, weights = oracles.resum_check(0.125, eta)
    assert len(locs) == 4
    expected_locs = [(2 * n + 1) * math.pi / 8 for n in range(4)]
    assert np.allclose(locs, expected_locs, atol=2 * eta)
    # complex weights: magnitude sqrt(2)/4, phases -3 pi/16 + n(n+1) pi/8.
    # The n-dependent phase is pinned by the quadratic Gauss sum
    # sum_r exp(-i pi r^2 / 8) = 4 (1 - i) over a period of 16:
    # grouping the propagator sum in residue classes and completing the
    # square gives exp(i pi (2n+1)/16) exp(i pi n^2 / 8) times that sum.
    for n in range(4):
        expected = (math.sqrt(2) / 4) * cmath.exp(1j * (-3 * math.pi / 16
                                                        + n * (n + 1) * math.pi / 8))
        assert abs(weights[n]) == pytest.approx(abs(expected), rel=0.05)
        phase_dev = cmath.phase(weights[n] / expected)
        assert abs(phase_dev) < 0.05


def test_gauss_sum_identity():
    # independent anchor for the weight phases used above
    total = sum(cmath.exp(-1j * math.pi * r * r / 8) for r in range(16))
    assert total == pytest.approx(4 * (1 - 1j), abs=1e-12)


def test_resum_rejects_bad_damping():
    with pytest.raises(DomainError):
        oracles.resum_check(0.125, 0.2)
    with pytest.raises(DomainError):
        oracles.resum_check(0.3, 0.02)


# ---------------------------------------------------------------------------
# model vs full simulation
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_model_matches_full_simulation():
    """Packet amplitudes extracted from the simulator match the transfer matrix.

    Extraction: windowed overlaps (half-width pi/16, flat-measure profile
    chi = psi sqrt(sin b)) against the half-revival packet as template, with
    one least-squares complex gauge per packet (the template cannot know each
    packet's internal phase convention).
    """
    st0 = rotor.prepare_aligned_state("gaussian_j", 800.0)
    model = rotor.inertia_from_parameters(41.8, 0.0)
    sp = rotor.rotational_energies(st0.jmax, 0, model, "symmetric")
    grid = angular.AngularGrid.gauss_legendre(1601)
    M, nu = eightstate.m_matrix()
    hw = math.pi / 16
    states = {ell: rotor.free_propagate(st0, ell / 8.0, sp) for ell in range(1, 8)}
    scale = np.sqrt(np.arange(st0.jmax + 1) + 0.5)

    def synth(state, betas):
        tab = angular.wigner_d_table(0, 0, betas, st0.jmax)
        return (state.sectors[0] * scale) @ tab

    def extract(ell, n):
        cn = n * math.pi / 8
        mask = np.abs(grid.nodes - cn) <= hw
        nodes = grid.nodes[mask]
        shifted = nodes - cn + math.pi / 2
        tmpl = synth(states[4], shifted) * np.sqrt(np.sin(shifted))
        wpsi = synth(states[ell], nodes) * np.sqrt(np.sin(nodes))
        w = grid.weights[mask] / np.sin(nodes)
        return np.sum(w * np.conj(tmpl) * wpsi) / np.sum(w * np.abs(tmpl) ** 2)

    amps = np.array([[extract(ell, n) for n in range(1, 8)] for ell in range(1, 8)])
    target = np.array([np.exp(1j * nu[ell - 1]) * M[ell - 1] for ell in range(1, 8)])
    gauges = np.sum(np.conj(target) * amps, axis=0) / np.sum(np.abs(target) ** 2, axis=0)
    resid = amps / gauges[None, :]
    occupied = np.abs(target) > 0.1
    assert np.abs(np.abs(gauges) - 1.0).max() < 0.05
    mod_dev = np.abs(np.abs(resid) - np.abs(target))[occupied].max()
    phases = np.angle(resid[occupied] / target[occupied])
    print(f"\nmodel consistency: modulus dev {mod_dev:.4f}, "
          f"phase dev {np.abs(phases).max():.4f} rad, "
          f"empty-window residual {np.abs(resid)[~occupied].max():.4f}")
    assert mod_dev < 0.05
    assert np.abs(phases).max() < 0.1
