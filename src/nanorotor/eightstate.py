"""Semiclassical eight-state model of the fractional-revival interferometer.

A polar wave packet launched from the pole revisits a discrete family of
latitudes at eighths of the revival time.  Writing |xi_n> for the packet
centered at beta = n pi / 8, the state after l eighth-steps is
``|psi_l> = e^{i nu_l} sum_n M_ln |xi_n>`` with a fixed unitary transfer
matrix M and phase vector nu.  Together with the diagonal pulse gate this
closes an eight-dimensional model that predicts the alignment interferometer
output ``cos(phi/2) |psi_0> + sin(phi/2) |xi_4>``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "m_matrix",
    "pulse_gate",
    "eighth_step_unitary",
    "interfere",
]

_SQ2 = math.sqrt(2.0)


def m_matrix() -> tuple[np.ndarray, np.ndarray]:
    """Packet transfer matrix M (rows l = 1..7 over packets n = 1..7) and the
    phase vector nu for the eight fractional steps l = 1..8.

    nu[7] = 0 is the full-revival step: applying all eight steps reproduces the
    initial state exactly.  The half-revival row (l = 4) is a pure packet at
    beta = pi/2.
    """
    M = 0.5 * np.array([
        [1, 0, 1, 0, 1, 0, 1],
        [0, _SQ2, 0, 0, 0, _SQ2, 0],
        [1, 0, 1j, 0, -1j, 0, -1],
        [0, 0, 0, 2, 0, 0, 0],
        [1, 0, -1, 0, -1, 0, 1],
        [0, _SQ2, 0, 0, 0, -_SQ2, 0],
        [1, 0, -1j, 0, 1j, 0, -1],
    ], dtype=complex)
    nu = np.array([0.0, 0.0, -math.pi / 8, 0.0, math.pi / 2,
                   math.pi / 4, 3 * math.pi / 8, 0.0])
    return M, nu


def eighth_step_unitary() -> np.ndarray:
    """One eighth-revival propagator on the packet basis (xi_0 .. xi_7).

    Columns of P hold the states psi_l = e^{i nu_l} sum_n M_ln xi_n (with
    psi_0 = xi_0); the step permutes psi_l -> psi_{l+1} cyclically, so
    U = P S P^dagger with S the cyclic shift.
    """
    M, nu = m_matrix()
    P = np.zeros((8, 8), dtype=complex)
    P[0, 0] = 1.0
    for ell in range(1, 8):
        P[1:, ell] = np.exp(1j * nu[ell - 1]) * M[ell - 1, :]
    S = np.zeros((8, 8), dtype=complex)
    for ell in range(8):
        S[(ell + 1) % 8, ell] = 1.0
    return P @ S @ P.conj().T


def pulse_gate(phi: float) -> np.ndarray:
    """Diagonal pulse unitary on the packet basis xi_0 .. xi_7.

    Packet n picks up the phase sqrt(2) phi cos^2(n pi / 8); arctic and tropic
    packets differ by exactly phi.
    """
    n = np.arange(8)
    return np.diag(np.exp(1j * _SQ2 * phi * np.cos(n * math.pi / 8.0) ** 2))


def interfere(phi: float) -> tuple[complex, complex]:
    """Model prediction for the full interferometer sequence.

    One eighth-step, the pulse gate, then seven more eighth-steps; returns the
    amplitudes on the initial packet and on the antialigned packet xi_4, equal
    to (cos(phi/2), sin(phi/2)) up to a global phase.
    """
    U = eighth_step_unitary()
    G = pulse_gate(phi)
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0
    v = U @ v
    v = G @ v
    for _ in range(7):
        v = U @ v
    # gauge the global phase against the expected (cos, sin) direction
    proj = v[0] * math.cos(phi / 2.0) + v[4] * math.sin(phi / 2.0)
    gauge = proj / abs(proj) if abs(proj) > 1e-12 else 1.0
    return complex(v[0] / gauge), complex(v[4] / gauge)
