"""The alignment-controlling laser phase pulse.

The pulse is instantaneous and diagonal in the polar angle: it multiplies the
wavefunction by ``exp(i sqrt(2) phi cos^2 beta)``.  Two application paths are
provided: an exact grid path (synthesize, multiply, project back; the oracle)
and banded matrix elements from a stationary-phase approximation, the fast
path for large j.  ``phase_from_laser`` converts laser parameters to phi.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.constants as const
from scipy.special import jv

from . import angular
from .errors import DomainError, ResolutionError
from .rotor import RotorState, extend_state

__all__ = [
    "PulseSpec",
    "phase_from_laser",
    "phase_matrix_semiclassical",
    "phase_apply_exact",
    "apply_pulse",
    "pulse_bandwidth",
    "SILICON_NANOROD_DELTA_ALPHA",
]

log = logging.getLogger(__name__)

# polarizability anisotropy (C m^2 / V) reproducing a 2 pi phase with a
# 1.3 mW, 100 ns pulse focused to a 30 um waist (silicon nanorod preset)
SILICON_NANOROD_DELTA_ALPHA = 5.40990e-35

_MIN_BANDWIDTH = 8
_BESSEL_FLOOR = 1e-14


@dataclass(frozen=True)
class PulseSpec:
    """Phase pulse description: strength phi, schedule, and application method."""

    phi: float
    schedule: tuple[float, ...] = (0.125,)
    method: str = "semiclassical"

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise DomainError("phi must be finite")
        if self.method not in ("exact", "semiclassical"):
            raise DomainError(f"unknown pulse method {self.method!r}")
        for t in self.schedule:
            if not 0.0 <= t <= 8.0:
                raise DomainError(f"schedule time {t} outside [0, 8] revivals")


def phase_from_laser(power: float, waist: float, duration: float,
                     delta_alpha: float) -> float:
    """Imprinted phase phi for a constant-amplitude pulse.

    phi = delta_alpha |E0|^2 tau / (4 sqrt(2) hbar) with
    |E0|^2 = 4 P / (pi w0^2 eps0 c).
    """
    if power < 0 or waist <= 0 or duration <= 0 or delta_alpha <= 0:
        raise DomainError("laser parameters must be positive (power may be zero)")
    e0_sq = 4.0 * power / (math.pi * waist ** 2 * const.epsilon_0 * const.c)
    return delta_alpha * e0_sq * duration / (4.0 * math.sqrt(2.0) * const.hbar)


@lru_cache(maxsize=256)
def pulse_bandwidth(phi: float) -> int:
    """j-bandwidth at which the stationary-phase elements fall below 1e-14.

    The Bessel order grows as |j - j'| / 2 at argument <= phi / sqrt(2);
    J_nu(x) decays superexponentially once nu exceeds x.
    """
    x = abs(phi) / math.sqrt(2.0)
    if x == 0.0:
        return _MIN_BANDWIDTH
    band = _MIN_BANDWIDTH
    while abs(jv(0.5 * band + 1.0, x)) >= _BESSEL_FLOOR and band < 10000:
        band += 2
    return band


# pulse matrices are complex symmetric operators of the shared banded type
PulseMatrix = angular.BandedOperator


def _phase_elements(dj: int, jsum: np.ndarray, m: int, k: int, phi: float) -> np.ndarray:
    """Stationary-phase pulse elements for fixed |j - j'| = dj, vectorized over j + j'.

    ``jsum`` holds J = j + j' + 1.  The m, k dependence enters through
    A_J = (1 - 4k^2/J^2)(1 - 4m^2/J^2)/sqrt(2); for m k != 0 a first-order
    correction applies d/dxi to the full product xi^{-1/2} e^{iA/xi} J_nu(A/xi)
    at xi = 1/phi.  Phases carry the sign that reproduces the exact operator
    exp(+i sqrt(2) phi cos^2 beta) in the large-j limit.
    """
    nu = 0.5 * dj
    A = (1.0 - 4.0 * k * k / jsum ** 2) * (1.0 - 4.0 * m * m / jsum ** 2) / math.sqrt(2.0)
    x = A * phi
    base = np.exp(1j * x) * jv(nu, x)
    if m * k != 0:
        xi = 1.0 / phi
        c = 32.0 * (k * k) * (m * m) / jsum ** 4
        jprime = 0.5 * (jv(nu - 1.0, x) - jv(nu + 1.0, x))
        deriv = np.exp(1j * x) * (
            -jv(nu, x) / (2.0 * xi ** 1.5)
            - 1j * A * jv(nu, x) / xi ** 2.5
            - A * jprime / xi ** 2.5
        )
        base = base - 1j * math.sqrt(2.0 * xi) * c * deriv
    return np.exp(1j * math.pi * dj / 4.0) * base


def phase_matrix_semiclassical(jmin: int, jmax: int, m: int, k: int,
                               phi: float) -> PulseMatrix:
    """Banded pulse matrix from the stationary-phase matrix elements.

    Only even j - j' offsets are populated: the pulse is even under
    beta -> pi - beta, so odd-offset elements vanish identically at m k = 0
    and are higher-order small otherwise; the half-integer-order terms the raw
    asymptotic expression would produce there fail the exact oracle.
    phi = 0 returns the identity by convention (the xi = 1/phi substitution has
    a removable singularity there); phi < 0 is rejected, apply the conjugate
    transpose of the positive-phi matrix instead.
    """
    if phi < 0:
        raise DomainError("phi must be >= 0; use the conjugate transpose for phi < 0")
    if jmin < max(abs(m), abs(k)):
        raise DomainError(f"jmin={jmin} below max(|m|,|k|)={max(abs(m), abs(k))}")
    n = jmax - jmin + 1
    if phi == 0.0:
        return PulseMatrix(jmin, jmax, {0: np.ones(n, dtype=complex)})
    diags = {}
    for d in range(0, min(pulse_bandwidth(phi), n - 1) + 1, 2):
        jsum = 2.0 * np.arange(jmin, jmin + n - d, dtype=float) + d + 1.0
        diags[d] = _phase_elements(d, jsum, m, k, phi)
    return PulseMatrix.symmetric(jmin, jmax, diags)


def boundary_weight(vec: np.ndarray, bandwidth: int) -> float:
    """Probability weight within one bandwidth of the top of the j ladder."""
    tail = vec[-max(bandwidth, 1):]
    return float(np.sum(np.abs(tail) ** 2))


def phase_apply_exact(vec: np.ndarray, m: int, k: int, phi: float,
                      grid: angular.AngularGrid, jmax_out: int | None = None) -> np.ndarray:
    """Exact pulse on one (m, k) sector via the polar-angle grid.

    Synthesize psi(beta), multiply by exp(i sqrt(2) phi cos^2 beta), project
    back onto j <= jmax_out.  Raises ResolutionError when more than 1e-6 of the
    norm escapes the projection.
    """
    j0 = max(abs(m), abs(k))
    jmax_in = j0 + np.asarray(vec).size - 1
    if jmax_out is None:
        jmax_out = jmax_in
    if grid.order < 2 * max(jmax_in, jmax_out):
        raise ResolutionError(
            f"grid order {grid.order} insufficient for jmax {max(jmax_in, jmax_out)}")
    table = angular.wigner_d_table(m, k, grid.nodes, max(jmax_in, jmax_out))
    psi, _ = angular.synthesize_beta(vec, m, k, grid, table=table)
    psi = psi * np.exp(1j * math.sqrt(2.0) * phi * np.cos(grid.nodes) ** 2)
    out = angular._project_general(psi, m, k, jmax_out, grid, table=table)
    norm_in = float(np.sum(np.abs(vec) ** 2))
    norm_out = float(np.sum(np.abs(out) ** 2))
    if norm_in > 0 and norm_out < norm_in * (1.0 - 1e-6):
        raise ResolutionError(
            f"pulse projection lost {norm_in - norm_out:.3e} of the norm; "
            f"increase jmax (pulse scatters ~sqrt(2) phi in j)")
    return out


@lru_cache(maxsize=256)
def _cached_matrix(jmin: int, jmax: int, m: int, k: int, phi: float) -> PulseMatrix:
    return phase_matrix_semiclassical(jmin, jmax, m, k, phi)


def apply_pulse(state: RotorState, spec: PulseSpec) -> RotorState:
    """Apply one phase pulse to every m sector of a pure component.

    The semiclassical matrices depend on (m, k0); the component is
    renormalized afterwards and the pre-normalization norm defect is logged
    and recorded in the state diagnostics.
    """
    out = state.copy()
    phi = spec.phi
    if phi == 0.0:
        return out
    k0 = out.k0
    boundary = 0.0
    band = pulse_bandwidth(phi)
    grid = angular.AngularGrid.for_jmax(out.jmax) if spec.method == "exact" else None
    for m, vec in state.sectors.items():
        j0 = max(abs(m), abs(k0))
        boundary = max(boundary, boundary_weight(vec, band))
        if spec.method == "exact":
            new_sec = phase_apply_exact(vec[j0:], m, k0, phi, grid)
        else:
            mat = _cached_matrix(j0, out.jmax, m, k0, phi)
            new_sec = mat.apply(vec[j0:])
        full = np.zeros_like(vec)
        full[j0:] = new_sec
        out.sectors[m] = full
    norm = out.norm()
    defect = abs(1.0 - norm)
    if norm > 0:
        for m in out.sectors:
            out.sectors[m] = out.sectors[m] / norm
    if defect > 1e-12:
        log.debug("pulse norm defect %.3e (phi=%.4f, method=%s)", defect, phi, spec.method)
    out.diagnostics["pulse_norm_defect"] = max(
        defect, out.diagnostics.get("pulse_norm_defect", 0.0))
    # boundary rows violate the unbounded-ladder assumption of the banded
    # matrices; flag the weight sitting there so runs can audit it
    out.diagnostics["pulse_boundary_weight"] = max(
        boundary, out.diagnostics.get("pulse_boundary_weight", 0.0))
    return out


def pulse_headroom(phis: list[float], n_pulses: int) -> int:
    """Extra j headroom a state needs before ``n_pulses`` pulses of the largest
    of ``phis``: per pulse, the matrix bandwidth or the sqrt(2) phi spread in j
    plus 8, whichever is larger."""
    margin = max((max(pulse_bandwidth(p), int(math.ceil(math.sqrt(2.0) * abs(p))) + 8)
                  for p in phis), default=0)
    return margin * n_pulses


def prepare_for_pulses(state: RotorState, spec: PulseSpec) -> RotorState:
    """Zero-pad the state so scheduled pulses keep boundary weight negligible."""
    return extend_state(state, state.jmax + pulse_headroom([spec.phi], len(spec.schedule)))
