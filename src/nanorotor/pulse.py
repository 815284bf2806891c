"""The alignment-controlling laser phase pulse.

The pulse is instantaneous and diagonal in the polar angle: it multiplies the
wavefunction by ``exp(i sqrt(2) phi cos^2 beta)``.  Two application paths are
provided.  The exact path sums the Jacobi-Anger (Chebyshev) series of the
pulse in the banded cos^2 beta operator, one band-2 product per term, and
builds no grid.  The banded stationary-phase matrix elements are the fast
path for large j.  ``phase_from_laser`` converts laser parameters to phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import angular
from .errors import DomainError
from .rotor import EPSILON_0, HBAR, J_SPAN_LIMIT, SPEED_OF_LIGHT, RotorState, extend_state

__all__ = [
    "PulseSpec",
    "phase_from_laser",
    "phase_matrix_semiclassical",
    "phase_apply_exact",
    "apply_pulse",
    "pulse_bandwidth",
    "SILICON_NANOROD_DELTA_ALPHA",
]

# polarizability anisotropy (C m^2 / V) reproducing a 2 pi phase with a
# 1.3 mW, 100 ns pulse focused to a 30 um waist (silicon nanorod preset)
SILICON_NANOROD_DELTA_ALPHA = 5.40990e-35

_MIN_BANDWIDTH = 8
_BESSEL_FLOOR = 1e-14
# the exact pulse's series stops at the first Bessel term above a below this
_SERIES_FLOOR = 1e-17
# Bessel arguments below this are raised to it: no J_n moves by more, and the
# recurrence's step factor 2k/x stays finite
_X_FLOOR = 1e-280
# elements per block of a semiclassical matrix build
_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True, repr=False, eq=False)
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
    try:
        e0_sq = 4.0 * power / (math.pi * waist ** 2 * EPSILON_0 * SPEED_OF_LIGHT)
    except (OverflowError, ZeroDivisionError):  # waist ** 2 out of float range
        raise DomainError("the laser waist squared is out of float range") from None
    phi = delta_alpha * e0_sq * duration / (4.0 * math.sqrt(2.0) * HBAR)
    if not math.isfinite(phi):
        raise DomainError("the laser parameters give an infinite phase")
    return phi


def _bessel_table(x, n: int) -> np.ndarray:
    """J_0(x) ... J_n(x) at x >= 0: one row per order, each shaped like ``x``.

    Miller's backward recurrence J_{k-1} = (2k / x) J_k - J_{k+1}, started 20
    orders above both n and the turning zone x + 12 x^(1/3), normalised by
    J_0 + 2 sum_k J_2k = 1 (Gautschi, SIAM Rev. 9, 24 (1967)).  While k > x
    the values grow like (2k / x)^k, so there every step rescales by a power
    of two and keeps the exponent; below the smallest x they stay bounded.
    A float ``x`` runs in plain Python arithmetic, a 1-D array column-wise.
    """
    x_hi, x_lo = float(np.max(x)), float(np.min(x))
    x = x + (x < _X_FLOOR) * (_X_FLOOR - x)
    top = max(n, math.ceil(x_hi + 12.0 * x_hi ** (1.0 / 3.0))) + 20
    two_over_x = 2.0 / x
    rows, exps = [], []
    cur, nxt, norm, exp = 1.0, 0.0, 0.0, 0
    for k in range(top, 0, -1):
        cur, nxt = k * two_over_x * cur - nxt, cur  # cur is now J_{k-1}
        if k > x_lo:
            cur, e = np.frexp(cur)
            nxt, norm, exp = np.ldexp(nxt, -e), np.ldexp(norm, -e), exp + e
        if k <= n + 1:
            rows.append(cur)
            exps.append(exp)
        if k % 2 == 1:
            norm = norm + (cur if k == 1 else 2.0 * cur)
    return np.ldexp(np.array(rows[::-1]), np.array(exps[::-1]) - exp) / norm


@angular.memo("pulse_bandwidth")
def pulse_bandwidth(phi: float) -> int:
    """j-bandwidth at which the stationary-phase elements fall below 1e-14.

    The Bessel order grows as |j - j'| / 2 at argument <= phi / sqrt(2), and
    the band ends below the first order nu >= 5 with |J_nu(x)| < 1e-14.
    J_nu(x) decays superexponentially once nu exceeds x: by the Airy form it
    is far below 1e-14 at x + 12 x^(1/3) + 10, which the table passes.
    Raises DomainError before it builds a table of more than J_SPAN_LIMIT
    orders.
    """
    x = abs(phi) / math.sqrt(2.0)
    if x == 0.0:
        return _MIN_BANDWIDTH
    first = _MIN_BANDWIDTH // 2 + 1
    turning = x + 12.0 * x ** (1.0 / 3.0)
    if not first + turning + 10 <= J_SPAN_LIMIT:
        raise DomainError(f"phi = {phi:g} needs a Bessel table of more than "
                          f"{J_SPAN_LIMIT:,} orders")
    table = _bessel_table(x, first + math.ceil(turning) + 10)
    nu = first + int(np.flatnonzero(np.abs(table[first:]) < _BESSEL_FLOOR)[0])
    return 2 * (nu - 1)


# pulse matrices are complex symmetric operators of the shared banded type
PulseMatrix = angular.BandedOperator


def _phase_elements(half: int, jsum: np.ndarray, m: int, k: int, phi: float) -> np.ndarray:
    """Stationary-phase pulse elements of the offsets |j - j'| = 2 nu, nu = 0..half.

    Row nu, column c holds the element at J = j + j' + 1 = ``jsum[c]``, from
    one Bessel table over the columns.  The m, k dependence enters through
    A_J = (1 - 4k^2/J^2)(1 - 4m^2/J^2)/sqrt(2); for m k != 0 a first-order
    correction applies d/dxi to the full product xi^{-1/2} e^{iA/xi} J_nu(A/xi)
    at xi = 1/phi.  Phases carry the sign that reproduces the exact operator
    exp(+i sqrt(2) phi cos^2 beta) in the large-j limit.
    """
    A = (1.0 - 4.0 * k * k / jsum ** 2) * (1.0 - 4.0 * m * m / jsum ** 2) / math.sqrt(2.0)
    x = A * phi
    table = _bessel_table(x, half + 1)
    bessel = table[:half + 1]
    base = np.exp(1j * x) * bessel
    if m * k != 0:
        xi = 1.0 / phi
        c = 32.0 * (k * k) * (m * m) / jsum ** 4
        below = np.concatenate([-table[1:2], table[:half]])  # J_{nu-1}, J_{-1} = -J_1
        jprime = 0.5 * (below - table[1:])
        deriv = np.exp(1j * x) * (
            -bessel / (2.0 * xi ** 1.5)
            - 1j * A * bessel / xi ** 2.5
            - A * jprime / xi ** 2.5
        )
        base = base - 1j * math.sqrt(2.0 * xi) * c * deriv
    dj = 2 * np.arange(half + 1)
    return np.exp(1j * math.pi * dj / 4.0)[:, None] * base


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
    half = min(pulse_bandwidth(phi), n - 1) // 2
    # diagonal 2 nu runs over J = 2 (jmin + c) + 1 for c = nu .. n - 1 - nu;
    # the elements are built a block of columns at a time, so the table and its
    # temporaries stay small next to the diagonals they fill
    jsum = 2.0 * np.arange(jmin, jmax + 1, dtype=float) + 1.0
    diagonals = {2 * nu: np.empty(n - 2 * nu, dtype=complex) for nu in range(half + 1)}
    step = max(1, _BLOCK_ELEMENTS // (half + 1))
    for c0 in range(0, n, step):
        c1 = min(c0 + step, n)
        elements = _phase_elements(half, jsum[c0:c1], m, k, phi)
        for nu in range(half + 1):
            lo, hi = max(c0, nu), min(c1, n - nu)
            if lo < hi:
                diagonals[2 * nu][lo - nu:hi - nu] = elements[nu, lo - c0:hi - c0]
    return PulseMatrix.symmetric(jmin, jmax, diagonals)


def boundary_weight(vec: np.ndarray, bandwidth: int) -> float:
    """Probability weight within one bandwidth of the top of the j ladder."""
    tail = vec[-max(bandwidth, 1):]
    return float(np.sum(np.abs(tail) ** 2))


@angular.memo("_chebyshev_coefficients")
def _chebyshev_coefficients(phi: float) -> np.ndarray:
    """e^{ia} (2 - delta_n0) i^n J_n(a) at a = phi / sqrt(2), n = 0 .. K - 1,
    with K the first order above |a| where |J_n(a)| < 1e-17.
    For phi < 0, J_n(-a) = (-1)^n J_n(|a|)."""
    a = phi / math.sqrt(2.0)
    x = abs(a)
    table = _bessel_table(x, math.ceil(x + 12.0 * x ** (1.0 / 3.0)) + 30)
    past = np.flatnonzero((np.arange(table.size) > x) & (np.abs(table) < _SERIES_FLOOR))
    n = np.arange(past[0] if past.size else table.size)
    coeffs = (1j * math.copysign(1.0, a)) ** n * table[:n.size]
    coeffs[1:] *= 2.0
    return np.exp(1j * a) * coeffs


def phase_apply_exact(vec: np.ndarray, m: int, k: int, phi: float) -> np.ndarray:
    """Exact pulse on one (m, k) sector as a Chebyshev series in the cos^2 band.

    With C the cos^2 beta band over the sector's j0 .. jmax, X = 2 C - 1
    and a = phi / sqrt(2), the Jacobi-Anger expansion gives
    exp(i sqrt(2) phi C) = e^{ia} sum_n (2 - delta_n0) i^n J_n(a) T_n(X)
    (the Chebyshev propagator of Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
    (1984)).  C compresses an operator with spectrum in [0, 1], so the
    spectrum of X lies in [-1, 1] and every T_n(X) has norm at most 1; each
    term is one band-2 product by T_{n+1} = 2 X T_n - T_{n-1}.
    """
    prev = np.asarray(vec, dtype=complex)
    j0 = max(abs(m), abs(k))
    band = angular.cos2_band(j0, j0 + prev.size - 1, m, k)
    coeffs = _chebyshev_coefficients(phi)
    out = coeffs[0] * prev
    if coeffs.size > 1:
        cur = 2.0 * band.apply(prev) - prev
        out += coeffs[1] * cur
        for c in coeffs[2:]:
            prev, cur = cur, 4.0 * band.apply(cur) - 2.0 * cur - prev
            out += c * cur
    return out


@angular.memo("_cached_matrix")
def _cached_matrix(jmin: int, jmax: int, m: int, k: int, phi: float) -> PulseMatrix:
    return phase_matrix_semiclassical(jmin, jmax, m, k, phi)


def apply_pulse(state: RotorState, spec: PulseSpec) -> RotorState:
    """Apply one phase pulse to every m sector of a pure component.

    The semiclassical matrices depend on (m, k0); the component is
    renormalized afterwards and the pre-normalization norm defect is recorded
    in the state diagnostics.
    """
    phi = spec.phi
    if phi == 0.0:
        return state.copy()
    k0 = state.k0
    boundary = 0.0
    band = pulse_bandwidth(phi)
    sectors = {}
    for m, vec in state.sectors.items():
        j0 = max(abs(m), abs(k0))
        boundary = max(boundary, boundary_weight(vec, band))
        if spec.method == "exact":
            new_sec = phase_apply_exact(vec[j0:], m, k0, phi)
        else:
            new_sec = _cached_matrix(j0, state.jmax, m, k0, phi).apply(vec[j0:])
        sectors[m] = np.zeros_like(vec)
        sectors[m][j0:] = new_sec
    out = RotorState(k0=k0, sectors=sectors, time=state.time,
                     diagnostics=dict(state.diagnostics))
    norm = out.norm()
    defect = abs(1.0 - norm)
    if norm > 0:
        for vec in sectors.values():
            vec /= norm
    out.diagnostics["pulse_norm_defect"] = max(
        defect, out.diagnostics.get("pulse_norm_defect", 0.0))
    # boundary rows violate the unbounded-ladder assumption of the banded
    # matrices; flag the weight sitting there so runs can audit it
    out.diagnostics["pulse_boundary_weight"] = max(
        boundary, out.diagnostics.get("pulse_boundary_weight", 0.0))
    return out


def _spread(phi: float) -> int:
    return int(math.ceil(math.sqrt(2.0) * abs(phi))) + 8


def pulse_headroom(phis: list[float], n_pulses: int) -> int:
    """Extra j headroom a state needs before ``n_pulses`` pulses of the largest
    of ``phis``: per pulse, the matrix bandwidth or the spread, whichever is
    larger."""
    margin = max((max(pulse_bandwidth(p), _spread(p)) for p in phis), default=0)
    return margin * n_pulses


def prepare_for_pulses(state: RotorState, spec: PulseSpec) -> RotorState:
    """Zero-pad the state so scheduled pulses keep boundary weight negligible."""
    return extend_state(state, state.jmax + pulse_headroom([spec.phi], len(spec.schedule)))
