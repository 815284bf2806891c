"""Alignment signal, orientational distributions, revival peaks, interference fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import angular
from .errors import DomainError, PeakError
from .rotor import RotorState

__all__ = [
    "TimeSeries",
    "alignment",
    "beta_distribution",
    "find_revival_peak",
    "revival_window",
    "fit_interference_curve",
]


@dataclass(frozen=True, repr=False, eq=False)
class TimeSeries:
    """Sampled observable over dimensionless time t / T_rev."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise DomainError("times and values must have equal length")
        if np.any(np.diff(self.times) < 0):
            raise DomainError("times must be sorted")


def alignment(state: RotorState) -> float:
    """<cos^2 beta> of a pure component; 1 = aligned, 0 = antialigned, 1/3 = isotropic."""
    total = 0.0
    for m, vec in state.sectors.items():
        j0 = max(abs(m), abs(state.k0))
        total += angular.cos2_expectation(vec[j0:], j0, state.jmax, m, state.k0)
    return total


def beta_distribution(state: RotorState, grid: angular.AngularGrid) -> np.ndarray:
    """Polar-angle density prob(beta) = sin(beta) <|psi|^2> of a pure component on the grid."""
    prob = np.zeros(grid.nodes.size)
    for m, vec in state.sectors.items():
        j0 = max(abs(m), abs(state.k0))
        prob += angular.synthesize_beta(vec[j0:], m, state.k0, grid)[1]
    return prob


def revival_window(b: float) -> tuple[float, float]:
    """Centre and half-width of the window that holds the revival peak of a
    rotor with asymmetry b: the peak moves later and spreads as |b| grows
    (the moments of -b are those of b).  DomainError from |b| = 0.095 on, where
    it reaches t = 0, the unevolved state's maximum alignment."""
    centre, halfwidth = 1.0 + 10.0 * abs(b), 0.05 + 20.0 * abs(b)
    if not centre - halfwidth > 0.0:
        raise DomainError(f"the revival window of b = {b:.6g} reaches t <= 0; "
                          f"it stays above 0 for |b| < 0.095")
    return centre, halfwidth


def find_revival_peak(series: TimeSeries, window_center: float,
                      window_halfwidth: float) -> tuple[float, float]:
    """Quadratic-interpolated maximum of the series inside the window."""
    lo, hi = window_center - window_halfwidth, window_center + window_halfwidth
    mask = (series.times >= lo) & (series.times <= hi)
    if np.count_nonzero(mask) < 5:
        raise PeakError("need at least 5 samples inside the peak window")
    t = series.times[mask]
    v = series.values[mask]
    i = int(np.argmax(v))
    if i == 0 or i == len(v) - 1:
        raise PeakError(f"maximum at window edge (t={t[i]:.6f}); widen the window")
    # parabola v1 + b s + a s^2 in s = t - t1 through the three bracketing
    # samples (general spacing); in absolute t ~ 1 its terms would cancel from
    # about 3e5 down to the peak value
    t1, v1 = t[i], v[i]
    s0, s2 = t[i - 1] - t1, t[i + 1] - t1
    g0, g2 = (v[i - 1] - v1) / s0, (v[i + 1] - v1) / s2
    a = (g0 - g2) / (s0 - s2)
    b = g0 - a * s0
    if a >= 0:
        return float(t1), float(v1)
    s_peak = -b / (2.0 * a)
    return float(t1 + s_peak), float(v1 + 0.5 * b * s_peak)


def fit_interference_curve(phis: np.ndarray, values: np.ndarray):
    """Least-squares fit of A cos^2(phi/2) + B; returns (A, B, rms_residual)."""
    basis = np.column_stack([np.cos(np.asarray(phis) / 2.0) ** 2,
                             np.ones(len(phis))])
    coef, *_ = np.linalg.lstsq(basis, np.asarray(values), rcond=None)
    resid = basis @ coef - values
    return float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(resid ** 2)))
