"""Alignment signal, orientational distributions, revival peaks, interference fits."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import angular
from .errors import DomainError, PeakError
from .rotor import RotorState

__all__ = [
    "TimeSeries",
    "alignment",
    "beta_distribution",
    "find_revival_peak",
    "fit_interference_curve",
]


@dataclass(frozen=True)
class TimeSeries:
    """Sampled observable over dimensionless time t / T_rev."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise DomainError("times and values must have equal length")
        if np.any(np.diff(self.times) < 0):
            raise DomainError("times must be sorted")


@lru_cache(maxsize=512)
def _cos2_matrix(jmin: int, jmax: int, m: int, k: int) -> angular.BandedOperator:
    return angular.cos2beta_matrix(jmin, jmax, m, k)


def alignment(state: RotorState) -> float:
    """<cos^2 beta> of a pure component; 1 = aligned, 0 = antialigned, 1/3 = isotropic."""
    total = 0.0
    for m, vec in state.sectors.items():
        j0 = max(abs(m), abs(state.k0))
        total += _cos2_matrix(j0, state.jmax, m, state.k0).expectation(vec[j0:])
    return total


def beta_distribution(state: RotorState, grid: angular.AngularGrid) -> np.ndarray:
    """Polar-angle density prob(beta) = sin(beta) <|psi|^2> of a pure component on the grid."""
    prob = np.zeros(grid.nodes.size)
    for m, vec in state.sectors.items():
        j0 = max(abs(m), abs(state.k0))
        prob += angular.synthesize_beta(vec[j0:], m, state.k0, grid)[1]
    return prob


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
    # parabola through the three bracketing samples (general spacing)
    t0, t1, t2 = t[i - 1], t[i], t[i + 1]
    v0, v1, v2 = v[i - 1], v[i], v[i + 1]
    denom = (t0 - t1) * (t0 - t2) * (t1 - t2)
    a = (t2 * (v1 - v0) + t1 * (v0 - v2) + t0 * (v2 - v1)) / denom
    b = (t2 * t2 * (v0 - v1) + t1 * t1 * (v2 - v0) + t0 * t0 * (v1 - v2)) / denom
    if a >= 0:
        return float(t1), float(v1)
    t_peak = -b / (2.0 * a)
    c = v1 - a * t1 * t1 - b * t1
    return float(t_peak), float(a * t_peak * t_peak + b * t_peak + c)


def fit_interference_curve(phis: np.ndarray, values: np.ndarray):
    """Least-squares fit of A cos^2(phi/2) + B; returns (A, B, rms_residual)."""
    basis = np.column_stack([np.cos(np.asarray(phis) / 2.0) ** 2,
                             np.ones(len(phis))])
    coef, *_ = np.linalg.lstsq(basis, np.asarray(values), rcond=None)
    resid = basis @ coef - values
    return float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(resid ** 2)))
