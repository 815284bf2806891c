"""Angular-momentum numerical kernel.

Wigner d-matrices (stable recurrence and large-j asymptotics), banded
operator matrices over the j ladder from closed-form ladder coefficients, and
transforms between j-space amplitudes and polar-angle wavefunctions.

Conventions: basis states |jmk> with wavefunction
``<a,b,g|jmk> = sqrt(j+1/2) d^j_{mk}(b) exp(i m a + i k g) / 2 pi``,
Condon-Shortley phases throughout (``d^1_{10} = -sin(b)/sqrt(2)``).
All angular momenta are integers; half-integer spins are out of scope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import legder, legval
from scipy.linalg import eigvalsh_tridiagonal

from .errors import DomainError, ResolutionError, SingularityError, TruncationWarning

__all__ = [
    "AngularGrid",
    "BandedHermitian",
    "DirectionCosineOperator",
    "wigner_d_exact",
    "wigner_d_semiclassical",
    "wigner_d_table",
    "cos2beta_matrix",
    "direction_cosine_matrices",
    "synthesize_beta",
    "project_beta",
]


# ---------------------------------------------------------------------------
# quadrature grid
# ---------------------------------------------------------------------------

def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], ascending.

    numpy's ``leggauss`` with its dense O(n^3) eigensolve of the Legendre
    companion matrix replaced by a tridiagonal O(n^2) one on the same matrix;
    the Newton step, the weight formula and the symmetrization are numpy's.
    (``scipy.special.roots_legendre`` has better weights near x = +-1, which
    moves high-order results by a few 1e-9.)
    """
    c = np.zeros(order + 1)
    c[-1] = 1.0
    scl = 1.0 / np.sqrt(2.0 * np.arange(order) + 1.0)
    x = eigvalsh_tridiagonal(np.zeros(order), np.arange(1, order) * scl[:-1] * scl[1:])
    dy = legval(x, c)
    df = legval(x, legder(c))
    x -= dy / df
    fm = legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


@dataclass(frozen=True)
class AngularGrid:
    """Gauss-Legendre grid in cos(beta) for integrals against sin(beta) d(beta).

    ``sum(weights * f(nodes))`` approximates ``int_0^pi f(b) sin(b) db`` and is
    exact for f polynomial in cos(b) up to degree ``2*order - 1``.  The arrays
    are read-only: ``for_jmax`` hands the same grid to every caller.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    @classmethod
    def gauss_legendre(cls, order: int) -> "AngularGrid":
        if order < 1:
            raise DomainError(f"grid order must be >= 1, got {order}")
        x, w = _leggauss(order)
        beta = np.arccos(x)[::-1].copy()
        weights = w[::-1].copy()
        beta.flags.writeable = False
        weights.flags.writeable = False
        return cls(nodes=beta, weights=weights, order=order)

    @classmethod
    @lru_cache(maxsize=32)
    def for_jmax(cls, jmax: int) -> "AngularGrid":
        # order 2*jmax + 16: exact for the d*d*cos^2 integrands plus margin
        return cls.gauss_legendre(2 * jmax + 16)

    def window_mass(self, prob_density: np.ndarray, lo: float, hi: float) -> float:
        """Integrate a |psi|^2-type density (already per sin(b) db) over [lo, hi]."""
        mask = (self.nodes >= lo) & (self.nodes <= hi)
        return float(np.sum(self.weights[mask] * prob_density[mask]))


# ---------------------------------------------------------------------------
# Wigner d-functions
# ---------------------------------------------------------------------------

def _check_jmk(j: int, m: int, k: int) -> None:
    if j < 0:
        raise DomainError(f"j must be >= 0, got {j}")
    if abs(m) > j or abs(k) > j:
        raise DomainError(f"|m|,|k| must not exceed j: j={j}, m={m}, k={k}")


def _d_start_log(m: int, k: int, beta: float) -> tuple[float, float]:
    """Starting value of d^{j0}_{mk} at j0 = max(|m|,|k|) as (sign, log|value|)."""
    j0 = max(abs(m), abs(k))
    lc = math.log(math.cos(beta / 2.0))
    ls = math.log(math.sin(beta / 2.0))
    if abs(k) >= abs(m):
        if k >= 0:  # k = j0
            sign = 1.0
            lbin = 0.5 * (math.lgamma(2 * j0 + 1) - math.lgamma(j0 - m + 1) - math.lgamma(j0 + m + 1))
            logv = lbin + (j0 + m) * lc + (j0 - m) * ls
        else:  # k = -j0
            sign = -1.0 if (j0 + m) % 2 else 1.0
            lbin = 0.5 * (math.lgamma(2 * j0 + 1) - math.lgamma(j0 + m + 1) - math.lgamma(j0 - m + 1))
            logv = lbin + (j0 - m) * lc + (j0 + m) * ls
    else:
        if m >= 0:  # m = j0
            sign = -1.0 if (j0 - k) % 2 else 1.0
            lbin = 0.5 * (math.lgamma(2 * j0 + 1) - math.lgamma(j0 - k + 1) - math.lgamma(j0 + k + 1))
            logv = lbin + (j0 + k) * lc + (j0 - k) * ls
        else:  # m = -j0
            sign = 1.0
            lbin = 0.5 * (math.lgamma(2 * j0 + 1) - math.lgamma(j0 + k + 1) - math.lgamma(j0 - k + 1))
            logv = lbin + (j0 - k) * lc + (j0 + k) * ls
    return sign, logv


def _recurrence_r(j: int, m: int, k: int) -> float:
    return math.sqrt(float(j * j - m * m) * float(j * j - k * k))


def wigner_d_exact(j: int, m: int, k: int, beta: float) -> float:
    """d^j_{mk}(beta) by the three-term recurrence in j, upward from max(|m|,|k|).

    Stable to j of a few thousand; the running pair is renormalized every 64
    steps so starting values far below the floating-point floor (large |m|,|k|
    at extreme angles) are still propagated.  A result whose true magnitude
    underflows float64 is returned as 0.0.
    """
    _check_jmk(j, m, k)
    if beta == 0.0:
        return 1.0 if m == k else 0.0
    if beta == math.pi:
        if m == -k:
            return -1.0 if (j - k) % 2 else 1.0
        return 0.0
    if not 0.0 < beta < math.pi:
        raise DomainError(f"beta must lie in [0, pi], got {beta}")

    j0 = max(abs(m), abs(k))
    cosb = math.cos(beta)

    if j0 == 0:
        if j == 0:
            return 1.0
        prev, curr = 1.0, cosb  # d^0 and d^1 for m = k = 0
        scale = 0
        jc = 1
    else:
        sign, logv = _d_start_log(m, k, beta)
        scale = min(0, int(math.floor(logv / math.log(2.0))))
        start = sign * math.exp(logv - scale * math.log(2.0))
        if j == j0:
            return math.ldexp(start, scale) if scale > -1100 else 0.0
        num = (2 * j0 + 1) * (j0 * (j0 + 1) * cosb - m * k)
        nxt = num * start / (j0 * _recurrence_r(j0 + 1, m, k))
        prev, curr = start, nxt
        jc = j0 + 1

    steps = 0
    while jc < j:
        num = (2 * jc + 1) * (jc * (jc + 1) * cosb - m * k)
        new = (num * curr - (jc + 1) * _recurrence_r(jc, m, k) * prev) / (jc * _recurrence_r(jc + 1, m, k))
        prev, curr = curr, new
        jc += 1
        steps += 1
        if steps % 64 == 0 and scale < 0:
            mag = max(abs(prev), abs(curr))
            if mag > 1.0:
                e = min(int(math.floor(math.log2(mag))), -scale)
                prev = math.ldexp(prev, -e)
                curr = math.ldexp(curr, -e)
                scale += e
    if scale == 0:
        return curr
    if scale < -1100 and abs(curr) < 1.0:
        return 0.0
    return math.ldexp(curr, scale)


def wigner_d_semiclassical(j: int, m: int, k: int, beta: float) -> float:
    """Large-j asymptotic d^j_{mk}(beta), valid for |m|,|k| << j away from the poles."""
    if beta <= 0.0 or beta >= math.pi:
        raise SingularityError(f"asymptotic d-function diverges at beta={beta}")
    jh = j + 0.5
    phase = jh * beta + (m - k) * math.pi / 2.0 - math.pi / 4.0
    return math.cos(phase) / math.sqrt(math.pi / 2.0 * jh * math.sin(beta))


def _wigner_d_rows(m: int, k: int, betas: np.ndarray, jmax: int):
    """Yield (j, d^j_{mk}(betas)) for j = max(|m|,|k|) .. jmax, vectorized over beta.

    Plain float64; intended for the modest |m|, |k| carried by rotor sectors.
    """
    j0 = max(abs(m), abs(k))
    cosb = np.cos(betas)
    if j0 == 0:
        prev = np.ones_like(betas)
        yield 0, prev
        if jmax == 0:
            return
        curr = cosb.copy()
        yield 1, curr
        jc = 1
    else:
        lc = np.log(np.cos(betas / 2.0))
        ls = np.log(np.sin(betas / 2.0))
        sign, _ = _d_start_log(m, k, 1.0)  # sign is angle independent
        if abs(k) >= abs(m):
            p, q = (j0 + m, j0 - m) if k >= 0 else (j0 - m, j0 + m)
            lbin = 0.5 * (math.lgamma(2 * j0 + 1) - math.lgamma(p + 1) - math.lgamma(q + 1))
        else:
            p, q = (j0 + k, j0 - k) if m >= 0 else (j0 - k, j0 + k)
            lbin = 0.5 * (math.lgamma(2 * j0 + 1) - math.lgamma(p + 1) - math.lgamma(q + 1))
        prev = sign * np.exp(lbin + p * lc + q * ls)
        yield j0, prev
        if jmax == j0:
            return
        num = (2 * j0 + 1) * (j0 * (j0 + 1) * cosb - m * k)
        curr = num * prev / (j0 * _recurrence_r(j0 + 1, m, k))
        yield j0 + 1, curr
        jc = j0 + 1
    while jc < jmax:
        num = (2 * jc + 1) * (jc * (jc + 1) * cosb - m * k)
        new = (num * curr - (jc + 1) * _recurrence_r(jc, m, k) * prev) / (jc * _recurrence_r(jc + 1, m, k))
        prev, curr = curr, new
        jc += 1
        yield jc, curr


def wigner_d_table(m: int, k: int, betas: np.ndarray, jmax: int) -> np.ndarray:
    """Array of d^j_{mk}(betas) with rows j = max(|m|,|k|) .. jmax."""
    betas = np.asarray(betas, dtype=float)
    j0 = max(abs(m), abs(k))
    if jmax < j0:
        raise DomainError(f"jmax={jmax} below max(|m|,|k|)={j0}")
    out = np.empty((jmax - j0 + 1, betas.size))
    for j, row in _wigner_d_rows(m, k, betas, jmax):
        out[j - j0] = row
    return out


# ---------------------------------------------------------------------------
# banded operators over the j ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandedHermitian:
    """Hermitian operator over j = jmin..jmax at fixed (m, k), banded in j.

    ``diagonals[d]`` holds the entries <j m k| A |j+d m k> for offsets
    d = 0..bandwidth; lower triangle is implied by hermiticity.
    """

    jmin: int
    jmax: int
    bandwidth: int
    diagonals: tuple[np.ndarray, ...]
    m: int
    k: int

    def __post_init__(self):
        n = self.jmax - self.jmin + 1
        if len(self.diagonals) != self.bandwidth + 1:
            raise DomainError("need one diagonal per offset 0..bandwidth")
        for d, arr in enumerate(self.diagonals):
            if arr.shape != (max(n - d, 0),):
                raise DomainError(f"diagonal {d} has wrong length")

    @property
    def size(self) -> int:
        return self.jmax - self.jmin + 1

    def entry(self, j1: int, j2: int) -> complex:
        """Matrix element <j1 m k| A |j2 m k>; zero outside the band."""
        d = j2 - j1
        if abs(d) > self.bandwidth:
            return 0.0
        if d >= 0:
            return complex(self.diagonals[d][j1 - self.jmin])
        return complex(np.conj(self.diagonals[-d][j2 - self.jmin]))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-vector product; ``vec`` is indexed j = jmin..jmax."""
        out = self.diagonals[0] * vec
        for d in range(1, self.bandwidth + 1):
            diag = self.diagonals[d]
            if diag.size == 0:
                continue
            out[:-d] += diag * vec[d:]
            out[d:] += np.conj(diag) * vec[:-d]
        return out

    def expectation(self, vec: np.ndarray) -> float:
        return float(np.real(np.vdot(vec, self.apply(vec))))

    def to_dense(self) -> np.ndarray:
        n = self.size
        dense = np.zeros((n, n), dtype=complex)
        for d in range(self.bandwidth + 1):
            idx = np.arange(n - d)
            dense[idx, idx + d] = self.diagonals[d]
            if d:
                dense[idx + d, idx] = np.conj(self.diagonals[d])
        return dense


def _cos_ladder(jlo: int, jhi: int, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(beta) over the j ladder at fixed (m, k), for j = jlo..jhi.

    Returns ``<j|cos b|j> = m k / (j (j+1))`` (0 at j = 0) and
    ``<j+1|cos b|j> = sqrt(((j+1)^2 - m^2)((j+1)^2 - k^2)) / ((j+1) sqrt((2j+1)(2j+3)))``;
    ``jlo`` must be at least max(|m|, |k|).
    """
    j = np.arange(jlo, jhi + 1, dtype=float)
    jj = j * (j + 1.0)
    same = np.divide(float(m * k), jj, out=np.zeros_like(j), where=jj > 0)
    j1 = j + 1.0
    up = np.sqrt((j1 * j1 - m * m) * (j1 * j1 - k * k)) \
        / (j1 * np.sqrt((2.0 * j + 1.0) * (2.0 * j + 3.0)))
    return same, up


def cos2beta_matrix(jmin: int, jmax: int, m: int, k: int) -> BandedHermitian:
    """Banded matrix of cos^2(beta) over |j m k>, bandwidth 2.

    The square of the tridiagonal cos(beta) ladder, summed over the full
    ladder j >= max(|m|, |k|): the elements are exact, not those of a
    truncated product.  Selection rules |dj| <= 2, dm = dk = 0.
    """
    j0 = max(abs(m), abs(k))
    if jmin < j0:
        raise DomainError(f"jmin={jmin} below max(|m|,|k|)={j0}")
    if jmax < jmin:
        raise DomainError("jmax < jmin")
    lo = max(jmin - 1, j0)
    same, up = _cos_ladder(lo, jmax, m, k)
    below = up[:1] if lo < jmin else np.zeros(1)  # <jmin|cos|jmin-1>; 0 at j0
    same, up = same[jmin - lo:], up[jmin - lo:]
    down = np.concatenate([below, up[:-1]])
    diags = (same * same + down * down + up * up,
             up[:-1] * (same[:-1] + same[1:]),
             up[:-2] * up[1:-1])
    return BandedHermitian(jmin=jmin, jmax=jmax, bandwidth=2, diagonals=diags, m=m, k=k)


def _cg_rank1(j: np.ndarray, mu: int, q: int, dj: int) -> np.ndarray:
    """<j mu; 1 q | j+dj mu+q> in closed form over the j array; 0 where forbidden."""
    jp = j + dj
    ok = (abs(mu) <= j) & (abs(mu + q) <= jp) & (j + jp >= 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if dj == 1:
            num = 2 * (j + 1 - mu) * (j + 1 + mu) if q == 0 \
                else (j + q * mu + 1) * (j + q * mu + 2)
            val = np.sqrt(num / ((2 * j + 1) * (2 * j + 2)))
        elif dj == 0:
            num = mu if q == 0 else -q * np.sqrt((j + q * mu + 1) * (j - q * mu) / 2)
            val = num / np.sqrt(j * (j + 1))
        else:
            num = 2 * (j - mu) * (j + mu) if q == 0 else (j - q * mu) * (j - q * mu - 1)
            val = (-1.0 if q == 0 else 1.0) * np.sqrt(num / (2 * j * (2 * j + 1)))
    return np.where(ok, val, 0.0)


_AXIS_COEF = {"x": {1: -math.sqrt(0.5), -1: math.sqrt(0.5)},
              "y": {1: 1j * math.sqrt(0.5), -1: 1j * math.sqrt(0.5)},
              "z": {0: 1.0}}


class DirectionCosineOperator:
    """One component of the body-axis direction cosine at fixed k.

    Selection rules dj in {0, +-1}, dk = 0, dm = 0 (z) or +-1 (x, y).  Acts on
    a sector mapping m -> amplitude vector over j = 0..jmax (entries below
    max(|m|, |k|) must be zero).  Each (m, dm) pair keeps three diagonals,
    ``<j+dj, m+dm, k| c |j m k>`` for dj = -1, 0, +1 over j = 0..jmax, from
    the rank-1 Clebsch-Gordan closed forms.
    """

    def __init__(self, axis: str, jmin: int, jmax: int, k: int):
        if axis not in ("x", "y", "z"):
            raise DomainError(f"axis must be x, y or z, got {axis!r}")
        if jmin < abs(k):
            raise DomainError(f"jmin={jmin} below |k|={abs(k)}")
        self.axis = axis
        self.jmin = jmin
        self.jmax = jmax
        self.k = k
        self._diags: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}

    def _diagonals(self, m: int, dm: int) -> tuple[np.ndarray, ...]:
        key = (m, dm)
        diags = self._diags.get(key)
        if diags is None:
            j = np.arange(self.jmax + 1, dtype=float)
            coef = _AXIS_COEF[self.axis][dm]
            diags = tuple(
                coef * np.sqrt((2 * j + 1) / (2 * np.maximum(j + dj, 0) + 1))
                * _cg_rank1(j, self.k, 0, dj) * _cg_rank1(j, m, dm, dj)
                for dj in (-1, 0, 1))
            self._diags[key] = diags
        return diags

    def entry(self, jp: int, mp: int, j: int, m: int) -> complex:
        if not (self.jmin <= j <= self.jmax and self.jmin <= jp <= self.jmax):
            return 0.0
        if mp - m not in _AXIS_COEF[self.axis] or abs(jp - j) > 1:
            return 0.0
        return self._diagonals(m, mp - m)[jp - j + 1][j].item()

    def apply(self, sectors: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Apply the operator to {m: amplitudes over j=0..jmax}."""
        out: dict[int, np.ndarray] = {}
        for m, vec in sectors.items():
            for dm in _AXIS_COEF[self.axis]:
                down, same, up = self._diagonals(m, dm)
                contrib = same * vec
                contrib[:-1] += down[1:] * vec[1:]
                contrib[1:] += up[:-1] * vec[:-1]
                tgt = m + dm
                if tgt in out:
                    out[tgt] = out[tgt] + contrib
                else:
                    out[tgt] = contrib
        return out


def direction_cosine_matrices(jmin: int, jmax: int, k: int):
    """The three direction-cosine operators (c_x, c_y, c_z) at fixed k."""
    return tuple(DirectionCosineOperator(axis, jmin, jmax, k) for axis in ("x", "y", "z"))


# ---------------------------------------------------------------------------
# beta-grid transforms
# ---------------------------------------------------------------------------

def _table_for(table: np.ndarray | None, m: int, k: int, jmax: int,
               grid: AngularGrid) -> np.ndarray:
    """Rows j = max(|m|,|k|)..jmax of ``table``, or a new table when it is None."""
    if table is None:
        return wigner_d_table(m, k, grid.nodes, jmax)
    return table[: jmax - max(abs(m), abs(k)) + 1]


def synthesize_beta(coeffs: np.ndarray, m: int, k: int, grid: AngularGrid,
                    table: np.ndarray | None = None):
    """Polar-angle wavefunction of a (m, k) sector.

    ``coeffs`` are amplitudes over j = max(|m|,|k|) .. jmax (jmax inferred from
    the length).  Returns ``(psi, prob)`` on the grid nodes with
    ``psi(b) = sum_j c_j sqrt(j+1/2) d^j_{mk}(b)`` and
    ``prob(b) = sin(b) |psi(b)|^2`` normalized so that int prob db = 1 for a
    normalized sector.  ``table`` is an optional ``wigner_d_table`` of this
    (m, k) on the grid nodes reaching at least jmax.
    """
    coeffs = np.asarray(coeffs)
    j0 = max(abs(m), abs(k))
    jmax = j0 + coeffs.size - 1
    if grid.order < 2 * jmax:
        raise ResolutionError(
            f"grid order {grid.order} cannot resolve j up to {jmax} (need >= {2 * jmax})")
    scaled = coeffs * np.sqrt(np.arange(j0, jmax + 1) + 0.5)
    re, im = np.stack([scaled.real, scaled.imag]) @ _table_for(table, m, k, jmax, grid)
    psi = re + 1j * im
    prob = np.sin(grid.nodes) * np.abs(psi) ** 2
    return psi, prob


def _project_general(psi: np.ndarray, m: int, k: int, jmax: int, grid: AngularGrid,
                     table: np.ndarray | None = None) -> np.ndarray:
    """Quadrature projection of psi(beta) onto sqrt(j+1/2) d^j_{mk}."""
    j0 = max(abs(m), abs(k))
    if jmax < j0:
        raise DomainError(f"jmax={jmax} below max(|m|,|k|)={j0}")
    wpsi = grid.weights * psi
    proj = _table_for(table, m, k, jmax, grid) @ np.stack([wpsi.real, wpsi.imag], axis=1)
    return np.sqrt(np.arange(j0, jmax + 1) + 0.5) * (proj[:, 0] + 1j * proj[:, 1])


def project_beta(psi: np.ndarray, k0: int, jmax: int, grid: AngularGrid) -> np.ndarray:
    """Expand psi(beta) over |j k0 k0>, j = |k0| .. jmax.

    Issues a :class:`TruncationWarning` with the captured norm when the
    expansion misses more than 1e-10 of the wavefunction's norm.
    """
    psi = np.asarray(psi, dtype=complex)
    coeffs = _project_general(psi, k0, k0, jmax, grid)
    total = float(np.sum(grid.weights * np.abs(psi) ** 2))
    captured = float(np.sum(np.abs(coeffs) ** 2))
    if total > 0 and captured < total * (1.0 - 1e-10):
        warnings.warn(
            f"projection to jmax={jmax} captured {captured / total:.12f} of the norm",
            TruncationWarning, stacklevel=2)
    return coeffs
