"""Angular-momentum numerical kernel.

Wigner d-matrices from a stable recurrence, banded operator matrices over
the j ladder from closed-form ladder coefficients, and transforms between
j-space amplitudes and polar-angle wavefunctions.

Conventions: basis states |jmk> with wavefunction
``<a,b,g|jmk> = sqrt(j+1/2) d^j_{mk}(b) exp(i m a + i k g) / 2 pi``,
Condon-Shortley phases throughout (``d^1_{10} = -sin(b)/sqrt(2)``).
All angular momenta are integers; half-integer spins are out of scope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, ResolutionError, TruncationWarning

__all__ = [
    "AngularGrid",
    "BandedOperator",
    "DirectionCosineOperator",
    "wigner_d_table",
    "cos2beta_matrix",
    "cos2_band",
    "cosine_xy_difference",
    "synthesize_beta",
    "project_beta",
]


# ---------------------------------------------------------------------------
# quadrature grid
# ---------------------------------------------------------------------------

# j_{0,k}, the zeros of the Bessel function J_0, for k = 1 .. 20 (mpmath's
# besseljzero); McMahon's expansion gives the rest to rounding
_J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
             14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
             27.493479132040253, 30.634606468431976, 33.77582021357357, 36.917098353664045,
             40.05842576462824, 43.19979171317673, 46.341188371661815, 49.482609897397815,
             52.624051841115, 55.76551075501998, 58.90698392608094, 62.048469190227166)
# the lowest order whose pole nodes start from the Bessel zeros
BESSEL_START_ORDER = 600


def _j0_zeros(count: int) -> np.ndarray:
    """The first ``count`` zeros j_{0,k} of J_0."""
    b = (np.arange(len(_J0_ZEROS) + 1, count + 1) - 0.25) * np.pi
    mcmahon = (b + 1 / (8 * b) - 31 / (384 * b**3) + 3779 / (15360 * b**5)
               - 6277237 / (3440640 * b**7))
    return np.concatenate([_J0_ZEROS, mcmahon])[:count]


def _legval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """numpy's ``legval(x, c)`` step for step, so bit for bit, for len(c) >= 2."""
    nd = len(c)
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _leggauss(order: int, x_min: float = -1.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes x >= x_min and their weights on [-1, 1], ascending.

    numpy's ``leggauss`` with its dense O(n^3) eigensolve of the Legendre
    companion matrix replaced by asymptotic starts and Newton steps, for the
    lower half, mirrored (Hale & Townsend, SIAM J. Sci. Comput. 35, A652
    (2013)).  A node whose Tricomi start has |x| < 1/2, and every node below
    ``BESSEL_START_ORDER``, takes three Newton steps on the three-term
    recurrence from that start: they reach rounding level at every order
    checked (all to 400, a sample to 3,000; the largest steps, all at order
    2, are 1.2e-3, 1.4e-6 and 1.6e-12).  From that order on, a node whose
    Tricomi start has |x| >= 1/2 starts instead from its Bessel-zero
    expansion theta_k = a + (a cot a - 1) / (8 a nu^2), a = j_{0,k} / nu,
    nu = n + 1/2, and takes no recurrence step.  Then every node takes
    numpy's finishing Newton step, with P_n and P'_n from one Clenshaw sweep
    that repeats numpy's ``legval`` step for step.  Which nodes iterate
    depends only on (n, i) and every step is elementwise, so only the roots
    that may reach x_min are built (two to spare), and each kept node has the
    bits it has in the full rule.  The weights are 2 / (n P_{n-1}(x)
    P'_n(x_pre)), with x_pre the node before the finishing step, which is
    2 / ((1 - x^2) P'_n(x)^2) at a root, in place of numpy's rescaling to
    sum 2 over every node.  Weights accurate to rounding would move
    high-order results by about 1e-9, so the formula and its arithmetic stay.
    """
    n = order
    i = np.arange(1, (n + 1) // 2 + 1)
    x = -(1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * i - 1) / (4 * n + 2))
    x = x[: np.count_nonzero(np.abs(x) >= x_min) + 2]
    poles = np.count_nonzero(np.abs(x) >= 0.5) if n >= BESSEL_START_ORDER else 0
    nu = n + 0.5
    a = _j0_zeros(poles) / nu
    x[:poles] = -np.cos(a + (a / np.tan(a) - 1.0) / (8.0 * a * nu**2))
    t = x[poles:]
    for _ in range(3 if t.size else 0):  # no sweep of n steps over no nodes
        p0, p1 = np.ones_like(t), t
        for k in range(1, n):
            p0, p1 = p1, (2 * k + 1) / (k + 1) * t * p1 - k / (k + 1) * p0
        t = t - p1 * (t * t - 1.0) / (n * (t * p1 - p0))
    x[poles:] = t
    # the finishing step may carry the node next below the cap across it
    x = np.concatenate([x, -x[: n // 2][::-1]])
    x = x[max(np.count_nonzero(x < x_min) - 1, 0):]

    # columns e_n, legder(e_n) (2k + 1 at k = n-1, n-3, ...) and e_{n-1}, each
    # padded to n + 1 terms: a top zero leaves legval's steps as they were
    c = np.zeros((n + 1, 3, 1))
    c[n, 0] = c[n - 1, 2] = 1.0
    k = np.arange(n - 1, -1, -2)
    c[k, 1, 0] = 2 * k + 1
    dy, df = _legval(x, c[:, :2])
    x = x - dy / df
    w = 2.0 / (n * _legval(x, c[:, 2:])[0] * df)
    keep = x >= x_min
    return x[keep], w[keep]


@dataclass(frozen=True)
class AngularGrid:
    """Gauss-Legendre grid in cos(beta) for integrals against sin(beta) d(beta).

    ``sum(weights * f(nodes))`` approximates ``int_0^pi f(b) sin(b) db`` and is
    exact for f polynomial in cos(b) up to degree ``2*order - 1``.  A grid
    capped at ``beta_max`` holds only the rule's nodes with
    cos(b) >= cos(beta_max), so its sums are those of the full rule for an f
    that is zero beyond.  The arrays are read-only: ``for_jmax`` hands the
    same grid to every caller.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    @classmethod
    def gauss_legendre(cls, order: int, beta_max: float = math.pi) -> "AngularGrid":
        if order < 1:
            raise DomainError(f"grid order must be >= 1, got {order}")
        if not 0.0 < beta_max <= math.pi:
            raise DomainError(f"grid cap must be in (0, pi], got {beta_max}")
        x, w = _leggauss(order, math.cos(beta_max))
        beta = np.arccos(x)[::-1].copy()
        weights = w[::-1].copy()
        beta.flags.writeable = False
        weights.flags.writeable = False
        return cls(nodes=beta, weights=weights, order=order)

    @staticmethod
    def order_for(jmax: int) -> int:
        """2 jmax + 16: exact for the d*d*cos^2 integrands up to jmax, plus margin."""
        return 2 * jmax + 16

    @classmethod
    @lru_cache(maxsize=32)
    def for_jmax(cls, jmax: int, beta_max: float = math.pi) -> "AngularGrid":
        return cls.gauss_legendre(cls.order_for(jmax), beta_max)

    def window_mass(self, prob_density: np.ndarray, lo: float, hi: float) -> float:
        """Integrate a |psi|^2-type density (already per sin(b) db) over [lo, hi]."""
        mask = (self.nodes >= lo) & (self.nodes <= hi)
        return float(np.sum(self.weights[mask] * prob_density[mask]))


# ---------------------------------------------------------------------------
# Wigner d-functions
# ---------------------------------------------------------------------------

def _d_start(m: int, k: int) -> tuple[float, float, int, int]:
    """Start value of the j recurrence at j0 = max(|m|,|k|) as (sign, lbin, p, q):
    ``d^{j0}_{mk}(b) = sign exp(lbin + p log cos(b/2) + q log sin(b/2))``."""
    j0 = max(abs(m), abs(k))
    if abs(k) >= abs(m):
        p, q = (j0 + m, j0 - m) if k >= 0 else (j0 - m, j0 + m)
        odd = k < 0 and q % 2
    else:
        p, q = (j0 + k, j0 - k) if m >= 0 else (j0 - k, j0 + k)
        odd = m >= 0 and q % 2
    lbin = 0.5 * (math.lgamma(2 * j0 + 1) - math.lgamma(p + 1) - math.lgamma(q + 1))
    return (-1.0 if odd else 1.0), lbin, p, q


def _d_first(m: int, k: int, betas: np.ndarray) -> np.ndarray:
    """d^{j0}_{mk}(betas), j0 = max(|m|,|k|): the row the recurrence starts from."""
    if m == k == 0:
        return np.ones(betas.shape)
    sign, lbin, p, q = _d_start(m, k)
    return sign * np.exp(lbin + p * np.log(np.cos(betas / 2.0))
                         + q * np.log(np.sin(betas / 2.0)))


def wigner_d_table(m: int, k: int, betas: np.ndarray, jmax: int) -> np.ndarray:
    """Array of d^j_{mk}(betas) with rows j = max(|m|,|k|) .. jmax: the
    one-pair case of ``_d_blocks``, in plain float64; intended for the modest
    |m|, |k| carried by rotor sectors."""
    betas = np.asarray(betas, dtype=float)
    j0 = max(abs(m), abs(k))
    if jmax < j0:
        raise DomainError(f"jmax={jmax} below max(|m|,|k|)={j0}")
    out = np.empty((jmax - j0 + 1, betas.size))
    for first, rows in _d_blocks([(m, k)], betas, jmax):
        out[first - j0:first - j0 + len(rows)] = rows[:, 0]
    return out


_D_BLOCK = 64  # j rows of the recurrence held at once


def _d_blocks(pairs: list[tuple[int, int]], betas: np.ndarray, jmax: int):
    """d^j_{mk}(betas) for every (m, k) of ``pairs`` from one recurrence in
    j, a block of up to _D_BLOCK rows j at a time.

    With jlo the least j0 = max(|m|, |k|) of the pairs, yields (j_first,
    rows) for j_first = jlo, jlo + _D_BLOCK, ... up to jmax, with rows[t, i]
    = d^{j_first + t}_{m_i k_i} where j_first + t >= j0_i (the rows below
    j0_i are scratch).  ``rows`` is a view of one buffer that the next block
    overwrites.  Every step is elementwise over the (pair, beta) array, so
    each row has its bits whichever pairs share the pass.
    """
    cosb = np.cos(betas)
    mcol, kcol = (np.array(col)[:, None] for col in zip(*pairs))
    mk = (mcol * kcol).astype(float)
    starts: dict[int, list[int]] = {}  # j0 -> the pairs that start there
    for i, (m, k) in enumerate(pairs):
        starts.setdefault(max(abs(m), abs(k)), []).append(i)
    jlo = min(starts)
    # the step jc -> jc + 1 divides by jc r(jc + 1), with r(j) =
    # sqrt(|j^2 - m^2| |j^2 - k^2|); the divisor is zero only where jc = 0
    # or jc + 1 <= j0 (row 1 of m = k = 0 is cos(beta), row j0 is the start
    # value, the rows below are scratch) and reads 1 there, so the scratch
    # rows stay finite
    js = np.arange(jlo - 1, jmax)[:, None, None]
    r0, r1 = (np.sqrt(np.abs(j * j - mcol * mcol).astype(float)
                      * np.abs(j * j - kcol * kcol).astype(float)) for j in (js, js + 1))
    c1, c2 = (js + 1) * r0, js * r1
    c2[c2 == 0.0] = 1.0
    steps = zip(c1, c2)
    special = starts.keys() | ({1} if jlo == 0 else set())
    buf = np.zeros((_D_BLOCK + 2, len(pairs), betas.size))
    rows = list(buf)  # rows[t] holds row j_first + t - 2
    for first in range(jlo, jmax + 1, _D_BLOCK):
        stop = min(first + _D_BLOCK, jmax + 1)
        # each new row first holds its step's (2jc + 1) (jc (jc + 1) cos b - m k)
        jc = np.arange(first - 1, stop - 1, dtype=float)[:, None, None]
        block = buf[2:stop - first + 2]
        np.subtract(jc * (jc + 1) * cosb, mk, out=block)
        block *= 2 * jc + 1
        for j, (a1, a2), prev, cur, new in zip(range(first, stop), steps,
                                               rows, rows[1:], rows[2:]):
            new *= cur
            new -= a1 * prev
            new /= a2
            if j in special:
                if j == 1 and jlo == 0:
                    new[starts[0]] = cosb
                for i in starts.get(j, ()):
                    new[i] = _d_first(*pairs[i], betas)
                    cur[i] = 0.0  # so the first step reads +0.0
        yield first, block
        buf[:2] = buf[stop - first:stop - first + 2]


# ---------------------------------------------------------------------------
# banded operators over the j ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Square operator over j = jmin..jmax, banded in j.

    ``diagonals[d]`` holds <j| A |j+d> for j = jmin..jmax-d when d >= 0 and
    <j-d| A |j> for j = jmin..jmax+d when d < 0; offsets that are absent are
    zero.  A symmetric operator binds d and -d to the same array.  The arrays
    are read-only: the memo caches hand one operator to every caller.
    """

    jmin: int
    jmax: int
    diagonals: dict[int, np.ndarray]

    def __post_init__(self):
        for d, arr in self.diagonals.items():
            if arr.shape != (max(self.size - abs(d), 0),):
                raise DomainError(f"diagonal {d} has wrong length")
            arr.flags.writeable = False

    @classmethod
    def symmetric(cls, jmin: int, jmax: int, upper: dict[int, np.ndarray]) -> "BandedOperator":
        """The operator with diagonals ``upper[d]`` at offsets d and -d."""
        diagonals = {}
        for d, arr in upper.items():
            diagonals[d] = arr
            if d:
                diagonals[-d] = arr
        return cls(jmin, jmax, diagonals)

    @property
    def size(self) -> int:
        return self.jmax - self.jmin + 1

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-vector product; ``vec`` is indexed j = jmin..jmax."""
        out = self.diagonals[0] * vec
        for d, diag in self.diagonals.items():  # d = 0 first, then +d before -d
            if d > 0:
                out[:-d] += diag * vec[d:]
            elif d < 0:
                out[-d:] += diag * vec[:d]
        return out

    @cached_property
    def _doubled(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(d, w_d a_d with each entry repeated twice) for every stored
        d >= 0, w_0 = 1 and w_d = 2: the terms of ``expectation``, built on
        its first call.  DomainError unless the band is real and symmetric."""
        terms = []
        for d, diag in self.diagonals.items():
            if diag.dtype.kind != "f" or (d and not np.array_equal(diag, self.diagonals.get(-d))):
                raise DomainError("expectation needs a real symmetric band")
            if d >= 0:
                doubled = np.repeat(diag * (2.0 if d else 1.0), 2)
                doubled.flags.writeable = False
                terms.append((d, doubled))
        return tuple(terms)

    def expectation(self, vec: np.ndarray) -> float:
        """<vec| A |vec> of a real symmetric band, the only kind it serves,
        without forming A vec.

        With A_{j,j+d} = A_{j+d,j} = a_d[j] real, the form is
        sum_{d >= 0} w_d sum_j a_d[j] Re(conj(v_j) v_{j+d}), w_0 = 1 and
        w_d = 2.  On the float view x = (Re v_jmin, Im v_jmin, ...) of vec,
        Re(conj(v_j) v_{j+d}) = x_{2j} x_{2j+2d} + x_{2j+1} x_{2j+1+2d}, so
        each stored d >= 0 is one product x[:-2d] * x[2d:] and one dot with
        w_d a_d repeated twice (``_doubled``).  A strided or real vec is read
        as its contiguous complex copy.
        """
        x = np.ascontiguousarray(vec, dtype=complex).view(float)
        total = 0.0
        for d, doubled in self._doubled:
            total += doubled.dot(x[:doubled.size] * x[2 * d:])
        return float(total)


def cos2beta_matrix(jmin: int, jmax: int, m: int, k: int) -> BandedOperator:
    """Banded matrix of cos^2(beta) over |j m k>, bandwidth 2.

    The square of the tridiagonal cos(beta) ladder, the c_z block of
    ``_cosine_block``, summed over the full ladder j >= max(|m|, |k|): the
    block is read one row past jmax, so the elements are exact, not those of
    a truncated product.  Selection rules |dj| <= 2, dm = dk = 0.  Where
    m k = 0 the cos(beta) ladder has a zero diagonal, so the +-1 diagonals
    are zero and are not stored.
    """
    j0 = max(abs(m), abs(k))
    if jmin < j0:
        raise DomainError(f"jmin={jmin} below max(|m|,|k|)={j0}")
    if jmax < jmin:
        raise DomainError("jmax < jmin")
    cz = _cosine_block("z", jmax + 1, k, m, 0).diagonals
    same, up = cz[0][jmin:-1], cz[-1][jmin:]  # <j|cos b|j>, <j+1|cos b|j>
    below = cz[-1][jmin - 1:jmin] if jmin else np.zeros(1)  # <jmin|cos b|jmin-1>
    down = np.concatenate([below, up[:-1]])
    upper = {0: same * same + down * down + up * up}
    if m * k:
        upper[1] = up[:-1] * (same[:-1] + same[1:])
    upper[2] = up[:-2] * up[1:-1]
    return BandedOperator.symmetric(jmin, jmax, upper)


@lru_cache(maxsize=512)
def cos2_band(jmin: int, jmax: int, m: int, k: int) -> BandedOperator:
    """The memoised ``cos2beta_matrix``: the one cos^2 cache, read by the
    alignment and by the exact pulse."""
    return cos2beta_matrix(jmin, jmax, m, k)


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


_COSINE_CAPACITY = 256  # the j rows of a cosine build are a multiple of this


@lru_cache(maxsize=1024)
def _cosine_elements(axis: str, size: int, k: int, m: int,
                     dm: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``<j', m+dm, k| c_axis |j m k>`` for j' = j - 1, j, j + 1 (down, same,
    up) over j = 0 .. size - 1, read-only, from the rank-1 Clebsch-Gordan
    closed forms.  Every element is a closed form in its own j, so a prefix
    has the bits of a build of that length."""
    j = np.arange(size, dtype=float)
    coef = _AXIS_COEF[axis][dm]
    elements = tuple(coef * np.sqrt((2 * j + 1) / (2 * np.maximum(j + dj, 0) + 1))
                     * _cg_rank1(j, k, 0, dj) * _cg_rank1(j, m, dm, dj)
                     for dj in (-1, 0, 1))
    for arr in elements:
        arr.flags.writeable = False
    return elements


@lru_cache(maxsize=1024)
def _cosine_block(axis: str, jmax: int, k: int, m: int, dm: int) -> BandedOperator:
    """``<j', m+dm, k| c_axis |j m k>`` over j, j' = 0..jmax (offsets
    j - j' = -1, 0, +1): a slice of the build over jmax + 1 rows rounded up
    to a multiple of _COSINE_CAPACITY, which every such jmax shares."""
    size = -(-(jmax + 1) // _COSINE_CAPACITY) * _COSINE_CAPACITY
    down, same, up = _cosine_elements(axis, size, k, m, dm)
    return BandedOperator(0, jmax, {0: same[:jmax + 1], 1: down[1:jmax + 1], -1: up[:jmax]})


class DirectionCosineOperator:
    """One component of the body-axis direction cosine at fixed k.

    Selection rules dj in {0, +-1}, dk = 0, dm = 0 (z) or +-1 (x, y).  Acts on
    a sector mapping m -> amplitude vector over j = 0..jmax (entries below
    max(|m|, |k|) must be zero); each (m, dm) pair is one tridiagonal block.
    """

    def __init__(self, axis: str, jmax: int, k: int):
        if axis not in ("x", "y", "z"):
            raise DomainError(f"axis must be x, y or z, got {axis!r}")
        self.axis = axis
        self.jmax = jmax
        self.k = k

    def apply(self, sectors: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Apply the operator to {m: amplitudes over j=0..jmax}."""
        out: dict[int, np.ndarray] = {}
        for m, vec in sectors.items():
            for dm in _AXIS_COEF[self.axis]:
                contrib = _cosine_block(self.axis, self.jmax, self.k, m, dm).apply(vec)
                tgt = m + dm
                out[tgt] = out[tgt] + contrib if tgt in out else contrib
        return out


def cosine_xy_difference(sectors: dict[int, np.ndarray], jmax: int, k: int) -> float:
    """<c_x^2 - c_y^2> of {m: amplitudes over j = 0..jmax} at fixed k.

    With B the dm = +1 part of c_x without its coefficient, c_x =
    (-B + B')/sqrt(2) and c_y = i (B + B')/sqrt(2), where Hermiticity makes
    the dm = -1 part B' = -B^dagger; so c_x^2 - c_y^2 = B^2 + B'^2 and the
    difference is 2 Re <B^2>.  The c_x block is X = -B/sqrt(2), which gives
    4 Re sum_m <psi_{m+2}| X(m+1) X(m) |psi_m>: only sectors m and m+2 that
    both exist contribute.  The blocks truncated at jmax obey the same
    algebra, so this is also |c_x psi|^2 - |c_y psi|^2 with truncated products.
    """
    total = 0.0
    for m, vec in sectors.items():
        top = sectors.get(m + 2)
        if top is not None:
            raised = _cosine_block("x", jmax, k, m + 1, 1).apply(
                _cosine_block("x", jmax, k, m, 1).apply(vec))
            total += 4.0 * float(np.real(np.vdot(top, raised)))
    return total


# ---------------------------------------------------------------------------
# beta-grid transforms
# ---------------------------------------------------------------------------

def synthesize_beta(coeffs: np.ndarray, m: int, k: int, grid: AngularGrid):
    """Polar-angle wavefunction of a (m, k) sector.

    ``coeffs`` are amplitudes over j = max(|m|,|k|) .. jmax (jmax inferred from
    the length).  Returns ``(psi, prob)`` on the grid nodes with
    ``psi(b) = sum_j c_j sqrt(j+1/2) d^j_{mk}(b)`` and
    ``prob(b) = sin(b) |psi(b)|^2`` normalized so that int prob db = 1 for a
    normalized sector.
    """
    coeffs = np.asarray(coeffs)
    j0 = max(abs(m), abs(k))
    jmax = j0 + coeffs.size - 1
    if grid.order < 2 * jmax:
        raise ResolutionError(
            f"grid order {grid.order} cannot resolve j up to {jmax} (need >= {2 * jmax})")
    scaled = coeffs * np.sqrt(np.arange(j0, jmax + 1) + 0.5)
    re, im = np.stack([scaled.real, scaled.imag]) @ wigner_d_table(m, k, grid.nodes, jmax)
    psi = re + 1j * im
    prob = np.sin(grid.nodes) * np.abs(psi) ** 2
    return psi, prob


def _project_general(psi: np.ndarray, m: int, k: int, jmax: int,
                     grid: AngularGrid) -> np.ndarray:
    """Quadrature projection of psi(beta) onto sqrt(j+1/2) d^j_{mk}."""
    j0 = max(abs(m), abs(k))
    if jmax < j0:
        raise DomainError(f"jmax={jmax} below max(|m|,|k|)={j0}")
    wpsi = grid.weights * psi
    proj = wigner_d_table(m, k, grid.nodes, jmax) @ np.stack([wpsi.real, wpsi.imag], axis=1)
    return np.sqrt(np.arange(j0, jmax + 1) + 0.5) * (proj[:, 0] + 1j * proj[:, 1])


def project_beta(psi: np.ndarray, k0s, jmax: int, grid: AngularGrid) -> list[np.ndarray]:
    """Expand psi(beta) over |j k0 k0>, j = |k0| .. jmax, for each k0 of ``k0s``.

    One recurrence over j serves every |k0| (``_d_blocks``), and each
    block of rows is summed over the nodes as it comes, so no table is held;
    each (k0, j) coefficient is a sum along its own row, with the same bits
    whichever k0 share the pass (d^j_{-k,-k} = d^j_{kk}).  Real psi gives
    real coefficients.  Issues a :class:`TruncationWarning` with the
    captured norm for each k0 whose expansion misses more than 1e-10 of the
    wavefunction's norm.
    """
    ks = sorted({abs(int(k)) for k in k0s})
    if jmax < ks[-1]:
        raise DomainError(f"jmax={jmax} below max |k0|={ks[-1]}")
    wpsi = grid.weights * np.asarray(psi)
    sums = np.empty((jmax - ks[0] + 1, len(ks)), dtype=wpsi.dtype)
    terms = np.empty((min(_D_BLOCK, len(sums)), len(ks), wpsi.size), dtype=wpsi.dtype)
    for first, rows in _d_blocks([(k, k) for k in ks], grid.nodes, jmax):
        block = np.multiply(rows, wpsi, out=terms[:len(rows)])
        sums[first - ks[0]:first - ks[0] + len(rows)] = block.sum(axis=-1)
    scale = np.sqrt(np.arange(ks[0], jmax + 1) + 0.5)
    total = float(np.sum(grid.weights * np.abs(psi) ** 2))
    coeffs = {}
    for i, k in enumerate(ks):
        coeffs[k] = scale[k - ks[0]:] * sums[k - ks[0]:, i]
        captured = float(np.sum(np.abs(coeffs[k]) ** 2))
        if total > 0 and captured < total * (1.0 - 1e-10):
            warnings.warn(
                f"projection of k0={k} to jmax={jmax} captured "
                f"{captured / total:.12f} of the norm", TruncationWarning, stacklevel=2)
    return [coeffs[abs(int(k))] for k in k0s]
