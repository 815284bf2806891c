"""Rotor geometry, rotational spectra, state preparation and free propagation.

Time is handled dimensionless throughout: the internal clock is t / T_rev with
T_rev = 2 pi I / hbar, and free evolution multiplies each |jmk> amplitude by
``exp(-i pi eps(j, k) t/T_rev)``.  For a symmetric top
``eps(j, k) = j(j+1) + (I/I_c - 1) k^2``; the asymmetric spectrum takes eps
from the levels of the rigid-rotor Hamiltonian's Wang blocks, each level
solved for every j at once.
Physical seconds appear only at the CLI boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import angular
from .errors import CoverageError, DomainError, LevelAssignmentError, TruncationWarning

__all__ = [
    "InertiaModel",
    "SpectrumModel",
    "RotorState",
    "Mixture",
    "inertia_from_ellipsoid",
    "inertia_from_parameters",
    "rotational_energies",
    "prepare_aligned_state",
    "profile_cap",
    "prepare_mixture",
    "mirror_state",
    "k_cutoff",
    "free_phase",
    "free_propagate",
    "truncation_jmax",
    "estimate_jmax",
    "extend_state",
    "SILICON_DENSITY",
    "SILICON_NANOROD_SEMI_AXES",
]

# SI constants: CODATA 2022, the values scipy gives, bit for bit
HBAR = 1.0545718176461565e-34     # J s, h / 2 pi with h = 6.62607015e-34 exactly
EPSILON_0 = 8.8541878188e-12      # F / m
SPEED_OF_LIGHT = 299792458.0      # m / s
ATOMIC_MASS = 1.66053906892e-27   # kg

# silicon nanorod preset: ellipsoid with principal diameters 5.5 nm x 5.5 nm x 50 nm
SILICON_DENSITY = 2329.0  # kg / m^3
SILICON_NANOROD_SEMI_AXES = (2.75e-9, 2.75e-9, 25.0e-9)  # meters

TAIL_MASS = 1e-10       # cumulative-weight target of the truncation rule
GUARD_BAND = 8          # extra j levels beyond the tail cutoff
# widest weight profile a state may span: its grid (order 2 jmax + 16) and
# Wigner tables would not fit in memory long before this
J_SPAN_LIMIT = 100_000


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False, eq=False)
class InertiaModel:
    """Principal moments of a rigid prolate rotor, I_c about the symmetry axis.

    The one statement of the prolateness rule: finite, positive moments with
    2/I_c - 1/I_a - 1/I_b above 1e-12 of 2/I_c (I/I_c above the mean of I/I_a
    and I/I_b, as the asymmetric solver's certificate needs) and |b| <= 1."""

    mass: float
    i_a: float
    i_b: float
    i_c: float
    t_rev: float

    def __post_init__(self):
        if not all(0.0 < i < math.inf for i in (self.i_a, self.i_b, self.i_c)):
            raise DomainError("the principal moments must be finite and positive")
        if not self._b_denominator > 1e-12 * (2.0 / self.i_c):
            raise DomainError("prolate moments need 2/I_c - 1/I_a - 1/I_b above "
                              "1e-12 of 2/I_c (the symmetry axis the long one)")
        if not abs(self.b_asym) <= 1.0:  # |b| = 1 where I_b = I_c
            raise DomainError(f"prolate moments give |b| <= 1, got b = {self.b_asym}")

    @property
    def _b_denominator(self) -> float:
        return 2.0 / self.i_c - 1.0 / self.i_a - 1.0 / self.i_b

    @property
    def b_asym(self) -> float:
        """The asymmetry b = (1/I_a - 1/I_b) / (2/I_c - 1/I_a - 1/I_b)."""
        return (1.0 / self.i_a - 1.0 / self.i_b) / self._b_denominator

    @property
    def inertia(self) -> float:
        """Mean transverse moment I = (I_a + I_b) / 2."""
        return 0.5 * (self.i_a + self.i_b)

    @property
    def ratio(self) -> float:
        """I / I_c, the prolateness parameter entering the k^2 phase."""
        return self.inertia / self.i_c

    @property
    def mass_amu(self) -> float:
        return self.mass / ATOMIC_MASS


def inertia_from_ellipsoid(semi_axes: tuple[float, float, float], density: float) -> InertiaModel:
    """Uniform-ellipsoid inertia model; ``semi_axes = (a, b, c)`` in meters with
    c the symmetry (long) axis."""
    a, b, c = semi_axes
    if min(a, b, c) <= 0 or density <= 0:
        raise DomainError("semi-axes and density must be positive")
    mass = 4.0 / 3.0 * math.pi * a * b * c * density
    i_about_a = mass * (b * b + c * c) / 5.0
    i_about_b = mass * (a * a + c * c) / 5.0
    i_c = mass * (a * a + b * b) / 5.0
    i_a, i_b = max(i_about_a, i_about_b), min(i_about_a, i_about_b)
    model = InertiaModel(mass=mass, i_a=i_a, i_b=i_b, i_c=i_c,
                         t_rev=2.0 * math.pi * (0.5 * (i_a + i_b)) / HBAR)
    if model.t_rev == math.inf:
        raise DomainError("the revival time 2 pi I / hbar is beyond float range")
    return model


def inertia_from_parameters(ratio: float, b_asym: float,
                            t_rev: float | None = None) -> InertiaModel:
    """Inertia model from the dimensionless pair (I/I_c, b).

    Used for parameter sweeps where no geometry is given.  ``t_rev`` fixes
    physical units; without it, I = 1 kg m^2 is used and only dimensionless
    results are meaningful.
    """
    if ratio <= 1.0:
        raise DomainError(f"prolate rotor needs I/I_c > 1, got {ratio}")
    if not abs(b_asym) <= 1.0:  # |b| = 1 where I_b = I_c
        raise DomainError(f"prolate moments give |b| <= 1, got b = {b_asym}")
    inertia = 1.0 if t_rev is None else t_rev * HBAR / (2.0 * math.pi)
    i_c = inertia / ratio
    # (I_a, I_b) with arithmetic mean I and asymmetry b: u = (1/I_a + 1/I_b)/2 and
    # d = (1/I_b - 1/I_a)/2 = b (1/I_c - u), so I (u^2 - d^2) = u, and u is the
    # non-negative root of I (1 - b^2) u^2 + (2 b^2 r - 1) u - b^2 r^2 / I = 0
    # with r = I/I_c, taken in the form that does not cancel
    b2 = b_asym * b_asym
    try:
        qa, qb, qc = inertia * (1.0 - b2), 2.0 * b2 * ratio - 1.0, -b2 * ratio * ratio / inertia
        root = math.sqrt(qb * qb - 4.0 * qa * qc)
        u = (root - qb) / (2.0 * qa) if qb < 0.0 else -2.0 * qc / (qb + root)
        d = b_asym * (1.0 / i_c - u)
        i_a, i_b = 1.0 / (u - d), 1.0 / (u + d)
    except ZeroDivisionError:  # a moment beyond float range
        raise DomainError("the principal moments must be finite and positive") from None
    if i_a < i_b:
        i_a, i_b = i_b, i_a
    model = InertiaModel(mass=0.0, i_a=i_a, i_b=i_b, i_c=i_c, t_rev=2.0 * math.pi * inertia / HBAR)
    # the model's b carries rounding of about eps / (r - 1) from 1/I_a - 1/I_b
    if abs(abs(model.b_asym) - abs(b_asym)) > 1e-10 * abs(b_asym) + 1e-14 / (ratio - 1.0):
        raise DomainError("asymmetry parameter reconstruction failed")
    return model


# ---------------------------------------------------------------------------
# rotational spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False, eq=False)
class SpectrumModel:
    """Dimensionless phase coefficients eps(j, k) for free propagation.

    ``phase_coeffs[j, |k|]`` multiplies -i pi t/T_rev in the propagator; its
    shape, (jmax + 1, kmax + 1), is the extent the spectrum covers.
    ``dominant_weight[j, |k|]`` records, for the asymmetric method, the weight
    of the labeling |k| component in the corresponding eigenvector (symmetric
    method: 1 everywhere).  ``widened_j`` counts the j values whose asymmetric
    levels needed more than the first cut of their Wang blocks.
    """

    phase_coeffs: np.ndarray
    dominant_weight: np.ndarray
    widened_j: int = 0


def rotational_energies(jmax: int, kmax: int, model: InertiaModel,
                        method: str = "symmetric") -> SpectrumModel:
    """Phase-coefficient table eps(j, k) for j <= jmax, |k| <= kmax.

    symmetric: closed form j(j+1) + (I/I_c - 1) k^2.
    asymmetric: the rigid-rotor Hamiltonian in the symmetric-top k basis
    (diagonal from (1/I_a + 1/I_b)/2, Delta k = +-2 couplings proportional to
    (1/I_a - 1/I_b)/4 with the standard ladder factors) splits into four
    tridiagonal Wang blocks per j.  Eigenvalues are attributed to |k| labels
    by their order inside each block, and the Wang-doublet mean is returned
    for |k| > 0.  Order-based labels connect adiabatically to the symmetric
    limit even where the eigenvectors are strongly k-mixed;
    ``dominant_weight`` records the mixing so callers can decide how far to
    trust the labels.  Each level is solved for every j at once on a cut of
    its block (``_block_levels``).  One sweep of LDL^T pivots a little below
    the root decides whether the cut holds: it runs from the cut down the
    block until the count passes the level's index, the block ends, or an
    O(1) test proves that no later pivot is negative.  That test needs the
    diagonal to rise with k, which ``InertiaModel``'s prolateness rule gives.
    """
    if kmax > jmax:
        raise DomainError("kmax must not exceed jmax")
    ratio = model.ratio
    coeffs = np.zeros((jmax + 1, kmax + 1))
    weights = np.ones((jmax + 1, kmax + 1))
    js = np.arange(jmax + 1)
    for k in range(kmax + 1):
        coeffs[:, k] = js * (js + 1.0) + (ratio - 1.0) * k * k
    if method == "symmetric":
        return SpectrumModel(coeffs, weights)
    if method != "asymmetric":
        raise DomainError(f"unknown spectrum method {method!r}")

    # dimensionless Hamiltonian 2 I H / hbar^2 built directly in eps units
    inertia = model.inertia
    half_is = 0.5 * inertia * (1.0 / model.i_a + 1.0 / model.i_b)
    quarter_id = 0.25 * inertia * (1.0 / model.i_a - 1.0 / model.i_b)
    levels: dict[int, list[np.ndarray]] = {}
    widened = np.zeros(jmax + 1, dtype=bool)
    for start, sign in ((0, 0), (2, 0), (1, +1), (1, -1)):
        block = _WangBlock(start, sign, half_is, ratio, quarter_id)
        # the idx-th level of the block carries the label k = start + 2 idx
        for k_label in range(start, kmax + 1, 2):
            vals, w, grown = _block_levels(block, (k_label - start) // 2,
                                           np.arange(k_label, jmax + 1))
            levels.setdefault(k_label, []).append(vals)
            weights[k_label:, k_label] = np.minimum(weights[k_label:, k_label], w)
            widened[k_label:] |= grown
    for k, vals in levels.items():
        coeffs[k:, k] = np.mean(vals, axis=0)
    bad = np.argwhere(~np.isfinite(coeffs))
    if bad.size:
        raise LevelAssignmentError(f"no level attributed to (j={bad[0][0]}, k={bad[0][1]})")
    return SpectrumModel(coeffs, weights, int(widened.sum()))


# ---------------------------------------------------------------------------
# asymmetric levels: Sturm-Newton on a certified cut of each Wang block
# ---------------------------------------------------------------------------
#
# The idx-th level of a Wang block (idx = 0 the lowest) is found for every j
# at once.  The block is first cut to its leading c = idx + SPECTRUM_CUT rows:
# Sturm counts (the number of negative LDL^T pivots, Barth, Martin &
# Wilkinson, Numer. Math. 9, 386 (1967)) isolate the root, and Newton on the
# twisted pivot gamma_idx(lambda) polishes it, with bisection whenever a step
# leaves the bracket.  By Cauchy interlacing the cut's root lies at or above
# the block's, so the cut is right if the whole block has exactly idx levels
# just below it, at x = root - CERTIFY_ULPS ulps.  One sweep of the pivots
# q_i at x decides that: it runs on from the cut, _ROWS_PER_PASS rows at a
# time, and settles a j when its count passes idx (no later row lowers it),
# when its block ends, or when, after rows 0..i-1, with e_i = sqrt(c2_i),
#   (o) the count is idx,
#   (i) q_{i-1} > e_i, and
#   (ii) d_l - x > e_l + e_{l+1} on every row l >= i,
# since then, by induction, q_l = d_l - x - e_l^2 / q_{l-1} > e_{l+1} >= 0
# down the rest of the block (Sylvester's law of inertia).  Condition (ii) is
# checked on row i alone, with a margin of 1e-12 |x| for rounding: that
# suffices when d_l - e_l - e_{l+1} rises with the row, which holds when the
# k^2 coefficient of the diagonal, ratio - half_is, is positive (1/I_c above
# the mean of 1/I_a and 1/I_b, as InertiaModel requires) and i >= 2 (both
# factors of c2 fall with k from k = 2 on, and rows 0 and 1 carry the Wang
# terms).  The j values whose cut fails are solved again on twice the cut,
# until their block is complete.  The weight of row idx in the eigenvector is
# the residue 1/|gamma_idx'| at the root (the fact behind Golub-Welsch
# quadrature weights, Math. Comp. 23, 221 (1969)).

SPECTRUM_CUT = 16       # rows past the labelling row in a block's first cut
CERTIFY_ULPS = 64       # a cut is certified this many ulps below its root
_SECTIONS = 15          # Sturm counts per bracketing step
_NEWTON_STEPS = 40      # Newton iterations before pure bisection takes over
_ROWS_PER_PASS = 64     # block rows a sweep past a cut builds at once
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, repr=False, eq=False)
class _WangBlock:
    """One Wang symmetry block at any j: rows k = start, start + 2, ..., <= j.

    The odd blocks (start 1) differ by the sign of the <j 1|H|j -1> term on
    their first row; the first coupling of the start-0 block carries sqrt(2).
    """

    start: int
    sign: int
    half_is: float
    ratio: float
    quarter_id: float

    def rows(self, j: np.ndarray, first: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows first..stop-1 (axis 0) of each j's block (axis 1): the
        diagonal and the squared coupling to the row before (0 on row 0).
        Rows past the end of a block read d = inf and 0, so no level is
        ever counted there."""
        k = self.start + 2.0 * np.arange(first, stop)[:, None]
        jj = j * (j + 1.0)
        d = self.half_is * (jj - k * k) + self.ratio * k * k
        c2 = self.quarter_id ** 2 * (jj - (k - 2.0) * (k - 1.0)) * (jj - (k - 1.0) * k)
        if first == 0:
            d[0] += self.sign * self.quarter_id * jj
            c2[0] = 0.0
            if self.start == 0 and stop > 1:
                c2[1] *= 2.0
        inside = k <= j
        return np.where(inside, d, np.inf), np.where(inside, c2, 0.0)

    def pivmin(self, jmax: float) -> float:
        """Smallest pivot magnitude, as in LAPACK's dstebz: the underflow
        threshold times the largest squared coupling (the first one)."""
        return _TINY * max(1.0, 2.0 * (self.quarter_id * jmax * (jmax + 1.0)) ** 2)


def _pivots(d, c2, x, pivmin, q=1.0, slope=False):
    """LDL^T pivots of T - x down the rows of (d, c2), continuing from the
    pivot q of the row before: the last pivot, its x-derivative (when
    ``slope``) and the number of negative pivots, the levels below x."""
    dq, count = 0.0, 0
    for d_i, c2_i in zip(d, c2):
        t = c2_i / q
        if slope:
            dq = -1.0 + t * (dq / q)
        q = d_i - x - t
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        count = count + (q < 0)
    return q, dq, count


def _twisted(d, c2, r, x, pivmin):
    """gamma_r(x), the pivot at row r of the factorization twisted there (top
    down to row r - 1, bottom up to row r + 1), its x-derivative and the
    number of levels below x."""
    g, dg, count = d[r] - x, -1.0, 0
    if r > 0:
        q, dq, count = _pivots(d[:r], c2[:r], x, pivmin, slope=True)
        t = c2[r] / q
        g, dg = g - t, dg + t * (dq / q)
    if r + 1 < len(d):
        q, dq, n = _pivots(d[:r:-1], [0.0, *c2[:r + 1:-1]], x, pivmin, slope=True)
        t = c2[r + 1] / q
        g, dg, count = g - t, dg + t * (dq / q), count + n
    # a pivot below pivmin counts as negative, as in _pivots
    return g, dg, count + (g < pivmin)


def _cut_levels(d, c2, r: int, pivmin: float):
    """Level r of each block cut to the rows (d, c2) (axis 0; one block per
    column), and the residue weight of row r in its eigenvector."""
    nj = d.shape[1]
    # Gershgorin bracket: no level of the cut below lo, all of them below hi
    e = np.sqrt(c2)
    radius = e.copy()
    radius[:-1] += e[1:]
    inside = np.isfinite(d)
    lo = np.where(inside, d - radius, np.inf).min(axis=0)
    hi = np.where(inside, d + radius, -np.inf).max(axis=0)
    pad = 1e-3 * (hi - lo) + 1.0
    lo, hi = lo - pad, hi + pad
    n_lo, n_hi = np.zeros(nj, dtype=int), inside.sum(axis=0)

    # multisection until each bracket holds level r alone, or is a few ulps wide
    frac = np.arange(1, _SECTIONS + 1)[:, None] / (_SECTIONS + 1)
    todo = np.flatnonzero((n_lo != r) | (n_hi != r + 1))
    while todo.size:
        x = lo[todo] + (hi[todo] - lo[todo]) * frac
        n = _pivots(d[:, todo], c2[:, todo], x, pivmin)[2]
        above = n > r
        first = np.where(above.any(axis=0), above.argmax(axis=0), _SECTIONS)
        cols = np.arange(todo.size)
        raise_lo, drop_hi = first > 0, first < _SECTIONS
        below, over = np.maximum(first - 1, 0), np.minimum(first, _SECTIONS - 1)
        lo[todo] = np.where(raise_lo, x[below, cols], lo[todo])
        n_lo[todo] = np.where(raise_lo, n[below, cols], n_lo[todo])
        hi[todo] = np.where(drop_hi, x[over, cols], hi[todo])
        n_hi[todo] = np.where(drop_hi, n[over, cols], n_hi[todo])
        wide = hi[todo] - lo[todo] > 4 * _EPS * np.maximum(np.abs(lo[todo]), np.abs(hi[todo]))
        todo = todo[((n_lo[todo] != r) | (n_hi[todo] != r + 1)) & wide]

    # Newton on gamma_r, bisection whenever a step leaves the bracket
    x = 0.5 * (lo + hi)
    weight = np.empty(nj)
    todo = np.arange(nj)
    for step in range(_NEWTON_STEPS + 64):
        if not todo.size:
            break
        xt = x[todo]
        with np.errstate(over="ignore"):  # see the non-finite slope below
            g, dg, n = _twisted(d[:, todo], c2[:, todo], r, xt, pivmin)
        lo[todo] = np.where(n <= r, xt, lo[todo])
        hi[todo] = np.where(n <= r, hi[todo], xt)
        weight[todo] = 1.0 / np.abs(dg)
        mid = 0.5 * (lo[todo] + hi[todo])
        xn = xt - g / dg if step < _NEWTON_STEPS else mid
        # the slope overflows where levels nearly coincide: no Newton step
        xn = np.where((xn >= lo[todo]) & (xn <= hi[todo]) & np.isfinite(dg), xn, mid)
        tol = 2 * _EPS * np.maximum(np.abs(xn), 1.0)
        done = (np.abs(xn - xt) <= tol) | (hi[todo] - lo[todo] <= 2 * tol)
        x[todo] = xn
        todo = todo[~done]
    x[todo] = np.nan
    return x, weight


def _certificate_holds(r: int, row: int, q, count, d, c2, x):
    """Whether each block provably has exactly r levels below x: q and count
    are the last pivot and the negative pivots of rows 0..row-1, and (d, c2)
    hold rows row and row + 1.  A False is no verdict."""
    if row < 2:
        return np.zeros(x.size, dtype=bool)
    e = np.sqrt(c2)
    return (count == r) & (q > e[0]) & (d[0] - x - e[0] - e[1] > 1e-12 * np.abs(x))


def _cut_holds(block: _WangBlock, r: int, j: np.ndarray, x: np.ndarray, d, c2,
               pivmin: float) -> np.ndarray:
    """Whether each block has exactly r levels below x: (d, c2) hold a cut's
    rows and the two after it, one block per column (j ascending).  Only the
    rows of unsettled j are built past the cut, a pass at a time (see the
    comment above SPECTRUM_CUT)."""
    holds = np.zeros(j.size, dtype=bool)
    todo, q, count, row = np.arange(j.size), 1.0, 0, len(d) - 2
    while True:
        xt = x[todo]
        q, _, n = _pivots(d[:-2], c2[:-2], xt, pivmin, q)
        count = count + n
        sure = _certificate_holds(r, row, q, count, d[-2:], c2[-2:], xt)
        ended = block.start + 2 * row > j[todo]
        holds[todo] = sure | (ended & (count == r))
        more = ~(sure | ended) & (count <= r)
        todo, q, count = todo[more], q[more], count[more]
        if not todo.size:
            return holds
        d, c2 = block.rows(j[todo], row, row + _ROWS_PER_PASS + 2)
        row += _ROWS_PER_PASS


def _block_levels(block: _WangBlock, r: int, j: np.ndarray):
    """Level r (0 the lowest) of the block at each j in ``j`` (ascending, all
    with at least r + 1 rows), its residue weight, and which j needed more
    than the first cut."""
    vals, weight = np.empty(j.size), np.empty(j.size)
    nrows = (j - block.start) // 2 + 1
    widened = np.zeros(j.size, dtype=bool)
    todo, cut = np.arange(j.size), r + SPECTRUM_CUT
    while todo.size:
        jt = j[todo].astype(float)
        c = min(cut, int(nrows[todo[-1]]))
        d, c2 = block.rows(jt, 0, c + 2)
        pivmin = block.pivmin(jt[-1])
        vals[todo], weight[todo] = _cut_levels(d[:c], c2[:c], r, pivmin)
        # a complete block is exact; a cut one must have exactly r levels of
        # the whole block just below its root, which the sweep from the cut
        # decides (at the cut itself, for most j)
        partial = nrows[todo] > cut
        todo, jt = todo[partial], jt[partial]
        if todo.size:
            x = vals[todo] - CERTIFY_ULPS * np.spacing(np.abs(vals[todo]))
            todo = todo[~_cut_holds(block, r, jt, x, d[:, partial], c2[:, partial], pivmin)]
        widened[todo] = True
        cut *= 2
    return vals, weight, widened


# ---------------------------------------------------------------------------
# rotor states
# ---------------------------------------------------------------------------

@dataclass(repr=False, eq=False)
class RotorState:
    """One pure rotor component: fixed k0, amplitudes over (m, j).

    ``sectors[m]`` is a complex amplitude vector over j = 0..jmax (entries
    below max(|m|, |k0|) are zero); together the sectors, at least one, form
    a normalized pure state, and ``jmax`` is read from their length.
    ``time`` is t / T_rev.  Values are treated as immutable; operations
    return copies.
    """

    k0: int
    sectors: dict[int, np.ndarray]
    time: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    @property
    def jmax(self) -> int:
        return len(next(iter(self.sectors.values()))) - 1

    def copy(self) -> "RotorState":
        return replace(self, sectors={m: vec.copy() for m, vec in self.sectors.items()},
                       diagnostics=dict(self.diagnostics))

    def norm(self) -> float:
        return math.sqrt(sum(float(np.sum(np.abs(v) ** 2)) for v in self.sectors.values()))


@dataclass(frozen=True, repr=False, eq=False)
class Mixture:
    """Classical mixture over k0 of pure components, in ascending k0.

    The only type that carries the k0 weights.  Kernels act on one component;
    ``mean`` is the one place a mixture's expectation value is formed: the
    weighted sum of per-component results, accumulated from zero in component
    order.
    """

    components: tuple[RotorState, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        # kernels key their per-component work by k0
        k0s = [c.k0 for c in self.components]
        if any(a >= b for a, b in zip(k0s, k0s[1:])):
            raise DomainError(f"mixture k0 must be strictly ascending, got {k0s}")
        if len(self.weights) != len(self.components):
            raise DomainError("a mixture needs one weight per component")

    @classmethod
    def pure(cls, state: RotorState) -> "Mixture":
        return cls((state,), (1.0,))

    @property
    def jmax(self) -> int:
        return max(c.jmax for c in self.components)

    @property
    def kmax(self) -> int:
        """The largest |k0| of the components."""
        return max(abs(c.k0) for c in self.components)

    def map(self, fn) -> "Mixture":
        """The mixture of ``fn`` applied to each component, weights unchanged."""
        return Mixture(tuple(fn(c) for c in self.components), self.weights)

    def mean(self, fn):
        """Weighted sum of ``fn`` over the components (floats or arrays)."""
        total = 0.0
        for w, c in zip(self.weights, self.components):
            total += w * fn(c)
        return total


def truncation_jmax(weights: np.ndarray, j_offset: int = 0) -> int:
    """Smallest j with cumulative weight >= 1 - 1e-10, plus a guard band."""
    w = np.asarray(weights, dtype=float)
    total = float(np.sum(w))
    if total <= 0:
        raise DomainError("weights must have positive total")
    cum = np.cumsum(w) / total
    jcut = int(np.searchsorted(cum, 1.0 - TAIL_MASS)) + j_offset
    return jcut + GUARD_BAND


def _profile_js(j0: int, span: int) -> np.ndarray:
    if span > J_SPAN_LIMIT:
        raise DomainError(f"the weight profile spans more than {J_SPAN_LIMIT} j levels")
    return np.arange(j0, j0 + span)


def estimate_jmax(mode: str, param: float, k0: int = 0) -> int:
    """Truncation-rule jmax from the analytic weight profiles (no projection)."""
    j0 = abs(k0)
    if mode == "gaussian_j":
        sigma_sq = param
        js = _profile_js(j0, int(8 * math.sqrt(sigma_sq)) + 64)
        w = np.exp(-js.astype(float) ** 2 / sigma_sq)
    elif mode == "gaussian_beta":
        # the small-angle weight profile; beyond sigma ~ 0.6 the state is
        # essentially isotropic and its j-content is bounded by that profile
        sigma = min(param, 0.6)
        js = _profile_js(j0, int(6.0 / sigma) + 64)
        w = (js + 0.5) * np.exp(-2.0 * (js + 0.5) ** 2 * sigma * sigma)
    else:
        raise DomainError(f"unknown state mode {mode!r}")
    return truncation_jmax(w, j_offset=j0)


def profile_cap(sigma: float) -> float:
    """Polar angle beyond which the gaussian_beta profile is exactly 0.0:
    exp(-sin^2(b) / 4 sigma^2) underflows past sin(b) = 2 sigma sqrt(746)
    (exp(-x) is 0.0 for x > 745.14), and the single-pole branch ends at pi/2."""
    sin_cap = 2.0 * sigma * math.sqrt(746.0)
    return math.asin(sin_cap) if sin_cap < 1.0 else math.pi / 2.0


def _rule_jmax(mode: str, param: float, ks, jmax: int | None) -> int:
    """The truncation rule's jmax over the |k0| of ``ks``, or the given jmax,
    with a truncation warning where that falls below the rule."""
    rule = max(estimate_jmax(mode, param, k) for k in ks)
    if jmax is None:
        return rule
    if jmax < rule:
        warnings.warn(
            f"jmax={jmax} below the truncation rule ({rule}); tail mass lost",
            TruncationWarning, stacklevel=3)
    return jmax


def _state(k0: int, amps: np.ndarray, jmax: int) -> RotorState:
    """The component with sector m = k0 holding ``amps`` (over j = |k0|..jmax),
    normalised."""
    full = np.zeros(jmax + 1, dtype=complex)
    full[abs(k0):] = amps / np.linalg.norm(amps)
    return RotorState(k0=k0, sectors={k0: full})


def _gaussian_beta_states(sigma: float, ks, jmax: int) -> list[RotorState]:
    """The gaussian_beta states at k0 = k for each k >= 0 of ``ks``: one
    capped grid, one normalised profile and one projection for them all."""
    if sigma <= 0:
        raise DomainError("sigma_beta must be positive")
    grid = angular.AngularGrid.for_jmax(jmax, profile_cap(sigma))
    psi = np.exp(-np.sin(grid.nodes) ** 2 / (4.0 * sigma * sigma))
    psi = psi / math.sqrt(float(np.sum(grid.weights * psi ** 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rows = angular.project_beta(psi, ks, jmax, grid)
    # normalised as the complex amplitudes they become: np.linalg.norm of a
    # complex vector sums its real and imaginary parts apart
    return [_state(k, amps.astype(complex), jmax) for k, amps in zip(ks, rows)]


def prepare_aligned_state(mode: str, param: float, k0: int = 0,
                          jmax: int | None = None) -> RotorState:
    """Aligned initial state with m = k = k0.

    gaussian_j: amplitudes c_j proportional to exp(-j^2 / (2 sigma_sq)), j
    weights exp(-j^2 / sigma_sq); param is sigma_sq.
    gaussian_beta: trap ground-state polar profile exp(-sin^2(beta) / 4 sigma^2)
    projected onto |j k0 k0>; param is sigma (radians).  The raw profile has a
    mirrored lobe at the far pole, but the released particle occupies a single
    pole, so the profile is restricted to beta <= pi/2 (for inversion-even
    observables an incoherent pole mixture gives identical results; a coherent
    two-pole superposition is not what the trap prepares).  The profile is
    built and projected on the nodes of the order-(2 jmax + 16) rule up to
    ``profile_cap(param)`` only; beyond it every node would hold 0.0.  It is
    the one-component case of ``prepare_mixture``'s preparation, and a k0 < 0
    state is the mirror of the |k0| one.  jmax defaults to the truncation
    rule; passing a smaller jmax issues a truncation warning.
    """
    jmax = _rule_jmax(mode, param, [k0], jmax)
    if mode == "gaussian_j":
        js = np.arange(abs(k0), jmax + 1, dtype=float)
        return _state(k0, np.exp(-js ** 2 / (2.0 * param)).astype(complex), jmax)
    [state] = _gaussian_beta_states(param, [abs(k0)], jmax)
    return mirror_state(state) if k0 < 0 else state


def k_cutoff(sigma_k: float) -> int:
    """Largest |k0| kept in a mixture of width sigma_k: four widths, rounded up."""
    return math.ceil(4.0 * sigma_k)


def mirror_state(state: RotorState) -> RotorState:
    """The component with k0 and every m negated.  Since
    d^j_{-m,-k} = (-1)^(m-k) d^j_{mk}, the amplitudes of sector m move to -m
    times (-1)^(m - k0).  The mirror has arrays of its own."""
    return replace(state, k0=-state.k0,
                   sectors={-m: vec.copy() if (m - state.k0) % 2 == 0 else -vec
                            for m, vec in state.sectors.items()},
                   diagnostics=dict(state.diagnostics))


def prepare_mixture(sigma_beta: float, sigma_k: float,
                    jmax: int | None = None) -> Mixture:
    """Classical mixture over integer k0 with Gaussian weights of width sigma_k.

    Components are gaussian_beta aligned states in ascending k0; the k0 grid
    is truncated at |k0| <= k_cutoff(sigma_k) and the weights renormalized.
    sigma_k = 0 gives the k0 = 0 state with weight 1.  Every |k0| is prepared
    at once, from one recurrence over j (``angular.project_beta``), each with
    the bits it has when prepared alone.  The -k0 state is the mirror of the
    k0 one, whose only sector m = k0 moves to -k0 unchanged
    (d^j_{-k,-k} = d^j_{kk}, bit for bit in the recurrence), so it equals a
    state prepared at -k0 bit for bit.
    """
    if sigma_k < 0:
        raise DomainError("sigma_k must be >= 0")
    if sigma_k == 0:
        return Mixture.pure(prepare_aligned_state("gaussian_beta", sigma_beta, jmax=jmax))
    kcut = k_cutoff(sigma_k)
    k0s = np.arange(-kcut, kcut + 1)
    w = np.exp(-k0s.astype(float) ** 2 / (2.0 * sigma_k ** 2))
    w /= w.sum()
    ks = range(kcut + 1)
    states = _gaussian_beta_states(sigma_beta, ks, _rule_jmax("gaussian_beta", sigma_beta,
                                                              ks, jmax))
    return Mixture(
        tuple(states[k0] if k0 >= 0 else mirror_state(states[-k0]) for k0 in map(int, k0s)),
        tuple(float(wk) for wk in w))


def free_phase(spectrum: SpectrumModel, k: int, jmax: int, dt: float) -> np.ndarray:
    """The spectral phases exp(-i pi mod(eps_j dt, 2)), j <= jmax, of a
    component at |k0| = k over dt = t/T_rev (read-only)."""
    rows, cols = spectrum.phase_coeffs.shape
    if rows <= jmax or cols <= k:
        raise CoverageError(
            f"spectrum (jmax={rows - 1}, kmax={cols - 1}) does not cover "
            f"state (jmax={jmax}, |k0|={k})")
    eps = spectrum.phase_coeffs[: jmax + 1, k]
    ph = np.exp(-1j * math.pi * np.mod(eps * dt, 2.0))
    ph.flags.writeable = False
    return ph


def free_propagate(state: RotorState, dt: float, spectrum: SpectrumModel,
                   phase: np.ndarray | None = None) -> RotorState:
    """Multiply every amplitude by its spectral phase over dt = t/T_rev.
    ``phase`` is ``free_phase(spectrum, |k0|, jmax, dt)`` where the caller
    holds it already."""
    if phase is None:
        phase = free_phase(spectrum, abs(state.k0), state.jmax, dt)
    return RotorState(k0=state.k0, sectors={m: vec * phase for m, vec in state.sectors.items()},
                      time=state.time + dt, diagnostics=dict(state.diagnostics))


def extend_state(state: RotorState, new_jmax: int) -> RotorState:
    """Zero-pad every sector up to new_jmax (headroom for pulses and jumps)."""
    if new_jmax < state.jmax:
        raise DomainError("cannot shrink a state")
    return replace(state, sectors={m: np.pad(vec, (0, new_jmax - state.jmax))
                                   for m, vec in state.sectors.items()},
                   diagnostics=dict(state.diagnostics))
