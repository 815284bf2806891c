"""Independent slow oracles used to freeze expected values in the tests.

Nothing here shares code with the library paths it checks: the Wigner
d-oracle is the explicit finite sum evaluated in extended precision, the
Clebsch-Gordan oracles are the closed Racah sum, sympy's exact coefficients
and a brute-force two-spin diagonalization, operator elements come from
Racah-sum products or direct quadrature, and the Lindblad oracle integrates
the master equation densely with operators built from the Racah sums, and
the asymmetric-rotor levels come from LAPACK per j and Wang block, from a
dense diagonalization over the whole k space, and from Sturm bisection in
mpmath, and the semiclassical pulse's Bessel functions come from scipy's
``jv``, one call per order.

Reference code that only the tests call lives here too: the readers of the
library's operator elements, which apply an operator to unit states, so the
tests check the ``apply`` that every run takes; the float-view quadratic
form of the library's ``cos2_expectation`` over any real symmetric band; the asymptotic d-function
and the ``SingularityError`` it raises at the poles, the fractional-revival
resummation, the scalar Wigner-d recurrence (it starts from the library's
``_d_start``, steps with the factor ``_recurrence_r`` defined here, and is
checked against the sum), the row-by-row Wigner-d table the library built
before its blocked recurrence (it starts from the library's ``_d_first`` and
is the bit-for-bit reference of ``wigner_d_table``), state overlaps, the quantum-jump path the library ran before (a
generator per trajectory that picks each jump's channel as the jump happens,
all three channels applied to keep one, each trajectory run on its own from
t = 0) and an ensemble of such runs, the event loop without its per-pass
phase memo (each free flight computes its own phase vector), the exact pulse
twice over: the polar-angle grid path the library used before (synthesize,
multiply, project back) and a dense eigendecomposition of the cos^2 band;
the time grid built one refinement window at a time with
``np.linspace``; the Gauss-Legendre routine that iterated every node on
the three-term recurrence and finished with numpy's ``legval`` (the
reference of the library's routine); and the asymmetric block solver that
decides every partial cut with a streamed Sturm count of the whole block
from row 0 (the count the library ran before its cut's pivots went on down
the block).
"""

import math
from dataclasses import replace
from functools import lru_cache

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import legder, legval
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csr_array
from scipy.special import jv

from nanorotor import angular, decoherence, observables, pulse, rotor
from nanorotor.angular import _d_first, _d_start
from nanorotor.config import EIGHTH, TIME_DECIMALS
from nanorotor.errors import (DomainError, LevelAssignmentError, ResolutionError,
                              TruncationError)
from nanorotor.rotor import SpectrumModel


class SingularityError(DomainError):
    """Evaluation requested at a removable or genuine singularity."""


def wigner_d_sum(j: int, m: int, k: int, beta: float, dps: int | None = None) -> float:
    """Explicit Wigner sum formula in extended precision.

    The alternating terms reach ~4^j before cancelling, so working precision
    must grow linearly with j.  Each term is the one before times a ratio of
    integers and tan^2(beta/2); only the first term takes factorials.
    """
    if dps is None:
        dps = 60 + int(0.7 * j)
    f = mp.factorial
    with mp.workdps(dps):
        b = mp.mpf(beta)
        c, s = mp.cos(b / 2), mp.sin(b / 2)
        t0, t1 = max(0, m - k), min(j + m, j - k)
        term = (mp.sqrt(f(j + m) * f(j - m) * f(j + k) * f(j - k))
                / (f(j + m - t0) * f(j - k - t0) * f(t0) * f(t0 + k - m))
                * c ** (2 * j + m - k - 2 * t0) * s ** (2 * t0 + k - m))
        tan_sq = (s / c) ** 2
        total = mp.mpf(0)
        for t in range(t0, t1 + 1):
            total += -term if t % 2 else term
            term *= mp.mpf((j + m - t) * (j - k - t)) / ((t + 1) * (t + 1 + k - m)) * tan_sq
        return float(total)


def cg_sympy(j1, m1, j2, m2, J, M) -> float:
    from sympy.physics.quantum.cg import CG
    return float(CG(j1, m1, j2, m2, J, M).doit())


def cg_two_spin_brute(j1: int, j2: int, J: int, M: int, m1: int) -> float:
    """<j1 m1; j2 M-m1 | J M> from diagonalizing the total J^2 on the product basis.

    Signs fixed to the Condon-Shortley convention (highest-m1 component > 0).
    """
    def ladder(j, m, step):
        if abs(m + step) > j:
            return 0.0
        return math.sqrt(j * (j + 1) - m * (m + step))

    basis = [(a, b) for a in range(-j1, j1 + 1) for b in range(-j2, j2 + 1)
             if a + b == M]
    n = len(basis)
    j2tot = np.zeros((n, n))
    for col, (a, b) in enumerate(basis):
        # J^2 = J1^2 + J2^2 + 2 J1z J2z + J1+ J2- + J1- J2+
        j2tot[col, col] += j1 * (j1 + 1) + j2 * (j2 + 1) + 2 * a * b
        if (a + 1, b - 1) in basis:
            row = basis.index((a + 1, b - 1))
            j2tot[row, col] += ladder(j1, a, +1) * ladder(j2, b, -1)
        if (a - 1, b + 1) in basis:
            row = basis.index((a - 1, b + 1))
            j2tot[row, col] += ladder(j1, a, -1) * ladder(j2, b, +1)
    vals, vecs = np.linalg.eigh(j2tot)
    target = J * (J + 1)
    idx = int(np.argmin(np.abs(vals - target)))
    assert abs(vals[idx] - target) < 1e-9
    vec = vecs[:, idx]
    top = max(range(n), key=lambda i: basis[i][0])
    if vec[top] < 0:
        vec = -vec
    return float(vec[basis.index((m1, M - m1))])


def to_dense(op: angular.BandedOperator) -> np.ndarray:
    """The full complex matrix of a banded operator, read through ``apply``:
    column c is the operator applied to the unit state at j = jmin + c."""
    return np.column_stack([op.apply(unit) for unit in np.eye(op.size, dtype=complex)])


def banded_element(op: angular.BandedOperator, j1: int, j2: int) -> complex:
    """<j1| A |j2> of a banded operator, read through ``apply`` on |j2>."""
    unit = np.zeros(op.size, dtype=complex)
    unit[j2 - op.jmin] = 1.0
    return complex(op.apply(unit)[j1 - op.jmin])


def float_view_form(op: angular.BandedOperator, vec: np.ndarray) -> float:
    """<vec| A |vec> of a real symmetric band by the library's float-view
    arithmetic (``angular.cos2_expectation``), over every stored offset
    d >= 0 of ``op``: one dot of w_d a_d, each entry repeated twice, with
    x[:-2d] * x[2d:], x the float view of vec, summed from 0.0."""
    x = np.ascontiguousarray(vec, dtype=complex).view(float)
    total = 0.0
    for d, diag in op.diagonals.items():
        if d >= 0:
            doubled = np.repeat(diag * (2.0 if d else 1.0), 2)
            total += doubled.dot(x[:doubled.size] * x[2 * d:])
    return float(total)


def cosine_applied(op: angular.DirectionCosineOperator, jp: int, mp: int,
                   j: int, m: int) -> complex:
    """<j' m' k| c |j m k> of a direction-cosine operator, read through
    ``apply`` on the sector {m: |j>} over j = 0..jmax; 0 where m' is not
    reached."""
    unit = np.zeros(op.jmax + 1, dtype=complex)
    unit[j] = 1.0
    out = op.apply({m: unit})
    return complex(out[mp][jp]) if mp in out else 0.0


def quadrature_element(f, jp: int, j: int, m: int, k: int,
                       grid: angular.AngularGrid) -> float:
    """<j' m k| f(beta) |j m k> by direct quadrature of the d-functions."""
    jmax = max(j, jp)
    tab = angular.wigner_d_table(m, k, grid.nodes, jmax)
    j0 = max(abs(m), abs(k))
    w = math.sqrt((j + 0.5) * (jp + 0.5))
    return w * float(np.sum(grid.weights * tab[jp - j0] * f(grid.nodes) * tab[j - j0]))


# ---------------------------------------------------------------------------
# Clebsch-Gordan coefficients by the Racah sum
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lf(n: int) -> float:
    return math.lgamma(n + 1)


def _cg_args_valid(j1, m1, j2, m2, J, M) -> bool:
    return (M == m1 + m2 and abs(j1 - j2) <= J <= j1 + j2
            and abs(m1) <= j1 and abs(m2) <= j2 and abs(M) <= J)


def _cg_lgamma(j1: int, m1: int, j2: int, m2: int, J: int, M: int) -> float:
    """Racah sum with log-factorial accumulation; relative error grows like an
    ulp of lgamma(2j), roughly 1e-11 at j ~ 2000."""
    pref = 0.5 * (
        math.log(2 * J + 1.0)
        + _lf(j1 + j2 - J) + _lf(j1 - j2 + J) + _lf(-j1 + j2 + J) - _lf(j1 + j2 + J + 1)
        + _lf(J + M) + _lf(J - M)
        + _lf(j1 - m1) + _lf(j1 + m1) + _lf(j2 - m2) + _lf(j2 + m2)
    )
    t_min = max(0, j2 - J - m1, j1 - J + m2)
    t_max = min(j1 + j2 - J, j1 - m1, j2 + m2)
    terms = []
    for t in range(t_min, t_max + 1):
        logden = (
            _lf(t) + _lf(j1 + j2 - J - t) + _lf(j1 - m1 - t)
            + _lf(j2 + m2 - t) + _lf(J - j2 + m1 + t) + _lf(J - j1 - m2 + t)
        )
        val = math.exp(pref - logden)
        terms.append(-val if t % 2 else val)
    return math.fsum(terms)


def _cg_exact_int(j1: int, m1: int, j2: int, m2: int, J: int, M: int) -> float:
    """Racah sum over exact integer factorials; one rounding at the end."""
    f = math.factorial
    pref_num = (2 * J + 1) * f(j1 + j2 - J) * f(j1 - j2 + J) * f(-j1 + j2 + J) \
        * f(J + M) * f(J - M) * f(j1 - m1) * f(j1 + m1) * f(j2 - m2) * f(j2 + m2)
    pref_den = f(j1 + j2 + J + 1)
    t_min = max(0, j2 - J - m1, j1 - J + m2)
    t_max = min(j1 + j2 - J, j1 - m1, j2 + m2)
    dens = [f(t) * f(j1 + j2 - J - t) * f(j1 - m1 - t) * f(j2 + m2 - t)
            * f(J - j2 + m1 + t) * f(J - j1 - m2 + t)
            for t in range(t_min, t_max + 1)]
    s_den = 1
    for d in dens:
        s_den *= d
    s_num = 0
    for i, t in enumerate(range(t_min, t_max + 1)):
        prod = s_den // dens[i]
        s_num += -prod if t % 2 else prod
    if s_num == 0:
        return 0.0
    sign = 1.0 if s_num > 0 else -1.0
    vsq_num = pref_num * s_num * s_num
    vsq_den = pref_den * s_den * s_den
    shift = max(vsq_den.bit_length() - vsq_num.bit_length() + 64, 0)
    q = (vsq_num << shift) // vsq_den
    return sign * math.sqrt(math.ldexp(float(q), -shift))


def clebsch_gordan(j1: int, m1: int, j2: int, m2: int, J: int, M: int) -> float:
    """<j1 m1; j2 m2 | J M> in the Condon-Shortley convention.

    Closed Racah sum with O(1) memory: log-factorial accumulation where that
    is accurate to 1e-12, exact integer factorials beyond.  Triangle or
    projection violations return 0 rather than raising.
    """
    if not _cg_args_valid(j1, m1, j2, m2, J, M):
        return 0.0
    if j1 + j2 + J <= 400:
        return _cg_lgamma(j1, m1, j2, m2, J, M)
    return _cg_exact_int(j1, m1, j2, m2, J, M)


def cos2_element(jp: int, j: int, m: int, k: int) -> float:
    """<j' m k| cos^2 beta |j m k> from two rank-2 Racah-sum coefficients:
    cos^2 = 1/3 + (2/3) * (rank-2, M=K=0 component)."""
    if abs(jp - j) > 2:
        return 0.0
    val = (2.0 / 3.0) * math.sqrt((2 * j + 1.0) / (2 * jp + 1.0)) \
        * clebsch_gordan(j, m, 2, 0, jp, m) * clebsch_gordan(j, k, 2, 0, jp, k)
    return val + (1.0 / 3.0 if jp == j else 0.0)


def cosine_element(axis: str, jp: int, mp: int, j: int, m: int, k: int) -> complex:
    """<j' m' k| c_axis |j m k> from rank-1 Racah-sum coefficients."""
    if abs(m) > j or abs(k) > j or abs(mp) > jp or abs(k) > jp:
        return 0.0
    ck = clebsch_gordan(j, k, 1, 0, jp, k)
    if ck == 0.0:
        return 0.0
    w = math.sqrt((2 * j + 1.0) / (2 * jp + 1.0))
    if axis == "z":
        if mp != m:
            return 0.0
        return w * ck * clebsch_gordan(j, m, 1, 0, jp, m)
    dm = mp - m
    if dm not in (1, -1):
        return 0.0
    cm = clebsch_gordan(j, m, 1, dm, jp, mp)
    if axis == "x":
        coef = -1.0 / math.sqrt(2.0) if dm == 1 else 1.0 / math.sqrt(2.0)
        return coef * w * ck * cm
    return (1j / math.sqrt(2.0)) * w * ck * cm


# ---------------------------------------------------------------------------
# dense Lindblad oracle
# ---------------------------------------------------------------------------

def _dense_basis(jmax: int, k: int) -> list[tuple[int, int]]:
    return [(j, m) for j in range(abs(k), jmax + 1) for m in range(-j, j + 1)]


def dense_cosine_matrices(jmax: int, k: int) -> list[np.ndarray]:
    """Dense c_x, c_y, c_z over the (j, m) basis at fixed k."""
    basis = _dense_basis(jmax, k)
    index = {bm: i for i, bm in enumerate(basis)}
    mats = []
    for axis in ("x", "y", "z"):
        mat = np.zeros((len(basis), len(basis)), dtype=complex)
        for (j, m), col in index.items():
            for mp in ((m,) if axis == "z" else (m + 1, m - 1)):
                for jp in (j - 1, j, j + 1):
                    if abs(k) <= jp <= jmax and abs(mp) <= jp:
                        mat[index[(jp, mp)], col] = cosine_element(axis, jp, mp, j, m, k)
        mats.append(mat)
    return mats


def state_to_dense(state, jmax: int) -> np.ndarray:
    """A pure component as a vector over the dense (j, m) basis at its k0."""
    k0 = state.k0
    basis = _dense_basis(jmax, k0)
    index = {bm: i for i, bm in enumerate(basis)}
    vec = np.zeros(len(basis), dtype=complex)
    for m, amps in state.sectors.items():
        for j in range(max(abs(m), abs(k0)), min(state.jmax, jmax) + 1):
            vec[index[(j, m)]] = amps[j]
    return vec


def lindblad_oracle(initial, spectrum, gamma: float,
                    t_end: float, observation_times,
                    rtol: float = 1e-7, atol: float = 1e-9):
    """Direct master-equation integration at small jmax (dense, the k0 sector
    of the pure initial component).

    d rho / dt = -i [H, rho] + gamma (sum_l c_l rho c_l - rho), integrated
    adaptively in the interaction picture of the diagonal H.  The jump term
    is formed in the Schroedinger picture: with P = e^{iHt} diagonal,
    c_l(t) rho c_l(t) = P (c_l rho_S c_l) P^dagger and rho_S = P^dagger rho P,
    so each evaluation is two elementwise phase products and six products of
    a sparse c_l with a dense matrix.  Returns (alignment series, trace
    series, min sampled eigenvalue).
    """
    k0 = initial.k0
    jmax = initial.jmax
    if jmax > 24:
        raise DomainError("dense oracle limited to jmax <= 24")
    basis = _dense_basis(jmax, k0)
    dim = len(basis)
    eps = np.array([spectrum.phase_coeffs[j, abs(k0)] for j, m in basis])
    cs = [(csr_array(c), csr_array(c.T)) for c in dense_cosine_matrices(jmax, k0)]
    cos2 = np.zeros((dim, dim), dtype=complex)
    index = {bm: i for i, bm in enumerate(basis)}
    for (j, m), col in index.items():
        for jp in range(max(abs(m), abs(k0), j - 2), min(j + 2, jmax) + 1):
            cos2[index[(jp, m)], col] = cos2_element(jp, j, m, k0)

    psi0 = state_to_dense(initial, jmax)
    rho0 = np.outer(psi0, psi0.conj())
    omega = math.pi * eps  # phases per unit t/T_rev

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        # sum_l c_l^2 = 1 reduces the anticommutator to -rho
        phase = np.exp(1j * omega * t)
        rho_s = (phase.conj()[:, None] * rho) * phase[None, :]
        # X c = (c^T X^T)^T, with X^T copied to rows for the sparse product
        jumped = sum((ct @ (c @ rho_s).T.copy()).T for c, ct in cs)
        acc = (phase[:, None] * jumped) * phase.conj()[None, :] - rho
        return (gamma * acc).reshape(-1)

    sol = solve_ivp(rhs, (0.0, t_end), rho0.reshape(-1).astype(complex),
                    t_eval=np.asarray(observation_times), rtol=rtol, atol=atol,
                    method="DOP853")
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    align = np.empty(len(sol.t))
    trace = np.empty(len(sol.t))
    min_eig = np.inf
    for i, t in enumerate(sol.t):
        rho_int = sol.y[:, i].reshape(dim, dim)
        phase = np.exp(-1j * omega * t)
        rho = (phase[:, None] * rho_int) * phase.conj()[None, :]
        trace[i] = float(np.real(np.trace(rho)))
        align[i] = float(np.real(np.trace(cos2 @ rho)))
        if i % max(len(sol.t) // 8, 1) == 0:
            min_eig = min(min_eig, float(np.linalg.eigvalsh(rho).min()))
    return align, trace, min_eig


# ---------------------------------------------------------------------------
# the jump Monte Carlo as it ran with a generator per trajectory
# ---------------------------------------------------------------------------

def jump_probabilities_applied(state):
    """Channel probabilities as squared norms of c_x, c_y and c_z applied to
    the truncated component, with the three applied sector dicts."""
    ops = [angular.DirectionCosineOperator(axis, state.jmax, state.k0) for axis in "xyz"]
    probs = np.empty(3)
    applied = []
    for i, op in enumerate(ops):
        new = op.apply(state.sectors)
        probs[i] = sum(float(np.sum(np.abs(v) ** 2)) for v in new.values())
        applied.append(new)
    return probs, applied


def channel_pick(probs, u: float) -> int:
    """The jump channel that the uniform u picks from the probabilities:
    the first whose cumulative sum reaches u times their sum."""
    return min(int(np.searchsorted(np.cumsum(probs), u * probs.sum())), 2)


def apply_jump_rng(state, rng):
    """``decoherence.apply_jump`` with all three channels applied, the pick
    drawn from ``rng`` as the jump happens."""
    for vec in state.sectors.values():
        if float(np.sum(np.abs(vec[-1:]) ** 2)) > decoherence._BOUNDARY_TOL:
            raise TruncationError("state weight at the j truncation boundary")
    probs, applied = jump_probabilities_applied(state)
    new_sectors = applied[channel_pick(probs, rng.random())]
    norm = math.sqrt(sum(float(np.sum(np.abs(v) ** 2)) for v in new_sectors.values()))
    return replace(state, sectors={m: v / norm for m, v in new_sectors.items()
                                   if float(np.sum(np.abs(v) ** 2)) > 1e-32 * norm ** 2},
                   diagnostics=dict(state.diagnostics))


def draw(initial, config, index: int):
    """Trajectory ``index``'s component and jump times, and the generator that
    goes on to pick its jump channels, from a stream of its own."""
    rng = decoherence._trajectory_rng(config.seed, index)
    pick = 0
    if len(initial.components) > 1:
        w = np.array(initial.weights)
        pick = int(rng.choice(len(w), p=w / w.sum()))
    t_end = float(config.observation_times[-1])
    return (initial.components[pick],
            decoherence.sample_jump_times(config.gamma, t_end, rng), rng)


def run_trajectory(initial, spectrum, config, index: int = 0) -> np.ndarray:
    """Alignment time series of a single stochastic trajectory: one pass from
    t = 0 over its jumps, pulses and observations, each jump picking its
    channel from the trajectory's generator (``draw``, ``apply_jump_rng``)."""
    component, jumps, rng = draw(initial, config, index)
    events = decoherence._merge(((t, None) for t in jumps), decoherence._schedule(config))
    return run_events_per_step(component, spectrum, config, events,
                               np.empty(len(config.observation_times)),
                               jump=lambda state, _: apply_jump_rng(state, rng))


def run_events_per_step(state, spectrum, config, events, out, keep=None, phase=None,
                        jump=None):
    """``decoherence._run_events`` without its phase memo: every free flight
    computes its own phase vector inside ``rotor.free_propagate``, and a
    ``phase`` memo passed in is not read.  A jump event runs
    ``jump(state, arg)`` (default ``decoherence.apply_jump``)."""
    jump = jump or decoherence.apply_jump
    for n, (t, kind, arg) in enumerate(events):
        if keep is not None and n in keep:
            keep[n] = state
        if t > state.time:
            state = rotor.free_propagate(state, t - state.time, spectrum)
        if kind == 0:
            state = jump(state, arg)
        elif kind == 1:
            state = pulse.apply_pulse(state, config.pulse)
        else:
            out[arg] = observables.alignment(state)
    if keep is not None and len(events) in keep:
        keep[len(events)] = state
    return out


def reference_ensemble(initial, spectrum, config, n: int):
    """``run_ensemble`` on the path it replaced: every trajectory on its own
    from t = 0 with its own generator (``run_trajectory``), every component's
    own jump-free pass, no phase memo and no ±k0 fold.  Returns
    (trajectories, mean, stderr, jump_free, jump count histogram) as
    ``run_ensemble`` forms them."""
    rows = [run_trajectory(initial, spectrum, config, i) for i in range(n)]
    counts = [len(draw(initial, config, i)[1]) for i in range(n)]
    hist = {c: counts.count(c) for c in set(counts)}
    events = decoherence._schedule(config)
    jump_free = initial.mean(lambda c: run_events_per_step(
        c, spectrum, config, events, np.empty(len(config.observation_times))))
    if config.gamma == 0.0:
        return rows, jump_free, np.zeros_like(jump_free), jump_free, hist
    data = np.vstack(rows)
    stderr = data.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(data.shape[1])
    return rows, data.mean(axis=0), stderr, jump_free, hist


def wigner_d_semiclassical(j: int, m: int, k: int, beta: float) -> float:
    """Large-j asymptotic d^j_{mk}(beta), valid for |m|,|k| << j away from the poles."""
    if beta <= 0.0 or beta >= math.pi:
        raise SingularityError(f"asymptotic d-function diverges at beta={beta}")
    jh = j + 0.5
    phase = jh * beta + (m - k) * math.pi / 2.0 - math.pi / 4.0
    return math.cos(phase) / math.sqrt(math.pi / 2.0 * jh * math.sin(beta))


def resum_check(t_fraction: float, damping: float,
                jmax: int | None = None, n_beta: int = 20001):
    """Numerically resum the cosine branch of the free propagator at a
    fractional revival and locate its concentration points.

    Evaluates ``u_c(beta; t) = (1/pi) sum_j exp(-i pi j(j+1) t) cos((j+1/2) beta)``
    with Gaussian damping exp(-eta^2 j^2 / 2) on a fine beta grid, finds local
    maxima of |u_c|, and integrates the complex weight over a +-5 eta window
    around each.  Returns (locations, weights) sorted by location.
    """
    if t_fraction not in (0.125, 0.25, 0.5):
        raise DomainError("t_fraction must be one of 1/8, 1/4, 1/2")
    if not 0.0 < damping <= 0.05:
        raise DomainError("damping must lie in (0, 0.05]")
    eta = damping
    if jmax is None:
        jmax = int(math.ceil(12.0 / eta))
    if jmax < 10.0 / eta:
        raise DomainError(f"jmax={jmax} too small; need >= 10/eta")
    beta = np.linspace(0.0, math.pi, n_beta)
    js = np.arange(jmax + 1, dtype=float)
    phases = np.exp(-1j * math.pi * np.mod(js * (js + 1.0) * t_fraction, 2.0))
    damp = np.exp(-0.5 * (eta * js) ** 2)
    u = (phases * damp) @ np.cos(np.outer(js + 0.5, beta)) / math.pi
    mag = np.abs(u)
    floor = 0.2 * mag.max()
    locs, weights = [], []
    half = 5.0 * eta
    interior = (beta > half) & (beta < math.pi - half)
    db = beta[1] - beta[0]
    for i in range(1, n_beta - 1):
        if not interior[i]:
            continue
        if mag[i] >= mag[i - 1] and mag[i] > mag[i + 1] and mag[i] > floor:
            win = (beta >= beta[i] - half) & (beta <= beta[i] + half)
            locs.append(beta[i])
            weights.append(complex(np.sum(u[win]) * db))
    order = np.argsort(locs)
    return np.array(locs)[order], np.array(weights)[order]


# ---------------------------------------------------------------------------
# reference Wigner-d recurrence
# ---------------------------------------------------------------------------

def _recurrence_r(j: int, m: int, k: int) -> float:
    return math.sqrt(float(j * j - m * m) * float(j * j - k * k))


def wigner_d_rows(m: int, k: int, betas: np.ndarray, jmax: int) -> np.ndarray:
    """``angular.wigner_d_table`` as the library computed it before its
    blocked recurrence: one row j at a time, each step in plain float64 with
    the scalar factors of ``_recurrence_r``."""
    betas = np.asarray(betas, dtype=float)
    j0 = max(abs(m), abs(k))
    out = np.empty((jmax - j0 + 1, betas.size))
    cosb = np.cos(betas)
    # rows j0 and j0 + 1; the slice out[1:2] is empty where jmax = j0
    out[0] = _d_first(m, k, betas)
    if j0 == 0:
        out[1:2] = cosb
    else:
        num = (2 * j0 + 1) * (j0 * (j0 + 1) * cosb - m * k)
        out[1:2] = num * out[0] / (j0 * _recurrence_r(j0 + 1, m, k))
    for jc in range(j0 + 1, jmax):
        num = (2 * jc + 1) * (jc * (jc + 1) * cosb - m * k)
        out[jc - j0 + 1] = (num * out[jc - j0] - (jc + 1) * _recurrence_r(jc, m, k)
                            * out[jc - j0 - 1]) / (jc * _recurrence_r(jc + 1, m, k))
    return out


def _check_jmk(j: int, m: int, k: int) -> None:
    if j < 0:
        raise DomainError(f"j must be >= 0, got {j}")
    if abs(m) > j or abs(k) > j:
        raise DomainError(f"|m|,|k| must not exceed j: j={j}, m={m}, k={k}")


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
        sign, lbin, p, q = _d_start(m, k)
        logv = lbin + p * math.log(math.cos(beta / 2.0)) + q * math.log(math.sin(beta / 2.0))
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


def leggauss_recurrence(order: int, x_min: float = -1.0) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre routine the library used before its pole nodes
    started from Bessel zeros: every node of the lower half starts at
    Tricomi's root and takes three Newton steps on the three-term recurrence,
    then numpy's ``legval``/``legder`` give the finishing step and the weights
    2 / (n P_{n-1}(x) P'_n(x_pre))."""
    n = order
    i = np.arange(1, (n + 1) // 2 + 1)
    x = -(1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * i - 1) / (4 * n + 2))
    x = x[: np.count_nonzero(np.abs(x) >= x_min) + 2]
    for _ in range(3):
        p0, p1 = np.ones_like(x), x
        for k in range(1, n):
            p0, p1 = p1, (2 * k + 1) / (k + 1) * x * p1 - k / (k + 1) * p0
        x = x - p1 * (x * x - 1.0) / (n * (x * p1 - p0))
    x = np.concatenate([x, -x[: n // 2][::-1]])
    x = x[x >= x_min]

    c = np.zeros(order + 1)
    c[-1] = 1.0
    dy = legval(x, c)
    df = legval(x, legder(c))
    x -= dy / df
    w = 2.0 / (n * legval(x, c[1:]) * df)
    return x, w


def legendre_root(n: int, x0: float, dps: int = 40) -> mp.mpf:
    """The root of P_n next to ``x0``, by Newton on the three-term recurrence
    in ``dps``-digit arithmetic; from a double-precision start three steps
    pass 40 digits."""
    with mp.workdps(dps):
        x = mp.mpf(x0)
        for _ in range(3):
            p0, p1 = mp.mpf(1), x
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            x -= p1 * (x * x - 1) / (n * (x * p1 - p0))
        return x


# ---------------------------------------------------------------------------
# state overlaps
# ---------------------------------------------------------------------------

def overlap(state_a, state_b) -> complex:
    """Inner product of two pure components; missing sectors count as zero,
    and components of different k0 are orthogonal.  For mixtures use
    :func:`fidelity`.
    """
    acc = 0.0 + 0.0j
    if state_a.k0 != state_b.k0:
        return complex(acc)
    for m, va in state_a.sectors.items():
        vb = state_b.sectors.get(m)
        if vb is None:
            continue
        n = min(va.size, vb.size)
        acc += np.vdot(va[:n], vb[:n])
    return complex(acc)


def fidelity(mix_a, mix_b) -> float:
    """Uhlmann fidelity of two k0-block-diagonal mixtures of pure components."""
    acc = 0.0
    comps_b = {c.k0: (w, c) for w, c in zip(mix_b.weights, mix_b.components)}
    for w_a, comp_a in zip(mix_a.weights, mix_a.components):
        if comp_a.k0 not in comps_b:
            continue
        w_b, comp_b = comps_b[comp_a.k0]
        acc += math.sqrt(w_a * w_b) * abs(overlap(comp_a, comp_b))
    return acc * acc


# ---------------------------------------------------------------------------
# asymmetric-rotor levels
# ---------------------------------------------------------------------------

def _asymmetric_coefficients(model):
    """(I/I_c, the diagonal's (1/I_a + 1/I_b) I / 2, the coupling's
    (1/I_a - 1/I_b) I / 4), the rigid-rotor Hamiltonian in eps units."""
    inertia = model.inertia
    return (model.ratio, 0.5 * inertia * (1.0 / model.i_a + 1.0 / model.i_b),
            0.25 * inertia * (1.0 / model.i_a - 1.0 / model.i_b))


def lapack_energies(jmax: int, kmax: int, model) -> SpectrumModel:
    """The asymmetric spectrum from one ``eigh_tridiagonal`` call per j and
    Wang block: the library's solver before the vectorised one."""
    ratio, half_is, quarter_id = _asymmetric_coefficients(model)
    coeffs = np.zeros((jmax + 1, kmax + 1))
    weights = np.ones((jmax + 1, kmax + 1))
    js = np.arange(jmax + 1)
    for k in range(kmax + 1):
        coeffs[:, k] = js * (js + 1.0) + (ratio - 1.0) * k * k
    for j in range(jmax + 1):
        jj = j * (j + 1.0)
        kvals = np.arange(j + 1, dtype=float)
        diag = half_is * (jj - kvals**2) + ratio * kvals**2
        # <k|H|k+2> for k = 0..j-2
        ladder = quarter_id * np.sqrt((jj - kvals[:-2] * (kvals[:-2] + 1.0))
                                      * (jj - (kvals[:-2] + 1.0) * (kvals[:-2] + 2.0)))
        levels: dict[int, list[float]] = {}
        wmin: dict[int, float] = {}
        odd_shift = quarter_id * jj  # <j 1|H|j -1>
        for start, shift in ((0, 0.0), (2, 0.0), (1, +odd_shift), (1, -odd_shift)):
            nsel = max(0, (min(j, kmax) - start) // 2 + 1)
            if nsel == 0:
                continue
            d = diag[start::2].copy()
            d[0] += shift
            e = ladder[start::2].copy()
            if start == 0 and e.size:
                e[0] *= math.sqrt(2.0)
            if d.size == 1:
                vals, vecs = d, np.ones((1, 1))
            else:
                vals, vecs = eigh_tridiagonal(d, e, select="i",
                                              select_range=(0, nsel - 1))
            for idx in range(min(nsel, len(vals))):
                k_label = start + 2 * idx
                levels.setdefault(k_label, []).append(float(vals[idx]))
                w = float(np.abs(vecs[idx, idx]) ** 2)
                wmin[k_label] = min(wmin.get(k_label, 1.0), w)
        for k in range(min(j, kmax) + 1):
            if k not in levels:
                raise LevelAssignmentError(f"no level attributed to (j={j}, k={k})")
            coeffs[j, k] = float(np.mean(levels[k]))
            weights[j, k] = wmin[k]
    return SpectrumModel(coeffs, weights)


def full_count(block, j: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of levels below x in each j's complete block (j ascending).
    Rows come from the closed form a pass at a time, for the j still inside
    the block, so no array of a whole block for every j is ever held."""
    pivmin = block.pivmin(j[-1])
    count = np.zeros(j.size, dtype=int)
    nrows = (int(j[-1]) - block.start) // 2 + 1
    q, lo = 1.0, 0
    for first in range(0, nrows, rotor._ROWS_PER_PASS):
        # the j whose block ends before this row drop out
        a = int(np.searchsorted(j, block.start + 2 * first))
        if first:
            q = q[a - lo:]
        lo = a
        d, c2 = block.rows(j[lo:], first, min(first + rotor._ROWS_PER_PASS, nrows))
        q, _, n = rotor._pivots(d, c2, x[lo:], pivmin, q)
        count[lo:] += n
    return count


def block_levels_counted(block, r: int, j: np.ndarray):
    """``rotor._block_levels`` without the O(1) certificate: every partial
    cut is decided by ``full_count``, a Sturm count of the whole block that
    starts at row 0."""
    vals, weight = np.empty(j.size), np.empty(j.size)
    nrows = (j - block.start) // 2 + 1
    widened = np.zeros(j.size, dtype=bool)
    todo, cut = np.arange(j.size), r + rotor.SPECTRUM_CUT
    while todo.size:
        jt = j[todo].astype(float)
        d, c2 = block.rows(jt, 0, min(cut, int(nrows[todo[-1]])))
        vals[todo], weight[todo] = rotor._cut_levels(d, c2, r, block.pivmin(jt[-1]))
        partial = nrows[todo] > cut
        todo, jt = todo[partial], jt[partial]
        if todo.size:
            x = vals[todo] - rotor.CERTIFY_ULPS * np.spacing(np.abs(vals[todo]))
            todo = todo[full_count(block, jt, x) != r]
        widened[todo] = True
        cut *= 2
    return vals, weight, widened


def dense_rotor_hamiltonian(model, j: int) -> np.ndarray:
    """The rigid-rotor Hamiltonian at j over k = -j..j, in eps units."""
    ratio, half_is, quarter_id = _asymmetric_coefficients(model)
    jj = j * (j + 1.0)
    ks = np.arange(-j, j + 1)
    H = np.zeros((2 * j + 1, 2 * j + 1))
    for i, k in enumerate(ks):
        H[i, i] = half_is * (jj - k * k) + ratio * k * k
        if i + 2 < 2 * j + 1:
            v = quarter_id * math.sqrt((jj - k * (k + 1)) * (jj - (k + 1) * (k + 2)))
            H[i, i + 2] = H[i + 2, i] = v
    return H


def dense_wang_levels(model, j: int) -> dict[tuple[int, int], np.ndarray]:
    """Ascending levels of each Wang block, keyed (start, sign) as the
    library's blocks are: the dense Hamiltonian in the basis |0> and
    (|k> + sign |-k>) / sqrt(2), k > 0 (sign + for the start-0 block, - for
    start 2), whose blocks are diagonalized densely."""
    H = dense_rotor_hamiltonian(model, j)
    levels = {}
    for start, sign in ((0, 0), (2, 0), (1, 1), (1, -1)):
        plus = sign >= 0 and start != 2
        basis = []
        for k in range(start, j + 1, 2):
            vec = np.zeros(2 * j + 1)
            vec[j + k] += 1.0
            if k:
                vec[j - k] += 1.0 if plus else -1.0
                vec /= math.sqrt(2.0)
            basis.append(vec)
        if basis:
            W = np.array(basis).T
            levels[(start, sign)] = np.linalg.eigvalsh(W.T @ H @ W)
    return levels


def mp_wang_level(model, j: int, start: int, sign: int, r: int, dps: int = 40) -> mp.mpf:
    """Level r (0 the lowest) of one Wang block at j, by Sturm-count
    bisection in ``dps``-digit arithmetic on the block built in mpmath from
    the model's coefficients."""
    ratio, half_is, quarter_id = _asymmetric_coefficients(model)
    with mp.workdps(dps):
        hs, ra, qd = mp.mpf(half_is), mp.mpf(ratio), mp.mpf(quarter_id)
        jj = mp.mpf(j) * (j + 1)
        ks = range(start, j + 1, 2)
        d = [hs * (jj - k * k) + ra * k * k for k in ks]
        d[0] += sign * qd * jj
        e2 = [qd * qd * (jj - k * (k + 1)) * (jj - (k + 1) * (k + 2)) for k in ks[:-1]]
        if start == 0 and e2:
            e2[0] *= 2

        def below(x):
            count, q = 0, mp.mpf(1)
            for i, d_i in enumerate(d):
                q = d_i - x - (e2[i - 1] / q if i else 0)
                if q == 0:
                    q = -mp.eps
                count += q < 0
            return count

        radius = 2 * mp.sqrt(max(e2, default=mp.mpf(0)))
        lo, hi = min(d) - radius - 1, max(d) + radius + 1
        while hi - lo > abs(hi) * mp.mpf(10) ** (5 - dps):
            mid = (lo + hi) / 2
            if below(mid) <= r:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


# ---------------------------------------------------------------------------
# semiclassical pulse from scipy's Bessel functions
# ---------------------------------------------------------------------------

def jv_bandwidth(phi: float) -> int:
    """The pulse bandwidth by stepping the order up with ``jv``: the band ends
    below the first order nu >= 5 with |J_nu(phi / sqrt 2)| < 1e-14."""
    x = abs(phi) / math.sqrt(2.0)
    if x == 0.0:
        return 8
    band = 8
    while abs(jv(0.5 * band + 1.0, x)) >= 1e-14:
        band += 2
    return band


def phase_matrix_jv(jmin: int, jmax: int, m: int, k: int, phi: float) -> np.ndarray:
    """Dense semiclassical pulse matrix, one diagonal at a time with ``jv``.

    The same stationary-phase elements as ``pulse.phase_matrix_semiclassical``
    (phi > 0) on the band of ``jv_bandwidth``: e^{i pi d / 4} e^{ix} J_{d/2}(x)
    at x = A_J phi, J = j + j' + 1, plus the m k correction term.
    """
    n = jmax - jmin + 1
    out = np.zeros((n, n), dtype=complex)
    xi = 1.0 / phi
    for d in range(0, min(jv_bandwidth(phi), n - 1) + 1, 2):
        nu = 0.5 * d
        jsum = 2.0 * np.arange(jmin, jmin + n - d, dtype=float) + d + 1.0
        a = (1.0 - 4.0 * k * k / jsum ** 2) * (1.0 - 4.0 * m * m / jsum ** 2) / math.sqrt(2.0)
        x = a * phi
        elem = np.exp(1j * x) * jv(nu, x)
        if m * k != 0:
            c = 32.0 * (k * k) * (m * m) / jsum ** 4
            jprime = 0.5 * (jv(nu - 1.0, x) - jv(nu + 1.0, x))
            deriv = np.exp(1j * x) * (-jv(nu, x) / (2.0 * xi ** 1.5)
                                      - 1j * a * jv(nu, x) / xi ** 2.5
                                      - a * jprime / xi ** 2.5)
            elem = elem - 1j * math.sqrt(2.0 * xi) * c * deriv
        elem = np.exp(1j * math.pi * d / 4.0) * elem
        rows = np.arange(n - d)
        out[rows, rows + d] = elem
        out[rows + d, rows] = elem
    return out


# ---------------------------------------------------------------------------
# exact pulse: the polar-angle grid path and a dense eigendecomposition
# ---------------------------------------------------------------------------

def grid_pulse(vec: np.ndarray, m: int, k: int, phi: float, grid: angular.AngularGrid,
               jmax_out: int | None = None) -> np.ndarray:
    """exp(i sqrt(2) phi cos^2 beta) on one (m, k) sector via the grid:
    synthesize psi(beta), multiply by the phase, project back onto
    j <= jmax_out, with one Wigner table used both ways."""
    j0 = max(abs(m), abs(k))
    jmax_in = j0 + np.asarray(vec).size - 1
    if jmax_out is None:
        jmax_out = jmax_in
    if grid.order < 2 * max(jmax_in, jmax_out):
        raise ResolutionError(
            f"grid order {grid.order} insufficient for jmax {max(jmax_in, jmax_out)}")
    table = angular.wigner_d_table(m, k, grid.nodes, max(jmax_in, jmax_out))
    scale = np.sqrt(np.arange(j0, max(jmax_in, jmax_out) + 1) + 0.5)
    rows_in, rows_out = jmax_in - j0 + 1, jmax_out - j0 + 1
    psi = (np.asarray(vec) * scale[:rows_in]) @ table[:rows_in]
    psi = psi * np.exp(1j * math.sqrt(2.0) * phi * np.cos(grid.nodes) ** 2)
    return scale[:rows_out] * (table[:rows_out] @ (grid.weights * psi))


def eigen_pulse(vec: np.ndarray, m: int, k: int, phi: float,
                jmax_out: int | None = None) -> np.ndarray:
    """exp(i sqrt(2) phi C) on one (m, k) sector from a dense
    eigendecomposition of the cos^2 band C over j0 .. max(jmax_in, jmax_out),
    cut to j <= jmax_out."""
    j0 = max(abs(m), abs(k))
    vec = np.asarray(vec, dtype=complex)
    jmax_in = j0 + vec.size - 1
    if jmax_out is None:
        jmax_out = jmax_in
    band = to_dense(angular.cos2beta_matrix(j0, max(jmax_in, jmax_out), m, k)).real
    vals, vecs = np.linalg.eigh(band)
    padded = np.zeros(band.shape[0], dtype=complex)
    padded[:vec.size] = vec
    out = vecs @ (np.exp(1j * math.sqrt(2.0) * phi * vals) * (vecs.T @ padded))
    return out[:jmax_out - j0 + 1]


# ---------------------------------------------------------------------------
# time grid, one refinement window at a time
# ---------------------------------------------------------------------------

def time_grid_loop(times) -> np.ndarray:
    """``config.build_time_grid`` without its ceilings, with one
    ``np.linspace`` per 1/8 refinement centre."""
    spacing = times.t_end / max(times.n_points - 1, 1)
    n8 = int(math.floor(times.t_end / EIGHTH + 1e-9))
    centers = EIGHTH * np.arange(0, n8 + 1)
    parts = [np.linspace(0.0, times.t_end, times.n_points)]
    for c in centers:
        lo = max(c - times.refine_halfwidth, 0.0)
        hi = min(c + times.refine_halfwidth, times.t_end)
        n = max(int(round((hi - lo) / spacing * times.refine_factor)), 2)
        parts.append(np.linspace(lo, hi, n))
    parts.append(centers[centers <= times.t_end])
    grid = np.sort(np.round(np.concatenate(parts), TIME_DECIMALS))
    return grid[np.concatenate([[True], grid[1:] != grid[:-1]])]
