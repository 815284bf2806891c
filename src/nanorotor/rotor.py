"""Rotor geometry, rotational spectra, state preparation and free propagation.

Time is handled dimensionless throughout: the internal clock is t / T_rev with
T_rev = 2 pi I / hbar, and free evolution multiplies each |jmk> amplitude by
``exp(-i pi eps(j, k) t/T_rev)``.  For a symmetric top
``eps(j, k) = j(j+1) + (I/I_c - 1) k^2``; the asymmetric spectrum replaces the
k^2 term by per-j diagonalization of the rigid-rotor Hamiltonian.
Physical seconds appear only at the CLI boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.constants as const
from scipy.linalg import eigh_tridiagonal

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
    "prepare_mixture",
    "k_cutoff",
    "free_propagate",
    "truncation_jmax",
    "estimate_jmax",
    "extend_state",
    "SILICON_DENSITY",
    "SILICON_NANOROD_SEMI_AXES",
]

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

@dataclass(frozen=True)
class InertiaModel:
    """Principal moments of a rigid ellipsoid, with I_c about the symmetry axis."""

    semi_axes: tuple[float, float, float]
    density: float
    mass: float
    i_a: float
    i_b: float
    i_c: float
    b_asym: float
    t_rev: float
    degenerate: bool = False

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
        return self.mass / const.atomic_mass


def _asymmetry_parameter(i_a: float, i_b: float, i_c: float) -> tuple[float, bool]:
    num = 1.0 / i_a - 1.0 / i_b
    den = 2.0 / i_c - 1.0 / i_a - 1.0 / i_b
    if abs(den) < 1e-12 * (2.0 / i_c):
        return 0.0, True
    return num / den, False


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
    if i_c > i_b * (1 + 1e-12):
        raise DomainError("symmetry axis must be the long axis (prolate ordering)")
    b_asym, degenerate = _asymmetry_parameter(i_a, i_b, i_c)
    inertia = 0.5 * (i_a + i_b)
    return InertiaModel(
        semi_axes=(a, b, c), density=density, mass=mass,
        i_a=i_a, i_b=i_b, i_c=i_c, b_asym=b_asym,
        t_rev=2.0 * math.pi * inertia / const.hbar, degenerate=degenerate)


def inertia_from_parameters(ratio: float, b_asym: float, inertia: float | None = None,
                            t_rev: float | None = None) -> InertiaModel:
    """Inertia model from the dimensionless pair (I/I_c, b).

    Used for parameter sweeps where no geometry is given.  ``inertia`` or
    ``t_rev`` fixes physical units; with neither, I = 1 kg m^2 is used and only
    dimensionless results are meaningful.
    """
    if ratio <= 1.0:
        raise DomainError(f"prolate rotor needs I/I_c > 1, got {ratio}")
    if t_rev is not None:
        inertia = t_rev * const.hbar / (2.0 * math.pi)
    if inertia is None:
        inertia = 1.0
    i_c = inertia / ratio
    # solve for (I_a, I_b) with fixed arithmetic mean and asymmetry parameter
    u = 1.0 / inertia
    d = 0.0
    for _ in range(4):
        d = b_asym * (1.0 / i_c - u)
        u = (1.0 + math.sqrt(1.0 + 4.0 * inertia * inertia * d * d)) / (2.0 * inertia)
    i_a, i_b = 1.0 / (u - d), 1.0 / (u + d)
    if i_a < i_b:
        i_a, i_b = i_b, i_a
    b_check, degenerate = _asymmetry_parameter(i_a, i_b, i_c)
    if abs(b_check) - abs(b_asym) > 1e-10 * max(abs(b_asym), 1e-30):
        raise DomainError("asymmetry parameter reconstruction failed")
    return InertiaModel(
        semi_axes=(0.0, 0.0, 0.0), density=0.0,
        mass=0.0, i_a=i_a, i_b=i_b, i_c=i_c, b_asym=b_check,
        t_rev=2.0 * math.pi * inertia / const.hbar, degenerate=degenerate)


# ---------------------------------------------------------------------------
# rotational spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumModel:
    """Dimensionless phase coefficients eps(j, k) for free propagation.

    ``phase_coeffs[j, |k|]`` multiplies -i pi t/T_rev in the propagator.
    ``dominant_weight[j, |k|]`` records, for the asymmetric method, the weight
    of the labeling |k| component in the corresponding eigenvector (symmetric
    method: 1 everywhere).
    """

    kind: str
    ratio: float
    b_asym: float
    jmax: int
    kmax: int
    phase_coeffs: np.ndarray
    dominant_weight: np.ndarray

    def covers(self, jmax: int, kmax: int) -> bool:
        return self.jmax >= jmax and self.kmax >= kmax


def rotational_energies(jmax: int, kmax: int, model: InertiaModel,
                        method: str = "symmetric") -> SpectrumModel:
    """Phase-coefficient table eps(j, k) for j <= jmax, |k| <= kmax.

    symmetric: closed form j(j+1) + (I/I_c - 1) k^2.
    asymmetric: per-j diagonalization of the rigid-rotor Hamiltonian in the
    symmetric-top k basis (diagonal from (1/I_a + 1/I_b)/2, Delta k = +-2
    couplings proportional to (1/I_a - 1/I_b)/4 with the standard ladder
    factors), eigenvalues attributed to |k| labels by their order inside each
    Wang symmetry block, and the Wang-doublet mean returned for |k| > 0.
    Order-based labels connect adiabatically to the symmetric limit even where
    the eigenvectors are strongly k-mixed; ``dominant_weight`` records the
    mixing so callers can decide how far to trust the labels.
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
        return SpectrumModel("symmetric", ratio, model.b_asym, jmax, kmax, coeffs, weights)
    if method != "asymmetric":
        raise DomainError(f"unknown spectrum method {method!r}")

    # dimensionless Hamiltonian 2 I H / hbar^2 built directly in eps units
    inertia = model.inertia
    half_is = 0.5 * inertia * (1.0 / model.i_a + 1.0 / model.i_b)
    quarter_id = 0.25 * inertia * (1.0 / model.i_a - 1.0 / model.i_b)
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
    return SpectrumModel("asymmetric", ratio, model.b_asym, jmax, kmax, coeffs, weights)


# ---------------------------------------------------------------------------
# rotor states
# ---------------------------------------------------------------------------

@dataclass
class RotorState:
    """One pure rotor component: fixed k0, amplitudes over (m, j).

    ``sectors[m]`` is a complex amplitude vector over j = 0..jmax (entries
    below max(|m|, |k0|) are zero); together the sectors form a normalized
    pure state.  ``time`` is t / T_rev.  Values are treated as immutable;
    operations return copies.
    """

    k0: int
    sectors: dict[int, np.ndarray]
    jmax: int
    time: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def copy(self) -> "RotorState":
        return replace(self, sectors={m: vec.copy() for m, vec in self.sectors.items()},
                       diagnostics=dict(self.diagnostics))

    def norm(self) -> float:
        return math.sqrt(sum(float(np.sum(np.abs(v) ** 2)) for v in self.sectors.values()))


@dataclass(frozen=True)
class Mixture:
    """Classical mixture over k0 of pure components, in ascending k0.

    The only type that carries the k0 weights.  Kernels act on one component;
    ``mean`` is the one place a mixture's expectation value is formed: the
    weighted sum of per-component results, accumulated from zero in component
    order.
    """

    components: tuple[RotorState, ...]
    weights: tuple[float, ...]

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
    two-pole superposition is not what the trap prepares).  jmax defaults to
    the truncation rule; passing a smaller jmax issues a truncation warning.
    """
    j0 = abs(k0)
    rule_jmax = estimate_jmax(mode, param, k0)
    if jmax is None:
        jmax = rule_jmax
    elif jmax < rule_jmax:
        warnings.warn(
            f"jmax={jmax} below the truncation rule ({rule_jmax}); tail mass lost",
            TruncationWarning, stacklevel=2)
    if mode == "gaussian_j":
        js = np.arange(j0, jmax + 1, dtype=float)
        amps = np.exp(-js ** 2 / (2.0 * param)).astype(complex)
    elif mode == "gaussian_beta":
        if param <= 0:
            raise DomainError("sigma_beta must be positive")
        grid = angular.AngularGrid.for_jmax(jmax)
        psi = np.exp(-np.sin(grid.nodes) ** 2 / (4.0 * param * param))
        psi[grid.nodes > math.pi / 2.0] = 0.0  # single-pole branch
        psi = psi / math.sqrt(float(np.sum(grid.weights * psi ** 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            amps = angular.project_beta(psi.astype(complex), k0, jmax, grid)
    else:
        raise DomainError(f"unknown state mode {mode!r}")
    amps = amps / np.linalg.norm(amps)
    full = np.zeros(jmax + 1, dtype=complex)
    full[j0:] = amps
    return RotorState(k0=k0, sectors={k0: full}, jmax=jmax)


def k_cutoff(sigma_k: float) -> int:
    """Largest |k0| kept in a mixture of width sigma_k: four widths, rounded up."""
    return math.ceil(4.0 * sigma_k)


def prepare_mixture(sigma_beta: float, sigma_k: float,
                    jmax: int | None = None) -> Mixture:
    """Classical mixture over integer k0 with Gaussian weights of width sigma_k.

    Components are gaussian_beta aligned states in ascending k0; the k0 grid
    is truncated at |k0| <= k_cutoff(sigma_k) and the weights renormalized.
    sigma_k = 0 gives the k0 = 0 state with weight 1.
    """
    if sigma_k < 0:
        raise DomainError("sigma_k must be >= 0")
    if sigma_k == 0:
        return Mixture.pure(prepare_aligned_state("gaussian_beta", sigma_beta, jmax=jmax))
    kcut = k_cutoff(sigma_k)
    k0s = np.arange(-kcut, kcut + 1)
    w = np.exp(-k0s.astype(float) ** 2 / (2.0 * sigma_k ** 2))
    w /= w.sum()
    if jmax is None:
        jmax = max(estimate_jmax("gaussian_beta", sigma_beta, k0=int(k))
                   for k in k0s)
    return Mixture(
        tuple(prepare_aligned_state("gaussian_beta", sigma_beta, k0=int(k0), jmax=jmax)
              for k0 in k0s),
        tuple(float(wk) for wk in w))


def free_propagate(state: RotorState, dt: float, spectrum: SpectrumModel) -> RotorState:
    """Multiply every amplitude by its spectral phase over dt = t/T_rev."""
    k = abs(state.k0)
    if not spectrum.covers(state.jmax, k):
        raise CoverageError(
            f"spectrum (jmax={spectrum.jmax}, kmax={spectrum.kmax}) does not cover "
            f"state (jmax={state.jmax}, |k0|={k})")
    eps = spectrum.phase_coeffs[: state.jmax + 1, k]
    ph = np.exp(-1j * math.pi * np.mod(eps * dt, 2.0))
    return replace(state, sectors={m: vec * ph for m, vec in state.sectors.items()},
                   time=state.time + dt, diagnostics=dict(state.diagnostics))


def extend_state(state: RotorState, new_jmax: int) -> RotorState:
    """Zero-pad every sector up to new_jmax (headroom for pulses and jumps)."""
    if new_jmax < state.jmax:
        raise DomainError("cannot shrink a state")
    return replace(state, sectors={m: np.pad(vec, (0, new_jmax - state.jmax))
                                   for m, vec in state.sectors.items()},
                   jmax=new_jmax, diagnostics=dict(state.diagnostics))
