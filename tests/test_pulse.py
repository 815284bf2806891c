import math

import numpy as np
import pytest
import scipy.constants as const
from scipy.linalg import expm
from scipy.special import jv

import oracles
from nanorotor import angular, observables, pulse, rotor
from nanorotor.errors import DomainError


def exact_unitary(jmax: int, m: int, k: int, phi: float) -> np.ndarray:
    """Dense oracle exp(i sqrt(2) phi cos^2 beta) on j = max(|m|,|k|) .. jmax."""
    j0 = max(abs(m), abs(k))
    C = oracles.to_dense(angular.cos2beta_matrix(j0, jmax, m, k))
    return expm(1j * math.sqrt(2.0) * phi * C)


# ---------------------------------------------------------------------------
# laser conversion
# ---------------------------------------------------------------------------

def test_zero_power_zero_phase():
    assert pulse.phase_from_laser(0.0, 30e-6, 100e-9, 1e-35) == 0.0


def test_phase_bilinear_in_power_and_duration():
    base = pulse.phase_from_laser(1e-3, 30e-6, 100e-9, 1e-35)
    quad = pulse.phase_from_laser(2e-3, 30e-6, 200e-9, 1e-35)
    assert quad == pytest.approx(4.0 * base, rel=1e-12)


def test_silicon_preset_reaches_two_pi():
    phi = pulse.phase_from_laser(1.3e-3, 30e-6, 100e-9,
                                 pulse.SILICON_NANOROD_DELTA_ALPHA)
    assert phi == pytest.approx(2.0 * math.pi, rel=1e-4)
    # and the back-solved constant satisfies the stated inversion exactly
    e0_sq = 4 * 1.3e-3 / (math.pi * (30e-6) ** 2 * const.epsilon_0 * const.c)
    da = 2 * math.pi * 4 * math.sqrt(2) * const.hbar / (e0_sq * 100e-9)
    assert pulse.SILICON_NANOROD_DELTA_ALPHA == pytest.approx(da, rel=1e-4)


# ---------------------------------------------------------------------------
# semiclassical matrix
# ---------------------------------------------------------------------------

def test_phi_zero_is_identity():
    mat = pulse.phase_matrix_semiclassical(0, 40, 0, 0, 0.0)
    dense = oracles.to_dense(mat)
    assert np.max(np.abs(dense - np.eye(41))) < 1e-12


def test_small_phi_approaches_identity():
    mat = pulse.phase_matrix_semiclassical(0, 40, 0, 0, 1e-9)
    dense = oracles.to_dense(mat)
    assert np.max(np.abs(dense - np.eye(41))) < 1e-8


def test_a_coefficient_at_zero_mk():
    # A_J = 1/sqrt(2) for m = k = 0: the diagonal element is e^{ix} J_0(x)
    from scipy.special import jv
    mat = pulse.phase_matrix_semiclassical(0, 10, 0, 0, 1.0)
    x = 1.0 / math.sqrt(2.0)
    assert mat.entry(5, 5) == pytest.approx(np.exp(1j * x) * jv(0, x), rel=1e-12)


# ---------------------------------------------------------------------------
# Bessel table and bandwidth
# ---------------------------------------------------------------------------

def bessel_table_error(x: np.ndarray, n: int) -> float:
    """Largest |table - jv| over the orders -1..n, with J_{-1} = -J_1."""
    table = pulse._bessel_table(x, n)
    table = np.concatenate([-table[1:2], table])
    return float(np.max(np.abs(table - jv(np.arange(-1, n + 1)[:, None], x))))


def test_bessel_table_matches_jv_at_preset_arguments():
    # every preset's argument is at most pi / sqrt(2) < 2.5
    x = np.concatenate([[0.0, 1e-12], np.linspace(0.0, 2.5, 501), np.linspace(2.5, 10.0, 151)])
    assert bessel_table_error(x, 40) <= 1e-15


@pytest.mark.parametrize("x_max,n,bound", [
    # measured against jv: 7.2e-15, 2.3e-14 and 5.9e-14.  Part of it is jv's
    # own: against 30-digit mpmath at x = 2900.7, order 100, the table is off
    # by 1.9e-15 and jv by 1.5e-14
    (100.0, 160, 1e-14),
    (1000.0, 1200, 4e-14),
    (3000.0, 3300, 1e-13),
])
def test_bessel_table_matches_jv_at_large_arguments(x_max, n, bound):
    x = np.linspace(0.1 * x_max, x_max, 41)
    assert bessel_table_error(x, n) <= bound


@pytest.mark.parametrize("x,bound", [(1e-300, 1e-15), (0.3, 1e-15), (7.5, 1e-15), (260.0, 4e-14)])
def test_bessel_table_of_a_float_matches_jv(x, bound):
    # a float runs the recurrence in Python scalars, as pulse_bandwidth does
    table = pulse._bessel_table(x, 300)
    assert table.shape == (301,)
    assert np.max(np.abs(table - jv(np.arange(301), x))) <= bound


@pytest.mark.parametrize("phi", [
    1e-9, 1e-3, 0.1, 1.0, math.pi / 4, math.pi, 2 * math.pi, 10.0, 37.3, 100.0,
    1000.0, 6830.0, 7000.0, 8000.0])
def test_pulse_bandwidth_matches_jv_scan(phi):
    # beyond phi ~ 6,830 the old scan stopped at band 10,000 and dropped
    # diagonals up to |J| = 0.013 (phi = 8,000)
    assert pulse.pulse_bandwidth(phi) == oracles.jv_bandwidth(phi)


@pytest.mark.parametrize("phi", [1.41e5, 1e6, math.inf, math.nan])
def test_pulse_bandwidth_refuses_a_table_past_the_span_limit(phi):
    # the table reaches x + 12 x^(1/3) orders, x = phi / sqrt(2); just below
    # J_SPAN_LIMIT it is built, and its band covers the sqrt(2) phi spread
    with pytest.raises(DomainError, match="Bessel table"):
        pulse.pulse_bandwidth(phi)
    assert pulse.pulse_bandwidth(1.406e5) > math.sqrt(2.0) * 1.406e5


@pytest.mark.parametrize("jmin,jmax,m,k,phi", [
    (0, 40, 0, 0, math.pi),
    (3, 70, 2, 3, math.pi),
    (1, 30, 1, -1, 0.7),
    (5, 9, 5, 4, 12.0),
    (4, 200, 4, 2, 40.0),
])
def test_matrix_matches_per_diagonal_jv_build(jmin, jmax, m, k, phi):
    # one Bessel table for the whole matrix against one jv call per diagonal;
    # the m k correction scales some low-j elements up to about 30
    mat = oracles.to_dense(pulse.phase_matrix_semiclassical(jmin, jmax, m, k, phi))
    ref = oracles.phase_matrix_jv(jmin, jmax, m, k, phi)
    assert np.all(np.abs(mat - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("block", [1, 600, 6000])
def test_matrix_built_in_column_blocks_matches_jv_build(monkeypatch, block):
    # 60 upper diagonals (band 118), so these blocks hold 1, 10 and 100 of the
    # 197 columns
    monkeypatch.setattr(pulse, "_BLOCK_ELEMENTS", block)
    mat = pulse.phase_matrix_semiclassical(4, 200, 4, 2, 40.0)
    ref = oracles.phase_matrix_jv(4, 200, 4, 2, 40.0)
    assert np.all(np.abs(oracles.to_dense(mat) - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
    # each diagonal owns its values: a cached matrix keeps no block alive
    assert all(d.base is None for d in mat.diagonals.values())


def test_matrix_keeps_even_offsets_shared_with_their_mirror():
    mat = pulse.phase_matrix_semiclassical(3, 70, 2, 3, math.pi)
    band = pulse.pulse_bandwidth(math.pi)
    assert sorted(d for d in mat.diagonals if d >= 0) == list(range(0, band + 1, 2))
    assert all(mat.diagonals[d] is mat.diagonals[-d] for d in mat.diagonals)
    rng = np.random.default_rng(5)
    vec = rng.normal(size=mat.size) + 1j * rng.normal(size=mat.size)
    dense = oracles.to_dense(mat)
    assert np.array_equal(dense, dense.T)
    assert np.max(np.abs(mat.apply(vec) - dense @ vec)) <= 1e-13


def test_negative_phi_rejected():
    with pytest.raises(DomainError):
        pulse.phase_matrix_semiclassical(0, 10, 0, 0, -0.5)


def test_matrix_vs_exact_oracle_elementwise():
    # stationary-phase elements against the dense exponential away from the
    # low-j validity floor; the full-matrix deviation is recorded
    jmax, phi = 60, math.pi
    big = exact_unitary(jmax + 40, 0, 0, phi)[: jmax + 1, : jmax + 1]
    mat = oracles.to_dense(pulse.phase_matrix_semiclassical(0, jmax, 0, 0, phi))
    dev = np.abs(big - mat)
    full = float(dev.max())
    interior = float(dev[8:, 8:].max())
    print(f"\npulse matrix deviation: full={full:.3f}, j >= 8 block={interior:.4f}")
    assert interior <= 5e-2


def test_unitarity_defect_decreases_with_j():
    defects = []
    for jc in (50, 100, 200):
        mat = pulse.phase_matrix_semiclassical(jc - 30, jc + 30, 2, 2, math.pi)
        dense = oracles.to_dense(mat)
        gram = dense.conj().T @ dense - np.eye(dense.shape[0])
        center = slice(25, 36)
        defects.append(float(np.abs(gram[center, :]).max()))
    assert defects == sorted(defects, reverse=True)


def test_mk_correction_term_validated_against_oracle():
    # the derivative correction acts on the full xi-dependent product; check
    # elementwise against the exact exponential for m k != 0.  The validity
    # floor scales with m k: good to 5e-2 beyond j ~ 10 max(|m|,|k|) and
    # improving like 1/j (documented verdict for sigma_k > 0 runs).
    m = k = 3
    jmax = 90
    j0 = max(abs(m), abs(k))
    n = jmax - 2 - j0 + 1
    big = exact_unitary(jmax + 40, m, k, math.pi)[:n, :n]
    mat = pulse.phase_matrix_semiclassical(j0, jmax, m, k, math.pi)
    dense = oracles.to_dense(mat)[:n, :n]
    dev = np.abs(big - dense)
    lo = 30 - j0
    print(f"\nm=k=3 pulse elements: max dev j>=30: {dev[lo:, lo:].max():.4f}, "
          f"j>=60: {dev[60 - j0:, 60 - j0:].max():.4f}")
    assert float(dev[lo:, lo:].max()) <= 5e-2
    assert float(dev[60 - j0:, 60 - j0:].max()) <= 1.5e-2


# ---------------------------------------------------------------------------
# exact application path
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid120():
    return angular.AngularGrid.for_jmax(140)


def test_exact_phi_zero_identity():
    rng = np.random.default_rng(5)
    vec = rng.normal(size=101) + 1j * rng.normal(size=101)
    vec /= np.linalg.norm(vec)
    out = pulse.phase_apply_exact(vec, 0, 0, 0.0)
    assert np.max(np.abs(out - vec)) < 1e-10


def test_exact_preserves_norm():
    rng = np.random.default_rng(6)
    for m, k in ((0, 0), (2, -1)):
        n = 90
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        vec /= np.linalg.norm(vec)
        # 19 zero levels of headroom above the state
        vec = np.concatenate([vec, np.zeros(19)])
        out = pulse.phase_apply_exact(vec, m, k, 1.7)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_exact_agrees_with_dense_exponential():
    # exact path vs matrix exponential of the banded cos^2 generator
    rng = np.random.default_rng(7)
    jmax = 120
    vec = np.zeros(jmax + 1, dtype=complex)
    vec[:80] = rng.normal(size=80) + 1j * rng.normal(size=80)
    vec /= np.linalg.norm(vec)
    out_grid = pulse.phase_apply_exact(vec, 0, 0, math.pi)
    out_dense = exact_unitary(jmax, 0, 0, math.pi) @ vec
    assert np.max(np.abs(out_grid - out_dense)) < 1e-8


def test_packet_phase_difference_is_phi(grid120):
    # narrow packets at pi/8 and 3 pi/8 differ by exactly phi
    jmax, phi = 120, 1.234
    def packet(center):
        psi = np.exp(-((grid120.nodes - center) ** 2) / (2 * 0.03 ** 2)).astype(complex)
        psi /= np.sqrt(np.sin(grid120.nodes))
        c = angular._project_general(psi, 0, 0, jmax, grid120)
        return c / np.linalg.norm(c)
    phases = []
    for center in (math.pi / 8, 3 * math.pi / 8):
        c = packet(center)
        cp = pulse.phase_apply_exact(c, 0, 0, phi)
        phases.append(np.angle(np.vdot(c, cp)))
    assert phases[0] - phases[1] == pytest.approx(phi, abs=2e-3)


def test_exact_commutes_with_cos2(grid120):
    jmax = 120
    C = oracles.to_dense(angular.cos2beta_matrix(0, jmax, 0, 0))
    U = exact_unitary(jmax, 0, 0, 0.9)
    comm = U @ C - C @ U
    assert np.max(np.abs(comm)) < 1e-8


def random_sector(rng, m: int, k: int, jmax: int, top: int) -> np.ndarray:
    """A normalised random sector over j = max(|m|,|k|) .. jmax, zero above ``top``."""
    j0 = max(abs(m), abs(k))
    vec = np.zeros(jmax - j0 + 1, dtype=complex)
    n = top - j0 + 1
    vec[:n] = rng.normal(size=n) + 1j * rng.normal(size=n)
    return vec / np.linalg.norm(vec)


@pytest.mark.parametrize("m,k,jmax,phi", [
    (0, 0, 60, math.pi),
    (2, -1, 120, 2 * math.pi),
    (3, 3, 160, -1.3),
    (1, -2, 165, -2.0),
    (0, 0, 165, math.pi),
])
def test_series_matches_grid_oracle(m, k, jmax, phi):
    # the amplitudes stop a pulse headroom below jmax, so the top of the
    # ladder plays no part.  The grid path's own error is its identity round
    # trip (numpy's Gauss-Legendre weights near the poles, the d-table): up to
    # 3e-12 here; beyond it the two agree to 5e-13
    rng = np.random.default_rng(jmax)
    vec = random_sector(rng, m, k, jmax, jmax - pulse.pulse_headroom([phi], 1))
    grid = angular.AngularGrid.for_jmax(jmax)
    floor = np.max(np.abs(oracles.grid_pulse(vec, m, k, 0.0, grid) - vec))
    series = pulse.phase_apply_exact(vec, m, k, phi)
    assert np.max(np.abs(series - oracles.grid_pulse(vec, m, k, phi, grid))) <= floor + 5e-13


@pytest.mark.parametrize("m,k,jmax,phi", [
    (0, 0, 300, math.pi),
    (3, -2, 400, 2 * math.pi),
    (5, 5, 350, -4.0),
    (1, 0, 250, 25.0),
])
def test_series_matches_dense_eigendecomposition(m, k, jmax, phi):
    # both are exp(i sqrt(2) phi C) of the same truncated band, so the
    # amplitudes fill the whole ladder
    vec = random_sector(np.random.default_rng(jmax), m, k, jmax, jmax)
    ref = oracles.eigen_pulse(vec, m, k, phi)
    assert np.max(np.abs(pulse.phase_apply_exact(vec, m, k, phi) - ref)) <= 1e-12


@pytest.mark.parametrize("m,k,phi", [(0, 0, math.pi), (2, 3, 2 * math.pi), (-4, 1, 7.5)])
def test_series_of_negative_phase_inverts_the_pulse(m, k, phi):
    vec = random_sector(np.random.default_rng(3), m, k, 140, 140)
    back = pulse.phase_apply_exact(pulse.phase_apply_exact(vec, m, k, phi), m, k, -phi)
    assert np.max(np.abs(back - vec)) <= 1e-13


def test_series_is_the_identity_at_phi_zero():
    vec = random_sector(np.random.default_rng(4), 2, -1, 90, 90)
    assert pulse.phase_apply_exact(vec, 2, -1, 0.0).tobytes() == vec.tobytes()


def test_exact_pulse_builds_no_grid_and_no_wigner_table(monkeypatch):
    state = rotor.prepare_aligned_state("gaussian_beta", 0.05, k0=2)
    spec = pulse.PulseSpec(phi=math.pi, method="exact")
    state = pulse.prepare_for_pulses(state, spec)

    def forbidden(*args, **kwargs):
        raise AssertionError("the exact pulse built a grid or a Wigner table")

    monkeypatch.setattr(angular.AngularGrid, "gauss_legendre", classmethod(forbidden))
    monkeypatch.setattr(angular, "wigner_d_table", forbidden)
    out = pulse.apply_pulse(state, spec)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# apply_pulse on rotor states
# ---------------------------------------------------------------------------

def make_pipeline(state, phi, method, t_final=1.0, b=0.0):
    spec = pulse.PulseSpec(phi=phi, method=method)
    st = pulse.prepare_for_pulses(state, spec)
    model = rotor.inertia_from_parameters(41.8, b)
    sp = rotor.rotational_energies(
        st.jmax, abs(st.k0), model, "asymmetric" if b else "symmetric")
    st = rotor.free_propagate(st, 0.125, sp)
    st = pulse.apply_pulse(st, spec)
    return rotor.free_propagate(st, t_final - 0.125, sp)


def test_dual_path_on_tight_state():
    state = rotor.prepare_aligned_state("gaussian_beta", 0.01)
    for phi in (math.pi / 2, math.pi):
        a_exact = observables.alignment(make_pipeline(state, phi, "exact"))
        a_semi = observables.alignment(make_pipeline(state, phi, "semiclassical"))
        assert a_exact == pytest.approx(a_semi, abs=0.01)


def test_two_pi_pulse_almost_full_revival():
    state = rotor.prepare_aligned_state("gaussian_beta", 0.01)
    a_ref = observables.alignment(make_pipeline(state, 0.0, "exact"))
    a_2pi = observables.alignment(make_pipeline(state, 2 * math.pi, "exact"))
    assert a_2pi >= 0.98 * a_ref


def test_mixture_sectors_pulsed_independently():
    state = rotor.prepare_mixture(0.02, 1.0)
    spec = pulse.PulseSpec(phi=math.pi, method="semiclassical")
    out = state.map(lambda c: pulse.apply_pulse(pulse.prepare_for_pulses(c, spec), spec))
    assert out.weights == state.weights
    assert [c.k0 for c in out.components] == [c.k0 for c in state.components]
    for comp in out.components:
        assert comp.norm() == pytest.approx(1.0, abs=1e-12)


def test_interferometer_overlap_identity():
    # end-to-end check of the eight-state prediction on a tight aligned state
    state = rotor.prepare_aligned_state("gaussian_beta", 0.01)
    for phi in np.arange(0.0, 2 * math.pi + 0.1, math.pi / 4):
        final = make_pipeline(state, float(phi), "exact")
        ref = rotor.extend_state(state, final.jmax)
        ov = abs(oracles.overlap(ref, final)) ** 2
        assert ov == pytest.approx(math.cos(phi / 2.0) ** 2, abs=0.02)
