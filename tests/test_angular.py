import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial.legendre import legval

import oracles
from nanorotor import angular, rotor
from nanorotor.errors import DomainError, ResolutionError, TruncationWarning


# ---------------------------------------------------------------------------
# Wigner d, exact recurrence
# ---------------------------------------------------------------------------

def test_d100_is_cos():
    for b in (0.1, 0.7, 2.0, 3.0):
        assert oracles.wigner_d_exact(1, 0, 0, b) == pytest.approx(math.cos(b), abs=1e-14)


def test_zero_angle_is_kronecker():
    assert oracles.wigner_d_exact(7, 3, 3, 0.0) == 1.0
    assert oracles.wigner_d_exact(7, 3, 2, 0.0) == 0.0
    assert oracles.wigner_d_exact(5, -4, -4, 0.0) == 1.0


def test_d40_matches_legendre():
    c = np.zeros(41)
    c[40] = 1.0
    expected = legval(math.cos(math.pi / 3), c)
    assert oracles.wigner_d_exact(40, 0, 0, math.pi / 3) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("j,m,k,beta", [
    (40, 0, 0, math.pi / 3),
    (60, 3, -2, 1.1),
    (200, 5, 5, 2.5),
    (500, 12, 7, 0.4),
    (2000, 30, -11, 1.9),
    (5000, 2, 1, 2.2),
])
def test_extended_precision_sum_oracle(j, m, k, beta):
    expected = oracles.wigner_d_sum(j, m, k, beta)
    got = oracles.wigner_d_exact(j, m, k, beta)
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-280)
    row = angular.wigner_d_table(m, k, np.array([beta]), j)[-1, 0]
    assert row == pytest.approx(expected, rel=1e-10, abs=1e-280)


def test_large_mk_underflow_regime():
    # the start value at j0 = 500 is e^-798, below the float64 floor: the
    # scalar recurrence renormalizes and recovers the scale, while the plain
    # float64 table underflows to zero
    val = oracles.wigner_d_exact(1500, 500, -490, 0.9)
    expected = oracles.wigner_d_sum(1500, 500, -490, 0.9)
    assert expected == pytest.approx(-0.028662178387592, rel=1e-12)
    assert val == pytest.approx(expected, rel=1e-10)
    assert angular.wigner_d_table(500, -490, np.array([0.9]), 1500)[-1, 0] == 0.0


@pytest.mark.parametrize("jmax", [0, 150, 1300])
def test_table_has_the_row_by_row_references_bits(jmax):
    # the one-pair blocked recurrence against the row-by-row loop it
    # replaced: jmax 0 stands for jmax = j0, 150 fits in a few blocks and
    # 1,300 crosses many; every column is its own beta's, so one array
    # serves the grid's nodes and a lone angle
    betas = np.append(angular.AngularGrid.for_jmax(150).nodes, 0.9)
    mks = range(-6, 7) if jmax < 1300 else (-6, -2, 0, 1, 5)
    for m, k in itertools.product(mks, repeat=2):
        top = max(jmax, abs(m), abs(k))
        table = angular.wigner_d_table(m, k, betas, top)
        assert table.tobytes() == oracles.wigner_d_rows(m, k, betas, top).tobytes(), (m, k)


def test_underflowing_table_has_the_row_by_row_references_bits():
    betas = angular.AngularGrid.for_jmax(150).nodes
    table = angular.wigner_d_table(500, -490, betas, 1500)
    assert table.tobytes() == oracles.wigner_d_rows(500, -490, betas, 1500).tobytes()


def test_invalid_quantum_numbers():
    with pytest.raises(DomainError):
        oracles.wigner_d_exact(2, 3, 0, 1.0)
    with pytest.raises(DomainError):
        oracles.wigner_d_exact(2, 0, -3, 1.0)


@given(st.integers(min_value=0, max_value=80), st.floats(0.05, math.pi - 0.05))
def test_d_column_orthonormality(j, beta):
    # sum_j (j+1/2) d^j(b) d^j(b') -> delta; the diagonal normalization is
    # int d^2 sin db = 1/(j+1/2), checked through the quadrature grid
    grid = angular.AngularGrid.for_jmax(j)
    tab = angular.wigner_d_table(0, 0, grid.nodes, j)
    norm = (j + 0.5) * float(np.sum(grid.weights * tab[j] ** 2))
    assert norm == pytest.approx(1.0, abs=1e-11)


def test_delta_concentration_of_damped_completeness():
    # Gaussian-damped completeness sum reproduces smooth test functions
    jmax, width = 500, 0.01
    grid = angular.AngularGrid.for_jmax(jmax)
    beta0 = 1.0
    tab_at = angular.wigner_d_table(0, 0, np.array([beta0]), jmax)[:, 0]
    tab = angular.wigner_d_table(0, 0, grid.nodes, jmax)
    js = np.arange(jmax + 1)
    damp = np.exp(-0.5 * (width * js) ** 2)
    kernel = ((js + 0.5) * damp * tab_at) @ tab
    peak = grid.nodes[np.argmax(np.abs(kernel))]
    assert abs(peak - beta0) < 0.005
    g = np.exp(-((grid.nodes - beta0) / 0.2) ** 2)
    reproduced = float(np.sum(grid.weights * kernel * g))
    assert reproduced == pytest.approx(g[np.argmin(np.abs(grid.nodes - beta0))],
                                       rel=0.02)


# ---------------------------------------------------------------------------
# semiclassical d
# ---------------------------------------------------------------------------

def test_semiclassical_matches_exact_at_large_j():
    e = oracles.wigner_d_exact(100, 0, 0, math.pi / 2)
    s = oracles.wigner_d_semiclassical(100, 0, 0, math.pi / 2)
    assert s == pytest.approx(e, rel=0.01)


def test_semiclassical_phase_depends_on_m_minus_k():
    a = oracles.wigner_d_semiclassical(100, 0, 0, math.pi / 2)
    b = oracles.wigner_d_semiclassical(100, 1, 1, math.pi / 2)
    assert a == pytest.approx(b, rel=1e-12)


def test_semiclassical_singular_at_poles():
    with pytest.raises(oracles.SingularityError):
        oracles.wigner_d_semiclassical(100, 0, 0, 1e-9 - 1e-9)
    with pytest.raises(oracles.SingularityError):
        oracles.wigner_d_semiclassical(100, 0, 0, math.pi)


def test_semiclassical_error_decreases_with_j():
    # error measured against the oscillation envelope
    errs = []
    for j in (20, 50, 100, 200):
        worst = 0.0
        for b in np.linspace(0.3, math.pi - 0.3, 151):
            e = oracles.wigner_d_exact(j, 0, 0, b)
            s = oracles.wigner_d_semiclassical(j, 0, 0, b)
            env = 1.0 / math.sqrt(math.pi / 2 * (j + 0.5) * math.sin(b))
            worst = max(worst, abs(s - e) / env)
        errs.append(worst)
    assert errs == sorted(errs, reverse=True)


# ---------------------------------------------------------------------------
# Clebsch-Gordan
# ---------------------------------------------------------------------------

def test_cg_scalar_coupling():
    assert oracles.clebsch_gordan(7, 3, 0, 0, 7, 3) == pytest.approx(1.0, rel=1e-14)


def test_cg_two_spin_brute_force():
    expected = oracles.cg_two_spin_brute(1, 1, 2, 0, 0)
    assert expected == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)
    assert oracles.clebsch_gordan(1, 0, 1, 0, 2, 0) == pytest.approx(expected, rel=1e-12)


@given(st.integers(0, 12), st.integers(0, 12), st.integers(-12, 12), st.integers(-12, 12))
def test_cg_orthogonality_sum(j1, j2, m1, m2):
    if abs(m1) > j1 or abs(m2) > j2:
        return
    total = sum(oracles.clebsch_gordan(j1, m1, j2, m2, J, m1 + m2) ** 2
                for J in range(abs(j1 - j2), j1 + j2 + 1))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("j1,m1,j2,m2,J", [
    (3, 1, 2, -1, 4), (5, 0, 2, 0, 5), (10, -7, 1, 1, 10), (4, 4, 2, -2, 3),
])
def test_cg_against_sympy(j1, m1, j2, m2, J):
    expected = oracles.cg_sympy(j1, m1, j2, m2, J, m1 + m2)
    assert oracles.clebsch_gordan(j1, m1, j2, m2, J, m1 + m2) == \
        pytest.approx(expected, abs=1e-13)


def test_cg_large_j_rank2():
    # the production regime: rank-2 couplings at large j against exact sympy
    for j in (500, 2000):
        for jp in (j, j + 1, j + 2):
            got = oracles.clebsch_gordan(j, 3, 2, 0, jp, 3)
            expected = oracles.cg_sympy(j, 3, 2, 0, jp, 3)
            assert got == pytest.approx(expected, rel=1e-12)


def test_cg_violations_return_zero():
    assert oracles.clebsch_gordan(1, 0, 1, 0, 5, 0) == 0.0
    assert oracles.clebsch_gordan(1, 1, 1, 1, 2, 0) == 0.0


# ---------------------------------------------------------------------------
# angular grid
# ---------------------------------------------------------------------------

def test_grid_invariants():
    grid = angular.AngularGrid.for_jmax(40)
    assert grid.weights.sum() == pytest.approx(2.0, rel=1e-12)
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.nodes[0] > 0 and grid.nodes[-1] < math.pi


@pytest.mark.parametrize("order", [1, 2, 3, 17, 200, 760, 1200])
def test_grid_matches_numpy_leggauss(order):
    # nodes within 2 ulps of numpy's in cos(beta), the ulp taken no finer than
    # that of 0.5: near cos(beta) = 0 both place the roots to a few relative
    # ulps only (the mpmath test below bounds those)
    x, w = np.polynomial.legendre.leggauss(order)
    grid = angular.AngularGrid.gauss_legendre(order)
    got, _ = angular._leggauss(order)
    assert np.all(np.abs(got - x) <= 2 * np.spacing(np.maximum(np.abs(x), 0.5)))
    assert np.array_equal(grid.nodes, np.arccos(got)[::-1])
    assert np.max(np.abs(grid.weights - w[::-1])) <= 1e-12


# the x_min of the two gated workloads' grids: sigma_beta 0.01 at order 710
# and 0.003 at order 2,294
WORKLOAD_CAPS = [math.cos(rotor.profile_cap(sigma)) for sigma in (0.01, 0.003)]


@pytest.mark.parametrize("order,x_min", [(760, -1.0), (1200, -1.0),
                                         (710, WORKLOAD_CAPS[0]), (2294, WORKLOAD_CAPS[1])],
                         ids=["760", "1200", "710-capped", "2294-capped"])
def test_grid_nodes_within_3_ulps_of_the_roots(order, x_min):
    # both ends of the kept nodes, and on a full rule the middle, where
    # cos(beta) is smallest and its ulp finest
    x, _ = angular._leggauss(order, x_min)
    half = order // 2
    middle = range(half - 4, half + 4) if x_min == -1.0 else []
    for i in [*range(4), *middle, *range(len(x) - 4, len(x))]:
        root = oracles.legendre_root(order, x[i])
        assert abs(x[i] - root) <= 3 * np.spacing(abs(float(root))), i


@pytest.mark.parametrize("order", [100, 250, *range(590, 620), 700, 710, 760, 761, 1200,
                                   1541, 1906, 2294, 2401, 2731, 3000])
def test_grid_matches_the_recurrence_routine(order):
    x_ref, w_ref = oracles.leggauss_recurrence(order)
    x_full, w_full = angular._leggauss(order)
    dx = np.abs(x_full - x_ref)
    assert np.all(dx <= np.spacing(np.abs(x_ref)))
    # below BESSEL_START_ORDER, and off the poles above it, the same path
    same = (np.abs(x_ref) < 0.49) | (order < angular.BESSEL_START_ORDER)
    assert np.array_equal(x_full[same], x_ref[same])
    assert np.array_equal(w_full[same], w_ref[same])
    # a pole weight reads P'_n at the Bessel start, not at rounding level:
    # 1e-9 relative covers that.  A node that moved by dx also moves
    # P_{n-1}(x) by n x dx / (1 - x^2) relative, since (1 - x^2) P'_{n-1} =
    # n x P_{n-1} at a root; one ulp at the first node of order 1,541 moves
    # its weight by 7.0e-8.  Twice that allows for the sweep's rounding.
    bound = 1e-9 + 2 * order * dx / (1.0 - x_ref**2)
    assert np.all(np.abs(w_full / w_ref - 1.0) <= bound)
    # a capped grid keeps the full rule's bits
    for x_min in (-1.0, 0.0, 0.5, math.cos(1e-3), *WORKLOAD_CAPS):
        x, w = angular._leggauss(order, x_min)
        kept = x_full >= x_min
        assert np.array_equal(x, x_full[kept]) and np.array_equal(w, w_full[kept])


@pytest.mark.parametrize("order", [17, 761, 2401])
def test_middle_node_of_an_odd_order_is_the_equator(order):
    assert angular.AngularGrid.gauss_legendre(order).nodes[order // 2] == math.pi / 2


def test_bessel_zeros_match_mpmath():
    zeros = angular._j0_zeros(400)
    for k, literal in enumerate(angular._J0_ZEROS, 1):
        assert literal == float(mp.besseljzero(0, k)), k
    # McMahon's expansion beyond the table
    for k in (21, 22, 40, 100, 400):
        exact = float(mp.besseljzero(0, k))
        assert abs(zeros[k - 1] - exact) <= 2 * np.spacing(exact), k


def test_grid_for_jmax_is_shared_and_read_only():
    grid = angular.AngularGrid.for_jmax(40)
    assert angular.AngularGrid.for_jmax(40) is grid
    assert grid.order == 2 * 40 + 16
    with pytest.raises(ValueError):
        grid.nodes[0] = 0.0
    with pytest.raises(ValueError):
        grid.weights[0] = 0.0


@pytest.mark.parametrize("order", [1, 2, 3, 17, 200, 760])
def test_capped_grid_is_the_full_rule_up_to_its_cap(order):
    # every kept node and weight has the full rule's bits, and the weights
    # stay within the full grid's bound of numpy's
    _, w = np.polynomial.legendre.leggauss(order)
    x_full, w_full = angular._leggauss(order)
    for beta_max in (1e-3, 0.05, 0.1646, 1.0, math.pi / 2, 2.5, math.pi):
        x, w_capped = angular._leggauss(order, math.cos(beta_max))
        kept = x_full >= math.cos(beta_max)
        assert np.array_equal(x, x_full[kept]) and np.array_equal(w_capped, w_full[kept])
        assert np.max(np.abs(w_capped - w[kept]), initial=0.0) <= 1e-12
        capped = angular.AngularGrid.gauss_legendre(order, beta_max)
        assert capped.order == order
        assert np.array_equal(capped.nodes, np.arccos(x)[::-1])
        assert np.array_equal(capped.weights, w_capped[::-1])


def test_capped_grid_is_cached_and_checked():
    grid = angular.AngularGrid.for_jmax(40, 0.5)
    assert angular.AngularGrid.for_jmax(40, 0.5) is grid
    assert grid.order == angular.AngularGrid.order_for(40) and grid.nodes[-1] <= 0.5
    assert not grid.nodes.flags.writeable and not grid.weights.flags.writeable
    for beta_max in (0.0, -1.0, 4.0):
        with pytest.raises(DomainError, match="cap"):
            angular.AngularGrid.gauss_legendre(40, beta_max)


# ---------------------------------------------------------------------------
# banded operators vs quadrature oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,k", [(0, 0), (2, -1), (5, 5), (-3, 4)])
def test_cos2beta_matrix_vs_quadrature(m, k):
    jmin = max(abs(m), abs(k))
    jmax = 80
    mat = angular.cos2beta_matrix(jmin, jmax, m, k)
    grid = angular.AngularGrid.for_jmax(jmax + 2)
    cos2 = lambda b: np.cos(b) ** 2
    for j in range(jmin, jmax + 1, 7):
        for jp in range(j, min(j + 3, jmax + 1)):
            expected = oracles.quadrature_element(cos2, jp, j, m, k, grid)
            assert oracles.banded_element(mat, jp, j) == pytest.approx(expected, abs=1e-8)


# (jmin, jmax, m, k): jmin = j0, jmin > j0, j0 = 0, one-row and two-row
# bands, m k < 0, and j large enough for the Racah sum's exact-integer path
@pytest.mark.parametrize("jmin,jmax,m,k", [
    (0, 60, 0, 0), (3, 50, 3, 2), (9, 70, 3, -2), (4, 40, -4, 1), (5, 5, 2, -5),
    (0, 0, 0, 0), (6, 7, 6, -1), (0, 1, 0, 0), (2, 3, 0, 0), (195, 215, 4, 3),
])
def test_cos2beta_matrix_vs_racah_oracle(jmin, jmax, m, k):
    mat = angular.cos2beta_matrix(jmin, jmax, m, k)
    for d in range(3):
        expected = [oracles.cos2_element(j + d, j, m, k) for j in range(jmin, jmax + 1 - d)]
        # an offset that is not stored is zero, and only offset 1 at m k = 0 is left out
        assert (d in mat.diagonals) == (d != 1 or m * k != 0)
        diag = mat.diagonals.get(d, np.zeros(len(expected)))
        assert diag.shape == (len(expected),)
        assert np.max(np.abs(diag - expected), initial=0.0) <= 1e-12


@pytest.mark.parametrize("jmin,jmax,m,k", [(0, 60, 0, 0), (3, 40, 3, 0), (2, 30, 0, -2),
                                           (0, 1, 0, 0), (4, 5, 0, 4)])
def test_cos2_band_at_mk_zero_drops_the_zero_diagonals(jmin, jmax, m, k):
    # where m k = 0 the +-1 diagonals are zero: the band keeps offsets 0 and
    # +-2 only, and applies to the bits of the full three-offset band
    mat = angular.cos2beta_matrix(jmin, jmax, m, k)
    assert sorted(mat.diagonals) == [-2, 0, 2]
    size = jmax - jmin + 1
    full = angular.BandedOperator(jmin, jmax, {
        0: mat.diagonals[0], 1: np.zeros(size - 1), -1: np.zeros(size - 1),
        2: mat.diagonals[2], -2: mat.diagonals[-2]})
    rng = np.random.default_rng(size)
    for _ in range(5):
        vec = rng.normal(size=size) + 1j * rng.normal(size=size)
        assert mat.apply(vec).tobytes() == full.apply(vec).tobytes()
        assert mat.expectation(vec) == full.expectation(vec)


# (jmin, jmax, m, k): m k = 0 with jmin = 0 and jmin > 0, m k < 0 (the +-1
# band), a two-row band, and a ladder as long as a fig2b state's
@pytest.mark.parametrize("jmin,jmax,m,k", [(0, 60, 0, 0), (3, 40, 3, 0), (2, 30, 2, -2),
                                           (4, 5, 0, 4), (0, 1139, 0, 0)])
def test_expectation_is_the_dense_quadratic_form(jmin, jmax, m, k):
    # the quadratic form on the float view is psi^dagger A psi of the dense
    # band, here for normalised random complex states
    mat = angular.cos2_band(jmin, jmax, m, k)
    dense = oracles.to_dense(mat)
    rng = np.random.default_rng(jmax)
    for _ in range(3):
        vec = rng.normal(size=mat.size) + 1j * rng.normal(size=mat.size)
        vec /= np.linalg.norm(vec)
        assert abs(mat.expectation(vec) - np.vdot(vec, dense @ vec).real) <= 1e-14


def test_expectation_reads_a_strided_or_real_vector_as_its_complex_copy():
    mat = angular.cos2_band(2, 30, 2, -2)
    rng = np.random.default_rng(3)
    wide = rng.normal(size=2 * mat.size) + 1j * rng.normal(size=2 * mat.size)
    for vec in (wide[::2], wide[:mat.size][::-1], wide.real[:mat.size]):
        assert not vec.flags.c_contiguous or vec.dtype != complex
        assert mat.expectation(vec) == mat.expectation(np.array(vec, dtype=complex))


def test_expectation_refuses_a_band_that_is_not_real_symmetric():
    # the form pairs offset d with -d: c_z's ladder has distinct +-1
    # diagonals, and a complex diagonal (a pulse matrix) has no real form
    cz = angular._cosine_block("z", 10, 2, 1, 0)
    pulse_like = angular.BandedOperator(0, 3, {0: np.ones(4, dtype=complex)})
    for op in (cz, pulse_like):
        with pytest.raises(DomainError, match="real symmetric"):
            op.expectation(np.ones(op.size, dtype=complex))


def test_cos2beta_trivial_cases():
    one = angular.cos2beta_matrix(0, 0, 0, 0)
    assert oracles.banded_element(one, 0, 0) == pytest.approx(1.0 / 3.0)
    diag400 = oracles.banded_element(angular.cos2beta_matrix(400, 400, 0, 0), 400, 400)
    grid = angular.AngularGrid.for_jmax(402)
    expected = oracles.quadrature_element(lambda b: np.cos(b) ** 2, 400, 400, 0, 0, grid)
    assert diag400 == pytest.approx(expected, abs=1e-10)
    assert diag400 == pytest.approx(0.5, abs=1e-2)


def test_cos2beta_spectrum_in_unit_interval():
    mat = angular.cos2beta_matrix(0, 60, 0, 0)
    vals = np.linalg.eigvalsh(oracles.to_dense(mat))
    assert vals.min() > -1e-12 and vals.max() < 1.0 + 1e-12


def test_cos2beta_domain_error():
    with pytest.raises(DomainError):
        angular.cos2beta_matrix(1, 10, 2, 0)


def test_direction_cosines_vs_quadrature():
    k = 2
    ops = [angular.DirectionCosineOperator(axis, 40, k) for axis in "xyz"]
    grid = angular.AngularGrid.for_jmax(44)
    half_sin = lambda b: 0.5 * np.sin(b)
    for op, part in zip(ops, ("x", "y", "z")):
        for j in range(abs(k), 39, 5):
            for m in (-4, 0, 3):
                if abs(m) > j:
                    continue
                for jp in (j - 1, j, j + 1):
                    if jp < abs(k) or jp > 40:
                        continue
                    if part == "z":
                        got = oracles.cosine_applied(op, jp, m, j, m)
                        # quadrature needs matching m on both sides:
                        jmax = max(j, jp)
                        tab = angular.wigner_d_table(m, k, grid.nodes, jmax)
                        j0 = max(abs(m), abs(k))
                        expected = math.sqrt((j + 0.5) * (jp + 0.5)) * float(np.sum(
                            grid.weights * tab[jp - j0] * np.cos(grid.nodes) * tab[j - j0]))
                        assert got == pytest.approx(expected, abs=1e-8)
                    else:
                        mp = m + 1
                        if abs(mp) > jp:
                            continue
                        got = oracles.cosine_applied(op, jp, mp, j, m)
                        jmax = max(j, jp)
                        t_in = angular.wigner_d_table(m, k, grid.nodes, jmax)
                        t_out = angular.wigner_d_table(mp, k, grid.nodes, jmax)
                        j0i, j0o = max(abs(m), abs(k)), max(abs(mp), abs(k))
                        overlap = math.sqrt((j + 0.5) * (jp + 0.5)) * float(np.sum(
                            grid.weights * t_out[jp - j0o] * half_sin(grid.nodes) * t_in[j - j0i]))
                        # c_x picks up sin(b) e^{i a} / 2, c_y the same over 2i
                        expected = overlap if part == "x" else -1j * overlap
                        assert got == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("jmin,jmax,k", [
    (0, 30, 0), (2, 24, 2), (3, 24, -3), (5, 20, 1), (0, 0, 0), (1, 2, -1),
    (120, 122, 3),
])
def test_direction_cosines_vs_racah_oracle(jmin, jmax, k):
    # the operators span the full ladder j = 0..jmax; the elements checked
    # are those with j and j' in [jmin, jmax]
    ops = [angular.DirectionCosineOperator(axis, jmax, k) for axis in "xyz"]
    ms = sorted({0, 1, -1, 2, -3, jmax, -jmax, jmax - 1, 1 - jmax})
    for op in ops:
        for m in ms:
            for mp in (m - 1, m, m + 1):
                for j in range(jmin, jmax + 1):
                    for jp in range(max(jmin, j - 1), min(jmax, j + 1) + 1):
                        expected = oracles.cosine_element(op.axis, jp, mp, j, m, k)
                        got = oracles.cosine_applied(op, jp, mp, j, m)
                        assert abs(got - expected) <= 1e-12


@pytest.mark.parametrize("k", [0, 2, -1])
def test_direction_cosine_apply_matches_dense_oracle(k):
    jmax = 9
    rng = np.random.default_rng(5)
    basis = [(j, m) for j in range(abs(k), jmax + 1) for m in range(-j, j + 1)]
    index = {bm: i for i, bm in enumerate(basis)}
    sectors = {}
    for m in (-3, 0, 2):
        vec = np.zeros(jmax + 1, dtype=complex)
        lo = max(abs(m), abs(k))
        vec[lo:] = rng.normal(size=jmax + 1 - lo) + 1j * rng.normal(size=jmax + 1 - lo)
        sectors[m] = vec
    dense_in = np.zeros(len(basis), dtype=complex)
    for m, vec in sectors.items():
        for j in range(max(abs(m), abs(k)), jmax + 1):
            dense_in[index[(j, m)]] = vec[j]
    ops = [angular.DirectionCosineOperator(axis, jmax, k) for axis in "xyz"]
    for op, dense in zip(ops, oracles.dense_cosine_matrices(jmax, k)):
        expected = dense @ dense_in
        got = np.zeros_like(expected)
        for m, vec in op.apply(sectors).items():
            for j in range(max(abs(m), abs(k)), jmax + 1):
                got[index[(j, m)]] = vec[j]
        assert np.max(np.abs(got - expected)) <= 1e-12


def _direct_block(axis, jmax, k, m, dm):
    """The cosine block built over exactly j = 0..jmax, not sliced."""
    down, same, up = angular._cosine_elements.__wrapped__(axis, jmax + 1, k, m, dm)
    return angular.BandedOperator(0, jmax, {0: same, 1: down[1:], -1: up[:-1]})


@pytest.mark.parametrize("jmax", [3, 171, 254, 255, 256, 300])
def test_sliced_cosine_block_is_the_direct_build(jmax):
    # a block read at jmax is a slice of the build at the capacity (jmax + 1
    # rounded up to a multiple of 256); each element is a closed form in its
    # own j, so the slice has the bits of a build over exactly 0..jmax
    for axis, dms in (("x", (1, -1)), ("y", (1, -1)), ("z", (0,))):
        for dm in dms:
            for k in (0, 3, -3):
                for m in (-4, -1, 0, 2, 5):
                    got = angular._cosine_block(axis, jmax, k, m, dm).diagonals
                    want = _direct_block(axis, jmax, k, m, dm).diagonals
                    assert got.keys() == want.keys()
                    for d in want:
                        assert got[d].tobytes() == want[d].tobytes(), (axis, dm, k, m, d)
                        assert not got[d].flags.writeable


@pytest.mark.parametrize("jmax", [254, 255, 256])
@pytest.mark.parametrize("m, k", [(0, 0), (1, 3), (-2, -3), (4, 0)])
def test_cos2_band_reads_the_block_past_jmax_bit_for_bit(monkeypatch, jmax, m, k):
    # cos2beta_matrix reads the c_z block at jmax + 1, across the capacity
    # boundary here (a block of 256 or of 512)
    jmin = max(abs(m), abs(k))
    sliced = angular.cos2beta_matrix(jmin, jmax, m, k).diagonals
    monkeypatch.setattr(angular, "_cosine_block", _direct_block)
    direct = angular.cos2beta_matrix(jmin, jmax, m, k).diagonals
    assert sliced.keys() == direct.keys()
    for d in direct:
        assert sliced[d].tobytes() == direct[d].tobytes(), d


def test_cosine_blocks_of_one_capacity_share_one_build():
    angular._cosine_block.cache_clear()
    angular._cosine_elements.cache_clear()
    for jmax in range(145, 256):
        angular._cosine_block("x", jmax, 0, 1, -1)
    assert angular._cosine_elements.cache_info().misses == 1
    angular._cosine_block("x", 256, 0, 1, -1)  # j = 0..256 needs the next capacity
    assert angular._cosine_elements.cache_info().misses == 2


def test_direction_cosine_trivial_elements():
    c_z = angular.DirectionCosineOperator("z", 5, 0)
    assert oracles.cosine_applied(c_z, 0, 0, 0, 0) == 0.0
    assert oracles.cosine_applied(c_z, 1, 0, 0, 0) == pytest.approx(1 / math.sqrt(3),
                                                                     rel=1e-12)


def test_direction_cosines_complete():
    # sum_l c_l^2 = identity away from the truncation boundary
    jmax, k = 30, 1
    ops = [angular.DirectionCosineOperator(axis, jmax, k) for axis in "xyz"]
    for m in (1, -2, 4):
        for j in range(max(abs(m), abs(k)) + 1, jmax - 1, 3):
            sec = {m: np.zeros(jmax + 1, dtype=complex)}
            sec[m][j] = 1.0
            acc = 0.0
            for op in ops:
                twice = op.apply(op.apply(sec))
                acc += twice.get(m, np.zeros(jmax + 1))[j]
            assert acc == pytest.approx(1.0, abs=1e-10)


def test_banded_operator_apply_matches_dense():
    rng = np.random.default_rng(3)
    mat = angular.cos2beta_matrix(2, 40, 1, 2)
    vec = rng.normal(size=mat.size) + 1j * rng.normal(size=mat.size)
    assert np.allclose(mat.apply(vec), oracles.to_dense(mat) @ vec, atol=1e-13)
    dense = oracles.to_dense(mat)
    assert np.max(np.abs(dense - dense.conj().T)) < 1e-14


# ---------------------------------------------------------------------------
# beta transforms
# ---------------------------------------------------------------------------

def test_synthesize_isotropic_state():
    grid = angular.AngularGrid.for_jmax(4)
    psi, prob = angular.synthesize_beta(np.array([1.0 + 0j]), 0, 0, grid)
    assert np.allclose(prob, np.sin(grid.nodes) / 2.0, atol=1e-12)


def test_synthesize_norm_random_state():
    rng = np.random.default_rng(11)
    c = rng.normal(size=30) + 1j * rng.normal(size=30)
    c /= np.linalg.norm(c)
    grid = angular.AngularGrid.for_jmax(40)
    _, prob = angular.synthesize_beta(c, 1, 1, grid)
    assert float(np.sum(grid.weights * prob / np.sin(grid.nodes))) == \
        pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("m,k", [(0, 0), (2, -1), (-3, 3)])
def test_transforms_match_row_by_row_sums(m, k):
    # one table and one matrix product against the row-by-row reference
    rng = np.random.default_rng(7)
    j0, jmax = max(abs(m), abs(k)), 40
    grid = angular.AngularGrid.for_jmax(jmax)
    tab = angular.wigner_d_table(m, k, grid.nodes, jmax + 5)
    c = rng.normal(size=jmax - j0 + 1) + 1j * rng.normal(size=jmax - j0 + 1)
    psi_ref = sum(c[i] * math.sqrt(j0 + i + 0.5) * tab[i] for i in range(c.size))
    proj_ref = np.array([math.sqrt(j0 + i + 0.5) * np.dot(tab[i], grid.weights * psi_ref)
                         for i in range(c.size)])
    psi, _ = angular.synthesize_beta(c, m, k, grid)
    assert np.max(np.abs(psi - psi_ref)) <= 1e-12
    proj = angular._project_general(psi_ref, m, k, jmax, grid)
    assert np.max(np.abs(proj - proj_ref)) <= 1e-12


def _profile_grid(sigma, ks):
    """The capped grid and normalised gaussian_beta profile of a row's jmax."""
    jmax = max(rotor.estimate_jmax("gaussian_beta", sigma, k) for k in ks)
    grid = angular.AngularGrid.for_jmax(jmax, rotor.profile_cap(sigma))
    psi = np.exp(-np.sin(grid.nodes) ** 2 / (4.0 * sigma * sigma))
    return jmax, grid, psi / math.sqrt(float(np.sum(grid.weights * psi ** 2)))


@pytest.mark.parametrize("sigma", [0.003, 0.01, 0.1])
def test_diagonal_recurrence_rows_are_the_tables_bit_for_bit(sigma):
    # one pass for every (m, k) of a list, in blocks: each row has the bits
    # of the pair's own table, so it does not depend on which pairs share
    # the pass; the diagonal pairs are those of project_beta's |k0|
    pairs = [(0, 0), (2, -1), (-3, 3), (5, 5), (8, 8), (16, 16)]
    jmax, grid, _ = _profile_grid(sigma, [0, 1, 3, 8, 16])
    rows, js = [], []
    for first, block in angular._d_blocks(pairs, grid.nodes, jmax):
        assert len(block) <= angular._D_BLOCK
        rows.append(block.copy())
        js.extend(range(first, first + len(block)))
    assert js == list(range(jmax + 1))
    rows = np.concatenate(rows)
    for i, (m, k) in enumerate(pairs):
        table = oracles.wigner_d_rows(m, k, grid.nodes, jmax)
        assert rows[max(abs(m), abs(k)):, i].tobytes() == table.tobytes(), (m, k)


@pytest.mark.parametrize("sigma", [0.003, 0.01, 0.1])
def test_projection_of_every_k0_agrees_with_the_general_projection(sigma):
    # the rows are summed over the nodes one by one, not in a matrix
    # product, so only the order of the sums differs: at most 2.2e-16 was
    # measured (sigma_beta 0.003-0.3, capped and full grids, real and
    # complex profiles)
    ks = [0, 1, 3, 8, 16]
    jmax, grid, psi = _profile_grid(sigma, ks)
    phase = np.exp(1j * np.random.default_rng(3).normal(size=psi.size))
    for wave in (psi, psi * phase):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            coeffs = angular.project_beta(wave, ks[::-1], jmax, grid)[::-1]
        for k, c in zip(ks, coeffs):
            ref = angular._project_general(wave, k, k, jmax, grid)
            assert c.dtype == wave.dtype and c.shape == ref.shape
            assert np.max(np.abs(c - ref)) <= 1e-15, k


def test_projection_warns_for_each_k0_it_truncates():
    grid = angular.AngularGrid.for_jmax(60)
    psi, _ = angular.synthesize_beta(np.ones(41) / math.sqrt(41), 0, 0, grid)
    with pytest.warns(TruncationWarning) as caught:
        angular.project_beta(psi, [0, 2], 20, grid)
    assert sorted(str(w.message).split()[2] for w in caught) == ["k0=0", "k0=2"]


def test_synthesize_resolution_error():
    grid = angular.AngularGrid.gauss_legendre(10)
    with pytest.raises(ResolutionError):
        angular.synthesize_beta(np.ones(30, dtype=complex), 0, 0, grid)


def test_project_constant_is_ground_state():
    grid = angular.AngularGrid.for_jmax(10)
    psi = np.full(grid.nodes.size, math.sqrt(0.5), dtype=complex)
    [c] = angular.project_beta(psi, [0], 10, grid)
    assert abs(c[0] - 1.0) < 1e-12
    assert np.max(np.abs(c[1:])) < 1e-12


@given(st.integers(0, 3))
def test_project_round_trip(seed):
    rng = np.random.default_rng(seed)
    jmax = 25
    c = rng.normal(size=jmax + 1) + 1j * rng.normal(size=jmax + 1)
    c /= np.linalg.norm(c)
    grid = angular.AngularGrid.for_jmax(jmax + 5)
    psi, _ = angular.synthesize_beta(c, 0, 0, grid)
    [back] = angular.project_beta(psi, [0], jmax, grid)
    assert np.max(np.abs(back - c)) < 1e-8


def test_project_truncation_warning():
    grid = angular.AngularGrid.for_jmax(60)
    c = np.ones(41, dtype=complex)
    c /= np.linalg.norm(c)
    psi, _ = angular.synthesize_beta(c, 0, 0, grid)
    with pytest.warns(Warning, match="captured"):
        angular.project_beta(psi, [0], 20, grid)


def test_synthesize_aligned_packet_concentrates_at_pole():
    from nanorotor import rotor
    st = rotor.prepare_aligned_state("gaussian_j", 800.0)
    grid = angular.AngularGrid.for_jmax(st.jmax)
    _, prob = angular.synthesize_beta(st.sectors[0], 0, 0, grid)
    dens = prob / np.sin(grid.nodes)
    peak = grid.nodes[np.argmax(prob)]
    assert peak < 0.2
    assert grid.window_mass(dens, 0.0, 0.3) > 0.9
