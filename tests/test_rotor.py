import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from nanorotor import angular, observables, rotor
from nanorotor.errors import CoverageError, DomainError, TruncationWarning


# ---------------------------------------------------------------------------
# inertia models
# ---------------------------------------------------------------------------

def test_silicon_nanorod_preset():
    m = rotor.inertia_from_ellipsoid(rotor.SILICON_NANOROD_SEMI_AXES,
                                     rotor.SILICON_DENSITY)
    assert m.mass_amu == pytest.approx(1.1e6, rel=0.02)
    assert m.t_rev == pytest.approx(14e-3, rel=0.02)
    assert m.b_asym == 0.0


def test_constants_equal_scipy_bit_for_bit():
    import scipy.constants as const
    assert (rotor.HBAR, rotor.EPSILON_0, rotor.SPEED_OF_LIGHT, rotor.ATOMIC_MASS) == (
        const.hbar, const.epsilon_0, const.c, const.atomic_mass)


def test_asymmetric_variant_b():
    m = rotor.inertia_from_ellipsoid((2.75e-9, 2.5e-9, 25e-9), rotor.SILICON_DENSITY)
    assert abs(m.b_asym) == pytest.approx(2.3e-5, rel=0.05)


def test_sphere_is_degenerate():
    # a sphere has no symmetry axis, and a near-sphere whose I_c exceeds I_b
    # by 2e-13 was admitted with b read as 0: the prolateness rule refuses both
    for axes in ((1.0, 1.0, 1.0), (1.0, 1.0 + 1e-13, 1.0)):
        with pytest.raises(DomainError, match="prolate"):
            rotor.inertia_from_ellipsoid(tuple(a * 1e-9 for a in axes), 2000.0)


def test_model_derives_b_from_its_moments():
    m = rotor.inertia_from_parameters(41.8, 0.3)
    i_a, i_b, i_c = m.i_a, m.i_b, m.i_c
    assert m.b_asym == (1.0 / i_a - 1.0 / i_b) / (2.0 / i_c - 1.0 / i_a - 1.0 / i_b)
    with pytest.raises(DomainError, match="prolate"):
        rotor.InertiaModel(mass=0.0, i_a=i_a, i_b=i_c, i_c=i_b, t_rev=m.t_rev)
    with pytest.raises(DomainError, match="finite and positive"):
        rotor.InertiaModel(mass=0.0, i_a=math.inf, i_b=i_b, i_c=i_c, t_rev=m.t_rev)


def _holds_the_rule(m):
    ratio, half_is, _ = oracles._asymmetric_coefficients(m)
    assert ratio > half_is
    assert abs(m.b_asym) <= 1.0 and m.i_c <= m.i_b <= m.i_a


# within 1e-12 of each other, far apart, and beyond float range either way
_SEMI_AXIS = st.one_of(st.floats(0.5, 2.0), st.floats(1e-3, 1e3),
                       st.sampled_from([1.0, 1.0 + 1e-13, 1.0 - 1e-13, 1e-300, 1e300]))


@given(a=_SEMI_AXIS, b=_SEMI_AXIS, c=_SEMI_AXIS,
       density=st.sampled_from([1.0, 2329.0, 1e-300, 1e300]))
def test_every_ellipsoid_model_holds_the_prolateness_rule(a, b, c, density):
    # the builder returns a model that holds the rule, or refuses with a
    # DomainError; no other exception escapes it
    try:
        m = rotor.inertia_from_ellipsoid((a * 1e-9, b * 1e-9, c * 1e-9), density)
    except DomainError:
        return
    _holds_the_rule(m)


@given(ratio=st.one_of(st.floats(1.0, 1e300), st.sampled_from(
           [1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51, 1.0 + 1e-12, 1.0 + 1e-11, 41.8])),
       b=st.one_of(st.floats(-1.5, 1.5), st.sampled_from([0.0, 1e-300, 1.0, -1.0, 0.05])),
       t_rev=st.sampled_from([None, 14e-3, 1e-300, 1e300]))
@example(ratio=1.0 + 2.0 ** -52, b=1e-4, t_rev=None)  # was admitted with ratio = half_is
def test_every_parameter_model_holds_the_prolateness_rule(ratio, b, t_rev):
    # a model it returns holds the rule and reads back the b it was given,
    # within the reconstruction tolerance; a refusal is a DomainError, never
    # a ZeroDivisionError or ValueError
    try:
        m = rotor.inertia_from_parameters(ratio, b, t_rev=t_rev)
    except DomainError:
        return
    _holds_the_rule(m)
    assert abs(abs(m.b_asym) - abs(b)) <= 1e-10 * abs(b) + 1e-14 / (ratio - 1.0)


def test_prolate_ordering_invariant():
    m = rotor.inertia_from_ellipsoid((2.0e-9, 3.0e-9, 30e-9), 1000.0)
    assert m.i_a >= m.i_b >= m.i_c > 0
    assert m.t_rev == pytest.approx(2 * math.pi * m.inertia / 1.054571817e-34, rel=1e-6)


@pytest.mark.parametrize("b", [1e-6, 2.3e-5, 1e-4, 0.1, 0.5, 0.9])
def test_synthetic_model_round_trips(b):
    m = rotor.inertia_from_parameters(41.8, b, t_rev=14e-3)
    assert m.ratio == pytest.approx(41.8, rel=1e-12)
    assert abs(m.b_asym) == pytest.approx(b, rel=1e-9)
    assert m.t_rev == pytest.approx(14e-3, rel=1e-12)
    assert m.i_a >= m.i_b >= m.i_c


# ---------------------------------------------------------------------------
# rotational spectra
# ---------------------------------------------------------------------------

def test_symmetric_phases_closed_form():
    m = rotor.inertia_from_parameters(10.0, 0.0)
    sp = rotor.rotational_energies(20, 5, m, "symmetric")
    for j in range(21):
        for k in range(min(j, 5) + 1):
            assert sp.phase_coeffs[j, k] == j * (j + 1) + 9.0 * k * k


def test_asymmetric_reduces_to_symmetric():
    m = rotor.inertia_from_parameters(41.8, 0.0)
    sym = rotor.rotational_energies(40, 4, m, "symmetric")
    asym = rotor.rotational_energies(40, 4, m, "asymmetric")
    assert np.max(np.abs(sym.phase_coeffs - asym.phase_coeffs)) < 1e-12


def test_j1_levels_exact():
    m = rotor.inertia_from_parameters(41.8, 1e-3)
    sp = rotor.rotational_energies(1, 1, m, "asymmetric")
    I = m.inertia
    levels = sorted([I * (1 / m.i_a + 1 / m.i_b),
                     I * (1 / m.i_b + 1 / m.i_c),
                     I * (1 / m.i_a + 1 / m.i_c)])
    assert sp.phase_coeffs[1, 0] == pytest.approx(levels[0], rel=1e-12)
    assert sp.phase_coeffs[1, 1] == pytest.approx(0.5 * (levels[1] + levels[2]), rel=1e-12)


def test_k0_shift_is_second_order_in_b():
    shifts = []
    bs = np.logspace(-6, -4, 7)
    for b in bs:
        m = rotor.inertia_from_parameters(41.8, float(b))
        sp = rotor.rotational_energies(12, 0, m, "asymmetric")
        shifts.append(abs(sp.phase_coeffs[10, 0] - 110.0))
    slope = np.polyfit(np.log(bs), np.log(shifts), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_asymmetric_matches_dense_oracle():
    # block-tridiagonal eigenvalues against a dense full-k-space solve
    m = rotor.inertia_from_parameters(41.8, 2.3e-5)
    for j in (10, 100):
        sp = rotor.rotational_energies(j, 2, m, "asymmetric")
        vals = np.sort(np.linalg.eigh(oracles.dense_rotor_hamiltonian(m, j))[0])
        # the k = 0 label is the overall ground level for a prolate rotor
        assert sp.phase_coeffs[j, 0] == pytest.approx(vals[0], rel=1e-12)
        # k = 1 doublet mean: next two levels
        assert sp.phase_coeffs[j, 1] == pytest.approx(0.5 * (vals[1] + vals[2]), rel=1e-12)


@pytest.fixture(scope="module")
def lapack_spectra():
    """The LAPACK oracle's spectrum at jmax 1,173 and kmax 4, once per b."""
    return {b: oracles.lapack_energies(1173, 4, rotor.inertia_from_parameters(41.8, b))
            for b in (0.0, 1e-6, 2.3e-5, 1e-4)}


@pytest.mark.parametrize("kmax", [0, 2, 4])
@pytest.mark.parametrize("b", [0.0, 1e-6, 2.3e-5, 1e-4])
def test_asymmetric_matches_lapack_oracle(monkeypatch, lapack_spectra, b, kmax):
    # the fig2b range of b up to the preset's jmax.  Levels to 1e-14 relative:
    # LAPACK's default bisection tolerance leaves its own levels up to 4.2e-15
    # (25 ulps at j = 1,173) off.  Weights to 1e-12.  The O(1) certificate
    # settles every cut at the cut's own rows, so no pass runs past a cut.
    rows = rotor._WangBlock.rows

    def cut_rows(block, j, first, stop):
        assert first == 0, "a pass ran past the cut"
        return rows(block, j, first, stop)

    monkeypatch.setattr(rotor._WangBlock, "rows", cut_rows)
    sp = rotor.rotational_energies(1173, kmax, rotor.inertia_from_parameters(41.8, b),
                                   "asymmetric")
    ref = lapack_spectra[b]
    want = ref.phase_coeffs[:, :kmax + 1]
    assert np.max(np.abs(sp.phase_coeffs - want) / np.maximum(np.abs(want), 1.0)) < 1e-14
    assert np.max(np.abs(sp.dominant_weight - ref.dominant_weight[:, :kmax + 1])) < 1e-12
    assert sp.widened_j == 0


@pytest.mark.parametrize("j", [653, 1000, 1173])
def test_asymmetric_levels_match_mpmath(j):
    # the strongly mixed regime (b = 1e-4): the k = 0 level within 4 ulps of
    # a 40-digit bisection of the same block (LAPACK's is 25-31 ulps off)
    m = rotor.inertia_from_parameters(41.8, 1e-4)
    sp = rotor.rotational_energies(j, 0, m, "asymmetric")
    ref = float(oracles.mp_wang_level(m, j, 0, 0, 0))
    assert abs(sp.phase_coeffs[j, 0] - ref) <= 4 * np.spacing(ref)


def test_widened_cut_matches_dense_oracle():
    # at b = 1e-2 the k = 2 level of the top j needs more than the first cut
    m = rotor.inertia_from_parameters(41.8, 1e-2)
    sp = rotor.rotational_energies(200, 2, m, "asymmetric")
    assert sp.widened_j > 0
    ref = oracles.lapack_energies(200, 2, m)
    assert np.max(np.abs(sp.dominant_weight - ref.dominant_weight)) < 1e-12
    for j in (*range(0, 190, 21), *range(190, 201)):
        blocks = oracles.dense_wang_levels(m, j)
        want = [blocks[(0, 0)][0]]
        if j >= 1:
            want.append(0.5 * (blocks[(1, 1)][0] + blocks[(1, -1)][0]))
        if j >= 2:
            want.append(0.5 * (blocks[(0, 0)][1] + blocks[(2, 0)][0]))
        assert sp.phase_coeffs[j, :len(want)] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("sign", [+1.0, -1.0])
@pytest.mark.parametrize("b", [1e-6, 1e-4, 1e-2, 0.3, 0.9])
def test_certificate_implies_the_full_count(b, sign):
    # on every j of a first cut, the sweep decides that the block has r
    # levels below x exactly where the streamed count of the whole block
    # finds r.  sign = -1 flips the Delta k = 2 coupling, as swapping I_a and
    # I_b does, which swaps the two odd blocks.
    ratio, half_is, quarter_id = oracles._asymmetric_coefficients(
        rotor.inertia_from_parameters(41.8, b))
    held = 0
    for start, wang_sign in ((0, 0), (2, 0), (1, +1), (1, -1)):
        block = rotor._WangBlock(start, wang_sign, half_is, ratio, sign * quarter_id)
        for r in (0, 1, 2):
            cut = r + rotor.SPECTRUM_CUT
            j = np.arange(start + 2 * cut, 601, dtype=float)
            d, c2 = block.rows(j, 0, cut + 2)
            pivmin = block.pivmin(j[-1])
            vals = rotor._cut_levels(d[:cut], c2[:cut], r, pivmin)[0]
            x = vals - rotor.CERTIFY_ULPS * np.spacing(np.abs(vals))
            holds = rotor._cut_holds(block, r, j, x, d, c2, pivmin)
            assert np.array_equal(holds, oracles.full_count(block, j, x) == r)
            held += holds.sum()
    assert held > 0


def test_certificate_checks_each_condition():
    # two-row cuts (rows 0-1) and their rows 2-3 at x = 0, with d = 10 on
    # every row: with c2 = (0, 1, 1, 1) all pivots stay near 10, so the cut
    # certifies level 0 but not level 1, (o) failing; with c2 = (0, 1, 81, 64)
    # (o) and (i) hold but row 2 fails (ii), 10 < 9 + 8, and the pivot of
    # row 3 turns negative
    d, x = np.full((4, 1), 10.0), np.zeros(1)
    calm = np.array([[0.0], [1.0], [1.0], [1.0]])
    q, _, n = rotor._pivots(d[:2], calm[:2], x, 0.0)
    assert rotor._certificate_holds(0, 2, q, n, d[2:], calm[2:], x).all()
    assert not rotor._certificate_holds(1, 2, q, n, d[2:], calm[2:], x).any()
    steep = np.array([[0.0], [1.0], [81.0], [64.0]])
    q, _, n = rotor._pivots(d[:2], steep[:2], x, 0.0)
    assert n == 0
    assert rotor._pivots(d, steep, x, 0.0)[2] == 1
    assert not rotor._certificate_holds(0, 2, q, n, d[2:], steep[2:], x).any()


def test_near_sphere_levels_take_no_step_on_an_overflowed_slope(monkeypatch):
    # hand-built Wang blocks with a flat diagonal (ratio = half_is, a
    # near-sphere no InertiaModel admits) and tiny couplings: levels a few
    # ulps apart overflow the twisted pivot's slope (no warning leaks under
    # the suite's error::RuntimeWarning), the step bisects, and a weight
    # 1/|slope| is finite, never inf or nan
    twisted, finite = rotor._twisted, []

    def recorded(*args):
        g, dg, n = twisted(*args)
        finite.append(np.isfinite(dg))
        return g, dg, n

    monkeypatch.setattr(rotor, "_twisted", recorded)
    for start in (0, 2):
        block = rotor._WangBlock(start, 0, 1.0, 1.0, 1e-13)
        for r in range(3):
            j = np.arange(start + 2 * r, 41, dtype=float)
            d, c2 = block.rows(j, 0, r + rotor.SPECTRUM_CUT)
            finite.clear()
            x, w = rotor._cut_levels(d, c2, r, block.pivmin(j[-1]))
            assert not np.concatenate(finite).all()
            assert np.all((w >= 0.0) & (w <= 1.0))
            for col in range(j.size):
                inside = np.isfinite(d[:, col])
                e = np.sqrt(c2[inside, col][1:])
                tri = np.diag(d[inside, col]) + np.diag(e, 1) + np.diag(e, -1)
                assert x[col] == pytest.approx(np.linalg.eigvalsh(tri)[r], rel=1e-14)


@pytest.mark.parametrize("b", [1e-6, 1e-4, 1e-2, 0.3, 0.9])
def test_certified_spectrum_equals_the_counted_one(monkeypatch, b):
    # the certificate only skips counts that would find r: every level,
    # weight and widened j keeps its bits, widened cuts included
    m = rotor.inertia_from_parameters(41.8, b)
    sp = rotor.rotational_energies(400, 4, m, "asymmetric")
    monkeypatch.setattr(rotor, "_block_levels", oracles.block_levels_counted)
    ref = rotor.rotational_energies(400, 4, m, "asymmetric")
    assert np.array_equal(sp.phase_coeffs, ref.phase_coeffs)
    assert np.array_equal(sp.dominant_weight, ref.dominant_weight)
    assert sp.widened_j == ref.widened_j


def test_spectrum_rejects_bad_kmax():
    m = rotor.inertia_from_parameters(41.8, 0.0)
    with pytest.raises(DomainError):
        rotor.rotational_energies(5, 6, m)


# ---------------------------------------------------------------------------
# state preparation
# ---------------------------------------------------------------------------

def test_gaussian_j_state():
    st = rotor.prepare_aligned_state("gaussian_j", 800.0)
    assert st.norm() == pytest.approx(1.0, abs=1e-12)
    assert 120 <= st.jmax <= 160
    amps = st.sectors[0]
    assert abs(amps[10] / amps[0]) == pytest.approx(math.exp(-100.0 / 1600.0), rel=1e-10)
    # frozen evaluation of the initial alignment for this packet
    assert observables.alignment(st) == pytest.approx(0.98563, abs=2e-4)


def test_gaussian_beta_state_tail_capture():
    st = rotor.prepare_aligned_state("gaussian_beta", 0.003)
    amps = st.sectors[0]
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)
    # truncation rule: cutting the guard band must cost less than 1e-10
    w = np.abs(amps) ** 2
    assert w[-8:].sum() < 1e-10


def _full_rule_profile(sigma, jmax):
    """The gaussian_beta profile on every node of the order-(2 jmax + 16) rule."""
    grid = angular.AngularGrid.for_jmax(jmax)
    psi = np.exp(-np.sin(grid.nodes) ** 2 / (4.0 * sigma * sigma))
    psi[grid.nodes > math.pi / 2.0] = 0.0
    return grid, psi


@pytest.mark.parametrize("sigma", np.geomspace(1e-3, 0.6, 7))
def test_profile_is_zero_beyond_its_cap_on_the_full_rule(sigma):
    rule = rotor.estimate_jmax("gaussian_beta", sigma)
    cap = rotor.profile_cap(sigma)
    for jmax in (rule, rule // 2, rule + 37):
        grid, psi = _full_rule_profile(sigma, jmax)
        assert np.all(psi[grid.nodes > cap] == 0.0)
        assert np.array_equal(angular.AngularGrid.for_jmax(jmax, cap).nodes,
                              grid.nodes[grid.nodes <= cap])


@pytest.mark.parametrize("sigma,k0", [(0.003, 0), (0.01, 3), (0.1, 1)])
def test_capped_preparation_matches_the_full_rule(sigma, k0):
    # the full-rule projection differs only in the order of its sums
    state = rotor.prepare_aligned_state("gaussian_beta", sigma, k0=k0)
    grid, psi = _full_rule_profile(sigma, state.jmax)
    psi = psi / math.sqrt(float(np.sum(grid.weights * psi ** 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        [amps] = angular.project_beta(psi.astype(complex), [k0], state.jmax, grid)
    amps = amps / np.linalg.norm(amps)
    assert np.max(np.abs(state.sectors[k0][abs(k0):] - amps)) < 1e-14


_TAIL_DEFECT = (
    "documented deviation: the truncation rule's jmax does not capture the "
    "profile to rotor.TAIL_MASS at this width")


@pytest.mark.parametrize("k0", [0, 4, 8, 16])
@pytest.mark.parametrize("sigma", [
    pytest.param(0.01, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=_TAIL_DEFECT + " (1.61e-10 to 1.63e-10 is lost)")),
    0.03,
    0.1,
    pytest.param(0.3, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=_TAIL_DEFECT + " (5e-4 to 7e-4 is lost: the profile is cut at "
               "pi/2 while it is still about 0.06, and the rule gives jmax 19-27)")),
])
def test_gaussian_beta_rule_captures_its_tail(sigma, k0):
    # the tail the preparation's silenced TruncationWarning would report
    jmax = rotor.estimate_jmax("gaussian_beta", sigma, k0)
    grid = angular.AngularGrid.for_jmax(jmax, rotor.profile_cap(sigma))
    psi = np.exp(-np.sin(grid.nodes) ** 2 / (4.0 * sigma * sigma))
    psi = psi / math.sqrt(float(np.sum(grid.weights * psi ** 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        [amps] = angular.project_beta(psi.astype(complex), [k0], jmax, grid)
    lost = 1.0 - np.sum(np.abs(amps) ** 2) / np.sum(grid.weights * psi ** 2)
    assert lost <= rotor.TAIL_MASS


def test_aligned_state_projects_on_its_occupied_nodes(monkeypatch):
    # the guard on the gain: at sigma_beta 0.003 the profile occupies 120
    # of the 2,294 nodes of the rule, and only those are projected
    projected = []
    real = angular.project_beta

    def recording(psi, k0s, jmax, grid):
        projected.append((list(k0s), grid.order, grid.nodes.size))
        return real(psi, k0s, jmax, grid)

    monkeypatch.setattr(angular, "project_beta", recording)
    rotor.prepare_aligned_state("gaussian_beta", 0.003)
    [(k0s, order, nodes)] = projected
    assert k0s == [0] and order == 2294 and nodes <= 130


def test_mixture_projects_every_k0_at_once(monkeypatch):
    # one recurrence for the row: a single projection serves |k0| = 0..8
    projected = []
    real = angular.project_beta

    def recording(psi, k0s, jmax, grid):
        projected.append(list(k0s))
        return real(psi, k0s, jmax, grid)

    monkeypatch.setattr(angular, "project_beta", recording)
    mix = rotor.prepare_mixture(0.01, 2.0)
    assert projected == [list(range(9))] and len(mix.components) == 17


def test_mixture_estimates_jmax_once_per_abs_k0(monkeypatch):
    seen = []
    real = rotor.estimate_jmax
    monkeypatch.setattr(rotor, "estimate_jmax", lambda mode, param, k0=0: (
        seen.append(k0), real(mode, param, k0))[1])
    mix = rotor.prepare_mixture(0.01, 2.0)
    assert seen == list(range(9))
    assert mix.jmax == max(real("gaussian_beta", 0.01, k0) for k0 in range(-8, 9))


def test_mixture_preparation_holds_no_wigner_table():
    # the recurrence keeps blocks of 64 rows and peaks at 3.1 MB; the
    # (17 x 1,140 x 120) table of sigma_beta 0.003, sigma_k 4 would take 19 MB
    import tracemalloc

    rotor.prepare_mixture(0.003, 4.0)  # the grid is built and cached
    tracemalloc.start()
    try:
        rotor.prepare_mixture(0.003, 4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_mixture_builds_one_grid(monkeypatch):
    built = []
    real = angular.AngularGrid.gauss_legendre.__func__

    def counting(cls, *args):
        built.append(args)
        return real(cls, *args)

    angular.AngularGrid.for_jmax.cache_clear()
    monkeypatch.setattr(angular.AngularGrid, "gauss_legendre", classmethod(counting))
    mix = rotor.prepare_mixture(0.01, 2.0)
    assert len(mix.components) == 17
    assert built == [(angular.AngularGrid.order_for(mix.jmax), rotor.profile_cap(0.01))]


def test_gaussian_beta_isotropic_limit():
    st = rotor.prepare_aligned_state("gaussian_beta", 50.0, jmax=40)
    assert observables.alignment(st) == pytest.approx(1.0 / 3.0, abs=5e-3)


def test_prepare_warns_below_truncation_rule():
    with pytest.warns(TruncationWarning):
        rotor.prepare_aligned_state("gaussian_j", 800.0, jmax=60)


def test_mixture_weights():
    st = rotor.prepare_mixture(0.01, 3.0)
    assert len(st.weights) == 25
    assert [c.k0 for c in st.components] == list(range(-12, 13))
    assert sum(st.weights) == pytest.approx(1.0, abs=1e-12)
    for w, w_mirror, comp in zip(st.weights, st.weights[::-1], st.components):
        assert w == pytest.approx(w_mirror, rel=1e-12)
        assert comp.norm() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("sigma_beta,sigma_k", [(0.003, 1.0), (0.03, 2.0), (0.3, 1.0)])
def test_mixture_mirrors_each_k0_bit_for_bit(sigma_beta, sigma_k):
    # each -k0 component is the mirror of the k0 one, and equals the state
    # prepared at -k0 on its own bit for bit: d^j_{-k,-k} = d^j_{kk} in the
    # recurrence.  It owns its arrays.
    mix = rotor.prepare_mixture(sigma_beta, sigma_k)
    by_k0 = {c.k0: c for c in mix.components}
    for k0 in range(1, mix.kmax + 1):
        plus, minus = by_k0[k0], by_k0[-k0]
        alone = rotor.prepare_aligned_state("gaussian_beta", sigma_beta, k0=-k0, jmax=mix.jmax)
        assert list(minus.sectors) == list(alone.sectors) == [-k0]
        assert minus.sectors[-k0].tobytes() == alone.sectors[-k0].tobytes()
        assert minus.sectors[-k0].tobytes() == plus.sectors[k0].tobytes()
        assert not np.shares_memory(minus.sectors[-k0], plus.sectors[k0])
        assert minus.sectors[-k0].flags.writeable


def test_mirror_state_is_the_symmetry_of_the_basis():
    # amplitude c_jm of sector m moves to -m times (-1)^(m - k0), which
    # d^j_{-m,-k} = (-1)^(m-k) d^j_{mk} cancels: each sector's polar
    # wavefunction, so the polar density and the alignment, is unchanged;
    # the alignment to the last bit, since run_ensemble reads a -k0
    # component's series from its +k0 twin's pass
    rng = np.random.default_rng(2)
    jmax, k0 = 30, 2
    sectors = {}
    for m in (1, 2, 3):
        vec = np.zeros(jmax + 1, dtype=complex)
        vec[max(abs(m), k0):] = rng.normal(size=(2, jmax + 1 - max(abs(m), k0))).T @ [1, 1j]
        sectors[m] = vec
    state = rotor.RotorState(k0=k0, sectors=sectors)
    mirror = rotor.mirror_state(state)
    assert mirror.k0 == -k0 and sorted(mirror.sectors) == [-3, -2, -1]
    assert np.array_equal(mirror.sectors[-3], -sectors[3])
    assert np.array_equal(mirror.sectors[-2], sectors[2])
    grid = angular.AngularGrid.for_jmax(jmax)
    assert np.allclose(observables.beta_distribution(mirror, grid),
                       observables.beta_distribution(state, grid), rtol=1e-12, atol=1e-14)
    assert observables.alignment(mirror) == observables.alignment(state)


def test_k_cutoff_is_four_widths_rounded_up():
    assert [rotor.k_cutoff(s) for s in (0.0, 0.3, 1.0, 3.0)] == [0, 2, 4, 12]


def test_mixture_refuses_a_repeated_k0_and_a_missing_weight():
    # the ensemble keys each component's jump-free pass by k0: two k0 = 0
    # components would both take the first one's series
    narrow = rotor.prepare_aligned_state("gaussian_j", 60.0)
    wide = rotor.prepare_aligned_state("gaussian_j", 200.0)
    narrow = rotor.extend_state(narrow, wide.jmax)
    with pytest.raises(DomainError, match="ascending"):
        rotor.Mixture((narrow, wide), (0.5, 0.5))
    mix = rotor.prepare_mixture(0.1, 0.3)
    with pytest.raises(DomainError, match="ascending"):
        rotor.Mixture(mix.components[::-1], mix.weights)
    with pytest.raises(DomainError, match="one weight"):
        rotor.Mixture((narrow,), (0.5, 0.5))


def test_mixture_sigma_k_zero():
    st = rotor.prepare_mixture(0.01, 0.0)
    assert [c.k0 for c in st.components] == [0]
    assert st.weights == (1.0,)


# ---------------------------------------------------------------------------
# free propagation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig1_state():
    return rotor.prepare_aligned_state("gaussian_j", 800.0)


@pytest.fixture(scope="module")
def sym_spectrum(fig1_state):
    m = rotor.inertia_from_parameters(41.8, 0.0)
    return rotor.rotational_energies(fig1_state.jmax, 12, m, "symmetric")


def test_zero_dt_is_identity(fig1_state, sym_spectrum):
    out = rotor.free_propagate(fig1_state, 0.0, sym_spectrum)
    assert np.array_equal(out.sectors[0], fig1_state.sectors[0])


@given(st.floats(-3.0, 3.0))
def test_unitarity(dt):
    state = rotor.prepare_aligned_state("gaussian_j", 100.0)
    m = rotor.inertia_from_parameters(41.8, 0.0)
    sp = rotor.rotational_energies(state.jmax, 0, m, "symmetric")
    out = rotor.free_propagate(state, dt, sp)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    assert out.time == pytest.approx(dt)


@given(st.floats(0.0, 1.5), st.floats(0.0, 1.5))
def test_composition(dt1, dt2):
    state = rotor.prepare_aligned_state("gaussian_j", 60.0, jmax=64)
    m = rotor.inertia_from_parameters(41.8, 0.0)
    sp = rotor.rotational_energies(64, 0, m, "symmetric")
    once = rotor.free_propagate(state, dt1 + dt2, sp)
    twice = rotor.free_propagate(rotor.free_propagate(state, dt1, sp), dt2, sp)
    assert np.max(np.abs(once.sectors[0] - twice.sectors[0])) < 1e-12


def test_full_revival(fig1_state, sym_spectrum):
    out = rotor.free_propagate(fig1_state, 1.0, sym_spectrum)
    assert np.max(np.abs(out.sectors[0] - fig1_state.sectors[0])) < 1e-10


def test_mixture_revival_of_observables():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        st_mix = rotor.prepare_mixture(0.05, 2.0)
    m = rotor.inertia_from_parameters(41.8, 0.0)
    sp = rotor.rotational_energies(st_mix.jmax, 8, m, "symmetric")
    a0 = st_mix.mean(observables.alignment)
    out = st_mix.map(lambda c: rotor.free_propagate(c, 1.0, sp))
    assert out.mean(observables.alignment) == pytest.approx(a0, abs=1e-10)


def test_half_revival_antialigned(fig1_state, sym_spectrum):
    out = rotor.free_propagate(fig1_state, 0.5, sym_spectrum)
    assert observables.alignment(out) <= 0.05


def test_fractional_revival_window_masses(fig1_state, sym_spectrum):
    grid = angular.AngularGrid.gauss_legendre(1501)
    st8 = rotor.free_propagate(fig1_state, 0.125, sym_spectrum)
    prob = observables.beta_distribution(st8, grid)
    dens = prob / np.sin(grid.nodes)
    for n in range(4):
        c = (2 * n + 1) * math.pi / 8
        mass = grid.window_mass(dens, c - math.pi / 16, c + math.pi / 16)
        assert mass == pytest.approx(0.25, abs=0.02)
    st4 = rotor.free_propagate(fig1_state, 0.25, sym_spectrum)
    dens4 = observables.beta_distribution(st4, grid) / np.sin(grid.nodes)
    for c in (math.pi / 4, 3 * math.pi / 4):
        mass = grid.window_mass(dens4, c - math.pi / 8, c + math.pi / 8)
        assert mass == pytest.approx(0.5, abs=0.02)


def test_asymmetry_delays_revival(fig1_state):
    peaks = []
    ts = np.linspace(0.995, 1.01, 301)
    for b in (1e-5, 3e-5, 1e-4):
        m = rotor.inertia_from_parameters(41.8, b)
        sp = rotor.rotational_energies(fig1_state.jmax, 0, m, "asymmetric")
        vals = [observables.alignment(rotor.free_propagate(fig1_state, float(t), sp))
                for t in ts]
        series = observables.TimeSeries(ts, np.array(vals))
        t_peak, _ = observables.find_revival_peak(series, 1.002, 0.007)
        peaks.append(t_peak)
    assert peaks[0] > 1.0
    assert peaks == sorted(peaks)


def test_spectrum_coverage_error(fig1_state):
    m = rotor.inertia_from_parameters(41.8, 0.0)
    small = rotor.rotational_energies(10, 0, m, "symmetric")
    with pytest.raises(CoverageError, match=r"spectrum \(jmax=10, kmax=0\) does not cover"):
        rotor.free_propagate(fig1_state, 0.1, small)


def test_extend_state(fig1_state):
    out = rotor.extend_state(fig1_state, fig1_state.jmax + 20)
    assert out.jmax == fig1_state.jmax + 20
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        rotor.extend_state(fig1_state, fig1_state.jmax - 1)
