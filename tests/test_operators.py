import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
import starklab as sl


def test_zero_kernel_gives_pure_multiplication_operator():
    op = sl.build_operator(sl.custom_kernel({}), sl.PotentialSpec(), 2)
    np.testing.assert_array_equal(op.matrix, np.diag([-2.0, -1.0, 0.0, 1.0, 2.0]))


def test_nearest_neighbor_three_sites_exact():
    op = sl.build_operator(sl.nearest_neighbor(), sl.PotentialSpec(), 1)
    np.testing.assert_array_equal(
        op.matrix, [[-1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    assert op.matrix.dtype == np.float64


def test_power_law_with_constant_shift_worked_entries():
    kernel = sl.power_law(4.0)
    pot = sl.PotentialSpec(perturbation=sl.ConstantPerturbation(0.3))
    op = sl.build_operator(kernel, pot, 3)
    # rows run over sites -3..3: row 0 is site -3, row 3 site 0
    assert op.matrix[0, 3] == pytest.approx(3.0 ** -4, abs=1e-18)
    assert op.matrix[5, 5] == pytest.approx(2.3, abs=1e-15)
    assert op.perturbation_sup == 0.3


@pytest.mark.parametrize("kernel", [
    sl.power_law(4.0),
    sl.power_law(2.5),
    sl.nearest_neighbor(),
    sl.nearest_neighbor(0.6 + 0.8j),
    sl.finite_support([1.0, 0.5 + 0.5j, 0.25]),
    sl.custom_kernel({1: 0.5, 3: -0.25}),
    sl.custom_kernel({}),
], ids=["power_law_p4", "power_law_p2.5", "nearest_neighbor",
        "nearest_neighbor_complex", "finite_support_complex", "custom",
        "zero"])
def test_matrix_matches_naive_assembly(kernel):
    pot = sl.PotentialSpec(perturbation=sl.ConstantPerturbation(0.3))
    op = sl.build_operator(kernel, pot, 3)
    expected = helpers.naive_matrix(kernel, pot, 3)
    np.testing.assert_allclose(op.matrix, expected, rtol=1e-15, atol=0.0)
    assert op.matrix.dtype == (np.float64 if kernel.is_real
                               else np.complex128)


def test_complex_kernel_matches_naive_assembly_and_is_hermitian():
    kernel = sl.custom_kernel({1: 0.3 + 0.4j, 2: 0.1j})
    pert = sl.UniformRandomPerturbation(amplitude=1.0, seed=9)
    pot = sl.PotentialSpec(perturbation=pert)
    op = sl.build_operator(kernel, pot, 5)
    expected = helpers.naive_matrix(kernel, pot, 5)
    np.testing.assert_allclose(op.matrix, expected, rtol=1e-15, atol=0.0)
    assert np.array_equal(op.matrix, op.matrix.conj().T)
    assert np.all(np.diag(op.matrix).imag == 0.0)


def test_off_diagonal_entries_depend_only_on_site_difference():
    op = sl.build_operator(sl.power_law(2.5), sl.PotentialSpec(), 6)
    H = op.matrix
    d = H.shape[0]
    for off in range(1, 5):
        band = np.array([H[i + off, i] for i in range(d - off)])
        np.testing.assert_array_equal(band, band[0])


def test_central_submatrix_embedding_with_random_perturbation():
    kernel = sl.power_law(4.0)
    pot = sl.PotentialSpec(
        perturbation=sl.UniformRandomPerturbation(amplitude=5.0, seed=7))
    small = sl.build_operator(kernel, pot, 4)
    big = sl.build_operator(kernel, pot, 8)
    c = 8 - 4
    np.testing.assert_array_equal(big.matrix[c:c + 9, c:c + 9], small.matrix)


def test_uniform_random_bounded_and_reproducible():
    pert = sl.UniformRandomPerturbation(amplitude=2.5, seed=3)
    sites = np.arange(-50, 51)
    b1 = pert.values(sites)
    b2 = pert.values(sites)
    np.testing.assert_array_equal(b1, b2)
    assert np.max(np.abs(b1)) <= 2.5
    assert np.max(np.abs(b1)) > 0.0
    # a different seed draws a different realization
    b3 = sl.UniformRandomPerturbation(amplitude=2.5, seed=4).values(sites)
    assert not np.array_equal(b1, b3)
    # per-site draws do not depend on which box the site appears in
    np.testing.assert_array_equal(pert.values(np.arange(-5, 6)), b1[45:56])


# sites on both sides of 0: keys n + 2**32 of two uint32 words (n >= 0)
# and of one (n < 0), down to the smallest key, 0 at n = -2**32
KEYED_SITES = np.concatenate([
    np.arange(-40, 41), [-2 ** 32, -2 ** 32 + 1, -2 ** 31, 2 ** 31, 2 ** 40,
                         2 ** 62]])


@pytest.mark.parametrize("amplitude", [0.0, 0.5, 5.0])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 31 + 5, 2 ** 32 - 1, 2 ** 32,
                                  2 ** 32 + 3, 2 ** 63 + 11, 2 ** 64 - 1])
def test_uniform_random_equals_per_site_generators_bit_for_bit(seed,
                                                               amplitude):
    # the whole-box pass against one numpy generator per site: a numpy
    # whose SeedSequence, PCG64 or uniform formula moves fails here
    pert = sl.UniformRandomPerturbation(amplitude=amplitude, seed=seed)
    for sites in (KEYED_SITES, np.arange(-6, 6).reshape(3, 4)):
        got = pert.values(sites)
        expected = helpers.per_site_draws(pert, sites)
        assert got.shape == sites.shape
        np.testing.assert_array_equal(got.view(np.uint64),
                                      expected.view(np.uint64))


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70, 2.5])
def test_uniform_random_refuses_a_seed_not_an_unsigned_64_bit_integer(seed):
    with pytest.raises(sl.PotentialError, match="seed"):
        sl.UniformRandomPerturbation(amplitude=1.0, seed=seed)


@pytest.mark.parametrize("amplitude", [np.inf, np.nan, 1e308])
def test_uniform_random_refuses_a_range_that_is_not_finite(amplitude):
    with pytest.raises(sl.PotentialError, match="finite"):
        sl.UniformRandomPerturbation(amplitude=amplitude, seed=1)


def test_uniform_random_accepts_a_finite_range_near_overflow():
    pert = sl.UniformRandomPerturbation(amplitude=8e307, seed=1)
    sites = np.arange(-3, 4)
    np.testing.assert_array_equal(pert.values(sites),
                                  helpers.per_site_draws(pert, sites))


def test_site_below_the_smallest_key_raises_like_numpy():
    pert = sl.UniformRandomPerturbation(amplitude=1.0, seed=1)
    for draws in (pert.values, lambda s: helpers.per_site_draws(pert, s)):
        with pytest.raises(ValueError):
            draws(np.array([0, -2 ** 32 - 1]))


def test_perturbation_sup_is_recomputed_from_the_box():
    pert = sl.UniformRandomPerturbation(amplitude=5.0, seed=0)
    op = sl.build_operator(sl.nearest_neighbor(),
                           sl.PotentialSpec(perturbation=pert), 30)
    assert op.perturbation_sup == np.max(np.abs(op.perturbation_values))
    assert 0.0 < op.perturbation_sup <= 5.0


def test_periodic_and_explicit_perturbations():
    per = sl.PeriodicPerturbation(pattern=(1.0, -1.0))
    np.testing.assert_array_equal(
        per.values(np.array([-2, -1, 0, 1])), [1.0, -1.0, 1.0, -1.0])
    exp = sl.ExplicitPerturbation(first_site=-1, table=(5.0, 6.0, 7.0))
    np.testing.assert_array_equal(
        exp.values(np.array([-2, -1, 0, 1, 2])), [0.0, 5.0, 6.0, 7.0, 0.0])


def test_maryland_diagonal_values():
    freq = (np.sqrt(5.0) - 1.0) / 2.0
    mary = sl.MarylandPotential(coupling=0.7, frequency=freq, phase=0.3)
    pot = sl.PotentialSpec(field_slope=None, maryland=mary)
    op = sl.build_operator(sl.custom_kernel({}), pot, 3)
    sites = np.arange(-3, 4)
    np.testing.assert_allclose(
        np.diag(op.matrix), 0.7 * np.tan(np.pi * (0.3 + sites * freq)),
        rtol=1e-15)
    assert pot.family == "maryland"


def test_maryland_resonance_guard():
    # frequency 1/2 with phase 0 puts site 1 exactly on a tangent pole
    mary = sl.MarylandPotential(coupling=1.0, frequency=0.5, phase=0.0)
    pot = sl.PotentialSpec(field_slope=None, maryland=mary)
    with pytest.raises(sl.MarylandResonanceError):
        sl.build_operator(sl.nearest_neighbor(), pot, 2)


def test_maryland_near_resonance_guard_margin():
    # phase parks site 0 within 1e-7 of the pole at 1/2
    mary = sl.MarylandPotential(coupling=1.0, frequency=0.38,
                                phase=0.5 + 1e-7)
    pot = sl.PotentialSpec(field_slope=None, maryland=mary)
    with pytest.raises(sl.MarylandResonanceError):
        sl.build_operator(sl.nearest_neighbor(), pot, 1)


def test_maryland_excludes_linear_field():
    mary = sl.MarylandPotential(coupling=1.0, frequency=0.38, phase=0.1)
    with pytest.raises(sl.PotentialError):
        sl.PotentialSpec(field_slope=1.0, maryland=mary)
    with pytest.raises(sl.PotentialError):
        sl.PotentialSpec(field_slope=None, maryland=None)


def test_dimension_guard():
    with pytest.raises(sl.DimensionOverflowError):
        sl.build_operator(sl.nearest_neighbor(), sl.PotentialSpec(), 50,
                          max_dimension=100)
    op = sl.build_operator(sl.nearest_neighbor(), sl.PotentialSpec(), 50,
                           max_dimension=101)
    assert op.dimension == 101


def test_site_row_bookkeeping():
    op = sl.build_operator(sl.nearest_neighbor(), sl.PotentialSpec(), 4)
    np.testing.assert_array_equal(op.sites, np.arange(-4, 5))
    # row r is site r - N: the diagonal carries the field n
    np.testing.assert_array_equal(np.diagonal(op.matrix), op.sites)


def test_matrix_is_read_only():
    op = sl.build_operator(sl.nearest_neighbor(), sl.PotentialSpec(), 2)
    assert "matrix" not in vars(op)
    H = op.matrix
    assert op.matrix is H
    with pytest.raises(ValueError):
        H[0, 0] = 99.0
    with pytest.raises(ValueError):
        op.diagonal[0] = 99.0
    np.testing.assert_array_equal(op.diagonal, np.diagonal(H))


def test_real_kernel_keeps_real_dtype_complex_kernel_does_not():
    real_op = sl.build_operator(sl.power_law(3.0), sl.PotentialSpec(), 3)
    assert real_op.matrix.dtype == real_op.dtype == np.float64
    cplx_op = sl.build_operator(sl.custom_kernel({1: 1j}),
                                sl.PotentialSpec(), 3)
    assert cplx_op.matrix.dtype == cplx_op.dtype == np.complex128


coefficients = st.complex_numbers(min_magnitude=0.0, max_magnitude=5.0,
                                  allow_nan=False, allow_infinity=False)


@given(st.lists(coefficients, min_size=1, max_size=5),
       st.floats(-3.0, 3.0), st.integers(2, 8))
@settings(deadline=None, max_examples=40)
def test_assembly_always_hermitian_and_translation_invariant(half, slope, n):
    kernel = sl.finite_support(half)
    op = sl.build_operator(kernel, sl.PotentialSpec(field_slope=slope), n)
    H = op.matrix
    assert np.array_equal(H, np.asarray(H).conj().T)
    expected = helpers.naive_matrix(kernel, op.potential, n)
    np.testing.assert_allclose(H, expected, rtol=1e-15, atol=0.0)
