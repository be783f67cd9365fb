import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import starklab as sl
from starklab.kernels import KernelError

# Frozen reference values, computed once with mpmath at 50 digits.
TWO_ZETA_2 = 3.2898681336964529        # 2 * zeta(2)
TWO_ZETA_4 = 2.1646464674222764        # 2 * zeta(4)
PARTIAL_P2_C10 = 3.0995354623330814     # 2 * sum_{1..10} m^-2
PARTIAL_P4_C100 = 2.1646458106889464    # 2 * sum_{1..100} m^-4
AMPLITUDE_P4_M3 = 0.012345679012345679     # 3^-4


def test_power_law_partial_sums_match_frozen_references():
    assert sl.weighted_norm(sl.power_law(2.0), 10).partial_sum == \
        pytest.approx(PARTIAL_P2_C10, abs=1e-14)
    assert sl.weighted_norm(sl.power_law(4.0), 100).partial_sum == \
        pytest.approx(PARTIAL_P4_C100, abs=1e-14)


def test_power_law_large_cutoff_lands_within_tail_bound_of_limit():
    wn = sl.weighted_norm(sl.power_law(2.0), 10 ** 6)
    assert wn.tail_bound == pytest.approx(2e-6, rel=1e-12)
    # true remainder is 2/c - 1/c^2 + O(c^-3), strictly inside the bound
    assert abs(wn.partial_sum - TWO_ZETA_2) <= wn.tail_bound
    assert wn.upper_bound >= TWO_ZETA_2


def test_power_law_unweighted_limit():
    wn = sl.weighted_norm(sl.power_law(4.0), 10 ** 6)
    assert abs(wn.partial_sum - TWO_ZETA_4) <= wn.tail_bound


def test_nearest_neighbor_norms_are_exactly_two():
    k = sl.nearest_neighbor()
    assert sl.weighted_norm(k, 1).partial_sum == 2.0
    assert sl.weighted_norm(k, 5).partial_sum == 2.0
    assert sl.weighted_norm(k, 1).tail_bound == 0.0
    assert sl.weighted_norm(k, 1).upper_bound == 2.0


def test_power_law_amplitudes():
    k = sl.power_law(4.0)
    assert k.amplitude(3) == pytest.approx(AMPLITUDE_P4_M3, abs=1e-18)
    assert k.amplitude(-3) == k.amplitude(3)
    assert k.amplitude(0) == 0.0
    assert k.infinite_support
    np.testing.assert_allclose(
        k.amplitudes(np.array([-2, 0, 1])), [2.0 ** -4, 0.0, 1.0])


def test_power_law_rejects_exponent_at_or_below_one():
    for bad in (1.0, 0.5, 0.0, -2.0):
        with pytest.raises(KernelError):
            sl.power_law(bad)


def test_onsite_entry_rejected():
    with pytest.raises(KernelError):
        sl.custom_kernel({0: 1.0})


def test_asymmetric_table_rejected():
    # a(-1) must equal conj(a(1))
    with pytest.raises(KernelError):
        sl.custom_kernel({1: 1 + 2j, -1: 1 + 2j})


def test_positive_half_is_mirrored():
    k = sl.custom_kernel({1: 1 + 2j, 3: 0.5})
    assert k.amplitude(-1) == 1 - 2j
    assert k.amplitude(-3) == 0.5
    assert k.amplitude(2) == 0.0
    assert k.support_radius == 3
    assert not k.is_real


def test_full_symmetric_table_accepted():
    k = sl.custom_kernel({1: 1 + 2j, -1: 1 - 2j})
    assert k.amplitude(1) == 1 + 2j
    assert k.amplitude(-1) == 1 - 2j


def test_empty_table_gives_zero_kernel():
    k = sl.custom_kernel({})
    assert k.entries == ()
    assert k.support_radius == 0
    assert k.amplitude(5) == 0.0
    wn = sl.weighted_norm(k, 5)
    assert wn.partial_sum == 0.0
    assert wn.upper_bound == 0.0


def test_finite_support_from_half_list():
    k = sl.finite_support([0.5, 0.0, 0.25])
    assert k.support_radius == 3
    assert k.amplitude(1) == 0.5
    assert k.amplitude(2) == 0.0
    assert k.amplitude(-3) == 0.25
    wn = sl.weighted_norm(k, 3)
    assert wn.partial_sum == pytest.approx(2 * (0.5 + 0.25), abs=1e-15)
    assert wn.tail_bound == 0.0


def test_cutoff_must_cover_finite_support():
    k = sl.finite_support([1.0, 1.0])
    with pytest.raises(ValueError):
        sl.weighted_norm(k, 1)


def test_weighted_norm_argument_validation():
    with pytest.raises(ValueError):
        sl.weighted_norm(sl.nearest_neighbor(), 0)


def test_build_kernel_dispatch():
    k = sl.build_kernel("power_law", exponent=2.5)
    assert k.family == "power_law"
    assert k.exponent == 2.5
    nn = sl.build_kernel("nearest_neighbor", amplitude=2.0)
    assert nn.amplitude(1) == 2.0
    with pytest.raises(KernelError):
        sl.build_kernel("gaussian")
    with pytest.raises(KernelError):
        sl.build_kernel("power_law", wrong_param=1)


def test_describe_round_trips_through_build_kernel():
    for k in (sl.nearest_neighbor(0.5 + 0.5j),
              sl.power_law(3.5),
              sl.finite_support([1.0, 0.5j]),
              sl.custom_kernel({2: 1.5})):
        desc = k.describe()
        family = desc.pop("family")
        rebuilt = sl.build_kernel(family, **desc)
        for m in range(-5, 6):
            assert rebuilt.amplitude(m) == k.amplitude(m)


@pytest.mark.parametrize("build", [
    lambda: sl.nearest_neighbor({"re": "1.5"}),
    lambda: sl.build_kernel("finite_support", half=[{"re": True}]),
    lambda: sl.nearest_neighbor("1.5"),
    lambda: sl.nearest_neighbor(True),
    lambda: sl.custom_kernel({1: {"re": 1.0, "phase": 0.5}}),
], ids=["string-part", "bool-part", "string", "bool", "unknown-part"])
def test_amplitude_must_be_a_number_or_real_parts(build):
    with pytest.raises(KernelError):
        build()


def test_power_law_takes_no_cutoff():
    # the rule holds at every offset; a box reads as many as it needs
    k = sl.power_law(4.0)
    assert k.describe() == {"family": "power_law", "exponent": 4.0}
    assert k.amplitude(10 ** 6) == pytest.approx(1e-24)
    with pytest.raises(KernelError):
        sl.build_kernel("power_law", exponent=4.0, cutoff=3)


coefficients = st.complex_numbers(min_magnitude=0.0, max_magnitude=10.0,
                                  allow_nan=False, allow_infinity=False)


@given(st.lists(coefficients, min_size=1, max_size=8))
@settings(deadline=None)
def test_symmetry_invariant_for_any_half_list(half):
    k = sl.finite_support(half)
    assert k.amplitude(0) == 0.0
    for m in range(1, len(half) + 2):
        assert k.amplitude(-m) == complex(k.amplitude(m)).conjugate()


@given(st.integers(1, 60), st.integers(1, 60))
@settings(deadline=None)
def test_power_law_partial_sum_monotone_in_cutoff(c1, c2):
    k = sl.power_law(2.0)
    lo, hi = sorted((c1, c2))
    small = sl.weighted_norm(k, lo)
    large = sl.weighted_norm(k, hi)
    assert small.partial_sum <= large.partial_sum + 1e-15
    # an upper bound at any cutoff dominates every later partial sum
    assert small.upper_bound >= large.partial_sum


@given(st.lists(coefficients, min_size=1, max_size=6))
@settings(deadline=None)
def test_plain_norm_dominates_largest_amplitude(half):
    k = sl.finite_support(half)
    cutoff = max(k.support_radius, 1)
    wn = sl.weighted_norm(k, cutoff)
    assert wn.partial_sum >= max((abs(v) for _, v in k.entries),
                                 default=0.0) - 1e-12
