from dataclasses import replace

import numpy as np
import pytest

import helpers
import starklab as sl
from starklab.dynamics import _moment_series_all


def _stationary_setup():
    op = sl.build_operator(sl.custom_kernel({}), sl.PotentialSpec(), 12)
    return sl.diagonalize(op, interior_window=2)


def test_zero_kernel_packet_only_rotates_its_phase():
    sd = _stationary_setup()
    packet = sl.evolve(sd, 2, 7.0)
    row = sd.row_of_site(2)
    assert packet.amplitudes[row] == pytest.approx(np.exp(-1j * 2.0 * 7.0),
                                                   abs=1e-12)
    rest = np.delete(np.abs(packet.amplitudes), row)
    assert np.max(rest) <= 1e-14
    assert packet.norm == pytest.approx(1.0, abs=1e-12)


def test_zero_kernel_moment_is_constant_in_time():
    sd = _stationary_setup()
    series = sl.moment_series(sd, 5, q=2.0, times=[0.0, 0.3, 2.0, 50.0])
    np.testing.assert_allclose(series.values, 25.0, atol=1e-10)
    assert series.running_sup == pytest.approx(25.0, abs=1e-10)


def test_time_zero_returns_the_source_delta(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    packet = sl.evolve(sd, 0, 0.0)
    expected = np.zeros(sd.dimension)
    expected[sd.row_of_site(0)] = 1.0
    np.testing.assert_allclose(packet.amplitudes, expected, atol=1e-10)


def test_unitarity_over_long_times(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    for t in (0.0, 1.0, 10.0, 1e6):
        packet = sl.evolve(sd, 1, t)
        assert abs(packet.norm - 1.0) <= 1e-10


def test_group_law(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    direct = sl.evolve(sd, 0, 3.7)
    stepped = sl.evolve_packet(sd, sl.evolve(sd, 0, 1.2), 2.5)
    np.testing.assert_allclose(stepped.amplitudes, direct.amplitudes,
                               atol=1e-8)
    assert stepped.time == pytest.approx(3.7)


def test_evolve_batch_matches_single_calls(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    times = [0.0, 0.5, 2.0, 9.0]
    batch = sl.evolve_batch(sd, 0, times)
    for j, t in enumerate(times):
        np.testing.assert_allclose(batch[:, j],
                                   sl.evolve(sd, 0, t).amplitudes,
                                   atol=1e-12)
    for chunk in (0, -3):
        with pytest.raises(ValueError):
            sl.evolve_batch(sd, 0, times, chunk=chunk)


def test_moment_series_matches_pointwise_moments(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    times = np.linspace(0.0, 5.0, 11)
    series = sl.moment_series(sd, 0, q=2.5, times=times, chunk=3)
    direct = [sl.moment(sl.evolve(sd, 0, t), 2.5) for t in times]
    np.testing.assert_allclose(series.values, direct, rtol=1e-12, atol=1e-12)


def test_real_and_complex_eigenvectors_propagate_alike(spectrum_cache):
    # real eigenvectors take the cos/sin GEMM; the same ones times a unit
    # phase per mode give the same psi_t through the complex exponential;
    # 23 times in chunks of 5
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    assert np.isrealobj(sd.eigenvectors)
    phases = np.exp(1j * np.random.default_rng(4).uniform(0, 6, sd.dimension))
    sdc = replace(sd, eigenvectors=sd.eigenvectors * phases)
    times = sl.time_grid(dt=0.5, t_max=10.0, quasi_random=2, far_horizon=1e6)
    assert times.size == 23
    for q in (2.0, 2.5):
        real = sl.moment_series(sd, 0, q, times, chunk=5).values
        cplx = sl.moment_series(sdc, 0, q, times, chunk=5).values
        assert np.max(np.abs(real - cplx)) <= 1e-12 * np.max(cplx)
    np.testing.assert_allclose(sl.evolve_batch(sd, 3, times, chunk=5),
                               sl.evolve_batch(sdc, 3, times, chunk=5),
                               rtol=0, atol=1e-12)
    env = sl.envelope(sd, 0, qs=(2.0,))
    assert sl.majorant_defect(sd, env, times, chunk=5) == pytest.approx(
        sl.majorant_defect(sdc, env, times, chunk=5), abs=1e-12)


def test_reloaded_real_spectrum_takes_the_real_path(spectrum_cache):
    # dumps store real eigenvectors as complex; the moments of the
    # reloaded spectrum are the same bytes
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    cast = replace(sd, eigenvectors=sd.eigenvectors.astype(complex))
    times = np.linspace(0.0, 30.0, 13)
    np.testing.assert_array_equal(
        sl.moment_series(cast, 0, 2.0, times, chunk=5).values,
        sl.moment_series(sd, 0, 2.0, times, chunk=5).values)


def test_complex_kernel_propagates_like_single_calls():
    op = sl.build_operator(sl.nearest_neighbor(0.6 + 0.8j),
                           sl.PotentialSpec(), 30)
    sd = sl.diagonalize(op, interior_window=8)
    assert np.iscomplexobj(sd.eigenvectors)
    times = [0.0, 0.4, 3.0, 17.5, 1e5]
    batch = sl.evolve_batch(sd, 2, times, chunk=2)
    series = sl.moment_series(sd, 2, q=2.0, times=times, chunk=2)
    for j, t in enumerate(times):
        packet = sl.evolve(sd, 2, t)
        np.testing.assert_allclose(batch[:, j], packet.amplitudes,
                                   rtol=0, atol=1e-12)
        assert series.values[j] == pytest.approx(sl.moment(packet, 2.0),
                                                 rel=1e-12)


def test_all_moments_match_separate_series(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    times = np.linspace(0.0, 40.0, 30)
    qs = (2.0, 2.5, 4.0)
    together = _moment_series_all(sd, 1, qs, times, chunk=7)
    assert [s.q for s in together] == list(qs)
    for q, series in zip(qs, together):
        alone = sl.moment_series(sd, 1, q, times, chunk=7)
        np.testing.assert_array_equal(series.times, alone.times)
        np.testing.assert_allclose(series.values, alone.values,
                                   rtol=0, atol=1e-14 * alone.running_sup)
    with pytest.raises(ValueError):
        _moment_series_all(sd, 1, (2.0, -1.0), times)


def test_moment_exponent_must_be_positive(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    for times in ([0.0], []):
        with pytest.raises(ValueError):
            sl.moment_series(sd, 0, q=0.0, times=times)
    packet = sl.evolve(sd, 0, 1.0)
    with pytest.raises(ValueError):
        sl.moment(packet, -2.0)


def test_source_must_be_interior(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60)
    assert sd.trusted_site_bound == 28
    sl.evolve(sd, 28, 0.1)
    with pytest.raises(sl.SourceOutsideInteriorError):
        sl.evolve(sd, 29, 0.1)
    # the batched propagators check the source before any time is drawn
    for times in ([0.1], []):
        with pytest.raises(sl.SourceOutsideInteriorError):
            sl.evolve_batch(sd, 29, times)
        with pytest.raises(sl.SourceOutsideInteriorError):
            sl.moment_series(sd, 29, 2.0, times)


def test_eigenbasis_propagator_agrees_with_ode_integrator():
    op = sl.build_operator(sl.power_law(4.0), sl.PotentialSpec(), 50)
    sd = sl.diagonalize(op)
    for t in (1.0, 10.0):
        expected = helpers.rk45_amplitudes(op, 0, t)
        packet = sl.evolve(sd, 0, t)
        assert np.max(np.abs(packet.amplitudes - expected)) <= 1e-7


def test_time_grid_is_deterministic_and_sorted():
    g1 = sl.time_grid(dt=0.5, t_max=10.0, quasi_random=5, far_horizon=1e4)
    g2 = sl.time_grid(dt=0.5, t_max=10.0, quasi_random=5, far_horizon=1e4)
    np.testing.assert_array_equal(g1, g2)
    assert g1[0] == 0.0
    assert np.all(np.diff(g1) > 0)
    assert g1.size == 21 + 5
    assert g1[-1] <= 1e4
    with pytest.raises(ValueError):
        sl.time_grid(dt=0.0)


def test_envelope_zero_kernel_is_a_point_mass():
    sd = _stationary_setup()
    env = sl.envelope(sd, 3, qs=(2.0, 4.0))
    expected = np.zeros(sd.dimension)
    expected[sd.row_of_site(3)] = 1.0
    np.testing.assert_allclose(env.majorant, expected, atol=1e-14)
    assert env.moment_bound(2.0) == pytest.approx(9.0, abs=1e-12)
    assert env.moment_bound(4.0) == pytest.approx(81.0, abs=1e-12)
    assert env.boundary_share(2.0) == 0.0
    zero_env = sl.envelope(sd, 0, qs=(2.0,))
    assert zero_env.moment_bound(2.0) == pytest.approx(0.0, abs=1e-20)
    assert zero_env.boundary_share(2.0) == 0.0


def test_envelope_majorizes_the_motion(spectrum_cache):
    _, sd = spectrum_cache("pl4", 100)
    times = sl.time_grid(dt=0.5, t_max=50.0, quasi_random=20)
    env = sl.envelope(sd, 0, qs=(2.5,))
    assert sl.majorant_defect(sd, env, times) <= 1e-10
    series = sl.moment_series(sd, 0, q=2.5, times=times)
    assert series.running_sup <= env.moment_bound(2.5) + 1e-10
    # the source column of the majorant matrix carries unit diagonal
    assert env.majorant[sd.row_of_site(0)] >= 1.0 - 1e-8


def test_pure_field_moments_are_periodic(spectrum_cache):
    _, sd = spectrum_cache("nn", 100)
    short = sl.moment_series(sd, 0, q=2.0,
                             times=np.arange(0.0, 100.0, 0.05))
    longer = sl.moment_series(sd, 0, q=2.0,
                              times=np.arange(0.0, 1000.0, 0.05))
    assert abs(longer.running_sup - short.running_sup) / short.running_sup < 0.01
    # explicit period check at 2*pi
    m1 = sl.moment(sl.evolve(sd, 0, 0.3), 2.0)
    m2 = sl.moment(sl.evolve(sd, 0, 0.3 + 2.0 * np.pi), 2.0)
    assert m1 == pytest.approx(m2, abs=1e-6)


def test_verdict_hypothesis_arithmetic(spectrum_cache):
    _, sd = spectrum_cache("pl4", 100)
    v = sl.moment_bound_verdict(sd, alpha=2.0, q=3.0)
    assert not v.hypothesis_satisfied
    assert v.conclusion.startswith("hypothesis not satisfied")
    assert not v.asserts_bounded
    v2 = sl.moment_bound_verdict(sd, alpha=3.0, q=2.5)
    assert v2.hypothesis_satisfied


def test_verdict_without_doubling_data(spectrum_cache):
    _, sd = spectrum_cache("pl4", 100)
    v = sl.moment_bound_verdict(sd, alpha=3.0, q=2.0)
    assert v.doubling_ratio is None
    assert v.conclusion == "doubling data unavailable"
    assert not v.asserts_bounded


def test_verdict_bounded_with_doubling(spectrum_cache):
    _, small = spectrum_cache("pl4", 200)
    _, large = spectrum_cache("pl4", 400)
    v = sl.moment_bound_verdict(small, alpha=3.0, q=2.0, doubled=large)
    assert v.hypothesis_satisfied
    assert v.boundary_share < 0.01
    assert v.doubling_ratio is not None
    assert v.doubling_ratio < 1.1
    assert v.asserts_bounded
    assert v.conclusion.startswith("bounded")


def test_verdict_growth_not_excluded_under_tight_limit(spectrum_cache):
    _, small = spectrum_cache("pl4", 200)
    _, large = spectrum_cache("pl4", 400)
    v = sl.moment_bound_verdict(small, alpha=3.0, q=2.0, doubled=large,
                                ratio_limit=0.5)
    assert not v.asserts_bounded
    assert "growth not excluded" in v.conclusion


def test_verdict_inconclusive_when_boundary_leaks():
    op = sl.build_operator(sl.nearest_neighbor(), sl.PotentialSpec(), 12)
    sd = sl.diagonalize(op, interior_window=2)
    v = sl.moment_bound_verdict(sd, alpha=4.0, q=2.0, source=10)
    assert v.hypothesis_satisfied
    assert v.boundary_share >= 0.01
    assert v.conclusion.startswith("inconclusive")
    assert not v.asserts_bounded


def test_verdict_rejects_smaller_doubled_box(spectrum_cache):
    _, small = spectrum_cache("pl4", 200)
    _, large = spectrum_cache("pl4", 400)
    with pytest.raises(ValueError):
        sl.moment_bound_verdict(large, alpha=3.0, q=2.0, doubled=small)
