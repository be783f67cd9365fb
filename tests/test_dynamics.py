import math
from dataclasses import replace

import numpy as np
import pytest

import helpers
import starklab as sl
from starklab import dynamics

EPS = np.finfo(float).eps


def _stationary_setup():
    op = sl.build_operator(sl.custom_kernel({}), sl.PotentialSpec(), 12)
    return sl.diagonalize(op, interior_window=2)


def _amplitudes(sd, source, times):
    # psi_t as the library builds it, on the full spectrum, one column per
    # time
    row = sd.eigenvectors[sd.row_of_site(source)]
    return dynamics._amplitudes(sd.eigenvectors, sd.eigenvalues, row.conj(),
                                np.asarray(times, dtype=float))


def _series(sd, source, qs, times):
    # the series from the envelope of its own source and moments, as the
    # dynamics stage builds it
    return sl.moment_series(sd, sl.envelope(sd, source, qs), qs, times)


def _set_chunk(monkeypatch, chunk):
    # moment_series with psi built `chunk` times at a time off the uniform
    # prefix and `chunk` mode pairs spread onto the FFT grid at a time
    monkeypatch.setattr(dynamics, "_DIRECT_TIMES", chunk)
    monkeypatch.setattr(dynamics, "_SPREAD_PAIRS", chunk)


def test_zero_kernel_packet_only_rotates_its_phase():
    sd = _stationary_setup()
    amps = _amplitudes(sd, 2, [7.0])[:, 0]
    row = sd.row_of_site(2)
    assert amps[row] == pytest.approx(np.exp(-1j * 2.0 * 7.0), abs=1e-12)
    rest = np.delete(np.abs(amps), row)
    assert np.max(rest) <= 1e-14
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)


def test_zero_kernel_moment_is_constant_in_time():
    sd = _stationary_setup()
    series = _series(sd, 5, (2.0,), [0.0, 0.3, 2.0, 50.0])
    np.testing.assert_allclose(series.values, 25.0, atol=1e-10)
    assert series.running_sup[0] == pytest.approx(25.0, abs=1e-10)
    # from site 0 every mode pair has zero weight: E_q = 0, nothing kept
    origin = _series(sd, 0, (2.0, 3.0), [0.0, 0.3, 2.0, 50.0])
    assert origin.dropped == (0.0, 0.0)
    np.testing.assert_array_equal(origin.values, 0.0)


def test_time_zero_returns_the_source_delta(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    expected = np.zeros(sd.dimension)
    expected[sd.row_of_site(0)] = 1.0
    np.testing.assert_allclose(_amplitudes(sd, 0, [0.0])[:, 0], expected,
                               atol=1e-10)
    np.testing.assert_allclose(helpers.evolved_amplitudes(sd, 0, 0.0),
                               expected, atol=1e-10)


def test_unitarity_over_long_times(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    amps = _amplitudes(sd, 1, [0.0, 1.0, 10.0, 1e6])
    assert np.max(np.abs(np.linalg.norm(amps, axis=0) - 1.0)) <= 1e-10


def test_group_law(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    direct, first = _amplitudes(sd, 0, [3.7, 1.2]).T
    stepped = helpers.stepped_amplitudes(sd, first, 2.5)
    np.testing.assert_allclose(stepped, direct, atol=1e-8)


def test_propagate_matches_single_time_evolution(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    times = [0.0, 0.5, 2.0, 9.0]
    amps = _amplitudes(sd, 0, times)
    for j, t in enumerate(times):
        np.testing.assert_allclose(
            amps[:, j], helpers.evolved_amplitudes(sd, 0, t), atol=1e-12)


def _assert_propagates_like_single_times(sd, source, times):
    amps = _amplitudes(sd, source, times)
    for j, t in enumerate(times):
        np.testing.assert_allclose(
            amps[:, j], helpers.evolved_amplitudes(sd, source, t),
            rtol=0, atol=1e-12)


@pytest.mark.parametrize("times", [
    # the uniform prefix of 17 ends inside the third chunk of 7
    # (of directly built times and of pairs spread at once)
    np.concatenate([np.arange(17) * 0.3, [5.2, 5.9, 100.0, 1e4, 2.5e5]]),
    # no prefix: the grid does not start at 0
    2.5 + np.arange(20) * 0.3,
    # k * dt misses the linspace end point in the last bits
    np.linspace(0.0, 7.3, 34),
    [3.3],
    [0.0],
], ids=["prefix-ends-mid-chunk", "offset", "linspace", "single", "zero"])
def test_phase_table_grids_match_single_time_evolution(spectrum_cache,
                                                       monkeypatch, times):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    _assert_propagates_like_single_times(sd, 0, times)
    # the moments on the same grid, in chunks of 7: the reference rounds
    # lambda * t, the pair sums delta * t, so the two part by about
    # 1e-16 * lambda * t of the moment
    _set_chunk(monkeypatch, 7)
    qs = (2.0, 2.5)
    env = sl.envelope(sd, 0, qs)
    series = sl.moment_series(sd, env, qs, times)
    times = np.asarray(times, dtype=float)
    for i, q in enumerate(qs):
        direct = [helpers.moment_of(sd.sites,
                                    helpers.evolved_amplitudes(sd, 0, t), q)
                  for t in times]
        gap = np.abs(series.values[i] - direct)
        assert np.all(gap <= 1e-12 * env.moment_bound(q) * (1 + times / 1e4))


def test_uniform_prefix_is_checked_exactly():
    def prefix(times):
        return dynamics._uniform_prefix(np.asarray(times, dtype=float))[1]

    assert prefix(np.concatenate([np.arange(17) * 0.3, [5.2]])) == 17
    assert prefix(2.5 + np.arange(20) * 0.3) == 0
    assert prefix(np.linspace(0.0, 7.3, 34)) == 33
    assert prefix([3.3]) == 0
    assert prefix([0.0]) == 1
    assert prefix([]) == 0
    default = sl.time_grid()
    assert dynamics._uniform_prefix(default) == (0.05, 20001)
    assert default.size == 20101


def test_complex_spectrum_takes_the_phase_table():
    op = sl.build_operator(sl.nearest_neighbor(0.6 + 0.8j),
                           sl.PotentialSpec(), 30)
    sd = sl.diagonalize(op, interior_window=8)
    assert np.iscomplexobj(sd.eigenvectors)
    times = np.concatenate([np.arange(17) * 0.3, [5.2, 5.9, 100.0, 1e4]])
    _assert_propagates_like_single_times(sd, 2, times)


def test_moment_series_agrees_across_chunk_sizes(spectrum_cache,
                                                monkeypatch):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    times = sl.time_grid(dt=0.05, t_max=50.0, quasi_random=20)
    # psi built 1, 7, 256 or 4096 times at a time, pairs spread as many
    # at a time
    series = []
    for chunk in (1, 7, 256, 4096):
        _set_chunk(monkeypatch, chunk)
        series.append(_series(sd, 1, (2.0, 2.5), times).values)
    for values in series[1:]:
        for i in range(2):
            assert (np.max(np.abs(values[i] - series[0][i]))
                    <= 1e-12 * np.max(series[0][i]))


def _extended_precision_gaps(kernel, times):
    # The reference turns every phase in np.longdouble from the same
    # float64 eigenvalues and times; what is left is the float64 rounding
    # of delta * t on the uniform prefix and of lambda * t at the far
    # samples (t up to 1e6), where it is largest.  Returns the gap of each
    # q's series relative to its largest reference value.
    if not np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
        pytest.skip("np.longdouble is no wider than float64 here")
    pert = sl.UniformRandomPerturbation(amplitude=0.5, seed=2)
    op = sl.build_operator(kernel, sl.PotentialSpec(perturbation=pert), 30)
    sd = sl.diagonalize(op, interior_window=8)
    qs = (2.0, 2.5)
    series = _series(sd, 0, qs, times)
    angle = np.multiply.outer(sd.eigenvalues.astype(np.longdouble),
                              times.astype(np.longdouble))
    phases = np.cos(angle).astype(float) - 1j * np.sin(angle).astype(float)
    coeffs = sd.eigenvectors[sd.row_of_site(0)].conj()
    psi = sd.eigenvectors @ (coeffs[:, None] * phases)
    reference = (np.abs(sd.sites.astype(float)) ** np.array(qs)[:, None]
                 @ np.abs(psi) ** 2)
    return [np.abs(series.values[i] - reference[i]) / np.max(reference[i])
            for i in range(len(qs))]


def _assert_default_grid_bounds(kernel):
    times = sl.time_grid()
    _, prefix = dynamics._uniform_prefix(times)
    assert 0 < prefix < times.size
    for gap in _extended_precision_gaps(kernel, times):
        assert np.max(gap) <= 4.1e-11
        assert np.max(gap[:prefix]) <= 2e-13


def test_default_grid_moments_against_extended_precision_phases():
    _assert_default_grid_bounds(sl.power_law(4.0))


@pytest.mark.parametrize("kernel", [
    sl.power_law(2.5), sl.nearest_neighbor(0.6 + 0.8j),
], ids=["p2.5", "complex-nn"])
def test_other_kernels_moments_against_extended_precision_phases(kernel):
    _assert_default_grid_bounds(kernel)


def test_pair_path_moments_against_extended_precision_phases():
    # the uniform prefix of the default grid alone: every sample is a sum
    # over kept mode pairs
    times = sl.time_grid()
    times = times[:dynamics._uniform_prefix(times)[1]]
    for gap in _extended_precision_gaps(sl.power_law(4.0), times):
        assert np.max(gap) <= 2e-13


def test_pruned_series_stays_within_its_dropped_weight(spectrum_cache,
                                                       monkeypatch):
    # Dropping pairs of total weight D moves every sample by at most D.
    # The reference keeps every nonzero pair (a zero budget); the slack
    # covers the rounding of the two cosine sums.
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    times = sl.time_grid()
    qs = (2.0, 2.5)
    env = sl.envelope(sd, 0, qs)
    monkeypatch.setattr(dynamics, "PAIR_BUDGET", 0.0)
    full = sl.moment_series(sd, env, qs, times)
    assert full.dropped == (0.0, 0.0)
    for budget in (1e-14, 1e-9, 1e-4):
        monkeypatch.setattr(dynamics, "PAIR_BUDGET", budget)
        pruned = sl.moment_series(sd, env, qs, times)
        for i, q in enumerate(qs):
            e_q = env.moment_bound(q)
            assert 0.0 < pruned.dropped[i] <= budget * e_q * (1 + 1e-12)
            gap = np.abs(pruned.values[i] - full.values[i])
            assert np.max(gap) <= pruned.dropped[i] + 16 * EPS * e_q


def test_moment_series_matches_pointwise_moments(spectrum_cache,
                                                 monkeypatch):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    times = np.linspace(0.0, 5.0, 11)
    _set_chunk(monkeypatch, 3)
    series = _series(sd, 0, (2.5,), times)
    direct = [helpers.moment_of(sd.sites,
                                helpers.evolved_amplitudes(sd, 0, t), 2.5)
              for t in times]
    np.testing.assert_allclose(series.values[0], direct, rtol=1e-12,
                               atol=1e-12)


def test_real_and_complex_eigenvectors_propagate_alike(spectrum_cache,
                                                       monkeypatch):
    # real eigenvectors take the interleaved real GEMM; the same ones
    # times a unit phase per mode give the same psi_t through the complex
    # GEMM and the same moments through complex pair weights; 23 times in
    # chunks of 5
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    assert np.isrealobj(sd.eigenvectors)
    phases = np.exp(1j * np.random.default_rng(4).uniform(0, 6, sd.dimension))
    sdc = replace(sd, eigenvectors=sd.eigenvectors * phases)
    times = sl.time_grid(dt=0.5, t_max=10.0, quasi_random=2, far_horizon=1e6)
    assert times.size == 23
    _set_chunk(monkeypatch, 5)
    real = _series(sd, 0, (2.0, 2.5), times).values
    cplx = _series(sdc, 0, (2.0, 2.5), times).values
    for i in range(2):
        assert np.max(np.abs(real[i] - cplx[i])) <= 1e-12 * np.max(cplx[i])
    np.testing.assert_allclose(_amplitudes(sd, 3, times),
                               _amplitudes(sdc, 3, times),
                               rtol=0, atol=1e-12)
    env = sl.envelope(sd, 0, qs=(2.0,))
    defects = [helpers.majorant_defect(_amplitudes(s, 0, times),
                                       env.majorant) for s in (sd, sdc)]
    assert defects[0] == pytest.approx(defects[1], abs=1e-12)


@pytest.mark.parametrize("kernel, dtype", [
    (sl.power_law(4.0), np.float64),
    (sl.nearest_neighbor(0.6 + 0.8j), np.complex128),
], ids=["real", "complex"])
def test_reloaded_spectrum_keeps_its_dtype_and_moments(tmp_path, monkeypatch,
                                                       kernel, dtype):
    pert = sl.UniformRandomPerturbation(amplitude=0.5, seed=2)
    op = sl.build_operator(kernel, sl.PotentialSpec(perturbation=pert), 30)
    sd = sl.diagonalize(op, interior_window=8)
    sl.save_spectral(sd, str(tmp_path / "spec"))
    back = sl.load_spectral(str(tmp_path / "spec"))
    assert sd.eigenvectors.dtype == back.eigenvectors.dtype == dtype
    np.testing.assert_array_equal(back.eigenvectors, sd.eigenvectors)
    np.testing.assert_array_equal(back.centers, sd.centers)
    times = np.linspace(0.0, 30.0, 13)
    _set_chunk(monkeypatch, 5)
    np.testing.assert_array_equal(
        _series(back, 0, (2.0,), times).values,
        _series(sd, 0, (2.0,), times).values)


def test_empty_time_grid_is_rejected():
    sd = _stationary_setup()
    with pytest.raises(ValueError, match="nonempty time grid"):
        _series(sd, 0, (2.0,), [])


@pytest.mark.parametrize("kernel", [
    sl.power_law(4.0), sl.nearest_neighbor(0.6 + 0.8j),
], ids=["real", "complex"])
def test_bad_dynamics_input_is_rejected(kernel):
    sd = sl.diagonalize(sl.build_operator(kernel, sl.PotentialSpec(), 30),
                        interior_window=8)
    times = [0.0, 0.5, 1.0]
    with pytest.raises(ValueError, match="at least one moment exponent"):
        _series(sd, 0, (), times)
    for q in (np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            _series(sd, 0, (2.0, q), times)
        with pytest.raises(ValueError, match="positive and finite"):
            sl.envelope(sd, 0, (q,))
    for bad in ([0.0, np.nan], [0.0, np.inf, 1.0], [[0.0, 0.5], [1.0, 1.5]]):
        with pytest.raises(ValueError, match="1-D grid of finite times"):
            _series(sd, 0, (2.0,), bad)


@pytest.mark.parametrize("kind, amplitude, seed", [
    ("nn", 2.0, 1),  # E_q was NaN (0 * inf) and the verdict read bounded
    ("pl4", 0.0, 0),  # E_q was inf, its boundary share NaN
])
def test_envelope_refuses_a_moment_that_overflows(spectrum_cache, kind,
                                                  amplitude, seed):
    # |n|**400 overflows float64 from |n| = 6 on
    _, sd = spectrum_cache(kind, 100, amplitude, seed)
    with pytest.raises(ValueError, match="overflows float64 at q = 400 from "
                                         "source 0 in the box of half-width "
                                         "100"):
        sl.envelope(sd, 0, (2.0, 400.0))
    assert np.isfinite(sl.envelope(sd, 0, (100.0,)).moment_bound(100.0))


def test_complex_kernel_propagates_like_single_calls(monkeypatch):
    op = sl.build_operator(sl.nearest_neighbor(0.6 + 0.8j),
                           sl.PotentialSpec(), 30)
    sd = sl.diagonalize(op, interior_window=8)
    assert np.iscomplexobj(sd.eigenvectors)
    times = [0.0, 0.4, 3.0, 17.5, 1e5]
    batch = _amplitudes(sd, 2, times)
    _set_chunk(monkeypatch, 2)
    series = _series(sd, 2, (2.0,), times)
    for j, t in enumerate(times):
        amps = helpers.evolved_amplitudes(sd, 2, t)
        np.testing.assert_allclose(batch[:, j], amps, rtol=0, atol=1e-12)
        assert series.values[0, j] == pytest.approx(
            helpers.moment_of(sd.sites, amps, 2.0), rel=1e-12)


def test_complex_gauge_leaves_the_moments_of_the_real_kernel():
    # amplitude 0.6+0.8i is the modulus-1 kernel in the diagonal gauge
    # psi(n) -> exp(i n theta) psi(n), which leaves |psi| unchanged
    pert = sl.UniformRandomPerturbation(amplitude=2.0, seed=3)
    spectra = [sl.diagonalize(sl.build_operator(
        sl.nearest_neighbor(a), sl.PotentialSpec(perturbation=pert), 60),
        interior_window=8) for a in (1.0, 0.6 + 0.8j)]
    assert np.iscomplexobj(spectra[1].eigenvectors)
    times = sl.time_grid()
    real, cplx = (_series(sd, 0, (2.0, 2.5), times).values
                  for sd in spectra)
    for i in range(2):
        assert np.max(np.abs(cplx[i] - real[i])) <= 1e-12 * np.max(real[i])


def test_all_moments_match_separate_series(spectrum_cache, monkeypatch):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    times = np.linspace(0.0, 40.0, 30)
    qs = (2.0, 2.5, 4.0)
    _set_chunk(monkeypatch, 7)
    together = _series(sd, 1, qs, times)
    assert together.qs == qs
    assert together.values.shape == (len(qs), times.size)
    for i, q in enumerate(qs):
        alone = _series(sd, 1, (q,), times)
        np.testing.assert_array_equal(together.times, alone.times)
        np.testing.assert_allclose(together.values[i], alone.values[0],
                                   rtol=0,
                                   atol=1e-14 * alone.running_sup[0])
        assert together.running_sup[i] == np.max(together.values[i])
    with pytest.raises(ValueError):
        _series(sd, 1, (2.0, -1.0), times)


def test_moment_series_refuses_a_foreign_or_short_envelope(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    times = [0.0, 0.5, 1.0]
    # an envelope of a box of the same size and of a larger box
    for other in (spectrum_cache("pl4", 60)[1], spectrum_cache("pl4", 100)[1]):
        with pytest.raises(ValueError, match="another spectrum"):
            sl.moment_series(sd, sl.envelope(other, 0, (2.0,)), (2.0,),
                             times)
    with pytest.raises(ValueError, match=r"no E_q for q = \[2.5\]"):
        sl.moment_series(sd, sl.envelope(sd, 0, (2.0,)), (2.0, 2.5), times)
    # a subset of the envelope's moments, from the envelope's source
    series = sl.moment_series(sd, sl.envelope(sd, 3, (2.0, 2.5)), (2.5,),
                              times)
    assert series.source == 3
    np.testing.assert_array_equal(series.values,
                                  _series(sd, 3, (2.5,), times).values)


def test_moment_exponent_must_be_positive(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    for times in ([0.0], []):
        with pytest.raises(ValueError):
            _series(sd, 0, (0.0,), times)
    with pytest.raises(ValueError):
        sl.envelope(sd, 0, qs=(-2.0,))


def test_source_must_be_interior(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60)
    assert sd.trusted_site_bound == 28
    series = _series(sd, 28, (2.0,), [0.1])
    assert series.source == 28
    with pytest.raises(sl.SourceOutsideInteriorError):
        sl.envelope(sd, 29)
    # the envelope checks the source before the series sees the times
    for times in ([0.1], []):
        with pytest.raises(sl.SourceOutsideInteriorError):
            _series(sd, 29, (2.0,), times)


def test_eigenbasis_propagator_agrees_with_ode_integrator():
    op = sl.build_operator(sl.power_law(4.0), sl.PotentialSpec(), 50)
    sd = sl.diagonalize(op)
    amps = _amplitudes(sd, 0, [1.0, 10.0])
    for j, t in enumerate((1.0, 10.0)):
        expected = helpers.rk45_amplitudes(op, 0, t)
        assert np.max(np.abs(amps[:, j] - expected)) <= 1e-7


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


@pytest.mark.parametrize("grid", [
    {},  # the default grid
    {"dt": 0.1, "t_max": 100.0, "quasi_random": 50},  # study demo
    {"dt": 0.1, "t_max": 200.0, "quasi_random": 50},  # wave packet demo
    {"dt": 0.5, "t_max": 100.0, "quasi_random": 20, "far_horizon": 1e5},
    {"dt": 0.5, "t_max": 100.0, "quasi_random": 20},  # perfbench --quick
    {"dt": 0.5, "t_max": 3.0, "quasi_random": 4, "far_horizon": 0.0}])
def test_time_grid_is_the_unique_of_its_samples(grid):
    # the oracle is np.unique of the uniform and the golden-ratio samples;
    # the last grid folds every far sample onto t = 0
    g = dict(dict(dt=0.05, t_max=1000.0, quasi_random=100,
                  far_horizon=1e6), **grid)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    samples = np.concatenate([
        np.arange(0.0, g["t_max"] + g["dt"] / 2, g["dt"]),
        np.array([((i + 1) * ratio) % 1.0 for i in range(g["quasi_random"])])
        * g["far_horizon"]])
    expected = np.unique(samples)
    times = sl.time_grid(**grid)
    assert times.dtype == expected.dtype
    assert times.tobytes() == expected.tobytes()


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
    defect = helpers.majorant_defect(_amplitudes(sd, 0, times), env.majorant)
    assert defect <= 1e-10
    series = sl.moment_series(sd, env, (2.5,), times)
    assert series.running_sup[0] <= env.moment_bound(2.5) + 1e-10
    # the source column of the majorant matrix carries unit diagonal
    assert env.majorant[sd.row_of_site(0)] >= 1.0 - 1e-8


def test_pure_field_moments_are_periodic(spectrum_cache):
    _, sd = spectrum_cache("nn", 100)
    short = _series(sd, 0, (2.0,), np.arange(0.0, 100.0, 0.05))
    longer = _series(sd, 0, (2.0,), np.arange(0.0, 1000.0, 0.05))
    assert (abs(longer.running_sup[0] - short.running_sup[0])
            / short.running_sup[0] < 0.01)
    # explicit period check at 2*pi
    period = _series(sd, 0, (2.0,), [0.3, 0.3 + 2.0 * np.pi])
    m1, m2 = period.values[0]
    assert m1 == pytest.approx(m2, abs=1e-6)


def _envelopes(spectrum_cache, qs, source=0):
    return [sl.envelope(spectrum_cache("pl4", n)[1], source, qs)
            for n in (200, 400)]


def test_verdict_hypothesis_arithmetic(spectrum_cache):
    _, sd = spectrum_cache("pl4", 100)
    env = sl.envelope(sd, 0, qs=(2.5, 3.0))
    v = sl.moment_bound_verdict(env, alpha=2.0, q=3.0)
    assert not v.hypothesis_satisfied
    assert v.conclusion.startswith("hypothesis not satisfied")
    assert not v.conclusion.startswith("bounded")
    assert not v.growth_not_excluded
    v2 = sl.moment_bound_verdict(env, alpha=3.0, q=2.5)
    assert v2.hypothesis_satisfied


def test_verdict_without_doubling_data(spectrum_cache):
    _, sd = spectrum_cache("pl4", 100)
    v = sl.moment_bound_verdict(sl.envelope(sd, 0), alpha=3.0, q=2.0)
    assert v.doubling_ratio is None
    assert v.conclusion == "doubling data unavailable"
    assert not v.conclusion.startswith("bounded")
    assert not v.growth_not_excluded


def test_verdict_bounded_with_doubling(spectrum_cache):
    small, large = _envelopes(spectrum_cache, (2.0,))
    v = sl.moment_bound_verdict(small, alpha=3.0, q=2.0, doubled=large)
    assert v.hypothesis_satisfied
    assert v.boundary_share < 0.01
    assert v.doubling_ratio is not None
    assert v.doubling_ratio < 1.1
    assert not v.growth_not_excluded
    assert v.conclusion.startswith("bounded")


def test_verdict_growth_not_excluded_under_tight_limit(spectrum_cache,
                                                      monkeypatch):
    small, large = _envelopes(spectrum_cache, (2.0,))
    monkeypatch.setattr(dynamics, "DOUBLING_RATIO_LIMIT", 0.5)
    v = sl.moment_bound_verdict(small, alpha=3.0, q=2.0, doubled=large)
    assert not v.conclusion.startswith("bounded")
    assert v.growth_not_excluded
    assert "growth not excluded" in v.conclusion


def test_verdict_growth_not_excluded_on_a_nan_ratio(spectrum_cache):
    # NaN < limit is false, so a NaN ratio falls through to the failure
    small, large = _envelopes(spectrum_cache, (2.0,))
    share = large.moments[2.0][1]
    broken = replace(large, moments={2.0: (np.nan, share)})
    v = sl.moment_bound_verdict(small, alpha=3.0, q=2.0, doubled=broken)
    assert np.isnan(v.doubling_ratio)
    assert not v.conclusion.startswith("bounded")
    assert v.growth_not_excluded
    assert v.conclusion.startswith("doubling ratio nan")


def test_verdict_inconclusive_when_boundary_leaks():
    op = sl.build_operator(sl.nearest_neighbor(), sl.PotentialSpec(), 12)
    sd = sl.diagonalize(op, interior_window=2)
    v = sl.moment_bound_verdict(sl.envelope(sd, 10), alpha=4.0, q=2.0)
    assert v.hypothesis_satisfied
    assert v.boundary_share >= 0.01
    assert v.conclusion.startswith("inconclusive")
    assert not v.conclusion.startswith("bounded")
    assert not v.growth_not_excluded


def test_doubling_ratio_is_one_where_the_moment_is_zero(spectrum_cache):
    small, large = _envelopes(spectrum_cache, (2.0,))
    assert small.doubling_ratio(large, 2) == \
        large.moment_bound(2.0) / small.moment_bound(2.0)
    zero = replace(small, moments={2.0: (0.0, small.boundary_share(2.0))})
    assert zero.doubling_ratio(large, 2.0) == 1.0


# the verdict takes its ratio, and so these refusals, from doubling_ratio
def test_verdict_rejects_smaller_doubled_box(spectrum_cache):
    small, large = _envelopes(spectrum_cache, (2.0,))
    for doubled in (small, large):
        with pytest.raises(ValueError, match="larger box"):
            large.doubling_ratio(doubled, 2.0)
        with pytest.raises(ValueError, match="larger box"):
            sl.moment_bound_verdict(large, alpha=3.0, q=2.0, doubled=doubled)


def test_verdict_rejects_doubled_envelope_of_another_source(spectrum_cache):
    small, _ = _envelopes(spectrum_cache, (2.0,))
    _, other = _envelopes(spectrum_cache, (2.0,), source=1)
    with pytest.raises(ValueError, match="source 1"):
        small.doubling_ratio(other, 2.0)
    with pytest.raises(ValueError, match="source 1"):
        sl.moment_bound_verdict(small, alpha=3.0, q=2.0, doubled=other)


@pytest.mark.parametrize("start", [0.0, 0.25], ids=["pairs", "gemm"])
def test_repeated_moment_gives_equal_rows(spectrum_cache, start):
    # the envelope keeps one E_q per distinct q; the series keeps every q.
    # From t = 0 the grid is one uniform run, summed over mode pairs; from
    # t = 0.25 it has no uniform prefix, and every sample comes from psi_t
    # by a GEMM.
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    times = start + np.arange(41) * 0.5
    prefix = dynamics._uniform_prefix(times)[1]
    assert prefix == (0 if start else times.size)
    series = _series(sd, 0, (2.0, 2.0), times)
    assert series.qs == (2.0, 2.0)
    assert series.values.shape == (2, times.size)
    np.testing.assert_array_equal(series.values[0], series.values[1])
    assert series.dropped[0] == series.dropped[1]


@pytest.mark.parametrize("kernel", [
    sl.nearest_neighbor(), sl.nearest_neighbor(0.6 + 0.8j), sl.power_law(4.0),
], ids=["nn", "complex-nn", "p4"])
def test_envelope_and_moments_keep_their_bits_in_either_layout(kernel):
    # a spectrum's eigenvectors are column-major; a row-major copy of them
    # gives the same envelope and moments bit for bit, dropped weight too
    pert = sl.UniformRandomPerturbation(amplitude=2.0, seed=1)
    sd = sl.diagonalize(sl.build_operator(
        kernel, sl.PotentialSpec(perturbation=pert), 300))
    assert sd.eigenvectors.flags.f_contiguous
    row_major = replace(sd, eigenvectors=np.ascontiguousarray(
        sd.eigenvectors))
    qs = (2.0, 2.5)
    times = sl.time_grid(dt=0.5, t_max=50.0, quasi_random=20)
    envs = [sl.envelope(s, 0, qs) for s in (sd, row_major)]
    assert envs[0].majorant.tobytes() == envs[1].majorant.tobytes()
    assert envs[0].moments == envs[1].moments
    series = [sl.moment_series(s, env, qs, times)
              for s, env in zip((sd, row_major), envs)]
    assert series[0].values.tobytes() == series[1].values.tobytes()
    assert series[0].dropped == series[1].dropped
