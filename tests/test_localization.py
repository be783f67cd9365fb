import dataclasses
import math

import numpy as np
import pytest

import starklab as sl
from starklab.localization import asymptotics_rows, decay_rows
from starklab.spectra import _column_scan


def test_zero_kernel_pins_exactly():
    op = sl.build_operator(sl.custom_kernel({}), sl.PotentialSpec(), 12)
    sd = sl.diagonalize(op)
    rep = sl.check_eigenvalue_asymptotics(sd)
    assert rep.max_deviation == 0.0
    assert rep.hopping_norm == 0.0
    assert rep.bound == 1.0
    assert rep.passed
    assert rep.center_offset_sup == 0
    # deviations are (ladder index, signed deviation), ascending index
    indices = [n for n, _ in rep.deviations]
    assert indices == sorted(indices)
    assert all(dev == 0.0 for _, dev in rep.deviations)


def test_pure_field_pinning_tight(spectrum_cache):
    _, sd = spectrum_cache("nn", 200)
    rep = sl.check_eigenvalue_asymptotics(sd)
    assert rep.bound == 3.0
    assert rep.max_deviation <= 1e-8
    assert rep.passed
    assert rep.center_offset_sup == 1
    assert rep.n_interior == 2 * (200 - 50) + 1


def test_noisy_long_range_pinning_within_bound(spectrum_cache):
    op, sd = spectrum_cache("pl4", 200, 5.0, 1)
    rep = sl.check_eigenvalue_asymptotics(sd)
    # realized sup of |b| is below the drawn amplitude
    assert rep.perturbation_sup == op.perturbation_sup
    assert rep.passed
    assert rep.max_deviation > 0.1  # disorder actually moves eigenvalues


def test_pinning_reads_the_recorded_perturbation_sup(monkeypatch):
    op = sl.build_operator(
        sl.nearest_neighbor(),
        sl.PotentialSpec(perturbation=sl.UniformRandomPerturbation(1.0, 4)),
        30)
    sd = sl.diagonalize(op, interior_window=10)

    def resample(self, sites):
        raise AssertionError("pinning resampled the perturbation")
    monkeypatch.setattr(sl.UniformRandomPerturbation, "values", resample)
    rep = sl.check_eigenvalue_asymptotics(sd)
    assert rep.perturbation_sup == op.perturbation_sup


def test_pinning_hopping_norm_bounds_the_box_hopping_block():
    # the box reads every offset up to 2N, so the norm in the bound must
    # cover them all; with p = 2.5 the far offsets still weigh
    op = sl.build_operator(sl.power_law(2.5), sl.PotentialSpec(), 50)
    sd = sl.diagonalize(op)
    rep = sl.check_eigenvalue_asymptotics(sd)
    hopping = op.matrix - np.diag(np.diag(op.matrix))
    assert rep.hopping_norm >= np.linalg.norm(hopping, 2)


def test_steeper_field_breaks_the_stated_bound():
    op = sl.build_operator(sl.custom_kernel({}),
                           sl.PotentialSpec(field_slope=2.0), 16)
    sd = sl.diagonalize(op)
    rep = sl.check_eigenvalue_asymptotics(sd)
    assert rep.bound == 1.0
    assert rep.max_deviation == 6.0  # index n sits at eigenvalue 2n
    assert not rep.passed


def _maryland_spectrum():
    mary = sl.MarylandPotential(coupling=1.0,
                                frequency=(math.sqrt(5) - 1) / 2, phase=0.1)
    pot = sl.PotentialSpec(field_slope=None, maryland=mary)
    op = sl.build_operator(sl.nearest_neighbor(), pot, 6)
    return op, sl.diagonalize(op)


def test_maryland_refused_by_linear_field_checks():
    _, sd = _maryland_spectrum()
    with pytest.raises(sl.WrongPotentialFamilyError):
        sl.check_eigenvalue_asymptotics(sd)
    with pytest.raises(sl.WrongPotentialFamilyError):
        sl.bootstrap_decay_check(sd, gamma=3.0)


def test_no_interior_modes_raises():
    op = sl.build_operator(sl.power_law(4.0), sl.PotentialSpec(), 4)
    sd = sl.diagonalize(op)  # window swallows the whole box
    with pytest.raises(sl.NoInteriorModesError):
        sl.check_eigenvalue_asymptotics(sd)
    with pytest.raises(sl.NoInteriorModesError):
        sl.uniform_decay_constants(sd, (3.0,))


def test_zero_kernel_decay_constant_vanishes():
    op = sl.build_operator(sl.custom_kernel({}), sl.PotentialSpec(), 12)
    sd = sl.diagonalize(op)
    rep = sl.uniform_decay_constants(sd, (3.0,))[0]
    assert rep.sup_constant == 0.0
    assert rep.sup_constant_by_index == 0.0
    assert all(math.isnan(f) for _, f in rep.fit_exponents)


def test_decay_constant_is_max_over_modes(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    rep = sl.uniform_decay_constants(sd, (3.0,))[0]
    assert rep.sup_constant == max(v for _, v in rep.per_mode)
    assert rep.sup_constant_by_index == max(v for _, v in rep.per_mode_by_index)
    assert rep.n_modes == int(np.count_nonzero(sd.interior_mask))
    assert rep.sup_constant > 0.0


def test_decay_constant_monotone_in_alpha(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    sups = [sl.uniform_decay_constants(sd, (a,))[0].sup_constant
            for a in (2.0, 3.0, 4.0)]
    assert sups[0] <= sups[1] <= sups[2]


def test_one_decay_call_serves_every_alpha(spectrum_cache):
    _, sd = spectrum_cache("pl4", 200, 5.0, 1)  # several blocks of modes
    alphas = (2.0, 2.5, 3.0)
    reports = sl.uniform_decay_constants(sd, alphas)
    assert [rep.alpha for rep in reports] == list(alphas)
    for alpha, rep in zip(alphas, reports):
        (single,) = sl.uniform_decay_constants(sd, (alpha,))
        assert rep.per_mode == single.per_mode
        assert rep.per_mode_by_index == single.per_mode_by_index
        np.testing.assert_array_equal(rep.fit_exponents, single.fit_exponents)
        assert rep.fit_exponents is reports[0].fit_exponents


@pytest.mark.parametrize("alphas", [(0.0,), (2.0, -1.0, 3.0),
                                    (3.0, float("nan"))])
def test_nonpositive_alpha_anywhere_raises(spectrum_cache, alphas):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    with pytest.raises(ValueError, match="alpha must be positive"):
        sl.uniform_decay_constants(sd, alphas)


def test_decay_constants_invariant_under_eigenvector_phases(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    rng = np.random.default_rng(0)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, sd.dimension))
    vectors = sd.eigenvectors * phases[np.newaxis, :]
    centers = sd.sites[_column_scan(vectors)[0]]
    phased = dataclasses.replace(
        sd, eigenvectors=vectors, centers=centers,
        interior_mask=np.abs(centers) <= sd.trusted_site_bound)
    a = sl.uniform_decay_constants(sd, (3.0,))[0]
    b = sl.uniform_decay_constants(phased, (3.0,))[0]
    np.testing.assert_allclose([v for _, v in a.per_mode_by_index],
                               [v for _, v in b.per_mode_by_index],
                               rtol=1e-10)
    np.testing.assert_array_equal(sd.centers, phased.centers)


def test_decay_constant_monotone_under_window_shrink(spectrum_cache):
    op, _ = spectrum_cache("pl4", 60, 0.5, 2)
    wide = sl.diagonalize(op, interior_window=40)
    narrow = sl.diagonalize(op, interior_window=50)
    g_wide = sl.uniform_decay_constants(wide, (3.0,))[0].sup_constant
    g_narrow = sl.uniform_decay_constants(narrow, (3.0,))[0].sup_constant
    assert g_narrow <= g_wide


def test_pure_field_modes_decay_superpolynomially(spectrum_cache):
    _, sd = spectrum_cache("nn", 100)
    rep = sl.uniform_decay_constants(sd, (5.0,))[0]
    fits = [f for _, f in rep.fit_exponents if not math.isnan(f)]
    assert fits
    assert min(fits) > 3.0


def test_decay_drift_under_doubling_without_disorder(spectrum_cache):
    for kind, alpha in (("nn", 5.0), ("pl4", 3.0)):
        _, small = spectrum_cache(kind, 200)
        _, large = spectrum_cache(kind, 400)
        g1 = sl.uniform_decay_constants(small, (alpha,))[0].sup_constant
        g2 = sl.uniform_decay_constants(large, (alpha,))[0].sup_constant
        assert abs(g2 - g1) / g1 < 0.05


def test_bootstrap_zero_kernel_trivially_clean():
    op = sl.build_operator(sl.custom_kernel({}), sl.PotentialSpec(), 12)
    sd = sl.diagonalize(op)
    rep = sl.bootstrap_decay_check(sd, gamma=1.0)
    assert rep.passed
    assert rep.n_checked > 0
    assert rep.n_modes == int(np.count_nonzero(sd.interior_mask))


def test_bootstrap_pure_field_clean(spectrum_cache):
    _, sd = spectrum_cache("nn", 200)
    rep = sl.bootstrap_decay_check(sd, gamma=3.0)
    assert rep.passed
    assert rep.n_checked > 10000


def test_bootstrap_long_range_clean(spectrum_cache):
    op, sd = spectrum_cache("pl4", 200)
    gamma = sl.weighted_norm(op.kernel,
                             2 * op.half_width + 1).upper_bound + 1.0
    rep = sl.bootstrap_decay_check(sd, gamma=gamma)
    assert rep.passed


def test_bootstrap_flags_injected_far_amplitude(spectrum_cache):
    _, sd = spectrum_cache("nn", 100)
    vec = np.array(sd.eigenvectors)
    p = sd.position_of(0)
    row = sd.row_of_site(50)
    vec[row, p] = 0.1  # plant mass far from the center of mode 0
    corrupted = dataclasses.replace(sd, eigenvectors=vec)
    rep = sl.bootstrap_decay_check(corrupted, gamma=3.0)
    assert not rep.passed
    assert any(v.ladder_index == 0 and v.site == 50 for v in rep.violations)


def test_bootstrap_arithmetic_on_a_crafted_mode():
    # one engineered eigenvector checked against hand-computed numbers:
    # kernel a(+-1) = 1/2, gamma = 0.9, so sites with |n - m| > 1.8 are in
    # scope and the right side at site 2 is (4g/2) * (1/2) * |phi(1)|
    op = sl.build_operator(sl.custom_kernel({}), sl.PotentialSpec(), 3)
    sd = sl.diagonalize(op, interior_window=0)
    vec = np.array(sd.eigenvectors)
    p = sd.position_of(0)
    vec[sd.row_of_site(1), p] = 0.2
    vec[sd.row_of_site(2), p] = 0.25
    # the check reads the kernel from the provenance
    crafted = dataclasses.replace(sd, eigenvectors=vec, provenance=dict(
        sd.provenance, kernel=sl.custom_kernel({1: 0.5}).describe()))
    rep = sl.bootstrap_decay_check(crafted, gamma=0.9)
    assert len(rep.violations) == 1
    v = rep.violations[0]
    assert (v.ladder_index, v.site) == (0, 2)
    assert v.lhs == pytest.approx(0.25, abs=1e-15)
    assert v.rhs == pytest.approx(1.8 * 0.5 * 0.2, abs=1e-15)
    assert v.slack == pytest.approx(1e-8, abs=1e-12)


def test_bootstrap_gamma_must_be_positive(spectrum_cache):
    _, sd = spectrum_cache("nn", 100)
    with pytest.raises(ValueError):
        sl.bootstrap_decay_check(sd, gamma=0.0)


def test_report_rows_align_with_spectrum(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    rep = sl.check_eigenvalue_asymptotics(sd)
    rows = asymptotics_rows(sd, rep)
    assert len(rows) == rep.n_interior
    for n, lam, dev, center in rows:
        assert lam - n == pytest.approx(dev, abs=1e-14)
        assert abs(center) <= sd.half_width
    drep = sl.uniform_decay_constants(sd, (3.0,))[0]
    drows = decay_rows(sd, drep)
    assert len(drows) == drep.n_modes
    by_mode = dict((n, v) for n, v in drep.per_mode)
    for n, _, _, val_c, _, _ in drows:
        assert by_mode[n] == val_c


# ---- blocked checks against the per-mode loops they replace ----

def _decay_oracle(sd, alpha):
    """Per-mode uniform_decay_constants: np.polyfit slope per mode."""
    positions = np.nonzero(sd.interior_mask)[0]
    fit_outer = sd.half_width // 2
    sites = sd.sites.astype(float)
    per_mode, per_mode_by_index, fits = [], [], []
    for p in positions:
        amp = np.abs(sd.eigenvectors[:, p])
        m = int(sd.ladder_indices[p])
        dist_c = np.abs(sites - float(sd.centers[p]))
        sel = dist_c >= 1.0
        per_mode.append((m, float(np.max(amp[sel] * dist_c[sel] ** alpha))))
        dist_i = np.abs(sites - m)
        sel_i = dist_i >= 1.0
        per_mode_by_index.append(
            (m, float(np.max(amp[sel_i] * dist_i[sel_i] ** alpha))))
        fit_sel = (dist_c >= 2) & (dist_c <= fit_outer) & (amp > 0.0)
        if p in sd.degenerate_positions or \
                p - 1 in sd.degenerate_positions or \
                np.count_nonzero(fit_sel) < 3:
            fits.append((m, float("nan")))
            continue
        slope = np.polyfit(np.log(dist_c[fit_sel]), np.log(amp[fit_sel]), 1)[0]
        fits.append((m, float(-slope)))
    return per_mode, per_mode_by_index, fits


def _bootstrap_oracle(sd, kernel, gamma, base_slack=1e-8):
    """Per-mode bootstrap_decay_check: one np.convolve over reach 2N."""
    d, N = sd.dimension, sd.half_width
    support = kernel.support_radius
    M = 2 * N if support is None else min(2 * N, max(support, 1))
    absw = np.abs(kernel.amplitudes(np.arange(-M, M + 1)))
    total_cutoff = M if support is None else max(support, 1)
    total_mass = sl.weighted_norm(kernel, total_cutoff).upper_bound
    cums = np.concatenate([[0.0], np.cumsum(absw)])
    sites = sd.sites
    j1 = np.clip(sites - N + M, 0, 2 * M + 1)
    j2 = np.clip(sites + N + M + 1, 0, 2 * M + 1)
    tail_mass = np.maximum(total_mass - (cums[j2] - cums[j1]), 0.0)
    violations, n_checked = [], 0
    for p in np.nonzero(sd.interior_mask)[0]:
        amp = np.abs(sd.eigenvectors[:, p])
        m = int(sd.ladder_indices[p])
        dist = np.abs(sites - m).astype(float)
        scope = dist > 2.0 * gamma
        if not np.any(scope):
            continue
        conv = np.convolve(amp, absw)[M: M + d]
        factor = 4.0 * gamma / dist[scope]
        rhs = factor * conv[scope]
        slack = base_slack + factor * tail_mass[scope] * float(np.max(amp))
        lhs = amp[scope]
        n_checked += int(np.count_nonzero(scope))
        bad = lhs > rhs + slack
        for site, l, r, s in zip(sites[scope][bad], lhs[bad], rhs[bad],
                                 slack[bad]):
            violations.append((m, int(site), float(l), float(r), float(s)))
    return n_checked, violations


def _assert_decay_matches_oracle(sd, alpha):
    rep = sl.uniform_decay_constants(sd, (alpha,))[0]
    per_mode, per_mode_by_index, fits = _decay_oracle(sd, alpha)
    # same products and maxima, so bit-identical
    assert rep.per_mode == tuple(per_mode)
    assert rep.per_mode_by_index == tuple(per_mode_by_index)
    assert [m for m, _ in rep.fit_exponents] == [m for m, _ in fits]
    got = np.array([f for _, f in rep.fit_exponents])
    want = np.array([f for _, f in fits])
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got[~np.isnan(want)], want[~np.isnan(want)],
                               rtol=1e-10)
    return rep


def _assert_bootstrap_matches_oracle(sd, kernel, gamma):
    rep = sl.bootstrap_decay_check(sd, gamma=gamma)
    n_checked, violations = _bootstrap_oracle(sd, kernel, gamma)
    assert rep.n_checked == n_checked
    assert [(v.ladder_index, v.site) for v in rep.violations] == \
        [v[:2] for v in violations]
    if violations:
        got = np.array([(v.lhs, v.rhs, v.slack) for v in rep.violations])
        np.testing.assert_allclose(got, np.array([v[2:] for v in violations]),
                                   rtol=1e-12)
    return rep


def _interior_count(sd):
    return int(np.count_nonzero(sd.interior_mask))


def test_blocked_checks_match_per_mode_loops_power_law(spectrum_cache):
    from starklab.localization import _BLOCK, _SHIFTED_SUM_MAX_BAND
    op, sd = spectrum_cache("pl4", 200, 5.0, 1)
    # several blocks, the last one partial; the band 2M+1 = 2d-1 is wide
    assert _interior_count(sd) > _BLOCK and _interior_count(sd) % _BLOCK
    assert 2 * sd.dimension - 1 > _SHIFTED_SUM_MAX_BAND
    for alpha in (2.0, 3.0, 2.5):
        _assert_decay_matches_oracle(sd, alpha)
    gamma = sl.weighted_norm(op.kernel,
                             2 * op.half_width + 1).upper_bound \
        + op.perturbation_sup + 1.0
    _assert_bootstrap_matches_oracle(sd, op.kernel, gamma)
    # a smaller gamma brings sites next to the center into scope, where
    # the inequality need not hold: a nonempty violation list to compare
    rep = _assert_bootstrap_matches_oracle(sd, op.kernel, 0.6)
    assert rep.violations


def test_blocked_checks_match_per_mode_loops_nearest_neighbor(spectrum_cache):
    from starklab.localization import _BLOCK
    op, sd = spectrum_cache("nn", 200)
    assert _interior_count(sd) > _BLOCK and _interior_count(sd) % _BLOCK
    _assert_decay_matches_oracle(sd, 5.0)
    _assert_bootstrap_matches_oracle(sd, op.kernel, 3.0)


def test_blocked_bootstrap_matches_on_corrupted_spectrum(spectrum_cache):
    from starklab.localization import _BLOCK
    op, sd = spectrum_cache("nn", 100)
    assert _interior_count(sd) % _BLOCK
    vec = np.array(sd.eigenvectors)
    positions = np.nonzero(sd.interior_mask)[0]
    # far mass planted in the first and the last interior mode, two sites
    # each, so the list must come out by mode and then by site
    start, stop = sd.row_support
    outside = 0
    for p in (positions[0], positions[-1]):
        center = int(sd.centers[p])
        for site in (center - 30, center + 40):
            if abs(site) <= sd.half_width:
                row = sd.row_of_site(site)
                vec[row, p] = 0.1
                outside += not start[p] <= row < stop[p]
    # a check on the clean spectrum's supports would miss these sites
    assert outside
    corrupted = dataclasses.replace(sd, eigenvectors=vec)
    rep = _assert_bootstrap_matches_oracle(corrupted, op.kernel, 3.0)
    assert len({v.ladder_index for v in rep.violations}) == 2


def test_blocked_decay_matches_on_degenerate_and_zero_kernel(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    positions = np.nonzero(sd.interior_mask)[0]
    flagged = dataclasses.replace(
        sd, degenerate_positions=(int(positions[3]), int(positions[10])))
    rep = _assert_decay_matches_oracle(flagged, 3.0)
    fits = dict(rep.fit_exponents)
    for p in (positions[3], positions[4], positions[10], positions[11]):
        assert math.isnan(fits[int(sd.ladder_indices[p])])
    op = sl.build_operator(sl.custom_kernel({}), sl.PotentialSpec(), 12)
    zero = sl.diagonalize(op)
    rep = _assert_decay_matches_oracle(zero, 3.0)
    assert all(math.isnan(f) for _, f in rep.fit_exponents)
    _assert_bootstrap_matches_oracle(zero, op.kernel, 1.0)


def test_a_one_mode_block_fits_on_the_whole_box():
    from starklab.localization import _BLOCK, _decay_slopes
    # numpy sums a single column pairwise, so the last block, which holds
    # one mode here, keeps the rows of the whole box and with them the
    # bits of its fit: the window of fit rows around the center, zeros
    # included, as a one-column pass over the box takes it
    op = sl.build_operator(sl.nearest_neighbor(), sl.PotentialSpec(
        perturbation=sl.UniformRandomPerturbation(amplitude=0.5, seed=3)),
        257)
    sd = sl.diagonalize(op)
    positions = np.nonzero(sd.interior_mask)[0]
    assert positions.size % _BLOCK == 1
    p = int(positions[-1])
    N, fit_outer = sd.half_width, sd.half_width // 2
    center = int(sd.centers[p]) + N
    lo, hi = max(center - fit_outer, 0), center + fit_outer + 1
    amp = np.abs(sd.eigenvectors[lo:hi, p:p + 1])
    dist = np.abs(np.arange(lo, min(hi, sd.dimension))[:, np.newaxis]
                  - center)
    dists = np.arange(2 * sd.dimension, dtype=float)
    log_dist = np.log(dists, out=np.zeros_like(dists), where=dists > 0)
    want = _decay_slopes(amp, dist, log_dist, 2, fit_outer)[0]
    start, stop = sd.row_support
    assert stop[p] - start[p] < hi - lo  # the support alone would differ
    fits = dict(sl.uniform_decay_constants(sd, (3.0,))[0].fit_exponents)
    assert fits[int(sd.ladder_indices[p])] == want

