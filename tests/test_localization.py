import dataclasses
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import helpers
import starklab as sl
from starklab import localization
from starklab.localization import _BLOCK, asymptotics_rows, decay_rows


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
        # decay_rows zips the three tuples: one ladder order
        ladder = [m for m, _ in rep.per_mode]
        assert [m for m, _ in rep.per_mode_by_index] == ladder
        assert [m for m, _ in rep.fit_exponents] == ladder


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
    # the copy derives its own centers and interior mask from its vectors
    phased = dataclasses.replace(
        sd, eigenvectors=sd.eigenvectors * phases[np.newaxis, :])
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


def _planted_far_amplitude(sd):
    """sd with 0.1 planted at site 50 of mode 0, far from its center."""
    vec = np.array(sd.eigenvectors)
    vec[sd.row_of_site(50), sd.position_of(0)] = 0.1
    return dataclasses.replace(sd, eigenvectors=vec)


def test_bootstrap_flags_injected_far_amplitude(spectrum_cache):
    _, sd = spectrum_cache("nn", 100)
    rep = sl.bootstrap_decay_check(_planted_far_amplitude(sd), gamma=3.0)
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


@pytest.mark.parametrize("gamma", [
    math.inf,  # passed with no site checked
], ids=["gamma-inf"])
def test_bootstrap_refuses_a_bound_that_is_not_finite_and_positive(
        spectrum_cache, gamma):
    _, sd = spectrum_cache("nn", 100)
    with pytest.raises(ValueError, match="gamma must be finite and "
                                         "positive"):
        sl.bootstrap_decay_check(_planted_far_amplitude(sd), gamma=gamma)


def test_bootstrap_witness_is_the_smallest_candidate_margin(spectrum_cache,
                                                            monkeypatch):
    _, sd = spectrum_cache("nn", 100)
    clean = sl.bootstrap_decay_check(sd, gamma=3.0)
    assert clean.passed and clean.n_candidates > 0
    assert 0 <= clean.min_margin < 1
    planted = sl.bootstrap_decay_check(_planted_far_amplitude(sd), gamma=3.0)
    # margin < 0 exactly at a violation; the planted site is the worst
    assert planted.min_margin < 0
    assert planted.min_margin_at == (0, 50)
    assert planted.n_candidates > clean.n_candidates
    for s in (sd, _planted_far_amplitude(sd)):
        helpers.assert_bootstrap_matches_whole_box(s, 3.0)
    # no candidate, no witness
    monkeypatch.setattr(localization, "BOOTSTRAP_SLACK", 10.0)
    none = sl.bootstrap_decay_check(sd, gamma=3.0)
    assert none.n_candidates == 0
    assert none.min_margin is None and none.min_margin_at is None


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
    fits = dict(drep.fit_exponents)
    for n, _, _, val_c, _, fit in drows:
        assert by_mode[n] == val_c
        assert fit == fits[n] or math.isnan(fit) and math.isnan(fits[n])


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


def _bootstrap_oracle(sd, kernel, gamma):
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
        slack = (localization.BOOTSTRAP_SLACK
                 + factor * tail_mass[scope] * float(np.max(amp)))
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


# ---- the candidate-row bootstrap against the whole-box formula ----

def candidate_row_cases():
    """Check bootstrap_decay_check against helpers.whole_box_bootstrap on
    first blocks whose candidate rows number 0, 1, a few, tens and all,
    for a wide band (p = 4) and a narrow one (nearest neighbour), at
    N = 150.  Returns each kernel's dimension and its first block's
    candidate row counts, case by case."""
    found = {}
    for name, kernel, amplitude, seed in (
            ("p4", sl.power_law(4.0), 0.5, 7),
            ("nn", sl.nearest_neighbor(), 2.0, 1)):
        op = sl.build_operator(kernel, sl.PotentialSpec(
            perturbation=sl.UniformRandomPerturbation(amplitude, seed)), 150)
        sd = sl.diagonalize(op)
        gamma = sd.pinning_gamma
        # a row is a candidate where its excess tops BOOTSTRAP_SLACK, so a
        # slack between the n-th and the next largest excess leaves n
        # candidate rows
        excess = np.sort(helpers.whole_box_bootstrap(sd, gamma)[4][0])[::-1]
        slacks = [10.0, localization.BOOTSTRAP_SLACK] + [
            math.sqrt(excess[n - 1] * excess[n])
            for n in (1, 2, 5, 9, 40, 90) if excess[n] > 0]
        counts = []
        for slack in slacks:
            with mock.patch.object(localization, "BOOTSTRAP_SLACK", slack):
                counts.append(
                    helpers.assert_bootstrap_matches_whole_box(sd, gamma)[0])
        # every row: the first and the last mode of the first block made
        # flat below their peaks, which keeps their centers, far enough
        # apart that each row is in scope of one
        vec = np.array(sd.eigenvectors)
        first = np.nonzero(sd.interior_mask)[0][:_BLOCK]
        for p in (first[0], first[-1]):
            peak = vec[sd.row_of_site(int(sd.centers[p])), p]
            vec[:, p] = np.where(vec[:, p] == peak, peak, 0.5 * abs(peak))
        flat = dataclasses.replace(sd, eigenvectors=vec)
        assert np.array_equal(flat.interior_mask, sd.interior_mask)
        counts.append(helpers.assert_bootstrap_matches_whole_box(
            flat, gamma)[0])
        found[name] = (sd.dimension, counts)
    return found


@pytest.mark.parametrize("threads", ["1", "2"])
def test_candidate_rows_give_the_whole_box_check(threads):
    # OpenBLAS picks its GEMM kernel by the shape of the product and the
    # thread count, so each count runs in a fresh interpreter
    paths = [os.path.dirname(__file__),
             os.path.dirname(os.path.dirname(sl.__file__)),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, test_localization as t; "
                               "print(json.dumps(t.candidate_row_cases()))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, (d, counts) in found.items():
        assert 0 in counts and 1 in counts and counts[-1] == d, name
        assert any(2 <= c <= 9 for c in counts), name
    d, counts = found["p4"]
    assert any(33 <= c <= 100 for c in counts)


def test_wide_band_reads_only_the_support_rows(spectrum_cache):
    # a dense solve's eigenvectors span the box, so their tails are cut to
    # exact zeros 40 sites from each center: the one case where the wide
    # band's GEMM runs over fewer rows than the whole box
    from starklab.localization import _BLOCK, _SHIFTED_SUM_MAX_BAND
    from starklab.spectra import support_rows
    _, sd = spectrum_cache("pl4", 200, 5.0, 1)
    assert 2 * sd.dimension - 1 > _SHIFTED_SUM_MAX_BAND
    vec = np.array(sd.eigenvectors)
    rows = np.arange(sd.dimension)[:, np.newaxis]
    vec[np.abs(rows - (sd.centers + sd.half_width)) > 40] = 0.0
    cut = dataclasses.replace(sd, eigenvectors=vec)
    assert np.array_equal(cut.centers, sd.centers)
    positions = np.nonzero(cut.interior_mask)[0]
    spans = [support_rows(cut.row_support, positions[i:i + _BLOCK])
             for i in range(0, positions.size, _BLOCK)]
    assert all(r.stop - r.start < cut.dimension for r in spans)
    assert sl.bootstrap_decay_check(cut, 0.6).violations
    helpers.assert_bootstrap_matches_whole_box(cut, 0.6)


@pytest.mark.parametrize("kind", ["nn", "pl4"])
def test_a_nan_in_one_mode_hides_no_violation_in_another(spectrum_cache,
                                                         kind):
    _, sd = spectrum_cache(kind, 100)
    vec = np.array(sd.eigenvectors)
    a, b = np.nonzero(sd.interior_mask)[0][:2]  # one block
    site = int(sd.centers[b]) + 40
    row = sd.row_of_site(site)
    vec[row, a] = np.nan  # a row max would read nan and drop the row
    vec[row, b] = 0.1
    corrupted = dataclasses.replace(sd, eigenvectors=vec)
    rep = sl.bootstrap_decay_check(corrupted, gamma=3.0)
    assert (int(sd.ladder_indices[b]), site) in \
        [(v.ladder_index, v.site) for v in rep.violations]
    helpers.assert_bootstrap_matches_whole_box(corrupted, 3.0)


def test_blocked_decay_matches_on_degenerate_and_zero_kernel(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    positions = np.nonzero(sd.interior_mask)[0]
    lam = np.array(sd.eigenvalues)
    for p in (positions[3], positions[10]):  # far below the anchor
        lam[p + 1] = lam[p]
    flagged = dataclasses.replace(sd, eigenvalues=lam)
    assert flagged.degenerate_positions == (positions[3], positions[10])
    assert flagged.anchor_position == sd.anchor_position
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



@pytest.mark.parametrize("kernel, amplitude", [
    (sl.nearest_neighbor(), 2.0), (sl.nearest_neighbor(0.6 + 0.8j), 2.0),
    (sl.power_law(4.0), 0.5),
], ids=["nn", "complex-nn", "p4"])
def test_decay_and_bootstrap_keep_their_bits_in_either_layout(kernel,
                                                              amplitude):
    # the eigenvectors are column-major; a row-major copy gives the same
    # sups, fits, margins and violations bit for bit
    pert = sl.UniformRandomPerturbation(amplitude=amplitude, seed=1)
    sd = sl.diagonalize(sl.build_operator(
        kernel, sl.PotentialSpec(perturbation=pert), 300))
    assert sd.eigenvectors.flags.f_contiguous
    row_major = dataclasses.replace(
        sd, eigenvectors=np.ascontiguousarray(sd.eigenvectors))
    decay = [sl.uniform_decay_constants(s, (2.0, 3.0))
             for s in (sd, row_major)]
    boot = [sl.bootstrap_decay_check(s, gamma=1.0)
            for s in (sd, row_major)]
    for ours, theirs in zip(*decay):
        for field in ("per_mode", "per_mode_by_index", "fit_exponents"):
            assert np.array(getattr(ours, field)).tobytes() == \
                np.array(getattr(theirs, field)).tobytes()
    assert boot[0] == boot[1]
    assert boot[0].n_candidates > 0
