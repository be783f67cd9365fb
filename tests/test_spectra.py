import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
import starklab as sl
import starklab.spectra
from starklab.operators import pinning_gamma
from starklab.spectra import (ladder_anchor, _column_scan,
                              default_interior_window, _eigh,
                              _fix_phases, _GATE_BLOCK, _gate_blocks,
                              _gram_defect, _lapack, _subdiagonal,
                              _tridiagonal_eigh, _tridiagonal_residuals)

SQRT3 = 1.7320508075688773


def test_zero_kernel_spectrum_is_the_diagonal():
    op = sl.build_operator(sl.custom_kernel({}), sl.PotentialSpec(), 3)
    sd = sl.diagonalize(op)
    np.testing.assert_array_equal(sd.eigenvalues, np.arange(-3.0, 4.0))
    np.testing.assert_array_equal(sd.centers, np.arange(-3, 4))
    np.testing.assert_array_equal(sd.ladder_indices, np.arange(-3, 4))
    assert sd.anchor_position == 3
    assert not sd.anchor_fallback
    assert sd.eigenvalue_of(2) == 2.0
    np.testing.assert_array_equal(
        np.abs(sd.eigenvectors[:, sd.position_of(-1)]), np.eye(7)[:, 2])
    assert np.max(sd.residuals) == 0.0


def test_three_site_ladder_matches_cubic_root_formula():
    op = sl.build_operator(sl.nearest_neighbor(), sl.PotentialSpec(), 1)
    roots = helpers.symmetric_cubic_roots(op.matrix)
    sd = sl.diagonalize(op, interior_window=0)
    np.testing.assert_allclose(sd.eigenvalues, roots, atol=1e-12)
    # and against the frozen closed form: char poly is x^3 - 3x
    np.testing.assert_allclose(sd.eigenvalues, [-SQRT3, 0.0, SQRT3],
                               atol=1e-14)


def test_ladder_anchor_simple_sequences():
    pos, fallback = ladder_anchor(np.array([-1.4, -0.2, 0.6, 1.7]))
    assert (pos, fallback) == (2, False)
    indices = np.arange(4) - pos
    np.testing.assert_array_equal(indices, [-2, -1, 0, 1])
    assert ladder_anchor(np.array([0.0, 1.0]))[0] == 0
    assert not ladder_anchor(np.array([0.0, 1.0]))[1]


def test_ladder_anchor_one_sided_spectra_are_flagged():
    pos, fallback = ladder_anchor(np.array([-3.0, -2.0, -1.0]))
    assert fallback
    assert pos == 3
    pos, fallback = ladder_anchor(np.array([0.5, 1.5]))
    assert fallback
    assert pos == 0


def test_ladder_anchor_tolerates_noisy_zero():
    # a zero eigenvalue returned as -1e-16 must not shift every label by one
    pos, fallback = ladder_anchor(np.array([-1.0, -2.2e-16, 1.0, 2.0]))
    assert (pos, fallback) == (1, False)
    # a genuinely negative eigenvalue still sits below the anchor
    assert ladder_anchor(np.array([-1.0, -0.5, 0.3]))[0] == 2


def test_labels_stable_at_every_box_size():
    # the anchor must pick the true zero eigenvalue whatever the sign noise
    # the solver puts on it; a slip shows up as deviation exactly 1
    for n in (100, 150, 175):
        op = sl.build_operator(sl.nearest_neighbor(), sl.PotentialSpec(), n)
        sd = sl.diagonalize(op)
        assert abs(sd.eigenvalue_of(0)) < 1e-10, n


def test_pure_field_interior_eigenvalues_are_near_integers(spectrum_cache):
    _, sd = spectrum_cache("nn", 100)
    assert sd.interior_window == max(25, 30)
    trusted = sd.trusted_site_bound
    for n in range(-trusted, trusted + 1):
        assert abs(sd.eigenvalue_of(n) - n) < 1e-10


def test_pure_field_centers_sit_one_site_inward(spectrum_cache):
    # the eigenvector for ladder index m peaks next to site m, not on it
    _, sd = spectrum_cache("nn", 100)
    assert sd.center_offset_sup() == 1
    offs = np.abs(sd.centers[sd.interior_mask]
                  - sd.ladder_indices[sd.interior_mask])
    assert set(offs.tolist()) == {1}


def test_center_tie_break_goes_to_smaller_site():
    vecs = np.zeros((5, 2))
    vecs[1, 0] = 0.5
    vecs[3, 0] = -0.5
    vecs[1:4, 1] = [0.5, np.nextafter(0.5, 1.0), 0.5]  # strictly larger wins
    rows, (start, stop) = _column_scan(vecs)
    np.testing.assert_array_equal(np.arange(-2, 3)[rows], [-1, 0])
    np.testing.assert_array_equal(start, [1, 1])
    np.testing.assert_array_equal(stop, [4, 4])


def test_phase_fix_makes_the_peak_real_and_positive():
    vecs = np.array([[0.5, -0.5, 0.1, 0.6j, 0.3],
                     [-0.5, 0.5, -0.8, -0.6j, 0.4 - 0.3j],
                     [0.1, 0.0, 0.2, 0.1, 0.1]], dtype=complex)
    rows, (start, stop) = _fix_phases(vecs)
    # ties go to the first row, the smaller site
    np.testing.assert_array_equal(rows, [0, 0, 1, 0, 1])
    np.testing.assert_array_equal(start, [0, 0, 0, 0, 0])
    np.testing.assert_array_equal(stop, [3, 2, 3, 3, 3])
    np.testing.assert_array_equal(vecs[rows, np.arange(5)],
                                  [0.5, 0.5, 0.8, 0.6, 0.5])
    np.testing.assert_allclose(vecs[:, :3].real, [[0.5, 0.5, -0.1],
                                                  [-0.5, -0.5, 0.8],
                                                  [0.1, 0.0, -0.2]])
    np.testing.assert_allclose(vecs[:, 3], [0.6, -0.6, -0.1j], atol=1e-16)
    real = np.array([[0.5, 0.2, 0.0], [-0.5, -0.9, -0.7]])
    rows, (start, stop) = _fix_phases(real)
    np.testing.assert_array_equal(rows, [0, 1, 1])
    # the sign flip keeps every zero, so the scan before it still holds
    np.testing.assert_array_equal(start, [0, 0, 1])
    np.testing.assert_array_equal(stop, [2, 2, 2])
    np.testing.assert_array_equal(real, [[0.5, -0.2, 0.0],
                                         [-0.5, 0.9, 0.7]])


@pytest.mark.parametrize("kernel", [
    sl.nearest_neighbor(), sl.nearest_neighbor(0.6 + 0.8j),
    sl.power_law(4.0), sl.finite_support([0.7, 0.2 + 0.3j]),
], ids=["nn", "complex-nn", "p4", "complex-radius-2"])
def test_each_eigenvector_peaks_real_and_positive_at_its_center(kernel):
    sd = sl.diagonalize(_disordered(kernel, half_width=20))
    vec = sd.eigenvectors
    peaks = vec[sd.centers + sd.half_width, np.arange(sd.dimension)]
    assert np.all(peaks.imag == 0.0)
    assert np.all(peaks.real > 0.0)
    np.testing.assert_array_equal(peaks.real, np.max(np.abs(vec), axis=0))


def test_interior_window_formula():
    # the second argument is gamma = |a|_0 + |b|_inf + 1
    assert default_interior_window(200, 3.0) == 50
    assert default_interior_window(40, 3.0) == 30
    assert default_interior_window(40, 8.0) == 80
    assert default_interior_window(1000, 1.0) == 250


def test_degenerate_pair_flagged_and_queryable():
    # explicit bump makes site -2 collide with site 2 on the diagonal
    pert = sl.ExplicitPerturbation(first_site=-2, table=(4.0,))
    op = sl.build_operator(sl.custom_kernel({}),
                           sl.PotentialSpec(perturbation=pert), 2)
    sd = sl.diagonalize(op)
    np.testing.assert_array_equal(sd.eigenvalues, [-1.0, 0.0, 1.0, 2.0, 2.0])
    # a flagged position p marks the pair (p, p + 1)
    assert sd.degenerate_positions == (3,)


def test_no_spurious_degeneracy_on_distinct_diagonal():
    op = sl.build_operator(sl.custom_kernel({}), sl.PotentialSpec(), 3)
    sd = sl.diagonalize(op)
    assert sd.degenerate_positions == ()


def test_quality_gates_hold_and_can_be_forced_to_fail(spectrum_cache,
                                                      monkeypatch):
    op, sd = spectrum_cache("pl4", 60, 0.5, 2)
    assert np.max(sd.residuals) <= 1e-10 * max(1.0, sd.spectral_radius)
    assert sd.orthonormality_defect <= 1e-10
    monkeypatch.setattr(starklab.spectra, "RESIDUAL_TOL", 0.0)
    with pytest.raises(sl.ConvergenceFailureError):
        sl.diagonalize(op)


def test_rows_satisfy_completeness(spectrum_cache):
    _, sd = spectrum_cache("pl4", 60, 0.5, 2)
    row_norms = np.sum(np.abs(sd.eigenvectors) ** 2, axis=1)
    np.testing.assert_allclose(row_norms, 1.0, atol=1e-10)


def test_interior_eigenvalues_stable_under_box_doubling(spectrum_cache):
    _, small = spectrum_cache("pl4", 200, 0.5, 2)
    _, large = spectrum_cache("pl4", 400, 0.5, 2)
    bound = small.trusted_site_bound
    drift = max(abs(small.eigenvalue_of(n) - large.eigenvalue_of(n))
                for n in range(-bound, bound + 1))
    assert drift < 1e-8


def test_save_load_round_trip(tmp_path, spectrum_cache):
    _, sd = spectrum_cache("pl4", 20, 1.0, 5)
    base = str(tmp_path / "spec_n20")
    json_path, bin_path = sl.save_spectral(sd, base)
    back = sl.load_spectral(base)
    np.testing.assert_array_equal(back.eigenvalues, sd.eigenvalues)
    np.testing.assert_array_equal(back.eigenvectors, sd.eigenvectors)
    np.testing.assert_array_equal(back.residuals, sd.residuals)
    np.testing.assert_array_equal(back.centers, sd.centers)
    np.testing.assert_array_equal(back.interior_mask, sd.interior_mask)
    assert back.anchor_position == sd.anchor_position
    assert back.anchor_fallback == sd.anchor_fallback
    assert back.interior_window == sd.interior_window
    assert back.degenerate_positions == sd.degenerate_positions
    assert back.provenance == sd.provenance
    # byte-stable: writing the same data twice gives identical files
    first = (open(json_path, "rb").read(), open(bin_path, "rb").read())
    sl.save_spectral(sd, base)
    assert open(json_path, "rb").read() == first[0]
    assert open(bin_path, "rb").read() == first[1]


@pytest.mark.parametrize("kernel", [
    sl.nearest_neighbor(), sl.nearest_neighbor(0.6 + 0.8j), sl.power_law(2.5),
    sl.finite_support([0.6 + 0.8j, 0.3j]),
    sl.custom_kernel({1: 0.5, 3: -0.25j}), sl.custom_kernel({}),
], ids=["nn", "complex-nn", "p2.5", "finite", "custom", "zero"])
def test_spectrum_reads_back_its_kernel_and_gamma(tmp_path, kernel):
    pert = sl.UniformRandomPerturbation(amplitude=0.5, seed=3)
    op = sl.build_operator(kernel, sl.PotentialSpec(perturbation=pert), 10)
    sd = sl.diagonalize(op, interior_window=2)
    gamma = pinning_gamma(op.kernel, op.half_width, op.perturbation_sup)
    assert sd.kernel == op.kernel
    assert sd.pinning_gamma == gamma
    # the kernel and gamma come back from the dump's JSON header, bit for bit
    sl.save_spectral(sd, str(tmp_path / "spec"))
    back = sl.load_spectral(str(tmp_path / "spec"))
    assert back.kernel == op.kernel
    assert np.float64(back.pinning_gamma).tobytes() == \
        np.float64(gamma).tobytes()


@pytest.mark.parametrize("key, value", [
    ("half_width", 21), ("dimension", 43), ("provenance", 21),
], ids=["half_width", "dimension", "provenance"])
def test_load_rejects_a_header_whose_half_width_disagrees(
        tmp_path, spectrum_cache, key, value):
    import json

    _, sd = spectrum_cache("pl4", 20, 1.0, 5)
    base = str(tmp_path / "edited")
    json_path, _ = sl.save_spectral(sd, base)
    header = json.load(open(json_path))
    if key == "provenance":
        header["provenance"]["half_width"] = value
    else:
        header[key] = value
    with open(json_path, "w") as fh:
        json.dump(header, fh)
    with pytest.raises(ValueError, match="half_width 2[01] disagrees"):
        sl.load_spectral(base)


@pytest.mark.parametrize("key", ["kernel", "perturbation_sup", "potential",
                                 "degeneracy_gap", "interior_window"])
def test_a_missing_provenance_key_is_named(tmp_path, spectrum_cache, key):
    import json

    _, sd = spectrum_cache("pl4", 20, 1.0, 5)
    base = str(tmp_path / "stripped")
    json_path, _ = sl.save_spectral(sd, base)
    header = json.load(open(json_path))
    del header["provenance"][key]
    with open(json_path, "w") as fh:
        json.dump(header, fh)
    named = f"no provenance.{key}"
    # the loader checks the degenerate pairs and interior modes they label
    if key in ("degeneracy_gap", "interior_window"):
        with pytest.raises(ValueError, match=named):
            sl.load_spectral(base)
        return
    loaded = sl.load_spectral(base)
    reads = {"potential": [sl.check_eigenvalue_asymptotics,
                           sl.bootstrap_decay_check]}.get(
        key, [lambda sd: sd.pinning_gamma])
    for read in reads:
        with pytest.raises(ValueError, match=named):
            read(loaded)


def test_dump_header_names_dtype_length_and_hash(tmp_path, spectrum_cache):
    import hashlib
    import json

    _, sd = spectrum_cache("pl4", 20, 1.0, 5)
    json_path, bin_path = sl.save_spectral(sd, str(tmp_path / "spec"))
    header = json.load(open(json_path))
    raw = open(bin_path, "rb").read()
    d = sd.dimension
    start, stop = sd.row_support
    assert header["format_version"] == 4
    assert header["payload"]["eigenvector_dtype"] == "<f8"
    assert header["payload"]["byte_length"] == len(raw) == \
        32 * d + 8 * int(np.sum(stop - start))
    assert header["payload"]["sha256"] == hashlib.sha256(raw).hexdigest()
    # eigenvalues lead the payload, where perfbench/fingerprint.py reads them
    np.testing.assert_array_equal(np.frombuffer(raw[:8 * d], "<f8"),
                                  sd.eigenvalues)


def test_load_rejects_truncated_payload(tmp_path, spectrum_cache):
    _, sd = spectrum_cache("pl4", 20, 1.0, 5)
    base = str(tmp_path / "broken")
    _, bin_path = sl.save_spectral(sd, base)
    raw = open(bin_path, "rb").read()
    with open(bin_path, "wb") as fh:
        fh.write(raw[:-8])
    with pytest.raises(ValueError, match="declared byte_length"):
        sl.load_spectral(base)
    with open(bin_path, "wb") as fh:
        fh.write(raw + b"\x00")
    with pytest.raises(ValueError, match="declared byte_length"):
        sl.load_spectral(base)


@pytest.mark.parametrize("offset", [0, 8 * 41 + 3, -1],
                         ids=["eigenvalue", "residual", "eigenvector"])
def test_load_rejects_a_flipped_payload_byte(tmp_path, spectrum_cache,
                                             offset):
    _, sd = spectrum_cache("pl4", 20, 1.0, 5)
    base = str(tmp_path / "flipped")
    _, bin_path = sl.save_spectral(sd, base)
    raw = bytearray(open(bin_path, "rb").read())
    raw[offset] ^= 0x10
    with open(bin_path, "wb") as fh:
        fh.write(raw)
    with pytest.raises(ValueError, match="sha256"):
        sl.load_spectral(base)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_load_rejects_a_version_1_dump(tmp_path, spectrum_cache, version):
    import json

    _, sd = spectrum_cache("pl4", 20, 1.0, 5)
    base = str(tmp_path / "old")
    json_path, _ = sl.save_spectral(sd, base)
    header = json.load(open(json_path))
    header["format_version"] = version
    with open(json_path, "w") as fh:
        json.dump(header, fh)
    with pytest.raises(ValueError, match=f"format_version {version};.*rerun"):
        sl.load_spectral(base)


@pytest.mark.parametrize("kernel, amplitude", [
    (sl.nearest_neighbor(), 2.0), (sl.nearest_neighbor(0.6 + 0.8j), 2.0),
    (sl.power_law(4.0), 0.5),
], ids=["nn", "complex-nn", "p4"])
def test_round_trip_keeps_every_bit(tmp_path, kernel, amplitude):
    sd = sl.diagonalize(_disordered(kernel, half_width=150,
                                    amplitude=amplitude))
    vec = sd.eigenvectors
    parts = np.stack([vec.real, vec.imag])  # every entry's two parts
    # the zeros are +0.0, so the zero rows a dump leaves out come back
    assert not np.any(np.signbit(parts) & (parts == 0))
    start, stop = sd.row_support
    share = np.sum(stop - start) / sd.dimension ** 2
    assert share == 1.0 if kernel.support_radius is None else share < 0.5
    sl.save_spectral(sd, str(tmp_path / "spec"))
    back = sl.load_spectral(str(tmp_path / "spec"))
    for name in ("eigenvalues", "residuals", "eigenvectors", "centers"):
        assert getattr(back, name).dtype == getattr(sd, name).dtype
        assert getattr(back, name).tobytes() == getattr(sd, name).tobytes()
    assert back.eigenvectors.flags.f_contiguous
    np.testing.assert_array_equal(back.row_support[0], start)
    np.testing.assert_array_equal(back.row_support[1], stop)


def test_recheck_residuals_reads_only_tridiagonal_boxes(spectrum_cache):
    for kind in ("nn", "pl4"):
        op, sd = spectrum_cache(kind, 12, 1.0, 5)
        sl.spectra.recheck_residuals(sd, op)
        vec = np.array(sd.eigenvectors)
        vec[12, 3] += 1e-3
        edited = dataclasses.replace(sd, eigenvectors=vec)
        if kind == "pl4":  # a dense box's H @ vec is not paid again
            sl.spectra.recheck_residuals(edited, op)
            continue
        with pytest.raises(sl.ConvergenceFailureError, match="residual"):
            sl.spectra.recheck_residuals(edited, op)


@pytest.mark.parametrize("edge", ["first", "last"])
def test_load_rejects_a_run_with_a_zero_edge(tmp_path, spectrum_cache,
                                             edge):
    _, sd = spectrum_cache("nn", 40, 2.0, 3)
    base = str(tmp_path / "spec")
    sl.save_spectral(sd, base)
    k = 17
    start, stop = sd.row_support
    at = helpers.run_offset(sd, k) + (
        0 if edge == "first" else 8 * int(stop[k] - start[k] - 1))

    def zero_it(raw):
        raw[at:at + 8] = bytes(8)
    helpers.resigned_dump(base, zero_it)
    with pytest.raises(ValueError, match=f"mode position {k}, but its "
                                         "nonzero entries span"):
        sl.load_spectral(base)


@pytest.mark.parametrize("which, value, problem", [
    ("start", -1, "outside 0 <= start < stop"),
    ("stop", "d+1", "outside 0 <= start < stop"),
    ("start", "stop", "outside 0 <= start < stop"),
    ("stop", "stop+1", "declares byte_length"),
], ids=["negative-start", "stop-past-box", "empty-run", "longer-run"])
def test_load_rejects_bad_row_supports(tmp_path, spectrum_cache, which,
                                       value, problem):
    _, sd = spectrum_cache("nn", 40, 2.0, 3)
    d, k = sd.dimension, 17
    base = str(tmp_path / "spec")
    sl.save_spectral(sd, base)
    stop = int(sd.row_support[1][k])
    value = {"stop": stop, "stop+1": stop + 1, "d+1": d + 1}.get(value,
                                                                 value)
    at = (16 if which == "start" else 24) * d + 8 * k

    def store(raw):
        raw[at:at + 8] = np.int64(value).astype("<i8").tobytes()
    helpers.resigned_dump(base, store)
    with pytest.raises(ValueError, match=problem):
        sl.load_spectral(base)


@pytest.mark.parametrize("kind, what", [
    ("pl4", "eigenvector"), ("nn", "eigenvector"), ("nn", "eigenvalue"),
    ("nn", "residual"),
], ids=["dense-nan-vector", "tridiagonal-nan-vector", "inf-eigenvalue",
        "nan-residual"])
def test_load_rejects_a_non_finite_value(tmp_path, spectrum_cache, kind,
                                         what):
    # signed again, so that only the finiteness check can refuse it
    _, sd = spectrum_cache(kind, 40, 2.0, 3)
    base = str(tmp_path / "spec")
    sl.save_spectral(sd, base)
    helpers.non_finite_dump(base, what, 17)
    with pytest.raises(ValueError, match=r"spec\.bin stores a non-finite "
                       r"eigenvalue, residual or eigenvector entry for mode "
                       r"position 17$"):
        sl.load_spectral(base)


@pytest.mark.parametrize("key, value", [
    ("degenerate_positions", [3, 4]), ("max_residual", 123.0),
    ("center_offset_sup", 9), ("anchor_position", 3),
    ("anchor_fallback", True),
])
def test_load_rejects_an_edited_summary_field(tmp_path, spectrum_cache,
                                              key, value):
    _, sd = spectrum_cache("nn", 12, 1.0, 5)
    base = str(tmp_path / "spec")
    sl.save_spectral(sd, base)
    assert sd.degenerate_positions == () and sd.center_offset_sup() != 9
    assert sd.anchor_position != 3 and not sd.anchor_fallback

    def edit(header):
        header[key] = value
    helpers.resigned_dump(base, edit_header=edit)
    with pytest.raises(ValueError, match=f"states {key} "):
        sl.load_spectral(base)


def test_load_rejects_foreign_json(tmp_path):
    base = str(tmp_path / "foreign")
    with open(base + ".json", "w") as fh:
        fh.write('{"format": "something-else"}')
    with pytest.raises(ValueError):
        sl.load_spectral(base)


def _without(*path):
    """A header edit that deletes the entry at path."""
    def edit(header):
        *parents, key = path
        for parent in parents:
            header = header[parent]
        del header[key]
    return edit


@pytest.mark.parametrize("edit, field", [
    (_without("dimension"), "dimension"),
    (_without("half_width"), "half_width"),
    (_without("payload"), "payload.eigenvector_dtype"),
    (_without("payload", "byte_length"), "payload.byte_length"),
    (_without("payload", "sha256"), "payload.sha256"),
    (_without("orthonormality_defect"), "orthonormality_defect"),
    # a list of the provenance's keys: "half_width" in it, but no entry
    (lambda header: header.update(provenance=list(header["provenance"])),
     "provenance.half_width"),
], ids=["dimension", "half_width", "payload", "byte_length", "sha256",
        "orthonormality_defect", "provenance-list"])
def test_load_names_a_header_field_it_cannot_read(tmp_path, spectrum_cache,
                                                  edit, field):
    _, sd = spectrum_cache("nn", 6)
    base = str(tmp_path / "spec")
    sl.save_spectral(sd, base)
    helpers.resigned_dump(base, edit_header=edit)
    with pytest.raises(ValueError, match=f"has no {field} field"):
        sl.load_spectral(base)


def test_position_of_out_of_range():
    op = sl.build_operator(sl.custom_kernel({}), sl.PotentialSpec(), 2)
    sd = sl.diagonalize(op)
    with pytest.raises(IndexError):
        sd.position_of(3)
    with pytest.raises(IndexError):
        sd.eigenvalue_of(-3 - 1)


def test_interior_mask_uses_centers_not_positions():
    op = sl.build_operator(sl.custom_kernel({}), sl.PotentialSpec(), 12)
    sd = sl.diagonalize(op, interior_window=10)
    np.testing.assert_array_equal(sd.interior_mask, np.abs(sd.centers) <= 2)
    assert sd.trusted_site_bound == 2


coefficients = st.complex_numbers(min_magnitude=0.0, max_magnitude=3.0,
                                  allow_nan=False, allow_infinity=False)


@given(st.lists(coefficients, min_size=1, max_size=4), st.integers(2, 6))
@settings(deadline=None, max_examples=25)
@example(half=[2.225073858507e-311j], n=2)  # a subnormal coupling
def test_diagonalize_invariants_for_arbitrary_finite_kernels(half, n):
    kernel = sl.finite_support(half)
    op = sl.build_operator(kernel, sl.PotentialSpec(), n)
    sd = sl.diagonalize(op)
    d = sd.dimension
    assert np.all(np.diff(sd.eigenvalues) >= 0.0)
    assert np.max(sd.residuals) <= 1e-10 * max(1.0, sd.spectral_radius)
    assert sd.orthonormality_defect <= 1e-10
    # ladder indices are a relabeling of the ascending positions
    positions = [sd.position_of(i) for i in sd.ladder_indices]
    assert positions == list(range(d))


def _disordered(kernel, half_width=40, amplitude=1.0, seed=3):
    pert = sl.UniformRandomPerturbation(amplitude=amplitude, seed=seed)
    return sl.build_operator(kernel, sl.PotentialSpec(perturbation=pert),
                             half_width)


def _needs_lapack(name):
    if _lapack(name) is None:
        pytest.skip(f"numpy's LAPACK exports no int64 {name}: a tridiagonal "
                    "box is solved densely, a dense one by numpy.linalg.eigh")


TRIDIAGONAL_KERNELS = {
    "real nearest neighbour": sl.nearest_neighbor(),
    "complex nearest neighbour": sl.nearest_neighbor(0.6 + 0.8j),
    "zero kernel": sl.custom_kernel({}),
    "radius-1 finite support": sl.finite_support([0.7]),
}


@pytest.mark.parametrize("name", sorted(TRIDIAGONAL_KERNELS))
def test_tridiagonal_path_matches_dense_eigh(name):
    op = _disordered(TRIDIAGONAL_KERNELS[name])
    lam, vec = np.linalg.eigh(op.matrix)
    assert np.min(np.diff(lam)) > 1e-3  # vectors are unique up to phase
    sd = sl.diagonalize(op)
    np.testing.assert_allclose(sd.eigenvalues, lam, rtol=0, atol=1e-11)
    assert sd.eigenvectors.dtype == vec.dtype
    # align each column's phase (sign, for a real kernel) with the reference
    overlap = np.sum(vec.conj() * sd.eigenvectors, axis=0)
    aligned = sd.eigenvectors * (overlap.conj() / np.abs(overlap))
    np.testing.assert_allclose(aligned, vec, rtol=0, atol=1e-11)
    dense_resid = np.linalg.norm(op.matrix @ sd.eigenvectors
                                 - sd.eigenvectors * sd.eigenvalues, axis=0)
    np.testing.assert_allclose(sd.residuals, dense_resid, rtol=0, atol=1e-13)


def test_complex_gauge_solves_any_hermitian_tridiagonal():
    # phases vary along the band and one coupling vanishes, so the gauge
    # must carry phi across a zero and handle more than one phase
    _needs_lapack("dstevd")
    rng = np.random.default_rng(4)
    d = 60
    diag = rng.normal(size=d)
    lower = rng.normal(size=d - 1) * np.exp(2j * np.pi * rng.random(d - 1))
    lower[17] = 0.0
    H = np.diag(diag).astype(complex)
    H += np.diag(lower, -1) + np.diag(lower.conj(), 1)
    lam, vec = _tridiagonal_eigh(diag, lower)
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(H), rtol=0, atol=1e-11)
    np.testing.assert_allclose(H @ vec, vec * lam, rtol=0, atol=1e-11)
    np.testing.assert_allclose(vec.conj().T @ vec, np.eye(d), rtol=0,
                               atol=1e-11)


def test_complex_gauge_writes_phi_times_z_in_f_order():
    # the gauged vectors are phi[:, None] * z for the eigenvectors z of
    # the real matrix with off-diagonal |l|, bit for bit, and
    # Fortran-ordered as ?stevd returns z
    _needs_lapack("dstevd")
    rng = np.random.default_rng(5)
    d = 50
    diag = rng.normal(size=d)
    lower = rng.normal(size=d - 1) * np.exp(2j * np.pi * rng.random(d - 1))
    lower[9] = 0.0
    lam, vec = _tridiagonal_eigh(diag, lower)
    real_lam, z = _tridiagonal_eigh(diag, np.abs(lower))
    step = np.ones_like(lower)
    np.divide(lower, np.abs(lower), out=step, where=lower != 0)
    phi = np.concatenate(([1.0 + 0.0j], np.cumprod(step)))
    np.testing.assert_array_equal(lam, real_lam)
    np.testing.assert_array_equal(vec, phi[:, None] * z)
    assert vec.dtype == np.complex128
    assert vec.flags.f_contiguous and z.flags.f_contiguous


@pytest.mark.parametrize("kernel, dense", [
    (sl.nearest_neighbor(), False),
    (sl.nearest_neighbor(0.6 + 0.8j), False),
    (sl.custom_kernel({}), False),
    (sl.finite_support([0.7]), False),
    (sl.finite_support([0.7, 0.2]), True),
    (sl.power_law(4.0), True),
], ids=["nn", "complex-nn", "zero", "radius-1", "radius-2", "p4"])
def test_solver_follows_support_radius(kernel, dense, monkeypatch):
    if not dense:
        _needs_lapack("dstevd")
    op = _disordered(kernel, half_width=20)
    calls = []
    monkeypatch.setattr(starklab.spectra, "_tridiagonal_eigh",
                        lambda diag, lower: calls.append(diag.size)
                        or _tridiagonal_eigh(diag, lower))
    sd = sl.diagonalize(op)
    assert len(calls) == int(not dense)
    assert sd.eigenvectors.flags.f_contiguous
    # a tridiagonal box is solved from its diagonals, its matrix never built
    assert ("matrix" in vars(op)) == dense


# every block split: one block short of, at and past a full block, and a
# one-column tail that joins the block before it
GATE_DIMENSIONS = (1, _GATE_BLOCK - 1, _GATE_BLOCK, _GATE_BLOCK + 1,
                   2 * _GATE_BLOCK + 3)


@pytest.mark.parametrize("d", GATE_DIMENSIONS)
@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_blocked_gates_equal_the_full_array_formulas(d, dtype):
    rng = np.random.default_rng(d)
    diag = rng.normal(size=d) * d
    lower = rng.normal(size=d - 1).astype(dtype)
    if dtype is complex:
        lower *= np.exp(2j * np.pi * rng.random(d - 1))
    H = (np.diag(diag) + np.diag(lower, -1)
         + np.diag(lower.conj(), 1)).astype(dtype)
    lam, vec = np.linalg.eigh(H)  # any eigenpairs: the gates are tested
    _, support = _fix_phases(vec)
    assert np.array_equal(
        _tridiagonal_residuals(diag, lower, lam, vec, support),
        helpers.full_tridiagonal_residuals(H, lam, vec))
    assert _gram_defect(vec, support) == helpers.full_gram_defect(vec)
    # the dense path's eigenvectors go through the same Gram gate
    A = rng.normal(size=(d, d)).astype(dtype)
    if dtype is complex:
        A += 1j * rng.normal(size=(d, d))
    _, dense_vec = np.linalg.eigh(A + A.conj().T)
    _, dense_support = _fix_phases(dense_vec)
    assert _gram_defect(dense_vec, dense_support) == \
        helpers.full_gram_defect(dense_vec)


LOCALIZED_KERNELS = pytest.mark.parametrize(
    "kernel", [sl.nearest_neighbor(), sl.nearest_neighbor(0.6 + 0.8j)],
    ids=["nn", "complex-nn"])


@LOCALIZED_KERNELS
def test_gates_on_a_localized_box_equal_the_full_array_formulas(kernel):
    # a Stark box's eigenvectors end in exact zeros; d = 2B + 3 spans three
    # gate blocks, each of whose row ranges is narrower than the box
    _needs_lapack("dstevd")
    op = sl.build_operator(kernel, sl.PotentialSpec(), _GATE_BLOCK + 1)
    d = op.dimension
    lower = _subdiagonal(op)
    lam, vec = _tridiagonal_eigh(op.diagonal, lower)
    _, support = _fix_phases(vec)
    start, stop = support
    for i0, i1 in _gate_blocks(d):
        assert stop[i0:i1].max() - start[i0:i1].min() < d
    H = op.matrix
    assert np.array_equal(
        _tridiagonal_residuals(op.diagonal, lower, lam, vec, support),
        helpers.full_tridiagonal_residuals(H, lam, vec))
    assert _gram_defect(vec, support) == helpers.full_gram_defect(vec)


@LOCALIZED_KERNELS
@pytest.mark.parametrize("seed", [1, 5, 7, 11])
def test_support_row_gram_defect_is_within_four_ulps_of_the_whole_box(
        kernel, seed):
    # the strips run over each block's support rows, which splits the
    # GEMM's sums elsewhere: the stated tolerance is 4 * 2**-52
    pert = sl.UniformRandomPerturbation(2.0, seed)
    sd = sl.diagonalize(sl.build_operator(
        kernel, sl.PotentialSpec(perturbation=pert), 300))
    start, stop = sd.row_support
    assert np.max(stop - start) < sd.dimension // 4
    whole = helpers.full_gram_defect(np.asarray(sd.eigenvectors))
    assert abs(sd.orthonormality_defect - whole) <= 4 * 2.0 ** -52


@LOCALIZED_KERNELS
@pytest.mark.parametrize("later", ["first", "last"])
def test_gram_defect_reads_every_later_column_meeting_a_block(kernel, later):
    # column j is made to overlap column i of the first block by 1e-3, the
    # largest Gram entry, which only the first block's strip holds: j is
    # the first column after the block, or the last column of the box,
    # whose support now reaches the block's rows
    sd = sl.diagonalize(sl.build_operator(kernel, sl.PotentialSpec(),
                                          _GATE_BLOCK + 1))
    vec = np.array(sd.eigenvectors)
    i = _GATE_BLOCK - 1
    j = _GATE_BLOCK if later == "first" else sd.dimension - 1
    vec[:, j] += 1e-3 * vec[:, i]
    _, support = _column_scan(vec)
    defect = _gram_defect(vec, support)
    assert defect == pytest.approx(1e-3, rel=1e-9)
    assert abs(defect - helpers.full_gram_defect(vec)) <= 4 * 2.0 ** -52


def test_row_support_brackets_the_nonzero_rows():
    vec = np.zeros((6, 6), dtype=complex)
    vec[1, 0] = vec[3, 0] = 1.0  # a zero row inside the support stays in
    vec[5, 1] = 1j
    vec[2, 3] = np.nan  # NaN != 0, and it is the peak; column 2 is zero
    vec[0, 4] = np.nan  # the first NaN is the peak
    vec[3, 4] = 2.0
    vec[1, 5], vec[4, 5] = -0.0, 0.5  # -0.0 is a zero
    rows, (start, stop) = _column_scan(vec)
    np.testing.assert_array_equal(rows, [1, 5, 0, 2, 0, 4])
    np.testing.assert_array_equal(start, [1, 5, 0, 2, 0, 4])
    np.testing.assert_array_equal(stop, [4, 6, 6, 3, 4, 5])


def _crafted_columns(dtype):
    """Columns for every rule of the scan, then random sparse columns
    with planted NaNs, infs and ties, over more than two scan blocks."""
    nan, inf = np.nan, np.inf
    cols = [
        [nan, 1.0, 2.0, 0.0, 0.0],     # the first NaN wins, in row 0
        [0.0, 1.0, nan, 3.0, 0.0],     # or below it, over a larger modulus
        [0.0, nan, 0.0, 0.0, 0.0],     # and when it is the only nonzero
        [nan, 0.0, 0.0, 0.0, 0.0],
        [nan, nan, nan, nan, nan],
        [0.0, 1.0, inf, 2.0, 0.0],     # inf is the largest modulus
        [0.0, -0.5, 0.25, 0.5, 0.0],   # the first row wins a tie
        [-0.0, 0.0, 1.0, -0.0, -0.0],  # -0.0 is a zero
        [0.0, 0.0, 0.0, 0.0, 0.0],     # a zero column gets the whole box
        [-0.0, -0.0, -0.0, -0.0, -0.0],
        [2.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -2.0],
    ]
    vec = np.zeros((150, 200), dtype)
    vec[:5, :len(cols)] = np.array(cols).T
    rng = np.random.default_rng(4)
    for k in range(len(cols), vec.shape[1]):
        lo = int(rng.integers(0, 140))
        hi = int(rng.integers(lo + 1, 151))
        vec[lo:hi, k] = rng.normal(size=hi - lo)
        if dtype is complex:
            vec[lo:hi, k] += 1j * rng.normal(size=hi - lo)
        plant = int(rng.integers(0, 5))
        row = int(rng.integers(0, 150))
        if plant == 1:
            vec[row, k] = nan
        elif plant == 2:
            vec[row, k] = inf
        elif plant == 3:  # a tie with the column's peak
            vec[row, k] = np.max(np.abs(vec[:, k]))
    vec[:, 100] = 0.0  # a zero column inside a block of localized ones
    if dtype is complex:
        vec[1, 20] = complex(nan, inf)  # |x| is inf, not NaN
        vec[3, 6] = complex(0.0, -0.5)  # a tie in modulus alone
    return vec


def _assert_scan_is_the_oracle(vec):
    want_rows, (want_start, want_stop) = helpers.row_scan(vec)
    for copy in (np.ascontiguousarray(vec), np.asfortranarray(vec)):
        rows, (start, stop) = _column_scan(copy)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(start, want_start)
        np.testing.assert_array_equal(stop, want_stop)


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_column_scan_is_the_row_loop_on_crafted_columns(dtype):
    nan = np.nan
    vec = _crafted_columns(dtype)
    rows, (start, stop) = helpers.row_scan(vec)
    # the oracle itself keeps the rules the crafted columns state
    np.testing.assert_array_equal(rows[:12],
                                  [0, 2, 1, 0, 0, 2, 1, 2, 0, 0, 0, 4])
    np.testing.assert_array_equal(start[:12],
                                  [0, 1, 1, 0, 0, 1, 1, 2, 0, 0, 0, 4])
    np.testing.assert_array_equal(stop[:12],
                                  [3, 4, 2, 1, 5, 4, 4, 3, 150, 150, 1, 5])
    _assert_scan_is_the_oracle(vec)
    _assert_scan_is_the_oracle(vec[:, :1])  # one column, one short block
    # a lone NaN in a block whose rows start below row 0
    lone = np.zeros((6, 2), dtype)
    lone[4, 0] = nan
    lone[3:5, 1] = [1.0, 2.0]
    assert helpers.row_scan(lone)[0][0] == 4
    _assert_scan_is_the_oracle(lone)


def test_column_scan_flags_either_part_of_a_complex_entry():
    nan, inf = np.nan, np.inf
    cols = [
        [0j, complex(0.0, 1.0), 0j, complex(2.0, 0.0), 0j],  # either part
        [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.5),
         0j, complex(-0.0, 0.0)],                  # a -0.0 part is a zero
        [0j, complex(0.0, nan), 0j, complex(0.0, 3.0), 0j],  # NaN imaginary
        [0j, complex(nan, 0.0), complex(1.0, 0.0), 0j, 0j],  # NaN real
        [complex(0.0, nan), 0j, complex(1.0, 1.0), 0j, 0j],  # in row 0
        [0j, complex(0.0, inf), complex(5.0, 5.0), 0j, 0j],  # inf imaginary
        [0j, 0j, complex(-inf, 0.0), 0j, complex(0.0, -1.0)],
        [0j, 0j, complex(nan, inf), complex(nan, nan), 0j],
        [0j, 0j, 0j, 0j, complex(0.0, 5e-324)],    # a subnormal part
        [complex(-0.0, -0.0)] * 5,                 # a zero column
    ]
    vec = np.zeros((140, 150), complex)
    vec[:5, :len(cols)] = np.array(cols).T
    vec[130:, 70] = complex(0.0, -0.0)  # a zero column in a later block
    vec[139, 71] = complex(-0.0, 2.0)   # and one nonzero only in the last row
    rows, (start, stop) = helpers.row_scan(vec)
    # the oracle itself keeps the rules the crafted columns state
    np.testing.assert_array_equal(rows[:10], [3, 2, 1, 1, 0, 1, 2, 3, 4, 0])
    np.testing.assert_array_equal(start[:10], [1, 2, 1, 1, 0, 1, 2, 2, 4, 0])
    np.testing.assert_array_equal(stop[:10],
                                  [4, 3, 4, 3, 3, 3, 5, 4, 5, 140])
    assert (start[70], stop[70], start[71], stop[71]) == (0, 140, 139, 140)
    _assert_scan_is_the_oracle(vec)


def test_column_scan_stops_past_the_uint16_rows():
    vec = np.zeros((70001, 2))
    vec[[3, 70000], 0] = [1.0, 0.5]
    vec[65536, 1] = -2.0
    rows, (start, stop) = _column_scan(np.asfortranarray(vec))
    np.testing.assert_array_equal(rows, [3, 65536])
    np.testing.assert_array_equal(start, [3, 65536])
    np.testing.assert_array_equal(stop, [70001, 65537])


@pytest.mark.parametrize("kernel, amplitude", [
    (sl.nearest_neighbor(), 2.0), (sl.nearest_neighbor(0.6 + 0.8j), 2.0),
    (sl.power_law(4.0), 0.5), (sl.finite_support([0.7, 0.2 + 0.3j]), 1.0),
], ids=["nn", "complex-nn", "p4", "complex-radius-2"])
def test_column_scan_is_the_row_loop_on_solver_output(kernel, amplitude):
    op = _disordered(kernel, half_width=100, amplitude=amplitude)
    _, raw = _eigh(op)  # before its phases are fixed and -0.0 cleared
    _assert_scan_is_the_oracle(raw)
    sd = sl.diagonalize(_disordered(kernel, half_width=100,
                                    amplitude=amplitude))
    _assert_scan_is_the_oracle(sd.eigenvectors)
    peaks, _ = helpers.row_scan(sd.eigenvectors)
    np.testing.assert_array_equal(sd.centers, sd.sites[peaks])


def test_spectrum_support_follows_its_eigenvectors(spectrum_cache):
    _, sd = spectrum_cache("nn", 100)
    start, stop = sd.row_support  # seeded by diagonalize
    _, fresh = _column_scan(sd.eigenvectors)
    np.testing.assert_array_equal(start, fresh[0])
    np.testing.assert_array_equal(stop, fresh[1])
    assert np.max(stop - start) < sd.dimension
    vec = np.array(sd.eigenvectors)
    vec[-1, 0] = 1e-3
    moved = dataclasses.replace(sd, eigenvectors=vec)
    assert moved.row_support[1][0] == sd.dimension
    assert sd.row_support[1][0] < sd.dimension


@pytest.mark.parametrize("kernel, scans", [
    (sl.nearest_neighbor(), 1), (sl.nearest_neighbor(0.6 + 0.8j), 2),
], ids=["real", "complex"])
def test_column_scans_per_spectrum(kernel, scans, tmp_path, monkeypatch):
    # a real box is scanned once, a complex one again after its phases,
    # and a reloaded dump once, whatever the analyses read of it
    calls = []
    scan = starklab.spectra._column_scan
    monkeypatch.setattr(starklab.spectra, "_column_scan",
                        lambda vec: calls.append(vec.shape) or scan(vec))
    sd = sl.diagonalize(_disordered(kernel, half_width=40))
    assert len(calls) == scans
    sl.save_spectral(sd, str(tmp_path / "spec"))
    calls.clear()
    loaded = sl.load_spectral(str(tmp_path / "spec"))
    sl.uniform_decay_constants(loaded, (2.0,))
    sl.bootstrap_decay_check(loaded)
    assert len(calls) == 1


def _spoil_solver(monkeypatch, spoil):
    """Pass the tridiagonal solver's eigenvectors through spoil(vec)."""
    _needs_lapack("dstevd")
    def spoiled(diag, lower):
        lam, vec = _tridiagonal_eigh(diag, lower)
        spoil(vec)
        return lam, vec
    monkeypatch.setattr(starklab.spectra, "_tridiagonal_eigh", spoiled)


@LOCALIZED_KERNELS
@pytest.mark.parametrize("column", [0, -1], ids=["first", "last"])
def test_blocked_gates_catch_one_bad_column(kernel, column, monkeypatch):
    # d = 2B + 3 puts the last column in the last block, behind two full ones
    op = sl.build_operator(kernel, sl.PotentialSpec(), _GATE_BLOCK + 1)

    def put_nan(vec):
        vec[0, column] = np.nan
    _spoil_solver(monkeypatch, put_nan)
    with pytest.raises(sl.ConvergenceFailureError, match="residual nan"):
        sl.diagonalize(op)

    def mix_in_another_mode(vec):  # breaks the residual and orthonormality
        vec[:, column] += 1e-6 * vec[:, 1]
    _spoil_solver(monkeypatch, mix_in_another_mode)
    with pytest.raises(sl.ConvergenceFailureError, match="residual"):
        sl.diagonalize(op)
    monkeypatch.setattr(starklab.spectra, "RESIDUAL_TOL", math.inf)
    with pytest.raises(sl.ConvergenceFailureError,
                       match="orthonormality defect"):
        sl.diagonalize(op)


@LOCALIZED_KERNELS
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_gates_see_a_non_finite_entry_outside_a_support(kernel, value,
                                                        monkeypatch):
    # the gates take the support of the vectors as spoiled, not as solved
    _needs_lapack("dstevd")
    op = sl.build_operator(kernel, sl.PotentialSpec(), _GATE_BLOCK + 1)
    _, clean = _tridiagonal_eigh(op.diagonal, _subdiagonal(op))
    _, (start, stop) = _column_scan(clean)
    row = op.dimension - 1
    assert not start[0] <= row < stop[0]

    def plant(vec):
        vec[row, 0] = value
    _spoil_solver(monkeypatch, plant)
    with pytest.raises(sl.ConvergenceFailureError, match="residual"):
        sl.diagonalize(op)


def test_gram_defect_keeps_a_nan():
    vec = np.eye(3)
    vec[2, 2] = np.nan
    assert math.isnan(_gram_defect(vec, _column_scan(vec)[1]))


def test_tridiagonal_lapack_failure_is_a_convergence_failure(monkeypatch):
    def fail(*args):  # info, the second argument from the end, set to 3
        args[-2].value = 3
    monkeypatch.setattr(starklab.spectra, "_lapack", lambda name: fail)
    op = sl.build_operator(sl.nearest_neighbor(), sl.PotentialSpec(), 5)
    with pytest.raises(sl.ConvergenceFailureError,
                       match=r"did not converge \(info=3\)"):
        sl.diagonalize(op)


@LOCALIZED_KERNELS
@pytest.mark.parametrize("half_width, amplitude, seed", [
    (1, 1.0, 3), (_GATE_BLOCK // 2, 1.0, 3), (1400, 2.0, 1),
], ids=["d3", "d257", "N1400"])
def test_tridiagonal_solve_equals_scipy_dstevd_bit_for_bit(
        kernel, half_width, amplitude, seed):
    dstevd = pytest.importorskip("scipy.linalg.lapack").dstevd
    _needs_lapack("dstevd")
    op = _disordered(kernel, half_width, amplitude, seed)
    diag, lower = op.diagonal.copy(), _subdiagonal(op)
    band = np.abs(lower)  # the real matrix of the gauge
    oracle_lam, oracle_z, info = dstevd(diag, band, compute_v=1)
    assert info == 0
    lam, _ = _tridiagonal_eigh(op.diagonal, lower)
    np.testing.assert_array_equal(lam, oracle_lam)
    real_lam, z = _tridiagonal_eigh(op.diagonal, band)
    np.testing.assert_array_equal(real_lam, oracle_lam)
    np.testing.assert_array_equal(z, oracle_z)
    # ?stevd overwrites its diagonal and subdiagonal; it gets copies
    np.testing.assert_array_equal(op.diagonal, diag)
    np.testing.assert_array_equal(band, np.abs(lower))


@LOCALIZED_KERNELS
@pytest.mark.parametrize("hidden", ["no-stevd", "no-lapack"])
def test_tridiagonal_box_goes_dense_without_stevd(kernel, hidden,
                                                  monkeypatch, request):
    # without ?stevd the box goes to the in-place ?syevd/?heevd; without
    # any routine, to numpy.linalg.eigh(op.matrix)
    _needs_lapack("dstevd")
    stevd = sl.diagonalize(_disordered(kernel))
    if hidden == "no-stevd":
        _needs_lapack(_dense_solver(kernel))
        lookup = starklab.spectra._lapack
        monkeypatch.setattr(starklab.spectra, "_lapack", lambda name: (
            None if name == "dstevd" else lookup(name)))
    else:
        request.getfixturevalue("no_lapack")
        assert _lapack(_dense_solver(kernel)) is None
    assert starklab.spectra._lapack("dstevd") is None
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: calls.append(a.shape) or eigh(a))
    op = _disordered(kernel)
    dense = sl.diagonalize(op)  # both gates pass
    assert len(calls) == (hidden == "no-lapack")
    # only numpy's eigh reads (and so keeps) the dense matrix
    assert ("matrix" in op.__dict__) == (hidden == "no-lapack")
    np.testing.assert_allclose(dense.eigenvalues, stevd.eigenvalues, rtol=0,
                               atol=1e-12 * max(1.0, stevd.spectral_radius))
    assert dense.provenance == stevd.provenance
    # the residual follows the box, not the solver: still three terms
    assert np.array_equal(dense.residuals, _tridiagonal_residuals(
        op.diagonal, _subdiagonal(op), dense.eigenvalues, dense.eigenvectors,
        dense.row_support))


@pytest.mark.parametrize("kernel", [sl.nearest_neighbor(), sl.power_law(4.0)],
                         ids=["nn", "p4"])
def test_non_finite_operator_fails_the_gates(kernel):
    pert = sl.ExplicitPerturbation(0, (math.inf,))
    op = sl.build_operator(kernel, sl.PotentialSpec(perturbation=pert), 5)
    with pytest.raises(sl.ConvergenceFailureError):
        sl.diagonalize(op, interior_window=2)


def test_nan_residual_fails_the_gate(monkeypatch):
    op = sl.build_operator(sl.power_law(4.0), sl.PotentialSpec(), 5)
    d = op.dimension
    monkeypatch.setattr(starklab.spectra, "_eigh", lambda op: (
        np.arange(d, dtype=float), np.full((d, d), np.nan)))
    with pytest.raises(sl.ConvergenceFailureError, match="residual nan"):
        sl.diagonalize(op)


def _last_line_of(script: str) -> str:
    """The last line a fresh interpreter running script prints."""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


SCIPY_MODULES = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"


def test_import_and_config_load_leave_scipy_unloaded(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"kernel": {"family": "nearest_neighbor"}, '
                   '"half_widths": [8]}')
    assert _last_line_of("import sys, starklab\n"
                         "from starklab.experiments import load_config\n"
                         f"load_config({str(cfg)!r})\n"
                         + SCIPY_MODULES) == "[]"


DENSE_KERNELS = pytest.mark.parametrize(
    "kernel", [sl.power_law(4.0),
               sl.finite_support([0.6 + 0.8j, 0.1 - 0.3j, 0.05j])],
    ids=["p4", "complex"])


def _dense_solver(kernel) -> str:
    return "dsyevd" if kernel.is_real else "zheevd"


@DENSE_KERNELS
@pytest.mark.parametrize("half_width", [1, _GATE_BLOCK // 2, 200],
                         ids=["d3", "d257", "d401"])
def test_in_place_dense_solve_equals_eigh_bit_for_bit(kernel, half_width,
                                                      request):
    _needs_lapack(_dense_solver(kernel))
    lam, vec = _eigh(_disordered(kernel, half_width))
    assert vec.flags.f_contiguous
    oracle = np.linalg.eigh(_disordered(kernel, half_width).matrix)
    np.testing.assert_array_equal(lam, oracle[0])
    np.testing.assert_array_equal(vec, oracle[1])
    sd = sl.diagonalize(_disordered(kernel, half_width))
    request.getfixturevalue("no_lapack")
    assert _lapack(_dense_solver(kernel)) is None
    fallback = sl.diagonalize(_disordered(kernel, half_width))
    for field in ("eigenvalues", "eigenvectors", "residuals"):
        np.testing.assert_array_equal(getattr(sd, field),
                                      getattr(fallback, field))
    assert sd.orthonormality_defect == fallback.orthonormality_defect
    assert sd.provenance == fallback.provenance


@DENSE_KERNELS
def test_dense_lapack_failure_is_a_convergence_failure(kernel, monkeypatch):
    def fail(*args):  # info, the third argument from the end, set to 7
        args[-3].value = 7
    monkeypatch.setattr(starklab.spectra, "_lapack", lambda name: fail)
    op = _disordered(kernel, half_width=5)
    with pytest.raises(sl.ConvergenceFailureError,
                       match=r"evd did not converge \(info=7\)"):
        sl.diagonalize(op)


@DENSE_KERNELS
def test_dense_diagonalize_peak_stays_below_its_bound(kernel):
    # eigh held the matrix, its copy, the 2 d^2 workspace and its output
    # (5.1 to 5.4 d^2 entries of rise at N = 600); the in-place solve
    # holds the matrix and the workspace, and the residual the matrix,
    # the eigenvectors and their product (3.4 to 3.7).  The peak is the
    # child's VmHWM: Linux starts a child's ru_maxrss at its parent's peak,
    # which in a test run can exceed the child's whole solve.
    _needs_lapack(_dense_solver(kernel))
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the peak RSS from")
    ratio = _last_line_of(
        "import re, starklab as sl\n"
        "def peak_kib():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return int(re.search(r'VmHWM:\\s*(\\d+)', fh.read())[1])\n"
        f"kernel = sl.build_kernel(**{kernel.describe()!r})\n"
        "sl.diagonalize(sl.build_operator(kernel, sl.PotentialSpec(), 1))\n"
        "before = peak_kib()\n"
        "op = sl.build_operator(kernel, sl.PotentialSpec(), 600)\n"
        "sl.diagonalize(op)\n"
        "rise = (peak_kib() - before) * 1024\n"
        "print(rise / (op.dimension ** 2 * op.dtype.itemsize))")
    assert float(ratio) < 4.5


def test_diagonalize_releases_the_free_heap_around_the_solve(monkeypatch):
    # the heap is trimmed before the solve and before the gates; a C
    # library without malloc_trim leaves the spectrum as it is
    calls = []
    monkeypatch.setattr(starklab.spectra, "_malloc_trim",
                        lambda: lambda pad: calls.append(pad))
    op = _disordered(sl.power_law(4.0), half_width=20)
    trimmed = sl.diagonalize(op)
    assert calls == [0, 0]
    monkeypatch.setattr(starklab.spectra, "_malloc_trim", lambda: None)
    plain = sl.diagonalize(_disordered(sl.power_law(4.0), half_width=20))
    assert trimmed.eigenvectors.tobytes() == plain.eigenvectors.tobytes()
