"""Acceptance gate: one end-to-end check per headline claim.

Each test prints a single summary line

    ACCEPTANCE <n> <name>: PASS|FAIL (<measured numbers>)

before asserting, so `pytest tests/test_acceptance.py -v -s` reads as a
scorecard.  Criterion 3 asserts that each trusted mode's decay constant
is the same in both box sizes; the spread of the sup constant across
disorder draws, which the paper's uniform bound does not constrain, is
measured per disorder strength and only reported.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

import helpers
import starklab as sl
from starklab import dynamics
from starklab.cli import main as cli_main
from starklab.operators import box_hopping_norm


def report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {verdict} ({detail})")


def propagated(sd, times):
    # psi_t from site 0 as the library builds it, on the full spectrum,
    # one column per time
    row = sd.eigenvectors[sd.row_of_site(0)]
    return dynamics._amplitudes(sd.eigenvectors, sd.eigenvalues, row.conj(),
                                np.asarray(times, dtype=float))


def pinning_gamma(op):
    box = box_hopping_norm(op.kernel, op.half_width)
    return box + op.perturbation_sup + 1.0


def test_acceptance_1_integer_ladder(spectrum_cache):
    _, sd = spectrum_cache("nn", 200)
    worst = max(abs(sd.eigenvalue_of(n) - n) for n in range(-100, 101))
    ok = worst <= 1e-8
    report(1, "integer_ladder", ok,
           f"max |lambda_n - n| = {worst:.3e} over |n| <= 100, budget 1e-08")
    assert ok


def test_acceptance_2_eigenvalue_pinning(spectrum_cache):
    runs = 0
    worst_margin = 0.0
    all_passed = True
    for kind in ("nn", "pl4"):
        for amp in (0.5, 5.0):
            for seed in range(5):
                _, sd = spectrum_cache(kind, 400, amp, seed)
                rep = sl.check_eigenvalue_asymptotics(sd)
                runs += 1
                all_passed &= rep.passed
                worst_margin = max(worst_margin,
                                   rep.max_deviation / rep.bound)
    ok = all_passed and runs == 20
    report(2, "eigenvalue_pinning", ok,
           f"{runs} runs at N=400, zero violations, worst deviation at "
           f"{worst_margin:.1%} of its bound")
    assert ok


def decay_witness(sd, rep):
    """Ladder index and center of the mode with the largest constant, and
    the site and |phi| where its weighted amplitude peaks."""
    m = int(rep.ladder[np.argmax(rep.per_mode)])  # the first largest
    amp = np.abs(sd.eigenvectors[:, sd.position_of(m)])
    center = int(sd.centers[sd.position_of(m)])
    dist = np.abs(sd.sites - center).astype(float)
    weighted = np.where(dist >= 1.0, amp * dist ** rep.alpha, -np.inf)
    row = int(np.argmax(weighted))
    return m, center, int(sd.sites[row]), float(amp[row])


def test_acceptance_3_decay_constant_stability(spectrum_cache):
    # The decay bound is uniform over perturbations of a given sup norm;
    # it promises no agreement between draws, and none between strengths,
    # which enter through gamma = |a|_0 + |b|_inf + 1.  So the box-size
    # drift is asserted mode by mode on the ladder indices trusted in both
    # boxes, and the spread across draws is measured per amplitude and
    # reported, not asserted.
    alpha = 3.0
    amps = (0.5, 5.0)
    combos = [(amp, seed) for amp in amps for seed in range(5)]
    spectra = {200: {}, 400: {}}
    reps = {200: {}, 400: {}}
    for n in reps:
        for combo in combos:
            _, sd = spectrum_cache("pl4", n, *combo)
            spectra[n][combo] = sd
            (reps[n][combo],) = sl.uniform_decay_constants(sd, (alpha,))
    finite = all(np.isfinite(rep.sup_constant) for per in reps.values()
                 for rep in per.values())

    spread = {}
    for n, per in reps.items():
        for amp in amps:
            sups = [per[(amp, seed)].sup_constant for seed in range(5)]
            spread[n, amp] = (max(sups) - min(sups)) / min(sups)

    drift = 0.0
    compared = []
    for combo in combos:
        small, large = reps[200][combo], reps[400][combo]
        # both ladders ascend, so the entries on common indices align
        small_c = small.per_mode[np.isin(small.ladder, large.ladder)]
        large_c = large.per_mode[np.isin(large.ladder, small.ladder)]
        compared.append(small_c.size)
        changes = np.abs(large_c - small_c) / small_c
        drift = max(drift, changes.max() if changes.size else np.inf)

    witnesses = []
    for amp in amps:
        n, combo = max(((n, c) for n in reps for c in combos if c[0] == amp),
                       key=lambda key: reps[key[0]][key[1]].sup_constant)
        rep = reps[n][combo]
        m, center, site, phi = decay_witness(spectra[n][combo], rep)
        witnesses.append(
            f"B={amp:g}: C={rep.sup_constant:.1f} at N={n} seed "
            f"{combo[1]}, m={m}, center {center}, site {site}, "
            f"|phi|={phi:.2f}")

    clauses = [
        ("constants finite", finite),
        ("per-mode drift N=200->400 < 5%", drift < 0.05),
    ]
    failed = [label for label, holds in clauses if not holds]
    spreads = "; ".join(
        f"B={amp:g} {spread[200, amp]:.0%} at N=200, "
        f"{spread[400, amp]:.0%} at N=400" for amp in amps)
    detail = (f"alpha={alpha:g} over 10 disorder draws: max per-mode "
              f"drift {drift:.1e} (budget 5%) on {min(compared)}-"
              f"{max(compared)} common ladder indices per draw; spread of "
              f"sup constant across draws (reported, not asserted): "
              f"{spreads}; largest constant {'; '.join(witnesses)}")
    report(3, "decay_constant_stability", not failed, detail)
    if failed:
        pytest.fail("clauses exceeded: " + "; ".join(failed) + " -- " + detail)


def test_acceptance_4_bootstrap_inequality(spectrum_cache):
    checked = 0
    clean = True
    for kind, amp, seed in (("nn", 0.0, 0), ("pl4", 0.5, 2)):
        op, sd = spectrum_cache(kind, 200, amp, seed)
        rep = sl.bootstrap_decay_check(sd, gamma=pinning_gamma(op))
        clean &= rep.passed
        checked += rep.n_checked

    # negative control: planted far-field amplitude must be caught
    _, sd0 = spectrum_cache("nn", 200)
    vec = np.array(sd0.eigenvectors)
    vec[sd0.row_of_site(80), sd0.position_of(0)] = 0.1
    corrupted = dataclasses.replace(sd0, eigenvectors=vec)
    control = sl.bootstrap_decay_check(corrupted, gamma=3.0)
    caught = (not control.passed) and \
        any(v.ladder_index == 0 and v.site == 80 for v in control.violations)

    ok = clean and checked > 0 and caught
    report(4, "bootstrap_inequality", ok,
           f"{checked} (mode, site) pairs clean on two suites; planted "
           f"corruption raised {len(control.violations)} violation(s)")
    assert ok


def test_acceptance_5_moment_boundedness(spectrum_cache):
    q = 2.5
    _, sd_small = spectrum_cache("pl4", 200)
    _, sd_big = spectrum_cache("pl4", 400)
    env_small = sl.envelope(sd_small, 0, qs=(q,))
    env_big = sl.envelope(sd_big, 0, qs=(q,))
    series = sl.moment_series(sd_big, env_big, (q,), sl.time_grid())
    bound = env_big.moment_bound(q)
    margin = series.running_sup[0] - bound
    ratio = bound / env_small.moment_bound(q)
    share = env_big.boundary_share(q)
    ok = margin <= 1e-10 and ratio < 1.1 and share < 0.01
    report(5, "moment_boundedness", ok,
           f"q={q:g}, k=0: sup M_q - E_q = {margin:.3e} over "
           f"{series.times.size} times, E_q doubling ratio {ratio:.4f} "
           f"(budget 1.1), boundary share {share:.2e} (budget 1e-02)")
    assert ok


def test_acceptance_6_evolution_oracle(spectrum_cache):
    worst = 0.0
    specs = (("nn", 0.0, 0), ("pl4", 0.0, 0), ("nn", 0.5, 0))
    for kind, amp, seed in specs:
        op, sd = spectrum_cache(kind, 50, amp, seed)
        amps = propagated(sd, (1.0, 10.0))
        for j, t in enumerate((1.0, 10.0)):
            oracle = helpers.rk45_amplitudes(op, 0, t)
            worst = max(worst, np.abs(amps[:, j] - oracle).max())
    _, sd = spectrum_cache("nn", 50, 0.5, 0)
    amps = propagated(sd, (0.0, 1.0, 10.0, 1e6, 1.5, 3.75))
    unit = np.abs(np.linalg.norm(amps[:, :4], axis=0) - 1.0).max()
    composed = helpers.stepped_amplitudes(sd, amps[:, 4], 2.25)
    comp = np.abs(composed - amps[:, 5]).max()
    ok = worst <= 1e-7 and unit <= 1e-10 and comp <= 1e-8
    report(6, "evolution_oracle", ok,
           f"max gap to ODE integrator {worst:.3e} (budget 1e-07) across "
           f"{len(specs)} specs at N=50, unitarity defect {unit:.3e}, "
           f"composition defect {comp:.3e}")
    assert ok


def test_acceptance_7_eigensolver_quality(spectrum_cache):
    spectrum_cache("nn", 200)  # audit at least one spectrum when run alone
    worst_res = 0.0
    worst_orth = 0.0
    audited = 0
    for op, sd in list(spectrum_cache.store.values()):
        v = sd.eigenvectors
        residual = np.linalg.norm(op.matrix @ v - v * sd.eigenvalues,
                                  axis=0).max()
        worst_res = max(worst_res,
                        residual / max(1.0, sd.spectral_radius))
        gram = v.conj().T @ v
        gram[np.diag_indices_from(gram)] -= 1.0
        worst_orth = max(worst_orth, np.abs(gram).max())
        audited += 1
    ok = worst_res <= 1e-10 and worst_orth <= 1e-10
    report(7, "eigensolver_quality", ok,
           f"{audited} spectra audited: worst scaled residual "
           f"{worst_res:.3e}, worst orthonormality defect {worst_orth:.3e} "
           f"(budgets 1e-10)")
    assert ok


def test_acceptance_8_byte_determinism(tmp_path):
    doc = {
        "kernel": {"family": "nearest_neighbor"},
        "potential": {"perturbation": {"kind": "uniform_random",
                                       "amplitude": 1.0}},
        "half_widths": [48, 64],
        "seed": 3,
        "analyses": {"asymptotics": True,
                     "decay": {"alphas": [3.0]},
                     "dynamics": {"sources": [0], "moments": [2.0],
                                  "grid": {"dt": 0.5, "t_max": 20.0,
                                           "quasi_random": 10,
                                           "far_horizon": 1000.0}}},
    }
    out_dirs = []
    for tag in ("first", "second"):
        run_doc = dict(doc)
        run_doc["output"] = {"directory": str(tmp_path / tag)}
        cfg = tmp_path / f"{tag}.json"
        cfg.write_text(json.dumps(run_doc))
        assert cli_main(["study", "--config", str(cfg)]) == 0
        out_dirs.append(tmp_path / tag)
    csvs = sorted(f for f in os.listdir(out_dirs[0]) if f.endswith(".csv"))
    mismatched = [f for f in csvs
                  if open(out_dirs[0] / f, "rb").read()
                  != open(out_dirs[1] / f, "rb").read()]
    ok = bool(csvs) and not mismatched
    report(8, "byte_determinism", ok,
           f"{len(csvs)} CSV files identical across two runs"
           if ok else f"mismatch in {mismatched}")
    assert ok
