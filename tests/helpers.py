"""Independent oracles used by the tests.

Everything here recomputes expected values by a different route than the
library (naive double loops, one numpy generator per disordered site,
closed-form root formulas, a generic ODE integrator, one complex
eigen-expansion per time, a running maximum down the rows) so agreement
is meaningful.  resigned_dump edits a spectrum dump and signs it again,
run_offset finds an eigenvector's run in its payload, and
non_finite_dump stores a NaN or inf in one, for the tests of what a
reload must refuse; per_row_csv writes a CSV one row at a time.
"""
import hashlib
import json
import math

import numpy as np

import starklab as sl


def per_site_draws(perturbation, sites):
    """b at each site; for uniform random disorder, one
    default_rng((seed, n + 2**32)) per site n and its first
    uniform(-a, a): the rule the library computes for the whole box at
    once."""
    if not isinstance(perturbation, sl.UniformRandomPerturbation):
        return perturbation.values(sites)
    sites = np.asarray(sites)
    out = np.empty(sites.shape, dtype=float)
    flat = out.reshape(-1)
    for i, n in enumerate(sites.reshape(-1)):
        rng = np.random.default_rng((int(perturbation.seed), int(n) + 2 ** 32))
        flat[i] = rng.uniform(-perturbation.amplitude, perturbation.amplitude)
    return out


def naive_matrix(kernel, potential, half_width):
    # assemble straight from the definition, one entry at a time
    sites = np.arange(-half_width, half_width + 1)
    d = sites.size
    diag = (potential.diagonal_values(sites)
            + per_site_draws(potential.perturbation, sites))
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            if i == j:
                out[i, j] = diag[i]
            else:
                out[i, j] = kernel.amplitude(int(sites[i] - sites[j]))
    return out


def full_tridiagonal_residuals(H, lam, vec):
    """Column norms of H @ vec - vec * lam for a tridiagonal H, summed
    over its three diagonals on whole d x d arrays at once: the formula
    the blocked residual gate must reproduce bit for bit."""
    diag, lower = H.diagonal(), H.diagonal(-1)
    r = np.subtract.outer(diag, lam)
    r *= vec
    r[1:] += lower[:, np.newaxis] * vec[:-1]
    r[:-1] += lower.conj()[:, np.newaxis] * vec[1:]
    return np.linalg.norm(r, axis=0)


def resigned_dump(base, edit_payload=None, edit_header=None):
    """Edit a spectrum dump in place and sign it again: edit_payload
    changes the bytes of base.bin (a bytearray), the header then takes the
    edited payload's sha256 and length, and edit_header changes the header
    (a dict) last."""
    with open(f"{base}.bin", "rb") as fh:
        raw = bytearray(fh.read())
    if edit_payload is not None:
        edit_payload(raw)
    with open(f"{base}.bin", "wb") as fh:
        fh.write(raw)
    with open(f"{base}.json", encoding="utf-8") as fh:
        header = json.load(fh)
    header["payload"]["sha256"] = hashlib.sha256(raw).hexdigest()
    header["payload"]["byte_length"] = len(raw)
    if edit_header is not None:
        edit_header(header)
    with open(f"{base}.json", "w", encoding="utf-8") as fh:
        json.dump(header, fh)


def run_offset(sd, position):
    """Byte offset of the run of the eigenvector at position in a
    payload: eigenvalues, residuals, start and stop come first."""
    start, stop = sd.row_support
    itemsize = sd.eigenvectors.dtype.itemsize
    return (32 * sd.dimension
            + itemsize * int(np.sum(stop[:position] - start[:position])))


def non_finite_dump(base, what, position):
    """Store a non-finite value for the mode at position in the dump at
    base and sign it again: a NaN in the middle of its eigenvector's run
    (what "eigenvector"), an inf eigenvalue or a NaN residual."""
    sd = sl.load_spectral(base)
    if what == "eigenvector":
        start, stop = sd.row_support
        at = run_offset(sd, position) + sd.eigenvectors.itemsize * int(
            (stop[position] - start[position]) // 2)
        value = np.array(np.nan, sd.eigenvectors.dtype)
    else:
        at = 8 * (position + (sd.dimension if what == "residual" else 0))
        value = np.array(np.inf if what == "eigenvalue" else np.nan, "<f8")

    def store(raw):
        raw[at:at + value.itemsize] = value.tobytes()
    resigned_dump(base, store)


def row_scan(vec):
    """(peak_rows, (start, stop)) of the columns of vec by one running
    maximum down the rows, seeded by row 0 and replaced by a strictly
    larger modulus or by a NaN where it is not yet a NaN (so the first
    row wins a tie and the first NaN wins, np.argmax's rule), and the
    first and last row where x != 0 (a zero column gets the whole box):
    the rule the library's blocked scan computes."""
    d, n = vec.shape
    best = np.abs(vec[0])
    rows = np.zeros(n, dtype=np.intp)
    start = np.full(n, d, dtype=np.intp)
    stop = np.zeros(n, dtype=np.intp)
    for i in range(d):
        mod = np.abs(vec[i])
        if i:
            larger = (mod > best) | (np.isnan(mod) & ~np.isnan(best))
            best[larger] = mod[larger]
            rows[larger] = i
        nonzero = vec[i] != 0
        start[nonzero] = np.minimum(start[nonzero], i)
        stop[nonzero] = i + 1
    empty = stop == 0
    start[empty], stop[empty] = 0, d
    return rows, (start, stop)


def per_row_csv(path, header, rows):
    """A CSV written one row at a time: each row one %-format of a
    template cached by its cell types, %d for an integer cell and %.17g
    for any other, and one write per row (the byte format of
    _format.write_csv, which types a cell by its column's dtype and writes
    in chunks)."""
    templates = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            types = tuple(map(type, row))
            if types not in templates:
                templates[types] = ",".join(
                    "%d" if issubclass(t, (int, np.integer)) else "%.17g"
                    for t in types) + "\n"
            fh.write(templates[types] % row)


def full_gram_defect(vec):
    """max |<phi_i, phi_j> - delta_ij| from the whole Gram matrix: the
    formula the blocked orthonormality gate must reproduce bit for bit."""
    gram = vec.conj().T @ vec
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    return float(np.max(np.abs(gram)))


def whole_box_bootstrap(sd, gamma):
    """The bootstrap check with its right side formed on every row of the
    box, one block of localization._BLOCK interior modes at a time: the
    shifted sum over the whole box for a narrow band, one GEMM with the
    d x d Toeplitz matrix for a wide one.  The candidate-row check must
    reproduce its sites, lhs, slack and counts bit for bit, and its rhs
    (bit for bit on a narrow band) within 1e-13 relative.

    Returns (n_checked, violations as (ladder index, site, lhs, rhs,
    slack), the number of candidate rows of each block, the margins
    (rhs + slack - lhs) / (rhs + slack) of the candidates as (margin,
    ladder index, site), by mode and then by site, and per block each
    row's largest lhs - (slack - BOOTSTRAP_SLACK) over the modes in
    scope, which a row's lhs must exceed by BOOTSTRAP_SLACK to be a
    candidate).  BOOTSTRAP_SLACK is read at call time, as the check reads
    it.
    """
    from starklab import localization
    from starklab.localization import _BLOCK, _SHIFTED_SUM_MAX_BAND
    from starklab.operators import toeplitz

    d, N = sd.dimension, sd.half_width
    kernel = sd.kernel
    support = kernel.support_radius
    M = 2 * N if support is None else min(2 * N, max(support, 1))
    absw = np.abs(kernel.amplitudes(np.arange(-M, M + 1)))
    total_cutoff = M if support is None else max(support, 1)
    total_mass = sl.weighted_norm(kernel, total_cutoff).upper_bound
    cums = np.concatenate([[0.0], np.cumsum(absw)])
    sites = sd.sites
    j1 = np.clip(sites - N + M, 0, 2 * M + 1)
    j2 = np.clip(sites + N + M + 1, 0, 2 * M + 1)
    tail_mass = np.maximum(total_mass - (cums[j2] - cums[j1]),
                           0.0)[:, np.newaxis]
    if 2 * M + 1 <= _SHIFTED_SUM_MAX_BAND:
        def convolve(amp):
            out = np.zeros_like(amp)
            for o, w in zip(range(-M, M + 1), absw):
                if w == 0.0:
                    continue
                if o >= 0:
                    out[o:] += w * amp[:d - o]
                else:
                    out[:d + o] += w * amp[-o:]
            return out
    else:
        v = np.zeros(2 * d - 1)
        v[d - 1 - M:d + M] = absw
        T = toeplitz(v)

        def convolve(amp):
            return T @ amp

    positions = np.nonzero(sd.interior_mask)[0]
    n_checked, violations, candidate_rows, margins = 0, [], [], []
    excess = []
    for first in range(0, positions.size, _BLOCK):
        block = positions[first:first + _BLOCK]
        ladder = sd.ladder_indices[block]
        amp = np.abs(sd.eigenvectors[:, block])
        dist = np.abs(np.arange(d)[:, np.newaxis] - (ladder + N))
        factor = np.where(dist > 0, 4.0 * gamma / np.maximum(dist, 1), 0.0)
        scope = dist > 2.0 * gamma
        rhs = factor * convolve(amp)
        tail_slack = factor * tail_mass * np.max(amp, axis=0)
        slack = tail_slack + localization.BOOTSTRAP_SLACK
        excess.append(np.max(np.where(scope, amp - tail_slack, -np.inf),
                             axis=1))
        n_checked += int(np.count_nonzero(scope))
        candidate = scope & (amp > slack)
        candidate_rows.append(int(np.count_nonzero(candidate.any(axis=1))))
        bound = rhs + slack
        for k, i in zip(*np.nonzero(candidate.T)):
            margins.append(((bound[i, k] - amp[i, k]) / bound[i, k],
                            int(ladder[k]), int(sites[i])))
            if amp[i, k] > bound[i, k]:
                violations.append((int(ladder[k]), int(sites[i]),
                                   float(amp[i, k]), float(rhs[i, k]),
                                   float(slack[i, k])))
    return n_checked, violations, candidate_rows, margins, excess


def assert_bootstrap_matches_whole_box(sd, gamma):
    """bootstrap_decay_check(sd, gamma) against
    whole_box_bootstrap: the same sites, lhs, slack, counts and witness
    site; rhs and the smallest margin bit for bit on a narrow band,
    within 1e-13 relative on a wide one.  Returns the oracle's candidate
    rows per block."""
    from starklab.localization import _SHIFTED_SUM_MAX_BAND

    rep = sl.bootstrap_decay_check(sd, gamma)
    n_checked, violations, candidate_rows, margins, _ = \
        whole_box_bootstrap(sd, gamma)
    assert rep.n_checked == n_checked
    assert [(v.ladder_index, v.site, v.lhs, v.slack)
            for v in rep.violations] == \
        [(m, n, lhs, slack) for m, n, lhs, _, slack in violations]
    support = sd.kernel.support_radius
    narrow = support is not None and \
        2 * min(2 * sd.half_width, max(support, 1)) + 1 <= \
        _SHIFTED_SUM_MAX_BAND
    rtol = 0.0 if narrow else 1e-13
    np.testing.assert_allclose([v.rhs for v in rep.violations],
                               [v[3] for v in violations], rtol=rtol, atol=0)
    assert rep.n_candidates == len(margins)
    if margins:
        w = int(np.argmin([m for m, _, _ in margins]))
        margin, *at = margins[w]
        assert rep.min_margin_at == tuple(at)
        # rhs + slack within rtol moves lhs / (rhs + slack) = 1 - margin
        # by at most rtol times itself
        assert abs(rep.min_margin - margin) <= rtol * (1.0 - margin)
    else:
        assert rep.min_margin is None and rep.min_margin_at is None
    return candidate_rows


def symmetric_cubic_roots(matrix):
    """Eigenvalues of a real symmetric 3x3 matrix via the trigonometric
    solution of its characteristic polynomial. No eigensolver involved."""
    h = np.asarray(matrix, dtype=float)
    assert h.shape == (3, 3)
    tr = h[0, 0] + h[1, 1] + h[2, 2]
    minors = (h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
              + h[0, 0] * h[2, 2] - h[0, 2] * h[2, 0]
              + h[1, 1] * h[2, 2] - h[1, 2] * h[2, 1])
    det = (h[0, 0] * (h[1, 1] * h[2, 2] - h[1, 2] * h[2, 1])
           - h[0, 1] * (h[1, 0] * h[2, 2] - h[1, 2] * h[2, 0])
           + h[0, 2] * (h[1, 0] * h[2, 1] - h[1, 1] * h[2, 0]))
    # x^3 - tr x^2 + minors x - det = 0; depress with x = y + tr/3
    p = minors - tr * tr / 3.0
    q = 2.0 * tr ** 3 / 27.0 - tr * minors / 3.0 + det
    # symmetric matrix: three real roots, p < 0 unless the matrix is scalar
    if p >= 0:
        return sorted([tr / 3.0] * 3)
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = min(1.0, max(-1.0, 3.0 * q / (p * m)))
    theta = math.acos(arg) / 3.0
    return sorted(m * math.cos(theta - 2.0 * math.pi * k / 3.0) + tr / 3.0
                  for k in range(3))


def rk45_amplitudes(op, source, t):
    """Reference time evolution: integrate i u' = H u with scipy's RK45 on
    the real-stacked system. Slow but entirely independent of the
    eigen-expansion route."""
    from scipy.integrate import solve_ivp

    h = np.array(op.matrix, dtype=complex)
    d = h.shape[0]
    u0 = np.zeros(d, dtype=complex)
    u0[np.flatnonzero(op.sites == source)] = 1.0

    def rhs(_, y):
        u = y[:d] + 1j * y[d:]
        du = -1j * (h @ u)
        return np.concatenate([du.real, du.imag])

    y0 = np.concatenate([u0.real, u0.imag])
    sol = solve_ivp(rhs, (0.0, t), y0, method="RK45",
                    rtol=1e-10, atol=1e-12, dense_output=False)
    assert sol.success
    yT = sol.y[:, -1]
    return yT[:d] + 1j * yT[d:]


def evolved_amplitudes(sd, source, t):
    """psi_t of a packet released at ``source``: one complex
    matrix-vector product of the eigen-expansion at a single time, where
    the library propagates many times at once by real cos/sin GEMMs."""
    coeffs = np.exp(-1j * sd.eigenvalues * t)
    coeffs *= sd.eigenvectors[np.flatnonzero(sd.sites == source)[0]].conj()
    return sd.eigenvectors @ coeffs


def stepped_amplitudes(sd, amplitudes, dt):
    """Any state evolved by dt: project on the eigenbasis, turn each
    coefficient's phase, and sum the modes back up."""
    coeffs = sd.eigenvectors.conj().T @ amplitudes
    coeffs *= np.exp(-1j * sd.eigenvalues * dt)
    return sd.eigenvectors @ coeffs


def moment_of(sites, amplitudes, q):
    """sum_n |n|**q |psi(n)|**2, one site at a time."""
    return math.fsum(abs(int(n)) ** q * abs(a) ** 2
                     for n, a in zip(sites, amplitudes))


def majorant_defect(amplitudes, majorant):
    """Largest excess of |psi_t(n)| over B(n, k); row n of amplitudes
    holds site n at one or more times."""
    amps = np.reshape(amplitudes, (len(majorant), -1))
    return float(np.max(np.abs(amps) - np.asarray(majorant)[:, None]))
