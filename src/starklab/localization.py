"""Localization diagnostics: eigenvalue pinning, uniform decay, bootstrap.

Three empirical checks on a diagonalized operator with a uniform linear
field, each read from the SpectralData and its provenance alone:

* Pinning: every trusted eigenvalue sits within |a|_0 + |b|_inf + 1 of its
  ladder index (Schur bound on the hopping part plus the half-integer
  spacing argument).
* Uniform power decay: sup over interior modes and sites of
  |phi_m(n)| * dist**alpha, measured against the detected localization
  center and, separately, against the ladder index, for every alpha in
  one pass.  Least-squares decay exponents per mode do not depend on
  alpha; they are fitted once and reported as diagnostics only.
* Bootstrap inequality: away from the center the eigen-equation forces

      |phi_m(n)| <= 4*gamma/|m - n| * sum_k |a(k)| |phi_m(n - k)|

  whenever |m - n| > 2*gamma and gamma dominates every pinning deviation.
  Checked with an explicit slack for the hopping mass that falls outside
  the box.

The first and third checks refuse Maryland-family potentials: their
hypotheses name the linear field.  The decay and bootstrap checks walk
the interior modes in blocks and read only the rows each block's
eigenvectors occupy (sd.row_support): the exact-zero rows of a
localized spectrum never change a sup, a fit or a violation, so they
are skipped.  The bootstrap takes each block's slack first and forms
its right side only on the candidate rows, where some in-scope mode
has |phi_m(n)| above its slack: the right side is nonnegative, so no
other row can fail.  About 200 of 2001 rows per block are candidates
at p = 4, N = 1000, B = 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import weighted_norm
from .operators import box_hopping_norm
from .spectra import SpectralData, support_rows

__all__ = [
    "WrongPotentialFamilyError",
    "NoInteriorModesError",
    "AsymptoticsReport",
    "UniformDecayReport",
    "BootstrapViolation",
    "BootstrapReport",
    "check_eigenvalue_asymptotics",
    "uniform_decay_constants",
    "bootstrap_decay_check",
    "asymptotics_rows",
    "decay_rows",
    "BOOTSTRAP_SLACK",
]

# the bootstrap's numerical slack, added to each site's dropped-tail slack
BOOTSTRAP_SLACK = 1e-8

# interior modes per blocked pass; a d x 128 float64 block is 2 MB at d = 2001
_BLOCK = 128
# kernels whose band 2M+1 spans at most this many offsets are convolved by a
# shifted sum, wider bands by a Toeplitz GEMM.  Per block of 128 modes at
# the candidate rows of a p = 4 box (about 200 rows; B = 0.5, seed 7) on 2
# cores with OpenBLAS, the two cost the same near a band of 15 at d = 1001
# and of 31-47 at d = 2001-2801, and the GEMM is 4-12x slower on a
# nearest-neighbour band.  A narrow band must stay a shifted sum whatever
# the speed: for the nearest-neighbour kernel a = 0.73 (N = 700, B = 2,
# seed 1, gamma 0.6) a GEMM moved the right side's bits in 105 of 687
# violations
_SHIFTED_SUM_MAX_BAND = 31


class WrongPotentialFamilyError(ValueError):
    """A linear-field theorem check was pointed at another potential family."""


class NoInteriorModesError(ValueError):
    """The trusted interior of the box is empty at this size and window."""


@dataclass(frozen=True)
class AsymptoticsReport:
    """Pinning of trusted eigenvalues to their ladder indices.

    deviations holds (ladder index, eigenvalue - index), signed;
    max_deviation is the sup of their moduli, bound the box's pinning
    gamma.  The pass flag is always recomputed from the stored fields.
    """

    max_deviation: float
    bound: float
    hopping_norm: float
    perturbation_sup: float
    deviations: tuple[tuple[int, float], ...]
    center_offset_sup: int

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.bound

    @property
    def n_interior(self) -> int:
        return len(self.deviations)


@dataclass(frozen=True)
class UniformDecayReport:
    """Sup of |phi| * dist**alpha over interior modes, per mode and global.

    per_mode entries are (ladder index, sup over sites at distance >= 1
    from the detected center); per_mode_by_index anchors distance at the
    ladder index instead.  fit_exponents are per-mode least-squares decay
    slopes over 2 <= dist <= N // 2 (nan when a mode is excluded or has
    too few usable points), the same for every alpha; they are
    diagnostics, not bounds.
    """

    alpha: float
    per_mode: tuple[tuple[int, float], ...]
    per_mode_by_index: tuple[tuple[int, float], ...]
    fit_exponents: tuple[tuple[int, float], ...]

    @property
    def sup_constant(self) -> float:
        return max(v for _, v in self.per_mode)

    @property
    def sup_constant_by_index(self) -> float:
        return max(v for _, v in self.per_mode_by_index)

    @property
    def n_modes(self) -> int:
        return len(self.per_mode)


@dataclass(frozen=True)
class BootstrapViolation:
    ladder_index: int
    site: int
    lhs: float
    rhs: float
    slack: float


@dataclass(frozen=True)
class BootstrapReport:
    """Violations of the bootstrap inequality, and how close it came.

    n_candidates counts the in-scope (mode, site) pairs with lhs > slack,
    the only ones where the inequality has content.  min_margin is the
    smallest (rhs + slack - lhs) / (rhs + slack) over them, negative
    exactly at a violation, and min_margin_at its (ladder index, site),
    the first by mode, then by site; both are None without candidates.
    """

    gamma: float
    n_modes: int
    n_checked: int
    violations: tuple[BootstrapViolation, ...]
    n_candidates: int
    min_margin: float | None
    min_margin_at: tuple[int, int] | None

    @property
    def passed(self) -> bool:
        return not self.violations


def _interior_positions(sd: SpectralData) -> np.ndarray:
    positions = np.nonzero(sd.interior_mask)[0]
    if positions.size == 0:
        raise NoInteriorModesError(
            f"no interior modes: half_width={sd.half_width}, "
            f"window={sd.interior_window}")
    return positions


def _require_linear_field(sd: SpectralData, message: str) -> None:
    """Refuse sd unless it records the linear field; message takes family."""
    family = sd.recorded("potential")["family"]
    if family != "electric":
        raise WrongPotentialFamilyError(message.format(family=family))


def check_eigenvalue_asymptotics(sd: SpectralData) -> AsymptoticsReport:
    """Compare trusted eigenvalues against their ladder indices.

    Trusted means ladder index |n| <= half_width - interior_window.  The
    bound is sd.pinning_gamma, from the recorded kernel's hopping norm in
    the box and the realized perturbation sup.
    """
    _require_linear_field(sd, "eigenvalue pinning is stated for the "
                              "linear-field family; got {family}")

    indices = sd.ladder_indices
    trusted = np.abs(indices) <= sd.trusted_site_bound
    if not np.any(trusted):
        raise NoInteriorModesError(
            f"no trusted ladder indices: half_width={sd.half_width}, "
            f"window={sd.interior_window}")
    devs = sd.eigenvalues[trusted] - indices[trusted]
    pairs = tuple((int(n), float(v))
                  for n, v in zip(indices[trusted], devs))
    return AsymptoticsReport(
        max_deviation=float(np.max(np.abs(devs))),
        bound=sd.pinning_gamma,
        hopping_norm=box_hopping_norm(sd.kernel, sd.half_width),
        perturbation_sup=float(sd.recorded("perturbation_sup")),
        deviations=pairs,
        center_offset_sup=sd.center_offset_sup())


def uniform_decay_constants(sd: SpectralData,
                            alphas) -> tuple[UniformDecayReport, ...]:
    """Measure sup |phi_m(n)| * dist**alpha over interior modes, per alpha.

    One pass over the eigenvector blocks serves every alpha: the
    distances and the per-mode decay fits (over 2 <= dist <= N // 2) are
    taken once, and only the two sups run per alpha.  The reports come
    back in the order of alphas and share one fit_exponents tuple.
    """
    alphas = [float(alpha) for alpha in alphas]
    for alpha in alphas:
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
    positions = _interior_positions(sd)

    N = sd.half_width
    fit_outer = N // 2
    indices = sd.ladder_indices
    # distances are integers |site - m| <= N + d < 2d, so their powers and
    # logs are looked up; distance 0 is outside both sups and every fit,
    # and its zero power never raises a max of nonnegative products
    dists = np.arange(2 * sd.dimension, dtype=float)
    powers = [dists ** alpha for alpha in alphas]
    log_dist = np.log(dists, out=np.zeros_like(dists), where=dists > 0)
    degenerate = np.asarray(sd.degenerate_positions, dtype=int)

    sups = [([], []) for _ in alphas]  # (center, index) anchored, per alpha
    fits = []
    for block, rows, amp in _blocks(sd, positions):
        box_rows = np.arange(rows.start, rows.stop)[:, np.newaxis]
        center_rows = sd.centers[block] + N
        dist_c = np.abs(box_rows - center_rows)
        dist_i = np.abs(box_rows - (indices[block] + N))
        for power, (by_center, by_index) in zip(powers, sups):
            by_center.append(np.max(amp * power[dist_c], axis=0))
            by_index.append(np.max(amp * power[dist_i], axis=0))
        # only rows within fit_outer of some center can enter a fit
        lo = max(int(center_rows.min()) - fit_outer - rows.start, 0)
        hi = max(int(center_rows.max()) + fit_outer + 1 - rows.start, 0)
        fit = _decay_slopes(amp[lo:hi], dist_c[lo:hi], log_dist, 2,
                            fit_outer)
        fit[np.isin(block, degenerate) | np.isin(block - 1, degenerate)] = \
            np.nan
        fits.append(fit)

    ladder = indices[positions].tolist()

    def by_mode(parts):
        return tuple(zip(ladder, np.concatenate(parts).tolist()))

    fit_exponents = by_mode(fits)
    return tuple(UniformDecayReport(alpha=alpha, per_mode=by_mode(by_center),
                                    per_mode_by_index=by_mode(by_index),
                                    fit_exponents=fit_exponents)
                 for alpha, (by_center, by_index) in zip(alphas, sups))


def _blocks(sd: SpectralData, positions: np.ndarray):
    """Yield (positions, rows, |entries|) for runs of _BLOCK modes.

    rows is the slice of box rows that the block's eigenvectors occupy,
    support_rows(sd.row_support, block); |entries| are the moduli of
    the block's eigenvectors on those rows.  Every entry outside them is
    an exact zero, which leaves a max and a row-by-row sum unchanged, so
    a pass over the rows gives the bits of a pass over the whole box at a
    cost that follows the localization length, not the box.  A block of
    one mode keeps the whole box: numpy sums a single column pairwise,
    where dropping its zero rows would regroup the partial sums.  The
    moduli are C-ordered (row-major), so every sum down a block and the
    bootstrap's GEMM add in the order a row-major block fixes.
    """
    for first in range(0, positions.size, _BLOCK):
        block = positions[first:first + _BLOCK]
        rows = (slice(0, sd.dimension) if block.size == 1
                else support_rows(sd.row_support, block))
        lo, hi = int(block[0]), int(block[-1]) + 1
        # interior positions are mostly consecutive: a slice is a view,
        # where a gather of scattered columns costs several times more
        cols = sd.eigenvectors[rows, lo:hi]
        if hi - lo != block.size:
            cols = np.take(cols, block - lo, axis=1)
        yield block, rows, np.abs(cols, order="C")


def _decay_slopes(amp: np.ndarray, dist: np.ndarray, log_dist: np.ndarray,
                  inner: int, outer: int) -> np.ndarray:
    """Negated least-squares slope of log amp against log dist, per column.

    Fits over inner <= dist <= outer where amp > 0; nan for columns
    with fewer than 3 such sites.  Three sites span at least two distances
    (at most two sites share one), so the centred x-spread is positive
    wherever a slope is taken.
    """
    use = (dist >= inner) & (dist <= outer) & (amp > 0.0)
    count = np.count_nonzero(use, axis=0)
    fitted = count >= 3
    x = np.where(use, log_dist[dist], 0.0)
    y = np.log(amp, out=np.zeros_like(amp), where=use)
    x_mean = np.divide(x.sum(axis=0), count, out=np.zeros(count.shape),
                       where=fitted)
    # slope = sum (x - x_mean) y / sum (x - x_mean)^2 over the mask
    xc = np.where(use, x - x_mean, 0.0)
    slope = np.divide(np.einsum("ij,ij->j", xc, y),
                      np.einsum("ij,ij->j", xc, xc),
                      out=np.full(count.shape, np.nan), where=fitted)
    return -slope


def _band_convolution(absw: np.ndarray, M: int, d: int):
    """Map (amp, rows, at) to conv[r, :] = sum_j |a(at[r] - j)| amp[j, :]
    over |at[r] - j| <= M, where amp holds the box rows j of the slice
    rows and every other row of the box is an exact zero.

    A narrow band is summed offset by offset at the rows at, in the tap
    order of a shifted sum over the whole run, so with its bits; a tap
    past amp's rows would add an exact zero and is skipped.  A wide band
    is the GEMM T[at, rows] @ amp with T[i, j] = |a(i - j)|: its rows are
    reversed windows of the kernel vector, and the d x d matrix is never
    built.  A GEMM over other shapes can move the last bits: at p = 4,
    d = 2001 it did at 1 to 3 output rows (by at most 1.5e-14 relative)
    and matched from 4 rows up, at 1 and 2 OpenBLAS threads.
    """
    if 2 * M + 1 <= _SHIFTED_SUM_MAX_BAND:
        taps = [(o, w) for o, w in zip(range(-M, M + 1), absw) if w != 0.0]

        def shifted_sum(amp, rows, at):
            out = np.zeros((at.size, amp.shape[1]))
            for o, w in taps:
                src = at - rows.start - o
                inside = (src >= 0) & (src < len(amp))
                out[inside] += w * amp[src[inside]]
            return out
        return shifted_sum

    # v[k] = |a(k - (d - 1))|, so window i reversed is row i of T
    v = np.zeros(2 * d - 1)
    v[d - 1 - M:d + M] = absw
    windows = np.lib.stride_tricks.sliding_window_view(v, d)
    return lambda amp, rows, at: windows[:, ::-1][at, rows] @ amp


def bootstrap_decay_check(sd: SpectralData,
                          gamma: float | None = None) -> BootstrapReport:
    """Check the bootstrap inequality on every interior mode.

    gamma must dominate every trusted pinning deviation; None takes the
    pinning bound sd.pinning_gamma.  Sites with |m - n| <= 2*gamma are
    out of scope.  The dropped-tail slack at site n is
    (4*gamma/|m - n|) * (out-of-box hopping mass seen from n) * max|phi_m|,
    plus the fixed numerical slack BOOTSTRAP_SLACK.  Violations are
    listed by mode, then by site.  A gamma that is not finite and
    positive raises ValueError.

    The right side is formed only at the candidate sites, in scope with
    lhs > slack, since it is nonnegative.  Sites, lhs and slack have the
    bits of the whole-box formula; rhs too on a narrow band, and within
    1e-13 relative on a wide one (_band_convolution).
    """
    _require_linear_field(sd, "the bootstrap inequality is stated for the "
                              "linear-field family")
    gamma = sd.pinning_gamma if gamma is None else float(gamma)
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    positions = _interior_positions(sd)

    d = sd.dimension
    N = sd.half_width
    reach = 2 * N
    kernel = sd.kernel
    support = kernel.support_radius
    M = reach if support is None else min(reach, max(support, 1))
    offsets = np.arange(-M, M + 1)
    absw = np.abs(kernel.amplitudes(offsets))
    # hopping beyond +-M never reaches the box, but it still counts in the
    # total mass that the dropped-tail slack must account for
    total_cutoff = M if support is None else max(support, 1)
    total_mass = weighted_norm(kernel, total_cutoff).upper_bound
    cums = np.concatenate([[0.0], np.cumsum(absw)])  # cums[j] = sum absw[:j]

    sites = sd.sites
    # visible in-box hopping mass from each site, then the dropped remainder
    j1 = np.clip(sites - N + M, 0, 2 * M + 1)
    j2 = np.clip(sites + N + M + 1, 0, 2 * M + 1)
    window_mass = cums[j2] - cums[j1]
    tail_mass = np.maximum(total_mass - window_mass, 0.0)[:, np.newaxis]

    convolve = _band_convolution(absw, M, d)
    indices = sd.ladder_indices
    # 4*gamma/|m - n| by integer distance |m - n| <= N + max|m|; distance 0
    # is never in scope
    dists = np.arange(N + int(np.max(np.abs(indices[positions]))) + 1,
                      dtype=float)
    factors = np.zeros_like(dists)
    factors[1:] = 4.0 * gamma / dists[1:]
    # sites in scope, |m - n| > 2*gamma, counted over the whole box: the
    # rows within floor(2*gamma) of row m + N are out of scope
    near = np.floor(2.0 * gamma)
    mode_rows = indices[positions] + N
    out_of_scope = np.clip(np.minimum(mode_rows + near, d - 1)
                           - np.maximum(mode_rows - near, 0) + 1, 0, None)
    n_checked = int(positions.size * d - out_of_scope.sum())

    violations = []
    n_candidates = 0
    margins = []  # per block with candidates: (margin, ladder index, site)
    # a site where |phi_m| = 0 cannot exceed rhs + slack >= 0, so only the
    # rows of each block's support are checked
    for block, rows, amp in _blocks(sd, positions):
        # slack >= BOOTSTRAP_SLACK, so only rows where some mode has
        # amp > BOOTSTRAP_SLACK can hold a candidate; any() over the modes,
        # as a NaN in one mode would hide the others from a row max
        box_rows = rows.start + np.flatnonzero(
            (amp > BOOTSTRAP_SLACK).any(axis=1))
        ladder = indices[block]
        dist = np.abs(box_rows[:, np.newaxis] - (ladder + N))
        factor = factors[dist]
        slack = (factor * tail_mass[box_rows] * np.max(amp, axis=0)
                 + BOOTSTRAP_SLACK)
        lhs = amp[box_rows - rows.start]
        cand = (dist > 2.0 * gamma) & (lhs > slack)
        keep = cand.any(axis=1)
        if not keep.any():
            continue
        box_rows, factor, slack, lhs, cand = (
            x[keep] for x in (box_rows, factor, slack, lhs, cand))
        rhs = factor * convolve(amp, rows, box_rows)
        bound = rhs + slack
        k, i = np.nonzero(cand.T)  # by mode, then by site
        n_candidates += k.size
        margin = (bound[i, k] - lhs[i, k]) / bound[i, k]
        w = int(np.argmin(margin))  # the first NaN, if any
        margins.append((margin[w], int(ladder[k[w]]),
                        int(sites[box_rows[i[w]]])))
        bad = lhs[i, k] > bound[i, k]
        for kk, ii in zip(k[bad], i[bad]):
            violations.append(BootstrapViolation(
                ladder_index=int(ladder[kk]), site=int(sites[box_rows[ii]]),
                lhs=float(lhs[ii, kk]), rhs=float(rhs[ii, kk]),
                slack=float(slack[ii, kk])))

    min_margin = min_margin_at = None
    if margins:
        w = int(np.argmin([m for m, _, _ in margins]))
        min_margin, min_margin_at = float(margins[w][0]), margins[w][1:]
    return BootstrapReport(gamma=gamma, n_modes=len(positions),
                           n_checked=n_checked, violations=tuple(violations),
                           n_candidates=n_candidates, min_margin=min_margin,
                           min_margin_at=min_margin_at)


def asymptotics_rows(sd: SpectralData, report: AsymptoticsReport):
    """Per-mode rows (ladder_index, eigenvalue, deviation, center)."""
    rows = []
    for n, dev in report.deviations:
        p = sd.position_of(n)
        rows.append((n, float(sd.eigenvalues[p]), dev, int(sd.centers[p])))
    return rows


def decay_rows(sd: SpectralData, report: UniformDecayReport):
    """Per-mode rows (ladder_index, eigenvalue, center, constants, fit)."""
    rows = []
    for (n, val_c), (_, val_i), (_, fit) in zip(
            report.per_mode, report.per_mode_by_index, report.fit_exponents):
        p = sd.position_of(n)
        rows.append((n, float(sd.eigenvalues[p]), int(sd.centers[p]),
                     val_c, val_i, fit))
    return rows
