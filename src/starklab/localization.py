"""Localization diagnostics: eigenvalue pinning, uniform decay, bootstrap.

Three empirical checks on a diagonalized operator with a uniform linear
field:

* Pinning: every trusted eigenvalue sits within |a|_0 + |b|_inf + 1 of its
  ladder index (Schur bound on the hopping part plus the half-integer
  spacing argument).
* Uniform power decay: sup over interior modes and sites of
  |phi_m(n)| * dist**alpha, measured against the detected localization
  center and, separately, against the ladder index.  Least-squares decay
  exponents per mode are reported as diagnostics only.
* Bootstrap inequality: away from the center the eigen-equation forces

      |phi_m(n)| <= 4*gamma/|m - n| * sum_k |a(k)| |phi_m(n - k)|

  whenever |m - n| > 2*gamma and gamma dominates every pinning deviation.
  Checked with an explicit slack for the hopping mass that falls outside
  the box.

The first and third checks refuse Maryland-family potentials: their
hypotheses name the linear field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import HoppingKernel, weighted_norm
from .operators import PotentialSpec
from .spectra import SpectralData

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
]


# interior modes per blocked pass; a d x 128 float64 block is 2 MB at d = 2001
_BLOCK = 128
# kernels whose band 2M+1 spans at most this many offsets are convolved by a
# shifted sum, wider bands by a Toeplitz GEMM: per block of 128 modes on 2
# cores with OpenBLAS the two cost the same near a band of 31-63 at
# d = 1001-2801, and the GEMM is 8-17x slower on a nearest-neighbour band
_SHIFTED_SUM_MAX_BAND = 31


class WrongPotentialFamilyError(ValueError):
    """A linear-field theorem check was pointed at another potential family."""


class NoInteriorModesError(ValueError):
    """The trusted interior of the box is empty at this size and window."""


@dataclass(frozen=True)
class AsymptoticsReport:
    """Pinning of trusted eigenvalues to their ladder indices.

    deviations holds (ladder index, eigenvalue - index), signed;
    max_deviation is the sup of their moduli.  The pass flag is always
    recomputed from the stored fields.
    """

    max_deviation: float
    hopping_norm: float
    perturbation_sup: float
    deviations: tuple[tuple[int, float], ...]
    center_offset_sup: int

    @property
    def bound(self) -> float:
        return self.hopping_norm + self.perturbation_sup + 1.0

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
    slopes over 2 <= dist <= N/2 (nan when a mode is excluded or has too
    few usable points); they are diagnostics, not bounds.
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
    gamma: float
    base_slack: float
    n_modes: int
    n_checked: int
    violations: tuple[BootstrapViolation, ...]

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


def check_eigenvalue_asymptotics(sd: SpectralData, kernel: HoppingKernel,
                                 potential: PotentialSpec) -> AsymptoticsReport:
    """Compare trusted eigenvalues against their ladder indices.

    Trusted means ladder index |n| <= half_width - interior_window.  The
    bound is recomputed from the kernel's in-box hopping mass and the
    realized perturbation sup over the box.
    """
    if potential.family != "electric":
        raise WrongPotentialFamilyError(
            "eigenvalue pinning is stated for the linear-field family; "
            f"got {potential.family}")

    box_cutoff = kernel.cutoff if kernel.infinite_support and kernel.cutoff \
        else (sd.dimension if kernel.infinite_support
              else max(kernel.support_radius, 1))
    hopping_norm = weighted_norm(kernel, 0.0, box_cutoff).partial_sum
    b_sup = float(np.max(np.abs(potential.perturbation_values(sd.sites)))) \
        if sd.dimension else 0.0

    bound_idx = sd.half_width - sd.interior_window
    indices = sd.ladder_indices
    trusted = np.abs(indices) <= bound_idx
    if not np.any(trusted):
        raise NoInteriorModesError(
            f"no trusted ladder indices: half_width={sd.half_width}, "
            f"window={sd.interior_window}")
    devs = sd.eigenvalues[trusted] - indices[trusted]
    pairs = tuple((int(n), float(v))
                  for n, v in zip(indices[trusted], devs))
    return AsymptoticsReport(
        max_deviation=float(np.max(np.abs(devs))),
        hopping_norm=float(hopping_norm),
        perturbation_sup=b_sup,
        deviations=pairs,
        center_offset_sup=sd.center_offset_sup())


def uniform_decay_constants(sd: SpectralData, alpha: float,
                            fit_inner: int = 2,
                            fit_outer: int | None = None) -> UniformDecayReport:
    """Measure sup |phi_m(n)| * dist**alpha over interior modes."""
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    positions = _interior_positions(sd)
    if fit_outer is None:
        fit_outer = sd.half_width // 2

    N = sd.half_width
    indices = sd.ladder_indices
    rows = np.arange(sd.dimension)[:, np.newaxis]
    # distances are integers |site - m| <= N + d < 2d, so their powers and
    # logs are looked up; distance 0 is outside both sups and every fit,
    # and its zero power never raises a max of nonnegative products
    dists = np.arange(2 * sd.dimension, dtype=float)
    power = dists ** alpha
    power[0] = 0.0
    log_dist = np.log(dists, out=np.zeros_like(dists), where=dists > 0)
    degenerate = np.asarray(sd.degenerate_positions, dtype=int)

    per_center, per_index, fits = [], [], []
    for block, amp in _blocks(sd, positions):
        center_rows = sd.centers[block] + N
        dist_c = np.abs(rows - center_rows)
        dist_i = np.abs(rows - (indices[block] + N))
        per_center.append(np.max(amp * power[dist_c], axis=0))
        per_index.append(np.max(amp * power[dist_i], axis=0))
        # only rows within fit_outer of some center can enter a fit
        lo = max(int(center_rows.min()) - fit_outer, 0)
        hi = int(center_rows.max()) + fit_outer + 1
        fit = _decay_slopes(amp[lo:hi], dist_c[lo:hi], log_dist, fit_inner,
                            fit_outer)
        fit[np.isin(block, degenerate) | np.isin(block - 1, degenerate)] = \
            np.nan
        fits.append(fit)

    ladder = indices[positions].tolist()
    return UniformDecayReport(
        alpha=alpha,
        per_mode=tuple(zip(ladder, np.concatenate(per_center).tolist())),
        per_mode_by_index=tuple(zip(ladder,
                                    np.concatenate(per_index).tolist())),
        fit_exponents=tuple(zip(ladder, np.concatenate(fits).tolist())))


def _blocks(sd: SpectralData, positions: np.ndarray):
    """Yield (positions, |eigenvector columns|) for runs of _BLOCK modes."""
    for start in range(0, positions.size, _BLOCK):
        block = positions[start:start + _BLOCK]
        lo, hi = int(block[0]), int(block[-1]) + 1
        # interior positions are mostly consecutive: a slice is a view,
        # where a gather of scattered columns costs several times more
        cols = sd.eigenvectors[:, lo:hi]
        if hi - lo != block.size:
            cols = np.take(cols, block - lo, axis=1)
        yield block, np.abs(cols)


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
    """Map amp to conv[i, :] = sum_j |a(i - j)| amp[j, :] over |i - j| <= M.

    A narrow band is summed offset by offset; a wide one is one GEMM with
    the d x d Toeplitz matrix T[i, j] = |a(i - j)|.
    """
    if 2 * M + 1 <= _SHIFTED_SUM_MAX_BAND:
        taps = [(o, w) for o, w in zip(range(-M, M + 1), absw) if w != 0.0]

        def shifted_sum(amp):
            out = np.zeros_like(amp)
            for o, w in taps:
                if o >= 0:
                    out[o:] += w * amp[:d - o]
                else:
                    out[:d + o] += w * amp[-o:]
            return out
        return shifted_sum

    # v[k] = |a(k - (d - 1))|; window i of v read backwards is row i of T
    v = np.zeros(2 * d - 1)
    v[d - 1 - M:d + M] = absw
    T = np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(v, d)[:, ::-1])
    return lambda amp: T @ amp


def bootstrap_decay_check(sd: SpectralData, kernel: HoppingKernel,
                          gamma: float,
                          base_slack: float = 1e-8) -> BootstrapReport:
    """Check the bootstrap inequality on every interior mode.

    gamma must dominate every trusted pinning deviation (caller supplies
    it, typically the pinning bound).  Sites with |m - n| <= 2*gamma are
    out of scope.  The dropped-tail slack at site n is
    (4*gamma/|m - n|) * (out-of-box hopping mass seen from n) * max|phi_m|,
    plus a fixed numerical slack.  Violations are listed by mode, then by
    site.
    """
    if sd.provenance.get("potential", {}).get("family") == "maryland":
        raise WrongPotentialFamilyError(
            "the bootstrap inequality is stated for the linear-field family")
    gamma = float(gamma)
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    positions = _interior_positions(sd)

    d = sd.dimension
    N = sd.half_width
    reach = 2 * N
    support = kernel.support_radius
    M = reach if support is None else min(reach, max(support, 1))
    offsets = np.arange(-M, M + 1)
    absw = np.abs(kernel.amplitudes(offsets))
    # hopping beyond +-M never reaches the box, but it still counts in the
    # total mass that the dropped-tail slack must account for
    total_cutoff = M if support is None else max(support, 1)
    total_mass = weighted_norm(kernel, 0.0, total_cutoff).upper_bound
    cums = np.concatenate([[0.0], np.cumsum(absw)])  # cums[j] = sum absw[:j]

    sites = sd.sites
    # visible in-box hopping mass from each site, then the dropped remainder
    j1 = np.clip(sites - N + M, 0, 2 * M + 1)
    j2 = np.clip(sites + N + M + 1, 0, 2 * M + 1)
    window_mass = cums[j2] - cums[j1]
    tail_mass = np.maximum(total_mass - window_mass, 0.0)[:, np.newaxis]

    convolve = _band_convolution(absw, M, d)
    indices = sd.ladder_indices
    rows = np.arange(d)[:, np.newaxis]
    # 4*gamma/|m - n| by integer distance |m - n| <= N + max|m|; distance 0
    # is never in scope
    dists = np.arange(N + int(np.max(np.abs(indices[positions]))) + 1,
                      dtype=float)
    factors = np.zeros_like(dists)
    factors[1:] = 4.0 * gamma / dists[1:]

    violations = []
    n_checked = 0
    for block, amp in _blocks(sd, positions):
        ladder = indices[block]
        dist = np.abs(rows - (ladder + N))
        scope = dist > 2.0 * gamma
        n_checked += int(np.count_nonzero(scope))
        factor = factors[dist]
        rhs = factor * convolve(amp)
        slack = factor * tail_mass * np.max(amp, axis=0) + base_slack
        bad = scope & (amp > rhs + slack)
        if not bad.any():
            continue
        for k, i in zip(*np.nonzero(bad.T)):
            violations.append(BootstrapViolation(
                ladder_index=int(ladder[k]), site=int(sites[i]),
                lhs=float(amp[i, k]), rhs=float(rhs[i, k]),
                slack=float(slack[i, k])))

    return BootstrapReport(gamma=gamma, base_slack=float(base_slack),
                           n_modes=len(positions), n_checked=n_checked,
                           violations=tuple(violations))


def asymptotics_rows(sd: SpectralData, report: AsymptoticsReport):
    """Per-mode rows (ladder_index, eigenvalue, deviation, center)."""
    rows = []
    for n, dev in report.deviations:
        p = sd.position_of(n)
        rows.append((n, float(sd.eigenvalues[p]), dev, int(sd.centers[p])))
    return rows


def decay_rows(sd: SpectralData, report: UniformDecayReport):
    """Per-mode rows (ladder_index, eigenvalue, center, constants, fit)."""
    fit_by_index = dict(report.fit_exponents)
    rows = []
    for (n, val_c), (_, val_i) in zip(report.per_mode,
                                      report.per_mode_by_index):
        p = sd.position_of(n)
        rows.append((n, float(sd.eigenvalues[p]), int(sd.centers[p]),
                     val_c, val_i, fit_by_index.get(n, float("nan"))))
    return rows
