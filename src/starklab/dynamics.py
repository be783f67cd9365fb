"""Unitary time evolution, spreading moments, and time-uniform envelopes.

Evolution of a packet released at site k uses the eigen-expansion

    psi_t(n) = sum_m exp(-i lambda_m t) c_m phi_m(n),   c_m = conj(phi_m(k)),

so any time is reached with no step error beyond the eigendecomposition
itself.  The position moment M_q(t) = sum_n |n|**q |psi_t(n)|**2 is a sum
over mode pairs,

    M_q(t) = sum over m <= m' of Re(w_mm' exp(i (lambda_m - lambda_m') t)),

with w_mm' = conj(c_m) A_mm' c_m' (doubled for m < m') and
A = V^H diag(|n|**q) V; a real spectrum has real w and a cosine sum.  The
sum of |w| is at most the envelope moment E_q below, so leaving out pairs
of total |w| at most PAIR_BUDGET * E_q moves every sample by at most that
much, for all t at once.  Localization keeps few pairs: a packet overlaps
only the modes centred near its source, and the kept pairs do not grow
with the box.

On the uniform prefix of the grid (times[k] == k * dt exactly) a type-1
nonuniform FFT sums the kept pairs: each is spread by a Gaussian onto a
uniform grid at its phase, and one real FFT per q gives every sample of
the prefix (Dutt & Rokhlin, SIAM J. Sci. Comput. 14, 1993; Greengard &
Lee, SIAM Review 46, 2004).  Every other sample takes psi_t directly from
the run of modes the pairs were built on; the modes outside it are
within the half of the budget already spent on them.  Against phases
turned in np.longdouble, on the default grid, the moments are within
about 1e-13 of the sup on the prefix and 4e-11 at the far samples (t up
to 1e6), where the float64 rounding of lambda * t sets the floor.

The time-uniform envelope B(n, k) = sum_m |phi_m(k)| |phi_m(n)| dominates
|psi_t(n)| for every t at once; E_q = sum_n |n|**q B(n, k)**2 therefore
dominates every moment.  When eigenfunctions decay fast enough
(alpha > 3/2 + q/2), E_q stays bounded as the box grows, which is probed
by a doubling ratio.  The share of E_q carried by boundary sites is the
honesty check on the truncation.

The public routines are the ones the ``dynamics`` stage runs:
``time_grid`` samples the times, ``envelope`` builds B and E_q for one
source and box, ``moment_series`` propagates the packet of an envelope
once for every q, and ``moment_bound_verdict`` judges one (alpha, q)
from a box's envelope and that of the doubled box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import SpectralData

__all__ = [
    "SourceOutsideInteriorError",
    "MomentSeries",
    "EnvelopeBound",
    "MomentBoundVerdict",
    "moment_series",
    "time_grid",
    "envelope",
    "moment_bound_verdict",
    "DOUBLING_RATIO_LIMIT",
    "BOUNDARY_SHARE_LIMIT",
]

DOUBLING_RATIO_LIMIT = 1.1
BOUNDARY_SHARE_LIMIT = 0.01
# weight the kept mode pairs may leave out per q, as a share of E_q
PAIR_BUDGET = 1e-14
_MODE_BLOCK = 64      # columns of A^q built at once
_SPREAD_PAIRS = 4096  # pairs spread onto the FFT grid at once
_SPREAD_HALF = 14     # half the Gaussian's taps per pair
_DIRECT_TIMES = 64    # times of psi built at once off the uniform prefix


class SourceOutsideInteriorError(ValueError):
    """The release site sits in the untrusted boundary region."""


@dataclass(frozen=True)
class MomentSeries:
    """M_q(t) of a packet from ``source``: values[i] holds q = qs[i].

    dropped[i] bounds how far the mode pairs left out can move any sample
    of values[i].
    """

    qs: tuple
    source: int
    times: np.ndarray
    values: np.ndarray
    dropped: tuple

    @property
    def running_sup(self) -> np.ndarray:
        """Largest sampled M_q(t), one entry per q."""
        return np.max(self.values, axis=1)


@dataclass(frozen=True)
class EnvelopeBound:
    """Time-uniform majorant B(n, k) and its weighted mass per exponent.

    moments maps q to (E_q, boundary share), where the share is the part
    of E_q carried by sites within the interior window of the box edge.
    """

    source: int
    sites: np.ndarray
    majorant: np.ndarray
    moments: dict

    def moment_bound(self, q: float) -> float:
        return self.moments[float(q)][0]

    def boundary_share(self, q: float) -> float:
        return self.moments[float(q)][1]

    def doubling_ratio(self, larger: EnvelopeBound, q: float) -> float:
        """E_q(larger) / E_q, 1.0 where E_q is 0, for the envelope of a
        larger box from the same source (ValueError otherwise)."""
        if larger.source != self.source:
            raise ValueError(f"larger envelope is from source "
                             f"{larger.source}, not {self.source}")
        if not larger.sites.size > self.sites.size:
            raise ValueError("larger envelope must come from a larger box")
        e_q = self.moment_bound(q)
        return larger.moment_bound(q) / e_q if e_q > 0 else 1.0


@dataclass(frozen=True)
class MomentBoundVerdict:
    """Outcome of the decay-implies-bounded-moments probe for one (alpha, q)."""

    alpha: float
    q: float
    source: int
    hypothesis_satisfied: bool
    envelope_moment: float
    boundary_share: float
    doubling_ratio: float | None
    conclusion: str

    @property
    def growth_not_excluded(self) -> bool:
        """The probe failed: the ratio is at its limit or above, or NaN."""
        return self.conclusion.endswith("growth not excluded")


def _source_row(sd: SpectralData, source: int) -> int:
    source = int(source)
    if abs(source) > sd.trusted_site_bound:
        raise SourceOutsideInteriorError(
            f"source site {source} lies outside the trusted interior "
            f"|n| <= {sd.trusted_site_bound}")
    return sd.row_of_site(source)


def _uniform_prefix(times: np.ndarray) -> tuple[float, int]:
    """(dt, length) of the leading run of times where times[k] == k * dt
    holds exactly, with dt = times[1] - times[0] (0 for a single time)."""
    dt = times[1] - times[0] if times.size > 1 else 0.0
    uniform = times == np.arange(times.size) * dt
    return dt, times.size if uniform.all() else int(np.argmin(uniform))


def _amplitudes(vecs: np.ndarray, lam: np.ndarray, coeffs: np.ndarray,
                times: np.ndarray) -> np.ndarray:
    """psi_t = vecs @ (coeffs exp(-i lam t)), a complex column per time.

    Real eigenvectors take one real GEMM of vecs with the phases viewed as
    float64: its result, real and imaginary parts interleaved, is psi
    viewed as float64.  Complex eigenvectors take a complex GEMM.
    """
    phases = coeffs[:, None] * np.exp(-1j * np.outer(lam, times))
    view = np.complex128 if np.iscomplexobj(vecs) else np.float64
    return (vecs @ phases.view(view)).view(np.complex128)


def _smallest_within(size: np.ndarray, scale: np.ndarray,
                     allowance: np.ndarray) -> tuple[np.ndarray, int]:
    """(order, cut): order sorts the columns of size by their largest
    entry times scale, and its first cut columns sum to at most
    allowance[i] in every row i."""
    order = np.argsort(np.max(size * scale, axis=0), kind="stable")
    spent = np.cumsum(size[:, order], axis=1)
    return order, min(int(np.searchsorted(row, cap, side="right"))
                      for row, cap in zip(spent, allowance))


def _mode_pairs(sd: SpectralData, env: EnvelopeBound, qs: tuple,
                site_w: np.ndarray):
    """Kept mode pairs: (run, delta, weights, dropped).

    M_q(t) = sum over m <= m' of Re(w_mm' exp(i delta_mm' t)), with
    delta_mm' = lambda_m - lambda_m', w_mm' = conj(c_m) A_mm' c_m' doubled
    for m < m', c_m = conj(phi_m(k)) at env's source k,
    A = V^H diag(|n|**q) V and site_w[i] = |n|**qs[i]; weights[i] holds w
    for q = qs[i] on the kept pairs, all within the mode run
    ``run = slice(lo, hi)``.  The sum of |w| over all pairs is at most E_q,
    the envelope moment, and leaving pairs out moves every sample by at
    most their sum of |w|, for all t at once.  dropped[i] bounds that sum
    for qs[i]; it stays within PAIR_BUDGET * E_q.

    Half the budget goes to modes: the pairs that touch a mode m outside
    a set S carry at most the sum over m of v_m = 2 |c_m| sum_n |n|**q
    |phi_m(n)| B(n), B = env.majorant.  The modes of smallest v are dropped
    within that half, and S is the run spanning the rest, so A is only
    built on S, in blocks of _MODE_BLOCK columns on and above the
    diagonal.  In a block, pairs below the rest of the budget over the
    pair count are dropped unsorted; then the smallest pairs are dropped
    while the budget lasts.  A mode or pair is dropped only when it is
    small for every q, so every q keeps the same pairs.
    """
    nq = site_w.shape[0]
    vecs, lam = sd.eigenvectors, sd.eigenvalues
    row = vecs[sd.row_of_site(env.source)]  # conj(c)
    blocks = [slice(a, a + _MODE_BLOCK)
              for a in range(0, lam.size, _MODE_BLOCK)]
    bound = np.array([env.moment_bound(q) for q in qs])
    budget = PAIR_BUDGET * bound
    scale = 1.0 / np.maximum(bound, np.finfo(float).tiny)[:, None]
    reach = site_w * env.majorant
    size = np.hstack([2 * np.abs(row[blk])
                      * (reach @ np.abs(vecs[:, blk], order="C"))
                      for blk in blocks])
    order, cut = _smallest_within(size, scale, budget / 2)
    modes = order[cut:]
    run = slice(*((modes.min(), modes.max() + 1) if modes.size else (0, 0)))
    dropped = size[:, :run.start].sum(axis=1) + size[:, run.stop:].sum(axis=1)
    vecs, lam, row = vecs[:, run], lam[run], row[run]
    modes = lam.size
    tiny = (budget - dropped) / max(1, modes * (modes + 1) // 2)
    kept_m, kept_n = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    kept_w = [np.zeros((nq, 0))]
    for a in range(0, modes, _MODE_BLOCK):
        b = min(a + _MODE_BLOCK, modes)
        # rows m < b against columns a <= m' < b, every q side by side
        scaled = np.hstack([s[:, None] * vecs[:, a:b] for s in site_w])
        w = (vecs[:, :b].conj().T @ scaled).reshape(b, nq, b - a)
        w = w.transpose(1, 0, 2)
        # m - m': weight 2 above the diagonal, 1 on it, 0 below
        upper = np.arange(b)[:, None] - np.arange(a, b)
        w *= (row[:b, None] * row[a:b].conj()) * np.where(upper < 0, 2.0,
                                                          upper == 0)
        size = np.abs(w)
        small = np.all(size <= tiny[:, None, None], axis=0)
        dropped += np.sum(size * small, axis=(1, 2))
        m, n = np.nonzero(~small)
        kept_m.append(m)
        kept_n.append(a + n)
        kept_w.append(w[:, m, n])
    m, n = np.concatenate(kept_m), np.concatenate(kept_n)
    weights = np.concatenate(kept_w, axis=1)
    size = np.abs(weights)
    order, cut = _smallest_within(size, scale, budget - dropped)
    dropped += size[:, order[:cut]].sum(axis=1)
    keep = np.sort(order[cut:])
    return run, lam[m[keep]] - lam[n[keep]], weights[:, keep], dropped


def _pair_sums(delta: np.ndarray, weights: np.ndarray, dt: float,
               count: int) -> np.ndarray:
    """out[i, k] = Re sum_p weights[i, p] exp(i delta_p k dt), k < count.

    A type-1 nonuniform FFT by Gaussian gridding over the modes
    -count <= k < count.  The periodic grid has at least 3 * 2 * count
    points, rounded up to a power of two for the FFT's speed.  Each pair
    is spread by exp(-beta s**2) onto the 2 * _SPREAD_HALF grid points
    nearest its phase -delta dt in grid units (reduced mod the grid size),
    with np.bincount over _SPREAD_PAIRS pairs at a time; the real FFT of
    the grid, divided by the Gaussian's transform, gives the sums.  Re w
    and Im w are spread onto separate real grids a and b, and the real part
    of the sum is Re F(a) - Im F(b).  One grid lives at a time, but it
    scales with the prefix: grid and transform take about 100 bytes per
    sample.  The phases are reduced in float64: in np.longdouble the sums
    came no closer to extended-precision phases (4.4e-14 against 4.8e-14
    of the sup on half-width-30 boxes).
    """
    size = 1 << (3 * 2 * count - 1).bit_length()
    ratio = size / (2 * count)
    beta = math.pi * (ratio - 0.5) / (ratio * _SPREAD_HALF)
    taps = np.arange(1 - _SPREAD_HALF, _SPREAD_HALF + 1)
    turns = dt * size / (2 * math.pi)

    def transform(w):
        grid = np.zeros(size)
        for lo in range(0, delta.size, _SPREAD_PAIRS):
            at = np.mod(-turns * delta[lo:lo + _SPREAD_PAIRS], size)
            near = np.floor(at)
            spread = np.exp(-beta * (near[:, None] + taps - at[:, None]) ** 2)
            spread *= w[lo:lo + _SPREAD_PAIRS, None]
            index = (near.astype(np.int64)[:, None] + taps) % size
            grid += np.bincount(index.ravel(), spread.ravel(), size)
        return np.fft.rfft(grid)[:count]

    out = np.empty((weights.shape[0], count))
    for i, w in enumerate(weights):
        out[i] = transform(w.real).real
        if np.iscomplexobj(w):
            out[i] -= transform(w.imag).imag
    k = np.arange(count)
    out /= math.sqrt(math.pi / beta) * np.exp(-(math.pi * k / size) ** 2
                                               / beta)
    return out


def moment_series(sd: SpectralData, env: EnvelopeBound, qs,
                  times) -> MomentSeries:
    """M_q(t) for every q in qs from one pass over the times.

    The packet starts at env.source; env = envelope(sd, source, ...) of
    this very sd gives the pair budget B and E_q.  ``_pair_sums`` sums the
    pairs ``_mode_pairs`` keeps on the uniform prefix of the times.  Every
    other sample comes from psi_t on their mode run, _DIRECT_TIMES times
    at a time: its float64 view squared in place and W @ it, W[i, n] =
    |n|**qs[i], holding the real and imaginary shares in its even and odd
    columns.  Raises ValueError for an empty qs, an env of another
    spectrum or without some q, and times that are empty, not 1-D or not
    finite.
    """
    qs = tuple(float(q) for q in qs)
    if not qs:
        raise ValueError("moment_series needs at least one moment exponent")
    if env.sites is not sd.sites:
        raise ValueError("env was built on another spectrum than sd")
    missing = [q for q in qs if q not in env.moments]
    if missing:
        raise ValueError(f"env holds no E_q for q = {missing}")
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("moment_series needs a nonempty time grid, "
                         "got no times")
    if times.ndim != 1 or not np.all(np.isfinite(times)):
        raise ValueError("moment_series needs a 1-D grid of finite times, "
                         f"got shape {times.shape}")
    site_w = np.abs(sd.sites.astype(float)) ** np.array(qs)[:, None]
    run, delta, weights, dropped = _mode_pairs(sd, env, qs, site_w)
    dt, prefix = _uniform_prefix(times)
    values = np.empty((len(qs), times.size), dtype=float)
    if prefix:
        values[:, :prefix] = _pair_sums(delta, weights, dt, prefix)
    vecs = sd.eigenvectors[:, run]
    coeffs = sd.eigenvectors[sd.row_of_site(env.source), run].conj()
    for s in range(prefix, times.size, _DIRECT_TIMES):
        parts = _amplitudes(vecs, sd.eigenvalues[run], coeffs,
                            times[s:s + _DIRECT_TIMES]).view(np.float64)
        np.square(parts, out=parts)
        weighted = site_w @ parts
        np.add(weighted[:, 0::2], weighted[:, 1::2],
               out=values[:, s:s + _DIRECT_TIMES])
    times = times.copy()
    times.flags.writeable = False
    values.flags.writeable = False
    return MomentSeries(qs=qs, source=env.source, times=times, values=values,
                        dropped=tuple(float(x) for x in dropped))


def time_grid(dt: float = 0.05, t_max: float = 1000.0,
              quasi_random: int = 100, far_horizon: float = 1e6) -> np.ndarray:
    """Uniform grid on [0, t_max] plus low-discrepancy far samples.

    The far samples are golden-ratio multiples folded into [0, far_horizon],
    deterministic by construction.
    """
    if dt <= 0 or t_max <= 0:
        raise ValueError("dt and t_max must be positive")
    if quasi_random < 0 or far_horizon < 0:
        raise ValueError("quasi_random and far_horizon must be nonnegative")
    base = np.arange(0.0, t_max + dt / 2, dt)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    far = np.array([((i + 1) * ratio) % 1.0 for i in range(quasi_random)])
    # np.unique's sorted distinct values; np.unique itself imports numpy.ma
    # (numpy 2.4), about 12 ms and 1 MB per process
    times = np.sort(np.concatenate([base, far * far_horizon]))
    return times[np.concatenate([[True], times[1:] != times[:-1]])]


def envelope(sd: SpectralData, source: int, qs=(2.0,)) -> EnvelopeBound:
    """Time-uniform majorant from ``source`` and its weighted masses;
    ValueError for a q that is not positive and finite, or whose E_q
    overflows float64 (|n|**q does from |n| = 6 on at q = 400)."""
    row = _source_row(sd, source)
    absvec = np.abs(sd.eigenvectors, order="C")
    major = absvec @ absvec[row, :]
    moments = {}
    boundary = np.abs(sd.sites) > sd.trusted_site_bound
    for q in qs:
        q = float(q)
        if not 0 < q < math.inf:
            raise ValueError(
                f"moment exponent must be positive and finite, got {q}")
        # an overflow gives inf, or NaN where inf meets a zero majorant
        with np.errstate(over="ignore", invalid="ignore"):
            contrib = np.abs(sd.sites.astype(float)) ** q * major ** 2
            total = float(np.sum(contrib))
        if not math.isfinite(total):
            raise ValueError(
                f"E_q overflows float64 at q = {q:g} from source {source} "
                f"in the box of half-width {sd.half_width}")
        share = float(np.sum(contrib[boundary]) / total) if total > 0 else 0.0
        moments[q] = (total, share)
    major.flags.writeable = False
    return EnvelopeBound(source=int(source), sites=sd.sites, majorant=major,
                         moments=moments)


def moment_bound_verdict(
        env: EnvelopeBound, alpha: float, q: float,
        doubled: EnvelopeBound | None = None) -> MomentBoundVerdict:
    """Probe whether decay rate alpha forces bounded q-moments here.

    ``env`` and ``doubled`` must both hold q.  The hypothesis
    alpha > 3/2 + q/2 is arithmetic.  Boundedness of E_q in the
    infinite-volume limit is probed by env.doubling_ratio(doubled, q)
    when doubled is given: bounded below DOUBLING_RATIO_LIMIT.  A
    boundary share at or above BOUNDARY_SHARE_LIMIT makes the verdict
    inconclusive rather than failed.
    """
    alpha = float(alpha)
    q = float(q)
    e_q, share = env.moments[q]
    hypothesis = alpha > 1.5 + q / 2.0

    ratio = None if doubled is None else env.doubling_ratio(doubled, q)

    if not hypothesis:
        conclusion = "hypothesis not satisfied: no assertion"
    elif share >= BOUNDARY_SHARE_LIMIT:
        conclusion = (f"inconclusive: boundary share {share:.3g} "
                      f">= {BOUNDARY_SHARE_LIMIT:g}")
    elif ratio is None:
        conclusion = "doubling data unavailable"
    elif ratio < DOUBLING_RATIO_LIMIT:
        conclusion = (f"bounded: doubling ratio {ratio:.6g} "
                      f"< {DOUBLING_RATIO_LIMIT:g}")
    else:
        conclusion = (f"doubling ratio {ratio:.6g} >= "
                      f"{DOUBLING_RATIO_LIMIT:g}: growth not excluded")

    return MomentBoundVerdict(alpha=alpha, q=q, source=env.source,
                              hypothesis_satisfied=hypothesis,
                              envelope_moment=e_q, boundary_share=share,
                              doubling_ratio=ratio, conclusion=conclusion)
