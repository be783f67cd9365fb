"""Unitary time evolution, spreading moments, and time-uniform envelopes.

Evolution of a packet released at site k uses the eigen-expansion

    psi_t(n) = sum_m exp(-i lambda_m t) c_m phi_m(n),   c_m = conj(phi_m(k)),

so any time is reached with no step error beyond the eigendecomposition
itself.  The position moment is M_q(t) = sum_n |n|**q |psi_t(n)|**2.

For a real spectrum the moment is a cosine sum over mode pairs,

    M_q(t) = sum over m <= m' of w_mm' cos((lambda_m - lambda_m') t),

with w_mm' = c_m A_mm' c_m' (doubled for m < m') and
A = V^T diag(|n|**q) V.  The sum of |w| is at most the envelope moment
E_q below, so leaving out pairs of total |w| at most PAIR_BUDGET * E_q
moves every sample by at most that much, for all t at once.  Localization
keeps few pairs: a packet overlaps only the modes centred near its
source, and the kept pairs do not grow with the box.  Before A is built,
the modes whose pairs together carry at most half the budget are left
out, so A is only built on the run of modes near the source; the
smallest pairs then take the rest of the budget.  On the uniform prefix
of the grid
(times[k] == k * dt exactly) the kept cosines come from a fixed phase
table over j * dt and fresh exponentials at each block's first time, one
real GEMM per group of blocks; the far samples take the cosines directly.

A complex spectrum, or one whose kept pairs exceed PAIR_SHARE_LIMIT * d**2
(weak localization, where the pair sum costs more), takes the GEMM path:
times in chunks, each one GEMM of the eigenvectors with a d x c block of
weighted phases from the same kind of table, and the moments from the
squared amplitudes.  For real eigenvectors the complex phases are read as
interleaved float64, so the real GEMM returns psi directly.

The time-uniform envelope B(n, k) = sum_m |phi_m(k)| |phi_m(n)| dominates
|psi_t(n)| for every t at once; E_q = sum_n |n|**q B(n, k)**2 therefore
dominates every moment.  When eigenfunctions decay fast enough
(alpha > 3/2 + q/2), E_q stays bounded as the box grows, which is probed
by a doubling ratio.  The share of E_q carried by boundary sites is the
honesty check on the truncation.

The public routines are the ones the ``dynamics`` stage runs:
``time_grid`` samples the times, ``moment_series`` propagates a packet
once for every q, ``envelope`` builds B and E_q for one box, and
``moment_bound_verdict`` judges one (alpha, q) from a box's envelope and
that of the doubled box.
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
# weight a real spectrum's pair path may drop per q, as a share of E_q
PAIR_BUDGET = 1e-14
# the pair path while it keeps at most this share of d**2 mode pairs
PAIR_SHARE_LIMIT = 0.05
_CHUNK = 256              # times per GEMM-path chunk
_MODE_BLOCK = 64          # columns of A^q built at once
_TABLE_COLUMNS = 64       # most columns of a pair phase table
_PAIR_SLAB = 2048         # most pairs summed at once
_BLOCK_ELEMENTS = 2 ** 18  # float64 entries of one block of phases


class SourceOutsideInteriorError(ValueError):
    """The release site sits in the untrusted boundary region."""


@dataclass(frozen=True)
class MomentSeries:
    """M_q(t) of a packet from ``source``: values[i] holds q = qs[i].

    path is "pairs" or "gemm", the way the series was summed; dropped[i]
    bounds how far the weight the pair path left out can move any sample
    of values[i] (0.0 on the GEMM path, which leaves nothing out).
    """

    qs: tuple
    source: int
    times: np.ndarray
    values: np.ndarray
    path: str
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
    def asserts_bounded(self) -> bool:
        return self.conclusion.startswith("bounded")


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


def _propagate(sd: SpectralData, source: int, times: np.ndarray,
               chunk: int):
    """Iterator of (start, psi): psi_t at times[start:start + chunk].

    psi is a complex d x c array, one column per time, built as
    V @ (conj(w) exp(-i lambda t)) with w = V[source row, :].  Real
    eigenvectors take one real GEMM of V with the phases viewed as float64:
    its d x 2c result, real and imaginary parts interleaved, is psi viewed
    as float64.  Complex eigenvectors take a complex GEMM.

    The phases of a chunk come from a table conj(w) exp(-i lambda j dt),
    j < chunk, built once, when the chunk lies wholly inside the uniform
    prefix: the leading run where times[k] == k * dt holds exactly, with
    dt = times[1] - times[0].  Such a chunk, starting at t0, costs d
    exponentials exp(-i lambda t0) and one complex product per entry, so
    no error accumulates from chunk to chunk.  Every other chunk takes the
    exponential directly.  The source is checked on the call, also when
    times is empty.
    """
    vecs, lam = sd.eigenvectors, sd.eigenvalues
    weights = vecs[_source_row(sd, source), :].conj()[:, None]
    # real V: the GEMM runs on the phases' float64 view, interleaved parts
    gemm_view = np.complex128 if np.iscomplexobj(vecs) else np.float64
    dt, prefix = _uniform_prefix(times)
    width = min(chunk, times.size)
    table = (weights * np.exp(-1j * np.outer(lam, np.arange(width) * dt))
             if prefix >= width > 0 else None)

    def chunks():
        for s in range(0, times.size, chunk):
            ts = times[s: s + chunk]
            if s + ts.size <= prefix:
                turn = np.exp(-1j * lam * ts[0])[:, None]
                phases = table[:, :ts.size] * turn
            else:
                phases = weights * np.exp(-1j * np.outer(lam, ts))
            yield s, (vecs @ phases.view(gemm_view)).view(np.complex128)

    return chunks()


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
                site_w: np.ndarray, limit: int):
    """Kept mode pairs of a real spectrum: (delta, weights, dropped), or
    None when more than ``limit`` pairs must be kept.

    M_q(t) = sum over m <= m' of w_mm' cos(delta_mm' t), with
    delta_mm' = lambda_m - lambda_m', w_mm' = c_m A_mm' c_m' doubled for
    m < m', c the row of V at env's source, A = V^T diag(|n|**q) V and
    site_w[i] = |n|**qs[i]; weights[i] holds w for q = qs[i] on the kept
    pairs.  The sum of |w| over all pairs is at most E_q, the envelope
    moment, and leaving pairs out moves every sample by at most their sum
    of |w|, for all t at once.  dropped[i] bounds that sum for qs[i]; it
    stays within PAIR_BUDGET * E_q.

    Half the budget goes to modes: the pairs that touch a mode m outside
    a set S carry at most the sum over m of v_m = 2 |c_m| sum_n |n|**q
    |phi_m(n)| B(n), B = env.majorant.  The modes of smallest v are dropped
    within that half, and S is the run lo <= m < hi spanning the rest, so
    A is only built on S, in blocks of _MODE_BLOCK columns on and above
    the diagonal.  In a block, pairs below the rest of the budget over the
    pair count are dropped unsorted, and pairs above the whole budget are
    counted: they are always kept, so more than ``limit`` of them ends the
    build.  Then the smallest pairs are dropped while the budget lasts.  A
    mode or pair is dropped only when it is small for every q, so every q
    keeps the same pairs.
    """
    nq = site_w.shape[0]
    vecs, lam = sd.eigenvectors, sd.eigenvalues
    c = vecs[sd.row_of_site(env.source)]
    absc = np.abs(c)
    blocks = [slice(a, a + _MODE_BLOCK)
              for a in range(0, lam.size, _MODE_BLOCK)]
    bound = np.array([env.moment_bound(q) for q in qs])
    budget = PAIR_BUDGET * bound
    scale = 1.0 / np.maximum(bound, np.finfo(float).tiny)[:, None]
    reach = site_w * env.majorant
    size = np.hstack([2 * absc[blk] * (reach @ np.abs(vecs[:, blk]))
                      for blk in blocks])
    order, cut = _smallest_within(size, scale, budget / 2)
    run = order[cut:]
    lo, hi = (run.min(), run.max() + 1) if run.size else (0, 0)
    dropped = size[:, :lo].sum(axis=1) + size[:, hi:].sum(axis=1)
    vecs, lam, c = vecs[:, lo:hi], lam[lo:hi], c[lo:hi]
    modes = lam.size
    tiny = (budget - dropped) / max(1, modes * (modes + 1) // 2)
    certain = 0
    kept_m, kept_n = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    kept_w = [np.zeros((nq, 0))]
    for a in range(0, modes, _MODE_BLOCK):
        b = min(a + _MODE_BLOCK, modes)
        # rows m < b against columns a <= m' < b, every q side by side
        scaled = np.hstack([s[:, None] * vecs[:, a:b] for s in site_w])
        w = (vecs[:, :b].T @ scaled).reshape(b, nq, b - a).transpose(1, 0, 2)
        # m - m': weight 2 above the diagonal, 1 on it, 0 below
        upper = np.arange(b)[:, None] - np.arange(a, b)
        w *= (c[:b, None] * c[a:b]) * np.where(upper < 0, 2.0, upper == 0)
        size = np.abs(w)
        small = np.all(size <= tiny[:, None, None], axis=0)
        dropped += np.sum(size * small, axis=(1, 2))
        certain += np.count_nonzero(
            np.any(size > budget[:, None, None], axis=0))
        if certain > limit:
            return None
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
    if keep.size > limit:
        return None
    return lam[m[keep]] - lam[n[keep]], weights[:, keep], dropped


def _pair_moments(delta: np.ndarray, weights: np.ndarray,
                  times: np.ndarray, out: np.ndarray) -> None:
    """out[i, k] = sum_p weights[i, p] cos(delta_p times[k]), summed over
    slabs of at most _PAIR_SLAB pairs so that memory stays bounded.

    On the uniform prefix (times[k] == k * dt exactly) a block of
    width = _TABLE_COLUMNS times from t0 is
    Re sum_p (w_p exp(-i delta_p t0)) exp(-i delta_p j dt): the second
    factor is a fixed table over j < width, and one real GEMM
    of [Re, Im](w exp(-i delta t0)) with [cos; sin](delta j dt) gives every
    q of a group of blocks.  exp(-i delta t0) is the product of two
    exponentials taken directly, at the group's first time and at the
    block's offset in the group, so no error accumulates from block to
    block.  The other samples take the cosines directly.
    """
    nq = weights.shape[0]
    _, prefix = _uniform_prefix(times)
    width = min(_TABLE_COLUMNS, prefix)
    blocks = -(-prefix // width) if width else 0
    out[:] = 0.0
    for lo in range(0, delta.size, _PAIR_SLAB):
        dl = delta[lo:lo + _PAIR_SLAB]
        wl = weights[:, lo:lo + _PAIR_SLAB]
        npairs = dl.size
        if width:
            table = np.empty((2 * npairs, width))
            np.multiply.outer(dl, times[:width], out=table[:npairs])
            np.sin(table[:npairs], out=table[npairs:])
            np.cos(table[:npairs], out=table[:npairs])
            group = min(blocks, max(1, _BLOCK_ELEMENTS // (2 * nq * npairs)))
            offsets = np.exp(-1j * np.outer(times[:group * width:width], dl))
            y = np.empty((nq, group, 2 * npairs))
            for s in range(0, prefix, group * width):
                n = min(group, -(-(prefix - s) // width))
                turn = offsets[:n] * np.exp(-1j * dl * times[s])
                np.multiply(wl[:, None, :], turn.real, out=y[:, :n, :npairs])
                np.multiply(wl[:, None, :], turn.imag, out=y[:, :n, npairs:])
                block = y[:, :n].reshape(-1, 2 * npairs) @ table
                stop = min(s + n * width, prefix)
                out[:, s:stop] += block.reshape(nq, -1)[:, :stop - s]
        step = max(1, _BLOCK_ELEMENTS // npairs)
        for s in range(prefix, times.size, step):
            out[:, s:s + step] += wl @ np.cos(np.outer(dl, times[s:s + step]))


def moment_series(sd: SpectralData, source: int, qs, times) -> MomentSeries:
    """M_q(t) for every q in qs from one pass over the times.

    A real spectrum takes the pair path when ``_mode_pairs`` keeps at most
    PAIR_SHARE_LIMIT * d**2 mode pairs under the budget PAIR_BUDGET * E_q
    per q, with B and E_q from ``envelope``; ``_pair_moments`` then sums
    their cosines with a phase table of _TABLE_COLUMNS columns on the
    uniform prefix.  Otherwise (a complex spectrum, or weak localization)
    the GEMM path runs: each chunk of _CHUNK times of psi from
    ``_propagate`` gives all moments at once, its float64 view squared in
    place and W @ it, W[i, n] = |n|**qs[i], holding the real and
    imaginary shares in its even and odd columns.  The amplitudes are
    never held for all times.

    On the default grid the two paths agree to about 1e-13 of the sup on
    the uniform prefix.  At the far samples (t up to 1e6) they part by up
    to about 6e-11 of the sup: the GEMM path rounds lambda * t, the pair
    path delta * t, and against phases in extended precision each is off
    by at most about 4e-11 of the sup.  An empty time grid raises
    ValueError: its series would have no sup.
    """
    qs = tuple(float(q) for q in qs)
    env = envelope(sd, source, qs)  # checks the source and every q
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("moment_series needs a nonempty time grid, "
                         "got no times")
    site_w = np.abs(sd.sites.astype(float)) ** np.array(qs)[:, None]
    values = np.empty((len(qs), times.size), dtype=float)
    d = sd.dimension
    pairs = None if np.iscomplexobj(sd.eigenvectors) else _mode_pairs(
        sd, env, qs, site_w, int(PAIR_SHARE_LIMIT * d * d))
    if pairs is None:
        path, dropped = "gemm", (0.0,) * len(qs)
        for s, psi in _propagate(sd, source, times, _CHUNK):
            parts = psi.view(np.float64)
            np.square(parts, out=parts)
            weighted = site_w @ parts
            np.add(weighted[:, 0::2], weighted[:, 1::2],
                   out=values[:, s: s + psi.shape[1]])
    else:
        delta, weights, spent = pairs
        _pair_moments(delta, weights, times, values)
        path, dropped = "pairs", tuple(float(x) for x in spent)
    times = times.copy()
    times.flags.writeable = False
    values.flags.writeable = False
    return MomentSeries(qs=qs, source=int(source), times=times,
                        values=values, path=path, dropped=dropped)


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
    return np.unique(np.concatenate([base, far * far_horizon]))


def envelope(sd: SpectralData, source: int, qs=(2.0,)) -> EnvelopeBound:
    """Time-uniform majorant from ``source`` and its weighted masses."""
    row = _source_row(sd, source)
    absvec = np.abs(sd.eigenvectors)
    major = absvec @ absvec[row, :]
    moments = {}
    boundary = np.abs(sd.sites) > sd.trusted_site_bound
    for q in qs:
        q = float(q)
        if not q > 0:
            raise ValueError(f"moment exponent must be positive, got {q}")
        contrib = np.abs(sd.sites.astype(float)) ** q * major ** 2
        total = float(np.sum(contrib))
        share = float(np.sum(contrib[boundary]) / total) if total > 0 else 0.0
        moments[q] = (total, share)
    major.flags.writeable = False
    return EnvelopeBound(source=int(source), sites=sd.sites, majorant=major,
                         moments=moments)


def moment_bound_verdict(
        env: EnvelopeBound, alpha: float, q: float,
        doubled: EnvelopeBound | None = None,
        ratio_limit: float = DOUBLING_RATIO_LIMIT,
        share_limit: float = BOUNDARY_SHARE_LIMIT) -> MomentBoundVerdict:
    """Probe whether decay rate alpha forces bounded q-moments here.

    ``env`` and ``doubled`` must both hold q.  The hypothesis
    alpha > 3/2 + q/2 is arithmetic.  Boundedness of E_q in the
    infinite-volume limit is probed by the doubling ratio
    E_q(doubled box) / E_q(box) when the envelope of a larger box from the
    same source is supplied.  A boundary share at or above ``share_limit``
    makes the verdict inconclusive rather than failed.
    """
    alpha = float(alpha)
    q = float(q)
    e_q, share = env.moments[q]
    hypothesis = alpha > 1.5 + q / 2.0

    ratio: float | None = None
    if doubled is not None:
        if doubled.source != env.source:
            raise ValueError(
                f"doubled envelope is from source {doubled.source}, "
                f"not {env.source}")
        if not doubled.sites.size > env.sites.size:
            raise ValueError("doubled envelope must come from a larger box")
        ratio = doubled.moments[q][0] / e_q if e_q > 0 else 1.0

    if not hypothesis:
        conclusion = "hypothesis not satisfied: no assertion"
    elif share >= share_limit:
        conclusion = (f"inconclusive: boundary share {share:.3g} "
                      f">= {share_limit:g}")
    elif ratio is None:
        conclusion = "doubling data unavailable"
    elif ratio < ratio_limit:
        conclusion = f"bounded: doubling ratio {ratio:.6g} < {ratio_limit:g}"
    else:
        conclusion = (f"doubling ratio {ratio:.6g} >= {ratio_limit:g}: "
                      "growth not excluded")

    return MomentBoundVerdict(alpha=alpha, q=q, source=env.source,
                              hypothesis_satisfied=hypothesis,
                              envelope_moment=e_q, boundary_share=share,
                              doubling_ratio=ratio, conclusion=conclusion)
