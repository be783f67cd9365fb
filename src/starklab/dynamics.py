"""Unitary time evolution, spreading moments, and time-uniform envelopes.

Evolution of a packet released at site k uses the eigen-expansion

    psi_t(n) = sum_m exp(-i lambda_m t) conj(phi_m(k)) phi_m(n),

so any time is reached in one matrix product with no step error beyond
the eigendecomposition itself.  The position moment is
M_q(t) = sum_n |n|**q |psi_t(n)|**2.

Times are propagated in chunks, each one GEMM of the eigenvectors with a
d x c block of weighted phases; for real eigenvectors the complex phases
are read as interleaved float64, so the real GEMM returns psi directly.
On the uniform prefix of the grid (times[k] == k * dt exactly) a chunk's
phases are a fixed table over j * dt times d fresh exponentials at the
chunk's first time; the far samples take the exponential directly.

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


class SourceOutsideInteriorError(ValueError):
    """The release site sits in the untrusted boundary region."""


@dataclass(frozen=True)
class MomentSeries:
    """M_q(t) of a packet from ``source``: values[i] holds q = qs[i]."""

    qs: tuple
    source: int
    times: np.ndarray
    values: np.ndarray

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
    if chunk < 1:
        raise ValueError(f"chunk must be positive, got {chunk}")
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


def moment_series(sd: SpectralData, source: int, qs, times,
                  chunk: int = 256) -> MomentSeries:
    """M_q(t) for every q in qs from one propagation of the packet.

    Each chunk of psi from ``_propagate`` gives all moments at once: its
    float64 view is squared in place, W @ it with W[i, n] = |n|**qs[i]
    holds the real and imaginary shares in its even and odd columns, and
    their sum is M_q.  The amplitudes are never held for all times.  On
    the default grid the series agrees with the direct exponential to
    about 1e-13 of its sup; the rounding of lambda * t itself, largest at
    the far samples, leaves about 4e-11 of the sup against exact phases.
    An empty time grid raises ValueError: its series would have no sup.
    """
    qs = tuple(float(q) for q in qs)
    for q in qs:
        if not q > 0:
            raise ValueError(f"moment exponent must be positive, got {q}")
    times = np.asarray(times, dtype=float)
    chunks = _propagate(sd, source, times, chunk)
    if times.size == 0:
        raise ValueError("moment_series needs a nonempty time grid, "
                         "got no times")
    site_w = np.abs(sd.sites.astype(float)) ** np.array(qs)[:, None]
    values = np.empty((len(qs), times.size), dtype=float)
    for s, psi in chunks:
        parts = psi.view(np.float64)
        np.square(parts, out=parts)
        weighted = site_w @ parts
        np.add(weighted[:, 0::2], weighted[:, 1::2],
               out=values[:, s: s + psi.shape[1]])
    times = times.copy()
    times.flags.writeable = False
    values.flags.writeable = False
    return MomentSeries(qs=qs, source=int(source), times=times,
                        values=values)


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
