"""Finite-box lattice operators: long-range hopping plus an on-site potential.

The infinite-lattice operator

    (H u)(n) = sum_k a(k) u(n - k) + V(n) u(n) + b(n) u(n)

is restricted to the box {-N, ..., N} with hard (Dirichlet) truncation:
matrix entry (i, j) = a(site_i - site_j) + delta_ij * (V(site_i) + b(site_i)).
V is either a uniform linear field slope * n or a Maryland-type potential
coupling * tan(pi * (phase + n * frequency)); b is a bounded perturbation.

Rows and columns are ordered by site, so row i corresponds to site i - N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernels import HoppingKernel, weighted_norm

__all__ = [
    "PotentialError",
    "MarylandResonanceError",
    "DimensionOverflowError",
    "NoPerturbation",
    "ConstantPerturbation",
    "UniformRandomPerturbation",
    "PeriodicPerturbation",
    "ExplicitPerturbation",
    "MarylandPotential",
    "PotentialSpec",
    "TruncatedOperator",
    "toeplitz",
    "box_hopping_norm",
    "pinning_gamma",
    "build_operator",
    "MAX_DIMENSION_DEFAULT",
    "RESONANCE_MARGIN",
]


class PotentialError(ValueError):
    """An on-site potential specification is inconsistent."""


class MarylandResonanceError(PotentialError):
    """A sampled Maryland phase lands too close to a pole of the tangent."""


class DimensionOverflowError(ValueError):
    """Requested box exceeds the dense-solver dimension budget."""


MAX_DIMENSION_DEFAULT = 8192
RESONANCE_MARGIN = 1e-6
_SITE_KEY_OFFSET = 2 ** 32  # keeps per-site RNG keys nonnegative


@dataclass(frozen=True)
class NoPerturbation:
    def values(self, sites) -> np.ndarray:
        return np.zeros(np.asarray(sites).shape, dtype=float)

    def describe(self) -> dict:
        return {"kind": "none"}


@dataclass(frozen=True)
class ConstantPerturbation:
    offset: float

    def values(self, sites) -> np.ndarray:
        return np.full(np.asarray(sites).shape, float(self.offset))

    def describe(self) -> dict:
        return {"kind": "constant", "offset": float(self.offset)}


@dataclass(frozen=True)
class UniformRandomPerturbation:
    """Independent uniform draws from [-amplitude, amplitude], one per site.

    Each site's draw is keyed by (seed, site), so the realized values do not
    depend on the box: enlarging the box extends the sample instead of
    reshuffling it.
    """

    amplitude: float
    seed: int

    def __post_init__(self):
        if self.amplitude < 0:
            raise PotentialError(
                f"perturbation amplitude must be nonnegative, got {self.amplitude}")

    def values(self, sites) -> np.ndarray:
        sites = np.asarray(sites)
        out = np.empty(sites.shape, dtype=float)
        flat = out.reshape(-1)
        for i, n in enumerate(np.asarray(sites).reshape(-1)):
            rng = np.random.default_rng(
                (int(self.seed), int(n) + _SITE_KEY_OFFSET))
            flat[i] = rng.uniform(-self.amplitude, self.amplitude)
        return out

    def describe(self) -> dict:
        return {"kind": "uniform_random", "amplitude": float(self.amplitude),
                "seed": int(self.seed)}


@dataclass(frozen=True)
class PeriodicPerturbation:
    pattern: tuple[float, ...]

    def __post_init__(self):
        if len(self.pattern) == 0:
            raise PotentialError("periodic perturbation needs a nonempty pattern")
        object.__setattr__(self, "pattern", tuple(float(v) for v in self.pattern))

    def values(self, sites) -> np.ndarray:
        pat = np.asarray(self.pattern)
        return pat[np.mod(np.asarray(sites), len(pat))]

    def describe(self) -> dict:
        return {"kind": "periodic", "pattern": list(self.pattern)}


@dataclass(frozen=True)
class ExplicitPerturbation:
    """Table of values for sites first_site, first_site+1, ...; zero outside."""

    first_site: int
    table: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(float(v) for v in self.table))

    def values(self, sites) -> np.ndarray:
        sites = np.asarray(sites)
        idx = sites - self.first_site
        inside = (idx >= 0) & (idx < len(self.table))
        out = np.zeros(sites.shape, dtype=float)
        if len(self.table):
            out[inside] = np.asarray(self.table)[idx[inside]]
        return out

    def describe(self) -> dict:
        return {"kind": "explicit", "first_site": int(self.first_site),
                "table": list(self.table)}


@dataclass(frozen=True)
class MarylandPotential:
    """Unbounded on-site potential coupling * tan(pi * (phase + n * frequency))."""

    coupling: float
    frequency: float
    phase: float = 0.0

    def values(self, sites) -> np.ndarray:
        sites = np.asarray(sites)
        x = self.phase + sites.astype(float) * self.frequency
        # distance of x to the nearest half-integer, a pole of the tangent
        y = np.mod(x - 0.5, 1.0)
        margins = np.minimum(y, 1.0 - y)
        if np.any(margins <= RESONANCE_MARGIN):
            worst = int(np.argmin(margins))
            raise MarylandResonanceError(
                f"site {int(sites.reshape(-1)[worst])} lies within "
                f"{margins.reshape(-1)[worst]:.3e} of a tangent pole "
                f"(guard {RESONANCE_MARGIN:g})")
        return self.coupling * np.tan(np.pi * x)

    def describe(self) -> dict:
        return {"coupling": float(self.coupling),
                "frequency": float(self.frequency),
                "phase": float(self.phase)}


@dataclass(frozen=True)
class PotentialSpec:
    """On-site potential: a linear field or a Maryland potential, plus b.

    The two diagonal families are mutually exclusive.  A Maryland spec must
    set field_slope=None explicitly; the default slope of 1 is the uniform
    unit field.
    """

    field_slope: float | None = 1.0
    perturbation: object = field(default_factory=NoPerturbation)
    maryland: MarylandPotential | None = None

    def __post_init__(self):
        if self.maryland is not None and self.field_slope is not None:
            raise PotentialError(
                "maryland potential replaces the linear field; "
                "set field_slope=None")
        if self.maryland is None and self.field_slope is None:
            raise PotentialError(
                "potential needs a field slope or a maryland block")

    @property
    def family(self) -> str:
        return "maryland" if self.maryland is not None else "electric"

    def diagonal_values(self, sites) -> np.ndarray:
        """V(n) over the box, before the bounded perturbation."""
        sites = np.asarray(sites, dtype=float)
        if self.maryland is not None:
            return self.maryland.values(sites)
        return self.field_slope * sites

    def perturbation_values(self, sites) -> np.ndarray:
        return self.perturbation.values(sites)

    def describe(self) -> dict:
        out: dict = {"family": self.family,
                     "perturbation": self.perturbation.describe()}
        if self.maryland is not None:
            out["maryland"] = self.maryland.describe()
        else:
            out["slope"] = float(self.field_slope)
        return out


@dataclass(frozen=True)
class TruncatedOperator:
    """Hermitian operator restricted to {-N, ..., N}.

    ``diagonal`` holds V(n) + b(n) per site.  The dense matrix is built on
    the first read of ``matrix`` and kept: a tridiagonal box is solved from
    its diagonals and never needs it.
    """

    half_width: int
    sites: np.ndarray
    diagonal: np.ndarray
    kernel: HoppingKernel
    potential: PotentialSpec
    perturbation_values: np.ndarray

    @property
    def dimension(self) -> int:
        return 2 * self.half_width + 1

    @property
    def dtype(self) -> np.dtype:
        """float64 for a real kernel, complex128 otherwise."""
        return np.dtype(np.float64 if self.kernel.is_real else np.complex128)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Read-only d x d matrix: a(site_i - site_j) off the diagonal."""
        d = self.dimension
        amps = self.kernel.amplitudes(np.arange(-(d - 1), d))
        H = toeplitz(amps.real if self.kernel.is_real else amps)
        np.fill_diagonal(H, self.diagonal)
        H.flags.writeable = False
        return H

    @property
    def perturbation_sup(self) -> float:
        """Realized sup of |b| over the box, recomputed from the samples."""
        if self.perturbation_values.size == 0:
            return 0.0
        return float(np.max(np.abs(self.perturbation_values)))


def toeplitz(values: np.ndarray) -> np.ndarray:
    """The d x d matrix T[i, j] = values[d - 1 + i - j] from 2d - 1 values,
    so values[k] = a(k - (d - 1)) gives T[i, j] = a(i - j)."""
    d = (len(values) + 1) // 2
    return np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(values, d)[:, ::-1])


def box_hopping_norm(kernel: HoppingKernel, half_width: int) -> float:
    """|a|_0 of the box: sum of |a(m)| over 0 < |m| <= 2N+1 for a power
    law, over the support radius otherwise.

    The hopping block T of the box has at most one entry a(m) per offset m
    in each row and each column, so its row and column sums are at most
    this partial sum and, by the Schur test, so is ||T||_2.  Offsets that
    do not fit in the box only make the bound larger.
    """
    radius = (2 * half_width + 1 if kernel.infinite_support
              else max(kernel.support_radius, 1))
    return weighted_norm(kernel, radius).partial_sum


def pinning_gamma(kernel: HoppingKernel, half_width: int,
                  perturbation_sup: float) -> float:
    """gamma = |a|_0 + |b|_inf + 1 of the box: the eigenvalue pinning bound,
    the default bootstrap gamma and the scale of the default window."""
    return box_hopping_norm(kernel, half_width) + perturbation_sup + 1.0


def build_operator(kernel: HoppingKernel,
                   potential: PotentialSpec,
                   half_width: int,
                   max_dimension: int = MAX_DIMENSION_DEFAULT) -> TruncatedOperator:
    """Assemble the truncated operator on {-N, ..., N}.

    Matrix entry (i, j) is a(site_i - site_j) off the diagonal and
    V(site_i) + b(site_i) on it.  Every in-box offset |m| <= 2N is read
    from the kernel, so a smaller box is always the central principal
    submatrix of a larger one with the same kernel, potential, and seed.
    Only the diagonal is computed here; the matrix is filled on first read.
    """
    half_width = int(half_width)
    if half_width < 1:
        raise ValueError(f"half_width must be a positive integer, got {half_width}")
    d = 2 * half_width + 1
    if d > max_dimension:
        raise DimensionOverflowError(
            f"box dimension {d} exceeds the dense budget {max_dimension}; "
            f"raise max_dimension explicitly to proceed")

    sites = np.arange(-half_width, half_width + 1)
    # a tangent pole aborts assembly before the perturbation is sampled
    v = potential.diagonal_values(sites)
    b = potential.perturbation_values(sites)
    diagonal = v + b

    for arr in (sites, diagonal, b):
        arr.flags.writeable = False
    return TruncatedOperator(half_width=half_width, sites=sites,
                             diagonal=diagonal, kernel=kernel,
                             potential=potential, perturbation_values=b)
