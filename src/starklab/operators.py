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
import numbers
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
    reshuffling it.  Site n takes the first uniform(-amplitude, amplitude)
    of numpy's default_rng((seed, n + 2**32)), computed for the whole box
    at once (_first_doubles).  The seed is an integer in [0, 2**64) and
    the range 2 * amplitude is finite; a site below -2**32 has no key
    (ValueError).
    """

    amplitude: float
    seed: int

    def __post_init__(self):
        if not (isinstance(self.seed, numbers.Integral)
                and 0 <= self.seed < 2 ** 64):
            raise PotentialError(f"perturbation seed must be an integer in "
                                 f"[0, 2**64), got {self.seed!r}")
        if self.amplitude < 0:
            raise PotentialError(
                f"perturbation amplitude must be nonnegative, got {self.amplitude}")
        if not math.isfinite(2.0 * self.amplitude):
            raise PotentialError(
                f"perturbation range 2 * amplitude must be finite, "
                f"got amplitude {self.amplitude}")

    def values(self, sites) -> np.ndarray:
        sites = np.asarray(sites).astype(np.int64)
        if np.any(sites < -_SITE_KEY_OFFSET):
            raise ValueError(
                f"site {int(sites.min())} is below -2**32 and has no key")
        # n + 2**32 in wrapping uint64 arithmetic: exact for n >= -2**32
        keys = sites.astype(np.uint64) + np.uint64(_SITE_KEY_OFFSET)
        low, high = -float(self.amplitude), float(self.amplitude)
        # Generator.uniform: low + (high - low) * next_double
        return low + (high - low) * _first_doubles(int(self.seed), keys)

    def describe(self) -> dict:
        return {"kind": "uniform_random", "amplitude": float(self.amplitude),
                "seed": int(self.seed)}


# numpy's SeedSequence (a pool of 4 uint32 words) and PCG64 (a 128-bit
# LCG with the XSL-RR output), whose streams _first_doubles reproduces
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)  # (high, low) words


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays: each call xors the
    words with the running constant, steps the constant by mult,
    multiplies by it and folds the high half in."""
    def hashmix(words: np.ndarray) -> np.ndarray:
        nonlocal const
        words = words ^ const
        const = const * mult & _MASK32
        words = words * const
        return words ^ (words >> 16)
    return hashmix


def _mul128(value: tuple, const: tuple) -> tuple:
    """value * const mod 2**128, both (high, low) pairs of uint64 words,
    value of arrays and const of ints; the high word of lo * c_lo comes
    from 32-bit limbs."""
    (hi, lo), (c_hi, c_lo) = value, const
    a0, a1, b0, b1 = lo & _MASK32, lo >> 32, c_lo & _MASK32, c_lo >> 32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return carry + lo * c_hi + hi * c_lo, lo * c_lo


def _add128(a: tuple, b: tuple) -> tuple:
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _first_doubles(seed: int, keys: np.ndarray) -> np.ndarray:
    """default_rng((seed, key)).random() for every uint64 key, in one
    pass over the array: SeedSequence's entropy mixing and
    generate_state(4, uint64), PCG64's seeding, then one step and its
    output (x >> 11) * 2**-53.  Every step is elementwise, so keys may
    have any shape."""
    # the entropy: the seed's 1-2 uint32 words and the key's 1-2,
    # zero-padded to the pool of 4; a pad hashes like a key's zero high
    # word, so a key below 2**32 can take two words as well
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed > _MASK32 else [])
    words = [np.full(keys.shape, w, np.uint32) for w in seed_words]
    words += [(keys & _MASK32).astype(np.uint32),
              (keys >> 32).astype(np.uint32)]
    words += [np.zeros(keys.shape, np.uint32)] * (4 - len(words))

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst]
                         - _MIX_MULT_R * hashmix(pool[src]))
                pool[dst] = mixed ^ (mixed >> 16)
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    w0, w1, w2, w3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))

    # PCG64 seeding from initstate (w0, w1) and initseq (w2, w3): the
    # state starts at 0, so its first step leaves the increment
    inc = (w2 << 1 | w3 >> 63, w3 << 1 | 1)
    state = _add128(inc, (w0, w1))
    for _ in range(2):  # the seeding's second step, then the draw's
        state = _add128(_mul128(state, _PCG_MULT), inc)
    hi, lo = state
    x, rot = hi ^ lo, hi >> 58
    out = x >> rot | x << ((64 - rot) & 63)
    return (out >> 11) * 2.0 ** -53


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
    its diagonals and never needs it, and the dense solver overwrites a
    Fortran-ordered copy from ``assemble("F")`` before the residual reads it.
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
        """Read-only C-ordered d x d matrix: assemble(), kept."""
        H = self.assemble()
        H.flags.writeable = False
        return H

    def assemble(self, order: str = "C") -> np.ndarray:
        """A fresh, writable d x d matrix of the box in C or Fortran ("F")
        order: a(site_i - site_j) off the diagonal, V + b on it.  Both
        orders hold the same entries."""
        d = self.dimension
        amps = self.kernel.amplitudes(np.arange(-(d - 1), d))
        H = toeplitz(amps.real if self.kernel.is_real else amps, order)
        np.fill_diagonal(H, self.diagonal)
        return H

    @property
    def perturbation_sup(self) -> float:
        """Realized sup of |b| over the box, recomputed from the samples."""
        if self.perturbation_values.size == 0:
            return 0.0
        return float(np.max(np.abs(self.perturbation_values)))


def toeplitz(values: np.ndarray, order: str = "C") -> np.ndarray:
    """The d x d matrix T[i, j] = values[d - 1 + i - j] from 2d - 1 values,
    so values[k] = a(k - (d - 1)) gives T[i, j] = a(i - j); a fresh array
    in C or Fortran ("F") order."""
    d = (len(values) + 1) // 2
    return np.array(
        np.lib.stride_tricks.sliding_window_view(values, d)[:, ::-1],
        order=order)


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
