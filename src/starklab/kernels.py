"""Hopping kernels for translation-invariant lattice operators.

A kernel is the coefficient sequence a(m) of a long-range hopping term
(T u)(n) = sum_m a(n - m) u(m) on the integer lattice.  Two structural
constraints make every operator assembled from a kernel Hermitian with a
clean diagonal:

    a(0) = 0            (no hidden on-site term)
    a(-m) = conj(a(m))  (Hermitian symmetry)

Kernels are either finite support (coefficients stored explicitly) or
power law (generated from the rule a(m) = |m|**-exponent at every offset;
a box of half-width N reads the offsets |m| <= 2N).

The hopping mass sums |a(m)| over 0 < |m| <= cutoff; for power-law
kernels it carries an analytic bound on the mass dropped beyond the cutoff.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelError",
    "HoppingKernel",
    "WeightedNorm",
    "build_kernel",
    "nearest_neighbor",
    "power_law",
    "finite_support",
    "custom_kernel",
    "weighted_norm",
]


class KernelError(ValueError):
    """A kernel definition violates the symmetry or family contract."""


@dataclass(frozen=True)
class HoppingKernel:
    """Hermitian-symmetric hopping coefficients a(m).

    ``entries`` holds the nonzero coefficients of a finite-support kernel,
    both halves, sorted by offset.  A power-law kernel stores no entries;
    its coefficients come from the rule a(m) = |m|**-exponent.
    """

    family: str
    entries: tuple[tuple[int, complex], ...] = ()
    exponent: float | None = None

    @property
    def infinite_support(self) -> bool:
        return self.family == "power_law"

    @property
    def support_radius(self) -> int | None:
        """Largest |m| with a(m) != 0; None for rule-generated kernels."""
        if self.infinite_support:
            return None
        if not self.entries:
            return 0
        return max(abs(m) for m, _ in self.entries)

    @property
    def is_real(self) -> bool:
        return all(v.imag == 0.0 for _, v in self.entries)

    def amplitude(self, m: int) -> complex:
        """Coefficient a(m)."""
        if m == 0:
            return 0j
        if self.infinite_support:
            return complex(abs(m) ** -self.exponent)
        for off, val in self.entries:
            if off == m:
                return val
        return 0j

    def amplitudes(self, offsets) -> np.ndarray:
        """Vectorized a(m) over an integer offset array."""
        offs = np.asarray(offsets)
        out = np.zeros(offs.shape, dtype=complex)
        if self.infinite_support:
            nz = offs != 0
            out[nz] = np.abs(offs[nz]).astype(float) ** -self.exponent
        for m, v in self.entries:
            out[offs == m] = v
        return out

    def describe(self) -> dict:
        """Round-trippable record for manifests, dump headers, and configs."""
        out: dict = {"family": self.family}
        if self.family == "power_law":
            out["exponent"] = float(self.exponent)
        elif self.family == "nearest_neighbor":
            t = self.amplitude(1)
            out["amplitude"] = {"re": t.real, "im": t.imag}
        elif self.family == "finite_support":
            radius = self.support_radius
            out["half"] = [{"re": self.amplitude(m).real,
                            "im": self.amplitude(m).imag}
                           for m in range(1, radius + 1)]
        else:
            out["coefficients"] = {
                str(m): {"re": v.real, "im": v.imag} for m, v in self.entries}
        return out


@dataclass(frozen=True)
class WeightedNorm:
    """Partial hopping mass of a kernel plus a bound on the dropped tail."""

    cutoff: int
    partial_sum: float
    tail_bound: float  # 0 for finite kernels

    @property
    def upper_bound(self) -> float:
        return self.partial_sum + self.tail_bound


def _as_amplitude(value) -> complex:
    """A number, or the {"re": x, "im": y} form emitted by describe()
    with real parts; a missing part is 0.  Bools are not numbers here."""
    parts, kind = [value], numbers.Number
    if isinstance(value, dict) and set(value) <= {"re", "im"}:
        parts = [value.get("re", 0.0), value.get("im", 0.0)]
        kind = numbers.Real
    if all(isinstance(p, kind) and not isinstance(p, bool) for p in parts):
        return complex(*parts)
    raise KernelError(f"an amplitude is a number or {{re, im}} of real "
                      f"numbers, got {value!r}")


def _symmetrize(raw: dict[int, complex]) -> tuple[tuple[int, complex], ...]:
    """Validate or complete a coefficient table into a symmetric kernel.

    A table given only on m > 0 is mirrored; a table touching m < 0 must
    already be exactly conjugate-symmetric.
    """
    cleaned = {int(m): _as_amplitude(v) for m, v in raw.items()
               if _as_amplitude(v) != 0}
    if any(m == 0 for m in cleaned):
        raise KernelError("a(0) must vanish; found a nonzero entry at offset 0")
    if all(m > 0 for m in cleaned):
        full = {}
        for m, v in cleaned.items():
            full[m] = v
            full[-m] = v.conjugate()
        cleaned = full
    else:
        for m, v in cleaned.items():
            mirror = cleaned.get(-m)
            if mirror is None or mirror != v.conjugate():
                raise KernelError(
                    f"coefficients violate a(-m) = conj(a(m)) at offset {m}")
    return tuple(sorted(cleaned.items()))


def nearest_neighbor(amplitude: complex = 1.0) -> HoppingKernel:
    """Kernel with a(1) = amplitude, a(-1) = conj(amplitude), rest zero."""
    t = _as_amplitude(amplitude)
    entries = () if t == 0 else ((-1, t.conjugate()), (1, t))
    return HoppingKernel(family="nearest_neighbor", entries=entries)


def power_law(exponent: float) -> HoppingKernel:
    """Kernel a(m) = |m|**-exponent; requires exponent > 1 for summability."""
    exponent = float(exponent)
    if not exponent > 1.0:
        raise KernelError(
            f"power-law exponent must exceed 1, got {exponent}")
    return HoppingKernel(family="power_law", exponent=exponent)


def finite_support(half) -> HoppingKernel:
    """Kernel from the list [a(1), a(2), ...]; negative side is mirrored."""
    raw = {m + 1: _as_amplitude(v) for m, v in enumerate(half)}
    return HoppingKernel(family="finite_support", entries=_symmetrize(raw))


def custom_kernel(coefficients) -> HoppingKernel:
    """Kernel from an explicit {offset: amplitude} table.

    An empty table is the zero kernel (pure multiplication operator).
    Tables touching negative offsets must be exactly conjugate-symmetric.
    """
    return HoppingKernel(family="custom",
                         entries=_symmetrize(dict(coefficients)))


_BUILDERS = {
    "nearest_neighbor": nearest_neighbor,
    "power_law": power_law,
    "finite_support": finite_support,
    "custom": custom_kernel,
}


def build_kernel(family: str, **params) -> HoppingKernel:
    """Dispatch to a kernel family by name.

    Families and parameters:
      nearest_neighbor(amplitude=1.0)
      power_law(exponent)
      finite_support(half)
      custom(coefficients)
    """
    if family not in _BUILDERS:
        raise KernelError(f"unknown kernel family {family!r}; expected one "
                          f"of {tuple(_BUILDERS)}")
    try:
        return _BUILDERS[family](**params)
    except TypeError as exc:
        raise KernelError(f"bad parameters for family {family!r}: {exc}") from exc


def weighted_norm(kernel: HoppingKernel, cutoff: int) -> WeightedNorm:
    """Sum |a(m)| over 0 < |m| <= cutoff, with tail bound.

    For a power-law kernel the tail bound is the integral majorant
    2 * cutoff**(1 - exponent) / (exponent - 1) of the dropped mass.
    Finite kernels must be fully covered by the cutoff and have zero tail.
    """
    cutoff = int(cutoff)
    if cutoff < 1:
        raise ValueError(f"cutoff must be a positive integer, got {cutoff}")

    if kernel.infinite_support:
        p = kernel.exponent
        m = np.arange(1, cutoff + 1, dtype=float)
        partial = 2.0 * float(np.sum(m ** -p))
        tail = 2.0 * cutoff ** (1.0 - p) / (p - 1.0)
        return WeightedNorm(cutoff, partial, tail)

    radius = kernel.support_radius
    if cutoff < radius:
        raise ValueError(
            f"cutoff {cutoff} does not cover the kernel support radius {radius}")
    return WeightedNorm(cutoff, float(sum(abs(v) for _, v in kernel.entries)),
                        0.0)
