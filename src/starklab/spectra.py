"""Diagonalization with quality gates, ladder labels, and dumps.

Eigenpairs come from LAPACK.  A box kernel of support radius at most 1
(nearest neighbour, radius-1 finite support, the zero kernel) makes a
tridiagonal matrix, which goes to the symmetric tridiagonal
divide-and-conquer solver (?stevd, through scipy.linalg.lapack.dstevd);
a complex one is first made real by a diagonal unitary gauge.  Every
other kernel goes to the dense Hermitian solver (numpy.linalg.eigh).
Measured at d = 2801 on 2 cores with OpenBLAS, ?stevd takes 0.11 s
where the dense solver takes 1.9 s.

Each path's peak memory is its solver's.  The tridiagonal path never
builds the box's matrix: ?stevd reads the diagonal and subdiagonal, and
its workspace (1 + 4d + d^2 doubles) with its Fortran-ordered
eigenvectors, then those with their C-ordered copy, set the peak at
2 d^2 doubles (120 MB above the process's base at d = 2801).  A complex
box writes the gauged eigenvectors from the Fortran-ordered ones
straight into one C-ordered complex array, so its peak is 3 d^2
doubles, not the 4 d^2 of a C-ordered real copy followed by the gauged
product.  The dense path holds the matrix, and eigh's copy of it with
its workspace set the peak at about 5 d^2 doubles; its residual is one
whole-box product H @ vec, which stays below that.  The Gram defect and
the tridiagonal residual work on blocks of columns, never on a d x d
temporary, so neither raises a peak.

Both gates also work on row supports: the first and last nonzero row
of each eigenvector.  One pass down the rows (_column_scan, about 0.04 s
at d = 2801) gives them with each eigenvector's peak row.  A Stark
box's eigenvectors end in exact zeros (about 75
nonzero rows of 2801 at N = 1400, B = 2), so the tridiagonal residual
of a block of columns takes only the rows of its support widened by
one, and the Gram matrix of a block only the later columns whose
support meets the block's rows; every other entry is a sum of exact
zeros.  The outputs keep their bits.  The Gram products still run over
every row, since a GEMM over fewer rows splits its sums elsewhere.  At
d = 2801 on 2 cores the residual takes 0.01 s instead of 0.18 s and the
Gram defect 0.09 s instead of 0.40 s; a dense box's eigenvectors have
full support and cost what they did.  The support is kept on the
SpectralData for the localization checks.

Each eigenvector's sign (its phase, if complex) is fixed so that its
largest-modulus entry is real and positive.  Every decomposition is
gated on two invariants before it is returned:

    ||H phi - lambda phi||_2 <= residual_tol * max(1, spectral radius)
    max |<phi_i, phi_j> - delta_ij| <= orthonormality_tol

Eigenvalues are labeled by the ladder convention: index 0 goes to the
smallest nonnegative eigenvalue and consecutive integers continue in both
directions in ascending order.  Each eigenvector also carries its
localization center, the site of maximal modulus (ties broken toward the
smaller site).  Modes whose center lies within W of the box edge sit in
the untrusted boundary region; the interior mask excludes them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._format import write_json
from .kernels import HoppingKernel, build_kernel
from .operators import TruncatedOperator, pinning_gamma

__all__ = [
    "ConvergenceFailureError",
    "SpectralData",
    "RESIDUAL_TOL",
    "ORTHONORMALITY_TOL",
    "DEGENERACY_GAP",
    "diagonalize",
    "provenance",
    "ladder_anchor",
    "default_interior_window",
    "save_spectral",
    "load_spectral",
]

RESIDUAL_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10
DEGENERACY_GAP = 1e-12

_FORMAT_NAME = "starklab-spectrum"
_FORMAT_VERSION = 2
_EIGENVECTOR_DTYPES = ("<f8", "<c16")  # real and complex spectra


class ConvergenceFailureError(RuntimeError):
    """The eigensolver failed or missed the accuracy gates."""


@dataclass(frozen=True)
class SpectralData:
    """Eigenpairs of a truncated operator with labels and trust metadata.

    Eigenvalues ascend; eigenvector k is the column eigenvectors[:, k].
    anchor_position is the ascending position carrying ladder index 0, so
    the ladder index of position p is p - anchor_position.
    """

    half_width: int
    sites: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    orthonormality_defect: float
    anchor_position: int
    anchor_fallback: bool
    centers: np.ndarray
    interior_window: int
    interior_mask: np.ndarray
    degenerate_positions: tuple[int, ...]
    provenance: dict

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)

    @property
    def spectral_radius(self) -> float:
        return float(max(abs(self.eigenvalues[0]), abs(self.eigenvalues[-1])))

    def recorded(self, key: str):
        """provenance[key]; ValueError naming the key if it is missing."""
        return _recorded(self.provenance, self.half_width, key)

    @property
    def kernel(self) -> HoppingKernel:
        """The hopping kernel the spectrum was computed from."""
        return build_kernel(**self.recorded("kernel"))

    @property
    def pinning_gamma(self) -> float:
        """gamma = |a|_0 + |b|_inf + 1 of the box, from the provenance."""
        return pinning_gamma(self.kernel, self.half_width,
                             float(self.recorded("perturbation_sup")))

    @cached_property
    def row_support(self) -> tuple[np.ndarray, np.ndarray]:
        """(start, stop): every row of eigenvector k outside
        [start[k], stop[k]) is an exact zero (see _column_scan).

        Derived from eigenvectors on first use, so a copy made by
        dataclasses.replace with other eigenvectors derives its own.
        """
        return _column_scan(self.eigenvectors)[1]

    @property
    def ladder_indices(self) -> np.ndarray:
        return np.arange(self.dimension) - self.anchor_position

    def position_of(self, index: int) -> int:
        p = int(index) + self.anchor_position
        if not 0 <= p < self.dimension:
            raise IndexError(f"ladder index {index} outside the spectrum")
        return p

    def eigenvalue_of(self, index: int) -> float:
        return float(self.eigenvalues[self.position_of(index)])

    def row_of_site(self, n: int) -> int:
        if abs(int(n)) > self.half_width:
            raise IndexError(
                f"site {n} outside box of half-width {self.half_width}")
        return int(n) + self.half_width

    @property
    def trusted_site_bound(self) -> int:
        """Sites with |n| <= this bound are in the trusted interior."""
        return self.half_width - self.interior_window

    def center_offset_sup(self) -> int:
        """Empirical sup of |center - ladder index| over interior modes."""
        mask = self.interior_mask
        if not np.any(mask):
            return 0
        return int(np.max(np.abs(self.centers[mask]
                                 - self.ladder_indices[mask])))


ANCHOR_TOLERANCE = 1e-8  # below the unit level spacing, above solver noise


def ladder_anchor(eigenvalues: np.ndarray) -> tuple[int, bool]:
    """Position of the smallest nonnegative eigenvalue, with fallback flag.

    Nonnegative is taken with the tolerance ANCHOR_TOLERANCE: a zero
    eigenvalue that the solver returns as -1e-16 must still anchor the
    ladder, or the whole labeling shifts by one on floating-point noise.
    For an all-negative spectrum the anchor sits one past the last
    position (every label is negative); for an all-positive spectrum it
    is position 0.  Both one-sided cases are flagged.
    """
    lam = np.asarray(eigenvalues)
    pos = int(np.searchsorted(lam, -ANCHOR_TOLERANCE, side="left"))
    fallback = pos == len(lam) or \
        (pos == 0 and (len(lam) == 0 or lam[0] > ANCHOR_TOLERANCE))
    return pos, fallback


def _column_scan(vec: np.ndarray):
    """(peak_rows, (start, stop)) of the columns of vec, in one pass down
    the rows: each step reads one contiguous row and no d x d temporary
    is allocated (an argmax down the columns of a row-major array copies
    it transposed, which took 4x as long at d = 2801, in blocks too).

    peak_rows holds each column's row of largest modulus, the first on
    ties; row 0 seeds the running maximum, so a NaN there keeps row 0.
    [start, stop) runs from each column's first nonzero row to its last:
    NaN and inf count as nonzero, -0.0 as zero, and a zero column gets
    the whole box.  Every row outside it is an exact zero, so a row-by-row
    sum or a max down a column over it equals the one over the column.
    """
    d, n = vec.shape
    best = np.abs(vec[0])
    rows = np.zeros(n, dtype=np.intp)
    start = np.full(n, d, dtype=np.intp)
    stop = np.zeros(n, dtype=np.intp)
    mod = best.copy()
    flags = np.empty(n, dtype=bool)
    for i in range(d):
        if i:
            np.abs(vec[i], out=mod)
            np.greater(mod, best, out=flags)  # strict: a tie keeps the first
            np.copyto(best, mod, where=flags)
            np.copyto(rows, i, where=flags)
        np.not_equal(mod, 0, out=flags)  # |x| != 0 exactly where x != 0
        np.minimum(start, i, out=start, where=flags)
        np.copyto(stop, i + 1, where=flags)
    empty = stop == 0
    start[empty] = 0
    stop[empty] = d
    start.flags.writeable = stop.flags.writeable = False
    return rows, (start, stop)


def support_rows(support: tuple[np.ndarray, np.ndarray], columns,
                 widen: int = 0) -> slice:
    """The rows from the first to the last nonzero row of any of the
    columns (indices or a slice into the _column_scan support), widened
    by widen on each side and clipped to the box."""
    start, stop = support
    return slice(max(int(start[columns].min()) - widen, 0),
                 min(int(stop[columns].max()) + widen, len(stop)))


def _fix_phases(vec: np.ndarray):
    """Scale each column of vec, in place, by the unit-modulus factor that
    makes its largest-modulus entry (the first on ties) real and positive.

    Returns _column_scan of the scaled columns.  A real column only
    changes sign, which keeps every modulus and zero, so the scan that
    found the peaks serves (a zero or non-finite peak makes the column
    NaN, inside that scan's support, and fails the gates).  A complex
    column's phase moves its other
    moduli by rounding, so it is scanned again, as a reload scans it:
    two moduli that tie to rounding can swap peak rows.
    """
    scan = rows, _ = _column_scan(vec)
    columns = np.arange(vec.shape[1])
    peaks = vec[rows, columns]
    with np.errstate(invalid="ignore"):  # a zero column fails the gates
        vec *= peaks.conj() / np.abs(peaks)
    vec[rows, columns] = np.abs(peaks)  # the product leaves imaginary noise
    return _column_scan(vec) if np.iscomplexobj(vec) else scan


def default_interior_window(half_width: int, gamma: float) -> int:
    """W = max(ceil(N/4), ceil(10 * gamma)), gamma = |a|_0 + |b|_inf + 1."""
    return max(math.ceil(half_width / 4), math.ceil(10.0 * gamma))


def _tridiagonal_eigh(diag: np.ndarray, lower: np.ndarray):
    """Eigenpairs of the Hermitian tridiagonal matrix with real diagonal
    diag and first subdiagonal lower, from LAPACK's symmetric tridiagonal
    divide-and-conquer solver (?stevd).

    A complex matrix is D T D^* with T real tridiagonal, off-diagonal
    |l|, and D = diag(phi) unitary: phi_0 = 1 and
    phi_{i+1} = phi_i l_i / |l_i| (phi_i where l_i = 0).  The eigenvectors
    of H are then phi[:, None] * z for the eigenvectors z of T.
    """
    # scipy.linalg adds about 0.33 s to the import; load it only when needed
    from scipy.linalg.lapack import dstevd

    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(lower))):
        raise ValueError("the tridiagonal matrix has non-finite entries")
    phi = None
    if np.iscomplexobj(lower):
        size = np.abs(lower)
        # numpy divides a complex by a real through the reciprocal, which
        # overflows for a subnormal |l|: scale such l by 2**64 (exact) first
        unit = lower.copy()
        unit[size < np.finfo(float).tiny] *= 2.0 ** 64
        step = np.ones_like(lower)
        np.divide(unit, np.abs(unit), out=step, where=size > 0)
        phi = np.concatenate(([1.0 + 0.0j], np.cumprod(step)))
        lower = size
    lam, z, info = dstevd(diag, lower, compute_v=1)
    if info != 0:
        raise ValueError(f"?stevd did not converge (info={info})")
    if phi is None:
        return lam, np.ascontiguousarray(z)  # LAPACK returns Fortran order
    # straight from the Fortran-ordered z into C order, with no real copy
    return lam, np.multiply(phi[:, np.newaxis], z,
                            out=np.empty(z.shape, complex))


# Columns per block of the gates, so that neither holds a d x d temporary.
# Blocks of 128 to 512 columns all took the time of the full-array gates
# at d = 2801.
_GATE_BLOCK = 256


def _gate_blocks(d: int):
    """Column ranges [i0, i1) of _GATE_BLOCK columns covering range(d).

    A one-column tail joins the block before it: numpy sums a single
    column pairwise, where it sums a wider block row by row as the
    full-array formula does, so that a tail of one would change bits.
    """
    edges = list(range(0, d, _GATE_BLOCK)) + [d]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return zip(edges[:-1], edges[1:])


def _tridiagonal_residuals(diag: np.ndarray, lower: np.ndarray,
                           lam: np.ndarray, vec: np.ndarray,
                           support: tuple[np.ndarray, np.ndarray]
                           ) -> np.ndarray:
    """Column norms of H @ vec - vec * lam for the tridiagonal H with
    diagonal diag and subdiagonal lower, summed over the three diagonals
    instead of a d^3 product, one block of columns at a time.

    support is vec's row support (_column_scan).  H moves a vector by
    at most one row, so a block's residual is zero outside the rows of
    its support widened by one; numpy sums each column of a block row by
    row, and the rows it leaves out add exact zeros, so the norms keep
    their bits.
    """
    d = len(lam)
    diag = diag.astype(vec.dtype)
    resid = np.empty(d)
    for i0, i1 in _gate_blocks(d):
        rows = support_rows(support, slice(i0, i1), 1)
        v = vec[rows, i0:i1]
        # (H v)(i) = diag(i) v(i) + lower(i-1) v(i-1) + conj(lower(i)) v(i+1);
        # v is zero on the two rows that border the slice
        r = np.subtract.outer(diag[rows], lam[i0:i1])
        r *= v
        band = lower[rows.start:rows.stop - 1, np.newaxis]
        r[1:] += band * v[:-1]
        r[:-1] += band.conj() * v[1:]
        resid[i0:i1] = np.linalg.norm(r, axis=0)
    return resid


def _gram_defect(vec: np.ndarray,
                 support: tuple[np.ndarray, np.ndarray]) -> float:
    """max |<phi_i, phi_j> - delta_ij| over the columns of vec, from the
    upper triangle of the Gram matrix formed one block of rows at a time.

    support is vec's row support (_column_scan).  A block's rows of the
    Gram matrix are formed only against the later columns up to the last
    one whose support meets the block's rows: every entry past it is a
    sum of exact zeros.  The products run over every row of the box, since a
    GEMM over fewer rows splits its sums elsewhere and changes the last
    bits of the entries.  A NaN entry makes the result NaN, an inf one
    makes it inf or NaN.
    """
    start, stop = support
    defect = np.float64(0.0)
    for i0, i1 in _gate_blocks(vec.shape[1]):
        r = support_rows(support, slice(i0, i1))
        meets = np.flatnonzero((start[i1:] < r.stop) & (stop[i1:] > r.start))
        j1 = i1 + int(meets[-1]) + 1 if meets.size else i1
        left = vec[:, i0:i1]
        gram = (left.conj() if np.iscomplexobj(left) else left).T \
            @ vec[:, i0:j1]
        np.fill_diagonal(gram, gram.diagonal() - 1.0)
        defect = np.maximum(defect, np.max(np.abs(gram)))  # keeps a NaN
    return float(defect)


def _subdiagonal(op: TruncatedOperator) -> np.ndarray | None:
    """The first subdiagonal of a tridiagonal box (kernel support radius
    at most 1), real for a real kernel; None for any other box."""
    support = op.kernel.support_radius
    if support is None or support > 1:
        return None
    hop = op.kernel.amplitude(1)
    return np.full(op.dimension - 1, hop.real if op.kernel.is_real else hop)


def _residuals(op: TruncatedOperator, lam: np.ndarray, vec: np.ndarray,
               lower: np.ndarray | None,
               support: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Column norms of H @ vec - vec * lam: the three-term sum of a
    tridiagonal box (lower = _subdiagonal(op)), the product H @ vec for
    any other box (lower None)."""
    if lower is None:
        return np.linalg.norm(op.matrix @ vec - vec * lam[np.newaxis, :],
                              axis=0)
    return _tridiagonal_residuals(op.diagonal, lower, lam, vec, support)


def diagonalize(op: TruncatedOperator,
                interior_window: int | None = None,
                residual_tol: float = RESIDUAL_TOL,
                orthonormality_tol: float = ORTHONORMALITY_TOL,
                degeneracy_gap: float = DEGENERACY_GAP) -> SpectralData:
    """Full eigendecomposition of a truncated operator, quality-gated.

    A tridiagonal operator (box kernel support radius at most 1) is solved
    by LAPACK's tridiagonal divide-and-conquer solver and its residual is a
    three-term sum over the diagonals; any other operator is solved densely
    and its residual is the product H @ vec.  Eigenvectors are C-contiguous
    either way.  Each eigenvector is scaled by the unit-modulus factor that
    makes its largest-modulus entry (the first on ties) real and positive,
    so the returned and dumped vectors do not depend on the sign or phase
    the solver picked; the gates check the vectors as returned, on their
    row supports, which the returned SpectralData keeps.

    Raises ConvergenceFailureError if LAPACK does not converge, if an
    eigenvalue, residual or Gram entry is not finite, or if the
    residual/orthonormality invariants fail at the given tolerances.
    """
    lower = _subdiagonal(op)
    try:
        lam, vec = (np.linalg.eigh(op.matrix) if lower is None
                    else _tridiagonal_eigh(op.diagonal, lower))
    except ValueError as exc:  # LinAlgError, ?stevd's info, non-finite H
        raise ConvergenceFailureError(
            f"eigensolver failed on half_width={op.half_width} "
            f"({op.potential.family} potential): {exc}") from exc
    if not np.all(np.isfinite(lam)):
        raise ConvergenceFailureError(
            "eigensolver returned non-finite eigenvalues "
            f"(half_width={op.half_width})")

    scan = _, support = _fix_phases(vec)
    with np.errstate(invalid="ignore"):  # a non-finite residual fails below
        resid = _residuals(op, lam, vec, lower, support)
    radius = float(max(abs(lam[0]), abs(lam[-1]))) if len(lam) else 0.0
    resid_limit = residual_tol * max(1.0, radius)
    if not np.max(resid) <= resid_limit:  # a NaN residual fails too
        raise ConvergenceFailureError(
            f"max eigenpair residual {np.max(resid):.3e} exceeds "
            f"{resid_limit:.3e} (half_width={op.half_width})")

    defect = _gram_defect(vec, support)
    if not defect <= orthonormality_tol:
        raise ConvergenceFailureError(
            f"orthonormality defect {defect:.3e} exceeds {orthonormality_tol:.3e} "
            f"(half_width={op.half_width})")

    anchor, fallback = ladder_anchor(lam)
    if interior_window is None:
        interior_window = default_interior_window(
            op.half_width,
            pinning_gamma(op.kernel, op.half_width, op.perturbation_sup))

    return _labeled(op.half_width, lam, vec, resid, scan,
                    int(interior_window),
                    provenance(op, residual_tol, orthonormality_tol,
                               degeneracy_gap),
                    orthonormality_defect=defect,
                    anchor_position=anchor, anchor_fallback=fallback)


def provenance(op: TruncatedOperator, residual_tol: float,
               orthonormality_tol: float, degeneracy_gap: float) -> dict:
    """The record of what a spectrum of op was computed from: the kernel,
    the potential, the box, the realized perturbation sup, the matrix
    dtype and the gate tolerances."""
    return {
        "kernel": op.kernel.describe(),
        "potential": op.potential.describe(),
        "half_width": int(op.half_width),
        "perturbation_sup": float(op.perturbation_sup),
        "matrix_dtype": str(op.dtype),
        "residual_tol": float(residual_tol),
        "orthonormality_tol": float(orthonormality_tol),
        "degeneracy_gap": float(degeneracy_gap),
    }


def _recorded(provenance: dict, half_width: int, key: str):
    """provenance[key]; ValueError naming the key if it is missing."""
    if key not in provenance:
        raise ValueError(
            f"spectrum of half_width {half_width} has no provenance.{key}: "
            "its dump header lacks the key; rerun the spectrum stage to "
            "rewrite it")
    return provenance[key]


def _labeled(half_width: int, lam, vec, resid, scan, interior_window: int,
             provenance: dict, **fields) -> SpectralData:
    """SpectralData with the sites, centers (the sites of the peak rows of
    scan = _column_scan(vec)), interior mask and degenerate positions of
    the eigenpairs, its arrays frozen and its row_support seeded."""
    peak_rows, support = scan
    sites = np.arange(-half_width, half_width + 1)
    centers = sites[peak_rows]
    mask = np.abs(centers) <= half_width - interior_window
    gap = float(_recorded(provenance, half_width, "degeneracy_gap"))
    degenerate = tuple(int(p) for p in np.nonzero(np.diff(lam) < gap)[0])
    for arr in (sites, lam, vec, resid, centers, mask):
        arr.flags.writeable = False
    sd = SpectralData(
        half_width=half_width, sites=sites, eigenvalues=lam,
        eigenvectors=vec, residuals=resid, centers=centers,
        interior_window=interior_window, interior_mask=mask,
        degenerate_positions=degenerate, provenance=provenance, **fields)
    vars(sd)["row_support"] = support  # where cached_property keeps it
    return sd


def save_spectral(sd: SpectralData, base_path: str) -> tuple[str, str]:
    """Write {base}.json (header) and {base}.bin (payload), format v2.

    Payload layout, little-endian, in order: eigenvalues (d float64),
    residuals (d float64), eigenvectors (d*d float64 for a real spectrum,
    complex128 for a complex one; row-major, row = site row, column =
    ascending mode).  The header names the eigenvector dtype and carries
    the payload's byte length and sha256.
    """
    json_path = f"{base_path}.json"
    bin_path = f"{base_path}.bin"
    d = sd.dimension
    dtype = np.dtype("<c16" if np.iscomplexobj(sd.eigenvectors) else "<f8")
    parts = [np.ascontiguousarray(sd.eigenvalues, dtype="<f8"),
             np.ascontiguousarray(sd.residuals, dtype="<f8"),
             np.ascontiguousarray(sd.eigenvectors, dtype=dtype)]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    header = {
        "format": _FORMAT_NAME,
        "format_version": _FORMAT_VERSION,
        "half_width": sd.half_width,
        "dimension": d,
        "interior_window": sd.interior_window,
        "anchor_position": sd.anchor_position,
        "anchor_fallback": sd.anchor_fallback,
        "orthonormality_defect": sd.orthonormality_defect,
        "max_residual": float(np.max(sd.residuals)) if d else 0.0,
        "degenerate_positions": list(sd.degenerate_positions),
        "center_offset_sup": sd.center_offset_sup(),
        "provenance": sd.provenance,
        "payload": {
            "file": os.path.basename(bin_path),
            "eigenvector_dtype": dtype.str,
            "layout": [
                f"eigenvalues: {d} x float64-le",
                f"residuals: {d} x float64-le",
                f"eigenvectors: {d}x{d} x {dtype.name}-le "
                "row-major (row = site, column = mode)",
            ],
            "byte_length": sum(part.nbytes for part in parts),
            "sha256": digest.hexdigest(),
        },
    }
    write_json(json_path, header)
    with open(bin_path, "wb") as fh:
        for part in parts:
            part.tofile(fh)
    return json_path, bin_path


def load_spectral(base_path: str) -> SpectralData:
    """Rebuild SpectralData from a save_spectral dump pair.

    Raises ValueError, naming the problem, for a header that is not a
    format-v2 spectrum header (a v1 dump must be rewritten by rerunning
    the spectrum stage), a header whose half_width disagrees with its
    dimension or provenance, a payload whose length differs from the
    header's byte_length or from what the dimension and dtype need, and a
    payload whose sha256 differs from the header's.
    """
    with open(f"{base_path}.json", "r", encoding="utf-8") as fh:
        header = json.load(fh)
    if header.get("format") != _FORMAT_NAME:
        raise ValueError(f"{base_path}.json is not a spectrum header")
    version = header.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"{base_path}.json has dump format_version {version!r}; only "
            f"format_version {_FORMAT_VERSION} is read: rerun the spectrum "
            "stage to rewrite it")
    d = int(header["dimension"])
    half_width = int(header["half_width"])
    prov = header.get("provenance", {})
    if d != 2 * half_width + 1 or prov.get("half_width") != half_width:
        raise ValueError(f"{base_path}.json: half_width {half_width} "
                         f"disagrees with dimension {d} or provenance")
    payload = header["payload"]
    if payload.get("eigenvector_dtype") not in _EIGENVECTOR_DTYPES:
        raise ValueError(f"{base_path}.json names eigenvector dtype "
                         f"{payload.get('eigenvector_dtype')!r}, not one "
                         f"of {_EIGENVECTOR_DTYPES}")
    dtype = np.dtype(payload["eigenvector_dtype"])
    byte_length = 2 * d * 8 + d * d * dtype.itemsize
    if payload["byte_length"] != byte_length:
        raise ValueError(
            f"{base_path}.json declares byte_length {payload['byte_length']}, "
            f"but dimension {d} with {dtype.name} eigenvectors needs "
            f"{byte_length}")
    raw = np.fromfile(f"{base_path}.bin", dtype=np.uint8)
    if raw.size != byte_length:
        raise ValueError(f"{base_path}.bin holds {raw.size} bytes, not the "
                         f"declared byte_length {byte_length}")
    if hashlib.sha256(raw).hexdigest() != payload["sha256"]:
        raise ValueError(f"{base_path}.bin does not match the sha256 in "
                         f"{base_path}.json: the payload is corrupt")
    lam = np.frombuffer(raw, "<f8", d)
    resid = np.frombuffer(raw, "<f8", d, offset=8 * d)
    vec = np.frombuffer(raw, dtype, d * d, offset=16 * d).reshape(d, d)

    return _labeled(
        half_width, lam, vec, resid, _column_scan(vec),
        int(header["interior_window"]), prov,
        orthonormality_defect=float(header["orthonormality_defect"]),
        anchor_position=int(header["anchor_position"]),
        anchor_fallback=bool(header["anchor_fallback"]))
