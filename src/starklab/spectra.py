"""Diagonalization with quality gates, ladder labels, and dumps.

Eigenpairs come from LAPACK, through one solver choice (_eigh).  A box
kernel of support radius at most 1 (nearest neighbour, radius-1 finite
support, the zero kernel) makes a tridiagonal matrix, which goes to the
symmetric tridiagonal divide-and-conquer solver (?stevd); a complex one
is first made real by a diagonal unitary gauge.  Every other kernel goes
to the dense Hermitian divide-and-conquer solver (?syevd, or ?heevd if
complex), called in place.  Both are called in the LAPACK numpy loaded
(_lapack); where it lacks ?stevd a tridiagonal box is solved densely,
and where it lacks the dense solver that is numpy.linalg.eigh.  The
residual's form follows the box, not the solver (_gated_residuals): a
tridiagonal box solved densely keeps its three-term residual.

The eigenvectors stay in the layout LAPACK writes them in, Fortran
(column-major) order, from the solve to the dump and back: eigenvector
k, the column k, is contiguous, and no copy to C order is made.  Every
pass over them that goes mode by mode (the scan, the phases, the dump's
runs) reads contiguous memory.

Each path's peak memory is its solver's.  The tridiagonal path never
builds the box's matrix: ?stevd reads the diagonal and subdiagonal, and
its workspace (1 + 4d + d^2 doubles) with its eigenvectors set the peak
at 2 d^2 doubles; after the solve the eigenvectors alone hold d^2.  A
complex box writes the gauged eigenvectors from the real ones straight
into one Fortran-ordered complex array, so its peak is 3 d^2 doubles.
The dense solver overwrites a fresh Fortran-ordered matrix with the
eigenvectors, so the matrix and its 2 d^2 workspace set the peak at
3 d^2 entries.  The dense residual is one whole-box product R = H @ vec,
from which each block of columns subtracts its vec * lam in place
before its norms are taken: H, the eigenvectors and R make 3 d^2 again.
The Gram defect and the tridiagonal residual work on blocks of columns,
never on a d x d temporary, so neither raises a peak.  What an earlier
box or the scan freed would stay resident on the malloc heap and add to
the solve's or the gates' peak, so diagonalize hands the heap's free
pages back to the system before each.

Both gates also work on row supports: the first and last nonzero row
of each eigenvector.  One scan of the columns, 64 at a time
(_column_scan), gives them with each eigenvector's peak row.  A Stark
box's eigenvectors end in exact zeros, so the tridiagonal residual of a
block of columns takes only the rows of its support widened by one, and
the Gram matrix of a block only the later columns whose support meets
the block's rows, over the block's support rows; every other term is a
product with an exact zero.  The residuals keep their bits, the Gram
defect its bits to 4 * 2**-52; a dense box's eigenvectors have full
support, so its gates run over every row.  The scan is kept on the
SpectralData, whose labels and the localization checks read it.

Each eigenvector's sign (its phase, if complex) is fixed so that its
largest-modulus entry is real and positive, and its zeros are then made
+0.0: vec += 0.0 moves no other entry, and ?stevd returns many of a
Stark box's zeros as -0.0.  A dump (format v4) stores each
eigenvector's run from its first to its last nonzero row, its row
support, and a reload fills every other row with +0.0, so the reloaded
eigenvectors equal the computed ones bit for bit.  Each run is
contiguous in the column-major eigenvectors, read so by the save and
written so by the reload.  A reload refuses a non-finite eigenvalue,
residual or eigenvector entry, so a NaN reaches the scan only from a
raw solve, whose gates then fail.

Every decomposition is gated on two invariants before it is returned:

    ||H phi - lambda phi||_2 <= RESIDUAL_TOL * max(1, spectral radius)
    max |<phi_i, phi_j> - delta_ij| <= ORTHONORMALITY_TOL

Eigenvalues are labeled by the ladder convention: index 0 goes to the
smallest nonnegative eigenvalue and consecutive integers continue in both
directions in ascending order.  Each eigenvector also carries its
localization center, the site of maximal modulus (ties broken toward the
smaller site).  Modes whose center lies within W of the box edge sit in
the untrusted boundary region; the interior mask excludes them.

SpectralData stores the eigenpairs, their residuals, the Gram defect and
the provenance (W included); every label above is derived from those.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
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
    "recheck_residuals",
    "ladder_anchor",
    "default_interior_window",
    "save_spectral",
    "load_spectral",
]

RESIDUAL_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10
DEGENERACY_GAP = 1e-12

_FORMAT_NAME = "starklab-spectrum"
_FORMAT_VERSION = 4
_EIGENVECTOR_DTYPES = ("<f8", "<c16")  # real and complex spectra


class ConvergenceFailureError(RuntimeError):
    """The eigensolver failed or missed the accuracy gates."""


@dataclass(frozen=True)
class SpectralData:
    """Eigenpairs of a truncated operator, their gates and provenance.

    Eigenvalues ascend; eigenvector k is the column eigenvectors[:, k],
    contiguous where eigenvectors is Fortran-ordered, as diagonalize and
    load_spectral return it (any layout gives the same results: a BLAS
    product of moduli takes them in C order).  Every
    label (sites, centers, row supports, interior mask, degenerate
    positions, ladder anchor) is derived from these fields on first use
    and frozen, so a copy made by dataclasses.replace derives its own.
    anchor_position is the ascending position carrying ladder index 0, so
    the ladder index of position p is p - anchor_position.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    orthonormality_defect: float
    provenance: dict

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)

    @property
    def half_width(self) -> int:
        return self.dimension // 2

    @property
    def spectral_radius(self) -> float:
        return float(max(abs(self.eigenvalues[0]), abs(self.eigenvalues[-1])))

    def recorded(self, key: str):
        """provenance[key]; ValueError naming the key if it is missing."""
        if key not in self.provenance:
            raise ValueError(
                f"spectrum of half_width {self.half_width} has no "
                f"provenance.{key}: its dump header lacks the key; rerun the "
                "spectrum stage to rewrite it")
        return self.provenance[key]

    @property
    def interior_window(self) -> int:
        return int(self.recorded("interior_window"))

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
    def _scan(self):
        """_column_scan(eigenvectors), seeded where it was already taken."""
        return _column_scan(self.eigenvectors)

    @cached_property
    def row_support(self) -> tuple[np.ndarray, np.ndarray]:
        """(start, stop): every row of eigenvector k outside
        [start[k], stop[k]) is an exact zero (see _column_scan)."""
        return self._scan[1]

    @cached_property
    def sites(self) -> np.ndarray:
        return _frozen(np.arange(-self.half_width, self.half_width + 1))

    @cached_property
    def centers(self) -> np.ndarray:
        """The site of each eigenvector's largest-modulus row."""
        return _frozen(self.sites[self._scan[0]])

    @cached_property
    def interior_mask(self) -> np.ndarray:
        return _frozen(np.abs(self.centers) <= self.trusted_site_bound)

    @cached_property
    def degenerate_positions(self) -> tuple[int, ...]:
        gap = float(self.recorded("degeneracy_gap"))
        return tuple(int(p) for p in
                     np.nonzero(np.diff(self.eigenvalues) < gap)[0])

    @cached_property
    def anchor_position(self) -> int:
        return ladder_anchor(self.eigenvalues)[0]

    @cached_property
    def anchor_fallback(self) -> bool:
        return ladder_anchor(self.eigenvalues)[1]

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


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


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


_SCAN_BLOCK = 64  # modes per block of the scan


def _column_scan(vec: np.ndarray):
    """(peak_rows, (start, stop)) of the columns of vec, one block of
    _SCAN_BLOCK columns at a time, each read as the rows of vec.T: a
    column-major vec (a solver's or a reload's) is read contiguously.

    peak_rows holds each column's row of largest modulus, np.argmax of
    its moduli: the first row wins a tie, and the first NaN wins outright.
    [start, stop) runs from each column's first nonzero row to its last:
    NaN and inf count as nonzero, -0.0 as zero, and a zero column gets
    the whole box.  Every row outside it is an exact zero, so a row-by-row
    sum or a max down a column over it equals the one over the column.

    A block's flags x != 0 give start by an argmax and stop by the
    largest flagged row index (an argmax over the reversed rows is
    slower: numpy's fast bool argmax needs a contiguous row).  A complex
    block with contiguous rows is flagged on its real view, each entry's
    two flags then paired through a uint16 view, faster than a complex
    x != 0: either way an entry is nonzero where either part is.  The
    moduli are taken only on the rows from the first start to the last
    stop of the block, outside which every entry of the block is zero.
    """
    d, n = vec.shape
    rows = np.empty(n, dtype=np.intp)
    start = np.empty(n, dtype=np.intp)
    stop = np.empty(n, dtype=np.intp)
    index = np.arange(d, dtype=np.min_scalar_type(d))
    paired = np.iscomplexobj(vec) and vec.T.flags.c_contiguous
    for k0 in range(0, n, _SCAN_BLOCK):
        k1 = min(k0 + _SCAN_BLOCK, n)
        block = vec.T[k0:k1]
        if paired:
            nonzero = (block.view(block.real.dtype) != 0).view(np.uint16) != 0
        else:
            nonzero = block != 0
        first = np.argmax(nonzero, axis=1)
        lo = int(first.min())
        last = np.max(nonzero[:, lo:] * index[lo:], axis=1)
        # a zero column has no True (its argmax reads row 0): [0, d)
        empty = ~nonzero[np.arange(k1 - k0), first]
        start[k0:k1] = first
        stop[k0:k1] = np.where(empty, d, last + 1)
        hi = int(stop[k0:k1].max())
        rows[k0:k1] = lo + np.argmax(np.abs(block[:, lo:hi]), axis=1)
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
    column's phase moves its other moduli by rounding, so it is scanned
    again, as a reload scans it: two moduli that tie to rounding can swap
    peak rows.
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
    divide-and-conquer solver (?stevd, through _solve) on copies of diag
    and lower, which it overwrites.  The eigenvectors are the
    Fortran-ordered array ?stevd wrote, returned as they are.

    A complex matrix is D T D^* with T real tridiagonal, off-diagonal
    |l|, and D = diag(phi) unitary: phi_0 = 1 and
    phi_{i+1} = phi_i l_i / |l_i| (phi_i where l_i = 0).  The eigenvectors
    of H are then phi[:, None] * z for the eigenvectors z of T, written
    into one Fortran-ordered complex array.
    """
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
    n, lam = ctypes.c_int64(len(diag)), np.array(diag, dtype=np.float64)
    z = np.empty((len(diag), len(diag)), order="F")
    _solve("dstevd", (b"V", n, lam, np.array(lower, dtype=np.float64), z, n),
           (np.float64, np.int64))
    return lam, z if phi is None else phi[:, np.newaxis] * z


# The names a LAPACK routine may have in numpy's own LAPACK, in lookup
# order: only those whose 64_ suffix fixes every integer at int64.
_LAPACK_NAMES = ("scipy_{}_64_", "{}_64_")


@functools.cache
def _numpy_lapack():
    """A ctypes handle on the library numpy.linalg loaded; None for a
    numpy without that module file."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None


# OpenBLAS's run-time queries, as numpy's scipy-openblas build exports
# them: the thread count it will use, the core it picked and its build
_BLAS_QUERIES = {
    "threads": ("scipy_openblas_get_num_threads64_", ctypes.c_int),
    "core": ("scipy_openblas_get_corename64_", ctypes.c_char_p),
    "config": ("scipy_openblas_get_config64_", ctypes.c_char_p),
}


def blas_runtime() -> dict:
    """What numpy's BLAS reports at run time, one entry per
    _BLAS_QUERIES key; None where the library lacks the symbol."""
    out = {}
    for key, (symbol, restype) in _BLAS_QUERIES.items():
        query = getattr(_numpy_lapack(), symbol, None)
        if query is not None:
            query.argtypes, query.restype = [], restype
            query = query()
        out[key] = query.decode() if isinstance(query, bytes) else query
    return out


@functools.cache
def _lapack(name: str):
    """LAPACK's dstevd, dsyevd or zheevd as a ctypes function, from the
    library numpy.linalg loaded (_numpy_lapack); None where that library
    exports it under none of the _LAPACK_NAMES.

    The arguments follow the Fortran interface with int64 integers:
    jobz, n, d, e, z, ldz (dstevd) or jobz, uplo, n, a, lda, w (the
    others), then work, lwork, [rwork, lrwork (zheevd),] iwork, liwork,
    info and the hidden lengths of the character arguments.  The arrays
    are checked for dtype, order and writability on each call.
    """
    lib = _numpy_lapack()
    names = [rule.format(name) for rule in _LAPACK_NAMES
             if hasattr(lib, rule.format(name))]
    if not names:
        return None

    def array(dtype, order="C"):
        return np.ctypeslib.ndpointer(dtype,
                                      flags=(f"{order}_CONTIGUOUS", "WRITEABLE"))
    char, length = ctypes.c_char_p, ctypes.c_size_t
    integer = ctypes.POINTER(ctypes.c_int64)
    real = array(np.float64)
    entry = np.complex128 if name == "zheevd" else np.float64
    if name == "dstevd":
        head = [char, integer, real, real, array(entry, "F"), integer]
    else:
        head = [char, char, integer, array(entry, "F"), integer, real]
    rwork = [real, integer] if name == "zheevd" else []
    routine = getattr(lib, names[0])
    routine.argtypes = [*head, array(entry), integer, *rwork,
                        array(np.int64), integer, integer,
                        *[length] * sum(arg is char for arg in head)]
    routine.restype = None
    return routine


@functools.cache
def _malloc_trim():
    """The C library's malloc_trim as a ctypes function (glibc); None
    where the process's C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


def _release_free_heap() -> None:
    """Hand the malloc heap's free pages back to the system, where the C
    library can (malloc_trim(0)).  Once a freed array has raised glibc's
    mmap threshold, arrays of up to d^2 entries go on the heap, and when
    freed they stay resident: one box's residual product and temporaries
    then add to the next box's solve, and the scan's block temporaries to
    the gates' peak."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _solve(name: str, head: tuple, spaces: tuple) -> None:
    """Call _lapack(name) on head, a workspace of each dtype in spaces
    with its size, info and the hidden length (1) of each character in
    head: first with one-entry spaces of size -1, a query of the sizes
    LAPACK wants, then with spaces of those sizes, freed on return.
    ValueError if LAPACK returns a nonzero info."""
    routine = _lapack(name)
    info = ctypes.c_int64()
    spaces = [np.empty(1, dtype) for dtype in spaces]
    for query in (True, False):
        if not query:
            spaces = [np.empty(int(s[0].real), s.dtype) for s in spaces]
        sized = [(s, ctypes.c_int64(-1 if query else s.size)) for s in spaces]
        routine(*head, *itertools.chain(*sized), info,
                *[1 for arg in head if isinstance(arg, bytes)])
        if info.value:
            raise ValueError(f"?{name[1:]} did not converge "
                             f"(info={info.value})")


def _eigh(op: TruncatedOperator):
    """Eigenpairs of the box op: (ascending eigenvalues, Fortran-ordered
    eigenvectors as columns), from the one solver picked here.

    A tridiagonal box (_subdiagonal) goes to ?stevd (_tridiagonal_eigh),
    which never reads op.matrix.  Any other box, or a tridiagonal one
    where numpy's LAPACK exports no int64 ?stevd (_lapack), goes to
    ?syevd (real) or ?heevd (complex), which overwrites a fresh
    Fortran-ordered matrix of op with its eigenvectors, with jobz 'V',
    uplo 'L' and the workspace sizes of an lwork = -1 query: the call
    numpy.linalg.eigh makes, so the eigenpairs are its bits, without
    eigh's copy of the matrix or its separate output array.  The peak is
    the matrix and the workspace, 3 d^2 entries, and the overwritten
    matrix is returned as the eigenvectors.  Where numpy's LAPACK exports
    no int64 dense solver either, this is numpy.linalg.eigh(op.matrix),
    whose C-ordered eigenvectors are copied to Fortran order.  ValueError
    if LAPACK returns a nonzero info.
    """
    lower = _subdiagonal(op)
    if lower is not None and _lapack("dstevd") is not None:
        return _tridiagonal_eigh(op.diagonal, lower)
    name = "dsyevd" if op.kernel.is_real else "zheevd"
    if _lapack(name) is None:
        lam, vec = np.linalg.eigh(op.matrix)
        return lam, np.asfortranarray(vec)
    a = op.assemble("F")
    n = ctypes.c_int64(op.dimension)
    lam = np.empty(op.dimension)
    # work, [rwork,] iwork
    spaces = (a.dtype, np.float64, np.int64) if name == "zheevd" \
        else (a.dtype, np.int64)
    _solve(name, (b"V", b"L", n, a, n, lam), spaces)
    return lam, a


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
    sum of exact zeros.  Both operands run over the block's support rows
    r alone, vec[r, i0:i1]^H @ vec[r, i0:j1]: every term from another
    row has a zero factor.  A GEMM over fewer rows splits its sums
    elsewhere, so the defect may move in its last bits, by at most
    4 * 2**-52; on nearest-neighbour boxes at N = 700 to 2000 it kept
    them in 22 of 24.  A NaN entry makes the result NaN, an inf one
    makes it inf or NaN.
    """
    start, stop = support
    defect = np.float64(0.0)
    for i0, i1 in _gate_blocks(vec.shape[1]):
        r = support_rows(support, slice(i0, i1))
        meets = np.flatnonzero((start[i1:] < r.stop) & (stop[i1:] > r.start))
        j1 = i1 + int(meets[-1]) + 1 if meets.size else i1
        left = vec[r, i0:i1]
        gram = (left.conj() if np.iscomplexobj(left) else left).T \
            @ vec[r, i0:j1]
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


def _gated_residuals(op: TruncatedOperator, lam: np.ndarray,
                     vec: np.ndarray, support: tuple[np.ndarray, np.ndarray],
                     residual_tol: float) -> np.ndarray:
    """Column norms of H @ vec - vec * lam for the box op, gated:
    ConvergenceFailureError unless their max is <= residual_tol *
    max(1, spectral radius), which a NaN residual fails too.

    The form follows the box, not its solver: a tridiagonal box
    (_subdiagonal) takes the three-term sum on the row supports
    (_tridiagonal_residuals), any other box one whole-box product
    H @ vec, from which each block of columns subtracts its vec * lam in
    place before its norms are taken.  The product is not split by
    columns: a GEMM on fewer columns changed the last bits of some
    entries at 2 OpenBLAS threads."""
    lower = _subdiagonal(op)
    with np.errstate(invalid="ignore"):  # a non-finite residual fails below
        if lower is not None:
            resid = _tridiagonal_residuals(op.diagonal, lower, lam, vec,
                                           support)
        else:
            r = op.matrix @ vec
            resid = np.empty(len(lam))
            for i0, i1 in _gate_blocks(len(lam)):
                block = r[:, i0:i1]
                block -= vec[:, i0:i1] * lam[np.newaxis, i0:i1]
                resid[i0:i1] = np.linalg.norm(block, axis=0)
    resid_limit = residual_tol * max(1.0, abs(lam[0]), abs(lam[-1]))
    if not np.max(resid) <= resid_limit:
        raise ConvergenceFailureError(
            f"max eigenpair residual {np.max(resid):.3e} exceeds "
            f"{resid_limit:.3e} (half_width={op.half_width})")
    return resid


def diagonalize(op: TruncatedOperator,
                interior_window: int | None = None) -> SpectralData:
    """Full eigendecomposition of a truncated operator, quality-gated.

    _eigh picks the solver and _gated_residuals the residual's form, both
    from the box.  Eigenvectors are Fortran-ordered either way, as the
    solver wrote them, and neither step peaks above 3 d^2 entries; the
    heap's free pages are handed back before the solve and before the
    gates (_release_free_heap).  Each eigenvector is scaled
    by the unit-modulus factor that makes its largest-modulus entry (the
    first on ties) real and positive, so the returned and dumped vectors
    do not depend on the sign or phase the solver picked, and every zero
    entry is made +0.0; the gates check the vectors as returned, on their
    row supports, which the returned SpectralData keeps.

    Raises ConvergenceFailureError if LAPACK does not converge, if an
    eigenvalue, residual or Gram entry is not finite, or if the
    residual/orthonormality invariants fail at RESIDUAL_TOL and
    ORTHONORMALITY_TOL.
    """
    _release_free_heap()  # before the solve, which sets the peak
    try:
        lam, vec = _eigh(op)
    except ValueError as exc:  # LinAlgError, a LAPACK info, non-finite H
        raise ConvergenceFailureError(
            f"eigensolver failed on half_width={op.half_width} "
            f"({op.potential.family} potential): {exc}") from exc
    if not np.all(np.isfinite(lam)):
        raise ConvergenceFailureError(
            "eigensolver returned non-finite eigenvalues "
            f"(half_width={op.half_width})")

    scan = _, support = _fix_phases(vec)
    vec += 0.0  # -0.0 -> +0.0, so that a dump's runs give vec back exactly
    _release_free_heap()  # the scan's block temporaries, before the gates
    resid = _gated_residuals(op, lam, vec, support, RESIDUAL_TOL)

    defect = _gram_defect(vec, support)
    if not defect <= ORTHONORMALITY_TOL:
        raise ConvergenceFailureError(
            f"orthonormality defect {defect:.3e} exceeds "
            f"{ORTHONORMALITY_TOL:.3e} (half_width={op.half_width})")

    sd = SpectralData(_frozen(lam), _frozen(vec), _frozen(resid), defect,
                      provenance(op, interior_window))
    vars(sd)["_scan"] = scan  # where cached_property keeps it
    return sd


# How far a tridiagonal box's largest residual, recomputed on a reload,
# may move from the recorded one, relative.  Evaluated in other orders
# (a dense BLAS product H @ vec at 1 and 2 threads, the three terms
# summed in another order, extended precision) it moved by at most 3.4%
# on nearest-neighbour boxes, real and 0.6+0.8i, N = 12 to 2000; on the
# machine that wrote the dump it moves by nothing.
RESIDUAL_RECHECK_RTOL = 0.25


def recheck_residuals(sd: SpectralData, op: TruncatedOperator) -> None:
    """Re-run the residual gate on a reloaded spectrum of the box op.

    On a tridiagonal box the three-term residuals of the loaded
    eigenpairs (about 0.013 s at N = 1400) must pass the gate at the
    recorded residual_tol (ConvergenceFailureError), and their maximum
    must match the recorded max_residual within RESIDUAL_RECHECK_RTOL
    (ValueError): the bits may differ on another machine.  A dense box is
    not rechecked, since its product H @ vec takes 0.58 s at N = 1400.
    """
    if _subdiagonal(op) is None:
        return
    resid = _gated_residuals(op, sd.eigenvalues, sd.eigenvectors,
                             sd.row_support,
                             float(sd.recorded("residual_tol")))
    recorded = float(np.max(sd.residuals))
    if not abs(np.max(resid) - recorded) <= RESIDUAL_RECHECK_RTOL * recorded:
        raise ValueError(
            f"spectrum of half_width {sd.half_width}: its eigenpairs' max "
            f"residual is {np.max(resid):.6e} on reload but "
            f"{recorded:.6e} as recorded: the eigenvectors were changed")


def provenance(op: TruncatedOperator,
               interior_window: int | None = None) -> dict:
    """The record of what a spectrum of op was computed from: the kernel,
    the potential, the box, the realized perturbation sup, the matrix
    dtype, the gate tolerances (RESIDUAL_TOL, ORTHONORMALITY_TOL and
    DEGENERACY_GAP) and the interior window (by default
    default_interior_window of the box's gamma)."""
    if interior_window is None:
        interior_window = default_interior_window(
            op.half_width,
            pinning_gamma(op.kernel, op.half_width, op.perturbation_sup))
    return {
        "kernel": op.kernel.describe(),
        "potential": op.potential.describe(),
        "half_width": int(op.half_width),
        "perturbation_sup": float(op.perturbation_sup),
        "matrix_dtype": str(op.dtype),
        "residual_tol": RESIDUAL_TOL,
        "orthonormality_tol": ORTHONORMALITY_TOL,
        "degeneracy_gap": DEGENERACY_GAP,
        "interior_window": int(interior_window),
    }


def _summary(sd: SpectralData) -> dict:
    """The header fields that restate what the payload gives, in the
    order load_spectral compares them."""
    return {
        "anchor_position": sd.anchor_position,
        "anchor_fallback": sd.anchor_fallback,
        "degenerate_positions": list(sd.degenerate_positions),
        "max_residual": float(np.max(sd.residuals)) if sd.dimension else 0.0,
        "center_offset_sup": sd.center_offset_sup(),
    }


def _payload_length(d: int, support, dtype: np.dtype) -> int:
    """Bytes of a payload: eigenvalues, residuals, start and stop (8 d
    bytes each) and the runs [start[k], stop[k]) of every column."""
    start, stop = support
    return 32 * d + int(np.sum(stop - start)) * dtype.itemsize


def _run_blocks(support):
    """(columns, rows, mask) for each block of columns of a dump: the rows
    the columns span and the mask, over vec[rows, columns].T, of each
    column's run [start, stop).  The masked entries, in C order, are the
    columns' runs in mode order; for Fortran-ordered eigenvectors
    vec[rows, columns].T is row-major, so each run is read or written as
    contiguous memory."""
    start, stop = support
    for i0, i1 in _gate_blocks(len(start)):
        columns = slice(i0, i1)
        rows = support_rows(support, columns)
        at = np.arange(rows.start, rows.stop)
        yield columns, rows, ((at >= start[columns, np.newaxis])
                              & (at < stop[columns, np.newaxis]))


def save_spectral(sd: SpectralData, base_path: str) -> tuple[str, str]:
    """Write {base}.json (header) and {base}.bin (payload), format v4.

    Payload layout, little-endian, in order: eigenvalues (d float64),
    residuals (d float64), the row support start and stop of every
    eigenvector (d int64 each; sd.row_support), then each eigenvector's
    run eigenvectors[start[k]:stop[k], k], concatenated in mode order
    (float64 for a real spectrum, complex128 for a complex one).  Every
    row outside a run is +0.0 (see diagonalize).  The header names the
    eigenvector dtype and carries the payload's byte length and sha256,
    the orthonormality defect and the provenance, and restates the labels
    of _summary, which load_spectral checks against the payload.
    """
    json_path = f"{base_path}.json"
    bin_path = f"{base_path}.bin"
    d = sd.dimension
    dtype = np.dtype("<c16" if np.iscomplexobj(sd.eigenvectors) else "<f8")
    start, stop = sd.row_support
    heads = [np.ascontiguousarray(sd.eigenvalues, dtype="<f8"),
             np.ascontiguousarray(sd.residuals, dtype="<f8"),
             np.ascontiguousarray(start, dtype="<i8"),
             np.ascontiguousarray(stop, dtype="<i8")]
    vec = sd.eigenvectors
    runs = (vec[rows, columns].T[mask].astype(dtype, copy=False)
            for columns, rows, mask in _run_blocks((start, stop)))
    digest = hashlib.sha256()
    with open(bin_path, "wb") as fh:
        for part in itertools.chain(heads, runs):
            digest.update(part)
            part.tofile(fh)
    header = {
        "format": _FORMAT_NAME,
        "format_version": _FORMAT_VERSION,
        "half_width": sd.half_width,
        "dimension": d,
        **_summary(sd),
        "orthonormality_defect": sd.orthonormality_defect,
        "provenance": sd.provenance,
        "payload": {
            "file": os.path.basename(bin_path),
            "eigenvector_dtype": dtype.str,
            "layout": [
                f"eigenvalues: {d} x float64-le",
                f"residuals: {d} x float64-le",
                f"start: {d} x int64-le (first nonzero row of each mode)",
                f"stop: {d} x int64-le (one past its last nonzero row)",
                f"runs: rows [start, stop) of each mode in ascending mode "
                f"order, {dtype.name}-le; every other entry is +0.0",
            ],
            "byte_length": _payload_length(d, (start, stop), dtype),
            "sha256": digest.hexdigest(),
        },
    }
    write_json(json_path, header)
    return json_path, bin_path


def _header_field(header: dict, path: str, where: str):
    """The entry of a dump header at the dotted path; ValueError naming
    the path and where if an entry on it is not an object or lacks the
    next key."""
    entry = header
    for key in path.split("."):
        if not isinstance(entry, dict) or key not in entry:
            raise ValueError(f"{where} has no {path} field")
        entry = entry[key]
    return entry


def load_spectral(base_path: str) -> SpectralData:
    """Rebuild SpectralData from a save_spectral dump pair.

    The runs are unpacked into one zeroed Fortran-ordered d x d array,
    each run into contiguous memory, which _column_scan then reads, mode
    by mode, for the centers and row supports.  Raises ValueError, naming
    the problem, for a header that is not a format-v4 spectrum header (a v1, v2 or v3 dump must be
    rewritten by rerunning the spectrum stage), a header whose half_width
    disagrees with its dimension or provenance, a payload whose length
    differs from the header's byte_length, a row support outside
    0 <= start < stop <= d or a byte_length other than the one the
    supports and the dtype need, a payload whose sha256 differs from the
    header's, a non-finite eigenvalue, residual or eigenvector entry
    (naming the first mode position that holds one; the values and runs
    are checked as they are read, not the d x d array), a stored run
    that does not begin and end on a nonzero entry
    (a zero column's run spans the box), a header whose _summary
    field (the anchor, its fallback flag, degenerate_positions,
    max_residual or center_offset_sup) differs from what the payload and
    the provenance give, and a header that lacks a field it reads or
    whose provenance or payload is not an object (_header_field).
    """
    with open(f"{base_path}.json", "r", encoding="utf-8") as fh:
        header = json.load(fh)
    if not isinstance(header, dict) or header.get("format") != _FORMAT_NAME:
        raise ValueError(f"{base_path}.json is not a spectrum header")
    version = header.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"{base_path}.json has dump format_version {version!r}; only "
            f"format_version {_FORMAT_VERSION} is read: rerun the spectrum "
            "stage to rewrite it")

    def field(path):
        return _header_field(header, path, f"{base_path}.json")
    d = int(field("dimension"))
    half_width = int(field("half_width"))
    if d != 2 * half_width + 1 or \
            field("provenance.half_width") != half_width:
        raise ValueError(f"{base_path}.json: half_width {half_width} "
                         f"disagrees with dimension {d} or provenance")
    dtype = field("payload.eigenvector_dtype")
    if dtype not in _EIGENVECTOR_DTYPES:
        raise ValueError(f"{base_path}.json names eigenvector dtype "
                         f"{dtype!r}, not one of {_EIGENVECTOR_DTYPES}")
    dtype = np.dtype(dtype)
    declared = field("payload.byte_length")
    with open(f"{base_path}.bin", "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != declared:
            raise ValueError(f"{base_path}.bin holds {size} bytes, not the "
                             f"declared byte_length {declared}")
        if size < 32 * d:
            raise ValueError(
                f"{base_path}.json declares byte_length {declared}, short "
                f"of the {32 * d} bytes of dimension {d}'s eigenvalues, "
                "residuals and row supports")
        values = np.fromfile(fh, "<f8", 2 * d)
        bounds = np.fromfile(fh, "<i8", 2 * d)
        support = start, stop = bounds[:d], bounds[d:]
        bad = np.flatnonzero((start < 0) | (start >= stop) | (stop > d))
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"{base_path}.bin stores rows [{start[k]}, {stop[k]}) for "
                f"mode position {k}, outside 0 <= start < stop <= {d}")
        need = _payload_length(d, support, dtype)
        if declared != need:
            raise ValueError(
                f"{base_path}.json declares byte_length {declared}, but "
                f"dimension {d} with the stored row supports and "
                f"{dtype.name} eigenvectors needs {need}")
        digest = hashlib.sha256(values)
        digest.update(bounds)
        finite = bool(np.isfinite(values).all())
        vec = np.zeros((d, d), dtype, order="F")
        for columns, rows, mask in _run_blocks(support):
            run = np.fromfile(fh, dtype, int(np.count_nonzero(mask)))
            digest.update(run)
            finite &= bool(np.isfinite(run).all())
            vec[rows, columns].T[mask] = run
    if digest.hexdigest() != field("payload.sha256"):
        raise ValueError(f"{base_path}.bin does not match the sha256 in "
                         f"{base_path}.json: the payload is corrupt")
    if not finite:
        bad = ~(np.isfinite(values.reshape(2, d)).all(axis=0)
                & np.isfinite(vec).all(axis=0))
        raise ValueError(
            f"{base_path}.bin stores a non-finite eigenvalue, residual or "
            f"eigenvector entry for mode position {np.argmax(bad)}")
    scan = _, (first, end) = _column_scan(vec)
    moved = np.flatnonzero((first != start) | (end != stop))
    if moved.size:
        k = int(moved[0])
        raise ValueError(
            f"{base_path}.bin stores rows [{start[k]}, {stop[k]}) for mode "
            f"position {k}, but its nonzero entries span rows "
            f"[{first[k]}, {end[k]}): a run must begin and end on a "
            "nonzero entry, or span the box for a zero column")

    sd = SpectralData(_frozen(values[:d]), _frozen(vec), _frozen(values[d:]),
                      float(field("orthonormality_defect")),
                      field("provenance"))
    vars(sd)["_scan"] = scan
    for key, value in _summary(sd).items():
        if header.get(key) != value:
            raise ValueError(
                f"{base_path}.json states {key} {header.get(key)!r}, but "
                f"its payload gives {value!r}")
    return sd
