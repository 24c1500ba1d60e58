"""Boundary operators, combinatorial Laplacians, and exact Betti numbers.

All of it reads the face table that ``SimplicialComplex`` builds once.
Every Laplacian spectrum comes through the Hodge split: L_k =
d_{k+1} d_{k+1}^T + d_k^T d_k, the images of the two terms are orthogonal,
and the nonzero spectrum of each term is that of the smaller Gram matrix of
its boundary, so one eigensolve per boundary serves both Laplacians it
enters.  The two Gram matrices of a boundary are filled straight off the
face table, dense, with integer entries: a pair of faces lies in at most
one common simplex and a pair of simplices shares at most one face, so no
entry is written twice.  The Laplacian matrix itself, for the discriminant
laboratory, is the sum of the two Grams.

Betti numbers come from two independent routes that must agree: the kernel
dimension of the Laplacian spectrum, under a float tolerance, and the
rank-nullity count, whose ranks are exact: a column reduction of the face
tables mod the prime 2^31 - 1, read as the coboundaries delta^0, ...,
delta^k, with clearing from each to the next.  A rank mod p can only fall
below the rational rank, so p-torsion would show as a disagreement.

One function asks each boundary for its levels and picks the backend by
the Gram's size.  The Grams built here are square, finite and symmetric by
construction and go straight to the eigensolver; ``spectrum()`` is for
matrices from outside and checks all three first.  numpy solves a copy of
a Gram below ``IN_PLACE_MIN_DIM`` levels, and LAPACK a larger one in the
Gram's own buffer, through scipy.  The kernel dimension alone
(``laplacian_kernel``) solves no Gram of ``INERTIA_MIN_DIM`` levels or
more: Lanczos on the sparse Gram gives its largest level, which sets the
tolerance, and by Sylvester's law of inertia its count of levels below the
tolerance is the count of negative pivots of one LDL^T of the Gram less
tol * I.  scipy is imported only by these large-Gram steps and by
``boundary_matrix``, the sparse integer boundary on which the chain-complex
identity is checked and from which the Lanczos run's Gram is formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .complexes import SimplicialComplex

KERNEL_TOL_FACTOR = 1e-8
# boundary ranks are exact in GF(PRIME): no float tolerance enters them, and
# only torsion of an order divisible by PRIME can make one fall below the
# rational rank
PRIME = 2**31 - 1
# Grams of at least this many levels are solved by LAPACK in their own buffer,
# through scipy, where numpy's eigvalsh would copy them first.  Below it the copy
# costs less than importing scipy.linalg (0.18-0.21 s, 27 MB): one-shot solves of real
# Grams on a 2-core VM, import included, ran 1.4% slower in place at 2,620 levels
# and 2.6% faster at 2,759 (medians of 8)
IN_PLACE_MIN_DIM = 2_700
# on the exact route a Gram of at least this many levels has its kernel counted by
# one LDL^T (laplacian_kernel), not solved.  Below it eigvalsh costs less than the
# count with its scipy imports (0.17 s): one-shot counts on real Grams on a 2-core
# VM, imports included, over eigvalsh, medians of 8: 1.075 at 1,460 levels, 1.013 at
# 1,502, 0.983 at 1,505, 0.909 at 1,568 and 0.515 at 2,054
INERTIA_MIN_DIM = 1_500
# a query's largest array is a boundary's smaller Gram, at most m x m and solved or
# factored in place: at m = 7,996 (random_complex(37, 0.7, 4, 3), k = 3, a 512 MB
# Gram) a thermal betti query took 27.9-30.3 s at a 552 MB peak RSS, and an exact
# one, which counts the kernel by inertia, 3.9-4.1 s at 557 MB (three one-shot runs
# each, the child's ru_maxrss, 2-core VM); the cap is 2.1x the m = 3841 of the
# k = 3 Laplacian of random_complex(40, 0.6, 4, 1)
MAX_LAPLACIAN_DIM = 8_192


class EmptySimplexSetError(ValueError):
    """Requested dimension has no simplices at this scale."""


class ZeroSpectrumError(ValueError):
    """Spectrum is identically zero; spectral gap and cooling threshold are undefined."""


def _signs(k: int) -> np.ndarray:
    """Boundary sign of each face-table column: column c deletes vertex k - c."""
    return (-1) ** np.arange(k, -1, -1, dtype=np.int64)


def boundary_matrix(cx: SimplicialComplex, k: int) -> "scipy.sparse.csc_matrix":
    """Signed incidence matrix of the k-simplices over the (k-1)-simplices.

    Column s carries (-1)^l at the row of the face obtained by deleting the
    l-th vertex of s, for l = 0..k: row ``cx.face_table(k)[s, k - l]``.
    Either side may be empty, yielding a matrix with zero rows or columns.
    """
    import scipy.sparse

    if k < 1:
        raise ValueError("boundary_matrix needs k >= 1; the 0th boundary map is zero")
    faces = cx.face_table(k)
    data = np.tile(_signs(k), len(faces))
    indptr = np.arange(len(faces) + 1) * (k + 1)
    return scipy.sparse.csc_matrix(
        (data, faces.flatten(), indptr), shape=(cx.num_simplices(k - 1), len(faces))
    )


def _dense_zeros(m: int) -> np.ndarray:
    """An m x m float zero matrix with every page written.

    np.zeros leaves its pages unmapped until they are written, and a Gram
    matrix writes only some of them, so its resident size would depend on
    whether the kernel backs the array with huge pages.  Written zeros make
    it the whole matrix on every machine and every run.
    """
    return np.full((m, m), 0.0)


def face_gram(cx: SimplicialComplex, k: int) -> np.ndarray:
    """d_k d_k^T, dense float, on the (k-1)-simplices.

    The diagonal counts the cofaces of each face.  Faces a and b of one
    k-simplex meet at the product of their signs; two distinct faces lie in
    at most one common k-simplex, so each entry is set once.
    """
    faces, signs = cx.face_table(k), _signs(k)
    m = cx.num_simplices(k - 1)
    gram = _dense_zeros(m)
    gram[np.diag_indices(m)] = np.bincount(faces.ravel(), minlength=m)
    for a, b in itertools.permutations(range(k + 1), 2):
        gram[faces[:, a], faces[:, b]] = signs[a] * signs[b]
    return gram


def simplex_gram(cx: SimplicialComplex, k: int) -> np.ndarray:
    """d_k^T d_k, dense float, on the k-simplices.

    The diagonal is k + 1.  Two simplices that share a face meet at the
    product of their signs on it; two distinct k-simplices share at most one
    face, so each entry is set once.  Sorting the incidences by face puts
    the simplices on each face in one run, and comparing the sorted list
    with itself shifted by d = 1, 2, ... pairs every two incidences of a run.
    """
    faces = cx.face_table(k)
    m = len(faces)
    gram = _dense_zeros(m)
    gram[np.diag_indices(m)] = k + 1
    flat = faces.ravel()
    order = np.argsort(flat, kind="stable")
    face = flat[order]
    simplex = order // (k + 1)
    sign = _signs(k)[order % (k + 1)]
    d = 1
    while True:
        pair = np.flatnonzero(face[d:] == face[:-d])
        if pair.size == 0:
            return gram
        a, b = simplex[pair], simplex[pair + d]
        gram[a, b] = gram[b, a] = sign[pair] * sign[pair + d]
        d += 1


def laplacian_dim(cx: SimplicialComplex, k: int) -> int:
    """Number of k-simplices, after the checks every k-Laplacian passes first.

    Raises EmptySimplexSetError when there are none and ValueError when
    there are more than MAX_LAPLACIAN_DIM, before anything is built.
    """
    m = cx.num_simplices(k)
    if m == 0:
        raise EmptySimplexSetError(f"no {k}-simplices at this scale")
    if m > MAX_LAPLACIAN_DIM:
        raise ValueError(
            f"{m:,} {k}-simplices exceed the Laplacian cap of {MAX_LAPLACIAN_DIM:,}"
        )
    return m


def combinatorial_laplacian(cx: SimplicialComplex, k: int) -> np.ndarray:
    """Hodge Laplacian on the span of the k-simplices (dense, symmetric PSD).

    The up-term d_{k+1} d_{k+1}^T plus, for k >= 1, the down-term
    d_k^T d_k; above the top dimension the up-term is zero.  The size
    checks of ``laplacian_dim`` run first.
    """
    laplacian_dim(cx, k)
    lap = face_gram(cx, k + 1)
    if k >= 1:
        lap += simplex_gram(cx, k)
    return lap


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues of a Laplacian or of a matrix given to
    ``spectrum()``, with kernel count under tolerance."""

    eigenvalues: np.ndarray
    tol_kernel: float
    eigenvectors: np.ndarray | None = None  # columns, orthonormal

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def kernel_dim(self) -> int:
        return int(np.count_nonzero(self.eigenvalues < self.tol_kernel))


def _tolerance(top: float) -> float:
    """Kernel tolerance under a largest level ``top``: 1e-8 * max(1, top),
    relative, so rescaled complexes classify identically."""
    return KERNEL_TOL_FACTOR * max(1.0, top)


def _with_tolerance(evals: np.ndarray, evecs: np.ndarray | None = None) -> Spectrum:
    """Ascending eigenvalues with their kernel tolerance; an empty spectrum
    takes 1e-8."""
    return Spectrum(evals, _tolerance(float(evals[-1]) if evals.size else 0.0), evecs)


def spectrum(laplacian: np.ndarray, with_vectors: bool = False) -> Spectrum:
    """Full symmetric eigendecomposition, ascending; the caller's matrix is
    left as it was.

    The kernel tolerance is relative, 1e-8 * max(1, largest eigenvalue), so
    rescaled complexes classify identically; a 0 x 0 matrix has the empty
    spectrum, with tolerance 1e-8.  Raises ValueError on a matrix that is
    complex, not square, not finite or not symmetric, and
    numpy.linalg.LinAlgError if the eigensolver fails to converge.
    """
    if np.iscomplexobj(laplacian):
        raise ValueError("laplacian must be real")
    laplacian = np.asarray(laplacian, dtype=float)
    if laplacian.ndim != 2 or laplacian.shape[0] != laplacian.shape[1]:
        raise ValueError("laplacian must be square")
    if not np.isfinite(laplacian).all():
        raise ValueError("laplacian must be finite")
    if not np.array_equal(laplacian, laplacian.T):
        raise ValueError("laplacian must be symmetric")
    if with_vectors:
        return _with_tolerance(*np.linalg.eigh(laplacian))
    return _with_tolerance(np.linalg.eigvalsh(laplacian))


def _gram_dim(cx: SimplicialComplex, k: int) -> int:
    """Levels of the smaller Gram matrix of d_k: the fewer of its faces and
    its simplices, and 0 for k = 0 or a boundary with no k-simplices."""
    return min(cx.num_simplices(k - 1), cx.num_simplices(k)) if k >= 1 else 0


def _smaller_gram(cx: SimplicialComplex, k: int) -> np.ndarray:
    """d_k d_k^T when d_k has no more faces than simplices, else d_k^T d_k."""
    return face_gram(cx, k) if cx.num_simplices(k - 1) <= cx.num_simplices(k) else simplex_gram(cx, k)


def _boundary_levels(cx: SimplicialComplex, k: int, counts_only: bool = False) -> tuple[float, np.ndarray | None]:
    """Top level and ascending levels of the smaller Gram matrix of d_k,
    whose nonzero levels are the nonzero spectrum of both Laplacian terms
    that d_k enters: 0 and no levels for k = 0 or no k-simplices.

    Nothing else holds the Gram, so one of ``IN_PLACE_MIN_DIM`` levels or
    more is solved in its own buffer: its transpose is the same symmetric
    matrix in Fortran order, which LAPACK overwrites without a copy.  With
    ``counts_only`` one of ``INERTIA_MIN_DIM`` levels or more is left
    unsolved (None), its top from ``_top_level``.
    """
    m = _gram_dim(cx, k)
    if m == 0:
        return 0.0, np.empty(0)
    if counts_only and m >= INERTIA_MIN_DIM:
        return _top_level(cx, k), None
    gram = _smaller_gram(cx, k)
    if m < IN_PLACE_MIN_DIM:
        levels = np.linalg.eigvalsh(gram)
    else:
        import scipy.linalg

        levels = scipy.linalg.eigh(gram.T, eigvals_only=True, overwrite_a=True, check_finite=False, driver="evd")
    return float(levels[-1]), levels


def _hodge_split(cx: SimplicialComplex, ks, counts_only: bool = False) -> dict[int, tuple[int, float, np.ndarray]]:
    """Kernel dimension, tolerance and ascending nonzero levels of the
    k-Laplacian for each k in ks, as ``laplacian_spectra`` describes.

    The tolerance is that of the whole Laplacian, whose top level is the
    larger of its two boundaries'.  Their levels at or above it are kept.
    An unsolved Gram has them counted by ``_levels_below`` once every top
    is known, so one dense Gram at a time is built.
    """
    dims = {k: laplacian_dim(cx, k) for k in ks}
    bounds = {j: _boundary_levels(cx, j, counts_only) for j in {j for k in dims for j in (k, k + 1)}}
    split = {}
    for k, m in dims.items():
        tol = _tolerance(max(bounds[k][0], bounds[k + 1][0]))
        sides = [(j, bounds[j][1]) for j in (k, k + 1)]
        kept = np.sort(np.concatenate([np.empty(0), *(s[s >= tol] for _, s in sides if s is not None)]))
        counted = sum(_gram_dim(cx, j) - _levels_below(_smaller_gram(cx, j), tol) for j, s in sides if s is None)
        split[k] = (m - kept.size - counted, tol, kept)
    return split


def laplacian_spectra(cx: SimplicialComplex, ks) -> dict[int, Spectrum]:
    """Ascending spectrum of the k-Laplacian for each k in ks, in order,
    through the Hodge split; no Laplacian is assembled.  The size checks of
    ``laplacian_dim`` run on every k before any Gram matrix is built, and
    each boundary is solved once, for both Laplacians it enters.
    """
    split = _hodge_split(cx, ks)
    return {k: Spectrum(np.concatenate([np.zeros(kernel), kept]), tol) for k, (kernel, tol, kept) in split.items()}


def laplacian_spectrum(cx: SimplicialComplex, k: int) -> Spectrum:
    """Ascending spectrum of the k-Laplacian; see ``laplacian_spectra``."""
    return laplacian_spectra(cx, (k,))[k]


def _top_level(cx: SimplicialComplex, k: int) -> float:
    """Largest eigenvalue of the Gram matrices of d_k, its top squared
    singular value, by Lanczos on the smaller Gram in sparse form.

    The start is a fixed random vector: a constant one can lie in the kernel.
    Raises numpy.linalg.LinAlgError if ARPACK fails.
    """
    import scipy.sparse.linalg

    d = boundary_matrix(cx, k)
    gram = (d @ d.T if d.shape[0] <= d.shape[1] else d.T @ d).astype(float)
    start = np.random.default_rng(0).standard_normal(gram.shape[0])
    try:
        top = scipy.sparse.linalg.eigsh(gram, k=1, which="LA", tol=0, v0=start, return_eigenvectors=False)
    except scipy.sparse.linalg.ArpackError as exc:  # ArpackNoConvergence among them
        raise np.linalg.LinAlgError(f"no top level of the {k}-boundary's Gram: {exc}") from exc
    return float(top[0])


def _levels_below(gram: np.ndarray, tol: float) -> int:
    """Number of eigenvalues of the symmetric ``gram`` below ``tol``; the
    matrix is overwritten.

    By Sylvester's law of inertia it is the number of negative eigenvalues of
    D in the Bunch-Kaufman factorization gram - tol I = L D L^T, which LAPACK
    computes in the buffer of a C-order ``gram``: its transpose is the same
    symmetric matrix in Fortran order.  D holds 1 x 1 pivots and
    2 x 2 blocks; the pivot rule takes a 2 x 2 block only where its
    determinant is negative, so each block has one negative eigenvalue.  An
    exact zero pivot is not below ``tol``, as in ``eigenvalues < tol``.
    """
    from scipy.linalg import lapack

    m = len(gram)
    gram[np.diag_indices(m)] -= tol
    lwork = int(lapack.dsytrf_lwork(m)[0])
    ldu, pivots, info = lapack.dsytrf(gram.T, lwork=lwork, overwrite_a=True)
    if info < 0:
        raise np.linalg.LinAlgError(f"dsytrf rejected argument {-info}")
    # LAPACK marks both rows of a 2 x 2 block with a negative pivot index
    one = pivots > 0
    return int(np.count_nonzero(ldu.diagonal()[one] < 0) + np.count_nonzero(~one) // 2)


def laplacian_kernel(cx: SimplicialComplex, k: int) -> tuple[int, float]:
    """The ``kernel_dim`` and ``tol_kernel`` of ``laplacian_spectrum(cx, k)``,
    through the same split, without solving a Gram of ``INERTIA_MIN_DIM``
    levels or more.  The size checks of ``laplacian_dim`` run first.
    """
    kernel, tol, _ = _hodge_split(cx, (k,), counts_only=True)[k]
    return kernel, tol


def betti_exact_kernel(spec: Spectrum) -> int:
    """Betti number as the kernel dimension of the Laplacian."""
    return spec.kernel_dim


@dataclass(frozen=True)
class HomologyRanks:
    """Rank-nullity route to the Betti number: dim ker d_k - rank d_{k+1}."""

    dim_ker_dk: int
    rank_dk1: int

    @property
    def betti(self) -> int:
        return self.dim_ker_dk - self.rank_dk1


def _pivot_rows(faces: np.ndarray, skip=frozenset()) -> set[int]:
    """Pivot rows of the reduction mod PRIME of the coboundary delta^j, read
    off ``faces`` = ``face_table(j + 1)``.

    Column t of delta^j is the j-simplex t.  Its entries are its cofaces, the
    (j+1)-simplices with t on their row of ``faces``, each with the boundary
    sign of that face-table column.  Columns are reduced from last to first,
    and a column's pivot is its first nonzero row, its first coface, so a
    reduced column's support lies at or above its pivot.  Each reduced column
    is kept with the inverse of its pivot, which scales the factor that
    eliminates it.  The number of pivots is the rank of delta^j, that of
    d_{j+1}; the columns in ``skip`` are passed over, which leaves it
    unchanged when each of them depends on later columns.  PRIME is read at
    each call.
    """
    p, k = PRIME, faces.shape[1] - 1
    signs = [sign % p for sign in _signs(k).tolist()]
    columns: dict[int, dict[int, int]] = {}  # j-simplex -> {coface: sign}, cofaces ascending
    for s, row in enumerate(faces.tolist()):
        for t, v in zip(row, signs):
            columns.setdefault(t, {})[s] = v
    reduced: dict[int, tuple[int, dict[int, int]]] = {}  # pivot row -> (inverse of the pivot, column)
    for t in sorted(columns, reverse=True):
        if t in skip:
            continue
        col = columns[t]
        while col:
            low = min(col)
            pivot = reduced.get(low)
            if pivot is None:
                reduced[low] = (pow(col[low], p - 2, p), col)
                break
            inv, pivot_col = pivot
            factor = col[low] * inv % p
            for i, v in pivot_col.items():
                w = (col.get(i, 0) - factor * v) % p
                if w:
                    col[i] = w
                else:
                    del col[i]
    return set(reduced)


def betti_exact_rank(cx: SimplicialComplex, k: int) -> HomologyRanks:
    """Betti number from exact boundary ranks mod PRIME, reduced straight off
    the face tables; independent of the spectrum route.

    The coboundaries delta^0, delta^1, ..., delta^k are reduced in turn, and
    rank delta^j = rank d_{j+1}.  Clearing runs upward: a reduced column of
    delta^{j-1} with pivot row r is a coboundary, hence a cocycle, with
    support at or above r, so column r of delta^j depends on later columns,
    which are reduced before it; the pivot rows of delta^{j-1} are skipped
    (cleared) when delta^j is reduced.  Only b_j of delta^j's columns then
    reduce to zero.
    """
    m = cx.num_simplices(k)
    if m == 0:
        raise EmptySimplexSetError(f"no {k}-simplices at this scale")
    ranks, cleared = [], set()
    for j in range(k + 1):
        cleared = _pivot_rows(cx.face_table(j + 1), skip=cleared)
        ranks.append(len(cleared))
    rank_dk = ranks[k - 1] if k >= 1 else 0
    return HomologyRanks(dim_ker_dk=m - rank_dk, rank_dk1=ranks[k])


def spectral_gap(spec: Spectrum) -> float:
    """Smallest eigenvalue strictly above the kernel tolerance."""
    above = spec.eigenvalues[spec.eigenvalues >= spec.tol_kernel]
    if above.size == 0:
        raise ZeroSpectrumError("all eigenvalues in the kernel: spectral gap undefined")
    return float(above[0])
