"""Boundary operators, combinatorial Laplacians, and exact Betti numbers.

All of it reads the face table that ``SimplicialComplex`` builds once.  The
boundary matrix of the k-simplices is the table's signs, sparse with integer
entries so the chain-complex identity (boundary of a boundary vanishes)
holds exactly; only the Laplacian is densified, for its eigensolve.  Betti
numbers come from two independent routes that must agree: the kernel
dimension of the Laplacian spectrum, under a float tolerance, and the
rank-nullity count, whose ranks are exact: a column reduction of the face
tables mod the prime 2^31 - 1, with clearing.  A rank mod p can only fall
below the rational rank, so p-torsion would show as a disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .complexes import SimplicialComplex

KERNEL_TOL_FACTOR = 1e-8
# boundary ranks are exact in GF(PRIME): no float tolerance enters them, and
# only torsion of an order divisible by PRIME can make one fall below the
# rational rank
PRIME = 2**31 - 1
# a dense float64 Laplacian at the cap is 8192^2 * 8 B = 537 MB; the cap is
# 2.1x the m = 3841 of the k = 3 Laplacian of random_complex(40, 0.6, 4, 1)
MAX_LAPLACIAN_DIM = 8_192


class EmptySimplexSetError(ValueError):
    """Requested dimension has no simplices at this scale."""


class ZeroSpectrumError(ValueError):
    """Spectrum is identically zero; spectral gap and cooling threshold are undefined."""


def boundary_matrix(cx: SimplicialComplex, k: int) -> sp.csc_matrix:
    """Signed incidence matrix of the k-simplices over the (k-1)-simplices.

    Column s carries (-1)^l at the row of the face obtained by deleting the
    l-th vertex of s, for l = 0..k: row ``cx.face_table(k)[s, k - l]``.
    Either side may be empty, yielding a matrix with zero rows or columns.
    """
    if k < 1:
        raise ValueError("boundary_matrix needs k >= 1; the 0th boundary map is zero")
    faces = cx.face_table(k)
    data = np.tile((-1) ** np.arange(k, -1, -1, dtype=np.int64), len(faces))
    indptr = np.arange(len(faces) + 1) * (k + 1)
    return sp.csc_matrix((data, faces.flatten(), indptr), shape=(cx.num_simplices(k - 1), len(faces)))


def combinatorial_laplacian(cx: SimplicialComplex, k: int) -> np.ndarray:
    """Hodge Laplacian on the span of the k-simplices (dense, symmetric PSD).

    Combines the down-term from the k-boundary and the up-term from the
    (k+1)-boundary; for k = 0 only the up-term exists, at the top dimension
    only the down-term.  Raises ValueError, before any boundary matrix is
    built, when there are more than MAX_LAPLACIAN_DIM k-simplices.
    """
    m = cx.num_simplices(k)
    if m == 0:
        raise EmptySimplexSetError(f"no {k}-simplices at this scale")
    if m > MAX_LAPLACIAN_DIM:
        raise ValueError(
            f"{m:,} {k}-simplices exceed the Laplacian cap of {MAX_LAPLACIAN_DIM:,}"
        )
    up = boundary_matrix(cx, k + 1)
    lap = up @ up.T
    if k >= 1:
        down = boundary_matrix(cx, k)
        lap = lap + down.T @ down
    return lap.astype(float).toarray()


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues of a Laplacian, with kernel count under tolerance."""

    eigenvalues: np.ndarray
    tol_kernel: float
    eigenvectors: np.ndarray | None = None  # columns, orthonormal

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def kernel_dim(self) -> int:
        return int(np.count_nonzero(self.eigenvalues < self.tol_kernel))


def spectrum(laplacian: np.ndarray, with_vectors: bool = False) -> Spectrum:
    """Full symmetric eigendecomposition, ascending.

    The kernel tolerance is relative, 1e-8 * max(1, largest eigenvalue), so
    rescaled complexes classify identically.  Raises
    numpy.linalg.LinAlgError if the eigensolver fails to converge.
    """
    laplacian = np.asarray(laplacian, dtype=float)
    if laplacian.ndim != 2 or laplacian.shape[0] != laplacian.shape[1]:
        raise ValueError("laplacian must be square")
    if not np.array_equal(laplacian, laplacian.T):
        raise ValueError("laplacian must be symmetric")
    if with_vectors:
        evals, evecs = np.linalg.eigh(laplacian)
    else:
        evals, evecs = np.linalg.eigvalsh(laplacian), None
    tol = KERNEL_TOL_FACTOR * max(1.0, float(evals[-1]))
    return Spectrum(eigenvalues=evals, tol_kernel=tol, eigenvectors=evecs)


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
    """Pivot rows of the left-to-right reduction mod PRIME of the boundary with face table ``faces``.

    A column's pivot is its lowest nonzero row.  Each reduced column is kept
    scaled to a unit pivot, so eliminating it takes the entry itself as the
    factor.  The number of pivots is the rank; the columns in ``skip`` are
    passed over, which leaves it unchanged when each of them depends on
    earlier columns.
    """
    p, k = PRIME, faces.shape[1] - 1
    signs = [(-1) ** (k - c) % p for c in range(k + 1)]
    reduced: dict[int, dict[int, int]] = {}  # pivot row -> unit-pivot column
    for j, rows in enumerate(faces.tolist()):
        if j in skip:
            continue
        col = dict(zip(rows, signs))
        while col:
            low = max(col)
            pivot_col = reduced.get(low)
            if pivot_col is None:
                inv = pow(col[low], p - 2, p)
                reduced[low] = {i: v * inv % p for i, v in col.items()}
                break
            factor = col[low]
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

    The (k+1)-boundary is reduced first.  A reduced cycle with pivot row i
    shows that column i of the k-boundary depends on earlier columns, so
    those columns are cleared (skipped) when the k-boundary is reduced.
    """
    m = cx.num_simplices(k)
    if m == 0:
        raise EmptySimplexSetError(f"no {k}-simplices at this scale")
    cleared = _pivot_rows(cx.face_table(k + 1))
    rank_dk = len(_pivot_rows(cx.face_table(k), skip=cleared)) if k >= 1 else 0
    return HomologyRanks(dim_ker_dk=m - rank_dk, rank_dk1=len(cleared))


def spectral_gap(spec: Spectrum) -> float:
    """Smallest eigenvalue strictly above the kernel tolerance."""
    above = spec.eigenvalues[spec.eigenvalues >= spec.tol_kernel]
    if above.size == 0:
        raise ZeroSpectrumError("all eigenvalues in the kernel: spectral gap undefined")
    return float(above[0])
