"""Boundary operators, combinatorial Laplacians, and exact Betti numbers.

The boundary matrix of the k-simplices is assembled sparse with integer
entries so the chain-complex identity (boundary of a boundary vanishes)
holds exactly; it is densified only for eigen/singular-value work.  Betti
numbers come from two independent routes that must agree: the kernel
dimension of the Laplacian spectrum, and the rank-nullity count on the
boundary matrices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .complexes import SimplicialComplex

KERNEL_TOL_FACTOR = 1e-8


class EmptySimplexSetError(ValueError):
    """Requested dimension has no simplices at this scale."""


class ZeroSpectrumError(ValueError):
    """Spectrum is identically zero; spectral gap and cooling threshold are undefined."""


def boundary_matrix(cx: SimplicialComplex, k: int) -> sp.csc_matrix:
    """Signed incidence matrix of the k-simplices over the (k-1)-simplices.

    Column s carries (-1)^l at the row of the face obtained by deleting the
    l-th vertex of s, for l = 0..k.  Either side may be empty, yielding a
    matrix with zero rows or columns.
    """
    if k < 1:
        raise ValueError("boundary_matrix needs k >= 1; the 0th boundary map is zero")
    rows = cx.simplices(k - 1)
    cols = cx.simplices(k)
    row_index = {s: i for i, s in enumerate(rows)}
    data, ri, ci = [], [], []
    for j, s in enumerate(cols):
        for l in range(k + 1):
            face = s[:l] + s[l + 1:]
            ri.append(row_index[face])
            ci.append(j)
            data.append(-1 if l % 2 else 1)
    return sp.csc_matrix(
        (np.array(data, dtype=np.int64), (ri, ci)), shape=(len(rows), len(cols))
    )


def combinatorial_laplacian(cx: SimplicialComplex, k: int) -> np.ndarray:
    """Hodge Laplacian on the span of the k-simplices (dense, symmetric PSD).

    Combines the down-term from the k-boundary and the up-term from the
    (k+1)-boundary; for k = 0 only the up-term exists, at the top dimension
    only the down-term.
    """
    m = cx.num_simplices(k)
    if m == 0:
        raise EmptySimplexSetError(f"no {k}-simplices at this scale")
    lap = sp.csc_matrix((m, m), dtype=np.int64)
    if k >= 1:
        down = boundary_matrix(cx, k)
        lap = lap + down.T @ down
    up = boundary_matrix(cx, k + 1)
    if up.shape[1] > 0:
        lap = lap + up @ up.T
    return np.asarray(lap.todense(), dtype=float)


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

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "kernel_dim": self.kernel_dim,
            "tol": self.tol_kernel,
        }


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


def _rank(matrix: sp.spmatrix) -> int:
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        return 0
    svals = np.linalg.svd(np.asarray(matrix.todense(), dtype=float), compute_uv=False)
    tol = KERNEL_TOL_FACTOR * max(1.0, float(svals[0]))
    return int(np.count_nonzero(svals > tol))


def betti_exact_rank(cx: SimplicialComplex, k: int) -> HomologyRanks:
    """Betti number from boundary-matrix ranks; independent of the spectrum route."""
    m = cx.num_simplices(k)
    if m == 0:
        raise EmptySimplexSetError(f"no {k}-simplices at this scale")
    rank_dk = _rank(boundary_matrix(cx, k)) if k >= 1 else 0
    rank_dk1 = _rank(boundary_matrix(cx, k + 1))
    return HomologyRanks(dim_ker_dk=m - rank_dk, rank_dk1=rank_dk1)


def spectral_gap(spec: Spectrum) -> float:
    """Smallest eigenvalue strictly above the kernel tolerance."""
    above = spec.eigenvalues[spec.eigenvalues >= spec.tol_kernel]
    if above.size == 0:
        raise ZeroSpectrumError("all eigenvalues in the kernel: spectral gap undefined")
    return float(above[0])
