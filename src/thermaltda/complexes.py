"""Simplicial complexes from point clouds and random graphs.

A complex stores its k-simplices as the rows of one sorted int32 array per
dimension, each row strictly increasing vertex indices.  Construction is
either geometric (clique complex of the epsilon-neighborhood graph of a
point cloud) or random (clique complex of an Erdos-Renyi graph).  All
constructors are deterministic given their inputs and return immutable,
downward-closed complexes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

Simplex = tuple[int, ...]

METRICS = ("euclidean", "manhattan", "chebyshev")

# Enumeration budget, total over all dimensions.  random_complex(34, 0.95, 5, 0)
# has 890,707 simplices and took 0.79-0.82 s at 283 MB peak RSS, most of it in
# the face table's searchsorted; (24, 0.95, 5, 0) has 85,014 and took 0.08 s
# at 55 MB.  random_complex(4096, 0.1, 2, 0) meets the budget and raises after
# 0.37-0.39 s at 89 MB (2-core VM, one-shot processes, three runs each).  The
# budget stops a dense graph or a high max_dim long before memory runs out, and
# is over 100x the 9,579 simplices of the 40-vertex complex of perfbench's
# betti-large workload.
MAX_SIMPLICES = 1_000_000
# Entries of one clique-expansion mask, a 4 MB bool array: cliques are
# extended in row chunks of at most this size.  Unchunked, the 838,766 edges
# of random_complex(4096, 0.1, 2, 0) would ask for a 3.2 GiB mask.
MAX_MASK_ENTRIES = 2**22
# Bound on n^2 * d for a cloud of n points in R^d: the pairwise distances
# hold two n x n x d float64 temporaries, 134 MB each at the cap.  A one-shot
# build-complex at the cap, on a sparse seeded cloud at --max-dim 2, took
# 0.47-0.72 s at a 415 MB peak RSS at d = 1 (4,096 points, where the n x n
# distances add most) and 0.48-0.50 s at 329 MB at d = 3 (2,364 points), three
# runs each on a 2-core VM.  The benchmark's clouds have at most 14 points.
MAX_DISTANCE_ENTRIES = 2**24


class PointCloudError(ValueError):
    """Malformed point-cloud input (ragged or non-numeric rows)."""


@dataclass(frozen=True)
class PointCloud:
    """Finite set of points in R^d, one row per point."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise PointCloudError("point cloud must be a nonempty 2-d array")
        if not np.all(np.isfinite(pts)):
            raise PointCloudError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def load_point_cloud(path) -> PointCloud:
    """Read a headerless CSV, one point per row.

    Raises FileNotFoundError for a missing file and PointCloudError with
    the offending 1-based row number for ragged or non-numeric rows.
    """
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise PointCloudError(
                    f"ragged row {lineno}: expected {width} fields, got {len(fields)}"
                )
            try:
                rows.append([float(x) for x in fields])
            except ValueError as exc:
                raise PointCloudError(f"non-numeric field in row {lineno}: {exc}") from exc
    if not rows:
        raise PointCloudError("empty point-cloud file")
    return PointCloud(np.array(rows, dtype=float))


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Downward-closed family of simplices over vertices 0..n_vertices-1.

    ``sets[k]`` is a C-contiguous, read-only (m_k, k+1) int32 array of the
    k-simplices: each row strictly increasing, the rows sorted and distinct.
    The constructor takes integer rows in any order and checks every one;
    equality is of simplices.  ``random_complex`` and ``build_clique_complex``
    build their arrays in this form, so theirs go through the vertex-count
    and closure checks only (``_of_sorted_rows``); the closure check is the
    one face-table builder of both routes.
    """

    n_vertices: int
    sets: dict[int, np.ndarray] = field(default_factory=dict)
    # faces[k][j, c] is the row in sets[k-1] of the c-th face of simplex j in
    # itertools.combinations order, which deletes vertex k - c: its boundary
    # sign is (-1)^(k-c).  Built once, by the closure check, for k >= 1.
    faces: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        n = _vertex_count(self.n_vertices)
        sets, keys = {}, {}
        for k, simplices in self.sets.items():
            if k < 0:
                raise ValueError(f"simplex dimension {k} is negative")
            sets[k] = _checked_rows(simplices, k, n)
            keys[k] = _row_keys(sets[k])
            if not (keys[k][1:] > keys[k][:-1]).all():  # unsorted or repeated rows
                keys[k], first = np.unique(keys[k], return_index=True)
                sets[k] = sets[k][first]
        self._close(n, sets, keys)

    @classmethod
    def _of_sorted_rows(cls, n_vertices: int, sets: dict[int, np.ndarray]) -> "SimplicialComplex":
        """The complex of int32 row arrays that are already in the form
        ``sets`` documents (C-contiguous, rows in range, strictly increasing,
        sorted and distinct), as the clique enumerator builds them: only the
        vertex count and the downward closure are checked."""
        cx = object.__new__(cls)
        cx._close(_vertex_count(n_vertices), sets, {k: _row_keys(rows) for k, rows in sets.items()})
        return cx

    def _close(self, n: int, sets: dict[int, np.ndarray], keys: dict[int, np.ndarray]) -> None:
        """Freeze the nonempty ``sets`` and build ``faces`` off their row keys,
        ``_row_keys`` of each; raise ValueError on a missing face."""
        object.__setattr__(self, "n_vertices", n)
        for rows in sets.values():
            rows.flags.writeable = False
        object.__setattr__(self, "sets", {k: sets[k] for k in sorted(sets) if len(sets[k])})
        object.__setattr__(self, "faces", {})  # the enumerator's complex never ran __init__
        # downward closure: every face of a k-simplex is on a row of sets[k-1]
        for k in sorted(self.sets.keys() - {0}):
            rows = keys[k].view(">i4").reshape(-1, k + 1)
            faces = _row_keys(rows[:, list(itertools.combinations(range(k + 1), k))].reshape(-1, k))
            below = keys[k - 1] if k - 1 in self.sets else faces[:0]
            at = np.searchsorted(below, faces)
            found = below.take(at, mode="clip") == faces if len(below) else at < 0
            if not found.all():
                j, c = divmod(int(np.argmin(found)), k + 1)
                s = tuple(self.sets[k][j].tolist())
                raise ValueError(f"face {s[:k - c] + s[k - c + 1:]} of {s} missing: complex not closed")
            self.faces[k] = at.astype(np.int32).reshape(-1, k + 1)
            self.faces[k].flags.writeable = False  # both Betti oracles read it

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.to_json_dict() == other.to_json_dict()

    @property
    def max_dim(self) -> int:
        return max(self.sets) if self.sets else -1

    def simplices(self, k: int) -> list[Simplex]:
        """The rows of ``sets[k]`` as tuples; empty outside the populated range."""
        return list(map(tuple, self.sets[k].tolist())) if k in self.sets else []

    def face_table(self, k: int) -> np.ndarray:
        """``faces[k]`` for k >= 1; an empty (0, k+1) array above the top dimension."""
        return self.faces.get(k, np.empty((0, k + 1), dtype=np.int32))

    def num_simplices(self, k: int) -> int:
        return len(self.sets.get(k, ()))

    def to_json_dict(self) -> dict:
        return {"n_vertices": self.n_vertices, "simplices": {str(k): v.tolist() for k, v in self.sets.items()}}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimplicialComplex":
        """Read the complex as written: a dimension key must be canonical
        decimal; the constructor rejects a count or vertex that is not an integer."""
        sets = {}
        for key, simplices in data["simplices"].items():
            if str(int(key)) != key:
                raise ValueError(f"dimension key {key!r} is not a canonical integer")
            sets[int(key)] = simplices
        return cls(n_vertices=data["n_vertices"], sets=sets)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SimplicialComplex":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh, object_pairs_hook=_unique_keys))


def _check_ints(values: list) -> None:
    """Raise ValueError unless every value is a Python or numpy integer (no
    bool, no float): a vertex or count is never rounded to one."""
    if set(map(type, values)) - {int}:
        bad = next(
            (v for v in values if isinstance(v, bool) or not isinstance(v, (int, np.integer))), None
        )
        if bad is not None:
            raise ValueError(f"{json.dumps(bad, default=repr)} is not an integer")


def _vertex_count(n) -> int:
    """A vertex count as a Python int; ValueError unless it is an integer in [1, 2**31 - 1]."""
    _check_ints([n])
    n = int(n)
    if n < 1:
        raise ValueError("complex needs at least one vertex")
    if n > 2**31 - 1:  # vertex ids are int32
        raise ValueError(f"{n:,} vertices exceed 2**31 - 1")
    return n


def _checked_rows(simplices, k: int, n: int) -> np.ndarray:
    """The k-simplices as a new (m, k+1) int32 array, rows in the given order.
    Anything but an integer array is checked for non-integers as a list first."""
    array = isinstance(simplices, np.ndarray) and simplices.dtype.kind in "iu"
    if not array:
        simplices = simplices.tolist() if isinstance(simplices, np.ndarray) else list(simplices)
        _check_ints(list(itertools.chain.from_iterable(simplices)))
    if set(map(len, simplices[:1] if array else simplices)) - {k + 1}:  # an array's rows share a length
        s = min(tuple(map(int, s)) for s in simplices if len(s) != k + 1)
        raise ValueError(f"{s} is not a {k}-simplex")
    rows = np.asarray(simplices).reshape(len(simplices), k + 1)
    bad = (rows[:, 1:] <= rows[:, :-1]).any(axis=1) | (rows[:, 0] < 0) | (rows[:, -1] >= n)
    if bad.any():  # name the lexicographically first faulty simplex
        s = min(map(tuple, rows[bad].tolist()))
        if any(a >= b for a, b in zip(s, s[1:])):
            raise ValueError(f"simplex {s} is not strictly increasing")
        raise ValueError(f"simplex {s} has vertices outside [0, {n})")
    return rows.astype(np.int32)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Big-endian bytes keys: their order is the lexicographic order of the rows."""
    return np.ascontiguousarray(rows, dtype=">i4").view(f"S{4 * rows.shape[1]}").ravel()


def _unique_keys(pairs: list) -> dict:
    """JSON object hook that rejects a repeated key instead of keeping the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def from_simplices(n_vertices: int, top_simplices) -> SimplicialComplex:
    """Build the complex generated by ``top_simplices`` (all faces added)."""
    _check_ints([n_vertices])  # the constructor checks the vertices
    sets: dict[int, list[Simplex]] = {0: [(v,) for v in range(n_vertices)]}
    for s in top_simplices:
        s = sorted(s)
        for size in range(1, len(s) + 1):
            sets.setdefault(size - 1, []).extend(itertools.combinations(s, size))
    return SimplicialComplex(n_vertices, sets)


def _pairwise_distances(points: np.ndarray, metric: str) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    if metric == "euclidean":
        return np.sqrt((diff**2).sum(axis=-1))
    if metric == "manhattan":
        return np.abs(diff).sum(axis=-1)
    if metric == "chebyshev":
        return np.abs(diff).max(axis=-1)
    raise ValueError(f"unknown metric {metric!r}; choose one of {METRICS}")


def _cliques_from_adjacency(adj: np.ndarray, max_dim: int) -> dict[int, np.ndarray]:
    """Enumerate cliques of size <= max_dim+1, sorted, by boolean masks.

    The k-cliques Q (rows sorted lexicographically) extend by the vertices
    above their last vertex and adjacent to all the others: row i of the mask
    above[Q[i, -1]] & adj[Q[i, 0]] & ... & adj[Q[i, k-2]].  ``np.nonzero``
    reads the mask row by row, so each (k+1)-clique comes out once and in
    lexicographic order.  The mask is built for at most MAX_MASK_ENTRIES
    entries at a time.  Raises ValueError before the simplex count passes
    MAX_SIMPLICES.
    """
    n = adj.shape[0]
    above = np.triu(adj, 1)
    cliques = np.arange(n, dtype=np.int32).reshape(n, 1)
    sets = {0: cliques}
    rows = max(1, MAX_MASK_ENTRIES // n)
    room = MAX_SIMPLICES - n
    for k in range(1, max_dim + 1):
        chunks = []
        for start in range(0, len(cliques), rows):
            q = cliques[start:start + rows]
            mask = above[q[:, -1]]
            for c in range(k - 1):
                mask &= adj[q[:, c]]
            i, v = np.nonzero(mask)
            room -= i.size
            if room < 0:
                raise ValueError(
                    f"clique complex exceeds {MAX_SIMPLICES:,} simplices; "
                    "lower max_dim or the edge density"
                )
            chunks.append(np.column_stack((q[i], v.astype(np.int32))))
        cliques = np.concatenate(chunks)
        if not len(cliques):
            break
        sets[k] = cliques
    return sets


def build_clique_complex(
    cloud: PointCloud, metric: str, epsilon: float, max_dim: int
) -> SimplicialComplex:
    """Clique (Vietoris-Rips style) complex of the epsilon-neighborhood graph.

    Vertices i, j are joined iff dist(i, j) <= epsilon (closed ball, so ties
    at exactly epsilon are edges), and every clique of at most max_dim+1
    vertices becomes a simplex.  The enumerator's rows are sorted and in
    range by construction, so only the closure check runs on them.
    """
    if not epsilon >= 0:  # also rejects NaN, which no distance is <= to
        raise ValueError("epsilon must be >= 0")
    if not 0 <= max_dim <= cloud.n - 1:
        raise ValueError(f"max_dim must be in [0, {cloud.n - 1}]")
    if cloud.n**2 * cloud.dim > MAX_DISTANCE_ENTRIES:
        raise ValueError(
            f"{cloud.n:,} points in R^{cloud.dim} exceed the distance cap: "
            f"n^2 * d must be at most {MAX_DISTANCE_ENTRIES:,}"
        )
    dist = _pairwise_distances(cloud.points, metric)
    adj = dist <= epsilon
    np.fill_diagonal(adj, False)
    return SimplicialComplex._of_sorted_rows(cloud.n, _cliques_from_adjacency(adj, max_dim))


def random_complex(n: int, edge_prob: float, max_dim: int, seed: int) -> SimplicialComplex:
    """Clique complex of an Erdos-Renyi graph G(n, edge_prob).

    Deterministic for fixed (n, edge_prob, max_dim, seed): edges are decided
    from a PCG64 stream in row-major order over the strict upper triangle,
    drawn in blocks of rows of at most MAX_MASK_ENTRIES entries.  The
    enumerator's rows are sorted and in range by construction, so only the
    closure check runs on them.
    """
    if n < 1:
        raise ValueError("need n >= 1 vertices")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in [0, 1]")
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=bool)
    rows = max(1, MAX_MASK_ENTRIES // n)
    for start in range(0, n, rows):  # block row i keeps the columns above start + i
        adj[start:start + rows] = np.triu(rng.random((min(rows, n - start), n)) < edge_prob, start + 1)
    adj |= adj.T
    return SimplicialComplex._of_sorted_rows(n, _cliques_from_adjacency(adj, max_dim))


# ---------------------------------------------------------------------------
# Bundled corpus: small shapes with hand-checkable Betti numbers.

CORPUS = {
    # three edges, no filling: b_0 = 1, b_1 = 1
    "hollow-triangle": lambda: from_simplices(3, [(0, 1), (0, 2), (1, 2)]),
    # the full 2-simplex: b_0 = 1, b_1 = b_2 = 0
    "filled-triangle": lambda: from_simplices(3, [(0, 1, 2)]),
    # four triangles of the tetrahedron without the 3-cell: b_2 = 1
    "tetrahedron-boundary": lambda: from_simplices(4, itertools.combinations(range(4), 3)),
    # two disjoint edges: b_0 = 2
    "two-components": lambda: from_simplices(4, [(0, 1), (2, 3)]),
    # surface of the octahedron, antipodal pairs (0,5), (1,4), (2,3): b_2 = 1
    "octahedron-boundary": lambda: from_simplices(6, [
        s for s in itertools.combinations(range(6), 3) if all(a + b != 5 for a, b in itertools.combinations(s, 2))
    ]),
}
