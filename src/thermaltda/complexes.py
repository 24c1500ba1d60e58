"""Simplicial complexes from point clouds and random graphs.

A complex is stored as the family of sets S_k of its k-simplices, each
simplex a strictly increasing tuple of vertex indices.  Construction is
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
# has 890,707 simplices and took 7.4-8.3 s at 297 MB peak: 0.5-0.6 s for the
# clique masks, the rest for validation and the face table.  (24, 0.95, 5, 0)
# has 85,014 and took 0.45-0.7 s at 59 MB (2-core VM, in process, two runs
# each).  The budget stops a dense graph or a high max_dim long before memory
# runs out, and is over 100x the 9,579 simplices of the 40-vertex complex of
# perfbench's betti-large workload.
MAX_SIMPLICES = 1_000_000
# Entries of one clique-expansion mask, a 4 MB bool array: cliques are
# extended in row chunks of at most this size.  Unchunked, the 838,766 edges
# of random_complex(4096, 0.1, 2, 0) would ask for a 3.2 GiB mask.
MAX_MASK_ENTRIES = 2**22
# Bound on n^2 * d for a cloud of n points in R^d: the pairwise distances
# hold two n x n x d float64 temporaries, 134 MB each at the cap.  Peak RSS
# of build-complex at the cap, run in-process on sparse clouds, was 421 MB at
# d = 1 (4,096 points, where the n x n distances add most) and 336 MB at
# d = 3 (2,364 points) on a 2-core VM.  The benchmark's clouds have at most
# 14 points.
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


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed family of simplices over vertices 0..n_vertices-1.

    ``sets[k]`` is the lexicographically sorted, duplicate-free list of
    k-simplices.  Instances are immutable; validation runs on creation.
    """

    n_vertices: int
    sets: dict[int, list[Simplex]] = field(default_factory=dict)
    # faces[k][j, c] is the row in sets[k-1] of the c-th face of simplex j in
    # itertools.combinations order, which deletes vertex k - c: its boundary
    # sign is (-1)^(k-c).  Built once, by the closure check, for k >= 1.
    faces: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_ints([self.n_vertices])
        if self.n_vertices < 1:
            raise ValueError("complex needs at least one vertex")
        object.__setattr__(self, "n_vertices", int(self.n_vertices))
        cleaned: dict[int, list[Simplex]] = {}
        for k, simplices in self.sets.items():
            if k < 0:
                raise ValueError(f"simplex dimension {k} is negative")
            simplices = list(simplices)
            _check_ints(list(itertools.chain.from_iterable(simplices)))
            uniq = sorted(set(tuple(map(int, s)) for s in simplices))
            if not uniq:
                continue
            for s in uniq:
                if len(s) != k + 1:
                    raise ValueError(f"{s} is not a {k}-simplex")
                if any(a >= b for a, b in zip(s, s[1:])):
                    raise ValueError(f"simplex {s} is not strictly increasing")
                if s[0] < 0 or s[-1] >= self.n_vertices:
                    raise ValueError(f"simplex {s} has vertices outside [0, {self.n_vertices})")
            cleaned[k] = uniq
        object.__setattr__(self, "sets", cleaned)
        # downward closure: every face of a k-simplex is on a row of sets[k-1]
        for k in sorted(cleaned.keys() - {0}):
            row = {s: i for i, s in enumerate(cleaned.get(k - 1, ()))}
            try:
                flat = [row[face] for s in cleaned[k] for face in itertools.combinations(s, k)]
            except KeyError as exc:
                s = next(s for s in cleaned[k] if set(exc.args[0]) < set(s))
                raise ValueError(f"face {exc.args[0]} of {s} missing: complex not closed") from None
            self.faces[k] = np.array(flat, dtype=np.int32).reshape(-1, k + 1)
            self.faces[k].flags.writeable = False  # both Betti oracles read it

    @property
    def max_dim(self) -> int:
        return max(self.sets) if self.sets else -1

    def simplices(self, k: int) -> list[Simplex]:
        """Sorted list of k-simplices; empty outside the populated range."""
        return list(self.sets.get(k, []))

    def face_table(self, k: int) -> np.ndarray:
        """``faces[k]`` for k >= 1; an empty (0, k+1) array above the top dimension."""
        return self.faces.get(k, np.empty((0, k + 1), dtype=np.int32))

    def num_simplices(self, k: int) -> int:
        return len(self.sets.get(k, ()))

    def to_json_dict(self) -> dict:
        return {
            "n_vertices": self.n_vertices,
            "simplices": {
                str(k): [list(s) for s in self.sets[k]] for k in sorted(self.sets)
            },
        }

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
    top_simplices = list(top_simplices)
    _check_ints([n_vertices, *itertools.chain.from_iterable(top_simplices)])
    sets: dict[int, set[Simplex]] = {0: {(v,) for v in range(n_vertices)}}
    for s in top_simplices:
        s = tuple(sorted(map(int, s)))
        for size in range(1, len(s) + 1):
            sets.setdefault(size - 1, set()).update(itertools.combinations(s, size))
    return SimplicialComplex(n_vertices, {k: sorted(v) for k, v in sets.items()})


def _pairwise_distances(points: np.ndarray, metric: str) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    if metric == "euclidean":
        return np.sqrt((diff**2).sum(axis=-1))
    if metric == "manhattan":
        return np.abs(diff).sum(axis=-1)
    if metric == "chebyshev":
        return np.abs(diff).max(axis=-1)
    raise ValueError(f"unknown metric {metric!r}; choose one of {METRICS}")


def _cliques_from_adjacency(adj: np.ndarray, max_dim: int) -> dict[int, list[Simplex]]:
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
    sets: dict[int, list[Simplex]] = {0: [(v,) for v in range(n)]}
    cliques = np.arange(n).reshape(n, 1)
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
            chunks.append(np.column_stack((q[i], v)))
        cliques = np.concatenate(chunks)
        if not len(cliques):
            break
        sets[k] = list(zip(*cliques.T.tolist()))
    return sets


def build_clique_complex(
    cloud: PointCloud, metric: str, epsilon: float, max_dim: int
) -> SimplicialComplex:
    """Clique (Vietoris-Rips style) complex of the epsilon-neighborhood graph.

    Vertices i, j are joined iff dist(i, j) <= epsilon (closed ball, so ties
    at exactly epsilon are edges), and every clique of at most max_dim+1
    vertices becomes a simplex.
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
    return SimplicialComplex(cloud.n, _cliques_from_adjacency(adj, max_dim))


def random_complex(n: int, edge_prob: float, max_dim: int, seed: int) -> SimplicialComplex:
    """Clique complex of an Erdos-Renyi graph G(n, edge_prob).

    Deterministic for fixed (n, edge_prob, max_dim, seed): edges are decided
    from a PCG64 stream in row-major order over the strict upper triangle.
    """
    if n < 1:
        raise ValueError("need n >= 1 vertices")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in [0, 1]")
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    rng = np.random.default_rng(seed)
    draws = rng.random((n, n))
    adj = np.zeros((n, n), dtype=bool)
    upper = np.triu_indices(n, k=1)
    adj[upper] = draws[upper] < edge_prob
    adj |= adj.T
    return SimplicialComplex(n, _cliques_from_adjacency(adj, max_dim))


# ---------------------------------------------------------------------------
# Bundled corpus: small shapes with hand-checkable Betti numbers.

def hollow_triangle() -> SimplicialComplex:
    """Three edges, no filling: b_0 = 1, b_1 = 1."""
    return from_simplices(3, [(0, 1), (0, 2), (1, 2)])


def filled_triangle() -> SimplicialComplex:
    """The full 2-simplex: b_0 = 1, b_1 = b_2 = 0."""
    return from_simplices(3, [(0, 1, 2)])


def tetrahedron_boundary() -> SimplicialComplex:
    """Four triangles of the tetrahedron without the 3-cell: b_2 = 1."""
    return from_simplices(4, list(itertools.combinations(range(4), 3)))


def two_components() -> SimplicialComplex:
    """Two disjoint edges: b_0 = 2."""
    return from_simplices(4, [(0, 1), (2, 3)])


def octahedron_boundary() -> SimplicialComplex:
    """Surface of the octahedron (antipodal pairs (0,5), (1,4), (2,3)): b_2 = 1."""
    triangles = [
        (a, b, c)
        for a, b, c in itertools.combinations(range(6), 3)
        if a + b != 5 and a + c != 5 and b + c != 5
    ]
    return from_simplices(6, triangles)


CORPUS = {
    "hollow-triangle": hollow_triangle,
    "filled-triangle": filled_triangle,
    "tetrahedron-boundary": tetrahedron_boundary,
    "two-components": two_components,
    "octahedron-boundary": octahedron_boundary,
}
