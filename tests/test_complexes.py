import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from thermaltda.complexes import (
    CORPUS,
    METRICS,
    PointCloud,
    PointCloudError,
    SimplicialComplex,
    build_clique_complex,
    from_simplices,
    load_point_cloud,
    random_complex,
)


def write(tmp_path, text):
    path = tmp_path / "points.csv"
    path.write_text(text)
    return path


class TestLoadPointCloud:
    def test_three_collinear_points(self, tmp_path):
        cloud = load_point_cloud(write(tmp_path, "0,0\n1,0\n2,0"))
        assert cloud.n == 3 and cloud.dim == 2
        np.testing.assert_array_equal(cloud.points, [[0, 0], [1, 0], [2, 0]])

    def test_single_1d_point(self, tmp_path):
        cloud = load_point_cloud(write(tmp_path, "1.5"))
        assert cloud.n == 1 and cloud.dim == 1

    def test_ragged_row_reports_line(self, tmp_path):
        with pytest.raises(PointCloudError, match="row 2"):
            load_point_cloud(write(tmp_path, "0,0\n1"))

    def test_non_numeric_reports_line(self, tmp_path):
        with pytest.raises(PointCloudError, match="row 3"):
            load_point_cloud(write(tmp_path, "0,0\n1,1\n2,x"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_point_cloud(tmp_path / "nope.csv")


COLLINEAR = PointCloud(np.array([[0.0], [1.0], [2.0]]))


class TestCliqueComplex:
    def test_path_graph_at_eps_1_1(self):
        cx = build_clique_complex(COLLINEAR, "euclidean", 1.1, 2)
        assert cx.simplices(1) == [(0, 1), (1, 2)]
        assert cx.simplices(2) == []

    def test_filled_triangle_at_eps_2_5(self):
        cx = build_clique_complex(COLLINEAR, "euclidean", 2.5, 2)
        assert cx.simplices(1) == [(0, 1), (0, 2), (1, 2)]
        assert cx.simplices(2) == [(0, 1, 2)]

    def test_eps_zero_keeps_vertices_only(self):
        cx = build_clique_complex(COLLINEAR, "euclidean", 0.0, 2)
        assert cx.simplices(0) == [(0,), (1,), (2,)]
        assert cx.max_dim == 0

    def test_distance_tie_is_an_edge(self):
        cx = build_clique_complex(COLLINEAR, "euclidean", 1.0, 1)
        assert (0, 1) in cx.simplices(1)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            build_clique_complex(COLLINEAR, "euclidean", -0.1, 1)

    def test_max_dim_out_of_range(self):
        with pytest.raises(ValueError):
            build_clique_complex(COLLINEAR, "euclidean", 1.0, 3)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    def test_simplices_are_exactly_cliques(self, metric):
        # brute-force oracle: a subset is a simplex iff all pairs are close
        rng = np.random.default_rng(5)
        for trial in range(5):
            pts = PointCloud(rng.uniform(0, 1, size=(7, 3)))
            eps = float(rng.uniform(0.3, 0.9))
            cx = build_clique_complex(pts, metric, eps, 3)
            diff = pts.points[:, None, :] - pts.points[None, :, :]
            dist = {
                "euclidean": np.sqrt((diff**2).sum(-1)),
                "manhattan": np.abs(diff).sum(-1),
                "chebyshev": np.abs(diff).max(-1),
            }[metric]
            for k in range(1, 4):
                expected = sorted(
                    s
                    for s in itertools.combinations(range(7), k + 1)
                    if all(dist[a, b] <= eps for a, b in itertools.combinations(s, 2))
                )
                assert cx.simplices(k) == expected

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(11)
        pts = PointCloud(rng.uniform(0, 1, size=(8, 2)))
        cx1 = build_clique_complex(pts, "euclidean", 0.3, 3)
        cx2 = build_clique_complex(pts, "euclidean", 0.5, 3)
        for k in range(4):
            assert set(cx1.simplices(k)) <= set(cx2.simplices(k))


def assert_as_checked(cx):
    """cx, built from enumerator arrays without the row checks, equals the
    checking constructor's complex of the same rows, as read-only,
    C-contiguous int32 arrays."""
    checked = SimplicialComplex(cx.n_vertices, {k: rows.tolist() for k, rows in cx.sets.items()})
    assert type(cx.n_vertices) is int and cx.n_vertices == checked.n_vertices
    for built, ref in ((cx.sets, checked.sets), (cx.faces, checked.faces)):
        assert list(built) == list(ref)
        for k, array in built.items():
            assert array.flags.c_contiguous and not array.flags.writeable
            np.testing.assert_array_equal(array, ref[k], strict=True)  # shape and int32 dtype too


class TestRandomComplex:
    def test_deterministic_per_seed(self):
        a = random_complex(10, 0.5, 3, seed=42)
        b = random_complex(10, 0.5, 3, seed=42)
        assert a == b

    def test_seed_changes_output(self):
        a = random_complex(10, 0.5, 2, seed=1)
        b = random_complex(10, 0.5, 2, seed=2)
        assert a != b

    def test_complete_graph_at_p_one(self):
        cx = random_complex(3, 1.0, 2, seed=0)
        assert cx.simplices(2) == [(0, 1, 2)]

    def test_isolated_vertices_at_p_zero(self):
        cx = random_complex(5, 0.0, 3, seed=0)
        assert cx.simplices(0) == [(v,) for v in range(5)]
        assert cx.max_dim == 0

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            random_complex(5, 1.5, 2, seed=0)

    @pytest.mark.parametrize("chunk", [7, 2**22])
    def test_cliques_match_combinations(self, monkeypatch, chunk):
        """Mask expansion lists every clique of a seeded graph, in order, and
        the complex is the checking constructor's of the same rows; at a
        7-entry chunk every dimension spans many chunks."""
        monkeypatch.setattr("thermaltda.complexes.MAX_MASK_ENTRIES", chunk)
        rng = np.random.default_rng(16)
        draws = [(int(rng.integers(1, 13)), float(rng.uniform(0.2, 1.0)), 4, int(rng.integers(2**32)))
                 for _ in range(40)]
        draws += [(n, p, max_dim, int(rng.integers(2**32)))
                  for n in range(1, 15) for p in (0.0, 0.3, 0.6, 1.0) for max_dim in range(7)]
        for n, p, max_dim, seed in draws:
            cx = random_complex(n, p, max_dim, seed)
            edges = set(cx.simplices(1))
            assert cx.max_dim <= max_dim
            for k in range(max_dim + 1):
                assert cx.simplices(k) == [
                    s for s in itertools.combinations(range(n), k + 1)
                    if all(e in edges for e in itertools.combinations(s, 2))
                ]
            assert_as_checked(cx)

    @pytest.mark.parametrize("chunk", [7, 64, 2**22])
    def test_edges_match_one_shot_draw(self, monkeypatch, chunk):
        """Drawn in blocks of rows, the edges follow the PCG64 stream of one
        n x n draw read over its strict upper triangle; a 7-entry chunk draws
        one row per block, a 64-entry chunk several rows and a short last block."""
        monkeypatch.setattr("thermaltda.complexes.MAX_MASK_ENTRIES", chunk)
        for n, p, seed in [(1, 0.5, 0), (2, 0.9, 1), (9, 0.5, 3), (40, 0.3, 7), (65, 0.1, 11), (30, 1.0, 2)]:
            draws = np.random.default_rng(seed).random((n, n))
            upper = np.triu_indices(n, k=1)
            edges = np.transpose(upper)[draws[upper] < p]
            cx = random_complex(n, p, 1, seed)
            np.testing.assert_array_equal(cx.sets.get(1, np.empty((0, 2), dtype=np.int32)), edges)

    def test_simplex_budget(self, monkeypatch):
        # the complete graph on 4 vertices has 4 + 6 + 4 + 1 = 15 simplices
        monkeypatch.setattr("thermaltda.complexes.MAX_SIMPLICES", 15)
        assert random_complex(4, 1.0, 3, seed=0).num_simplices(3) == 1
        monkeypatch.setattr("thermaltda.complexes.MAX_SIMPLICES", 14)
        with pytest.raises(ValueError, match="exceeds 14 simplices"):
            random_complex(4, 1.0, 3, seed=0)
        monkeypatch.setattr("thermaltda.complexes.MAX_SIMPLICES", 100)
        with pytest.raises(ValueError, match="exceeds 100 simplices"):
            random_complex(20, 0.9, 3, seed=0)


class TestPackageBuiltComplexes:
    """build_clique_complex, like random_complex, hands its enumerator's
    arrays to the closure check without the row checks: the complex is the
    one the checking constructor makes of the same rows."""

    @pytest.mark.parametrize("metric", METRICS)
    def test_build_clique_complex(self, metric):
        rng = np.random.default_rng(32)
        for n in range(1, 15):
            cloud = PointCloud(rng.uniform(size=(n, int(rng.integers(1, 4)))))
            for eps in (0.0, 0.3, 0.6, 2.0):
                assert_as_checked(build_clique_complex(cloud, metric, eps, min(n - 1, 6)))

    def test_closure_still_checked(self):
        rows = {0: np.arange(3, dtype=np.int32)[:, None], 1: np.array([[0, 1]], dtype=np.int32),
                2: np.array([[0, 1, 2]], dtype=np.int32)}
        with pytest.raises(ValueError, match=r"face \(0, 2\) of \(0, 1, 2\) missing"):
            SimplicialComplex._of_sorted_rows(3, rows)


class TestSimplicialComplex:
    def test_downward_closure_enforced(self):
        with pytest.raises(ValueError, match=r"face \(0, 1\) of \(0, 1, 2\) missing: complex not closed"):
            SimplicialComplex(3, {0: [(0,), (1,), (2,)], 2: [(0, 1, 2)]})
        with pytest.raises(ValueError, match=r"face \(1, 2\) of \(0, 1, 2\) missing"):
            SimplicialComplex(3, {0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2)], 2: [(0, 1, 2)]})

    def test_face_table_rows(self):
        """Column c of faces[k] is the row in sets[k-1] of the simplex with
        vertex k - c deleted."""
        from conftest import random_complex_family

        for cx in random_complex_family(20):
            for k in range(1, cx.max_dim + 1):
                table = cx.face_table(k)
                assert table.dtype == np.int32 and table.shape == (cx.num_simplices(k), k + 1)
                below = cx.simplices(k - 1)
                for j, s in enumerate(cx.simplices(k)):
                    for c in range(k + 1):
                        assert below[table[j, c]] == s[:k - c] + s[k - c + 1:]

    def test_face_table_above_top_dimension_is_empty(self):
        cx = CORPUS["filled-triangle"]()
        assert cx.face_table(3).shape == (0, 4) and cx.face_table(3).dtype == np.int32

    def test_face_table_is_read_only(self):
        table = CORPUS["filled-triangle"]().face_table(2)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1

    def test_face_table_stays_out_of_equality_and_repr(self):
        cx = CORPUS["hollow-triangle"]()
        assert cx == SimplicialComplex(cx.n_vertices, cx.sets)
        assert "faces" not in repr(cx)

    def test_vertex_range_enforced(self):
        with pytest.raises(ValueError):
            SimplicialComplex(2, {0: [(0,), (5,)]})

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SimplicialComplex(3, {0: [(0.7,), (1.2,), (2.0,)], 1: [(0.9, 1.9)]}), "0.7 is not"),
            (lambda: from_simplices(3, [(0.5, 1.5)]), "0.5 is not"),
            (lambda: SimplicialComplex(2.9, {0: [(0,), (1,)]}), "2.9 is not"),
            (lambda: from_simplices(2.0, [(0, 1)]), "2.0 is not"),
            (lambda: SimplicialComplex(2, {0: [(False,), (True,)]}), "false is not"),
            (lambda: SimplicialComplex(True, {0: [(0,)]}), "true is not"),
            (lambda: from_simplices(2, [(np.float64(0.0), 1)]), "0.0 is not"),
            (lambda: SimplicialComplex(2, {0: np.array([[False], [True]])}), "false is not"),
            (lambda: SimplicialComplex(3, {0: np.array([[0.7], [1.2], [2.0]])}), "0.7 is not"),
            (lambda: SimplicialComplex(3, {0: np.arange(3.0).reshape(3, 1)}), "0.0 is not"),
        ],
    )
    def test_non_integer_vertices_rejected_not_truncated(self, build, message):
        with pytest.raises(ValueError, match=message + " an integer"):
            build()

    def test_numpy_integers_accepted(self):
        cx = SimplicialComplex(np.int64(3), {0: [(np.int32(v),) for v in range(3)], 1: [np.array([0, 2])]})
        assert cx == from_simplices(np.int64(3), [np.array([0, 2])])
        assert type(cx.n_vertices) is int and cx.simplices(1) == [(0, 2)]
        assert type(cx.simplices(1)[0][0]) is int

    def test_negative_dimension_rejected(self):
        # the empty simplex has the length k + 1 = 0 of a (-1)-simplex
        with pytest.raises(ValueError, match="negative"):
            SimplicialComplex(2, {-1: [()], 0: [(0,), (1,)]})

    def test_simplices_out_of_range_is_empty(self):
        cx = CORPUS["filled-triangle"]()
        assert cx.simplices(7) == []
        assert cx.simplices(-1) == []

    def test_enumeration_of_filled_triangle(self):
        cx = CORPUS["filled-triangle"]()
        assert cx.simplices(1) == [(0, 1), (0, 2), (1, 2)]
        assert cx.simplices(2) == [(0, 1, 2)]

    def test_json_round_trip(self, tmp_path):
        cx = random_complex(7, 0.6, 3, seed=3)
        path = tmp_path / "cx.json"
        cx.save(path)
        loaded = SimplicialComplex.load(path)
        assert loaded == cx
        data = json.loads(path.read_text())
        assert data["n_vertices"] == 7
        assert data["simplices"]["0"] == [[v] for v in range(7)]
        for key, simplices in data["simplices"].items():
            assert simplices == sorted(simplices)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n_vertices": 2, "simplices": {"0": [[0], [1]], "01": [[0, 1]]}}', "dimension key '01'"),
            ('{"n_vertices": 2, "simplices": {"0": [[0], [1]], "+1": [[0, 1]]}}', "dimension key '\\+1'"),
            ('{"n_vertices": 2, "simplices": {"0": [[0], [1]], "1": [[0, 1]], "1": []}}', "repeated key '1'"),
            ('{"n_vertices": 2, "n_vertices": 3, "simplices": {"0": [[0], [1]]}}', "repeated key 'n_vertices'"),
            ('{"n_vertices": 2.0, "simplices": {"0": [[0], [1]]}}', "2.0 is not an integer"),
            ('{"n_vertices": 2, "simplices": {"0": [[0], [1.0]]}}', "1.0 is not an integer"),
            ('{"n_vertices": true, "simplices": {"0": [[0]]}}', "true is not an integer"),
            ('{"n_vertices": 2, "simplices": {"0": [[false], [1]]}}', "false is not an integer"),
            # vertex ids are int32; a count beyond int64 is rejected the same way
            ('{"n_vertices": 5000000000, "simplices": {"0": [[0]]}}', "5,000,000,000 vertices exceed"),
            ('{"n_vertices": 2147483648, "simplices": {"0": [[0]]}}', "2,147,483,648 vertices exceed"),
            (f'{{"n_vertices": {2**70}, "simplices": {{"0": [[0]]}}}}', "vertices exceed 2\\*\\*31 - 1"),
            ('{"n_vertices": 2, "simplices": {"0": [[0], [99999999999999999999999]]}}', "outside \\[0, 2\\)"),
        ],
    )
    def test_reader_rejects_what_it_would_misread(self, tmp_path, text, message):
        path = tmp_path / "cx.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            SimplicialComplex.load(path)

    def test_largest_vertex_count_loads(self, tmp_path):
        path = tmp_path / "cx.json"
        path.write_text('{"n_vertices": 2147483647, "simplices": {"0": [[0], [2147483646]]}}')
        assert SimplicialComplex.load(path).simplices(0) == [(0,), (2147483646,)]

    def test_sets_are_sorted_read_only_int32_arrays(self):
        cx = SimplicialComplex(4, {0: [(3,), (0,), (2,), (1,), (0,)], 1: np.array([[1, 2], [0, 1]])})
        for rows in cx.sets.values():
            assert rows.dtype == np.int32 and rows.flags.c_contiguous and not rows.flags.writeable
        np.testing.assert_array_equal(cx.sets[0], [[0], [1], [2], [3]])
        np.testing.assert_array_equal(cx.sets[1], [[0, 1], [1, 2]])

    def test_caller_arrays_are_copied(self):
        edges = np.array([[0, 1]], dtype=np.int32)
        cx = SimplicialComplex(2, {0: [(0,), (1,)], 1: edges})
        edges[0, 1] = 0
        assert edges.flags.writeable and cx.simplices(1) == [(0, 1)]

    def test_empty_dimensions_are_dropped(self):
        cx = SimplicialComplex(2, {0: [(0,), (1,)], 1: [], 2: np.empty((0, 3), dtype=np.int64)})
        assert list(cx.sets) == [0] and cx == SimplicialComplex(2, {0: [(0,), (1,)]})

    def test_from_simplices_adds_faces(self):
        cx = from_simplices(4, [(0, 1, 2)])
        assert cx.simplices(1) == [(0, 1), (0, 2), (1, 2)]
        assert cx.simplices(0) == [(0,), (1,), (2,), (3,)]


class TestCorpus:
    def test_counts(self, corpus):
        sizes = {
            name: [cx.num_simplices(k) for k in range(cx.max_dim + 1)]
            for name, cx in corpus.items()
        }
        assert sizes["hollow-triangle"] == [3, 3]
        assert sizes["filled-triangle"] == [3, 3, 1]
        assert sizes["tetrahedron-boundary"] == [4, 6, 4]
        assert sizes["two-components"] == [4, 2]
        assert sizes["octahedron-boundary"] == [6, 12, 8]

    def test_closure_property_on_random_family(self):
        from conftest import random_complex_family

        for cx in random_complex_family(20):
            for k in range(1, cx.max_dim + 1):
                below = set(cx.simplices(k - 1))
                for s in cx.simplices(k):
                    for face in itertools.combinations(s, k):
                        assert face in below


_COMPLEX_ARGS = st.tuples(st.integers(2, 9), st.floats(0.3, 1.0), st.integers(1, 4), st.integers(0, 2**32 - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(args=_COMPLEX_ARGS, data=st.data())
def test_shuffled_and_repeated_rows_give_the_canonical_complex(args, data):
    """Rows in any order, with repeats, as lists or arrays, build the complex
    the clique enumeration builds, with the same face tables."""
    cx = random_complex(*args)
    sets = {}
    for k in data.draw(st.permutations(list(cx.sets)), label="key order"):
        rows = cx.sets[k].tolist()
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=5), label="repeats")
        rows = data.draw(st.permutations(rows), label="order")
        sets[k] = np.array(rows, dtype=np.int64) if data.draw(st.booleans(), label="as array") else rows
    rebuilt = SimplicialComplex(cx.n_vertices, sets)
    assert rebuilt == cx and list(rebuilt.sets) == sorted(cx.sets)
    for k in range(1, cx.max_dim + 2):
        np.testing.assert_array_equal(rebuilt.face_table(k), cx.face_table(k))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    args=_COMPLEX_ARGS,
    fault=st.sampled_from(["length", "order", "above", "below", "missing face", "float", "bool", "negative k"]),
    data=st.data(),
)
def test_one_fault_raises_the_message_that_names_it(args, fault, data):
    """One malformed row, missing face or dimension in an otherwise well
    formed complex raises the message naming it."""
    cx = random_complex(*args)
    n = cx.n_vertices
    sets = {k: rows.tolist() for k, rows in cx.sets.items()}
    low = 1 if fault in ("order", "missing face") else 0
    assume(cx.max_dim >= low)
    k = data.draw(st.integers(low, cx.max_dim), label="dimension")
    j = data.draw(st.integers(0, len(sets[k]) - 1), label="row")
    c = data.draw(st.integers(0, k), label="column")
    s = tuple(sets[k][j])
    if fault == "missing face":
        face = s[:k - c] + s[k - c + 1:]
        sets[k - 1].remove(list(face))
        first = next(t for t in map(tuple, sets[k]) if set(face) < set(t))
        message = f"face {face} of {first} missing: complex not closed"
    elif fault == "negative k":
        sets[-1] = [[]]
        message = "simplex dimension -1 is negative"
    else:
        value = float(s[c]) if fault == "float" else bool(s[c] % 2)
        bad = {
            "length": s + (n,),
            "order": s[::-1],
            "above": s[:-1] + (n,),
            "below": (-1,) + s[1:],
        }.get(fault, s[:c] + (value,) + s[c + 1:])
        message = {
            "float": f"{json.dumps(value)} is not an integer",
            "bool": f"{json.dumps(value)} is not an integer",
            "length": f"{bad} is not a {k}-simplex",
            "order": f"simplex {bad} is not strictly increasing",
        }.get(fault, f"simplex {bad} has vertices outside [0, {n})")
        sets[k][j] = bad
        if fault in ("order", "above", "below") and data.draw(st.booleans(), label="as array"):
            sets[k] = np.array(sets[k], dtype=np.int64)
    with pytest.raises(ValueError) as info:
        SimplicialComplex(n, sets)
    assert str(info.value) == message


def test_array_of_the_wrong_width_names_its_first_row():
    with pytest.raises(ValueError, match=r"^\(0, 1, 2\) is not a 1-simplex$"):
        SimplicialComplex(3, {0: [(0,), (1,), (2,)], 1: np.array([[1, 2, 0], [0, 1, 2]])})
