import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS_BETTI, TOPOLOGY, random_complex_family, svd_rank
from thermaltda.complexes import from_simplices, random_complex
from thermaltda.homology import (
    EmptySimplexSetError,
    ZeroSpectrumError,
    betti_exact_kernel,
    betti_exact_rank,
    boundary_matrix,
    combinatorial_laplacian,
    face_gram,
    laplacian_kernel,
    laplacian_spectra,
    laplacian_spectrum,
    simplex_gram,
    spectral_gap,
    spectrum,
    _boundary_levels,
    _gram_dim,
    _levels_below,
    _pivot_rows,
    _smaller_gram,
    _tolerance,
)

HOLLOW_L1 = np.array([[2.0, 1.0, -1.0], [1.0, 2.0, 1.0], [-1.0, 1.0, 2.0]])

# the 6-vertex real projective plane: rational Betti numbers (1, 0, 0), and a
# Z/2 in H_1 that makes its Betti numbers over GF(2) (1, 1, 1)
RP2_TRIANGLES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5),
]

# random clique complexes on at most 9 vertices, every dimension up to the top
CLIQUE_COMPLEXES = st.builds(
    lambda n, p, seed: random_complex(n, p, n - 1, seed),
    st.integers(3, 9),
    st.floats(0.2, 0.95),
    st.integers(0, 2**32 - 1),
)
PROPERTY = settings(derandomize=True, database=None, deadline=None)


@pytest.fixture(scope="module")
def criterion_1_family():
    """The 200 random clique complexes of acceptance criterion 1."""
    rng = np.random.default_rng(2024)
    family = []
    for i in range(200):
        n = int(rng.integers(4, 9))
        p = float(rng.uniform(0.2, 0.95))
        family.append(random_complex(n, p, n - 1, seed=5000 + i))
    return family


class TestBoundaryMatrix:
    def test_hollow_triangle_columns(self, corpus):
        # rows are vertices 0,1,2; columns the sorted edges
        b1 = boundary_matrix(corpus["hollow-triangle"], 1).toarray()
        np.testing.assert_array_equal(
            b1, [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
        )

    def test_filled_triangle_face_column(self, corpus):
        # removing vertex l of (0,1,2) gives sign (-1)^l at rows (1,2),(0,2),(0,1)
        b2 = boundary_matrix(corpus["filled-triangle"], 2).toarray()
        np.testing.assert_array_equal(b2, [[1], [-1], [1]])

    def test_empty_domain_gives_zero_columns(self, corpus):
        b2 = boundary_matrix(corpus["hollow-triangle"], 2)
        assert b2.shape == (3, 0)

    def test_k_zero_rejected(self, corpus):
        with pytest.raises(ValueError):
            boundary_matrix(corpus["hollow-triangle"], 0)

    def test_chain_complex_identity_integer_exact(self):
        for cx in random_complex_family(25):
            for k in range(1, cx.max_dim + 1):
                prod = boundary_matrix(cx, k) @ boundary_matrix(cx, k + 1)
                assert prod.nnz == 0  # exactly zero in integer arithmetic

    def test_matches_face_loop_reference(self):
        """Equal to the face-by-face definition: column s has (-1)^l at the
        row of s with its l-th vertex deleted."""
        for cx in random_complex_family(25):
            for k in range(1, cx.max_dim + 2):
                rows = {s: i for i, s in enumerate(cx.simplices(k - 1))}
                expected = np.zeros((len(rows), cx.num_simplices(k)), dtype=np.int64)
                for j, s in enumerate(cx.simplices(k)):
                    for l in range(k + 1):
                        expected[rows[s[:l] + s[l + 1:]], j] = (-1) ** l
                b = boundary_matrix(cx, k)
                assert b.dtype == np.int64 and b.nnz == np.count_nonzero(expected)
                np.testing.assert_array_equal(b.toarray(), expected)


class TestLaplacian:
    def test_hollow_triangle_k1(self, corpus):
        lap = combinatorial_laplacian(corpus["hollow-triangle"], 1)
        np.testing.assert_array_equal(lap, HOLLOW_L1)

    def test_filled_triangle_k1_is_three_identity(self, corpus):
        lap = combinatorial_laplacian(corpus["filled-triangle"], 1)
        np.testing.assert_array_equal(lap, 3.0 * np.eye(3))

    def test_single_vertex_k0_is_zero(self):
        cx = from_simplices(1, [])
        np.testing.assert_array_equal(combinatorial_laplacian(cx, 0), [[0.0]])

    def test_empty_set_raises(self, corpus):
        with pytest.raises(EmptySimplexSetError):
            combinatorial_laplacian(corpus["hollow-triangle"], 2)

    def test_size_cap(self, monkeypatch):
        cx = from_simplices(5, [])
        monkeypatch.setattr("thermaltda.homology.MAX_LAPLACIAN_DIM", 5)
        assert combinatorial_laplacian(cx, 0).shape == (5, 5)
        monkeypatch.setattr("thermaltda.homology.MAX_LAPLACIAN_DIM", 4)

        def unbuilt(*args):
            raise AssertionError("boundary matrix built past the cap")

        monkeypatch.setattr("thermaltda.homology.boundary_matrix", unbuilt)
        with pytest.raises(ValueError, match="Laplacian cap of 4"):
            combinatorial_laplacian(cx, 0)

    def test_symmetric_psd_on_random_family(self):
        for cx in random_complex_family(15):
            for k in range(cx.max_dim + 1):
                lap = combinatorial_laplacian(cx, k)
                assert np.array_equal(lap, lap.T)
                assert np.linalg.eigvalsh(lap)[0] > -1e-9 * max(1.0, np.abs(lap).max())

    def test_full_simplex_law(self):
        # complete complex on N vertices: Laplacian is N * identity for 0 < k < N-1
        for n in (3, 4, 5):
            cx = random_complex(n, 1.0, n - 1, seed=0)
            for k in range(1, n - 1):
                lap = combinatorial_laplacian(cx, k)
                np.testing.assert_array_equal(lap, n * np.eye(cx.num_simplices(k)))


class TestGrams:
    def test_equal_the_boundary_products(self, corpus):
        """Both Grams equal the products of the sparse boundary, exactly, up
        to one dimension above the top, where the boundary has no columns."""
        family = [*random_complex_family(30), *corpus.values(), *(t[0] for t in TOPOLOGY.values())]
        for cx in family:
            for k in range(1, cx.max_dim + 2):
                b = boundary_matrix(cx, k).toarray().astype(float)
                faces, simplices = face_gram(cx, k), simplex_gram(cx, k)
                assert faces.dtype == simplices.dtype == float
                assert np.array_equal(faces, b @ b.T), k
                assert np.array_equal(simplices, b.T @ b), k

    def test_empty_sides(self, corpus):
        hollow = corpus["hollow-triangle"]
        np.testing.assert_array_equal(face_gram(hollow, 2), np.zeros((3, 3)))
        assert simplex_gram(hollow, 2).shape == (0, 0)
        point = from_simplices(1, [])
        np.testing.assert_array_equal(face_gram(point, 1), [[0.0]])
        assert simplex_gram(point, 1).shape == (0, 0)

    def test_laplacian_is_their_sum(self):
        for cx in random_complex_family(15):
            for k in range(cx.max_dim + 1):
                up = boundary_matrix(cx, k + 1)
                lap = up @ up.T
                if k >= 1:
                    down = boundary_matrix(cx, k)
                    lap = lap + down.T @ down
                assert np.array_equal(combinatorial_laplacian(cx, k), lap.toarray().astype(float))


class TestHodgeSplit:
    def test_matches_the_full_eigensolve(self, criterion_1_family):
        """Within 1e-10 * max(1, lambda_max) of the Laplacian's own spectrum,
        with the same kernel count and the same tolerance up to rounding."""
        family = [*criterion_1_family, *(t[0] for t in TOPOLOGY.values())]
        for i, cx in enumerate(family):
            for k in range(cx.max_dim + 1):
                full = spectrum(combinatorial_laplacian(cx, k))
                split = laplacian_spectrum(cx, k)
                scale = max(1.0, float(full.eigenvalues[-1]))
                assert split.dim == full.dim
                assert np.abs(split.eigenvalues - full.eigenvalues).max() <= 1e-10 * scale, (i, k)
                assert split.kernel_dim == full.kernel_dim, (i, k)
                assert split.tol_kernel == pytest.approx(full.tol_kernel, rel=1e-13, abs=0), (i, k)

    def test_kernel_is_exact_zeros(self):
        for cx in random_complex_family(15):
            for k in range(cx.max_dim + 1):
                spec = laplacian_spectrum(cx, k)
                assert np.all(np.diff(spec.eigenvalues) >= 0.0)
                assert np.all(spec.eigenvalues[: spec.kernel_dim] == 0.0)
                assert spec.eigenvalues[spec.kernel_dim :].min(initial=np.inf) >= spec.tol_kernel

    def test_hollow_triangle(self, corpus):
        spec = laplacian_spectrum(corpus["hollow-triangle"], 1)
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)
        assert spec.eigenvalues[0] == 0.0 and spec.kernel_dim == 1

    def test_boundary_levels_solve_the_smaller_gram(self, corpus):
        cx = random_complex(9, 0.8, 4, 3)
        for k in range(1, cx.max_dim + 1):
            top, levels = _boundary_levels(cx, k)
            assert levels.size == min(cx.num_simplices(k - 1), cx.num_simplices(k)) and top == levels[-1]
        for k in (0, cx.max_dim + 1):
            top, empty = _boundary_levels(cx, k)
            assert empty.size == 0 and _tolerance(top) == 1e-8

    def test_boundary_levels_are_the_checked_solve(self, corpus):
        """The Gram that _boundary_levels builds skips spectrum()'s checks
        for outside input and gets spectrum()'s answer byte for byte."""
        family = [
            *corpus.values(),
            *(t[0] for t in TOPOLOGY.values()),
            *random_complex_family(30, max_vertices=10, seed=31),
        ]
        for i, cx in enumerate(family):
            for j in range(1, cx.max_dim + 2):
                (top, got), want = _boundary_levels(cx, j), spectrum(_smaller_gram(cx, j))
                assert got.dtype == want.eigenvalues.dtype, (i, j)
                assert got.tobytes() == want.eigenvalues.tobytes(), (i, j)
                assert _tolerance(top) == want.tol_kernel, (i, j)

    def test_tolerance_is_the_larger_side(self, monkeypatch):
        """Both routes read one split: a level of either boundary below the
        larger side's tolerance joins the kernel."""
        import thermaltda.homology as homology

        sides = {0: np.array([0.0, 2.0]), 1: np.array([1e-9, 5.0, 500.0])}
        monkeypatch.setattr(homology, "_boundary_levels", lambda cx, j, counts_only=False: (sides[j][-1], sides[j]))
        cx = from_simplices(4, [])
        spec = laplacian_spectra(cx, [0])[0]
        np.testing.assert_array_equal(spec.eigenvalues, [0.0, 2.0, 5.0, 500.0])
        assert spec.tol_kernel == 5e-6 and spec.kernel_dim == 1
        assert laplacian_kernel(cx, 0) == (1, 5e-6)

    def test_zero_laplacian(self):
        spec = laplacian_spectrum(from_simplices(3, []), 0)
        np.testing.assert_array_equal(spec.eigenvalues, np.zeros(3))
        assert spec.tol_kernel == 1e-8 and spec.kernel_dim == 3

    def test_spectra_are_the_single_k_spectra(self):
        """Every k from one call, bit for bit as asked one k at a time, in
        the order asked, each boundary solved once."""
        for cx in random_complex_family(25):
            ks = list(range(cx.max_dim, -1, -1))
            spectra = laplacian_spectra(cx, ks)
            assert list(spectra) == ks
            for k in ks:
                single = laplacian_spectrum(cx, k)
                np.testing.assert_array_equal(spectra[k].eigenvalues, single.eigenvalues)
                assert spectra[k].tol_kernel == single.tol_kernel

    def test_spectra_solve_each_boundary_once(self, monkeypatch):
        import thermaltda.homology as homology

        solved = []
        solve = homology._boundary_levels
        monkeypatch.setattr(homology, "_boundary_levels", lambda cx, j, *a: solved.append(j) or solve(cx, j, *a))
        laplacian_spectra(random_complex(8, 0.7, 3, 5), [3, 1, 2, 1])
        assert sorted(solved) == [1, 2, 3, 4]

    def test_checks_run_before_anything_is_built(self, corpus, monkeypatch):
        with pytest.raises(EmptySimplexSetError):
            laplacian_spectrum(corpus["hollow-triangle"], 2)

        def unbuilt(*args):
            raise AssertionError("Gram matrix built past the cap")

        monkeypatch.setattr("thermaltda.homology.MAX_LAPLACIAN_DIM", 2)
        monkeypatch.setattr("thermaltda.homology.face_gram", unbuilt)
        monkeypatch.setattr("thermaltda.homology.simplex_gram", unbuilt)
        with pytest.raises(ValueError, match="Laplacian cap of 2"):
            laplacian_spectrum(corpus["hollow-triangle"], 1)


class TestSpectrum:
    def test_hollow_triangle_spectrum(self, corpus):
        spec = spectrum(combinatorial_laplacian(corpus["hollow-triangle"], 1))
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)
        assert spec.kernel_dim == 1

    def test_zero_matrix(self):
        spec = spectrum(np.zeros((4, 4)))
        assert spec.kernel_dim == 4
        np.testing.assert_array_equal(spec.eigenvalues, np.zeros(4))

    def test_three_identity(self):
        spec = spectrum(3.0 * np.eye(3))
        assert spec.kernel_dim == 0

    def test_eigenvector_orthonormality(self, corpus):
        spec = spectrum(combinatorial_laplacian(corpus["octahedron-boundary"], 1), with_vectors=True)
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.abs(gram - np.eye(spec.dim)).max() <= 1e-10

    def test_relative_tolerance_scales(self):
        # scaling the Laplacian must not change the kernel classification
        lap = HOLLOW_L1 * 1e6
        assert spectrum(lap).kernel_dim == 1

    def test_asymmetric_rejected(self):
        """Not real symmetric: an asymmetric matrix, and a Hermitian one whose
        imaginary part a float conversion would drop (its levels are +-1)."""
        for bad in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0, 1j], [-1j, 0]])):
            with pytest.raises(ValueError):
                spectrum(bad)

    def test_empty_matrix(self):
        """A 0 x 0 matrix has the empty spectrum, with the tolerance of an
        empty boundary."""
        for with_vectors in (False, True):
            spec = spectrum(np.zeros((0, 0)), with_vectors=with_vectors)
            assert spec.dim == 0 and spec.kernel_dim == 0
            assert spec.tol_kernel == _tolerance(_boundary_levels(from_simplices(1, []), 0)[0]) == 1e-8

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            spectrum(np.array([[1.0, 2.0], [2.0, bad]]))

    def test_leaves_the_callers_matrix(self, corpus):
        lap = combinatorial_laplacian(corpus["octahedron-boundary"], 1)
        for matrix in (lap, np.asfortranarray(lap)):
            before = matrix.copy()
            for with_vectors in (False, True):
                spectrum(matrix, with_vectors=with_vectors)
                np.testing.assert_array_equal(matrix, before)


class TestInPlaceSolve:
    """A Gram of IN_PLACE_MIN_DIM levels or more is solved in its own buffer;
    with the constant at 1 every Gram is, so each answer is read off both
    branches."""

    def test_both_branches_give_the_same_spectra(self, corpus, monkeypatch):
        family = [
            *corpus.values(),
            *(t[0] for t in TOPOLOGY.values()),
            *random_complex_family(30, max_vertices=10, seed=29),
        ]
        copying = [laplacian_spectra(cx, range(cx.max_dim + 1)) for cx in family]

        def unused(*args, **kwargs):
            raise AssertionError("a Gram went through the copying solve")

        monkeypatch.setattr("thermaltda.homology.IN_PLACE_MIN_DIM", 1)
        monkeypatch.setattr(np.linalg, "eigvalsh", unused)
        for i, (cx, before) in enumerate(zip(family, copying)):
            for k, spec in laplacian_spectra(cx, range(cx.max_dim + 1)).items():
                ref = before[k]
                scale = max(1.0, float(ref.eigenvalues[-1]))
                assert spec.kernel_dim == ref.kernel_dim, (i, k)
                assert spec.tol_kernel == ref.tol_kernel, (i, k)
                assert np.abs(spec.eigenvalues - ref.eigenvalues).max() <= 1e-12 * scale, (i, k)


class TestInertiaCount:
    """A Gram of INERTIA_MIN_DIM levels or more counts its kernel by the
    inertia of one LDL^T; with the constant at its floor of 2 every Gram of
    two levels or more does."""

    @staticmethod
    def _built_matrices():
        """Symmetric matrices with zero or tiny diagonals, where Bunch-Kaufman
        must take 2 x 2 pivots, and singular ones whose LDL^T at tol = 0
        meets an exact zero pivot, each with the tolerances to count at."""
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        yield swap, (0.0, 0.5, 1e-8, -0.5)
        yield np.kron(np.eye(3), swap) + np.diag([0, 0, 2, 2, -3, -3.0]), (0.0, 1e-8, 2.5)
        yield np.diag([0.0, 1.0, -1.0]), (0.0,)
        yield np.ones((2, 2)), (0.0,)
        rng = np.random.default_rng(30)
        for n in (4, 9, 30, 80):
            for _ in range(5):
                a = rng.integers(-2, 3, (n, n)).astype(float)
                a = np.triu(a, 1) + np.triu(a, 1).T
                # integer matrices have no eigenvalue at +-1/2: no count rests on rounding
                yield a, (0.5, -0.5)

    def test_counts_match_eigvalsh(self):
        from scipy.linalg import lapack

        two_by_two = zero_pivot = 0
        for matrix, tols in self._built_matrices():
            evals = np.linalg.eigvalsh(matrix)
            for tol in tols:
                shifted = matrix - tol * np.eye(len(matrix))
                _, pivots, info = lapack.dsytrf(shifted)
                two_by_two += np.count_nonzero(pivots < 0) // 2
                zero_pivot += info > 0
                gram = matrix.copy()
                assert _levels_below(gram, tol) == np.count_nonzero(evals < tol), (matrix, tol)
        assert two_by_two > 0 and zero_pivot > 0  # both branches of D are reached

    def test_overwrites_the_matrix_in_place(self):
        gram = simplex_gram(random_complex(8, 0.7, 3, 5), 2)
        before = gram.copy()
        _levels_below(gram, 0.5)
        assert not np.array_equal(gram, before)

    def test_both_branches_give_the_same_kernels(self, corpus, monkeypatch):
        family = [
            *corpus.values(),
            *(t[0] for t in TOPOLOGY.values()),
            *random_complex_family(30, max_vertices=10, seed=31),
        ]
        spectra = [laplacian_spectra(cx, range(cx.max_dim + 1)) for cx in family]
        for cx, before in zip(family, spectra):
            for k, ref in before.items():
                assert laplacian_kernel(cx, k) == (ref.kernel_dim, ref.tol_kernel), k
        monkeypatch.setattr("thermaltda.homology.INERTIA_MIN_DIM", 2)
        counted = 0
        for i, (cx, before) in enumerate(zip(family, spectra)):
            for k, ref in before.items():
                kernel, tol = laplacian_kernel(cx, k)
                counted += any(_gram_dim(cx, j) >= 2 for j in (k, k + 1))
                assert kernel == ref.kernel_dim, (i, k)
                assert tol == pytest.approx(ref.tol_kernel, rel=1e-13, abs=0), (i, k)
        assert counted > 100

    def test_holds_one_dense_gram_at_a_time(self, monkeypatch):
        """Both Grams large: the tolerance comes from the sparse boundaries
        first, then each dense Gram is built and factored in turn."""
        import thermaltda.homology as homology

        live = []
        build = homology._smaller_gram
        count = homology._levels_below

        def built(cx, j):
            assert not live, "a second dense Gram built while one is alive"
            live.append(j)
            return build(cx, j)

        def factored(gram, tol):
            live.pop()
            return count(gram, tol)

        cx = random_complex(9, 0.7, 4, 3)
        assert min(_gram_dim(cx, 2), _gram_dim(cx, 3)) >= 2
        ref = laplacian_spectrum(cx, 2).kernel_dim
        monkeypatch.setattr(homology, "INERTIA_MIN_DIM", 2)
        monkeypatch.setattr(homology, "_smaller_gram", built)
        monkeypatch.setattr(homology, "_levels_below", factored)
        assert laplacian_kernel(cx, 2)[0] == ref
        assert not live

    def test_checks_run_first(self, corpus, monkeypatch):
        with pytest.raises(EmptySimplexSetError):
            laplacian_kernel(corpus["hollow-triangle"], 2)

        def unbuilt(*args):
            raise AssertionError("boundary or Gram matrix built past the cap")

        monkeypatch.setattr("thermaltda.homology.MAX_LAPLACIAN_DIM", 2)
        for name in ("boundary_matrix", "face_gram", "simplex_gram"):
            monkeypatch.setattr(f"thermaltda.homology.{name}", unbuilt)
        with pytest.raises(ValueError, match="Laplacian cap of 2"):
            laplacian_kernel(corpus["hollow-triangle"], 1)


class TestBettiOracles:
    def test_corpus_values_both_routes(self, corpus):
        for name, expected in CORPUS_BETTI.items():
            cx = corpus[name]
            for k, betti in expected.items():
                spec = spectrum(combinatorial_laplacian(cx, k))
                assert betti_exact_kernel(spec) == betti, (name, k)
                assert betti_exact_rank(cx, k).betti == betti, (name, k)

    def test_two_disjoint_edges_components(self, corpus):
        ranks = betti_exact_rank(corpus["two-components"], 0)
        assert ranks.dim_ker_dk == 4 and ranks.rank_dk1 == 2 and ranks.betti == 2

    def test_hollow_triangle_rank_split(self, corpus):
        ranks = betti_exact_rank(corpus["hollow-triangle"], 1)
        assert (ranks.dim_ker_dk, ranks.rank_dk1) == (1, 0)

    def test_filled_triangle_rank_split(self, corpus):
        ranks = betti_exact_rank(corpus["filled-triangle"], 1)
        assert (ranks.dim_ker_dk, ranks.rank_dk1) == (1, 1)

    def test_oracle_agreement_on_random_family(self):
        for cx in random_complex_family(40):
            for k in range(cx.max_dim + 1):
                spec = spectrum(combinatorial_laplacian(cx, k))
                assert betti_exact_kernel(spec) == betti_exact_rank(cx, k).betti

    @PROPERTY
    @given(cx=CLIQUE_COMPLEXES)
    def test_euler_poincare_on_random_family(self, cx):
        """Sum (-1)^k b_k = sum (-1)^k m_k, with b_k the kernel counts; on the
        rank route the identity telescopes and would check nothing."""
        chi_simplices = sum((-1) ** k * cx.num_simplices(k) for k in range(cx.max_dim + 1))
        chi_betti = sum(
            (-1) ** k * betti_exact_kernel(spectrum(combinatorial_laplacian(cx, k)))
            for k in range(cx.max_dim + 1)
        )
        assert chi_simplices == chi_betti


class TestExactRank:
    @PROPERTY
    @given(cx=CLIQUE_COMPLEXES)
    def test_matches_svd_reference(self, cx):
        for k in range(cx.max_dim + 1):
            rank_dk = svd_rank(boundary_matrix(cx, k)) if k >= 1 else 0
            expected = (cx.num_simplices(k) - rank_dk, svd_rank(boundary_matrix(cx, k + 1)))
            ranks = betti_exact_rank(cx, k)
            assert (ranks.dim_ker_dk, ranks.rank_dk1) == expected, k

    def test_clearing_keeps_the_rank(self):
        """delta^j reduced with the pivot rows of delta^{j-1} skipped has the
        pivot count of delta^j reduced whole, the rank of d_{j+1}."""
        cleared_any = False
        for seed in range(3):
            cx = random_complex(14, 0.6, 4, seed)
            skip = set()
            for j in range(cx.max_dim + 1):
                faces = cx.face_table(j + 1)
                pivots = _pivot_rows(faces, skip=skip)
                rank = svd_rank(boundary_matrix(cx, j + 1))
                assert len(pivots) == len(_pivot_rows(faces)) == rank, (seed, j)
                cleared_any |= bool(skip)
                skip = pivots
        assert cleared_any

    def test_builds_no_boundary_matrix(self, corpus, monkeypatch):
        """The rank route reduces the complex's face tables directly."""

        def unbuilt(*args):
            raise AssertionError("boundary matrix built by the rank oracle")

        monkeypatch.setattr("thermaltda.homology.boundary_matrix", unbuilt)
        for name, expected in CORPUS_BETTI.items():
            for k, betti in expected.items():
                assert betti_exact_rank(corpus[name], k).betti == betti, (name, k)

    def test_rp2_has_rational_betti_numbers(self):
        cx = from_simplices(6, RP2_TRIANGLES)
        for k, betti in enumerate((1, 0, 0)):
            assert betti_exact_rank(cx, k).betti == betti, k
            assert betti_exact_kernel(spectrum(combinatorial_laplacian(cx, k))) == betti, k

    def test_rp2_torsion_shows_over_gf2(self, monkeypatch):
        """Over GF(2) the torsion of RP^2 reads as homology: the test above
        would catch an oracle that worked mod 2."""
        monkeypatch.setattr("thermaltda.homology.PRIME", 2)
        cx = from_simplices(6, RP2_TRIANGLES)
        assert [betti_exact_rank(cx, k).betti for k in range(3)] == [1, 1, 1]


class TestSpectralGap:
    def test_hollow_triangle(self, corpus):
        spec = spectrum(combinatorial_laplacian(corpus["hollow-triangle"], 1))
        assert spectral_gap(spec) == pytest.approx(3.0, abs=1e-12)

    def test_no_kernel_returns_min_eigenvalue(self):
        assert spectral_gap(spectrum(3.0 * np.eye(3))) == pytest.approx(3.0)

    def test_zero_spectrum_rejected(self):
        with pytest.raises(ZeroSpectrumError):
            spectral_gap(spectrum(np.zeros((2, 2))))
