"""Every Betti route against complexes whose homology topology fixes: tori,
the Klein bottle, spheres and wedge sums of them.  Both exact oracles read
the same face table, so a face-index or sign slip in it could make them
agree on a wrong answer; these answers do not come from either oracle."""

import pytest

from conftest import TOPOLOGY, torus
from thermaltda.homology import (
    IN_PLACE_MIN_DIM,
    INERTIA_MIN_DIM,
    betti_exact_kernel,
    betti_exact_rank,
    combinatorial_laplacian,
    laplacian_kernel,
    laplacian_spectra,
    laplacian_spectrum,
    spectrum,
)
from thermaltda.swaptest import betti_swap
from thermaltda.thermal import beta_threshold, betti_thermal


@pytest.mark.parametrize("name", TOPOLOGY)
def test_simplex_counts(name):
    cx, betti, counts = TOPOLOGY[name]
    assert tuple(cx.num_simplices(k) for k in range(cx.max_dim + 1)) == counts


@pytest.mark.parametrize("name", TOPOLOGY)
def test_every_route_gives_the_known_betti_numbers(name):
    """The assembled Laplacian's spectrum, the Hodge split one k at a time
    and every k from one Hodge split call each give the known kernel,
    thermal floor and swap floor."""
    cx, betti, _ = TOPOLOGY[name]
    for k, b in enumerate(betti):
        assert betti_exact_rank(cx, k).betti == b, k
    every_k = laplacian_spectra(cx, range(cx.max_dim + 1))
    for route in (
        lambda k: spectrum(combinatorial_laplacian(cx, k)),
        lambda k: laplacian_spectrum(cx, k),
        every_k.__getitem__,
    ):
        stable = 0
        for k, b in enumerate(betti):
            spec = route(k)
            assert betti_exact_kernel(spec) == b, k
            beta = 4.0 * beta_threshold(spec, spec.dim)
            assert betti_thermal(spec, beta).betti_floor == b, k
            est = betti_swap(spec, beta, 10**6, seed=k)
            if est.stable:
                stable += 1
                assert est.betti_floor == b, k
        assert stable >= len(betti) // 2  # the stable-floor check is not vacuous


def _check_four_torus(ks):
    cx = torus(4)
    assert tuple(cx.num_simplices(k) for k in range(5)) == (81, 1215, 4050, 4860, 1944)
    for k, spec in laplacian_spectra(cx, ks).items():
        b = (1, 4, 6, 4, 1)[k]
        assert betti_exact_kernel(spec) == b, k
        assert betti_exact_rank(cx, k).betti == b, k
        assert betti_thermal(spec, 4.0 * beta_threshold(spec, spec.dim)).betti_floor == b, k
        kernel, tol = laplacian_kernel(cx, k)
        assert kernel == b, k
        assert tol == pytest.approx(spec.tol_kernel, rel=1e-13, abs=0), k


def test_four_torus_outer_dimensions():
    """T^4 has b_k = C(4, k) = (1, 4, 6, 4, 1).  k = 0, 1 and 4 are checked
    through the kernel count, its inertia count, the GF(p) rank and the
    thermal floor; no Gram they solve has more than 1,944 levels, and k = 4
    counts that one by inertia."""
    _check_four_torus((0, 1, 4))


def test_four_torus_middle_dimensions():
    """b_2 = 6 and b_3 = 4 of T^4 by the same routes, the spectra from one
    call: both Laplacians enter d_3, from the 4,860 3-simplices to the 4,050
    2-simplices, whose 4,050-level Gram is solved in its own buffer and, on
    the exact route, counted by inertia."""
    assert max(IN_PLACE_MIN_DIM, INERTIA_MIN_DIM) <= 4050
    _check_four_torus((2, 3))


def test_klein_bottle_torsion_shows_over_gf2(monkeypatch):
    """Over GF(2) the Z/2 in H_1 reads as homology, as for RP^2."""
    monkeypatch.setattr("thermaltda.homology.PRIME", 2)
    cx = TOPOLOGY["klein-bottle"][0]
    assert [betti_exact_rank(cx, k).betti for k in range(3)] == [1, 2, 1]
