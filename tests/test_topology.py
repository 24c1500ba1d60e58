"""Every Betti route against complexes whose homology topology fixes: tori,
the Klein bottle, spheres and wedge sums of them.  Both exact oracles read
the same face table, so a face-index or sign slip in it could make them
agree on a wrong answer; these answers do not come from either oracle."""

import pytest

from conftest import TOPOLOGY
from thermaltda.homology import (
    betti_exact_kernel,
    betti_exact_rank,
    combinatorial_laplacian,
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
    """The assembled Laplacian's spectrum and the Hodge split that every
    command reads each give the known kernel, thermal floor and swap floor."""
    cx, betti, _ = TOPOLOGY[name]
    for k, b in enumerate(betti):
        assert betti_exact_rank(cx, k).betti == b, k
    for route in (lambda k: spectrum(combinatorial_laplacian(cx, k)), lambda k: laplacian_spectrum(cx, k)):
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


def test_klein_bottle_torsion_shows_over_gf2(monkeypatch):
    """Over GF(2) the Z/2 in H_1 reads as homology, as for RP^2."""
    monkeypatch.setattr("thermaltda.homology.PRIME", 2)
    cx = TOPOLOGY["klein-bottle"][0]
    assert [betti_exact_rank(cx, k).betti for k in range(3)] == [1, 2, 1]
