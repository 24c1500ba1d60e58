"""Betti numbers of simplicial complexes from thermal-state purities.

The pipeline: build a clique complex, solve the spectrum of the
combinatorial Laplacian of a chosen dimension, and read the Betti number
off the floored inverse purity of the low-temperature Gibbs state,
cross-checked against exact homology oracles, a simulated SWAP test with
shot noise, and a dissipative Gibbs-sampler discriminant whose top
eigenvector is the thermal state's purification.
"""

__version__ = "0.1.0"

from .complexes import (
    CORPUS,
    PointCloud,
    SimplicialComplex,
    build_clique_complex,
    from_simplices,
    load_point_cloud,
    random_complex,
)
from .homology import (
    EmptySimplexSetError,
    HomologyRanks,
    Spectrum,
    ZeroSpectrumError,
    betti_exact_kernel,
    betti_exact_rank,
    boundary_matrix,
    combinatorial_laplacian,
    laplacian_kernel,
    laplacian_spectrum,
    spectral_gap,
    spectrum,
)
from .thermal import (
    SweepResult,
    ThermalEstimate,
    beta_threshold,
    betti_thermal,
    detect_trivial_kernel,
    hs_distance,
    purity,
    renyi2,
    sweep,
    uhlmann_fidelity,
)
from .swaptest import (
    StateVector,
    SwapBettiEstimate,
    SwapTestResult,
    betti_swap,
    purification_state,
    swap_test_probabilities,
    swap_test_sample,
)
from .discriminant import (
    DiscriminantModel,
    FrequencyGrid,
    GaussianWindow,
    JumpSet,
    annealing_path,
    build_discriminant,
    gaussian_window,
    make_grid,
    metropolis_weights,
    operator_fourier,
    pad_hamiltonian,
    pauli_jumps,
    top_eigenvector,
)
from .experiments import (
    PowerLawFit,
    ScalingRecord,
    ScalingResult,
    fit_power_law,
    scaling_experiment,
)
