"""Stable least-squares polynomial fitting and extrapolation of analytic
functions from perturbed equispaced samples.

The library fits degree-M polynomials through normal equations that stay
well conditioned for M <= sqrt(N)/2, assembles the equispaced Chebyshev Gram
matrix in O(M^2) independent of N, picks the degree that balances truncation
decay against perturbation growth, and reports computable extrapolation
error bounds together with the minimax witness showing they are sharp.
"""

from .basis import (
    Basis,
    ChebyshevSeries,
    Grid,
    GridKind,
    LegendreSeries,
    SampleSet,
    cheb_eval,
    clenshaw_eval,
    legendre_eval,
    make_grid,
)
from .vandermonde import (
    SpectralReport,
    design_matrix,
    dominant_eigenvalue,
    dominant_singular_value,
    gram_naive,
    jacobi_eigenvalues,
    lebesgue_constant,
    spectral_report,
)
from .fastgram import (
    gram_fast,
    rhs,
)
from .solver import (
    FitResult,
    SolverError,
    basis_change_matrix,
    fit,
    legendre_to_chebyshev,
    psi,
    psi_table,
)
from .extrapolator import (
    DegreeChoice,
    ExtrapolationReport,
    MinimaxWitness,
    PointReport,
    ProblemParams,
    Regime,
    extrapolate,
    minimax_witness,
    noisy_extrapolation_bound,
    optimal_degree,
    r_alpha,
)
from .verify import (
    CheckResult,
    check_dplusc,
    check_fplusc,
    check_gram_condition,
    check_interpolation_sandwich,
    check_s_norm,
    check_singular_bounds,
    gerschgorin_interval,
    run_suite,
)
from .experiments import (
    NoiseKind,
    NoiseModel,
    Table,
    TEST_FUNCTIONS,
    bernstein_rho_from_pole,
    plateau_statistic,
    run_alpha_profile,
    run_extrapolation_decay,
    run_gram_timing,
    run_noise_plateau,
    run_singular_bounds_sweep,
)

__version__ = "0.1.0"
