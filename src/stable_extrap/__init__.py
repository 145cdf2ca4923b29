"""Stable least-squares polynomial fitting and extrapolation of analytic
functions from perturbed equispaced samples.

The library fits degree-M polynomials through normal equations that stay
well conditioned for M <= sqrt(N)/2, assembles the equispaced Chebyshev Gram
matrix in O(M^2) independent of N, picks the degree that balances truncation
decay against perturbation growth, and reports computable extrapolation
error bounds together with the minimax witness showing they are sharp.
"""

from .basis import Basis, ChebyshevSeries, Grid, GridKind, SampleSet, make_grid
from .solver import FitResult, SolverError, fit
from .extrapolator import (ExtrapolationReport, PointReport, ProblemParams,
                           Regime, extrapolate)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"
