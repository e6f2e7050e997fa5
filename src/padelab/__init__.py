"""padelab: Pade approximants, chordal approximation and path integration.

The package is organized around seven areas:

* :mod:`padelab.series` -- polynomials, truncated power series and rational
  functions, evaluated on points or arrays (a non-finite value is the point
  at infinity);
* :mod:`padelab.pade` -- Hankel normality tests and Pade construction;
* :mod:`padelab.sphere` -- the chordal metric, sampled sup distances and
  dyadic coefficient rounding;
* :mod:`padelab.construct` -- two-set polynomial fitting, universality
  certificates and the pipeline that certifies a fit, principal parts,
  residue correction, the antiderivative cascade and the coefficient
  Volterra operator;
* :mod:`padelab.domains` -- disc/starlike/corridor domains, bounded
  joining paths, adaptive path integration and contour moment tests;
* :mod:`padelab.blowup` -- the unbounded-antiderivative experiment on the
  boundary of the pinched disc;
* :mod:`padelab.cli` -- the command-line front end.
"""

from .blowup import (
    DivergenceReport,
    DivergenceRow,
    arg_cauchy_gaps,
    boundary_arg,
    boundary_integrand,
    comparator_value,
    divergence_experiment,
    orthocircle_invariants,
    pinch_map,
    pinch_map_derivative,
    singular_inner,
)
from .construct import (
    FitReport,
    PipelineResult,
    UniversalityCertificate,
    antiderivative_cascade,
    denominator_poles,
    laurent_coefficients,
    principal_parts,
    residue_correction,
    two_set_poly_fit,
    universality_certificate,
    universality_pipeline,
    volterra_apply,
)
from .domains import (
    CirclePath,
    CorridorDomain,
    DiscDomain,
    DomainSpec,
    PathBudget,
    PolylinePath,
    StarlikeDomain,
    antiderivative_at,
    bounded_path,
    moment_test,
    path_integral,
    starlike_antiderivative,
)
from .errors import (
    NumericError,
    PadeLabError,
    PreconditionError,
)
from .pade import (
    CommonZeroMargin,
    NormalityResult,
    PadeApproximant,
    common_zero_margin,
    evaluate_extended,
    evaluate_extended_array,
    hankel_determinant,
    normality,
    pade_construct,
)
from .samples import CompactSample, circle_sample, disc_grid_sample, segment_sample
from .series import (
    Polynomial,
    PowerSeries,
    RationalFunction,
    derivative_values,
    partial_sum,
    polynomial_gcd,
    rational_normalize,
    series_builtin,
    taylor_of_rational,
    values_on,
)
from .sphere import (
    SupChordal,
    chordal,
    chordal_array,
    dyadic_round,
    rationalize_coefficients,
    sup_chordal,
)

__version__ = "0.1.0"
