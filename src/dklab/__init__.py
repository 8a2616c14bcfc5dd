"""dklab: a numerical laboratory for the conservative square-root-noise SPDE.

The measure-valued dynamics studied here admits solutions only for integer
noise parameters with matching atomic initial data, and those solutions
are empirical measures of independent diffusions.  The subpackages build
that construction, the dual Cole-Hopf flow, the Laplace-duality tests
linking them, the generating-function extraction that witnesses
non-existence for every other parameter, and a naive grid integrator that
shows the matching practical breakdown.
"""

__version__ = "0.1.0"

from .duality import (
    DualityReport,
    default_f_suite,
    equally_spaced_atoms,
    laplace_rhs,
    pass_rate,
    run_duality_test,
    sweep,
)
from .particles import (
    EmpiricalMeasure,
    MartingaleSample,
    ParticlePath,
    QvReport,
    martingale_ensemble,
    martingale_functional,
    pair_against,
    qv_statistic,
    simulate_path,
    terminal_ensemble,
)
from .pgf import (
    AtomicityReport,
    GeneratingFunction,
    OccupationFunction,
    PgfExpansion,
    PrecisionLossError,
    atomicity_verdict,
    build_g,
    extract_coefficients_limit,
    extract_coefficients_series,
    mass_slope_probe,
    monte_carlo_pgf,
    occupation,
    series_from_bernoulli,
    verdict_from_expansion,
)
from .rng import RngStream, derive_seed
from .spde import (
    BreakdownReport,
    DensityField,
    first_negativity,
    make_field,
    negativity_ensemble,
    stability_limit,
    step,
)
from .torus import (
    FourierFunction,
    TorusDomain,
    carre_du_champ,
    fourier_moments,
    generator_L,
    heat_semigroup,
    product,
    random_fourier_suite,
    wrap,
)
from .vhj import (
    VhjField,
    check_extremum_principles,
    check_gradient_estimate,
    cole_hopf,
    residual_from_fields,
    vhj_residual,
)
