"""Two-way amplify-and-forward relaying in an underlay spectrum-sharing cell.

Library layers:

- mathkernel: special functions, adaptive quadrature, monotone root finding
- channels:   geometry, Rayleigh fading sampler, analytic SIR-component laws
- power:      average-interference water-filling power allocation
- relaying:   per-draw SIR computation plus a symbol-level oracle
- analysis:   outage probabilities, bounds, closed forms, rate curves
- expcli:     config parsing, experiment CSV driver
"""

from .analysis import (
    OutageEstimate,
    RateEstimate,
    dist_su_upper,
    outage_bs_bounds,
    outage_mc,
    rate_curve,
    su_outage_closed_form,
)
from .channels import (
    DerivedEtas,
    FadingRealization,
    PowerConfig,
    ScenarioGeometry,
    derive_etas,
    dist_gamma_ratio,
    dist_t,
    dist_v3,
    sample_fading,
)
from .mathkernel import (
    EULER_GAMMA,
    BracketError,
    IntegrationError,
    NumericTolerance,
    QuadratureResult,
    exp_e1,
    gauss_2f1,
    integrate,
    solve_root_monotone,
    tricomi_psi11,
)
from .power import (
    ClosedFormReport,
    WaterLevel,
    closed_form_check,
    constraint_lhs,
    fixed_power,
    optimal_power,
    solve_water_level,
)
from .relaying import (
    SirSample,
    relay_gain,
    sinr_bs_combine,
    sir_sample,
    symbol_level_oracle,
)
from .expcli import (
    ExperimentConfig,
    load_config,
    run_experiment,
)

__version__ = "0.1.0"
