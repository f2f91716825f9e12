"""Integer-forcing precoding for the Gaussian MIMO broadcast channel.

Library layout:

- linalg: small dense complex matrix kernel (numpy inverse/det, one singularity rule)
- gaussint: exact Gaussian-integer arithmetic and the two-squares set
- msgprecode: finite-field message pre-inversion over Z_p[j]
- rates: computation rates, achievable sum rates, broadcast sum capacity
- reduction: complex LLL and shortest-independent-columns selection
- designer: DIF/RDIF precoder construction (closed-form two-user, search for more)
- baselines: ZF, RZF, ZF-DP reference schemes
- harness: Monte-Carlo trials over Rayleigh fading, CSV output
- cli: `difprec` command wrapping the harness
"""

from .baselines import design_rzf, design_zf, design_zfdp
from .designer import (
    PrecoderDesign,
    asymptotic_gap,
    build_precoder,
    design_dif_2user,
    design_dif_generalk,
    f_of_a,
    hi_snr_rate_2user,
    optimal_a_2user,
    optimal_a_2user_real,
    optimal_d0_2user,
    optimal_n,
    rho_of_channel,
    transition_rho,
)
from .gaussint import (
    GaussInt,
    IntegerCoeffMatrix,
    ceil_norm_set,
    floor_norm_set,
    in_norm_set,
    two_square_decomp,
)
from .harness import (
    ExperimentConfig,
    draw_channel,
    gap_curve,
    run_experiment,
    trial_rng,
    write_aggregate_csv,
    write_trials_csv,
)
from .msgprecode import (
    MessageMatrix,
    ModPField,
    NotInvertibleModPError,
    modp_inverse,
    modp_invertible,
    precode_messages,
    recover_message,
)
from .rates import (
    ChannelMatrix,
    DiagonalScale,
    RateReport,
    comp_rate,
    dif_rate,
    dpc_sum_capacity,
    effective_noise_var,
    gap_to_capacity,
    hi_snr_sum_capacity,
    if_sum_rate,
    optimal_alpha,
)
from .reduction import clll_reduce, reduction_objective, shortest_independent_columns

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
