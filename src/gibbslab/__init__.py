"""Numerical laboratory for run-length weak-Gibbs measures and the bit-shift
jitter channel: exact cylinder probabilities, conditional kernels with
certified error radii, entropy-rate brackets, relative-entropy diagnostics,
and brute-force oracles that re-derive every fast path."""

__version__ = "0.1.0"

from .core import (
    BINARY,
    Alphabet,
    BernoulliMeasure,
    Configuration,
    EnumerationCapError,
    MeasureProvider,
    Prob,
    ProbeResult,
    Rng,
    TableMeasure,
    Tail,
    Window,
    ZeroProbabilityError,
    as_prob,
    binary_config,
    conditional_prob,
    config,
    fair_coin,
    format_prob,
    glue,
    parse_prob,
    regularity_probe,
)
from .weak_gibbs import (
    FiniteVolumeMeasure,
    InteractionParams,
    KernelValue,
    bad_set_frequency,
    bad_tail_fraction,
    correlation_length,
    glued_convergence_table,
    hamiltonian,
    hamiltonian_tail_bound,
    in_bad_set,
    interaction_term,
    kernel_radius_enumerated,
    run_length,
    single_site_kernel,
)
from .bitshift import (
    BitShiftMeasure,
    ChannelParams,
    apply_channel,
    bad_config_table,
    block_distribution,
    block_entropy,
    capacity_search,
    cylinder_log_prob,
    cylinder_prob,
    entropy_bound_table,
    entropy_bounds,
    entropy_levels,
    is_admissible,
    simulate,
    smb_estimate,
)
from .relent import (
    RelEntReport,
    conditional_gap_probe,
    density_ratio,
    relative_entropy_density,
    tv_identity_check,
    window_relative_entropy,
)
from .oracle import (
    brute_block_entropy,
    brute_channel_cylinder,
    brute_channel_distribution,
    brute_gibbs_conditional,
)
