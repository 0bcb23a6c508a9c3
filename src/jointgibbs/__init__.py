"""Finite-lattice potentials for joint measures of disordered spin models."""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    ConfigError,
    JointGibbsError,
    SchemeError,
    UnsupportedObservableError,
    WindowMismatchError,
)
from .lattice import (
    Box,
    SiteOrder,
    SiteSet,
    connected_components,
    linf_dist,
    r_neighborhood,
)
from .model import (
    BoundaryCondition,
    ModelSpec,
    load_model,
    make_dilute,
    make_random_bond,
    make_rfim,
    sup_delta_h_single_site,
)
from .quenched import QuenchedEnsemble
from .qkernel import QKernelContext
from .potentials import (
    ClusterPotentialTable,
    ConvergenceDiagnostic,
    NormalizingMeasure,
    PotentialTable,
    RegroupingScheme,
    center_potential,
    check_alpha_normalization,
    check_martingale,
    class_value_via_energy,
    dilute_vacuum_coeff,
    epsilon_diagnostic,
    ising_free_log_partition,
    mobius_potential,
    pair_flip_bracket,
    partial_sum,
    partial_sum_expected,
    reconstruct_conditional,
    relative_energy,
    relative_energy_table,
    shell_cell_terms,
    telescope_logq,
)
from .disorder import (
    CorrelationEstimate,
    DisorderSampler,
    c_xy,
    cbar,
    decay_budget,
)
from .stats import EstimatedValue, batch_means, slope, slope_with_ci

__all__ = [name for name in dir() if not name.startswith("_")]
