"""Achievable rates of decode-forward relaying in Gaussian networks.

Computes and optimizes the max-min reception rate of k-hop myopic and
omniscient decode-forward on multiple-relay chains, multiple-access relay
channels, and broadcast relay channels, with an exact discrete-channel
oracle and large-network asymptotics.
"""

from .asymptotics import (
    LargeNetworkReport,
    ZetaDivergenceError,
    ZetaValue,
    interference_bound,
    large_T_report,
    zeta,
)
from .brc import (
    BrcConfig,
    BrcOptimum,
    BrcRates,
    brc_omniscient_common_rate,
    brc_onehop_common_rate,
    brc_optimize,
)
from .channel import (
    ChannelValidationError,
    NetworkGeometry,
    PowerConfig,
    PropagationModel,
    build_linear_geometry,
    gain,
    received_power,
)
from .coding import (
    CombiningMode,
    Permutation,
    SplitMatrix,
    SplitValidationError,
    carrier_layout,
    row_lengths,
)
from .discrete import (
    DmcChannel,
    DmcRateReport,
    JointPmf,
    NodeInput,
    PmfValidationError,
    TableSizeError,
    build_joint,
    khop_dmc_rate,
    mutual_information,
    onehop_dmc_rate,
)
from .gaussian import (
    Efficiency,
    RateReport,
    ReceptionRecord,
    efficiency,
    failure_impact,
    point_to_point_rate,
    rate_report,
    reception_rate,
)
from .kernel import ChainProblem, batch_min_rate, compile_chain
from .marc import (
    MarcConfig,
    MarcOptimum,
    MarcRates,
    marc_omniscient_sumrate,
    marc_onehop_sumrate,
    marc_optimize,
)
from .optimizer import OptimumResult, optimize_rates_over_k, optimize_splits
from .sweep import ConfigError, ExperimentConfig, SweepAxis, run_experiment, validate_config

__version__ = "1.0.0"

__all__ = [
    "BrcConfig",
    "BrcOptimum",
    "BrcRates",
    "ChainProblem",
    "ChannelValidationError",
    "CombiningMode",
    "ConfigError",
    "DmcChannel",
    "DmcRateReport",
    "Efficiency",
    "ExperimentConfig",
    "JointPmf",
    "LargeNetworkReport",
    "MarcConfig",
    "MarcOptimum",
    "MarcRates",
    "NetworkGeometry",
    "NodeInput",
    "OptimumResult",
    "Permutation",
    "PmfValidationError",
    "PowerConfig",
    "PropagationModel",
    "RateReport",
    "ReceptionRecord",
    "SplitMatrix",
    "SplitValidationError",
    "SweepAxis",
    "TableSizeError",
    "ZetaDivergenceError",
    "ZetaValue",
    "batch_min_rate",
    "brc_omniscient_common_rate",
    "brc_onehop_common_rate",
    "brc_optimize",
    "build_joint",
    "build_linear_geometry",
    "carrier_layout",
    "compile_chain",
    "efficiency",
    "failure_impact",
    "gain",
    "interference_bound",
    "khop_dmc_rate",
    "large_T_report",
    "marc_omniscient_sumrate",
    "marc_onehop_sumrate",
    "marc_optimize",
    "mutual_information",
    "onehop_dmc_rate",
    "optimize_rates_over_k",
    "optimize_splits",
    "point_to_point_rate",
    "rate_report",
    "received_power",
    "reception_rate",
    "row_lengths",
    "run_experiment",
    "validate_config",
    "zeta",
]
