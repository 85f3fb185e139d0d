"""Degradation monitoring for episodic signals.

Detects mean degradation in signals whose consecutive length-T episodes are
i.i.d. while samples within an episode may be arbitrarily correlated and
non-stationary. Episode-level mean and covariance are estimated from
reference data; tests weight the evidence by the inverse covariance;
thresholds are calibrated by episode-level bootstrap (individual tests) and
by simulating whole sequential runs (BFAR) so the family-wise false-alarm
rate per h_tilde episodes equals alpha0.
"""

__version__ = "0.1.0"

from .bfar import (
    MonitorPlan,
    TunedMonitor,
    bfar_min_p,
    bfar_tune,
    far_verify,
    h0_stream_indices,
    load_bundle,
    replay_pvalues,
    save_bundle,
)
from .episodic import (
    EpisodeParams,
    IndexDecomposition,
    ReferenceDataset,
    decompose_index,
    downsample,
    estimate_params,
    load_params_json,
    load_reference_csv,
    params_from_dict,
    params_to_dict,
    window_weights,
)
from .errors import (
    EpimonError,
    InsufficientDataError,
    InvalidDataError,
    NotTunedError,
    ResolutionError,
    TerminalStateError,
)
from .individual import (
    BootstrapStore,
    bootstrap_distribution,
    empirical_quantile_index,
    individual_test,
    threshold_decision,
)
from .sequential import DetectionRecord, Monitor, TestEvaluation
from .stats import (
    MDT_PRESET,
    MIXED_MEAN_PDT_PRESET,
    BatchEvaluator,
    SignalWindow,
    StatisticKind,
    parse_statistic,
    statistic_value,
)
from .synthetic import (
    Scenario,
    asymptotic_power,
    generate_episodes,
    moment_oracle,
    power_gain,
    random_spd,
)

__all__ = [
    "BatchEvaluator",
    "BootstrapStore",
    "DetectionRecord",
    "EpimonError",
    "EpisodeParams",
    "IndexDecomposition",
    "InsufficientDataError",
    "InvalidDataError",
    "MDT_PRESET",
    "MIXED_MEAN_PDT_PRESET",
    "Monitor",
    "MonitorPlan",
    "NotTunedError",
    "ReferenceDataset",
    "ResolutionError",
    "Scenario",
    "SignalWindow",
    "StatisticKind",
    "TerminalStateError",
    "TestEvaluation",
    "TunedMonitor",
    "asymptotic_power",
    "bfar_min_p",
    "bfar_tune",
    "bootstrap_distribution",
    "decompose_index",
    "downsample",
    "empirical_quantile_index",
    "estimate_params",
    "far_verify",
    "generate_episodes",
    "h0_stream_indices",
    "individual_test",
    "load_bundle",
    "load_params_json",
    "load_reference_csv",
    "moment_oracle",
    "params_from_dict",
    "params_to_dict",
    "parse_statistic",
    "power_gain",
    "random_spd",
    "replay_pvalues",
    "save_bundle",
    "statistic_value",
    "threshold_decision",
    "window_weights",
]
