"""Two-EMA mixture optimization toolkit.

A numpy library for studying optimizers that mix a fast and a slow
exponential moving average of gradients, together with the schedules,
baselines, analytic testbeds, weight-profile analysis, and experiment
harness needed to exercise them at desk scale.
"""

from .checkpoint import (
    CheckpointData,
    CheckpointError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    load_state,
    restore_optimizer,
    save_state,
)
from .config import ConfigError, ExperimentConfig, format_config, load_config, parse_config
from .ema_weights import dema_weights, ema_weights, mixture_weights, nested_ema_weights
from .harness import (
    Experiment,
    ForgettingResult,
    RunRecord,
    RunRow,
    SweepResult,
    run_experiment,
    run_forgetting_protocol,
    run_sweep,
)
from .numerics import (
    DivergenceError,
    global_norm_clip,
    l2_norm,
    make_rng,
    spawn_rng,
)
from .optimizers import (
    Ad3EMAMix,
    AdamW,
    AdEMAMix,
    AggMo,
    AdMetaS,
    Lion,
    preseed_momentum,
    switch_optimizer,
)
from .schedules import (
    ConstantSchedule,
    HalfLifeLinearWarmup,
    LinearWarmup,
    WarmupConstantLinearDecay,
    WarmupCosineDecay,
    t_half,
    t_half_inverse,
)
from .testbeds import (
    SyntheticDataset,
    TinyMlp,
    finite_difference_grad,
    gradient_check,
    rosenbrock,
    rosenbrock_testbed,
    sharp_valley,
    sharp_valley_testbed,
)

__version__ = "0.1.0"
