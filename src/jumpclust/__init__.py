"""Online clustering with a time-varying number of clusters.

At every step the next set of centers (including how many there are) is
sampled from a score-tilted posterior over variable-dimension center
vectors, using a reversible-jump Metropolis-Hastings kernel with k-means
guided independence proposals.  The package also ships the evaluable
regret-bound formulas the procedure is measured against, a grid oracle for
validating the sampler on toy instances, reproducible synthetic stream
generators, and a CLI for running and replicating experiments.
"""

from .core import (
    Centers,
    KMeansConfig,
    RunRecord,
    StepRecord,
    StreamConfig,
    StreamHistory,
    dump_config,
    load_config,
    seeded_rng,
)
from .scoring import ScoreAccumulator, ScoreContext, instantaneous_loss, score
from .priors import (
    PriorSpec,
    estimate_truncation_prob,
    log_prior,
    log_q,
    sample_prior,
)
from .posterior import GridOracle, GridTooLargeError, TargetDensity, grid_oracle, log_target
from .proposals import (
    ProposalParams,
    StepProposals,
    kmeans_fit,
    proposal_scale,
    student_log_density,
    student_sample,
)
from .chain import ChainState, ChainTrace, acceptance_log_prob, propose_dimension, run_chain, step
from .online import (
    TemperatureSchedule,
    lambda_at,
    run_stream,
    run_synthetic,
    run_synthetic_repetitions,
)
from .metrics import (
    RegretReport,
    correct_k_count,
    ecl_curve,
    ocl,
    regret_bound_anytime,
    regret_bound_fixed,
    regret_bound_horizon,
    regret_bound_student,
    regret_report,
    student_dim_constant,
    student_kl_bound,
)
from .datagen import SyntheticSpec, SyntheticStream, generate, sine_drift_center, true_cluster_count

__version__ = "0.1.0"
