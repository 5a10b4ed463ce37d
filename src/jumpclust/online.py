"""Online loop: inverse-temperature schedules and the stream runner.

Each revealed observation updates the cumulative score, after which the
next prediction is sampled from the score-tilted target.  The very first
prediction is an exact draw from the prior; every later one comes from the
transdimensional chain, warm-started at the dimension the previous step's
chain ended in.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Container, Iterable, Optional, Sequence

import numpy as np

from .chain import initial_state, run_chain
from .core import (
    RunRecord,
    StepRecord,
    StreamConfig,
    check_radius,
    seeded_rng,
    validate_observation,
)
from .posterior import TargetDensity
from .priors import sample_prior
from .proposals import StepProposals, proposal_scale
from .scoring import ScoreContext, instantaneous_loss

__all__ = [
    "TemperatureSchedule",
    "lambda_at",
    "variance_weight",
    "run_stream",
    "run_synthetic",
    "run_synthetic_repetitions",
]

# the optional fields each schedule kind reads
_KIND_FIELDS = {
    "fixed": ("value",), "horizon": ("horizon", "dim", "radius"), "anytime": ("dim", "radius"),
    "default": ("dim",), "inverse_sqrt": (), "custom": ("values",),
}

# stream-id namespaces hung off the master seed
_INIT_STREAM = 1
_CHAIN_STREAM = 2
_KMEANS_STREAM = 3
_DATA_STREAM = 4


@dataclass(frozen=True)
class TemperatureSchedule:
    """Inverse-temperature sequence (lambda_t)_{t >= 0}.

    Kinds:

    * ``fixed``: lambda_t = value for every t.
    * ``horizon``: lambda_t = (d+2) / (2 sqrt(T) R^2), constant but tuned
      to a known horizon T; asking for t > T is an error.
    * ``anytime``: lambda_t = (d+2) / (2 sqrt(t) R^2) with lambda_0 = 1.
    * ``default``: lambda_t = 0.6 (d+2) / (2 sqrt(t)) with lambda_0 = 1;
      the radius-free practical calibration and the package default.
    * ``inverse_sqrt``: lambda_t = 1/sqrt(t) with lambda_0 = 1 (the tuning
      under which the heavy-tailed-prior bounds are stated).
    * ``custom``: an explicit tuple (lambda_0, lambda_1, ...).

    All kinds emit strictly positive values; the time-varying ones are
    non-increasing for t >= 1.  ``dim`` and ``radius`` are the run's:
    :meth:`resolve` fills them in and refuses other values.
    """

    kind: str = "default"
    value: Optional[float] = None
    horizon: Optional[int] = None
    values: Optional[tuple] = None
    dim: Optional[int] = None
    radius: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _KIND_FIELDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        for name in ("value", "horizon", "values", "dim", "radius"):
            if name not in _KIND_FIELDS[self.kind] and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} schedule does not read field {name!r}")
        if self.kind == "fixed":
            if self.value is None or not 0 < self.value < math.inf:
                raise ValueError("fixed schedule needs a value > 0 and finite")
        if self.horizon is not None and not self.horizon >= 1:
            raise ValueError("horizon must be >= 1")
        if self.dim is not None and not self.dim >= 1:
            raise ValueError(f"{self.kind} schedule needs dim >= 1")
        if self.radius is not None:
            check_radius(self.radius, f"{self.kind} schedule")
        if self.kind == "custom":
            if not self.values:
                raise ValueError("custom schedule needs a non-empty values tuple")
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and 0 < v < math.inf
                       for v in self.values):
                raise ValueError("custom schedule values must be > 0 and finite")
        if self.values is not None:
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    # convenience constructors
    @classmethod
    def fixed(cls, value: float) -> "TemperatureSchedule":
        return cls("fixed", value=value)

    @classmethod
    def with_horizon(cls, dim: int, radius: float, horizon: int) -> "TemperatureSchedule":
        return cls("horizon", dim=dim, radius=radius, horizon=horizon)

    @classmethod
    def anytime(cls, dim: int, radius: float) -> "TemperatureSchedule":
        return cls("anytime", dim=dim, radius=radius)

    @classmethod
    def default(cls, dim: int) -> "TemperatureSchedule":
        return cls("default", dim=dim)

    @classmethod
    def inverse_sqrt(cls) -> "TemperatureSchedule":
        return cls("inverse_sqrt")

    @classmethod
    def custom(cls, values: Sequence[float]) -> "TemperatureSchedule":
        return cls("custom", values=tuple(values))

    def resolve(self, dim: int, radius: float) -> "TemperatureSchedule":
        """This schedule with the run's dimension and radius where its kind
        reads them; a value that differs from the run's is refused."""
        run = {name: value for name, value in (("dim", dim), ("radius", radius))
               if name in _KIND_FIELDS[self.kind]}
        for name, value in run.items():
            if getattr(self, name) not in (None, value):
                raise ValueError(f"{self.kind} schedule has {name}={getattr(self, name)!r}, "
                                 f"the run has {name}={value!r}")
        out = replace(self, **run)
        missing = [name for name in _KIND_FIELDS[self.kind] if getattr(out, name) is None]
        if missing:
            raise ValueError(f"{out.kind} schedule needs {' and '.join(missing)}")
        return out


def lambda_at(schedule: TemperatureSchedule, t: int) -> float:
    """Value lambda_t of the schedule; t counts observations (t = 0 allowed)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    kind = schedule.kind
    if any(getattr(schedule, name) is None for name in _KIND_FIELDS[kind]):
        raise ValueError(f"{kind} schedule is unresolved")
    if kind == "fixed":
        return schedule.value
    if kind == "horizon":
        if t > schedule.horizon:
            raise ValueError(f"t={t} exceeds the declared horizon {schedule.horizon}")
        return (schedule.dim + 2) / (2.0 * math.sqrt(schedule.horizon) * schedule.radius**2)
    if kind == "anytime":
        if t == 0:
            return 1.0
        return (schedule.dim + 2) / (2.0 * math.sqrt(t) * schedule.radius**2)
    if kind == "default":
        if t == 0:
            return 1.0
        return 0.6 * (schedule.dim + 2) / (2.0 * math.sqrt(t))
    if kind == "inverse_sqrt":
        return 1.0 if t == 0 else 1.0 / math.sqrt(t)
    # custom
    if t >= len(schedule.values):
        raise ValueError(f"custom schedule has no entry for t={t}")
    return schedule.values[t]


def variance_weight(cfg: StreamConfig, t_prev: int) -> float:
    """Coefficient of the score's variance term for the observation after t_prev.

    For every schedule whose values carry the theory's 1/R^2 scaling
    (fixed, horizon, anytime, inverse_sqrt, custom) this is the run's own
    lambda_{t_prev}, which is the literal online recursion.  The
    radius-free ``default`` calibration is a practical temperature only:
    reusing it as the variance coefficient inflates the quadratic term by a
    factor R^2 and makes the posterior cling to whatever losses were
    realized (new clusters then can never be adopted).  Those runs
    therefore weight the variance terms with the radius-aware anytime
    values, the coefficients the adaptive guarantee is actually stated for,
    and skip its lambda_0 = 1 anchor as well: at practical temperatures a
    unit-weight first term pins all later posteriors to the (random) first
    realized loss.
    """
    if cfg.schedule.kind == "default":
        return lambda_at(TemperatureSchedule.anytime(cfg.dim, cfg.radius), max(t_prev, 1))
    return lambda_at(cfg.schedule, t_prev)


def run_stream(
    data: Iterable,
    cfg: StreamConfig,
    rep: int = 0,
    trace_steps: Container[int] = (),
) -> RunRecord:
    """Run the online clustering loop over a stream of observations.

    The step-t record holds the prediction that was in force when x_t
    arrived, its loss, and (when t is in ``trace_steps``, a collection of
    1-based step numbers) the trace of the sampler run triggered by x_t.
    Identical (cfg, data, seed, rep) replay bit-identically.
    """
    current = sample_prior(cfg.prior, seeded_rng(cfg.seed, (_INIT_STREAM, rep)))
    observations, ref_losses, lam_prev = [], [], []  # x_s, realized loss, variance weight
    jitter_scale = cfg.radius if math.isfinite(cfg.radius) else cfg.prior_scale
    steps = []
    fits = {}  # k -> the latest k-means fit of any step, the next fit's warm start
    warned = False

    for t, raw in enumerate(data, start=1):
        x = validate_observation(raw, cfg.dim)
        if not warned and not math.isinf(cfg.radius):
            if float(np.linalg.norm(x)) > cfg.radius:
                warnings.warn(
                    f"observation at t={t} has |x|_2 > radius={cfg.radius}; the regret "
                    "guarantees assume the radius bounds the data",
                    stacklevel=2,
                )
                warned = True

        loss = instantaneous_loss(current, x)
        observations.append(x)
        ref_losses.append(loss)
        lam_prev.append(variance_weight(cfg, t - 1))

        tgt = TargetDensity(
            lambda_at(cfg.schedule, t),
            ScoreContext(observations, ref_losses, lam_prev),
            cfg.prior,
            label_weighted=cfg.label_correction,
        )
        proposals = StepProposals(
            tgt.ctx.observations,
            tau=proposal_scale(cfg.max_clusters, t + 1),
            max_clusters=cfg.max_clusters,
            rng_for_k=lambda k, _t=t: seeded_rng(cfg.seed, (_KMEANS_STREAM, rep, _t, k)),
            jitter_scale=jitter_scale,
            earlier_fits=fits,
        )
        state0 = initial_state(current.k, tgt, proposals)
        final, trace = run_chain(
            state0, cfg.chain_length, tgt, proposals, seeded_rng(cfg.seed, (_CHAIN_STREAM, rep, t))
        )

        steps.append(StepRecord(current, loss, trace if t in trace_steps else None))
        current = final.centers
        del final  # its candidate pools would otherwise live through the next step's chain

    return RunRecord(seed=cfg.seed, rep=rep, steps=tuple(steps), final_centers=current)


def run_synthetic(cfg: StreamConfig, spec, rep: int = 0):
    """Generate one synthetic stream (seeded per repetition) and run on it.

    Returns (stream, record); the stream carries the true cluster counts
    when the generator defines them.
    """
    from .datagen import generate

    stream = generate(spec, seeded_rng(cfg.seed, (_DATA_STREAM, rep)))
    record = run_stream(stream.xs, cfg, rep=rep)
    return stream, record


def run_synthetic_repetitions(cfg: StreamConfig, spec, reps: int):
    """Independent repetitions with per-repetition data and sampler streams,
    run one after another and returned in repetition order."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    return [run_synthetic(cfg, spec, rep=r) for r in range(reps)]
