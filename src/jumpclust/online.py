"""Online loop: inverse-temperature schedules and the stream runner.

Each revealed observation updates the cumulative score, after which the
next prediction is sampled from the score-tilted target.  The very first
prediction is an exact draw from the prior; every later one comes from the
transdimensional chain, warm-started at the dimension the previous step's
chain ended in.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .chain import initial_state, run_chain
from .core import (
    RunRecord,
    StepRecord,
    StreamConfig,
    StreamHistory,
    seeded_rng,
    validate_observation,
)
from .posterior import TargetDensity
from .priors import PriorSpec, sample_prior
from .proposals import StepProposals, proposal_scale
from .scoring import ScoreContext, instantaneous_loss

__all__ = [
    "TemperatureSchedule",
    "lambda_at",
    "variance_weight_schedule",
    "run_stream",
    "run_synthetic",
    "run_synthetic_repetitions",
]

_KINDS = ("fixed", "horizon", "anytime", "default", "inverse_sqrt", "custom")

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
    non-increasing for t >= 1.
    """

    kind: str
    value: Optional[float] = None
    horizon: Optional[int] = None
    values: Optional[tuple] = None
    dim: Optional[int] = None
    radius: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "fixed":
            if self.value is None or self.value <= 0:
                raise ValueError("fixed schedule needs value > 0")
        if self.kind == "horizon" and self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.kind == "custom":
            if not self.values:
                raise ValueError("custom schedule needs a non-empty values tuple")
            if any(v <= 0 for v in self.values):
                raise ValueError("custom schedule values must be > 0")
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
        """Fill dimension/radius from the run configuration where missing."""
        out = self
        if self.kind in ("horizon", "anytime", "default") and self.dim is None:
            out = replace(out, dim=dim)
        if self.kind in ("horizon", "anytime") and out.radius is None:
            out = replace(out, radius=radius)
        if out.kind in ("horizon", "anytime"):
            if out.dim is None or out.radius is None:
                raise ValueError(f"{out.kind} schedule needs dim and radius")
            if math.isinf(out.radius):
                raise ValueError(f"{out.kind} schedule needs a finite radius")
            if out.kind == "horizon" and out.horizon is None:
                raise ValueError("horizon schedule needs its horizon")
        if out.kind == "default" and out.dim is None:
            raise ValueError("default schedule needs dim")
        return out


def lambda_at(schedule: TemperatureSchedule, t: int) -> float:
    """Value lambda_t of the schedule; t counts observations (t = 0 allowed)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    kind = schedule.kind
    if kind == "fixed":
        return schedule.value
    if kind == "horizon":
        if schedule.horizon is None or schedule.dim is None or schedule.radius is None:
            raise ValueError("horizon schedule is unresolved")
        if t > schedule.horizon:
            raise ValueError(f"t={t} exceeds the declared horizon {schedule.horizon}")
        return (schedule.dim + 2) / (2.0 * math.sqrt(schedule.horizon) * schedule.radius**2)
    if kind == "anytime":
        if schedule.dim is None or schedule.radius is None:
            raise ValueError("anytime schedule is unresolved")
        if t == 0:
            return 1.0
        return (schedule.dim + 2) / (2.0 * math.sqrt(t) * schedule.radius**2)
    if kind == "default":
        if schedule.dim is None:
            raise ValueError("default schedule is unresolved")
        if t == 0:
            return 1.0
        return 0.6 * (schedule.dim + 2) / (2.0 * math.sqrt(t))
    if kind == "inverse_sqrt":
        return 1.0 if t == 0 else 1.0 / math.sqrt(t)
    # custom
    if t >= len(schedule.values):
        raise ValueError(f"custom schedule has no entry for t={t}")
    return schedule.values[t]


TraceSteps = Union[None, str, set, frozenset]


def _want_trace(trace_steps: TraceSteps, t: int) -> bool:
    if trace_steps is None:
        return False
    if trace_steps == "all":
        return True
    return t in trace_steps


def variance_weight_schedule(cfg: StreamConfig) -> TemperatureSchedule:
    """Schedule supplying the score's variance-term coefficients.

    For every schedule whose values carry the theory's 1/R^2 scaling
    (fixed, horizon, anytime, inverse_sqrt, custom) the run's own schedule
    is used, which is the literal online recursion.  The radius-free
    ``default`` calibration is a practical temperature only: reusing it as
    the variance coefficient inflates the quadratic term by a factor R^2
    and makes the posterior cling to whatever losses were realized (new
    clusters then can never be adopted).  Those runs therefore weight the
    variance terms with the radius-aware anytime values, the coefficients
    the adaptive guarantee is actually stated for.
    """
    if cfg.schedule.kind == "default":
        return TemperatureSchedule.anytime(cfg.dim, cfg.radius)
    return cfg.schedule


def _variance_weight(cfg: StreamConfig, weights: TemperatureSchedule, t_prev: int) -> float:
    if cfg.schedule.kind == "default":
        # skip the lambda_0 = 1 anchor as well: at practical temperatures a
        # unit-weight first term pins all later posteriors to the (random)
        # first realized loss
        return lambda_at(weights, max(t_prev, 1))
    return lambda_at(weights, t_prev)


def run_stream(
    data: Iterable,
    cfg: StreamConfig,
    rep: int = 0,
    trace_steps: TraceSteps = None,
) -> RunRecord:
    """Run the online clustering loop over a stream of observations.

    The step-t record holds the prediction that was in force when x_t
    arrived, its loss, and (when requested through ``trace_steps``, a set
    of step indices or ``"all"``) the trace of the sampler run triggered
    by x_t.  Identical (cfg, data, seed, rep) replay bit-identically.
    """
    prior = PriorSpec.from_config(cfg)
    current = sample_prior(prior, seeded_rng(cfg.seed, (_INIT_STREAM, rep)))
    history = StreamHistory(cfg.dim)
    history.outputs.append(current)
    jitter_scale = cfg.radius if math.isfinite(cfg.radius) else cfg.prior_scale
    weights = variance_weight_schedule(cfg)
    steps = []
    cum = 0.0
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
        cum += loss
        history.append_step(x, loss, _variance_weight(cfg, weights, t - 1))

        tgt = TargetDensity(
            lambda_at(cfg.schedule, t),
            ScoreContext.from_history(history),
            prior,
            label_weighted=cfg.label_correction,
        )
        proposals = StepProposals(
            history.observation_matrix(),
            tau=proposal_scale(cfg.max_clusters, t + 1),
            max_clusters=cfg.max_clusters,
            kmeans_cfg=cfg.kmeans,
            rng_for_k=lambda k, _t=t: seeded_rng(cfg.seed, (_KMEANS_STREAM, rep, _t, k)),
            jitter_scale=jitter_scale,
        )
        state0 = initial_state(current.k, tgt, proposals)
        final, trace = run_chain(
            state0, cfg.chain_length, tgt, proposals, seeded_rng(cfg.seed, (_CHAIN_STREAM, rep, t))
        )

        steps.append(
            StepRecord(
                t=t,
                k=current.k,
                centers=current,
                loss=loss,
                cum_loss=cum,
                trace=trace if _want_trace(trace_steps, t) else None,
            )
        )
        current = final.centers
        history.outputs.append(current)

    return RunRecord(
        seed=cfg.seed, rep=rep, dim=cfg.dim, steps=tuple(steps), final_centers=current
    )


def run_synthetic(cfg: StreamConfig, spec, rep: int = 0, trace_steps: TraceSteps = None):
    """Generate one synthetic stream (seeded per repetition) and run on it.

    Returns (stream, record); the stream carries the true cluster counts
    when the generator defines them.
    """
    from .datagen import generate

    stream = generate(spec, seeded_rng(cfg.seed, (_DATA_STREAM, rep)))
    record = run_stream(stream.xs, cfg, rep=rep, trace_steps=trace_steps)
    return stream, record


def run_synthetic_repetitions(cfg: StreamConfig, spec, reps: int, trace_steps: TraceSteps = None):
    """Independent repetitions with per-repetition data and sampler streams,
    run one after another and returned in repetition order."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    return [run_synthetic(cfg, spec, rep=r, trace_steps=trace_steps) for r in range(reps)]
