"""Transdimensional Metropolis-Hastings kernel over (k, centers) states.

Moves are local in k: from dimension k the proposal dimension is k-1, k or
k+1 with probability 1/3 each, candidates falling outside {1..p} collapsed
to k itself.  This keeps the dimension-proposal mass symmetric across every
feasible pair, so its ratio drops out of the acceptance probability.  The
center proposal is an independence draw from the step's k-block family; the
dimension-matching map is a plain coordinate swap with unit Jacobian, so
the acceptance probability reduces to

    log alpha = min(0, [log target(c') - log target(c)]
                     + [log q_prop(c | k) - log q_prop(c' | k')])

computed entirely in log space.  Within-model moves (k'=k) use the same
formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Centers, clip_to_ball
from .posterior import TargetDensity, log_target
from .proposals import StepProposals, student_log_density, student_sample

__all__ = [
    "ChainState",
    "ChainTrace",
    "propose_dimension",
    "acceptance_log_prob",
    "step",
    "run_chain",
    "initial_state",
]


@dataclass(frozen=True)
class ChainState:
    """Current state of the chain plus its cached log-target value."""

    centers: Centers
    log_density: float
    n: int = 0

    @property
    def k(self) -> int:
        return self.centers.k


@dataclass(frozen=True)
class ChainTrace:
    """Per-iteration record: proposed k, acceptance probability, outcome."""

    k_proposed: np.ndarray
    alpha: np.ndarray
    accepted: np.ndarray
    k_current: np.ndarray  # dimension after the move

    def __len__(self) -> int:
        return self.k_proposed.shape[0]

    def acceptance_rate(self) -> float:
        return float(self.accepted.mean()) if len(self) else 0.0

    def to_json_dict(self) -> dict:
        return {
            "k_proposed": self.k_proposed.tolist(),
            "alpha": self.alpha.tolist(),
            "accepted": self.accepted.astype(int).tolist(),
            "k_current": self.k_current.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ChainTrace":
        return cls(
            k_proposed=np.asarray(d["k_proposed"], dtype=int),
            alpha=np.asarray(d["alpha"], dtype=float),
            accepted=np.asarray(d["accepted"], dtype=int).astype(bool),
            k_current=np.asarray(d["k_current"], dtype=int),
        )


def propose_dimension(k: int, p: int, rng) -> int:
    """Draw k' in {k-1, k, k+1} with probability 1/3 each; out-of-range
    candidates become k, preserving symmetry of the feasible pairs."""
    if not 1 <= k <= p:
        raise ValueError(f"k={k} outside {{1..{p}}}")
    cand = k - 1 + int(rng.integers(0, 3))
    return cand if 1 <= cand <= p else k


def acceptance_log_prob(
    current: ChainState,
    candidate: Centers,
    candidate_log_density: float,
    tgt: TargetDensity,
    params_current,
    params_candidate,
) -> float:
    """log of the move's acceptance probability (always <= 0).

    The dimension-proposal ratio is identically 1 under the symmetric
    boundary rule and is therefore omitted.
    """
    if not math.isfinite(current.log_density):
        raise ValueError("current chain state lies outside the target support")
    if candidate_log_density == -math.inf:
        return -math.inf
    delta = (
        candidate_log_density
        - current.log_density
        + student_log_density(current.centers, params_current)
        - student_log_density(candidate, params_candidate)
    )
    return min(0.0, delta)


def step(state: ChainState, tgt: TargetDensity, proposals: StepProposals, rng):
    """One Metropolis-Hastings move.  Returns (new_state, (k', alpha, accepted))."""
    k_prop = propose_dimension(state.k, proposals.max_clusters, rng)
    params_prop = proposals.params(k_prop)
    candidate = student_sample(params_prop, rng)
    cand_log_density = log_target(candidate, tgt)
    la = acceptance_log_prob(
        state, candidate, cand_log_density, tgt, proposals.params(state.k), params_prop
    )
    alpha = math.exp(la)
    accepted = rng.random() < alpha
    if accepted:
        new_state = ChainState(candidate, cand_log_density, state.n + 1)
    else:
        new_state = ChainState(state.centers, state.log_density, state.n + 1)
    return new_state, (k_prop, alpha, accepted)


def run_chain(init: ChainState, n_steps: int, tgt: TargetDensity, proposals: StepProposals, rng):
    """Run ``n_steps`` moves from ``init``; returns (final_state, trace)."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not math.isfinite(init.log_density):
        raise ValueError("initial chain state lies outside the target support")
    k_proposed = np.empty(n_steps, dtype=int)
    alpha = np.empty(n_steps, dtype=float)
    accepted = np.empty(n_steps, dtype=bool)
    k_current = np.empty(n_steps, dtype=int)
    state = init
    for i in range(n_steps):
        state, (kp, a, acc) = step(state, tgt, proposals, rng)
        k_proposed[i] = kp
        alpha[i] = a
        accepted[i] = acc
        k_current[i] = state.k
    trace = ChainTrace(k_proposed, alpha, accepted, k_current)
    return state, trace


def initial_state(k0: int, tgt: TargetDensity, proposals: StepProposals) -> ChainState:
    """Warm-started state: the k0-means locations, projected just inside the
    support ball of radius 2R."""
    centers = Centers(clip_to_ball(proposals.locations(k0), 2.0 * tgt.prior.radius * (1 - 1e-9)))
    ld = log_target(centers, tgt)
    if not math.isfinite(ld):
        raise ValueError("warm-start state has zero target density")
    return ChainState(centers, ld, 0)
