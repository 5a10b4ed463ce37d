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
formula.  Each state carries both of its log-densities, so a move evaluates
them for the candidate only, on the raw draw: a state's coordinates become
a validated :class:`Centers` only when ``ChainState.centers`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Centers, clip_to_ball
from .posterior import TargetDensity, log_target
from .proposals import ProposalParams, StepProposals, student_log_density, student_sample

__all__ = [
    "ChainState",
    "ChainTrace",
    "propose_dimension",
    "acceptance_log_prob",
    "step",
    "run_chain",
    "initial_state",
]


@dataclass(frozen=True, eq=False)
class ChainState:
    """A center vector with its log-target and its proposal log-density.

    ``points`` is the read-only (k, d) array of coordinates;
    ``log_proposal`` is the density of the step's k-block proposal at
    ``points``; both values are computed once, when the state is built.
    """

    points: np.ndarray
    log_density: float
    log_proposal: float

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def centers(self) -> Centers:
        """The coordinates as a validated :class:`Centers` (a fresh copy per read)."""
        return Centers(self.points)

    def __eq__(self, other) -> bool:
        """Value equality, so that replayed chains compare equal."""
        return (
            isinstance(other, ChainState)
            and np.array_equal(self.points, other.points)
            and (self.log_density, self.log_proposal) == (other.log_density, other.log_proposal)
        )

    __hash__ = None


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


def acceptance_log_prob(current: ChainState, candidate: ChainState) -> float:
    """log of the move's acceptance probability (always <= 0).

    The dimension-proposal ratio is identically 1 under the symmetric
    boundary rule and is therefore omitted.
    """
    if not math.isfinite(current.log_density):
        raise ValueError("current chain state lies outside the target support")
    if candidate.log_density == -math.inf:
        return -math.inf
    delta = (
        candidate.log_density
        - current.log_density
        + current.log_proposal
        - candidate.log_proposal
    )
    return min(0.0, delta)


def _state(points: np.ndarray, tgt: TargetDensity, params: ProposalParams) -> ChainState:
    """The state at a (k, d) array, which is made read-only."""
    if not np.isfinite(points).all():
        raise ValueError("centers must have finite coordinates")
    points.flags.writeable = False
    return ChainState(points, log_target(points, tgt), student_log_density(points, params))


def step(state: ChainState, tgt: TargetDensity, proposals: StepProposals, rng):
    """One Metropolis-Hastings move.  Returns (new_state, (k', alpha, accepted))."""
    k_prop = propose_dimension(state.k, proposals.max_clusters, rng)
    params = proposals.params(k_prop)
    candidate = _state(student_sample(params, rng), tgt, params)
    alpha = math.exp(acceptance_log_prob(state, candidate))
    accepted = rng.random() < alpha
    return (candidate if accepted else state), (k_prop, alpha, accepted)


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
    params = proposals.params(k0)
    points = np.array(clip_to_ball(params.locations, 2.0 * tgt.prior.radius * (1 - 1e-9)))
    state = _state(points, tgt, params)
    if not math.isfinite(state.log_density):
        raise ValueError("warm-start state has zero target density")
    return state
