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

Candidates do not depend on the chain's history, so they are drawn ahead,
per k, into an append-only pool of i.i.d. draws evaluated in batched chunks;
each draw is used at most once, so the chain stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import Centers, clip_to_ball, seeded_rng
from .posterior import TargetDensity, log_target
from .proposals import StepProposals, student_log_density, student_sample

__all__ = [
    "ChainState",
    "ChainTrace",
    "CandidateSupply",
    "acceptance_log_prob",
    "step",
    "run_chain",
    "initial_state",
]

# rows per pool chunk, evaluated in one batched call; it bounds the batched
# score's (rows, k, d, t) temporary
_POOL_ROWS = 32
# one chain draw per iteration, uniform on [0, 3 * 2**50): its residue mod 3
# gives the dimension offset (exactly 1/3 each of -1, 0, +1) and its
# quotient, times 2**-50, the acceptance uniform
_DRAW_RANGE = 3 << 50


@dataclass(frozen=True, eq=False)
class ChainState:
    """A center vector with its log-target and its proposal log-density.

    ``points`` is the read-only (k, d) array of coordinates; ``log_proposal``
    is the density of the step's k-block proposal at ``points``.  A state
    returned by :func:`run_chain` also carries the run's candidate ``supply``
    and, per k, the ``cursors`` index of the next unused candidate, which a
    run continued from it takes up; neither enters ==.
    """

    points: np.ndarray
    log_density: float
    log_proposal: float
    supply: Optional[CandidateSupply] = field(default=None, repr=False)
    cursors: tuple = field(default=(), repr=False)

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


class CandidateSupply:
    """Pre-evaluated independence candidates of one (target, proposals) pair.

    ``chunks[k]`` is the append-only list of (points, log_density,
    log_proposal) chunks of ``_POOL_ROWS`` k-block proposal draws: a
    read-only (rows, k, d) stack and its two (rows,) density arrays.  Pool
    k has its own generator, seeded from (seed, k), so its rows do not
    depend on who asks for them.
    """

    def __init__(self, tgt: TargetDensity, proposals: StepProposals, seed: int):
        self.tgt, self.proposals, self.seed = tgt, proposals, seed
        self.chunks = [[] for _ in range(proposals.max_clusters + 1)]
        self._rngs = {}

    def refill(self, k: int) -> None:
        """Append pool k's next chunk, each density evaluated in one batched call."""
        chunks = self.chunks[k]
        if not chunks:
            self._rngs[k] = seeded_rng(self.seed, k)
        params = self.proposals.params(k)
        points = student_sample(params, _POOL_ROWS, self._rngs[k])
        if not np.isfinite(points).all():
            raise ValueError("candidate centers must have finite coordinates")
        points.flags.writeable = False
        chunks.append((points, log_target(points, self.tgt), student_log_density(points, params)))


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


def step(state: ChainState, candidate: ChainState, u: float):
    """One Metropolis-Hastings move to a pre-evaluated candidate, accepted when
    the uniform ``u`` falls below alpha.  Returns (new_state, (k', alpha, accepted))."""
    alpha = math.exp(acceptance_log_prob(state, candidate))
    accepted = u < alpha
    return (candidate if accepted else state), (candidate.k, alpha, accepted)


def run_chain(init: ChainState, n_steps: int, tgt: TargetDensity, proposals: StepProposals, rng):
    """Run ``n_steps`` moves from ``init``; returns (final_state, trace).

    A run takes up the candidate supply ``init`` carries if it was built for
    this ``tgt`` and ``proposals``, and otherwise seeds one from ``rng``;
    then ``rng`` gives one draw per iteration.  So a run in blocks, each
    continuing from the last one's state with the same ``rng``, equals one run.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not math.isfinite(init.log_density):
        raise ValueError("initial chain state lies outside the target support")
    p = proposals.max_clusters
    if not 1 <= init.k <= p:
        raise ValueError(f"k={init.k} outside {{1..{p}}}")
    supply, cursors = init.supply, list(init.cursors)
    if supply is None or supply.tgt is not tgt or supply.proposals is not proposals:
        supply = CandidateSupply(tgt, proposals, int(rng.integers(2**63)))
        cursors = [0] * (p + 1)
    v = rng.integers(0, _DRAW_RANGE, size=n_steps)
    offsets, uniforms = (v % 3 - 1).tolist(), ((v // 3) * 2.0**-50).tolist()
    pools = supply.chunks
    state, k, rows = init, init.k, []
    for offset, u in zip(offsets, uniforms):
        kp = k + offset if 1 <= k + offset <= p else k
        c, r = divmod(cursors[kp], _POOL_ROWS)
        if c == len(pools[kp]):
            supply.refill(kp)
        points, log_density, log_proposal = pools[kp][c]
        cursors[kp] += 1
        candidate = ChainState(points[r], log_density.item(r), log_proposal.item(r))
        state, (_, a, acc) = step(state, candidate, u)
        k = kp if acc else k
        rows.append((kp, a, acc, k))
    trace = ChainTrace(*map(np.array, zip(*rows)))  # rows are (k', alpha, accepted, k)
    return replace(state, supply=supply, cursors=tuple(cursors)), trace


def initial_state(k0: int, tgt: TargetDensity, proposals: StepProposals) -> ChainState:
    """Warm-started state: the k0-means locations, projected just inside the
    support ball of radius 2R."""
    params = proposals.params(k0)
    c = Centers(clip_to_ball(params.locations, 2.0 * tgt.prior.radius * (1 - 1e-9)))
    state = ChainState(c.points, log_target(c, tgt), student_log_density(c, params))
    if not math.isfinite(state.log_density):
        raise ValueError("warm-start state has zero target density")
    return state
