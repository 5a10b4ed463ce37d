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
each draw is used at most once, so the chain stays exact.  A refill draws
its chunks with one ``student_sample`` call and stores each row's two
densities as Python floats.  The move loop indexes them by cursor, makes
one :func:`step` call per move (alpha by the expression of
:func:`acceptance_log_prob`), keeps the current k and densities in one
record that an accepted move overwrites, and after the last move builds
the returned state and the trace's k after each move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import Centers, clip_to_ball, seeded_rng
from .posterior import TargetDensity, log_target
from .proposals import BLOCK_ROWS, StepProposals, student_log_density, student_sample

__all__ = [
    "ChainState",
    "ChainTrace",
    "CandidateSupply",
    "acceptance_log_prob",
    "step",
    "run_chain",
    "initial_state",
]

# rows per pool chunk: one draw block of student_sample, so a chunk's rows do
# not depend on how many chunks a refill draws together
_POOL_ROWS = BLOCK_ROWS
# a refill evaluates as many chunks as the pool holds (at least one) in one
# batched call, capped so that rows * k * d * t, which bounds the score's
# (rows, k, t) distance array, keeps to this many elements
_BATCH_ELEMENTS = 2**15
# one chain draw per iteration, uniform on [0, 3 * 2**50): its residue mod 3
# gives the dimension offset (exactly 1/3 each of -1, 0, +1) and its
# quotient, times 2**-50, the acceptance uniform; a run iterates over an int8
# and a float64 array of them through memoryviews, which give Python numbers
_DRAW_RANGE = 3 << 50


@dataclass(frozen=True, eq=False, slots=True)
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


class _Current:
    """The move loop's current state: its dimension and its two densities."""

    __slots__ = ("k", "log_density", "log_proposal")

    def __init__(self, k: int, log_density: float, log_proposal: float):
        self.k, self.log_density, self.log_proposal = k, log_density, log_proposal


class CandidateSupply:
    """Pre-evaluated independence candidates of one (target, proposals) pair.

    Pool k is a table of k-block proposal draws: ``chunks[k]`` is the
    append-only list of read-only (``_POOL_ROWS``, k, d) point stacks, and
    ``log_density[k]`` and ``log_proposal[k]`` are lists of Python floats
    whose entry i belongs to pool row i.  Pool k has its own generator,
    seeded from (seed, k), so its rows do not depend on who asks for them.
    A refill draws all its chunks with one ``student_sample`` call, whose
    draw blocks are the chunks, so each chunk equals one drawn alone.
    """

    def __init__(self, tgt: TargetDensity, proposals: StepProposals, seed: int):
        self.tgt, self.proposals, self.seed = tgt, proposals, seed
        pools = range(proposals.max_clusters + 1)
        self.chunks = [[] for _ in pools]
        self.log_density, self.log_proposal = [[] for _ in pools], [[] for _ in pools]
        self._rngs = {}

    def refill(self, k: int) -> None:
        """Append pool k's next chunks, as many as it holds (at least one, at most
        ``_BATCH_ELEMENTS`` allows), drawn by one ``student_sample`` call and
        evaluated in one batched call of each density."""
        chunks = self.chunks[k]
        if not chunks:
            self._rngs[k] = seeded_rng(self.seed, k)
        params = self.proposals.params(k)
        chunk_elements = _POOL_ROWS * k * self.tgt.prior.dim * max(self.tgt.ctx.t, 1)
        n = max(1, min(len(chunks), _BATCH_ELEMENTS // chunk_elements))
        points = student_sample(params, n * _POOL_ROWS, self._rngs[k])
        if not np.isfinite(points).all():
            raise ValueError("candidate centers must have finite coordinates")
        points.flags.writeable = False
        chunks += (points[i : i + _POOL_ROWS] for i in range(0, len(points), _POOL_ROWS))
        self.log_density[k] += log_target(points, self.tgt).tolist()
        self.log_proposal[k] += student_log_density(points, params).tolist()


def acceptance_log_prob(current, log_density: float, log_proposal: float) -> float:
    """log of the acceptance probability (always <= 0) of a move from
    ``current`` (anything with ``log_density`` and ``log_proposal``, such as
    a :class:`ChainState`) to a candidate with the given log-target and
    proposal log-density.

    The dimension-proposal ratio is identically 1 under the symmetric
    boundary rule and is therefore omitted.  This is the reference rule that
    :func:`step` computes inline.
    """
    if not math.isfinite(current.log_density):
        raise ValueError("current chain state lies outside the target support")
    if log_density == -math.inf:
        return -math.inf
    delta = log_density - current.log_density + current.log_proposal - log_proposal
    return delta if delta < 0.0 else 0.0


def step(state, k: int, log_density: float, log_proposal: float, u: float):
    """One Metropolis-Hastings move from ``state`` to a pre-evaluated candidate
    of dimension ``k``, accepted when the uniform ``u`` falls below alpha.

    ``state`` is anything with ``k``, ``log_density`` and ``log_proposal``: a
    :class:`ChainState`, or the record :func:`run_chain` keeps, whose fields
    hold the state before this move.  It must lie in the target support,
    which :func:`run_chain` ensures and this does not check; then, for a
    finite ``log_proposal``, alpha is exp(:func:`acceptance_log_prob`) bit
    for bit (a ``-inf`` candidate gives 0.0).  Returns (accepted, (k, alpha,
    accepted)), the move's trace row without the k after it; the caller
    updates its state.
    """
    delta = log_density - state.log_density + state.log_proposal - log_proposal
    alpha = math.exp(delta) if delta < 0.0 else 1.0
    accepted = u < alpha
    return accepted, (k, alpha, accepted)


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
    offsets = memoryview((v % 3 - 1).astype(np.int8))
    uniforms = memoryview((v // 3) * 2.0**-50)
    lds, lps = supply.log_density, supply.log_proposal
    move = step  # the module global at call time, so a patched step is the one called
    cur, k, last = _Current(init.k, init.log_density, init.log_proposal), init.k, None
    kps, alphas, accepts = [], [], []
    for offset, u in zip(offsets, uniforms):
        kp = k + offset if 1 <= k + offset <= p else k
        i = cursors[kp]
        cursors[kp] = i + 1
        try:
            ld, lp = lds[kp][i], lps[kp][i]
        except IndexError:  # the cursor reached the pool's end
            supply.refill(kp)
            ld, lp = lds[kp][i], lps[kp][i]
        accepted, (_, alpha, _) = move(cur, kp, ld, lp, u)
        if accepted:
            cur.k = k = kp
            cur.log_density, cur.log_proposal = ld, lp
            last = i
        kps.append(kp)
        alphas.append(alpha)
        accepts.append(accepted)
    k_proposed, accepted = np.array(kps), np.array(accepts)
    # the k after each move: the proposed k of the last accepted move so far
    taken = np.maximum.accumulate(np.where(accepted, np.arange(1, n_steps + 1), 0))
    k_current = np.concatenate(([init.k], k_proposed))[taken]
    trace = ChainTrace(k_proposed, np.array(alphas), accepted, k_current)
    state = init
    if last is not None:  # the state is the pool row of the last accepted move
        c, r = divmod(last, _POOL_ROWS)
        state = ChainState(supply.chunks[k][c][r], cur.log_density, cur.log_proposal)
    return replace(state, supply=supply, cursors=tuple(cursors)), trace


def initial_state(k0: int, tgt: TargetDensity, proposals: StepProposals) -> ChainState:
    """Warm-started state: the k0-means locations, projected just inside the
    support ball of radius 2R."""
    params = proposals.params(k0)
    c = Centers(clip_to_ball(params.locations, 2.0 * tgt.prior.radius * (1 - 1e-9)))
    log_proposal = float(student_log_density(c.points[None], params)[0])
    state = ChainState(c.points, log_target(c, tgt), log_proposal)
    if not math.isfinite(state.log_density):
        raise ValueError("warm-start state has zero target density")
    return state
