"""Transdimensional Metropolis-Hastings kernel over (k, centers) states.

Moves are local in k: from dimension k the proposal dimension is k-1, k or
k+1 with probability 1/3 each, candidates falling outside {1..p} collapsed
to k itself.  This keeps the dimension-proposal mass symmetric across every
feasible pair, so its ratio drops out of the acceptance probability.  The
center proposal is an independence draw from the step's k-block family; the
dimension-matching map is a plain coordinate swap with unit Jacobian, so
the acceptance probability reduces to

    log alpha = min(0, w(c') - w(c)),  w(c) = log target(c) - log q_prop(c | k),

a difference of log importance weights (Liu 1996), for k' = k too.

Candidates do not depend on the chain's history, so they are drawn ahead,
per k, into an append-only pool of i.i.d. draws that keeps each row's weight
(:class:`CandidateSupply`); each draw is used at most once, so the chain
stays exact.  The move loop makes one :func:`step` call per move and keeps
the current k and weight in one record that an accepted move overwrites.
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
# a refill evaluates at most as many whole chunks' rows as keep rows * k * d * t,
# which bounds the score's (rows, k, t) distance array, to this many elements,
# but at least one chunk's: so a batch keeps to max(2**15, _POOL_ROWS * k * d * t)
# elements, and one chunk exceeds the bound at d = 2 whenever k * t > 512
_BATCH_ELEMENTS = 2**15
# one chain draw per iteration, uniform on [0, 3 * 2**50): its residue mod 3
# gives the dimension offset (exactly 1/3 each of -1, 0, +1) and its
# quotient, times 2**-50, the acceptance uniform; a run iterates over an int8
# and a float64 array of them through memoryviews, which give Python numbers
_DRAW_RANGE = 3 << 50


@dataclass(frozen=True, eq=False, slots=True)
class ChainState:
    """A center vector with its log-target, its proposal log-density and
    their difference ``log_weight``, its log importance weight.

    ``points`` is the read-only (k, d) array of coordinates.  A state returned
    by :func:`run_chain` also carries the run's candidate ``supply`` and, per
    k, the ``cursors`` index of the next unused candidate, which a run
    continued from it takes up; neither enters ==.
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

    @property
    def log_weight(self) -> float:
        return self.log_density - self.log_proposal

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
    """The move loop's current state: its dimension and its log importance weight."""

    __slots__ = ("k", "log_weight")

    def __init__(self, k: int, log_weight: float):
        self.k, self.log_weight = k, log_weight


class CandidateSupply:
    """Pre-evaluated independence candidates of one (target, proposals) pair.

    Pool k is a table of k-block proposal draws: ``chunks[k]`` is the
    append-only list of read-only (``_POOL_ROWS``, k, d) point stacks, and
    ``log_weight[k]`` is a list of Python floats whose entry i is row i's
    log-target minus its proposal log-density, for the rows evaluated so
    far: all but fewer than ``_POOL_ROWS`` of the rows drawn.  Pool k has its
    own generator, seeded from (seed, k), so its rows do not depend on who
    asks for them.  A refill draws its chunks with one ``student_sample``
    call, whose draw blocks are the chunks, so each chunk equals one drawn
    alone; how many rows a refill evaluates changes no row and no weight.
    """

    def __init__(self, tgt: TargetDensity, proposals: StepProposals, seed: int):
        self.tgt, self.proposals, self.seed = tgt, proposals, seed
        pools = range(proposals.max_clusters + 1)
        self.chunks, self.log_weight = [[] for _ in pools], [[] for _ in pools]
        self._rngs = {}

    def refill(self, k: int, rows: int) -> None:
        """Evaluate pool k's next ``rows`` rows, at most as many whole chunks'
        worth as keep rows * k * d * t within ``_BATCH_ELEMENTS`` (at least
        one chunk's), and append their log weights to ``log_weight[k]``.  The
        rows are the last chunk's unevaluated ones, then, where those run
        short, rows of as few new chunks as cover the rest, drawn by one
        ``student_sample`` call.  Each of the two parts is evaluated by one
        batched call of each density, so that no chunk is copied."""
        chunks, log_weight = self.chunks[k], self.log_weight[k]
        if not chunks:
            self._rngs[k] = seeded_rng(self.seed, k)
        params = self.proposals.params(k)
        chunk_elements = _POOL_ROWS * k * self.tgt.prior.dim * max(self.tgt.ctx.t, 1)
        rows = min(rows, _POOL_ROWS * max(1, _BATCH_ELEMENTS // chunk_elements))
        unevaluated = _POOL_ROWS * len(chunks) - len(log_weight)
        if unevaluated:
            tail = chunks[-1][_POOL_ROWS - unevaluated :][:rows]
            log_weight += self._log_weights(tail, params)
            rows -= len(tail)
        if rows:
            n_new = -(-rows // _POOL_ROWS) * _POOL_ROWS  # whole chunks
            drawn = student_sample(params, n_new, self._rngs[k])
            if not np.isfinite(drawn).all():
                raise ValueError("candidate centers must have finite coordinates")
            drawn.flags.writeable = False
            chunks += (drawn[i : i + _POOL_ROWS] for i in range(0, n_new, _POOL_ROWS))
            log_weight += self._log_weights(drawn[:rows], params)

    def _log_weights(self, points: np.ndarray, params) -> list:
        """The log importance weights of a (n, k, d) stack, as Python floats."""
        return (log_target(points, self.tgt) - student_log_density(points, params)).tolist()


def acceptance_log_prob(current, log_density: float, log_proposal: float) -> float:
    """log of the acceptance probability (always <= 0) of a move from
    ``current`` (anything with ``log_density`` and ``log_weight``, such as a
    :class:`ChainState`) to a candidate with the given log-target and proposal
    log-density: ``(log_density - log_proposal) - current.log_weight``.

    The dimension-proposal ratio is identically 1 under the symmetric
    boundary rule and is therefore omitted.  This is the reference rule that
    :func:`step` computes inline, in the same float order.
    """
    if not math.isfinite(current.log_density):
        raise ValueError("current chain state lies outside the target support")
    if log_density == -math.inf:
        return -math.inf
    delta = (log_density - log_proposal) - current.log_weight
    return delta if delta < 0.0 else 0.0


def step(state, k: int, log_weight: float, u: float):
    """One Metropolis-Hastings move from ``state`` to a candidate of dimension
    ``k`` and log importance weight ``log_weight`` (log-target minus proposal
    log-density), accepted when the uniform ``u`` falls below alpha.

    ``state`` is anything with ``k`` and ``log_weight``: a :class:`ChainState`,
    or the record :func:`run_chain` keeps, holding the state before this move.
    It must lie in the target support, which :func:`run_chain` ensures and
    this does not check; then, for a finite proposal log-density, alpha is
    exp(:func:`acceptance_log_prob`) bit for bit (a ``-inf`` log-target gives
    0.0; with both densities ``-inf`` the weight is NaN and alpha reads 1.0).
    Returns (accepted, (k, alpha, accepted)), the move's trace row without
    the k after it; the caller updates its state.
    """
    delta = log_weight - state.log_weight
    alpha = math.exp(delta) if delta < 0.0 else 1.0
    accepted = u < alpha
    return accepted, (k, alpha, accepted)


def _proposals_of(offset: int, k: int, p: int, offsets: bytes, j: int) -> int:
    """How many of the moves from the j-th on would propose k + offset from k,
    given every move's dimension offset as one int8 byte; an offset leading
    outside {1..p} proposes k itself."""
    if offset:
        return offsets.count(offset % 256, j)  # -1 is the byte 255
    stay = offsets.count(0, j)
    if k == 1:
        stay += offsets.count(255, j)
    if k == p:
        stay += offsets.count(1, j)
    return stay


def run_chain(init: ChainState, n_steps: int, tgt: TargetDensity, proposals: StepProposals, rng):
    """Run ``n_steps`` moves from ``init``; returns (final_state, trace).

    A run takes up the candidate supply ``init`` carries if it was built for
    this ``tgt`` and ``proposals``, and otherwise seeds one from ``rng``;
    then ``rng`` gives one draw per iteration.  So a run in blocks, each
    continuing from the last one's state with the same ``rng``, equals one run.

    The draws fix every move's dimension offset up front.  When a move finds
    its pool's evaluated rows used up, the refill evaluates as many rows as
    the moves left, this one first, would propose at that pool were the
    chain to stay at its k.  From the first accepted move to another k on,
    even once the chain is back at the k it started from, it may move
    again, so a pool then grows by at most the rows it holds (at least one
    chunk's), and never beyond that count.  A pool taken up from an earlier
    run grows by at least the rows it holds, so a chain run in many blocks
    refills each pool O(log moves) times.
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
    offsets = (v % 3 - 1).astype(np.int8).tobytes()
    uniforms = memoryview((v // 3) * 2.0**-50)
    weights = supply.log_weight
    carried, left = [bool(w) for w in weights], False
    move = step  # the module global at call time, so a patched step is the one called
    cur, k, last = _Current(init.k, init.log_weight), init.k, None
    kps, alphas, accepts = [], [], []
    for offset, u in zip(memoryview(offsets).cast("b"), uniforms):
        kp = k + offset if 1 <= k + offset <= p else k
        i = cursors[kp]
        cursors[kp] = i + 1
        try:
            w = weights[kp][i]
        except IndexError:  # the cursor reached the end of the pool's evaluated rows
            rows = _proposals_of(kp - k, k, p, offsets, len(kps))
            if carried[kp]:  # a pool taken up from an earlier run at least doubles
                rows = max(rows, i)
            elif left:  # a chain that has left its starting k may move again: at most double
                rows = min(rows, max(_POOL_ROWS, i))
            supply.refill(kp, rows)
            w = weights[kp][i]
        accepted, (_, alpha, _) = move(cur, kp, w, u)
        if accepted:
            left = left or kp != k
            cur.k = k = kp
            cur.log_weight = w
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
    if last is not None:  # the last accepted pool row; alone, its densities equal the batch's
        c, r = divmod(last, _POOL_ROWS)
        row = supply.chunks[k][c][r : r + 1]
        ld, lp = log_target(row, tgt)[0], student_log_density(row, proposals.params(k))[0]
        state = ChainState(row[0], float(ld), float(lp))
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
