import itertools
import math
import tracemalloc

import numpy as np
import pytest

from jumpclust import cli, posterior
from jumpclust.core import Centers, seeded_rng
from jumpclust.posterior import (
    _CELL_CHUNK,
    GridTooLargeError,
    TargetDensity,
    _block_cells,
    _unordered_cells,
    grid_oracle,
    log_target,
)
from jumpclust.priors import PriorSpec, log_prior
from jumpclust.scoring import ScoreContext, score


def toy_context(dim=1):
    """Three observations with fixed reference losses and variance weights."""
    if dim == 1:
        xs = np.array([[-0.3], [0.05], [0.4]])
    else:
        xs = np.array([[-0.3, 0.1], [0.05, -0.15], [0.4, 0.2]])
    return ScoreContext(xs, np.array([0.1, 0.1, 0.1]), np.array([1.0, 1.5, 1.0606601717798212]))


def toy_target(dim=1, p=3, radius=1.0, decay=0.3, lam=0.8660254037844386):
    prior = PriorSpec(kind="uniform", dim=dim, max_clusters=p, radius=radius, decay=decay)
    return TargetDensity(lam, toy_context(dim), prior)


class TestLogTarget:
    def test_prior_only_at_start(self):
        prior = PriorSpec(kind="uniform", dim=1, max_clusters=2, radius=1.0)
        tgt = TargetDensity.prior_only(prior)
        c = Centers([[0.4]])
        assert log_target(c, tgt) == pytest.approx(log_prior(c, prior), rel=1e-14)

    def test_outside_support(self):
        tgt = toy_target()
        assert log_target(Centers([[2.5]]), tgt) == -math.inf

    def test_zero_temperature_reduces_to_prior(self):
        ctx = toy_context()
        prior = PriorSpec(kind="uniform", dim=1, max_clusters=3, radius=1.0)
        tgt = TargetDensity(0.0, ctx, prior)
        c = Centers([[0.3]])
        assert log_target(c, tgt) == pytest.approx(log_prior(c, prior), rel=1e-14)

    def test_differences_depend_only_on_score_and_prior(self):
        tgt = toy_target()
        a, b = Centers([[0.2]]), Centers([[-0.5], [0.9]])
        direct = log_target(a, tgt) - log_target(b, tgt)
        expected = -tgt.lam * (score(a, tgt.ctx) - score(b, tgt.ctx)) + (
            log_prior(a, tgt.prior) - log_prior(b, tgt.prior)
        )
        assert direct == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("label_weighted", [False, True])
    def test_centers_and_points_agree(self, label_weighted):
        # each row of a stacked evaluation equals the one-row value, with ==,
        # for both prior kinds and for rows outside the 2R ball (-inf)
        ctx = toy_context(dim=2)
        rng = seeded_rng(14, 0)
        for prior in (
            PriorSpec(kind="uniform", dim=2, max_clusters=3, radius=1.0, decay=0.3),
            PriorSpec(kind="student", dim=2, max_clusters=3, radius=1.0, scale=0.5),
        ):
            tgt = TargetDensity(0.87, ctx, prior, label_weighted=label_weighted)
            for k in (1, 2, 3):
                stack = rng.uniform(-2.5, 2.5, size=(40, k, 2))
                values = log_target(stack, tgt)
                assert values.tolist() == [log_target(Centers(row), tgt) for row in stack]
                assert np.isneginf(values).any() and np.isfinite(values).any()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            log_target(np.zeros((1, 2)), toy_target(dim=1))
        with pytest.raises(ValueError, match="dimension"):
            log_target(np.zeros((4, 1, 2)), toy_target(dim=1))

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            TargetDensity(-0.1, toy_context(), toy_target().prior)


class TestGridOracle:
    def test_prior_marginal_uniform(self):
        prior = PriorSpec(kind="uniform", dim=1, max_clusters=2, radius=1.0, decay=0.0)
        oracle = grid_oracle(TargetDensity.prior_only(prior), resolution=200)
        np.testing.assert_allclose(oracle, [0.5, 0.5], atol=1e-9)

    def test_prior_marginal_with_decay(self):
        # q(1)/q(2) = e^eta = 2 when eta = ln 2, so the marginal is (2/3, 1/3)
        prior = PriorSpec(kind="uniform", dim=1, max_clusters=2, radius=1.0, decay=math.log(2))
        oracle = grid_oracle(TargetDensity.prior_only(prior), resolution=200)
        np.testing.assert_allclose(oracle, [2 / 3, 1 / 3], atol=1e-9)

    def test_prior_marginal_d2_polar_cells(self):
        prior = PriorSpec(kind="uniform", dim=2, max_clusters=2, radius=1.0, decay=math.log(2))
        oracle = grid_oracle(TargetDensity.prior_only(prior), resolution=40)
        np.testing.assert_allclose(oracle, [2 / 3, 1 / 3], atol=1e-6)

    def test_masses_sum_to_one(self):
        oracle = grid_oracle(toy_target(), resolution=80)
        assert oracle.shape == (3,) and not oracle.flags.writeable
        assert oracle.sum() == pytest.approx(1.0, abs=1e-9)

    def test_grid_refinement_stability(self):
        coarse = grid_oracle(toy_target(), resolution=100)
        fine = grid_oracle(toy_target(), resolution=200)
        assert np.abs(coarse - fine).max() < 1e-3

    def test_student_prior_marginal(self):
        prior = PriorSpec(kind="student", dim=1, max_clusters=2, radius=1.0, decay=0.0, scale=0.8)
        oracle = grid_oracle(TargetDensity.prior_only(prior), resolution=400)
        # truncation constants cancel per block, so the marginal is q
        np.testing.assert_allclose(oracle, [0.5, 0.5], atol=2e-3)

    def test_size_limits_enforced(self, monkeypatch):
        def no_cells(*args):
            raise AssertionError("cells were built before the budget was checked")

        monkeypatch.setattr(posterior, "_block_cells", no_cells)
        prior = PriorSpec(kind="uniform", dim=1, max_clusters=3, radius=1.0)
        tgt = TargetDensity.prior_only(prior)
        with pytest.raises(GridTooLargeError):
            grid_oracle(tgt, resolution=3000)  # 3000^3 cells
        plane = PriorSpec(kind="uniform", dim=2, max_clusters=2, radius=1.0)
        for resolution in (400, 10**5):  # resolution^2 cells per block
            with pytest.raises(GridTooLargeError, match="grid would need"):
                grid_oracle(TargetDensity.prior_only(plane), resolution=resolution)
        big = PriorSpec(kind="uniform", dim=1, max_clusters=4, radius=1.0)
        with pytest.raises(GridTooLargeError):
            grid_oracle(TargetDensity.prior_only(big), resolution=10)

    def test_label_weighted_target_adds_log_factorial(self):
        tgt = toy_target()
        weighted = TargetDensity(tgt.lam, tgt.ctx, tgt.prior, label_weighted=True)
        for k in (1, 2, 3):
            c = Centers(np.linspace(-0.5, 0.5, k).reshape(-1, 1))
            assert log_target(c, weighted) - log_target(c, tgt) == pytest.approx(
                math.lgamma(k + 1), rel=1e-12
            )

    def test_label_weighted_oracle_marginal(self):
        # uniform count prior weighted by k!: slices carry mass 1:2
        prior = PriorSpec(kind="uniform", dim=1, max_clusters=2, radius=1.0, decay=0.0)
        tgt = TargetDensity(0.0, toy_context(), prior, label_weighted=True)
        oracle = grid_oracle(tgt, resolution=200)
        np.testing.assert_allclose(oracle, [1 / 3, 2 / 3], atol=1e-9)

    def test_data_shifts_mass_toward_matching_k(self):
        # three well separated observations: the tempered target should put
        # more mass on k=3 than the prior does
        prior = PriorSpec(kind="uniform", dim=1, max_clusters=3, radius=1.0, decay=0.0)
        xs = np.array([[-1.6], [0.0], [1.6]])
        ctx = ScoreContext(xs, np.zeros(3), np.zeros(3))
        tgt = TargetDensity(3.0, ctx, prior)
        oracle = grid_oracle(tgt, resolution=150)
        assert oracle[2] > 1 / 3

    # (target, resolution): the d=1, p=3 case spans more than one chunk
    ORDERED_CASES = {
        "d1-p3-chunked": (toy_target(), 45),
        "d2-p2": (toy_target(dim=2, p=2), 7),
        "student": (
            TargetDensity(
                0.87,
                toy_context(),
                PriorSpec(kind="student", dim=1, max_clusters=3, radius=1.0, decay=0.3, scale=0.5),
            ),
            20,
        ),
        "label-weighted": (
            TargetDensity(0.87, toy_context(), toy_target().prior, label_weighted=True),
            20,
        ),
        "prior-only": (TargetDensity.prior_only(toy_target().prior), 20),
    }

    def test_chunked_slices_match_unchunked_reference(self):
        # reference: the Riemann sum over all b^k ordered tuples of block cells
        assert self.ORDERED_CASES["d1-p3-chunked"][1] ** 3 > _CELL_CHUNK
        for case, (tgt, resolution) in self.ORDERED_CASES.items():
            pts, vols = _block_cells(tgt.prior.dim, tgt.prior.radius, resolution)
            logs = []
            for k in range(1, tgt.prior.max_clusters + 1):
                idx = np.indices((pts.shape[0],) * k).reshape(k, -1).T
                logs.append(log_target(pts[idx], tgt) + np.log(vols)[idx].sum(axis=1))
            peak = max(v.max() for v in logs)
            masses = np.array([np.exp(v - peak).sum() for v in logs])
            np.testing.assert_allclose(
                grid_oracle(tgt, resolution),
                masses / masses.sum(),
                rtol=1e-12,
                atol=0,
                err_msg=case,
            )


def searchsorted_cells(b, k, chunk):
    """The enumerator as it was before it built each chunk's rows with
    np.repeat: one searchsorted per tuple and a column_stack per chunk."""
    idx = np.zeros((1, 0), dtype=np.intp)
    last = np.zeros(1, dtype=np.intp)
    run = np.zeros(1, dtype=np.intp)
    log_runs = np.zeros(1)
    for depth in range(1, k + 1):
        width = b - last
        starts = np.cumsum(width) - width
        n = int(starts[-1] + width[-1])
        step = chunk if depth == k else n
        for lo in range(0, n, step):
            pos = np.arange(lo, min(lo + step, n))
            row = np.searchsorted(starts, pos, side="right") - 1
            nxt = last[row] + (pos - starts[row])
            nrun = np.where(nxt == last[row], run[row] + 1, 1)
            nidx = np.column_stack([idx[row], nxt])
            nlog = log_runs[row] + np.log(nrun)
            if depth == k:
                yield nidx, math.lgamma(k + 1) - nlog
        idx, last, run, log_runs = nidx, nxt, nrun, nlog


class TestUnorderedCells:
    @pytest.mark.parametrize("chunk", [2**16, _CELL_CHUNK, 7, 1000])
    def test_same_chunks_as_the_searchsorted_builder(self, chunk, monkeypatch):
        monkeypatch.setattr(posterior, "_CELL_CHUNK", chunk)
        cases = [(b, k) for b in range(1, 10) for k in (1, 2, 3)]
        if chunk > 7:  # oracle sizes in chunks of 7 would take 10^5 chunks
            cases += [(150, 3), (400, 2), (2500, 2)]
        for b, k in cases:
            got = list(_unordered_cells(b, k, np.zeros(b)))
            ref = list(searchsorted_cells(b, k, chunk))
            assert len(got) == len(ref), (b, k)
            for (idx, log_orders, _), (ref_idx, ref_log_orders) in zip(got, ref):
                assert idx.dtype == np.intp and idx.shape == ref_idx.shape, (b, k)
                assert idx.tobytes() == ref_idx.tobytes(), (b, k)
                assert log_orders.tobytes() == ref_log_orders.tobytes(), (b, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 5, 9])
    def test_each_unordered_tuple_once_with_its_orderings(self, b, k, monkeypatch):
        monkeypatch.setattr(posterior, "_CELL_CHUNK", 7)
        chunks = list(_unordered_cells(b, k, np.zeros(b)))
        assert max(len(idx) for idx, _, _ in chunks) <= 7
        idx = np.concatenate([c[0] for c in chunks])
        orders = np.exp(np.concatenate([c[1] for c in chunks]))
        assert idx.shape == (math.comb(b + k - 1, k), k)
        assert (np.diff(idx, axis=1) >= 0).all()
        assert len({tuple(r) for r in idx}) == len(idx)
        assert orders.sum() == pytest.approx(b**k, rel=1e-12)
        ordered = np.sort(np.indices((b,) * k).reshape(k, -1).T, axis=1)
        counts = {tuple(r): 0 for r in idx}
        for r in ordered:
            counts[tuple(r)] += 1
        np.testing.assert_allclose(orders, [counts[tuple(r)] for r in idx], rtol=1e-12)

    def test_chunks_bounded_at_oracle_sizes(self):
        for b, k in ((150, 3), (3000, 1), (400, 2)):
            sizes = [len(idx) for idx, _, _ in _unordered_cells(b, k, np.zeros(b))]
            assert sum(sizes) == math.comb(b + k - 1, k)
            assert max(sizes) <= _CELL_CHUNK


def block_log_vols(kind, b):
    """b cell log-volumes of a grid: the first b of d = 1 intervals, of d = 2
    polar sectors (exactly the oracle's cells when b is a square), or
    random values over six decades of magnitude with both signs, the first
    of them -0.0."""
    if kind == "d1-intervals":
        return np.log(_block_cells(1, 1.0, max(b, 2))[1][:b])
    if kind == "d2-sectors":
        return np.log(_block_cells(2, 1.0, max(math.isqrt(b - 1) + 1, 2))[1][:b])
    rng = seeded_rng(31, b)
    out = rng.standard_normal(b) * 10.0 ** rng.uniform(-3, 3, size=b)
    out[0] = -0.0
    return out


class TestCarriedLogVolumes:
    """The enumerator carries each tuple's summed cell log-volume along its
    prefixes; it has the bytes of the row sum the oracle gathered before."""

    @pytest.mark.parametrize("kind", ["d1-intervals", "d2-sectors", "random"])
    @pytest.mark.parametrize("chunk", [7, 1000, _CELL_CHUNK])
    def test_equal_to_the_gathered_row_sums(self, chunk, kind, monkeypatch):
        monkeypatch.setattr(posterior, "_CELL_CHUNK", chunk)
        cases = [(b, k) for b in range(1, 10) for k in (1, 2, 3)]
        cases += [(150, 3), (400, 2), (2500, 2)]  # the oracle's sizes
        for b, k in cases:
            log_vols = block_log_vols(kind, b)
            assert log_vols.shape == (b,)
            chunks = _unordered_cells(b, k, log_vols)
            if chunk == 7 and b > 9:  # 10^5 chunks of 7: the first 2,000
                chunks = itertools.islice(chunks, 2000)
            for idx, _, log_vol in chunks:
                assert log_vol.dtype == np.float64 and log_vol.shape == (len(idx),), (b, k)
                assert log_vol.tobytes() == log_vols[idx].sum(axis=1).tobytes(), (b, k)


def concatenated_oracle(tgt, resolution):
    """grid_oracle as it was before it wrote each slice into one preallocated
    array: the chunks' log-weights in a list, concatenated, then normalised
    through an exp copy.  Chunks of 2^16 cells, the size it used."""
    pts, vols = _block_cells(tgt.prior.dim, tgt.prior.radius, resolution)
    log_vols = np.log(vols)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(posterior, "_CELL_CHUNK", 2**16)
        slice_logs = [
            np.concatenate([
                log_target(pts[idx], tgt) + log_vols[idx].sum(axis=1) + log_orders
                for idx, log_orders, _ in _unordered_cells(pts.shape[0], k, log_vols)
            ])
            for k in range(1, tgt.prior.max_clusters + 1)
        ]
    peak = max(float(v.max()) for v in slice_logs)
    unnorm = np.array([float(np.exp(v - peak).sum()) for v in slice_logs])
    return unnorm / unnorm.sum()


class TestOracleBuffer:
    """Each slice's log-weights are written chunk by chunk into one array and
    normalised in place; the masses have the bytes of the concatenated
    reference whatever the chunk size."""

    CASES = {
        "d1-p3": (toy_target(), 20),
        "d2-p2": (toy_target(dim=2, p=2), 8),
        "prior-only": (TargetDensity.prior_only(toy_target().prior), 20),
        "label-weighted": (
            TargetDensity(0.87, toy_context(), toy_target().prior, label_weighted=True),
            20,
        ),
    }

    @pytest.mark.parametrize("chunk", [7, 1000, _CELL_CHUNK])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_bytes_as_the_concatenated_slices(self, case, chunk, monkeypatch):
        tgt, resolution = self.CASES[case]
        expected = concatenated_oracle(tgt, resolution).tobytes()
        monkeypatch.setattr(posterior, "_CELL_CHUNK", chunk)
        assert grid_oracle(tgt, resolution).tobytes() == expected


def traced_peak_bytes(fn):
    """Peak bytes traced by tracemalloc while fn() runs, above the start."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestOracleMemory:
    """The oracle holds one float64 per unordered tuple plus one chunk's
    temporaries.  numpy's allocations are traced, so the peaks repeat."""

    @pytest.mark.parametrize("flags, limit_mib", [
        (["--dim", "1", "--resolution", "150"], 8),
        (["--dim", "2", "--max-clusters", "2", "--resolution", "30"], 6),
    ], ids=["d1-r150", "d2-p2-r30"])
    def test_traced_peak(self, flags, limit_mib):
        args = cli.build_parser().parse_args(["oracle-check", *flags])
        tgt = cli._toy_target(args)
        grid_oracle(tgt, 5)  # first-call set-up outside the measurement
        peak = traced_peak_bytes(lambda: grid_oracle(tgt, args.resolution))
        assert peak < limit_mib * 2**20
