import math
import re

import numpy as np
import pytest
import sympy as sp

from jumpclust import proposals
from jumpclust.core import (
    Centers,
    KMeansConfig,
    RunRecord,
    StepRecord,
    StreamConfig,
    seeded_rng,
)
from jumpclust.datagen import SyntheticSpec, generate
from jumpclust.metrics import (
    _OCL_STREAM,
    correct_k_count,
    ecl_curve,
    k_mode_curve,
    ocl,
    regret_bound_anytime,
    regret_bound_fixed,
    regret_bound_horizon,
    regret_bound_student,
    regret_report,
    student_dim_constant,
    student_kl_bound,
    updated_k_sequence,
)
from jumpclust.online import _DATA_STREAM, run_synthetic_repetitions
from jumpclust.proposals import kmeans_fit


def record_with_ks(ks, losses=None):
    losses = losses if losses is not None else [1.0] * len(ks)
    steps = tuple(StepRecord(Centers(np.zeros((k, 2))), loss) for k, loss in zip(ks, losses))
    return RunRecord(seed=0, rep=0, steps=steps, final_centers=Centers(np.zeros((1, 2))))


class TestOcl:
    def test_perfect_fit_is_zero(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        xs = np.repeat(pts, 6, axis=0)
        assert ocl(xs, 3, radius=10.0, rng=seeded_rng(70, 0)) == pytest.approx(0.0, abs=1e-18)

    def test_single_center_closed_form(self):
        # alternating -1/+1 in d=1: best single center is 0, each loss is 1
        xs = np.array([[-1.0], [1.0]] * 25)
        assert ocl(xs, 1, radius=5.0, rng=seeded_rng(70, 0)) == pytest.approx(50.0, rel=1e-12)

    def test_monotone_in_k(self):
        rng = seeded_rng(70, 0)
        xs = rng.standard_normal((60, 2)) * 2.0
        vals = [ocl(xs, k, radius=10.0, rng=seeded_rng(70, (1, k))) for k in (1, 2, 3, 4)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_clipping_respects_radius(self):
        xs = np.array([[10.0, 0.0]] * 5)
        # radius 1 forces the center onto the unit circle: loss 5 * 9^2
        assert ocl(xs, 1, radius=1.0, rng=seeded_rng(70, 0)) == pytest.approx(5 * 81.0, rel=1e-12)

    def test_rng_is_required(self):
        with pytest.raises(TypeError, match="rng"):
            ocl(np.zeros((4, 2)), 1, radius=1.0)

    def test_shared_lloyd_cap_does_not_bind(self, monkeypatch):
        # the replicate benchmark's last OCL fit (seed 0, rep 0, t = 200, k = 10,
        # 50 restarts) settles within the proposals' pass cap: only a fit that
        # runs out of Lloyd passes rescores its restarts with nearest_sq_dist
        stream = generate(SyntheticSpec(kind="sine_drift", horizon=200),
                          seeded_rng(0, (_DATA_STREAM, 0)))
        assert stream.k_true[-1] == 10
        calls = []

        def counted(*args, _fn=proposals.nearest_sq_dist):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(proposals, "nearest_sq_dist", counted)
        kmeans_fit(stream.xs, 10, KMeansConfig(restarts=50), seeded_rng(0, (_OCL_STREAM, 0, 200)))
        assert calls == []


class TestCounting:
    def test_all_correct(self):
        rec = record_with_ks([1, 2, 3, 4])
        assert correct_k_count(rec, [1, 2, 3, 4]) == 4

    def test_all_off_by_one(self):
        rec = record_with_ks([2, 3, 4, 5])
        assert correct_k_count(rec, [1, 2, 3, 4]) == 0

    def test_handcrafted_partial(self):
        ks = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
        truth = [1, 2, 2, 2, 3, 4, 4, 5, 4, 5]
        rec = record_with_ks(ks)
        assert correct_k_count(rec, truth) == 6

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            correct_k_count(record_with_ks([1, 2]), [1])

    def test_updated_sequence_shifts_by_one(self):
        rec = record_with_ks([1, 2, 3])
        got = updated_k_sequence(rec)
        assert got.tolist() == [2, 3, rec.final_centers.k]

    def test_ecl_and_mode(self):
        a = record_with_ks([1, 2], losses=[1.0, 3.0])
        b = record_with_ks([2, 2], losses=[3.0, 1.0])
        np.testing.assert_allclose(ecl_curve([a, b]), [2.0, 4.0])
        assert k_mode_curve([a, b, b]).tolist() == [2, 2]


def _sym_fixed(k, T, d, R, lam, eta, p):
    k, T, d, R, lam, eta, p = map(sp.Float, (k, T, d, R, lam, eta, p))
    expr = (
        d * k / (2 * lam) * sp.log(8 * R**2 * lam * T / (d + 2))
        + eta * k / lam
        + sp.log(p) / lam
        + d / (2 * lam)
        + sp.Rational(81, 2) * lam * T * R**4
    )
    return float(expr.evalf(30))


def _sym_horizon(k, T, d, R, eta, p, doubled):
    k, T, d, R, eta, p = map(sp.Float, (k, T, d, R, eta, p))
    quarter = sp.Rational(81, 2) if doubled else sp.Rational(81, 4)
    expr = (
        k * d * R**2 / (d + 2) * sp.sqrt(T) * sp.log(4 * sp.sqrt(T))
        + k * 2 * R**2 * eta / (d + 2) * sp.sqrt(T)
        + (2 * R**2 * sp.log(p) / (d + 2) + d * R**2 / (d + 2) + quarter * (d + 2) * R**2)
        * sp.sqrt(T)
    )
    return float(expr.evalf(30))


def _sym_student(k, T, d, R, tau0, eta, p, norms, adaptive):
    kf, Tf, df, Rf, tf, ef, pf = map(sp.Float, (k, T, d, R, tau0, eta, p))
    cd = (sp.gamma((3 + df) / 2) / (sp.gamma(sp.Rational(3, 2)) * sp.gamma(df / 2 + 1))) ** (1 / df)
    c1 = (3 * Rf) ** 2
    coef = sp.Integer(1) if adaptive else sp.Rational(1, 2)
    expr = (
        (3 + df) * kf * sp.sqrt(Tf) * sp.log(1 + 1 / (cd * Tf ** sp.Rational(1, 4)) + sp.Float(sum(norms)) / (sp.sqrt(6) * kf * tf))
        + kf * df / 4 * sp.sqrt(Tf) * sp.log(Tf)
        + (sp.sqrt(3 * kf**2 * df + 12 * tf**2 / cd**2) + ef * kf) * sp.sqrt(Tf)
        + (sp.log(pf) + coef * c1**2) * sp.sqrt(Tf)
    )
    return float(expr.evalf(30))


def _sym_kl(k, d, loc_norms, tau, xi, tau0, R, eta, p):
    df, tf, t0, ef, pf = map(sp.Float, (d, tau, tau0, eta, p))
    cd = sp.gamma((3 + df) / 2) / (
        sp.gamma(sp.Rational(3, 2)) * sp.gamma(df / 2 + 1) * 6 ** (df / 2)
    )
    per = sum(
        (3 + df) / 2 * sp.log(1 + sp.Float(x) ** 2 / (6 * tf**2)) - df / 2 * sp.log(sp.Float(x) ** 2)
        for x in xi
    )
    expr = (
        per
        - k * sp.log(cd)
        + (3 + df) * k * sp.log(1 + tf / t0 + sp.Float(sum(loc_norms)) / (sp.sqrt(6) * k * t0))
        + k * df * sp.log(t0)
        + sp.log(pf)
        + ef * (k - 1)
    )
    return float(expr.evalf(30))


class TestBoundEvaluators:
    def test_fixed_matches_independent_evaluation(self):
        args = dict(k=1, horizon=100, dim=2, radius=1.0, lam=0.2, eta=0.0, max_clusters=5)
        ours = regret_bound_fixed(**args)
        ref = _sym_fixed(1, 100, 2, 1.0, 0.2, 0.0, 5)
        assert ours == pytest.approx(ref, rel=1e-12)

    def test_fixed_linear_in_k(self):
        base = dict(horizon=100, dim=2, radius=1.0, lam=0.2, eta=0.3, max_clusters=9)
        diffs = {
            k: regret_bound_fixed(k=k + 1, **base) - regret_bound_fixed(k=k, **base)
            for k in (1, 3, 5)
        }
        expected = 2 / (2 * 0.2) * math.log(8 * 1 * 0.2 * 100 / 4) + 0.3 / 0.2
        for d in diffs.values():
            assert d == pytest.approx(expected, rel=1e-12)

    def test_fixed_validity_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            regret_bound_fixed(1, 100, 2, 1.0, 1e-4, 0.0, 5)

    def test_fixed_nonnegative_when_valid(self):
        val = regret_bound_fixed(1, 100, 2, 1.0, (2 + 2) / (2 * 100 * 1.0), 0.0, 5)
        assert val >= 0

    def test_horizon_and_anytime_match_independent_evaluation(self):
        args = (10, 200, 2, 15.0, 0.0, 20)
        ours_h = regret_bound_horizon(*args)
        ours_a = regret_bound_anytime(*args)
        assert ours_h == pytest.approx(_sym_horizon(*args, doubled=False), rel=1e-12)
        assert ours_a == pytest.approx(_sym_horizon(*args, doubled=True), rel=1e-12)

    def test_anytime_minus_horizon_is_variance_term(self):
        args = (3, 150, 2, 4.0, 0.7, 12)
        gap = regret_bound_anytime(*args) - regret_bound_horizon(*args)
        assert gap == pytest.approx(81 * 4 * 16.0 / 4 * math.sqrt(150), rel=1e-12)

    def test_anytime_refuses_what_horizon_refuses(self):
        # the first failing argument names the error, whichever bound is asked
        bad = [(0, 0, 2, 1.0, 0.0, 5), (3, 0, 0, 1.0, 0.0, 5), (3, 10, 0, math.nan, 0.0, 5),
               (3, 10, 2, 1e-200, -1.0, 5), (3, 10, 2, 1.0, -1.0, 5), (1, 10, 2, 1.0, 0.0, 0)]
        for args in bad:
            with pytest.raises(ValueError) as horizon:
                regret_bound_horizon(*args)
            with pytest.raises(ValueError, match=re.escape(str(horizon.value))):
                regret_bound_anytime(*args)

    def test_eta_zero_drops_exactly_one_term(self):
        with_eta = regret_bound_horizon(4, 100, 2, 2.0, 0.5, 8)
        without = regret_bound_horizon(4, 100, 2, 2.0, 0.0, 8)
        expected = 4 * 2 * 4.0 * 0.5 / 4 * math.sqrt(100)
        assert with_eta - without == pytest.approx(expected, rel=1e-12)

    def test_anytime_scaling_in_horizon(self):
        # bound / (sqrt(T) log T) decreases toward the positive constant
        # k d R^2 / (2 (d+2)): the remainder grows like sqrt(T) log T
        k, d, r = 2, 2, 3.0
        vals = [
            regret_bound_anytime(k, T, d, r, 0.0, 6) / (math.sqrt(T) * math.log(T))
            for T in (10, 100, 1000, 10_000, 100_000)
        ]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        limit = k * d * r**2 / (2 * (d + 2))
        assert vals[-1] >= limit > 0

    def test_student_dim_constant_d1(self):
        assert student_dim_constant(1) == pytest.approx(4 / math.pi, rel=1e-12)

    def test_student_matches_independent_evaluation(self):
        norms = [7.0] * 10
        ours = regret_bound_student(10, 200, 2, 15.0, 1.0, 0.0, 20, norms)
        ref = _sym_student(10, 200, 2, 15.0, 1.0, 0.0, 20, norms, adaptive=False)
        assert ours == pytest.approx(ref, rel=1e-12)

    def test_student_adaptive_gap_is_half_c1_squared(self):
        norms = [2.0, 3.0]
        a = regret_bound_student(2, 400, 2, 5.0, 1.0, 0.0, 8, norms, adaptive=True)
        b = regret_bound_student(2, 400, 2, 5.0, 1.0, 0.0, 8, norms, adaptive=False)
        c1 = (3 * 5.0) ** 2
        assert a - b == pytest.approx(0.5 * c1**2 * math.sqrt(400), rel=1e-12)

    def test_student_validity_threshold(self):
        # T >= 12 d tau0^4 / (cd^2 R^4) fails for tiny R
        with pytest.raises(ValueError, match="threshold"):
            regret_bound_student(1, 5, 2, 0.1, 2.0, 0.0, 3, [0.05])

    def test_kl_bound_matches_independent_evaluation(self):
        ours = student_kl_bound(
            1, 1, [[0.0]], tau=0.1, xi=[0.5], prior_scale=1.0, radius=1.0, eta=0.0, max_clusters=1
        )
        ref = _sym_kl(1, 1, [0.0], 0.1, [0.5], 1.0, 1.0, 0.0, 1)
        assert ours == pytest.approx(ref, rel=1e-12)

    def test_kl_bound_increasing_in_location_norms(self):
        small = student_kl_bound(
            2, 2, [[0.1, 0.0], [0.0, 0.1]], 0.2, [0.5, 0.5], 1.0, 2.0, 0.1, 4
        )
        large = student_kl_bound(
            2, 2, [[1.5, 0.0], [0.0, 1.5]], 0.2, [0.5, 0.5], 1.0, 2.0, 0.1, 4
        )
        assert large > small

    def test_kl_bound_parameter_ranges(self):
        with pytest.raises(ValueError):
            student_kl_bound(1, 1, [[0.0]], 2.0, [0.5], 1.0, 1.0, 0.0, 1)  # tau too big
        with pytest.raises(ValueError):
            student_kl_bound(1, 1, [[0.0]], 0.1, [1.5], 1.0, 1.0, 0.0, 1)  # xi > R


class TestRegretReport:
    def test_small_run_consistency(self):
        cfg = StreamConfig(dim=2, max_clusters=4, radius=12.0, chain_length=30, seed=2)
        spec = SyntheticSpec(kind="sine_drift", horizon=8)
        results = run_synthetic_repetitions(cfg, spec, reps=2)
        report = regret_report(results, cfg, ocl_restarts=8, steps=[4, 8])
        np.testing.assert_allclose(report.regret, report.ecl - report.ocl)
        assert report.t.tolist() == [4, 8]
        assert report.k_true.tolist() == [1, 1]
        assert np.all(report.bound > 0)
        rows = report.csv_rows()
        assert len(rows) == 2 and len(rows[0]) == len(report.CSV_HEADER)

    def test_requires_truth(self):
        cfg = StreamConfig(dim=1, max_clusters=2, radius=5.0, chain_length=10, seed=3)
        from jumpclust.online import run_stream
        from jumpclust.datagen import SyntheticStream

        stream = SyntheticStream(xs=np.array([[0.0], [1.0]]))
        rec = run_stream(stream.xs, cfg)
        with pytest.raises(ValueError, match="true cluster counts"):
            regret_report([(stream, rec)], cfg)
