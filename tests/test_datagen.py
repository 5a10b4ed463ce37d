import csv
import io
import math

import numpy as np
import pytest

from jumpclust.core import seeded_rng
from jumpclust.datagen import (
    SyntheticSpec,
    generate,
    sine_drift_center,
    sine_drift_observation,
    stream_csv_rows,
    true_cluster_count,
)


class TestDriftCenters:
    def test_first_step_closed_form(self):
        # floor(0/20) = 0, so c1 = -5 pi/2 - 5 pi/9 = -55 pi/18
        c1, c2 = sine_drift_center(1)
        assert c1 == pytest.approx(-55 * math.pi / 18, rel=1e-15)
        assert c2 == pytest.approx(5 * math.sin(-55 * math.pi / 18), rel=1e-15)

    def test_jump_every_twenty_steps(self):
        a = sine_drift_center(20)
        b = sine_drift_center(21)
        assert b[0] - a[0] == pytest.approx(5 * math.pi / 9, rel=1e-12)

    def test_same_segment_same_center(self):
        assert sine_drift_center(21) == sine_drift_center(40)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            sine_drift_center(0)

    def test_true_count_schedule(self):
        assert true_cluster_count(1) == 1
        assert true_cluster_count(20) == 1
        assert true_cluster_count(21) == 2
        assert true_cluster_count(200) == 10
        assert true_cluster_count(500) == 10  # capped


class TestGenerate:
    def test_cube_noise_first_hundred(self):
        stream = generate(SyntheticSpec(kind="sine_drift", horizon=100), seeded_rng(80, 0))
        for t in range(1, 101):
            center = np.array(sine_drift_center(t))
            assert np.abs(stream.xs[t - 1] - center).max() <= 0.5

    def test_gaussian_phase_mean(self):
        rng = seeded_rng(81, 0)
        draws = np.array([sine_drift_observation(150, rng) for _ in range(10_000)])
        center = np.array(sine_drift_center(150))
        assert np.abs(draws.mean(axis=0) - center).max() <= 0.05

    def test_emits_truth(self):
        stream = generate(SyntheticSpec(kind="sine_drift", horizon=45), seeded_rng(82, 0))
        assert stream.k_true.tolist() == [true_cluster_count(t) for t in range(1, 46)]

    def test_deterministic_under_seed(self):
        a = generate(SyntheticSpec(kind="sine_drift", horizon=30), seeded_rng(83, 0))
        b = generate(SyntheticSpec(kind="sine_drift", horizon=30), seeded_rng(83, 0))
        np.testing.assert_array_equal(a.xs, b.xs)

    def test_radius_containment(self):
        # over 100 repetitions of the 200-step stream, at least 99.9% of
        # points stay inside the ball of radius 15
        total, outside = 0, 0
        for rep in range(100):
            stream = generate(SyntheticSpec(kind="sine_drift", horizon=200), seeded_rng(84, rep))
            norms = np.linalg.norm(stream.xs, axis=1)
            total += norms.size
            outside += int((norms > 15.0).sum())
        assert outside / total <= 0.001

    def test_gaussian_mixture_is_centre_plus_standard_normal(self):
        centers = ((6.0, 0.0), (-6.0, 0.0), (0.0, 6.0))
        spec = SyntheticSpec(kind="gaussian_mixture", horizon=50, centers=centers)
        stream = generate(spec, seeded_rng(85, 0))
        rng = seeded_rng(85, 0)
        comps = rng.choice(3, size=50, p=[1 / 3] * 3)
        expected = np.asarray(centers)[comps] + rng.standard_normal((50, 2))
        np.testing.assert_array_equal(stream.xs, expected)
        assert stream.k_true is None

    def test_gaussian_mixture_shapes_and_means(self):
        spec = SyntheticSpec(
            kind="gaussian_mixture", horizon=20_000, centers=((0.0, 0.0), (30.0, 0.0))
        )
        stream = generate(spec, seeded_rng(86, 0))
        assert stream.xs.shape == (20_000, 2)
        right = stream.xs[:, 0] > 15
        assert abs(right.mean() - 0.5) <= 0.01  # equally weighted components
        assert abs(stream.xs[right, 0].mean() - 30.0) <= 0.05

    def test_csv_rows(self):
        stream = generate(SyntheticSpec(kind="sine_drift", horizon=3), seeded_rng(87, 0))
        rows = stream_csv_rows(stream)
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        parsed = list(csv.reader(io.StringIO(buf.getvalue())))
        assert len(parsed) == 3
        assert int(parsed[0][0]) == 1 and int(parsed[0][3]) == 1
