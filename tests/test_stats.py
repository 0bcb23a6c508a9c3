import math

import numpy as np
import pytest

from jointgibbs.stats import (
    EstimatedValue,
    batch_means,
    slope,
    slope_with_ci,
    t_quantile_95,
)


def test_batch_means_recovers_the_mean():
    data = [1.0, 2.0, 3.0, 4.0]
    est = batch_means(data, n_batches=2)
    assert est.value == pytest.approx(2.5)
    assert est.n_samples == 4
    assert est.n_batches == 2
    # batches are (1,2) and (3,4): means 1.5, 3.5 -> sd sqrt(2), se 1.0
    assert est.stderr == pytest.approx(np.std([1.5, 3.5], ddof=1) / math.sqrt(2))
    assert float(est) == 2.5


def test_batch_means_degenerate_cases():
    est = batch_means([5.0], n_batches=20)
    assert est.value == 5.0
    assert est.stderr == math.inf
    assert est.n_batches == 1
    with pytest.raises(ValueError):
        batch_means([])


def test_batch_means_constant_stream():
    est = batch_means(np.full(100, 3.25))
    assert est.value == 3.25
    assert est.stderr == 0.0
    assert est.n_batches == 20


def test_slope_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    assert slope(x, 2.0 - 0.7 * x) == pytest.approx(-0.7)
    beta, half = slope_with_ci(x, 2.0 - 0.7 * x)
    assert beta == pytest.approx(-0.7)
    assert half == pytest.approx(0.0, abs=1e-12)


def test_slope_degenerate_abscissae():
    with pytest.raises(ValueError):
        slope([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        slope_with_ci([0.0, 1.0], [0.0, 1.0])


def test_slope_ci_covers_noisy_line():
    rng = np.random.default_rng(0)
    x = np.linspace(0, 1, 40)
    y = 1.0 + 0.5 * x + rng.normal(scale=0.01, size=x.size)
    beta, half = slope_with_ci(x, y)
    assert abs(beta - 0.5) < half


def test_t_quantiles_frozen():
    assert t_quantile_95(1) == pytest.approx(12.7062)
    assert t_quantile_95(2) == pytest.approx(4.3027)
    # df between tabulated rows falls back to the nearest row below
    assert t_quantile_95(12) == t_quantile_95(9)
    assert t_quantile_95(1000) == pytest.approx(1.9842)
    assert t_quantile_95(9, one_sided=True) == pytest.approx(1.8331)


def test_estimated_value_is_floatable():
    est = EstimatedValue(value=1.5, stderr=0.1, n_samples=10)
    assert math.isclose(float(est) + 1.0, 2.5)
    assert est.n_batches == 20