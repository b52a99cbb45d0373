"""Tests for the open-loop serving workload generator."""

import numpy as np
import pytest

from repro.serve import WorkloadConfig, make_workload
from repro.serve.workload import PERIOD
from repro.utils import ConfigError

CANDIDATES = np.arange(500)


def workload(**kw):
    return make_workload(WorkloadConfig(**kw), CANDIDATES)


class TestArrivals:
    def test_poisson_times_sorted_and_positive(self):
        w = workload(num_requests=200, seed=3)
        reqs = w.requests(100.0)
        assert len(reqs) == 200
        arr = np.array([r.arrival for r in reqs])
        assert (np.diff(arr) >= 0).all()
        assert (arr >= 0).all()

    def test_qps_scales_arrivals(self):
        """Common random numbers: doubling QPS halves every arrival."""
        w = workload(num_requests=100, seed=1)
        a = np.array([r.arrival for r in w.requests(100.0)])
        b = np.array([r.arrival for r in w.requests(200.0)])
        np.testing.assert_allclose(b, a / 2)

    def test_poisson_rate_roughly_matches(self):
        w = workload(num_requests=2000, seed=0)
        arr = [r.arrival for r in w.requests(1000.0)]
        rate = len(arr) / arr[-1]
        assert rate == pytest.approx(1000.0, rel=0.15)

    @pytest.mark.parametrize("arrival", ["bursty", "diurnal"])
    def test_modulated_arrivals_sorted(self, arrival):
        w = workload(num_requests=300, arrival=arrival, seed=5)
        arr = np.array([r.arrival for r in w.requests(50.0)])
        assert len(arr) == 300
        assert (np.diff(arr) >= 0).all()

    def test_bursty_has_heavier_tail_than_poisson(self):
        """ON/OFF modulation concentrates arrivals: the shortest
        inter-arrival quantile shrinks vs plain Poisson."""
        p = workload(num_requests=2000, seed=9)
        b = workload(num_requests=2000, arrival="bursty", seed=9,
                     burst_factor=8.0, burst_fraction=0.1)
        gaps_p = np.diff([r.arrival for r in p.requests(100.0)])
        gaps_b = np.diff([r.arrival for r in b.requests(100.0)])
        assert np.percentile(gaps_b, 25) < np.percentile(gaps_p, 25)

    def test_determinism(self):
        a = workload(num_requests=64, seed=11)
        b = workload(num_requests=64, seed=11)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.nodes, b.nodes)


class TestPopularity:
    def test_nodes_drawn_from_candidates(self):
        w = workload(num_requests=400, seed=2)
        assert set(w.nodes) <= set(CANDIDATES.tolist())

    def test_skew_concentrates_mass(self):
        flat = workload(num_requests=3000, skew=0.0, seed=4)
        hot = workload(num_requests=3000, skew=1.5, seed=4)

        def top_share(w):
            _, counts = np.unique(w.nodes, return_counts=True)
            counts = np.sort(counts)[::-1]
            return counts[:10].sum() / counts.sum()

        assert top_share(hot) > 2 * top_share(flat)


class TestValidation:
    def test_bad_arrival_kind(self):
        with pytest.raises(ConfigError):
            workload(arrival="uniform")

    def test_burst_mass_must_leave_off_rate_positive(self):
        with pytest.raises(ConfigError):
            workload(arrival="bursty", burst_factor=10.0, burst_fraction=0.1)

    def test_amplitude_bounds(self):
        with pytest.raises(ConfigError):
            workload(arrival="diurnal", amplitude=1.0)

    def test_num_requests_positive(self):
        with pytest.raises(ConfigError):
            workload(num_requests=0)

    def test_modulation_period_positive(self):
        assert PERIOD > 0

    def test_qps_positive(self):
        w = workload(num_requests=8)
        with pytest.raises(ConfigError):
            w.requests(0.0)
