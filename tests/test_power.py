import math

import numpy as np
import pytest
from scipy import stats

from latinhadamard import (DistributionSpec, PowerSimConfig, ValidationError,
                           alternate_signed_square_8, bin_edges,
                           chi_square_critical, matched_normal_null,
                           normal_critical, normal_quantile,
                           preset_probability, simulate_power)
from latinhadamard import power
from latinhadamard.power import _replication_stream


class TestDistributionSpec:
    def test_parse_grammar(self):
        assert DistributionSpec.parse("normal:0,1.3") == DistributionSpec("normal", (0, 1.3))
        assert DistributionSpec.parse("t:2") == DistributionSpec("t", (2,))
        assert DistributionSpec.parse("gamma:5,0.2") == DistributionSpec("gamma", (5, 0.2))
        assert DistributionSpec.parse("cauchy") == DistributionSpec("cauchy")

    def test_validation(self):
        with pytest.raises(ValidationError):
            DistributionSpec("normal", (0, -1))
        with pytest.raises(ValidationError):
            DistributionSpec("t", (0.5,))
        with pytest.raises(ValidationError):
            DistributionSpec("gamma", (0, 1))
        with pytest.raises(ValidationError):
            DistributionSpec.parse("weird:1")
        with pytest.raises(ValidationError):
            DistributionSpec.parse("normal:a,b")
        for text in ("normal:0,nan", "normal:0,inf", "normal:-inf,1",
                     "t:inf", "gamma:nan,1"):
            with pytest.raises(ValidationError):
                DistributionSpec.parse(text)

    def test_cauchy_equals_t1_quantiles(self):
        c = DistributionSpec("cauchy")
        t1 = DistributionSpec("t", (1,))
        for q in (0.1, 0.25, 0.5, 0.9):
            assert c.quantile(q) == pytest.approx(t1.quantile(q), abs=1e-9)


class TestNormalQuantile:
    def test_against_library_oracle(self):
        qs = np.concatenate([np.linspace(1e-10, 1 - 1e-10, 1001),
                             [1e-14, 1 - 1e-14, 0.125, 0.5]])
        for q in qs:
            assert abs(normal_quantile(q) - stats.norm.ppf(q)) < 1e-9

    def test_frozen_high_precision_value(self):
        # scipy.stats.norm.ppf(0.125) frozen as the oracle value
        assert normal_quantile(0.125) == pytest.approx(-1.1503493803760079, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValidationError):
            normal_quantile(0.0)
        with pytest.raises(ValidationError):
            normal_quantile(1.0)


class TestCriticalValues:
    def test_embedded_constants_match_oracle_to_six_digits(self):
        assert normal_critical(0.05) == pytest.approx(stats.norm.ppf(0.975), abs=5e-6)
        for df in (1, 3, 7, 15):
            assert chi_square_critical(df, 0.05) == pytest.approx(
                stats.chi2.ppf(0.95, df), abs=5e-4)

    def test_general_path_uses_exact_quantiles(self):
        assert chi_square_critical(7, 0.01) == pytest.approx(stats.chi2.ppf(0.99, 7), rel=1e-12)
        assert normal_critical(0.01) == pytest.approx(stats.norm.ppf(0.995), abs=1e-9)


class TestBinning:
    def test_equiprobable_edges(self):
        scheme = bin_edges(DistributionSpec("normal", (0, 1)), preset_probability("a"))
        assert len(scheme.edges) == 7
        assert scheme.edges[3] == pytest.approx(0.0, abs=1e-12)
        assert scheme.edges[0] == pytest.approx(-1.1503493803760079, abs=1e-9)
        assert np.allclose(scheme.edges, -scheme.edges[::-1], atol=1e-12)

    def test_symmetric_preset_has_zero_middle_edge(self):
        scheme = bin_edges(DistributionSpec("normal", (0, 1)), preset_probability("b"))
        assert scheme.edges[3] == pytest.approx(0.0, abs=1e-12)

    def test_null_samples_recover_cell_probabilities(self):
        p = preset_probability("b")
        scheme = bin_edges(DistributionSpec("normal", (0, 1)), p)
        rng = np.random.default_rng(6)
        draws = 200 * 500
        counts = scheme.bin_counts(rng.normal(size=draws))
        freq = counts / draws
        tol = 4 * np.sqrt(p.p * (1 - p.p) / draws)
        assert (np.abs(freq - p.p) < tol).all()

    def test_presets(self):
        assert np.allclose(preset_probability("a").p, 1 / 8)
        assert np.allclose(preset_probability("b").p,
                           np.array([1, 2, 3, 4, 4, 3, 2, 1]) / 20)
        assert np.allclose(preset_probability("c").p,
                           np.array([1, 2, 3, 4, 1, 2, 3, 4]) / 20)
        with pytest.raises(ValidationError):
            preset_probability("d")


class TestMatchedNull:
    def test_gamma_examples(self):
        matched = matched_normal_null(DistributionSpec("gamma", (5, 0.2)))
        assert matched.family == "normal"
        assert matched.params[0] == pytest.approx(1.0)
        assert matched.params[1] == pytest.approx(math.sqrt(5) / 5)
        matched = matched_normal_null(DistributionSpec("gamma", (10, 1)))
        assert matched.params == (10.0, pytest.approx(math.sqrt(10)))
        matched = matched_normal_null(DistributionSpec("gamma", (1, 1)))
        assert matched.params == (1.0, 1.0)

    def test_rejects_other_families(self):
        with pytest.raises(ValidationError):
            matched_normal_null(DistributionSpec("normal", (0, 1)))


class TestSamplers:
    # CLT bounds at three standard errors, one million draws each
    def test_normal_mean(self):
        rng = _replication_stream(123, 0)
        x = DistributionSpec("normal", (0, 1)).sample(rng, 10 ** 6)
        assert abs(x.mean()) < 0.004

    def test_gamma_mean(self):
        rng = _replication_stream(123, 1)
        x = DistributionSpec("gamma", (5, 0.2)).sample(rng, 10 ** 6)
        assert abs(x.mean() - 1.0) < 0.002

    def test_cauchy_median(self):
        rng = _replication_stream(123, 2)
        x = DistributionSpec("cauchy").sample(rng, 10 ** 6)
        assert abs(np.median(x)) < 0.005

    def test_t_variance_direction(self):
        rng = _replication_stream(123, 3)
        x = DistributionSpec("t", (5,)).sample(rng, 10 ** 6)
        # var of t(5) is 5/3
        assert x.var() == pytest.approx(5 / 3, rel=0.02)


class TestSimulation:
    def config(self, alt=None, preset="a", reps=2000, seed=42, matrix=None):
        return PowerSimConfig(
            null=DistributionSpec("normal", (0, 1)),
            alternative=alt or DistributionSpec("normal", (0, 1)),
            p=preset_probability(preset), n=200, reps=reps,
            master_seed=seed, matrix=matrix)

    def test_null_calibration(self):
        reps = 4000
        result = simulate_power(self.config(reps=reps), threads=2)
        se = math.sqrt(0.05 * 0.95 / reps)
        for name, rate, _ in result.rows():
            assert abs(rate - 0.05) < 3 * se + 0.005, (name, rate)

    def test_statistics_order_and_se(self):
        result = simulate_power(self.config(reps=100))
        assert result.statistics == ("X2", "T2", "T3", "T4", "T5", "T6", "T7", "T8")
        for _, rate, se in result.rows():
            assert se == pytest.approx(math.sqrt(rate * (1 - rate) / 100), abs=1e-12)

    def test_scale_alternative_smoke(self):
        result = simulate_power(
            self.config(alt=DistributionSpec("normal", (0, 1.3)), reps=2000),
            threads=4)
        rates = result.as_dict()
        assert 0.82 < rates["X2"] < 0.90
        assert 0.81 < rates["T6"] < 0.89
        assert rates["T8"] < 0.09

    def test_thread_count_does_not_change_results(self):
        cfg = self.config(alt=DistributionSpec("t", (2,)), preset="b", reps=801)
        baseline = simulate_power(cfg, threads=1)
        for threads in (2, 3, 8):
            other = simulate_power(cfg, threads=threads)
            assert np.array_equal(baseline.rates, other.rates)

    @pytest.mark.parametrize("cpus,workers", [(3, 3), (None, 1)])
    def test_pool_never_exceeds_cpu_count(self, monkeypatch, cpus, workers):
        started = []

        class RecordingPool(power.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=min(max_workers, 3))

        cfg = self.config(reps=64)
        baseline = simulate_power(cfg, threads=1)
        monkeypatch.setattr(power, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(power.os, "cpu_count", lambda: cpus)
        result = simulate_power(cfg, threads=64)
        assert started == [workers]
        assert np.array_equal(result.rates, baseline.rates)

    def test_seed_changes_results(self):
        a = simulate_power(self.config(seed=1, reps=500))
        b = simulate_power(self.config(seed=2, reps=500))
        assert not np.array_equal(a.rates, b.rates)

    def test_replication_streams_are_independent_of_order(self):
        x = _replication_stream(7, 3).normal(size=4)
        _ = _replication_stream(7, 99).normal(size=100)
        y = _replication_stream(7, 3).normal(size=4)
        assert np.array_equal(x, y)

    def test_explicit_matrix_source(self):
        cfg = self.config(matrix=alternate_signed_square_8(), reps=400)
        result = simulate_power(cfg)
        assert result.reps == 400

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            self.config(reps=0)
        with pytest.raises(ValidationError):
            PowerSimConfig(null=DistributionSpec("normal", (0, 1)),
                           alternative=DistributionSpec("normal", (0, 1)),
                           p=preset_probability("a"), alpha=1.5)
