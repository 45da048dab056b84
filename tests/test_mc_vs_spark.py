"""Cross-validation: the numpy Monte-Carlo layer must be statistically
indistinguishable from the Spark DataFrame samplers (DESIGN.md §3).

Strategy: run the full iterative framework a handful of times through
Spark and many times through MC on the same KG, then compare the
distributions of (estimate, triples annotated) — means within a few
standard errors. Spark repetitions are expensive, so counts are small
but the tolerances account for that.
"""
import numpy as np
import pytest

from repro.core.cluster_stats import Population
from repro.core.framework import EvalConfig, evaluate_static
from repro.kg.generator import nell_like
from repro.sim import mc


@pytest.fixture(scope="module")
def nell():
    return nell_like()


@pytest.fixture(scope="module")
def nell_df(spark, nell):
    return nell.to_spark(spark).cache()


@pytest.fixture(scope="module")
def nell_pop(nell):
    return Population.from_synthetic(nell)


N_SPARK = 5


class TestTwcsEquivalence:
    def test_estimates_and_sizes_agree(self, nell_df, nell_pop):
        spark_runs = [
            evaluate_static(nell_df, design="twcs", m=3, seed=100 + i)
            for i in range(N_SPARK)
        ]
        sim = mc.run_trials(nell_pop, "twcs", m=3, n_trials=400, seed=3)
        mu_spark = np.mean([r.estimate.mu_hat for r in spark_runs])
        tr_spark = np.mean([r.n_triples for r in spark_runs])
        assert mu_spark == pytest.approx(sim.mu_mean, abs=4 * sim.mu_sd / np.sqrt(N_SPARK))
        assert tr_spark == pytest.approx(
            sim.triples_mean, abs=4 * sim.triples_sd / np.sqrt(N_SPARK) + 5
        )

    def test_per_draw_triple_cap_matches(self, nell_df):
        r = evaluate_static(nell_df, design="twcs", m=2, seed=200)
        assert r.n_triples <= 2 * r.n_draws


class TestSrsEquivalence:
    def test_estimates_and_sizes_agree(self, nell_df, nell_pop):
        spark_runs = [
            evaluate_static(nell_df, design="srs", seed=300 + i) for i in range(N_SPARK)
        ]
        sim = mc.run_trials(nell_pop, "srs", n_trials=400, seed=4)
        mu_spark = np.mean([r.estimate.mu_hat for r in spark_runs])
        n_spark = np.mean([r.n_triples for r in spark_runs])
        assert mu_spark == pytest.approx(sim.mu_mean, abs=4 * sim.mu_sd / np.sqrt(N_SPARK))
        assert n_spark == pytest.approx(
            sim.triples_mean, abs=4 * sim.triples_sd / np.sqrt(N_SPARK) + 5
        )


class TestRcsEquivalence:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_spark_and_mc_draw_the_same_sample(self, nell_df, nell_pop, seed):
        """Both draw one permutation from default_rng(seed) and batch it
        with ``rcs_batch``, so the whole run matches, not just in law."""
        cfg = EvalConfig()
        spark = evaluate_static(nell_df, design="rcs", seed=seed, config=cfg)
        sim = mc.rcs_trial(nell_pop, np.random.default_rng(seed), cfg)
        assert spark.n_draws == sim.n_draws
        assert spark.n_triples == sim.n_triples
        assert spark.hours == sim.hours
        assert spark.estimate.mu_hat == sim.mu_hat
        assert spark.stop_reason == sim.stop_reason
