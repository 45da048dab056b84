"""Integration tests for the iterative static framework (Sec 4, Fig 2)."""
import pandas as pd
import pytest

from repro.annotate.annotator import SimulatedAnnotator
from repro.core.cluster_stats import cluster_stats_df
from repro.core.framework import EvalConfig, evaluate_static
from repro.kg.generator import nell_like, yago_like


@pytest.fixture(scope="module")
def nell_df(spark):
    return nell_like().to_spark(spark).cache()


@pytest.fixture(scope="module")
def yago_df(spark):
    return yago_like().to_spark(spark).cache()


class TestStoppingRule:
    @pytest.mark.parametrize("design,m", [("srs", None), ("twcs", 3), ("wcs", None)])
    def test_stops_at_moe_threshold(self, nell_df, design, m):
        res = evaluate_static(nell_df, design=design, m=m, seed=11)
        assert res.estimate.moe <= 0.05
        assert res.stop_reason == "moe" and res.converged

    def test_wider_eps_needs_fewer_samples(self, nell_df):
        tight = evaluate_static(nell_df, design="twcs", m=3, seed=12)
        loose = evaluate_static(
            nell_df, design="twcs", m=3, seed=12, config=EvalConfig(eps=0.10)
        )
        assert loose.n_draws <= tight.n_draws

    def test_min_units_guard(self, yago_df):
        """YAGO stops almost immediately, but never below the CLT guard."""
        res = evaluate_static(yago_df, design="twcs", m=3, seed=13)
        assert res.n_draws >= EvalConfig().min_draws
        r2 = evaluate_static(yago_df, design="srs", seed=13)
        assert r2.n_triples >= EvalConfig().min_triples


class TestEstimates:
    @pytest.mark.parametrize("design,m", [("srs", None), ("twcs", 3)])
    def test_estimate_near_gold(self, nell_df, design, m):
        gold = nell_like().accuracy
        res = evaluate_static(nell_df, design=design, m=m, seed=14)
        # Single run: allow gold +/- (MoE + slack).
        assert abs(res.estimate.mu_hat - gold) <= res.estimate.moe + 0.05

    def test_cost_accounting_consistent(self, nell_df):
        ann = SimulatedAnnotator()
        res = evaluate_static(nell_df, design="twcs", m=3, seed=15, annotator=ann)
        assert res.hours == pytest.approx(ann.hours)
        expect = (res.n_draws * 45 + res.n_triples * 25) / 3600
        assert res.hours == pytest.approx(expect)

    def test_srs_entities_at_most_triples(self, nell_df):
        res = evaluate_static(nell_df, design="srs", seed=16)
        assert res.n_entities <= res.n_triples


class TestValidation:
    def test_unknown_design_rejected(self, nell_df):
        with pytest.raises(ValueError):
            evaluate_static(nell_df, design="nope")

    def test_twcs_requires_m(self, nell_df):
        with pytest.raises(ValueError):
            evaluate_static(nell_df, design="twcs")


class TestCensusEdgeCase:
    def test_tiny_kg_srs_census_terminates(self, spark):
        """A KG smaller than one batch must end with a full census."""
        from repro.kg.generator import SyntheticKG
        import numpy as np

        kg = SyntheticKG(
            "tiny",
            np.array([3, 2, 1]),
            np.array([3, 1, 0]),
            np.array([1.0, 0.5, 0.0]),
            0,
        )
        df = kg.to_spark(spark)
        res = evaluate_static(df, design="srs", seed=17)
        assert res.n_triples == 6
        assert res.estimate.mu_hat == pytest.approx(4 / 6)
        assert res.stop_reason == "census" and res.converged


class TestCap:
    def test_cap_stop(self, nell_df):
        res = evaluate_static(nell_df, design="twcs", m=3, seed=18, config=EvalConfig(max_units=1))
        assert res.n_batches == 1 and res.n_draws == EvalConfig().batch_clusters
        assert res.estimate.moe > EvalConfig().eps
        assert res.stop_reason == "cap" and not res.converged


class TaskRecorder(SimulatedAnnotator):
    """Keeps every annotated sample."""

    def __init__(self):
        super().__init__()
        self.samples = []

    def annotate_tasks(self, sample):
        out = super().annotate_tasks(sample)
        self.samples.append(out)
        return out


class TestLayoutIndependence:
    @pytest.mark.parametrize("design,m", [("twcs", 3), ("wcs", None), ("rcs", None)])
    def test_same_sample_under_any_partitioning(self, nell_df, design, m):
        """A seed picks the same cluster sample whatever the partitioning."""
        samples = []
        for kg_parts, cl_parts in [(1, 5), (7, 2)]:
            kg = nell_df.repartition(kg_parts)
            ann = TaskRecorder()
            evaluate_static(
                kg, design=design, m=m, seed=20, annotator=ann,
                clusters=cluster_stats_df(kg).repartition(cl_parts),
                config=EvalConfig(max_units=60),
            )
            samples.append(pd.concat(ann.samples, ignore_index=True))
        pd.testing.assert_frame_equal(samples[0], samples[1])
