"""Tests for the RCS/WCS/TWCS samplers and estimators (Sec 5.2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import cluster_sampling as cs
from repro.core.cluster_stats import cluster_stats_df
from repro.core.framework import EvalConfig, evaluate_static
from repro.kg.generator import SyntheticKG, nell_like
from repro.oracle import assert_equivalent
from tests.test_framework import TaskRecorder


@pytest.fixture(scope="module")
def nell():
    return nell_like()


@pytest.fixture(scope="module")
def nell_df(spark):
    return nell_like().to_spark(spark).cache()


@pytest.fixture(scope="module")
def cum(nell):
    return np.cumsum(nell.sizes)


def _pps(nell, cum, n, seed):
    """Subjects of n PPS draws."""
    return nell.subjects()[cs.weighted_cluster_draws(cum, n, np.random.default_rng(seed))]


class TestWeightedDraws:
    def test_exact_draw_count_with_replacement(self, nell, cum):
        idx = cs.weighted_cluster_draws(cum, 40, np.random.default_rng(1))
        assert len(idx) == 40
        assert ((idx >= 0) & (idx < len(nell.sizes))).all()

    def test_draw_id_offset(self, nell, nell_df, cum):
        rng = np.random.default_rng(1)
        sample = cs.second_stage_sample(
            nell_df, _pps(nell, cum, 5, 1), 2, rng, draw_id_offset=100
        )
        assert sorted(sample["draw_id"].unique()) == list(range(100, 105))

    def test_pps_inclusion_frequencies(self, nell, cum):
        """Cluster selection frequency tracks M_i / M (Hansen-Hurwitz)."""
        idx = cs.weighted_cluster_draws(cum, 3000, np.random.default_rng(2))
        n1 = int((nell.sizes == 1).sum())
        expected_share_1 = n1 * 1 / nell.n_triples
        got_share_1 = float((nell.sizes[idx] == 1).mean())
        assert got_share_1 == pytest.approx(expected_share_1, rel=0.15)

    def test_rejects_nonpositive_n(self, cum):
        with pytest.raises(ValueError):
            cs.weighted_cluster_draws(cum, 0, np.random.default_rng(1))


class TestRandomDraws:
    def test_without_replacement(self, nell_df):
        """RCS slices one permutation: no cluster is drawn twice."""
        ann = TaskRecorder()
        res = evaluate_static(
            nell_df, design="rcs", seed=3, annotator=ann, config=EvalConfig(max_units=100)
        )
        drawn = pd.concat(ann.samples).groupby("draw_id")["subject"].first()
        assert res.n_draws == len(drawn) == 100
        assert drawn.nunique() == 100


class TestDrawsToTriples:
    """Whole-cluster second stage (``m=None``), as RCS and WCS use it."""

    def test_full_clusters_recovered(self, nell_df, nell, cum):
        subjects = _pps(nell, cum, 10, 4)
        triples = cs.second_stage_sample(nell_df, subjects, None, np.random.default_rng(4))
        got = triples.groupby("draw_id")["subject"].agg(["first", "size"])
        sizes = pd.Series(nell.sizes, index=nell.subjects())
        assert (got["first"].to_numpy() == subjects).all()
        assert (got["size"].to_numpy() == sizes.reindex(subjects).to_numpy()).all()

    def test_oracle_join_equivalence(self, spark, nell_df, nell, cum):
        """With repeated draws of one cluster, each draw gets all of it."""
        subjects = _pps(nell, cum, 120, 5)
        assert len(np.unique(subjects)) < len(subjects)
        got = cs.second_stage_sample(nell_df, subjects, None, np.random.default_rng(5))
        assert_equivalent(
            spark.createDataFrame(got),
            "SELECT draws.draw_id AS draw_id, kg.subject AS subject, "
            "kg.predicate AS predicate, kg.object AS object, kg.label AS label "
            "FROM kg JOIN draws ON kg.subject = draws.subject",
            kg=nell.to_pandas(),
            draws=pd.DataFrame({"draw_id": np.arange(len(subjects)), "subject": subjects}),
        )


class TestSecondStage:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_caps_per_draw_size(self, nell_df, nell, cum, m):
        sample = cs.second_stage_sample(
            nell_df, _pps(nell, cum, 30, 6), m, np.random.default_rng(7)
        )
        per_draw = sample.groupby("draw_id").size()
        assert (per_draw <= m).all()
        assert len(per_draw) == 30  # every draw yields >= 1 triple

    def test_takes_min_of_size_and_m(self, nell_df, nell, cum):
        m = 3
        subjects = _pps(nell, cum, 50, 8)
        sample = cs.second_stage_sample(nell_df, subjects, m, np.random.default_rng(9))
        sizes = pd.Series(nell.sizes, index=nell.subjects())
        per_draw = sample.groupby("draw_id").size()
        assert (per_draw.index == np.arange(50)).all()
        assert (per_draw.to_numpy() == np.minimum(sizes.reindex(subjects).to_numpy(), m)).all()

    def test_within_cluster_without_replacement(self, nell_df, nell, cum):
        sample = cs.second_stage_sample(
            nell_df, _pps(nell, cum, 20, 10), 5, np.random.default_rng(11)
        )
        dup = sample.groupby(["draw_id", "subject", "predicate", "object", "label"]).size()
        assert (dup == 1).all()

    def test_rejects_nonpositive_m(self, nell_df, nell, cum):
        with pytest.raises(ValueError):
            cs.second_stage_sample(nell_df, _pps(nell, cum, 2, 1), 0, np.random.default_rng(1))


class TestTinyKG:
    """Three clusters of sizes 3, 2, 1 (4 of 6 triples correct)."""

    @pytest.fixture(scope="class")
    def tiny_df(self, spark):
        kg = SyntheticKG("tiny", np.array([3, 2, 1]), np.array([3, 1, 0]),
                         np.array([1.0, 0.5, 0.0]), 0)
        return kg.to_spark(spark)

    def test_m_above_every_cluster_takes_whole_clusters(self, tiny_df):
        subjects = np.array([2, 0, 1, 0, 2])
        sample = cs.second_stage_sample(tiny_df, subjects, 10, np.random.default_rng(0))
        assert sample.groupby("draw_id").size().tolist() == [1, 3, 2, 3, 1]
        assert sample.groupby("draw_id")["label"].sum().tolist() == [0, 3, 1, 3, 0]

    def test_rcs_census(self, tiny_df):
        res = evaluate_static(tiny_df, design="rcs", seed=1)
        assert res.stop_reason == "census" and res.converged
        assert res.n_draws == 3 and res.n_triples == 6
        assert res.estimate.mu_hat == pytest.approx(4 / 6)


class TestSparkJobs:
    def test_twcs_runs_one_job_per_batch_plus_one(self, spark, nell_df):
        clusters = cluster_stats_df(nell_df).cache()
        clusters.count()
        sc = spark.sparkContext
        group = "test_twcs_job_count"
        sc.setJobGroup(group, "one TWCS evaluation")
        try:
            res = evaluate_static(nell_df, design="twcs", m=3, seed=12, clusters=clusters)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            clusters.unpersist()
        jobs = sc.statusTracker().getJobIdsForGroup(group)
        assert 1 <= len(jobs) <= res.n_batches + 1


class TestEstimators:
    def test_rcs_estimator_formula(self):
        # v_k = (N/M) tau_k; Eq 7.
        e = cs.estimate_rcs(np.array([2, 0, 4]), n_clusters=10, n_triples=40, alpha=0.05)
        v = 0.25 * np.array([2.0, 0, 4])
        assert e.mu_hat == pytest.approx(v.mean())

    def test_cluster_means_estimator(self):
        e = cs.estimate_cluster_means(np.array([0.5, 1.0, 0.75]), alpha=0.05)
        assert e.mu_hat == pytest.approx(0.75)
        assert e.n_units == 3

    def test_empty_inputs(self):
        assert cs.estimate_cluster_means(np.array([]), alpha=0.05).moe == float("inf")
        assert (
            cs.estimate_rcs(np.array([]), n_clusters=5, n_triples=10, alpha=0.05).moe
            == float("inf")
        )

    def test_per_draw_means(self):
        pdf = pd.DataFrame({"draw_id": [0, 0, 1], "label": [1, 0, 1]})
        assert np.allclose(cs.per_draw_means(pdf), [0.5, 1.0])
